//! Serving tour: from a CONGEST build to a query-serving distance oracle.
//!
//! Builds Theorem 1.1 weighted APSP once (on every hardware thread), wraps
//! the result in a `congest_serve::DistanceOracle`, exercises all three query
//! paths — point
//! lookup, batched lookup, k-nearest-by-distance — and then drives the
//! oracle with the deterministic closed-loop load generator: a request-rate
//! ramp over four scenario mixes, every served answer differential-checked
//! against sequential Dijkstra, reporting p50/p95/p99 latency, achieved rps
//! and cache hit rate per step.
//!
//! Run: `cargo run --release --example serve_tour`

use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
use congest_apsp::graph::{generators, NodeId, WeightedGraph};
use congest_apsp::serve::loadgen::{run_scenario, ExactReference, QueryMix, RampConfig, Scenario};
use congest_apsp::serve::DistanceOracle;
use congest_apsp::ExecutorConfig;

fn main() {
    // 1. Build the source once, one worker per hardware thread.
    let g = generators::gnp_connected(64, 0.12, 11);
    let wg = WeightedGraph::random_weights(&g, 1..=9, 11);
    let exec = ExecutorConfig::with_threads(0);
    let run = weighted_apsp(
        &wg,
        &WeightedApspConfig {
            seed: 11,
            exec,
            ..Default::default()
        },
    )
    .expect("weighted APSP build");
    println!(
        "built weighted APSP: n = {}, m = {} | {} messages, {} rounds\n",
        wg.n(),
        wg.m(),
        run.metrics.messages,
        run.metrics.rounds
    );

    // 2. The three query paths.
    let check = ExactReference::dijkstra(&wg);
    let mut oracle = DistanceOracle::builder(run).cache_capacity(256).build();
    let d = oracle.lookup(NodeId::new(0), NodeId::new(63));
    println!("lookup(v0, v63)        = {d:?}");
    let batch = oracle.lookup_batch(&[
        (NodeId::new(1), NodeId::new(2)),
        (NodeId::new(0), NodeId::new(63)), // cache hit
    ]);
    println!("lookup_batch(2 pairs)  = {batch:?}");
    let near = oracle.k_nearest(NodeId::new(0), 4);
    println!("k_nearest(v0, 4)       = {near:?}");
    println!("oracle counters        = {:?}\n", oracle.metrics());

    // 3. The closed-loop rps ramp, every answer checked as it is served.
    let ramp = RampConfig {
        initial_rps: 2_000,
        increment_rps: 6_000,
        target_rps: 20_000,
        step_duration_ms: 50,
    };
    let scenarios = [
        Scenario {
            name: "uniform-cold".into(),
            mix: QueryMix::Uniform,
            warm_cache: false,
        },
        Scenario {
            name: "hotkey-warm".into(),
            mix: QueryMix::HotKey {
                hot_nodes: 8,
                hot_permille: 900,
            },
            warm_cache: true,
        },
        Scenario {
            name: "knn-8".into(),
            mix: QueryMix::Knn { k: 8 },
            warm_cache: false,
        },
        Scenario {
            name: "batch-16".into(),
            mix: QueryMix::Batch { size: 16 },
            warm_cache: false,
        },
    ];
    println!(
        "{:<14} {:>10} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "scenario", "target rps", "achieved rps", "p50 us", "p95 us", "p99 us", "hit rate"
    );
    for sc in &scenarios {
        let report = run_scenario(&mut oracle, sc, &ramp, 11, &check);
        for st in &report.steps {
            println!(
                "{:<14} {:>10} {:>12.1} {:>9.2} {:>9.2} {:>9.2} {:>9.3}",
                sc.name,
                st.target_rps,
                st.achieved_rps,
                st.p50_us,
                st.p95_us,
                st.p99_us,
                st.hit_rate()
            );
        }
    }
    println!("\nevery served answer matched the sequential reference");
}
