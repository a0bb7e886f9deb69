//! Serving tour: from a CONGEST build to a query-serving distance oracle.
//!
//! Builds Theorem 1.1 weighted APSP once (on every hardware thread), wraps
//! the result in a `congest_serve::DistanceOracle`, exercises all three query
//! paths — point lookup, batched lookup, k-nearest-by-distance — then serves
//! a fixed uniform stream and a fixed hot-set stream, printing the oracle's
//! exact counters and cache hit rate after each. Every served answer is
//! checked against sequential Dijkstra; any mismatch panics.
//!
//! Run: `cargo run --release --example serve_tour`

use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
use congest_apsp::graph::{generators, NodeId, WeightedGraph};
use congest_apsp::serve::loadgen::{AnswerCheck, ExactReference};
use congest_apsp::serve::{DistanceOracle, DistanceSource};
use congest_apsp::ExecutorConfig;

/// Serves `pairs` one point lookup at a time, checking every answer.
fn serve_stream<S: DistanceSource>(
    oracle: &mut DistanceOracle<S>,
    check: &ExactReference,
    pairs: impl Iterator<Item = (usize, usize)>,
) {
    for (s, t) in pairs {
        let (s, t) = (NodeId::new(s), NodeId::new(t));
        let got = oracle.lookup(s, t);
        check.check_point(s, t, got).expect("served answer");
    }
}

fn main() {
    // 1. Build the source once, one worker per hardware thread.
    let g = generators::gnp_connected(64, 0.12, 11);
    let wg = WeightedGraph::random_weights(&g, 1..=9, 11);
    let n = wg.n();
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
        "built weighted APSP: n = {n}, m = {} | {} messages, {} rounds\n",
        wg.m(),
        run.metrics.messages,
        run.metrics.rounds
    );

    // 2. The three query paths, each answer checked.
    let check = ExactReference::dijkstra(&wg);
    let mut oracle = DistanceOracle::builder(run).cache_capacity(256).build();
    let (v0, v63) = (NodeId::new(0), NodeId::new(63));
    let d = oracle.lookup(v0, v63);
    check.check_point(v0, v63, d).expect("point lookup");
    println!("lookup(v0, v63)        = {d:?}");
    let pairs = [(NodeId::new(1), NodeId::new(2)), (v0, v63)]; // the second is a cache hit
    let batch = oracle.lookup_batch(&pairs);
    for (&(s, t), &d) in pairs.iter().zip(&batch) {
        check.check_point(s, t, d).expect("batched lookup");
    }
    println!("lookup_batch(2 pairs)  = {batch:?}");
    let near = oracle.k_nearest(v0, 4);
    check.check_knn(v0, 4, &near).expect("k-nearest");
    println!("k_nearest(v0, 4)       = {near:?}");
    println!("oracle counters        = {:?}\n", oracle.metrics());

    // 3. Two fixed streams from a cold cache: every ordered pair once in a
    //    scrambled order (all misses), then 4 096 lookups cycling over the
    //    8 × 8 hot set (hits after its first pass).
    oracle.reset_cache();
    let before = oracle.metrics().clone();
    let all_pairs = n * n;
    serve_stream(
        &mut oracle,
        &check,
        (0..all_pairs).map(|i| {
            let p = i * 1031 % all_pairs; // 1031 is prime: a permutation of 0..n²
            (p / n, p % n)
        }),
    );
    let uniform = oracle.metrics().clone();
    serve_stream(&mut oracle, &check, (0..4096).map(|i| (i % 8, i / 8 % 8)));
    let hot = oracle.metrics().clone();
    for (name, from, to) in [("uniform", &before, &uniform), ("hot", &uniform, &hot)] {
        let hits = to.hits - from.hits;
        let lookups = to.lookups - from.lookups;
        println!(
            "{name:<8} stream: {lookups} lookups, {hits} hits ({:.3}), {} evictions",
            hits as f64 / lookups as f64,
            to.evictions - from.evictions
        );
    }
    println!("oracle counters        = {hot:?}");
    println!("overall hit rate       = {:.3}", hot.hit_rate());
    println!("\nevery served answer matched the sequential reference");
}
