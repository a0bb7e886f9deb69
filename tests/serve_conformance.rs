//! The serving-layer conformance contract, end to end through the
//! `congest_apsp` facade:
//!
//! 1. every answer a [`DistanceOracle`] serves is **byte-equal** to the
//!    sequential reference (all-pairs Dijkstra), over exhaustive and random
//!    query sets;
//! 2. a cached oracle and an uncached oracle serve identical answers on
//!    identical streams — the cache moves wall-clock and counters, never
//!    bytes;
//! 3. the `serve::*` registry entries (answers **plus** the oracle's
//!    deterministic hit/miss accounting) are identical across the thread
//!    matrix, one-thread baseline first;
//! 4. (proptest) k-nearest answers are exactly the reference's
//!    `(distance, node id)` total order, including tie-heavy weights.

use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
use congest_apsp::graph::{generators, reference, NodeId, WeightedGraph};
use congest_apsp::serve::loadgen::{AnswerCheck, ExactReference};
use congest_apsp::serve::{Distance, DistanceOracle};
use congest_apsp::workloads::{configs::thread_matrix, find};
use congest_apsp::ExecutorConfig;
use proptest::prelude::*;

/// A deterministic query stream without any RNG dependency: `count` pairs
/// striding coprime steps over the node set, so it revisits keys (exercising
/// the cache) while still covering the square.
fn stride_queries(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|i| (NodeId::new((i * 7 + 3) % n), NodeId::new((i * 13 + 1) % n)))
        .collect()
}

#[test]
fn oracle_answers_byte_equal_sequential_reference() {
    let g = generators::gnp_connected(20, 0.2, 41);
    let wg = WeightedGraph::random_weights(&g, 1..=9, 41);
    let want = reference::all_pairs_dijkstra(&wg);
    let run = weighted_apsp(&wg, &WeightedApspConfig::default()).unwrap();
    let mut oracle = DistanceOracle::builder(run).cache_capacity(64).build();
    // Exhaustive: every pair, twice (the second pass is served from cache).
    for _ in 0..2 {
        for s in g.nodes() {
            for t in g.nodes() {
                let got = oracle.lookup(s, t);
                let expect = match want[s.index()][t.index()] {
                    Some(d) => Distance::Exact(d),
                    None => Distance::Unknown,
                };
                assert_eq!(got, expect, "lookup({s:?},{t:?})");
            }
        }
    }
    assert_eq!(oracle.metrics().lookups, 2 * 20 * 20);
}

#[test]
fn cached_and_uncached_oracles_serve_identical_streams() {
    let g = generators::gnp_connected(24, 0.18, 43);
    let wg = WeightedGraph::random_weights(&g, 1..=9, 43);
    let build = || {
        weighted_apsp(
            &wg,
            &WeightedApspConfig {
                seed: 43,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let mut cached = DistanceOracle::builder(build()).cache_capacity(32).build();
    let mut uncached = DistanceOracle::builder(build()).cache_capacity(0).build();

    let stream = stride_queries(24, 600);
    for &(s, t) in &stream {
        assert_eq!(cached.lookup(s, t), uncached.lookup(s, t), "({s:?},{t:?})");
    }
    assert_eq!(cached.lookup_batch(&stream), uncached.lookup_batch(&stream));
    for s in g.nodes() {
        assert_eq!(cached.k_nearest(s, 5), uncached.k_nearest(s, 5), "{s:?}");
    }
    // The cache did engage — only the counters may differ, never the bytes.
    assert!(cached.metrics().hits > 0);
    assert_eq!(uncached.metrics().hits, 0);
    assert_eq!(cached.metrics().lookups, uncached.metrics().lookups);
}

/// The named CI tripwire (`serve-conformance` step): the three `serve::*`
/// registry entries — served answers plus deterministic cache accounting —
/// are byte-identical across the thread matrix.
#[test]
fn serve_registry_entries_identical_across_thread_matrix() {
    let configs = thread_matrix();
    for name in ["serve-apsp/gnp", "serve-landmarks/gnp", "serve-knn/gnp"] {
        let w = find(name).expect("registered serve workload");
        let input = w.build();
        let base = w
            .run_built(&input, &ExecutorConfig::default())
            .unwrap_or_else(|e| panic!("{name}: one-thread run failed: {e}"));
        for (label, cfg) in &configs {
            let run = w
                .run_built(&input, cfg)
                .unwrap_or_else(|e| panic!("{name}: run under {label} failed: {e}"));
            assert_eq!(base.output, run.output, "{name}: outputs @ {label}");
            assert_eq!(base.metrics, run.metrics, "{name}: metrics @ {label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// k-NN ordering under tie-heavy weights (all weights 1 or 2, so distance
    /// ties are everywhere): the served answer must be exactly the reference
    /// ordering under the `(distance, node id)` total order, for every k.
    #[test]
    fn knn_matches_reference_total_order_with_ties(seed in 0u64..50, n in 10usize..22, k in 1usize..8) {
        let g = generators::gnp_connected(n, 0.25, seed);
        let wg = WeightedGraph::random_weights(&g, 1..=2, seed);
        let check = ExactReference::dijkstra(&wg);
        let run = weighted_apsp(&wg, &WeightedApspConfig { seed, ..Default::default() }).unwrap();
        let mut oracle = DistanceOracle::builder(run).build();
        for s in g.nodes() {
            let got = oracle.k_nearest(s, k);
            prop_assert!(check.check_knn(s, k, &got).is_ok(),
                "{}", check.check_knn(s, k, &got).unwrap_err());
            // Sortedness is implied by the reference match, but assert it
            // directly so a failure names the offending adjacent pair.
            for pair in got.windows(2) {
                let a = (pair[0].1.value().unwrap(), pair[0].0);
                let b = (pair[1].1.value().unwrap(), pair[1].0);
                prop_assert!(a <= b, "unsorted adjacent pair {a:?} > {b:?}");
            }
        }
    }
}
