//! Differential-oracle suite for the "Beyond APSP" MST family: on every generator
//! family, the distributed GHS MST and every point of the k-parameterized trade-off
//! must produce **exactly** the minimum spanning forest the sequential oracles
//! (Kruskal *and* Prim, cross-checked against each other) produce under the
//! `(weight, EdgeId)` total order — same edge set, same weight, deterministically.

use congest_apsp::algos::mst::{distributed_mst, message_bound, MstConfig};
use congest_apsp::apsp_core::mst_tradeoff::{mst_tradeoff, MstRoute};
use congest_apsp::apsp_core::verify::check_mst;
use congest_apsp::graph::{generators, reference, Graph, WeightedGraph};

/// The families the issue calls out: random, grid, expander-ish, and the pathological
/// trio (path, star, two clusters joined by a long bridge).
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("random", generators::gnp_connected(40, 0.15, 11)),
        ("dense-random", generators::gnp_connected(28, 0.5, 12)),
        ("grid", generators::grid(6, 6)),
        ("expander", generators::random_regularish(36, 4, 13)),
        ("path", generators::path(40)),
        ("star", generators::star(33)),
        ("two-cluster-bridge", generators::barbell(10, 12)),
    ]
}

/// Weighting schemes per family: guaranteed-unique, tie-heavy, and all-equal.
fn weightings(g: &Graph, seed: u64) -> Vec<(&'static str, WeightedGraph)> {
    vec![
        ("unique", WeightedGraph::random_unique_weights(g, seed)),
        ("tie-heavy", WeightedGraph::random_weights(g, 1..=3, seed)),
        ("all-equal", WeightedGraph::unit(g)),
    ]
}

#[test]
fn distributed_mst_equals_oracle_on_every_family() {
    for (family, g) in families() {
        for (scheme, wg) in weightings(&g, 21) {
            let run = distributed_mst(&wg, &MstConfig::default())
                .unwrap_or_else(|e| panic!("{family}/{scheme}: {e}"));
            check_mst(&wg, &run.edges).unwrap_or_else(|e| panic!("{family}/{scheme}: {e}"));
            assert!(run.complete, "{family}/{scheme}: merging must finish");
            assert_eq!(
                run.edges.len(),
                g.n() - 1,
                "{family}/{scheme}: spanning tree size"
            );
        }
    }
}

#[test]
fn tradeoff_sweep_equals_oracle_on_every_family() {
    for (family, g) in families() {
        let wg = WeightedGraph::random_unique_weights(&g, 5);
        let sqrt_n = (g.n() as f64).sqrt().ceil() as usize;
        for k in [2, sqrt_n, g.n()] {
            let res =
                mst_tradeoff(&wg, k, 7).unwrap_or_else(|e| panic!("{family} at k = {k}: {e}"));
            check_mst(&wg, &res.edges).unwrap_or_else(|e| panic!("{family} at k = {k}: {e}"));
            let want_route = if k >= g.n() {
                MstRoute::MessageOptimal
            } else {
                MstRoute::ControlledPlusCentral
            };
            assert_eq!(res.route, want_route, "{family} at k = {k}");
        }
    }
}

#[test]
fn tie_breaking_is_deterministic_and_oracle_aligned() {
    // Duplicate weights everywhere: repeated distributed runs, both oracles, and the
    // trade-off's central finisher must all settle on the same edge set.
    for (family, g) in families() {
        let wg = WeightedGraph::unit(&g);
        let a = distributed_mst(&wg, &MstConfig::default()).unwrap();
        let b = distributed_mst(&wg, &MstConfig::default()).unwrap();
        assert_eq!(a.edges, b.edges, "{family}: repeat determinism");
        assert_eq!(a.metrics, b.metrics, "{family}: metric determinism");
        let kruskal = reference::mst_kruskal(&wg);
        assert_eq!(kruskal, reference::mst_prim(&wg), "{family}: oracle split");
        assert_eq!(a.edges, kruskal.edges, "{family}: oracle alignment");
        let central = mst_tradeoff(&wg, 3, 1).unwrap();
        assert_eq!(central.edges, kruskal.edges, "{family}: central finisher");
    }
}

#[test]
fn duplicate_weight_regression_two_cluster_bridge() {
    // Regression for the duplicate-weight case the issue calls out: two clusters
    // where *every* intra-cluster edge ties and the two bridge-adjacent edges tie
    // too. Without the (weight, EdgeId) total order the "MST" would be ambiguous;
    // with it, every implementation must pick the lexicographically-first edges.
    let g = generators::barbell(6, 4);
    let wg = WeightedGraph::from_weights(g.clone(), vec![7; g.m()]).unwrap();
    let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
    let want = reference::mst_kruskal(&wg);
    assert_eq!(run.edges, want.edges);
    assert_eq!(run.total_weight, 7 * (g.n() as u64 - 1));
    // The tie-break picks the smallest EdgeIds that stay acyclic: a second run and
    // the trade-off central route reproduce them bit-for-bit.
    assert_eq!(mst_tradeoff(&wg, 4, 2).unwrap().edges, want.edges);
}

#[test]
fn message_counts_respect_the_budget_across_sizes() {
    for n in [24usize, 48, 96] {
        let g = generators::gnp_connected(n, 0.2, n as u64);
        let wg = WeightedGraph::random_unique_weights(&g, n as u64);
        let budget = message_bound(g.n(), g.m());
        // Budget installed as a hard cap: an overdraft would fail the run itself.
        let run = distributed_mst(
            &wg,
            &MstConfig {
                message_budget: Some(budget),
                ..Default::default()
            },
        )
        .unwrap();
        let messages = run.metrics.messages;
        assert!(
            messages <= budget,
            "ghs-mst: {messages} messages exceed budget {budget}"
        );
        check_mst(&wg, &run.edges).unwrap();
    }
}

#[test]
fn spanning_forest_on_disconnected_instances() {
    // Three islands, one of them an isolated vertex.
    let mut edges = Vec::new();
    for (a, b) in [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)] {
        edges.push((a, b));
    }
    let g = Graph::from_edges(9, &edges);
    let wg = WeightedGraph::random_unique_weights(&g, 3);
    let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
    check_mst(&wg, &run.edges).unwrap();
    assert_eq!(run.edges.len(), 2 + 3); // triangle needs 2, 4-cycle needs 3
    let res = mst_tradeoff(&wg, 2, 3).unwrap();
    assert_eq!(res.edges, run.edges);
}
