//! Pins the `congest_apsp` facade's public API surface: every documented
//! re-export path must resolve, and the README/lib.rs quickstart path
//! (`generators::gnp_connected` → `weighted_apsp`) must work end-to-end through
//! the facade alone — no direct dependency on the member crates.

use congest_apsp::apsp_core::verify::check_weighted_apsp;
use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
use congest_apsp::graph::{generators, reference, NodeId, WeightedGraph};

/// The exact quickstart from `src/lib.rs` and the README, kept green.
#[test]
fn documented_quickstart_runs_through_the_facade() {
    let g = generators::gnp_connected(24, 0.2, 7);
    let wg = WeightedGraph::random_weights(&g, 1..=8, 7);
    let result = weighted_apsp(&wg, &WeightedApspConfig::default()).unwrap();
    assert_eq!(result.distances.len(), 24);
    assert!(result.metrics.messages > 0);
    check_weighted_apsp(&wg, &result.distances).expect("quickstart distances must be exact");
}

/// Facade distances agree with the sequential oracle reached through the same
/// facade (`graph::reference`), for several seeds.
#[test]
fn facade_weighted_apsp_matches_reference_dijkstra() {
    for seed in [1, 2, 3] {
        let g = generators::gnp_connected(16, 0.25, seed);
        let wg = WeightedGraph::random_weights(&g, 1..=6, seed);
        let result = weighted_apsp(&wg, &WeightedApspConfig::default()).unwrap();
        for s in g.nodes() {
            let want = reference::dijkstra(&wg, s);
            for v in g.nodes() {
                assert_eq!(
                    result.distances[s.index()][v.index()],
                    want[v.index()],
                    "seed {seed}: dist({s:?}, {v:?})"
                );
            }
        }
    }
}

/// The gossip surface the benchmark reads: `make::gossip_sparse` through
/// `run_built` renders its outputs exactly as `format!("{:?}",
/// expected_gossip(g))` does, stays inside its envelope, and costs one
/// broadcast per node, one message per edge direction and one round.
#[test]
fn gossip_sparse_renders_its_closed_form_through_run_built() {
    use congest_apsp::algos::gossip::expected_gossip;
    use congest_apsp::engine::ExecutorConfig;
    use congest_apsp::workloads::make;
    for (n, seed) in [(64, 1), (300, 7)] {
        let w = make::gossip_sparse(n, n / 2, seed);
        let input = w.build();
        let g = &input.graph;
        let run = w
            .run_built(&input, &ExecutorConfig::default())
            .expect("gossip run");
        assert_eq!(run.output, format!("{:?}", expected_gossip(g)), "n = {n}");
        w.envelope()
            .check(&run.metrics)
            .expect("inside the envelope");
        assert_eq!(run.metrics.broadcasts, n as u64, "n = {n}");
        assert_eq!(run.metrics.messages, 2 * g.m() as u64, "n = {n}");
        assert_eq!(run.metrics.rounds, 1, "n = {n}");
    }
}

/// Every aliased module re-export referenced by the crate docs resolves and is
/// usable. A rename or dropped `pub use` in `src/lib.rs` fails this test at
/// compile time.
#[test]
fn all_documented_reexport_paths_resolve() {
    // graph (congest_graph)
    let g: congest_apsp::graph::Graph = generators::path(4);
    let _: Option<congest_apsp::graph::EdgeId> = g.edge_between(NodeId::new(0), NodeId::new(1));

    // engine (congest_engine)
    let run = congest_apsp::engine::run_bcongest(
        &congest_apsp::algos::bfs::Bfs::new(NodeId::new(0)),
        &g,
        None,
        &congest_apsp::engine::RunOptions::default(),
    )
    .unwrap();
    assert_eq!(run.outputs[3].dist, Some(3));

    // decomp (congest_decomp)
    let h = congest_apsp::decomp::Hierarchy::build(&g, 0.5, 1);
    assert!(congest_apsp::decomp::baswana_sen::validate_hierarchy(&g, &h).is_ok());

    // workloads (congest_workloads)
    let w = congest_apsp::workloads::find("gossip/path").expect("registered workload");
    let outcome = w
        .run(&congest_apsp::engine::ExecutorConfig::default())
        .expect("gossip run");
    assert!(outcome.metrics.messages > 0);
    assert!(congest_apsp::workloads::registry().len() >= 10);

    // apsp_core (not aliased: the crate keeps its own name)
    let dist = reference::all_pairs_bfs(&g);
    congest_apsp::apsp_core::verify::check_unweighted_apsp(&g, &dist)
        .expect("oracle output validates against itself");

    // serve (congest_serve): an oracle over the path graph's exact distances.
    let want: Vec<Vec<Option<u64>>> = dist
        .iter()
        .map(|row| row.iter().map(|d| d.map(u64::from)).collect())
        .collect();
    let mut oracle: congest_apsp::serve::DistanceOracle<_> =
        congest_apsp::serve::DistanceOracle::builder(
            congest_apsp::apsp_core::distance::MatrixSource::new(&want),
        )
        .cache_capacity(8)
        .build();
    assert_eq!(
        oracle.lookup(NodeId::new(0), NodeId::new(3)),
        congest_apsp::serve::Distance::Exact(3)
    );
    assert_eq!(oracle.metrics().misses, 1);
}

/// The executor setting is importable from the facade root, and it is the
/// engine's own type: one field, `Default` and `with_threads`.
#[test]
fn executor_surface_resolves_at_the_facade_root() {
    let cfg: congest_apsp::engine::ExecutorConfig = congest_apsp::ExecutorConfig::with_threads(4);
    let congest_apsp::ExecutorConfig { threads } = cfg;
    assert_eq!(threads, 4);
    assert_eq!(congest_apsp::ExecutorConfig::default().threads, 1);
}
