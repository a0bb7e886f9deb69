//! The strongest correctness statement in the repo: for every payload algorithm,
//! every simulation theorem, and many (graph, seed) pairs, the simulated execution
//! produces outputs **identical** to the direct BCONGEST execution with the same
//! seed — the executable form of Lemmas 2.5, 3.14 and 3.20.

use congest_apsp::algos::apsp_weighted::WeightedApsp;
use congest_apsp::algos::bfs::Bfs;
use congest_apsp::algos::bfs_collection::BfsCollection;
use congest_apsp::algos::matching_bipartite::BipartiteMatching;
use congest_apsp::algos::mis::LubyMis;
use congest_apsp::apsp_core::simulate::{
    simulate_aggregation_general, simulate_aggregation_star, simulate_bcongest_via_ldc,
    AggSimOptions, LdcSimOptions,
};
use congest_apsp::apsp_core::tradeoff::tradeoff_apsp;
use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
use congest_apsp::apsp_core::weighted_tradeoff::{weighted_apsp_tradeoff, WeightedTradeoffConfig};
use congest_apsp::decomp::pruning::prune;
use congest_apsp::decomp::Hierarchy;
use congest_apsp::engine::{
    run_bcongest, AggregationAlgorithm, BcongestAlgorithm, EngineError, LocalView, RunOptions,
};
use congest_apsp::graph::{generators, Graph, NodeId, WeightedGraph};
use std::sync::mpsc;
use std::time::Duration;

mod golden;

fn direct<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    seed: u64,
) -> Vec<A::Output> {
    run_bcongest(
        algo,
        g,
        weights,
        &RunOptions {
            seed,
            ..Default::default()
        },
    )
    .expect("direct run")
    .outputs
}

fn via_ldc<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    seed: u64,
) -> Vec<A::Output> {
    simulate_bcongest_via_ldc(
        algo,
        g,
        weights,
        &LdcSimOptions {
            seed,
            ..Default::default()
        },
    )
    .expect("ldc simulation")
    .outputs
}

#[test]
fn theorem_2_1_bfs_across_families_and_seeds() {
    for (i, g) in [
        generators::gnp_connected(26, 0.15, 1),
        generators::grid(5, 5),
        generators::caveman(4, 6),
        generators::complete(18),
        generators::path(24),
        generators::star(20),
        generators::barbell(8, 5),
    ]
    .iter()
    .enumerate()
    {
        for seed in [3u64, 17] {
            let algo = Bfs::new(NodeId::new(i % g.n()));
            assert_eq!(
                via_ldc(&algo, g, None, seed),
                direct(&algo, g, None, seed),
                "family {i}, seed {seed}"
            );
        }
    }
}

#[test]
fn theorem_2_1_weighted_apsp_payload() {
    let g = generators::gnp_connected(16, 0.25, 2);
    let wg = WeightedGraph::random_weights(&g, 1..=6, 2);
    let algo = WeightedApsp::new(wg.max_weight());
    for seed in [1u64, 9] {
        assert_eq!(
            via_ldc(&algo, &g, Some(wg.weights()), seed),
            direct(&algo, &g, Some(wg.weights()), seed)
        );
    }
}

#[test]
fn theorem_2_1_randomized_payloads() {
    let g = generators::gnp_connected(20, 0.2, 3);
    for seed in [5u64, 23] {
        assert_eq!(
            via_ldc(&LubyMis, &g, None, seed),
            direct(&LubyMis, &g, None, seed)
        );
    }
    let gb = generators::random_bipartite_connected(6, 7, 0.3, 4);
    assert_eq!(
        via_ldc(&BipartiteMatching, &gb, None, 7),
        direct(&BipartiteMatching, &gb, None, 7)
    );
}

#[test]
fn theorem_3_9_across_epsilon_and_families() {
    for (fi, g) in [
        generators::gnp_connected(22, 0.18, 5),
        generators::grid(5, 4),
        generators::caveman(3, 6),
    ]
    .iter()
    .enumerate()
    {
        for &eps in &[0.34, 0.5, 1.0] {
            let h = prune(g, &Hierarchy::build(g, eps, 40 + fi as u64));
            let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(8);
            let sim = simulate_aggregation_general(
                &algo,
                g,
                None,
                &h,
                &AggSimOptions {
                    seed: 19,
                    ..Default::default()
                },
            )
            .expect("agg simulation");
            assert_eq!(
                sim.outputs,
                direct(&algo, g, None, 19),
                "family {fi}, eps {eps}"
            );
        }
    }
}

#[test]
fn theorem_3_10_across_epsilon() {
    let g = generators::gnp_connected(24, 0.2, 6);
    for &eps in &[0.5, 0.6, 0.8, 1.0] {
        let h = prune(&g, &Hierarchy::build(&g, eps, 50));
        let algo = BfsCollection::new(g.nodes().collect())
            .with_depth_limit(5)
            .with_random_delays(3);
        let sim = simulate_aggregation_star(
            &algo,
            &g,
            None,
            &h,
            &AggSimOptions {
                seed: 29,
                ..Default::default()
            },
        )
        .expect("star simulation");
        assert_eq!(sim.outputs, direct(&algo, &g, None, 29), "eps {eps}");
    }
}

#[test]
fn all_three_simulations_agree_with_each_other() {
    let g = generators::gnp_connected(20, 0.25, 8);
    let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(1);
    let seed = 37;
    let a = via_ldc(&algo, &g, None, seed);
    let h = prune(&g, &Hierarchy::build(&g, 0.5, 60));
    let b = simulate_aggregation_general(
        &algo,
        &g,
        None,
        &h,
        &AggSimOptions {
            seed,
            ..Default::default()
        },
    )
    .expect("agg")
    .outputs;
    let c = simulate_aggregation_star(
        &algo,
        &g,
        None,
        &h,
        &AggSimOptions {
            seed,
            ..Default::default()
        },
    )
    .expect("star")
    .outputs;
    assert_eq!(a, b);
    assert_eq!(b, c);
}

/// The whole account of Theorems 3.9 / 3.10, not only their outputs: the
/// `Debug` rendering of every `SimulationRun` / `TradeoffResult` / weighted
/// trade-off result (outputs, rounds, messages, per-edge congestion,
/// preprocessing share) is pinned to `tests/golden/simulation_runs.txt`,
/// generated from the code before PR 18 touched the simulators. Five graphs ×
/// ε ∈ {0.25, 0.34, 0.5, 0.75, 1} (κ = 4, 3, 2, 2, 1) × an unlimited and a
/// depth-3 collection through Theorem 3.9, the ε ≥ ½ cells through Theorem
/// 3.10 too, all three routes of `tradeoff_apsp`, and the receiver-aware
/// weighted payload through both simulators. Last, three Theorem 2.1 runs
/// (BFS, `tradeoff_apsp` at ε = 0, weighted APSP) on a 96-node grid, the
/// only instance here on which Theorem 2.1's step 3b re-parents.
#[test]
fn simulated_accounts_match_the_golden_reference() {
    let graphs = [
        ("gnp", generators::gnp_connected(26, 0.18, 5)),
        ("grid", generators::grid(5, 5)),
        ("caveman", generators::caveman(4, 6)),
        ("star", generators::star(20)),
        ("barbell", generators::barbell(8, 5)),
    ];
    let mut cases: Vec<(String, String)> = Vec::new();
    for (gi, (family, g)) in graphs.iter().enumerate() {
        let opts = AggSimOptions {
            seed: 19,
            ..Default::default()
        };
        for eps in [0.25, 0.34, 0.5, 0.75, 1.0] {
            let h = prune(g, &Hierarchy::build(g, eps, 40 + gi as u64));
            for (depth_name, depth) in [("full", u32::MAX), ("depth3", 3)] {
                let algo = BfsCollection::new(g.nodes().collect())
                    .with_depth_limit(depth)
                    .with_random_delays(8);
                let run = simulate_aggregation_general(&algo, g, None, &h, &opts).expect("general");
                cases.push((
                    format!("general/{family}/eps{eps}/{depth_name}"),
                    format!("{run:?}"),
                ));
                if eps >= 0.5 {
                    let run = simulate_aggregation_star(&algo, g, None, &h, &opts).expect("star");
                    cases.push((
                        format!("star/{family}/eps{eps}/{depth_name}"),
                        format!("{run:?}"),
                    ));
                }
            }
        }
        for eps in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let res = tradeoff_apsp(g, eps, 31).expect("trade-off");
            cases.push((format!("tradeoff/{family}/eps{eps}"), format!("{res:?}")));
        }
        let wg = WeightedGraph::random_weights(g, 1..=6, gi as u64);
        for epsilon in [0.34, 0.5, 1.0] {
            let res = weighted_apsp_tradeoff(&wg, &WeightedTradeoffConfig { epsilon, seed: 9 })
                .expect("weighted trade-off");
            cases.push((
                format!("weighted/{family}/eps{epsilon}"),
                format!("{res:?}"),
            ));
        }
    }
    // Theorem 2.1 on a graph where step 3b re-parents: at seed 31 `grid(12, 8)`
    // has 8 clusters, and balancing their branches moves 16 members.
    let g = generators::grid(12, 8);
    let opts = LdcSimOptions {
        seed: 31,
        ..Default::default()
    };
    let run = simulate_bcongest_via_ldc(&Bfs::new(NodeId::new(0)), &g, None, &opts).expect("bfs");
    cases.push(("ldc/grid96/bfs".into(), format!("{run:?}")));
    let res = tradeoff_apsp(&g, 0.0, 31).expect("trade-off");
    cases.push(("tradeoff/grid96/eps0".into(), format!("{res:?}")));
    let wg = WeightedGraph::random_weights(&g, 1..=6, 31);
    let cfg = WeightedApspConfig {
        seed: 31,
        ..Default::default()
    };
    let res = weighted_apsp(&wg, &cfg).expect("weighted APSP");
    cases.push(("weighted-apsp/grid96".into(), format!("{res:?}")));
    golden::assert_matches(
        "tests/golden/simulation_runs.txt",
        include_str!("golden/simulation_runs.txt"),
        cases,
    );
}

/// Never sends, never finishes, and names a round in the past whenever asked —
/// legal per the `next_activity` docs ("even a round `< after`").
struct Stuck;

impl BcongestAlgorithm for Stuck {
    type State = ();
    type Msg = u32;
    type Output = ();

    fn name(&self) -> &'static str {
        "stuck"
    }
    fn init(&self, _: &LocalView<'_>) {}
    fn broadcast(&self, _: &(), _: usize) -> Option<u32> {
        None
    }
    fn on_broadcast_sent(&self, _: &mut (), _: usize) {}
    fn receive(&self, _: &mut (), _: usize, _: &[(NodeId, u32)]) {}
    fn is_done(&self, _: &()) -> bool {
        false
    }
    fn output(&self, _: &()) {}
    fn next_activity(&self, _: &(), _after: usize) -> Option<usize> {
        Some(0)
    }
    fn round_bound(&self, _: usize, _: usize) -> usize {
        4
    }
    fn output_words(&self, _: &()) -> usize {
        0
    }
}

impl AggregationAlgorithm for Stuck {
    fn aggregate(&self, _: NodeId, _: usize, _: &mut Vec<(NodeId, u32)>) {}
    fn aggregate_budget(&self, n: usize) -> usize {
        n
    }
}

/// What `run` fails with, or `None` if it is still running after ten seconds:
/// it runs on a helper thread, so a loop that never ends fails the test
/// instead of hanging the suite (that thread cannot be joined and is left to
/// die with the process).
fn error_within_deadline<T>(
    run: impl FnOnce(&Graph, &Hierarchy) -> Result<T, EngineError> + Send + 'static,
) -> Option<Option<EngineError>> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let g = generators::gnp_connected(12, 0.3, 1);
        let h = prune(&g, &Hierarchy::build(&g, 0.5, 1));
        tx.send(run(&g, &h).err()).expect("the test is listening");
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(err) => {
            worker.join().expect("the worker has sent its verdict");
            Some(err)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => None,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the worker died before sending"))
        }
    }
}

#[test]
fn a_payload_stuck_in_the_past_hits_the_round_limit_everywhere() {
    // The direct runner and the three simulations drive one round loop, whose
    // idle skip never goes backwards.
    let agg = AggSimOptions::default;
    let verdicts = [
        (
            "run_bcongest",
            error_within_deadline(|g, _| run_bcongest(&Stuck, g, None, &RunOptions::default())),
        ),
        (
            "simulate_bcongest_via_ldc",
            error_within_deadline(|g, _| {
                simulate_bcongest_via_ldc(&Stuck, g, None, &LdcSimOptions::default())
            }),
        ),
        (
            "simulate_aggregation_general",
            error_within_deadline(move |g, h| {
                simulate_aggregation_general(&Stuck, g, None, h, &agg())
            }),
        ),
        (
            "simulate_aggregation_star",
            error_within_deadline(move |g, h| {
                simulate_aggregation_star(&Stuck, g, None, h, &agg())
            }),
        ),
    ];
    for (what, verdict) in &verdicts {
        assert!(
            matches!(verdict, Some(Some(EngineError::RoundLimitExceeded { .. }))),
            "{what}: {verdict:?} (None = still spinning after the deadline)\nall: {verdicts:?}"
        );
    }
}
