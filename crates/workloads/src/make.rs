//! Parameterized workload constructors.
//!
//! [`crate::registry`] instantiates these at the catalogue's canonical sizes;
//! the benchmark (`bench/`) instantiates them at its own sizes (a 32768-node
//! deep path, for example). Either way the runner, oracle and envelope come
//! from here — workload setup has exactly one definition per algorithm.

use crate::catalogue::{bcongest_entry, check_bfs_shape, composite_entry};
use crate::{BuiltInput, MetricsEnvelope, Workload};
use apsp_core::distance::Distance;
use apsp_core::landmarks::landmark_distances;
use apsp_core::mst_tradeoff::mst_tradeoff as run_mst_tradeoff;
use apsp_core::verify::{check_mst, check_weighted_apsp};
use apsp_core::weighted_apsp::{weighted_apsp as run_weighted_apsp, WeightedApspConfig};
use congest_algos::bfs::Bfs;
use congest_algos::bfs_collection::{dists_of_bfs, BfsCollection};
use congest_algos::gossip::{expected_gossip, GossipOnce};
use congest_algos::mst::{distributed_mst, message_bound, MstConfig};
use congest_graph::{generators, reference, rng, NodeId, WeightedGraph};
use congest_serve::loadgen::{AnswerCheck, ExactReference};
use congest_serve::DistanceOracle;
use std::convert::identity;

/// Single-source BFS from node 0. Every node broadcasts at most once, so the
/// envelope is `messages ≤ Σ deg = 2m`, `rounds ≤ n + 2`.
pub fn bfs(
    family: String,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    seed: u64,
) -> Box<dyn Workload> {
    bcongest_entry(
        "bfs",
        family,
        seed,
        build,
        |_| Bfs::new(NodeId::new(0)),
        identity,
        |_| None,
        |input, outputs| {
            check_bfs_shape(
                &input.graph,
                NodeId::new(0),
                |v| outputs[v].dist,
                |v| outputs[v].parent,
            )
        },
        |input| MetricsEnvelope::bounds(2 * input.graph.m() as u64, input.graph.n() as u64 + 2),
    )
}

/// All-sources BFS collection under random per-instance delays (Theorem 1.4).
/// Each `(node, instance)` pair broadcasts one word when first reached
/// (`Σ deg · n = 2mn`), plus a small allowance for delay-induced
/// re-broadcasts (a staggered wave can improve an already-announced
/// distance; realized totals stay within 2% of `2mn` across the families):
/// the declared envelope is `messages ≤ 4mn`.
pub fn bfs_collection(
    family: String,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    seed: u64,
) -> Box<dyn Workload> {
    bcongest_entry(
        "bfs-collection",
        family,
        seed,
        build,
        move |input| BfsCollection::new(input.graph.nodes().collect()).with_random_delays(seed),
        identity,
        |_| None,
        |input, outputs| {
            for (j, src) in input.graph.nodes().enumerate() {
                let got = dists_of_bfs(outputs, j);
                let want = reference::bfs_distances(&input.graph, src);
                if got != want {
                    return Err(format!("BFS {j} (source {src:?}) diverges from reference"));
                }
            }
            Ok(())
        },
        |input| MetricsEnvelope::messages(4 * input.graph.m() as u64 * input.graph.n() as u64),
    )
}

/// One-shot gossip — the delivery probe, whose checksum depends on who sent
/// what, with its closed-form local oracle. One broadcast per node of
/// non-zero degree, so exactly one message per edge direction, in one round.
pub fn gossip(
    family: String,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    seed: u64,
) -> Box<dyn Workload> {
    bcongest_entry(
        "gossip",
        family,
        seed,
        build,
        |_| GossipOnce,
        |value| value.outputs,
        |_| None,
        |input, outputs| {
            let want = expected_gossip(&input.graph);
            (outputs == &want[..])
                .then_some(())
                .ok_or_else(|| "checksums diverge from the local oracle".to_string())
        },
        |input| MetricsEnvelope::bounds(2 * input.graph.m() as u64, 2),
    )
}

/// Message-optimal GHS MST with the closed-form `Õ(m)` budget installed as a
/// **hard** [`MstConfig::message_budget`] — an overdraft fails the run, it
/// does not merely miss the envelope. Expects a weighted input.
pub fn mst(
    family: String,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    seed: u64,
) -> Box<dyn Workload> {
    composite_entry(
        "mst",
        family,
        seed,
        build,
        |input, _| {
            let wg = input.weighted_graph();
            let run = distributed_mst(
                &wg,
                &MstConfig {
                    message_budget: Some(message_bound(wg.n(), wg.m())),
                    ..Default::default()
                },
            )?;
            Ok((
                (
                    run.edges,
                    run.total_weight,
                    run.fragment,
                    run.phases,
                    run.complete,
                ),
                run.metrics,
            ))
        },
        |input, value| check_mst(&input.weighted_graph(), &value.0),
        // Every GHS charge is one word at the default 8 bytes/word (candidate
        // announcements, convergecast/broadcast hops, connect edges).
        |input| {
            MetricsEnvelope::messages(message_bound(input.graph.n(), input.graph.m()))
                .with_message_bytes(8)
        },
    )
}

/// The `k`-parameterized MST time–message trade-off. `k` is clamped to `n`
/// (`usize::MAX` selects the pure-GHS message-optimal route); the `Õ(m)`
/// envelope is declared only on that route — the central finish trades
/// messages for rounds by design.
pub fn mst_tradeoff(
    family: String,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    k: usize,
    seed: u64,
) -> Box<dyn Workload> {
    composite_entry(
        "mst-tradeoff",
        family,
        seed,
        build,
        move |input, _| {
            let wg = input.weighted_graph();
            let k_eff = k.min(wg.n().max(1));
            let run = run_mst_tradeoff(&wg, k_eff, seed)?;
            Ok(((run.edges, run.total_weight, run.route, run.k), run.metrics))
        },
        |input, value| check_mst(&input.weighted_graph(), &value.0),
        // GHS hops are one word (8 bytes); the central route's leader-collected
        // finish upcasts multi-word summaries, so the mix is bounded, not exact.
        move |input| {
            if k >= input.graph.n().max(1) {
                MetricsEnvelope::messages(message_bound(input.graph.n(), input.graph.m()))
                    .with_message_bytes(8)
            } else {
                MetricsEnvelope::unbounded().with_message_bytes(16)
            }
        },
    )
}

/// Message-optimal exact weighted APSP through the Theorem 2.1 simulation.
/// Expects a weighted input.
pub fn weighted_apsp(
    family: String,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    seed: u64,
) -> Box<dyn Workload> {
    composite_entry(
        "weighted-apsp",
        family,
        seed,
        build,
        move |input, cfg| {
            let wg = input.weighted_graph();
            let run = run_weighted_apsp(
                &wg,
                &WeightedApspConfig {
                    seed,
                    exec: cfg.clone(),
                    ..Default::default()
                },
            )?;
            Ok((
                (
                    run.distances,
                    run.simulated_broadcasts,
                    run.simulated_rounds,
                ),
                run.metrics,
            ))
        },
        |input, value| check_weighted_apsp(&input.weighted_graph(), &value.0),
        // The Theorem 2.1 simulation mixes 4-byte transport words with
        // multi-word upcast/downcast charges; 16 bytes/message bounds the mix.
        |_| MetricsEnvelope::unbounded().with_message_bytes(16),
    )
}

// --- serving-layer entries (congest-serve) -----------------------------------

/// Deterministic uniform point-query stream for the serve entries:
/// `queries` `(s, t)` pairs drawn from `seed`, independent of the executor.
fn serve_query_stream(n: usize, queries: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    use rand::Rng;
    let mut r = rng::seeded(rng::derive(seed, 0x5e7e_0001));
    (0..queries)
        .map(|_| {
            (
                NodeId::new(r.random_range(0..n)),
                NodeId::new(r.random_range(0..n)),
            )
        })
        .collect()
}

/// Point + batched lookups against a [`DistanceOracle`] over Theorem 1.1
/// weighted APSP. The workload's output is the served answers *plus* the
/// oracle's deterministic [`congest_serve::ServeMetrics`], so the conformance
/// suites pin the cache's hit/miss accounting byte-for-byte alongside the
/// answers; the oracle checker replays every answer against the sequential
/// all-pairs Dijkstra reference. Expects a weighted input.
pub fn serve_apsp(
    family: String,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    queries: usize,
    seed: u64,
) -> Box<dyn Workload> {
    composite_entry(
        "serve-apsp",
        family,
        seed,
        build,
        move |input, cfg| {
            let wg = input.weighted_graph();
            let run = run_weighted_apsp(
                &wg,
                &WeightedApspConfig {
                    seed,
                    exec: cfg.clone(),
                    ..Default::default()
                },
            )?;
            let metrics = run.metrics.clone();
            let mut oracle = DistanceOracle::builder(run).cache_capacity(32).build();
            let stream = serve_query_stream(wg.n(), queries, seed);
            let (head, tail) = stream.split_at(stream.len() / 2);
            let mut answers: Vec<(NodeId, NodeId, Distance)> = head
                .iter()
                .map(|&(s, t)| (s, t, oracle.lookup(s, t)))
                .collect();
            // The second half goes through the batched path — same cache, same
            // counters, so conformance covers both entry points.
            answers.extend(
                tail.iter()
                    .zip(oracle.lookup_batch(tail))
                    .map(|(&(s, t), d)| (s, t, d)),
            );
            Ok(((answers, oracle.metrics().clone()), metrics))
        },
        |input, value| {
            let check = ExactReference::dijkstra(&input.weighted_graph());
            for &(s, t, d) in &value.0 {
                check.check_point(s, t, d)?;
            }
            Ok(())
        },
        // The oracle only reads the APSP result; the envelope is the
        // simulation's own (multi-word upcast/downcast mix, 16-byte bound).
        |_| MetricsEnvelope::unbounded().with_message_bytes(16),
    )
}

/// Point lookups against an oracle over the §3.3 landmark sketch — the
/// **estimate**-typed serving path. Answers must be admissible upper bounds
/// on the true distance (and `Unknown` only where the sketch has no covering
/// landmark), checked against sequential all-pairs BFS.
pub fn serve_landmarks(
    family: String,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    p: f64,
    queries: usize,
    seed: u64,
) -> Box<dyn Workload> {
    composite_entry(
        "serve-landmarks",
        family,
        seed,
        build,
        move |input, _| {
            let run = landmark_distances(&input.graph, p, seed)?;
            let metrics = run.metrics.clone();
            let mut oracle = DistanceOracle::builder(run).cache_capacity(32).build();
            let answers: Vec<(NodeId, NodeId, Distance)> =
                serve_query_stream(input.graph.n(), queries, seed)
                    .into_iter()
                    .map(|(s, t)| (s, t, oracle.lookup(s, t)))
                    .collect();
            Ok(((answers, oracle.metrics().clone()), metrics))
        },
        |input, value| {
            let want = reference::all_pairs_bfs(&input.graph);
            for &(s, t, d) in &value.0 {
                match (d, want[s.index()][t.index()]) {
                    (Distance::Exact(_), _) => {
                        return Err(format!(
                            "landmark oracle served an Exact answer for ({s:?},{t:?})"
                        ))
                    }
                    (Distance::Estimate(e), Some(true_d)) if e < u64::from(true_d) => {
                        return Err(format!(
                            "estimate {e} for ({s:?},{t:?}) undercuts true distance {true_d}"
                        ))
                    }
                    (Distance::Estimate(e), None) => {
                        return Err(format!("estimate {e} for unreachable pair ({s:?},{t:?})"))
                    }
                    _ => {}
                }
            }
            Ok(())
        },
        // The sketch is built from engine BFS runs (4-byte words) plus tree
        // upcast/broadcast charges; 16 bytes/message bounds the mix.
        |_| MetricsEnvelope::unbounded().with_message_bytes(16),
    )
}

/// k-nearest-by-distance queries against the APSP oracle — the ordered query
/// path, checked against the reference's `(distance, node id)` total order.
/// Expects a weighted input.
pub fn serve_knn(
    family: String,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    k: usize,
    sources: usize,
    seed: u64,
) -> Box<dyn Workload> {
    composite_entry(
        "serve-knn",
        family,
        seed,
        build,
        move |input, cfg| {
            let wg = input.weighted_graph();
            let run = run_weighted_apsp(
                &wg,
                &WeightedApspConfig {
                    seed,
                    exec: cfg.clone(),
                    ..Default::default()
                },
            )?;
            let metrics = run.metrics.clone();
            let mut oracle = DistanceOracle::builder(run).build();
            use rand::Rng;
            let mut r = rng::seeded(rng::derive(seed, 0x5e7e_0002));
            let answers: Vec<(NodeId, Vec<(NodeId, Distance)>)> = (0..sources)
                .map(|_| {
                    let s = NodeId::new(r.random_range(0..wg.n()));
                    (s, oracle.k_nearest(s, k))
                })
                .collect();
            Ok(((answers, oracle.metrics().clone()), metrics))
        },
        move |input, value| {
            let check = ExactReference::dijkstra(&input.weighted_graph());
            for (s, near) in &value.0 {
                check.check_knn(*s, k, near)?;
            }
            Ok(())
        },
        |_| MetricsEnvelope::unbounded().with_message_bytes(16),
    )
}

// --- sized conveniences -------------------------------------------------------

/// [`mst`] on an `n`-node path — fragment forests thousands of levels deep,
/// the worst case for the level-synchronous treeops schedule.
pub fn mst_deep_path(n: usize, seed: u64) -> Box<dyn Workload> {
    mst(
        format!("path-{n}"),
        move || {
            let g = generators::path(n);
            BuiltInput::weighted(WeightedGraph::random_unique_weights(&g, seed))
        },
        seed,
    )
}

/// [`mst_tradeoff`] on a `G(n, p)` graph with unique permutation weights.
pub fn mst_tradeoff_gnp(n: usize, p: f64, k: usize, seed: u64) -> Box<dyn Workload> {
    mst_tradeoff(
        format!("gnp-{n}"),
        move || {
            let g = generators::gnp_connected(n, p, seed);
            BuiltInput::weighted(WeightedGraph::random_unique_weights(&g, seed))
        },
        k,
        seed,
    )
}

/// [`bfs_collection`] on a `G(n, p)` graph — the sized variant of the
/// registry's canonical per-family entries.
pub fn bfs_collection_gnp(n: usize, p: f64, seed: u64) -> Box<dyn Workload> {
    bfs_collection(
        format!("gnp-{n}"),
        move || BuiltInput::unweighted(generators::gnp_connected(n, p, seed)),
        seed,
    )
}

// --- scale conveniences (sparse_connected: O(n + extra) build, low
// --- diameter — the only family that reaches 10⁶ nodes) ----------------------

/// [`bfs`] on a [`generators::sparse_connected`] graph — single-source BFS
/// at up to a million nodes.
pub fn bfs_sparse(n: usize, extra_edges: usize, seed: u64) -> Box<dyn Workload> {
    bfs(
        format!("sparse-{n}"),
        move || BuiltInput::unweighted(generators::sparse_connected(n, extra_edges, seed)),
        seed,
    )
}

/// [`gossip`] on a [`generators::sparse_connected`] graph — the one-shot
/// delivery probe at up to a million nodes.
pub fn gossip_sparse(n: usize, extra_edges: usize, seed: u64) -> Box<dyn Workload> {
    gossip(
        format!("sparse-{n}"),
        move || BuiltInput::unweighted(generators::sparse_connected(n, extra_edges, seed)),
        seed,
    )
}

/// [`mst`] on a [`generators::sparse_connected`] graph with unique permutation
/// weights — GHS on wide, shallow fragment forests.
pub fn mst_sparse(n: usize, extra_edges: usize, seed: u64) -> Box<dyn Workload> {
    mst(
        format!("sparse-{n}"),
        move || {
            let g = generators::sparse_connected(n, extra_edges, seed);
            BuiltInput::weighted(WeightedGraph::random_unique_weights(&g, seed))
        },
        seed,
    )
}
