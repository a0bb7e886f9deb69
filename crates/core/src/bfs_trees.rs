//! **Lemmas 3.22 and 3.23** — computing many BFS trees message-efficiently.
//!
//! * [`all_bfs_star`] (Lemma 3.22, `ε ∈ [1/2, 1]`): all `n` BFS under random delays
//!   (Theorem 1.4), simulated via Theorem 3.10 over one pruned hierarchy —
//!   `Õ(n^{2-ε})` rounds, `Õ(n^{2+ε})` messages.
//! * [`all_bfs_batched`] (Lemma 3.23, `ε ∈ (0, 1/2]`): the `n` depth-limited BFS
//!   split into `⌈n^ε⌉` batches, each over its own member of an ensemble of
//!   pruned hierarchies (Lemma 3.8's congestion smoothing), all run as one
//!   Theorem 3.9 simulation that steps the batches in lockstep: payload round
//!   `r` of every batch is one routed schedule, and so are every batch's
//!   step-2 upcasts of one level. That joint run is the schedule Theorem 1.3's
//!   congestion + dilation bound is about, run rather than charged.
//!
//! Both charge one network set-up (Õ(n) rounds, Õ(n²) messages): every
//! simulation runs on the route's set-up instead of electing again. Neither
//! distributes shared randomness first. Theorem 1.4 needs independent uniform
//! delays, and a source's private coin is one: each BFS's source draws its
//! delay, and that BFS's messages carry it to every node that acts on it
//! (see [`BfsCollection::with_random_delays`]).

use congest_algos::bfs_collection::{BfsCollection, CollectionOutput};
use congest_algos::leader::{setup_network, NetworkSetup};
use congest_decomp::pruning::prune;
use congest_decomp::{Ensemble, Hierarchy};
use congest_engine::treeops::tree_pass;
use congest_engine::{EngineError, Metrics};
use congest_graph::{rng, Graph, NodeId};

use crate::ensure_epsilon;
use crate::simulate::agg_general::simulate_general_with_setup;
use crate::simulate::agg_star::simulate_star_with_setup;
use crate::simulate::AggSimOptions;

/// Result of a many-BFS computation.
#[derive(Clone, Debug)]
pub struct BfsForestResult {
    /// `dist[v][s]` = hop distance from source `s` (node ID `s`) to `v`, up to the
    /// depth limit (`None` beyond it).
    pub dist: Vec<Vec<Option<u32>>>,
    /// Realized total cost.
    pub metrics: Metrics,
    /// The depth limit used (`u32::MAX` when every distance is within the limit).
    pub depth_limit: u32,
}

/// Lemma 3.22: `n` full BFS trees for `ε ∈ [1/2, 1]`.
///
/// # Errors
///
/// [`EngineError::InvalidParameter`] if `epsilon` is outside `[1/2, 1]`;
/// propagates engine errors.
pub fn all_bfs_star(g: &Graph, epsilon: f64, seed: u64) -> Result<BfsForestResult, EngineError> {
    ensure_epsilon(epsilon, (0.5..=1.0).contains(&epsilon), "[1/2, 1]")?;
    let mut metrics = Metrics::new(g.m());

    let setup = setup_network(g, seed)?;
    metrics.merge_sequential(&setup.metrics);

    let h = prune(g, &Hierarchy::build(g, epsilon, seed));
    // The sources' private coins for the random delays (Theorem 1.4).
    let delay_seed = rng::derive(seed, 0x5a5a_0001);
    let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(delay_seed);
    let opts = AggSimOptions {
        seed,
        charge_hierarchy: true,
        ..Default::default()
    };
    let sim = simulate_star_with_setup(&algo, g, None, &h, &opts, Some(&setup))?;
    metrics.merge_sequential(&sim.metrics);

    Ok(BfsForestResult {
        dist: sim
            .outputs
            .iter()
            .map(|o| o.entries.iter().map(|e| e.dist).collect())
            .collect(),
        metrics,
        depth_limit: u32::MAX,
    })
}

/// Lemma 3.23: `n` BFS trees truncated at `depth_limit`, for `ε ∈ (0, 1/2]`.
///
/// When `depth_limit` is at least twice the height `h` of the set-up BFS tree,
/// no two nodes of one component are more than `2h` apart, so the truncated
/// trees are already exact: the leader (which knows `h` once its count
/// convergecast completes) announces that with one word down the tree, and the
/// result reports `depth_limit: u32::MAX`.
///
/// # Errors
///
/// [`EngineError::InvalidParameter`] if `epsilon` is outside `(0, 1/2]`;
/// propagates engine errors.
pub fn all_bfs_batched(
    g: &Graph,
    epsilon: f64,
    depth_limit: u32,
    seed: u64,
) -> Result<BfsForestResult, EngineError> {
    ensure_epsilon(epsilon, epsilon > 0.0 && epsilon <= 0.5, "(0, 1/2]")?;
    let n = g.n();
    let mut metrics = Metrics::new(g.m());

    let zeta = Ensemble::paper_zeta(n, epsilon).max(1);
    let setup = setup_network(g, seed)?;
    metrics.merge_sequential(&setup.metrics);
    let ensemble = Ensemble::build(g, epsilon, zeta, seed);
    metrics.merge_sequential(&ensemble.metrics);

    let batches = batches(g, &ensemble, depth_limit, seed);
    let (dist, joint) = run_batches(g, &batches, &setup, seed)?;
    metrics.merge_sequential(&joint);

    // Any two nodes of one tree are at most `2h` apart through its root, so a
    // limit of `2h` truncates nothing (see DESIGN.md §2).
    let h = setup.tree.depth();
    let exact = u64::from(depth_limit) >= 2 * u64::from(h);
    if exact {
        metrics.merge_sequential(&tree_pass(g, &setup.tree, setup.tree.roots())?);
    }
    Ok(BfsForestResult {
        dist,
        metrics,
        depth_limit: if exact { u32::MAX } else { depth_limit },
    })
}

/// `dist[v][s]`, as in [`BfsForestResult::dist`].
type Distances = Vec<Vec<Option<u32>>>;

/// One Lemma 3.23 batch: its collection, its hierarchy and its seed.
type Batch<'e> = (BfsCollection, &'e Hierarchy, u64);

/// Lemma 3.23's batches: the sources in chunks of `⌈n / ζ⌉`, batch `b` a
/// collection truncated at `depth_limit` under its own random delays, to be
/// simulated over member `b mod ζ` of `ensemble` with its own seed.
fn batches<'e>(g: &Graph, ensemble: &'e Ensemble, depth_limit: u32, seed: u64) -> Vec<Batch<'e>> {
    let sources: Vec<NodeId> = g.nodes().collect();
    // At least 1: `chunks(0)` panics, and a graph with no nodes has no batch.
    let chunk = g.n().div_ceil(ensemble.len()).max(1);
    let chunks = sources.chunks(chunk).enumerate();
    chunks
        .map(|(b, chunk_sources)| {
            let algo = BfsCollection::new(chunk_sources.to_vec())
                .with_depth_limit(depth_limit)
                .with_random_delays(rng::derive(seed, 0xba7c_0000 + b as u64));
            let h = &ensemble.hierarchies[b % ensemble.len()];
            (algo, h, rng::derive(seed, 0x5eed_0000 + b as u64))
        })
        .collect()
}

/// Runs `batches` in lockstep on the route's `setup`: one Theorem 3.9
/// simulation of all of them, payload round `r` of every batch routed as one
/// schedule, which is what Theorem 1.3 bounds. Returns `dist[v][s]` as the
/// batches found it and what the joint run cost.
fn run_batches(
    g: &Graph,
    batches: &[Batch<'_>],
    setup: &NetworkSetup,
    seed: u64,
) -> Result<(Distances, Metrics), EngineError> {
    let n = g.n();
    if batches.is_empty() {
        return Ok((vec![vec![None; n]; n], Metrics::new(g.m())));
    }
    let opts = AggSimOptions {
        seed,
        charge_hierarchy: false, // the ensemble is charged once by the route
        ..Default::default()
    };
    let instances: Vec<_> = batches.iter().map(|(algo, h, s)| (algo, *h, *s)).collect();
    // Each node keeps only its distances, not its parents.
    let dists = |out: CollectionOutput| -> Vec<Option<u32>> {
        out.entries.iter().map(|e| e.dist).collect()
    };
    let sim = simulate_general_with_setup(&instances, g, None, &opts, Some(setup), dists)?;
    // Allocated once the batches' states are gone, not beside them.
    let mut dist = vec![vec![None; n]; n];
    for (row, outs) in dist.iter_mut().zip(&sim.outputs) {
        for (out, (algo, ..)) in outs.iter().zip(batches) {
            for (&d, s) in out.iter().zip(algo.sources()) {
                row[s.index()] = d;
            }
        }
    }
    Ok((dist, sim.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tradeoff::near_depth;
    use congest_graph::{generators, reference};

    #[test]
    fn star_route_matches_reference() {
        let g = generators::gnp_connected(22, 0.15, 1);
        let res = all_bfs_star(&g, 0.5, 11).unwrap();
        let want = reference::all_pairs_bfs(&g);
        for (v, row) in res.dist.iter().enumerate() {
            for (s, &d) in row.iter().enumerate() {
                assert_eq!(d, want[s][v]);
            }
        }
    }

    #[test]
    fn batched_route_matches_truncated_reference() {
        let g = generators::gnp_connected(24, 0.12, 2);
        let depth = 4;
        let res = all_bfs_batched(&g, 0.5, depth, 13).unwrap();
        let want = reference::all_pairs_bfs(&g);
        for (v, row) in res.dist.iter().enumerate() {
            for (s, &d) in row.iter().enumerate() {
                let expect = want[s][v].filter(|&d| d <= depth);
                assert_eq!(d, expect, "({s},{v})");
            }
        }
    }

    #[test]
    fn batched_route_small_epsilon() {
        let g = generators::grid(5, 5);
        let res = all_bfs_batched(&g, 0.34, 3, 17).unwrap();
        let want = reference::all_pairs_bfs(&g);
        for (v, row) in res.dist.iter().enumerate() {
            for (s, &d) in row.iter().enumerate() {
                assert_eq!(d, want[s][v].filter(|&d| d <= 3));
            }
        }
    }

    #[test]
    fn batched_route_on_a_graph_with_no_nodes_is_empty() {
        let g = Graph::from_edges(0, &[]);
        let res = all_bfs_batched(&g, 0.5, 3, 1).unwrap();
        assert!(res.dist.is_empty());
        assert_eq!(res.metrics.messages, 0);
    }

    #[test]
    fn routes_reject_epsilon_outside_their_lemma() {
        let g = generators::path(4);
        let rejected = [
            all_bfs_star(&g, 0.3, 1),
            all_bfs_batched(&g, 0.75, 3, 1),
            all_bfs_batched(&g, 0.0, 3, 1),
        ];
        for res in rejected {
            assert!(matches!(
                res,
                Err(EngineError::InvalidParameter {
                    what: "epsilon",
                    ..
                })
            ));
        }
    }

    /// Lemma 3.23's lockstep run against its batches run one by one, each
    /// alone on the route's set-up (the path `simulate_aggregation_general`
    /// takes, with no set-up to charge). Together they move the same words
    /// over the same edges and find the same distances, and the joint run
    /// takes no more rounds than Theorem 1.3's `C + D·L` (`C` the busiest
    /// edge's messages over all batches, `D` the slowest batch's rounds, `L`
    /// the bit length of `n`) or than the batches one after another (`Σ`),
    /// and no fewer than `⌈C/2⌉`: [`Metrics`] counts an edge's two directions
    /// together, and each carries one word per round. On these graphs the
    /// FIFO schedule even meets `C + D`, which the batches one after another,
    /// `Σ`, miss by far.
    #[test]
    fn the_joint_schedule_is_bounded_by_its_batches() {
        let graphs = [
            generators::gnp_connected(96, 0.08, 5),
            generators::caveman(8, 12),
            generators::grid(8, 12),
            generators::path(64),
        ];
        for g in &graphs {
            let n = g.n();
            for eps in [0.25, 0.5] {
                let seed = 29;
                let setup = setup_network(g, seed).unwrap();
                let zeta = Ensemble::paper_zeta(n, eps).max(1);
                let ensemble = Ensemble::build(g, eps, zeta, seed);
                let batches = batches(g, &ensemble, near_depth(n, eps), seed);
                let (dist, joint) = run_batches(g, &batches, &setup, seed).unwrap();

                let mut together = Metrics::new(g.m());
                let mut sigma = 0;
                let mut alone_dist = vec![vec![None; n]; n];
                for batch in &batches {
                    let (found, alone) =
                        run_batches(g, std::slice::from_ref(batch), &setup, seed).unwrap();
                    together.merge_parallel(&alone);
                    sigma += alone.rounds;
                    for s in batch.0.sources() {
                        for (row, theirs) in alone_dist.iter_mut().zip(&found) {
                            row[s.index()] = theirs[s.index()];
                        }
                    }
                }
                let (c, d) = (together.max_congestion(), together.rounds);
                let log = u64::from(usize::BITS - n.max(2).leading_zeros());
                let at = format!("n = {n}, ε = {eps}: C = {c}, D = {d}, Σ = {sigma}");
                assert!(batches.len() > 1, "{at}");
                assert_eq!(joint.messages, together.messages, "{at}");
                assert_eq!(joint.congestion(), together.congestion(), "{at}");
                assert!(c.div_ceil(2) <= joint.rounds, "{at}: {}", joint.rounds);
                assert!(
                    joint.rounds <= (c + d * log).min(sigma),
                    "{at}: {}",
                    joint.rounds
                );
                assert!(joint.rounds <= c + d, "{at}: {}", joint.rounds);
                assert_eq!(dist, alone_dist, "{at}");
            }
        }
    }
}
