//! **Lemmas 3.22 and 3.23** — computing many BFS trees message-efficiently.
//!
//! * [`all_bfs_star`] (Lemma 3.22, `ε ∈ [1/2, 1]`): all `n` BFS under random delays
//!   (Theorem 1.4), simulated via Theorem 3.10 over one pruned hierarchy —
//!   `Õ(n^{2-ε})` rounds, `Õ(n^{2+ε})` messages.
//! * [`all_bfs_batched`] (Lemma 3.23, `ε ∈ (0, 1/2]`): the `n` depth-limited BFS
//!   split into `⌈n^ε⌉` batches, each simulated via Theorem 3.9 over its own member
//!   of an ensemble of pruned hierarchies (Lemma 3.8's congestion smoothing), then
//!   composed with the congestion+dilation accounting of Theorem 1.3.
//!
//! Both charge one network set-up and one shared-randomness distribution exactly
//! as the paper prescribes (Õ(n) rounds, Õ(n²) messages): every simulation runs
//! on the route's set-up instead of electing again, and in the batched route the
//! distribution carries one delay word per source, so a single one serves every
//! batch.

use congest_algos::bfs_collection::BfsCollection;
use congest_algos::leader::setup_network;
use congest_decomp::pruning::prune;
use congest_decomp::{Ensemble, Hierarchy};
use congest_engine::treeops::broadcast;
use congest_engine::{EngineError, Metrics};
use congest_graph::{Graph, NodeId};
use congest_sched::{compose_measured, paper_shared_words, shared_randomness};

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
    /// Each Lemma 3.23 batch's own account, in batch order, before Theorem 1.3
    /// composes them (empty for [`all_bfs_star`]).
    pub batches: Vec<Metrics>,
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

    // Shared randomness for the random delays (Theorem 1.4).
    let setup = setup_network(g, seed)?;
    let sr = shared_randomness(g, &setup.tree, paper_shared_words(g.n()), seed);
    metrics.merge_sequential(&setup.metrics);
    metrics.merge_sequential(&sr.metrics);

    let h = prune(g, &Hierarchy::build(g, epsilon, seed));
    let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(sr.seed);
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
        batches: Vec::new(),
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

    let batches = Ensemble::paper_zeta(n, epsilon).max(1);
    let setup = setup_network(g, seed)?;
    metrics.merge_sequential(&setup.metrics);
    // One shared-randomness distribution covers every batch: a source's delay
    // takes one word and each source is in exactly one batch.
    let sr = shared_randomness(g, &setup.tree, paper_shared_words(n), seed);
    metrics.merge_sequential(&sr.metrics);
    let ensemble = Ensemble::build(g, epsilon, batches, seed);
    metrics.merge_sequential(&ensemble.metrics);

    let sources: Vec<NodeId> = g.nodes().collect();
    let chunk = n.div_ceil(batches);
    let mut dist: Vec<Vec<Option<u32>>> = vec![vec![None; n]; n];
    let mut batch_metrics: Vec<Metrics> = Vec::with_capacity(batches);

    for (b, chunk_sources) in sources.chunks(chunk).enumerate() {
        let h = &ensemble.hierarchies[b % ensemble.len()];
        let algo = BfsCollection::new(chunk_sources.to_vec())
            .with_depth_limit(depth_limit)
            .with_random_delays(congest_graph::rng::derive(seed, 0xba7c_0000 + b as u64));
        let opts = AggSimOptions {
            seed: congest_graph::rng::derive(seed, 0x5eed_0000 + b as u64),
            charge_hierarchy: false, // the ensemble is charged once above
            ..Default::default()
        };
        let sim = simulate_general_with_setup(&algo, g, None, h, &opts, Some(&setup))?;
        for (v, out) in sim.outputs.iter().enumerate() {
            for (j, entry) in out.entries.iter().enumerate() {
                let s = chunk_sources[j].index();
                dist[v][s] = entry.dist;
            }
        }
        batch_metrics.push(sim.metrics);
    }

    // The batches run together under Theorem 1.3: congestion+dilation accounting
    // over the measured executions (see DESIGN.md §2) — or one after another,
    // always a valid schedule, when that is shorter.
    let mut composed = compose_measured(g, &batch_metrics).metrics;
    composed.rounds = composed
        .rounds
        .min(batch_metrics.iter().map(|m| m.rounds).sum());
    metrics.merge_sequential(&composed);

    // Any two nodes of one tree are at most `2h` apart through its root, so a
    // limit of `2h` truncates nothing (see DESIGN.md §2).
    let h = setup.tree.depth();
    let exact = u64::from(depth_limit) >= 2 * u64::from(h);
    if exact {
        let word = setup.tree.roots().iter().map(|&r| (r, u64::from(h)));
        let announce = broadcast(g, &setup.tree, word.collect(), None)?;
        metrics.merge_sequential(&announce.metrics);
    }
    Ok(BfsForestResult {
        dist,
        metrics,
        depth_limit: if exact { u32::MAX } else { depth_limit },
        batches: batch_metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
