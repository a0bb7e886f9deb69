//! **Lemmas 3.22 and 3.23** — computing many BFS trees message-efficiently.
//!
//! * [`all_bfs_star`] (Lemma 3.22, `ε ∈ [1/2, 1]`): all `n` BFS under random delays
//!   (Theorem 1.4), simulated via Theorem 3.10 over one pruned hierarchy —
//!   `Õ(n^{2-ε})` rounds, `Õ(n^{2+ε})` messages.
//! * [`all_bfs_batched`] (Lemma 3.23, `ε ∈ (0, 1/2]`): the `n` depth-limited BFS
//!   split into `⌈n^ε⌉` batches, each simulated via Theorem 3.9 over its own member
//!   of an ensemble of pruned hierarchies (Lemma 3.8's congestion smoothing), then
//!   charged as one joint schedule by Theorem 1.3's congestion + dilation bound
//!   (`compose_batches`).
//!
//! Both charge one network set-up and one shared-randomness distribution
//! (`shared_randomness`) exactly as the paper prescribes (Õ(n) rounds, Õ(n²)
//! messages): every simulation runs on the route's set-up instead of electing
//! again, and in the batched route the distribution carries one delay word per
//! source, so a single one serves every batch.

use congest_algos::bfs_collection::BfsCollection;
use congest_algos::leader::setup_network;
use congest_decomp::pruning::prune;
use congest_decomp::{Ensemble, Hierarchy};
use congest_engine::treeops::tree_pass;
use congest_engine::{EngineError, Forest, Metrics};
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
    let (shared_seed, sr) = shared_randomness(g, &setup.tree, seed);
    metrics.merge_sequential(&setup.metrics);
    metrics.merge_sequential(&sr);

    let h = prune(g, &Hierarchy::build(g, epsilon, seed));
    let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(shared_seed);
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
    let (_, sr) = shared_randomness(g, &setup.tree, seed);
    metrics.merge_sequential(&sr);
    let ensemble = Ensemble::build(g, epsilon, batches, seed);
    metrics.merge_sequential(&ensemble.metrics);

    let sources: Vec<NodeId> = g.nodes().collect();
    // At least 1: `chunks(0)` panics, and a graph with no nodes has no batch.
    let chunk = n.div_ceil(batches).max(1);
    let mut dist: Vec<Vec<Option<u32>>> = vec![vec![None; n]; n];
    let mut batch_metrics: Vec<Metrics> = Vec::with_capacity(batches);

    for (b, chunk_sources) in sources.chunks(chunk).enumerate() {
        let h = &ensemble.hierarchies[b % ensemble.len()];
        let algo = BfsCollection::new(chunk_sources.to_vec())
            .with_depth_limit(depth_limit)
            .with_random_delays(rng::derive(seed, 0xba7c_0000 + b as u64));
        let opts = AggSimOptions {
            seed: rng::derive(seed, 0x5eed_0000 + b as u64),
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
    metrics.merge_sequential(&compose_batches(g, &batch_metrics));

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
        batches: batch_metrics,
    })
}

/// Distributes shared randomness from the root of `tree` to every node, as the
/// paper does just before Lemma 3.22: the leader's `Θ(n log n)` random bits are
/// `n` words, pipelined down every tree edge — `n + depth` rounds and `n`
/// messages per tree edge (`Õ(n)` rounds, `Õ(n²)` messages). Returns the seed
/// every node then holds, which stands in for the bits, and that cost.
fn shared_randomness(g: &Graph, tree: &Forest, seed: u64) -> (u64, Metrics) {
    let words = g.n().max(1) as u64;
    let mut metrics = Metrics::new(g.m());
    metrics.rounds = words + u64::from(tree.depth());
    for &e in tree.tree_edges() {
        metrics.add_messages(e, words);
    }
    (rng::derive(seed, 0x5a5a_0001), metrics)
}

/// Theorem 1.3 applied as accounting (DESIGN.md §2): the batches' measured runs,
/// scheduled together, take `C + D·L` rounds, where `C` is the busiest edge's
/// messages over all batches, `D` the slowest batch's rounds and `L` the bit
/// length of `n`, `⌊log₂ n⌋ + 1` (10 at n = 512, where `⌈log₂ n⌉` is 9). Running
/// them one after another, `Σ` batch rounds, is a valid schedule too, so the
/// charge is the smaller of the two. Messages and per-edge congestion add.
fn compose_batches(g: &Graph, batches: &[Metrics]) -> Metrics {
    let mut metrics = Metrics::new(g.m());
    for b in batches {
        metrics.merge_parallel(b);
    }
    let log = u64::from(usize::BITS - g.n().max(2).leading_zeros());
    let theorem = metrics.max_congestion() + metrics.rounds * log;
    metrics.rounds = theorem.min(batches.iter().map(|b| b.rounds).sum());
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, reference, EdgeId};

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
        assert!(res.batches.is_empty());
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

    #[test]
    fn shared_randomness_pipelines_n_words_down_the_tree() {
        let g = generators::gnp_connected(30, 0.15, 3);
        let setup = setup_network(&g, 3).unwrap();
        let (seed, cost) = shared_randomness(&g, &setup.tree, 3);
        // n + depth rounds; n words on each of the n − 1 tree edges.
        assert_eq!(cost.rounds, 30 + u64::from(setup.tree.depth()));
        assert_eq!(cost.messages, 30 * 29);
        // Every node derives the same seed from the same master seed.
        assert_eq!(seed, shared_randomness(&g, &setup.tree, 3).0);
        assert_ne!(seed, shared_randomness(&g, &setup.tree, 4).0);
    }

    /// A batch that runs `rounds` rounds and sends `words` messages over edge
    /// `edge`.
    fn batch(g: &Graph, edge: usize, words: u64, rounds: u64) -> Metrics {
        let mut m = Metrics::new(g.m());
        m.rounds = rounds;
        m.add_messages(EdgeId::new(edge), words);
        m
    }

    #[test]
    fn compose_batches_charges_the_shorter_schedule() {
        // One after another wins: two batches on one edge of path(5), L = 3.
        // C + D·L = 12 + 10 · 3 = 42 against Σ = 10 + 4 = 14.
        let g = generators::path(5);
        let c = compose_batches(&g, &[batch(&g, 0, 7, 10), batch(&g, 0, 5, 4)]);
        assert_eq!((c.rounds, c.messages, c.max_congestion()), (14, 12, 12));

        // Theorem 1.3 wins: eight 10-round batches on the eight disjoint edges
        // of path(9), L = 4. C + D·L = 10 + 10 · 4 = 50 against Σ = 80.
        let g = generators::path(9);
        let parts: Vec<Metrics> = (0..8).map(|e| batch(&g, e, 10, 10)).collect();
        let c = compose_batches(&g, &parts);
        assert_eq!((c.rounds, c.messages, c.max_congestion()), (50, 80, 10));

        // No batch costs nothing.
        assert_eq!(compose_batches(&g, &[]), Metrics::new(g.m()));
    }
}
