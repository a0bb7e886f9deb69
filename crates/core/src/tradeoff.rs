//! **Theorem 1.2** — the message-time trade-off for unweighted APSP: for any
//! `ε ∈ [0, 1]`, `Õ(n^{2-ε})` rounds and `Õ(n^{2+ε})` messages, by dispatching to
//! the right machinery per regime (paper §3.3):
//!
//! * `ε ≲ 1/log n` — the message-optimal route: all-sources BFS through the
//!   Theorem 2.1 simulation (a special case of Theorem 1.1);
//! * `ε ∈ (1/Θ(log n), 1/2]` — depth-`Õ(n^{1-ε})` BFS batches over an ensemble of
//!   pruned hierarchies (Lemma 3.23) for the near pairs, plus sampled landmarks for
//!   the far pairs when the set-up tree's height does not already rule them out;
//! * `ε ∈ (1/2, 1]` — all `n` full BFS under Theorem 1.4's random delays, simulated
//!   via Theorem 3.10 (Lemma 3.22).

use crate::bfs_trees::{all_bfs_batched, all_bfs_star};
use crate::ensure_epsilon;
use crate::landmarks::{landmark_distances, sampling_probability};
use crate::simulate::{simulate_bcongest_via_ldc, LdcSimOptions};
use congest_algos::bfs_collection::BfsCollection;
use congest_engine::{EngineError, Metrics};
use congest_graph::Graph;

/// Which regime of the trade-off served a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `ε ≈ 0`: Theorem 2.1 simulation (message-optimal end).
    MessageOptimal,
    /// `ε ∈ (1/Θ(log n), 1/2]`: Lemma 3.23 batches + landmarks (the latter
    /// skipped when the depth limit already covers every distance).
    BatchedPlusLandmarks,
    /// `ε ∈ (1/2, 1]`: Lemma 3.22 (round-optimal end at ε = 1).
    StarDirect,
}

/// Result of the trade-off APSP.
#[derive(Clone, Debug)]
pub struct TradeoffResult {
    /// `dist[v][s]` = exact hop distance from `s` to `v`.
    pub dist: Vec<Vec<Option<u32>>>,
    /// Which route ran.
    pub route: Route,
    /// Realized total cost.
    pub metrics: Metrics,
    /// The ε requested.
    pub epsilon: f64,
}

/// Unweighted APSP at trade-off point `ε ∈ [0, 1]` (Theorem 1.2).
///
/// # Errors
///
/// [`EngineError::InvalidParameter`] if `epsilon` is outside `[0, 1]` (or NaN);
/// propagates engine errors.
pub fn tradeoff_apsp(g: &Graph, epsilon: f64, seed: u64) -> Result<TradeoffResult, EngineError> {
    ensure_epsilon(epsilon, (0.0..=1.0).contains(&epsilon), "[0, 1]")?;
    let n = g.n();
    let log_threshold = 1.0 / (n.max(4) as f64).log2();

    if epsilon <= log_threshold {
        // Message-optimal end: simulate the all-sources BFS collection through
        // Theorem 2.1 (delays unnecessary — queueing plus re-broadcast keeps the
        // collection exact).
        let algo = BfsCollection::new(g.nodes().collect());
        let sim = simulate_bcongest_via_ldc(
            &algo,
            g,
            None,
            &LdcSimOptions {
                seed,
                ..Default::default()
            },
        )?;
        return Ok(TradeoffResult {
            dist: sim
                .outputs
                .iter()
                .map(|o| o.entries.iter().map(|e| e.dist).collect())
                .collect(),
            route: Route::MessageOptimal,
            metrics: sim.metrics,
            epsilon,
        });
    }

    if epsilon <= 0.5 {
        // Near pairs within depth Õ(n^{1-ε}), far pairs via landmarks — unless
        // the batches report that no pair lies beyond the limit.
        let depth = near_depth(n, epsilon);
        let near = all_bfs_batched(g, epsilon, depth, seed)?;
        let mut metrics = near.metrics;
        let mut dist = near.dist;
        if near.depth_limit != u32::MAX {
            let far = landmark_distances(g, sampling_probability(n, depth), seed)?;
            metrics.merge_sequential(&far.metrics);
            for (row, through_row) in dist.iter_mut().zip(&far.through) {
                for (slot, &through) in row.iter_mut().zip(through_row) {
                    if let Some(t) = through {
                        if slot.is_none_or(|d| t < d) {
                            *slot = Some(t);
                        }
                    }
                }
            }
        }
        return Ok(TradeoffResult {
            dist,
            route: Route::BatchedPlusLandmarks,
            metrics,
            epsilon,
        });
    }

    let res = all_bfs_star(g, epsilon, seed)?;
    Ok(TradeoffResult {
        dist: res.dist,
        route: Route::StarDirect,
        metrics: res.metrics,
        epsilon,
    })
}

/// The near-pair depth limit `⌈2 n^{1-ε}⌉` (capped at `n`) of the middle route.
pub(crate) fn near_depth(n: usize, epsilon: f64) -> u32 {
    let nf = n.max(2) as f64;
    (2.0 * nf.powf(1.0 - epsilon)).ceil().min(nf) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_trees::BfsForestResult;
    use congest_algos::leader::setup_network;
    use congest_graph::{generators, reference};

    fn check_exact(g: &Graph, res: &TradeoffResult) {
        let want = reference::all_pairs_bfs(g);
        for (v, row) in res.dist.iter().enumerate() {
            for (s, &d) in row.iter().enumerate() {
                assert_eq!(d, want[s][v], "dist({s},{v}) via {:?}", res.route);
            }
        }
    }

    #[test]
    fn all_routes_are_exact() {
        let g = generators::gnp_connected(20, 0.15, 5);
        for &(eps, route) in &[
            (0.0, Route::MessageOptimal),
            (0.4, Route::BatchedPlusLandmarks),
            (0.75, Route::StarDirect),
            (1.0, Route::StarDirect),
        ] {
            let res = tradeoff_apsp(&g, eps, 31).unwrap();
            assert_eq!(res.route, route, "eps = {eps}");
            check_exact(&g, &res);
        }
    }

    #[test]
    fn grid_and_caveman_exact_at_half() {
        for (i, g) in [generators::grid(5, 4), generators::caveman(4, 5)]
            .iter()
            .enumerate()
        {
            let res = tradeoff_apsp(g, 0.5, 7 + i as u64).unwrap();
            check_exact(g, &res);
        }
    }

    /// The middle route's near part alone, and the set-up tree's height.
    fn near_part(g: &Graph, eps: f64, seed: u64) -> (BfsForestResult, u32) {
        let near = all_bfs_batched(g, eps, near_depth(g.n(), eps), seed).unwrap();
        let h = setup_network(g, seed).unwrap().tree.depth();
        (near, h)
    }

    #[test]
    fn landmarks_skipped_when_the_limit_covers_the_set_up_tree() {
        let g = generators::gnp_connected(40, 0.2, 3);
        let (near, h) = near_part(&g, 0.5, 5);
        assert!(near_depth(g.n(), 0.5) >= 2 * h, "height {h}");
        assert_eq!(near.depth_limit, u32::MAX);
        let res = tradeoff_apsp(&g, 0.5, 5).unwrap();
        assert_eq!(res.route, Route::BatchedPlusLandmarks);
        assert_eq!(res.metrics, near.metrics);
        check_exact(&g, &res);
    }

    /// The first graph is a 17-node path whose leader (ID 0) sits at its
    /// midpoint: height 8 but diameter 16, so a rule testing `limit ≥ h`
    /// instead of `limit ≥ 2h` skips the landmarks at limit 9 and loses every
    /// pair 10–16 hops apart.
    #[test]
    fn landmarks_run_when_the_set_up_tree_is_too_tall() {
        let label = |i: usize| (i + 9) % 17; // position 8 gets ID 0
        let edges: Vec<(usize, usize)> = (0..16).map(|i| (label(i), label(i + 1))).collect();
        let midpoint_path = Graph::from_edges(17, &edges);
        for (g, want) in [
            (midpoint_path, (8, 9)),
            (generators::grid(5, 5), (8, 10)),
            (generators::path(24), (23, 10)),
        ] {
            let res = tradeoff_apsp(&g, 0.5, 7).unwrap();
            check_exact(&g, &res);
            let (near, h) = near_part(&g, 0.5, 7);
            assert_eq!((h, near.depth_limit), want);
            assert_eq!(near_depth(g.n(), 0.5), want.1);
            assert!(res.metrics.messages > near.metrics.messages);
        }
    }

    /// A BFS forest: each component's tree bounds its own distances, and the
    /// tallest tree decides. The second graph skips at ε = ¼ (limit 21, height
    /// 9) and keeps the landmarks at ε = ½ (limit 10).
    #[test]
    fn two_components_exact_on_both_branches() {
        let union = |c: usize, p: usize| {
            let mut edges: Vec<(usize, usize)> = (0..c).map(|i| (i, (i + 1) % c)).collect();
            edges.extend((c..c + p - 1).map(|i| (i, i + 1)));
            Graph::from_edges(c + p, &edges)
        };
        for g in [union(6, 5), union(12, 10)] {
            for eps in [0.25, 0.5] {
                let res = tradeoff_apsp(&g, eps, 11).unwrap();
                check_exact(&g, &res);
            }
        }
        let g = union(12, 10);
        assert_eq!(near_part(&g, 0.25, 11).0.depth_limit, u32::MAX);
        assert_eq!(near_part(&g, 0.5, 11).0.depth_limit, 10);
    }

    #[test]
    fn messages_increase_and_rounds_decrease_along_the_tradeoff() {
        // The headline shape: moving ε up trades messages for rounds.
        let g = generators::gnp_connected(28, 0.25, 9);
        let low = tradeoff_apsp(&g, 0.0, 3).unwrap();
        let high = tradeoff_apsp(&g, 1.0, 3).unwrap();
        assert!(
            high.metrics.rounds < low.metrics.rounds,
            "rounds: high-ε {} vs low-ε {}",
            high.metrics.rounds,
            low.metrics.rounds
        );
    }

    #[test]
    fn rejects_bad_epsilon() {
        let g = generators::path(4);
        for eps in [1.5, -0.1, f64::NAN] {
            let err = tradeoff_apsp(&g, eps, 0).unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::InvalidParameter {
                        what: "epsilon",
                        ..
                    }
                ),
                "eps = {eps}: {err}"
            );
        }
    }
}
