//! **Theorem 1.2** — the message-time trade-off for unweighted APSP: for any
//! `ε ∈ [0, 1]`, `Õ(n^{2-ε})` rounds and `Õ(n^{2+ε})` messages, by dispatching to
//! the right machinery per regime (paper §3.3):
//!
//! * `ε ≲ 1/log n` — the message-optimal route: all-sources BFS through the
//!   Theorem 2.1 simulation (a special case of Theorem 1.1);
//! * `ε ∈ (1/Θ(log n), 1/2]` — depth-`Õ(n^{1-ε})` BFS batches over an ensemble of
//!   pruned hierarchies (Lemma 3.23) for the near pairs, plus sampled landmarks for
//!   the far pairs;
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
    /// `ε ∈ (1/Θ(log n), 1/2]`: Lemma 3.23 batches + landmarks.
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
        // Near pairs within depth Õ(n^{1-ε}), far pairs via landmarks.
        let nf = n.max(2) as f64;
        let depth = (2.0 * nf.powf(1.0 - epsilon)).ceil().min(nf) as u32;
        let near = all_bfs_batched(g, epsilon, depth, seed)?;
        let far = landmark_distances(g, sampling_probability(n, depth), seed)?;
        let mut metrics = near.metrics;
        metrics.merge_sequential(&far.metrics);
        let mut dist = near.dist;
        for (row, through_row) in dist.iter_mut().zip(&far.through) {
            for (slot, &through) in row.iter_mut().zip(through_row) {
                if let Some(t) = through {
                    if slot.is_none_or(|d| t < d) {
                        *slot = Some(t);
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

#[cfg(test)]
mod tests {
    use super::*;
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
