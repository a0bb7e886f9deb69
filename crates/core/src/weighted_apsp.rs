//! **Theorem 1.1** — message-optimal weighted APSP: the weight-delayed Dijkstra
//! payload (DESIGN.md §2's Bernstein–Nanongkai substitute) pushed through the
//! Theorem 2.1 simulation, for `Õ(n²)` messages and `Õ(n²)` rounds.
//!
//! [`weighted_apsp_direct`] runs the same payload directly in BCONGEST — the
//! `Θ(Σ_broadcasts deg) = Θ(mn)`-message baseline the paper contrasts against.

use crate::simulate::{simulate_bcongest_via_ldc, LdcSimOptions, SimulationRun};
use congest_algos::apsp_weighted::{WApspOutput, WeightedApsp};
use congest_engine::{run_bcongest, EngineError, Metrics, RunOptions};
use congest_graph::WeightedGraph;

/// Configuration for [`weighted_apsp`].
#[derive(Clone, Debug, Default)]
pub struct WeightedApspConfig {
    /// Master seed.
    pub seed: u64,
    /// Pad phases to the worst-case budget (see Theorem 2.1 options).
    pub strict_phase_budget: bool,
    /// How per-node phases execute (forwarded to the Theorem 2.1 simulation).
    /// Distances and metrics are identical at every thread count.
    pub exec: congest_engine::ExecutorConfig,
}

/// Result of a weighted APSP computation.
#[derive(Clone, Debug)]
pub struct WeightedApspResult {
    /// `distances[v][s]` = exact weighted distance from `s` to `v`.
    pub distances: Vec<Vec<Option<u64>>>,
    /// Realized cost.
    pub metrics: Metrics,
    /// Broadcast complexity of the simulated payload (≈ n²).
    pub simulated_broadcasts: u64,
    /// Simulated rounds of the payload (`T_A`).
    pub simulated_rounds: usize,
}

/// Message-optimal exact weighted APSP (Theorem 1.1).
///
/// # Errors
///
/// Propagates engine errors (round guard, preprocessing).
pub fn weighted_apsp(
    wg: &WeightedGraph,
    cfg: &WeightedApspConfig,
) -> Result<WeightedApspResult, EngineError> {
    let algo = WeightedApsp::new(wg.max_weight());
    let sim: SimulationRun<WApspOutput> = simulate_bcongest_via_ldc(
        &algo,
        wg.graph(),
        Some(wg.weights()),
        &LdcSimOptions {
            seed: cfg.seed,
            strict_phase_budget: cfg.strict_phase_budget,
            exec: cfg.exec.clone(),
        },
    )?;
    Ok(WeightedApspResult {
        distances: sim.outputs.iter().map(|o| o.dist.clone()).collect(),
        metrics: sim.metrics,
        simulated_broadcasts: sim.simulated_broadcasts,
        simulated_rounds: sim.simulated_rounds,
    })
}

/// The direct (unsimulated) execution of the same payload: round-frugal but
/// message-hungry (`Θ(Σ deg)` per broadcasting round ⇒ `Θ(mn)` total).
///
/// # Errors
///
/// Propagates engine errors.
pub fn weighted_apsp_direct(
    wg: &WeightedGraph,
    seed: u64,
) -> Result<WeightedApspResult, EngineError> {
    let algo = WeightedApsp::new(wg.max_weight());
    let run = run_bcongest(
        &algo,
        wg.graph(),
        Some(wg.weights()),
        &RunOptions {
            seed,
            ..Default::default()
        },
    )?;
    let rounds = run.metrics.rounds as usize;
    Ok(WeightedApspResult {
        distances: run.outputs.iter().map(|o| o.dist.clone()).collect(),
        simulated_broadcasts: run.metrics.broadcasts,
        simulated_rounds: rounds,
        metrics: run.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, reference};

    #[test]
    fn matches_dijkstra_and_direct() {
        let g = generators::gnp_connected(18, 0.2, 3);
        let wg = WeightedGraph::random_weights(&g, 1..=7, 3);
        let cfg = WeightedApspConfig {
            seed: 5,
            ..Default::default()
        };
        let sim = weighted_apsp(&wg, &cfg).unwrap();
        let direct = weighted_apsp_direct(&wg, 5).unwrap();
        assert_eq!(sim.distances, direct.distances);
        let want = reference::all_pairs_dijkstra(&wg);
        for (v, row) in sim.distances.iter().enumerate() {
            for (s, &d) in row.iter().enumerate() {
                assert_eq!(d, want[s][v]);
            }
        }
    }

    #[test]
    fn message_gap_on_dense_graphs() {
        // The headline: on dense graphs the simulation spends ~Õ(n²) messages while
        // the direct run spends ~Θ(mn) = Θ(n³).
        let g = generators::complete(24);
        let wg = WeightedGraph::random_weights(&g, 1..=5, 7);
        let cfg = WeightedApspConfig {
            seed: 2,
            ..Default::default()
        };
        let sim = weighted_apsp(&wg, &cfg).unwrap();
        let direct = weighted_apsp_direct(&wg, 2).unwrap();
        assert_eq!(sim.distances, direct.distances);
        assert!(
            sim.metrics.messages < direct.metrics.messages,
            "sim {} vs direct {}",
            sim.metrics.messages,
            direct.metrics.messages
        );
        // And the simulation pays rounds for it.
        assert!(sim.metrics.rounds > direct.metrics.rounds);
    }

    #[test]
    fn broadcast_complexity_near_n_squared() {
        let g = generators::gnp_connected(20, 0.2, 9);
        let wg = WeightedGraph::random_weights(&g, 1..=4, 9);
        let sim = weighted_apsp(&wg, &WeightedApspConfig::default()).unwrap();
        let n = g.n() as u64;
        assert!(sim.simulated_broadcasts >= n * n * 9 / 10);
        assert!(sim.simulated_broadcasts <= n * n * 3 / 2);
    }
}
