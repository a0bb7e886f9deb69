//! Ensembles of independently-constructed pruned Baswana–Sen hierarchies — the
//! congestion-smoothing device of Lemma 3.8: `ζ = ⌈n^ε⌉` hierarchies, with the `ℓ`
//! components of an ℓ-decomposable algorithm split into `ζ` equal batches, one per
//! hierarchy. Lemma 3.7 (an edge is a cluster edge with probability `O(κ·n^{-ε})`)
//! is what makes the smoothing work; [`cluster_edge_frequency`] measures it.

use crate::baswana_sen::Hierarchy;
use crate::pruning::prune;
use congest_engine::Metrics;
use congest_graph::{rng, Graph};

/// An ensemble of independently seeded pruned hierarchies.
#[derive(Clone, Debug)]
pub struct Ensemble {
    /// The hierarchies.
    pub hierarchies: Vec<Hierarchy>,
    /// Total accounted construction cost.
    pub metrics: Metrics,
}

impl Ensemble {
    /// Builds `zeta` independent pruned hierarchies with parameter `epsilon`.
    pub fn build(g: &Graph, epsilon: f64, zeta: usize, seed: u64) -> Self {
        let mut metrics = Metrics::new(g.m());
        let hierarchies: Vec<Hierarchy> = (0..zeta.max(1))
            .map(|k| {
                let h = Hierarchy::build(g, epsilon, rng::derive(seed, 0xe5e0 + k as u64));
                let p = prune(g, &h);
                metrics.merge_sequential(&p.metrics);
                p
            })
            .collect();
        Self {
            hierarchies,
            metrics,
        }
    }

    /// The paper's choice `ζ = ⌈n^ε⌉`.
    pub fn paper_zeta(n: usize, epsilon: f64) -> usize {
        (n.max(2) as f64).powf(epsilon).ceil() as usize
    }

    /// Number of hierarchies.
    pub fn len(&self) -> usize {
        self.hierarchies.len()
    }

    /// Whether the ensemble is empty.
    pub fn is_empty(&self) -> bool {
        self.hierarchies.is_empty()
    }
}

/// Empirical per-edge cluster-edge frequency over `trials` fresh hierarchies (for
/// the Lemma 3.7 experiment): returns the average over edges and the max over edges.
pub fn cluster_edge_frequency(g: &Graph, epsilon: f64, trials: usize, seed: u64) -> (f64, f64) {
    let mut counts = vec![0usize; g.m()];
    for t in 0..trials {
        let h = Hierarchy::build(g, epsilon, rng::derive(seed, 0x1e37 + t as u64));
        for (e, c) in counts.iter_mut().enumerate() {
            if h.cluster_edge[e] {
                *c += 1;
            }
        }
    }
    if g.m() == 0 || trials == 0 {
        return (0.0, 0.0);
    }
    let avg = counts.iter().sum::<usize>() as f64 / (g.m() * trials) as f64;
    let max = counts.iter().copied().max().unwrap_or(0) as f64 / trials as f64;
    (avg, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn builds_independent_hierarchies() {
        let g = generators::gnp_connected(40, 0.12, 1);
        let ens = Ensemble::build(&g, 0.5, 4, 1);
        assert_eq!(ens.len(), 4);
        // Independence: at least two hierarchies differ in cluster edges (w.h.p.).
        let distinct = ens
            .hierarchies
            .windows(2)
            .any(|w| w[0].cluster_edge != w[1].cluster_edge);
        assert!(distinct);
    }

    #[test]
    fn paper_zeta_matches_formula() {
        assert_eq!(Ensemble::paper_zeta(100, 0.5), 10);
        assert_eq!(Ensemble::paper_zeta(100, 1.0), 100);
    }

    #[test]
    fn cluster_edge_probability_small() {
        // Lemma 3.7: P[cluster edge] = O(κ n^{-ε}); with n = 49, ε = 0.5, κ = 2 the
        // bound is ~2/7 ≈ 0.29 (up to constants). Check the average is well below 1.
        let g = generators::gnp_connected(49, 0.15, 5);
        let (avg, _max) = cluster_edge_frequency(&g, 0.5, 20, 5);
        let kappa = 2.0;
        let bound = 3.0 * kappa * (49f64).powf(-0.5);
        assert!(avg <= bound, "avg frequency {avg} > {bound}");
    }
}
