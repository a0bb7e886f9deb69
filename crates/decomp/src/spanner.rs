//! The `(2κ−1)`-spanner by-product of the Baswana–Sen hierarchy \[5\]: cluster edges
//! plus inter-cluster communication edges form a spanner with `O(κ·n^{1+1/κ})` edges
//! (in expectation) and stretch `2κ−1` on unweighted graphs.

use crate::baswana_sen::Hierarchy;
use congest_graph::{edge_subgraph, reference, rng, EdgeId, Graph};
use rand::seq::SliceRandom;

/// Extracts the spanner edge set (cluster edges ∪ F edges, deduplicated).
pub fn spanner_edges(g: &Graph, h: &Hierarchy) -> Vec<EdgeId> {
    let mut keep = vec![false; g.m()];
    for (e, k) in keep.iter_mut().enumerate() {
        *k = h.cluster_edge[e];
    }
    for (_, f) in h.all_f_edges() {
        keep[f.edge.index()] = true;
    }
    keep.iter()
        .enumerate()
        .filter(|&(_, &k)| k)
        .map(|(e, _)| EdgeId::new(e))
        .collect()
}

/// The spanner as a standalone graph (same node IDs).
fn spanner_graph(g: &Graph, h: &Hierarchy) -> Graph {
    let keep: Vec<bool> = {
        let mut k = vec![false; g.m()];
        for e in spanner_edges(g, h) {
            k[e.index()] = true;
        }
        k
    };
    edge_subgraph(g, |e| keep[e.index()])
}

/// Measures the worst multiplicative stretch of the spanner over `samples` random
/// source nodes (exact per-source BFS comparison). Returns the maximum of
/// `dist_H(u,v) / dist_G(u,v)` observed.
///
/// # Panics
///
/// Panics if the spanner disconnects a connected input (it never should).
pub fn measured_stretch(g: &Graph, h: &Hierarchy, samples: usize, seed: u64) -> f64 {
    let sp = spanner_graph(g, h);
    let mut nodes: Vec<_> = g.nodes().collect();
    let mut r = rng::seeded(rng::derive(seed, 0x57ae));
    nodes.shuffle(&mut r);
    let mut worst: f64 = 1.0;
    for &s in nodes.iter().take(samples.max(1)) {
        let dg = reference::bfs_distances(g, s);
        let dh = reference::bfs_distances(&sp, s);
        for v in g.nodes() {
            match (dg[v.index()], dh[v.index()]) {
                (Some(a), Some(b)) if a > 0 => {
                    worst = worst.max(b as f64 / a as f64);
                }
                (Some(a), None) if a > 0 => {
                    panic!("spanner disconnected {s:?} from {v:?}");
                }
                _ => {}
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn stretch_within_2k_minus_1() {
        for &(eps, kappa) in &[(0.5, 2usize), (0.34, 3), (0.25, 4)] {
            for seed in 0..3 {
                let g = generators::gnp_connected(40, 0.15, seed);
                let h = Hierarchy::build(&g, eps, seed + 50);
                let s = measured_stretch(&g, &h, 10, seed);
                let bound = (2 * kappa - 1) as f64;
                assert!(s <= bound + 1e-9, "stretch {s} > {bound} (eps={eps})");
            }
        }
    }

    #[test]
    fn pruned_spanner_also_stretches() {
        // Pruning recomputes F*, which preserves coverage; the spanner property
        // survives (the pruned hierarchy satisfies the same properties).
        let g = generators::gnp_connected(40, 0.2, 4);
        let h = Hierarchy::build(&g, 0.5, 4);
        let p = crate::pruning::prune(&g, &h);
        let s = measured_stretch(&g, &p, 10, 4);
        assert!(s <= 3.0 + 1e-9, "pruned stretch {s}");
    }

    #[test]
    fn spanner_is_sparser_than_dense_graphs() {
        let g = generators::gnp_connected(60, 0.5, 6); // dense: m ≈ 885
        let h = Hierarchy::build(&g, 0.5, 6);
        let edges = spanner_edges(&g, &h);
        // O(n^{3/2}) ≈ 465 with constant 2 plus log slack; dense graphs shrink a lot.
        let bound = (2.0 * (g.n() as f64).powf(1.5) + 8.0 * g.n() as f64) as usize;
        assert!(edges.len() <= bound, "spanner has {} edges", edges.len());
        assert!(edges.len() < g.m());
    }

    #[test]
    fn epsilon_one_spanner_is_whole_graph() {
        let g = generators::gnp_connected(20, 0.3, 7);
        let h = Hierarchy::build(&g, 1.0, 7);
        assert_eq!(spanner_edges(&g, &h).len(), g.m());
    }
}
