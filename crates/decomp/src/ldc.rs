//! The Low Diameter and Communication (LDC) decomposition — Definition 2.3 and
//! Lemma 2.4: an MPX clustering (strong diameter `O(log n)`, depth-`O(log n)` trees)
//! plus the sparse inter-cluster communication edge set `F` with one representative
//! (outgoing) edge per `(node, neighboring cluster)` pair.

use crate::mpx::{self, Clustering};
use congest_engine::{EngineError, Metrics};
use congest_graph::{ClusterId, EdgeId, Graph, NodeId};

/// One directed inter-cluster communication edge: `owner → other`, into `target`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FEdge {
    /// The node this edge belongs to (messages of `owner`'s broadcasts use it).
    pub owner: NodeId,
    /// The underlying undirected edge.
    pub edge: EdgeId,
    /// The endpoint inside the target cluster.
    pub other: NodeId,
    /// The neighboring cluster this edge reaches.
    pub target: ClusterId,
}

/// An `(r, d)`-LDC decomposition of a graph (Definition 2.3).
#[derive(Clone, Debug)]
pub struct LdcDecomposition {
    /// The underlying clustering (strong diameter ≤ `r`, spanned by trees).
    pub clustering: Clustering,
    /// The sparse inter-cluster communication edge set `F`, grouped by owner.
    pub f_edges: Vec<Vec<FEdge>>,
    /// Cost of the distributed construction (MPX + one announce exchange).
    pub metrics: Metrics,
}

impl LdcDecomposition {
    /// All F-edges in one flat list.
    pub fn all_f_edges(&self) -> impl Iterator<Item = &FEdge> {
        self.f_edges.iter().flatten()
    }

    /// The maximum F-degree `d` over all nodes (Definition 2.3's second parameter).
    pub fn max_f_degree(&self) -> usize {
        self.f_edges.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The strong-diameter parameter `r` realized by this decomposition.
    pub fn strong_radius(&self, g: &Graph) -> u32 {
        self.clustering.strong_radius(g)
    }
}

/// Builds an `(O(log n), O(log n))`-LDC decomposition (Lemma 2.4): runs distributed
/// MPX with `β = 1/2` and derives `F` from the announce exchange.
///
/// # Errors
///
/// Propagates engine errors (round-limit; cannot occur for valid parameters).
pub fn build_ldc(g: &Graph, seed: u64) -> Result<LdcDecomposition, EngineError> {
    let run = mpx::run_mpx(g, 0.5, seed)?;
    let clustering = run.clustering;
    let mut f_edges: Vec<Vec<FEdge>> = vec![Vec::new(); g.n()];
    for v in g.nodes() {
        let mine = clustering.cluster_of[v.index()];
        // One representative edge per neighboring cluster: the smallest-ID neighbor.
        let mut reps: Vec<(ClusterId, NodeId)> = Vec::new();
        for &(u, _center) in &run.neighbor_centers[v.index()] {
            let cu = clustering.cluster_of[u.index()];
            if cu == mine {
                continue;
            }
            match reps.iter_mut().find(|(c, _)| *c == cu) {
                Some((_, best)) => {
                    if u < *best {
                        *best = u;
                    }
                }
                None => reps.push((cu, u)),
            }
        }
        for (target, other) in reps {
            let edge = g.edge_between(v, other).expect("neighbor edge exists");
            f_edges[v.index()].push(FEdge {
                owner: v,
                edge,
                other,
                target,
            });
        }
    }
    Ok(LdcDecomposition {
        clustering,
        f_edges,
        metrics: run.metrics,
    })
}

/// Validates both LDC properties (Definition 2.3) plus the spanning-tree depth bound
/// of Lemma 2.4; returns a human-readable violation if any.
pub fn validate_ldc(g: &Graph, ldc: &LdcDecomposition, r: u32, d: usize) -> Result<(), String> {
    let radius = ldc.strong_radius(g);
    if radius > r {
        return Err(format!("strong radius {radius} exceeds bound {r}"));
    }
    if ldc.clustering.max_depth() > r {
        return Err(format!(
            "tree depth {} exceeds bound {r}",
            ldc.clustering.max_depth()
        ));
    }
    for v in g.nodes() {
        if ldc.f_edges[v.index()].len() > d {
            return Err(format!(
                "{v:?} has {} F-edges, bound {d}",
                ldc.f_edges[v.index()].len()
            ));
        }
        // Coverage: every neighboring cluster reachable through some F edge of v.
        let mine = ldc.clustering.cluster_of[v.index()];
        let mut want: Vec<ClusterId> = g
            .neighbors(v)
            .iter()
            .map(|&u| ldc.clustering.cluster_of[u.index()])
            .filter(|&c| c != mine)
            .collect();
        want.sort_unstable();
        want.dedup();
        for c in want {
            if !ldc.f_edges[v.index()].iter().any(|f| f.target == c) {
                return Err(format!("{v:?} lacks an F-edge into cluster {c:?}"));
            }
        }
        // F edges really leave v's cluster and land in their target.
        for f in &ldc.f_edges[v.index()] {
            if ldc.clustering.cluster_of[f.other.index()] != f.target || f.target == mine {
                return Err(format!("bad F-edge {f:?} at {v:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    fn log_bound(n: usize, c: u32) -> u32 {
        c * (n.max(2) as f64).ln().ceil() as u32
    }

    #[test]
    fn valid_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnp_connected(60, 0.08, seed);
            let ldc = build_ldc(&g, seed).unwrap();
            // (O(log n), O(log n)) with explicit constants 7 and 8.
            validate_ldc(
                &g,
                &ldc,
                log_bound(g.n(), 7),
                8 * log_bound(g.n(), 1) as usize,
            )
            .unwrap();
        }
    }

    #[test]
    fn valid_on_structured_graphs() {
        for (i, g) in [
            generators::grid(10, 10),
            generators::complete(30),
            generators::caveman(5, 8),
            generators::path(64),
        ]
        .iter()
        .enumerate()
        {
            let ldc = build_ldc(g, i as u64).unwrap();
            validate_ldc(
                g,
                &ldc,
                log_bound(g.n(), 7),
                8 * log_bound(g.n(), 1) as usize,
            )
            .unwrap();
        }
    }

    #[test]
    fn complete_graph_f_degree_is_small() {
        // On K_n all nodes neighbor all clusters; with β=0.5 the cluster count is
        // small, so F-degrees stay ≤ #clusters - 1.
        let g = generators::complete(25);
        let ldc = build_ldc(&g, 3).unwrap();
        assert!(ldc.max_f_degree() < ldc.clustering.len().max(1));
    }

    #[test]
    fn f_edges_are_directed_per_owner() {
        let g = generators::gnp_connected(40, 0.1, 4);
        let ldc = build_ldc(&g, 4).unwrap();
        for v in g.nodes() {
            for f in &ldc.f_edges[v.index()] {
                assert_eq!(f.owner, v);
                assert!(g.has_edge(f.owner, f.other));
            }
        }
    }

    #[test]
    fn construction_cost_is_near_linear() {
        use congest_engine::BcongestAlgorithm as _;
        let g = generators::gnp_connected(80, 0.08, 8);
        let ldc = build_ldc(&g, 8).unwrap();
        assert!(ldc.metrics.messages <= 6 * g.m() as u64);
        let bound = crate::mpx::MpxAlgorithm::new(0.5).round_bound(g.n(), g.m()) as u64;
        assert!(ldc.metrics.rounds <= bound);
    }
}
