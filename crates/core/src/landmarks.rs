//! The landmark step of the `ε ∈ (0, 1/2]` trade-off (paper §3.3, "far pairs"):
//! sample `Θ̃(n^ε)` landmark nodes, run a plain full BFS from each (sequentially),
//! upcast each BFS tree's edge list to its root, and broadcast the tree description
//! to all nodes — after which every node can locally compute its distance to every
//! node *through* any landmark. Any shortest path longer than the sampling scale
//! contains a landmark w.h.p., so far pairs come out exact.

use congest_algos::bfs::{Bfs, BfsOutput};
use congest_engine::{run_bcongest, upcast, EngineError, Forest, Metrics, Router, RunOptions};
use congest_graph::{rng, Graph, NodeId};
use rand::Rng;

/// Result of the landmark phase.
#[derive(Clone, Debug)]
pub struct LandmarkResult {
    /// The sampled landmarks.
    pub landmarks: Vec<NodeId>,
    /// `through[v][u]` = min over landmarks `l` of `d(v,l) + d(l,u)`.
    pub through: Vec<Vec<Option<u32>>>,
    /// Realized cost: BFS runs + tree upcasts + tree broadcasts.
    pub metrics: Metrics,
}

/// Samples each node as a landmark independently with probability `p` (clamped so at
/// least one landmark exists on non-empty graphs) and computes all
/// landmark-mediated distances.
///
/// # Errors
///
/// Propagates engine errors from the BFS runs.
pub fn landmark_distances(g: &Graph, p: f64, seed: u64) -> Result<LandmarkResult, EngineError> {
    let n = g.n();
    let mut metrics = Metrics::new(g.m());
    let mut r = rng::seeded(rng::derive(seed, 0x1a9d_0001));
    let mut landmarks: Vec<NodeId> = g.nodes().filter(|_| r.random::<f64>() < p).collect();
    if landmarks.is_empty() && n > 0 {
        landmarks.push(NodeId::new(r.random_range(0..n)));
    }

    let mut router = Router::new(g)?;
    let mut per_landmark_dist: Vec<Vec<Option<u32>>> = Vec::with_capacity(landmarks.len());
    for (i, &l) in landmarks.iter().enumerate() {
        // Plain BFS, run on the network (sequentially, as in the paper).
        let run = run_bcongest(
            &Bfs::new(l),
            g,
            None,
            &RunOptions {
                seed: rng::derive(seed, 0x1a9d_1000 + i as u64),
                ..Default::default()
            },
        )?;
        metrics.merge_sequential(&run.metrics);

        // Upcast the BFS tree's edge list to the landmark.
        let parents: Vec<Option<NodeId>> = run.outputs.iter().map(|o| o.parent).collect();
        let forest = Forest::from_parents(g, parents)?;
        let items: Vec<(NodeId, usize)> = g
            .nodes()
            .filter(|v| forest.parent(*v).is_some())
            .map(|v| (v, 1))
            .collect();
        let tree_words = items.len();
        if !items.is_empty() {
            metrics.merge_sequential(&upcast(&mut router, &forest, items)?);
        }

        // Broadcast the tree description (tree_words words) to every node, pipelined
        // over the BFS tree: `words + depth` rounds, `words` messages per tree edge.
        let mut bcast = Metrics::new(g.m());
        bcast.rounds = tree_words as u64 + u64::from(forest.depth());
        for &e in forest.tree_edges() {
            bcast.add_messages(e, tree_words as u64);
        }
        metrics.merge_sequential(&bcast);

        per_landmark_dist.push(run.outputs.iter().map(|o: &BfsOutput| o.dist).collect());
    }

    // Local combination (free local computation in CONGEST).
    let mut through = vec![vec![None; n]; n];
    for dl in &per_landmark_dist {
        for v in 0..n {
            let Some(dv) = dl[v] else { continue };
            for u in 0..n {
                let Some(du) = dl[u] else { continue };
                let cand = dv + du;
                if through[v][u].is_none_or(|cur| cand < cur) {
                    through[v][u] = Some(cand);
                }
            }
        }
    }

    Ok(LandmarkResult {
        landmarks,
        through,
        metrics,
    })
}

/// The paper's sampling probability for depth scale `d`: `min(1, 3·ln(n)/d)` — any
/// path of `≥ d` hops then contains a landmark w.h.p.
pub fn sampling_probability(n: usize, depth: u32) -> f64 {
    (3.0 * (n.max(2) as f64).ln() / depth.max(1) as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, reference};

    #[test]
    fn through_distances_are_admissible_and_tight_via_landmarks() {
        let g = generators::gnp_connected(25, 0.12, 3);
        let res = landmark_distances(&g, 0.3, 3).unwrap();
        let want = reference::all_pairs_bfs(&g);
        for (v, row) in res.through.iter().enumerate() {
            for (u, &through) in row.iter().enumerate() {
                if let Some(t) = through {
                    // Never below the true distance…
                    assert!(t >= want[u][v].unwrap());
                }
            }
        }
        // …and exact when a landmark lies on a shortest path: check pairs (l, u).
        for &l in &res.landmarks {
            for (u, row) in want.iter().enumerate() {
                assert_eq!(res.through[l.index()][u], row[l.index()]);
            }
        }
    }

    #[test]
    fn probability_one_gives_exact_apsp() {
        let g = generators::grid(4, 4);
        let res = landmark_distances(&g, 1.0, 5).unwrap();
        assert_eq!(res.landmarks.len(), g.n());
        let want = reference::all_pairs_bfs(&g);
        for (v, row) in res.through.iter().enumerate() {
            for (u, &through) in row.iter().enumerate() {
                assert_eq!(through, want[u][v]);
            }
        }
    }

    #[test]
    fn at_least_one_landmark() {
        let g = generators::path(6);
        let res = landmark_distances(&g, 0.0, 7).unwrap();
        assert_eq!(res.landmarks.len(), 1);
    }

    #[test]
    fn sampling_probability_shape() {
        assert!(sampling_probability(100, 1) >= 1.0 - 1e-12);
        assert!(sampling_probability(100, 1000) < 0.02);
    }
}
