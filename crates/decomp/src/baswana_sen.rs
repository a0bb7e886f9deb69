//! The Baswana–Sen cluster hierarchy (paper §3.1): the `(κ+1)`-level clustering that
//! underlies the message-time trade-off simulations.
//!
//! Level 0 is the singleton clustering. To go from level `i` to `i+1`, cluster
//! centers are subsampled with probability `n^{-ε}`; sampled clusters grow by one hop
//! (nodes adjacent to them join, adding a *cluster edge*), and nodes with no sampled
//! neighbor **drop out** into `L_{i+1}`, acquiring one inter-cluster communication
//! edge (`F_{i+1}`) into every neighboring level-`i` cluster. The top level drops
//! everyone. Theorem 3.3's properties (a)–(c) have validators below; the spanner
//! by-product lives in [`crate::spanner`].
//!
//! The builder is sequential with *accounted* distributed cost (Theorem 3.4:
//! `O(κ)`-ish rounds, `O(κ·m)` messages) — the hierarchy is an **input** to the
//! simulations of §3.2, exactly as in the paper, so what matters is that its
//! construction cost is charged; see DESIGN.md §2.

use crate::ldc::FEdge;
use congest_engine::Metrics;
use congest_graph::{rng, ClusterId, EdgeId, Graph, NodeId};
use rand::Rng;

/// One level of the hierarchy.
#[derive(Clone, Debug)]
pub struct Level {
    /// Level index `i`.
    pub index: usize,
    /// Per node: its cluster at this level (`None` if the node is not in `V_i`).
    pub cluster_of: Vec<Option<ClusterId>>,
    /// Per cluster: `(center, members)`.
    pub clusters: Vec<(NodeId, Vec<NodeId>)>,
    /// Per node: cluster-tree parent at this level (`None` at centers / non-members).
    pub parent: Vec<Option<NodeId>>,
    /// Per node: tree depth at this level (0 at centers; unspecified for non-members).
    pub depth: Vec<u32>,
    /// The drop-out set `L_i`.
    pub l_nodes: Vec<NodeId>,
    /// Inter-cluster communication edges `F_i` (owners in `L_i`, targets in
    /// `C_{i-1}`).
    pub f_edges: Vec<FEdge>,
}

impl Level {
    /// The members of cluster `c`.
    pub fn members(&self, c: ClusterId) -> &[NodeId] {
        &self.clusters[c.index()].1
    }

    /// The center of cluster `c`.
    pub fn center(&self, c: ClusterId) -> NodeId {
        self.clusters[c.index()].0
    }
}

/// A (possibly pruned) Baswana–Sen cluster hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// The trade-off parameter ε.
    pub epsilon: f64,
    /// `κ = ⌈1/ε⌉`.
    pub kappa: usize,
    /// Levels `0..=κ`.
    pub levels: Vec<Level>,
    /// Per node: the level `i` at which it dropped out (`v ∈ L_i`).
    pub dropout: Vec<usize>,
    /// Per edge: whether it is a cluster (tree) edge at any level — the quantity
    /// Lemma 3.7 bounds.
    pub cluster_edge: Vec<bool>,
    /// Accounted construction cost.
    pub metrics: Metrics,
}

impl Hierarchy {
    /// Builds a fresh (unpruned) hierarchy for parameter `epsilon`, seeded.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon <= 1`.
    pub fn build(g: &Graph, epsilon: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        let n = g.n();
        let kappa = (1.0 / epsilon).ceil() as usize;
        let p = (n.max(2) as f64).powf(-epsilon);
        let mut r = rng::seeded(rng::derive(seed, 0x6273_0001));

        // Sampling chain S_0 ⊇ S_1 ⊇ … (S_κ = ∅ implicitly).
        let mut sampled: Vec<Vec<bool>> = vec![vec![true; n]];
        for _ in 1..kappa {
            let prev = sampled.last().expect("non-empty");
            let next: Vec<bool> = prev.iter().map(|&b| b && r.random::<f64>() < p).collect();
            sampled.push(next);
        }

        // Level 0: singletons.
        let mut levels = Vec::with_capacity(kappa + 1);
        levels.push(Level {
            index: 0,
            cluster_of: (0..n).map(|v| Some(ClusterId::new(v))).collect(),
            clusters: (0..n)
                .map(|v| (NodeId::new(v), vec![NodeId::new(v)]))
                .collect(),
            parent: vec![None; n],
            depth: vec![0; n],
            l_nodes: Vec::new(),
            f_edges: Vec::new(),
        });

        let mut dropout = vec![usize::MAX; n];
        let mut cluster_edge = vec![false; g.m()];
        let mut metrics = Metrics::new(g.m());

        for i in 0..kappa {
            let prev = &levels[i];
            let next_sampled: &[bool] = if i + 1 < kappa {
                &sampled[i + 1]
            } else {
                &[] // top level: nothing sampled
            };
            let is_sampled_cluster = |c: ClusterId, prev: &Level| {
                let center = prev.center(c);
                !next_sampled.is_empty() && next_sampled[center.index()]
            };

            // Surviving clusters keep their centers.
            let mut new_clusters: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
            let mut new_id_of_old: Vec<Option<usize>> = vec![None; prev.clusters.len()];
            for (ci, (center, _)) in prev.clusters.iter().enumerate() {
                if is_sampled_cluster(ClusterId::new(ci), prev) {
                    new_id_of_old[ci] = Some(new_clusters.len());
                    new_clusters.push((*center, Vec::new()));
                }
            }

            let mut cluster_of = vec![None; n];
            let mut parent = vec![None; n];
            let mut depth = vec![0u32; n];
            let mut l_nodes = Vec::new();
            let mut f_edges = Vec::new();

            for v in g.nodes() {
                let Some(my_old) = prev.cluster_of[v.index()] else {
                    continue; // already dropped out at an earlier level
                };
                if let Some(new_id) = new_id_of_old[my_old.index()] {
                    // My cluster survived: carry membership and tree over.
                    cluster_of[v.index()] = Some(ClusterId::new(new_id));
                    parent[v.index()] = prev.parent[v.index()];
                    depth[v.index()] = prev.depth[v.index()];
                    new_clusters[new_id].1.push(v);
                    continue;
                }
                // My cluster was not sampled: join a neighboring sampled cluster if
                // any (via the smallest-ID such neighbor — the paper says arbitrary).
                let join = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| {
                        prev.cluster_of[u.index()].is_some_and(|cu| is_sampled_cluster(cu, prev))
                    })
                    .min();
                match join {
                    Some(u) => {
                        let cu = prev.cluster_of[u.index()].expect("join target is clustered");
                        let new_id = new_id_of_old[cu.index()].expect("sampled cluster kept");
                        cluster_of[v.index()] = Some(ClusterId::new(new_id));
                        parent[v.index()] = Some(u);
                        depth[v.index()] = prev.depth[u.index()] + 1;
                        new_clusters[new_id].1.push(v);
                        let e = g.edge_between(v, u).expect("neighbor edge");
                        cluster_edge[e.index()] = true;
                    }
                    None => {
                        // Drop out: v ∈ L_{i+1}; one F edge per neighboring
                        // level-i cluster (own cluster excluded — property (c)'s
                        // case (1) covers it).
                        dropout[v.index()] = i + 1;
                        l_nodes.push(v);
                        f_edges.extend(representative_edges(g, v, prev, Some(my_old)));
                    }
                }
            }

            // Accounted distributed cost of this level: an intra-cluster flood of the
            // sampled bit (≤ radius i over tree edges) plus one announce exchange
            // over every edge (Theorem 3.4's O(m) per level).
            let mut level_cost = Metrics::new(g.m());
            level_cost.rounds = i as u64 + 3;
            for e in g.edges().map(|(e, _, _)| e) {
                level_cost.add_messages(e, 2);
            }
            metrics.merge_sequential(&level_cost);

            levels.push(Level {
                index: i + 1,
                cluster_of,
                clusters: new_clusters,
                parent,
                depth,
                l_nodes,
                f_edges,
            });
        }

        debug_assert!(
            dropout.iter().all(|&d| d != usize::MAX),
            "everyone drops out"
        );
        Self {
            epsilon,
            kappa,
            levels,
            dropout,
            cluster_edge,
            metrics,
        }
    }

    /// All F-edges across levels.
    pub fn all_f_edges(&self) -> impl Iterator<Item = (usize, &FEdge)> {
        self.levels
            .iter()
            .flat_map(|lvl| lvl.f_edges.iter().map(move |f| (lvl.index, f)))
    }

    /// Max F-degree of any node at its drop-out level (Theorem 3.3(b)'s quantity).
    pub fn max_f_degree(&self) -> usize {
        let mut count = vec![0usize; self.dropout.len()];
        for (_, f) in self.all_f_edges() {
            count[f.owner.index()] += 1;
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// Whether `e` is a cluster edge (of any level).
    pub fn is_cluster_edge(&self, e: EdgeId) -> bool {
        self.cluster_edge[e.index()]
    }
}

/// One representative edge from `v` into each neighboring cluster of `level`
/// (excluding `own`, `v`'s own cluster there if it has one): the smallest-ID
/// neighbor in each. Sorted by target cluster.
pub(crate) fn representative_edges(
    g: &Graph,
    v: NodeId,
    level: &Level,
    own: Option<ClusterId>,
) -> Vec<FEdge> {
    let mut reps: Vec<(ClusterId, NodeId)> = Vec::new();
    for &u in g.neighbors(v) {
        let Some(cu) = level.cluster_of[u.index()] else {
            continue;
        };
        if Some(cu) == own {
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
    reps.sort_unstable_by_key(|&(c, _)| c);
    reps.into_iter()
        .map(|(target, other)| FEdge {
            owner: v,
            edge: g.edge_between(v, other).expect("neighbor edge"),
            other,
            target,
        })
        .collect()
}

/// Validates Theorem 3.3's properties; returns a description of the first violation.
///
/// * (a) level-`i` clusters are disjoint, partition `V_i`, and have tree radius ≤ `i`
///   (trees are built from graph edges);
/// * (b′) every F-edge of `L_i` points to a distinct `C_{i-1}` cluster per owner,
///   never the owner's own (the `O(n^ε log n)` count is measured by the
///   experiments, not asserted here);
/// * (c) every graph edge `(u,v)` with `dropout(u) ≤ dropout(v)` is covered: either a
///   common cluster at level `dropout(u)-1`, or an F-edge of `u` into `v`'s cluster.
pub fn validate_hierarchy(g: &Graph, h: &Hierarchy) -> Result<(), String> {
    for lvl in &h.levels {
        // Disjoint + consistent membership.
        let mut seen = vec![false; g.n()];
        for (ci, (center, members)) in lvl.clusters.iter().enumerate() {
            if lvl.index == 0 && members.len() != 1 {
                return Err("level 0 must be singletons".into());
            }
            if !members.contains(center) {
                return Err(format!(
                    "center {center:?} outside its cluster at level {}",
                    lvl.index
                ));
            }
            for &v in members {
                if seen[v.index()] {
                    return Err(format!("{v:?} in two clusters at level {}", lvl.index));
                }
                seen[v.index()] = true;
                if lvl.cluster_of[v.index()] != Some(ClusterId::new(ci)) {
                    return Err(format!(
                        "membership mismatch for {v:?} at level {}",
                        lvl.index
                    ));
                }
            }
        }
        // Tree radius ≤ level index; parents are edges and stay in-cluster.
        for v in g.nodes() {
            if lvl.cluster_of[v.index()].is_none() {
                continue;
            }
            if lvl.depth[v.index()] as usize > lvl.index {
                return Err(format!(
                    "depth {} > level {} at {v:?}",
                    lvl.depth[v.index()],
                    lvl.index
                ));
            }
            if let Some(p) = lvl.parent[v.index()] {
                if !g.has_edge(v, p) {
                    return Err(format!("tree link {v:?}->{p:?} is not an edge"));
                }
                if lvl.cluster_of[p.index()] != lvl.cluster_of[v.index()] {
                    return Err(format!("tree link {v:?}->{p:?} leaves the cluster"));
                }
                if lvl.depth[p.index()] + 1 != lvl.depth[v.index()] {
                    return Err(format!("depth mismatch along {v:?}->{p:?}"));
                }
            } else if lvl.depth[v.index()] != 0 {
                return Err(format!(
                    "non-root {v:?} without parent at level {}",
                    lvl.index
                ));
            }
        }
        // F-edges: owners in L_i, distinct targets per owner, targets in C_{i-1}
        // other than the owner's own.
        if lvl.index > 0 {
            let prev = &h.levels[lvl.index - 1];
            let mut per_owner: Vec<Vec<ClusterId>> = vec![Vec::new(); g.n()];
            for f in &lvl.f_edges {
                if h.dropout[f.owner.index()] != lvl.index {
                    return Err(format!("F-edge owner {:?} not in L_{}", f.owner, lvl.index));
                }
                if prev.cluster_of[f.other.index()] != Some(f.target) {
                    return Err(format!("F-edge {f:?} misses its target cluster"));
                }
                if prev.cluster_of[f.owner.index()] == Some(f.target) {
                    return Err(format!("F-edge {f:?} points into its owner's own cluster"));
                }
                if per_owner[f.owner.index()].contains(&f.target) {
                    return Err(format!("duplicate F target for {:?}", f.owner));
                }
                per_owner[f.owner.index()].push(f.target);
            }
        }
    }
    // Property (c).
    for (_, u, v) in g.edges() {
        let (a, b) = if h.dropout[u.index()] <= h.dropout[v.index()] {
            (u, v)
        } else {
            (v, u)
        };
        let i = h.dropout[a.index()];
        let prev = &h.levels[i - 1];
        let same_cluster = prev.cluster_of[a.index()].is_some()
            && prev.cluster_of[a.index()] == prev.cluster_of[b.index()];
        let covered = same_cluster
            || h.levels[i]
                .f_edges
                .iter()
                .any(|f| f.owner == a && Some(f.target) == prev.cluster_of[b.index()]);
        if !covered {
            return Err(format!("property (c) violated for edge ({a:?},{b:?})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn valid_on_random_graphs_various_epsilon() {
        for &eps in &[0.25, 0.34, 0.5, 1.0] {
            for seed in 0..3 {
                let g = generators::gnp_connected(40, 0.1, seed);
                let h = Hierarchy::build(&g, eps, seed);
                assert_eq!(h.kappa, (1.0 / eps).ceil() as usize);
                assert_eq!(h.levels.len(), h.kappa + 1);
                validate_hierarchy(&g, &h).unwrap();
            }
        }
    }

    #[test]
    fn epsilon_one_degenerates_to_direct_edges() {
        let g = generators::gnp_connected(20, 0.2, 1);
        let h = Hierarchy::build(&g, 1.0, 1);
        assert_eq!(h.kappa, 1);
        // Everyone drops at level 1 with an F-edge per neighbor.
        assert!(h.dropout.iter().all(|&d| d == 1));
        assert_eq!(h.levels[1].f_edges.len(), 2 * g.m());
        assert!(!h.cluster_edge.iter().any(|&b| b));
    }

    #[test]
    fn epsilon_half_gives_three_levels_of_stars() {
        let g = generators::gnp_connected(50, 0.15, 2);
        let h = Hierarchy::build(&g, 0.5, 2);
        assert_eq!(h.kappa, 2);
        // Level-1 clusters have radius ≤ 1 (stars).
        for v in g.nodes() {
            if h.levels[1].cluster_of[v.index()].is_some() {
                assert!(h.levels[1].depth[v.index()] <= 1);
            }
        }
        validate_hierarchy(&g, &h).unwrap();
    }

    #[test]
    fn everyone_drops_exactly_once() {
        let g = generators::grid(7, 7);
        let h = Hierarchy::build(&g, 0.34, 4);
        let mut seen = vec![false; g.n()];
        for lvl in &h.levels {
            for &v in &lvl.l_nodes {
                assert!(!seen[v.index()], "{v:?} dropped twice");
                seen[v.index()] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let g = generators::gnp_connected(30, 0.15, 3);
        let a = Hierarchy::build(&g, 0.5, 9);
        let b = Hierarchy::build(&g, 0.5, 9);
        assert_eq!(a.dropout, b.dropout);
        assert_eq!(a.cluster_edge, b.cluster_edge);
    }

    #[test]
    fn metrics_scale_with_kappa_m() {
        let g = generators::gnp_connected(40, 0.15, 5);
        let h = Hierarchy::build(&g, 0.25, 5);
        assert_eq!(h.metrics.messages, (h.kappa as u64) * 2 * g.m() as u64);
    }

    #[test]
    fn caveman_respects_structure() {
        let g = generators::caveman(4, 6);
        let h = Hierarchy::build(&g, 0.5, 11);
        validate_hierarchy(&g, &h).unwrap();
    }
}
