//! Pruning of Baswana–Sen cluster hierarchies (paper §3.1, "Pruning the clusters"):
//! repeatedly split off the deepest proper subtree with `≥ n^{1-ε}` nodes into its
//! own cluster, so that every proper subtree of every cluster tree ends up below
//! `n^{1-ε}` nodes (Corollary 3.5) — the property that caps per-edge congestion in
//! the simulations. Inter-cluster communication edges are then recomputed against
//! the pruned clusterings (`F*`).

use crate::baswana_sen::{representative_edges, Hierarchy, Level};
use congest_graph::{ClusterId, Graph, NodeId};

/// Prunes `h` (levels `1..κ`), returning a new hierarchy with the subtree-size
/// guarantee and recomputed `F*` edges. The accounted pruning cost (Corollary 3.6:
/// `O(κ²)` rounds, `O(κ·n)` messages) is added to the metrics.
pub fn prune(g: &Graph, h: &Hierarchy) -> Hierarchy {
    let n = g.n();
    let threshold = ((n.max(2) as f64).powf(1.0 - h.epsilon)).ceil() as usize;
    let mut out = h.clone();

    for li in 1..out.levels.len() {
        prune_level(&mut out.levels[li], threshold.max(2));
    }
    // Recompute F* against the pruned previous levels.
    for li in 1..out.levels.len() {
        let (before, rest) = out.levels.split_at_mut(li);
        let prev = &before[li - 1];
        let lvl = &mut rest[0];
        let mut f_edges = Vec::new();
        for &v in &lvl.l_nodes {
            let own = prev.cluster_of[v.index()];
            f_edges.extend(representative_edges(g, v, prev, own));
        }
        lvl.f_edges = f_edges;
    }
    // Cluster-edge set shrinks to the links that survived pruning.
    let mut cluster_edge = vec![false; g.m()];
    for lvl in &out.levels {
        for v in g.nodes() {
            if let Some(p) = lvl.parent[v.index()] {
                let e = g.edge_between(v, p).expect("tree links are edges");
                cluster_edge[e.index()] = true;
            }
        }
    }
    out.cluster_edge = cluster_edge;

    // Accounted pruning cost (Corollary 3.6).
    let mut cost = congest_engine::Metrics::new(g.m());
    cost.rounds = (out.kappa * out.kappa) as u64 + 4;
    for lvl in &out.levels {
        for v in g.nodes() {
            if let Some(p) = lvl.parent[v.index()] {
                let e = g.edge_between(v, p).expect("tree links are edges");
                cost.add_messages(e, 1);
            }
        }
    }
    out.metrics.merge_sequential(&cost);
    out
}

/// Splits heavy subtrees off every cluster of one level.
fn prune_level(lvl: &mut Level, threshold: usize) {
    let n = lvl.parent.len();
    // Children lists for the whole level's forest.
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in 0..n {
        if let Some(p) = lvl.parent[v] {
            children[p.index()].push(NodeId::new(v));
        }
    }

    let mut new_roots: Vec<NodeId> = Vec::new();
    for ci in 0..lvl.clusters.len() {
        loop {
            // Subtree sizes within this cluster (after any splits so far).
            let root = lvl.clusters[ci].0;
            // Gather current members that are still attached to `root`.
            let mut order = vec![root];
            let mut k = 0;
            while k < order.len() {
                let v = order[k];
                k += 1;
                order.extend(children[v.index()].iter().copied());
            }
            let mut size = vec![0usize; n];
            for &v in order.iter().rev() {
                size[v.index()] = 1 + children[v.index()]
                    .iter()
                    .map(|c| size[c.index()])
                    .sum::<usize>();
            }
            // Deepest proper-subtree root with size ≥ threshold (ties: smallest ID).
            let split = order
                .iter()
                .copied()
                .filter(|&v| v != root && size[v.index()] >= threshold)
                .max_by_key(|&v| (lvl.depth[v.index()], std::cmp::Reverse(v)));
            let Some(u) = split else { break };
            // Detach u into its own cluster.
            let p = lvl.parent[u.index()].expect("proper subtree root has a parent");
            children[p.index()].retain(|&c| c != u);
            lvl.parent[u.index()] = None;
            new_roots.push(u);
        }
    }

    if new_roots.is_empty() {
        return;
    }
    // Rebuild clusters, depths and membership from the (now multi-root) forest.
    rebuild_level_from_forest(lvl, &children, new_roots);
}

fn rebuild_level_from_forest(lvl: &mut Level, children: &[Vec<NodeId>], new_roots: Vec<NodeId>) {
    let mut roots: Vec<NodeId> = lvl.clusters.iter().map(|(c, _)| *c).collect();
    roots.extend(new_roots);
    roots.sort_unstable();
    roots.dedup();

    let mut clusters: Vec<(NodeId, Vec<NodeId>)> = Vec::with_capacity(roots.len());
    let mut cluster_of = vec![None; lvl.cluster_of.len()];
    let mut depth = vec![0u32; lvl.depth.len()];
    for &root in &roots {
        let ci = ClusterId::new(clusters.len());
        let mut members = Vec::new();
        let mut stack = vec![(root, 0u32)];
        while let Some((v, d)) = stack.pop() {
            members.push(v);
            cluster_of[v.index()] = Some(ci);
            depth[v.index()] = d;
            for &c in &children[v.index()] {
                stack.push((c, d + 1));
            }
        }
        members.sort_unstable();
        clusters.push((root, members));
    }
    lvl.clusters = clusters;
    lvl.cluster_of = cluster_of;
    lvl.depth = depth;
}

/// The largest proper-subtree size over all cluster trees of all levels — the
/// quantity Corollary 3.5 bounds by `O(n^{1-ε})`.
pub fn max_proper_subtree(g: &Graph, h: &Hierarchy) -> usize {
    let n = g.n();
    let mut worst = 0;
    for lvl in &h.levels {
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..n {
            if let Some(p) = lvl.parent[v] {
                children[p.index()].push(NodeId::new(v));
            }
        }
        for (root, members) in &lvl.clusters {
            if members.len() <= 1 {
                continue;
            }
            let mut size = vec![0usize; n];
            let mut order = vec![*root];
            let mut k = 0;
            while k < order.len() {
                order.extend(children[order[k].index()].iter().copied());
                k += 1;
            }
            for &v in order.iter().rev() {
                size[v.index()] = 1 + children[v.index()]
                    .iter()
                    .map(|c| size[c.index()])
                    .sum::<usize>();
                if v != *root {
                    worst = worst.max(size[v.index()]);
                }
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baswana_sen::validate_hierarchy;
    use congest_graph::generators;

    #[test]
    fn pruned_hierarchy_stays_valid() {
        for &eps in &[0.25, 0.5] {
            for seed in 0..3 {
                let g = generators::gnp_connected(45, 0.12, seed);
                let h = Hierarchy::build(&g, eps, seed);
                let p = prune(&g, &h);
                validate_hierarchy(&g, &p).unwrap();
            }
        }
    }

    #[test]
    fn subtree_bound_holds_after_pruning() {
        let g = generators::gnp_connected(60, 0.08, 7);
        let eps = 0.5;
        let h = Hierarchy::build(&g, eps, 7);
        let p = prune(&g, &h);
        let threshold = ((g.n() as f64).powf(1.0 - eps)).ceil() as usize;
        assert!(
            max_proper_subtree(&g, &p) < threshold.max(2),
            "subtree {} >= threshold {}",
            max_proper_subtree(&g, &p),
            threshold
        );
    }

    #[test]
    fn pruning_on_a_star_heavy_instance() {
        // A star forces one big level-1 cluster around the hub; pruning must split
        // it (threshold √n) while keeping validity.
        let g = generators::star(36);
        let h = Hierarchy::build(&g, 0.5, 3);
        let p = prune(&g, &h);
        validate_hierarchy(&g, &p).unwrap();
        assert!(max_proper_subtree(&g, &p) < 7);
    }

    #[test]
    fn pruning_never_adds_cluster_edges() {
        let g = generators::gnp_connected(40, 0.12, 9);
        let h = Hierarchy::build(&g, 0.34, 9);
        let p = prune(&g, &h);
        for e in 0..g.m() {
            let e = congest_graph::EdgeId::new(e);
            assert!(!p.is_cluster_edge(e) || h.is_cluster_edge(e));
        }
    }

    #[test]
    fn dropout_levels_unchanged() {
        let g = generators::grid(6, 6);
        let h = Hierarchy::build(&g, 0.5, 5);
        let p = prune(&g, &h);
        assert_eq!(h.dropout, p.dropout);
    }
}
