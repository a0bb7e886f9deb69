//! Sequential reference algorithms used as correctness oracles for the distributed
//! implementations: BFS, Dijkstra, connectivity, diameter, Hopcroft–Karp matching,
//! and minimum spanning forests (Kruskal and Prim).
//!
//! Everything here is centralized and straightforward — the point is trustworthiness,
//! not speed (though all are the standard near-linear implementations).

use crate::ids::{EdgeId, NodeId};
use crate::{Graph, WeightedGraph};
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Hop distance used throughout: `None` means unreachable.
pub type HopDist = Option<u32>;
/// Weighted distance: `None` means unreachable.
pub type WDist = Option<u64>;

/// Breadth-first search from `src`: returns hop distances to every node.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<HopDist> {
    bfs_limited(g, src, u32::MAX)
}

/// BFS truncated at depth `limit`: nodes farther than `limit` hops report `None`.
pub fn bfs_limited(g: &Graph, src: NodeId, limit: u32) -> Vec<HopDist> {
    let mut dist: Vec<HopDist> = vec![None; g.n()];
    let mut q = VecDeque::new();
    dist[src.index()] = Some(0);
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        if d >= limit {
            continue;
        }
        for &u in g.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                q.push_back(u);
            }
        }
    }
    dist
}

/// BFS returning parents (`parent[src] = None`; unreached nodes also `None`).
/// Parent choice is the smallest-ID neighbor at the previous level, making the tree
/// deterministic.
pub fn bfs_tree(g: &Graph, src: NodeId) -> Vec<Option<NodeId>> {
    let dist = bfs_distances(g, src);
    let mut parent = vec![None; g.n()];
    for v in g.nodes() {
        if v == src {
            continue;
        }
        if let Some(d) = dist[v.index()] {
            parent[v.index()] = g
                .neighbors(v)
                .iter()
                .copied()
                .find(|u| dist[u.index()] == Some(d - 1));
        }
    }
    parent
}

/// All-pairs hop distances by running BFS from every node. `O(nm)`.
pub fn all_pairs_bfs(g: &Graph) -> Vec<Vec<HopDist>> {
    g.nodes().map(|s| bfs_distances(g, s)).collect()
}

/// Dijkstra from `src` on non-negative weights.
pub fn dijkstra(wg: &WeightedGraph, src: NodeId) -> Vec<WDist> {
    let n = wg.n();
    let mut dist: Vec<WDist> = vec![None; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[src.index()] = Some(0);
    heap.push(std::cmp::Reverse((0, src.raw())));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        let v = NodeId::from(v);
        if dist[v.index()] != Some(d) {
            continue;
        }
        for (_, u, w) in wg.incident(v) {
            let nd = d + w;
            if dist[u.index()].is_none_or(|old| nd < old) {
                dist[u.index()] = Some(nd);
                heap.push(std::cmp::Reverse((nd, u.raw())));
            }
        }
    }
    dist
}

/// All-pairs weighted distances by running Dijkstra from every node.
pub fn all_pairs_dijkstra(wg: &WeightedGraph) -> Vec<Vec<WDist>> {
    wg.graph().nodes().map(|s| dijkstra(wg, s)).collect()
}

/// Connected components: returns `(component_id_per_node, component_count)`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let mut comp = vec![usize::MAX; g.n()];
    let mut count = 0;
    for s in g.nodes() {
        if comp[s.index()] != usize::MAX {
            continue;
        }
        let mut q = VecDeque::new();
        comp[s.index()] = count;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for &u in g.neighbors(v) {
                if comp[u.index()] == usize::MAX {
                    comp[u.index()] = count;
                    q.push_back(u);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Eccentricity of `src` (max hop distance to a reachable node); `None` if some node is
/// unreachable.
pub fn eccentricity(g: &Graph, src: NodeId) -> Option<u32> {
    let dist = bfs_distances(g, src);
    let mut max = 0;
    for d in dist {
        max = max.max(d?);
    }
    Some(max)
}

/// Exact hop diameter (`None` if disconnected). `O(nm)`.
pub fn diameter(g: &Graph) -> Option<u32> {
    let mut max = 0;
    for v in g.nodes() {
        max = max.max(eccentricity(g, v)?);
    }
    Some(max)
}

/// A proper 2-coloring of a bipartite graph: `sides[v] ∈ {0, 1}`, or `None` if the graph
/// contains an odd cycle. Isolated nodes get side 0.
pub fn bipartition(g: &Graph) -> Option<Vec<u8>> {
    let mut side = vec![u8::MAX; g.n()];
    for s in g.nodes() {
        if side[s.index()] != u8::MAX {
            continue;
        }
        side[s.index()] = 0;
        let mut q = VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            for &u in g.neighbors(v) {
                if side[u.index()] == u8::MAX {
                    side[u.index()] = 1 - side[v.index()];
                    q.push_back(u);
                } else if side[u.index()] == side[v.index()] {
                    return None;
                }
            }
        }
    }
    Some(side)
}

/// Maximum matching size in a bipartite graph via Hopcroft–Karp. `O(m √n)`.
///
/// Returns `None` if the graph is not bipartite.
pub fn hopcroft_karp(g: &Graph) -> Option<usize> {
    let side = bipartition(g)?;
    let left: Vec<NodeId> = g.nodes().filter(|v| side[v.index()] == 0).collect();
    let mut match_of: Vec<Option<NodeId>> = vec![None; g.n()];
    let mut total = 0;

    loop {
        // BFS layering from free left vertices.
        let mut layer: Vec<Option<u32>> = vec![None; g.n()];
        let mut q = VecDeque::new();
        for &v in &left {
            if match_of[v.index()].is_none() {
                layer[v.index()] = Some(0);
                q.push_back(v);
            }
        }
        let mut found_free_right = false;
        while let Some(v) = q.pop_front() {
            let d = layer[v.index()].expect("queued nodes are layered");
            for &u in g.neighbors(v) {
                // v is on the left; u on the right. Advance along non-matching edge to u,
                // then along u's matching edge back to the left.
                if layer[u.index()].is_some() {
                    continue;
                }
                layer[u.index()] = Some(d + 1);
                match match_of[u.index()] {
                    None => found_free_right = true,
                    Some(w) => {
                        if layer[w.index()].is_none() {
                            layer[w.index()] = Some(d + 2);
                            q.push_back(w);
                        }
                    }
                }
            }
        }
        if !found_free_right {
            break;
        }
        // DFS phase: vertex-disjoint augmenting paths along the layering.
        fn try_augment(
            g: &Graph,
            v: NodeId,
            layer: &mut [Option<u32>],
            match_of: &mut [Option<NodeId>],
        ) -> bool {
            let d = match layer[v.index()] {
                Some(d) => d,
                None => return false,
            };
            layer[v.index()] = None; // visit once per phase
            for &u in g.neighbors(v) {
                if layer[u.index()] != Some(d + 1) {
                    continue;
                }
                layer[u.index()] = None;
                let extend = match match_of[u.index()] {
                    None => true,
                    Some(w) => try_augment(g, w, layer, match_of),
                };
                if extend {
                    match_of[u.index()] = Some(v);
                    match_of[v.index()] = Some(u);
                    return true;
                }
            }
            false
        }
        for &v in &left {
            if match_of[v.index()].is_none() && try_augment(g, v, &mut layer, &mut match_of) {
                total += 1;
            }
        }
    }
    Some(total)
}

/// A minimum spanning forest computed by a sequential oracle.
///
/// Edge weights need not be distinct: ties are broken by [`EdgeId`], i.e. all MSF
/// algorithms in this workspace minimize under the **total order `(weight, EdgeId)`**,
/// which makes the minimum spanning forest *unique* — [`mst_kruskal`], [`mst_prim`]
/// and the distributed GHS implementation all return the same edge set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MstOracle {
    /// The forest's edges, sorted ascending by [`EdgeId`].
    pub edges: Vec<EdgeId>,
    /// Sum of the edge weights.
    pub total_weight: u64,
}

/// A tiny union-find (path halving + union by representative minimum), shared by the
/// MSF oracles and the trade-off's central finisher. Keeping the minimum index as the
/// representative makes component labels deterministic — load-bearing for the
/// `(weight, EdgeId)` tie-break contract.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton classes `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    /// The representative (minimum member) of `x`'s class.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unions the two classes; returns `false` if they were already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
        true
    }
}

/// Kruskal's minimum spanning forest under the `(weight, EdgeId)` total order.
pub fn mst_kruskal(wg: &WeightedGraph) -> MstOracle {
    let g = wg.graph();
    let mut order: Vec<EdgeId> = (0..g.m()).map(EdgeId::new).collect();
    order.sort_unstable_by_key(|&e| (wg.weight(e), e.index()));
    let mut uf = UnionFind::new(g.n());
    let mut edges = Vec::new();
    let mut total_weight = 0u64;
    for e in order {
        let (u, v) = g.endpoints(e);
        if uf.union(u.index(), v.index()) {
            edges.push(e);
            total_weight += wg.weight(e);
        }
    }
    edges.sort_unstable();
    MstOracle {
        edges,
        total_weight,
    }
}

/// Prim's minimum spanning forest under the `(weight, EdgeId)` total order — one run
/// per connected component, started at each component's minimum-ID node.
///
/// An independent implementation of the same object as [`mst_kruskal`]; the
/// differential tests assert both agree edge-for-edge.
pub fn mst_prim(wg: &WeightedGraph) -> MstOracle {
    let g = wg.graph();
    let mut in_tree = vec![false; g.n()];
    let mut edges = Vec::new();
    let mut total_weight = 0u64;
    for s in g.nodes() {
        if in_tree[s.index()] {
            continue;
        }
        in_tree[s.index()] = true;
        // Lazy-deletion heap keyed by the tie-breaking total order.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
        for (e, _, w) in wg.incident(s) {
            heap.push(std::cmp::Reverse((w, e.index())));
        }
        while let Some(std::cmp::Reverse((w, ei))) = heap.pop() {
            let e = EdgeId::new(ei);
            let (u, v) = g.endpoints(e);
            let grown = match (in_tree[u.index()], in_tree[v.index()]) {
                (true, false) => v,
                (false, true) => u,
                _ => continue, // stale entry: both endpoints already in the tree
            };
            in_tree[grown.index()] = true;
            edges.push(e);
            total_weight += w;
            for (ne, nb, nw) in wg.incident(grown) {
                if !in_tree[nb.index()] {
                    heap.push(std::cmp::Reverse((nw, ne.index())));
                }
            }
        }
    }
    edges.sort_unstable();
    MstOracle {
        edges,
        total_weight,
    }
}

/// Whether `edges` is a spanning forest of `g`: acyclic, and connecting exactly the
/// connected components of `g` (i.e. a spanning tree per component).
pub fn is_spanning_forest(g: &Graph, edges: &[EdgeId]) -> bool {
    let mut uf = UnionFind::new(g.n());
    for &e in edges {
        let (u, v) = g.endpoints(e);
        if !uf.union(u.index(), v.index()) {
            return false; // cycle
        }
    }
    // Acyclic with `n - components(g)` edges ⇔ spanning forest.
    g.n().saturating_sub(connected_components(g).1) == edges.len()
}

/// Validates that `pairs` is a matching of `g` (edges exist, endpoints distinct across pairs).
pub fn is_matching(g: &Graph, pairs: &[(NodeId, NodeId)]) -> bool {
    let mut used = vec![false; g.n()];
    for &(u, v) in pairs {
        if !g.has_edge(u, v) || used[u.index()] || used[v.index()] {
            return false;
        }
        used[u.index()] = true;
        used[v.index()] = true;
    }
    true
}

/// Validates maximality: no edge has both endpoints unmatched.
pub fn is_maximal_matching(g: &Graph, pairs: &[(NodeId, NodeId)]) -> bool {
    if !is_matching(g, pairs) {
        return false;
    }
    let mut used = vec![false; g.n()];
    for &(u, v) in pairs {
        used[u.index()] = true;
        used[v.index()] = true;
    }
    g.edges()
        .all(|(_, u, v)| used[u.index()] || used[v.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        let d2 = bfs_limited(&g, NodeId::new(0), 2);
        assert_eq!(d2, vec![Some(0), Some(1), Some(2), None, None]);
    }

    #[test]
    fn bfs_tree_parents_valid() {
        let g = generators::grid(3, 3);
        let parent = bfs_tree(&g, NodeId::new(0));
        let dist = bfs_distances(&g, NodeId::new(0));
        assert!(parent[0].is_none());
        for v in g.nodes().skip(1) {
            let p = parent[v.index()].unwrap();
            assert!(g.has_edge(v, p));
            assert_eq!(dist[p.index()].unwrap() + 1, dist[v.index()].unwrap());
        }
    }

    #[test]
    fn dijkstra_matches_bfs_on_unit_weights() {
        let g = generators::gnp_connected(30, 0.15, 11);
        let wg = WeightedGraph::unit(&g);
        for s in g.nodes() {
            let wd = dijkstra(&wg, s);
            let hd = bfs_distances(&g, s);
            for v in g.nodes() {
                assert_eq!(wd[v.index()], hd[v.index()].map(|d| d as u64));
            }
        }
    }

    #[test]
    fn dijkstra_weighted_path() {
        let g = generators::path(4);
        let wg = WeightedGraph::from_weights(g, vec![2, 3, 10]).unwrap();
        let d = dijkstra(&wg, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(2), Some(5), Some(15)]);
    }

    #[test]
    fn diameter_of_cycle() {
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::cycle(9)), Some(4));
        assert_eq!(diameter(&generators::path(6)), Some(5));
    }

    #[test]
    fn disconnected_diameter_none() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        assert_eq!(diameter(&g), None);
        assert_eq!(connected_components(&g).1, 3);
    }

    #[test]
    fn bipartition_detects_odd_cycle() {
        assert!(bipartition(&generators::cycle(5)).is_none());
        assert!(bipartition(&generators::cycle(6)).is_some());
    }

    #[test]
    fn hopcroft_karp_perfect_on_even_cycle() {
        assert_eq!(hopcroft_karp(&generators::cycle(8)), Some(4));
    }

    #[test]
    fn hopcroft_karp_star() {
        // A star is bipartite; max matching is one edge.
        assert_eq!(hopcroft_karp(&generators::star(6)), Some(1));
    }

    #[test]
    fn hopcroft_karp_random_bipartite_vs_greedy_bound() {
        let g = generators::random_bipartite(12, 12, 0.3, 5);
        let hk = hopcroft_karp(&g).unwrap();
        // Any maximal matching is at least half the maximum.
        assert!(hk <= 12);
        assert!(hk >= 1);
    }

    #[test]
    fn kruskal_and_prim_agree_with_unique_weights() {
        for seed in 0..5u64 {
            let g = generators::gnp_connected(24, 0.2, seed);
            let wg = WeightedGraph::random_unique_weights(&g, seed);
            let k = mst_kruskal(&wg);
            let p = mst_prim(&wg);
            assert_eq!(k, p, "seed {seed}");
            assert_eq!(k.edges.len(), g.n() - 1);
            assert!(is_spanning_forest(&g, &k.edges));
        }
    }

    #[test]
    fn kruskal_and_prim_agree_under_heavy_ties() {
        // All-equal weights: the (weight, EdgeId) order must fully disambiguate.
        for g in [
            generators::gnp_connected(20, 0.3, 3),
            generators::grid(5, 4),
            generators::complete(8),
        ] {
            let wg = WeightedGraph::unit(&g);
            let k = mst_kruskal(&wg);
            assert_eq!(k, mst_prim(&wg));
            assert_eq!(k.total_weight, (g.n() - 1) as u64);
        }
    }

    #[test]
    fn mst_on_weighted_path_is_the_path() {
        let g = generators::path(4);
        let wg = WeightedGraph::from_weights(g.clone(), vec![5, 1, 9]).unwrap();
        let k = mst_kruskal(&wg);
        assert_eq!(k.edges.len(), 3);
        assert_eq!(k.total_weight, 15);
        assert!(is_spanning_forest(&g, &k.edges));
    }

    #[test]
    fn spanning_forest_of_disconnected_graph() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 2)]);
        let wg = WeightedGraph::from_weights(g.clone(), vec![2, 3, 1, 10]).unwrap();
        let k = mst_kruskal(&wg);
        // Components {0,1,2} and {3,4}: a spanning forest has 2 + 1 edges.
        assert_eq!(k.edges.len(), 3);
        assert_eq!(k, mst_prim(&wg));
        assert!(is_spanning_forest(&g, &k.edges));
        // Dropping an edge or adding a cycle both fail validation.
        assert!(!is_spanning_forest(&g, &k.edges[..2]));
        let all: Vec<EdgeId> = (0..g.m()).map(EdgeId::new).collect();
        assert!(!is_spanning_forest(&g, &all));
    }

    #[test]
    fn matching_validators() {
        let g = generators::cycle(6);
        let m = vec![
            (NodeId::new(0), NodeId::new(1)),
            (NodeId::new(3), NodeId::new(4)),
        ];
        assert!(is_matching(&g, &m));
        assert!(!is_maximal_matching(&g, &m[..1]));
        let full = vec![
            (NodeId::new(0), NodeId::new(1)),
            (NodeId::new(2), NodeId::new(3)),
            (NodeId::new(4), NodeId::new(5)),
        ];
        assert!(is_maximal_matching(&g, &full));
    }
}
