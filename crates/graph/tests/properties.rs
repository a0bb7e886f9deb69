//! Property-based tests for the graph substrate.

use congest_graph::{generators, reference, Graph, NodeId, WeightedGraph};
use proptest::prelude::*;

/// The four CSR arrays `Graph: PartialEq` compares (`offsets`, `adj`, `adj_edge`,
/// `edges`), as plain indices. `Graph`'s fields are private, so the reference below
/// returns these and `csr_parts` reads them back through the public accessors.
type CsrParts = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<(usize, usize)>);

fn csr_parts(g: &Graph) -> CsrParts {
    let mut offsets = vec![0];
    let (mut adj, mut adj_edge) = (Vec::new(), Vec::new());
    for v in g.nodes() {
        adj.extend(g.neighbors(v).iter().map(|u| u.index()));
        adj_edge.extend(g.incident_edges(v).iter().map(|e| e.index()));
        offsets.push(adj.len());
    }
    let edges = g.edges().map(|(_, u, v)| (u.index(), v.index())).collect();
    (offsets, adj, adj_edge, edges)
}

/// The sort-based construction `Graph::from_edges` used before its counting build:
/// canonicalize and comparison-sort the whole edge list, dedup it, fill the CSR arrays in
/// EdgeId order, then sort every adjacency list through a scratch `Vec`.
fn sort_based_csr(n: usize, edges: &[(usize, usize)]) -> CsrParts {
    let mut canon: Vec<(usize, usize)> = edges
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    canon.sort_unstable();
    canon.dedup();

    let mut deg = vec![0usize; n];
    for &(u, v) in &canon {
        deg[u] += 1;
        deg[v] += 1;
    }
    let mut offsets = vec![0];
    for d in &deg {
        offsets.push(offsets.last().unwrap() + d);
    }
    let mut cursor = offsets.clone();
    let mut adj = vec![0; offsets[n]];
    let mut adj_edge = vec![0; offsets[n]];
    for (e, &(u, v)) in canon.iter().enumerate() {
        for (a, b) in [(u, v), (v, u)] {
            adj[cursor[a]] = b;
            adj_edge[cursor[a]] = e;
            cursor[a] += 1;
        }
    }
    for v in 0..n {
        let range = offsets[v]..offsets[v + 1];
        let mut pairs: Vec<(usize, usize)> = adj[range.clone()]
            .iter()
            .copied()
            .zip(adj_edge[range.clone()].iter().copied())
            .collect();
        pairs.sort_unstable_by_key(|&(nb, _)| nb);
        for (k, (nb, e)) in pairs.into_iter().enumerate() {
            adj[offsets[v] + k] = nb;
            adj_edge[offsets[v] + k] = e;
        }
    }
    (offsets, adj, adj_edge, canon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The counting build equals the sort-based one on every array, for lists full of
    /// self-loops (`raw` endpoints reduced mod a small `n` collide often), duplicates and
    /// both orientations (the first `flipped` pairs are appended again reversed).
    #[test]
    fn from_edges_matches_the_sort_based_build(
        n in 0usize..=64,
        raw in prop::collection::vec((0usize..64, 0usize..64), 0..=256),
        flipped in 0usize..=256,
    ) {
        let mut edges: Vec<(usize, usize)> = if n == 0 {
            Vec::new()
        } else {
            raw.iter().map(|&(u, v)| (u % n, v % n)).collect()
        };
        let again: Vec<(usize, usize)> =
            edges.iter().take(flipped).map(|&(u, v)| (v, u)).collect();
        edges.extend(again);
        let g = Graph::from_edges(n, &edges);
        prop_assert_eq!(csr_parts(&g), sort_based_csr(n, &edges));
    }
}

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..(n * 2))
}

proptest! {
    #[test]
    fn csr_degree_sums_to_twice_m(edges in arb_edges(12)) {
        let g = Graph::from_edges(12, &edges);
        let degsum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.m());
    }

    #[test]
    fn adjacency_is_symmetric(edges in arb_edges(10)) {
        let g = Graph::from_edges(10, &edges);
        for (_, u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
            prop_assert!(g.neighbors(u).contains(&v));
            prop_assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn edge_between_agrees_with_edges(edges in arb_edges(10)) {
        let g = Graph::from_edges(10, &edges);
        for (e, u, v) in g.edges() {
            prop_assert_eq!(g.edge_between(u, v), Some(e));
            prop_assert_eq!(g.edge_between(v, u), Some(e));
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(seed in 0u64..50) {
        let g = generators::gnp_connected(25, 0.12, seed);
        let dist = reference::bfs_distances(&g, NodeId::new(0));
        for (_, u, v) in g.edges() {
            let du = dist[u.index()].unwrap();
            let dv = dist[v.index()].unwrap();
            prop_assert!(du.abs_diff(dv) <= 1);
        }
    }

    #[test]
    fn dijkstra_relaxed_on_all_edges(seed in 0u64..30) {
        let g = generators::gnp_connected(20, 0.15, seed);
        let wg = WeightedGraph::random_weights(&g, 1..=20, seed);
        let dist = reference::dijkstra(&wg, NodeId::new(0));
        for (e, u, v) in g.edges() {
            let du = dist[u.index()].unwrap();
            let dv = dist[v.index()].unwrap();
            let w = wg.weight(e);
            prop_assert!(du <= dv + w);
            prop_assert!(dv <= du + w);
        }
    }

    #[test]
    fn bfs_limited_is_truncation(seed in 0u64..20, limit in 0u32..6) {
        let g = generators::gnp_connected(18, 0.15, seed);
        let full = reference::bfs_distances(&g, NodeId::new(0));
        let lim = reference::bfs_limited(&g, NodeId::new(0), limit);
        for v in g.nodes() {
            let f = full[v.index()].unwrap();
            if f <= limit {
                prop_assert_eq!(lim[v.index()], Some(f));
            } else {
                prop_assert_eq!(lim[v.index()], None);
            }
        }
    }

    #[test]
    fn hopcroft_karp_is_monotone_under_edge_addition(seed in 0u64..20) {
        let g1 = generators::random_bipartite(8, 8, 0.2, seed);
        let g2 = generators::random_bipartite(8, 8, 0.5, seed); // superset-ish density
        let m1 = reference::hopcroft_karp(&g1).unwrap();
        let m2 = reference::hopcroft_karp(&g2).unwrap();
        // Not literally a superset, but matching sizes stay within [0, 8].
        prop_assert!(m1 <= 8 && m2 <= 8);
    }

    #[test]
    fn random_tree_is_spanning_tree(n in 2usize..40, seed in 0u64..20) {
        let t = generators::random_tree(n, seed);
        prop_assert_eq!(t.m(), n - 1);
        prop_assert_eq!(reference::connected_components(&t).1, 1);
    }
}
