//! The core undirected graph type, stored in compressed sparse row (CSR) form.
//!
//! [`Graph`] is the communication network of the CONGEST model: simple (no self-loops, no
//! parallel edges), undirected, with nodes identified by the dense range `0..n`.

use crate::ids::{EdgeId, NodeId};
use std::fmt;

/// A simple undirected graph in CSR form.
///
/// Construction goes through [`Graph::from_edges`] (or [`GraphBuilder`](crate::GraphBuilder)
/// for incremental construction). Adjacency lists are sorted by neighbor ID, enabling
/// `O(log deg)` edge lookups.
///
/// # Examples
///
/// ```
/// use congest_graph::{Graph, NodeId};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(NodeId::new(0)), 2);
/// assert!(g.edge_between(NodeId::new(0), NodeId::new(1)).is_some());
/// assert!(g.edge_between(NodeId::new(0), NodeId::new(2)).is_none());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
    adj_edge: Vec<EdgeId>,
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list given as `(u, v)` index pairs.
    ///
    /// Duplicate edges (in either orientation) and self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint index is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut canon: Vec<(usize, usize)> = edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| {
                assert!(
                    u < n && v < n,
                    "edge endpoint out of range: ({u},{v}) with n={n}"
                );
                if u < v {
                    (u, v)
                } else {
                    (v, u)
                }
            })
            .collect();
        canon.sort_unstable();
        canon.dedup();

        let edges: Vec<(NodeId, NodeId)> = canon
            .iter()
            .map(|&(u, v)| (NodeId::new(u), NodeId::new(v)))
            .collect();

        let mut deg = vec![0usize; n];
        for &(u, v) in &canon {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![NodeId::default(); acc];
        let mut adj_edge = vec![EdgeId::default(); acc];
        for (i, &(u, v)) in canon.iter().enumerate() {
            let e = EdgeId::new(i);
            adj[cursor[u]] = NodeId::new(v);
            adj_edge[cursor[u]] = e;
            cursor[u] += 1;
            adj[cursor[v]] = NodeId::new(u);
            adj_edge[cursor[v]] = e;
            cursor[v] += 1;
        }
        // Canonical edges are sorted by (u, v), so each node's adjacency built this way is
        // already sorted by neighbor for the `u`-side entries but interleaved for the
        // `v`-side; sort each list to enable binary search.
        for v in 0..n {
            let range = offsets[v]..offsets[v + 1];
            let mut pairs: Vec<(NodeId, EdgeId)> = adj[range.clone()]
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

        Self {
            n,
            offsets,
            adj,
            adj_edge,
            edges,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// The neighbors of `v`, sorted by node ID.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// The edge IDs incident to `v`, parallel to [`Graph::neighbors`].
    #[inline]
    pub fn incident_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.adj_edge[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Iterates over `(edge, neighbor)` pairs incident to `v`.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.incident_edges(v)
            .iter()
            .copied()
            .zip(self.neighbors(v).iter().copied())
    }

    /// The endpoints of edge `e`, in canonical order (`u < v`).
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// Returns the edge between `u` and `v`, if present.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (small, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let nbrs = self.neighbors(small);
        nbrs.binary_search(&target)
            .ok()
            .map(|k| self.incident_edges(small)[k])
    }

    /// Whether `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId::new)
    }

    /// Iterates over all edges as `(EdgeId, u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId::new(i), u, v))
    }

    /// Total input size of the graph in "words" as the simulations account it: each node's
    /// input is its incident edge list, so the total is `Σ_v (deg(v) + O(1)) = 2m + n`.
    pub fn input_words(&self) -> usize {
        2 * self.m() + self.n()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n, self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.input_words(), 2 * 3 + 3);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 0), (1, 2), (1, 2)]);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, &[(4, 2), (4, 0), (4, 3), (4, 1)]);
        let nbrs: Vec<usize> = g
            .neighbors(NodeId::new(4))
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(nbrs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edge_lookup() {
        let g = triangle();
        let e = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        assert_eq!(g.endpoints(e), (NodeId::new(1), NodeId::new(2)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(0)));
    }

    #[test]
    fn incident_pairs_consistent() {
        let g = triangle();
        for v in g.nodes() {
            for (e, u) in g.incident(v) {
                let (a, b) = g.endpoints(e);
                assert!([(v, u), (u, v)].contains(&(a, b)), "{e:?}");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn isolated_nodes() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        assert_eq!(g.degree(NodeId::new(2)), 0);
        assert_eq!(g.neighbors(NodeId::new(3)).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = Graph::from_edges(2, &[(0, 2)]);
    }
}
