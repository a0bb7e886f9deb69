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
    /// Duplicate edges (in either orientation) and self-loops are ignored. Edge IDs number
    /// the remaining edges in lexicographic order of their canonical `(min, max)` endpoints,
    /// and every adjacency list comes out sorted by neighbor.
    ///
    /// The build is a counting sort: each edge is bucketed under its smaller endpoint,
    /// each bucket is sorted and deduped in place, and the CSR rows are filled from the
    /// resulting edge table. With `m` the length of `edges`, every pass is `O(n + m)`
    /// except the bucket sorts, `O(d log d)` for a bucket of `d` entries and `O(d)` for one
    /// that arrives in order, so `O(n + m log Δ)` at worst for maximum degree `Δ`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint index is `>= n`, if `n` exceeds the `u32` node IDs, or if
    /// `edges` has more entries than the `u32` edge IDs can number.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "node count out of range: n={n} exceeds u32 node ids"
        );
        assert!(
            u32::try_from(edges.len()).is_ok(),
            "edge count out of range: {} entries exceed u32 edge ids",
            edges.len()
        );

        // 1. Bucket each non-loop edge's larger endpoint under its smaller one: count into
        //    `ends[u + 1]`, prefix-sum so `ends[u]` is bucket `u`'s start, then scatter with
        //    `ends[u]` as the cursor, which leaves `ends[u]` at the bucket's end.
        let mut ends = vec![0u32; n + 1];
        for &(u, v) in edges {
            if u != v {
                assert!(
                    u < n && v < n,
                    "edge endpoint out of range: ({u},{v}) with n={n}"
                );
                ends[u.min(v) + 1] += 1;
            }
        }
        let mut acc = 0;
        for end in &mut ends {
            acc += *end;
            *end = acc;
        }
        let mut upper = vec![0u32; acc as usize];
        for &(u, v) in edges {
            if u != v {
                let slot = &mut ends[u.min(v)];
                upper[*slot as usize] = u.max(v) as u32;
                *slot += 1;
            }
        }

        // 2. Sort and dedup each bucket, compacting the column: `ends[u]` becomes the end of
        //    bucket `u`'s distinct entries, so the column lists the edges in EdgeId order.
        let mut m = 0;
        let mut begin = 0;
        for end in &mut ends[..n] {
            let bucket = begin..*end as usize;
            begin = bucket.end;
            upper[bucket.clone()].sort_unstable();
            let row = m;
            for j in bucket {
                if m == row || upper[m - 1] != upper[j] {
                    upper[m] = upper[j];
                    m += 1;
                }
            }
            *end = m as u32;
        }

        // The edge table, and each node's degree counted into `offsets[v]`.
        let mut offsets = vec![0usize; n + 1];
        let mut table = Vec::with_capacity(m);
        let mut begin = 0;
        for (u, &end) in ends[..n].iter().enumerate() {
            for &w in &upper[begin..end as usize] {
                offsets[u] += 1;
                offsets[w as usize] += 1;
                table.push((NodeId::new(u), NodeId::from(w)));
            }
            begin = end as usize;
        }
        // Free the scratch before the CSR arrays exist, so the peak is the output's size.
        drop((ends, upper));

        // 3. Fill the rows back to front. Walking the table from the last EdgeId down,
        //    a node `v` meets its upper neighbors (bucket `v`) in descending order before any
        //    lower one (buckets below `v`), also descending; so writing each at its row's
        //    cursor, which starts at the row's end and steps down, leaves every row sorted:
        //    lower neighbors, then upper ones. Each cursor ends at its row's start.
        let mut total = 0;
        for slot in &mut offsets[..n] {
            total += *slot;
            *slot = total;
        }
        offsets[n] = total;
        let mut adj = vec![NodeId::default(); total];
        let mut adj_edge = vec![EdgeId::default(); total];
        for (i, &(u, w)) in table.iter().enumerate().rev() {
            let e = EdgeId::new(i);
            for (v, nb) in [(u, w), (w, u)] {
                let cursor = &mut offsets[v.index()];
                *cursor -= 1;
                adj[*cursor] = nb;
                adj_edge[*cursor] = e;
            }
        }

        Self {
            n,
            offsets,
            adj,
            adj_edge,
            edges: table,
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

    #[test]
    #[should_panic(expected = "node count out of range")]
    fn node_count_beyond_u32_ids_panics() {
        let _ = Graph::from_edges(u32::MAX as usize + 1, &[]);
    }
}
