//! Incremental construction of [`Graph`] values.

use crate::Graph;

/// Incremental builder for [`Graph`].
///
/// Collects edges (duplicates and self-loops are silently dropped at
/// [`build`](GraphBuilder::build) time) and produces a CSR [`Graph`].
///
/// # Examples
///
/// ```
/// use congest_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> &mut Self {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        self.edges.push((u, v));
        self
    }

    /// Adds many edges at once.
    pub fn add_edges<I: IntoIterator<Item = (usize, usize)>>(&mut self, it: I) -> &mut Self {
        for (u, v) in it {
            self.add_edge(u, v);
        }
        self
    }

    /// Number of nodes the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Finalizes the builder into a [`Graph`].
    pub fn build(&self) -> Graph {
        Graph::from_edges(self.n, &self.edges)
    }
}

impl Extend<(usize, usize)> for GraphBuilder {
    fn extend<T: IntoIterator<Item = (usize, usize)>>(&mut self, iter: T) {
        self.add_edges(iter);
    }
}

/// Convenience: builds the subgraph of `g` induced by keeping only edges in `keep`.
///
/// Nodes are preserved (same IDs); edges not selected are dropped.
pub fn edge_subgraph(g: &Graph, keep: impl Fn(crate::EdgeId) -> bool) -> Graph {
    let edges: Vec<(usize, usize)> = g
        .edges()
        .filter(|&(e, _, _)| keep(e))
        .map(|(_, u, v)| (u.index(), v.index()))
        .collect();
    Graph::from_edges(g.n(), &edges)
}

/// Convenience: builds the subgraph induced by a vertex set, *keeping original node IDs*
/// (nodes outside the set become isolated). This is what "strong diameter of a cluster"
/// computations need.
pub fn induced_subgraph_same_ids(g: &Graph, in_set: &[bool]) -> Graph {
    let edges: Vec<(usize, usize)> = g
        .edges()
        .filter(|&(_, u, v)| in_set[u.index()] && in_set[v.index()])
        .map(|(_, u, v)| (u.index(), v.index()))
        .collect();
    Graph::from_edges(g.n(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0, 1), (1, 2), (2, 3)]);
        let g = b.build();
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn extend_works() {
        let mut b = GraphBuilder::new(3);
        b.extend(vec![(0, 1), (1, 2)]);
        assert_eq!(b.build().m(), 2);
    }

    #[test]
    fn induced_subgraph_keeps_ids() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let sub = induced_subgraph_same_ids(&g, &[true, true, false, true]);
        assert_eq!(sub.n(), 4);
        assert_eq!(sub.m(), 1); // only (0,1) survives
    }

    #[test]
    fn edge_subgraph_filters() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let sub = edge_subgraph(&g, |e| e.index() != 0);
        assert_eq!(sub.m(), 2);
    }
}
