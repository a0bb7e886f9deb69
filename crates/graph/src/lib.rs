//! # congest-graph
//!
//! Graph substrate for the CONGEST APSP reproduction (Dufoulon et al., PODC 2025):
//!
//! * [`Graph`] — a simple undirected CSR graph (the communication network);
//! * [`WeightedGraph`] — non-negative integer edge weights;
//! * [`generators`] — seeded graph families (paths, grids, G(n,p), barbells, …);
//! * [`mod@reference`] — centralized oracle algorithms (BFS, Dijkstra, Hopcroft–Karp, …)
//!   used to verify the distributed implementations;
//! * [`dot`] — GraphViz export (Figure 1 reproduction);
//! * [`rng`] — deterministic seed derivation used by every randomized component.
//!
//! ## Example
//!
//! ```
//! use congest_graph::{generators, reference, NodeId};
//!
//! let g = generators::gnp_connected(50, 0.1, 1);
//! let dist = reference::bfs_distances(&g, NodeId::new(0));
//! assert!(dist.iter().all(|d| d.is_some())); // connected
//! ```

mod builder;
pub mod dot;
pub mod generators;
mod graph;
mod ids;
pub mod reference;
pub mod rng;
mod weighted;

pub use builder::{edge_subgraph, induced_subgraph_same_ids, GraphBuilder};
pub use graph::Graph;
pub use ids::{ClusterId, EdgeId, NodeId};
pub use weighted::{WeightCountError, WeightedGraph};
