//! # congest-serve
//!
//! The **distance-oracle serving layer**: the production shape of the paper's
//! outputs. The Theorem 1.1/1.2 APSP matrices, the §3.3 landmark sketches and
//! the Lemma 3.22/3.23 BFS forests are built once under CONGEST message
//! budgets — and then their entire point is to be *queried*. This crate turns
//! any [`DistanceSource`] into a [`DistanceOracle`] with three query paths —
//! point lookup, batched lookup, and k-nearest-by-distance — behind an
//! LRU-style query cache with exact, deterministic hit/miss counters
//! ([`ServeMetrics`], the same accounting idiom as the engine's `Metrics`).
//!
//! Correctness is differential all the way down: every answer an oracle
//! serves is the source's answer (the cache can only change wall-clock and
//! counters, never bytes), and the [`loadgen`] module's checks
//! ([`loadgen::AnswerCheck`], [`loadgen::ExactReference`]) compare served
//! answers against a sequential reference. The root
//! `tests/serve_conformance.rs` suite pins cached ≡ uncached and determinism
//! across the executor matrix; the benchmark's `serve_queries` workload
//! measures serving and checks every answer it stores.
//!
//! ## Example
//!
//! ```
//! use apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
//! use congest_graph::{generators, NodeId, WeightedGraph};
//! use congest_serve::{Distance, DistanceOracle};
//!
//! let g = generators::gnp_connected(16, 0.25, 3);
//! let wg = WeightedGraph::random_weights(&g, 1..=6, 3);
//! let apsp = weighted_apsp(&wg, &WeightedApspConfig::default()).unwrap();
//!
//! let mut oracle = DistanceOracle::builder(apsp).cache_capacity(128).build();
//! let d = oracle.lookup(NodeId::new(0), NodeId::new(5));
//! assert!(matches!(d, Distance::Exact(_)));
//! let near = oracle.k_nearest(NodeId::new(0), 3);
//! assert_eq!(near.len(), 3);
//! assert_eq!(oracle.metrics().misses, 1); // the point lookup; k-NN scans the source
//! ```

pub mod loadgen;
mod oracle;

pub use apsp_core::distance::{Distance, DistanceSource};
pub use oracle::{DistanceOracle, DistanceOracleBuilder, ServeMetrics};
