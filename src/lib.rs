//! # congest-apsp
//!
//! A from-scratch Rust reproduction of *"Message Optimality and Message-Time Trade-offs for
//! APSP and Beyond"* (Dufoulon, Pai, Pandurangan, Pemmaraju, Robinson — PODC 2025).
//!
//! The paper studies the **message complexity** of All-Pairs Shortest Paths (and related
//! problems) in the CONGEST model and proves two headline results:
//!
//! 1. **Theorem 1.1 / Theorem 2.1** — any BCONGEST algorithm with broadcast complexity `B`
//!    can be simulated in CONGEST with `Õ(B)` messages (at a `~n` factor cost in rounds),
//!    giving the first message-optimal (`Õ(n²)`-message) algorithms for weighted APSP,
//!    bipartite maximum matching, and neighborhood covers.
//! 2. **Theorem 1.2 / Theorems 3.9–3.10** — a smooth message-time trade-off for unweighted
//!    APSP: for every `ε ∈ [0,1]`, `Õ(n^{2-ε})` rounds and `Õ(n^{2+ε})` messages, built on
//!    ensembles of pruned Baswana–Sen cluster hierarchies and random-delay BFS scheduling.
//!
//! This facade crate re-exports the entire workspace. Start with [`apsp_core`] for the
//! paper's algorithms, [`engine`] / [`graph`] for the substrates, or [`serve`] to query
//! the computed outputs through a [`serve::DistanceOracle`].
//!
//! ## Quickstart
//!
//! ```
//! use congest_apsp::graph::{generators, WeightedGraph};
//! use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
//!
//! // A small weighted graph and the message-optimal APSP of Theorem 1.1.
//! let g = generators::gnp_connected(24, 0.2, 7);
//! let wg = WeightedGraph::random_weights(&g, 1..=8, 7);
//! let result = weighted_apsp(&wg, &WeightedApspConfig::default()).unwrap();
//! // Every node now knows its distance to every other node.
//! assert_eq!(result.distances.len(), 24);
//! println!("messages = {}", result.metrics.messages);
//! ```

pub use apsp_core;
pub use congest_algos as algos;
pub use congest_decomp as decomp;
pub use congest_engine as engine;
pub use congest_graph as graph;
pub use congest_serve as serve;
pub use congest_workloads as workloads;

// The executor setting, importable without spelling out the engine path:
// `congest_apsp::ExecutorConfig::with_threads(8)`.
pub use congest_engine::ExecutorConfig;
