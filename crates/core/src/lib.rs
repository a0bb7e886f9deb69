//! # apsp-core
//!
//! The paper's contribution, executable — *"Message Optimality and Message-Time
//! Trade-offs for APSP and Beyond"* (Dufoulon, Pai, Pandurangan, Pemmaraju,
//! Robinson; PODC 2025):
//!
//! * [`simulate`] — the three simulation theorems (2.1, 3.9, 3.10). All produce
//!   outputs bit-identical to direct runs with the same seed;
//! * [`weighted_apsp`] — **Theorem 1.1**: exact weighted APSP in `Õ(n²)` messages;
//! * [`weighted_tradeoff`] — the concluding open question, prototyped: weighted
//!   APSP through the trade-off simulations via a receiver-aware aggregate;
//! * [`bfs_trees`] — **Lemmas 3.22/3.23**: many BFS trees message-efficiently;
//! * [`landmarks`] — the far-pairs landmark step of §3.3;
//! * [`tradeoff`] — **Theorem 1.2**: unweighted APSP in `Õ(n^{2-ε})` rounds and
//!   `Õ(n^{2+ε})` messages for any `ε ∈ [0, 1]`;
//! * [`mst_tradeoff`] — the "Beyond": a `k`-parameterized time–message trade-off for
//!   minimum spanning trees over the controlled-GHS subsystem in `congest_algos`;
//! * [`matching`] — **Corollary 2.8**: maximum bipartite matching in `Õ(n²)` msgs;
//! * [`cover`] — **Corollary 2.9**: `(k,W)`-sparse neighborhood covers;
//! * [`distance`] — the [`distance::DistanceSource`] trait unifying every
//!   distance structure (APSP matrices, landmark sketches, BFS forests)
//!   behind one exact-vs-estimate query signature — what `congest-serve`
//!   serves;
//! * [`verify`] — sequential oracles for all of the above.
//!
//! ## Example: the trade-off in one call
//!
//! ```
//! use congest_graph::generators;
//! use apsp_core::tradeoff::tradeoff_apsp;
//! use apsp_core::verify::check_unweighted_apsp;
//!
//! let g = generators::gnp_connected(20, 0.2, 1);
//! let res = tradeoff_apsp(&g, 0.75, 7).unwrap();
//! check_unweighted_apsp(&g, &res.dist).unwrap();
//! println!("rounds = {}, messages = {}", res.metrics.rounds, res.metrics.messages);
//! ```

use congest_engine::EngineError;

pub mod bfs_trees;
pub mod cover;
pub mod distance;
pub mod landmarks;
pub mod matching;
pub mod mst_tradeoff;
pub mod simulate;
pub mod tradeoff;
pub mod verify;
pub mod weighted_apsp;
pub mod weighted_tradeoff;

/// `Ok` if `in_domain`, else the [`EngineError::InvalidParameter`] naming `domain`
/// and the offending `epsilon` (a NaN lies in no domain).
fn ensure_epsilon(epsilon: f64, in_domain: bool, domain: &str) -> Result<(), EngineError> {
    in_domain
        .then_some(())
        .ok_or_else(|| EngineError::InvalidParameter {
            what: "epsilon",
            reason: format!("must be in {domain}, got {epsilon}"),
        })
}
