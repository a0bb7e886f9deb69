//! The paper's simulation theorems, executable:
//!
//! * [`ldc_sim`] — **Theorem 2.1**: any BCONGEST algorithm, message cost
//!   `Õ(In + Out + B)`;
//! * [`agg_general`] — **Theorem 3.9**: aggregation-based algorithms over a pruned
//!   Baswana–Sen hierarchy, any `ε ∈ [1/Θ(log n), 1]`;
//! * [`agg_star`] — **Theorem 3.10**: the faster `ε ≥ 1/2` star-cluster variant.
//!
//! All three produce outputs identical to a direct run with the same seed — the
//! executable counterpart of Lemmas 2.5 / 3.14 / 3.20.

pub mod agg_general;
pub mod agg_star;
pub mod common;
pub mod ldc_sim;
mod phase;

pub use agg_general::{simulate_aggregation_general, AggSimOptions};
pub use agg_star::simulate_aggregation_star;
pub use common::SimulationRun;
pub use ldc_sim::{simulate_bcongest_via_ldc, LdcSimOptions};
