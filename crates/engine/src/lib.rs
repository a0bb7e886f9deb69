//! # congest-engine
//!
//! Synchronous execution engine for the BCONGEST model (paper §1.1.2) with exact
//! round, message, broadcast-complexity, and per-edge-congestion accounting.
//! Every CONGEST cost beyond a broadcast run is charged by the [`Router`] or
//! [`tree_pass`].
//!
//! The pieces:
//!
//! * [`BcongestAlgorithm`] / [`AggregationAlgorithm`] — algorithms as pure per-node
//!   state machines (the workspace's central abstraction; see module docs);
//! * [`run_bcongest`] — direct BCONGEST execution (counts the paper's broadcast
//!   complexity `B` and the `Σ deg` message cost); [`run_bcongest_over`] — the
//!   same execution with its delivery replaced by a caller's transport, which
//!   is what the simulation theorems are. Both are thin wrappers over one
//!   crate-private round loop (`rounds.rs`), generic over the algorithm and
//!   the delivery;
//! * [`Router`] — store-and-forward packet routing under per-edge capacity (real
//!   schedules, LMR/Theorem-1.3 style) of a phase of [`Cast`]s;
//! * [`treeops`] — the casts, their one-cast forms [`upcast`] / [`downcast`]
//!   (Lemmas 1.5/1.6, charged by the words they move) over [`Forest`]s, plus
//!   [`tree_pass`], the closed-form charge of a one-word convergecast or
//!   broadcast;
//! * [`ExecutorConfig`] — deterministic chunked-parallel execution of the round
//!   loop's state init and broadcast poll (crate-private `exec.rs`); `threads` is
//!   the only setting (outputs and metrics are byte-identical at every thread count);
//! * [`plane`] / [`FlatPlane`] — the round buffer the direct runner delivers through:
//!   two passes over the broadcasters' edges count each receiver's messages, then
//!   write every copy once, in sender order, straight into its receiver's slice of
//!   one flat inbox; a round touches its receivers only and is allocation-free in
//!   steady state;
//! * the agenda (`agenda.rs`, crate-private) — the event-driven schedule of
//!   that loop: a hot set plus a timer heap fed by `next_activity`, so a
//!   round polls the nodes that might send and costs `O(polled + received +
//!   n/64)`, not `Θ(n)`;
//! * [`faults`] / [`FaultPlan`] — seeded, deterministic fault injection (edge
//!   churn, node crash/recovery with message-drop semantics) threaded through
//!   the direct runner;
//! * [`trace`] / [`TraceLog`] — per-round execution recording (sends,
//!   deliveries, fault events, metric deltas) with JSONL/DOT export and a
//!   replay path that re-executes a recorded run and checks byte equality;
//! * [`Metrics`] — composable cost accounting;
//! * [`WireEncode`] — one message is one `O(log n)`-bit word, packed into a
//!   fixed number of `u32` lanes for a trace and the `4 × LANES`-byte charge.
//!
//! ## Example: running a BCONGEST algorithm directly
//!
//! ```
//! use congest_engine::{run_bcongest, RunOptions, BcongestAlgorithm, LocalView};
//! use congest_graph::{generators, NodeId};
//!
//! // A one-shot algorithm: every node broadcasts its ID once; outputs its min neighbor.
//! struct MinNeighbor;
//! #[derive(Clone, Debug)]
//! struct St { me: u32, best: u32, sent: bool }
//! impl BcongestAlgorithm for MinNeighbor {
//!     type State = St;
//!     type Msg = u32;
//!     type Output = u32;
//!     fn name(&self) -> &'static str { "min-neighbor" }
//!     fn init(&self, v: &LocalView<'_>) -> St {
//!         St { me: v.node().raw(), best: u32::MAX, sent: false }
//!     }
//!     fn broadcast(&self, s: &St, _r: usize) -> Option<u32> { (!s.sent).then_some(s.me) }
//!     fn on_broadcast_sent(&self, s: &mut St, _r: usize) { s.sent = true; }
//!     fn receive(&self, s: &mut St, _r: usize, msgs: &[(NodeId, u32)]) {
//!         for &(_, m) in msgs { s.best = s.best.min(m); }
//!     }
//!     fn is_done(&self, s: &St) -> bool { s.sent }
//!     fn output(&self, s: &St) -> u32 { s.best }
//!     fn round_bound(&self, _n: usize, _m: usize) -> usize { 1 }
//!     fn output_words(&self, _o: &u32) -> usize { 1 }
//! }
//!
//! let g = generators::cycle(5);
//! let run = run_bcongest(&MinNeighbor, &g, None, &RunOptions::default()).unwrap();
//! assert_eq!(run.metrics.broadcasts, 5);      // broadcast complexity B
//! assert_eq!(run.metrics.messages, 10);       // Σ deg over broadcasters
//! assert_eq!(run.outputs[0], 1);              // node 0's neighbors are 1 and 4
//! ```

mod agenda;
mod bcongest;
mod error;
mod exec;
pub mod faults;
mod metrics;
pub mod plane;
mod rounds;
mod router;
pub mod trace;
pub mod treeops;
mod view;
mod wire;

pub use bcongest::{
    run_bcongest, run_bcongest_observed, run_bcongest_over, AggregationAlgorithm,
    BcongestAlgorithm, BcongestRun, RunOptions,
};
pub use error::EngineError;
pub use exec::ExecutorConfig;
pub use faults::{FaultEvent, FaultPlan, FaultResponse, SurvivorMask};
pub use metrics::Metrics;
pub use plane::FlatPlane;
pub use router::Router;
pub use trace::TraceLog;
pub use treeops::{downcast, route_casts, tree_pass, upcast, Cast, Forest};
pub use view::LocalView;
pub use wire::WireEncode;
