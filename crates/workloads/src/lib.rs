//! # congest-workloads
//!
//! The workspace's **workload registry**: every distributed algorithm, wrapped
//! once as a named [`Workload`] with a deterministic input builder, an
//! executor-parameterized runner, a differential oracle, and a declared cost
//! envelope. Registering a workload here automatically buys it:
//!
//! * the **thread-determinism pins** (`tests/parallel_determinism.rs` runs
//!   every registry entry at 1/2/4/8 worker threads and asserts
//!   byte-identical [`RunOutcome`]s, and pins the one-thread outcome to
//!   `tests/golden/registry_outcomes.txt`);
//! * the **oracle/invariant suite** (`tests/workload_registry.rs` checks
//!   unique names, deterministic builds, oracle validity, and envelope
//!   compliance);
//! * the **registry sweep** of the benchmark (`bench/`, workload
//!   `registry_sweep`, times every entry and verifies it).
//!
//! The paper frames APSP, MST, matchings and "beyond" as one family with
//! shared primitives; the registry mirrors that framing in code. Adding an
//! algorithm to the family is one [`registry`] entry (~50 lines including the
//! oracle), not a four-file wiring job.
//!
//! ## Anatomy of an entry
//!
//! ```
//! use congest_workloads::{registry, find};
//! use congest_engine::ExecutorConfig;
//!
//! let w = find("gossip/path").expect("registered workload");
//! let one = w.run(&ExecutorConfig::default()).unwrap();
//! let four = w.run(&ExecutorConfig::with_threads(4)).unwrap();
//! assert_eq!(one, four);               // the determinism contract
//! w.oracle().unwrap();                 // the differential check
//! assert!(registry().len() >= 10);
//! ```

mod adapter;
mod catalogue;
pub mod configs;
pub mod make;

pub use catalogue::{registry, FAMILIES};
pub use congest_engine::TraceLog;

use congest_engine::{EngineError, ExecutorConfig, Metrics};
use congest_graph::{Graph, WeightedGraph};

/// The deterministically (re)built input of one workload: the graph, plus
/// per-edge weights for the weighted problems.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuiltInput {
    /// The topology.
    pub graph: Graph,
    /// Per-edge weights (indexed by `EdgeId`), if the workload is weighted.
    pub weights: Option<Vec<u64>>,
}

impl BuiltInput {
    /// An unweighted input.
    pub fn unweighted(graph: Graph) -> Self {
        Self {
            graph,
            weights: None,
        }
    }

    /// A weighted input.
    pub fn weighted(wg: WeightedGraph) -> Self {
        let weights = wg.weights().to_vec();
        Self {
            graph: wg.graph().clone(),
            weights: Some(weights),
        }
    }

    /// The weighted view of this input.
    ///
    /// # Panics
    ///
    /// Panics if the input has no weights (callers pair this with weighted
    /// builders only).
    pub fn weighted_graph(&self) -> WeightedGraph {
        let weights = self
            .weights
            .clone()
            .expect("workload input carries weights");
        WeightedGraph::from_weights(self.graph.clone(), weights)
            .expect("one weight per edge by construction")
    }
}

/// The erased outcome of one workload execution: a canonical rendering of the
/// per-node outputs plus the exact realized [`Metrics`]. Two outcomes compare
/// equal iff outputs **and** every cost measure (rounds, messages, broadcasts,
/// the full per-edge congestion vector) agree — the unit of the conformance
/// contract.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Deterministic `Debug`-derived rendering of the workload's outputs.
    pub output: String,
    /// Exact realized cost.
    pub metrics: Metrics,
}

/// Declared cost bounds for a workload, where the paper (or a closed-form
/// argument) gives one. `None` means "no bound claimed", not "unbounded cost".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsEnvelope {
    /// Hard upper bound on total messages.
    pub max_messages: Option<u64>,
    /// Hard upper bound on rounds.
    pub max_rounds: Option<u64>,
    /// The **memory envelope**: a hard upper bound on the *average* wire size
    /// of a delivered message, in bytes — the check is
    /// `payload_bytes ≤ max_message_bytes × messages` against the exact
    /// [`Metrics::payload_bytes`].
    /// Engine-runner entries get this auto-filled with the packed codec width
    /// (`4 × LANES`); composite entries declare a bound on their mix.
    pub max_message_bytes: Option<u64>,
}

impl MetricsEnvelope {
    /// No declared bounds.
    pub const fn unbounded() -> Self {
        Self {
            max_messages: None,
            max_rounds: None,
            max_message_bytes: None,
        }
    }

    /// A message bound only.
    pub const fn messages(max: u64) -> Self {
        Self {
            max_messages: Some(max),
            max_rounds: None,
            max_message_bytes: None,
        }
    }

    /// Message and round bounds.
    pub const fn bounds(max_messages: u64, max_rounds: u64) -> Self {
        Self {
            max_messages: Some(max_messages),
            max_rounds: Some(max_rounds),
            max_message_bytes: None,
        }
    }

    /// Adds (or replaces) the memory envelope: at most `bytes` per message on
    /// average.
    pub const fn with_message_bytes(mut self, bytes: u64) -> Self {
        self.max_message_bytes = Some(bytes);
        self
    }

    /// Checks `metrics` against the declared bounds.
    ///
    /// # Errors
    ///
    /// Describes the first violated bound.
    pub fn check(&self, metrics: &Metrics) -> Result<(), String> {
        if let Some(b) = self.max_messages {
            if metrics.messages > b {
                return Err(format!("messages {} exceed envelope {b}", metrics.messages));
            }
        }
        if let Some(b) = self.max_rounds {
            if metrics.rounds > b {
                return Err(format!("rounds {} exceed envelope {b}", metrics.rounds));
            }
        }
        if let Some(b) = self.max_message_bytes {
            if metrics.payload_bytes > b.saturating_mul(metrics.messages) {
                return Err(format!(
                    "payload bytes {} exceed the {b}-byte/message memory envelope over {} messages",
                    metrics.payload_bytes, metrics.messages
                ));
            }
        }
        Ok(())
    }
}

/// One registered workload: a named `(algorithm, graph family, seed)` triple
/// with a deterministic builder, an executor-parameterized runner, a
/// differential oracle, and a declared [`MetricsEnvelope`].
///
/// Implementations must guarantee:
///
/// * [`build`](Workload::build) is a pure function of the entry (two calls
///   return equal [`BuiltInput`]s);
/// * [`run`](Workload::run) is deterministic **per configuration** and
///   byte-identical **across configurations** — every
///   [`ExecutorConfig`] yields the same [`RunOutcome`];
/// * [`oracle`](Workload::oracle) validates a sequential run against an
///   engine-independent reference (sequential oracle or closed-form check).
pub trait Workload: Send + Sync {
    /// The algorithm component of the name (shared by sibling entries).
    fn algorithm(&self) -> &'static str;

    /// The graph-family component of the name.
    fn family(&self) -> &str;

    /// Unique registry key: `algorithm/family`.
    fn name(&self) -> String {
        format!("{}/{}", self.algorithm(), self.family())
    }

    /// The master seed `run` executes with.
    fn seed(&self) -> u64;

    /// Deterministically (re)builds the workload input.
    fn build(&self) -> BuiltInput;

    /// Runs the workload under `cfg`, building the input first. Equivalent to
    /// `self.run_built(&self.build(), cfg)`.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (round guards, budget overdrafts).
    fn run(&self, cfg: &ExecutorConfig) -> Result<RunOutcome, EngineError> {
        self.run_built(&self.build(), cfg)
    }

    /// Runs the workload under `cfg` on an already-built input (callers must
    /// pass this entry's own [`build`](Workload::build) output). The benchmark
    /// times this form, so graph/weight construction stays outside the timed
    /// section.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (round guards, budget overdrafts).
    fn run_built(
        &self,
        input: &BuiltInput,
        cfg: &ExecutorConfig,
    ) -> Result<RunOutcome, EngineError>;

    /// Runs the workload under `cfg` and records a replayable [`TraceLog`]
    /// alongside the outcome. Engine-runner entries record every per-round
    /// delivery and fault event; composite entries (multi-phase workloads with
    /// no single runner loop) record an outcome-level trace — either way
    /// [`replay`] can re-execute and conformance-check the result.
    ///
    /// The returned outcome equals what [`run`](Workload::run) produces under
    /// the same `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (round guards, budget overdrafts).
    fn run_traced(&self, cfg: &ExecutorConfig) -> Result<(RunOutcome, TraceLog), EngineError>;

    /// Runs sequentially and validates the result against the workload's
    /// reference oracle.
    ///
    /// # Errors
    ///
    /// Describes the first oracle violation (or a failed run).
    fn oracle(&self) -> Result<(), String>;

    /// The declared cost bounds for this entry's input.
    fn envelope(&self) -> MetricsEnvelope;
}

/// Looks up a registry entry by its unique `algorithm/family` name.
pub fn find(name: &str) -> Option<Box<dyn Workload>> {
    registry().into_iter().find(|w| w.name() == name)
}

/// Replays a recorded trace: looks up the workload named in the header,
/// re-executes it under the recorded executor configuration, and checks the
/// fresh trace is **identical** to the recorded one — same per-round fault
/// events and deliveries (byte-for-byte, lane by lane), same outputs, and the
/// same exact [`Metrics`] including the per-edge congestion vector.
///
/// This is the conformance layer's closure property: a trace is not just a
/// log, it is a reproducible claim about the execution.
///
/// # Errors
///
/// Describes the first divergence, an unknown workload name, or a failed run.
pub fn replay(trace: &TraceLog) -> Result<(), String> {
    let w = find(&trace.workload)
        .ok_or_else(|| format!("no registry entry named {:?}", trace.workload))?;
    let cfg = trace.exec_config();
    let (_, fresh) = w
        .run_traced(&cfg)
        .map_err(|e| format!("{}: replay run failed: {e}", trace.workload))?;
    trace.conforms(&fresh)
}
