//! The closure-driven [`Workload`] adapter every registry entry is built from.
//!
//! A workload is four closures — build, execute, oracle, envelope — plus the
//! naming triple. [`FnWorkload`] erases the typed intermediate value `T`
//! (per-node outputs, MST edge sets, LDC decompositions, …) into the
//! [`RunOutcome`]'s canonical `Debug` rendering, while the oracle closure still
//! sees the typed value. The helpers in [`crate::catalogue`] specialize this
//! for the BCONGEST runner; composite algorithms (APSP, MST, LDC)
//! pass their entry points directly.

use crate::{BuiltInput, MetricsEnvelope, RunOutcome, Workload};
use congest_engine::{EngineError, ExecutorConfig, Metrics, TraceLog};
use std::fmt;

pub(crate) type BuildFn = Box<dyn Fn() -> BuiltInput + Send + Sync>;
pub(crate) type ExecFn<T> =
    Box<dyn Fn(&BuiltInput, &ExecutorConfig) -> Result<(T, Metrics), EngineError> + Send + Sync>;
pub(crate) type OracleFn<T> = Box<dyn Fn(&BuiltInput, &T) -> Result<(), String> + Send + Sync>;
pub(crate) type EnvelopeFn = Box<dyn Fn(&BuiltInput) -> MetricsEnvelope + Send + Sync>;
/// Records a per-round trace of the run (engine-runner entries only; composite
/// entries fall back to an outcome-level trace).
/// The `&str` argument is the entry's registry name, stamped into the header.
pub(crate) type TraceFn = Box<
    dyn Fn(&BuiltInput, &ExecutorConfig, &str) -> Result<(RunOutcome, TraceLog), EngineError>
        + Send
        + Sync,
>;

/// A [`Workload`] assembled from closures over a typed intermediate value `T`.
pub(crate) struct FnWorkload<T: fmt::Debug> {
    pub algorithm: &'static str,
    pub family: String,
    pub seed: u64,
    pub build: BuildFn,
    pub exec: ExecFn<T>,
    pub oracle: OracleFn<T>,
    pub envelope: EnvelopeFn,
    pub trace: Option<TraceFn>,
}

impl<T: fmt::Debug> Workload for FnWorkload<T> {
    fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    fn family(&self) -> &str {
        &self.family
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn build(&self) -> BuiltInput {
        (self.build)()
    }

    fn run_built(
        &self,
        input: &BuiltInput,
        cfg: &ExecutorConfig,
    ) -> Result<RunOutcome, EngineError> {
        let (value, metrics) = (self.exec)(input, cfg)?;
        Ok(RunOutcome {
            output: format!("{value:?}"),
            metrics,
        })
    }

    fn run_traced(&self, cfg: &ExecutorConfig) -> Result<(RunOutcome, TraceLog), EngineError> {
        let input = (self.build)();
        match &self.trace {
            Some(trace) => trace(&input, cfg, &self.name()),
            None => {
                let outcome = self.run_built(&input, cfg)?;
                let trace = TraceLog::composite(
                    &self.name(),
                    &input.graph,
                    self.seed,
                    cfg,
                    outcome.output.clone(),
                    &outcome.metrics,
                );
                Ok((outcome, trace))
            }
        }
    }

    fn oracle(&self) -> Result<(), String> {
        let input = (self.build)();
        let (value, _metrics) = (self.exec)(&input, &ExecutorConfig::default())
            .map_err(|e| format!("{}: sequential run failed: {e}", self.name()))?;
        (self.oracle)(&input, &value).map_err(|e| format!("{}: {e}", self.name()))
    }

    fn envelope(&self) -> MetricsEnvelope {
        (self.envelope)(&(self.build)())
    }
}
