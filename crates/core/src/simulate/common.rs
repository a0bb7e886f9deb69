//! Shared plumbing for the three simulation theorems: the outcome type, and how
//! the payload's run over a simulation's transport
//! ([`congest_engine::run_bcongest_over`]) is configured and folded into it.

use congest_engine::{BcongestRun, ExecutorConfig, Metrics, RunOptions};

/// Outcome of a simulated execution (Theorems 2.1, 3.9, 3.10).
#[derive(Clone, Debug)]
pub struct SimulationRun<O> {
    /// Per-node outputs — identical to a direct run with the same seed.
    pub outputs: Vec<O>,
    /// Total realized cost (preprocessing + simulation).
    pub metrics: Metrics,
    /// Preprocessing cost alone.
    pub preprocessing: Metrics,
    /// Number of simulated rounds (phases executed, counting idle-skipped ones).
    pub simulated_rounds: usize,
    /// Broadcast complexity `B_A` of the simulated execution.
    pub simulated_broadcasts: u64,
    /// `In` (words): inputs over all nodes.
    pub input_words: usize,
    /// `Out` (words): outputs over all nodes.
    pub output_words: usize,
}

impl<O> SimulationRun<O> {
    /// Assembles the outcome from the payload's execution over the simulation's
    /// transport (`payload`, whose rounds are the simulated phases), the
    /// simulation's own total account and its preprocessing share.
    pub(crate) fn assemble(
        payload: BcongestRun<O>,
        metrics: Metrics,
        preprocessing: Metrics,
    ) -> Self {
        Self {
            outputs: payload.outputs,
            metrics,
            preprocessing,
            simulated_rounds: payload.metrics.rounds as usize,
            simulated_broadcasts: payload.metrics.broadcasts,
            input_words: payload.input_words,
            output_words: payload.output_words,
        }
    }
}

/// The payload's [`RunOptions`] under a simulation: same seed as a direct run,
/// the runner's own round guard (`4 × round_bound + 64`) as the phase guard, no
/// faults.
pub(crate) fn payload_options(seed: u64, exec: &ExecutorConfig) -> RunOptions {
    RunOptions {
        seed,
        exec: exec.clone(),
        faults: None,
    }
}
