//! Shared plumbing for the three simulation theorems: the simulated-algorithm
//! stepper (state array + broadcast collection + idle-skipping, mirroring the
//! direct runner's semantics exactly) and the padding payload used to account
//! multi-word transfers.

use congest_engine::{exec, BcongestAlgorithm, ExecutorConfig, LocalView, Metrics, Wire};
use congest_graph::{rng, Graph, NodeId};

/// An opaque payload of a known size in words — used when the *content* of a
/// transfer is tracked separately (e.g. cluster centers already hold the data) but
/// its transport must be paid for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pad(pub usize);

impl Wire for Pad {
    fn words(&self) -> usize {
        self.0.max(1)
    }
}

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

/// Steps the states of a simulated BCONGEST algorithm, phase by phase, with exactly
/// the direct runner's semantics (so simulated outputs are bit-identical).
///
/// The per-node phases honor an [`ExecutorConfig`] (see [`Stepper::with_exec`]):
/// the pure broadcast scan, the receive transitions, and the idle scan shard
/// nodes into contiguous chunks and merge in fixed node order, exactly like the
/// direct runner — so simulated outputs stay bit-identical at every thread count.
pub struct Stepper<'a, A: BcongestAlgorithm> {
    algo: &'a A,
    /// Simulated per-node states.
    pub states: Vec<A::State>,
    /// Broadcast count so far.
    pub broadcasts: u64,
    /// How the per-node phases execute (sequential by default).
    exec: ExecutorConfig,
}

impl<'a, A> Stepper<'a, A>
where
    A: BcongestAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
{
    /// Initializes states with the same per-node seeds the direct runner would use.
    pub fn new(algo: &'a A, g: &Graph, weights: Option<&[u64]>, seed: u64) -> Self {
        let states = (0..g.n())
            .map(|i| {
                let view = LocalView::new(g, weights, NodeId::new(i), rng::node_seed(seed, i));
                algo.init(&view)
            })
            .collect();
        Self {
            algo,
            states,
            broadcasts: 0,
            exec: ExecutorConfig::default(),
        }
    }

    /// Sets the executor used for the per-node phases.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecutorConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Collects this phase's broadcasts and applies the send transitions.
    pub fn collect_broadcasts(&mut self, round: usize) -> Vec<(NodeId, A::Msg)> {
        let algo = self.algo;
        let out: Vec<(NodeId, A::Msg)> = exec::map_chunks(&self.exec, &self.states, {
            |start, chunk| {
                let mut batch = Vec::new();
                for (off, st) in chunk.iter().enumerate() {
                    if let Some(m) = algo.broadcast(st, round) {
                        batch.push((NodeId::new(start + off), m));
                    }
                }
                batch
            }
        })
        .into_iter()
        .flatten()
        .collect();
        for (v, _) in &out {
            self.algo
                .on_broadcast_sent(&mut self.states[v.index()], round);
        }
        self.broadcasts += out.len() as u64;
        out
    }

    /// Delivers per-node inboxes (only non-empty ones, like the direct runner).
    /// Returns whether anything was delivered.
    pub fn deliver(&mut self, round: usize, mut inboxes: Vec<Vec<(NodeId, A::Msg)>>) -> bool {
        assert_eq!(inboxes.len(), self.states.len(), "one inbox per node");
        let algo = self.algo;
        exec::map_chunks_mut2(&self.exec, &mut self.states, &mut inboxes, {
            |_start, sts, inbs| {
                let mut any = false;
                for (st, inbox) in sts.iter_mut().zip(inbs.iter_mut()) {
                    if !inbox.is_empty() {
                        any = true;
                        algo.receive(st, round, inbox);
                    }
                }
                any
            }
        })
        .into_iter()
        .any(|b| b)
    }

    /// The next simulated round at which anything can happen, absent further input.
    pub fn next_activity(&self, after: usize) -> Option<usize> {
        let algo = self.algo;
        exec::min_chunks(&self.exec, &self.states, |st| algo.next_activity(st, after))
    }

    /// Finalizes outputs and the `Out` word count.
    pub fn outputs(&self) -> (Vec<A::Output>, usize) {
        let outputs: Vec<A::Output> = self.states.iter().map(|s| self.algo.output(s)).collect();
        let words = outputs.iter().map(|o| self.algo.output_words(o)).sum();
        (outputs, words)
    }
}

/// Deduplicates `(sender, message)` pairs — the union step of Definition 3.1 (a
/// message may legitimately arrive through several routes).
pub fn dedupe_msgs<M: Wire>(mut msgs: Vec<(NodeId, M)>) -> Vec<(NodeId, M)> {
    let mut out: Vec<(NodeId, M)> = Vec::with_capacity(msgs.len());
    for (from, m) in msgs.drain(..) {
        if !out.iter().any(|(f, x)| *f == from && *x == m) {
            out.push((from, m));
        }
    }
    out
}

/// Total input words over all nodes (the paper's `In`, in words).
pub fn input_words(g: &Graph) -> usize {
    g.nodes().map(|v| g.degree(v) + 1).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_words() {
        assert_eq!(Pad(0).words(), 1);
        assert_eq!(Pad(5).words(), 5);
    }

    #[test]
    fn dedupe_removes_duplicates() {
        let msgs = vec![
            (NodeId::new(1), 7u64),
            (NodeId::new(1), 7u64),
            (NodeId::new(1), 8u64),
            (NodeId::new(2), 7u64),
        ];
        let out = dedupe_msgs(msgs);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn input_words_is_2m_plus_n() {
        let g = congest_graph::generators::cycle(5);
        assert_eq!(input_words(&g), 2 * 5 + 5);
    }
}
