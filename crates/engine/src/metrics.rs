//! Round, message, broadcast and per-edge congestion accounting.

use congest_graph::EdgeId;

/// Complexity measures of one (partial) distributed execution.
///
/// * `rounds` — synchronous rounds elapsed;
/// * `messages` — CONGEST messages (words) sent, summed over all edges and directions;
/// * `broadcasts` — BCONGEST broadcast operations (the paper's *broadcast
///   complexity* `B`);
/// * per-edge congestion — messages per undirected edge, summed over both directions
///   (the paper's `congestion(e)`).
///
/// Metrics compose: [`Metrics::merge_sequential`] for operations that run one after the
/// other, [`Metrics::merge_parallel`] for operations on disjoint edges that run at the
/// same time (rounds take the max, messages add).
///
/// Canonical workload outputs embed the derived `Debug` rendering, so adding,
/// renaming or reordering a field changes every golden hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metrics {
    /// Number of synchronous rounds.
    pub rounds: u64,
    /// Total messages (one word = one message).
    pub messages: u64,
    /// Total broadcast operations: counted by every run of the round loop,
    /// direct or over a transport; 0 for [`Router`](crate::Router) and
    /// [`tree_pass`](crate::tree_pass) charges.
    pub broadcasts: u64,
    /// Implementation-level payload bytes moved, summed over all messages.
    ///
    /// Model-level cost stays in [`Metrics::messages`] (words); this field is
    /// the memory-envelope side of the ledger — `payload_bytes / messages` is
    /// the measured bytes-per-message a workload's envelope bounds. Charges
    /// default to 8 bytes per word ([`Metrics::add_messages`]); the direct
    /// runner charges the exact packed width (`4 × LANES` bytes per message).
    pub payload_bytes: u64,
    /// Messages suppressed by fault injection (down edges / crashed
    /// endpoints): a send the expansion produced but the network dropped.
    /// Dropped messages are **not** charged to [`Metrics::messages`],
    /// [`Metrics::payload_bytes`] or the congestion vector — they never
    /// crossed an edge — but the count participates in conformance equality
    /// like every other field. Always 0 for fault-free runs.
    pub dropped_messages: u64,
    congestion: Vec<u64>,
}

impl Metrics {
    /// Fresh metrics for a graph with `m` edges.
    pub fn new(m: usize) -> Self {
        Self {
            rounds: 0,
            messages: 0,
            broadcasts: 0,
            payload_bytes: 0,
            dropped_messages: 0,
            congestion: vec![0; m],
        }
    }

    /// Records `words` messages crossing edge `e` (either direction), at the
    /// default 8 bytes of payload per word.
    #[inline]
    pub fn add_messages(&mut self, e: EdgeId, words: u64) {
        self.add_messages_sized(e, words, 8 * words);
    }

    /// Records `words` messages crossing edge `e` carrying exactly `bytes`
    /// payload bytes in total. The runners use this with the packed wire
    /// width (`4 × LANES` bytes per message).
    #[inline]
    pub fn add_messages_sized(&mut self, e: EdgeId, words: u64, bytes: u64) {
        self.messages += words;
        self.payload_bytes += bytes;
        self.congestion[e.index()] += words;
    }

    /// Per-edge congestion, indexed by [`EdgeId`].
    pub fn congestion(&self) -> &[u64] {
        &self.congestion
    }

    /// Maximum congestion over all edges (0 for edgeless graphs).
    pub fn max_congestion(&self) -> u64 {
        self.congestion.iter().copied().max().unwrap_or(0)
    }

    /// Maximum congestion over edges selected by `mask` (e.g. cluster edges only —
    /// Lemmas 3.8/3.12/3.18 bound cluster and non-cluster edges separately).
    pub fn max_congestion_where(&self, mask: impl Fn(EdgeId) -> bool) -> u64 {
        self.congestion
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask(EdgeId::new(i)))
            .map(|(_, &c)| c)
            .max()
            .unwrap_or(0)
    }

    /// Composes with an operation that ran *after* this one: rounds add.
    pub fn merge_sequential(&mut self, other: &Metrics) {
        assert_eq!(
            self.congestion.len(),
            other.congestion.len(),
            "graph mismatch"
        );
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.broadcasts += other.broadcasts;
        self.payload_bytes += other.payload_bytes;
        self.dropped_messages += other.dropped_messages;
        for (a, b) in self.congestion.iter_mut().zip(&other.congestion) {
            *a += b;
        }
    }

    /// Composes with an operation that ran *concurrently* (on edges disjoint in time or
    /// space): rounds take the max, messages and congestion add.
    pub fn merge_parallel(&mut self, other: &Metrics) {
        assert_eq!(
            self.congestion.len(),
            other.congestion.len(),
            "graph mismatch"
        );
        self.rounds = self.rounds.max(other.rounds);
        self.messages += other.messages;
        self.broadcasts += other.broadcasts;
        self.payload_bytes += other.payload_bytes;
        self.dropped_messages += other.dropped_messages;
        for (a, b) in self.congestion.iter_mut().zip(&other.congestion) {
            *a += b;
        }
    }

    /// Adds `r` rounds with no traffic (idle/padding rounds, e.g. `strict_phase_budget`).
    pub fn pad_rounds(&mut self, r: u64) {
        self.rounds += r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut m = Metrics::new(3);
        m.add_messages(EdgeId::new(0), 2);
        m.add_messages(EdgeId::new(2), 5);
        assert_eq!(m.messages, 7);
        assert_eq!(m.max_congestion(), 5);
        assert_eq!(m.congestion(), &[2, 0, 5]);
        assert_eq!(m.max_congestion_where(|e| e.index() < 2), 2);
        // Default byte charge is 8 bytes per word.
        assert_eq!(m.payload_bytes, 8 * 7);
    }

    #[test]
    fn sized_charges_decouple_bytes_from_words() {
        let mut m = Metrics::new(1);
        m.add_messages_sized(EdgeId::new(0), 3, 12);
        assert_eq!(m.messages, 3);
        assert_eq!(m.payload_bytes, 12);
        assert_eq!(m.congestion(), &[3]);
    }

    #[test]
    fn sequential_composition() {
        let mut a = Metrics::new(2);
        a.rounds = 3;
        a.add_messages(EdgeId::new(0), 1);
        let mut b = Metrics::new(2);
        b.rounds = 4;
        b.add_messages(EdgeId::new(1), 2);
        a.merge_sequential(&b);
        assert_eq!(a.rounds, 7);
        assert_eq!(a.messages, 3);
        assert_eq!(a.congestion(), &[1, 2]);
    }

    #[test]
    fn parallel_composition() {
        let mut a = Metrics::new(2);
        a.rounds = 3;
        let mut b = Metrics::new(2);
        b.rounds = 5;
        b.broadcasts = 2;
        a.merge_parallel(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.broadcasts, 2);
    }

    #[test]
    fn padding() {
        let mut a = Metrics::new(0);
        a.pad_rounds(10);
        assert_eq!(a.rounds, 10);
        assert_eq!(a.messages, 0);
    }

    #[test]
    #[should_panic(expected = "graph mismatch")]
    fn mismatched_graphs_panic() {
        let mut a = Metrics::new(1);
        let b = Metrics::new(2);
        a.merge_sequential(&b);
    }
}
