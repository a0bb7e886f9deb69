//! The flat struct-of-arrays message plane: packed round arenas, the one
//! round buffer both runners deliver through.
//!
//! Pushing a typed tuple per in-flight message into its receiver's `Vec`
//! inbox makes allocator traffic dominate the round loop at n = 10⁵–10⁶.
//! [`FlatPlane`] instead stages every emission of a round as a fixed-width
//! record of `u32` lanes (ids packed directly, payloads via
//! [`WireEncode`](crate::WireEncode)) in per-partition arenas, then scatters
//! the records to receivers with a **stable counting sort**:
//!
//! 1. *stage* — senders are cut into one contiguous chunk per effective
//!    thread and each chunk appends its records to its own arena, in sender
//!    order. Concatenating arenas in chunk order therefore reproduces the
//!    global sender order at every thread count.
//! 2. *count + charge* — one sequential pass over the arenas bumps the
//!    per-receiver counts and charges [`Metrics`] per record, in global
//!    sender order (and `u64` addition commutes, so any order gives identical
//!    totals).
//! 3. *scatter* — a prefix sum turns counts into receiver offsets; a second
//!    pass moves each record to its receiver's slice of one flat inbox arena.
//!    The scatter is stable, so each receiver sees its messages in global
//!    sender order — exactly what pushing `(sender, msg)` into per-node
//!    inboxes sender by sender would give (the reference this module's unit
//!    tests compare against).
//!
//! All buffers — arenas, counts, offsets, cursors, inbox, per-chunk decode
//! scratch — live in the [`FlatPlane`] and are reused across rounds via
//! `clear()`, so once warm a steady-state round performs **zero heap
//! allocations** (pinned by `crates/engine/tests/alloc_regression.rs`).

use crate::exec::{self, ExecutorConfig};
use crate::metrics::Metrics;
use crate::wire::WireDecode;
use congest_graph::{EdgeId, NodeId};
use std::ops::Range;

/// Reusable flat round buffers for messages of type `M`.
///
/// One value serves one run: construct with [`FlatPlane::new`] for the graph's
/// node count, then alternate [`FlatPlane::deliver`] / [`FlatPlane::receive`]
/// once per round. See the module docs for the layout and the order argument.
#[derive(Debug)]
pub struct FlatPlane<M: WireDecode> {
    /// Per-partition staging arenas; records of `4 + LANES` lanes:
    /// `[receiver, sender, edge, words, payload...]`.
    stages: Vec<Vec<u32>>,
    /// Per-receiver record counts for the round in flight (`n` entries).
    counts: Vec<u32>,
    /// Prefix offsets into the inbox arena, in record units (`n + 1` entries).
    starts: Vec<u32>,
    /// Scatter cursors, reset from `starts` each round (`n` entries).
    cursors: Vec<u32>,
    /// The scattered inbox arena; records of `1 + LANES` lanes:
    /// `[sender, payload...]`, grouped by receiver in `starts` order.
    inbox: Vec<u32>,
    /// Per-chunk decode buffers for the receive phase.
    scratch: Vec<Vec<(NodeId, M)>>,
    /// Reusable sender-partition table for the deliver phase.
    parts: Vec<Range<usize>>,
    /// Records delivered in the round in flight (0 after receive).
    delivered: usize,
}

impl<M: WireDecode + Send + Sync> FlatPlane<M> {
    /// An empty plane for an `n`-node graph. The fixed-size tables are
    /// allocated up front; arenas grow on first use and are reused after.
    pub fn new(n: usize) -> Self {
        Self {
            stages: Vec::new(),
            counts: vec![0; n],
            starts: vec![0; n + 1],
            cursors: Vec::with_capacity(n),
            inbox: Vec::new(),
            scratch: Vec::new(),
            parts: Vec::new(),
            delivered: 0,
        }
    }

    /// Nodes the plane was sized for.
    pub fn n(&self) -> usize {
        self.counts.len()
    }

    /// Stage-record stride in `u32` lanes.
    const fn rec_stride() -> usize {
        4 + M::LANES
    }

    /// Inbox-record stride in `u32` lanes.
    const fn inbox_stride() -> usize {
        1 + M::LANES
    }

    /// Fills `self.parts` with one contiguous sender chunk per effective
    /// thread (a single part at `threads = 1`). Any contiguous in-order
    /// partition gives the same inboxes — the scatter is stable over the
    /// concatenation. The table is reused across rounds — no allocation once
    /// warm.
    fn partition(&mut self, cfg: &ExecutorConfig, senders: usize) {
        let size = exec::chunk_size_for(senders, cfg.effective_threads());
        self.parts.clear();
        for c in 0..senders.div_ceil(size).max(1) {
            self.parts.push(c * size..((c + 1) * size).min(senders));
        }
    }

    /// Stages, charges and scatters one round of messages.
    ///
    /// `senders` lists the round's senders **in node order** with their
    /// per-sender payloads; `expand` turns one sender's payload into
    /// `(receiver, edge, msg)` emissions (calling the sink once per message,
    /// in the sender's emission order). Charges `msg.words()` words and the
    /// packed wire width (`4 × LANES` bytes) per message to `metrics`.
    pub fn deliver<S, F>(
        &mut self,
        cfg: &ExecutorConfig,
        senders: &[(NodeId, S)],
        expand: &F,
        metrics: &mut Metrics,
    ) where
        S: Sync,
        F: Fn(NodeId, &S, &mut dyn FnMut(NodeId, EdgeId, M)) + Sync,
    {
        debug_assert_eq!(self.delivered, 0, "deliver twice without receive");
        let stride = Self::rec_stride();
        self.partition(cfg, senders.len());
        let n_parts = self.parts.len();
        while self.stages.len() < n_parts {
            self.stages.push(Vec::new());
        }

        // 1. Stage: each partition packs its emissions into its own arena.
        let stage_into = |arena: &mut Vec<u32>, mine: &[(NodeId, S)]| {
            arena.clear();
            for (v, payload) in mine {
                expand(*v, payload, &mut |u, e, m| {
                    let base = arena.len();
                    arena.resize(base + stride, 0);
                    arena[base] = u.raw();
                    arena[base + 1] = v.raw();
                    arena[base + 2] = e.raw();
                    arena[base + 3] = m.words() as u32;
                    m.encode(&mut arena[base + 4..base + stride]);
                });
            }
        };
        let threads = cfg.effective_threads();
        if threads <= 1 || n_parts <= 1 {
            for (arena, part) in self.stages.iter_mut().zip(&self.parts) {
                stage_into(arena, &senders[part.clone()]);
            }
        } else {
            exec::pool_for(threads).scope(|sc| {
                let mut rest = self.stages.as_mut_slice();
                for part in &self.parts {
                    let (arena, tail) = rest.split_first_mut().expect("one arena per partition");
                    rest = tail;
                    let stage_into = &stage_into;
                    let mine = &senders[part.clone()];
                    sc.spawn(move |_| stage_into(arena, mine));
                }
            });
        }

        // 2. Count receivers and charge metrics, in global sender order.
        self.counts.fill(0);
        let bytes = 4 * M::LANES as u64;
        let mut total = 0usize;
        for arena in &self.stages[..n_parts] {
            for rec in arena.chunks_exact(stride) {
                metrics.add_messages_sized(EdgeId::from(rec[2]), u64::from(rec[3]), bytes);
                self.counts[rec[0] as usize] += 1;
                total += 1;
            }
        }

        // 3. Prefix offsets, then stable scatter into the inbox arena.
        let mut acc = 0u32;
        self.starts[0] = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            self.starts[i + 1] = acc;
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.starts[..self.n()]);
        let istride = Self::inbox_stride();
        self.inbox.clear();
        self.inbox.resize(total * istride, 0);
        for arena in &self.stages[..n_parts] {
            for rec in arena.chunks_exact(stride) {
                let u = rec[0] as usize;
                let slot = self.cursors[u] as usize;
                self.cursors[u] += 1;
                let base = slot * istride;
                self.inbox[base] = rec[1];
                self.inbox[base + 1..base + istride].copy_from_slice(&rec[4..]);
            }
        }
        self.delivered = total;
    }

    /// Decodes each non-empty inbox and applies `f(state, inbox)`, chunked
    /// over nodes like [`exec::map_chunks_mut2`]. Returns whether any node
    /// received.
    pub fn receive<St, F>(&mut self, cfg: &ExecutorConfig, states: &mut [St], f: F) -> bool
    where
        St: Send,
        F: Fn(&mut St, &[(NodeId, M)]) + Sync,
    {
        assert_eq!(states.len(), self.n(), "states must match the plane");
        if self.delivered == 0 {
            return false;
        }
        self.delivered = 0;
        let istride = Self::inbox_stride();
        let decode_range = |start: usize,
                            sts: &mut [St],
                            scratch: &mut Vec<(NodeId, M)>,
                            counts: &[u32],
                            starts: &[u32],
                            inbox: &[u32]| {
            for (off, st) in sts.iter_mut().enumerate() {
                let i = start + off;
                if counts[i] == 0 {
                    continue;
                }
                scratch.clear();
                for k in 0..counts[i] as usize {
                    let base = (starts[i] as usize + k) * istride;
                    scratch.push((
                        NodeId::from(inbox[base]),
                        M::decode(&inbox[base + 1..base + istride]),
                    ));
                }
                f(st, scratch);
            }
        };
        let threads = cfg.effective_threads();
        let n = states.len();
        if threads <= 1 || n <= 1 {
            if self.scratch.is_empty() {
                self.scratch.push(Vec::new());
            }
            decode_range(
                0,
                states,
                &mut self.scratch[0],
                &self.counts,
                &self.starts,
                &self.inbox,
            );
        } else {
            let size = exec::chunk_size_for(n, threads);
            let chunk_count = n.div_ceil(size);
            while self.scratch.len() < chunk_count {
                self.scratch.push(Vec::new());
            }
            let (counts, starts, inbox) = (&self.counts, &self.starts, &self.inbox);
            exec::pool_for(threads).scope(|sc| {
                let mut rest_states = states;
                let mut rest_scratch = self.scratch.as_mut_slice();
                let mut start = 0usize;
                while !rest_states.is_empty() {
                    let take = size.min(rest_states.len());
                    let (chunk, tail) = rest_states.split_at_mut(take);
                    rest_states = tail;
                    let (scr, scr_tail) = rest_scratch
                        .split_first_mut()
                        .expect("one scratch per chunk");
                    rest_scratch = scr_tail;
                    let decode_range = &decode_range;
                    let chunk_start = start;
                    sc.spawn(move |_| decode_range(chunk_start, chunk, scr, counts, starts, inbox));
                    start += take;
                }
            });
        }
        true
    }

    /// Sequential variant passing the node index, for observer hooks: applies
    /// `f(node, state, inbox)` to every node with a non-empty inbox, in node
    /// order. Returns whether any node received.
    pub fn receive_each_seq<St, F>(&mut self, states: &mut [St], mut f: F) -> bool
    where
        F: FnMut(usize, &mut St, &[(NodeId, M)]),
    {
        assert_eq!(states.len(), self.n(), "states must match the plane");
        if self.delivered == 0 {
            return false;
        }
        self.delivered = 0;
        if self.scratch.is_empty() {
            self.scratch.push(Vec::new());
        }
        let istride = Self::inbox_stride();
        let scratch = &mut self.scratch[0];
        for (i, st) in states.iter_mut().enumerate() {
            if self.counts[i] == 0 {
                continue;
            }
            scratch.clear();
            for k in 0..self.counts[i] as usize {
                let base = (self.starts[i] as usize + k) * istride;
                scratch.push((
                    NodeId::from(self.inbox[base]),
                    M::decode(&self.inbox[base + 1..base + istride]),
                ));
            }
            f(i, st, scratch);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Wire, WireEncode};
    use congest_graph::{generators, Graph};

    /// `receiver → [(sender, msg)]`, rounds concatenated.
    type Transcript = Vec<Vec<(NodeId, u64)>>;

    /// Every third node floods its ID over each incident edge.
    fn flood_senders(g: &Graph) -> Vec<(NodeId, u64)> {
        g.nodes()
            .filter(|v| v.index() % 3 == 0)
            .map(|v| (v, v.index() as u64))
            .collect()
    }

    fn flood(g: &Graph) -> impl Fn(NodeId, &u64, &mut dyn FnMut(NodeId, EdgeId, u64)) + Sync + '_ {
        |v, payload, sink| {
            for (e, u) in g.incident(v) {
                sink(u, e, *payload);
            }
        }
    }

    /// The reference the plane is pinned against: expand sender by sender and
    /// push each message straight into its receiver's `Vec` inbox.
    fn reference_rounds(g: &Graph, rounds: usize) -> (Metrics, Transcript) {
        let senders = flood_senders(g);
        let expand = flood(g);
        let bytes = 4 * <u64 as WireEncode>::LANES as u64;
        let mut metrics = Metrics::new(g.m());
        let mut inboxes: Transcript = vec![Vec::new(); g.n()];
        for _ in 0..rounds {
            for (v, p) in &senders {
                expand(*v, p, &mut |u, e, m| {
                    metrics.add_messages_sized(e, m.words() as u64, bytes);
                    inboxes[u.index()].push((*v, m));
                });
            }
        }
        (metrics, inboxes)
    }

    fn flat_rounds(g: &Graph, cfg: &ExecutorConfig, rounds: usize) -> (Metrics, Transcript) {
        let senders = flood_senders(g);
        let expand = flood(g);
        let mut metrics = Metrics::new(g.m());
        let mut plane: FlatPlane<u64> = FlatPlane::new(g.n());
        let mut transcript: Transcript = vec![Vec::new(); g.n()];
        for _ in 0..rounds {
            plane.deliver(cfg, &senders, &expand, &mut metrics);
            plane.receive(cfg, &mut transcript, |slot, inbox| {
                slot.extend_from_slice(inbox);
            });
        }
        (metrics, transcript)
    }

    #[test]
    fn flat_matches_the_push_loop_at_every_thread_count() {
        for g in [
            generators::gnp_connected(30, 0.2, 5),
            generators::star(17),
            generators::path(23),
        ] {
            let (base_m, base_t) = reference_rounds(&g, 2);
            for threads in [1, 2, 4, 7] {
                let (m, t) = flat_rounds(&g, &ExecutorConfig::with_threads(threads), 2);
                assert_eq!(base_m, m, "metrics at {threads} threads");
                assert_eq!(base_t, t, "inbox order at {threads} threads");
            }
        }
    }

    #[test]
    fn empty_round_is_free_and_receive_reports_false() {
        let cfg = ExecutorConfig::default();
        let mut plane: FlatPlane<u32> = FlatPlane::new(4);
        let expand = |_v: NodeId, _p: &u32, _s: &mut dyn FnMut(NodeId, EdgeId, u32)| {
            panic!("no senders, no expansion")
        };
        let mut metrics = Metrics::new(3);
        plane.deliver(&cfg, &[], &expand, &mut metrics);
        assert_eq!(metrics.messages, 0);
        let mut states = vec![0u32; 4];
        assert!(!plane.receive(&cfg, &mut states, |_st, _inbox| panic!(
            "nothing to receive"
        )));
    }
}
