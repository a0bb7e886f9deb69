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
//!    totals). A receiver's first record also enters it into a bitset, which
//!    is then drained into the round's ascending `receivers` list.
//! 3. *scatter* — a running sum over `receivers` gives each its slice of one
//!    flat inbox arena, and a second pass over the arenas moves each record to
//!    its receiver's slice. The scatter is stable, so each receiver sees its
//!    messages in global sender order — exactly what pushing `(sender, msg)`
//!    into per-node inboxes sender by sender would give (the reference this
//!    module's unit tests compare against).
//!
//! Only the round's receivers are ever touched: offsets are assigned over
//! `receivers`, [`FlatPlane::receive`] visits `receivers`, and their counts
//! are zeroed again afterwards, so a round costs `O(messages + n/64)` — not
//! `Θ(n)` — and the inbox arena is laid out exactly as a prefix sum over all
//! `n` counts would lay it out.
//!
//! All buffers — arenas, counts, cursors, the receiver list, inbox, per-chunk
//! decode scratch — live in the [`FlatPlane`] and are reused across rounds via
//! `clear()`, so once warm a steady-state round performs **zero heap
//! allocations** (pinned by `crates/engine/tests/alloc_regression.rs`).

use crate::agenda::NodeSet;
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
    /// Per-partition staging arenas; records of `3 + LANES` lanes:
    /// `[receiver, sender, edge, payload...]`, one message each.
    stages: Vec<Vec<u32>>,
    /// Per-receiver record counts (`n` entries): non-zero exactly for the
    /// receivers of a delivered, not yet received round.
    counts: Vec<u32>,
    /// Scatter cursors into the inbox arena, in record units (`n` entries,
    /// meaningful for the round's receivers only): a receiver's first slot
    /// before the scatter, one past its last after it.
    cursors: Vec<u32>,
    /// Receivers seen by the count pass, until drained into `receivers`.
    touched: NodeSet,
    /// The receivers of the last delivered round, ascending.
    receivers: Vec<u32>,
    /// The scattered inbox arena; records of `1 + LANES` lanes:
    /// `[sender, payload...]`, grouped by receiver in `receivers` order.
    inbox: Vec<u32>,
    /// Per-chunk decode buffers for the receive phase.
    scratch: Vec<Vec<(NodeId, M)>>,
    /// Reusable sender-partition table for the deliver phase.
    parts: Vec<Range<usize>>,
    /// Records delivered in the round in flight (0 after receive).
    delivered: usize,
}

/// Read-only view of one scattered round, shared by the receive tasks.
struct Scattered<'a> {
    counts: &'a [u32],
    cursors: &'a [u32],
    inbox: &'a [u32],
}

impl Scattered<'_> {
    /// Decodes receiver `u`'s inbox into `out` (cleared first), in sender order.
    fn decode<M: WireDecode + Send + Sync>(&self, u: usize, out: &mut Vec<(NodeId, M)>) {
        let istride = FlatPlane::<M>::inbox_stride();
        let end = self.cursors[u] as usize;
        out.clear();
        for slot in end - self.counts[u] as usize..end {
            let base = slot * istride;
            out.push((
                NodeId::from(self.inbox[base]),
                M::decode(&self.inbox[base + 1..base + istride]),
            ));
        }
    }
}

impl<M: WireDecode + Send + Sync> FlatPlane<M> {
    /// An empty plane for an `n`-node graph. The fixed-size tables are
    /// allocated up front; arenas grow on first use and are reused after.
    pub fn new(n: usize) -> Self {
        Self {
            stages: Vec::new(),
            counts: vec![0; n],
            cursors: vec![0; n],
            touched: NodeSet::new(n),
            receivers: Vec::new(),
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

    /// The nodes the last [`deliver`](Self::deliver) addressed at least one
    /// message to, ascending. Stays valid through the round's receive, until
    /// the next `deliver`.
    pub fn receivers(&self) -> &[u32] {
        &self.receivers
    }

    /// Stage-record stride in `u32` lanes.
    const fn rec_stride() -> usize {
        3 + M::LANES
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
    /// in the sender's emission order). Charges each message to `metrics` as one
    /// word of the packed wire width (`4 × LANES` bytes).
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
                    m.encode(&mut arena[base + 3..base + stride]);
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

        // 2. Count receivers and charge metrics, in global sender order. The
        //    counts are all zero on entry: the last receive zeroed its own.
        let bytes = 4 * M::LANES as u64;
        let mut total = 0usize;
        for arena in &self.stages[..n_parts] {
            for rec in arena.chunks_exact(stride) {
                metrics.add_messages_sized(EdgeId::from(rec[2]), 1, bytes);
                let u = rec[0] as usize;
                if self.counts[u] == 0 {
                    self.touched.insert(u);
                }
                self.counts[u] += 1;
                total += 1;
            }
        }

        // 3. Offsets over the ascending receiver list, then stable scatter
        //    into the inbox arena.
        self.receivers.clear();
        self.touched.drain_into(&mut self.receivers);
        let mut acc = 0u32;
        for &u in &self.receivers {
            self.cursors[u as usize] = acc;
            acc += self.counts[u as usize];
        }
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
                self.inbox[base + 1..base + istride].copy_from_slice(&rec[3..]);
            }
        }
        self.delivered = total;
    }

    /// Decodes each receiver's inbox and applies `f(state, inbox)`; in
    /// parallel the receiver list is cut at the bounds of one contiguous node
    /// range per thread, so each task owns its slice of `states`. Returns
    /// whether any node received.
    pub fn receive<St, F>(&mut self, cfg: &ExecutorConfig, states: &mut [St], f: F) -> bool
    where
        St: Send,
        F: Fn(&mut St, &[(NodeId, M)]) + Sync,
    {
        assert_eq!(states.len(), self.n(), "states must match the plane");
        if self.delivered == 0 {
            return false;
        }
        let round = Scattered {
            counts: &self.counts,
            cursors: &self.cursors,
            inbox: &self.inbox,
        };
        // `sts` is the node range starting at `start`; `mine` its receivers.
        let receive_range =
            |start: usize, sts: &mut [St], mine: &[u32], scratch: &mut Vec<(NodeId, M)>| {
                for &u in mine {
                    round.decode(u as usize, scratch);
                    f(&mut sts[u as usize - start], scratch);
                }
            };
        let threads = cfg.effective_threads();
        let n = states.len();
        let chunk_count = if threads <= 1 { 1 } else { threads.min(n) };
        while self.scratch.len() < chunk_count {
            self.scratch.push(Vec::new());
        }
        if chunk_count == 1 {
            receive_range(0, states, &self.receivers, &mut self.scratch[0]);
        } else {
            let size = exec::chunk_size_for(n, threads);
            exec::pool_for(threads).scope(|sc| {
                let mut rest_states = states;
                let mut rest_receivers = self.receivers.as_slice();
                let mut rest_scratch = self.scratch.as_mut_slice();
                let mut start = 0usize;
                while !rest_receivers.is_empty() {
                    let take = size.min(rest_states.len());
                    let (chunk, tail) = rest_states.split_at_mut(take);
                    rest_states = tail;
                    let cut = rest_receivers.partition_point(|&u| (u as usize) < start + take);
                    let (mine, later) = rest_receivers.split_at(cut);
                    rest_receivers = later;
                    let chunk_start = start;
                    start += take;
                    if mine.is_empty() {
                        continue;
                    }
                    let (scr, scr_tail) = rest_scratch
                        .split_first_mut()
                        .expect("one scratch per chunk");
                    rest_scratch = scr_tail;
                    let receive_range = &receive_range;
                    sc.spawn(move |_| receive_range(chunk_start, chunk, mine, scr));
                }
            });
        }
        self.finish_round();
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
        if self.scratch.is_empty() {
            self.scratch.push(Vec::new());
        }
        let round = Scattered {
            counts: &self.counts,
            cursors: &self.cursors,
            inbox: &self.inbox,
        };
        let scratch = &mut self.scratch[0];
        for &u in &self.receivers {
            round.decode(u as usize, scratch);
            f(u as usize, &mut states[u as usize], scratch);
        }
        self.finish_round();
        true
    }

    /// Marks the round received: zeroes the receivers' counts — and only
    /// theirs — so the next count pass starts from an all-zero table.
    fn finish_round(&mut self) {
        for &u in &self.receivers {
            self.counts[u as usize] = 0;
        }
        self.delivered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireEncode;
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

    /// Dense, sparse (one sender), dense: the middle round leaves most counts
    /// and cursors untouched, and the last one runs over tables the sparse
    /// round zeroed receiver by receiver.
    fn sender_sets(g: &Graph) -> [Vec<(NodeId, u64)>; 3] {
        let dense = flood_senders(g);
        let lone = NodeId::new(g.n() / 2);
        [dense.clone(), vec![(lone, 99)], dense]
    }

    /// The reference the plane is pinned against: expand sender by sender and
    /// push each message straight into its receiver's `Vec` inbox.
    fn reference_rounds(g: &Graph) -> (Metrics, Transcript) {
        let expand = flood(g);
        let bytes = 4 * <u64 as WireEncode>::LANES as u64;
        let mut metrics = Metrics::new(g.m());
        let mut inboxes: Transcript = vec![Vec::new(); g.n()];
        for senders in sender_sets(g) {
            for (v, p) in &senders {
                expand(*v, p, &mut |u, e, m| {
                    metrics.add_messages_sized(e, 1, bytes);
                    inboxes[u.index()].push((*v, m));
                });
            }
        }
        (metrics, inboxes)
    }

    fn flat_rounds(g: &Graph, cfg: &ExecutorConfig) -> (Metrics, Transcript) {
        let expand = flood(g);
        let mut metrics = Metrics::new(g.m());
        let mut plane: FlatPlane<u64> = FlatPlane::new(g.n());
        let mut transcript: Transcript = vec![Vec::new(); g.n()];
        for senders in sender_sets(g) {
            plane.deliver(cfg, &senders, &expand, &mut metrics);
            let mut addressed: Vec<u32> = senders
                .iter()
                .flat_map(|(v, _)| g.incident(*v).map(|(_, u)| u.raw()))
                .collect();
            addressed.sort_unstable();
            addressed.dedup();
            assert_eq!(plane.receivers(), addressed, "receivers, ascending");
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
            let (base_m, base_t) = reference_rounds(&g);
            for threads in [1, 2, 4, 7] {
                let (m, t) = flat_rounds(&g, &ExecutorConfig::with_threads(threads));
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
