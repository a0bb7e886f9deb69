//! The flat message plane: typed round arenas, the round buffer the direct
//! runner delivers through.
//!
//! Pushing a typed tuple per in-flight message into its receiver's `Vec`
//! inbox makes allocator traffic dominate the round loop at n = 10⁵–10⁶.
//! [`FlatPlane`] instead stages every emission of a round as one record
//! `(receiver, sender, edge, msg)` in per-partition arenas, then scatters the
//! records to receivers with a **stable counting sort**:
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
//!    flat inbox arena, and a second pass moves each record's `(sender, msg)`
//!    out of the arenas into its receiver's slice. The scatter is stable, so
//!    each receiver sees its messages in global sender order — exactly what
//!    pushing `(sender, msg)` into per-node inboxes sender by sender would
//!    give (the reference this module's unit tests compare against).
//!    [`FlatPlane::receive`] hands each receiver its slice as is.
//!
//! Only the round's receivers are ever touched: offsets are assigned over
//! `receivers`, [`FlatPlane::receive`] visits `receivers`, and their counts
//! are zeroed again afterwards, so a round costs `O(messages + n/64)` — not
//! `Θ(n)` — and the inbox arena is laid out exactly as a prefix sum over all
//! `n` counts would lay it out.
//!
//! Each message is charged one word and `4 × LANES` bytes, its
//! [`WireEncode`] width; the plane never encodes it.
//!
//! All buffers — arenas, counts, cursors, the receiver list, the inbox — live
//! in the [`FlatPlane`] and are reused across rounds. The inbox only grows, in
//! a round larger than any before it, so once warm a steady-state round
//! performs **zero heap allocations** (pinned by
//! `crates/engine/tests/alloc_regression.rs`).

use crate::agenda::NodeSet;
use crate::exec::{self, ExecutorConfig};
use crate::faults::SurvivorMask;
use crate::metrics::Metrics;
use crate::wire::WireEncode;
use congest_graph::{EdgeId, Graph, NodeId};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// One staged message: `(receiver, sender, edge, msg)`.
type Staged<M> = (u32, NodeId, EdgeId, M);

/// Reusable flat round buffers for messages of type `M`.
///
/// One value serves one run: construct with [`FlatPlane::new`] for the graph's
/// node count, then alternate [`FlatPlane::deliver`] / [`FlatPlane::receive`]
/// once per round. See the module docs for the layout and the order argument.
#[derive(Debug)]
pub struct FlatPlane<M: WireEncode> {
    /// Per-partition staging arenas, one record per message; emptied by the
    /// scatter.
    stages: Vec<Vec<Staged<M>>>,
    /// Per-receiver record counts (`n` entries): non-zero exactly for the
    /// receivers of a delivered, not yet received round.
    counts: Vec<u32>,
    /// Scatter cursors into the inbox arena (`n` entries, meaningful for the
    /// round's receivers only): a receiver's first slot before the scatter,
    /// one past its last after it.
    cursors: Vec<u32>,
    /// Receivers seen by the count pass, until drained into `receivers`.
    touched: NodeSet,
    /// The receivers of the last delivered round, ascending.
    receivers: Vec<u32>,
    /// The scattered inbox arena: `(sender, msg)`, grouped by receiver in
    /// `receivers` order. Grow-only; the round fills its first `delivered`
    /// slots.
    inbox: Vec<(NodeId, M)>,
    /// Reusable sender-partition table for the deliver phase.
    parts: Vec<Range<usize>>,
    /// Records delivered in the round in flight (0 after receive).
    delivered: usize,
}

impl<M: WireEncode + Send + Sync> FlatPlane<M> {
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

    /// Receiver `u`'s inbox in the round in flight, in sender order.
    fn inbox_of(&self, u: usize) -> &[(NodeId, M)] {
        let end = self.cursors[u] as usize;
        &self.inbox[end - self.counts[u] as usize..end]
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

    /// Stages, charges and scatters one round of broadcasts.
    ///
    /// `senders` lists the round's broadcasts **in node order**; each crosses
    /// every edge incident to its sender in `g`, in [`Graph::incident`] order.
    /// A message over an edge `mask` has down, or to a receiver it has
    /// crashed, is dropped here: never delivered, never charged, only counted
    /// in `metrics.dropped_messages` (`u64` addition commutes, so the count is
    /// thread-order-free). Charges each delivered message to `metrics` as one
    /// word of `4 × LANES` bytes.
    pub fn deliver(
        &mut self,
        cfg: &ExecutorConfig,
        g: &Graph,
        senders: &[(NodeId, M)],
        mask: Option<&SurvivorMask>,
        metrics: &mut Metrics,
    ) {
        debug_assert_eq!(self.delivered, 0, "deliver twice without receive");
        self.partition(cfg, senders.len());
        let n_parts = self.parts.len();
        while self.stages.len() < n_parts {
            self.stages.push(Vec::new());
        }

        // 1. Stage: each partition appends its messages to its own arena,
        //    which the last scatter left empty.
        let dropped = AtomicU64::new(0);
        let stage_into = |arena: &mut Vec<Staged<M>>, mine: &[(NodeId, M)]| {
            for (v, msg) in mine {
                for (e, u) in g.incident(*v) {
                    if mask.is_some_and(|m| !m.edge_up[e.index()] || !m.node_up[u.index()]) {
                        dropped.fetch_add(1, Ordering::Relaxed);
                    } else {
                        arena.push((u.raw(), *v, e, msg.clone()));
                    }
                }
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
        metrics.dropped_messages += dropped.into_inner();

        // 2. Count receivers and charge metrics, in global sender order. The
        //    counts are all zero on entry: the last receive zeroed its own.
        let bytes = 4 * M::LANES as u64;
        let mut total = 0usize;
        for arena in &self.stages[..n_parts] {
            for &(u, _, e, _) in arena {
                metrics.add_messages_sized(e, 1, bytes);
                let u = u as usize;
                if self.counts[u] == 0 {
                    self.touched.insert(u);
                }
                self.counts[u] += 1;
                total += 1;
            }
        }

        // 3. Offsets over the ascending receiver list, then stable scatter
        //    into the inbox arena, which grows only past its largest round.
        self.receivers.clear();
        self.touched.drain_into(&mut self.receivers);
        let mut acc = 0u32;
        for &u in &self.receivers {
            self.cursors[u as usize] = acc;
            acc += self.counts[u as usize];
        }
        if total > self.inbox.len() {
            let (_, v, _, m) = self.stages[..n_parts]
                .iter()
                .find_map(|arena| arena.first())
                .expect("a round with messages staged one");
            self.inbox.resize(total, (*v, m.clone()));
        }
        for arena in &mut self.stages[..n_parts] {
            for (u, v, _, m) in arena.drain(..) {
                let slot = &mut self.cursors[u as usize];
                self.inbox[*slot as usize] = (v, m);
                *slot += 1;
            }
        }
        self.delivered = total;
    }

    /// Applies `f(state, inbox)` to each receiver; in parallel the receiver
    /// list is cut at the bounds of one contiguous node range per thread, so
    /// each task owns its slice of `states`. Returns whether any node
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
        let this = &*self;
        // `sts` is the node range starting at `start`; `mine` its receivers.
        let receive_range = |start: usize, sts: &mut [St], mine: &[u32]| {
            for &u in mine {
                f(&mut sts[u as usize - start], this.inbox_of(u as usize));
            }
        };
        let threads = cfg.effective_threads();
        let n = states.len();
        if threads <= 1 || n <= 1 {
            receive_range(0, states, &this.receivers);
        } else {
            let size = exec::chunk_size_for(n, threads);
            exec::pool_for(threads).scope(|sc| {
                let mut rest_states = states;
                let mut rest_receivers = this.receivers.as_slice();
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
                    let receive_range = &receive_range;
                    sc.spawn(move |_| receive_range(chunk_start, chunk, mine));
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
        for &u in &self.receivers {
            f(
                u as usize,
                &mut states[u as usize],
                self.inbox_of(u as usize),
            );
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
    use congest_graph::{generators, Graph};

    /// `receiver → [(sender, msg)]`, rounds concatenated.
    type Transcript<M> = Vec<Vec<(NodeId, M)>>;

    /// A payload with variants of different shapes, so the scatter moves
    /// values of one type but not one layout.
    #[derive(Clone, Debug, PartialEq)]
    enum Shaped {
        Id(u64),
        Pair(u32, EdgeId),
        Mark,
    }

    impl WireEncode for Shaped {
        const LANES: usize = 3;
        fn encode(&self, out: &mut [u32]) {
            match *self {
                Shaped::Id(p) => {
                    out[0] = 0;
                    p.encode(&mut out[1..]);
                }
                Shaped::Pair(a, e) => {
                    out[0] = 1;
                    out[1] = a;
                    out[2] = e.raw();
                }
                Shaped::Mark => out.copy_from_slice(&[2, 0, 0]),
            }
        }
    }

    /// Sender `p`'s message: the variant cycles with `p`.
    fn shaped(p: u64) -> Shaped {
        match p % 3 {
            0 => Shaped::Id(p),
            1 => Shaped::Pair(p as u32, EdgeId::new(p as usize)),
            _ => Shaped::Mark,
        }
    }

    /// Every third node broadcasts `msg` of its ID.
    fn flood_senders<M>(g: &Graph, msg: fn(u64) -> M) -> Vec<(NodeId, M)> {
        g.nodes()
            .filter(|v| v.index() % 3 == 0)
            .map(|v| (v, msg(v.index() as u64)))
            .collect()
    }

    /// Dense, sparse (one sender), dense: the middle round leaves most counts
    /// and cursors untouched, and the last one runs over tables the sparse
    /// round zeroed receiver by receiver.
    fn sender_sets<M: Clone>(g: &Graph, msg: fn(u64) -> M) -> [Vec<(NodeId, M)>; 3] {
        let dense = flood_senders(g, msg);
        let lone = NodeId::new(g.n() / 2);
        [dense.clone(), vec![(lone, msg(99))], dense]
    }

    /// Node 1 crashed and every fifth edge down.
    fn faulty(g: &Graph) -> SurvivorMask {
        let mut mask = SurvivorMask::all_up(g);
        mask.node_up[1] = false;
        for (e, up) in mask.edge_up.iter_mut().enumerate() {
            *up = e % 5 != 0;
        }
        mask
    }

    /// The reference the plane is pinned against: sender by sender, push each
    /// broadcast over every incident edge the mask allows straight into its
    /// receiver's `Vec` inbox, and count the rest.
    fn reference_rounds<M: WireEncode>(
        g: &Graph,
        msg: fn(u64) -> M,
        mask: Option<&SurvivorMask>,
    ) -> (Metrics, Transcript<M>) {
        let bytes = 4 * M::LANES as u64;
        let mut metrics = Metrics::new(g.m());
        let mut inboxes: Transcript<M> = vec![Vec::new(); g.n()];
        for senders in sender_sets(g, msg) {
            for (v, m) in &senders {
                for (e, u) in g.incident(*v) {
                    if mask.is_some_and(|k| !k.edge_up[e.index()] || !k.node_up[u.index()]) {
                        metrics.dropped_messages += 1;
                    } else {
                        metrics.add_messages_sized(e, 1, bytes);
                        inboxes[u.index()].push((*v, m.clone()));
                    }
                }
            }
        }
        (metrics, inboxes)
    }

    fn flat_rounds<M: WireEncode + Send + Sync>(
        g: &Graph,
        msg: fn(u64) -> M,
        mask: Option<&SurvivorMask>,
        cfg: &ExecutorConfig,
    ) -> (Metrics, Transcript<M>) {
        let mut metrics = Metrics::new(g.m());
        let mut plane: FlatPlane<M> = FlatPlane::new(g.n());
        let mut transcript: Transcript<M> = vec![Vec::new(); g.n()];
        for senders in sender_sets(g, msg) {
            plane.deliver(cfg, g, &senders, mask, &mut metrics);
            let mut addressed: Vec<u32> = senders
                .iter()
                .flat_map(|(v, _)| g.incident(*v))
                .filter(|&(e, u)| mask.is_none_or(|k| k.edge_up[e.index()] && k.node_up[u.index()]))
                .map(|(_, u)| u.raw())
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

    fn flat_matches_the_push_loop<M: WireEncode + Send + Sync>(msg: fn(u64) -> M) {
        for g in [
            generators::gnp_connected(30, 0.2, 5),
            generators::star(17),
            generators::path(23),
        ] {
            let mask = faulty(&g);
            for mask in [None, Some(&mask)] {
                let (base_m, base_t) = reference_rounds(&g, msg, mask);
                assert_eq!(base_m.dropped_messages > 0, mask.is_some());
                for threads in [1, 2, 4, 7] {
                    let cfg = ExecutorConfig::with_threads(threads);
                    let (m, t) = flat_rounds(&g, msg, mask, &cfg);
                    assert_eq!(base_m, m, "metrics at {threads} threads");
                    assert_eq!(base_t, t, "inbox order at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn flat_matches_the_push_loop_at_every_thread_count() {
        flat_matches_the_push_loop(|p| p);
        flat_matches_the_push_loop(shaped);
    }

    #[test]
    fn empty_round_is_free_and_receive_reports_false() {
        let cfg = ExecutorConfig::default();
        let g = generators::path(4);
        let mut plane: FlatPlane<u32> = FlatPlane::new(4);
        let mut metrics = Metrics::new(3);
        plane.deliver(&cfg, &g, &[], None, &mut metrics);
        assert_eq!(metrics, Metrics::new(3));
        let mut states = vec![0u32; 4];
        assert!(!plane.receive(&cfg, &mut states, |_st, _inbox| panic!(
            "nothing to receive"
        )));
    }
}
