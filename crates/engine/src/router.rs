//! Store-and-forward packet routing under CONGEST capacity.
//!
//! Every directed edge carries at most one word per round; packets queue FIFO. This is
//! the execution substrate behind the Leighton–Maggs–Rao-style accounting the paper
//! leans on (Theorem 1.3): a real schedule is produced and measured, so routed rounds
//! reflect `O(congestion + dilation)` behaviour rather than assuming it.
//!
//! The [`Router`] has one input, a phase of [`Cast`]s, and one output, the
//! [`Metrics`] of its schedule; [`route_casts`](crate::treeops::route_casts),
//! [`upcast`](crate::treeops::upcast) and [`downcast`](crate::treeops::downcast)
//! (a phase of one cast) are its callers. A cast becomes tasks in a flat task
//! table — per task its directed-edge sequence, its prerequisite tasks and its
//! release round — and the table becomes one FIFO schedule.

use crate::error::EngineError;
use crate::metrics::Metrics;
use crate::treeops::{Cast, Forest};
use congest_graph::{EdgeId, Graph, NodeId};

/// "No packet" in the intrusive queues; also why a phase holds at most
/// `u32::MAX − 1` packets.
const NIL: u32 = u32::MAX;

/// Converts a table size to the workspace's `u32` index type.
///
/// # Errors
///
/// [`EngineError::BatchTooLarge`] if `count` exceeds `u32::MAX − 1` (`u32::MAX` is
/// the [`NIL`] sentinel).
fn index_u32(count: usize, what: &'static str) -> Result<u32, EngineError> {
    u32::try_from(count)
        .ok()
        .filter(|&c| c != NIL)
        .ok_or(EngineError::BatchTooLarge { what })
}

/// `2m`, the length of the per-directed-edge columns of a graph with `m` edges.
///
/// # Errors
///
/// [`EngineError::BatchTooLarge`] (`"directed edges"`) if `2m ≥ u32::MAX`.
fn directed_edge_count(m: usize) -> Result<usize, EngineError> {
    let directed_edges = m.saturating_mul(2);
    index_u32(directed_edges, "directed edges")?;
    Ok(directed_edges)
}

/// The directed-edge index of `e` traversed from `from`: `2e` for the canonical
/// `u → v` direction (`u < v`), `2e + 1` for `v → u`.
#[inline]
fn directed(g: &Graph, e: EdgeId, from: NodeId) -> u32 {
    2 * e.raw() + u32::from(g.endpoints(e).0 != from)
}

/// One intrusive FIFO of packets per directed edge. An edge is active iff its
/// queue is non-empty, so `head` doubles as the activity flag; every queue is empty
/// again when a schedule finishes, so nothing is reset between phases.
#[derive(Debug)]
struct Queues {
    /// Per directed edge: first queued packet, [`NIL`] when empty.
    head: Vec<u32>,
    /// Per directed edge: last queued packet; stale while the queue is empty.
    tail: Vec<u32>,
    /// Per packet: the packet queued behind it, [`NIL`] at the tail.
    next: Vec<u32>,
}

impl Queues {
    /// Appends packet `p` to edge `d`'s queue; `true` if the queue was empty.
    #[inline]
    fn push(&mut self, d: u32, p: u32) -> bool {
        self.next[p as usize] = NIL;
        let was_empty = self.head[d as usize] == NIL;
        if was_empty {
            self.head[d as usize] = p;
        } else {
            self.next[self.tail[d as usize] as usize] = p;
        }
        self.tail[d as usize] = p;
        was_empty
    }

    /// Removes the first packet of edge `d`'s (non-empty) queue; the flag is `true`
    /// if that emptied it.
    #[inline]
    fn pop(&mut self, d: u32) -> (u32, bool) {
        let p = self.head[d as usize];
        debug_assert_ne!(p, NIL, "active queues are non-empty");
        self.head[d as usize] = self.next[p as usize];
        (p, self.head[d as usize] == NIL)
    }
}

/// The reusable routing workspace of one graph (see the module docs of
/// [`treeops`](crate::treeops) for what it routes).
///
/// A simulation, an MST run or a landmark phase creates one from its graph and
/// hands it to every [`upcast`](crate::treeops::upcast) /
/// [`downcast`](crate::treeops::downcast) /
/// [`route_casts`](crate::treeops::route_casts) call. The workspace keeps,
/// across calls: the per-directed-edge FIFO `head`/`tail` tables and the
/// `planned` and `lead` tables (sized `2m` once), the per-node barrier tables
/// (sized `n` once), the packet arena, the flat task table and the per-round
/// `active`/`moving` lists. Nothing `2m`-sized is cleared between calls —
/// every queue is empty again when a schedule finishes, and `planned` and
/// `lead` are zeroed by re-walking what touched them — so a phase costs
/// `O(tasks + word-hops + Σ_rounds active edges)` work plus the `Θ(m)`
/// congestion vector of the [`Metrics`] it returns, and a warm workspace
/// allocates only that vector.
///
/// Index columns are `u32`. Sizes that do not fit are **rejected, never wrapped**:
/// [`Router::new`] fails on a graph with `2m ≥ u32::MAX` directed edges, and a
/// phase with more than `u32::MAX − 1` words (one packet each) or task hops fails
/// with [`EngineError::BatchTooLarge`] before anything is queued.
#[derive(Debug)]
pub struct Router<'g> {
    g: &'g Graph,
    queues: Queues,
    /// Per directed edge: whether some task sends words across it, so that
    /// its lead words (if any) cannot be settled in closed form; all `false`
    /// between calls, and only filled when the phase has lead words.
    planned: Vec<bool>,
    /// Every task's directed-edge sequence, concatenated; task `t` owns
    /// `seq[seq_off[t]..seq_off[t + 1]]`.
    seq: Vec<u32>,
    seq_off: Vec<u32>,
    /// Per task: words still in flight (0 for local and zero-word tasks), and
    /// the phase's word total, lead words included.
    outstanding: Vec<u32>,
    packets: u64,
    /// Every task's prerequisites, earlier tasks, concatenated; task `t` owns
    /// `after[after_off[t]..after_off[t + 1]]`. A task completes when its
    /// last word arrives, or, with nothing to send, when it is released.
    /// Round 0 releases the tasks without a prerequisite; every other task is
    /// released in the round its last prerequisite completes, after that
    /// round's arrivals, and sends from the next round on.
    after: Vec<u32>,
    after_off: Vec<u32>,
    /// Per task: its prerequisites not yet completed.
    pending: Vec<u32>,
    /// The tasks naming each task as prerequisite, in task order; task `t`'s
    /// are `dependents[dependents_off[t]..dependents_off[t + 1]]`.
    dependents: Vec<u32>,
    dependents_off: Vec<u32>,
    /// The tasks completed this round whose dependents are still to be
    /// counted down, in completion order (`tasks` stands for round 0's
    /// tasks, the ones without a prerequisite, and `tasks + 1` for the
    /// release rounds due this round).
    releasing: Vec<u32>,
    /// `(round, task)` per task that also waits for a release round (see
    /// [`Router::route_casts`]); sorted when the schedule runs.
    timers: Vec<(u64, u32)>,
    /// [`Router::route_casts`]' bookkeeping. Per awaited item, in task order,
    /// `(node its words end at, task, round)`: its task, or for an awaited
    /// lead cast one entry per far end, [`NIL`] and the round the last lead
    /// word is in there; cast `c`'s at `ends[cast_off[c]..cast_off[c + 1]]`.
    /// While a cast is added: the items it waits for as intrusive lists,
    /// `(next, end)` entries of `awaited` (`end` indexing `ends`) headed per
    /// end node by `waits_at`; per node, its barrier task (for a lead cast,
    /// its entry in `ends`); and the nodes with one. Both per-node columns
    /// are [`NIL`] outside a call.
    ends: Vec<(u32, u32, u32)>,
    cast_off: Vec<u32>,
    awaited: Vec<(u32, u32)>,
    waits_at: Vec<u32>,
    barrier_at: Vec<u32>,
    barriers: Vec<u32>,
    /// Per directed edge: the words of lead hops queued ahead of every task
    /// on it, all zero between calls; and the edges with some, in order of
    /// their first lead hop.
    lead: Vec<u32>,
    lead_edges: Vec<u32>,
    /// Packet arena (parallel to `queues.next`).
    pkts: Vec<Packet>,
    /// Directed edges with a non-empty queue, in activation order, and the packets
    /// that crossed an edge this round and go on, in send order.
    active: Vec<u32>,
    moving: Vec<u32>,
}

/// Words queued on one directed edge: their `task` and the `seq` position of
/// the hop they wait to cross. A packet is one word, except that a task of
/// one hop queues all its words as one packet (its `outstanding` words), and
/// a lead packet (task [`NIL`]) holds its edge's `lead` words: words queued
/// together stay together, since nothing can be queued between them, and
/// leave one per round.
#[derive(Clone, Copy, Debug)]
struct Packet {
    task: u32,
    at: u32,
}

impl<'g> Router<'g> {
    /// A workspace for routing over `g`: `Θ(n + m)` once, reused by every call.
    ///
    /// # Errors
    ///
    /// [`EngineError::BatchTooLarge`] (`"directed edges"`) if `g` has
    /// `2m ≥ u32::MAX` directed edges.
    pub fn new(g: &'g Graph) -> Result<Self, EngineError> {
        let directed_edges = directed_edge_count(g.m())?;
        Ok(Self {
            g,
            queues: Queues {
                head: vec![NIL; directed_edges],
                tail: vec![NIL; directed_edges],
                next: Vec::new(),
            },
            planned: vec![false; directed_edges],
            lead: vec![0; directed_edges],
            seq: Vec::new(),
            seq_off: Vec::new(),
            outstanding: Vec::new(),
            packets: 0,
            after: Vec::new(),
            after_off: Vec::new(),
            pending: Vec::new(),
            dependents: Vec::new(),
            dependents_off: Vec::new(),
            releasing: Vec::new(),
            timers: Vec::new(),
            ends: Vec::new(),
            cast_off: Vec::new(),
            awaited: Vec::new(),
            waits_at: vec![NIL; g.n()],
            barrier_at: vec![NIL; g.n()],
            barriers: Vec::new(),
            lead_edges: Vec::new(),
            pkts: Vec::new(),
            active: Vec::new(),
            moving: Vec::new(),
        })
    }

    /// The graph this workspace routes over.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Routes [`route_casts`](crate::treeops::route_casts)' phase and returns
    /// the metrics of its schedule. The hops of
    /// a cast that neither waits nor climbs are *lead* hops: no tasks, only
    /// words counted per directed edge and queued there ahead of every task, so
    /// a lead hop's words are in by the round its last word's place on its
    /// edge says. Every other cast's items are tasks, cast by cast and each
    /// cast's in its own order; a climbing hop's task goes on up the far end's
    /// tree path and ends at its root. An item whose start node some awaited item
    /// ends at waits behind that node's *barrier*, a local word-less task
    /// added just before the cast's first item starting there, whose
    /// prerequisites are those awaited items' tasks and whose release round
    /// is the last round those lead hops' words arrive in.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidParameter`] if a cast waits for itself or a later
    /// cast; [`EngineError::InvalidPath`] naming the first cast (not the item)
    /// with a hop whose edge is not incident to its owner;
    /// [`EngineError::BatchTooLarge`] if the phase outgrows the `u32` index
    /// columns. Either way the workspace is left clean for the next call.
    pub(crate) fn route_casts(&mut self, casts: &[Cast<'_>]) -> Result<Metrics, EngineError> {
        self.begin();
        for (c, cast) in casts.iter().enumerate() {
            let after = cast.after();
            if let Some(&a) = after.iter().find(|&&a| a >= c) {
                return Err(EngineError::InvalidParameter {
                    what: "cast",
                    reason: format!("cast {c} waits for cast {a}, which does not precede it"),
                });
            }
            // The awaited items, as one list per node they end at.
            self.awaited.clear();
            for &a in after {
                for i in self.cast_off[a]..self.cast_off[a + 1] {
                    let end = self.ends[i as usize].0 as usize;
                    self.awaited.push((self.waits_at[end], i));
                    self.waits_at[end] = (self.awaited.len() - 1) as u32;
                }
            }
            // Only the items some later cast waits for need their ends kept.
            let awaited = casts[c + 1..]
                .iter()
                .any(|later| later.after().contains(&c));
            let built = match cast {
                Cast::Hop {
                    items, up: None, ..
                } if after.is_empty() => self.push_lead_hops(c, items, awaited),
                _ => self.push_cast_tasks(c, cast, awaited),
            };
            // Forget the lists and barriers, after an error too.
            for &a in after {
                for i in self.cast_off[a]..self.cast_off[a + 1] {
                    self.waits_at[self.ends[i as usize].0 as usize] = NIL;
                }
            }
            for &s in &self.barriers {
                self.barrier_at[s as usize] = NIL;
            }
            self.barriers.clear();
            built?;
            self.cast_off.push(self.ends.len() as u32);
        }
        self.schedule()
    }

    /// Adds cast `c`'s barriers and items to the task table, the awaited items
    /// listed per node in `waits_at`, keeping the items' ends if `awaited`.
    /// Barriers stay marked in `barrier_at` (and listed in `barriers`), an
    /// error or not; the caller forgets them.
    fn push_cast_tasks(
        &mut self,
        c: usize,
        cast: &Cast<'_>,
        awaited: bool,
    ) -> Result<(), EngineError> {
        let waits = !self.awaited.is_empty();
        match cast {
            Cast::Up { forest, items, .. } => {
                for &(v, words) in items {
                    self.open_item(v, waits);
                    self.push_tree_path(forest, v, false);
                    self.close_item(v, forest.root_of(v), words, awaited);
                }
            }
            Cast::Down { forest, items, .. } => {
                for &(v, words) in items {
                    let root = forest.root_of(v);
                    self.open_item(root, waits);
                    self.push_tree_path(forest, v, true);
                    self.close_item(root, v, words, awaited);
                }
            }
            Cast::Hop { items, up, .. } => {
                for &(owner, e, words) in items {
                    let (far, d) = self
                        .hop(owner, e)
                        .ok_or(EngineError::InvalidPath { task: c })?;
                    self.open_item(owner, waits);
                    self.seq.push(d);
                    let end = match up {
                        Some(forest) => {
                            self.push_tree_path(forest, far, false);
                            forest.root_of(far)
                        }
                        None => far,
                    };
                    self.close_item(owner, end, words, awaited);
                }
            }
        }
        Ok(())
    }

    /// Counts cast `c`'s hops as lead words on their directed edges, keeping,
    /// if `awaited`, per far end the round the last of them is in there.
    fn push_lead_hops(
        &mut self,
        c: usize,
        items: &[(NodeId, EdgeId, usize)],
        awaited: bool,
    ) -> Result<(), EngineError> {
        for &(owner, e, words) in items {
            let (far, d) = self
                .hop(owner, e)
                .ok_or(EngineError::InvalidPath { task: c })?;
            let lead = &mut self.lead[d as usize];
            if words > 0 && *lead == 0 {
                self.lead_edges.push(d);
            }
            // Truncation is caught with the word total in `schedule`.
            *lead = lead.wrapping_add(words as u32);
            self.packets += words as u64;
            if awaited {
                // One entry per far end, for the last round anything arrives
                // there; `barrier_at` points at it while the cast is added.
                let round = if words > 0 { *lead } else { 0 };
                match self.barrier_at[far.index()] {
                    NIL => {
                        self.barrier_at[far.index()] = self.ends.len() as u32;
                        self.barriers.push(far.raw());
                        self.ends.push((far.raw(), NIL, round));
                    }
                    entry => {
                        let in_by = &mut self.ends[entry as usize].2;
                        *in_by = (*in_by).max(round);
                    }
                }
            }
        }
        Ok(())
    }

    /// Before an item leaving `start`: if `waits` and an awaited item ends at
    /// `start`, adds `start`'s barrier unless the cast already has it.
    #[inline]
    fn open_item(&mut self, start: NodeId, waits: bool) {
        let s = start.index();
        if !waits || self.barrier_at[s] != NIL {
            return;
        }
        let mut wait = self.waits_at[s];
        if wait == NIL {
            return;
        }
        let barrier = self.outstanding.len() as u32;
        self.barrier_at[s] = barrier;
        self.barriers.push(s as u32);
        let mut release = 0;
        while wait != NIL {
            let (next, end) = self.awaited[wait as usize];
            match self.ends[end as usize] {
                (_, NIL, round) => release = release.max(round),
                (_, task, _) => self.after.push(task),
            }
            wait = next;
        }
        if release > 0 {
            self.timers.push((u64::from(release), barrier));
        }
        self.end_task(0);
    }

    /// Closes an item whose path was just pushed: behind `start`'s barrier if
    /// it has one, its end kept if `awaited`.
    #[inline]
    fn close_item(&mut self, start: NodeId, end: NodeId, words: usize, awaited: bool) {
        let barrier = self.barrier_at[start.index()];
        if barrier != NIL {
            self.after.push(barrier);
        }
        if awaited {
            self.ends
                .push((end.raw(), self.outstanding.len() as u32, 0));
        }
        self.end_task(words);
    }

    /// The end of edge `e` other than `owner` and the directed edge leaving
    /// `owner` along `e`, or `None` if `e` is not an edge incident to `owner`.
    fn hop(&self, owner: NodeId, e: EdgeId) -> Option<(NodeId, u32)> {
        let (u, v) = (e.index() < self.g.m()).then(|| self.g.endpoints(e))?;
        match (u == owner, v == owner) {
            (true, _) => Some((v, 2 * e.raw())),
            (false, true) => Some((u, 2 * e.raw() + 1)),
            (false, false) => None,
        }
    }

    /// Appends `v`'s tree path in `forest` to `seq`: `v` → root, or root → `v`
    /// if `down`.
    fn push_tree_path(&mut self, forest: &Forest, v: NodeId, down: bool) {
        let start = self.seq.len();
        let mut cur = v;
        while let (Some(p), Some(e)) = (forest.parent(cur), forest.parent_edge(cur)) {
            // A downcast crosses the same edge the other way: flip the low bit.
            self.seq.push(directed(self.g, e, cur) ^ u32::from(down));
            cur = p;
        }
        if down {
            self.seq[start..].reverse();
        }
    }

    /// Starts a phase: empties the per-phase task table. Everything a failed phase
    /// can have touched is reset here, so an error leaves nothing behind.
    fn begin(&mut self) {
        self.seq.clear();
        self.seq_off.clear();
        self.seq_off.push(0);
        self.outstanding.clear();
        self.after.clear();
        self.after_off.clear();
        self.after_off.push(0);
        self.timers.clear();
        self.ends.clear();
        self.cast_off.clear();
        self.cast_off.push(0);
        for &d in &self.lead_edges {
            self.lead[d as usize] = 0;
        }
        self.lead_edges.clear();
        self.packets = 0;
    }

    /// Closes the task whose hops were just pushed onto `seq` and whose
    /// prerequisites (earlier tasks) onto `after`. Sizes are checked once the
    /// table is complete, before anything is queued (see [`Router::schedule`]).
    fn end_task(&mut self, words: usize) {
        debug_assert!(
            self.after[*self.after_off.last().expect("starts at 0") as usize..]
                .iter()
                .all(|&a| (a as usize) < self.outstanding.len()),
            "a prerequisite precedes its task"
        );
        let end = self.seq.len() as u32;
        let words = if self.seq_off.last() == Some(&end) {
            0 // a local delivery queues nothing, whatever its size
        } else {
            words
        };
        self.packets += words as u64;
        self.seq_off.push(end);
        self.outstanding.push(words as u32);
        self.after_off.push(self.after.len() as u32);
    }

    /// Runs the FIFO schedule of the phase in the task table.
    ///
    /// # Errors
    ///
    /// [`EngineError::BatchTooLarge`] if the table outgrew the `u32` columns
    /// (its entries may then be truncated; nothing of them is queued).
    fn schedule(&mut self) -> Result<Metrics, EngineError> {
        index_u32(self.outstanding.len(), "tasks")?;
        index_u32(self.seq.len(), "task hops")?;
        index_u32(self.after.len(), "prerequisites")?;
        let packets = u32::try_from(self.packets)
            .ok()
            .filter(|&p| p != NIL)
            .ok_or(EngineError::BatchTooLarge { what: "words" })?;
        let Self {
            g,
            queues,
            planned,
            seq,
            seq_off,
            outstanding,
            packets: _,
            after,
            after_off,
            pending,
            dependents,
            dependents_off,
            releasing,
            timers,
            ends: _,
            cast_off: _,
            awaited: _,
            waits_at: _,
            barrier_at: _,
            barriers: _,
            lead,
            lead_edges,
            pkts,
            active,
            moving,
        } = self;
        let tasks = outstanding.len();
        let hops = |t: usize| seq_off[t] as usize..seq_off[t + 1] as usize;

        // Lead words: an edge no task sends words across sends its in its first
        // rounds, whatever else happens, so it is settled here; the others' go
        // out first, as a word-less task's packet queued before any task's.
        // `planned` marks the edges tasks send across, and is cleared again by
        // the same walk.
        let mut metrics = Metrics::new(g.m());
        let mut solo_rounds = 0;
        let mut in_flight = packets;
        if !lead_edges.is_empty() {
            for t in (0..tasks).filter(|&t| outstanding[t] > 0) {
                for &d in &seq[hops(t)] {
                    planned[d as usize] = true;
                }
            }
            for &d in lead_edges.iter() {
                if !planned[d as usize] {
                    let words = std::mem::take(&mut lead[d as usize]);
                    metrics.add_messages(EdgeId::new(d as usize / 2), u64::from(words));
                    solo_rounds = solo_rounds.max(u64::from(words));
                    in_flight -= words;
                }
            }
            for &d in seq.iter() {
                planned[d as usize] = false;
            }
        }

        // Each task's pending count and its dependents, by a counting sort of
        // the prerequisite pairs in task order, so every list comes out in task
        // order — only if some task has a prerequisite, so a plain phase pays
        // nothing for them.
        let gated = !after.is_empty() || !timers.is_empty();
        pending.clear();
        dependents.clear();
        dependents_off.clear();
        timers.sort_unstable();
        if gated {
            let prerequisites = |t: usize| after_off[t] as usize..after_off[t + 1] as usize;
            pending.extend((0..tasks).map(|t| prerequisites(t).len() as u32));
            // A release round counts as one more prerequisite.
            for &(_, t) in timers.iter() {
                pending[t as usize] += 1;
            }
            dependents_off.resize(tasks + 1, 0);
            for &a in after.iter() {
                dependents_off[a as usize + 1] += 1;
            }
            for t in 0..tasks {
                dependents_off[t + 1] += dependents_off[t];
            }
            dependents.resize(after.len(), NIL);
            for t in 0..tasks {
                for &a in &after[prerequisites(t)] {
                    // `dependents_off[a]` is a's fill cursor until the shift below.
                    dependents[dependents_off[a as usize] as usize] = t as u32;
                    dependents_off[a as usize] += 1;
                }
            }
            dependents_off.copy_within(0..tasks, 1);
            dependents_off[0] = 0;
        }
        let has_dependents = |t: usize| gated && dependents_off[t] != dependents_off[t + 1];

        pkts.clear();
        queues.next.clear();
        debug_assert!(active.is_empty(), "the previous schedule ran to completion");
        for &d in lead_edges.iter() {
            if lead[d as usize] > 0 {
                pkts.push(Packet { task: NIL, at: 0 });
                queues.next.push(NIL);
                queues.push(d, pkts.len() as u32 - 1);
                active.push(d);
            }
        }
        lead_edges.clear();
        let mut round: u64 = 0;
        // `releasing` names round 0's tasks by `tasks` and the release rounds
        // due in a round by `tasks + 1`, ahead of that round's completions.
        let (roots, due) = (tasks, tasks + 1);
        let mut next_timer = 0;
        releasing.clear();
        releasing.push(roots as u32);
        loop {
            // Injection of the tasks this round releases (round 0: every task
            // without a prerequisite, in task order; later rounds: those whose
            // release round this is, in task order, then those whose last
            // prerequisite completed, in completion order): each task's words,
            // as one packet, queued on its first edge. A released task with
            // nothing to send completes now and counts its own down after them.
            // Task and packet counts passed `index_u32` above, so the `as u32`
            // below cannot truncate.
            let mut next = 0;
            while next < releasing.len() {
                let list = releasing[next] as usize;
                next += 1;
                let released = if list == roots {
                    0..tasks
                } else if list == due {
                    let from = next_timer;
                    while timers.get(next_timer).is_some_and(|&(r, _)| r == round) {
                        next_timer += 1;
                    }
                    from..next_timer
                } else {
                    dependents_off[list] as usize..dependents_off[list + 1] as usize
                };
                for i in released {
                    let t = if list == roots {
                        if gated && pending[i] != 0 {
                            continue;
                        }
                        i
                    } else {
                        let t = if list == due {
                            timers[i].1
                        } else {
                            dependents[i]
                        } as usize;
                        pending[t] -= 1;
                        if pending[t] != 0 {
                            continue;
                        }
                        t
                    };
                    if outstanding[t] == 0 {
                        if has_dependents(t) {
                            releasing.push(t as u32);
                        }
                        continue;
                    }
                    let first = seq[seq_off[t] as usize];
                    let packets = if hops(t).len() == 1 {
                        1
                    } else {
                        outstanding[t]
                    };
                    for _ in 0..packets {
                        let p = pkts.len() as u32;
                        pkts.push(Packet {
                            task: t as u32,
                            at: seq_off[t],
                        });
                        queues.next.push(NIL);
                        if queues.push(first, p) {
                            active.push(first);
                        }
                    }
                }
            }
            releasing.clear();
            if active.is_empty() {
                // Nothing moves before the next release round, if any.
                match timers.get(next_timer) {
                    Some(&(r, _)) => {
                        round = r;
                        releasing.push(due as u32);
                        continue;
                    }
                    None => {
                        debug_assert_eq!(in_flight, 0, "every word is queued or delivered");
                        break;
                    }
                }
            }
            round += 1;
            if timers.get(next_timer).is_some_and(|&(r, _)| r == round) {
                releasing.push(due as u32);
            }
            // Each active edge sends the first word of its first packet. A word
            // that reached its task's end is delivered now, in send order; one
            // that goes on is queued on its next edge after the send phase
            // (synchronous semantics), as a packet of its own. Edges that still
            // hold words are compacted to the front of `active`, so they keep
            // their place ahead of the edges the moving words activate.
            moving.clear();
            let mut kept = 0;
            for i in 0..active.len() {
                let d = active[i];
                metrics.add_messages(EdgeId::new(d as usize / 2), 1);
                let head = queues.head[d as usize];
                let Packet { task, at } = pkts[head as usize];
                let t = task as usize;
                let emptied = if task == NIL {
                    lead[d as usize] -= 1;
                    in_flight -= 1;
                    lead[d as usize] == 0 && queues.pop(d).1
                } else if at + 1 == seq_off[t + 1] {
                    outstanding[t] -= 1;
                    in_flight -= 1;
                    if outstanding[t] == 0 && has_dependents(t) {
                        releasing.push(task);
                    }
                    // A one-hop task's packet holds all its words.
                    let rest = if at == seq_off[t] { outstanding[t] } else { 0 };
                    rest == 0 && queues.pop(d).1
                } else {
                    pkts[head as usize].at += 1;
                    moving.push(head);
                    queues.pop(d).1
                };
                if !emptied {
                    active[kept] = d;
                    kept += 1;
                }
            }
            active.truncate(kept);
            for &p in moving.iter() {
                let d = seq[pkts[p as usize].at as usize];
                if queues.push(d, p) {
                    active.push(d);
                }
            }
        }
        metrics.rounds = round.max(solo_rounds);
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    /// `path(n)` and its tree rooted at node 0.
    fn rooted_path(n: usize) -> (Graph, Forest) {
        let g = generators::path(n);
        let parent = (0..n).map(|i| i.checked_sub(1).map(NodeId::new)).collect();
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        (g, f)
    }

    /// A cast of `items` from the root down to each `(destination, words)`.
    fn down(f: &Forest, items: Vec<(usize, usize)>) -> Cast<'_> {
        Cast::Down {
            forest: f,
            items: items
                .into_iter()
                .map(|(v, w)| (NodeId::new(v), w))
                .collect(),
            after: vec![],
        }
    }

    #[test]
    fn single_packet_takes_dilation_rounds() {
        let (g, f) = rooted_path(5);
        let m = Router::new(&g)
            .expect("a small graph")
            .route_casts(&[down(&f, vec![(4, 1)])])
            .expect("route the single item");
        assert_eq!(m.rounds, 4);
        assert_eq!(m.messages, 4);
    }

    #[test]
    fn multiword_pipelines() {
        // k words over a d-hop path should take d + k - 1 rounds (pipelining).
        let (g, f) = rooted_path(4);
        let m = Router::new(&g)
            .expect("a small graph")
            .route_casts(&[down(&f, vec![(3, 5)])])
            .expect("route the single item");
        assert_eq!(m.rounds, 3 + 5 - 1);
        assert_eq!(m.messages, 15);
    }

    #[test]
    fn contention_serializes() {
        // Two packets over the same edge: 2 rounds, not 1.
        let (g, f) = rooted_path(2);
        let m = Router::new(&g)
            .expect("a small graph")
            .route_casts(&[down(&f, vec![(1, 1), (1, 1)])])
            .expect("route two contending items");
        assert_eq!(m.rounds, 2);
        assert_eq!(m.max_congestion(), 2);
    }

    #[test]
    fn opposite_directions_dont_contend() {
        let (g, f) = rooted_path(2);
        let up = Cast::Up {
            forest: &f,
            items: vec![(NodeId::new(1), 1)],
            after: vec![],
        };
        let m = Router::new(&g)
            .expect("a small graph")
            .route_casts(&[down(&f, vec![(1, 1)]), up])
            .expect("route opposite-direction items");
        assert_eq!(m.rounds, 1);
    }

    #[test]
    fn local_delivery_is_free() {
        let (g, f) = rooted_path(2);
        let m = Router::new(&g)
            .expect("a small graph")
            .route_casts(&[down(&f, vec![(0, 3)])])
            .expect("route the local item");
        assert_eq!(m.rounds, 0);
        assert_eq!(m.messages, 0);
    }

    #[test]
    fn invalid_path_rejected() {
        let g = generators::path(3);
        let e12 = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        let hop = Cast::Hop {
            items: vec![(NodeId::new(0), e12, 1)],
            up: None,
            after: vec![],
        };
        assert_eq!(
            Router::new(&g)
                .expect("a small graph")
                .route_casts(&[hop])
                .unwrap_err(),
            EngineError::InvalidPath { task: 0 }
        );
    }

    #[test]
    fn schedule_length_within_congestion_plus_dilation() {
        // LMR-flavoured sanity: realized rounds <= congestion + dilation on a shared path.
        let (g, f) = rooted_path(6);
        let m = Router::new(&g)
            .expect("a small graph")
            .route_casts(&[down(&f, vec![(5, 2); 4])])
            .expect("route the shared-path items");
        assert!(m.rounds <= m.max_congestion() + 5);
    }

    #[test]
    fn sizes_beyond_the_u32_columns_are_rejected_not_wrapped() {
        let too_large = |what| Err(EngineError::BatchTooLarge { what });
        assert_eq!(index_u32(0, "words"), Ok(0));
        assert_eq!(index_u32(NIL as usize - 1, "words"), Ok(NIL - 1));
        assert_eq!(index_u32(NIL as usize, "words"), too_large("words"));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(index_u32(1 << 32, "task hops"), too_large("task hops"));
        assert_eq!(index_u32(usize::MAX, "tasks"), too_large("tasks"));
        // `Router::new`'s check: a graph with 2m ≥ u32::MAX directed edges.
        let half = NIL as usize / 2;
        assert_eq!(directed_edge_count(half), Ok(NIL as usize - 1));
        for m in [half + 1, usize::MAX] {
            let edges = EngineError::BatchTooLarge {
                what: "directed edges",
            };
            assert_eq!(directed_edge_count(m), Err(edges));
        }

        // One oversized payload, and two that only overflow together: both fail
        // before a single packet is queued, and the workspace stays usable.
        let (g, f) = rooted_path(2);
        let mut router = Router::new(&g).expect("a small graph");
        let words = EngineError::BatchTooLarge { what: "words" };
        let oversized = [down(&f, vec![(1, usize::MAX)])];
        assert_eq!(router.route_casts(&oversized).unwrap_err(), words);
        let half = NIL as usize / 2 + 1;
        let together = [down(&f, vec![(1, half), (1, half)])];
        assert_eq!(router.route_casts(&together).unwrap_err(), words);
        // A local delivery queues nothing, whatever its size.
        let m = router
            .route_casts(&[down(&f, vec![(0, usize::MAX), (1, 2)])])
            .expect("route after a rejection");
        assert_eq!((m.rounds, m.messages), (2, 2));
    }
}
