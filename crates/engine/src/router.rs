//! Store-and-forward packet routing under CONGEST capacity.
//!
//! Every directed edge carries at most one word per round; packets queue FIFO. This is
//! the execution substrate behind the Leighton–Maggs–Rao-style accounting the paper
//! leans on (Theorem 1.3): a real schedule is produced and measured, so routed rounds
//! reflect `O(congestion + dilation)` behaviour rather than assuming it.
//!
//! Routing goes through one reusable workspace, [`Router`], which a simulation, an
//! MST run or a landmark phase creates once from its graph and hands to every
//! [`upcast`](crate::treeops::upcast) / [`downcast`](crate::treeops::downcast) /
//! [`relay`](crate::treeops::relay) / [`Router::route`] call. The workspace keeps,
//! across calls: the per-directed-edge FIFO `head`/`tail` tables and the `planned`
//! congestion table (sized `2m` once), the packet arena, the flat task table
//! (edge sequences and prerequisites) and the per-round `active`/`arrivals`
//! lists. Nothing `2m`-sized is cleared between
//! calls — every queue is empty again when a schedule finishes, and `planned` is
//! zeroed by re-walking the sequences that touched it — so a routed batch costs
//! `O(tasks + word-hops + Σ_rounds active edges)` work plus the `Θ(m)` congestion
//! vector of the [`Metrics`] it returns, and a warm workspace allocates only what
//! it returns.

use crate::error::EngineError;
use crate::metrics::Metrics;
use crate::treeops::Forest;
use congest_graph::{EdgeId, Graph, NodeId};

/// One routing task: deliver a payload of `words` words along `path` (a walk whose
/// first node is the source, last is the destination).
#[derive(Clone, Debug)]
pub struct RouteTask {
    /// Nodes of the walk, consecutive nodes adjacent. A single-node path delivers
    /// locally for free.
    pub path: Vec<NodeId>,
    /// Payload size in words; each word is a separate message.
    pub words: usize,
}

/// Outcome of a routed batch.
#[derive(Clone, Debug)]
pub struct RouteReport {
    /// Rounds/messages/congestion of the whole batch.
    pub metrics: Metrics,
    /// Round (1-based) at which each task's last word arrived; 0 for local deliveries.
    pub completion_round: Vec<u64>,
    /// The dilation: maximum path length over tasks.
    pub dilation: usize,
    /// The congestion: maximum over directed edges of words scheduled through it.
    pub congestion: u64,
}

/// "No packet" in the intrusive queues; also why a batch holds at most
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

/// The node the directed edge `d` (numbered as by [`directed`]) leaves.
fn tail(g: &Graph, d: u32) -> NodeId {
    let (u, v) = g.endpoints(EdgeId::new(d as usize / 2));
    if d & 1 == 0 {
        u
    } else {
        v
    }
}

/// One intrusive FIFO of packets per directed edge. An edge is active iff its
/// queue is non-empty, so `head` doubles as the activity flag; every queue is empty
/// again when a schedule finishes, so nothing is reset between batches.
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

/// The reusable routing workspace of one graph (see the [module docs](self)).
///
/// Index columns are `u32`. Sizes that do not fit are **rejected, never wrapped**:
/// [`Router::new`] fails on a graph with `2m ≥ u32::MAX` directed edges, and a
/// batch with more than `u32::MAX − 1` words (one packet each) or task hops fails
/// with [`EngineError::BatchTooLarge`] before anything is queued.
#[derive(Debug)]
pub struct Router<'g> {
    g: &'g Graph,
    queues: Queues,
    /// Per directed edge: words the current batch plans through it; all zero
    /// between calls.
    planned: Vec<u64>,
    /// Every task's directed-edge sequence, concatenated; task `t` owns
    /// `seq[seq_off[t]..seq_off[t + 1]]`.
    seq: Vec<u32>,
    seq_off: Vec<u32>,
    /// Per task: words still in flight (0 for local and zero-word tasks), and their
    /// sum over the batch.
    outstanding: Vec<u32>,
    packets: u32,
    /// Per task: its prerequisite, an earlier task, or [`NIL`] for none (see
    /// [`Router::route_after`]).
    after: Vec<u32>,
    /// The tasks naming each task as prerequisite, as intrusive lists in task
    /// order: per task, its first dependent and the next dependent of its
    /// prerequisite ([`NIL`] ends a list). Both empty in a batch without
    /// prerequisites.
    first_dependent: Vec<u32>,
    next_dependent: Vec<u32>,
    /// The tasks completed this round whose dependents are still to be
    /// released, in completion order (`tasks` stands for round 0's tasks, the
    /// ones without a prerequisite).
    releasing: Vec<u32>,
    /// Per node: the task carrying [`Router::route_relay`]'s word down to it,
    /// [`NIL`] outside a relay call; sized `n` on the first relay.
    relay_task: Vec<u32>,
    /// Packet arena, one packet per word (parallel to `queues.next`): its task and
    /// the `seq` position of the hop it waits to cross.
    pkt_task: Vec<u32>,
    pkt_at: Vec<u32>,
    /// Directed edges with a non-empty queue, in activation order, and the packets
    /// sent this round, in send order.
    active: Vec<u32>,
    arrivals: Vec<u32>,
}

impl<'g> Router<'g> {
    /// A workspace for routing over `g`: `Θ(m)` once, reused by every call.
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
            planned: vec![0; directed_edges],
            seq: Vec::new(),
            seq_off: Vec::new(),
            outstanding: Vec::new(),
            packets: 0,
            after: Vec::new(),
            first_dependent: Vec::new(),
            next_dependent: Vec::new(),
            releasing: Vec::new(),
            relay_task: Vec::new(),
            pkt_task: Vec::new(),
            pkt_at: Vec::new(),
            active: Vec::new(),
            arrivals: Vec::new(),
        })
    }

    /// The graph this workspace routes over.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Routes all `tasks` simultaneously and returns the realized schedule's measures.
    ///
    /// Packets are injected at round 0 in task order and forwarded FIFO; each directed
    /// edge carries one word per round. (Inside the crate a task may instead wait
    /// for another to complete, which is what [`relay`](crate::treeops::relay) is
    /// built on; every task given here starts at once.)
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidPath`] (lowest failing task index) if some path is not a
    /// walk in the graph — each hop is looked up with [`Graph::edge_between`], which
    /// is the check; [`EngineError::BatchTooLarge`] if the batch outgrows the `u32`
    /// index columns. Either way the workspace is left clean for the next call.
    pub fn route(&mut self, tasks: &[RouteTask]) -> Result<RouteReport, EngineError> {
        self.route_after(tasks, &[])
    }

    /// [`Router::route`] where task `t` may wait for a prerequisite `after[t]`, an
    /// earlier task (`after` is empty, or has one entry per task). A task
    /// completes when its last word arrives, or, with nothing to send, when it is
    /// released. Round 0 releases the tasks without a prerequisite; every other
    /// task is released in the round its prerequisite completes, after that
    /// round's arrivals, and sends from the next round on. Tasks completing in one
    /// round release theirs in the order they completed, each its own in task
    /// order. Releasing a task injects its words on its first edge.
    pub(crate) fn route_after(
        &mut self,
        tasks: &[RouteTask],
        after: &[Option<usize>],
    ) -> Result<RouteReport, EngineError> {
        debug_assert!(after.is_empty() || after.len() == tasks.len());
        self.begin();
        for (task, t) in tasks.iter().enumerate() {
            for hop in t.path.windows(2) {
                let e = self
                    .g
                    .edge_between(hop[0], hop[1])
                    .ok_or(EngineError::InvalidPath { task })?;
                self.seq.push(directed(self.g, e, hop[0]));
            }
            let prerequisite = after.get(task).copied().flatten();
            self.end_task(t.words, prerequisite.map_or(NIL, |a| a as u32))?;
        }
        Ok(self.schedule())
    }

    /// Routes one task per `(node, words)` item along the node's tree path in
    /// `forest` (a forest of this workspace's graph): node → root, or root → node
    /// if `down`. The edge sequences come straight from [`Forest::parent_edge`] —
    /// no path vector, no edge search.
    pub(crate) fn route_tree_paths(
        &mut self,
        forest: &Forest,
        items: impl Iterator<Item = (NodeId, usize)>,
        down: bool,
    ) -> Result<RouteReport, EngineError> {
        self.begin();
        for (v, words) in items {
            self.push_tree_path(forest, v, down);
            self.end_task(words, NIL)?;
        }
        Ok(self.schedule())
    }

    /// Routes [`relay`](crate::treeops::relay)'s batch over `forest`: per distinct
    /// owner, in order of first appearance, a one-word task from its root down to
    /// it, and per hop a one-word task across the hop edge and on up the far end's
    /// tree path, with its owner's task as prerequisite.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidPath`] naming the first hop whose edge is not
    /// incident to its owner; [`EngineError::BatchTooLarge`] as for any batch.
    pub(crate) fn route_relay(
        &mut self,
        forest: &Forest,
        hops: impl IntoIterator<Item = (NodeId, EdgeId)>,
    ) -> Result<RouteReport, EngineError> {
        self.begin();
        self.relay_task.resize(self.g.n(), NIL);
        let built = self.push_relay_tasks(forest, hops);
        // Forget the owners, after an error too. Every owner with an entry has a
        // hop task, and a hop task's first edge leaves its owner.
        for t in 0..self.after.len() {
            if self.after[t] != NIL {
                let owner = tail(self.g, self.seq[self.seq_off[t] as usize]);
                self.relay_task[owner.index()] = NIL;
            }
        }
        built?;
        Ok(self.schedule())
    }

    /// Fills the task table for [`Router::route_relay`]. Owners stay marked in
    /// `relay_task`, an error or not; the caller forgets them.
    fn push_relay_tasks(
        &mut self,
        forest: &Forest,
        hops: impl IntoIterator<Item = (NodeId, EdgeId)>,
    ) -> Result<(), EngineError> {
        for (hop, (owner, e)) in hops.into_iter().enumerate() {
            let far = match (e.index() < self.g.m()).then(|| self.g.endpoints(e)) {
                Some((u, v)) if u == owner => v,
                Some((u, v)) if v == owner => u,
                _ => return Err(EngineError::InvalidPath { task: hop }),
            };
            let mut word = self.relay_task[owner.index()];
            if word == NIL {
                word = self.outstanding.len() as u32;
                self.push_tree_path(forest, owner, true);
                self.end_task(1, NIL)?;
            }
            self.seq.push(directed(self.g, e, owner));
            self.push_tree_path(forest, far, false);
            self.end_task(1, word)?;
            self.relay_task[owner.index()] = word;
        }
        Ok(())
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

    /// Starts a batch: empties the per-batch task table. Everything a failed batch
    /// can have touched is reset here, so an error leaves nothing behind.
    fn begin(&mut self) {
        self.seq.clear();
        self.seq_off.clear();
        self.seq_off.push(0);
        self.outstanding.clear();
        self.after.clear();
        self.packets = 0;
    }

    /// Closes the task whose hops were just pushed onto `seq`, with prerequisite
    /// `after` (an earlier task, or [`NIL`]).
    fn end_task(&mut self, words: usize, after: u32) -> Result<(), EngineError> {
        let task = index_u32(self.outstanding.len() + 1, "tasks")? - 1;
        debug_assert!(
            after == NIL || after < task,
            "a prerequisite precedes its task"
        );
        let end = index_u32(self.seq.len(), "task hops")?;
        let local = self.seq_off.last() == Some(&end);
        let words = if local { 0 } else { index_u32(words, "words")? };
        self.packets = self
            .packets
            .checked_add(words)
            .filter(|&p| p != NIL)
            .ok_or(EngineError::BatchTooLarge { what: "words" })?;
        self.seq_off.push(end);
        self.outstanding.push(words);
        self.after.push(after);
        Ok(())
    }

    /// Runs the FIFO schedule of the batch in the task table.
    fn schedule(&mut self) -> RouteReport {
        let Self {
            g,
            queues,
            planned,
            seq,
            seq_off,
            outstanding,
            packets,
            after,
            first_dependent,
            next_dependent,
            releasing,
            relay_task: _,
            pkt_task,
            pkt_at,
            active,
            arrivals,
        } = self;
        let tasks = outstanding.len();
        let hops = |t: usize| seq_off[t] as usize..seq_off[t + 1] as usize;

        // Static dilation and congestion (for reporting). `planned` only grows while
        // it is filled, so the running maximum is the final one; the second walk
        // restores the all-zero state.
        let mut dilation = 0;
        let mut congestion = 0;
        for t in 0..tasks {
            dilation = dilation.max(hops(t).len());
            for &d in &seq[hops(t)] {
                planned[d as usize] += u64::from(outstanding[t]);
                congestion = congestion.max(planned[d as usize]);
            }
        }
        for &d in seq.iter() {
            planned[d as usize] = 0;
        }

        // Each task's dependents, built backwards so every list comes out in task
        // order — only if some task has a prerequisite, so a plain batch pays
        // nothing for them.
        first_dependent.clear();
        next_dependent.clear();
        for t in (0..tasks).rev() {
            let a = after[t] as usize;
            if a != NIL as usize {
                if first_dependent.is_empty() {
                    first_dependent.resize(tasks, NIL);
                    next_dependent.resize(tasks, NIL);
                }
                next_dependent[t] = first_dependent[a];
                first_dependent[a] = t as u32;
            }
        }
        // Round 0 releases the tasks without a prerequisite (the list `tasks`
        // stands for), any other list is a completed task's dependents.
        let root_from = |t: usize| {
            (t..tasks)
                .find(|&t| after[t] == NIL)
                .map_or(NIL, |t| t as u32)
        };
        let first_of = |list: usize| {
            if list == tasks {
                root_from(0)
            } else {
                first_dependent[list]
            }
        };
        let next_of = |list: usize, t: usize| {
            if list == tasks {
                root_from(t + 1)
            } else {
                next_dependent[t]
            }
        };
        let has_dependents = |t: usize| first_dependent.get(t).is_some_and(|&d| d != NIL);

        pkt_task.clear();
        pkt_at.clear();
        queues.next.clear();
        queues.next.resize(*packets as usize, NIL);
        debug_assert!(active.is_empty(), "the previous schedule ran to completion");
        let mut metrics = Metrics::new(g.m());
        let mut completion_round = vec![0u64; tasks];
        let mut in_flight = *packets;
        let mut round: u64 = 0;
        releasing.clear();
        releasing.push(tasks as u32);
        loop {
            // Injection of the tasks this round's completions release (round 0:
            // every task without a prerequisite, in task order): each word is its
            // own packet, queued on its task's first edge. A released task with
            // nothing to send completes now and releases its own after them. Task
            // and packet counts passed `index_u32` in `end_task`, so the `as u32`
            // below cannot truncate.
            let mut next = 0;
            while next < releasing.len() {
                let list = releasing[next] as usize;
                next += 1;
                let mut d = first_of(list);
                while d != NIL {
                    let t = d as usize;
                    if outstanding[t] == 0 {
                        completion_round[t] = round;
                        if has_dependents(t) {
                            releasing.push(d);
                        }
                    }
                    for _ in 0..outstanding[t] {
                        let p = pkt_task.len() as u32;
                        pkt_task.push(d);
                        pkt_at.push(seq_off[t]);
                        let first = seq[seq_off[t] as usize];
                        if queues.push(first, p) {
                            active.push(first);
                        }
                    }
                    d = next_of(list, t);
                }
            }
            releasing.clear();
            if in_flight == 0 {
                break;
            }
            debug_assert!(!active.is_empty(), "a word in flight is queued somewhere");
            round += 1;
            // Each active edge forwards its first packet; arrivals are buffered and
            // enqueued after the send phase (synchronous semantics). Edges that
            // still hold packets are compacted to the front of `active`, so they
            // keep their place ahead of the edges the arrivals activate.
            arrivals.clear();
            let mut kept = 0;
            for i in 0..active.len() {
                let d = active[i];
                let (p, emptied) = queues.pop(d);
                metrics.add_messages(EdgeId::new(d as usize / 2), 1);
                arrivals.push(p);
                if !emptied {
                    active[kept] = d;
                    kept += 1;
                }
            }
            active.truncate(kept);
            for &p in arrivals.iter() {
                let t = pkt_task[p as usize] as usize;
                pkt_at[p as usize] += 1;
                let at = pkt_at[p as usize];
                if at == seq_off[t + 1] {
                    outstanding[t] -= 1;
                    in_flight -= 1;
                    if outstanding[t] == 0 {
                        completion_round[t] = round;
                        if has_dependents(t) {
                            releasing.push(t as u32);
                        }
                    }
                } else {
                    let d = seq[at as usize];
                    if queues.push(d, p) {
                        active.push(d);
                    }
                }
            }
        }
        metrics.rounds = round;

        RouteReport {
            metrics,
            completion_round,
            dilation,
            congestion,
        }
    }
}

/// Builds the unique path from `v` up to the root in a parent forest, inclusive of both
/// endpoints. Helper for tree-based routing.
pub fn path_to_root(parent: &[Option<NodeId>], v: NodeId) -> Vec<NodeId> {
    let mut path = vec![v];
    let mut cur = v;
    while let Some(p) = parent[cur.index()] {
        path.push(p);
        cur = p;
        debug_assert!(path.len() <= parent.len(), "cycle in parent pointers");
    }
    path
}

#[cfg(test)]
#[path = "../tests/reference_scheduler/mod.rs"]
mod reference_scheduler;

#[cfg(test)]
mod tests {
    use super::reference_scheduler::{assert_same_report, random_batch, reference_route};
    use super::*;
    use congest_graph::{generators, rng};
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn a_prerequisite_releases_its_task_the_round_it_completes() {
        // A crosses 0 → 1 → 2 in rounds 1 and 2; B waits for it at node 2 and
        // crosses 2 → 3 in round 3, although that edge was idle all along.
        let g = generators::path(4);
        let task = |path: &[usize]| RouteTask {
            path: path.iter().copied().map(NodeId::new).collect(),
            words: 1,
        };
        let mut router = Router::new(&g).expect("a small graph");
        let r = router
            .route_after(&[task(&[0, 1, 2]), task(&[2, 3])], &[None, Some(0)])
            .expect("route the chained tasks");
        assert_eq!(r.completion_round, [2, 3]);
        assert_eq!((r.metrics.rounds, r.metrics.messages), (3, 3));
        // Without the link both finish by round 2.
        let r = router
            .route(&[task(&[0, 1, 2]), task(&[2, 3])])
            .expect("route the tasks");
        assert_eq!(r.completion_round, [2, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random batches where each task names a random earlier task, or none,
        /// with equal odds — local and zero-word prerequisites included —
        /// against the reference scheduler, on one reused workspace that also
        /// runs the same batch without the links.
        #[test]
        fn random_prerequisites_match_the_reference_scheduler(
            seed in 0u64..4000,
            n in 2usize..24,
            k in 0usize..40,
        ) {
            let g = generators::gnp_connected(n, 0.2, seed);
            let mut r = rng::seeded(seed);
            let mut router = Router::new(&g).expect("a small graph");
            for _ in 0..3 {
                let tasks = random_batch(&g, &mut r, k);
                let after: Vec<Option<usize>> = (0..k)
                    .map(|t| (t > 0 && r.random_range(0..2u32) == 0).then(|| r.random_range(0..t)))
                    .collect();
                let got = router.route_after(&tasks, &after).expect("walks are valid paths");
                let want = reference_route(&g, &tasks, &after).expect("reference");
                assert_same_report(&got, &want)?;
                let got = router.route(&tasks).expect("walks are valid paths");
                assert_same_report(&got, &reference_route(&g, &tasks, &[]).expect("reference"))?;
            }
        }
    }

    #[test]
    fn single_packet_takes_dilation_rounds() {
        let g = generators::path(5);
        let task = RouteTask {
            path: (0..5).map(NodeId::new).collect(),
            words: 1,
        };
        let r = Router::new(&g)
            .expect("a small graph")
            .route(&[task])
            .expect("route the single task");
        assert_eq!(r.metrics.rounds, 4);
        assert_eq!(r.metrics.messages, 4);
        assert_eq!(r.dilation, 4);
        assert_eq!(r.completion_round, vec![4]);
    }

    #[test]
    fn multiword_pipelines() {
        // k words over a d-hop path should take d + k - 1 rounds (pipelining).
        let g = generators::path(4);
        let task = RouteTask {
            path: (0..4).map(NodeId::new).collect(),
            words: 5,
        };
        let r = Router::new(&g)
            .expect("a small graph")
            .route(&[task])
            .expect("route the single task");
        assert_eq!(r.metrics.rounds, 3 + 5 - 1);
        assert_eq!(r.metrics.messages, 15);
    }

    #[test]
    fn contention_serializes() {
        // Two packets over the same edge: 2 rounds, not 1.
        let g = generators::path(2);
        let t = RouteTask {
            path: vec![NodeId::new(0), NodeId::new(1)],
            words: 1,
        };
        let r = Router::new(&g)
            .expect("a small graph")
            .route(&[t.clone(), t])
            .expect("route two contending tasks");
        assert_eq!(r.metrics.rounds, 2);
        assert_eq!(r.congestion, 2);
    }

    #[test]
    fn opposite_directions_dont_contend() {
        let g = generators::path(2);
        let a = RouteTask {
            path: vec![NodeId::new(0), NodeId::new(1)],
            words: 1,
        };
        let b = RouteTask {
            path: vec![NodeId::new(1), NodeId::new(0)],
            words: 1,
        };
        let r = Router::new(&g)
            .expect("a small graph")
            .route(&[a, b])
            .expect("route opposite-direction tasks");
        assert_eq!(r.metrics.rounds, 1);
    }

    #[test]
    fn local_delivery_is_free() {
        let g = generators::path(2);
        let t = RouteTask {
            path: vec![NodeId::new(0)],
            words: 3,
        };
        let r = Router::new(&g)
            .expect("a small graph")
            .route(&[t])
            .expect("route the local-delivery task");
        assert_eq!(r.metrics.rounds, 0);
        assert_eq!(r.metrics.messages, 0);
    }

    #[test]
    fn invalid_path_rejected() {
        let g = generators::path(3);
        let t = RouteTask {
            path: vec![NodeId::new(0), NodeId::new(2)],
            words: 1,
        };
        assert_eq!(
            Router::new(&g)
                .expect("a small graph")
                .route(&[t])
                .unwrap_err(),
            EngineError::InvalidPath { task: 0 }
        );
    }

    #[test]
    fn schedule_length_within_congestion_plus_dilation() {
        // LMR-flavoured sanity: realized rounds <= congestion + dilation on a shared path.
        let g = generators::path(6);
        let tasks: Vec<RouteTask> = (0..4)
            .map(|_| RouteTask {
                path: (0..6).map(NodeId::new).collect(),
                words: 2,
            })
            .collect();
        let r = Router::new(&g)
            .expect("a small graph")
            .route(&tasks)
            .expect("route the shared-path batch");
        assert!(r.metrics.rounds <= r.congestion + r.dilation as u64);
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
        let g = generators::path(2);
        let hop = |words| RouteTask {
            path: vec![NodeId::new(0), NodeId::new(1)],
            words,
        };
        let mut router = Router::new(&g).expect("a small graph");
        let words = EngineError::BatchTooLarge { what: "words" };
        assert_eq!(router.route(&[hop(usize::MAX)]).unwrap_err(), words);
        let half = NIL as usize / 2 + 1;
        assert_eq!(router.route(&[hop(half), hop(half)]).unwrap_err(), words);
        // A local delivery queues nothing, whatever its size.
        let local = RouteTask {
            path: vec![NodeId::new(0)],
            words: usize::MAX,
        };
        let r = router
            .route(&[local, hop(2)])
            .expect("route after a rejection");
        assert_eq!((r.metrics.rounds, r.metrics.messages), (2, 2));
    }

    #[test]
    fn path_to_root_works() {
        let parent = vec![None, Some(NodeId::new(0)), Some(NodeId::new(1))];
        let p = path_to_root(&parent, NodeId::new(2));
        assert_eq!(p, vec![NodeId::new(2), NodeId::new(1), NodeId::new(0)]);
    }
}
