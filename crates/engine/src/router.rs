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
//! [`Router::route`] call. The workspace keeps, across calls: the per-directed-edge
//! FIFO `head`/`tail` tables and the `planned` congestion table (sized `2m` once),
//! the packet arena, the flat task edge-sequence table and the per-round
//! `active`/`arrivals` lists. Nothing `2m`-sized is cleared between
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

/// The directed-edge index of `e` traversed from `from`: `2e` for the canonical
/// `u → v` direction (`u < v`), `2e + 1` for `v → u`.
#[inline]
fn directed(g: &Graph, e: EdgeId, from: NodeId) -> u32 {
    2 * e.raw() + u32::from(g.endpoints(e).0 != from)
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
/// [`Router::new`] panics on a graph with `2m ≥ u32::MAX` directed edges, and a
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
    /// sum at injection.
    outstanding: Vec<u32>,
    packets: u32,
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
    /// # Panics
    ///
    /// Panics if `g` has `2m ≥ u32::MAX` directed edges.
    pub fn new(g: &'g Graph) -> Self {
        let directed_edges = g
            .m()
            .checked_mul(2)
            .filter(|&d| index_u32(d, "directed edges").is_ok())
            .expect("graph has too many edges for the router's u32 index columns");
        Self {
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
            pkt_task: Vec::new(),
            pkt_at: Vec::new(),
            active: Vec::new(),
            arrivals: Vec::new(),
        }
    }

    /// The graph this workspace routes over.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Routes all `tasks` simultaneously and returns the realized schedule's measures.
    ///
    /// Packets are injected at round 0 in task order and forwarded FIFO; each directed
    /// edge carries one word per round.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidPath`] (lowest failing task index) if some path is not a
    /// walk in the graph — each hop is looked up with [`Graph::edge_between`], which
    /// is the check; [`EngineError::BatchTooLarge`] if the batch outgrows the `u32`
    /// index columns. Either way the workspace is left clean for the next call.
    pub fn route(&mut self, tasks: &[RouteTask]) -> Result<RouteReport, EngineError> {
        self.begin();
        for (task, t) in tasks.iter().enumerate() {
            for hop in t.path.windows(2) {
                let e = self
                    .g
                    .edge_between(hop[0], hop[1])
                    .ok_or(EngineError::InvalidPath { task })?;
                self.seq.push(directed(self.g, e, hop[0]));
            }
            self.end_task(t.words)?;
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
            self.end_task(words)?;
        }
        Ok(self.schedule())
    }

    /// Starts a batch: empties the per-batch task table. Everything a failed batch
    /// can have touched is reset here, so an error leaves nothing behind.
    fn begin(&mut self) {
        self.seq.clear();
        self.seq_off.clear();
        self.seq_off.push(0);
        self.outstanding.clear();
        self.packets = 0;
    }

    /// Closes the task whose hops were just pushed onto `seq`.
    fn end_task(&mut self, words: usize) -> Result<(), EngineError> {
        index_u32(self.outstanding.len() + 1, "tasks")?;
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
        Ok(())
    }

    /// Runs the FIFO schedule of the batch in `seq` / `seq_off` / `outstanding`.
    fn schedule(&mut self) -> RouteReport {
        let Self {
            g,
            queues,
            planned,
            seq,
            seq_off,
            outstanding,
            packets,
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

        // Injection, in task order: each word is its own packet, queued on its
        // task's first edge. Task and packet counts passed `index_u32` in `end_task`,
        // so the `as u32` below cannot truncate.
        pkt_task.clear();
        pkt_at.clear();
        queues.next.clear();
        queues.next.resize(*packets as usize, NIL);
        debug_assert!(active.is_empty(), "the previous schedule ran to completion");
        for t in 0..tasks {
            for _ in 0..outstanding[t] {
                let p = pkt_task.len() as u32;
                pkt_task.push(t as u32);
                pkt_at.push(seq_off[t]);
                let first = seq[seq_off[t] as usize];
                if queues.push(first, p) {
                    active.push(first);
                }
            }
        }

        let mut metrics = Metrics::new(g.m());
        let mut completion_round = vec![0u64; tasks];
        let mut in_flight = *packets;
        let mut round: u64 = 0;
        while in_flight > 0 {
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
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn single_packet_takes_dilation_rounds() {
        let g = generators::path(5);
        let task = RouteTask {
            path: (0..5).map(NodeId::new).collect(),
            words: 1,
        };
        let r = Router::new(&g)
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
            Router::new(&g).route(&[t]).unwrap_err(),
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

        // One oversized payload, and two that only overflow together: both fail
        // before a single packet is queued, and the workspace stays usable.
        let g = generators::path(2);
        let hop = |words| RouteTask {
            path: vec![NodeId::new(0), NodeId::new(1)],
            words,
        };
        let mut router = Router::new(&g);
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
