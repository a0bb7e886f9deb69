//! A collection of BFS algorithms executed together in BCONGEST with random start
//! delays — the executable form of Theorem 1.4, and the workhorse behind the paper's
//! unweighted-APSP trade-off (Lemmas 3.22/3.23).
//!
//! Every node owns one send queue and broadcasts at most one `(bfs, dist, delay)`
//! triple per round, scheduled by "ideal time" `delay_j + dist` (the random-delay
//! schedule). BFS `j`'s delay is its source's private coin: the source draws it
//! and every `j`-message carries it, so a node learns it with the message that
//! reaches it and nobody has to distribute the delays beforehand.
//! Queueing can delay a wavefront, so a node may first learn a non-shortest distance;
//! correctness is restored by *re-broadcast on improvement* (a Bellman–Ford safety net
//! that fires rarely: `rebroadcasts_are_rare` reads 53, 32 and 393 beyond the `n²`
//! broadcasts on `gnp_connected(n, 8/n)` at n = 64, 64, 128, under 5 % of `n²`). The
//! collection is aggregation-based (Definition 3.1): messages to one node in one round
//! are reduced to the per-BFS minimum, and Theorem 1.4(ii) keeps the number of distinct
//! BFS per node-round at `O(log n)` w.h.p., so aggregates stay `Õ(1)` words.

use crate::send_queue::SendQueue;
use congest_engine::{AggregationAlgorithm, BcongestAlgorithm, LocalView, WireEncode};
use congest_graph::{rng, NodeId};

/// One BFS exploration message: which BFS, the sender's distance in it, and
/// that BFS's start delay. Three `O(log n)`-bit fields, so still one word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsMsg {
    /// Index of the BFS instance (into [`BfsCollection::sources`]).
    pub bfs: u32,
    /// The sender's distance from that BFS's source.
    pub dist: u32,
    /// The start delay that BFS's source drew; every message of one BFS
    /// carries the same one.
    pub delay: u32,
}

impl WireEncode for BfsMsg {
    const LANES: usize = 3;
    fn encode(&self, out: &mut [u32]) {
        out[0] = self.bfs;
        out[1] = self.dist;
        out[2] = self.delay;
    }
}

/// A collection of `ℓ ≤ n` BFS algorithms with per-instance start delays and an
/// optional shared depth limit.
///
/// # Examples
///
/// ```
/// use congest_algos::bfs_collection::BfsCollection;
/// use congest_engine::{run_bcongest, RunOptions};
/// use congest_graph::{generators, NodeId, reference};
///
/// let g = generators::gnp_connected(20, 0.15, 3);
/// let sources: Vec<NodeId> = g.nodes().collect();
/// let algo = BfsCollection::new(sources).with_random_delays(42);
/// let run = run_bcongest(&algo, &g, None, &RunOptions::default()).unwrap();
/// // Node 5's distance vector matches sequential BFS from each source.
/// let want = reference::all_pairs_bfs(&g);
/// for s in 0..20 {
///     assert_eq!(run.outputs[5].entries[s].dist, want[s][5]);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct BfsCollection {
    sources: Vec<NodeId>,
    delays: Vec<usize>,
    depth_limit: u32,
}

impl BfsCollection {
    /// A collection with all delays zero.
    pub fn new(sources: Vec<NodeId>) -> Self {
        let delays = vec![0; sources.len()];
        Self {
            sources,
            delays,
            depth_limit: u32::MAX,
        }
    }

    /// Assigns each BFS a uniform random delay in `[0, ℓ)` (Theorem 1.4). Only
    /// BFS `j`'s source reads entry `j`, so the entries are the sources'
    /// private coins: every other node takes the delay from the message that
    /// reaches it.
    pub fn with_random_delays(mut self, seed: u64) -> Self {
        let mut r = rng::seeded(rng::derive(seed, 0xde1a_5001));
        let l = self.sources.len().max(1);
        self.delays = (0..self.sources.len())
            .map(|_| rand::Rng::random_range(&mut r, 0..l))
            .collect();
        self
    }

    /// Truncates every BFS at `limit` hops (the partial BFS of Lemma 3.23).
    pub fn with_depth_limit(mut self, limit: u32) -> Self {
        self.depth_limit = limit;
        self
    }

    /// The BFS sources.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The shared depth limit.
    pub fn depth_limit(&self) -> u32 {
        self.depth_limit
    }

    /// The dilation of the collection: each partial BFS runs for at most
    /// `min(depth_limit, n)` rounds in isolation.
    pub fn dilation(&self, n: usize) -> usize {
        (self.depth_limit as usize).min(n)
    }
}

/// Per-BFS result at one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsEntry {
    /// Hop distance from this BFS's source (`None`: unreached within the limit).
    pub dist: Option<u32>,
    /// Parent in this BFS's tree.
    pub parent: Option<NodeId>,
}

/// Output of the collection at one node: one entry per BFS instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectionOutput {
    /// Indexed by BFS instance.
    pub entries: Vec<BfsEntry>,
}

/// "Unset" in a [`Slot`]: no distance yet, no parent, never broadcast.
const UNSET: u32 = u32::MAX;

/// One BFS instance at one node (20 B).
#[derive(Clone, Copy, Debug)]
struct Slot {
    dist: u32,
    parent: u32,
    /// Distance at which this BFS was last broadcast by this node.
    sent_dist: u32,
    /// The `receive` call ([`CollectionState::calls`]) that last lowered `dist`.
    lowered: u32,
    /// This BFS's start delay: the source's own draw at the source, else the
    /// one carried by the message that last lowered `dist`.
    delay: u32,
}

impl Slot {
    /// The queue key of this slot as BFS `j`: its ideal round `delay + dist`
    /// (saturating: a delay off the wire may be anything, and a round past
    /// `u32::MAX` is never reached either way) above `j`, so keys order as
    /// `(ideal round, j)` pairs do.
    fn key(&self, j: u32) -> u64 {
        u64::from(self.delay.saturating_add(self.dist)) << 32 | u64::from(j)
    }
}

/// A queue key's `(ideal round, bfs index)`.
fn split(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct CollectionState {
    /// Indexed by BFS instance.
    slots: Vec<Slot>,
    /// `receive` calls so far. A tie on the candidate distance may move a
    /// parent only inside the call that set it, and `round` is the caller's
    /// to choose, so the state counts its own calls.
    calls: u32,
    /// Pending broadcasts, by [`Slot::key`]. Invariant: slot `j` is pending
    /// iff its `dist` is set, below the depth limit and differs from its
    /// `sent_dist`, and then its key is queued; a key it held before is dead.
    queue: SendQueue<u64>,
}

/// Whether `key` is live in `slots`: its slot still holds it, unsent. (A slot
/// that ever queued a key has its `dist` below the depth limit.)
fn live(slots: &[Slot], key: u64) -> bool {
    let j = split(key).1;
    let slot = &slots[j as usize];
    slot.dist != slot.sent_dist && slot.key(j) == key
}

impl CollectionState {
    /// Drops the dead keys the queue should drop now.
    fn settle(&mut self) {
        let slots = &self.slots;
        self.queue.settle(|key| live(slots, key));
    }
}

impl BfsCollection {
    /// Whether `slot` has a broadcast pending.
    fn pending(&self, slot: &Slot) -> bool {
        slot.dist < self.depth_limit && slot.dist != slot.sent_dist
    }

    /// Schedules BFS `j`'s broadcast of `slot`, just lowered from a slot that
    /// was pending or not; a node at the depth limit does not forward.
    fn enqueue(&self, queue: &mut SendQueue<u64>, j: u32, slot: &Slot, was_pending: bool) {
        if was_pending {
            queue.supersede(slot.key(j));
        } else if slot.dist < self.depth_limit {
            queue.push(slot.key(j));
        }
    }
}

impl BcongestAlgorithm for BfsCollection {
    type State = CollectionState;
    type Msg = BfsMsg;
    type Output = CollectionOutput;

    fn name(&self) -> &'static str {
        "bfs-collection"
    }

    fn init(&self, view: &LocalView<'_>) -> CollectionState {
        let unset = Slot {
            dist: UNSET,
            parent: UNSET,
            sent_dist: UNSET,
            lowered: 0,
            delay: 0,
        };
        let mut s = CollectionState {
            slots: vec![unset; self.sources.len()],
            calls: 0,
            queue: SendQueue::new(),
        };
        for (j, &src) in self.sources.iter().enumerate() {
            if src == view.node() {
                let slot = &mut s.slots[j];
                slot.dist = 0;
                slot.delay = self.delays[j] as u32;
                self.enqueue(&mut s.queue, j as u32, slot, false);
            }
        }
        s
    }

    fn broadcast(&self, s: &CollectionState, round: usize) -> Option<BfsMsg> {
        let (ready, j) = split(s.queue.peek()?);
        let slot = &s.slots[j as usize];
        (ready as usize <= round).then_some(BfsMsg {
            bfs: j,
            dist: slot.dist,
            delay: slot.delay,
        })
    }

    fn on_broadcast_sent(&self, s: &mut CollectionState, _round: usize) {
        let (_, j) = split(s.queue.pop());
        let slot = &mut s.slots[j as usize];
        slot.sent_dist = slot.dist;
        s.settle();
    }

    fn receive(&self, s: &mut CollectionState, _round: usize, msgs: &[(NodeId, BfsMsg)]) {
        // One pass, in whatever order the inbox arrives: the outcome is that of
        // relaxing it in `(bfs, dist, sender)` order (DESIGN.md §3), as every
        // message of one BFS carries that BFS's one delay.
        s.calls = s.calls.wrapping_add(1);
        for &(from, m) in msgs {
            // Lanes come straight off the wire: a distance that would overflow
            // (or collide with `UNSET`) is ignored.
            let cand = m.dist.saturating_add(1);
            if cand == UNSET || cand > self.depth_limit {
                continue;
            }
            let slot = &mut s.slots[m.bfs as usize];
            if cand < slot.dist {
                let was_pending = self.pending(slot);
                slot.dist = cand;
                slot.delay = m.delay;
                slot.parent = from.raw();
                slot.lowered = s.calls;
                // (Re-)schedule the broadcast: `sent_dist` is an earlier `dist` or
                // `UNSET`, so `cand < dist <= sent_dist` has not gone out yet.
                self.enqueue(&mut s.queue, m.bfs, slot, was_pending);
            } else if cand == slot.dist && slot.lowered == s.calls && from.raw() < slot.parent {
                // A tie inside the call that lowered the slot: the smaller sender
                // would have come first in sorted order.
                slot.parent = from.raw();
            }
        }
        s.settle();
    }

    fn is_done(&self, s: &CollectionState) -> bool {
        s.queue.is_empty()
    }

    fn output(&self, s: &CollectionState) -> CollectionOutput {
        CollectionOutput {
            entries: s
                .slots
                .iter()
                .map(|slot| BfsEntry {
                    dist: (slot.dist != UNSET).then_some(slot.dist),
                    parent: (slot.parent != UNSET).then(|| NodeId::from(slot.parent)),
                })
                .collect(),
        }
    }

    fn next_activity(&self, s: &CollectionState, after: usize) -> Option<usize> {
        s.queue.peek().map(|key| after.max(split(key).0 as usize))
    }

    fn round_bound(&self, n: usize, _m: usize) -> usize {
        // Õ(ℓ + dilation) w.h.p. (Theorem 1.4), every delay below ℓ, plus
        // generous slack for re-broadcasts.
        let l = self.sources.len();
        8 * (2 * l + self.dilation(n)) + 64
    }

    fn output_words(&self, out: &CollectionOutput) -> usize {
        out.entries.len().max(1)
    }
}

impl AggregationAlgorithm for BfsCollection {
    fn aggregate(&self, _receiver: NodeId, _round: usize, msgs: &mut Vec<(NodeId, BfsMsg)>) {
        // Per BFS instance, only the minimum distance matters; ties broken by sender ID
        // so that simulated and direct runs pick identical parents.
        msgs.sort_unstable_by_key(|&(from, m)| (m.bfs, m.dist, from));
        msgs.dedup_by_key(|(_, m)| m.bfs);
    }

    fn aggregate_budget(&self, n: usize) -> usize {
        // Theorem 1.4(ii): O(log n) distinct BFS per node-round w.h.p.
        let log = (usize::BITS - n.max(2).leading_zeros()) as usize;
        (8 * log).min(self.sources.len().max(1))
    }
}

/// Extracts, for BFS `j`, the distance vector over all nodes.
pub fn dists_of_bfs(outputs: &[CollectionOutput], j: usize) -> Vec<Option<u32>> {
    outputs.iter().map(|o| o.entries[j].dist).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receive_order;
    use congest_engine::{run_bcongest, run_bcongest_observed, RunOptions};
    use congest_graph::{generators, reference};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn all_sources_match_reference() {
        let g = generators::gnp_connected(30, 0.1, 7);
        let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(9);
        let run = run_bcongest(&algo, &g, None, &RunOptions::default()).unwrap();
        let want = reference::all_pairs_bfs(&g);
        for v in g.nodes() {
            for (s, row) in want.iter().enumerate() {
                assert_eq!(
                    run.outputs[v.index()].entries[s].dist,
                    row[v.index()],
                    "dist({s},{v:?})"
                );
            }
        }
    }

    #[test]
    fn depth_limited_collection_truncates() {
        let g = generators::path(8);
        let algo = BfsCollection::new(g.nodes().collect())
            .with_depth_limit(3)
            .with_random_delays(1);
        let run = run_bcongest(&algo, &g, None, &RunOptions::default()).unwrap();
        let want = reference::all_pairs_bfs(&g);
        for v in g.nodes() {
            for (s, row) in want.iter().enumerate() {
                let expect = row[v.index()].filter(|&d| d <= 3);
                assert_eq!(run.outputs[v.index()].entries[s].dist, expect);
            }
        }
    }

    #[test]
    fn broadcast_complexity_near_n_per_source() {
        // B should be ~ n per full BFS (one broadcast per (node, bfs) pair), with few
        // re-broadcasts.
        let g = generators::gnp_connected(25, 0.15, 3);
        let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(5);
        let run = run_bcongest(&algo, &g, None, &RunOptions::default()).unwrap();
        let n = g.n() as u64;
        assert!(run.metrics.broadcasts >= n * (n - 1) / 2);
        // Allow 30% slack for re-broadcasts; measured slack is usually ~0-2%.
        assert!(
            run.metrics.broadcasts <= n * n * 13 / 10,
            "B = {} for n = {n}",
            run.metrics.broadcasts
        );
    }

    /// Every (node, BFS) pair broadcasts once, so `broadcasts − n²` counts
    /// the re-broadcasts after an improvement: at most 5 % of `n²` here.
    #[test]
    fn rebroadcasts_are_rare() {
        for (n, seed) in [(64, 1), (64, 2), (128, 3)] {
            let g = generators::gnp_connected(n, 8.0 / n as f64, seed);
            let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(seed);
            let run = run_bcongest(&algo, &g, None, &RunOptions::default()).unwrap();
            let pairs = (n * n) as u64;
            let extra = run.metrics.broadcasts - pairs;
            assert!(extra <= pairs / 20, "{extra} re-broadcasts at n = {n}");
        }
    }

    #[test]
    fn completion_within_theorem_1_4_bound() {
        let g = generators::gnp_connected(40, 0.1, 11);
        let l = g.n();
        let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(13);
        let run = run_bcongest(&algo, &g, None, &RunOptions::default()).unwrap();
        let dilation = algo.dilation(g.n()) as u64;
        // Õ(ℓ + dilation): use a generous constant; the bench measures the real ratio.
        assert!(
            run.metrics.rounds <= 8 * (l as u64 + dilation),
            "rounds = {}",
            run.metrics.rounds
        );
    }

    #[test]
    fn distinct_bfs_per_round_is_logarithmic() {
        let g = generators::gnp_connected(50, 0.15, 17);
        let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(19);
        let mut max_distinct = 0usize;
        let _ = run_bcongest_observed(
            &algo,
            &g,
            None,
            &RunOptions::default(),
            |_node, _round, inbox| {
                let mut ids: Vec<u32> = inbox.iter().map(|(_, m)| m.bfs).collect();
                ids.sort_unstable();
                ids.dedup();
                max_distinct = max_distinct.max(ids.len());
            },
        )
        .unwrap();
        // Theorem 1.4(ii): O(log n). log2(50) ≈ 5.6; allow constant 6.
        assert!(
            max_distinct <= 6 * 6,
            "max distinct BFS per node-round = {max_distinct}"
        );
    }

    #[test]
    fn aggregation_keeps_min_per_bfs() {
        let algo = BfsCollection::new(vec![NodeId::new(0), NodeId::new(1)]);
        let msg = |bfs, dist| BfsMsg {
            bfs,
            dist,
            delay: 2 * bfs,
        };
        let mut agg = vec![
            (NodeId::new(3), msg(0, 5)),
            (NodeId::new(2), msg(0, 3)),
            (NodeId::new(4), msg(1, 1)),
            (NodeId::new(5), msg(0, 3)),
        ];
        algo.aggregate(NodeId::new(9), 0, &mut agg);
        assert_eq!(
            agg,
            vec![(NodeId::new(2), msg(0, 3)), (NodeId::new(4), msg(1, 1))]
        );
    }

    /// The `Vec`-in / `Vec`-out aggregate the in-place one replaced.
    fn aggregate_reference(msgs: Vec<(NodeId, BfsMsg)>) -> Vec<(NodeId, BfsMsg)> {
        let mut best: BTreeMap<u32, (u32, NodeId, BfsMsg)> = BTreeMap::new();
        for (from, m) in msgs {
            let entry = best.entry(m.bfs).or_insert((m.dist, from, m));
            if (m.dist, from) < (entry.0, entry.1) {
                *entry = (m.dist, from, m);
            }
        }
        best.into_values().map(|(_, from, m)| (from, m)).collect()
    }

    /// BFS `bfs`'s message at `dist`, carrying the delay `lanes` gives it:
    /// every message of one BFS carries one delay.
    fn lane_msg(lanes: &[u32], bfs: u32, dist: u32) -> BfsMsg {
        BfsMsg {
            bfs,
            dist,
            delay: lanes[bfs as usize],
        }
    }

    proptest! {
        /// Same pairs in the same order as the reference, on batches with
        /// repeated senders, ties on `(dist, sender)` and several instances,
        /// and on the empty batch.
        #[test]
        fn aggregate_matches_its_reference(
            batch in prop::collection::vec((0usize..6, 0u32..4, 0u32..5), 0..40),
            lanes in prop::collection::vec(0u32..6, 4),
        ) {
            let algo = BfsCollection::new((0..4).map(NodeId::new).collect());
            let msgs: Vec<(NodeId, BfsMsg)> = batch
                .into_iter()
                .map(|(from, bfs, dist)| (NodeId::new(from), lane_msg(&lanes, bfs, dist)))
                .collect();
            for msgs in [msgs, Vec::new()] {
                let mut got = msgs.clone();
                algo.aggregate(NodeId::new(9), 0, &mut got);
                prop_assert_eq!(got, aggregate_reference(msgs));
            }
        }
    }

    /// The sorted `receive` the one-pass one replaced.
    fn receive_reference(algo: &BfsCollection, s: &mut CollectionState, msgs: &[(NodeId, BfsMsg)]) {
        let mut sorted: Vec<&(NodeId, BfsMsg)> = msgs.iter().collect();
        sorted.sort_unstable_by_key(|(from, m)| (m.bfs, m.dist, *from));
        for &&(from, m) in &sorted {
            let cand = m.dist + 1;
            let slot = &mut s.slots[m.bfs as usize];
            if cand > algo.depth_limit || cand >= slot.dist {
                continue;
            }
            let was_pending = algo.pending(slot);
            slot.dist = cand;
            slot.delay = m.delay;
            slot.parent = from.raw();
            algo.enqueue(&mut s.queue, m.bfs, slot, was_pending);
        }
        s.settle();
    }

    /// The pending sends as `(ideal round, bfs)`, sorted: what the queue
    /// holds live, whatever dead keys it keeps.
    fn queued(s: &CollectionState) -> Vec<(u32, u32)> {
        let live_keys = s.queue.live_keys(|key| live(&s.slots, key));
        live_keys.into_iter().map(split).collect()
    }

    /// The receiver's view in the `receive` tests: node 7 of `K_8`.
    fn receiver(k8: &congest_graph::Graph) -> LocalView<'_> {
        LocalView::new(k8, None, NodeId::new(7), 1)
    }

    proptest! {
        /// Same outputs, queue and broadcasts as the reference after every
        /// call, whatever the order of the inbox: repeated senders, ties on
        /// `(dist, sender)`, several instances (one of them the receiver's
        /// own), the empty inbox, with and without a depth limit and delays,
        /// and with delay lanes that need not match the table.
        #[test]
        fn receive_matches_its_reference_in_any_order(
            steps in prop::collection::vec(
                (prop::collection::vec((0usize..6, 0u32..4, 0u32..5), 0..12), 0u8..2),
                1..=6,
            ),
            limited in 0u8..2,
            delay_seed in 0u64..8,
            lanes in prop::collection::vec(0u32..6, 4),
            shuffle_seed in 0u64..1000,
        ) {
            let sources = [0, 1, 2, 7].map(NodeId::new).to_vec();
            let mut algo = BfsCollection::new(sources);
            if limited == 1 {
                algo = algo.with_depth_limit(3);
            }
            if delay_seed > 0 {
                algo = algo.with_random_delays(delay_seed);
            }
            receive_order::check(
                &algo,
                &receiver(&generators::complete(8)),
                &steps,
                |(from, bfs, dist)| (NodeId::new(from), lane_msg(&lanes, bfs, dist)),
                shuffle_seed,
                |s, _, msgs| receive_reference(&algo, s, msgs),
                queued,
            )?;
        }
    }

    #[test]
    fn a_tie_moves_the_parent_only_inside_the_call_that_lowered_the_slot() {
        let algo = BfsCollection::new(vec![NodeId::new(0)]);
        let msg = |from| {
            let m = BfsMsg {
                bfs: 0,
                dist: 2,
                delay: 0,
            };
            (NodeId::new(from), m)
        };
        let parent = |s: &CollectionState| algo.output(s).entries[0].parent;
        let mut s = algo.init(&receiver(&generators::complete(8)));
        // The smaller sender arrives later in the same call: sorted order
        // would have relaxed it first, so it takes the parent.
        algo.receive(&mut s, 4, &[msg(5), msg(3)]);
        assert_eq!(parent(&s), Some(NodeId::new(3)));
        // It arrives in a later call — of the same round, which a caller may
        // well do — and the slot was not lowered there: the parent stays.
        algo.receive(&mut s, 4, &[msg(1)]);
        assert_eq!(parent(&s), Some(NodeId::new(3)));
    }

    #[test]
    fn a_distance_that_would_overflow_is_ignored() {
        let algo = BfsCollection::new(vec![NodeId::new(0)]);
        for dist in [u32::MAX, u32::MAX - 1] {
            let mut s = algo.init(&receiver(&generators::complete(8)));
            let m = BfsMsg {
                bfs: 0,
                dist,
                delay: 0,
            };
            algo.receive(&mut s, 0, &[(NodeId::new(1), m)]);
            let unreached = BfsEntry {
                dist: None,
                parent: None,
            };
            assert_eq!(algo.output(&s).entries, [unreached]);
            assert!(algo.is_done(&s));
        }
    }

    /// A node takes a BFS's delay from the message that reaches it, not from
    /// the table, which only that BFS's source reads: the queue key and the
    /// re-broadcast follow the lane.
    #[test]
    fn the_delay_travels_with_the_message() {
        let algo = BfsCollection::new(vec![NodeId::new(0), NodeId::new(7)]).with_random_delays(3);
        let table = algo.delays[0] as u32;
        let lane = table + 5;
        let mut s = algo.init(&receiver(&generators::complete(8)));
        let m = BfsMsg {
            bfs: 0,
            dist: 1,
            delay: lane,
        };
        algo.receive(&mut s, 0, &[(NodeId::new(2), m)]);
        let pending = queued(&s);
        assert!(pending.contains(&(lane + 2, 0)), "{pending:?}");
        assert!(!pending.contains(&(table + 2, 0)));
        // The receiver is BFS 1's source: its own delay is the table's.
        let own = algo.delays[1] as u32;
        assert!(pending.contains(&(own, 1)));
        let mut sent = Vec::new();
        while let Some(out) = algo.broadcast(&s, usize::MAX) {
            sent.push(out);
            algo.on_broadcast_sent(&mut s, usize::MAX);
        }
        assert!(sent.contains(&BfsMsg {
            bfs: 0,
            dist: 2,
            delay: lane,
        }));
        assert!(sent.contains(&BfsMsg {
            bfs: 1,
            dist: 0,
            delay: own,
        }));
        assert_eq!(sent.len(), 2);
        assert!(algo.is_done(&s));
    }

    /// A lowering whose message carries a larger delay raises the key: the
    /// lower key it replaces must not stay on top of the queue.
    #[test]
    fn a_raised_key_leaves_no_dead_top() {
        let algo = BfsCollection::new(vec![NodeId::new(0)]);
        let mut s = algo.init(&receiver(&generators::complete(8)));
        let msg = |dist, delay| {
            let m = BfsMsg {
                bfs: 0,
                dist,
                delay,
            };
            (NodeId::new(1), m)
        };
        algo.receive(&mut s, 0, &[msg(2, 0)]);
        algo.receive(&mut s, 0, &[msg(0, 5)]);
        assert_eq!(queued(&s), [(6, 0)]);
        assert_eq!(algo.broadcast(&s, 3), None);
        assert_eq!(algo.next_activity(&s, 0), Some(6));
    }

    #[test]
    fn delays_are_deterministic_per_seed() {
        let a = BfsCollection::new((0..10).map(NodeId::new).collect()).with_random_delays(3);
        let b = BfsCollection::new((0..10).map(NodeId::new).collect()).with_random_delays(3);
        assert_eq!(a.delays, b.delays);
    }
}
