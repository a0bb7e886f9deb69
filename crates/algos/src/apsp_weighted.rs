//! Weighted all-pairs shortest paths in BCONGEST — the substitute for the
//! Bernstein–Nanongkai black box of Theorem 1.1 (see DESIGN.md §2).
//!
//! The algorithm runs `n` *weight-delayed Dijkstra* explorations simultaneously: for
//! source `s`, a node that learns distance `d` schedules its one broadcast of `(s, d)`
//! no earlier than round `d`. With no queueing this makes every broadcast final
//! (wavefronts travel at "speed = weight", exactly Dijkstra's order), so broadcast
//! complexity is one per (node, source) pair — `n²` total. Queueing (a node may hold
//! many pending pairs but sends one message per round) can let a slower path arrive
//! first; *re-broadcast on improvement* restores unconditional exactness, and
//! `rebroadcasts_are_rare` measures how rare those re-broadcasts are (4, 6 and 35
//! beyond `n²` on `gnp_connected(n, 8/n)` at n = 64, 64, 128 with weights in
//! `1..=9`, under 1 % of `n²`).
//!
//! Complexities (measured by the benches): broadcast complexity `B ≈ n²`, rounds
//! `O(wdiam + n)` where `wdiam` is the weighted diameter. Both are what Theorem 1.1
//! consumes.

use crate::send_queue::SendQueue;
use congest_engine::{AggregationAlgorithm, BcongestAlgorithm, LocalView, WireEncode};
use congest_graph::NodeId;

/// Message: the sender's (current) distance from `source`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WApspMsg {
    /// Source node index.
    pub source: u32,
    /// Sender's distance from that source.
    pub dist: u64,
}

impl WireEncode for WApspMsg {
    const LANES: usize = 3;
    fn encode(&self, out: &mut [u32]) {
        out[0] = self.source;
        self.dist.encode(&mut out[1..]);
    }
}

/// All-sources weight-delayed Dijkstra (exact weighted APSP in BCONGEST).
///
/// `max_weight` must upper-bound every edge weight (it only affects the round guard,
/// not correctness).
///
/// # Examples
///
/// ```
/// use congest_algos::apsp_weighted::WeightedApsp;
/// use congest_engine::{run_bcongest, RunOptions};
/// use congest_graph::{generators, reference, WeightedGraph, NodeId};
///
/// let g = generators::gnp_connected(15, 0.2, 1);
/// let wg = WeightedGraph::random_weights(&g, 1..=6, 1);
/// let algo = WeightedApsp::new(6);
/// let run = run_bcongest(&algo, &g, Some(wg.weights()), &RunOptions::default()).unwrap();
/// let want = reference::all_pairs_dijkstra(&wg);
/// for v in 0..15 {
///     for s in 0..15 {
///         assert_eq!(run.outputs[v].dist[s], want[s][v]);
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct WeightedApsp {
    max_weight: u64,
}

impl WeightedApsp {
    /// Creates the algorithm; `max_weight` bounds the edge weights.
    pub fn new(max_weight: u64) -> Self {
        Self { max_weight }
    }
}

/// Per-node output: exact distances (and shortest-path-tree parents) to every source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WApspOutput {
    /// `dist[s]` = weighted distance from node `s` (None: unreachable).
    pub dist: Vec<Option<u64>>,
    /// `parent[s]` = predecessor towards source `s`.
    pub parent: Vec<Option<NodeId>>,
}

/// "Unset" in [`WApspState::dist`].
const UNSET: u64 = u64::MAX;
/// "Unset" in a [`Slot`]'s `parent`.
const NO_PARENT: u32 = u32::MAX;

/// One source at one node, beside its distance: what a relaxation touches only
/// when it lowers or ties.
#[derive(Clone, Copy, Debug)]
struct Slot {
    parent: u32,
    /// The `receive` call ([`WApspState::calls`]) that last lowered `dist`.
    lowered: u32,
    /// Whether this `dist` still has to be broadcast.
    pending: bool,
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct WApspState {
    /// Incident `(neighbor, weight)` pairs, ascending by neighbor (each node knows
    /// its incident edges).
    weight_to: Vec<(NodeId, u64)>,
    /// Distance to each source: the one column every message reads.
    dist: Vec<u64>,
    /// Indexed by source.
    slots: Vec<Slot>,
    /// `receive` calls so far. A tie on the candidate distance may move a
    /// parent only inside the call that set it, and `round` is the caller's
    /// to choose, so the state counts its own calls.
    calls: u32,
    /// Pending broadcasts: (ready round = distance, source). The round-gating is what
    /// makes broadcasts (almost always) final. Invariant: source `s`'s
    /// `(dist[s], s)` is queued iff its slot is pending; a key it held before
    /// is dead.
    queue: SendQueue<(u64, u32)>,
}

impl WApspState {
    /// Lowers source `src` to `dist`, reached from `parent`, and queues the
    /// broadcast.
    fn lower(&mut self, src: u32, dist: u64, parent: NodeId) {
        let slot = &mut self.slots[src as usize];
        self.dist[src as usize] = dist;
        slot.parent = parent.raw();
        slot.lowered = self.calls;
        if slot.pending {
            self.queue.supersede((dist, src));
        } else {
            slot.pending = true;
            self.queue.push((dist, src));
        }
    }

    /// Drops the dead keys the queue should drop now.
    fn settle(&mut self) {
        let (dist, slots) = (&self.dist, &self.slots);
        self.queue.settle(|key| live(dist, slots, key));
    }
}

/// Whether the queue key `(d, src)` is live: source `src` is still at `d`,
/// unsent.
fn live(dist: &[u64], slots: &[Slot], (d, src): (u64, u32)) -> bool {
    slots[src as usize].pending && dist[src as usize] == d
}

/// The weight of the edge to `neighbor`.
fn weight_to(weights: &[(NodeId, u64)], neighbor: NodeId) -> u64 {
    let i = weights
        .binary_search_by_key(&neighbor, |&(u, _)| u)
        .expect("messages arrive only from neighbors");
    weights[i].1
}

/// The weight of the edge to `neighbor`, where `*cursor` is one past the
/// last sender's entry: the message plane and Theorem 2.1's simulation hand
/// over an inbox in ascending sender order, so the next sender is usually
/// the next entry. Any other sender is found by binary search.
fn weight_from(weights: &[(NodeId, u64)], cursor: &mut usize, neighbor: NodeId) -> u64 {
    let i = match weights.get(*cursor) {
        Some(&(u, _)) if u == neighbor => *cursor,
        _ => weights
            .binary_search_by_key(&neighbor, |&(u, _)| u)
            .expect("messages arrive only from neighbors"),
    };
    *cursor = i + 1;
    weights[i].1
}

impl BcongestAlgorithm for WeightedApsp {
    type State = WApspState;
    type Msg = WApspMsg;
    type Output = WApspOutput;

    fn name(&self) -> &'static str {
        "weighted-apsp"
    }

    fn init(&self, view: &LocalView<'_>) -> WApspState {
        let unset = Slot {
            parent: NO_PARENT,
            lowered: 0,
            pending: false,
        };
        let mut s = WApspState {
            // `incident` follows the adjacency, which is sorted by neighbor.
            weight_to: view.incident().map(|(_, u, w)| (u, w)).collect(),
            dist: vec![UNSET; view.n()],
            slots: vec![unset; view.n()],
            calls: 0,
            queue: SendQueue::new(),
        };
        let me = view.node().raw();
        s.dist[me as usize] = 0;
        s.slots[me as usize].pending = true;
        s.queue.push((0, me));
        s
    }

    fn broadcast(&self, s: &WApspState, round: usize) -> Option<WApspMsg> {
        let (dist, source) = s.queue.peek()?;
        (dist <= round as u64).then_some(WApspMsg { source, dist })
    }

    fn on_broadcast_sent(&self, s: &mut WApspState, _round: usize) {
        let (_, src) = s.queue.pop();
        s.slots[src as usize].pending = false;
        s.settle();
    }

    fn receive(&self, s: &mut WApspState, _round: usize, msgs: &[(NodeId, WApspMsg)]) {
        // One pass, in whatever order the inbox arrives: the outcome is that of
        // relaxing it in `(source, dist, sender)` order (DESIGN.md §3).
        s.calls = s.calls.wrapping_add(1);
        let mut cursor = 0;
        for &(from, m) in msgs {
            // Lanes come straight off the wire: a distance that would overflow
            // (or collide with `UNSET`) is ignored.
            let cand = m
                .dist
                .saturating_add(weight_from(&s.weight_to, &mut cursor, from));
            if cand == UNSET {
                continue;
            }
            let dist = s.dist[m.source as usize];
            if cand < dist {
                s.lower(m.source, cand, from);
            } else if cand == dist && s.slots[m.source as usize].lowered == s.calls {
                // A tie inside the call that lowered the slot: of two messages
                // with this candidate, sorted order relaxes the smaller
                // `(message dist, sender)` first, and that one keeps the parent.
                let slot = &mut s.slots[m.source as usize];
                let parent = NodeId::from(slot.parent);
                let held = dist - weight_to(&s.weight_to, parent);
                if (m.dist, from) < (held, parent) {
                    slot.parent = from.raw();
                }
            }
        }
        s.settle();
    }

    fn is_done(&self, s: &WApspState) -> bool {
        s.queue.is_empty()
    }

    fn output(&self, s: &WApspState) -> WApspOutput {
        WApspOutput {
            dist: s.dist.iter().map(|&d| (d != UNSET).then_some(d)).collect(),
            parent: s
                .slots
                .iter()
                .map(|x| (x.parent != NO_PARENT).then(|| NodeId::from(x.parent)))
                .collect(),
        }
    }

    fn next_activity(&self, s: &WApspState, after: usize) -> Option<usize> {
        s.queue
            .peek()
            .map(|(ready, _)| after.max(usize::try_from(ready).unwrap_or(usize::MAX)))
    }

    fn round_bound(&self, n: usize, _m: usize) -> usize {
        // Longest possible shortest path plus queueing slack.
        (n.saturating_mul(self.max_weight.max(1) as usize))
            .saturating_add(4 * n)
            .saturating_add(64)
    }

    fn output_words(&self, out: &WApspOutput) -> usize {
        out.dist.len().max(1)
    }
}

impl AggregationAlgorithm for WeightedApsp {
    fn aggregate(&self, _receiver: NodeId, _round: usize, msgs: &mut Vec<(NodeId, WApspMsg)>) {
        // Keep, per source, the message minimizing (dist, sender).
        //
        // Note: because different neighbors sit at different edge weights from the
        // receiver, the per-source minimum *message* is not always the minimum
        // *candidate distance*; aggregation here is only used when the receiver-side
        // weights are equal (unit-weight runs) or as a lossy heuristic. The exact
        // weighted algorithm is exercised through Theorem 2.1 (which needs no
        // aggregation); see DESIGN.md.
        msgs.sort_unstable_by_key(|&(from, m)| (m.source, m.dist, from));
        msgs.dedup_by_key(|(_, m)| m.source);
    }

    fn aggregate_budget(&self, n: usize) -> usize {
        n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receive_order;
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::{generators, reference, WeightedGraph};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The `Vec`-in / `Vec`-out aggregate the in-place one replaced.
    fn aggregate_reference(msgs: Vec<(NodeId, WApspMsg)>) -> Vec<(NodeId, WApspMsg)> {
        let mut best: BTreeMap<u32, (u64, NodeId)> = BTreeMap::new();
        for (from, m) in msgs {
            let e = best.entry(m.source).or_insert((m.dist, from));
            if (m.dist, from) < *e {
                *e = (m.dist, from);
            }
        }
        best.into_iter()
            .map(|(source, (dist, from))| (from, WApspMsg { source, dist }))
            .collect()
    }

    proptest! {
        /// Same pairs in the same order as the reference, on batches with
        /// repeated senders, ties on `(dist, sender)` and several sources, and
        /// on the empty batch.
        #[test]
        fn aggregate_matches_its_reference(
            batch in prop::collection::vec((0usize..6, 0u32..4, 0u64..5), 0..40),
        ) {
            let msgs: Vec<(NodeId, WApspMsg)> = batch
                .into_iter()
                .map(|(from, source, dist)| (NodeId::new(from), WApspMsg { source, dist }))
                .collect();
            for msgs in [msgs, Vec::new()] {
                let mut got = msgs.clone();
                WeightedApsp::new(1).aggregate(NodeId::new(9), 0, &mut got);
                prop_assert_eq!(got, aggregate_reference(msgs));
            }
        }
    }

    /// The sorted `receive` the one-pass one replaced.
    fn receive_reference(s: &mut WApspState, msgs: &[(NodeId, WApspMsg)]) {
        let mut sorted: Vec<&(NodeId, WApspMsg)> = msgs.iter().collect();
        sorted.sort_unstable_by_key(|(from, m)| (m.source, m.dist, *from));
        for &&(from, m) in &sorted {
            let cand = m.dist + weight_to(&s.weight_to, from);
            if cand < s.dist[m.source as usize] {
                s.lower(m.source, cand, from);
            }
        }
        s.settle();
    }

    /// The pending sends as `(dist, source)`, sorted: what the queue holds
    /// live, whatever dead keys it keeps.
    fn queued(s: &WApspState) -> Vec<(u64, u32)> {
        s.queue.live_keys(|key| live(&s.dist, &s.slots, key))
    }

    /// The receiver's view in the `receive` tests: node 7 of a weighted `K_8`.
    fn receiver(k8: &WeightedGraph) -> LocalView<'_> {
        LocalView::new(k8.graph(), Some(k8.weights()), NodeId::new(7), 1)
    }

    proptest! {
        /// Same outputs, queue and broadcasts as the reference after every
        /// call, whatever the order of the inbox: repeated senders, candidates
        /// that tie across different `(dist, weight)` splits, several sources
        /// (one of them the receiver itself), the empty inbox.
        #[test]
        fn receive_matches_its_reference_in_any_order(
            steps in prop::collection::vec(
                (prop::collection::vec((0usize..7, 0u32..8, 0u64..6), 0..12), 0u8..2),
                1..=6,
            ),
            weight_seed in 0u64..8,
            shuffle_seed in 0u64..1000,
        ) {
            let wg = WeightedGraph::random_weights(&generators::complete(8), 1..=6, weight_seed);
            receive_order::check(
                &WeightedApsp::new(6),
                &receiver(&wg),
                &steps,
                |(from, source, dist)| (NodeId::new(from), WApspMsg { source, dist }),
                shuffle_seed,
                |s, _, msgs| receive_reference(s, msgs),
                queued,
            )?;
        }
    }

    #[test]
    fn a_tie_moves_the_parent_only_inside_the_call_that_lowered_the_slot() {
        // Candidate 6 three ways: 5 + w(1), 4 + w(3) and 4 + w(5).
        let mut weights = vec![1; 28];
        let g = generators::complete(8);
        for (from, w) in [(1, 1), (3, 2), (5, 2)] {
            let edge = g.edge_between(NodeId::new(from), NodeId::new(7)).unwrap();
            weights[edge.index()] = w;
        }
        let wg = WeightedGraph::from_weights(g, weights).unwrap();
        let algo = WeightedApsp::new(2);
        let msg = |from: usize, dist| (NodeId::new(from), WApspMsg { source: 0, dist });
        let parent = |s: &WApspState| algo.output(s).parent[0];
        // Sorted order relaxes `(4, v3)` before `(4, v5)` before `(5, v1)`:
        // the smallest `(message dist, sender)` takes the parent — not the
        // smallest sender — wherever it sits in the inbox.
        let mut s = algo.init(&receiver(&wg));
        algo.receive(&mut s, 4, &[msg(5, 4), msg(1, 5), msg(3, 4)]);
        assert_eq!(algo.output(&s).dist[0], Some(6));
        assert_eq!(parent(&s), Some(NodeId::new(3)));
        // `(4, v3)` arrives in a later call — of the same round, which a caller
        // may well do — and the slot was not lowered there: the parent stays.
        let mut s = algo.init(&receiver(&wg));
        algo.receive(&mut s, 4, &[msg(1, 5), msg(5, 4)]);
        assert_eq!(parent(&s), Some(NodeId::new(5)));
        algo.receive(&mut s, 4, &[msg(3, 4)]);
        assert_eq!(parent(&s), Some(NodeId::new(5)));
    }

    #[test]
    fn a_distance_that_would_overflow_is_ignored() {
        let wg = WeightedGraph::unit(&generators::complete(8));
        let algo = WeightedApsp::new(1);
        for dist in [u64::MAX, u64::MAX - 1] {
            let mut s = algo.init(&receiver(&wg));
            algo.receive(&mut s, 0, &[(NodeId::new(1), WApspMsg { source: 0, dist })]);
            let out = algo.output(&s);
            assert_eq!((out.dist[0], out.parent[0]), (None, None));
            assert_eq!(
                queued(&s),
                [(0, 7)],
                "only the node's own source is pending"
            );
        }
    }

    /// A node that keeps lowering one source and never sends keeps its queue
    /// compact: `queued` checks the bound.
    #[test]
    fn a_node_that_only_receives_stays_compact() {
        let wg = WeightedGraph::unit(&generators::complete(8));
        let algo = WeightedApsp::new(1);
        let mut s = algo.init(&receiver(&wg));
        for dist in (0..500).rev() {
            algo.receive(&mut s, 0, &[(NodeId::new(1), WApspMsg { source: 0, dist })]);
            assert_eq!(queued(&s), [(0, 7), (dist + 1, 0)]);
        }
    }

    fn check_against_dijkstra(g: &congest_graph::Graph, wg: &WeightedGraph) {
        let algo = WeightedApsp::new(wg.max_weight());
        let run = run_bcongest(&algo, g, Some(wg.weights()), &RunOptions::default()).unwrap();
        let want = reference::all_pairs_dijkstra(wg);
        for v in g.nodes() {
            for (s, row) in want.iter().enumerate() {
                assert_eq!(
                    run.outputs[v.index()].dist[s],
                    row[v.index()],
                    "dist({s}, {v:?})"
                );
            }
        }
    }

    #[test]
    fn exact_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::gnp_connected(20, 0.15, seed);
            let wg = WeightedGraph::random_weights(&g, 1..=9, seed);
            check_against_dijkstra(&g, &wg);
        }
    }

    #[test]
    fn exact_on_weighted_grid_and_caveman() {
        let g = generators::grid(5, 4);
        let wg = WeightedGraph::random_weights(&g, 1..=20, 5);
        check_against_dijkstra(&g, &wg);
        let g = generators::caveman(4, 5);
        let wg = WeightedGraph::random_weights(&g, 1..=3, 6);
        check_against_dijkstra(&g, &wg);
    }

    #[test]
    fn handles_zero_weights() {
        let g = generators::path(5);
        let wg = WeightedGraph::from_weights(g.clone(), vec![0, 2, 0, 1]).unwrap();
        check_against_dijkstra(&g, &wg);
    }

    #[test]
    fn unit_weights_reduce_to_bfs() {
        let g = generators::gnp_connected(18, 0.2, 9);
        let wg = WeightedGraph::unit(&g);
        let algo = WeightedApsp::new(1);
        let run = run_bcongest(&algo, &g, Some(wg.weights()), &RunOptions::default()).unwrap();
        let want = reference::all_pairs_bfs(&g);
        for v in g.nodes() {
            for (s, row) in want.iter().enumerate() {
                assert_eq!(
                    run.outputs[v.index()].dist[s],
                    row[v.index()].map(u64::from)
                );
            }
        }
    }

    #[test]
    fn broadcast_complexity_near_n_squared() {
        let g = generators::gnp_connected(24, 0.15, 11);
        let wg = WeightedGraph::random_weights(&g, 1..=8, 11);
        let algo = WeightedApsp::new(8);
        let run = run_bcongest(&algo, &g, Some(wg.weights()), &RunOptions::default()).unwrap();
        let n = g.n() as u64;
        assert!(run.metrics.broadcasts >= n * n * 9 / 10);
        assert!(
            run.metrics.broadcasts <= n * n * 3 / 2,
            "B = {} vs n² = {}",
            run.metrics.broadcasts,
            n * n
        );
    }

    /// Every (node, source) pair broadcasts once, so `broadcasts − n²` counts
    /// the re-broadcasts after an improvement: at most 1 % of `n²` here.
    #[test]
    fn rebroadcasts_are_rare() {
        for (n, seed) in [(64, 1), (64, 2), (128, 3)] {
            let g = generators::gnp_connected(n, 8.0 / n as f64, seed);
            let wg = WeightedGraph::random_weights(&g, 1..=9, seed);
            let algo = WeightedApsp::new(9);
            let run = run_bcongest(&algo, &g, Some(wg.weights()), &RunOptions::default()).unwrap();
            let pairs = (n * n) as u64;
            let extra = run.metrics.broadcasts - pairs;
            assert!(extra <= pairs / 100, "{extra} re-broadcasts at n = {n}");
        }
    }

    #[test]
    fn rounds_scale_with_weighted_diameter() {
        let g = generators::path(10);
        let wg = WeightedGraph::from_weights(g.clone(), vec![10; 9]).unwrap();
        let algo = WeightedApsp::new(10);
        let run = run_bcongest(&algo, &g, Some(wg.weights()), &RunOptions::default()).unwrap();
        // Weighted diameter is 90; the round-gating means at least that many rounds.
        assert!(run.metrics.rounds >= 90);
        assert!(run.metrics.rounds <= 90 + 4 * 10 + 64);
    }
}
