//! The flat message plane: the round buffer the direct runner delivers
//! through.
//!
//! Pushing a typed tuple per in-flight message into its receiver's `Vec`
//! inbox makes allocator traffic dominate the round loop at n = 10⁵–10⁶.
//! [`FlatPlane`] instead lays a round's messages out in one flat inbox arena,
//! grouped by receiver, with a **counting sort** over the broadcasts
//! themselves. A BCONGEST broadcast is one `(sender, msg)` that crosses every
//! edge at its sender, so the round's senders already hold every copy; the
//! plane makes two passes over their incident edges, in ascending sender
//! order, and stores each copy once:
//!
//! 1. *count + charge* — the first pass drops what the fault mask forbids,
//!    charges [`Metrics`] per delivered copy, and bumps the per-receiver
//!    count. A receiver's first copy also enters it into a bitset, which is
//!    then drained into the round's ascending `receivers` list.
//! 2. *write* — a running sum over `receivers` gives each its slice of the
//!    inbox arena, and the second pass writes each copy's `(sender, msg)`
//!    straight into its receiver's slice. Senders are visited in ascending
//!    order, so each receiver sees its messages in sender order — exactly
//!    what pushing `(sender, msg)` into per-node inboxes sender by sender
//!    would give (the reference this module's unit tests compare against).
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
//! All buffers — counts, cursors, the receiver list, the inbox — live in the
//! [`FlatPlane`] and are reused across rounds. The inbox only grows, in a
//! round larger than any before it, so once warm a steady-state round
//! performs **zero heap allocations** (pinned by
//! `crates/engine/tests/alloc_regression.rs`).

use crate::agenda::NodeSet;
use crate::faults::SurvivorMask;
use crate::metrics::Metrics;
use crate::wire::WireEncode;
use congest_graph::{EdgeId, Graph, NodeId};

/// Reusable flat round buffers for messages of type `M`.
///
/// One value serves one run: construct with [`FlatPlane::new`] for the graph's
/// node count, then alternate [`FlatPlane::deliver`] / [`FlatPlane::receive`]
/// once per round. See the module docs for the layout and the order argument.
#[derive(Debug)]
pub struct FlatPlane<M: WireEncode> {
    /// Per-receiver message counts (`n` entries): non-zero exactly for the
    /// receivers of a delivered, not yet received round.
    counts: Vec<u32>,
    /// Write cursors into the inbox arena (`n` entries, meaningful for the
    /// round's receivers only): a receiver's first slot before the write
    /// pass, one past its last after it.
    cursors: Vec<u32>,
    /// Receivers seen by the count pass, until drained into `receivers`.
    touched: NodeSet,
    /// The receivers of the last delivered round, ascending.
    receivers: Vec<u32>,
    /// The inbox arena: `(sender, msg)`, grouped by receiver in `receivers`
    /// order. Grow-only; the round fills its first `delivered` slots.
    inbox: Vec<(NodeId, M)>,
    /// Messages delivered in the round in flight (0 after receive).
    delivered: usize,
}

impl<M: WireEncode> FlatPlane<M> {
    /// An empty plane for an `n`-node graph. The fixed-size tables are
    /// allocated up front; the inbox grows on first use and is reused after.
    pub fn new(n: usize) -> Self {
        Self {
            counts: vec![0; n],
            cursors: vec![0; n],
            touched: NodeSet::new(n),
            receivers: Vec::new(),
            inbox: Vec::new(),
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

    /// Counts, charges and writes one round of broadcasts.
    ///
    /// `senders` lists the round's broadcasts **in node order**; each crosses
    /// every edge incident to its sender in `g`, in [`Graph::incident`] order.
    /// A message over an edge `mask` has down, or to a receiver it has
    /// crashed, is dropped here: never delivered, never charged, only counted
    /// in `metrics.dropped_messages`. Charges each delivered message to
    /// `metrics` as one word of `4 × LANES` bytes.
    pub fn deliver(
        &mut self,
        g: &Graph,
        senders: &[(NodeId, M)],
        mask: Option<&SurvivorMask>,
        metrics: &mut Metrics,
    ) {
        debug_assert_eq!(self.delivered, 0, "deliver twice without receive");
        let up = |e: EdgeId, u: NodeId| {
            mask.is_none_or(|m| m.edge_up[e.index()] && m.node_up[u.index()])
        };

        // 1. Count receivers and charge metrics, in sender order. The counts
        //    are all zero on entry: the last receive zeroed its own.
        let bytes = 4 * M::LANES as u64;
        let mut total = 0usize;
        for (v, _) in senders {
            for (e, u) in g.incident(*v) {
                if !up(e, u) {
                    metrics.dropped_messages += 1;
                    continue;
                }
                metrics.add_messages_sized(e, 1, bytes);
                if self.counts[u.index()] == 0 {
                    self.touched.insert(u.index());
                }
                self.counts[u.index()] += 1;
                total += 1;
            }
        }

        // 2. Offsets over the ascending receiver list, then write every copy
        //    into its receiver's slice of the inbox, which grows only past its
        //    largest round. Any value fills the new slots: the pass below
        //    overwrites each of the round's `total` slots once.
        self.receivers.clear();
        self.touched.drain_into(&mut self.receivers);
        let mut acc = 0u32;
        for &u in &self.receivers {
            self.cursors[u as usize] = acc;
            acc += self.counts[u as usize];
        }
        if total > self.inbox.len() {
            let (v, m) = &senders[0];
            self.inbox.resize(total, (*v, m.clone()));
        }
        for (v, msg) in senders {
            for (e, u) in g.incident(*v) {
                if up(e, u) {
                    let slot = &mut self.cursors[u.index()];
                    self.inbox[*slot as usize] = (*v, msg.clone());
                    *slot += 1;
                }
            }
        }
        self.delivered = total;
    }

    /// Applies `f(node, state, inbox)` to every receiver, in node order, and
    /// marks the round received. Returns whether any node received.
    pub fn receive<St, F>(&mut self, states: &mut [St], mut f: F) -> bool
    where
        F: FnMut(usize, &mut St, &[(NodeId, M)]),
    {
        assert_eq!(states.len(), self.n(), "states must match the plane");
        if self.delivered == 0 {
            return false;
        }
        for &u in &self.receivers {
            let u = u as usize;
            let end = self.cursors[u] as usize;
            f(
                u,
                &mut states[u],
                &self.inbox[end - self.counts[u] as usize..end],
            );
            // The next count pass starts from an all-zero table.
            self.counts[u] = 0;
        }
        self.delivered = 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use proptest::prelude::*;

    /// `receiver → [(sender, msg)]`, one round.
    type Inboxes<M> = Vec<Vec<(NodeId, M)>>;

    /// One round's input: its senders in node order and its fault mask.
    type Round<M> = (Vec<(NodeId, M)>, Option<SurvivorMask>);

    /// A payload with variants of different shapes, so the plane moves
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

    /// Payload `p`'s message: the variant cycles with `p`.
    fn shaped(p: u64) -> Shaped {
        match p % 3 {
            0 => Shaped::Id(p),
            1 => Shaped::Pair(p as u32, EdgeId::new(p as usize)),
            _ => Shaped::Mark,
        }
    }

    /// The reference the plane is pinned against: sender by sender, push each
    /// broadcast over every incident edge the mask allows straight into its
    /// receiver's `Vec` inbox, and count the rest.
    fn reference_round<M: WireEncode>(
        g: &Graph,
        senders: &[(NodeId, M)],
        mask: Option<&SurvivorMask>,
        metrics: &mut Metrics,
    ) -> Inboxes<M> {
        let bytes = 4 * M::LANES as u64;
        let mut inboxes: Inboxes<M> = vec![Vec::new(); g.n()];
        for (v, m) in senders {
            for (e, u) in g.incident(*v) {
                if mask.is_some_and(|k| !k.edge_up[e.index()] || !k.node_up[u.index()]) {
                    metrics.dropped_messages += 1;
                } else {
                    metrics.add_messages_sized(e, 1, bytes);
                    inboxes[u.index()].push((*v, m.clone()));
                }
            }
        }
        inboxes
    }

    /// Runs `rounds` — each a sender list in node order and a fault mask — on
    /// one fresh plane and on the push-loop reference side by side, and
    /// checks after every round: the metrics, the receiver list, the nodes
    /// `receive` visits and in what order, its answer, and every inbox.
    fn matches_the_push_loop<M: WireEncode>(
        g: &Graph,
        rounds: &[Round<M>],
    ) -> Result<(), TestCaseError> {
        let mut plane: FlatPlane<M> = FlatPlane::new(g.n());
        let (mut got_m, mut want_m) = (Metrics::new(g.m()), Metrics::new(g.m()));
        for (r, (senders, mask)) in rounds.iter().enumerate() {
            let want = reference_round(g, senders, mask.as_ref(), &mut want_m);
            plane.deliver(g, senders, mask.as_ref(), &mut got_m);
            prop_assert_eq!(&got_m, &want_m, "metrics after round {}", r);
            let addressed: Vec<u32> = (0..g.n() as u32)
                .filter(|&u| !want[u as usize].is_empty())
                .collect();
            prop_assert_eq!(plane.receivers(), &addressed[..], "receivers, round {}", r);
            let mut got: Inboxes<M> = vec![Vec::new(); g.n()];
            let mut visited = Vec::new();
            let any = plane.receive(&mut got, |u, inbox, msgs| {
                visited.push(u as u32);
                inbox.extend_from_slice(msgs);
            });
            prop_assert_eq!(any, !addressed.is_empty(), "receive's answer, round {}", r);
            prop_assert_eq!(visited, addressed, "visit order, round {}", r);
            prop_assert_eq!(got, want, "inboxes in sender order, round {}", r);
        }
        Ok(())
    }

    /// A well-mixed 64-bit hash of `(seed, x)`.
    fn mix(seed: u64, x: usize) -> u64 {
        let mut z = seed ^ (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One round per draw `(bits, sparse, kind, seed)`: the senders are the
    /// nodes `bits` selects (about a quarter of those when `sparse`), each
    /// sending `msg` of its ID and the round; `kind` picks no mask, random
    /// faults (about one node in eight crashed, one edge in four down), every
    /// edge down, or only the first sender's edges down.
    fn drawn_rounds<M>(
        g: &Graph,
        draws: &[(u64, u8, u8, u64)],
        msg: fn(u64) -> M,
    ) -> Vec<Round<M>> {
        let round = |r: usize, &(bits, sparse, kind, seed): &(u64, u8, u8, u64)| {
            let senders: Vec<(NodeId, M)> = g
                .nodes()
                .filter(|v| {
                    bits >> v.index() & 1 == 1
                        && (sparse == 0 || mix(seed, v.index()).is_multiple_of(4))
                })
                .map(|v| (v, msg(v.index() as u64 + 100 * r as u64)))
                .collect();
            let mut mask = SurvivorMask::all_up(g);
            match kind {
                0 => return (senders, None),
                1 => {
                    for (i, up) in mask.node_up.iter_mut().enumerate() {
                        *up = !mix(seed, i).is_multiple_of(8);
                    }
                    for (e, up) in mask.edge_up.iter_mut().enumerate() {
                        *up = !mix(!seed, e).is_multiple_of(4);
                    }
                }
                2 => mask.edge_up.fill(false),
                _ => {
                    if let Some((v, _)) = senders.first() {
                        for (e, _) in g.incident(*v) {
                            mask.edge_up[e.index()] = false;
                        }
                    }
                }
            }
            (senders, Some(mask))
        };
        draws.iter().enumerate().map(|(r, d)| round(r, d)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The plane against the push loop over 3–5 consecutive rounds of one
        /// gnp graph (isolated nodes included), both payload types: dense
        /// rounds after sparse ones run over tables the sparse ones zeroed
        /// receiver by receiver, and any round may drop some, all or none of
        /// its copies.
        #[test]
        fn flat_matches_the_push_loop(
            n in 1usize..=48,
            percent in 0u64..=40,
            graph_seed in 0u64..1000,
            draws in prop::collection::vec((0u64..1 << 48, 0u8..2, 0u8..4, 0u64..1000), 3..=5),
        ) {
            let g = generators::gnp(n, percent as f64 / 100.0, graph_seed);
            matches_the_push_loop(&g, &drawn_rounds(&g, &draws, |p| p))?;
            matches_the_push_loop(&g, &drawn_rounds(&g, &draws, shaped))?;
        }
    }

    /// A round whose every copy is dropped charges nothing, has no receivers,
    /// `receive` reports `false`, and `dropped_messages` counts every copy;
    /// the plane then delivers the next round as if it never happened.
    #[test]
    fn a_fully_dropped_round_charges_nothing() {
        let g = generators::gnp_connected(30, 0.2, 5);
        let all: Vec<(NodeId, u64)> = g.nodes().map(|v| (v, v.index() as u64)).collect();
        let mut down = SurvivorMask::all_up(&g);
        down.edge_up.fill(false);
        let mut plane: FlatPlane<u64> = FlatPlane::new(g.n());
        let mut metrics = Metrics::new(g.m());
        plane.deliver(&g, &all, Some(&down), &mut metrics);
        let mut want = Metrics::new(g.m());
        want.dropped_messages = 2 * g.m() as u64;
        assert_eq!(metrics, want);
        assert!(plane.receivers().is_empty());
        let mut states = vec![0u32; g.n()];
        assert!(!plane.receive(&mut states, |_, _, _| panic!("nothing to receive")));
        let rounds = [(all.clone(), Some(down)), (all, None)];
        matches_the_push_loop(&g, &rounds).unwrap();
    }

    /// The first round of a fresh plane grows the inbox; here its first sender
    /// is cut off entirely, so the value the inbox grows from is not the
    /// first delivered message, and every slot must still be overwritten.
    #[test]
    fn a_first_round_grows_past_a_cut_off_first_sender() {
        let g = generators::path(9);
        let senders: Vec<(NodeId, Shaped)> =
            g.nodes().map(|v| (v, shaped(v.index() as u64))).collect();
        let mut mask = SurvivorMask::all_up(&g);
        mask.edge_up[g.incident(senders[0].0).next().unwrap().0.index()] = false;
        let rounds = [(senders.clone(), Some(mask)), (senders, None)];
        matches_the_push_loop(&g, &rounds).unwrap();
    }

    #[test]
    fn empty_round_is_free_and_receive_reports_false() {
        let g = generators::path(4);
        let mut plane: FlatPlane<u32> = FlatPlane::new(4);
        let mut metrics = Metrics::new(3);
        plane.deliver(&g, &[], None, &mut metrics);
        assert_eq!(metrics, Metrics::new(3));
        let mut states = vec![0u32; 4];
        assert!(!plane.receive(&mut states, |_, _, _| panic!("nothing to receive")));
    }
}
