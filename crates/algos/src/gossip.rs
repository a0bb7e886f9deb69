//! One-shot neighborhood gossip — the workspace's delivery probe.
//!
//! Every node broadcasts its ID once and adds everything it hears into a
//! checksum: a wrapping sum of one hash per received `(sender, payload,
//! round)`. The sum makes the checksum a function of the inbox *multiset*, as
//! [`BcongestAlgorithm::receive`] requires; the hash makes it depend on who
//! sent what, and when. A delivery path that drops, duplicates or
//! misattributes a message changes some node's checksum — which is why the
//! workload registry runs this at every thread count.
//!
//! Inbox *order* is not this probe's to check. The order the message plane
//! delivers in (ascending senders) is pinned by the plane's
//! `flat_matches_the_push_loop` proptest and by the engine `properties` tests
//! that run the round loop against a full scan.
//!
//! Unlike the other broadcast algorithms, gossip has a closed-form local
//! oracle: [`expected_gossip`] adds up what each node hears without running
//! the engine at all. The registry uses it as the differential check.

use congest_engine::{BcongestAlgorithm, LocalView, SurvivorMask};
use congest_graph::{rng, Graph, NodeId};

/// One-shot gossip: every node broadcasts its ID once and outputs a checksum
/// over everything it heard.
#[derive(Clone, Copy, Debug, Default)]
pub struct GossipOnce;

/// Per-node state of [`GossipOnce`].
#[derive(Clone, Debug)]
pub struct GossipState {
    pending: bool,
    heard: u64,
}

/// Adds one received `(from, payload)` pair at `round` to the running
/// checksum. Shared by the state machine and the local oracles so they cannot
/// drift.
fn fold(heard: u64, from: NodeId, w: u32, round: usize) -> u64 {
    let pair = u64::from(from.raw()) << 32 | u64::from(w);
    heard.wrapping_add(rng::derive(pair, round as u64))
}

impl BcongestAlgorithm for GossipOnce {
    type State = GossipState;
    type Msg = u32;
    type Output = u64;

    fn name(&self) -> &'static str {
        "gossip-once"
    }
    /// A node without neighbours has no one to tell: it starts done.
    fn init(&self, view: &LocalView<'_>) -> GossipState {
        GossipState {
            pending: view.degree() > 0,
            heard: u64::from(view.node().raw()),
        }
    }
    fn broadcast(&self, s: &GossipState, _round: usize) -> Option<u32> {
        s.pending.then_some(s.heard as u32)
    }
    fn on_broadcast_sent(&self, s: &mut GossipState, _round: usize) {
        s.pending = false;
    }
    fn receive(&self, s: &mut GossipState, round: usize, msgs: &[(NodeId, u32)]) {
        for &(from, w) in msgs {
            s.heard = fold(s.heard, from, w, round);
        }
    }
    fn is_done(&self, s: &GossipState) -> bool {
        !s.pending
    }
    fn output(&self, s: &GossipState) -> u64 {
        s.heard
    }
    fn round_bound(&self, n: usize, _m: usize) -> usize {
        n + 2
    }
    fn output_words(&self, _out: &u64) -> usize {
        1
    }
}

/// The closed-form oracle: what [`GossipOnce`] must output at every node.
///
/// Everyone broadcasts in round 0, so node `v` hears `(u, u)` from each
/// neighbor `u`, added to its own ID.
pub fn expected_gossip(g: &Graph) -> Vec<u64> {
    g.nodes()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .fold(u64::from(v.raw()), |heard, &u| fold(heard, u, u.raw(), 0))
        })
        .collect()
}

/// The fault-aware oracle: what [`GossipOnce`] outputs at every **live** node
/// after a [`congest_engine::FaultResponse::Restart`] plan whose last fault
/// fires at `round`.
///
/// Restart wipes all live state at each fault round, so the final checksum is
/// exactly one masked exchange at the last fault round: node `v` hears
/// `(u, u)` from each neighbor `u` whose edge the mask
/// [allows](SurvivorMask::allows). Crashed nodes keep frozen (unspecified)
/// state — the oracle returns `None` for them and the differential check
/// skips them.
pub fn expected_gossip_masked(g: &Graph, mask: &SurvivorMask, round: usize) -> Vec<Option<u64>> {
    g.nodes()
        .map(|v| {
            mask.node_up[v.index()].then(|| {
                g.incident(v)
                    .filter(|&(e, _)| mask.allows(g, e))
                    .fold(u64::from(v.raw()), |heard, (_, u)| {
                        fold(heard, u, u.raw(), round)
                    })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receive_order;
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::generators;
    use proptest::prelude::*;

    #[test]
    fn matches_local_oracle_on_families() {
        for g in [
            generators::gnp_connected(40, 0.15, 3),
            generators::path(17),
            generators::star(9),
            generators::cycle(12),
            generators::complete(8),
        ] {
            let run = run_bcongest(&GossipOnce, &g, None, &RunOptions::default()).unwrap();
            assert_eq!(run.outputs, expected_gossip(&g));
            // Exactly one message per edge direction.
            assert_eq!(run.metrics.messages, 2 * g.m() as u64);
        }
    }

    #[test]
    fn masked_oracle_matches_restarted_faulty_run() {
        use congest_engine::{FaultEvent, FaultPlan, FaultResponse};
        let g = generators::gnp_connected(24, 0.2, 5);
        // A crash at round 0 and an edge lost at round 2: the round-2 restart
        // re-gossips on the doubly-masked topology.
        let plan = FaultPlan::new(FaultResponse::Restart)
            .at(0, FaultEvent::Crash(NodeId::new(5)))
            .at(2, FaultEvent::EdgeDown(congest_graph::EdgeId::new(0)));
        let mask = plan.final_mask(&g);
        let last = plan.last_fault_round().unwrap();
        let opts = RunOptions {
            faults: Some(plan),
            ..RunOptions::default()
        };
        let run = run_bcongest(&GossipOnce, &g, None, &opts).unwrap();
        let want = expected_gossip_masked(&g, &mask, last);
        for v in g.nodes() {
            if let Some(w) = want[v.index()] {
                assert_eq!(run.outputs[v.index()], w, "checksum at {v:?}");
            }
        }
        assert!(run.metrics.dropped_messages > 0);
        // All-up mask at round 0 degenerates to the fault-free oracle.
        let all_up = SurvivorMask::all_up(&g);
        let base: Vec<u64> = expected_gossip_masked(&g, &all_up, 0)
            .into_iter()
            .map(Option::unwrap)
            .collect();
        assert_eq!(base, expected_gossip(&g));
    }

    /// The ascending-sender fold the one-pass `receive` must equal.
    fn receive_reference(s: &mut GossipState, round: usize, msgs: &[(NodeId, u32)]) {
        let mut sorted = msgs.to_vec();
        sorted.sort_unstable();
        for (from, w) in sorted {
            s.heard = fold(s.heard, from, w, round);
        }
    }

    proptest! {
        /// Same checksum and broadcast as the reference after every call,
        /// whatever the order of the inbox: repeated senders, repeated
        /// payloads, payloads that are not the sender's ID, the empty inbox.
        #[test]
        fn receive_matches_its_reference_in_any_order(
            steps in prop::collection::vec(
                (prop::collection::vec((0usize..6, 0u32..4), 0..8), 0u8..2),
                1..=6,
            ),
            shuffle_seed in 0u64..1000,
        ) {
            let g = generators::complete(8);
            let view = LocalView::new(&g, None, NodeId::new(5), 1);
            receive_order::check(
                &GossipOnce,
                &view,
                &steps,
                |(from, w)| (NodeId::new(from), w),
                shuffle_seed,
                receive_reference,
                |s| (s.pending, s.heard),
            )?;
        }
    }

    #[test]
    fn a_dropped_duplicated_or_misattributed_message_changes_the_checksum() {
        let g = generators::complete(6);
        let view = LocalView::new(&g, None, NodeId::new(0), 1);
        let heard = |round: usize, inbox: &[(NodeId, u32)]| {
            let mut s = GossipOnce.init(&view);
            GossipOnce.receive(&mut s, round, inbox);
            GossipOnce.output(&s)
        };
        // What node 0 hears in round 0: each neighbor's ID, from that neighbor.
        let from = |u: u32| (NodeId::new(u as usize), u);
        let want = heard(0, &[from(1), from(2), from(3)]);
        assert_eq!(heard(0, &[from(3), from(1), from(2)]), want, "reordered");
        for (inbox, what) in [
            (vec![from(1), from(2)], "dropped"),
            (vec![from(1), from(2), from(3), from(3)], "duplicated"),
            (vec![from(1), from(2), from(4)], "another node's broadcast"),
            (
                vec![from(1), from(2), (NodeId::new(4), 3)],
                "another sender",
            ),
            (
                vec![from(1), from(2), (NodeId::new(3), 4)],
                "another payload",
            ),
        ] {
            assert_ne!(heard(0, &inbox), want, "{what}");
        }
        assert_ne!(
            heard(1, &[from(1), from(2), from(3)]),
            want,
            "another round"
        );
    }
}
