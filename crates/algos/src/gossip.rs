//! One-shot neighborhood gossip in point-to-point CONGEST — the workspace's
//! canonical *order-sensitive* delivery probe.
//!
//! Every node sends its ID to each neighbor once and folds everything it hears
//! into a non-commutative checksum, so the output depends on the exact inbox
//! order the engine delivers. A delivery path that reorders, drops, or
//! duplicates a message changes some node's checksum — which is why the
//! workload registry runs this at every thread count.
//!
//! Unlike the broadcast algorithms, gossip has a closed-form local oracle:
//! the engine contract delivers round-`r` inboxes in ascending sender order,
//! so [`expected_gossip`] replays the fold per node without running the engine
//! at all. The registry uses it as the differential check.

use congest_engine::{CongestAlgorithm, LocalView, SurvivorMask};
use congest_graph::{Graph, NodeId};

/// The checksum multiplier (Knuth's MMIX LCG constant): any fixed odd constant
/// works, it only has to make the fold order-sensitive.
const MIX: u64 = 6364136223846793005;

/// One-shot gossip: flood each node's ID one hop with per-neighbor messages,
/// output an order-sensitive checksum over everything heard.
#[derive(Clone, Copy, Debug, Default)]
pub struct GossipOnce;

/// Per-node state of [`GossipOnce`].
#[derive(Clone, Debug)]
pub struct GossipState {
    neighbors: Vec<NodeId>,
    pending: bool,
    heard: u64,
}

/// Folds one received `(from, payload)` pair into the running checksum.
/// Shared by the state machine and the local oracle so they cannot drift.
fn fold(heard: u64, from: NodeId, w: u32, round: usize) -> u64 {
    heard
        .wrapping_mul(MIX)
        .wrapping_add(u64::from(from.raw()) ^ u64::from(w) ^ round as u64)
}

impl CongestAlgorithm for GossipOnce {
    type State = GossipState;
    type Msg = u32;
    type Output = u64;

    fn name(&self) -> &'static str {
        "gossip-once"
    }
    fn init(&self, view: &LocalView<'_>) -> GossipState {
        GossipState {
            neighbors: view.neighbors().to_vec(),
            pending: true,
            heard: u64::from(view.node().raw()),
        }
    }
    fn sends(&self, s: &GossipState, _round: usize) -> Vec<(NodeId, u32)> {
        if !s.pending {
            return Vec::new();
        }
        s.neighbors
            .iter()
            .map(|&u| (u, (s.heard & 0xffff_ffff) as u32))
            .collect()
    }
    fn on_sent(&self, s: &mut GossipState, _round: usize) {
        s.pending = false;
    }
    fn receive(&self, s: &mut GossipState, round: usize, msgs: &[(NodeId, u32)]) {
        // Deliberately order-sensitive fold: a reordered inbox would change
        // the checksum.
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
}

/// The closed-form oracle: what [`GossipOnce`] must output at every node.
///
/// Everyone sends in round 0 and inboxes arrive in ascending sender order
/// (the engine's delivery contract), so node `v` hears `(u, u)` for each
/// neighbor `u` in ascending ID order, folded onto its own ID.
pub fn expected_gossip(g: &Graph) -> Vec<u64> {
    g.nodes()
        .map(|v| {
            let mut senders: Vec<NodeId> = g.neighbors(v).to_vec();
            senders.sort_unstable();
            senders
                .into_iter()
                .fold(u64::from(v.raw()), |heard, u| fold(heard, u, u.raw(), 0))
        })
        .collect()
}

/// The fault-aware oracle: what [`GossipOnce`] outputs at every **live** node
/// after a [`congest_engine::FaultResponse::Restart`] plan whose last fault
/// fires at `round`.
///
/// Restart wipes all live state at each fault round, so the final checksum is
/// exactly one masked exchange folded at the last fault round: node `v` hears
/// `(u, u)` for each neighbor `u` whose edge the mask
/// [allows](SurvivorMask::allows), in ascending ID order. Crashed nodes keep
/// frozen (unspecified) state — the oracle returns `None` for them and the
/// differential check skips them.
pub fn expected_gossip_masked(g: &Graph, mask: &SurvivorMask, round: usize) -> Vec<Option<u64>> {
    g.nodes()
        .map(|v| {
            if !mask.node_up[v.index()] {
                return None;
            }
            let mut senders: Vec<NodeId> = g
                .incident(v)
                .filter(|&(e, _)| mask.allows(g, e))
                .map(|(_, u)| u)
                .collect();
            senders.sort_unstable();
            Some(senders.into_iter().fold(u64::from(v.raw()), |heard, u| {
                fold(heard, u, u.raw(), round)
            }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_engine::{run_congest, RunOptions};
    use congest_graph::generators;

    #[test]
    fn matches_local_oracle_on_families() {
        for g in [
            generators::gnp_connected(40, 0.15, 3),
            generators::path(17),
            generators::star(9),
            generators::cycle(12),
            generators::complete(8),
        ] {
            let run = run_congest(&GossipOnce, &g, None, &RunOptions::default()).unwrap();
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
        let run = run_congest(&GossipOnce, &g, None, &opts).unwrap();
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

    #[test]
    fn checksum_is_order_sensitive() {
        // Folding two distinct contributions in swapped order gives a
        // different sum.
        let a = fold(fold(7, NodeId::new(1), 5, 0), NodeId::new(2), 9, 0);
        let b = fold(fold(7, NodeId::new(2), 9, 0), NodeId::new(1), 5, 0);
        assert_ne!(a, b);
    }
}
