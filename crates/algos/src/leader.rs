//! Leader election, BFS-tree construction and node counting — the preprocessing every
//! simulation starts with (§2.2 step 1: "compute and ensure all nodes know n").
//!
//! [`LeaderElect`] floods the minimum ID with distance tracking, which simultaneously
//! elects the minimum-ID node and hands every node a parent in that node's BFS tree.
//! [`setup_network`] packages the whole preprocessing: election, subtree counting
//! (a convergecast) and broadcasting `n`, with realized metrics. The count and the
//! broadcast are one word per tree edge each, charged by
//! [`congest_engine::treeops::tree_pass`].
//!
//! The paper cites Kutten et al. \[25\] for an `O(m log n)`-message election; flooding
//! with re-broadcast-only-on-improvement is our accounted substitute (see DESIGN.md §2).

use congest_engine::{
    run_bcongest, BcongestAlgorithm, EngineError, Forest, LocalView, Metrics, RunOptions,
    WireEncode,
};
use congest_graph::{Graph, NodeId};

/// Message: (candidate leader ID, sender's distance from it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaderMsg {
    /// Smallest ID known to the sender.
    pub leader: u32,
    /// Sender's (candidate) distance from that node.
    pub dist: u32,
}

impl WireEncode for LeaderMsg {
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        out[0] = self.leader;
        out[1] = self.dist;
    }
}

/// Min-ID flooding with BFS-parent tracking.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeaderElect;

/// Per-node election state.
#[derive(Clone, Debug)]
pub struct LeaderState {
    best: u32,
    dist: u32,
    parent: Option<NodeId>,
    dirty: bool,
}

/// Election output at one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaderOutput {
    /// The elected leader (the minimum ID in the network).
    pub leader: NodeId,
    /// Hop distance from the leader.
    pub dist: u32,
    /// Parent towards the leader (`None` at the leader).
    pub parent: Option<NodeId>,
}

impl BcongestAlgorithm for LeaderElect {
    type State = LeaderState;
    type Msg = LeaderMsg;
    type Output = LeaderOutput;

    fn name(&self) -> &'static str {
        "leader-elect"
    }

    fn init(&self, view: &LocalView<'_>) -> LeaderState {
        LeaderState {
            best: view.node().raw(),
            dist: 0,
            parent: None,
            dirty: true,
        }
    }

    fn broadcast(&self, s: &LeaderState, _round: usize) -> Option<LeaderMsg> {
        s.dirty.then_some(LeaderMsg {
            leader: s.best,
            dist: s.dist,
        })
    }

    fn on_broadcast_sent(&self, s: &mut LeaderState, _round: usize) {
        s.dirty = false;
    }

    fn receive(&self, s: &mut LeaderState, _round: usize, msgs: &[(NodeId, LeaderMsg)]) {
        // Adopt lexicographically better (leader, dist+1); ties by sender ID keep the
        // tree deterministic. Only the minimum message can win: once it has been
        // compared, no later one in `(leader, dist, sender)` order is strictly better.
        let min = msgs
            .iter()
            // A message is another node's word: a distance that would overflow is ignored.
            .filter(|(_, m)| m.dist < u32::MAX)
            .min_by_key(|(from, m)| (m.leader, m.dist, *from));
        let Some(&(from, m)) = min else {
            return;
        };
        if (m.leader, m.dist + 1) < (s.best, s.dist) {
            s.best = m.leader;
            s.dist = m.dist + 1;
            s.parent = Some(from);
            s.dirty = true;
        }
    }

    fn is_done(&self, s: &LeaderState) -> bool {
        !s.dirty
    }

    fn output(&self, s: &LeaderState) -> LeaderOutput {
        LeaderOutput {
            leader: NodeId::from(s.best),
            dist: s.dist,
            parent: s.parent,
        }
    }

    fn round_bound(&self, n: usize, _m: usize) -> usize {
        2 * n + 4
    }

    fn output_words(&self, _out: &LeaderOutput) -> usize {
        1
    }

    /// Self-heal: the topology changed, so the node's current best may now be
    /// beatable (a new edge arrived) or need re-announcing to a freshly
    /// re-initialized neighbor — re-arm the flood. Sound under *additive*
    /// churn (edges coming up): min-ID flooding is monotone, so re-flooding
    /// from current bests converges to the full-graph election.
    fn on_fault(&self, s: &mut LeaderState, _round: usize) {
        s.dirty = true;
    }
}

/// The result of network preprocessing: an elected leader, its BFS tree, and the cost
/// of establishing them plus counting/broadcasting `n`.
#[derive(Clone, Debug)]
pub struct NetworkSetup {
    /// The leader (minimum-ID node).
    pub leader: NodeId,
    /// A BFS tree of the graph rooted at the leader.
    pub tree: Forest,
    /// Realized cost: election + convergecast of the node count + broadcast of `n`.
    pub metrics: Metrics,
}

/// Elects a leader, builds its BFS tree, counts nodes (convergecast) and broadcasts `n`
/// (downcast flood), all with realized accounting.
///
/// # Errors
///
/// Propagates engine errors (round-limit, invalid forest — neither can occur on a
/// connected graph).
pub fn setup_network(g: &Graph, seed: u64) -> Result<NetworkSetup, EngineError> {
    let opts = RunOptions {
        seed,
        ..RunOptions::default()
    };
    let run = run_bcongest(&LeaderElect, g, None, &opts)?;
    let mut metrics = run.metrics;

    let parents: Vec<Option<NodeId>> = run.outputs.iter().map(|o| o.parent).collect();
    let tree = Forest::from_parents(g, parents)?;
    let leader = run.outputs.first().map_or(NodeId::new(0), |o| o.leader);

    // Convergecast the subtree counts (one word per tree edge, leaves-to-root), then
    // every root floods its tree's count back down (one word per tree edge) — on a
    // connected graph that is the leader broadcasting `n`. Each pass costs `depth`
    // rounds and `n - 1` messages.
    for _ in 0..2 {
        metrics.merge_sequential(&congest_engine::treeops::tree_pass(g, &tree, tree.roots())?);
    }

    Ok(NetworkSetup {
        leader,
        tree,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receive_order;
    use congest_graph::{generators, reference};
    use proptest::prelude::*;

    /// The sorted `receive` the minimum-only one replaced.
    fn receive_reference(s: &mut LeaderState, msgs: &[(NodeId, LeaderMsg)]) {
        let mut sorted: Vec<&(NodeId, LeaderMsg)> = msgs.iter().collect();
        sorted.sort_unstable_by_key(|(from, m)| (m.leader, m.dist, *from));
        for &&(from, m) in &sorted {
            let cand = (m.leader, m.dist + 1);
            if cand < (s.best, s.dist) {
                s.best = m.leader;
                s.dist = m.dist + 1;
                s.parent = Some(from);
                s.dirty = true;
            }
        }
    }

    proptest! {
        /// Same state and broadcasts as the reference after every call,
        /// whatever the order of the inbox: repeated senders, ties on
        /// `(leader, dist)`, candidates above and below the node's own ID, the
        /// empty inbox.
        #[test]
        fn receive_matches_its_reference_in_any_order(
            steps in prop::collection::vec(
                (prop::collection::vec((0usize..6, 2u32..7, 0u32..4), 0..8), 0u8..2),
                1..=6,
            ),
            shuffle_seed in 0u64..1000,
        ) {
            let g = generators::complete(8);
            let view = LocalView::new(&g, None, NodeId::new(5), 1);
            receive_order::check(
                &LeaderElect,
                &view,
                &steps,
                |(from, leader, dist)| (NodeId::new(from), LeaderMsg { leader, dist }),
                shuffle_seed,
                |s, _, msgs| receive_reference(s, msgs),
                |s| (s.best, s.dist, s.parent, s.dirty),
            )?;
        }
    }

    #[test]
    fn a_distance_that_would_overflow_is_ignored() {
        let g = generators::path(3);
        let mut s = LeaderElect.init(&LocalView::new(&g, None, NodeId::new(2), 1));
        let far = LeaderMsg {
            leader: 0,
            dist: u32::MAX,
        };
        LeaderElect.receive(&mut s, 0, &[(NodeId::new(1), far)]);
        assert_eq!(LeaderElect.output(&s).leader, NodeId::new(2));
        // … and does not hide the message behind it.
        let near = LeaderMsg { leader: 1, dist: 0 };
        LeaderElect.receive(&mut s, 0, &[(NodeId::new(1), far), (NodeId::new(1), near)]);
        let out = LeaderElect.output(&s);
        assert_eq!((out.leader, out.dist), (NodeId::new(1), 1));
    }

    #[test]
    fn elects_minimum_and_builds_bfs_tree() {
        let g = generators::gnp_connected(35, 0.1, 4);
        let setup = setup_network(&g, 1).unwrap();
        assert_eq!(setup.leader, NodeId::new(0));
        // Tree is a BFS tree: depth_of == BFS distance.
        let want = reference::bfs_distances(&g, NodeId::new(0));
        for v in g.nodes() {
            assert_eq!(
                setup.tree.depth_of(v),
                want[v.index()].unwrap(),
                "depth of {v:?}"
            );
        }
        assert_eq!(setup.tree.roots(), &[NodeId::new(0)]);
    }

    #[test]
    fn metrics_within_flooding_budget() {
        let g = generators::gnp_connected(30, 0.15, 8);
        let setup = setup_network(&g, 2).unwrap();
        // Messages: flooding is O(m · improvements); improvements per node are small.
        // Generous check: within 8·m·log n plus the two tree passes.
        let bound = 8 * g.m() as u64 * 6 + 2 * (g.n() as u64 - 1);
        assert!(
            setup.metrics.messages <= bound,
            "messages = {}",
            setup.metrics.messages
        );
        assert!(setup.metrics.rounds >= u64::from(setup.tree.depth()));
    }

    #[test]
    fn self_heals_under_up_only_edge_churn() {
        use congest_engine::{FaultEvent, FaultPlan, FaultResponse};
        let g = generators::path(6);
        let clean = run_bcongest(&LeaderElect, &g, None, &RunOptions::default()).unwrap();
        // The 2–3 bridge is down from the start and comes up at round 6, after
        // both halves have quiesced on their local minima; `on_fault` re-arms
        // the flood and the election converges to the full-graph result.
        let bridge = g
            .edge_between(NodeId::new(2), NodeId::new(3))
            .expect("path edge");
        let opts = RunOptions {
            faults: Some(
                FaultPlan::new(FaultResponse::SelfHeal)
                    .at(0, FaultEvent::EdgeDown(bridge))
                    .at(6, FaultEvent::EdgeUp(bridge)),
            ),
            ..RunOptions::default()
        };
        let healed = run_bcongest(&LeaderElect, &g, None, &opts).unwrap();
        assert_eq!(healed.outputs, clean.outputs);
        assert!(healed.metrics.dropped_messages > 0, "round-0 sends dropped");
        assert!(healed.metrics.rounds > clean.metrics.rounds);
    }

    #[test]
    fn restart_elects_per_component_minima_after_crashes() {
        use congest_engine::faults::masked_components;
        use congest_engine::{FaultEvent, FaultPlan, FaultResponse};
        let g = generators::path(7);
        let plan = FaultPlan::new(FaultResponse::Restart).at(0, FaultEvent::Crash(NodeId::new(3)));
        let mask = plan.final_mask(&g);
        let opts = RunOptions {
            faults: Some(plan),
            ..RunOptions::default()
        };
        let run = run_bcongest(&LeaderElect, &g, None, &opts).unwrap();
        let want = masked_components(&g, &mask);
        for v in g.nodes() {
            if let Some(leader) = want[v.index()] {
                assert_eq!(run.outputs[v.index()].leader, leader, "leader at {v:?}");
            }
        }
    }

    #[test]
    fn works_on_a_path() {
        let g = generators::path(10);
        let setup = setup_network(&g, 3).unwrap();
        assert_eq!(setup.leader, NodeId::new(0));
        assert_eq!(setup.tree.depth(), 9);
        // Election on a path: node i adopts 0 at round i; rounds ≈ n.
        assert!(setup.metrics.rounds >= 9);
    }
}
