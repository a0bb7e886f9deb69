//! Deterministic fault injection: seeded per-round schedules of edge churn
//! and node crash/recovery, with message-drop semantics.
//!
//! A [`FaultPlan`] is a sorted list of `(round, event)` pairs plus a
//! [`FaultResponse`] policy. The runners apply due events at the **start** of
//! each round, before sends are collected:
//!
//! * a crashed node sends nothing, receives nothing, and keeps its state
//!   frozen until it recovers (or forever);
//! * a message whose edge is down, or whose receiver is crashed, is silently
//!   dropped by the network — it is never delivered and never charged to
//!   [`crate::Metrics::messages`] or the congestion vector, but the drop
//!   count lands in [`crate::Metrics::dropped_messages`];
//! * on any fault round, [`FaultResponse::Restart`] re-initializes every live
//!   node from scratch, while [`FaultResponse::SelfHeal`] re-initializes only
//!   freshly recovered nodes and notifies every other live node through the
//!   algorithm's `on_fault` hook.
//!
//! Fault application and the response policy run sequentially before any
//! phase fans out, and drop filtering sits at the single expansion point of
//! each runner, so faulty runs stay byte-identical at every thread count —
//! `tests/fault_conformance.rs` pins this.

use congest_graph::{rng, EdgeId, Graph, NodeId};
use rand::seq::SliceRandom;
use std::fmt;

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The edge goes down: messages crossing it are dropped until it comes
    /// back up.
    EdgeDown(EdgeId),
    /// The edge comes back up.
    EdgeUp(EdgeId),
    /// The node crashes: it stops sending/receiving and its state freezes.
    Crash(NodeId),
    /// The node recovers: it is re-initialized and rejoins the protocol.
    Recover(NodeId),
}

/// How live nodes react when a fault round fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultResponse {
    /// Every live node is re-initialized from scratch on each fault round —
    /// the algorithm reruns on the post-fault topology. Correct for any
    /// algorithm; costs the completed progress.
    Restart,
    /// Only recovered nodes are re-initialized; every other live node gets
    /// the algorithm's `on_fault` hook (e.g. leader election re-arms its
    /// flood). Requires the algorithm to be self-stabilizing under the
    /// plan's fault pattern.
    SelfHeal,
}

/// A deterministic per-round fault schedule.
///
/// Built with [`FaultPlan::new`] + [`FaultPlan::at`], or seeded via
/// [`FaultPlan::edge_churn`] / [`FaultPlan::crashes`]. The schedule is kept
/// sorted by round (stable — same-round events apply in insertion order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(round, event)` pairs, sorted by round.
    pub schedule: Vec<(usize, FaultEvent)>,
    /// The response policy for live nodes.
    pub response: FaultResponse,
}

impl FaultPlan {
    /// An empty plan with the given response policy.
    pub fn new(response: FaultResponse) -> Self {
        Self {
            schedule: Vec::new(),
            response,
        }
    }

    /// Schedules `event` at the start of `round` (builder-style). Keeps the
    /// schedule sorted by round, inserting after existing same-round events.
    #[must_use]
    pub fn at(mut self, round: usize, event: FaultEvent) -> Self {
        let pos = self.schedule.partition_point(|&(r, _)| r <= round);
        self.schedule.insert(pos, (round, event));
        self
    }

    /// Seeded edge churn: `k` distinct edges (chosen by seeded shuffle) go
    /// down at `down_round` and come back up at `up_round`.
    ///
    /// # Panics
    ///
    /// Panics if `up_round <= down_round` or the graph has fewer than `k`
    /// edges.
    pub fn edge_churn(
        g: &Graph,
        k: usize,
        down_round: usize,
        up_round: usize,
        seed: u64,
        response: FaultResponse,
    ) -> Self {
        assert!(up_round > down_round, "edges must come up after going down");
        assert!(k <= g.m(), "cannot churn more edges than exist");
        let mut edges: Vec<EdgeId> = g.edges().map(|(e, _, _)| e).collect();
        let mut r = rng::seeded(rng::derive(seed, 0xfa17_0001));
        edges.shuffle(&mut r);
        let mut plan = Self::new(response);
        for &e in edges.iter().take(k) {
            plan = plan
                .at(down_round, FaultEvent::EdgeDown(e))
                .at(up_round, FaultEvent::EdgeUp(e));
        }
        plan
    }

    /// Seeded permanent crashes: `count` nodes (chosen by seeded shuffle,
    /// never from `protect`) crash at `round` and do not recover. The
    /// response is always [`FaultResponse::Restart`] — a crashed-for-good
    /// node cannot be healed around without restart semantics in general.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` unprotected nodes exist.
    pub fn crashes(g: &Graph, count: usize, round: usize, seed: u64, protect: &[NodeId]) -> Self {
        let mut nodes: Vec<NodeId> = g.nodes().filter(|v| !protect.contains(v)).collect();
        assert!(count <= nodes.len(), "not enough unprotected nodes");
        let mut r = rng::seeded(rng::derive(seed, 0xfa17_0002));
        nodes.shuffle(&mut r);
        let mut plan = Self::new(FaultResponse::Restart);
        for &v in nodes.iter().take(count) {
            plan = plan.at(round, FaultEvent::Crash(v));
        }
        plan
    }

    /// The distinct rounds at which faults fire, ascending.
    pub fn fault_rounds(&self) -> Vec<usize> {
        let mut rounds: Vec<usize> = self.schedule.iter().map(|&(r, _)| r).collect();
        rounds.dedup();
        rounds
    }

    /// The last round at which any fault fires (`None` for an empty plan).
    pub fn last_fault_round(&self) -> Option<usize> {
        self.schedule.last().map(|&(r, _)| r)
    }

    /// Checks the plan against `g`: ids in range, schedule sorted, at most
    /// one event per entity per round, per-node events alternating
    /// crash → recover (starting crashed), per-edge events alternating
    /// down → up (starting down). Returns a description of the first
    /// violation.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let mut last_round = 0usize;
        let mut node_down = vec![false; g.n()];
        let mut edge_down = vec![false; g.m()];
        let mut node_round = vec![usize::MAX; g.n()];
        let mut edge_round = vec![usize::MAX; g.m()];
        for &(round, ev) in &self.schedule {
            if round < last_round {
                return Err(format!("schedule not sorted at round {round}"));
            }
            last_round = round;
            match ev {
                FaultEvent::EdgeDown(e) | FaultEvent::EdgeUp(e) => {
                    if e.index() >= g.m() {
                        return Err(format!("edge {e:?} out of range (m = {})", g.m()));
                    }
                    if edge_round[e.index()] == round {
                        return Err(format!("two events for {e:?} at round {round}"));
                    }
                    edge_round[e.index()] = round;
                    let down = matches!(ev, FaultEvent::EdgeDown(_));
                    if edge_down[e.index()] == down {
                        return Err(format!(
                            "{e:?} already {} at round {round}",
                            if down { "down" } else { "up" }
                        ));
                    }
                    edge_down[e.index()] = down;
                }
                FaultEvent::Crash(v) | FaultEvent::Recover(v) => {
                    if v.index() >= g.n() {
                        return Err(format!("node {v:?} out of range (n = {})", g.n()));
                    }
                    if node_round[v.index()] == round {
                        return Err(format!("two events for {v:?} at round {round}"));
                    }
                    node_round[v.index()] = round;
                    let down = matches!(ev, FaultEvent::Crash(_));
                    if node_down[v.index()] == down {
                        return Err(format!(
                            "{v:?} already {} at round {round}",
                            if down { "crashed" } else { "live" }
                        ));
                    }
                    node_down[v.index()] = down;
                }
            }
        }
        Ok(())
    }

    /// The topology mask after every scheduled event has applied.
    pub fn final_mask(&self, g: &Graph) -> SurvivorMask {
        let mut mask = SurvivorMask::all_up(g);
        for &(_, ev) in &self.schedule {
            mask.apply(ev);
        }
        mask
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} plan, {} events over {} fault rounds",
            self.response,
            self.schedule.len(),
            self.fault_rounds().len()
        )
    }
}

/// A node/edge liveness mask — the surviving topology at some point of a
/// faulty execution. Differential oracles run against the final mask
/// ([`FaultPlan::final_mask`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SurvivorMask {
    /// Per node: live?
    pub node_up: Vec<bool>,
    /// Per edge: up? (An up edge is still unusable while either endpoint is
    /// crashed — [`SurvivorMask::allows`] checks all three.)
    pub edge_up: Vec<bool>,
}

impl SurvivorMask {
    /// Everything live, everything up.
    pub fn all_up(g: &Graph) -> Self {
        Self {
            node_up: vec![true; g.n()],
            edge_up: vec![true; g.m()],
        }
    }

    /// Applies one event to the mask.
    pub fn apply(&mut self, ev: FaultEvent) {
        match ev {
            FaultEvent::EdgeDown(e) => self.edge_up[e.index()] = false,
            FaultEvent::EdgeUp(e) => self.edge_up[e.index()] = true,
            FaultEvent::Crash(v) => self.node_up[v.index()] = false,
            FaultEvent::Recover(v) => self.node_up[v.index()] = true,
        }
    }

    /// Whether a message can cross `e` right now: the edge is up and both
    /// endpoints are live.
    pub fn allows(&self, g: &Graph, e: EdgeId) -> bool {
        let (u, v) = g.endpoints(e);
        self.edge_up[e.index()] && self.node_up[u.index()] && self.node_up[v.index()]
    }

    /// The live nodes, ascending.
    fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_up
            .iter()
            .enumerate()
            .filter(|&(_, &up)| up)
            .map(|(i, _)| NodeId::new(i))
    }
}

/// BFS distances from `src` over the masked topology (only live nodes and
/// [`SurvivorMask::allows`]-traversable edges). `None` for crashed or
/// unreachable nodes — the surviving graph may be disconnected, which is
/// fine: the differential oracles compare `Option`s.
pub fn masked_bfs(g: &Graph, mask: &SurvivorMask, src: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.n()];
    if !mask.node_up[src.index()] {
        return dist;
    }
    dist[src.index()] = Some(0);
    let mut frontier = vec![src];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            let d = dist[v.index()].expect("frontier is reached");
            for (e, u) in g.incident(v) {
                if mask.allows(g, e) && dist[u.index()].is_none() {
                    dist[u.index()] = Some(d + 1);
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Connected components of the masked topology: per live node, the smallest
/// node id in its component (`None` for crashed nodes). The per-component
/// minimum is exactly what id-based leader election converges to.
pub fn masked_components(g: &Graph, mask: &SurvivorMask) -> Vec<Option<NodeId>> {
    let mut comp: Vec<Option<NodeId>> = vec![None; g.n()];
    for root in mask.live_nodes() {
        if comp[root.index()].is_some() {
            continue;
        }
        // `root` is the smallest unvisited live id, hence its component's min.
        comp[root.index()] = Some(root);
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for (e, u) in g.incident(v) {
                if mask.allows(g, e) && comp[u.index()].is_none() {
                    comp[u.index()] = Some(root);
                    stack.push(u);
                }
            }
        }
    }
    comp
}

/// Runtime fault state threaded through the runners: the live mask plus a
/// cursor into the plan's schedule.
#[derive(Clone, Debug)]
pub struct FaultState<'p> {
    plan: &'p FaultPlan,
    next: usize,
    /// The current topology mask.
    pub mask: SurvivorMask,
}

impl<'p> FaultState<'p> {
    /// Fresh state for `plan` over `g` (mask starts all-up; events scheduled
    /// at round 0 apply on the first [`FaultState::apply_due`] call).
    pub fn new(plan: &'p FaultPlan, g: &Graph) -> Self {
        Self {
            plan,
            next: 0,
            mask: SurvivorMask::all_up(g),
        }
    }

    /// The response policy of the underlying plan.
    pub fn response(&self) -> FaultResponse {
        self.plan.response
    }

    /// Applies every event due at or before `round`; returns the events that
    /// fired (empty if none were due).
    pub fn apply_due(&mut self, round: usize) -> Vec<FaultEvent> {
        let mut fired = Vec::new();
        while let Some(&(r, ev)) = self.plan.schedule.get(self.next) {
            if r > round {
                break;
            }
            self.mask.apply(ev);
            fired.push(ev);
            self.next += 1;
        }
        fired
    }

    /// The round of the next unapplied event, if any.
    pub fn next_fault_round(&self) -> Option<usize> {
        self.plan.schedule.get(self.next).map(|&(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn builder_keeps_schedule_sorted() {
        let plan = FaultPlan::new(FaultResponse::Restart)
            .at(5, FaultEvent::Crash(NodeId::new(1)))
            .at(2, FaultEvent::EdgeDown(EdgeId::new(0)))
            .at(5, FaultEvent::Crash(NodeId::new(2)))
            .at(9, FaultEvent::EdgeUp(EdgeId::new(0)));
        let rounds: Vec<usize> = plan.schedule.iter().map(|&(r, _)| r).collect();
        assert_eq!(rounds, vec![2, 5, 5, 9]);
        assert_eq!(plan.fault_rounds(), vec![2, 5, 9]);
        assert_eq!(plan.last_fault_round(), Some(9));
    }

    #[test]
    fn churn_and_crash_generators_validate_and_are_deterministic() {
        let g = generators::gnp_connected(20, 0.2, 3);
        let churn = FaultPlan::edge_churn(&g, 5, 0, 4, 7, FaultResponse::Restart);
        churn.validate(&g).unwrap();
        assert_eq!(churn.schedule.len(), 10);
        assert_eq!(
            churn,
            FaultPlan::edge_churn(&g, 5, 0, 4, 7, FaultResponse::Restart)
        );
        // All edges back up at the end.
        assert!(churn.final_mask(&g).edge_up.iter().all(|&b| b));

        let crash = FaultPlan::crashes(&g, 3, 2, 11, &[NodeId::new(0)]);
        crash.validate(&g).unwrap();
        let mask = crash.final_mask(&g);
        assert_eq!(mask.node_up.iter().filter(|&&b| !b).count(), 3);
        assert!(mask.node_up[0], "protected node survives");
        assert_eq!(crash, FaultPlan::crashes(&g, 3, 2, 11, &[NodeId::new(0)]));
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let g = generators::path(4);
        let dup = FaultPlan::new(FaultResponse::Restart)
            .at(1, FaultEvent::Crash(NodeId::new(2)))
            .at(1, FaultEvent::Recover(NodeId::new(2)));
        assert!(dup.validate(&g).is_err(), "same-round pair rejected");
        let early =
            FaultPlan::new(FaultResponse::Restart).at(0, FaultEvent::Recover(NodeId::new(1)));
        assert!(early.validate(&g).is_err(), "recovery before crash");
        let oob =
            FaultPlan::new(FaultResponse::Restart).at(0, FaultEvent::EdgeDown(EdgeId::new(99)));
        assert!(oob.validate(&g).is_err(), "out-of-range edge");
        let twice = FaultPlan::new(FaultResponse::Restart)
            .at(0, FaultEvent::Crash(NodeId::new(1)))
            .at(2, FaultEvent::Crash(NodeId::new(1)));
        assert!(twice.validate(&g).is_err(), "double crash");
    }

    #[test]
    fn masked_bfs_routes_around_faults() {
        // Path 0-1-2-3: crash node 1 and the far side becomes unreachable.
        let g = generators::path(4);
        let plan = FaultPlan::new(FaultResponse::Restart).at(0, FaultEvent::Crash(NodeId::new(1)));
        let mask = plan.final_mask(&g);
        let d = masked_bfs(&g, &mask, NodeId::new(0));
        assert_eq!(d, vec![Some(0), None, None, None]);
        let comp = masked_components(&g, &mask);
        assert_eq!(comp[0], Some(NodeId::new(0)));
        assert_eq!(comp[1], None);
        assert_eq!(comp[2], Some(NodeId::new(2)));
        assert_eq!(comp[3], Some(NodeId::new(2)));
    }

    #[test]
    fn fault_state_applies_due_events_in_order() {
        let g = generators::cycle(5);
        let plan = FaultPlan::new(FaultResponse::SelfHeal)
            .at(0, FaultEvent::EdgeDown(EdgeId::new(1)))
            .at(3, FaultEvent::EdgeUp(EdgeId::new(1)));
        let mut st = FaultState::new(&plan, &g);
        assert_eq!(st.next_fault_round(), Some(0));
        assert_eq!(st.apply_due(0).len(), 1);
        assert!(!st.mask.edge_up[1]);
        assert_eq!(st.next_fault_round(), Some(3));
        assert!(st.apply_due(1).is_empty());
        assert_eq!(st.apply_due(5).len(), 1);
        assert!(st.mask.edge_up[1]);
        assert_eq!(st.next_fault_round(), None);
    }
}
