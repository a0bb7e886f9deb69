//! Message-efficient distributed minimum spanning tree: controlled-GHS fragment
//! merging with exact message/round accounting.
//!
//! This is the "Beyond APSP" workload family: the paper's title problem generalizes to
//! the MST results of Pandurangan–Robinson–Scquizzato (time- and message-optimal MST,
//! `Õ(m)` messages) and the Gmyr–Pandurangan time–message trade-off toolbox. The
//! algorithm here is the classic Gallager–Humblet–Spira merging structure, Borůvka
//! phased, built entirely from the engine's tree primitives:
//!
//! 1. **Fragment announcement** — every node whose fragment ID changed tells all its
//!    neighbors (1 round, `deg(v)` messages per changed node). A node's fragment at
//!    least doubles whenever its ID changes, so the total announcement cost is
//!    `O(m log n)` — the `Õ(m)` term.
//! 2. **MWOE search** — each node locally picks its lightest incident edge leaving the
//!    fragment (under the `(weight, EdgeId)` total order, so ties never break MST
//!    uniqueness), and the per-fragment minimum is folded to the fragment leader by
//!    [`congest_engine::treeops::convergecast`] over the fragment forest.
//! 3. **Merge** — each leader downcasts the chosen edge to its owning node
//!    ([`congest_engine::treeops::downcast`]), a connect message crosses the MWOE, the
//!    merged fragment re-roots at its minimum-ID node, and the new fragment ID floods
//!    down the new tree ([`congest_engine::treeops::broadcast`]).
//!
//! Fragments at least double per phase, so there are at most `⌈log₂ n⌉` phases; with
//! [`MstConfig::growth_threshold`] the merging stops once every still-active fragment
//! has at least `k` nodes — the handoff point for the trade-off finisher in
//! `apsp_core::mst_tradeoff`.
//!
//! Like every runner in this workspace the phase scans honor
//! [`MstConfig::exec`]: per-node work is chunk-parallel and the result — edges,
//! fragments, metrics, per-edge congestion — is byte-identical at every thread count.
//! The whole run (and each tree primitive inside it) can be capped by
//! [`MstConfig::message_budget`].

use congest_engine::treeops::{self, Forest};
use congest_engine::{exec, EngineError, ExecutorConfig, Metrics, Router, Wire};
use congest_graph::{EdgeId, NodeId, WeightedGraph};

/// Sentinel weight meaning "no outgoing edge".
const NONE_WEIGHT: u64 = u64::MAX;

/// Convergecast payload of the MWOE search: the lightest known outgoing edge of (part
/// of) a fragment, with its owner. A constant number of values = one CONGEST word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MwoeMsg {
    /// Weight of the candidate edge (`NONE_WEIGHT` if there is none).
    weight: u64,
    /// Candidate edge index.
    edge: u32,
    /// Node owning the candidate (an endpoint inside the fragment).
    owner: u32,
}

impl MwoeMsg {
    const NONE: Self = Self {
        weight: NONE_WEIGHT,
        edge: u32::MAX,
        owner: u32::MAX,
    };

    fn is_none(self) -> bool {
        self.weight == NONE_WEIGHT
    }

    /// Tie-breaking total order: `(weight, edge)`.
    fn key(self) -> (u64, u32) {
        (self.weight, self.edge)
    }

    fn min(self, other: Self) -> Self {
        if other.key() < self.key() {
            other
        } else {
            self
        }
    }
}

impl Wire for MwoeMsg {}

/// Options for [`distributed_mst`]. The algorithm itself is deterministic (no
/// randomness is consumed), so there is no seed.
#[derive(Clone, Debug, Default)]
pub struct MstConfig {
    /// How per-node phase scans execute. Outputs and metrics are identical at every
    /// thread count.
    pub exec: ExecutorConfig,
    /// Hard cap on total messages; the run fails with
    /// [`EngineError::BudgetExceeded`] instead of overspending. `None` = unlimited.
    pub message_budget: Option<u64>,
    /// Stop merging once every fragment that still has an outgoing edge spans at
    /// least this many nodes (controlled-GHS growth). `None` = run to completion.
    pub growth_threshold: Option<usize>,
}

/// Result of a (possibly threshold-stopped) distributed MST run.
#[derive(Clone, Debug)]
pub struct MstRun {
    /// MST/MSF edges chosen so far, sorted ascending by [`EdgeId`].
    pub edges: Vec<EdgeId>,
    /// Sum of the chosen edges' weights.
    pub total_weight: u64,
    /// Fragment leader (= minimum node ID of the fragment) per node.
    pub fragment: Vec<NodeId>,
    /// The fragment forest: each fragment rooted at its leader, over chosen edges.
    pub forest: Forest,
    /// Merge phases executed.
    pub phases: u64,
    /// Whether fragments are exactly the connected components (no outgoing edges
    /// remain). `false` only when [`MstConfig::growth_threshold`] stopped the run.
    pub complete: bool,
    /// Realized cost: announcements + convergecasts + downcasts + connects +
    /// fragment-ID broadcasts.
    pub metrics: Metrics,
}

/// A generous closed-form `Õ(m)` message budget for a full [`distributed_mst`] run on
/// an `n`-node, `m`-edge graph: announcements cost `O(m)` per phase, the tree passes
/// `O(n)` per phase, over `⌈log₂ n⌉ + O(1)` phases.
///
/// The property tests and the bench harness run with this as a *hard*
/// [`MstConfig::message_budget`], so the bound is enforced, not just documented.
pub fn message_bound(n: usize, m: usize) -> u64 {
    let phases = (n.max(2) as f64).log2().ceil() as u64 + 3;
    (2 * m as u64 + 6 * n as u64 + 8) * phases
}

/// Runs the GHS-style distributed MST (minimum spanning forest on disconnected
/// graphs) under the `(weight, EdgeId)` total order.
///
/// # Errors
///
/// [`EngineError::BudgetExceeded`] if [`MstConfig::message_budget`] is hit;
/// [`EngineError::RoundLimitExceeded`] if the `⌈log₂ n⌉ + 3`-phase guard fires
/// (cannot happen: fragments at least double per phase).
pub fn distributed_mst(wg: &WeightedGraph, cfg: &MstConfig) -> Result<MstRun, EngineError> {
    let g = wg.graph();
    let n = g.n();
    let mut metrics = Metrics::new(g.m());
    let mut fragment: Vec<NodeId> = g.nodes().collect();
    let mut forest = Forest::from_parents(g, vec![None; n])?;
    let mut router = Router::new(g)?;
    let mut in_mst = vec![false; g.m()];
    let mut edges: Vec<EdgeId> = Vec::new();

    // Phase 0 announcement: every node tells its neighbors its (singleton) fragment.
    let all_changed = vec![true; n];
    charge_announcements(wg, cfg, &all_changed, &mut metrics)?;

    let limit = (n.max(2) as f64).log2().ceil() as usize + 3;
    let mut phases = 0u64;
    let mut complete = false;
    loop {
        // Per-node MWOE candidates (chunk-parallel; concatenation in chunk order).
        let cands: Vec<MwoeMsg> = exec::map_ranges(&cfg.exec, n, |range| {
            range
                .map(|vi| {
                    let v = NodeId::new(vi);
                    let mut best = MwoeMsg::NONE;
                    for (e, u, w) in wg.incident(v) {
                        if fragment[u.index()] != fragment[vi] {
                            best = best.min(MwoeMsg {
                                weight: w,
                                edge: e.index() as u32,
                                owner: vi as u32,
                            });
                        }
                    }
                    best
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Termination: no fragment has an outgoing edge ⇒ fragments = components.
        if cands.iter().all(|c| c.is_none()) {
            complete = true;
            break;
        }
        // Controlled growth: stop once every active fragment has ≥ threshold nodes.
        if let Some(k) = cfg.growth_threshold {
            let mut size = vec![0usize; n];
            for f in &fragment {
                size[f.index()] += 1;
            }
            let small_active = g
                .nodes()
                .any(|v| !cands[v.index()].is_none() && size[fragment[v.index()].index()] < k);
            if !small_active {
                break;
            }
        }
        if phases as usize >= limit {
            return Err(EngineError::RoundLimitExceeded {
                algorithm: "ghs-mst",
                limit,
            });
        }
        phases += 1;

        // Fold per-node candidates to each fragment leader.
        let cc = treeops::convergecast(
            g,
            &forest,
            cands,
            MwoeMsg::min,
            remaining(cfg.message_budget, &metrics),
        )?;
        metrics.merge_sequential(&cc.metrics);

        // Leaders downcast the decision to the MWOE's owner...
        let decisions: Vec<(NodeId, u64)> = forest
            .roots()
            .iter()
            .zip(&cc.at_root)
            .filter(|(_, c)| !c.is_none())
            .map(|(_, c)| (NodeId::new(c.owner as usize), u64::from(c.edge)))
            .collect();
        let chosen: Vec<EdgeId> = decisions
            .iter()
            .map(|&(_, e)| EdgeId::new(e as usize))
            .collect();
        let dc = treeops::downcast(&mut router, &forest, decisions)?;
        metrics.merge_sequential(&dc.metrics);
        treeops::ensure_budget("ghs-mst", metrics.messages, cfg.message_budget)?;

        // ...and a connect message crosses each chosen MWOE (one round, one word per
        // choosing fragment — two fragments picking the same edge both send).
        let mut connect = Metrics::new(g.m());
        connect.rounds = 1;
        for &e in &chosen {
            connect.add_messages(e, 1);
        }
        metrics.merge_sequential(&connect);

        // Merge: new fragments are the components of the chosen-so-far edge set.
        for e in chosen {
            if !in_mst[e.index()] {
                in_mst[e.index()] = true;
                edges.push(e);
            }
        }
        let (new_fragment, new_parent) = fragments_of(wg, &in_mst);
        let changed: Vec<bool> = (0..n).map(|v| new_fragment[v] != fragment[v]).collect();
        forest = Forest::from_parents(g, new_parent)?;

        // Leaders of grown fragments flood the new fragment ID down the new tree.
        let mut grew = vec![false; n];
        for v in 0..n {
            if changed[v] {
                grew[new_fragment[v].index()] = true;
            }
        }
        let payloads: Vec<(NodeId, u64)> = forest
            .roots()
            .iter()
            .filter(|r| grew[r.index()])
            .map(|&r| (r, u64::from(r.raw())))
            .collect();
        let bc = treeops::broadcast(
            g,
            &forest,
            payloads,
            remaining(cfg.message_budget, &metrics),
        )?;
        metrics.merge_sequential(&bc.metrics);
        fragment = new_fragment;

        // Changed nodes re-announce their fragment to their neighbors.
        charge_announcements(wg, cfg, &changed, &mut metrics)?;
    }

    edges.sort_unstable();
    let total_weight = edges.iter().map(|&e| wg.weight(e)).sum();
    Ok(MstRun {
        edges,
        total_weight,
        fragment,
        forest,
        phases,
        complete,
        metrics,
    })
}

/// Remaining budget after `metrics`, for handing to a budgeted tree primitive.
fn remaining(budget: Option<u64>, metrics: &Metrics) -> Option<u64> {
    budget.map(|b| b.saturating_sub(metrics.messages))
}

/// Charges one announcement round: every `changed` node sends one word over each
/// incident edge. Chunk-parallel with per-chunk batches merged in chunk order, so the
/// congestion vector is identical at every thread count. Free if nothing changed.
fn charge_announcements(
    wg: &WeightedGraph,
    cfg: &MstConfig,
    changed: &[bool],
    metrics: &mut Metrics,
) -> Result<(), EngineError> {
    let g = wg.graph();
    let batches: Vec<Vec<(EdgeId, u64)>> = exec::map_ranges(&cfg.exec, g.n(), |range| {
        let mut out = Vec::new();
        for vi in range {
            if changed[vi] {
                for &e in g.incident_edges(NodeId::new(vi)) {
                    out.push((e, 1u64));
                }
            }
        }
        out
    });
    let mut phase = Metrics::new(g.m());
    for b in batches {
        phase.add_messages_batch(b);
    }
    if phase.messages > 0 {
        phase.rounds = 1;
        metrics.merge_sequential(&phase);
    }
    treeops::ensure_budget("ghs-mst", metrics.messages, cfg.message_budget)?;
    Ok(())
}

/// Components of the chosen-edge subgraph: per-node leader (minimum member ID) and
/// parent pointers of a BFS tree rooted at each leader (children visited in ascending
/// neighbor order — deterministic).
fn fragments_of(wg: &WeightedGraph, in_mst: &[bool]) -> (Vec<NodeId>, Vec<Option<NodeId>>) {
    let g = wg.graph();
    let n = g.n();
    let mut leader: Vec<Option<NodeId>> = vec![None; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    for s in g.nodes() {
        if leader[s.index()].is_some() {
            continue;
        }
        // `s` is the minimum ID of its component (nodes are scanned in order).
        leader[s.index()] = Some(s);
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for (e, u) in g.incident(v) {
                if in_mst[e.index()] && leader[u.index()].is_none() {
                    leader[u.index()] = Some(s);
                    parent[u.index()] = Some(v);
                    queue.push_back(u);
                }
            }
        }
    }
    (
        leader
            .into_iter()
            .map(|l| l.expect("all visited"))
            .collect(),
        parent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, reference};

    fn unique(n: usize, p: f64, seed: u64) -> WeightedGraph {
        let g = generators::gnp_connected(n, p, seed);
        WeightedGraph::random_unique_weights(&g, seed)
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..6u64 {
            let wg = unique(30, 0.15, seed);
            let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
            let want = reference::mst_kruskal(&wg);
            assert_eq!(run.edges, want.edges, "seed {seed}");
            assert_eq!(run.total_weight, want.total_weight);
            assert!(run.complete);
            assert!(reference::is_spanning_forest(wg.graph(), &run.edges));
        }
    }

    #[test]
    fn tie_heavy_instances_match_oracle() {
        // Unit weights everywhere: every edge ties; (weight, EdgeId) decides.
        for g in [
            generators::complete(10),
            generators::grid(4, 5),
            generators::caveman(4, 5),
        ] {
            let wg = WeightedGraph::unit(&g);
            let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
            assert_eq!(run.edges, reference::mst_kruskal(&wg).edges);
        }
    }

    #[test]
    fn fragment_leaders_are_component_minima() {
        let wg = unique(25, 0.2, 3);
        let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
        assert!(run.fragment.iter().all(|f| f.index() == 0)); // connected ⇒ one fragment
        assert_eq!(run.forest.roots(), &[NodeId::new(0)]);
    }

    #[test]
    fn spanning_forest_on_disconnected_graphs() {
        let g = congest_graph::Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)]);
        let wg = WeightedGraph::from_weights(g, vec![4, 2, 7, 1, 3]).unwrap();
        let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
        let want = reference::mst_kruskal(&wg);
        assert_eq!(run.edges, want.edges);
        assert_eq!(run.total_weight, 4 + 2 + 1 + 3);
        assert_eq!(run.fragment[2], NodeId::new(0));
        assert_eq!(run.fragment[4], NodeId::new(3));
        assert_eq!(run.fragment[6], NodeId::new(5));
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let wg = unique(64, 0.12, 7);
        let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
        assert!(run.phases <= 9, "phases = {}", run.phases); // ⌈log₂ 64⌉ + slack
    }

    #[test]
    fn stays_within_the_message_bound() {
        for seed in 0..4u64 {
            let wg = unique(40, 0.2, seed);
            let cfg = MstConfig {
                message_budget: Some(message_bound(wg.n(), wg.m())),
                ..Default::default()
            };
            let run = distributed_mst(&wg, &cfg).unwrap();
            assert!(run.metrics.messages <= message_bound(wg.n(), wg.m()));
        }
    }

    #[test]
    fn tiny_budget_fails_loudly() {
        let wg = unique(20, 0.3, 1);
        let cfg = MstConfig {
            message_budget: Some(5),
            ..Default::default()
        };
        let err = distributed_mst(&wg, &cfg).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }));
    }

    #[test]
    fn growth_threshold_stops_early_with_valid_partial_forest() {
        let wg = unique(40, 0.15, 9);
        let cfg = MstConfig {
            growth_threshold: Some(4),
            ..Default::default()
        };
        let run = distributed_mst(&wg, &cfg).unwrap();
        assert!(!run.complete);
        // Every fragment has ≥ 4 nodes, and every chosen edge is in the true MST.
        let mut size = vec![0usize; wg.n()];
        for f in &run.fragment {
            size[f.index()] += 1;
        }
        assert!(run.fragment.iter().all(|f| size[f.index()] >= 4));
        let want = reference::mst_kruskal(&wg);
        for e in &run.edges {
            assert!(want.edges.contains(e), "{e:?} not in the MST");
        }
        assert!(run.edges.len() < wg.n() - 1);
    }

    #[test]
    fn trivial_graphs() {
        let empty = WeightedGraph::unit(&congest_graph::Graph::from_edges(0, &[]));
        let run = distributed_mst(&empty, &MstConfig::default()).unwrap();
        assert!(run.edges.is_empty() && run.complete);
        let single = WeightedGraph::unit(&congest_graph::Graph::from_edges(1, &[]));
        let run = distributed_mst(&single, &MstConfig::default()).unwrap();
        assert!(run.edges.is_empty() && run.complete && run.phases == 0);
        assert_eq!(run.metrics.messages, 0);
    }

    #[test]
    fn deterministic_across_repeats() {
        let wg = WeightedGraph::random_weights(&generators::gnp_connected(24, 0.25, 2), 1..=4, 2);
        let a = distributed_mst(&wg, &MstConfig::default()).unwrap();
        let b = distributed_mst(&wg, &MstConfig::default()).unwrap();
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.fragment, b.fragment);
    }
}
