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
//!    uniqueness), and the per-fragment minimum, together with the fragment's size, is
//!    folded to the fragment root: a convergecast of one word per tree edge, charged
//!    by [`congest_engine::treeops::tree_pass`]. The fold is commutative and
//!    associative (candidate keys are unique), so folding a fragment's candidates in
//!    node order gives the value the convergecast delivers.
//! 3. **Merge** — each root downcasts the chosen edge to its owning node
//!    ([`congest_engine::treeops::downcast`]), and a connect message carrying the
//!    fragment's label and size crosses the MWOE. Each merged fragment has exactly one
//!    **core edge**, the MWOE chosen by the fragments at both of its ends; as in
//!    classic GHS the merged fragment re-roots at the core endpoint on the larger side
//!    (ties: the smaller label) and keeps that side's label, and the root floods the
//!    label down the new tree, one word per tree edge (a second
//!    [`congest_engine::treeops::tree_pass`]). Nodes of the root's side keep their
//!    label, so they do not re-announce.
//!
//! Fragments at least double per phase, so there are at most `⌈log₂ n⌉` phases; with
//! [`MstConfig::growth_threshold`] the merging stops once every still-active fragment
//! has at least `k` nodes — the handoff point for the trade-off finisher in
//! `apsp_core::mst_tradeoff`.
//!
//! The phase scans run sequentially. The whole run can be capped by
//! [`MstConfig::message_budget`], checked on the running total after every step.

use congest_engine::treeops::{self, Forest};
use congest_engine::{EngineError, Metrics, Router};
use congest_graph::{EdgeId, NodeId, WeightedGraph};

/// Convergecast word of the MWOE search: the lightest known outgoing edge of (part
/// of) a fragment, with its owner, and the number of nodes folded in. On the wire the
/// edge travels with its weight; the simulator reads the weight off the graph. A
/// constant number of values = one CONGEST word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MwoeMsg {
    /// Candidate edge index (`u32::MAX` if there is none).
    edge: u32,
    /// Node owning the candidate (an endpoint inside the fragment).
    owner: u32,
    /// Nodes folded into this value: the fragment's size once it reaches the root.
    size: u32,
}

impl MwoeMsg {
    const NONE: Self = Self {
        edge: u32::MAX,
        owner: u32::MAX,
        size: 1,
    };

    fn is_none(self) -> bool {
        self.edge == u32::MAX
    }

    /// Tie-breaking total order: `(weight, edge)`, no candidate last.
    fn key(self, wg: &WeightedGraph) -> (u64, u32) {
        if self.is_none() {
            (u64::MAX, u32::MAX)
        } else {
            (wg.weight(EdgeId::new(self.edge as usize)), self.edge)
        }
    }

    /// The convergecast fold: the lighter candidate, sizes summed. Commutative and
    /// associative, since two candidates of one fragment never share a key.
    fn combine(self, other: Self, wg: &WeightedGraph) -> Self {
        let lighter = if other.key(wg) < self.key(wg) {
            other
        } else {
            self
        };
        Self {
            size: self.size + other.size,
            ..lighter
        }
    }
}

/// Options for [`distributed_mst`]. The algorithm itself is deterministic (no
/// randomness is consumed), so there is no seed.
#[derive(Clone, Debug, Default)]
pub struct MstConfig {
    /// Hard cap on total messages, checked on the running total after every
    /// announcement, tree pass and downcast; the run fails with
    /// [`EngineError::BudgetExceeded`] (`op: "ghs-mst"`) at the first step that
    /// overspends. `None` = unlimited.
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
    /// Fragment label per node: a member's ID, the same for the whole fragment. A
    /// merged fragment takes the label of the root's pre-merge fragment; singletons
    /// start labelled by their own ID.
    pub fragment: Vec<NodeId>,
    /// The fragment forest over chosen edges: each fragment rooted at an endpoint of
    /// the core edge of its last merge (the MWOE chosen by the fragments at both of
    /// its ends), on the larger side, whose label it keeps.
    pub forest: Forest,
    /// Merge phases executed.
    pub phases: u64,
    /// Whether fragments are exactly the connected components (no outgoing edges
    /// remain). `false` only when [`MstConfig::growth_threshold`] stopped the run.
    pub complete: bool,
    /// Realized cost: announcements + MWOE convergecasts + downcasts + connects +
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
        // Per-node MWOE candidates.
        let cands: Vec<MwoeMsg> = (0..n)
            .map(|vi| {
                let lightest = wg
                    .incident(NodeId::new(vi))
                    .filter(|&(_, u, _)| fragment[u.index()] != fragment[vi])
                    .min_by_key(|&(e, _, w)| (w, e));
                lightest.map_or(MwoeMsg::NONE, |(e, _, _)| MwoeMsg {
                    edge: e.index() as u32,
                    owner: vi as u32,
                    size: 1,
                })
            })
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

        // Fold per-node candidates (and sizes) to each fragment root.
        metrics.merge_sequential(&treeops::tree_pass(g, &forest, forest.roots())?);
        treeops::ensure_budget("ghs-mst", metrics.messages, cfg.message_budget)?;
        let mut folded = cands;
        for v in g.nodes() {
            let r = forest.root_of(v).index();
            if r != v.index() {
                folded[r] = folded[r].combine(folded[v.index()], wg);
            }
        }

        // Roots downcast the decision, one word, to the MWOE's owner...
        let mut choices: Vec<MwoeMsg> = forest.roots().iter().map(|r| folded[r.index()]).collect();
        let silent: Vec<NodeId> = forest
            .roots()
            .iter()
            .zip(&choices)
            .filter(|(_, c)| c.is_none())
            .map(|(&r, _)| r)
            .collect();
        choices.retain(|c| !c.is_none());
        let decisions = choices
            .iter()
            .map(|c| (NodeId::new(c.owner as usize), 1))
            .collect();
        metrics.merge_sequential(&treeops::downcast(&mut router, &forest, decisions)?);
        treeops::ensure_budget("ghs-mst", metrics.messages, cfg.message_budget)?;

        // ...and a connect message, the sender fragment's label and size, crosses each
        // chosen MWOE (one round, one word per choosing fragment — two fragments
        // picking the same edge both send).
        metrics.rounds += 1;
        for c in &choices {
            metrics.add_messages(EdgeId::new(c.edge as usize), 1);
        }

        // Merge: new fragments are the components of the chosen-so-far edge set,
        // rooted at their cores. Fragments with no outgoing edge keep their root.
        for c in &choices {
            let e = c.edge as usize;
            if !in_mst[e] {
                in_mst[e] = true;
                edges.push(EdgeId::new(e));
            }
        }
        let mut roots = core_roots(choices, &fragment);
        let merged = roots.len();
        roots.extend(silent);
        let (new_fragment, new_parent) = fragments_of(wg, &in_mst, &roots, &fragment);
        let changed: Vec<bool> = (0..n).map(|v| new_fragment[v] != fragment[v]).collect();
        forest = Forest::from_parents(g, new_parent)?;

        // Roots of merged fragments flood the label down the new tree.
        metrics.merge_sequential(&treeops::tree_pass(g, &forest, &roots[..merged])?);
        treeops::ensure_budget("ghs-mst", metrics.messages, cfg.message_budget)?;
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

/// Charges one announcement round: every `changed` node sends one word over each
/// incident edge. Free if nothing changed.
fn charge_announcements(
    wg: &WeightedGraph,
    cfg: &MstConfig,
    changed: &[bool],
    metrics: &mut Metrics,
) -> Result<(), EngineError> {
    let g = wg.graph();
    let before = metrics.messages;
    for v in g.nodes().filter(|v| changed[v.index()]) {
        for &e in g.incident_edges(v) {
            metrics.add_messages(e, 1);
        }
    }
    if metrics.messages > before {
        metrics.rounds += 1;
    }
    treeops::ensure_budget("ghs-mst", metrics.messages, cfg.message_budget)?;
    Ok(())
}

/// The root of each merged fragment, from its fragments' MWOE `choices`. An edge
/// chosen by the fragments at both of its ends is the merged fragment's core, and
/// sorting by edge puts its two choices side by side; the core's endpoint on the larger side (ties: the
/// smaller label) is the root. An owner's label is its fragment's.
fn core_roots(mut choices: Vec<MwoeMsg>, fragment: &[NodeId]) -> Vec<NodeId> {
    choices.sort_unstable_by_key(|c| c.edge);
    choices
        .windows(2)
        .filter(|w| w[0].edge == w[1].edge)
        .map(|w| {
            let side = |c: &MwoeMsg| (std::cmp::Reverse(c.size), fragment[c.owner as usize]);
            NodeId::new(std::cmp::min_by_key(w[0], w[1], side).owner as usize)
        })
        .collect()
}

/// Components of the chosen-edge subgraph, one per root in `roots`: per-node label
/// (the root's entry in `old_labels`) and parent pointers of the tree rooted at that
/// root. Each component is a tree, so its parent pointers are those GHS change-root
/// leaves behind; they are found by BFS from the root.
fn fragments_of(
    wg: &WeightedGraph,
    in_mst: &[bool],
    roots: &[NodeId],
    old_labels: &[NodeId],
) -> (Vec<NodeId>, Vec<Option<NodeId>>) {
    let g = wg.graph();
    let n = g.n();
    let mut label: Vec<Option<NodeId>> = vec![None; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for &r in roots {
        debug_assert!(
            label[r.index()].is_none(),
            "second core in {r:?}'s fragment"
        );
        let l = old_labels[r.index()];
        label[r.index()] = Some(l);
        queue.push_back(r);
        while let Some(v) = queue.pop_front() {
            for (e, u) in g.incident(v) {
                if in_mst[e.index()] && label[u.index()].is_none() {
                    label[u.index()] = Some(l);
                    parent[u.index()] = Some(v);
                    queue.push_back(u);
                }
            }
        }
    }
    (
        label
            .into_iter()
            .map(|l| l.expect("every fragment has a core or keeps its root"))
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
    fn fragments_root_at_their_core_edge() {
        // path(8): phase 1 pairs up v0v1, v2v3, v4v5, v6v7; phase 2 joins them across
        // the cores v1v2 and v5v6 (equal sizes: the smaller label roots, at v1 and v5);
        // phase 3's core is v3v4, rooted on the side labelled v0.
        // path(5): phase 1 leaves {v0, v1} (label v0) and {v2, v3, v4} (label v2);
        // both pick v1v2, and the larger side roots it at v2 and keeps its label, so
        // only v0 and v1 re-announce (rooting at v1 would cost 36 messages).
        for (n, weights, root, depth, label, cost) in [
            (8, vec![1, 3, 2, 7, 4, 6, 5], 3, 4, 0, (81, 20)),
            (5, vec![1, 5, 2, 3], 2, 2, 2, (34, 12)),
        ] {
            let wg = WeightedGraph::from_weights(generators::path(n), weights).unwrap();
            let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
            assert_eq!(run.forest.roots(), &[NodeId::new(root)], "path({n})");
            assert_eq!(run.forest.depth(), depth, "path({n})");
            assert!(run.fragment.iter().all(|&f| f == NodeId::new(label)));
            assert_eq!(
                (run.metrics.messages, run.metrics.rounds),
                cost,
                "path({n})"
            );
        }
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
        assert!(matches!(
            err,
            EngineError::BudgetExceeded { op: "ghs-mst", .. }
        ));
    }

    #[test]
    fn a_budget_of_the_runs_own_total_is_exactly_enough() {
        let wg = unique(30, 0.15, 4);
        let total = distributed_mst(&wg, &MstConfig::default())
            .unwrap()
            .metrics
            .messages;
        let budgeted = |b: u64| {
            let cfg = MstConfig {
                message_budget: Some(b),
                ..Default::default()
            };
            distributed_mst(&wg, &cfg)
        };
        assert_eq!(budgeted(total).unwrap().metrics.messages, total);
        assert_eq!(
            budgeted(total - 1).unwrap_err(),
            EngineError::BudgetExceeded {
                op: "ghs-mst",
                used: total,
                budget: total - 1
            }
        );
    }

    proptest::proptest! {
        /// The per-root fold may take a fragment's candidates in any order:
        /// `combine` is commutative and associative over candidates whose keys
        /// are unique per edge (an edge's owner is fixed), `NONE` included.
        #[test]
        fn the_mwoe_fold_is_order_free(
            seed in 0u64..1000,
            n in 2usize..30,
            picks in proptest::collection::vec((0u8..4, 0usize..1000, 1u32..100), 3),
        ) {
            let wg = unique(n, 0.2, seed);
            let cand = |&(kind, i, size): &(u8, usize, u32)| {
                if kind == 0 {
                    return MwoeMsg { size, ..MwoeMsg::NONE };
                }
                let e = EdgeId::new(i % wg.m());
                MwoeMsg {
                    edge: e.index() as u32,
                    owner: wg.graph().endpoints(e).0.raw(),
                    size,
                }
            };
            let [a, b, c] = [cand(&picks[0]), cand(&picks[1]), cand(&picks[2])];
            proptest::prop_assert_eq!(a.combine(b, &wg), b.combine(a, &wg));
            proptest::prop_assert_eq!(
                a.combine(b, &wg).combine(c, &wg),
                a.combine(b.combine(c, &wg), &wg)
            );
        }
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
