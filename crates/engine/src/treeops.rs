//! Forests and the upcast/downcast/phase/convergecast/broadcast primitives (paper
//! §1.4.2, Lemmas 1.5 and 1.6, plus the aggregation passes every fragment/tree
//! algorithm uses).
//!
//! The casts carry word counts, not payloads: a caller already holds what the
//! words stand for, and the lemmas charge a cast by the words it moves.
//!
//! * **Upcast** (Lemma 1.5): every node holds items of some words each; all
//!   words flow to their tree's root, each node forwarding one word to its
//!   parent per round.
//! * **Downcast** (Lemma 1.6): roots hold addressed items; each item's words flow
//!   down the unique root→destination path, one word per edge per round.
//! * **Phase** ([`route_casts`]): upcasts, downcasts and hops, each waiting for the
//!   casts it names at the node its words leave from, as one schedule. Theorem
//!   2.1's phase is a downcast to each broadcaster and a hop cast that waits for
//!   it and climbs from each far end to its root ([`Cast::Hop`]'s `up`); Theorems
//!   3.9 / 3.10's phases wait per root. An [`upcast`] or a [`downcast`] is a
//!   phase of one cast.
//! * **Convergecast** ([`convergecast`]): one value per node, folded bottom-up with a
//!   caller-supplied combiner; each tree edge carries exactly one combined payload
//!   (the MWOE search of GHS-style MST, subtree counting, …).
//! * **Broadcast** ([`broadcast`]): one payload per root, flooded down its whole tree;
//!   each tree edge carries the payload once (fragment-ID dissemination, "everyone
//!   learn `n`", …).
//!
//! Phases are executed as real packet schedules on a [`Router`], so the
//! returned metrics are realized costs, which the tests
//! compare against the lemmas' bounds (`O(I_n/log n)` rounds / `O(d·I_n/log n)`
//! messages for upcast over depth-`d` forests, `O(|M|+d)` rounds / `O(d·|M|)`
//! messages for downcast).
//! Convergecast/broadcast use the obvious level-synchronous schedule (`depth·w`
//! rounds, one `w`-word payload per tree edge) and charge exactly that.
//!
//! [`convergecast`] and [`broadcast`] take a **per-call message budget**: pass
//! `Some(budget)` and the call fails with [`EngineError::BudgetExceeded`] instead of
//! silently overspending — the enforcement hook for "message-optimal" claims. Callers
//! charging an upcast or downcast check its realized metrics with [`ensure_budget`].

use crate::error::EngineError;
use crate::metrics::Metrics;
use crate::router::Router;
use crate::wire::Wire;
use congest_graph::{EdgeId, Graph, NodeId};

/// A rooted spanning forest of (a subset of) the graph: parent pointers that follow
/// edges of `g`. Nodes with no parent are roots (singleton trees are fine).
#[derive(Clone, Debug)]
pub struct Forest {
    parent: Vec<Option<NodeId>>,
    parent_edge: Vec<Option<EdgeId>>,
    root_of: Vec<NodeId>,
    depth_of: Vec<u32>,
    depth: u32,
    roots: Vec<NodeId>,
    tree_edges: Vec<EdgeId>,
}

impl Forest {
    /// Builds a forest from parent pointers, validating that every pointer follows an
    /// edge of `g` and that there are no cycles.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidForest`] on a parent vector whose length is not `n`,
    /// a non-edge parent link or a cycle.
    pub fn from_parents(g: &Graph, parent: Vec<Option<NodeId>>) -> Result<Self, EngineError> {
        if parent.len() != g.n() {
            return Err(EngineError::InvalidForest {
                reason: format!("{} parent entries for {} nodes", parent.len(), g.n()),
            });
        }
        let mut parent_edge = vec![None; g.n()];
        let mut tree_edges = Vec::new();
        for v in g.nodes() {
            if let Some(p) = parent[v.index()] {
                let e = g
                    .edge_between(v, p)
                    .ok_or_else(|| EngineError::InvalidForest {
                        reason: format!("parent link {v:?}->{p:?} is not an edge"),
                    })?;
                parent_edge[v.index()] = Some(e);
                tree_edges.push(e);
            }
        }
        // Depth computation; also detects cycles (a cycle never resolves).
        let mut depth_of = vec![u32::MAX; g.n()];
        let mut root_of = vec![NodeId::new(0); g.n()];
        let mut roots = Vec::new();
        for v in g.nodes() {
            if parent[v.index()].is_none() {
                depth_of[v.index()] = 0;
                root_of[v.index()] = v;
                roots.push(v);
            }
        }
        for v in g.nodes() {
            if depth_of[v.index()] != u32::MAX {
                continue;
            }
            // Walk up to a resolved ancestor.
            let mut chain = vec![v];
            let mut cur = v;
            loop {
                let p = parent[cur.index()]
                    .ok_or(())
                    .map_err(|_| EngineError::InvalidForest {
                        reason: "internal: root should be resolved".into(),
                    })?;
                if chain.len() > g.n() {
                    return Err(EngineError::InvalidForest {
                        reason: format!("cycle through {v:?}"),
                    });
                }
                if depth_of[p.index()] != u32::MAX {
                    let mut d = depth_of[p.index()];
                    let r = root_of[p.index()];
                    for &c in chain.iter().rev() {
                        d += 1;
                        depth_of[c.index()] = d;
                        root_of[c.index()] = r;
                    }
                    break;
                }
                chain.push(p);
                cur = p;
            }
        }
        let depth = depth_of.iter().copied().max().unwrap_or(0);
        Ok(Self {
            parent,
            parent_edge,
            root_of,
            depth_of,
            depth,
            roots,
            tree_edges,
        })
    }

    /// The parent of `v`, if any.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The edge to `v`'s parent, if any.
    #[inline]
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.parent_edge[v.index()]
    }

    /// The root of `v`'s tree.
    #[inline]
    pub fn root_of(&self, v: NodeId) -> NodeId {
        self.root_of[v.index()]
    }

    /// `v`'s depth (0 at roots).
    #[inline]
    pub fn depth_of(&self, v: NodeId) -> u32 {
        self.depth_of[v.index()]
    }

    /// Maximum depth of the forest.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// All roots (nodes without parents), in ascending node order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// All tree edges.
    pub fn tree_edges(&self) -> &[EdgeId] {
        &self.tree_edges
    }
}

/// Upcasts `items`, `(origin, words)` each, to their tree roots (Lemma 1.5): a
/// phase of one [`Cast::Up`] on `router` (the workspace of the graph `forest`
/// spans). Returns its realized cost.
///
/// # Errors
///
/// [`EngineError::BatchTooLarge`] if the items total more words than the router
/// addresses.
pub fn upcast(
    router: &mut Router<'_>,
    forest: &Forest,
    items: Vec<(NodeId, usize)>,
) -> Result<Metrics, EngineError> {
    router.route_casts(&[Cast::Up {
        forest,
        items,
        after: vec![],
    }])
}

/// Downcasts `items`, `(destination, words)` each, from each destination's tree
/// root to the destination (Lemma 1.6): a phase of one [`Cast::Down`] on
/// `router`. Items destined to a root are delivered locally for free. Returns
/// its realized cost.
///
/// # Errors
///
/// [`EngineError::BatchTooLarge`] if the items total more words than the router
/// addresses.
pub fn downcast(
    router: &mut Router<'_>,
    forest: &Forest,
    items: Vec<(NodeId, usize)>,
) -> Result<Metrics, EngineError> {
    router.route_casts(&[Cast::Down {
        forest,
        items,
        after: vec![],
    }])
}

/// One cast of a [`route_casts`] phase: items of `words` words each, moving
/// along tree paths of a forest or across single edges, and `after`, the
/// earlier casts of the phase it waits for.
#[derive(Clone, Debug)]
pub enum Cast<'f> {
    /// Each `(v, words)` climbs from `v` to its root in `forest`, as in [`upcast`].
    Up {
        /// The forest whose tree paths the items climb.
        forest: &'f Forest,
        /// `(origin, words)` per item.
        items: Vec<(NodeId, usize)>,
        /// Indices of the earlier casts this one waits for.
        after: Vec<usize>,
    },
    /// Each `(v, words)` descends from its root in `forest` to `v`, as in
    /// [`downcast`].
    Down {
        /// The forest whose tree paths the items descend.
        forest: &'f Forest,
        /// `(destination, words)` per item.
        items: Vec<(NodeId, usize)>,
        /// Indices of the earlier casts this one waits for.
        after: Vec<usize>,
    },
    /// Each `(owner, edge, words)` crosses `edge`, which is incident to
    /// `owner`, away from `owner`, and with `up` climbs on from the far end
    /// to that end's root in `up`.
    Hop {
        /// `(owner, edge, words)` per item.
        items: Vec<(NodeId, EdgeId, usize)>,
        /// The forest the items climb after their hop; `None` ends each at
        /// its far end.
        up: Option<&'f Forest>,
        /// Indices of the earlier casts this one waits for.
        after: Vec<usize>,
    },
}

impl Cast<'_> {
    /// The earlier casts this one waits for.
    pub(crate) fn after(&self) -> &[usize] {
        match self {
            Cast::Up { after, .. } | Cast::Down { after, .. } | Cast::Hop { after, .. } => after,
        }
    }
}

/// Routes a phase's `casts` as one schedule on `router`, each word moving on as
/// soon as it may, and returns its realised cost.
///
/// A cast waits per node: an item of a cast with `after` leaves its start node
/// (an upcast's origin, a downcast's root, a hop's owner) once every item of
/// the casts it waits for that *ends* at that node (an upcast's root, a
/// downcast's destination, a hop's far end, or for a hop that climbs, that
/// end's root) has arrived, and at once if none does. So a root's downcast
/// waits for the upcast words into that root only, not for other roots'
/// upcasts, and an upcast from `v` waits for the hops into `v`. A hop cast
/// that waits for nothing and does not climb *leads*: its words go ahead of
/// every other word on their edges, so they are in by the round their place
/// there says, and what waits for them leaves the round after. Otherwise the
/// casts' words queue in cast order, first come first served on every
/// directed edge, one word per edge and round. Every word crosses the edges
/// its cast names, so messages and per-edge congestion are those of the casts
/// routed one by one.
///
/// # Errors
///
/// [`EngineError::InvalidParameter`] if a cast waits for itself or a later
/// cast; [`EngineError::InvalidPath`] naming the first cast with a hop whose
/// edge is not incident to its owner — the cast's index, not the item's;
/// [`EngineError::BatchTooLarge`] if the phase outgrows the router's index
/// columns. The router stays usable after any of them.
pub fn route_casts(router: &mut Router<'_>, casts: &[Cast<'_>]) -> Result<Metrics, EngineError> {
    router.route_casts(casts)
}

/// Fails with [`EngineError::BudgetExceeded`] if `used` exceeds a given budget
/// (`None` = unlimited). The single budget-enforcement point: [`convergecast`]
/// and [`broadcast`] go through it, and budgeted algorithms (e.g. the GHS MST)
/// call it on the running total of the phases they charge.
pub fn ensure_budget(op: &'static str, used: u64, budget: Option<u64>) -> Result<(), EngineError> {
    match budget {
        Some(b) if used > b => Err(EngineError::BudgetExceeded {
            op,
            used,
            budget: b,
        }),
        _ => Ok(()),
    }
}

/// Result of a [`convergecast`] run.
#[derive(Clone, Debug)]
pub struct ConvergecastOutcome<P> {
    /// The folded value at each root: parallel to `Forest::roots()`.
    pub at_root: Vec<P>,
    /// Realized cost of the operation.
    pub metrics: Metrics,
}

/// Folds one value per node up to its tree root (bottom-up aggregation).
///
/// Every node combines its children's aggregates into its own value — children in
/// increasing node-ID order — and sends the result to its parent as one payload, so
/// each tree edge carries exactly one combined payload. The schedule is
/// level-synchronous: `depth · w` rounds, where `w` is the largest payload sent.
/// With an associative, commutative `combine` the result is schedule-independent;
/// either way the fold order above makes it deterministic.
///
/// Pass `budget = Some(limit)` to fail instead of overspending.
///
/// # Errors
///
/// [`EngineError::BudgetExceeded`] if the realized message count exceeds `budget`.
///
/// # Panics
///
/// Panics if `values.len() != g.n()` (one value per node).
pub fn convergecast<P: Wire>(
    g: &Graph,
    forest: &Forest,
    values: Vec<P>,
    combine: impl Fn(P, P) -> P,
    budget: Option<u64>,
) -> Result<ConvergecastOutcome<P>, EngineError> {
    assert_eq!(values.len(), g.n(), "one value per node");
    let mut acc: Vec<Option<P>> = values.into_iter().map(Some).collect();

    let mut metrics = Metrics::new(g.m());
    let mut max_words = 0usize;
    let mut max_sender_depth = 0u32;
    // Deepest level first; within a level nodes are in ascending node order,
    // so all children of one parent (they share a level) fold in that order.
    let levels = level_order(g, forest);
    for level in (1..levels.levels()).rev() {
        for &v in levels.level(level) {
            if let (Some(p), Some(e)) = (forest.parent(v), forest.parent_edge(v)) {
                let sent = acc[v.index()].take().expect("each node sends once");
                max_words = max_words.max(sent.words());
                max_sender_depth = max_sender_depth.max(forest.depth_of(v));
                metrics.add_messages(e, sent.words() as u64);
                let own = acc[p.index()].take().expect("parent not yet sent");
                acc[p.index()] = Some(combine(own, sent));
            }
        }
    }
    metrics.rounds = u64::from(max_sender_depth) * max_words as u64;
    ensure_budget("convergecast", metrics.messages, budget)?;
    let at_root = forest
        .roots()
        .iter()
        .map(|r| acc[r.index()].take().expect("roots never send"))
        .collect();
    Ok(ConvergecastOutcome { at_root, metrics })
}

/// Nodes bucketed by forest depth in CSR form: one flat node array plus
/// per-level offsets, built by a stable counting sort (`O(n + depth)`), so
/// within each level nodes are in ascending node order.
struct LevelOrder {
    order: Vec<NodeId>,
    offsets: Vec<usize>,
}

impl LevelOrder {
    /// Number of levels (`depth + 1`).
    fn levels(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The nodes at depth `l`, ascending.
    fn level(&self, l: usize) -> &[NodeId] {
        &self.order[self.offsets[l]..self.offsets[l + 1]]
    }
}

fn level_order(g: &Graph, forest: &Forest) -> LevelOrder {
    let levels = forest.depth() as usize + 1;
    let mut offsets = vec![0usize; levels + 1];
    for v in g.nodes() {
        offsets[forest.depth_of(v) as usize + 1] += 1;
    }
    for l in 0..levels {
        offsets[l + 1] += offsets[l];
    }
    let mut cursors = offsets[..levels].to_vec();
    let mut order = vec![NodeId::new(0); g.n()];
    for v in g.nodes() {
        let d = forest.depth_of(v) as usize;
        order[cursors[d]] = v;
        cursors[d] += 1;
    }
    LevelOrder { order, offsets }
}

/// Result of a [`broadcast`] run.
#[derive(Clone, Debug)]
pub struct BroadcastOutcome<P> {
    /// The payload received at each node (`None` outside broadcasting trees).
    pub at_node: Vec<Option<P>>,
    /// Realized cost of the operation.
    pub metrics: Metrics,
}

/// Floods one payload per root down that root's entire tree.
///
/// Each tree edge of a broadcasting tree carries the payload exactly once; the
/// level-synchronous schedule costs `depth · w` rounds for the deepest broadcasting
/// tree, `w` being the largest payload. Trees whose root has no payload are silent.
///
/// Pass `budget = Some(limit)` to fail instead of overspending.
///
/// # Errors
///
/// [`EngineError::InvalidForest`] if a payload's source node is not a root;
/// [`EngineError::BudgetExceeded`] if the realized message count exceeds `budget`.
pub fn broadcast<P: Wire>(
    g: &Graph,
    forest: &Forest,
    payloads: Vec<(NodeId, P)>,
    budget: Option<u64>,
) -> Result<BroadcastOutcome<P>, EngineError> {
    let mut at_root: Vec<Option<P>> = vec![None; g.n()];
    for (r, p) in payloads {
        if forest.parent(r).is_some() {
            return Err(EngineError::InvalidForest {
                reason: format!("broadcast source {r:?} is not a root"),
            });
        }
        at_root[r.index()] = Some(p);
    }
    let mut metrics = Metrics::new(g.m());
    let mut at_node: Vec<Option<P>> = vec![None; g.n()];
    let mut max_words = 0usize;
    let mut max_depth = 0u32;
    // Level by level from the roots: each node's payload (if its root
    // broadcasts) is its root's, and its parent edge carries it once.
    for &v in &level_order(g, forest).order {
        let Some(p) = at_root[forest.root_of(v).index()].as_ref() else {
            continue;
        };
        let p = p.clone();
        if let Some(e) = forest.parent_edge(v) {
            let words = p.words();
            metrics.add_messages(e, words as u64);
            max_words = max_words.max(words);
            max_depth = max_depth.max(forest.depth_of(v));
        }
        at_node[v.index()] = Some(p);
    }
    metrics.rounds = u64::from(max_depth) * max_words as u64;
    ensure_budget("broadcast", metrics.messages, budget)?;
    Ok(BroadcastOutcome { at_node, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    /// A path rooted at node 0.
    fn path_forest(n: usize) -> (Graph, Forest) {
        let g = generators::path(n);
        let parent: Vec<Option<NodeId>> = (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some(NodeId::new(i - 1))
                }
            })
            .collect();
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        (g, f)
    }

    #[test]
    fn forest_structure() {
        let (_, f) = path_forest(4);
        assert_eq!(f.roots(), &[NodeId::new(0)]);
        assert_eq!(f.depth(), 3);
        assert_eq!(f.root_of(NodeId::new(3)), NodeId::new(0));
        assert_eq!(f.depth_of(NodeId::new(2)), 2);
        assert_eq!(f.tree_edges().len(), 3);
    }

    #[test]
    fn invalid_parent_rejected() {
        let g = generators::path(3);
        let parent = vec![None, None, Some(NodeId::new(0))]; // 2->0 is not an edge
        assert!(Forest::from_parents(&g, parent).is_err());
    }

    #[test]
    fn parent_vector_of_the_wrong_length_rejected() {
        let g = generators::path(3);
        for parent in [vec![None, Some(NodeId::new(0))], vec![None; 4]] {
            let err = Forest::from_parents(&g, parent).unwrap_err();
            assert!(matches!(err, EngineError::InvalidForest { .. }));
        }
    }

    #[test]
    fn cycle_rejected() {
        let g = generators::cycle(3);
        let parent = vec![
            Some(NodeId::new(1)),
            Some(NodeId::new(2)),
            Some(NodeId::new(0)),
        ];
        let err = Forest::from_parents(&g, parent).unwrap_err();
        assert!(matches!(err, EngineError::InvalidForest { .. }));
    }

    #[test]
    fn upcast_delivers_all_items() {
        let (g, f) = path_forest(5);
        let items: Vec<(NodeId, usize)> = (0..5).map(|i| (NodeId::new(i), 1)).collect();
        let out = upcast(&mut Router::new(&g).expect("a small graph"), &f, items)
            .expect("upcast over a valid forest");
        // Messages = sum of depths = 0+1+2+3+4 = 10.
        assert_eq!(out.messages, 10);
        // Pipelined rounds: the deepest item needs 4 hops but shares edges; Lemma 1.5
        // bound: O(I_n) with I_n = 5 words here; realized must be <= 10.
        assert!(out.rounds >= 4 && out.rounds <= 10);
    }

    #[test]
    fn upcast_lemma_1_5_shape_on_star() {
        // Star rooted at the hub, depth 1: rounds ~ I_n only if edges are disjoint —
        // they are (one edge per leaf), so rounds = max item words, messages = I_n.
        let g = generators::star(6);
        let parent: Vec<Option<NodeId>> = (0..6)
            .map(|i| if i == 0 { None } else { Some(NodeId::new(0)) })
            .collect();
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        let items: Vec<(NodeId, usize)> = (1..6).map(|i| (NodeId::new(i), 3)).collect();
        let out = upcast(&mut Router::new(&g).expect("a small graph"), &f, items)
            .expect("upcast over a valid forest");
        assert_eq!(out.messages, 15);
        assert_eq!(out.rounds, 3); // 3 words pipelined on disjoint edges
    }

    #[test]
    fn downcast_delivers_to_destinations() {
        let (g, f) = path_forest(5);
        // Root sends one word to each node.
        let items: Vec<(NodeId, usize)> = (1..5).map(|i| (NodeId::new(i), 1)).collect();
        let out = downcast(&mut Router::new(&g).expect("a small graph"), &f, items)
            .expect("downcast over a valid forest");
        // Lemma 1.6: messages <= d * |M| = 4*4; realized = sum of depths = 1+2+3+4.
        assert_eq!(out.messages, 10);
        // Rounds <= |M| + d.
        assert!(out.rounds <= 4 + 4);
    }

    #[test]
    fn downcast_to_root_is_free() {
        let (g, f) = path_forest(3);
        let out = downcast(
            &mut Router::new(&g).expect("a small graph"),
            &f,
            vec![(NodeId::new(0), 2)],
        )
        .expect("local downcast");
        assert_eq!(out.messages, 0);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn multi_tree_forest_parallelism() {
        // Two disjoint paths upcast concurrently; rounds = max, not sum.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let parent = vec![
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(1)),
            None,
            Some(NodeId::new(3)),
            Some(NodeId::new(4)),
        ];
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        let items = vec![(NodeId::new(2), 1), (NodeId::new(5), 1)];
        let out = upcast(&mut Router::new(&g).expect("a small graph"), &f, items)
            .expect("upcast over a valid forest");
        assert_eq!(out.rounds, 2);
        assert_eq!(out.messages, 4);
    }

    /// Every node under the nearest of `roots` (BFS; ties to the earlier root),
    /// and the hops an LDC's F-edges would give: per node, its first edge into
    /// each other tree.
    fn cells(g: &Graph, roots: &[usize]) -> (Forest, Vec<(NodeId, EdgeId)>) {
        let mut parent = vec![None; g.n()];
        let mut seen = vec![false; g.n()];
        let mut queue: std::collections::VecDeque<NodeId> =
            roots.iter().map(|&r| NodeId::new(r)).collect();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(v) = queue.pop_front() {
            for (_, u) in g.incident(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    parent[u.index()] = Some(v);
                    queue.push_back(u);
                }
            }
        }
        let f = Forest::from_parents(g, parent).expect("a BFS forest");
        let mut hops = Vec::new();
        for v in g.nodes() {
            let mut reached = vec![f.root_of(v)];
            for (e, u) in g.incident(v) {
                if !reached.contains(&f.root_of(u)) {
                    reached.push(f.root_of(u));
                    hops.push((v, e));
                }
            }
        }
        (f, hops)
    }

    /// Theorem 2.1's phase over `f` as two casts: one word down to each
    /// distinct owner, in order of first appearance, then per hop one word
    /// across its edge and up to the far end's root, behind its owner's word.
    fn down_and_climb<'f>(f: &'f Forest, hops: &[(NodeId, EdgeId)]) -> [Cast<'f>; 2] {
        let mut owners: Vec<(NodeId, usize)> = Vec::new();
        for &(v, _) in hops {
            if !owners.iter().any(|&(o, _)| o == v) {
                owners.push((v, 1));
            }
        }
        [
            Cast::Down {
                forest: f,
                items: owners,
                after: vec![],
            },
            Cast::Hop {
                items: hops.iter().map(|&(v, e)| (v, e, 1)).collect(),
                up: Some(f),
                after: vec![0],
            },
        ]
    }

    #[test]
    fn a_climbing_hop_phase_is_a_downcast_hops_and_an_upcast_in_one_schedule() {
        let instances = [
            (generators::grid(12, 8), vec![0, 11, 40, 47, 50, 84, 90, 95]),
            (generators::gnp_connected(60, 0.08, 5), vec![0, 1, 2, 3]),
        ];
        for (g, roots) in instances {
            let (f, hops) = cells(&g, &roots);
            let mut router = Router::new(&g).expect("a small graph");
            let casts = down_and_climb(&f, &hops);
            let phase = route_casts(&mut router, &casts).expect("hops leave owners");
            // The three steps one after another: one word down to each owner,
            // one round across the hop edges, an upcast from their far ends.
            let Cast::Down { items: owners, .. } = &casts[0] else {
                unreachable!("built as a downcast first")
            };
            let far_ends = hops.iter().map(|&(v, e)| {
                let (a, b) = g.endpoints(e);
                (if a == v { b } else { a }, 1)
            });
            let down = downcast(&mut router, &f, owners.clone()).expect("downcast");
            let up = upcast(&mut router, &f, far_ends.collect()).expect("upcast");
            let mut steps = down.clone();
            for &(_, e) in &hops {
                steps.add_messages(e, 1);
            }
            steps.merge_sequential(&up);
            assert_eq!(phase.messages, steps.messages);
            assert_eq!(phase.congestion(), steps.congestion());
            assert!(down.rounds.max(up.rounds) <= phase.rounds);
            assert!(
                phase.rounds < down.rounds + 1 + up.rounds,
                "{} rounds against {} + 1 + {}",
                phase.rounds,
                down.rounds,
                up.rounds
            );
        }
    }

    #[test]
    fn a_climbing_hop_phase_of_no_hops_costs_nothing() {
        let (g, f) = path_forest(4);
        let mut router = Router::new(&g).expect("a small graph");
        let out = route_casts(&mut router, &down_and_climb(&f, &[])).expect("no hops");
        assert_eq!(out, Metrics::new(g.m()));
    }

    #[test]
    fn a_climbing_hop_off_its_owner_is_rejected_and_the_router_stays_usable() {
        let (g, f) = path_forest(4);
        let e = |u: usize, v: usize| g.edge_between(NodeId::new(u), NodeId::new(v)).unwrap();
        let mut router = Router::new(&g).expect("a small graph");
        let good = [(NodeId::new(2), e(2, 3)), (NodeId::new(1), e(1, 2))];
        let want = route_casts(&mut router, &down_and_climb(&f, &good)).expect("hops leave owners");
        // The error names the hop cast, 1, whichever of its items is off.
        let bad = [good[0], (NodeId::new(0), e(2, 3)), good[1]];
        let err = route_casts(&mut router, &down_and_climb(&f, &bad)).unwrap_err();
        assert_eq!(err, EngineError::InvalidPath { task: 1 });
        let out_of_range = [(NodeId::new(0), EdgeId::new(g.m()))];
        let err = route_casts(&mut router, &down_and_climb(&f, &out_of_range)).unwrap_err();
        assert_eq!(err, EngineError::InvalidPath { task: 1 });
        let again =
            route_casts(&mut router, &down_and_climb(&f, &good)).expect("hops leave owners");
        assert_eq!(again, want);
        // The word to 1 is down in round 1, the one to 2 in round 2. 1's hop
        // word crosses 1 → 2 in round 2 and climbs back to the root by round
        // 4; 2's crosses 2 → 3 in round 3 and reaches the root in round 6.
        // Messages: (2 + 1) down, 2 hops, (3 + 2) up.
        assert_eq!((want.rounds, want.messages), (6, 3 + 2 + 5));
    }

    /// `path(6)` split into the trees 0-1-2-3 (root 0) and 4-5 (root 4).
    fn two_trees() -> (Graph, Forest) {
        let g = generators::path(6);
        let parent = [None, Some(0), Some(1), Some(2), None, Some(4)];
        let parent = parent.iter().map(|p| p.map(NodeId::new)).collect();
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        (g, f)
    }

    #[test]
    fn a_roots_downcast_leaves_after_the_last_upcast_word_into_that_root() {
        let (g, f) = two_trees();
        let [v1, v3, v5] = [1, 3, 5].map(NodeId::new);
        // Node 3's word reaches root 0 in round 3, node 5's reaches root 4 in
        // round 1. Each root's downcast waits for its own tree's word only.
        let phase = |down: Vec<(NodeId, usize)>, after: Vec<usize>| {
            let casts = [
                Cast::Up {
                    forest: &f,
                    items: vec![(v3, 1), (v5, 1)],
                    after: vec![],
                },
                Cast::Down {
                    forest: &f,
                    items: down,
                    after,
                },
            ];
            let mut router = Router::new(&g).expect("a small graph");
            let m = route_casts(&mut router, &casts).expect("casts over a forest");
            (m.rounds, m.messages)
        };
        // Root 0's word leaves in round 4, not 1; without the wait both
        // downcast words leave in round 1.
        assert_eq!(phase(vec![(v1, 1), (v5, 1)], vec![0]), (4, 6));
        assert_eq!(phase(vec![(v1, 1), (v5, 1)], vec![]), (3, 6));
        // Root 4's three words leave in rounds 2–4, not held behind root 0's
        // upcast until round 4.
        assert_eq!(phase(vec![(v5, 3)], vec![0]), (4, 7));
    }

    #[test]
    fn hops_and_upcasts_wait_at_the_node_their_words_leave() {
        let (g, f) = two_trees();
        let e = |u: usize, v: usize| g.edge_between(NodeId::new(u), NodeId::new(v)).unwrap();
        let [v0, v3, v4, v5] = [0, 3, 4, 5].map(NodeId::new);
        let phase = |wait: bool| {
            let after = |c: usize| if wait { vec![c] } else { vec![] };
            let casts = [
                // Root 0 sends 2 words down to 3 (rounds 3 and 4) ...
                Cast::Down {
                    forest: &f,
                    items: vec![(v3, 2)],
                    after: vec![],
                },
                // ... which forwards them to 4 across the non-tree edge 3-4 in
                // rounds 5 and 6: a 2-word hop costs 2 rounds on its edge ...
                Cast::Hop {
                    items: vec![(v3, e(3, 4), 2)],
                    up: None,
                    after: after(0),
                },
                // ... and 4, a root, sends one word down to 5 once both
                // arrived, in round 7; the one to 4 itself is local.
                Cast::Down {
                    forest: &f,
                    items: vec![(v5, 1), (v4, 1)],
                    after: after(1),
                },
                // Node 0 upcasts nothing it waits for: it is a root with no hop
                // ending there, so its local item completes in round 0.
                Cast::Up {
                    forest: &f,
                    items: vec![(v0, 3)],
                    after: after(1),
                },
            ];
            let mut router = Router::new(&g).expect("a small graph");
            let m = route_casts(&mut router, &casts).expect("hops leave owners");
            (m.rounds, m.messages)
        };
        assert_eq!(phase(true), (7, 6 + 2 + 1));
        // Without the waits the hop leads (rounds 1 and 2) and 5's word is in
        // by round 1: the downcast to 3 is the slowest.
        assert_eq!(phase(false), (4, 6 + 2 + 1));
    }

    #[test]
    fn lead_hops_go_first_on_their_edges_and_release_their_waiters() {
        let (g, f) = two_trees();
        let e34 = g.edge_between(NodeId::new(3), NodeId::new(4)).unwrap();
        // A hop cast waiting for nothing leads: its 3 words cross 3 → 4 in
        // rounds 1–3.
        let lead = Cast::Hop {
            items: vec![(NodeId::new(3), e34, 3)],
            up: None,
            after: vec![],
        };
        // A word for the same edge, waiting for nothing that ends at 3, still
        // queues behind them.
        let behind = |after| Cast::Hop {
            items: vec![(NodeId::new(3), e34, 1)],
            up: None,
            after,
        };
        let mut router = Router::new(&g).expect("a small graph");
        let mut phase = |casts: &[Cast<'_>]| {
            let m = route_casts(&mut router, casts).expect("hops leave owners");
            (m.rounds, m.messages)
        };
        assert_eq!(phase(&[lead.clone(), behind(vec![0])]), (4, 4));
        // Root 4's downcast waits for the lead words and arrives in round 4,
        // and the last word crosses 3 → 4 in round 4 too.
        let down = Cast::Down {
            forest: &f,
            items: vec![(NodeId::new(5), 1)],
            after: vec![0],
        };
        assert_eq!(phase(&[lead.clone(), down, behind(vec![1])]), (4, 5));
        // Without the wait the downcast word is in by round 1.
        let free = Cast::Down {
            forest: &f,
            items: vec![(NodeId::new(5), 1)],
            after: vec![],
        };
        assert_eq!(phase(&[lead, free]), (3, 4));
    }

    #[test]
    fn a_phase_rejects_bad_waits_and_hops_and_stays_usable() {
        let (g, f) = two_trees();
        let e = |u: usize, v: usize| g.edge_between(NodeId::new(u), NodeId::new(v)).unwrap();
        let mut router = Router::new(&g).expect("a small graph");
        let up = |after: Vec<usize>| Cast::Up {
            forest: &f,
            items: vec![(NodeId::new(3), 1)],
            after,
        };
        let good = [up(vec![]), up(vec![0])];
        let want = route_casts(&mut router, &good).expect("casts over a forest");
        for bad in [[up(vec![]), up(vec![1])], [up(vec![1]), up(vec![])]] {
            let err = route_casts(&mut router, &bad).unwrap_err();
            assert!(matches!(
                err,
                EngineError::InvalidParameter { what: "cast", .. }
            ));
        }
        let off_owner = Cast::Hop {
            items: vec![(NodeId::new(0), e(3, 4), 1)],
            up: None,
            after: vec![0],
        };
        let err = route_casts(&mut router, &[up(vec![]), off_owner]).unwrap_err();
        assert_eq!(err, EngineError::InvalidPath { task: 1 });
        assert_eq!(route_casts(&mut router, &good).expect("usable"), want);
        // The second word waits at 3 for nothing (no item ends at 3), so both
        // climb together: 3 hops, 2 words, 4 rounds.
        assert_eq!((want.rounds, want.messages), (4, 6));
    }

    #[test]
    fn convergecast_sums_subtree() {
        let (g, f) = path_forest(5);
        let out = convergecast(&g, &f, vec![1u64; 5], |a, b| a + b, None)
            .expect("unbudgeted convergecast");
        assert_eq!(out.at_root, vec![5]);
        // One word per tree edge, depth rounds.
        assert_eq!(out.metrics.messages, 4);
        assert_eq!(out.metrics.rounds, 4);
    }

    #[test]
    fn convergecast_fold_order_is_child_id_ascending() {
        // Star rooted at 0: fold must visit children 1, 2, 3, 4, 5 in order.
        let g = generators::star(6);
        let parent: Vec<Option<NodeId>> =
            (0..6).map(|i| (i != 0).then_some(NodeId::new(0))).collect();
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        let values: Vec<Vec<u64>> = (0..6).map(|i| vec![i as u64]).collect();
        let out = convergecast(
            &g,
            &f,
            values,
            |mut a, b| {
                a.extend(b);
                a
            },
            None,
        )
        .expect("vector-append convergecast");
        assert_eq!(out.at_root[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(out.metrics.rounds, 1); // depth 1, 1-word payloads
        assert_eq!(out.metrics.messages, 5);
    }

    #[test]
    fn convergecast_budget_enforced() {
        let (g, f) = path_forest(5);
        let err = convergecast(&g, &f, vec![1u64; 5], |a, b| a + b, Some(3)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                op: "convergecast",
                used: 4,
                budget: 3
            }
        ));
    }

    #[test]
    fn broadcast_floods_whole_tree() {
        let (g, f) = path_forest(4);
        let out =
            broadcast(&g, &f, vec![(NodeId::new(0), 7u64)], None).expect("unbudgeted broadcast");
        assert!(out.at_node.iter().all(|p| *p == Some(7)));
        assert_eq!(out.metrics.messages, 3);
        assert_eq!(out.metrics.rounds, 3);
    }

    #[test]
    fn broadcast_silent_trees_cost_nothing() {
        // Two trees; only the second broadcasts.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let parent = vec![None, Some(NodeId::new(0)), None, Some(NodeId::new(2))];
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        let out =
            broadcast(&g, &f, vec![(NodeId::new(2), 9u64)], None).expect("unbudgeted broadcast");
        assert_eq!(out.at_node, vec![None, None, Some(9), Some(9)]);
        assert_eq!(out.metrics.messages, 1);
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn broadcast_rejects_non_root_source() {
        let (g, f) = path_forest(3);
        let err = broadcast(&g, &f, vec![(NodeId::new(1), 1u64)], None).unwrap_err();
        assert!(matches!(err, EngineError::InvalidForest { .. }));
    }

    #[test]
    fn broadcast_budget_enforced() {
        let (g, f) = path_forest(4);
        let err = broadcast(&g, &f, vec![(NodeId::new(0), 7u64)], Some(2)).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }));
    }

    use congest_graph::Graph;
}
