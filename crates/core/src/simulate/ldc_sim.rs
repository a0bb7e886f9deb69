//! **Theorem 2.1** — the message-efficient simulation of BCONGEST algorithms over an
//! LDC decomposition (paper §2.2).
//!
//! Preprocessing: leader election + node count (§2.2 step 1), an
//! `(O(log n), O(log n))`-LDC decomposition (step 2), and an upcast of every node's
//! input to its cluster center (step 3) — after which each center replicates its
//! members' state machines. Step 2b, before the upcast: each cluster elects the
//! member with the most cluster neighbours and, if it beats the MPX center and its
//! BFS tree of the cluster is no deeper, roots the cluster there
//! (`reelect_centers`); step 3 and everything after run over the forest it
//! returns. Step 3b: knowing its members' edge lists, each center re-parents its
//! cluster tree so its branches balance (same depths, same cast messages;
//! `balance_branches`), and every later cast runs over that tree.
//!
//! Each phase `p` simulates round `p` of the payload: centers compute member
//! broadcasts locally and **downcast** one word to each broadcaster with an F-edge
//! (it knows its F-edges from the announce round), the broadcaster sends it across
//! its F-edges, and the receiving sides **upcast** it to their centers, which apply
//! the member `receive` transitions. The three steps are one routed schedule
//! (`treeops::relay`): a broadcaster sends in the round after its own word
//! arrives, not after the whole downcast, so a phase costs about its slowest
//! cast rather than the sum of all three, and a phase no broadcaster has an
//! F-edge in costs no rounds (DESIGN.md §2). A message reaches a receiver only
//! along that path, or at the shared center for a receiver in the broadcaster's
//! own cluster. A final downcast delivers outputs. Message complexity is
//! therefore `Õ(In + Out + B_A)` — each simulated broadcast pays `O(log n)`
//! F-edges × `O(log n)` tree depth rather than `deg(v)`.
//!
//! Correctness (Lemma 2.5) is checked in the strongest possible way: with the same
//! seed, outputs are asserted equal to a direct run's (see the integration tests),
//! and an LDC missing an F-edge is shown to break them (the unit tests).

use crate::simulate::common::{payload_options, Pad, SimulationRun};
use congest_algos::leader::setup_network_with;
use congest_decomp::ldc::{build_ldc, LdcDecomposition};
use congest_engine::{
    downcast, relay, run_bcongest_over, upcast, BcongestAlgorithm, EngineError, Forest, Metrics,
    Router,
};
use congest_graph::{rng, Graph, NodeId};

/// Options for the Theorem 2.1 simulation.
#[derive(Clone, Debug, Default)]
pub struct LdcSimOptions {
    /// Master seed (drives preprocessing randomness *and* the payload's per-node
    /// seeds — use the same seed as a direct run to compare outputs).
    pub seed: u64,
    /// Pad every phase to the worst-case `Θ(n log n)` budget of §2.2 instead of the
    /// realized schedule length.
    pub strict_phase_budget: bool,
    /// Phase guard; defaults to `4 × round_bound + 64`.
    pub max_phases: Option<usize>,
    /// How per-node phases execute (the payload's round loop and the
    /// preprocessing runs). Outputs and metrics are identical at every thread
    /// count.
    pub exec: congest_engine::ExecutorConfig,
}

/// Simulates `algo` over `g` per Theorem 2.1.
///
/// # Errors
///
/// Returns [`EngineError::RoundLimitExceeded`] if the payload does not quiesce
/// within the phase guard; propagates preprocessing errors.
pub fn simulate_bcongest_via_ldc<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &LdcSimOptions,
) -> Result<SimulationRun<A::Output>, EngineError> {
    let ldc = build_ldc(g, opts.seed)?;
    simulate_over_ldc(algo, g, weights, &ldc, opts)
}

/// [`simulate_bcongest_via_ldc`] over a given decomposition (step 2's output),
/// whose construction cost `ldc.metrics` is charged as preprocessing. A message
/// reaches exactly the receivers the charged transport serves, so an `ldc`
/// missing an F-edge yields wrong outputs.
pub(crate) fn simulate_over_ldc<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    ldc: &LdcDecomposition,
    opts: &LdcSimOptions,
) -> Result<SimulationRun<A::Output>, EngineError> {
    let n = g.n();
    let mut metrics = Metrics::new(g.m());

    // ---- Preprocessing ----
    let setup = setup_network_with(g, opts.seed, &opts.exec)?;
    metrics.merge_sequential(&setup.metrics);
    metrics.merge_sequential(&ldc.metrics);
    // Step 2b: each cluster re-elects its center at its best-connected member
    // when that member's BFS tree is no deeper; every later cast runs over the
    // forest it returns.
    let (forest, reelection) = reelect_centers(g, ldc.clustering.forest(g)?, opts.seed)?;
    metrics.merge_sequential(&reelection);

    // Step 3: upcast every node's input (its incident edge list) to its center.
    let mut router = Router::new(g)?;
    let up = upcast(
        &mut router,
        &forest,
        g.nodes().map(|v| (v, Pad(g.degree(v) + 1))).collect(),
    )?;
    metrics.merge_sequential(&up.metrics);
    // Step 3b: with every member's edge list in hand, each center balances its
    // tree's branches; every later cast runs over the tree it chose.
    let (forest, rebalance) = balance_branches(&mut router, forest)?;
    metrics.merge_sequential(&rebalance);
    let preprocessing = metrics.clone();

    // Centers now (conceptually) hold all member inputs and replicate member
    // states: phase `p` is round `p` of the payload's own execution, delivered
    // by the transport below.
    let phase_budget = phase_budget_rounds(n);
    let transport = |_phase: usize,
                     broadcasters: &[(NodeId, A::Msg)],
                     inboxes: &mut [Vec<(NodeId, A::Msg)>]|
     -> Result<(), EngineError> {
        // Inboxes hold what the transport below delivers: a receiver in the
        // broadcaster's cluster reads the message at their shared center, any
        // other only through an F-edge of the broadcaster into its cluster,
        // whose center hands it to the members adjacent to the broadcaster.
        // With every F-edge present (Definition 2.3) that is every neighbor,
        // in the direct run's order.
        let cluster_of = &ldc.clustering.cluster_of;
        for (v, m) in broadcasters {
            let (home, f_edges) = (cluster_of[v.index()], &ldc.f_edges[v.index()]);
            for &u in g.neighbors(*v) {
                let c = cluster_of[u.index()];
                if c == home || f_edges.iter().any(|f| f.target == c) {
                    inboxes[u.index()].push((*v, m.clone()));
                }
            }
        }

        // Transport accounting, one schedule: one word down to each broadcaster
        // with an F-edge (`v` knows its own F-edges from the announce round, so
        // one word tells it what to send over all of them), which sends it
        // across them the round after it arrives, and each far end upcasts it
        // into its center.
        let hops = broadcasters
            .iter()
            .flat_map(|(v, _)| ldc.f_edges[v.index()].iter().map(|f| (*v, f.edge)));
        let mut phase_cost = relay(&mut router, &forest, hops)?;
        if opts.strict_phase_budget {
            phase_cost.pad_rounds(phase_budget.saturating_sub(phase_cost.rounds));
        }
        metrics.merge_sequential(&phase_cost);
        Ok(())
    };
    let payload_opts = payload_options(opts.seed, opts.max_phases, &opts.exec);
    let payload = run_bcongest_over(algo, g, weights, &payload_opts, transport)?;

    // Final phase: downcast outputs to their nodes.
    let out_items: Vec<(NodeId, Pad)> = g
        .nodes()
        .zip(payload.outputs.iter())
        .map(|(v, o)| (v, Pad(algo.output_words(o))))
        .collect();
    let down = downcast(&mut router, &forest, out_items)?;
    metrics.merge_sequential(&down.metrics);

    Ok(SimulationRun::assemble(payload, metrics, preprocessing))
}

/// §2.2 step 2b: every cluster elects the member with the most cluster
/// neighbours (ties to the smaller id) and, if it has strictly more than the
/// MPX center and its BFS tree of the cluster is no deeper than MPX's, adopts
/// that tree. Clusters run in parallel on disjoint edges, so the step costs the
/// slowest cluster's rounds and every cluster's messages. Per cluster:
/// 1. *elect*: a max-convergecast of `(cluster degree, smaller id)` up the MPX
///    tree and a broadcast of the winner (and whether it beats the center)
///    back down: one word each way per tree edge, `2 × depth` rounds;
/// 2. *trial*, only where the winner beats the center: a BFS from it inside
///    the cluster, `trial depth + 1` rounds. A member at depth `d` hears from
///    all its cluster neighbours at depth `d − 1` in round `d`, picks its parent
///    among them — the one with the smallest `rng::derive` hash of `(seed,
///    member, candidate)`, since a first-discoverer or smallest-id parent piles
///    the step-3 upcast onto one branch — and in round `d + 1` sends one word,
///    its depth and that parent's id, to each cluster neighbour. The parent
///    learns its child from the word it gets anyway;
/// 3. *guard*: a max-convergecast of the trial depths up the trial tree and a
///    one-word verdict back down, `2 × trial depth` rounds. A trial tree
///    deeper than MPX's is dropped, and its messages stay charged.
fn reelect_centers(g: &Graph, forest: Forest, seed: u64) -> Result<(Forest, Metrics), EngineError> {
    let n = g.n();
    let trees = &forest;
    let cluster_neighbors = |v: NodeId| {
        let root = trees.root_of(v);
        g.incident(v)
            .filter(move |&(_, u)| trees.root_of(u) == root)
    };
    let degree: Vec<usize> = g.nodes().map(|v| cluster_neighbors(v).count()).collect();
    let mut charge = Metrics::new(g.m());
    // Per root: its cluster's winner and MPX depth. Elect charges two words
    // per tree edge.
    let mut winner: Vec<Option<NodeId>> = vec![None; n];
    let mut mpx_depth = vec![0u32; n];
    for v in g.nodes() {
        let (r, d) = (forest.root_of(v).index(), forest.depth_of(v));
        mpx_depth[r] = mpx_depth[r].max(d);
        if winner[r].is_none_or(|w| degree[v.index()] > degree[w.index()]) {
            winner[r] = Some(v);
        }
        if let Some(e) = forest.parent_edge(v) {
            charge.add_messages(e, 2);
        }
    }
    let fires = |r: NodeId| winner[r.index()].filter(|w| degree[w.index()] > degree[r.index()]);

    // The trial BFS of every firing cluster at once (clusters are disjoint).
    let mut trial_depth = vec![u32::MAX; n];
    let mut queue: std::collections::VecDeque<NodeId> =
        forest.roots().iter().filter_map(|&r| fires(r)).collect();
    for w in &queue {
        trial_depth[w.index()] = 0;
    }
    while let Some(v) = queue.pop_front() {
        for (e, u) in cluster_neighbors(v) {
            // `v`'s one word to each cluster neighbour.
            charge.add_messages(e, 1);
            if trial_depth[u.index()] == u32::MAX {
                trial_depth[u.index()] = trial_depth[v.index()] + 1;
                queue.push_back(u);
            }
        }
    }
    let mut trial_parent: Vec<Option<NodeId>> = vec![None; n];
    let mut trial_max = vec![0u32; n];
    let key = |v: NodeId, u: NodeId| {
        rng::derive(
            rng::derive(rng::derive(seed, 0x7472_6565), v.index() as u64),
            u.index() as u64,
        )
    };
    for v in g.nodes().filter(|&v| trial_depth[v.index()] != u32::MAX) {
        let d = trial_depth[v.index()];
        let r = forest.root_of(v).index();
        trial_max[r] = trial_max[r].max(d);
        if d == 0 {
            continue;
        }
        let (e, p) = cluster_neighbors(v)
            .filter(|&(_, u)| trial_depth[u.index()] + 1 == d)
            .min_by_key(|&(_, u)| key(v, u))
            .expect("a BFS member has a neighbour one level up");
        trial_parent[v.index()] = Some(p);
        // The guard's convergecast word and its verdict word.
        charge.add_messages(e, 2);
    }

    // Per root: whether its cluster adopts the trial tree.
    let mut adopt = vec![false; n];
    for &r in forest.roots() {
        let (elect, trial) = (mpx_depth[r.index()], trial_max[r.index()]);
        let fired = fires(r).is_some();
        // Elect's two casts; the trial's wave and the guard's two casts.
        let rounds = 2 * elect + if fired { (trial + 1) + 2 * trial } else { 0 };
        charge.rounds = charge.rounds.max(u64::from(rounds));
        adopt[r.index()] = fired && trial <= elect;
    }
    if !adopt.contains(&true) {
        return Ok((forest, charge));
    }
    let parent = g
        .nodes()
        .map(|v| {
            if adopt[forest.root_of(v).index()] {
                trial_parent[v.index()]
            } else {
                forest.parent(v)
            }
        })
        .collect();
    Ok((Forest::from_parents(g, parent)?, charge))
}

/// §2.2 step 3b: every center re-parents its cluster tree to balance the
/// branches (the subtrees under its children), and pays for telling the members.
///
/// Every member keeps its depth; its parent becomes a cluster neighbor one level
/// closer to the center. Members are visited by `(depth, id)`: a depth-1 member
/// heads its own branch, a deeper one joins the eligible parent whose branch has
/// the fewest members so far (ties to the smaller id). Step 2b's trees (MPX's or
/// a re-elected center's) are BFS trees of their clusters, so the old parent is
/// always eligible and a cast over the
/// returned forest costs the same messages as over `forest`. A cluster adopts its
/// new tree only if its heaviest branch gets strictly lighter; otherwise it keeps
/// the old one and is charged nothing. The charge: the center downcasts one word
/// to each re-parented member over the old tree, then each of them spends one
/// round sending one word to its new parent.
fn balance_branches(
    router: &mut Router<'_>,
    forest: Forest,
) -> Result<(Forest, Metrics), EngineError> {
    let g = router.graph();
    let n = g.n();
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| forest.depth_of(v)); // stable: ties stay by id
    let mut parent: Vec<Option<NodeId>> = g.nodes().map(|v| forest.parent(v)).collect();
    // Per node: the head (depth-1 ancestor) of its branch in the old and the new
    // tree; per head: its branch's member count.
    let mut old_head = vec![NodeId::new(0); n];
    let mut new_head = vec![NodeId::new(0); n];
    let mut old_size = vec![0u32; n];
    let mut new_size = vec![0u32; n];
    for &v in &order {
        let Some(p) = forest.parent(v) else { continue };
        if forest.depth_of(v) == 1 {
            old_head[v.index()] = v;
            new_head[v.index()] = v;
        } else {
            let (root, depth) = (forest.root_of(v), forest.depth_of(v));
            let q = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| forest.root_of(u) == root && forest.depth_of(u) + 1 == depth)
                .min_by_key(|&u| (new_size[new_head[u.index()].index()], u))
                .expect("the old parent is eligible");
            parent[v.index()] = Some(q);
            old_head[v.index()] = old_head[p.index()];
            new_head[v.index()] = new_head[q.index()];
        }
        old_size[old_head[v.index()].index()] += 1;
        new_size[new_head[v.index()].index()] += 1;
    }
    // Per root: its heaviest branch before and after.
    let mut heaviest = vec![(0u32, 0u32); n];
    for &v in &order {
        if forest.depth_of(v) == 1 {
            let h = &mut heaviest[forest.root_of(v).index()];
            h.0 = h.0.max(old_size[v.index()]);
            h.1 = h.1.max(new_size[v.index()]);
        }
    }
    let mut moved = Vec::new();
    for v in g.nodes() {
        let (old, new) = heaviest[forest.root_of(v).index()];
        if new >= old {
            parent[v.index()] = forest.parent(v);
        } else if parent[v.index()] != forest.parent(v) {
            moved.push(v);
        }
    }
    if moved.is_empty() {
        return Ok((forest, Metrics::new(g.m())));
    }
    let balanced = Forest::from_parents(g, parent)?;
    let announce = moved.iter().map(|&v| (v, Pad(1))).collect();
    let mut charge = downcast(router, &forest, announce)?.metrics;
    charge.rounds += 1;
    for &v in &moved {
        let edge = balanced.parent_edge(v).expect("moved nodes have parents");
        charge.add_messages(edge, 1);
    }
    Ok((balanced, charge))
}

/// The §2.2 worst-case phase budget `Θ(n log n)`.
fn phase_budget_rounds(n: usize) -> u64 {
    let log = (usize::BITS - n.max(2).leading_zeros()) as u64;
    n as u64 * log
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algos::bfs::Bfs;
    use congest_algos::mis::{is_valid_mis, LubyMis};
    use congest_decomp::ldc::FEdge;
    use congest_decomp::mpx::Clustering;
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::generators;
    use proptest::prelude::*;

    fn direct_opts(seed: u64) -> RunOptions {
        RunOptions {
            seed,
            ..Default::default()
        }
    }

    /// Per node: the members of the branch it heads (0 unless it is a child
    /// of a root).
    fn branch_sizes(g: &Graph, forest: &Forest) -> Vec<usize> {
        let mut size = vec![0; g.n()];
        for v in g.nodes() {
            if let [.., head, _root] = forest.path_to_root(v)[..] {
                size[head.index()] += 1;
            }
        }
        size
    }

    /// Per tree, in `forest.roots()` order: its heaviest branch.
    fn heaviest_branches(g: &Graph, forest: &Forest) -> Vec<usize> {
        let size = branch_sizes(g, forest);
        let mut heaviest = vec![0; g.n()];
        for v in g.nodes().filter(|&v| forest.depth_of(v) == 1) {
            let h = &mut heaviest[forest.root_of(v).index()];
            *h = (*h).max(size[v.index()]);
        }
        forest.roots().iter().map(|r| heaviest[r.index()]).collect()
    }

    /// The forest `simulate_over_ldc` casts over: step 2b, then step 3b.
    fn cast_forest(router: &mut Router<'_>, ldc: &LdcDecomposition, seed: u64) -> Forest {
        let g = router.graph();
        let (forest, _) = reelect_centers(g, ldc.clustering.forest(g).unwrap(), seed).unwrap();
        balance_branches(router, forest).unwrap().0
    }

    #[test]
    fn reelection_moves_the_center_to_the_hub() {
        // MPX's center 0 has cluster neighbours 1 and 2; hub 1 is adjacent to
        // every other member, whose words all cross the edge 0 - 1.
        let mut edges = vec![(0, 1), (0, 2), (1, 2)];
        edges.extend((3..10).map(|v| (1, v)));
        let g = Graph::from_edges(10, &edges);
        let parent = (0..10)
            .map(|v| match v {
                0 => None,
                1 | 2 => Some(NodeId::new(0)),
                _ => Some(NodeId::new(1)),
            })
            .collect();
        let mpx = Forest::from_parents(&g, parent).unwrap();
        let (new, charge) = reelect_centers(&g, mpx.clone(), 7).unwrap();
        assert_eq!(new.roots(), [NodeId::new(1)]);
        assert_eq!((mpx.depth(), new.depth()), (2, 1));
        // Elect: 2 words per tree edge, 2 × 2 rounds. Trial: 2 words per
        // cluster edge, 1 + 1 rounds. Guard: 2 words per trial edge, 2 × 1.
        assert_eq!((charge.messages, charge.rounds), (18 + 20 + 18, 4 + 2 + 2));
        let mut router = Router::new(&g).unwrap();
        let outputs = || g.nodes().map(|v| (v, Pad(g.n()))).collect();
        let before = downcast(&mut router, &mpx, outputs()).unwrap().metrics;
        let after = downcast(&mut router, &new, outputs()).unwrap().metrics;
        assert!(after.messages <= before.messages);
        assert!(
            after.rounds < before.rounds,
            "{} -> {} rounds",
            before.rounds,
            after.rounds
        );
    }

    #[test]
    fn reelection_keeps_a_shallower_mpx_tree_and_charges_the_trial() {
        // Path 0 - 1 - 2 - 3 - 4 centered at 2, leaves 5, 6, 7 on 4: the hub
        // 4 wins (4 cluster neighbours against 2), but its BFS tree reaches 0
        // at depth 4 and MPX's has depth 3.
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7)]);
        let parent = [
            Some(1),
            Some(2),
            None,
            Some(2),
            Some(3),
            Some(4),
            Some(4),
            Some(4),
        ]
        .map(|p| p.map(NodeId::new))
        .to_vec();
        let mpx = Forest::from_parents(&g, parent).unwrap();
        let (kept, charge) = reelect_centers(&g, mpx.clone(), 7).unwrap();
        assert!(g.nodes().all(|v| kept.parent(v) == mpx.parent(v)));
        // Elect: 2 words per tree edge, 2 × 3 rounds. Trial: 2 words per
        // cluster edge, 4 + 1 rounds; guard: 2 words per trial edge, 2 × 4.
        assert_eq!((charge.messages, charge.rounds), (14 + 14 + 14, 6 + 5 + 8));
    }

    #[test]
    fn balance_branches_evens_out_a_lopsided_tree() {
        // Root 0 with children 1 and 2; nodes 3..=8 are adjacent to both and
        // all hang off 1 in the old tree.
        let mut edges = vec![(0, 1), (0, 2)];
        for v in 3..=8 {
            edges.extend([(1, v), (2, v)]);
        }
        let g = Graph::from_edges(9, &edges);
        let parent = (0..9)
            .map(|v| match v {
                0 => None,
                1 | 2 => Some(NodeId::new(0)),
                _ => Some(NodeId::new(1)),
            })
            .collect();
        let old = Forest::from_parents(&g, parent).unwrap();
        let (new, charge) = balance_branches(&mut Router::new(&g).unwrap(), old.clone()).unwrap();
        let branches = |f: &Forest| {
            let size = branch_sizes(&g, f);
            (size[1], size[2])
        };
        assert_eq!(branches(&old), (7, 1));
        assert_eq!(branches(&new), (4, 4));
        let moved: Vec<usize> = g
            .nodes()
            .filter(|&v| new.parent(v) != old.parent(v))
            .map(NodeId::index)
            .collect();
        assert_eq!(moved, [4, 6, 8]);
        // Three 2-hop words queue on the edge 0 → 1 of the old tree, then each
        // moved node sends one word to its new parent in one round.
        assert_eq!((charge.messages, charge.rounds), (3 * 2 + 3, 4 + 1));
    }

    #[test]
    fn balance_branches_keeps_a_tree_it_cannot_improve() {
        // Root 0, children 1 and 2; 3 hangs off 2 but is adjacent to 1 too, 4
        // is adjacent to 1 only. Branches 2 / 2; the greedy pass would move 3
        // under 1 and make them 3 / 1, so the old tree stays, free.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)]);
        let parent = [None, Some(0), Some(0), Some(2), Some(1)]
            .map(|p| p.map(NodeId::new))
            .to_vec();
        let old = Forest::from_parents(&g, parent).unwrap();
        let (new, charge) = balance_branches(&mut Router::new(&g).unwrap(), old.clone()).unwrap();
        assert!(g.nodes().all(|v| new.parent(v) == old.parent(v)));
        assert_eq!((charge.messages, charge.rounds), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On gnp, caveman and grid LDCs: the same roots and depths, every
        /// parent edge inside its cluster, no cluster's heaviest branch heavier.
        #[test]
        fn balance_branches_keeps_depths_and_never_worsens(
            family in 0usize..3,
            size in 4usize..10,
            seed in 0u64..200,
        ) {
            let g = match family {
                0 => generators::gnp_connected(8 * size, 0.1, seed),
                1 => generators::caveman(size, 6),
                _ => generators::grid(size, size + 3),
            };
            let ldc = build_ldc(&g, seed).unwrap();
            let old = ldc.clustering.forest(&g).unwrap();
            let (new, _) = balance_branches(&mut Router::new(&g).unwrap(), old.clone()).unwrap();
            prop_assert_eq!(new.roots(), old.roots());
            let cluster_of = &ldc.clustering.cluster_of;
            for v in g.nodes() {
                prop_assert_eq!(new.depth_of(v), old.depth_of(v));
                if let Some(p) = new.parent(v) {
                    prop_assert_eq!(cluster_of[p.index()], cluster_of[v.index()]);
                }
            }
            let (before, after) = (heaviest_branches(&g, &old), heaviest_branches(&g, &new));
            for (b, a) in before.iter().zip(&after) {
                prop_assert!(a <= b, "heaviest branch {} -> {}", b, a);
            }
        }

        /// On gnp, caveman and grid LDCs: the same clusters, every parent edge
        /// inside its cluster, every depth the in-cluster distance to the
        /// root, a root at least as well connected as MPX's center and a tree
        /// no deeper than MPX's.
        #[test]
        fn reelection_keeps_clusters_and_bfs_depths(
            family in 0usize..3,
            size in 4usize..10,
            seed in 0u64..200,
        ) {
            let g = match family {
                0 => generators::gnp_connected(8 * size, 0.1, seed),
                1 => generators::caveman(size, 6),
                _ => generators::grid(size, size + 3),
            };
            let ldc = build_ldc(&g, seed).unwrap();
            let old = ldc.clustering.forest(&g).unwrap();
            let (new, _) = reelect_centers(&g, old.clone(), seed).unwrap();
            let cluster_of = &ldc.clustering.cluster_of;
            prop_assert_eq!(new.roots().len(), ldc.clustering.len());
            for &root in new.roots() {
                let in_cluster: Vec<bool> =
                    g.nodes().map(|v| cluster_of[v.index()] == cluster_of[root.index()]).collect();
                let degree = |v: NodeId| g.neighbors(v).iter().filter(|u| in_cluster[u.index()]).count();
                prop_assert!(degree(root) >= degree(old.root_of(root)));
                let sub = congest_graph::induced_subgraph_same_ids(&g, &in_cluster);
                let dist = congest_graph::reference::bfs_distances(&sub, root);
                let members: Vec<NodeId> = g.nodes().filter(|v| in_cluster[v.index()]).collect();
                for &v in &members {
                    prop_assert_eq!(new.root_of(v), root);
                    prop_assert_eq!(Some(new.depth_of(v)), dist[v.index()]);
                    if let Some(p) = new.parent(v) {
                        prop_assert!(in_cluster[p.index()]);
                    }
                }
                let depth = |f: &Forest| members.iter().map(|&v| f.depth_of(v)).max();
                prop_assert!(depth(&new) <= depth(&old));
            }
        }
    }

    #[test]
    fn balanced_output_downcast_costs_the_same_messages_in_fewer_rounds() {
        // The instance of the Theorem 2.1 golden cases (8 clusters).
        let g = generators::grid(12, 8);
        let ldc = build_ldc(&g, 31).unwrap();
        let old = ldc.clustering.forest(&g).unwrap();
        let mut router = Router::new(&g).unwrap();
        let (new, charge) = balance_branches(&mut router, old.clone()).unwrap();
        assert!(charge.messages > 0, "the re-parenting fires here");
        // One n-word row of distances per node, as an APSP output.
        let outputs = || g.nodes().map(|v| (v, Pad(g.n()))).collect();
        let before = downcast(&mut router, &old, outputs()).unwrap().metrics;
        let after = downcast(&mut router, &new, outputs()).unwrap().metrics;
        assert_eq!(after.messages, before.messages);
        assert!(
            after.rounds < before.rounds,
            "{} -> {} rounds",
            before.rounds,
            after.rounds
        );
    }

    #[test]
    fn a_phase_is_one_pipelined_schedule() {
        // The golden Theorem 2.1 instance, in a phase where every node
        // broadcasts: 14 + 1 + 11 rounds as three steps, 16 as one schedule.
        let g = generators::grid(12, 8);
        let ldc = build_ldc(&g, 31).unwrap();
        let mut router = Router::new(&g).unwrap();
        let forest = cast_forest(&mut router, &ldc, 31);
        let hops = ldc.all_f_edges().map(|f| (f.owner, f.edge));
        let phase = relay(&mut router, &forest, hops).unwrap();
        // The three steps one after another: a word down to every F-edge owner,
        // a round across the F-edges, an upcast from their far ends.
        let owners = g.nodes().filter(|v| !ldc.f_edges[v.index()].is_empty());
        let owners = owners.map(|v| (v, Pad(1))).collect();
        let down = downcast(&mut router, &forest, owners).unwrap().metrics;
        let far_ends = ldc.all_f_edges().map(|f| (f.other, Pad(1))).collect();
        let up = upcast(&mut router, &forest, far_ends).unwrap().metrics;
        assert_eq!(
            phase.messages,
            down.messages + ldc.all_f_edges().count() as u64 + up.messages
        );
        assert!(down.rounds.max(up.rounds) <= phase.rounds);
        assert!(
            phase.rounds < down.rounds + 1 + up.rounds,
            "{} rounds against {} + 1 + {}",
            phase.rounds,
            down.rounds,
            up.rounds
        );
    }

    #[test]
    fn a_phase_without_f_edge_words_costs_no_rounds() {
        // K_40 is one cluster with no F-edges: every phase happens at the
        // center, so all rounds are preprocessing and the output downcast.
        let g = generators::complete(40);
        let ldc = build_ldc(&g, 2).unwrap();
        assert_eq!((ldc.clustering.len(), ldc.all_f_edges().count()), (1, 0));
        let algo = Bfs::new(NodeId::new(0));
        let opts = LdcSimOptions {
            seed: 2,
            ..Default::default()
        };
        let sim = simulate_over_ldc(&algo, &g, None, &ldc, &opts).unwrap();
        assert!(sim.simulated_rounds > 0);
        let mut router = Router::new(&g).unwrap();
        let forest = cast_forest(&mut router, &ldc, 2);
        let outputs = g.nodes().zip(&sim.outputs);
        let outputs = outputs.map(|(v, o)| (v, Pad(algo.output_words(o))));
        let output_downcast = downcast(&mut router, &forest, outputs.collect()).unwrap();
        assert_eq!(
            sim.metrics.rounds,
            sim.preprocessing.rounds + output_downcast.metrics.rounds
        );
    }

    #[test]
    fn a_missing_f_edge_is_a_wrong_distance() {
        // Path 0 - 1 - 2 - 3 as clusters {0, 1} (center 0) and {2, 3} (center
        // 3); the edge 1 - 2 is each side's only F-edge into the other.
        let g = generators::path(4);
        let edge = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        let clustering = Clustering::from_assignment(
            &[0, 0, 3, 3].map(NodeId::new),
            &[None, Some(NodeId::new(0)), Some(NodeId::new(3)), None],
            &[0, 1, 1, 0],
        );
        let f_edge = |owner: usize, other: usize| FEdge {
            owner: NodeId::new(owner),
            edge,
            other: NodeId::new(other),
            target: clustering.cluster_of[other],
        };
        let mut ldc = LdcDecomposition {
            f_edges: vec![vec![], vec![f_edge(1, 2)], vec![f_edge(2, 1)], vec![]],
            clustering,
            metrics: Metrics::new(g.m()),
        };
        let algo = Bfs::new(NodeId::new(0));
        let opts = LdcSimOptions::default();
        let dist = |ldc: &LdcDecomposition| -> Vec<Option<u32>> {
            let sim = simulate_over_ldc(&algo, &g, None, ldc, &opts).unwrap();
            sim.outputs.iter().map(|o| o.dist).collect()
        };
        assert_eq!(dist(&ldc), [Some(0), Some(1), Some(2), Some(3)]);
        ldc.f_edges[1].clear();
        assert_eq!(dist(&ldc), [Some(0), Some(1), None, None]);
    }

    #[test]
    fn bfs_simulated_equals_direct() {
        let g = generators::gnp_connected(30, 0.12, 3);
        let algo = Bfs::new(NodeId::new(5));
        let direct = run_bcongest(&algo, &g, None, &direct_opts(9)).unwrap();
        let sim = simulate_bcongest_via_ldc(
            &algo,
            &g,
            None,
            &LdcSimOptions {
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sim.outputs, direct.outputs);
        assert_eq!(sim.simulated_broadcasts, direct.metrics.broadcasts);
    }

    #[test]
    fn mis_simulated_equals_direct() {
        let g = generators::gnp_connected(25, 0.15, 4);
        let direct = run_bcongest(&LubyMis, &g, None, &direct_opts(11)).unwrap();
        let sim = simulate_bcongest_via_ldc(
            &LubyMis,
            &g,
            None,
            &LdcSimOptions {
                seed: 11,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sim.outputs, direct.outputs);
        assert!(is_valid_mis(&g, &sim.outputs));
    }

    #[test]
    fn message_complexity_tracks_broadcasts_not_degree() {
        // On a dense graph, direct BFS costs Θ(m) messages; simulated costs
        // Õ(B) = Õ(n) for the phase part (preprocessing is Õ(m) once).
        let g = generators::complete(40);
        let algo = Bfs::new(NodeId::new(0));
        let direct = run_bcongest(&algo, &g, None, &direct_opts(2)).unwrap();
        let sim = simulate_bcongest_via_ldc(
            &algo,
            &g,
            None,
            &LdcSimOptions {
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sim.outputs, direct.outputs);
        // Phase-only messages (total - preprocessing) are far below direct's 2m.
        let phase_msgs = sim.metrics.messages - sim.preprocessing.messages;
        assert!(
            phase_msgs < direct.metrics.messages / 2,
            "phase messages {} vs direct {}",
            phase_msgs,
            direct.metrics.messages
        );
    }

    #[test]
    fn strict_budget_pads_rounds() {
        let g = generators::gnp_connected(20, 0.2, 5);
        let algo = Bfs::new(NodeId::new(1));
        let lax = simulate_bcongest_via_ldc(
            &algo,
            &g,
            None,
            &LdcSimOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let strict = simulate_bcongest_via_ldc(
            &algo,
            &g,
            None,
            &LdcSimOptions {
                seed: 5,
                strict_phase_budget: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(lax.outputs, strict.outputs);
        assert!(strict.metrics.rounds > lax.metrics.rounds);
        assert_eq!(strict.metrics.messages, lax.metrics.messages);
    }

    #[test]
    fn round_guard_fires() {
        struct Chatter;
        #[derive(Clone, Debug)]
        struct S;
        impl BcongestAlgorithm for Chatter {
            type State = S;
            type Msg = u32;
            type Output = ();
            fn name(&self) -> &'static str {
                "chatter"
            }
            fn init(&self, _: &congest_engine::LocalView<'_>) -> S {
                S
            }
            fn broadcast(&self, _: &S, _: usize) -> Option<u32> {
                Some(1)
            }
            fn on_broadcast_sent(&self, _: &mut S, _: usize) {}
            fn receive(&self, _: &mut S, _: usize, _: &[(NodeId, u32)]) {}
            fn is_done(&self, _: &S) -> bool {
                false
            }
            fn output(&self, _: &S) {}
            fn round_bound(&self, _: usize, _: usize) -> usize {
                2
            }
            fn output_words(&self, _: &()) -> usize {
                0
            }
        }
        let g = generators::path(4);
        let err =
            simulate_bcongest_via_ldc(&Chatter, &g, None, &LdcSimOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::RoundLimitExceeded { .. }));
    }
}
