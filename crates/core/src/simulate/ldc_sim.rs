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
//! `balance_branches`), and every later cast runs over that tree. Step 3c: a
//! cluster whose largest neighbour is strictly larger and has no larger
//! neighbour itself joins it when every member is within the host's depth
//! through the host and the host's center finds the merged cluster's casts
//! faster (`absorb_fragments`). Theorem 2.1 needs only *some* LDC meeting
//! Definition 2.3, and the merged one keeps the strong radius and can only
//! lower the F-degree; the phases, their transport and the output downcast all
//! run over the merged clusters and their re-derived F-edges.
//!
//! Each phase `p` simulates round `p` of the payload: centers compute member
//! broadcasts locally and **downcast** one word to each broadcaster with an F-edge
//! (it knows its F-edges from the announce round), the broadcaster sends it across
//! its F-edges, and the receiving sides **upcast** it to their centers, which apply
//! the member `receive` transitions. The three steps are one routed schedule,
//! two casts of `treeops::route_casts` (`phase_casts`): the downcast, and a hop
//! cast that waits for it at each broadcaster and climbs from each far end to
//! its center. A broadcaster sends in the round after its own word arrives, not
//! after the whole downcast, so a phase costs about its slowest cast rather
//! than the sum of all three, and a phase no broadcaster has an F-edge in costs
//! no rounds (DESIGN.md §2). A message reaches a receiver only
//! along that path, or at the shared center for a receiver in the broadcaster's
//! own cluster. A final downcast delivers outputs. Message complexity is
//! therefore `Õ(In + Out + B_A)` — each simulated broadcast pays `O(log n)`
//! F-edges × `O(log n)` tree depth rather than `deg(v)`.
//!
//! Correctness (Lemma 2.5) is checked in the strongest possible way: with the same
//! seed, outputs are asserted equal to a direct run's (see the integration tests),
//! and an LDC missing an F-edge is shown to break them (the unit tests).

use crate::simulate::common::{payload_options, SimulationRun};
use congest_algos::leader::setup_network_with;
use congest_decomp::ldc::{build_ldc, FEdge, LdcDecomposition};
use congest_decomp::mpx::Clustering;
use congest_engine::{
    downcast, route_casts, run_bcongest_over, upcast, BcongestAlgorithm, Cast, EngineError, Forest,
    Metrics, Router,
};
use congest_graph::{rng, EdgeId, Graph, NodeId};

/// Options for the Theorem 2.1 simulation. The phase guard is the payload
/// runner's, `4 × round_bound + 64` phases.
#[derive(Clone, Debug, Default)]
pub struct LdcSimOptions {
    /// Master seed (drives preprocessing randomness *and* the payload's per-node
    /// seeds — use the same seed as a direct run to compare outputs).
    pub seed: u64,
    /// Pad every phase to the worst-case `Θ(n log n)` budget of §2.2 instead of the
    /// realized schedule length.
    pub strict_phase_budget: bool,
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
    let inputs = g.nodes().map(|v| (v, g.degree(v) + 1)).collect();
    metrics.merge_sequential(&upcast(&mut router, &forest, inputs)?);
    // Step 3b: with every member's edge list in hand, each center balances its
    // tree's branches; every later cast runs over the tree it chose.
    let (forest, rebalance) = balance_branches(&mut router, forest)?;
    metrics.merge_sequential(&rebalance);
    // Step 3c: fragments join a neighbouring host where its casts get
    // faster; the phases use the merged clusters and their F-edges.
    let (forest, merged, absorption) = absorb_fragments(&mut router, forest, ldc)?;
    metrics.merge_sequential(&absorption);
    let ldc = merged.as_ref().unwrap_or(ldc);
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
        let mut phase_cost = route_casts(&mut router, &phase_casts(&forest, hops))?;
        if opts.strict_phase_budget {
            phase_cost.pad_rounds(phase_budget.saturating_sub(phase_cost.rounds));
        }
        metrics.merge_sequential(&phase_cost);
        Ok(())
    };
    let payload_opts = payload_options(opts.seed, &opts.exec);
    let payload = run_bcongest_over(algo, g, weights, &payload_opts, transport)?;

    // Final phase: downcast outputs to their nodes, at least one word each.
    let out_items = g
        .nodes()
        .zip(payload.outputs.iter())
        .map(|(v, o)| (v, algo.output_words(o).max(1)))
        .collect();
    metrics.merge_sequential(&downcast(&mut router, &forest, out_items)?);

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
    let (parent, _) = balanced_parents(g, &forest);
    let moved: Vec<NodeId> = g
        .nodes()
        .filter(|&v| parent[v.index()] != forest.parent(v))
        .collect();
    if moved.is_empty() {
        return Ok((forest, Metrics::new(g.m())));
    }
    let balanced = Forest::from_parents(g, parent)?;
    let announce = moved.iter().map(|&v| (v, 1)).collect();
    let mut charge = downcast(router, &forest, announce)?;
    charge.rounds += 1;
    for &v in &moved {
        let edge = balanced.parent_edge(v).expect("moved nodes have parents");
        charge.add_messages(edge, 1);
    }
    Ok((balanced, charge))
}

/// Step 3b's re-parenting of every tree of `forest`, computed locally: the
/// parents it picks (a tree's old ones where the new would not make its
/// heaviest branch strictly lighter) and, per root, the heaviest branch of the
/// tree it keeps.
fn balanced_parents(g: &Graph, forest: &Forest) -> (Vec<Option<NodeId>>, Vec<u32>) {
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
    for v in g.nodes() {
        let (old, new) = heaviest[forest.root_of(v).index()];
        if new >= old {
            parent[v.index()] = forest.parent(v);
        }
    }
    let kept = heaviest.into_iter().map(|(old, new)| old.min(new));
    (parent, kept.collect())
}

/// §2.2 step 3c: a cluster joins a neighbouring *host* cluster when the join
/// makes the host no deeper and its casts faster. Returns the forest every
/// later cast runs over, the decomposition the phases use — `None` when nothing
/// joined, else merged clusters with F-edges re-derived — and the charge.
/// Clusters run in parallel, so each step costs its slowest cluster's rounds
/// and every cluster's messages:
/// 1. *host*: every cluster with an F-edge broadcasts `(root, size, depth)`
///    down its tree, each member sends it across its F-edges, and a
///    max-convergecast by `(size, smaller root)` hands each center its largest
///    neighbour: 2 words per tree edge and 1 per F-edge, `2 × depth + 1`
///    rounds. A cluster above all its neighbours in that order is a *host*;
///    one whose largest neighbour is strictly larger is a *candidate* of it.
///    Hosts and candidates broadcast their role (a candidate: its host's
///    root) down their trees, 1 word per tree edge, `depth` rounds;
/// 2. *reach*: a host member at depth `d` below its cluster's depth `D` sends
///    `d` across every edge leaving the host, in round `d + 1` of the step; a
///    member of one of the host's candidates takes the first word it gets
///    (from the host or from its own cluster; ties to the smaller sender) as
///    its label and parent, and if its label is below `D` sends it on to its
///    cluster neighbours the next round. `D` rounds; no label exceeds `D`;
/// 3. *cost test*: each labelled member upcasts, over the tentative forest the
///    label parents make, what its host's center needs of it: one word (label,
///    old parent, cluster), its edges leaving its cluster, and its cluster
///    neighbours one label closer (the ones it heard from in its label's
///    round). A host's center takes its fully labelled candidates largest
///    first and adopts one when, in Theorem 2.1's units (with about `n` phases
///    and `n`-word outputs both scale by `n`), the merged cluster's
///    [`own_casts`] cost strictly less than the larger phase of the two plus
///    the larger heaviest branch. A rejected candidate's messages stay
///    charged, and its members, never told otherwise, keep their old tree;
/// 4. *re-derive*: one word down the tentative forest to every joined member
///    and every host member the merged tree's step-3b re-parenting moves (its
///    new parent); then one round in which every joined member sends one word
///    across each edge leaving its old cluster (owners there drop F-edges
///    into their own cluster and keep one per new cluster, at the smallest
///    `other`, as `build_ldc` does) and every re-parented member one word to
///    its new parent, unless such a word crosses that edge.
fn absorb_fragments(
    router: &mut Router<'_>,
    forest: Forest,
    ldc: &LdcDecomposition,
) -> Result<(Forest, Option<LdcDecomposition>, Metrics), EngineError> {
    let g = router.graph();
    let n = g.n();
    let root = |v: NodeId| forest.root_of(v).index();
    let mut charge = Metrics::new(g.m());
    // Per root: its cluster's members and depth, and whether one owns an F-edge.
    let mut members = vec![Vec::new(); n];
    let mut depth = vec![0u32; n];
    let mut talks = vec![false; n];
    for v in g.nodes() {
        let r = root(v);
        members[r].push(v);
        depth[r] = depth[r].max(forest.depth_of(v));
        talks[r] |= !ldc.f_edges[v.index()].is_empty();
    }
    let key = |r: usize| (members[r].len(), std::cmp::Reverse(r));
    // `words` per tree edge of the picked clusters; their deepest tree.
    let cast = |charge: &mut Metrics, words: u64, pick: &dyn Fn(usize) -> bool| {
        let mut deepest = 0;
        for v in g.nodes().filter(|&v| pick(root(v))) {
            deepest = deepest.max(forest.depth_of(v));
            if let Some(e) = forest.parent_edge(v) {
                charge.add_messages(e, words);
            }
        }
        deepest
    };

    // 1. Host.
    let mut largest: Vec<Option<usize>> = vec![None; n];
    for f in ldc.all_f_edges() {
        charge.add_messages(f.edge, 1);
        let (mine, theirs) = (root(f.other), root(f.owner));
        if largest[mine].is_none_or(|l| key(theirs) > key(l)) {
            largest[mine] = Some(theirs);
        }
    }
    if !talks.contains(&true) {
        return Ok((forest, None, charge));
    }
    let exchange = cast(&mut charge, 2, &|r| talks[r]);
    let is_host = |r: usize| talks[r] && largest[r].is_some_and(|l| key(l) < key(r));
    let host_of: Vec<Option<usize>> = (0..n)
        .map(|r| largest[r].filter(|&l| members[l].len() > members[r].len()))
        .collect();
    let roles = cast(&mut charge, 1, &|r| is_host(r) || host_of[r].is_some());

    // 2. Reach: a multi-source BFS whose sources start late by their depth.
    let mut label = vec![u32::MAX; n];
    let mut label_parent: Vec<Option<NodeId>> = vec![None; n];
    let mut wave = std::collections::BinaryHeap::new();
    let mut reach = 0;
    for v in g.nodes().filter(|&v| is_host(root(v))) {
        let (h, d) = (root(v), forest.depth_of(v));
        reach = reach.max(depth[h]);
        if d == depth[h] {
            continue;
        }
        for (e, u) in g.incident(v).filter(|&(_, u)| root(u) != h) {
            charge.add_messages(e, 1);
            if host_of[root(u)] == Some(h) {
                wave.push(std::cmp::Reverse((d + 1, u, v)));
            }
        }
    }
    while let Some(std::cmp::Reverse((l, u, p))) = wave.pop() {
        if label[u.index()] != u32::MAX {
            continue;
        }
        label[u.index()] = l;
        label_parent[u.index()] = Some(p);
        let c = root(u);
        if host_of[c].is_some_and(|h| l < depth[h]) {
            for (e, w) in g.incident(u).filter(|&(_, w)| root(w) == c) {
                charge.add_messages(e, 1);
                wave.push(std::cmp::Reverse((l + 1, w, u)));
            }
        }
    }
    charge.rounds = u64::from(2 * exchange + 1 + roles + reach);
    let shipped: Vec<NodeId> = g.nodes().filter(|v| label[v.index()] != u32::MAX).collect();
    if shipped.is_empty() {
        return Ok((forest, None, charge));
    }

    // 3. Cost test.
    let current: Vec<Option<NodeId>> = g.nodes().map(|v| forest.parent(v)).collect();
    let mut tentative = current.clone();
    for &v in &shipped {
        tentative[v.index()] = label_parent[v.index()];
    }
    let tentative = Forest::from_parents(g, tentative)?;
    let items = shipped.iter().map(|&v| {
        let l = label[v.index()];
        let words = g
            .incident(v)
            .filter(|&(_, u)| root(u) != root(v) || label[u.index()].checked_add(1) == Some(l));
        (v, 1 + words.count())
    });
    charge.merge_sequential(&upcast(router, &tentative, items.collect())?);
    let complete = |c: usize| {
        host_of[c].is_some_and(is_host) && members[c].iter().all(|v| label[v.index()] != u32::MAX)
    };
    let mut candidates: Vec<usize> = forest
        .roots()
        .iter()
        .map(|r| r.index())
        .filter(|&c| complete(c))
        .collect();
    candidates.sort_by_key(|&c| (host_of[c], std::cmp::Reverse(key(c))));
    let mut final_parent = current.clone();
    let mut joined = vec![false; n];
    for group in candidates.chunk_by(|a, b| host_of[*a] == host_of[*b]) {
        let h = host_of[group[0]].expect("a candidate has a host");
        // Per node: whether it is in cluster `c`, and its parent there.
        let cluster = |c: usize| {
            let mut in_x = vec![false; n];
            let mut tree = vec![None; n];
            for &v in &members[c] {
                in_x[v.index()] = true;
                tree[v.index()] = forest.parent(v);
            }
            (in_x, tree)
        };
        let (mut in_x, mut x_tree) = cluster(h);
        let (mut x_phase, mut x_heavy, _) = own_casts(router, ldc, &in_x, x_tree.clone())?;
        for &c in group {
            let (in_c, c_tree) = cluster(c);
            let (c_phase, c_heavy, _) = own_casts(router, ldc, &in_c, c_tree)?;
            let (mut in_m, mut m_tree) = (in_x.clone(), x_tree.clone());
            for &v in &members[c] {
                in_m[v.index()] = true;
                m_tree[v.index()] = label_parent[v.index()];
            }
            let (m_phase, m_heavy, m_tree) = own_casts(router, ldc, &in_m, m_tree)?;
            let merged_cost = m_phase + u64::from(m_heavy);
            let apart_cost = x_phase.max(c_phase) + u64::from(x_heavy.max(c_heavy));
            if merged_cost < apart_cost {
                (in_x, x_tree, x_phase, x_heavy) = (in_m, m_tree, m_phase, m_heavy);
                for &v in &members[c] {
                    joined[v.index()] = true;
                }
            }
        }
        for v in g.nodes().filter(|v| in_x[v.index()]) {
            final_parent[v.index()] = x_tree[v.index()];
        }
    }

    // 4. Re-derive.
    if !joined.contains(&true) {
        return Ok((forest, None, charge));
    }
    let told = g
        .nodes()
        .filter(|&v| joined[v.index()] || final_parent[v.index()] != current[v.index()]);
    let told = told.map(|v| (v, 1)).collect();
    charge.merge_sequential(&downcast(router, &tentative, told)?);
    let merged = Forest::from_parents(g, final_parent)?;
    charge.rounds += 1;
    for v in g.nodes() {
        let moved_cluster = joined[v.index()];
        if moved_cluster {
            for (e, _) in g.incident(v).filter(|&(_, u)| root(u) != root(v)) {
                charge.add_messages(e, 1);
            }
        }
        if let (Some(p), Some(e)) = (merged.parent(v), merged.parent_edge(v)) {
            let announced = moved_cluster && root(p) != root(v);
            if (moved_cluster || Some(p) != current[v.index()]) && !announced {
                charge.add_messages(e, 1);
            }
        }
    }
    let centers: Vec<NodeId> = g.nodes().map(|v| merged.root_of(v)).collect();
    let parents: Vec<Option<NodeId>> = g.nodes().map(|v| merged.parent(v)).collect();
    let depths: Vec<u32> = g.nodes().map(|v| merged.depth_of(v)).collect();
    let clustering = Clustering::from_assignment(&centers, &parents, &depths);
    let f_edges = ldc
        .f_edges
        .iter()
        .enumerate()
        .map(|(v, owned)| {
            let mut kept: Vec<FEdge> = Vec::new();
            for f in owned {
                let target = clustering.cluster_of[f.other.index()];
                if target == clustering.cluster_of[v] {
                    continue;
                }
                let f = FEdge { target, ..*f };
                match kept.iter_mut().find(|k| k.target == target) {
                    Some(k) if f.other < k.other => *k = f,
                    Some(_) => {}
                    None => kept.push(f),
                }
            }
            kept
        })
        .collect();
    let merged_ldc = LdcDecomposition {
        clustering,
        f_edges,
        metrics: ldc.metrics.clone(),
    };
    Ok((merged, Some(merged_ldc), charge))
}

/// One cluster's own cast cost in Theorem 2.1's units, as its center computes
/// it from its members' inputs: the rounds of the [`phase_casts`] phase over
/// the cluster's tree alone (every other node a root of its own) in which every
/// node broadcasts — the cluster's owners' F-edges out of it and every outside
/// owner's one F-edge into it, at the smallest `other` — and its heaviest
/// branch. Both are taken on the tree step 3b's re-parenting makes of
/// `parent` (`Some` only at members), which is returned.
fn own_casts(
    router: &mut Router<'_>,
    ldc: &LdcDecomposition,
    in_x: &[bool],
    parent: Vec<Option<NodeId>>,
) -> Result<(u64, u32, Vec<Option<NodeId>>), EngineError> {
    let g = router.graph();
    let (parent, heaviest) = balanced_parents(g, &Forest::from_parents(g, parent)?);
    let tree = Forest::from_parents(g, parent)?;
    let mut hops = Vec::new();
    for v in g.nodes() {
        let owned = ldc.f_edges[v.index()].iter();
        if in_x[v.index()] {
            hops.extend(
                owned
                    .filter(|f| !in_x[f.other.index()])
                    .map(|f| (v, f.edge)),
            );
        } else if let Some(f) = owned
            .filter(|f| in_x[f.other.index()])
            .min_by_key(|f| f.other)
        {
            hops.push((v, f.edge));
        }
    }
    let rounds = route_casts(router, &phase_casts(&tree, hops))?.rounds;
    let x = g
        .nodes()
        .find(|v| in_x[v.index()])
        .expect("a cluster has members");
    let heaviest = heaviest[tree.root_of(x).index()];
    let parent = g.nodes().map(|v| tree.parent(v)).collect();
    Ok((rounds, heaviest, parent))
}

/// A phase's transport over `forest` as two casts: one word down to each
/// owner of `hops`, which come grouped by owner, and per hop one word across
/// its edge that climbs from the far end to its root, each leaving once its
/// owner's word is in.
fn phase_casts(forest: &Forest, hops: impl IntoIterator<Item = (NodeId, EdgeId)>) -> [Cast<'_>; 2] {
    let mut owners: Vec<(NodeId, usize)> = Vec::new();
    let mut items = Vec::new();
    for (owner, e) in hops {
        if owners.last().is_none_or(|&(o, _)| o != owner) {
            owners.push((owner, 1));
        }
        items.push((owner, e, 1));
    }
    [
        Cast::Down {
            forest,
            items: owners,
            after: vec![],
        },
        Cast::Hop {
            items,
            up: Some(forest),
            after: vec![0],
        },
    ]
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
    use congest_decomp::ldc::validate_ldc;
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
            if forest.depth_of(v) > 0 {
                let mut head = v;
                while forest.depth_of(head) > 1 {
                    head = forest.parent(head).expect("a non-root has a parent");
                }
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

    /// The forest and the decomposition `simulate_over_ldc` casts over: steps
    /// 2b, 3b and 3c.
    fn cast_forest(
        router: &mut Router<'_>,
        ldc: &LdcDecomposition,
        seed: u64,
    ) -> (Forest, LdcDecomposition) {
        let g = router.graph();
        let (forest, _) = reelect_centers(g, ldc.clustering.forest(g).unwrap(), seed).unwrap();
        let (forest, _) = balance_branches(router, forest).unwrap();
        let (forest, merged, _) = absorb_fragments(router, forest, ldc).unwrap();
        (forest, merged.unwrap_or_else(|| ldc.clone()))
    }

    /// An LDC over hand-picked cluster trees (one per root of `parent`), its
    /// F-edges derived as `build_ldc` derives them, built for free.
    fn ldc_over_trees(g: &Graph, parent: &[Option<usize>]) -> LdcDecomposition {
        let parent: Vec<Option<NodeId>> = parent.iter().map(|p| p.map(NodeId::new)).collect();
        let trees = Forest::from_parents(g, parent.clone()).unwrap();
        let centers: Vec<NodeId> = g.nodes().map(|v| trees.root_of(v)).collect();
        let depths: Vec<u32> = g.nodes().map(|v| trees.depth_of(v)).collect();
        let clustering = Clustering::from_assignment(&centers, &parent, &depths);
        let cluster_of = &clustering.cluster_of;
        let f_edges = g
            .nodes()
            .map(|v| {
                let mut owned: Vec<FEdge> = Vec::new();
                // Neighbours ascend, so the first into a cluster is the smallest.
                for (edge, other) in g.incident(v) {
                    let target = cluster_of[other.index()];
                    if target != cluster_of[v.index()] && owned.iter().all(|f| f.target != target) {
                        owned.push(FEdge {
                            owner: v,
                            edge,
                            other,
                            target,
                        });
                    }
                }
                owned
            })
            .collect();
        LdcDecomposition {
            clustering,
            f_edges,
            metrics: Metrics::new(g.m()),
        }
    }

    #[test]
    fn a_fragment_within_the_hub_depth_is_absorbed() {
        // Hub cluster: center 0, depth-1 members 1..=4, each heading two
        // depth-2 members. Fragment: the triangle 13 - 14 - 15 centered at 13,
        // every member adjacent to every depth-1 hub member (so each is within
        // the hub's depth 2 through it), 14 and 15 also to every depth-2 one.
        // All twelve hub members land an F-edge in the fragment, eight of them
        // on 14, whose words queue on its one tree edge every phase.
        let mut edges = vec![(13, 14), (13, 15), (14, 15)];
        for h in 1..=4 {
            edges.extend([(0, h), (h, 2 * h + 3), (h, 2 * h + 4)]);
            edges.extend([(h, 13), (h, 14), (h, 15)]);
        }
        edges.extend((5..=12).flat_map(|d| [(d, 14), (d, 15)]));
        let g = Graph::from_edges(16, &edges);
        let parent: Vec<Option<usize>> = (0..16)
            .map(|v| match v {
                0 | 13 => None,
                1..=4 => Some(0),
                5..=12 => Some((v - 3) / 2),
                _ => Some(13),
            })
            .collect();
        let ldc = ldc_over_trees(&g, &parent);
        assert_eq!((ldc.clustering.len(), ldc.all_f_edges().count()), (2, 15));
        let mut router = Router::new(&g).unwrap();
        let (forest, cast) = cast_forest(&mut router, &ldc, 5);
        assert_eq!(forest.roots(), [NodeId::new(0)]);
        assert_eq!(forest.depth(), 2, "no member deeper than the hub was");
        assert_eq!((cast.clustering.len(), cast.all_f_edges().count()), (1, 0));
        validate_ldc(&g, &cast, ldc.strong_radius(&g), ldc.max_f_degree()).unwrap();

        // One cluster and no F-edges: every phase happens at the center.
        let algo = Bfs::new(NodeId::new(0));
        let opts = LdcSimOptions {
            seed: 5,
            ..Default::default()
        };
        let sim = simulate_over_ldc(&algo, &g, None, &ldc, &opts).unwrap();
        let direct = run_bcongest(&algo, &g, None, &direct_opts(5)).unwrap();
        assert_eq!(sim.outputs, direct.outputs);
        let outputs = g.nodes().zip(&sim.outputs);
        let outputs = outputs.map(|(v, o)| (v, algo.output_words(o).max(1)));
        let output_downcast = downcast(&mut router, &forest, outputs.collect()).unwrap();
        assert_eq!(
            sim.metrics.rounds,
            sim.preprocessing.rounds + output_downcast.rounds
        );
    }

    #[test]
    fn absorbing_a_clique_that_would_weigh_down_one_branch_is_rejected() {
        // Host: center 0 with branches 1 - 3 - 5 and 2 - 4 - 6 (depth 3,
        // heaviest branch 3). Candidate: the 4-clique 7..=10 centered at 7,
        // hanging off the host member 1 by the one edge 1 - 7. Every clique
        // member is within depth 3 through 1, but all of them would join 1's
        // branch: the merged phase takes 0 rounds against the host's 2, and
        // the heaviest branch grows from 3 to 7, so 0 + 7 is not below 2 + 3.
        let mut edges = vec![(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (1, 7)];
        edges.extend([(7, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10)]);
        let g = Graph::from_edges(11, &edges);
        let parent = [
            None,
            Some(0),
            Some(0),
            Some(1),
            Some(2),
            Some(3),
            Some(4),
            None,
            Some(7),
            Some(7),
            Some(7),
        ];
        let ldc = ldc_over_trees(&g, &parent);
        let forest = ldc.clustering.forest(&g).unwrap();
        let mut router = Router::new(&g).unwrap();
        let (kept, merged, charge) = absorb_fragments(&mut router, forest.clone(), &ldc).unwrap();
        assert!(merged.is_none());
        assert!(g.nodes().all(|v| kept.parent(v) == forest.parent(v)));
        // The evaluation, and nothing after it. Host: 2 words per tree edge
        // (9) and 1 per F-edge (2), 2 × 3 + 1 rounds; the roles, 1 word per
        // tree edge, 3 rounds. Reach: 1 pushes across 1 - 7, 7 (label 2)
        // passes it to 8, 9 and 10 (label 3 = the hub's depth), 3 rounds.
        // Ship: 7 sends 2 words (the word and its edge to 1) over 2 hops, 8,
        // 9 and 10 2 words (the word and 7) over 3; the 8 words queue on
        // 7 → 1 and 1 → 0, 9 rounds.
        assert_eq!(
            (charge.messages, charge.rounds),
            (18 + 2 + 9 + 4 + (4 + 3 * 6), 7 + 3 + 3 + 9)
        );
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
        let outputs = || g.nodes().map(|v| (v, g.n())).collect();
        let before = downcast(&mut router, &mpx, outputs()).unwrap();
        let after = downcast(&mut router, &new, outputs()).unwrap();
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

        /// On gnp, caveman and grid LDCs, step 3c only merges clusters and
        /// leaves no tree deeper than its root's was: the merged LDC passes
        /// `validate_ldc` with the old strong radius and max F-degree, and
        /// every parent edge stays inside its new cluster.
        #[test]
        fn absorption_only_merges_and_keeps_the_ldc_bounds(
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
            let mut router = Router::new(&g).unwrap();
            let (before, _) = reelect_centers(&g, ldc.clustering.forest(&g).unwrap(), seed).unwrap();
            let (before, _) = balance_branches(&mut router, before).unwrap();
            let (forest, merged, _) = absorb_fragments(&mut router, before.clone(), &ldc).unwrap();
            let cast = merged.unwrap_or_else(|| ldc.clone());
            let mut depth_before = vec![0; g.n()];
            for v in g.nodes() {
                let d = &mut depth_before[before.root_of(v).index()];
                *d = before.depth_of(v).max(*d);
            }
            let (old, new) = (&ldc.clustering.cluster_of, &cast.clustering.cluster_of);
            // Each new cluster is a union of old ones: a map old → new exists.
            let mut image = vec![None; ldc.clustering.len()];
            for v in g.nodes() {
                let slot = &mut image[old[v.index()].index()];
                prop_assert!(slot.is_none_or(|c| c == new[v.index()]));
                *slot = Some(new[v.index()]);
                if let Some(p) = forest.parent(v) {
                    prop_assert_eq!(new[p.index()], new[v.index()]);
                }
                prop_assert!(forest.depth_of(v) <= depth_before[forest.root_of(v).index()]);
            }
            let bounds = (ldc.strong_radius(&g), ldc.max_f_degree());
            prop_assert_eq!(validate_ldc(&g, &cast, bounds.0, bounds.1), Ok(()));
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
        let outputs = || g.nodes().map(|v| (v, g.n())).collect();
        let before = downcast(&mut router, &old, outputs()).unwrap();
        let after = downcast(&mut router, &new, outputs()).unwrap();
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
        let (forest, cast) = cast_forest(&mut router, &ldc, 31);
        let hops = cast.all_f_edges().map(|f| (f.owner, f.edge));
        let phase = route_casts(&mut router, &phase_casts(&forest, hops)).unwrap();
        // The three steps one after another: a word down to every F-edge owner,
        // a round across the F-edges, an upcast from their far ends.
        let owners = g.nodes().filter(|v| !cast.f_edges[v.index()].is_empty());
        let owners = owners.map(|v| (v, 1)).collect();
        let down = downcast(&mut router, &forest, owners).unwrap();
        let far_ends = cast.all_f_edges().map(|f| (f.other, 1)).collect();
        let up = upcast(&mut router, &forest, far_ends).unwrap();
        assert_eq!(
            phase.messages,
            down.messages + cast.all_f_edges().count() as u64 + up.messages
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
        let (forest, _) = cast_forest(&mut router, &ldc, 2);
        let outputs = g.nodes().zip(&sim.outputs);
        let outputs = outputs.map(|(v, o)| (v, algo.output_words(o).max(1)));
        let output_downcast = downcast(&mut router, &forest, outputs.collect()).unwrap();
        assert_eq!(
            sim.metrics.rounds,
            sim.preprocessing.rounds + output_downcast.rounds
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
