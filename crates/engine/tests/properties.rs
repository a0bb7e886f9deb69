//! Property-based tests for the execution engine: routing always delivers, tree
//! operations move every word once, capacity is respected, the arena `Router`
//! reproduces the `VecDeque` scheduler it replaced metric for metric (over
//! forests, as a Theorem 2.1 phase whose hop words wait for their owner's word,
//! and as random phases with per-node barriers), a reused router equals fresh
//! ones, also after a rejected phase, a tree pass's closed form is the
//! schedule of its one-word hops, a run is identical —
//! outputs and `Metrics` — at every thread count, the event-driven round loop
//! equals one that polls every node every round (with and without faults),
//! and the packed encoding a trace records is injective on every primitive
//! payload.

use congest_algos::{bfs::Bfs, bfs_collection::BfsCollection};
use congest_engine::faults::FaultState;
use congest_engine::{
    downcast, route_casts, run_bcongest, tree_pass, treeops::Forest, upcast, BcongestAlgorithm,
    Cast, EngineError, ExecutorConfig, FaultEvent, FaultPlan, FaultResponse, LocalView, Metrics,
    Router, RunOptions, WireEncode,
};
use congest_graph::{generators, reference, rng, EdgeId, Graph, NodeId};
use proptest::prelude::*;
use rand::Rng;

mod reference_scheduler;
use reference_scheduler::{reference_route, reference_route_timed, Walk};

/// `raw` as drawn when `wide`, else with each 32-bit half cut to `0..3`, so
/// that equal values, and values equal in one half only, are common.
fn field(raw: u64, wide: bool) -> u64 {
    if wide {
        raw
    } else {
        (((raw >> 32) % 3) << 32) | ((raw & 0xffff_ffff) % 3)
    }
}

/// `a == b` exactly when their lanes are equal: a recorded trace tells every
/// two distinct messages apart, and only those.
fn encodes_injectively<T: WireEncode>(a: T, b: T) -> Result<(), TestCaseError> {
    let lanes = |v: &T| {
        let mut out = vec![0u32; T::LANES];
        v.encode(&mut out);
        out
    };
    prop_assert_eq!(a == b, lanes(&a) == lanes(&b), "{:?} vs {:?}", a, b);
    Ok(())
}

fn bfs_forest(g: &congest_graph::Graph, root: usize) -> Forest {
    let parents = reference::bfs_tree(g, NodeId::new(root));
    Forest::from_parents(g, parents).expect("BFS tree is a forest")
}

/// The path from `v` up to its root in `f`, both ends included.
fn root_path(f: &Forest, v: NodeId) -> Vec<NodeId> {
    let mut path = vec![v];
    while let Some(p) = f.parent(*path.last().expect("non-empty")) {
        path.push(p);
    }
    path
}

/// The tree pass over the trees rooted at `roots` as a phase of one-word hops,
/// one cast per level, each waiting for the one before: a flood goes
/// root-first, each word from a node to its child, and a fold goes
/// deepest-first, each word from a node to its parent.
fn pass_as_hops(g: &Graph, f: &Forest, roots: &[NodeId], flood: bool) -> Vec<Cast<'static>> {
    let mut levels = vec![Vec::new(); f.depth() as usize];
    for v in g.nodes() {
        if let (Some(p), Some(e)) = (f.parent(v), f.parent_edge(v)) {
            if roots.contains(&f.root_of(v)) {
                let owner = if flood { p } else { v };
                levels[f.depth_of(v) as usize - 1].push((owner, e, 1));
            }
        }
    }
    if !flood {
        levels.reverse();
    }
    levels
        .into_iter()
        .enumerate()
        .map(|(i, items)| Cast::Hop {
            items,
            up: None,
            after: if i == 0 { vec![] } else { vec![i - 1] },
        })
        .collect()
}

/// A random forest over connected `g`: a BFS tree from a random root with each
/// parent link cut with probability 1/4 (every cut node roots its subtree).
fn random_forest(g: &Graph, r: &mut impl Rng) -> Forest {
    let root = NodeId::new(r.random_range(0..g.n()));
    let parents = reference::bfs_tree(g, root)
        .into_iter()
        .map(|p| p.filter(|_| r.random_range(0..4u32) != 0))
        .collect();
    Forest::from_parents(g, parents).expect("a BFS tree with links cut is a forest")
}

/// A random phase of `casts` casts over connected `g` (n ≥ 2): casts of every
/// kind over either forest, so upcasts and downcasts cross the same edges in
/// opposite directions; each waits for a random subset of the earlier ones,
/// and about half the hop casts climb on to their far ends' roots. A few items
/// each, of 0..=3 words, starting or ending anywhere, roots included (local
/// items); half the hops cross one shared edge, from either end, so the FIFO
/// order on it matters.
fn random_phase<'f>(
    g: &Graph,
    forests: &'f [Forest; 2],
    r: &mut impl Rng,
    casts: usize,
) -> Vec<Cast<'f>> {
    let shared = EdgeId::new(r.random_range(0..g.m()));
    (0..casts)
        .map(|c| {
            let after: Vec<usize> = (0..c).filter(|_| r.random_range(0..2u32) == 0).collect();
            let k = r.random_range(0..6usize);
            let forest = &forests[r.random_range(0..2usize)];
            let tree_items = |r: &mut _| -> Vec<(NodeId, usize)> {
                (0..k)
                    .map(|_| {
                        let v = NodeId::new(Rng::random_range(r, 0..g.n()));
                        (v, Rng::random_range(r, 0..=3usize))
                    })
                    .collect()
            };
            match r.random_range(0..3u32) {
                0 => Cast::Up {
                    forest,
                    items: tree_items(r),
                    after,
                },
                1 => Cast::Down {
                    forest,
                    items: tree_items(r),
                    after,
                },
                _ => Cast::Hop {
                    items: (0..k)
                        .map(|_| {
                            let e = match r.random_range(0..2u32) {
                                0 => shared,
                                _ => EdgeId::new(r.random_range(0..g.m())),
                            };
                            let (a, b) = g.endpoints(e);
                            let owner = if r.random_range(0..2u32) == 0 { a } else { b };
                            (owner, e, r.random_range(0..=3usize))
                        })
                        .collect(),
                    up: (r.random_range(0..2u32) == 0).then_some(forest),
                    after,
                },
            }
        })
        .collect()
}

fn opts(seed: u64, exec: ExecutorConfig) -> RunOptions {
    RunOptions {
        seed,
        exec,
        ..Default::default()
    }
}

/// Minimal BCONGEST workload for thread-equivalence properties: flood the
/// minimum ID, re-broadcasting only on improvement.
struct MinFlood;

#[derive(Clone, Debug)]
struct FloodState {
    best: u32,
    dirty: bool,
}

impl BcongestAlgorithm for MinFlood {
    type State = FloodState;
    type Msg = u32;
    type Output = u32;

    fn name(&self) -> &'static str {
        "prop-min-flood"
    }
    fn init(&self, view: &LocalView<'_>) -> FloodState {
        FloodState {
            best: view.node().raw(),
            dirty: true,
        }
    }
    fn broadcast(&self, s: &FloodState, _round: usize) -> Option<u32> {
        s.dirty.then_some(s.best)
    }
    fn on_broadcast_sent(&self, s: &mut FloodState, _round: usize) {
        s.dirty = false;
    }
    fn receive(&self, s: &mut FloodState, _round: usize, msgs: &[(NodeId, u32)]) {
        for &(_, m) in msgs {
            if m < s.best {
                s.best = m;
                s.dirty = true;
            }
        }
    }
    fn is_done(&self, s: &FloodState) -> bool {
        !s.dirty
    }
    fn output(&self, s: &FloodState) -> u32 {
        s.best
    }
    fn round_bound(&self, n: usize, _m: usize) -> usize {
        2 * n + 2
    }
    fn output_words(&self, _out: &u32) -> usize {
        1
    }
}

/// A min-flood whose sends genuinely depend on the round: every node waits
/// out a start delay drawn from its seed before its first broadcast, rests
/// `gap` rounds after each one, and re-broadcasts on improvement — which may
/// well arrive while it is still waiting or resting, so timers are set,
/// kept, moved and cancelled by receives.
struct DelayedFlood;

#[derive(Clone, Debug)]
struct DelayedState {
    best: u32,
    dirty: bool,
    /// Earliest round of the next broadcast.
    ready: usize,
    gap: usize,
}

impl DelayedFlood {
    /// The start delay `init` draws for a node with this seed.
    fn start_delay(node_seed: u64) -> usize {
        (node_seed % 12) as usize
    }
}

impl BcongestAlgorithm for DelayedFlood {
    type State = DelayedState;
    type Msg = u32;
    type Output = u32;

    fn name(&self) -> &'static str {
        "prop-delayed-flood"
    }
    fn init(&self, view: &LocalView<'_>) -> DelayedState {
        DelayedState {
            best: view.node().raw(),
            dirty: true,
            ready: Self::start_delay(view.seed()),
            gap: 1 + (view.seed() >> 8) as usize % 3,
        }
    }
    fn broadcast(&self, s: &DelayedState, round: usize) -> Option<u32> {
        (s.dirty && round >= s.ready).then_some(s.best)
    }
    fn on_broadcast_sent(&self, s: &mut DelayedState, round: usize) {
        s.dirty = false;
        s.ready = round + s.gap;
    }
    fn receive(&self, s: &mut DelayedState, _round: usize, msgs: &[(NodeId, u32)]) {
        for &(_, m) in msgs {
            if m < s.best {
                s.best = m;
                s.dirty = true;
            }
        }
    }
    fn is_done(&self, s: &DelayedState) -> bool {
        !s.dirty
    }
    fn output(&self, s: &DelayedState) -> u32 {
        s.best
    }
    fn next_activity(&self, s: &DelayedState, after: usize) -> Option<usize> {
        s.dirty.then_some(after.max(s.ready))
    }
    fn round_bound(&self, n: usize, _m: usize) -> usize {
        4 * n + 16
    }
    fn output_words(&self, _out: &u32) -> usize {
        1
    }
    fn on_fault(&self, s: &mut DelayedState, _round: usize) {
        s.dirty = true; // self-heal: everyone re-announces
    }
}

/// The round loop the runner replaced, kept as the reference: poll **every**
/// live node **every** round, push messages straight into `Vec` inboxes, and
/// when a round is idle skip to the `min` over everyone's `next_activity`.
fn full_scan<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> (Vec<A::Output>, Metrics) {
    let init = |i: usize| {
        algo.init(&LocalView::new(
            g,
            None,
            NodeId::new(i),
            rng::node_seed(seed, i),
        ))
    };
    let mut states: Vec<A::State> = (0..g.n()).map(init).collect();
    let mut fs = faults.map(|plan| FaultState::new(plan, g));
    let mut metrics = Metrics::new(g.m());
    let bytes = 4 * <A::Msg as WireEncode>::LANES as u64;
    let mut round = 0usize;
    loop {
        assert!(round < 100_000, "{} does not quiesce", algo.name());
        if let Some(fs) = fs.as_mut() {
            let fired = fs.apply_due(round);
            let heal = fs.response() == FaultResponse::SelfHeal;
            for i in (0..g.n()).filter(|&i| !fired.is_empty() && fs.mask.node_up[i]) {
                if !heal || fired.contains(&FaultEvent::Recover(NodeId::new(i))) {
                    states[i] = init(i);
                }
                if heal {
                    algo.on_fault(&mut states[i], round);
                }
            }
        }
        let up = |i: usize| fs.as_ref().is_none_or(|fs| fs.mask.node_up[i]);
        let mut inboxes: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); g.n()];
        let mut sent = false;
        for i in (0..g.n()).filter(|&i| up(i)) {
            let Some(msg) = algo.broadcast(&states[i], round) else {
                continue;
            };
            algo.on_broadcast_sent(&mut states[i], round);
            sent = true;
            metrics.broadcasts += 1;
            for (e, u) in g.incident(NodeId::new(i)) {
                if fs.as_ref().is_some_and(|fs| !fs.mask.edge_up[e.index()]) || !up(u.index()) {
                    metrics.dropped_messages += 1;
                } else {
                    metrics.add_messages_sized(e, 1, bytes);
                    inboxes[u.index()].push((NodeId::new(i), msg.clone()));
                }
            }
        }
        for (st, inbox) in states.iter_mut().zip(&inboxes) {
            if !inbox.is_empty() {
                algo.receive(st, round, inbox);
            }
        }
        if sent {
            metrics.rounds = round as u64 + 1;
            round += 1;
            continue;
        }
        let wake = (0..g.n())
            .filter(|&i| up(i))
            .filter_map(|i| algo.next_activity(&states[i], round + 1));
        let fault = fs.as_ref().and_then(|fs| fs.next_fault_round());
        match wake.chain(fault).min() {
            Some(r) => round = r.max(round + 1),
            None => return (states.iter().map(|s| algo.output(s)).collect(), metrics),
        }
    }
}

/// `run_bcongest` at 1, 2 and 4 threads against [`full_scan`]: outputs and
/// every `Metrics` field (rounds and the congestion vector included).
fn assert_matches_full_scan<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> Result<(), TestCaseError> {
    let (outputs, metrics) = full_scan(algo, g, seed, faults);
    for threads in [1, 2, 4] {
        let opts = RunOptions {
            faults: faults.cloned(),
            ..opts(seed, ExecutorConfig::with_threads(threads))
        };
        let run = run_bcongest(algo, g, None, &opts).expect("event-driven run");
        prop_assert_eq!(&run.outputs, &outputs, "outputs at {} threads", threads);
        prop_assert_eq!(&run.metrics, &metrics, "metrics at {} threads", threads);
    }
    Ok(())
}

/// Random `gnp`, path or star, by `shape`.
fn shaped_graph(shape: usize, n: usize, seed: u64) -> Graph {
    match shape % 3 {
        0 => generators::gnp_connected(n, 0.15, seed),
        1 => generators::path(n),
        _ => generators::star(n),
    }
}

/// A hostile schedule for [`DelayedFlood`]: churn in round 0, then the crash
/// of the node with the longest start delay *while it still holds its timer*
/// (round 1), the churned edge back up, and the node's recovery — late enough
/// that the survivors may have gone quiet in between.
fn hostile_plan(g: &Graph, seed: u64, response: FaultResponse, recover_at: usize) -> FaultPlan {
    let sleeper = (0..g.n())
        .max_by_key(|&i| DelayedFlood::start_delay(rng::node_seed(seed, i)))
        .expect("non-empty graph");
    let e = EdgeId::new(seed as usize % g.m());
    FaultPlan::new(response)
        .at(0, FaultEvent::EdgeDown(e))
        .at(1, FaultEvent::Crash(NodeId::new(sleeper)))
        .at(3, FaultEvent::EdgeUp(e))
        .at(recover_at, FaultEvent::Recover(NodeId::new(sleeper)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn router_delivers_every_task(seed in 0u64..200, k in 1usize..12) {
        let g = generators::gnp_connected(16, 0.2, seed);
        let f = bfs_forest(&g, 0);
        // Items: from node 0 down to k random-ish targets along BFS paths.
        let items: Vec<(NodeId, usize)> =
            (0..k).map(|i| (NodeId::new((i * 5 + 3) % g.n()), 1 + i % 3)).collect();
        let out = downcast(&mut Router::new(&g).expect("a small graph"), &f, items.clone())
            .unwrap();
        // Everything arrives: messages = Σ words · path length, and no sooner
        // than the longest path allows.
        let depth = |v: NodeId| u64::from(f.depth_of(v));
        let want: u64 = items.iter().map(|&(v, words)| words as u64 * depth(v)).sum();
        prop_assert_eq!(out.messages, want);
        let longest = items.iter().map(|&(v, _)| depth(v)).max().unwrap_or(0);
        prop_assert!(out.rounds >= longest);
    }

    #[test]
    fn router_respects_capacity_via_lower_bound(seed in 0u64..100, k in 2usize..10) {
        // k one-word hops over the same single edge must take k rounds, whether
        // they lead or queue as tasks behind an (empty) earlier cast.
        let g = generators::path(2);
        let f = bfs_forest(&g, 0);
        let hops = vec![(NodeId::new(0), EdgeId::new(0), 1); k];
        let lead = Cast::Hop { items: hops.clone(), up: None, after: vec![] };
        let empty = Cast::Up { forest: &f, items: vec![], after: vec![] };
        let queued = Cast::Hop { items: hops, up: None, after: vec![0] };
        let mut router = Router::new(&g).expect("a small graph");
        for phase in [vec![lead], vec![empty, queued]] {
            let m = route_casts(&mut router, &phase).unwrap();
            prop_assert_eq!((m.rounds, m.messages), (k as u64, k as u64));
        }
        let _ = seed;
    }

    #[test]
    fn upcast_delivers_all_items_once(seed in 0u64..100) {
        let g = generators::gnp_connected(20, 0.2, seed);
        let f = bfs_forest(&g, 0);
        let items: Vec<(NodeId, usize)> = g.nodes().map(|v| (v, 1)).collect();
        let out = upcast(&mut Router::new(&g).expect("a small graph"), &f, items).unwrap();
        // Messages = Σ depths.
        let depths: u64 = g.nodes().map(|v| u64::from(f.depth_of(v))).sum();
        prop_assert_eq!(out.messages, depths);
    }

    #[test]
    fn downcast_reaches_exact_destinations(seed in 0u64..100, k in 1usize..20) {
        let g = generators::gnp_connected(18, 0.25, seed);
        let f = bfs_forest(&g, 0);
        let items: Vec<(NodeId, usize)> =
            (0..k).map(|i| (NodeId::new((i * 7 + 1) % g.n()), 1)).collect();
        let mut router = Router::new(&g).expect("a small graph");
        let out = downcast(&mut router, &f, items.clone()).unwrap();
        // Each word crosses exactly its destination's root path ...
        let depths: u64 = items.iter().map(|&(v, _)| u64::from(f.depth_of(v))).sum();
        prop_assert_eq!(out.messages, depths);
        // ... and the k words are pipelined: Lemma 1.6's |M| + d rounds.
        prop_assert!(out.rounds < k as u64 + u64::from(f.depth()));
    }

    #[test]
    fn runs_are_identical_at_every_thread_count(seed in 0u64..60, threads in 2usize..9) {
        // A random BCONGEST workload (min-flood over G(n,p)) must reproduce
        // the one-thread run bit for bit: outputs, rounds, messages,
        // broadcasts, payload bytes, and the per-edge congestion vector.
        let g = generators::gnp_connected(20 + (seed as usize % 17), 0.2, seed);
        let base = run_bcongest(&MinFlood, &g, None, &opts(seed, ExecutorConfig::default()))
            .expect("one-thread run");
        let run = run_bcongest(&MinFlood, &g, None, &opts(seed, ExecutorConfig::with_threads(threads)))
            .expect("multi-thread run");
        prop_assert_eq!(&base.outputs, &run.outputs, "outputs at {} threads", threads);
        prop_assert_eq!(&base.metrics, &run.metrics, "metrics at {} threads", threads);
    }

    #[test]
    fn event_driven_rounds_match_the_full_scan(seed in 0u64..400, shape in 0usize..3,
                                               n in 8usize..40) {
        let g = shaped_graph(shape, n, seed);
        assert_matches_full_scan(&DelayedFlood, &g, seed, None)?;
        let start = seed as usize % 9;
        assert_matches_full_scan(
            &Bfs::new(NodeId::new(n / 3)).with_start_round(start), &g, seed, None)?;
        let sources: Vec<NodeId> = g.nodes().step_by(3).collect();
        assert_matches_full_scan(
            &BfsCollection::new(sources).with_random_delays(seed), &g, seed, None)?;
    }

    #[test]
    fn event_driven_rounds_match_the_full_scan_under_faults(seed in 0u64..400,
                                                            shape in 0usize..3,
                                                            n in 8usize..40,
                                                            recover_at in 4usize..60) {
        let g = shaped_graph(shape, n, seed);
        for response in [FaultResponse::Restart, FaultResponse::SelfHeal] {
            let plan = hostile_plan(&g, seed, response, recover_at);
            assert_matches_full_scan(&DelayedFlood, &g, seed, Some(&plan))?;
            assert_matches_full_scan(
                &Bfs::new(NodeId::new(0)).with_start_round(2), &g, seed, Some(&plan))?;
        }
    }

    #[test]
    fn upcast_rounds_within_lemma_1_5(seed in 0u64..60) {
        // Lemma 1.5: O(In/log n) rounds = O(#words) with our unit-word accounting.
        let g = generators::gnp_connected(16, 0.3, seed);
        let f = bfs_forest(&g, 0);
        let items: Vec<(NodeId, usize)> = g.nodes().map(|v| (v, 1)).collect();
        let out = upcast(&mut Router::new(&g).expect("a small graph"), &f, items).unwrap();
        let in_words = g.n() as u64;
        prop_assert!(out.rounds <= in_words + u64::from(f.depth()));
    }
}

// The arena `Router` against the `VecDeque` scheduler it replaced. FIFO order
// is all-or-nothing — one misplaced packet moves a round — so these run many
// more cases than the properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn theorem_2_1_phase_matches_per_hop_prerequisites(seed in 0u64..4000, n in 2usize..24,
                                                       k in 0usize..40) {
        let g = generators::gnp_connected(n, 0.2, seed);
        let mut r = rng::seeded(seed);
        let f = random_forest(&g, &mut r);
        // Hops across random edges, tree edges included, from either end.
        let hops: Vec<(NodeId, EdgeId)> = (0..k)
            .map(|_| {
                let e = EdgeId::new(r.random_range(0..g.m()));
                let (a, b) = g.endpoints(e);
                (if r.random_range(0..2u32) == 0 { a } else { b }, e)
            })
            .collect();
        // The phase as walks, one prerequisite per hop: at an owner's first
        // hop, one word from its root down to it; per hop, one word across the
        // hop and up the far end's tree path, released by the owner's word.
        let (mut walks, mut after) = (Vec::new(), Vec::new());
        let mut owners = Vec::new();
        let mut word_of = vec![None; g.n()];
        for &(owner, e) in &hops {
            let word = *word_of[owner.index()].get_or_insert_with(|| {
                let mut path = root_path(&f, owner);
                path.reverse();
                walks.push(Walk { path, words: 1 });
                after.push(vec![]);
                owners.push((owner, 1));
                walks.len() - 1
            });
            let (a, b) = g.endpoints(e);
            let mut path = vec![owner];
            path.extend(root_path(&f, if a == owner { b } else { a }));
            walks.push(Walk { path, words: 1 });
            after.push(vec![word]);
        }
        let want = reference_route(&g, &walks, &after).expect("hops and tree paths are walks");
        // The same phase as casts: a downcast to the owners, and the hops
        // climbing behind it.
        let phase = [
            Cast::Down { forest: &f, items: owners, after: vec![] },
            Cast::Hop {
                items: hops.iter().map(|&(owner, e)| (owner, e, 1)).collect(),
                up: Some(&f),
                after: vec![0],
            },
        ];
        let mut router = Router::new(&g).expect("a small graph");
        for _ in 0..2 {
            let got = route_casts(&mut router, &phase).expect("hops leave owners");
            prop_assert_eq!(&got, &want.metrics);
        }
    }

    #[test]
    fn phases_match_the_reference_with_barriers(seed in 0u64..4000, n in 2usize..24,
                                                casts in 1usize..7) {
        let g = generators::gnp_connected(n, 0.2, seed);
        let mut r = rng::seeded(seed);
        let forests = [random_forest(&g, &mut r), random_forest(&g, &mut r)];
        let phase = random_phase(&g, &forests, &mut r, casts);
        // The same phase as walks. First the lead hops — of every hop cast
        // that waits for nothing and does not climb —, in cast order: each
        // word is at the front of its edge, so each hop's words are in by the
        // round they take alone. Then the other casts in order, each item
        // behind a local word-less barrier at its start node, added just
        // before the cast's first item starting there if an awaited item ends
        // there: it waits for the awaited items' walks, and for the last round
        // in which an awaited lead hop ending there is in.
        let lead = |c: usize| {
            matches!(&phase[c], Cast::Hop { up: None, after, .. } if after.is_empty())
        };
        let hop_path = |owner: NodeId, e: EdgeId| {
            let (a, b) = g.endpoints(e);
            vec![owner, if a == owner { b } else { a }]
        };
        let mut walks = Vec::new();
        for c in (0..casts).filter(|&c| lead(c)) {
            let Cast::Hop { items, .. } = &phase[c] else { unreachable!("a lead cast hops") };
            for &(owner, e, words) in items {
                walks.push(Walk { path: hop_path(owner, e), words });
            }
        }
        let alone = reference_route(&g, &walks, &[]).expect("hops are walks");
        let mut after = vec![vec![]; walks.len()];
        let mut release = vec![0; walks.len()];
        // Per cast, what its items leave for a later cast to wait for: (end
        // node, walk, round) — the walk, or for a lead hop the round it is in.
        let mut ends: Vec<Vec<(NodeId, Option<usize>, u64)>> = Vec::new();
        let mut lead_hops = 0..walks.len();
        for (c, cast) in phase.iter().enumerate() {
            // Per item, its start node and its walk.
            let (waits, items): (&[usize], Vec<(NodeId, Walk)>) = match cast {
                Cast::Hop { items, .. } if lead(c) => {
                    let in_by = items.iter().map(|&(owner, e, _)| {
                        let t = lead_hops.next().expect("one walk per lead hop");
                        (hop_path(owner, e)[1], None, alone.completion_round[t])
                    });
                    ends.push(in_by.collect());
                    continue;
                }
                Cast::Up { forest, items, after } => (after, items.iter().map(|&(v, words)| {
                    (v, Walk { path: root_path(forest, v), words })
                }).collect()),
                Cast::Down { forest, items, after } => (after, items.iter().map(|&(v, words)| {
                    let mut path = root_path(forest, v);
                    path.reverse();
                    (path[0], Walk { path, words })
                }).collect()),
                Cast::Hop { items, up, after } => (after, items.iter().map(|&(owner, e, words)| {
                    // A climbing hop goes on from the far end to its root.
                    let mut path = hop_path(owner, e);
                    if let Some(forest) = up {
                        path.extend(&root_path(forest, path[1])[1..]);
                    }
                    (owner, Walk { path, words })
                }).collect()),
            };
            let awaited: Vec<(NodeId, Option<usize>, u64)> =
                waits.iter().flat_map(|&a| ends[a].iter().copied()).collect();
            let mut barrier_of = vec![None; n];
            let mut cast_ends = Vec::new();
            for (s, walk) in items {
                let on_s = || awaited.iter().filter(move |&&(end, ..)| end == s);
                if barrier_of[s.index()].is_none() && on_s().next().is_some() {
                    barrier_of[s.index()] = Some(walks.len());
                    walks.push(Walk { path: vec![s], words: 0 });
                    after.push(on_s().filter_map(|&(_, t, _)| t).collect());
                    release.push(on_s().map(|&(.., r)| r).max().unwrap_or(0));
                }
                cast_ends.push((*walk.path.last().expect("non-empty"), Some(walks.len()), 0));
                walks.push(walk);
                after.push(barrier_of[s.index()].into_iter().collect());
                release.push(0);
            }
            ends.push(cast_ends);
        }
        let want = reference_route_timed(&g, &walks, &after, &release)
            .expect("tree paths and hops are walks");
        let mut router = Router::new(&g).expect("a small graph");
        for _ in 0..2 {
            let got = route_casts(&mut router, &phase).expect("hops leave owners");
            prop_assert_eq!(&got, &want.metrics);
        }
    }

    #[test]
    fn a_tree_pass_is_the_schedule_of_its_hops(seed in 0u64..4000, n in 2usize..24) {
        let g = generators::gnp_connected(n, 0.2, seed);
        let mut r = rng::seeded(seed);
        let f = random_forest(&g, &mut r);
        let roots: Vec<NodeId> =
            f.roots().iter().copied().filter(|_| r.random_range(0..2u32) == 0).collect();
        let pass = tree_pass(&g, &f, &roots).expect("roots of the forest");
        let mut router = Router::new(&g).expect("a small graph");
        for flood in [true, false] {
            let hops = route_casts(&mut router, &pass_as_hops(&g, &f, &roots, flood))
                .expect("each hop leaves its owner");
            prop_assert_eq!(pass.messages, hops.messages);
            prop_assert_eq!(pass.congestion(), hops.congestion());
            prop_assert_eq!(pass.rounds, hops.rounds);
        }
    }

    #[test]
    fn tree_casts_match_the_reference_on_root_paths(seed in 0u64..4000, n in 2usize..24,
                                                    k in 0usize..40) {
        let g = generators::gnp_connected(n, 0.2, seed);
        let mut r = rng::seeded(seed);
        let f = random_forest(&g, &mut r);
        let items: Vec<(NodeId, usize)> = (0..k)
            .map(|_| {
                let words = r.random_range(0..=5usize);
                (NodeId::new(r.random_range(0..n)), words)
            })
            .collect();
        let walks = |down: bool| -> Vec<Walk> {
            items
                .iter()
                .map(|&(v, words)| {
                    let mut path = root_path(&f, v);
                    if down {
                        path.reverse();
                    }
                    Walk { path, words }
                })
                .collect()
        };
        let mut router = Router::new(&g).expect("a small graph");
        let want = reference_route(&g, &walks(false), &[]).expect("root paths are walks");
        let up = upcast(&mut router, &f, items.clone()).expect("upcast");
        prop_assert_eq!(&up, &want.metrics);
        let want = reference_route(&g, &walks(true), &[]).expect("root paths are walks");
        let down = downcast(&mut router, &f, items.clone()).expect("downcast");
        prop_assert_eq!(&down, &want.metrics);
    }

    #[test]
    fn a_reused_router_equals_fresh_ones(seed in 0u64..4000, n in 2usize..20) {
        let g = generators::gnp_connected(n, 0.25, seed);
        let mut r = rng::seeded(seed);
        let mut reused = Router::new(&g).expect("a small graph");
        for _ in 0..50 {
            let forests = [random_forest(&g, &mut r), random_forest(&g, &mut r)];
            let casts = r.random_range(0..7usize);
            let phase = random_phase(&g, &forests, &mut r, casts);
            let got = route_casts(&mut reused, &phase).expect("hops leave owners");
            let mut fresh = Router::new(&g).expect("a small graph");
            prop_assert_eq!(got, route_casts(&mut fresh, &phase).expect("fresh"));
        }
    }

    #[test]
    fn a_rejected_batch_leaves_the_router_clean(seed in 0u64..4000, n in 4usize..20,
                                                casts in 2usize..7) {
        // The path graph's edge 1-2 does not touch node 0, so a hop of node 0
        // across it is off its owner.
        let g = generators::path(n);
        let mut r = rng::seeded(seed);
        let forests = [random_forest(&g, &mut r), random_forest(&g, &mut r)];
        let e = |u: usize, v: usize| g.edge_between(NodeId::new(u), NodeId::new(v)).unwrap();
        let v0 = NodeId::new(0);
        let off_owner = || Cast::Hop {
            items: vec![(v0, e(0, 1), 1), (v0, e(1, 2), 3)],
            up: None,
            after: vec![],
        };
        let mut bad = random_phase(&g, &forests, &mut r, casts);
        let first = r.random_range(0..casts - 1);
        bad[first] = off_owner();
        bad[r.random_range(first + 1..casts)] = off_owner();

        let mut router = Router::new(&g).expect("a small graph");
        let warm = random_phase(&g, &forests, &mut r, casts);
        route_casts(&mut router, &warm).expect("hops leave owners");
        prop_assert_eq!(
            route_casts(&mut router, &bad).unwrap_err(),
            EngineError::InvalidPath { task: first }
        );
        let next = random_phase(&g, &forests, &mut r, casts);
        let got = route_casts(&mut router, &next).expect("hops leave owners");
        let mut fresh = Router::new(&g).expect("a small graph");
        prop_assert_eq!(got, route_casts(&mut fresh, &next).expect("fresh"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn primitive_encodings_are_injective(wide in 0u32..2, x in 0u64..=u64::MAX,
                                         y in 0u64..=u64::MAX, z in 0u64..=u64::MAX,
                                         w in 0u64..=u64::MAX) {
        let wide = wide == 1;
        let (x, y, z, w) = (field(x, wide), field(y, wide), field(z, wide), field(w, wide));
        encodes_injectively(x as u32, y as u32)?;
        encodes_injectively(x, y)?;
        encodes_injectively(x as i64, y as i64)?;
        encodes_injectively(x as usize, y as usize)?;
        encodes_injectively((x as u32, z as u32), (y as u32, w as u32))?;
        encodes_injectively((x, z), (y, w))?;
        encodes_injectively(NodeId::from(x as u32), NodeId::from(y as u32))?;
        encodes_injectively(EdgeId::from(x as u32), EdgeId::from(y as u32))?;
        encodes_injectively(
            congest_graph::ClusterId::from(x as u32),
            congest_graph::ClusterId::from(y as u32),
        )?;
    }
}
