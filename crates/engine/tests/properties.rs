//! Property-based tests for the execution engine: routing always delivers, tree
//! operations deliver everything exactly once, capacity is respected, the
//! arena `Router` reproduces the `VecDeque` scheduler it replaced report for
//! report (fresh, reused, over forests, as a Theorem 2.1 phase whose hop words
//! wait for their owner's word, and after a rejected batch), the accounting invariants
//! hold for arbitrary inputs, a run is identical —
//! outputs and `Metrics` — at every thread count, the event-driven round loop
//! equals, in both models, one that polls every node every round (with and
//! without faults), and the packed wire codec of the message plane round-trips
//! every primitive payload.

use congest_algos::{bfs::Bfs, bfs_collection::BfsCollection};
use congest_engine::faults::FaultState;
use congest_engine::router::{RouteReport, RouteTask};
use congest_engine::{
    downcast, route_casts, router, run_bcongest, run_congest, treeops::Forest, upcast,
    BcongestAlgorithm, Cast, CongestAlgorithm, EngineError, ExecutorConfig, FaultEvent, FaultPlan,
    FaultResponse, LocalView, Metrics, Router, RunOptions, Wire, WireDecode, WireEncode,
};
use congest_graph::{generators, reference, rng, EdgeId, Graph, NodeId};
use proptest::prelude::*;
use rand::Rng;

mod reference_scheduler;
use reference_scheduler::{
    assert_same_report, random_batch, reference_route, reference_route_timed,
};

/// Encode → decode round-trip, plus the accounting agreement: the packed
/// width is the constant `LANES` while the model-level cost `words()` must
/// survive the codec unchanged.
fn codec_roundtrip<T: WireDecode>(v: T) -> Result<(), TestCaseError> {
    let mut lanes = vec![0u32; T::LANES];
    v.encode(&mut lanes);
    let back = T::decode(&lanes);
    prop_assert_eq!(&back, &v, "decode ∘ encode = id");
    prop_assert_eq!(back.words(), v.words(), "words() survives the codec");
    Ok(())
}

fn bfs_forest(g: &congest_graph::Graph, root: usize) -> Forest {
    let parents = reference::bfs_tree(g, NodeId::new(root));
    Forest::from_parents(g, parents).expect("BFS tree is a forest")
}

/// A payload of a chosen size in words (zero included), told apart by `tag`.
#[derive(Clone, Debug, PartialEq)]
struct Tagged {
    tag: usize,
    words: usize,
}

impl Wire for Tagged {
    fn words(&self) -> usize {
        self.words
    }
}

/// An item as a route task: its start node, its path and its words.
type Walk = (NodeId, Vec<NodeId>, usize);

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

/// [`DelayedFlood`] point to point: a node announces an improvement to every
/// neighbour *except the one it came from*, so what it sends differs per edge
/// and a node whose only neighbour taught it goes quiet without sending.
struct DelayedRelay;

#[derive(Clone, Debug)]
struct RelayState {
    flood: DelayedState,
    neighbors: Vec<NodeId>,
    /// Whom the current `best` came from (`None`: it is the node's own id).
    from: Option<NodeId>,
}

impl CongestAlgorithm for DelayedRelay {
    type State = RelayState;
    type Msg = u32;
    type Output = u32;

    fn name(&self) -> &'static str {
        "prop-delayed-relay"
    }
    fn init(&self, view: &LocalView<'_>) -> RelayState {
        RelayState {
            flood: DelayedFlood.init(view),
            neighbors: view.neighbors().to_vec(),
            from: None,
        }
    }
    fn sends(&self, s: &RelayState, round: usize) -> Vec<(NodeId, u32)> {
        let targets = s.neighbors.iter().filter(|&&u| Some(u) != s.from);
        match DelayedFlood.broadcast(&s.flood, round) {
            Some(best) => targets.map(|&u| (u, best)).collect(),
            None => Vec::new(),
        }
    }
    fn on_sent(&self, s: &mut RelayState, round: usize) {
        DelayedFlood.on_broadcast_sent(&mut s.flood, round);
    }
    fn receive(&self, s: &mut RelayState, _round: usize, msgs: &[(NodeId, u32)]) {
        for &(from, m) in msgs {
            if m < s.flood.best {
                s.flood.best = m;
                s.from = Some(from);
                s.flood.dirty = s.neighbors.len() > 1;
            }
        }
    }
    fn is_done(&self, s: &RelayState) -> bool {
        DelayedFlood.is_done(&s.flood)
    }
    fn output(&self, s: &RelayState) -> u32 {
        s.flood.best
    }
    fn next_activity(&self, s: &RelayState, after: usize) -> Option<usize> {
        DelayedFlood.next_activity(&s.flood, after)
    }
    fn round_bound(&self, n: usize, m: usize) -> usize {
        DelayedFlood.round_bound(n, m)
    }
    fn on_fault(&self, s: &mut RelayState, _round: usize) {
        s.flood.dirty = true; // self-heal: everyone re-announces, to everyone
        s.from = None;
    }
}

/// The round loop the runners replaced, kept as the reference, once per model
/// (the two algorithm traits share their method names but no supertrait, so
/// the one body is a macro): poll **every** live node **every** round, push
/// messages straight into `Vec` inboxes, and when a round is idle skip to the
/// `min` over everyone's `next_activity`. `$poll` is the node's send decision
/// as `Option<Vec<(neighbor, msg)>>`.
macro_rules! full_scan_run {
    ($run:ident, $model:ident, $on_sent:ident, broadcasts: $broadcasts:expr,
     |$algo:ident, $g:ident, $v:ident, $st:ident, $round:ident| $poll:expr) => {
        fn $run<A: $model>(
            $algo: &A,
            $g: &Graph,
            seed: u64,
            faults: Option<&FaultPlan>,
        ) -> (Vec<A::Output>, Metrics) {
            let (algo, g) = ($algo, $g);
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
                    let ($v, $st, $round) = (NodeId::new(i), &states[i], round);
                    let Some(sends) = $poll else {
                        continue;
                    };
                    algo.$on_sent(&mut states[i], round);
                    sent = true;
                    metrics.broadcasts += u64::from($broadcasts);
                    for (u, msg) in sends {
                        let e = g
                            .edge_between(NodeId::new(i), u)
                            .expect("sends follow edges");
                        if fs.as_ref().is_some_and(|fs| !fs.mask.edge_up[e.index()])
                            || !up(u.index())
                        {
                            metrics.dropped_messages += 1;
                        } else {
                            metrics.add_messages_sized(e, msg.words() as u64, bytes);
                            inboxes[u.index()].push((NodeId::new(i), msg));
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
    };
}

full_scan_run!(
    full_scan_bcongest, BcongestAlgorithm, on_broadcast_sent, broadcasts: true,
    |algo, g, v, st, round| algo.broadcast(st, round).map(|msg| {
        let copies = g.neighbors(v).iter().map(|&u| (u, msg.clone()));
        copies.collect::<Vec<_>>()
    })
);
full_scan_run!(
    full_scan_congest, CongestAlgorithm, on_sent, broadcasts: false,
    |algo, _g, _v, st, round| Some(algo.sends(st, round)).filter(|sends| !sends.is_empty())
);

/// An event-driven runner at each of `threads` against its full-scan
/// `reference`: outputs and every `Metrics` field (rounds and the congestion
/// vector included).
fn assert_matches_full_scan<O: PartialEq + std::fmt::Debug>(
    reference: (Vec<O>, Metrics),
    seed: u64,
    faults: Option<&FaultPlan>,
    threads: &[usize],
    run: impl Fn(&RunOptions) -> (Vec<O>, Metrics),
) -> Result<(), TestCaseError> {
    for &threads in threads {
        let opts = RunOptions {
            faults: faults.cloned(),
            ..opts(seed, ExecutorConfig::with_threads(threads))
        };
        let (outputs, metrics) = run(&opts);
        prop_assert_eq!(&outputs, &reference.0, "outputs at {} threads", threads);
        prop_assert_eq!(&metrics, &reference.1, "metrics at {} threads", threads);
    }
    Ok(())
}

/// `run_bcongest` at 1, 2 and 4 threads against [`full_scan_bcongest`].
fn assert_bcongest_matches_full_scan<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> Result<(), TestCaseError> {
    let reference = full_scan_bcongest(algo, g, seed, faults);
    assert_matches_full_scan(reference, seed, faults, &[1, 2, 4], |opts| {
        let run = run_bcongest(algo, g, None, opts).expect("event-driven run");
        (run.outputs, run.metrics)
    })
}

/// `run_congest` at 1 and 2 threads against [`full_scan_congest`].
fn assert_congest_matches_full_scan<A: CongestAlgorithm>(
    algo: &A,
    g: &Graph,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> Result<(), TestCaseError> {
    let reference = full_scan_congest(algo, g, seed, faults);
    assert_matches_full_scan(reference, seed, faults, &[1, 2], |opts| {
        let run = run_congest(algo, g, None, opts).expect("event-driven run");
        (run.outputs, run.metrics)
    })
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
        let dist = reference::bfs_distances(&g, NodeId::new(0));
        // Tasks: route from node 0 to k random-ish targets along BFS paths.
        let parents = reference::bfs_tree(&g, NodeId::new(0));
        let mut tasks = Vec::new();
        for i in 0..k {
            let target = NodeId::new((i * 5 + 3) % g.n());
            let mut path = router::path_to_root(&parents, target);
            path.reverse();
            tasks.push(RouteTask { path, words: 1 + i % 3 });
        }
        let report = Router::new(&g).expect("a small graph").route(&tasks).unwrap();
        // Everything arrives, messages = Σ words · pathlen.
        let want: usize = tasks
            .iter()
            .map(|t| t.words * t.path.len().saturating_sub(1))
            .sum();
        prop_assert_eq!(report.metrics.messages as usize, want);
        for (i, t) in tasks.iter().enumerate() {
            let hops = t.path.len().saturating_sub(1) as u64;
            prop_assert!(report.completion_round[i] >= hops.min(1) * u64::from(hops > 0));
        }
        let _ = dist;
    }

    #[test]
    fn router_respects_capacity_via_lower_bound(seed in 0u64..100, k in 2usize..10) {
        // k one-word packets over the same single edge must take >= k rounds.
        let g = generators::path(2);
        let t = RouteTask {
            path: vec![NodeId::new(0), NodeId::new(1)],
            words: 1,
        };
        let tasks = vec![t; k];
        let report = Router::new(&g).expect("a small graph").route(&tasks).unwrap();
        prop_assert_eq!(report.metrics.rounds, k as u64);
        let _ = seed;
    }

    #[test]
    fn upcast_delivers_all_items_once(seed in 0u64..100) {
        let g = generators::gnp_connected(20, 0.2, seed);
        let f = bfs_forest(&g, 0);
        let items: Vec<(NodeId, u64)> = g.nodes().map(|v| (v, v.index() as u64)).collect();
        let out = upcast(&mut Router::new(&g).expect("a small graph"), &f, items).unwrap();
        let mut got: Vec<u64> = out.at_root[0].iter().map(|d| d.payload).collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..g.n() as u64).collect();
        prop_assert_eq!(got, want);
        // Messages = Σ depths.
        let depths: u64 = g.nodes().map(|v| u64::from(f.depth_of(v))).sum();
        prop_assert_eq!(out.metrics.messages, depths);
    }

    #[test]
    fn downcast_reaches_exact_destinations(seed in 0u64..100, k in 1usize..20) {
        let g = generators::gnp_connected(18, 0.25, seed);
        let f = bfs_forest(&g, 0);
        let items: Vec<(NodeId, u64)> =
            (0..k).map(|i| (NodeId::new((i * 7 + 1) % g.n()), i as u64)).collect();
        let mut router = Router::new(&g).expect("a small graph");
        let out = downcast(&mut router, &f, items.clone()).unwrap();
        for (dest, payload) in items {
            prop_assert!(out.at_node[dest.index()].contains(&payload));
        }
        let total: usize = out.at_node.iter().map(Vec::len).sum();
        prop_assert_eq!(total, k);
    }

    #[test]
    fn primitive_codecs_roundtrip(a in 0u32..=u32::MAX, b in 0u64..=u64::MAX,
                                  d in 0usize..=usize::MAX, p0 in 0u32..=u32::MAX,
                                  p1 in 0u32..=u32::MAX, q0 in 0u64..=u64::MAX,
                                  q1 in 0u64..=u64::MAX, id in 0u32..u32::MAX) {
        codec_roundtrip(a)?;
        codec_roundtrip(b)?;
        codec_roundtrip(b as i64)?; // full-range i64 via the u64 bit pattern
        codec_roundtrip(d)?;
        codec_roundtrip((p0, p1))?;
        codec_roundtrip((q0, q1))?;
        codec_roundtrip(())?;
        codec_roundtrip(NodeId::from(id))?;
        codec_roundtrip(EdgeId::from(id))?;
        codec_roundtrip(congest_graph::ClusterId::from(id))?;
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
        assert_bcongest_matches_full_scan(&DelayedFlood, &g, seed, None)?;
        assert_congest_matches_full_scan(&DelayedRelay, &g, seed, None)?;
        let start = seed as usize % 9;
        assert_bcongest_matches_full_scan(
            &Bfs::new(NodeId::new(n / 3)).with_start_round(start), &g, seed, None)?;
        let sources: Vec<NodeId> = g.nodes().step_by(3).collect();
        assert_bcongest_matches_full_scan(
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
            assert_bcongest_matches_full_scan(&DelayedFlood, &g, seed, Some(&plan))?;
            assert_congest_matches_full_scan(&DelayedRelay, &g, seed, Some(&plan))?;
            assert_bcongest_matches_full_scan(
                &Bfs::new(NodeId::new(0)).with_start_round(2), &g, seed, Some(&plan))?;
        }
    }

    #[test]
    fn upcast_rounds_within_lemma_1_5(seed in 0u64..60) {
        // Lemma 1.5: O(In/log n) rounds = O(#words) with our unit-word accounting.
        let g = generators::gnp_connected(16, 0.3, seed);
        let f = bfs_forest(&g, 0);
        let items: Vec<(NodeId, u64)> = g.nodes().map(|v| (v, 1u64)).collect();
        let out = upcast(&mut Router::new(&g).expect("a small graph"), &f, items).unwrap();
        let in_words = g.n() as u64;
        prop_assert!(out.metrics.rounds <= in_words + u64::from(f.depth()));
    }
}

// The arena `Router` against the `VecDeque` scheduler it replaced. FIFO order
// is all-or-nothing — one misplaced packet moves a completion round — so these
// run many more cases than the properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn router_matches_the_reference_scheduler(seed in 0u64..4000, n in 2usize..24,
                                              k in 0usize..40) {
        let g = generators::gnp_connected(n, 0.2, seed);
        let tasks = random_batch(&g, &mut rng::seeded(seed), k);
        let mut router = Router::new(&g).expect("a small graph");
        let got = router.route(&tasks).expect("walks are valid paths");
        assert_same_report(&got, &reference_route(&g, &tasks, &[]).expect("reference"))?;
    }

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
        // The phase as route tasks, one prerequisite per hop: at an owner's
        // first hop, one word from its root down to it; per hop, one word
        // across the hop and up the far end's tree path, released by the
        // owner's word.
        let (mut tasks, mut after) = (Vec::new(), Vec::new());
        let mut owners = Vec::new();
        let mut word_of = vec![None; g.n()];
        for &(owner, e) in &hops {
            let word = *word_of[owner.index()].get_or_insert_with(|| {
                let mut path = f.path_to_root(owner);
                path.reverse();
                tasks.push(RouteTask { path, words: 1 });
                after.push(vec![]);
                owners.push((owner, 1));
                tasks.len() - 1
            });
            let (a, b) = g.endpoints(e);
            let mut path = vec![owner];
            path.extend(f.path_to_root(if a == owner { b } else { a }));
            tasks.push(RouteTask { path, words: 1 });
            after.push(vec![word]);
        }
        let want = reference_route(&g, &tasks, &after).expect("hops and tree paths are walks");
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
        // Random casts of every kind over either forest, each waiting for a
        // random subset of the earlier ones, about half the hop casts climbing
        // on to their far ends' roots; a few items each, words 0..=3.
        let phase: Vec<Cast> = (0..casts)
            .map(|c| {
                let after: Vec<usize> = (0..c).filter(|_| r.random_range(0..2u32) == 0).collect();
                let k = r.random_range(0..6usize);
                let forest = &forests[r.random_range(0..2usize)];
                let tree_items = |r: &mut _| -> Vec<(NodeId, usize)> {
                    (0..k)
                        .map(|_| (NodeId::new(Rng::random_range(r, 0..n)), Rng::random_range(r, 0..=3usize)))
                        .collect()
                };
                match r.random_range(0..3u32) {
                    0 => Cast::Up { forest, items: tree_items(&mut r), after },
                    1 => Cast::Down { forest, items: tree_items(&mut r), after },
                    _ => Cast::Hop {
                        items: (0..k)
                            .map(|_| {
                                let e = EdgeId::new(r.random_range(0..g.m()));
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
            .collect();
        // The same phase as route tasks. First the lead hops — of every hop
        // cast that waits for nothing and does not climb —, in cast order: each word is at the
        // front of its edge, so each hop's words are in by the round they take
        // alone. Then the other casts in order, each item behind a local
        // word-less barrier at its start node, added just before the cast's
        // first item starting there if an awaited item ends there: it waits
        // for the awaited items' tasks, and for the last round in which an
        // awaited lead hop ending there is in.
        let lead = |c: usize| {
            matches!(&phase[c], Cast::Hop { up: None, after, .. } if after.is_empty())
        };
        let hop_path = |owner: NodeId, e: EdgeId| {
            let (a, b) = g.endpoints(e);
            vec![owner, if a == owner { b } else { a }]
        };
        let mut tasks = Vec::new();
        for c in (0..casts).filter(|&c| lead(c)) {
            let Cast::Hop { items, .. } = &phase[c] else { unreachable!("a lead cast hops") };
            for &(owner, e, words) in items {
                tasks.push(RouteTask { path: hop_path(owner, e), words });
            }
        }
        let alone = reference_route(&g, &tasks, &[]).expect("hops are walks");
        let mut after = vec![vec![]; tasks.len()];
        let mut release = vec![0; tasks.len()];
        // Per cast, what its items leave for a later cast to wait for: (end
        // node, task, round) — the task, or for a lead hop the round it is in.
        let mut ends: Vec<Vec<(NodeId, Option<usize>, u64)>> = Vec::new();
        let mut lead_hops = 0..tasks.len();
        for (c, cast) in phase.iter().enumerate() {
            let (waits, walks): (&[usize], Vec<Walk>) = match cast {
                Cast::Hop { items, .. } if lead(c) => {
                    let in_by = items.iter().map(|&(owner, e, _)| {
                        let t = lead_hops.next().expect("one task per lead hop");
                        (hop_path(owner, e)[1], None, alone.completion_round[t])
                    });
                    ends.push(in_by.collect());
                    continue;
                }
                Cast::Up { forest, items, after } => (after, items.iter().map(|&(v, w)| {
                    (v, forest.path_to_root(v), w)
                }).collect()),
                Cast::Down { forest, items, after } => (after, items.iter().map(|&(v, w)| {
                    let mut path = forest.path_to_root(v);
                    path.reverse();
                    (path[0], path, w)
                }).collect()),
                Cast::Hop { items, up, after } => (after, items.iter().map(|&(owner, e, w)| {
                    // A climbing hop goes on from the far end to its root.
                    let mut path = hop_path(owner, e);
                    if let Some(forest) = up {
                        path.extend(&forest.path_to_root(path[1])[1..]);
                    }
                    (owner, path, w)
                }).collect()),
            };
            let awaited: Vec<(NodeId, Option<usize>, u64)> =
                waits.iter().flat_map(|&a| ends[a].iter().copied()).collect();
            let mut barrier_of = vec![None; n];
            let mut cast_ends = Vec::new();
            for (s, path, words) in walks {
                let on_s = || awaited.iter().filter(move |&&(end, ..)| end == s);
                if barrier_of[s.index()].is_none() && on_s().next().is_some() {
                    barrier_of[s.index()] = Some(tasks.len());
                    tasks.push(RouteTask { path: vec![s], words: 0 });
                    after.push(on_s().filter_map(|&(_, t, _)| t).collect());
                    release.push(on_s().map(|&(.., r)| r).max().unwrap_or(0));
                }
                cast_ends.push((*path.last().expect("non-empty"), Some(tasks.len()), 0));
                tasks.push(RouteTask { path, words });
                after.push(barrier_of[s.index()].into_iter().collect());
                release.push(0);
            }
            ends.push(cast_ends);
        }
        let want = reference_route_timed(&g, &tasks, &after, &release)
            .expect("tree paths and hops are walks");
        let mut router = Router::new(&g).expect("a small graph");
        for _ in 0..2 {
            let got = route_casts(&mut router, &phase).expect("hops leave owners");
            prop_assert_eq!(&got, &want.metrics);
        }
    }

    #[test]
    fn tree_casts_match_the_reference_on_root_paths(seed in 0u64..4000, n in 2usize..24,
                                                    k in 0usize..40) {
        let g = generators::gnp_connected(n, 0.2, seed);
        let mut r = rng::seeded(seed);
        let f = random_forest(&g, &mut r);
        let items: Vec<(NodeId, Tagged)> = (0..k)
            .map(|tag| {
                let words = r.random_range(0..=5usize);
                (NodeId::new(r.random_range(0..n)), Tagged { tag, words })
            })
            .collect();
        let tasks = |down: bool| -> Vec<RouteTask> {
            items
                .iter()
                .map(|(v, p)| {
                    let mut path = f.path_to_root(*v);
                    if down {
                        path.reverse();
                    }
                    RouteTask { path, words: p.words }
                })
                .collect()
        };
        // Delivery order at one place: by completion round, ties by insertion.
        let delivery_order = |want: &RouteReport, place: &dyn Fn(NodeId) -> NodeId, at: NodeId| {
            let mut idx: Vec<usize> = (0..k).filter(|&i| place(items[i].0) == at).collect();
            idx.sort_by_key(|&i| want.completion_round[i]);
            idx
        };
        let mut router = Router::new(&g).expect("a small graph");

        let want = reference_route(&g, &tasks(false), &[]).expect("root paths are walks");
        let up = upcast(&mut router, &f, items.clone()).expect("upcast");
        prop_assert_eq!(&up.metrics, &want.metrics);
        for (slot, &root) in f.roots().iter().enumerate() {
            let order = delivery_order(&want, &|v| f.root_of(v), root);
            prop_assert_eq!(up.at_root[slot].len(), order.len());
            for (d, i) in up.at_root[slot].iter().zip(order) {
                prop_assert_eq!((d.origin, &d.payload), (items[i].0, &items[i].1));
            }
        }

        let want = reference_route(&g, &tasks(true), &[]).expect("root paths are walks");
        let down = downcast(&mut router, &f, items.clone()).expect("downcast");
        prop_assert_eq!(&down.metrics, &want.metrics);
        for v in g.nodes() {
            let got: Vec<&Tagged> = down.at_node[v.index()].iter().collect();
            let order = delivery_order(&want, &|v| v, v);
            prop_assert_eq!(got, order.iter().map(|&i| &items[i].1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_reused_router_equals_fresh_ones(seed in 0u64..4000, n in 2usize..20) {
        let g = generators::gnp_connected(n, 0.25, seed);
        let mut r = rng::seeded(seed);
        let mut reused = Router::new(&g).expect("a small graph");
        for _ in 0..50 {
            let k = r.random_range(0..24usize);
            let tasks = random_batch(&g, &mut r, k);
            let got = reused.route(&tasks).expect("walks are valid paths");
            let mut fresh = Router::new(&g).expect("a small graph");
            assert_same_report(&got, &fresh.route(&tasks).expect("fresh"))?;
        }
    }

    #[test]
    fn a_rejected_batch_leaves_the_router_clean(seed in 0u64..4000, n in 4usize..20,
                                                k in 2usize..24) {
        // The path graph has no chords, so jumping two nodes is never an edge.
        let g = generators::path(n);
        let mut r = rng::seeded(seed);
        let jump = RouteTask { path: vec![NodeId::new(0), NodeId::new(2)], words: 3 };
        let mut bad = random_batch(&g, &mut r, k);
        let first = r.random_range(0..k - 1);
        bad[first] = jump.clone();
        bad[r.random_range(first + 1..k)] = jump;

        let mut router = Router::new(&g).expect("a small graph");
        let warm = random_batch(&g, &mut r, k);
        router.route(&warm).expect("walks are valid paths");
        prop_assert_eq!(router.route(&bad).unwrap_err(), EngineError::InvalidPath { task: first });
        prop_assert_eq!(reference_route(&g, &bad, &[]).unwrap_err(),
                        EngineError::InvalidPath { task: first });
        let next = random_batch(&g, &mut r, k);
        let got = router.route(&next).expect("walks are valid paths");
        let mut fresh = Router::new(&g).expect("a small graph");
        assert_same_report(&got, &fresh.route(&next).expect("fresh"))?;
    }
}
