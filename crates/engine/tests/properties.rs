//! Property-based tests for the execution engine: routing always delivers, tree
//! operations deliver everything exactly once, capacity is respected, the
//! accounting invariants hold for arbitrary inputs, a run is identical —
//! outputs and `Metrics` — at every thread count, and the packed wire codec
//! of the message plane round-trips every primitive payload.

use congest_engine::{
    downcast, router, run_bcongest, treeops::Forest, upcast, BcongestAlgorithm, ExecutorConfig,
    LocalView, RunOptions, WireDecode,
};
use congest_graph::{generators, reference, EdgeId, NodeId};
use proptest::prelude::*;

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
            tasks.push(router::RouteTask { path, words: 1 + i % 3 });
        }
        let report = router::route(&g, &tasks).unwrap();
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
        let t = router::RouteTask {
            path: vec![NodeId::new(0), NodeId::new(1)],
            words: 1,
        };
        let tasks = vec![t; k];
        let report = router::route(&g, &tasks).unwrap();
        prop_assert_eq!(report.metrics.rounds, k as u64);
        let _ = seed;
    }

    #[test]
    fn upcast_delivers_all_items_once(seed in 0u64..100) {
        let g = generators::gnp_connected(20, 0.2, seed);
        let f = bfs_forest(&g, 0);
        let items: Vec<(NodeId, u64)> = g.nodes().map(|v| (v, v.index() as u64)).collect();
        let out = upcast(&g, &f, items).unwrap();
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
        let out = downcast(&g, &f, items.clone()).unwrap();
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
    fn upcast_rounds_within_lemma_1_5(seed in 0u64..60) {
        // Lemma 1.5: O(In/log n) rounds = O(#words) with our unit-word accounting.
        let g = generators::gnp_connected(16, 0.3, seed);
        let f = bfs_forest(&g, 0);
        let items: Vec<(NodeId, u64)> = g.nodes().map(|v| (v, 1u64)).collect();
        let out = upcast(&g, &f, items).unwrap();
        let in_words = g.n() as u64;
        prop_assert!(out.metrics.rounds <= in_words + u64::from(f.depth()));
    }
}
