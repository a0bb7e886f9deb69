//! The registry catalogue: every algorithm in the workspace, wrapped as
//! [`Workload`] entries over the shared graph families.
//!
//! Families and seeds are fixed here, once — the conformance suites, the
//! determinism pins, the invariant tests and the benchmark all consume
//! these exact entries, so "the workload list" has a single definition.

use crate::adapter::{BuildFn, FnWorkload};
use crate::{BuiltInput, MetricsEnvelope, RunOutcome, Workload};
use apsp_core::verify::check_mst;
use congest_algos::bfs::Bfs;
use congest_algos::gossip::{expected_gossip, expected_gossip_masked, GossipOnce};
use congest_algos::leader::LeaderElect;
use congest_algos::matching_bipartite::BipartiteMatching;
use congest_algos::matching_maximal::{matching_pairs, IsraeliItai};
use congest_algos::mis::{is_valid_mis, LubyMis};
use congest_algos::mst::{distributed_mst, message_bound, MstConfig};
use congest_decomp::baswana_sen::{validate_hierarchy, Hierarchy};
use congest_decomp::ldc::{build_ldc, validate_ldc};
use congest_decomp::spanner::{measured_stretch, spanner_edges};
use congest_engine::faults::{masked_bfs, masked_components};
use congest_engine::trace::record_bcongest;
use congest_engine::{
    run_bcongest, BcongestAlgorithm, BcongestRun, FaultEvent, FaultPlan, FaultResponse, Metrics,
    RunOptions, WireEncode,
};
use congest_graph::{generators, reference, Graph, NodeId, WeightedGraph};
use std::convert::identity;
use std::sync::Arc;

/// The named graph families the per-family entries are instantiated over:
/// random + pathological shapes — G(n,p) sparse and dense, a path (deep
/// idle-skipping), a star (maximally skewed degrees, wildly unequal
/// chunk/shard loads), a cycle, a clustered caveman graph, a
/// preferential-attachment power-law graph (heavy-tailed degrees), and a
/// hub-and-spoke topology (all traffic funnels through a small clique).
pub const FAMILIES: [&str; 8] = [
    "gnp",
    "dense-gnp",
    "path",
    "star",
    "cycle",
    "caveman",
    "power-law",
    "hub-spoke",
];

/// Builds the named family's graph (deterministic; see [`FAMILIES`]).
fn family_graph(family: &str) -> Graph {
    match family {
        "gnp" => generators::gnp_connected(60, 0.12, 11),
        "dense-gnp" => generators::gnp_connected(40, 0.5, 12),
        "path" => generators::path(48),
        "star" => generators::star(49),
        "cycle" => generators::cycle(40),
        "caveman" => generators::caveman(6, 8),
        "power-law" => generators::power_law(56, 2, 21),
        "hub-spoke" => generators::hub_and_spoke(6, 8),
        // The name always comes from `FAMILIES`: every caller is in this file.
        other => unreachable!("unknown graph family {other:?}"),
    }
}

/// A BCONGEST run without its metrics: the outputs plus the word counts the
/// conformance contract pins alongside them.
#[derive(Debug)]
pub(crate) struct BcongestValue<O> {
    pub(crate) outputs: Vec<O>,
    // The word counts are read through the derived `Debug` rendering (they
    // are part of the conformance-compared `RunOutcome::output` string), which
    // the dead-code lint does not see.
    #[allow(dead_code)]
    input_words: usize,
    #[allow(dead_code)]
    output_words: usize,
}

impl<O> AsRef<[O]> for BcongestValue<O> {
    fn as_ref(&self) -> &[O] {
        &self.outputs
    }
}

/// Splits a run into its value and its metrics.
fn split<O>(run: BcongestRun<O>) -> (BcongestValue<O>, Metrics) {
    let BcongestRun {
        outputs,
        metrics,
        input_words,
        output_words,
    } = run;
    let value = BcongestValue {
        outputs,
        input_words,
        output_words,
    };
    (value, metrics)
}

/// Wraps a [`BcongestAlgorithm`] as a workload entry. `value` picks what of
/// the run the entry renders into [`RunOutcome::output`]: the whole
/// [`BcongestValue`] (`identity`) or just its outputs. `plan` derives the fault
/// plan from the built input (`|_| None` for a fault-free entry); it feeds both
/// the normal runner and the trace recorder, so `run`, `run_traced` and
/// `replay` all execute the same scenario.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bcongest_entry<A, V>(
    algorithm: &'static str,
    family: String,
    seed: u64,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    make: impl Fn(&BuiltInput) -> A + Send + Sync + 'static,
    value: fn(BcongestValue<A::Output>) -> V,
    plan: impl Fn(&BuiltInput) -> Option<FaultPlan> + Send + Sync + 'static,
    oracle: impl Fn(&BuiltInput, &[A::Output]) -> Result<(), String> + Send + Sync + 'static,
    envelope: impl Fn(&BuiltInput) -> MetricsEnvelope + Send + Sync + 'static,
) -> Box<dyn Workload>
where
    A: BcongestAlgorithm + Send + Sync + 'static,
    A::Output: 'static,
    V: AsRef<[A::Output]> + std::fmt::Debug + 'static,
{
    // Every message of an engine-runner entry travels the plane at the packed
    // codec width, so the memory envelope is exact, not an estimate.
    let msg_bytes = 4 * <A::Msg as WireEncode>::LANES as u64;
    let make = Arc::new(make);
    let plan = Arc::new(plan);
    Box::new(FnWorkload {
        algorithm,
        family,
        seed,
        build: Box::new(build) as BuildFn,
        exec: Box::new({
            let (make, plan) = (Arc::clone(&make), Arc::clone(&plan));
            move |input, cfg| {
                let algo = make(input);
                let run = run_bcongest(
                    &algo,
                    &input.graph,
                    input.weights.as_deref(),
                    &RunOptions {
                        seed,
                        exec: cfg.clone(),
                        faults: plan(input),
                    },
                )?;
                let (run, metrics) = split(run);
                Ok((value(run), metrics))
            }
        }),
        oracle: Box::new(move |input, value: &V| oracle(input, value.as_ref())),
        envelope: Box::new(move |input| envelope(input).with_message_bytes(msg_bytes)),
        trace: Some(Box::new(move |input, cfg, name| {
            let algo = make(input);
            let opts = RunOptions {
                seed,
                exec: cfg.clone(),
                faults: plan(input),
            };
            let (run, trace) =
                record_bcongest(&algo, &input.graph, input.weights.as_deref(), &opts, name)?;
            let (run, metrics) = split(run);
            Ok((
                RunOutcome {
                    output: format!("{:?}", value(run)),
                    metrics,
                },
                trace,
            ))
        })),
    })
}

/// Wraps a composite entry point (APSP, MST, trade-off, LDC — anything that is
/// not a single engine run) as a workload entry.
pub(crate) fn composite_entry<T: std::fmt::Debug + 'static>(
    algorithm: &'static str,
    family: String,
    seed: u64,
    build: impl Fn() -> BuiltInput + Send + Sync + 'static,
    exec: impl Fn(
            &BuiltInput,
            &congest_engine::ExecutorConfig,
        ) -> Result<(T, congest_engine::Metrics), congest_engine::EngineError>
        + Send
        + Sync
        + 'static,
    oracle: impl Fn(&BuiltInput, &T) -> Result<(), String> + Send + Sync + 'static,
    envelope: impl Fn(&BuiltInput) -> MetricsEnvelope + Send + Sync + 'static,
) -> Box<dyn Workload> {
    Box::new(FnWorkload {
        algorithm,
        family,
        seed,
        build: Box::new(build) as BuildFn,
        exec: Box::new(exec),
        oracle: Box::new(oracle),
        envelope: Box::new(envelope),
        trace: None,
    })
}

/// Validates a BFS answer (per-node distance + parent pointer) against the
/// sequential reference from `src`.
pub(crate) fn check_bfs_shape(
    g: &Graph,
    src: NodeId,
    dist_of: impl Fn(usize) -> Option<u32>,
    parent_of: impl Fn(usize) -> Option<NodeId>,
) -> Result<(), String> {
    let want = reference::bfs_distances(g, src);
    for (v, &want_v) in want.iter().enumerate() {
        let dist = dist_of(v);
        if dist != want_v {
            return Err(format!("dist({v}) = {dist:?}, want {want_v:?}"));
        }
        match parent_of(v) {
            None => {
                if dist.is_some() && v != src.index() {
                    return Err(format!("reached node {v} has no parent"));
                }
            }
            Some(p) => {
                if !g.neighbors(NodeId::new(v)).contains(&p) {
                    return Err(format!("parent of {v} is not a neighbor"));
                }
                if dist_of(p.index()).map(|d| d + 1) != dist {
                    return Err(format!("parent of {v} is not one hop closer"));
                }
            }
        }
    }
    Ok(())
}

/// The workload registry: one entry per `(algorithm, family)` pair, unique
/// names, every entry oracle-checked and envelope-bounded. See the crate docs
/// for what registration buys.
pub fn registry() -> Vec<Box<dyn Workload>> {
    let mut entries: Vec<Box<dyn Workload>> = Vec::new();

    // BFS from node 0 — the paper's simplest broadcast payload. Every node
    // broadcasts at most once: messages ≤ Σ deg = 2m, rounds ≤ n + guard.
    for &family in &FAMILIES {
        entries.push(crate::make::bfs(
            family.to_string(),
            move || BuiltInput::unweighted(family_graph(family)),
            5,
        ));
    }

    // Leader election (min-ID flood with BFS-parent tracking). A node
    // re-broadcasts only when its candidate improves (≤ n times): messages
    // ≤ 2mn, rounds ≤ 2n + 4 (the algorithm's own bound).
    for &family in &FAMILIES {
        entries.push(bcongest_entry(
            "leader-election",
            family.to_string(),
            7,
            move || BuiltInput::unweighted(family_graph(family)),
            |_| LeaderElect,
            identity,
            |_| None,
            |input, outputs| {
                let g = &input.graph;
                let want = reference::bfs_distances(g, NodeId::new(0));
                for (v, out) in outputs.iter().enumerate() {
                    if out.leader != NodeId::new(0) {
                        return Err(format!("node {v} elected {:?}, want node 0", out.leader));
                    }
                    if Some(out.dist) != want[v] {
                        return Err(format!("dist({v}) = {}, want {:?}", out.dist, want[v]));
                    }
                }
                check_bfs_shape(
                    g,
                    NodeId::new(0),
                    |v| Some(outputs[v].dist),
                    |v| outputs[v].parent,
                )
            },
            |input| {
                let (n, m) = (input.graph.n() as u64, input.graph.m() as u64);
                MetricsEnvelope::bounds(2 * m * n, 2 * n + 4)
            },
        ));
    }

    // One-shot gossip — the delivery probe, with its closed-form local
    // oracle. Exactly one message per edge direction.
    for &family in &FAMILIES {
        entries.push(crate::make::gossip(
            family.to_string(),
            move || BuiltInput::unweighted(family_graph(family)),
            9,
        ));
    }

    // The Theorem 1.4 workload: all-sources BFS collection under random
    // per-instance delays — per-node randomness plus staggered wave starts,
    // the hardest BCONGEST payload to keep bitwise stable under resharding.
    for &family in &FAMILIES {
        entries.push(crate::make::bfs_collection(
            family.to_string(),
            move || BuiltInput::unweighted(family_graph(family)),
            13,
        ));
    }

    // Message-optimal GHS MST over every family (tie-heavy weights exercise
    // the (weight, EdgeId) total order), under the closed-form Õ(m) envelope.
    for &family in &FAMILIES {
        entries.push(crate::make::mst(
            family.to_string(),
            move || {
                let g = family_graph(family);
                BuiltInput::weighted(WeightedGraph::random_weights(&g, 1..=9, 17))
            },
            17,
        ));
    }

    // Luby's MIS — the paper's introductory broadcast-based example — on the
    // shapes with the most skewed priority neighborhoods.
    for family in ["gnp", "star", "caveman"] {
        entries.push(bcongest_entry(
            "luby-mis",
            family.to_string(),
            41,
            move || BuiltInput::unweighted(family_graph(family)),
            |_| LubyMis,
            identity,
            |_| None,
            |input, outputs| {
                is_valid_mis(&input.graph, outputs)
                    .then_some(())
                    .ok_or_else(|| "not a maximal independent set".to_string())
            },
            |_| MetricsEnvelope::unbounded(),
        ));
    }

    // Israeli–Itai randomized maximal matching (the AKO preprocessing step).
    for family in ["gnp", "cycle"] {
        entries.push(bcongest_entry(
            "maximal-matching",
            family.to_string(),
            43,
            move || BuiltInput::unweighted(family_graph(family)),
            |_| IsraeliItai,
            identity,
            |_| None,
            |input, outputs| {
                // `matching_pairs` asserts partner mutuality internally.
                let pairs = matching_pairs(outputs);
                reference::is_maximal_matching(&input.graph, &pairs)
                    .then_some(())
                    .ok_or_else(|| "not a maximal matching".to_string())
            },
            |_| MetricsEnvelope::unbounded(),
        ));
    }

    // Ahmadi–Kuhn–Oshman exact bipartite maximum matching (Corollary 2.8's
    // payload), differentially sized against Hopcroft–Karp.
    entries.push(bcongest_entry(
        "bipartite-matching",
        "random-bipartite".to_string(),
        11,
        || BuiltInput::unweighted(generators::random_bipartite_connected(8, 9, 0.35, 51)),
        |_| BipartiteMatching,
        identity,
        |_| None,
        |input, outputs| {
            let g = &input.graph;
            let pairs = matching_pairs(outputs);
            if !reference::is_matching(g, &pairs) {
                return Err("not a matching".to_string());
            }
            let want = reference::hopcroft_karp(g).ok_or("input graph is not bipartite")?;
            (pairs.len() == want)
                .then_some(())
                .ok_or_else(|| format!("matching size {} is not maximum ({want})", pairs.len()))
        },
        |_| MetricsEnvelope::unbounded(),
    ));

    // Message-optimal weighted APSP through the Theorem 2.1 simulation:
    // leader election and the payload's round loop run under the configured
    // executor.
    entries.push(crate::make::weighted_apsp(
        "gnp".to_string(),
        || {
            let g = generators::gnp_connected(26, 0.18, 21);
            BuiltInput::weighted(WeightedGraph::random_weights(&g, 1..=9, 21))
        },
        3,
    ));

    // Both routes of the k-parameterized MST trade-off: controlled merging +
    // leader-collected central finish (k < n) and pure GHS (k = n).
    let tradeoff_build = || {
        let g = generators::gnp_connected(40, 0.15, 23);
        BuiltInput::weighted(WeightedGraph::random_unique_weights(&g, 23))
    };
    entries.push(crate::make::mst_tradeoff(
        "central-k4".to_string(),
        tradeoff_build,
        4,
        3,
    ));
    entries.push(crate::make::mst_tradeoff(
        "ghs-kn".to_string(),
        tradeoff_build,
        usize::MAX,
        3,
    ));

    // The serving layer (congest-serve): DistanceOracles over the paper's
    // outputs, with the oracle's deterministic hit/miss accounting pinned in
    // the conformance-compared output alongside the served answers. Three
    // entries cover the three query paths: point+batched lookups over exact
    // APSP, estimate-typed lookups over the §3.3 landmark sketch, and
    // k-nearest-by-distance ordering.
    entries.push(crate::make::serve_apsp(
        "gnp".to_string(),
        || {
            let g = generators::gnp_connected(20, 0.2, 29);
            BuiltInput::weighted(WeightedGraph::random_weights(&g, 1..=9, 29))
        },
        48,
        29,
    ));
    entries.push(crate::make::serve_landmarks(
        "gnp".to_string(),
        || BuiltInput::unweighted(generators::gnp_connected(24, 0.15, 31)),
        0.25,
        48,
        31,
    ));
    entries.push(crate::make::serve_knn(
        "gnp".to_string(),
        || {
            let g = generators::gnp_connected(18, 0.25, 37);
            BuiltInput::weighted(WeightedGraph::random_weights(&g, 1..=9, 37))
        },
        4,
        8,
        37,
    ));

    // The LDC decomposition of Definition 2.3/Lemma 2.4 (from congest-decomp):
    // a distributed MPX clustering plus the sparse inter-cluster edge set F,
    // validated against the definition's (r, d) bounds.
    entries.push(composite_entry(
        "ldc-decomposition",
        "gnp".to_string(),
        61,
        || BuiltInput::unweighted(generators::gnp_connected(48, 0.1, 61)),
        |input, _| {
            let ldc = build_ldc(&input.graph, 61)?;
            let metrics = ldc.metrics.clone();
            Ok((ldc, metrics))
        },
        |input, ldc| {
            // Validates the decomposition under test (the one `exec`
            // produced), not a fresh rebuild.
            let g = &input.graph;
            let lnn = (g.n().max(2) as f64).ln();
            validate_ldc(g, ldc, (8.0 * lnn) as u32, (10.0 * lnn) as usize)
        },
        // MPX claim/announce waves are 4-lane packed messages (16 bytes).
        |_| MetricsEnvelope::unbounded().with_message_bytes(16),
    ));

    // --- fault-injection scenario axes -----------------------------------
    //
    // Every `faulty-*` entry threads a deterministic seeded FaultPlan through
    // the engine runner and validates against a *surviving-graph* oracle:
    // masked BFS, per-component minima, or the masked gossip fold. Because the
    // plan closure also feeds the trace recorder, these scenarios are fully
    // replayable (`tests/fault_conformance.rs` pins them across the thread
    // matrix).

    // BFS under 3 crashes at round 1 (source protected), Restart semantics:
    // live nodes must report masked-BFS distances on the surviving graph.
    // Restart re-floods at most once per epoch: messages ≤ 2 epochs × 2m.
    let bfs_crash_plan = |g: &Graph| FaultPlan::crashes(g, 3, 1, 5, &[NodeId::new(0)]);
    entries.push(bcongest_entry(
        "faulty-bfs",
        "gnp-crash".to_string(),
        5,
        || BuiltInput::unweighted(family_graph("gnp")),
        |_| Bfs::new(NodeId::new(0)),
        identity,
        move |input| Some(bfs_crash_plan(&input.graph)),
        move |input, outputs| {
            let g = &input.graph;
            let mask = bfs_crash_plan(g).final_mask(g);
            let want = masked_bfs(g, &mask, NodeId::new(0));
            for v in g.nodes() {
                if mask.node_up[v.index()] && outputs[v.index()].dist != want[v.index()] {
                    return Err(format!(
                        "dist({v:?}) = {:?}, surviving-graph oracle wants {:?}",
                        outputs[v.index()].dist,
                        want[v.index()]
                    ));
                }
            }
            Ok(())
        },
        |input| MetricsEnvelope::messages(4 * input.graph.m() as u64),
    ));

    // Leader election under 3 unprotected crashes at round 1, Restart: each
    // surviving component independently elects its minimum live ID.
    let leader_crash_plan = |g: &Graph| FaultPlan::crashes(g, 3, 1, 7, &[]);
    entries.push(bcongest_entry(
        "faulty-leader",
        "gnp-crash".to_string(),
        7,
        || BuiltInput::unweighted(family_graph("gnp")),
        |_| LeaderElect,
        identity,
        move |input| Some(leader_crash_plan(&input.graph)),
        move |input, outputs| {
            let g = &input.graph;
            let mask = leader_crash_plan(g).final_mask(g);
            let want = masked_components(g, &mask);
            for v in g.nodes() {
                if let Some(leader) = want[v.index()] {
                    if outputs[v.index()].leader != leader {
                        return Err(format!(
                            "node {v:?} elected {:?}, its surviving component's minimum is {leader:?}",
                            outputs[v.index()].leader
                        ));
                    }
                }
            }
            Ok(())
        },
        |input| {
            let (n, m) = (input.graph.n() as u64, input.graph.m() as u64);
            MetricsEnvelope::messages(4 * m * n)
        },
    ));

    // Leader election under additive (up-only) edge churn, SelfHeal: the
    // path's central bridge is down from round 0 and comes up at round 60,
    // long after both halves quiesced on their local minima. The `on_fault`
    // hook re-arms the flood, and min-ID flooding is monotone, so the healed
    // election must equal the fault-free full-graph result.
    let heal_plan = |g: &Graph| {
        let bridge = g
            .edge_between(NodeId::new(23), NodeId::new(24))
            .expect("path bridge edge");
        FaultPlan::new(FaultResponse::SelfHeal)
            .at(0, FaultEvent::EdgeDown(bridge))
            .at(60, FaultEvent::EdgeUp(bridge))
    };
    entries.push(bcongest_entry(
        "faulty-leader",
        "path-heal".to_string(),
        7,
        || BuiltInput::unweighted(generators::path(48)),
        |_| LeaderElect,
        identity,
        move |input| Some(heal_plan(&input.graph)),
        |input, outputs| {
            let g = &input.graph;
            let want = reference::bfs_distances(g, NodeId::new(0));
            for (v, out) in outputs.iter().enumerate() {
                if out.leader != NodeId::new(0) {
                    return Err(format!("node {v} elected {:?} after heal", out.leader));
                }
                if Some(out.dist) != want[v] {
                    return Err(format!("dist({v}) = {}, want {:?}", out.dist, want[v]));
                }
            }
            check_bfs_shape(
                g,
                NodeId::new(0),
                |v| Some(outputs[v].dist),
                |v| outputs[v].parent,
            )
        },
        |_| MetricsEnvelope::unbounded(),
    ));

    // Gossip under 3 crashes at round 1, Restart: the final checksum at every
    // live node is one masked exchange folded at the last fault round.
    let gossip_crash_plan = |g: &Graph| FaultPlan::crashes(g, 3, 1, 9, &[]);
    entries.push(bcongest_entry(
        "faulty-gossip",
        "gnp-crash".to_string(),
        9,
        || BuiltInput::unweighted(family_graph("gnp")),
        |_| GossipOnce,
        |value| value.outputs,
        move |input| Some(gossip_crash_plan(&input.graph)),
        move |input, outputs| {
            let g = &input.graph;
            let plan = gossip_crash_plan(g);
            let mask = plan.final_mask(g);
            let last = plan.last_fault_round().expect("plan has faults");
            let want = expected_gossip_masked(g, &mask, last);
            for v in g.nodes() {
                if let Some(w) = want[v.index()] {
                    if outputs[v.index()] != w {
                        return Err(format!("checksum at {v:?} diverges from masked oracle"));
                    }
                }
            }
            Ok(())
        },
        |input| MetricsEnvelope::messages(4 * input.graph.m() as u64),
    ));

    // Gossip under transient edge churn (4 edges down at round 0, back up at
    // round 2), Restart: the final topology is fully healed, so every node
    // folds a complete exchange at the last fault round.
    let gossip_churn_plan =
        |g: &Graph| FaultPlan::edge_churn(g, 4, 0, 2, 9, FaultResponse::Restart);
    entries.push(bcongest_entry(
        "faulty-gossip",
        "gnp-churn".to_string(),
        9,
        || BuiltInput::unweighted(family_graph("gnp")),
        |_| GossipOnce,
        |value| value.outputs,
        move |input| Some(gossip_churn_plan(&input.graph)),
        move |input, outputs| {
            let g = &input.graph;
            let plan = gossip_churn_plan(g);
            let mask = plan.final_mask(g);
            let last = plan.last_fault_round().expect("plan has faults");
            let want = expected_gossip_masked(g, &mask, last);
            for v in g.nodes() {
                match want[v.index()] {
                    Some(w) if outputs[v.index()] == w => {}
                    _ => return Err(format!("checksum at {v:?} diverges from healed oracle")),
                }
            }
            Ok(())
        },
        |input| MetricsEnvelope::messages(6 * input.graph.m() as u64),
    ));

    // MST with workload-level crash semantics: 3 nodes (never node 0) crash
    // before the run starts, and GHS restarts on node 0's surviving component.
    // The Kruskal differential oracle checks the MST *of that subgraph*.
    let mst_crash_plan = |g: &Graph| FaultPlan::crashes(g, 3, 0, 17, &[NodeId::new(0)]);
    entries.push(composite_entry(
        "faulty-mst",
        "gnp-crash".to_string(),
        17,
        || {
            let g = family_graph("gnp");
            BuiltInput::weighted(WeightedGraph::random_weights(&g, 1..=9, 17))
        },
        move |input, _| {
            let wg = surviving_component(&input.weighted_graph(), &mst_crash_plan(&input.graph));
            let run = distributed_mst(
                &wg,
                &MstConfig {
                    message_budget: Some(message_bound(wg.n(), wg.m())),
                    ..Default::default()
                },
            )?;
            Ok(((run.edges, run.total_weight, run.complete), run.metrics))
        },
        move |input, value| {
            let wg = surviving_component(&input.weighted_graph(), &mst_crash_plan(&input.graph));
            check_mst(&wg, &value.0)
        },
        |input| {
            MetricsEnvelope::messages(message_bound(input.graph.n(), input.graph.m()))
                .with_message_bytes(8)
        },
    ));

    // --- skewed-topology scenario axes -----------------------------------
    //
    // Larger instances of the two skewed generators than the per-family
    // loops use: heavy-tailed preferential attachment and a hub clique
    // carrying 24 leaves per hub — the shapes where per-node fan-out is
    // most unbalanced across chunks/shards.
    entries.push(bcongest_entry(
        "skewed-bfs",
        "power-law-wide".to_string(),
        5,
        || BuiltInput::unweighted(generators::power_law(120, 3, 7)),
        |_| Bfs::new(NodeId::new(0)),
        identity,
        |_| None,
        |input, outputs| {
            check_bfs_shape(
                &input.graph,
                NodeId::new(0),
                |v| outputs[v].dist,
                |v| outputs[v].parent,
            )
        },
        |input| MetricsEnvelope::bounds(2 * input.graph.m() as u64, input.graph.n() as u64 + 2),
    ));
    entries.push(bcongest_entry(
        "skewed-gossip",
        "hub-spoke-wide".to_string(),
        9,
        || BuiltInput::unweighted(generators::hub_and_spoke(8, 24)),
        |_| GossipOnce,
        |value| value.outputs,
        |_| None,
        |input, outputs| {
            let want = expected_gossip(&input.graph);
            (outputs == &want[..])
                .then_some(())
                .ok_or_else(|| "checksums diverge from the local oracle".to_string())
        },
        |input| MetricsEnvelope::bounds(2 * input.graph.m() as u64, 2),
    ));

    // Baswana–Sen spanner hierarchy (ε = 1/2, κ = 2): exact `κ·2m` accounted
    // message cost, structural validation, and a measured stretch within the
    // 2κ−1 guarantee on sampled sources.
    entries.push(composite_entry(
        "baswana-sen-spanner",
        "gnp".to_string(),
        19,
        || BuiltInput::unweighted(generators::gnp_connected(48, 0.12, 19)),
        |input, _cfg| {
            // The hierarchy build is a decomposition pass with closed-form
            // accounting, identical for every executor configuration.
            let h = Hierarchy::build(&input.graph, 0.5, 19);
            let metrics = h.metrics.clone();
            let edges = spanner_edges(&input.graph, &h);
            Ok(((edges, h.kappa), metrics))
        },
        |input, value| {
            let g = &input.graph;
            let h = Hierarchy::build(g, 0.5, 19);
            validate_hierarchy(g, &h)?;
            if value.1 != h.kappa {
                return Err(format!(
                    "kappa {} diverges from rebuild {}",
                    value.1, h.kappa
                ));
            }
            let stretch = measured_stretch(g, &h, 12, 19);
            let bound = (2 * h.kappa - 1) as f64;
            if stretch > bound {
                return Err(format!("measured stretch {stretch} exceeds 2κ−1 = {bound}"));
            }
            Ok(())
        },
        // κ = ⌈1/ε⌉ = 2 charged passes over both edge directions, one word
        // (8 bytes) each.
        |input| MetricsEnvelope::messages(4 * input.graph.m() as u64).with_message_bytes(8),
    ));

    entries
}

/// The induced weighted subgraph on node 0's surviving component after
/// `plan`'s faults — the workload-level "restart on what survived" semantics
/// for composite algorithms that assume a connected input.
fn surviving_component(wg: &WeightedGraph, plan: &FaultPlan) -> WeightedGraph {
    let g = wg.graph();
    let mask = plan.final_mask(g);
    let comp = masked_components(g, &mask);
    // Node 0 is protected in the crash plans, so its component's minimum live
    // ID is node 0 itself.
    let mut renumber: Vec<Option<usize>> = vec![None; g.n()];
    let mut kept = 0usize;
    for v in g.nodes() {
        if comp[v.index()] == Some(NodeId::new(0)) {
            renumber[v.index()] = Some(kept);
            kept += 1;
        }
    }
    let mut edges = Vec::new();
    let mut weight_of = std::collections::BTreeMap::new();
    for (e, u, v) in g.edges() {
        if let (Some(u2), Some(v2)) = (renumber[u.index()], renumber[v.index()]) {
            if mask.allows(g, e) {
                edges.push((u2, v2));
                weight_of.insert((u2.min(v2), u2.max(v2)), wg.weight(e));
            }
        }
    }
    // `from_edges` canonicalizes edge order, so weights re-attach by endpoint
    // pair rather than by position.
    let sub = Graph::from_edges(kept, &edges);
    let weights = sub
        .edges()
        .map(|(_, u, v)| {
            let (a, b) = (u.index().min(v.index()), u.index().max(v.index()));
            weight_of[&(a, b)]
        })
        .collect();
    WeightedGraph::from_weights(sub, weights).expect("one weight per surviving edge")
}
