//! The fault-injection conformance contract, enforced over every `faulty-*`
//! registry scenario: deterministic seeded fault plans (edge churn, crashes,
//! crash/recovery) must produce **byte-identical**
//! [`RunOutcome`](congest_apsp::workloads::RunOutcome)s across the thread
//! matrix — 2, 4 and 8 workers against the one-thread run. Fault injection is
//! part of the execution semantics, not a perturbation: which messages drop,
//! which nodes freeze, and when restarts fire is a pure function of
//! `(plan, seed, round)`, so no thread count may disagree on a single byte of
//! output or a single metrics counter.
//!
//! On top of raw conformance, the suite pins the **replayable-trace closure
//! property**: recording a run yields a [`TraceLog`] that (a) survives the
//! JSONL codec byte-for-byte, and (b) [`replay`]s — re-executing the workload
//! named in its header under the recorded executor configuration — into an
//! identical trace, per-round deliveries, fault events, outputs and the full
//! [`Metrics`](congest_apsp::engine::Metrics) congestion vector included.
//!
//! [`TraceLog`]: congest_apsp::workloads::TraceLog
//! [`replay`]: congest_apsp::workloads::replay

use congest_apsp::engine::ExecutorConfig;
use congest_apsp::workloads::{configs::thread_matrix, find, registry, replay, TraceLog, Workload};

/// All `faulty-*` scenario entries (crash, churn, and heal axes).
fn faulty_entries() -> Vec<Box<dyn Workload>> {
    registry()
        .into_iter()
        .filter(|w| w.algorithm().starts_with("faulty-"))
        .collect()
}

#[test]
fn faulty_entries_identical_across_the_full_matrix() {
    let configs = thread_matrix();
    let list = faulty_entries();
    assert!(
        list.len() >= 6,
        "expected the crash/churn/heal scenario axes, found {}",
        list.len()
    );
    for w in list {
        let input = w.build();
        let base = w
            .run_built(&input, &ExecutorConfig::default())
            .unwrap_or_else(|e| panic!("{}: one-thread run failed: {e}", w.name()));
        for (label, cfg) in &configs {
            let run = w
                .run_built(&input, cfg)
                .unwrap_or_else(|e| panic!("{}: run under {label} failed: {e}", w.name()));
            assert_eq!(base.output, run.output, "{}: outputs @ {label}", w.name());
            assert_eq!(base.metrics, run.metrics, "{}: metrics @ {label}", w.name());
        }
    }
}

#[test]
fn engine_faulted_scenarios_actually_drop_messages() {
    // The differential oracles would pass vacuously if the plans never bit;
    // pin that every engine-level scenario loses real messages to its faults.
    for name in [
        "faulty-bfs/gnp-crash",
        "faulty-leader/gnp-crash",
        "faulty-leader/path-heal",
        "faulty-gossip/gnp-crash",
        "faulty-gossip/gnp-churn",
    ] {
        let w = find(name).expect("registered faulty scenario");
        let run = w.run(&ExecutorConfig::default()).expect("faulted run");
        assert!(
            run.metrics.dropped_messages > 0,
            "{name}: plan dropped no messages"
        );
    }
}

#[test]
fn replay_reproduces_every_cell_of_the_matrix() {
    // Record → encode → decode → replay, for every faulty scenario at one
    // thread and at every thread-matrix cell. `replay` re-executes from
    // scratch and demands the fresh trace equal the recorded one — outputs,
    // per-round deliveries and fault events, and the exact metrics including
    // the per-edge congestion vector.
    for w in faulty_entries() {
        let one = ("1-thread".to_string(), ExecutorConfig::default());
        for (label, cfg) in std::iter::once(&one).chain(&thread_matrix()) {
            let (outcome, trace) = w
                .run_traced(cfg)
                .unwrap_or_else(|e| panic!("{} @ {label}: traced run failed: {e}", w.name()));
            assert_eq!(
                trace.metrics.congestion,
                outcome.metrics.congestion().to_vec(),
                "{} @ {label}: trace must mirror the congestion vector",
                w.name()
            );
            assert_eq!(
                trace.metrics.dropped_messages,
                outcome.metrics.dropped_messages,
                "{} @ {label}: trace must mirror the drop counter",
                w.name()
            );
            let decoded = TraceLog::from_jsonl(&trace.to_jsonl())
                .unwrap_or_else(|e| panic!("{} @ {label}: codec failed: {e}", w.name()));
            assert_eq!(decoded, trace, "{} @ {label}: JSONL roundtrip", w.name());
            replay(&decoded)
                .unwrap_or_else(|e| panic!("{} @ {label}: replay diverged: {e}", w.name()));
        }
    }
}

/// Traces written before the header lost its `backend` and `plane` keys must
/// keep loading and replaying: the parser ignores keys it does not need.
#[test]
fn headers_with_retired_keys_still_decode_and_replay() {
    let w = find("faulty-gossip/gnp-churn").expect("registered workload");
    let (_, trace) = w
        .run_traced(&ExecutorConfig::with_threads(2))
        .expect("traced run");
    let old = trace.to_jsonl().replacen(
        "\"threads\":2,",
        "\"threads\":2,\"backend\":\"sharded:2\",\"plane\":\"flat\",",
        1,
    );
    assert!(old.contains("sharded:2"), "header rewritten");
    let decoded = TraceLog::from_jsonl(&old).expect("old header decodes");
    assert_eq!(decoded, trace);
    replay(&decoded).expect("old header replays");
}

#[test]
fn traced_runs_match_untraced_runs() {
    // Observation must be free: the trace recorder's outcome is the same
    // RunOutcome the plain runner produces, faulted or not.
    for name in [
        "faulty-gossip/gnp-churn",
        "faulty-leader/path-heal",
        "skewed-bfs/power-law-wide",
        "gossip/hub-spoke",
    ] {
        let w = find(name).expect("registered workload");
        for cfg in [ExecutorConfig::default(), ExecutorConfig::with_threads(4)] {
            let plain = w.run(&cfg).expect("plain run");
            let (traced, _) = w.run_traced(&cfg).expect("traced run");
            assert_eq!(plain, traced, "{name}: tracing changed the outcome");
        }
    }
}

#[test]
fn skewed_axes_are_registered_and_composite_traces_replay() {
    for name in ["skewed-bfs/power-law-wide", "skewed-gossip/hub-spoke-wide"] {
        let w = find(name).expect("skewed axis registered");
        w.oracle().expect("skewed oracle");
    }
    // Composite entries (no single runner loop) still produce replayable
    // outcome-level traces — here the workload-level crash-restart MST.
    let w = find("faulty-mst/gnp-crash").expect("registered workload");
    let (_, trace) = w
        .run_traced(&ExecutorConfig::with_threads(2))
        .expect("traced run");
    assert_eq!(trace.kind, "composite");
    replay(&trace).expect("composite replay");
}

#[test]
fn recorded_traces_render_the_faulted_topology_as_dot() {
    let w = find("faulty-gossip/gnp-crash").expect("registered workload");
    let (_, trace) = w
        .run_traced(&ExecutorConfig::default())
        .expect("traced run");
    let dot = trace.to_dot(&w.build().graph);
    assert!(dot.contains("subgraph cluster_1"), "crashed nodes grouped");
    assert!(dot.contains("faulty-gossip/gnp-crash"), "label present");
}
