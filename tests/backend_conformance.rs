//! The delivery-backend conformance contract, enforced differentially over the
//! **entire workload registry**: for every `congest_workloads` entry, running
//! under any [`DeliveryBackend`](congest_apsp::engine::DeliveryBackend) —
//! `Sequential`, `Chunked` at 1/2/4/8 threads, `Sharded` at 1/2/4/8 shards
//! (with and without worker threads) — produces a
//! [`RunOutcome`](congest_apsp::workloads::RunOutcome) **identical** to the
//! sequential run. Equality is structural: the canonical output rendering plus
//! rounds, messages, broadcasts, and the full per-edge congestion vector, so
//! any ordering leak in a batch merge is a hard failure, not a statistical
//! blip.
//!
//! Registering a workload (see `congest_workloads::registry`) is what enrols
//! it here — this suite has no workload list of its own, so it can never drift
//! from `tests/parallel_determinism.rs` or the benchmark. The cost-model
//! `Auto` backend is part of the matrix (at 1/2/4/8 threads) and additionally
//! pinned explicitly: its outcome must match every manual backend and its
//! per-round decision log must name only concrete backends, identically
//! across message planes.

use congest_apsp::engine::{DeliveryBackend, ExecutorConfig, MessagePlane};
use congest_apsp::workloads::{configs::backend_matrix, find, registry};

#[test]
fn registry_identical_across_backends() {
    let configs = backend_matrix();
    for w in registry() {
        // Build once per workload; every configuration runs the same input.
        let input = w.build();
        let base = w
            .run_built(&input, &ExecutorConfig::sequential())
            .unwrap_or_else(|e| panic!("{}: sequential run failed: {e}", w.name()));
        for (label, cfg) in &configs {
            let run = w
                .run_built(&input, cfg)
                .unwrap_or_else(|e| panic!("{}: run under {label} failed: {e}", w.name()));
            assert_eq!(base.output, run.output, "{}: outputs @ {label}", w.name());
            assert_eq!(base.metrics, run.metrics, "{}: metrics @ {label}", w.name());
        }
    }
}

/// The cost-model [`DeliveryBackend::Auto`] backend, pinned directly against
/// every manual backend on every registry entry: outputs **and** `Metrics`
/// byte-equal (the per-round decision log is excluded from `Metrics` equality
/// by construction, and compared explicitly here instead). The log must name
/// only concrete backends and be identical across message planes — volume
/// hints are plane-independent.
#[test]
fn auto_matches_every_manual_backend_and_logs_concrete_decisions() {
    let manual: Vec<(String, ExecutorConfig)> = vec![
        ("sequential".into(), ExecutorConfig::sequential()),
        ("chunked/4".into(), ExecutorConfig::with_threads(4)),
        ("sharded/4".into(), ExecutorConfig::sharded(4)),
    ];
    // Treeops-based entries (the MST family) bypass the round-loop runners
    // and log nothing; most of the registry must log.
    let mut logged = 0usize;
    for w in registry() {
        let input = w.build();
        let auto = w
            .run_built(&input, &ExecutorConfig::auto(4))
            .unwrap_or_else(|e| panic!("{}: auto run failed: {e}", w.name()));
        for (label, cfg) in &manual {
            let run = w
                .run_built(&input, cfg)
                .unwrap_or_else(|e| panic!("{}: run under {label} failed: {e}", w.name()));
            assert_eq!(auto.output, run.output, "{}: outputs @ {label}", w.name());
            assert_eq!(auto.metrics, run.metrics, "{}: metrics @ {label}", w.name());
            assert!(
                run.metrics.backend_decisions().is_empty(),
                "{}: manual backend {label} must not log decisions",
                w.name()
            );
        }
        let log = auto.metrics.backend_decisions();
        if !log.is_empty() {
            logged += 1;
        }
        for d in log {
            assert_ne!(
                d.backend,
                DeliveryBackend::Auto,
                "{}: decision log must name a concrete backend",
                w.name()
            );
        }
        let flat = w
            .run_built(
                &input,
                &ExecutorConfig::auto(4).with_plane(MessagePlane::Flat),
            )
            .unwrap_or_else(|e| panic!("{}: auto flat run failed: {e}", w.name()));
        assert_eq!(
            log,
            flat.metrics.backend_decisions(),
            "{}: decision log differs across message planes",
            w.name()
        );
    }
    assert!(
        logged > 0,
        "no registry entry logged auto decisions — runner wiring broken"
    );
}

/// The fast tripwire CI's clippy job runs by name: one BCONGEST and one MST
/// workload, sequential vs 2 shards. Red here means the sharded backend
/// regressed — no need to wait for the full matrix.
#[test]
fn two_shard_smoke() {
    for name in ["bfs/gnp", "mst/gnp"] {
        let w = find(name).expect("registered workload");
        let base = w
            .run(&ExecutorConfig::sequential())
            .expect("sequential run");
        let run = w.run(&ExecutorConfig::sharded(2)).expect("2-shard run");
        assert_eq!(base, run, "{name}: sequential vs 2 shards");
    }
}
