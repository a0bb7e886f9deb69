//! The parallel executor's contract, enforced over the **entire workload
//! registry**: every `congest_workloads` entry run at 2, 4 and 8 executor
//! threads produces a [`RunOutcome`](congest_apsp::workloads::RunOutcome)
//! **identical** to the one-thread run. Equality is structural — the
//! canonical output rendering plus rounds, messages, broadcasts, and the full
//! per-edge congestion vector — so any scheduling-order leak in the chunk
//! merge shows up as a hard failure, not a statistical blip.
//!
//! The one-thread run is itself pinned to `tests/golden/registry_outcomes.txt`,
//! generated from the per-node-`Vec`-inbox sequential delivery loop the flat
//! plane replaced, so the reference that loop provided outlives it as data.
//!
//! The workload list and the thread matrix live in `congest_workloads` (shared
//! with the fault and serve suites), so the suites cannot drift apart.

use congest_apsp::algos::bfs::Bfs;
use congest_apsp::engine::{run_bcongest, ExecutorConfig, RunOptions};
use congest_apsp::graph::{generators, NodeId};
use congest_apsp::workloads::{configs::thread_matrix, find, registry};

mod golden;

/// Every registry entry at `threads = 1` against the golden file: one
/// `name fnv1a64-hex` line per entry, hashed over the canonical output
/// followed by the `Debug` rendering of the metrics.
#[test]
fn one_thread_outcomes_match_the_golden_reference() {
    let outcomes = registry().into_iter().map(|w| {
        let run = w
            .run(&ExecutorConfig::default())
            .unwrap_or_else(|e| panic!("{}: one-thread run failed: {e}", w.name()));
        (w.name(), format!("{}{:?}", run.output, run.metrics))
    });
    golden::assert_matches(
        "tests/golden/registry_outcomes.txt",
        include_str!("golden/registry_outcomes.txt"),
        outcomes,
    );
}

#[test]
fn registry_identical_across_thread_counts() {
    let configs = thread_matrix();
    for w in registry() {
        // Build once per workload; every configuration runs the same input.
        let input = w.build();
        let base = w
            .run_built(&input, &ExecutorConfig::default())
            .unwrap_or_else(|e| panic!("{}: one-thread run failed: {e}", w.name()));
        for (label, cfg) in &configs {
            let run = w
                .run_built(&input, cfg)
                .unwrap_or_else(|e| panic!("{}: run under {label} failed: {e}", w.name()));
            assert_eq!(base, run, "{} @ {label}", w.name());
        }
    }
}

/// The fast tripwire CI's clippy job runs by name: one BCONGEST and one MST
/// workload, 1 vs 2 threads. Red here means chunked delivery regressed — no
/// need to wait for the full matrix.
#[test]
fn two_thread_smoke() {
    for name in ["bfs/gnp", "mst/gnp"] {
        let w = find(name).expect("registered workload");
        let base = w.run(&ExecutorConfig::default()).expect("one-thread run");
        let run = w
            .run(&ExecutorConfig::with_threads(2))
            .expect("two-thread run");
        assert_eq!(base, run, "{name}: 1 vs 2 threads");
    }
}

#[test]
fn zero_threads_resolves_to_hardware_and_stays_deterministic() {
    let g = generators::gnp_connected(30, 0.2, 31);
    let opts = |exec: ExecutorConfig| RunOptions {
        seed: 1,
        exec,
        ..Default::default()
    };
    let base = run_bcongest(
        &Bfs::new(NodeId::new(3)),
        &g,
        None,
        &opts(ExecutorConfig::default()),
    )
    .expect("one-thread run");
    let hw = run_bcongest(
        &Bfs::new(NodeId::new(3)),
        &g,
        None,
        &opts(ExecutorConfig::with_threads(0)),
    )
    .expect("hardware-thread run");
    assert_eq!(base.outputs, hw.outputs);
    assert_eq!(base.metrics, hw.metrics);
}
