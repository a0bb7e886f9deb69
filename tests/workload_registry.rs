//! Registry invariants: the contract every `congest_workloads` entry signs up
//! to by existing. One suite, four guarantees —
//!
//! 1. **identity** — names are unique, and the catalogue spans the breadth the
//!    paper claims (≥ 10 algorithms, ≥ 10 entries);
//! 2. **determinism** — `build()` is a pure function of the entry (two builds
//!    are structurally equal);
//! 3. **correctness** — every entry has a working differential oracle;
//! 4. **cost** — sequential metrics stay inside the entry's declared
//!    message/round envelope (where the paper gives a bound, it is enforced,
//!    not just documented);
//! 5. **memory** — every entry declares a bytes-per-message memory envelope
//!    (engine-runner entries get the exact packed codec width `4 × LANES`
//!    auto-filled; composites declare a bound on their charge mix), and the
//!    measured `payload_bytes` average stays within it.

use congest_apsp::engine::ExecutorConfig;
use congest_apsp::workloads::{find, registry, FAMILIES};

#[test]
fn names_are_unique_and_catalogue_is_broad() {
    let reg = registry();
    let mut names: Vec<String> = reg.iter().map(|w| w.name()).collect();
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate workload names");
    assert!(total >= 10, "registry has only {total} entries");

    let mut algorithms: Vec<&str> = reg.iter().map(|w| w.algorithm()).collect();
    algorithms.sort_unstable();
    algorithms.dedup();
    assert!(
        algorithms.len() >= 10,
        "registry spans only {} algorithms: {algorithms:?}",
        algorithms.len()
    );
}

#[test]
fn family_names_are_unique_per_algorithm_axis() {
    // Global name uniqueness is `algorithm/family`; this pins the finer
    // invariant that no axis registers the same family twice (which global
    // uniqueness alone would also catch) *and* that every scenario axis the
    // fault engine introduced is actually present.
    let reg = registry();
    let mut axes: std::collections::BTreeMap<&str, Vec<String>> = std::collections::BTreeMap::new();
    for w in &reg {
        axes.entry(w.algorithm())
            .or_default()
            .push(w.family().to_string());
    }
    for (algo, families) in &mut axes {
        let total = families.len();
        families.sort();
        families.dedup();
        assert_eq!(families.len(), total, "duplicate family under axis {algo}");
    }
    for axis in [
        "faulty-bfs",
        "faulty-leader",
        "faulty-gossip",
        "faulty-mst",
        "skewed-bfs",
        "skewed-gossip",
        "baswana-sen-spanner",
    ] {
        assert!(axes.contains_key(axis), "missing scenario axis {axis}");
    }
}

#[test]
fn skew_and_scale_generators_are_deterministic_at_two_sizes() {
    use congest_apsp::graph::{generators, reference, NodeId};
    for n in [24, 56] {
        let g = generators::power_law(n, 2, 9);
        assert_eq!(g, generators::power_law(n, 2, 9), "power_law({n}) varies");
        assert!(
            reference::bfs_distances(&g, NodeId::new(0))
                .iter()
                .all(Option::is_some),
            "power_law({n}) is disconnected"
        );
    }
    for (hubs, spokes) in [(4, 6), (6, 8)] {
        let g = generators::hub_and_spoke(hubs, spokes);
        assert_eq!(g, generators::hub_and_spoke(hubs, spokes));
        assert_eq!(g.n(), hubs * (1 + spokes));
        assert!(reference::bfs_distances(&g, NodeId::new(0))
            .iter()
            .all(Option::is_some));
    }
    for n in [64, 256] {
        assert_eq!(
            generators::sparse_connected(n, 8, 5),
            generators::sparse_connected(n, 8, 5),
            "sparse_connected({n}) varies"
        );
    }
}

#[test]
fn builds_are_deterministic() {
    for w in registry() {
        assert_eq!(
            w.build(),
            w.build(),
            "{}: build() is not a pure function",
            w.name()
        );
    }
}

#[test]
fn every_entry_passes_its_oracle() {
    for w in registry() {
        w.oracle()
            .unwrap_or_else(|e| panic!("oracle violation: {e}"));
    }
}

#[test]
fn metrics_stay_inside_declared_envelopes() {
    for w in registry() {
        let run = w
            .run(&ExecutorConfig::default())
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", w.name()));
        w.envelope()
            .check(&run.metrics)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
}

#[test]
fn every_entry_declares_and_meets_its_memory_envelope() {
    for w in registry() {
        let env = w.envelope();
        let bytes = env
            .max_message_bytes
            .unwrap_or_else(|| panic!("{}: no memory envelope declared", w.name()));
        assert!(
            bytes > 0 && bytes <= 64,
            "{}: implausible memory envelope of {bytes} bytes/message",
            w.name()
        );
        let run = w
            .run(&ExecutorConfig::default())
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", w.name()));
        assert!(
            run.metrics.payload_bytes <= bytes * run.metrics.messages,
            "{}: {} payload bytes over {} messages break the {bytes}-byte/message envelope",
            w.name(),
            run.metrics.payload_bytes,
            run.metrics.messages
        );
    }
}

#[test]
fn find_resolves_registered_names() {
    for family in FAMILIES {
        let w = find(&format!("bfs/{family}")).expect("every family has a BFS entry");
        assert_eq!(w.algorithm(), "bfs");
        assert_eq!(w.family(), family);
    }
    assert!(find("no-such-workload/anywhere").is_none());
}

#[test]
fn runs_are_repeatable() {
    // Same entry, same config, two executions: byte-identical outcome (the
    // benchmark relies on this to time repetitions).
    let w = find("mst/gnp").expect("registered workload");
    let cfg = ExecutorConfig::default();
    assert_eq!(w.run(&cfg).unwrap(), w.run(&cfg).unwrap());
}
