//! Workload tour: walk the `congest-workloads` registry.
//!
//! Prints every registered workload — algorithm, graph family, input size,
//! declared cost envelope — runs each one sequentially, checks its
//! differential oracle, and shows the realized (rounds, messages, broadcasts)
//! against the envelope. This is the catalogue the conformance suites, the
//! determinism pins, and the benchmark's `registry_sweep` all iterate;
//! registering a new workload makes it appear here with no further wiring.
//!
//! Run: `cargo run --release --example workload_tour`

use congest_apsp::engine::ExecutorConfig;
use congest_apsp::workloads::registry;

fn main() {
    let reg = registry();
    println!("{} registered workloads ({} algorithms)\n", reg.len(), {
        let mut algos: Vec<&str> = reg.iter().map(|w| w.algorithm()).collect();
        algos.sort_unstable();
        algos.dedup();
        algos.len()
    });
    println!(
        "{:<34} {:>5} {:>6} | {:>7} {:>9} {:>7} | {:<18} oracle",
        "workload", "n", "m", "rounds", "messages", "bcasts", "envelope(msgs)"
    );
    for w in &reg {
        let input = w.build();
        let run = w
            .run(&ExecutorConfig::default())
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", w.name()));
        let envelope = w.envelope();
        let env_str = envelope
            .max_messages
            .map_or("—".to_string(), |b| format!("≤ {b}"));
        let oracle = match w.oracle() {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("VIOLATION: {e}"),
        };
        println!(
            "{:<34} {:>5} {:>6} | {:>7} {:>9} {:>7} | {:<18} {}",
            w.name(),
            input.graph.n(),
            input.graph.m(),
            run.metrics.rounds,
            run.metrics.messages,
            run.metrics.broadcasts,
            env_str,
            oracle
        );
        envelope
            .check(&run.metrics)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
    println!("\nall oracles green, all metrics within their declared envelopes.");
}
