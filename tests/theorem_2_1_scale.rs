//! The paper's APSP routes at the benchmark's scale, as plain numbers:
//! `tradeoff_apsp` at ε = 0 (Theorem 2.1) on the benchmark's pinned
//! `gnp_connected(512, 8/512, 20250608)` and on `caveman(16, 32)` at seeds
//! 20250608 and 1, at ε = ¼ and ε = ½ (Lemma 3.23's batches plus landmarks)
//! and at ε = ¾ and ε = 1 (Lemma 3.22's star route) on that gnp-512, and
//! `weighted_apsp` on that gnp-512 under weights `1..=9`
//! drawn from seed 20250608, at seed 20250608. One line per case in
//! `tests/golden/theorem_2_1_scale.txt`:
//!
//! ```text
//! <case>/<family>/<n>/s<seed> <messages> <rounds>
//! ```
//!
//! These are the counts `core.tradeoff_eps0_*`, `core.tradeoff_eps05_*`,
//! `core.tradeoff_eps1_*` and `core.weighted_apsp_*` report. The runs take seconds in release and
//! minutes in debug, so the test is ignored by default; run it with
//! `cargo test --release --test theorem_2_1_scale -- --ignored`. A change that
//! moves a count on purpose fails here and prints every computed line; paste
//! them over the file.

use congest_apsp::apsp_core::tradeoff::tradeoff_apsp;
use congest_apsp::apsp_core::verify::{check_unweighted_apsp, check_weighted_apsp};
use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
use congest_apsp::graph::{generators, WeightedGraph};

const SEED: u64 = 20250608;

#[test]
#[ignore = "bench scale: run in release with --ignored"]
fn theorem_2_1_at_bench_scale_matches_the_golden_file() {
    let gnp = generators::gnp_connected(512, 8.0 / 512.0, SEED);
    let mut lines = Vec::new();
    let caveman = generators::caveman(16, 32);
    for (family, g, seed) in [
        ("gnp", &gnp, SEED),
        ("caveman", &caveman, SEED),
        ("caveman", &caveman, 1),
    ] {
        let res = tradeoff_apsp(g, 0.0, seed).expect("trade-off");
        check_unweighted_apsp(g, &res.dist).expect("exact distances");
        let (messages, rounds) = (res.metrics.messages, res.metrics.rounds);
        lines.push(format!(
            "tradeoff_eps0/{family}/{}/s{seed} {messages} {rounds}",
            g.n()
        ));
    }
    for eps in [0.25, 0.5, 0.75, 1.0] {
        let res = tradeoff_apsp(&gnp, eps, SEED).expect("trade-off");
        check_unweighted_apsp(&gnp, &res.dist).expect("exact distances");
        let (messages, rounds) = (res.metrics.messages, res.metrics.rounds);
        lines.push(format!(
            "tradeoff_eps{eps}/gnp/512/s{SEED} {messages} {rounds}"
        ));
    }
    let wg = WeightedGraph::random_weights(&gnp, 1..=9, SEED);
    let cfg = WeightedApspConfig {
        seed: SEED,
        ..Default::default()
    };
    let res = weighted_apsp(&wg, &cfg).expect("weighted APSP");
    check_weighted_apsp(&wg, &res.distances).expect("exact distances");
    let (messages, rounds) = (res.metrics.messages, res.metrics.rounds);
    lines.push(format!("weighted_apsp/gnp/512/s{SEED} {messages} {rounds}"));
    let computed = lines.join("\n") + "\n";
    assert!(
        computed == include_str!("golden/theorem_2_1_scale.txt"),
        "tests/golden/theorem_2_1_scale.txt is stale; computed:\n{computed}"
    );
}
