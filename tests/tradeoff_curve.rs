//! Theorem 1.2's curve as plain numbers: every `tradeoff_apsp` route on four
//! families at two seeds and ε ∈ {0, ¼, ½, ¾, 1}, and beside them ε = 0's
//! weighted twin, `weighted_apsp` under weights `1..=9` drawn from the seed,
//! one line per case in `tests/golden/curve.txt`:
//!
//! ```text
//! <route>/<family>/<n>/s<seed>/eps<ε> <messages> <rounds>
//! weighted_apsp/<family>/<n>/s<seed> <messages> <rounds>
//! ```
//!
//! The other golden files hash their runs, so a diff there says *that* a count
//! moved; a diff of this file says by how much, instance by instance. A change
//! that moves a count on purpose fails here and prints every computed line;
//! paste them over the file.

use congest_apsp::apsp_core::tradeoff::tradeoff_apsp;
use congest_apsp::apsp_core::verify::{check_unweighted_apsp, check_weighted_apsp};
use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
use congest_apsp::graph::{generators, Graph, WeightedGraph};

/// The graphs of one seed: `gnp` is drawn from it, the other families are fixed
/// and the seed only drives the algorithm.
fn families(seed: u64) -> [(&'static str, Graph); 4] {
    [
        ("gnp", generators::gnp_connected(96, 0.06, seed)),
        ("caveman", generators::caveman(8, 12)),
        ("grid", generators::grid(12, 8)),
        ("path", generators::path(64)),
    ]
}

#[test]
fn the_curve_matches_the_golden_file() {
    let mut lines = Vec::new();
    for seed in [1u64, 20250608] {
        for (family, g) in families(seed) {
            for eps in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let res = tradeoff_apsp(&g, eps, seed).expect("trade-off");
                check_unweighted_apsp(&g, &res.dist).expect("exact distances");
                lines.push(format!(
                    "{:?}/{family}/{}/s{seed}/eps{eps} {} {}",
                    res.route,
                    g.n(),
                    res.metrics.messages,
                    res.metrics.rounds
                ));
            }
            let wg = WeightedGraph::random_weights(&g, 1..=9, seed);
            let cfg = WeightedApspConfig {
                seed,
                ..Default::default()
            };
            let res = weighted_apsp(&wg, &cfg).expect("weighted APSP");
            check_weighted_apsp(&wg, &res.distances).expect("exact distances");
            let (messages, rounds) = (res.metrics.messages, res.metrics.rounds);
            lines.push(format!(
                "weighted_apsp/{family}/{}/s{seed} {messages} {rounds}",
                g.n()
            ));
        }
    }
    let computed = lines.join("\n") + "\n";
    assert!(
        computed == include_str!("golden/curve.txt"),
        "tests/golden/curve.txt is stale; computed:\n{computed}"
    );
}
