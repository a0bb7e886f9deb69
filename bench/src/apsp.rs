//! `apsp_tradeoff`: the paper's two headline theorems on `G(n, 8/n)` —
//! Theorem 1.2's trade-off at ε ∈ {0, 0.5, 1} (one case per route) and
//! Theorem 1.1's weighted APSP with weights `1..=9`.
//!
//! The ε = 0.5 and ε = 1 routes run on the topology `--seed` draws (their
//! cost concentrates: ±0.2 % messages over ten topologies). The two cases
//! that go through the Theorem 2.1 simulation — ε = 0 and weighted — run on
//! the pinned topology, the weights drawn from `--seed`; every case flips the
//! pinned coins (see [`PINNED_SEED`]).

use crate::measure::{Accounted, Bench, Metric, PINNED_SEED};
use crate::span::Tracer;
use congest_apsp::apsp_core::tradeoff::tradeoff_apsp;
use congest_apsp::apsp_core::verify::{check_unweighted_apsp, check_weighted_apsp};
use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
use congest_apsp::decomp::baswana_sen::Hierarchy;
use congest_apsp::decomp::ensemble::Ensemble;
use congest_apsp::engine::Metrics;
use congest_apsp::graph::{generators, Graph, WeightedGraph};
use congest_apsp::ExecutorConfig;

pub struct ApspTradeoff {
    pub smoke: bool,
}

pub struct ApspInput {
    /// Topology drawn from `--seed`: the ε = 0.5 and ε = 1 cases.
    seeded: Graph,
    /// Pinned topology: the ε = 0 case.
    pinned: Graph,
    /// Pinned topology under weights drawn from `--seed`.
    weighted: WeightedGraph,
}

/// What one case computed, compared field by field with the reference rep.
#[derive(PartialEq)]
pub enum ApspOutcome {
    Hops {
        dist: Vec<Vec<Option<u32>>>,
        route: String,
        metrics: Metrics,
    },
    Weighted {
        distances: Vec<Vec<Option<u64>>>,
        metrics: Metrics,
    },
}

impl Accounted for ApspOutcome {
    fn account(&self) -> (u64, u64) {
        let (ApspOutcome::Hops { metrics, .. } | ApspOutcome::Weighted { metrics, .. }) = self;
        (metrics.messages, metrics.rounds)
    }
}

/// Span name and ε of the three trade-off cases.
const TRADEOFF: [(&str, f64); 3] = [
    ("core.tradeoff_eps0", 0.0),
    ("core.tradeoff_eps05", 0.5),
    ("core.tradeoff_eps1", 1.0),
];
const WEIGHTED: &str = "core.weighted_apsp";

fn count_cost(t: &mut Tracer, metrics: &Metrics) {
    t.count("messages", metrics.messages);
    t.count("rounds", metrics.rounds);
}

impl ApspTradeoff {
    fn n(&self) -> usize {
        if self.smoke {
            64
        } else {
            512
        }
    }
}

impl ApspInput {
    /// The topology the trade-off case at `epsilon` runs on.
    fn graph_of(&self, epsilon: f64) -> &Graph {
        if epsilon == 0.0 {
            &self.pinned
        } else {
            &self.seeded
        }
    }
}

impl Bench for ApspTradeoff {
    type Input = ApspInput;
    type Rep = Vec<Option<ApspOutcome>>;

    fn setup(&self, seed: u64, t: &mut Tracer) -> ApspInput {
        let n = self.n();
        let gnp = |seed| generators::gnp_connected(n, 8.0 / n as f64, seed);
        let seeded = t.span("graph.gen_gnp", |_| gnp(seed));
        let pinned = t.span("graph.gen_gnp", |_| gnp(PINNED_SEED));
        let weighted = t.span("graph.weights", |_| {
            WeightedGraph::random_weights(&pinned, 1..=9, seed)
        });
        ApspInput {
            seeded,
            pinned,
            weighted,
        }
    }

    fn rep(&self, input: &mut ApspInput, t: &mut Tracer) -> Self::Rep {
        let mut cases: Self::Rep = TRADEOFF
            .iter()
            .map(|&(span, epsilon)| {
                t.span(span, |t| {
                    let run = tradeoff_apsp(input.graph_of(epsilon), epsilon, PINNED_SEED).ok()?;
                    count_cost(t, &run.metrics);
                    Some(ApspOutcome::Hops {
                        dist: run.dist,
                        route: format!("{:?}", run.route),
                        metrics: run.metrics,
                    })
                })
            })
            .collect();
        cases.push(t.span(WEIGHTED, |t| {
            let cfg = WeightedApspConfig {
                seed: PINNED_SEED,
                exec: ExecutorConfig::default(),
                ..Default::default()
            };
            let run = weighted_apsp(&input.weighted, &cfg).ok()?;
            count_cost(t, &run.metrics);
            Some(ApspOutcome::Weighted {
                distances: run.distances,
                metrics: run.metrics,
            })
        }));
        cases
    }

    fn verify(&self, input: &ApspInput, reference: &Self::Rep, t: &mut Tracer) -> u64 {
        // A `None` case is already counted as a failed operation.
        t.span("core.verify", |_| {
            let (weighted, hops) = reference.split_last().expect("four cases a rep");
            let hops_rejected = hops
                .iter()
                .zip(&TRADEOFF)
                .filter(|&(case, &(_, epsilon))| {
                    matches!(case, Some(ApspOutcome::Hops { dist, .. })
                        if check_unweighted_apsp(input.graph_of(epsilon), dist).is_err())
                })
                .count();
            let weighted_rejected = matches!(weighted, Some(ApspOutcome::Weighted { distances, .. })
                if check_weighted_apsp(&input.weighted, distances).is_err());
            hops_rejected as u64 + u64::from(weighted_rejected)
        })
    }

    fn probes(&self, input: &ApspInput, t: &mut Tracer) {
        // The decompositions the ε = 0.5 route (and, through the LDC, the
        // ε = 0 and weighted routes) build inside `core`, called directly.
        let n = if self.smoke { 2_000 } else { 100_000 };
        let sparse = generators::sparse_connected(n, n / 2, PINNED_SEED);
        t.span("decomp.hierarchy_build", |_| {
            Hierarchy::build(&sparse, 0.5, PINNED_SEED)
        });
        t.span("decomp.ensemble_build", |_| {
            let zeta = Ensemble::paper_zeta(input.seeded.n(), 0.5);
            Ensemble::build(&input.seeded, 0.5, zeta, PINNED_SEED)
        });
    }

    fn layers(&self, _input: &ApspInput, t: &Tracer) -> Vec<Metric> {
        let seconds = |span: &str| Metric::span_seconds(t, span);
        let mut out = vec![
            // Two topologies a set-up; the metric is the time of one.
            Metric::new("graph.gen_gnp_s", t.self_s_per_call("graph.gen_gnp"), "s"),
            seconds("decomp.hierarchy_build"),
            seconds("decomp.ensemble_build"),
        ];
        for span in TRADEOFF.iter().map(|c| c.0).chain([WEIGHTED]) {
            out.push(seconds(span));
            for key in ["messages", "rounds"] {
                out.push(Metric::new(
                    format!("{span}_{key}"),
                    t.counted(span, key),
                    "count",
                ));
            }
        }
        out
    }
}
