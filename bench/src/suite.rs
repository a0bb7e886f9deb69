//! The three workloads whose cases are registry-style entries —
//! `engine_scale`, `mst_treeops` and `registry_sweep` — share one shape: a
//! list of `Box<dyn Workload>` built once, every entry run through
//! `run_built` under `ExecutorConfig::default()`, and verified after the clock
//! has stopped: the sized cases' own outcomes against `graph::reference` (and
//! gossip's closed form), the registry's entries by their `oracle()`, and every
//! case's metrics against its `envelope()`.

use crate::measure::{Accounted, Bench, Metric, RepOutcome, PINNED_SEED};
use crate::rng::SplitMix64;
use crate::span::{ratio, Tracer};
use congest_apsp::algos::gossip::expected_gossip;
use congest_apsp::graph::{generators, reference, NodeId, WeightedGraph};
use congest_apsp::workloads::{self, make, BuiltInput, RunOutcome, TraceLog, Workload};
use congest_apsp::ExecutorConfig;

/// Which of the three workloads a [`Suite`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    EngineScale,
    MstTreeops,
    RegistrySweep,
}

/// One of the entry-list workloads, at full or smoke size.
pub struct Suite {
    pub kind: Kind,
    pub smoke: bool,
}

/// One case: a registry-style entry, the span its runs are recorded under,
/// how its outcome is checked, and whether each pass also round-trips it
/// through a recorded trace.
struct Entry {
    span: String,
    workload: Box<dyn Workload>,
    check: Check,
    roundtrip: bool,
}

/// What a case's outcome is checked against. `RunOutcome::output` is the
/// `Debug` rendering of the typed result, so a sized case's answer is stated
/// by rendering the reference the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Check {
    /// Hop distances from node 0: `reference::bfs_distances`.
    Bfs,
    /// Hop distances from every node: `reference::all_pairs_bfs`.
    BfsCollection,
    /// Per-node checksums: `expected_gossip`, the closed form.
    Gossip,
    /// Edge set and total weight: `reference::mst_kruskal` (weights are
    /// unique, so the tree is).
    Mst,
    /// The entry's own `oracle()`. It builds the input afresh and validates
    /// a sequential run of its own, not the timed outcome: the registry's 21
    /// output types are opaque from outside, and the timed outcome is tied to
    /// it only by the envelope, rep-to-rep equality and the trace round trip.
    Oracle,
}

/// The `dist: …` fields of a rendered BFS output, in order.
fn rendered_dists(output: &str) -> impl Iterator<Item = &str> {
    output
        .split("dist: ")
        .skip(1)
        .map(|rest| rest.split_once(',').map_or(rest, |(dist, _)| dist))
}

impl Check {
    /// Whether `outcome`, the run of `entry` on `built`, is the right answer.
    fn accepts(self, entry: &dyn Workload, built: &BuiltInput, outcome: &RunOutcome) -> bool {
        let graph = &built.graph;
        let render = |dist: &Option<u32>| format!("{dist:?}");
        match self {
            Check::Bfs => {
                let want = reference::bfs_distances(graph, NodeId::new(0));
                rendered_dists(&outcome.output).eq(want.iter().map(render))
            }
            Check::BfsCollection => {
                // Node v's entry j is its distance from source j.
                let want = reference::all_pairs_bfs(graph);
                let by_node = (0..graph.n()).flat_map(|v| want.iter().map(move |from| &from[v]));
                rendered_dists(&outcome.output).eq(by_node.map(render))
            }
            Check::Gossip => outcome.output == format!("{:?}", expected_gossip(graph)),
            Check::Mst => {
                let want = reference::mst_kruskal(&built.weighted_graph());
                outcome
                    .output
                    .starts_with(&format!("({:?}, {}, ", want.edges, want.total_weight))
            }
            Check::Oracle => entry.oracle().is_ok(),
        }
    }
}

pub struct SuiteInput {
    entries: Vec<Entry>,
    inputs: Vec<BuiltInput>,
    cfg: ExecutorConfig,
    passes: usize,
    seed: u64,
}

impl Accounted for RunOutcome {
    fn account(&self) -> (u64, u64) {
        (self.metrics.messages, self.metrics.rounds)
    }
}

/// One rep: the first pass's outcomes, and how many cases of the later
/// passes did not repeat them. Later passes are compared as they finish and
/// dropped, so a hundred passes do not hold a hundred copies of every output.
pub struct SuiteRep {
    first_pass: Vec<Option<RunOutcome>>,
    passes: u64,
    /// Cases of later passes that errored or differ from the first pass's.
    drifted: u64,
}

impl RepOutcome for SuiteRep {
    fn ops(&self) -> u64 {
        self.first_pass.ops() * self.passes
    }

    fn failures(&self, reference: Option<&Self>) -> u64 {
        let first = self.first_pass.failures(reference.map(|r| &r.first_pass));
        // A later case that repeated a failed first-pass case failed too.
        (first * self.passes + self.drifted).min(self.ops())
    }

    fn account(&self) -> (u64, u64) {
        let (messages, rounds) = self.first_pass.account();
        (messages * self.passes, rounds * self.passes)
    }
}

/// Span names of the sized cases; the layer metrics are derived from them.
const BCONGEST_SPARSE: &str = "engine.bcongest_sparse";
const CONGEST_SPARSE: &str = "engine.congest_sparse";
const BCONGEST_DENSE: &str = "engine.bcongest_dense";
const ROUND_SCAN: &str = "engine.round_scan";
const MST_WIDE: &str = "algos.mst_wide";
const MST_DEEP: &str = "algos.mst_deep";
const MST_TRADEOFF: [(&str, usize); 3] = [
    ("core.mst_tradeoff_k2", 2),
    ("core.mst_tradeoff_k64", 64),
    ("core.mst_tradeoff_kn", usize::MAX),
];

impl Suite {
    /// Passes over the entry list in one rep: the registry's entries take
    /// ~0.2 ms each, so one pass is far too short to time.
    pub fn passes(&self) -> usize {
        match (self.kind, self.smoke) {
            (Kind::RegistrySweep, false) => 100,
            _ => 1,
        }
    }

    fn entries(&self, seed: u64) -> Vec<Entry> {
        let sized = |span: &str, check, workload| Entry {
            span: span.to_owned(),
            workload,
            check,
            roundtrip: false,
        };
        match self.kind {
            Kind::EngineScale => {
                let (n, dense, path) = if self.smoke {
                    (2_000, 48, 512)
                } else {
                    (1_000_000, 512, 32_768)
                };
                vec![
                    sized(
                        BCONGEST_SPARSE,
                        Check::Bfs,
                        make::bfs_sparse(n, n / 2, seed),
                    ),
                    sized(
                        CONGEST_SPARSE,
                        Check::Gossip,
                        make::gossip_sparse(n, n / 2, seed),
                    ),
                    sized(
                        BCONGEST_DENSE,
                        Check::BfsCollection,
                        make::bfs_collection_gnp(dense, 8.0 / dense as f64, seed),
                    ),
                    sized(
                        ROUND_SCAN,
                        Check::Bfs,
                        make::bfs(
                            format!("path-{path}"),
                            move || BuiltInput::unweighted(generators::path(path)),
                            seed,
                        ),
                    ),
                ]
            }
            Kind::MstTreeops => {
                let (wide, deep, gnp) = if self.smoke {
                    (2_000, 2_000, 256)
                } else {
                    (200_000, 262_144, 4_096)
                };
                let mut entries = vec![
                    sized(MST_WIDE, Check::Mst, make::mst_sparse(wide, wide / 2, seed)),
                    // Pinned weights: the rounds GHS takes on a path swing
                    // with the permutation (see `PINNED_SEED`).
                    sized(MST_DEEP, Check::Mst, make::mst_deep_path(deep, PINNED_SEED)),
                ];
                entries.extend(MST_TRADEOFF.iter().map(|&(span, k)| {
                    let workload = make::mst_tradeoff_gnp(gnp, 8.0 / gnp as f64, k, seed);
                    sized(span, Check::Mst, workload)
                }));
                entries
            }
            Kind::RegistrySweep => {
                // The registry fixes its own inputs; the seed decides the
                // order the entries run in.
                let mut entries: Vec<Entry> = workloads::registry()
                    .into_iter()
                    .map(|workload| Entry {
                        span: workload.name(),
                        check: Check::Oracle,
                        roundtrip: workload.algorithm().starts_with("faulty-"),
                        workload,
                    })
                    .collect();
                SplitMix64::new(seed).shuffle(&mut entries);
                entries
            }
        }
    }
}

/// Span names of the trace round trip the `faulty-*` entries make.
const RUN_TRACED: &str = "engine.run_traced";
const TRACE_ENCODE: &str = "engine.trace_encode";
const TRACE_DECODE: &str = "engine.trace_decode";
const REPLAY: &str = "workloads.replay";

/// `run_traced → to_jsonl → from_jsonl → replay`; `None` if any step fails.
fn roundtrip(w: &dyn Workload, cfg: &ExecutorConfig, t: &mut Tracer) -> Option<RunOutcome> {
    let (outcome, log) = t.span(RUN_TRACED, |_| w.run_traced(cfg)).ok()?;
    let text = t.span(TRACE_ENCODE, |t| {
        let text = log.to_jsonl();
        t.count("bytes", text.len() as u64);
        text
    });
    let decoded = t
        .span(TRACE_DECODE, |t| {
            t.count("bytes", text.len() as u64);
            TraceLog::from_jsonl(&text)
        })
        .ok()?;
    t.span(REPLAY, |_| workloads::replay(&decoded))
        .is_ok()
        .then_some(outcome)
}

impl Bench for Suite {
    type Input = SuiteInput;
    type Rep = SuiteRep;

    fn setup(&self, seed: u64, t: &mut Tracer) -> SuiteInput {
        let build_all = |t: &mut Tracer| {
            let entries = self.entries(seed);
            let inputs = entries
                .iter()
                .map(|e| match (self.kind, e.span.as_str()) {
                    (Kind::EngineScale, BCONGEST_SPARSE) => t.span("graph.gen_sparse", |t| {
                        let input = e.workload.build();
                        t.count("edges", input.graph.m() as u64);
                        input
                    }),
                    (Kind::RegistrySweep, _) => e.workload.build(),
                    _ => t.span("workloads.build", |_| e.workload.build()),
                })
                .collect();
            (entries, inputs)
        };
        let (entries, inputs) = if self.kind == Kind::RegistrySweep {
            t.span("workloads.registry_build", build_all)
        } else {
            build_all(t)
        };
        SuiteInput {
            entries,
            inputs,
            cfg: ExecutorConfig::default(),
            passes: self.passes(),
            seed,
        }
    }

    fn rep(&self, input: &mut SuiteInput, t: &mut Tracer) -> SuiteRep {
        let mut rep = SuiteRep {
            first_pass: Vec::new(),
            passes: input.passes as u64,
            drifted: 0,
        };
        for pass in 0..input.passes {
            let mut case = 0;
            let mut keep = |outcome: Option<RunOutcome>| {
                if pass == 0 {
                    rep.first_pass.push(outcome);
                } else if outcome.is_none() || outcome != rep.first_pass[case] {
                    rep.drifted += 1;
                }
                case += 1;
            };
            for (e, built) in input.entries.iter().zip(&input.inputs) {
                keep(t.span(&e.span, |t| {
                    let outcome = e.workload.run_built(built, &input.cfg).ok()?;
                    t.count("messages", outcome.metrics.messages);
                    t.count("rounds", outcome.metrics.rounds);
                    t.count(
                        "node_rounds",
                        outcome.metrics.rounds * built.graph.n() as u64,
                    );
                    Some(outcome)
                }));
            }
            for e in input.entries.iter().filter(|e| e.roundtrip) {
                keep(roundtrip(e.workload.as_ref(), &input.cfg, t));
            }
        }
        rep
    }

    fn verify(&self, input: &SuiteInput, reference: &SuiteRep, t: &mut Tracer) -> u64 {
        let (runs, roundtrips) = reference.first_pass.split_at(input.entries.len());
        let mut recorded = roundtrips.iter();
        let mut rejected = 0;
        for ((e, built), run) in input.entries.iter().zip(&input.inputs).zip(runs) {
            let recorded = if e.roundtrip { recorded.next() } else { None };
            // A case that errored is already counted as a failed operation.
            let Some(outcome) = run else { continue };
            let span = if e.check == Check::Oracle {
                "workloads.oracle"
            } else {
                "harness.reference"
            };
            let answer_ok = t.span(span, |_| {
                e.check.accepts(e.workload.as_ref(), built, outcome)
            });
            let envelope_ok = e.workload.envelope().check(&outcome.metrics).is_ok();
            // A recorded run must produce what the unrecorded run produced
            // (a round trip that errored is counted as its own operation).
            let recorded_ok = !matches!(recorded, Some(Some(r)) if r != outcome);
            rejected += u64::from(!(answer_ok && envelope_ok && recorded_ok));
        }
        rejected * input.passes as u64
    }

    fn probes(&self, input: &SuiteInput, t: &mut Tracer) {
        if self.kind == Kind::MstTreeops {
            let wide = &input.inputs[0];
            t.span("graph.weights_unique", |_| {
                WeightedGraph::random_unique_weights(&wide.graph, input.seed)
            });
            let wg = wide.weighted_graph();
            t.span("graph.ref_mst", |_| reference::mst_kruskal(&wg));
        }
    }

    fn layers(&self, input: &SuiteInput, t: &Tracer) -> Vec<Metric> {
        let seconds = |span: &str| Metric::span_seconds(t, span);
        let per_s = |span: &str, what: &str, key: &str| {
            Metric::new(format!("{span}_{what}_per_s"), t.rate(span, key), "1/s")
        };
        let exact =
            |name: String, span: &str, key: &str| Metric::new(name, t.counted(span, key), "count");
        match self.kind {
            Kind::EngineScale => vec![
                seconds("graph.gen_sparse"),
                per_s("graph.gen_sparse", "edges", "edges"),
                seconds(BCONGEST_SPARSE),
                per_s(BCONGEST_SPARSE, "msgs", "messages"),
                seconds(CONGEST_SPARSE),
                per_s(CONGEST_SPARSE, "msgs", "messages"),
                seconds(BCONGEST_DENSE),
                per_s(BCONGEST_DENSE, "msgs", "messages"),
                seconds(ROUND_SCAN),
                Metric::new(
                    "engine.round_scan_ns_per_node_round",
                    ratio(
                        t.self_s(ROUND_SCAN) * 1e9,
                        t.counted(ROUND_SCAN, "node_rounds"),
                    ),
                    "ns",
                ),
                exact("sched.collection_rounds".into(), BCONGEST_DENSE, "rounds"),
                exact(
                    "sched.collection_messages".into(),
                    BCONGEST_DENSE,
                    "messages",
                ),
            ],
            Kind::MstTreeops => {
                let mut out = vec![
                    seconds("graph.weights_unique"),
                    seconds("graph.ref_mst"),
                    seconds(MST_WIDE),
                    per_s(MST_WIDE, "msgs", "messages"),
                    seconds(MST_DEEP),
                    per_s(MST_DEEP, "rounds", "rounds"),
                ];
                for (span, _) in MST_TRADEOFF {
                    out.push(seconds(span));
                    out.push(exact(format!("{span}_messages"), span, "messages"));
                    out.push(exact(format!("{span}_rounds"), span, "rounds"));
                }
                out
            }
            Kind::RegistrySweep => {
                // Mean run time per algorithm, over its entries and passes.
                let mut algorithms: Vec<(&'static str, f64, f64)> = Vec::new();
                for e in &input.entries {
                    let algorithm = e.workload.algorithm();
                    let slot = match algorithms.iter().position(|a| a.0 == algorithm) {
                        Some(i) => i,
                        None => {
                            algorithms.push((algorithm, 0.0, 0.0));
                            algorithms.len() - 1
                        }
                    };
                    algorithms[slot].1 += t.self_s(&e.span);
                    algorithms[slot].2 += input.passes as f64;
                }
                algorithms.sort_by_key(|a| a.0);
                let us = |name: String, seconds: f64| Metric::new(name, seconds * 1e6, "us");
                let (all_s, all_runs) = algorithms
                    .iter()
                    .fold((0.0, 0.0), |(s, n), a| (s + a.1, n + a.2));
                let (faulty_s, faulty_runs) = algorithms
                    .iter()
                    .filter(|a| a.0.starts_with("faulty-"))
                    .fold((0.0, 0.0), |(s, n), a| (s + a.1, n + a.2));
                let mb_per_s =
                    |name: &str, span: &str| Metric::new(name, t.rate(span, "bytes") / 1e6, "MB/s");
                let mut out = vec![
                    us("engine.small_run_us".into(), ratio(all_s, all_runs)),
                    us(
                        "engine.trace_record_us".into(),
                        t.self_s_per_call(RUN_TRACED) - ratio(faulty_s, faulty_runs),
                    ),
                    mb_per_s("engine.trace_encode_mb_per_s", TRACE_ENCODE),
                    mb_per_s("engine.trace_decode_mb_per_s", TRACE_DECODE),
                    us(
                        "workloads.registry_build_us".into(),
                        t.self_s("workloads.registry_build"),
                    ),
                    seconds("workloads.oracle"),
                    us("workloads.replay_us".into(), t.self_s_per_call(REPLAY)),
                ];
                out.extend(
                    algorithms
                        .iter()
                        .map(|a| us(format!("registry.{}_us", a.0), ratio(a.1, a.2))),
                );
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(kind: Kind) -> (Suite, SuiteInput, SuiteRep) {
        let suite = Suite { kind, smoke: true };
        let mut t = Tracer::new();
        let mut input = suite.setup(5, &mut t);
        let rep = suite.rep(&mut input, &mut t);
        (suite, input, rep)
    }

    #[test]
    fn a_wrong_output_of_a_sized_case_is_rejected_by_its_reference() {
        for kind in [Kind::EngineScale, Kind::MstTreeops] {
            let (suite, mut input, clean) = smoke(kind);
            let mut t = Tracer::new();
            assert_eq!(suite.verify(&input, &clean, &mut t), 0);
            for case in 0..input.entries.len() {
                // The first digit of an output is in its first distance,
                // checksum or tree edge: change it and the answer is wrong.
                let mut bad = suite.rep(&mut input, &mut t);
                let output = &mut bad.first_pass[case].as_mut().unwrap().output;
                let at = output.find(|c: char| c.is_ascii_digit()).unwrap();
                let other = if output.as_bytes()[at] == b'9' {
                    "8"
                } else {
                    "9"
                };
                output.replace_range(at..=at, other);
                assert_eq!(
                    suite.verify(&input, &bad, &mut t),
                    1,
                    "{kind:?} case {case}"
                );
            }
        }
    }

    #[test]
    fn a_rep_whose_every_case_errored_fails_each_operation_once() {
        let (suite, input, mut rep) = smoke(Kind::EngineScale);
        rep.first_pass.iter_mut().for_each(|case| *case = None);
        assert_eq!(rep.failures(None), rep.ops());
        assert_eq!(suite.verify(&input, &rep, &mut Tracer::new()), 0);
    }
}
