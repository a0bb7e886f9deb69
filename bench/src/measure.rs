//! The measuring loop shared by every workload: set-up (repeated, median),
//! one untimed reference rep, timed reps (one `Instant` pair each), peak
//! memory, then verification and — in a traced run — the layer probes.
//!
//! Verification is outside the timed reps: the reference rep is checked
//! against the sequential oracles once the clock has stopped, and every
//! timed rep is compared with the reference rep right after its own
//! `Instant` pair closes.

use crate::span::{median, Tracer};
use std::time::Instant;

/// The seed of everything `--seed` must not reach: the program's own coin
/// flips, and the instances whose cost does not concentrate.
///
/// `--seed` draws the data — topologies where cost concentrates over them,
/// weights, query streams, orderings. The paper's randomized algorithms are
/// heavy-tailed in their coins (on one gnp-512 graph, Theorem 2.1's
/// simulation sent 0.75 M to 4.0 M messages over ten algorithm seeds), and a
/// few instances are heavy-tailed in the data itself (GHS on a 262 144-node
/// path took 0.71 M to 1.19 M rounds over ten weight permutations; the
/// Theorem 2.1 simulation 34 k to 86 k rounds over ten gnp-512 topologies at
/// fixed coins). A count that swings with the seed cannot gate a regression,
/// so those are pinned here and stated per case in the README.
pub const PINNED_SEED: u64 = 20_250_608;

/// Fewest timed reps a time-budgeted run makes, however slow the workload.
pub const MIN_REPS: usize = 7;
/// Fewest untraced/traced rep pairs of a time-budgeted traced run.
pub const MIN_TRACED_PAIRS: usize = 3;

/// What one rep produced, in the form the loop needs: how many operations it
/// attempted, how many of them failed outright or differ from the reference
/// rep, and the simulated cost it accounted.
pub trait RepOutcome {
    /// Operations attempted (case executions, or served requests).
    fn ops(&self) -> u64;
    /// Operations that failed: the program returned an error, or — when
    /// `reference` is given — the outcome is not equal to the reference
    /// rep's outcome for the same operation.
    fn failures(&self, reference: Option<&Self>) -> u64;
    /// `(messages, rounds)` summed over the rep's operations.
    fn account(&self) -> (u64, u64);
}

/// The simulated cost one sim-workload case accounted.
pub trait Accounted {
    /// `(messages, rounds)` of this case.
    fn account(&self) -> (u64, u64);
}

/// A rep of a sim workload: one slot per case, `None` where the program
/// returned an error. A case fails when it errored or differs from the same
/// case of the reference rep.
impl<T: PartialEq + Accounted> RepOutcome for Vec<Option<T>> {
    fn ops(&self) -> u64 {
        self.len() as u64
    }

    fn failures(&self, reference: Option<&Self>) -> u64 {
        let differing = match reference {
            None => self.iter().filter(|c| c.is_none()).count(),
            Some(r) => self
                .iter()
                .zip(r.iter())
                .filter(|(a, b)| a.is_none() || a != b)
                .count(),
        };
        differing as u64
    }

    fn account(&self) -> (u64, u64) {
        self.iter()
            .flatten()
            .map(Accounted::account)
            .fold((0, 0), |(m, r), (dm, dr)| (m + dm, r + dr))
    }
}

/// One benchmark workload. Implementations call only the facade's public
/// functions and wrap each call in a [`Tracer::span`].
pub trait Bench {
    type Input;
    type Rep: RepOutcome;

    /// Everything a user pays once before the first run: inputs, indexes,
    /// reference answers.
    fn setup(&self, seed: u64, t: &mut Tracer) -> Self::Input;
    /// Built input in → every case run to its outcome.
    fn rep(&self, input: &mut Self::Input, t: &mut Tracer) -> Self::Rep;
    /// Checks the reference rep against the sequential oracles; returns the
    /// number of operations they reject.
    fn verify(&self, input: &Self::Input, reference: &Self::Rep, t: &mut Tracer) -> u64;
    /// Extra spans of a traced run that no rep contains (direct calls into a
    /// layer the workload only reaches through another).
    fn probes(&self, _input: &Self::Input, _t: &mut Tracer) {}
    /// The workload's layer metrics, read off the finished trace.
    fn layers(&self, input: &Self::Input, t: &Tracer) -> Vec<Metric>;
}

/// A named value with its unit and the samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    /// A single reading.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples: vec![value],
        }
    }

    /// The median of `samples`.
    pub fn median_of(name: &str, samples: Vec<f64>, unit: &'static str) -> Self {
        Self {
            value: median(samples.clone()),
            samples,
            ..Self::new(name, 0.0, unit)
        }
    }

    /// The median self time of the spans named `span`, as `<span>_s`.
    pub fn span_seconds(t: &Tracer, span: &str) -> Self {
        Self::new(format!("{span}_s"), t.self_s(span), "s")
    }
}

/// How long and how to measure.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Time budget of the timed reps (ignored when `reps` is set).
    pub seconds: f64,
    /// Exact number of timed reps (rep pairs in a traced run).
    pub reps: Option<usize>,
    pub trace: bool,
}

/// Set-up is repeated at least `MIN_SETUPS` times and until
/// `SETUP_BUDGET_S` has gone into it (or `MAX_SETUPS` passes), so a
/// millisecond set-up reports a steady median.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 1000;

/// The measurements of one workload in one process.
#[derive(Clone, Debug)]
pub struct Report {
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// The span JSONL of a traced run.
    pub trace_jsonl: Option<String>,
    /// Per span name of the traced reps: self time as a share of the rep,
    /// largest first (the rep span's own share is the unattributed rest).
    pub shares: Vec<(String, f64)>,
}

/// Runs `bench` under `plan` and reports every metric it defines.
pub fn measure<B: Bench>(bench: &B, workload: &str, plan: &Plan) -> Report {
    let mut t = Tracer::new();
    t.set_enabled(plan.trace);

    // Set-up: repeated, each pass dropped before the next so peak memory is
    // that of one set-up.
    let mut setup_s = Vec::new();
    let mut spent = 0.0;
    let mut input = loop {
        t.enter("setup", setup_s.len() as u32);
        let start = Instant::now();
        let input = t.span("setup", |t| bench.setup(plan.seed, t));
        let dt = start.elapsed().as_secs_f64();
        setup_s.push(dt);
        spent += dt;
        let enough = setup_s.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S;
        if enough || setup_s.len() >= MAX_SETUPS {
            break input;
        }
    };

    // The reference rep: untimed warm-up whose outcome every later rep must
    // equal and which the oracles check after the clock has stopped.
    t.set_enabled(false);
    let reference = bench.rep(&mut input, &mut t);
    let ops_per_rep = reference.ops();
    let (messages, rounds) = reference.account();
    let mut attempted = ops_per_rep;
    let mut failed = reference.failures(None);

    let mut rep_s = Vec::new();
    let mut traced_rep_s = Vec::new();
    let budget = Instant::now();
    loop {
        // A traced run alternates untraced and traced reps, so the overhead
        // ratio compares reps made under the same conditions.
        let traced = plan.trace && rep_s.len() > traced_rep_s.len();
        t.set_enabled(traced);
        t.enter("rep", traced_rep_s.len() as u32);
        let start = Instant::now();
        let rep = t.span("rep", |t| bench.rep(&mut input, t));
        let dt = start.elapsed().as_secs_f64();
        attempted += rep.ops();
        failed += rep.failures(Some(&reference));
        drop(rep);
        if traced {
            traced_rep_s.push(dt);
        } else {
            rep_s.push(dt);
        }
        let (done, floor) = if plan.trace {
            (traced_rep_s.len(), MIN_TRACED_PAIRS)
        } else {
            (rep_s.len(), MIN_REPS)
        };
        let enough = match plan.reps {
            Some(n) => done >= n,
            None => done >= floor && budget.elapsed().as_secs_f64() >= plan.seconds,
        };
        // An untraced rep of a traced run still awaits its traced twin.
        let mid_pair = plan.trace && !traced;
        if enough && !mid_pair {
            break;
        }
    }
    // Peak memory of set-up and reps; the oracles' own memory comes after.
    let peak_rss_mb = vm_hwm_mib();

    t.set_enabled(plan.trace);
    t.enter("verify", 0);
    failed += t.span("verify", |t| bench.verify(&input, &reference, t));
    // An operation fails once, however many checks it fails.
    let failed = failed.min(attempted);
    if plan.trace {
        t.enter("probe", 0);
        t.span("probe", |t| bench.probes(&input, t));
    }

    let qps = rep_s.iter().map(|s| ops_per_rep as f64 / s).collect();
    let end_to_end = vec![
        Metric::median_of("wall_s", rep_s.clone(), "s"),
        Metric::median_of("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new("sim_messages", messages as f64, "count"),
        Metric::new("sim_rounds", rounds as f64, "count"),
        Metric::median_of("queries_per_s", qps, "1/s"),
        Metric::new(
            "ok_ratio",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
    ];

    let mut per_layer = Vec::new();
    let mut trace_jsonl = None;
    let mut shares = Vec::new();
    if plan.trace {
        per_layer = bench.layers(&input, &t);
        per_layer.push(Metric::new(
            "trace_overhead_ratio",
            median(traced_rep_s) / median(rep_s.clone()),
            "ratio",
        ));
        per_layer.push(Metric::new(
            "trace_attributed_ratio",
            attributed_ratio(&t),
            "ratio",
        ));
        trace_jsonl = Some(t.to_jsonl(workload));
        shares = rep_shares(&t);
    }

    Report {
        reps: rep_s.len(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        trace_jsonl,
        shares,
    }
}

/// Self time of each span name inside the traced reps, as a share of the
/// median traced rep.
fn rep_shares(t: &Tracer) -> Vec<(String, f64)> {
    let mut names: Vec<&str> = t
        .spans()
        .iter()
        .filter(|s| s.section == "rep")
        .map(|s| s.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut shares: Vec<(String, f64)> = names
        .iter()
        .map(|name| ((*name).to_owned(), t.self_s(name)))
        .collect();
    let rep_s: f64 = shares.iter().map(|s| s.1).sum();
    for share in &mut shares {
        share.1 /= rep_s;
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// Median over traced reps of the share of the rep's duration that lies in
/// named child spans rather than in the rep span's own self time.
fn attributed_ratio(t: &Tracer) -> f64 {
    let own = t.self_ns();
    median(
        t.spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.section == "rep" && s.parent.is_none())
            .map(|(s, &own_ns)| 1.0 - own_ns as f64 / s.duration_ns() as f64)
            .collect(),
    )
}

/// `VmHWM` of this process in MiB — the high-water mark of resident memory.
/// 0 where `/proc` does not exist (the metric is then reported as unavailable
/// by a 0 the compare step flags, not by a made-up figure).
pub fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake program: three operations a rep; from the third rep on the
    /// second operation answers differently, and the oracle rejects the
    /// first operation of the reference rep.
    struct Drifting {
        calls: std::cell::Cell<u32>,
    }

    struct Answers(Vec<Option<u32>>);

    impl RepOutcome for Answers {
        fn ops(&self) -> u64 {
            self.0.len() as u64
        }
        fn failures(&self, reference: Option<&Self>) -> u64 {
            match reference {
                None => self.0.iter().filter(|a| a.is_none()).count() as u64,
                Some(r) => self.0.iter().zip(&r.0).filter(|(a, b)| a != b).count() as u64,
            }
        }
        fn account(&self) -> (u64, u64) {
            (10, 2)
        }
    }

    impl Bench for Drifting {
        type Input = ();
        type Rep = Answers;
        fn setup(&self, _seed: u64, _t: &mut Tracer) {}
        fn rep(&self, (): &mut (), t: &mut Tracer) -> Answers {
            let call = self.calls.get();
            self.calls.set(call + 1);
            t.span("fake.work", |_| {
                Answers(vec![Some(1), Some(if call >= 2 { 99 } else { 2 }), Some(3)])
            })
        }
        fn verify(&self, (): &(), reference: &Answers, _t: &mut Tracer) -> u64 {
            u64::from(reference.0[0] == Some(1))
        }
        fn layers(&self, (): &(), t: &Tracer) -> Vec<Metric> {
            vec![Metric::new("fake.work_s", t.self_s("fake.work"), "s")]
        }
    }

    fn plan(trace: bool) -> Plan {
        Plan {
            seed: 1,
            seconds: 0.0,
            reps: Some(4),
            trace,
        }
    }

    #[test]
    fn mismatched_outcomes_and_rejected_answers_are_counted_not_ignored() {
        let bench = Drifting {
            calls: std::cell::Cell::new(0),
        };
        let report = measure(&bench, "fake", &plan(false));
        // Reference rep + 4 timed reps of 3 operations.
        assert_eq!(report.reps, 4);
        assert_eq!(report.attempted, 15);
        // Reps 3..5 each differ from the reference in one operation, and the
        // oracle rejects one operation of the reference rep: the run went on
        // and counted all four.
        assert_eq!(report.failed, 4);
        let ok = report
            .end_to_end
            .iter()
            .find(|m| m.name == "ok_ratio")
            .unwrap();
        assert_eq!(ok.value, 11.0 / 15.0);
        assert!(report.per_layer.is_empty() && report.trace_jsonl.is_none());
    }

    /// A program that always errors, under an oracle that rejects each of its
    /// operations again.
    struct Broken;

    struct Nothing;

    impl Accounted for Nothing {
        fn account(&self) -> (u64, u64) {
            (0, 0)
        }
    }

    impl PartialEq for Nothing {
        fn eq(&self, _: &Self) -> bool {
            true
        }
    }

    impl Bench for Broken {
        type Input = ();
        type Rep = Vec<Option<Nothing>>;
        fn setup(&self, _seed: u64, _t: &mut Tracer) {}
        fn rep(&self, (): &mut (), _t: &mut Tracer) -> Self::Rep {
            vec![None, None, None, None]
        }
        fn verify(&self, (): &(), reference: &Self::Rep, _t: &mut Tracer) -> u64 {
            reference.len() as u64
        }
        fn layers(&self, (): &(), _t: &Tracer) -> Vec<Metric> {
            Vec::new()
        }
    }

    #[test]
    fn a_run_whose_every_operation_errors_reports_them_all_and_no_more() {
        let report = measure(&Broken, "broken", &plan(false));
        assert_eq!((report.attempted, report.failed), (20, 20));
        let ok = report
            .end_to_end
            .iter()
            .find(|m| m.name == "ok_ratio")
            .unwrap();
        assert_eq!(ok.value, 0.0);
    }

    #[test]
    fn a_traced_run_pairs_reps_and_reports_layers() {
        let bench = Drifting {
            calls: std::cell::Cell::new(0),
        };
        let report = measure(&bench, "fake", &plan(true));
        assert_eq!(report.reps, 4, "four untraced reps beside four traced ones");
        assert_eq!(report.attempted, 27);
        let names: Vec<&str> = report.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "fake.work_s",
                "trace_overhead_ratio",
                "trace_attributed_ratio"
            ]
        );
        let jsonl = report.trace_jsonl.unwrap();
        assert_eq!(
            jsonl
                .lines()
                .filter(|l| l.contains("\"fake.work\""))
                .count(),
            4,
            "only the traced reps record spans"
        );
    }

    #[test]
    fn end_to_end_metrics_are_never_zero_and_named_once() {
        let bench = Drifting {
            calls: std::cell::Cell::new(0),
        };
        let report = measure(&bench, "fake", &plan(false));
        let mut names: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert!(report.end_to_end.iter().all(|m| m.value > 0.0));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
