//! `apspbench` — the repository's one benchmark. See `bench/README.md`.
//!
//! ```text
//! apspbench --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! apspbench run     [--workload W] [--seed N] [--reps R]    every end-to-end metric
//! apspbench trace   [--workload W] [--seed N] [--reps R]    every per-layer metric
//! apspbench compare OLD.json NEW.json                       the regression gate
//! apspbench aa      [--seed N] [--reps R]                   two sets of one build, compared
//! apspbench smoke                                           toy sizes, every metric checked
//! ```

mod apsp;
mod compare;
mod json;
mod measure;
mod rng;
mod serve;
mod span;
mod spec;
mod suite;

use json::Json;
use measure::{measure, Metric, Plan, Report};
use spec::Spec;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use suite::{Kind, Suite};

/// At the default seed the seeded and the pinned instances coincide.
const DEFAULT_SEED: u64 = measure::PINNED_SEED;
/// Timed reps of `run` (after the untimed reference rep): the floor a
/// time-budgeted run also keeps, so `engine_scale` stays near 30 s a run.
const RUN_REPS: usize = measure::MIN_REPS;
/// Untraced/traced rep pairs of `trace`.
const TRACE_REPS: usize = 3;

/// The flags shared by every form of the command line.
#[derive(Clone, Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("a workload name")?),
            "--seed" => {
                flags.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {s} is not a duration"));
                }
                flags.seconds = Some(s);
            }
            "--reps" => {
                let r: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if r == 0 {
                    return Err("--reps: at least one rep".into());
                }
                flags.reps = Some(r);
            }
            "--trace" => {
                flags.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                };
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_owned()),
        }
    }
    Ok(flags)
}

/// Measures one workload in this process; `None` for an unknown name.
fn run_workload(name: &str, smoke: bool, plan: &Plan) -> Option<Report> {
    let suite = |kind| measure(&Suite { kind, smoke }, name, plan);
    Some(match name {
        "apsp_tradeoff" => measure(&apsp::ApspTradeoff { smoke }, name, plan),
        "engine_scale" => suite(Kind::EngineScale),
        "mst_treeops" => suite(Kind::MstTreeops),
        "registry_sweep" => suite(Kind::RegistrySweep),
        "serve_queries" => measure(&serve::ServeQueries { smoke }, name, plan),
        _ => return None,
    })
}

/// Where run artefacts go: `bench/out` from the repository root, `out` from
/// inside `bench/`.
fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("bench/Cargo.toml").is_file() {
        PathBuf::from("bench/out")
    } else {
        PathBuf::from("out")
    };
    // Best effort: a run that cannot keep its artefacts still reports.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being the declared ones — a declared layer metric
/// this workload's layers did not produce reads 0 (that layer did no work).
fn result_line(report: &Report, spec: &Spec, trace: bool) -> Json {
    let (declared, measured) = if trace {
        (&spec.per_layer, &report.per_layer)
    } else {
        (&spec.end_to_end, &report.end_to_end)
    };
    let metrics = declared.iter().map(|d| {
        let value = measured
            .iter()
            .find(|m| m.name == d.name)
            .map_or(0.0, |m| m.value);
        (
            d.name.as_str(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(d.unit.as_str())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        print!("{workload} {} {} {}", m.name, m.value, m.unit);
        if m.samples.len() > 1 {
            let lo = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            print!("  (min {lo} max {hi} n {})", m.samples.len());
        }
        println!();
    }
}

/// The one-workload form the driver (and `run`/`trace`, per workload) calls.
fn child(flags: &Flags, spec: &Spec) -> ExitCode {
    let Some(workload) = flags.workload.as_deref() else {
        eprintln!(
            "apspbench: --workload is required (or a subcommand: run, trace, compare, aa, smoke)"
        );
        return ExitCode::from(2);
    };
    let plan = Plan {
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        seconds: flags.seconds.unwrap_or(spec.run_seconds),
        reps: flags.reps,
        trace: flags.trace,
    };
    let Some(report) = run_workload(workload, false, &plan) else {
        eprintln!(
            "apspbench: unknown workload {workload:?}; one of {:?}",
            spec.workloads
        );
        return ExitCode::from(2);
    };
    print_metrics(workload, &report.end_to_end);
    print_metrics(workload, &report.per_layer);
    println!(
        "{workload} attempted {} failed {} reps {}",
        report.attempted, report.failed, report.reps
    );
    if let Some(jsonl) = &report.trace_jsonl {
        print_shares(workload, &report);
        let path = out_dir().join(format!("trace-{workload}.jsonl"));
        match std::fs::write(&path, jsonl) {
            Ok(()) => println!("{workload} spans written to {}", path.display()),
            Err(e) => eprintln!("apspbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("#detail {}", compare::workload_json(&report).render());
    println!("{}", result_line(&report, spec, flags.trace).render());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The share table of a traced run: each span name's self time as a share of
/// the traced rep — the ceiling on what speeding that layer up can save.
fn print_shares(workload: &str, report: &Report) {
    println!("{workload} share of a traced rep, by span (self time):");
    let mut other = 0.0;
    for (name, share) in &report.shares {
        if *share >= 0.005 {
            println!("{workload}   {:>6.2}%  {name}", share * 100.0);
        } else {
            other += share;
        }
    }
    println!(
        "{workload}   {:>6.2}%  (spans below 0.5% each)",
        other * 100.0
    );
}

/// Runs `workloads` one child process each (so peak memory is per workload)
/// and returns the results document.
fn run_set(flags: &Flags, spec: &Spec, trace: bool) -> Result<Json, String> {
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let reps = flags
        .reps
        .unwrap_or(if trace { TRACE_REPS } else { RUN_REPS });
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&String> = match &flags.workload {
        Some(w) => vec![spec
            .workloads
            .iter()
            .find(|n| *n == w)
            .ok_or_else(|| format!("unknown workload {w:?}; one of {:?}", spec.workloads))?],
        None => spec.workloads.iter().collect(),
    };
    let mut results = Vec::new();
    for name in names {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--reps", &reps.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut detail = None;
        for line in stdout.lines() {
            if let Some(doc) = line.strip_prefix("#detail ") {
                detail = Some(Json::parse(doc).map_err(|e| format!("{name}: detail line: {e}"))?);
            } else if !line.starts_with('{') {
                println!("{line}");
            }
        }
        let detail = detail.ok_or_else(|| {
            format!(
                "{name}: the child printed no result (exit {})",
                output.status
            )
        })?;
        results.push((name.clone(), detail));
    }
    Ok(Json::obj([
        ("fingerprint", fingerprint(seed, reps)),
        ("workloads", Json::Obj(results)),
    ]))
}

/// Whatever a reader needs to decide whether two result files are comparable.
fn fingerprint(seed: u64, reps: usize) -> Json {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            )
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let default_threads = congest_apsp::ExecutorConfig::default().threads;
    let passes = Suite {
        kind: Kind::RegistrySweep,
        smoke: false,
    }
    .passes();
    Json::obj([
        ("cores", Json::Num(cores as f64)),
        ("default_threads", Json::Num(default_threads as f64)),
        // More worker threads than cores: timings are recorded but are no
        // evidence of a parallel speed-up.
        ("oversubscribed", Json::Bool(default_threads > cores)),
        ("rustc", Json::str(tool("rustc", &["--version"]))),
        ("git_rev", Json::str(tool("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("registry_passes", Json::Num(passes as f64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (debug = true)"
            }),
        ),
    ])
}

fn total_failed(results: &Json) -> u64 {
    results
        .get("workloads")
        .and_then(Json::as_obj)
        .map_or(0, |workloads| {
            workloads
                .iter()
                .filter_map(|(_, w)| w.get("failed").and_then(Json::as_f64))
                .sum::<f64>() as u64
        })
}

fn write_results(name: &str, results: &Json) {
    let path = out_dir().join(name);
    match std::fs::write(&path, results.render() + "\n") {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("apspbench: cannot write {}: {e}", path.display()),
    }
}

fn cmd_run(flags: &Flags, spec: &Spec, trace: bool) -> Result<ExitCode, String> {
    let results = run_set(flags, spec, trace)?;
    println!(
        "fingerprint {}",
        results
            .get("fingerprint")
            .map_or_else(String::new, Json::render)
    );
    write_results(if trace { "trace.json" } else { "results.json" }, &results);
    Ok(if total_failed(&results) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(flags: &Flags, spec: &Spec) -> Result<ExitCode, String> {
    let [old, new] = flags.positional.as_slice() else {
        return Err("compare takes OLD.json NEW.json".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = (load(old)?, load(new)?);
    let rows = compare::compare(&old, &new, spec)?;
    let no_worse = compare::print_rows(&rows);
    let more_failures = total_failed(&new) > total_failed(&old);
    if more_failures {
        println!("more failed operations than before");
    }
    Ok(if no_worse && !more_failures {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_aa(flags: &Flags, spec: &Spec) -> Result<ExitCode, String> {
    println!("== set A ==");
    let a = run_set(flags, spec, false)?;
    println!("== set B ==");
    let b = run_set(flags, spec, false)?;
    write_results("aa-a.json", &a);
    write_results("aa-b.json", &b);
    println!("== A (old) beside B (new) ==");
    let rows = compare::compare(&a, &b, spec)?;
    let no_worse = compare::print_rows(&rows);
    let failed = total_failed(&a) + total_failed(&b);
    Ok(if no_worse && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload at toy sizes, in this process, untraced and traced: checks
/// that each declared metric is emitted exactly once with its declared unit
/// and that nothing fails.
fn smoke(spec: &Spec) -> Result<(), String> {
    let mut layer_homes: Vec<(String, String)> = Vec::new();
    for workload in &spec.workloads {
        for trace in [false, true] {
            let plan = Plan {
                seed: DEFAULT_SEED,
                seconds: 0.0,
                reps: Some(2),
                trace,
            };
            let report = run_workload(workload, true, &plan)
                .ok_or_else(|| format!("{workload} is declared but not implemented"))?;
            if report.failed != 0 || report.attempted == 0 {
                return Err(format!(
                    "{workload}: {} of {} operations failed",
                    report.failed, report.attempted
                ));
            }
            let emitted: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
            let declared: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
            if emitted != declared {
                return Err(format!(
                    "{workload}: end-to-end {emitted:?}, declared {declared:?}"
                ));
            }
            for m in report.end_to_end.iter().chain(&report.per_layer) {
                let d = spec
                    .end_to_end
                    .iter()
                    .chain(&spec.per_layer)
                    .find(|d| d.name == m.name)
                    .ok_or_else(|| format!("{workload}: {} is not declared", m.name))?;
                if d.unit != m.unit {
                    return Err(format!("{}: unit {} declared {}", m.name, m.unit, d.unit));
                }
                if !m.value.is_finite() {
                    return Err(format!("{workload}: {} is {}", m.name, m.value));
                }
            }
            if report.end_to_end.iter().any(|m| m.value <= 0.0) {
                return Err(format!("{workload}: an end-to-end metric is not positive"));
            }
            // The two ratios every traced run reports are per workload; every
            // other layer metric has exactly one home.
            layer_homes.extend(
                report
                    .per_layer
                    .iter()
                    .filter(|m| !m.name.starts_with("trace_"))
                    .map(|m| (m.name.clone(), workload.clone())),
            );
            println!(
                "smoke {workload} trace={} ok: {} operations, {} layer metrics",
                u8::from(trace),
                report.attempted,
                report.per_layer.len()
            );
        }
    }
    for d in spec
        .per_layer
        .iter()
        .filter(|d| !d.name.starts_with("trace_"))
    {
        let homes: Vec<&str> = layer_homes
            .iter()
            .filter(|(name, _)| *name == d.name)
            .map(|(_, w)| w.as_str())
            .collect();
        if homes.len() != 1 {
            return Err(format!(
                "{} is emitted by {homes:?}, not exactly once",
                d.name
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "aa" | "smoke")) => (c, &args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("usage: apspbench [run|trace|compare OLD NEW|aa|smoke] [--workload W] [--seed N] [--seconds S] [--reps R] [--trace 0|1]");
            return ExitCode::SUCCESS;
        }
        _ => ("child", &args[..]),
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("apspbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let outcome = match command {
        "run" => cmd_run(&flags, &spec, false),
        "trace" => cmd_run(&flags, &spec, true),
        "compare" => cmd_compare(&flags, &spec),
        "aa" => cmd_aa(&flags, &spec),
        "smoke" => smoke(&spec).map(|()| ExitCode::SUCCESS),
        _ => Ok(child(&flags, &spec)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("apspbench: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_emits_every_declared_metric_once_and_nothing_fails() {
        smoke(&Spec::load()).unwrap();
    }

    #[test]
    fn the_result_line_has_exactly_the_declared_keys() {
        let spec = Spec::load();
        let plan = Plan {
            seed: 3,
            seconds: 0.0,
            reps: Some(1),
            trace: true,
        };
        let report = run_workload("serve_queries", true, &plan).unwrap();
        for trace in [false, true] {
            let line = Json::parse(&result_line(&report, &spec, trace).render()).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let declared = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(
                metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                declared.iter().map(|d| d.name.as_str()).collect::<Vec<_>>()
            );
            // A layer this workload never enters reads 0; its own do not.
            if trace {
                let value = |name: &str| {
                    line.get("metrics")
                        .unwrap()
                        .get(name)
                        .unwrap()
                        .get("value")
                        .unwrap()
                        .as_f64()
                };
                assert_eq!(value("algos.mst_wide_s"), Some(0.0));
                assert!(value("serve.point_hit_ns").unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn flags_reject_what_they_cannot_mean() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_flags(&args("--workload w --seed 9 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_deref(), ok.seed, ok.seconds, ok.trace),
            (Some("w"), Some(9), Some(2.0), true)
        );
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--reps 0",
            "--seconds -1",
            "--nope 1",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
    }
}
