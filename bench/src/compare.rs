//! `results.json` and the compare gate: one row per workload × end-to-end
//! metric, judged against the bounds compiled in from `BENCHMARK.json`.

use crate::json::Json;
use crate::measure::{Metric, Report};
use crate::span::median;
use crate::spec::{Declared, Spec};

/// The results of one workload, as stored in `results.json`.
pub fn workload_json(report: &Report) -> Json {
    let metrics = |list: &[Metric]| {
        Json::obj(list.iter().map(|m| {
            (
                m.name.as_str(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                    (
                        "samples",
                        Json::Arr(m.samples.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                ]),
            )
        }))
    };
    Json::obj([
        ("reps", Json::Num(report.reps as f64)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics(&report.end_to_end)),
        ("layers", metrics(&report.per_layer)),
    ])
}

/// How a metric moved between two result sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The runs of one side spread wider than the bound and the two sides
    /// overlap: the data cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Reading {
    fn from_json(metric: &Json) -> Option<Reading> {
        Some(Reading {
            value: metric.get("value")?.as_f64()?,
            samples: metric
                .get("samples")?
                .as_arr()?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
        })
    }

    /// Distance between the quartiles as a share of the median (the full
    /// range where there are too few samples for quartiles).
    fn spread(&self) -> f64 {
        let mut xs = self.samples.clone();
        xs.sort_by(f64::total_cmp);
        let mid = median(xs.clone());
        if xs.len() < 2 || mid == 0.0 {
            return 0.0;
        }
        let (lo, hi) = if xs.len() >= 4 {
            (xs[xs.len() / 4], xs[xs.len() * 3 / 4])
        } else {
            (xs[0], xs[xs.len() - 1])
        };
        (hi - lo) / mid
    }

    fn range(&self) -> (f64, f64) {
        self.samples
            .iter()
            .fold((self.value, self.value), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    }
}

/// A `setup_s` that moves by less than this is not a verdict: a millisecond
/// set-up doubles and halves with the state of the host, and nobody pays it.
const SETUP_FLOOR_S: f64 = 0.05;

/// Judges `new` against `old`. Counts and ratios made by the program repeat
/// exactly for one seed, so with `exact` any movement is a verdict; timed
/// metrics get their declared bound.
pub fn judge(old: &Reading, new: &Reading, declared: &Declared, exact: bool) -> Verdict {
    if declared.name == "setup_s" && (new.value - old.value).abs() < SETUP_FLOOR_S {
        return Verdict::WithinBound;
    }
    let worse_by = if declared.higher_is_better {
        (old.value - new.value) / old.value
    } else {
        (new.value - old.value) / old.value
    };
    let by_direction = if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    if exact {
        return if new.value == old.value {
            Verdict::WithinBound
        } else {
            by_direction
        };
    }
    let bound = declared.bound.unwrap_or(0.0);
    if old.spread().max(new.spread()) > bound {
        let ((old_lo, old_hi), (new_lo, new_hi)) = (old.range(), new.range());
        let overlap = old_lo <= new_hi && new_lo <= old_hi;
        return if overlap {
            Verdict::Unresolved
        } else {
            by_direction
        };
    }
    if worse_by.abs() <= bound {
        Verdict::WithinBound
    } else {
        by_direction
    }
}

/// One row of the compare table.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub old: f64,
    pub new: f64,
    pub verdict: Verdict,
}

/// Compares two `results.json` documents.
///
/// # Errors
///
/// Names the first workload or metric one of the files lacks.
pub fn compare(old: &Json, new: &Json, spec: &Spec) -> Result<Vec<Row>, String> {
    let seed = |doc: &Json| doc.get("fingerprint").and_then(|f| f.get("seed")).cloned();
    let same_seed = seed(old).is_some() && seed(old) == seed(new);
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let side = |doc: &Json, which: &str| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .cloned()
                .ok_or_else(|| format!("{which} file has no workload {workload}"))
        };
        let (old_w, new_w) = (side(old, "old")?, side(new, "new")?);
        for declared in &spec.end_to_end {
            let reading = |w: &Json, which: &str| {
                w.get("metrics")
                    .and_then(|m| m.get(&declared.name))
                    .and_then(Reading::from_json)
                    .ok_or_else(|| format!("{which} file: {workload} has no {}", declared.name))
            };
            let (o, n) = (reading(&old_w, "old")?, reading(&new_w, "new")?);
            // The program's own counts repeat exactly for one seed; across
            // seeds they move with the input and get their declared bound.
            let exact = same_seed && matches!(declared.unit.as_str(), "count" | "ratio");
            rows.push(Row {
                workload: workload.clone(),
                metric: declared.name.clone(),
                unit: declared.unit.clone(),
                old: o.value,
                new: n.value,
                verdict: judge(&o, &n, declared, exact),
            });
        }
    }
    Ok(rows)
}

/// Prints the table; true when no row is `worse`.
pub fn print_rows(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<14} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "old", "new", "change"
    );
    for r in rows {
        println!(
            "{:<16} {:<14} {:>16.6} {:>16.6} {:>+8.2}%  {}  [{}]",
            r.workload,
            r.metric,
            r.old,
            r.new,
            (r.new - r.old) / r.old * 100.0,
            r.verdict.label(),
            r.unit
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    worse == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(higher: bool, bound: f64) -> Declared {
        Declared {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn reading(samples: &[f64]) -> Reading {
        Reading {
            value: median(samples.to_vec()),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let lower = declared(false, 0.10);
        let steady = reading(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        assert_eq!(
            judge(
                &steady,
                &reading(&[1.05, 1.04, 1.06, 1.05, 1.05]),
                &lower,
                false
            ),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(
                &steady,
                &reading(&[1.25, 1.24, 1.26, 1.25, 1.25]),
                &lower,
                false
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &steady,
                &reading(&[0.80, 0.81, 0.79, 0.80, 0.80]),
                &lower,
                false
            ),
            Verdict::Better
        );
        // A side spreading wider than the bound: overlapping runs cannot be
        // told apart, disjoint runs still can.
        let noisy = reading(&[0.90, 1.40, 1.00, 1.30, 1.10]);
        assert_eq!(judge(&steady, &noisy, &lower, false), Verdict::Unresolved);
        let noisy_and_far = reading(&[1.90, 2.40, 2.00, 2.30, 2.10]);
        assert_eq!(
            judge(&steady, &noisy_and_far, &lower, false),
            Verdict::Worse
        );
        // Higher-is-better flips the direction.
        let higher = declared(true, 0.10);
        assert_eq!(
            judge(&steady, &reading(&[1.25, 1.25, 1.25]), &higher, false),
            Verdict::Better
        );
        // Exact metrics tolerate nothing.
        let count = |x: f64| reading(&[x]);
        assert_eq!(
            judge(&count(71.0), &count(71.0), &lower, true),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&count(71.0), &count(72.0), &lower, true),
            Verdict::Worse
        );
        assert_eq!(
            judge(&count(71.0), &count(70.0), &lower, true),
            Verdict::Better
        );
    }
}
