//! `BENCHMARK.json` as the harness sees it. The file is compiled in, so the
//! names, units and regression bounds `compare` applies are those of the
//! commit the binary was built from.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the old median a metric may worsen by; `None` for layer metrics.
    pub bound: Option<f64>,
}

/// The declared benchmark.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn declared(list: &Json) -> Vec<Declared> {
    list.as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).expect("metric field");
            Declared {
                name: field("name").to_owned(),
                unit: field("unit").to_owned(),
                higher_is_better: field("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

impl Spec {
    /// The benchmark this binary was built with.
    ///
    /// # Panics
    ///
    /// Panics if the compiled-in `BENCHMARK.json` is malformed — a defect of
    /// the commit, caught by the crate's tests.
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).expect("BENCHMARK.json key");
        Spec {
            run_seconds: list("run_seconds").as_f64().expect("run_seconds"),
            workloads: list("workloads")
                .as_arr()
                .expect("workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("workload name")
                        .to_owned()
                })
                .collect(),
            end_to_end: declared(list("end_to_end")),
            per_layer: declared(list("per_layer")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let spec = Spec::load();
        assert_eq!(spec.workloads.len(), 5);
        assert_eq!(spec.end_to_end.len(), 7);
        assert!(spec.per_layer.len() <= 128);
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        let mut names: Vec<&String> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .collect();
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "{}: {bound}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for w in doc.get("workloads").unwrap().as_arr().unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    /// The harness restates the root `[profile.release]`; they must not drift.
    #[test]
    fn profile_mirrors_root() {
        let release_profile = |manifest: &str| -> Vec<String> {
            let text = std::fs::read_to_string(manifest).unwrap();
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap().trim().to_owned())
                .filter(|l| !l.is_empty())
                .collect()
        };
        let here = env!("CARGO_MANIFEST_DIR");
        let own = release_profile(&format!("{here}/Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, release_profile(&format!("{here}/../Cargo.toml")));
    }
}
