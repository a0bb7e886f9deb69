//! In-memory spans and counters, recorded by the harness around each call it
//! makes into a layer. Nothing here touches the program under test: a span is
//! two `Instant` reads in the harness's own frame, and a disabled tracer is a
//! plain function call.
//!
//! A span's **self time** is its duration minus the durations of its direct
//! children, so the self times of a tree sum exactly to the root's duration.

use crate::json::Json;
use std::time::Instant;

/// One recorded span. `parent` indexes into the tracer's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Which part of the run recorded it: `setup`, `rep`, `verify`, `probe`.
    pub section: &'static str,
    /// The repetition of that section (set-up pass or rep number).
    pub iter: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counters taken at the same boundary (`messages`, `rounds`, `bytes`, …).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled; a transparent call-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    section: &'static str,
    iter: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            section: "setup",
            iter: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; only legal between top-level spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.enabled = on;
    }

    /// Labels the spans recorded from here on.
    pub fn enter(&mut self, section: &'static str, iter: u32) {
        self.section = section;
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            section: self.section,
            iter: self.iter,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attaches a counter to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per `(section, iter)` group that contains a span named `name`: the
    /// summed self time in seconds, the number of such spans, and the summed
    /// value of counter `key` (0 when absent).
    pub fn groups(&self, name: &str, key: &str) -> Vec<Group> {
        let own = self.self_ns();
        let mut groups: Vec<((&'static str, u32), Group)> = Vec::new();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            if s.name != name {
                continue;
            }
            let id = (s.section, s.iter);
            let slot = match groups.iter().position(|(g, _)| *g == id) {
                Some(i) => i,
                None => {
                    groups.push((id, Group::default()));
                    groups.len() - 1
                }
            };
            let g = &mut groups[slot].1;
            g.self_s += self_ns as f64 / 1e9;
            g.calls += 1;
            g.count += s
                .counts
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .sum::<u64>();
        }
        groups.into_iter().map(|(_, g)| g).collect()
    }

    /// Median over groups of the summed self time of `name`, in seconds
    /// (0 when the run recorded no such span).
    pub fn self_s(&self, name: &str) -> f64 {
        median(self.groups(name, "").iter().map(|g| g.self_s).collect())
    }

    /// Median over groups of the mean self time per span named `name`.
    pub fn self_s_per_call(&self, name: &str) -> f64 {
        median(
            self.groups(name, "")
                .iter()
                .map(|g| g.self_s / g.calls as f64)
                .collect(),
        )
    }

    /// Median over groups of counter `key` summed over spans named `name`.
    pub fn counted(&self, name: &str, key: &str) -> f64 {
        median(
            self.groups(name, key)
                .iter()
                .map(|g| g.count as f64)
                .collect(),
        )
    }

    /// `counted / self_s`, 0 when the span never ran.
    pub fn rate(&self, name: &str, key: &str) -> f64 {
        ratio(self.counted(name, key), self.self_s(name))
    }

    /// One JSON line per span, in recording order.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(&own).enumerate() {
            let line = Json::obj([
                ("workload", Json::str(workload)),
                ("section", Json::str(s.section)),
                ("iter", Json::Num(f64::from(s.iter))),
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(*self_ns as f64)),
                (
                    "counts",
                    Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Num(v as f64)))),
                ),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Aggregate of the spans of one name inside one `(section, iter)` group.
#[derive(Clone, Copy, Debug, Default)]
pub struct Group {
    pub self_s: f64,
    pub calls: u64,
    pub count: u64,
}

/// `num / den`, 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median (mean of the middle pair for even lengths); 0 for no samples.
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.enter("rep", 0);
        t.span("rep", |t| {
            spin(200);
            t.span("a", |t| {
                spin(300);
                t.span("a.inner", |_| spin(100));
                t.count("messages", 7);
            });
            t.span("b", |_| spin(150));
        });
        let own = t.self_ns();
        let root = &t.spans()[0];
        assert_eq!(root.parent, None);
        assert_eq!(own.iter().sum::<u64>(), root.duration_ns());
        assert!(own[0] >= 200_000 && own[0] < root.duration_ns());
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.counted("a", "messages"), 7.0);
        assert!(t.self_s("a") >= 300e-6 && t.self_s("a") < t.self_s("a") + t.self_s("a.inner"));
        // Every span is one JSONL line that parses back.
        let jsonl = t.to_jsonl("w");
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("workload").and_then(Json::as_str), Some("w"));
        }
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let v = t.span("x", |t| {
            t.count("k", 1);
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
        assert_eq!(t.self_s("x"), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
