//! The deterministic closed-loop load generator: rps-ramp sweeps over
//! scenario mixes, with every sampled answer differential-checked as it is
//! served.
//!
//! The shape follows the Internet-Computer scalability harness (SNIPPETS.md
//! §2): a request-rate **ramp** from `initial_rps` up to `target_rps` in
//! `increment_rps` steps, each step issuing a paced request stream for a
//! fixed duration and reporting p50/p95/p99 service latency, the **achieved**
//! rps (which falls below the target once the oracle saturates), and cache
//! hit rates. The query *streams* are pure functions of the seed — reruns
//! issue byte-identical requests in byte-identical order — while latencies
//! are machine-dependent wall-clock.
//!
//! Every answer is checked against an [`AnswerCheck`] (the sequential
//! reference) **outside** the per-request latency window, so a divergence
//! fails the run without skewing the percentiles.

use crate::oracle::DistanceOracle;
use apsp_core::distance::{Distance, DistanceSource};
use congest_graph::{reference, rng, Graph, NodeId, WeightedGraph};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// The request-rate ramp: `initial_rps`, then `+ increment_rps` per step,
/// capped at (and always including) `target_rps`.
#[derive(Clone, Debug)]
pub struct RampConfig {
    /// First step's request rate (requests per second).
    pub initial_rps: u64,
    /// Rate increase per step.
    pub increment_rps: u64,
    /// Final step's request rate.
    pub target_rps: u64,
    /// Wall-clock duration of each step, milliseconds (the step's request
    /// count is `rate × duration`, so higher-rate steps issue more work).
    pub step_duration_ms: u64,
}

impl RampConfig {
    /// The step rates of this ramp, ascending, `target_rps` always last.
    ///
    /// Degenerate configurations are clamped rather than rejected: a
    /// `target_rps` of 0 serves as 1 (a zero-rate step could never pace), and
    /// an `initial_rps` above `target_rps` is clamped **down** to the target —
    /// the ramp is defined as ascending, so an inverted pair means "just run
    /// the target step", not "silently drop the configured initial rate"
    /// (which is what the pre-clamp code did: the while loop never ran and
    /// `initial_rps` vanished from the sweep without a trace).
    pub fn steps(&self) -> Vec<u64> {
        let target = self.target_rps.max(1);
        let mut rates = Vec::new();
        let mut r = self.initial_rps.clamp(1, target);
        while r < target {
            rates.push(r);
            r = r.saturating_add(self.increment_rps.max(1));
        }
        rates.push(target);
        rates
    }
}

/// What one scenario's request stream looks like.
#[derive(Clone, Debug)]
pub enum QueryMix {
    /// Every request is a point lookup over uniformly random `(s, t)` pairs.
    Uniform,
    /// Point lookups with hot-key skew: with probability `hot_permille`/1000
    /// the pair is drawn from the first `hot_nodes` node ids only.
    HotKey {
        /// Size of the hot key set.
        hot_nodes: usize,
        /// Probability (in permille) that a request hits the hot set.
        hot_permille: u32,
    },
    /// Every request is a `k`-nearest query from a uniformly random source.
    Knn {
        /// Neighbours per query.
        k: usize,
    },
    /// Every request is a batched lookup of `size` uniformly random pairs.
    Batch {
        /// Pairs per batch.
        size: usize,
    },
}

/// One scenario: a named query mix plus its cache posture.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable report key, e.g. `"uniform-cold"`.
    pub name: String,
    /// The request stream's shape.
    pub mix: QueryMix,
    /// `true` replays the first step's stream once, untimed, before the ramp
    /// (warmed cache); `false` starts from an empty cache (cold start).
    pub warm_cache: bool,
}

/// Differential checker the load generator calls on **every** answer.
pub trait AnswerCheck {
    /// Validates one point/batched answer.
    ///
    /// # Errors
    ///
    /// Describes the divergence.
    fn check_point(&self, s: NodeId, t: NodeId, got: Distance) -> Result<(), String>;

    /// Validates one k-nearest answer.
    ///
    /// # Errors
    ///
    /// Describes the divergence.
    fn check_knn(&self, s: NodeId, k: usize, got: &[(NodeId, Distance)]) -> Result<(), String>;
}

/// The sequential reference for **exact** sources: a `want[s][t]` distance
/// matrix (all-pairs Dijkstra/BFS). Point answers must be byte-equal;
/// k-nearest answers must equal the reference ordering under the
/// `(distance, node id)` total order.
#[derive(Clone, Debug)]
pub struct ExactReference {
    want: Vec<Vec<Option<u64>>>,
}

impl ExactReference {
    /// Wraps a precomputed `want[s][t]` matrix.
    pub fn new(want: Vec<Vec<Option<u64>>>) -> Self {
        Self { want }
    }

    /// The sequential all-pairs Dijkstra reference for `wg`.
    pub fn dijkstra(wg: &WeightedGraph) -> Self {
        Self::new(reference::all_pairs_dijkstra(wg))
    }

    /// The sequential all-pairs BFS reference for `g`.
    pub fn bfs(g: &Graph) -> Self {
        Self::new(
            reference::all_pairs_bfs(g)
                .into_iter()
                .map(|row| row.into_iter().map(|d| d.map(u64::from)).collect())
                .collect(),
        )
    }

    /// The reference's own k-nearest answer from `s`.
    pub fn k_nearest(&self, s: NodeId, k: usize) -> Vec<(NodeId, u64)> {
        let mut reached: Vec<(u64, usize)> = self.want[s.index()]
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != s.index())
            .filter_map(|(t, &d)| d.map(|v| (v, t)))
            .collect();
        reached.sort_unstable();
        reached
            .into_iter()
            .take(k)
            .map(|(v, t)| (NodeId::new(t), v))
            .collect()
    }
}

impl AnswerCheck for ExactReference {
    fn check_point(&self, s: NodeId, t: NodeId, got: Distance) -> Result<(), String> {
        let want = match self.want[s.index()][t.index()] {
            Some(d) => Distance::Exact(d),
            None => Distance::Unknown,
        };
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "lookup({s:?},{t:?}) served {got:?}, reference {want:?}"
            ))
        }
    }

    fn check_knn(&self, s: NodeId, k: usize, got: &[(NodeId, Distance)]) -> Result<(), String> {
        let want = self.k_nearest(s, k);
        let got_flat: Vec<(NodeId, u64)> = got
            .iter()
            .map(|&(t, d)| {
                d.value()
                    .map(|v| (t, v))
                    .ok_or_else(|| format!("k_nearest({s:?},{k}) served uncovered node {t:?}"))
            })
            .collect::<Result<_, _>>()?;
        if got_flat == want {
            Ok(())
        } else {
            Err(format!(
                "k_nearest({s:?},{k}) served {got_flat:?}, reference {want:?}"
            ))
        }
    }
}

/// One ramp step's measurements.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// The rate this step paced toward.
    pub target_rps: u64,
    /// Requests issued (a batch or k-NN query counts as one request).
    pub requests: u64,
    /// Point answers served (batch elements count individually; k-NN counts
    /// one per query).
    pub lookups: u64,
    /// Requests completed per second of step wall-clock.
    pub achieved_rps: f64,
    /// Median service latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile service latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile service latency, microseconds.
    pub p99_us: f64,
    /// Cache hits during this step.
    pub hits: u64,
    /// Cache misses during this step.
    pub misses: u64,
    /// Answers differential-checked during this step (every one).
    pub checked: u64,
}

impl StepReport {
    /// Cache hit rate of this step (0 when the step served no cached path).
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}

/// One scenario's full ramp.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario's report key.
    pub scenario: String,
    /// Whether the cache was warmed before the ramp.
    pub warmed: bool,
    /// One report per ramp step, ascending rate.
    pub steps: Vec<StepReport>,
}

/// One request of a scenario stream.
enum Request {
    Point(NodeId, NodeId),
    Knn(NodeId, usize),
    Batch(Vec<(NodeId, NodeId)>),
}

/// Draws the `i`-independent next request of `mix` from `r`.
fn draw(mix: &QueryMix, n: usize, r: &mut StdRng) -> Request {
    let pair = |r: &mut StdRng| {
        (
            NodeId::new(r.random_range(0..n)),
            NodeId::new(r.random_range(0..n)),
        )
    };
    match *mix {
        QueryMix::Uniform => {
            let (s, t) = pair(r);
            Request::Point(s, t)
        }
        QueryMix::HotKey {
            hot_nodes,
            hot_permille,
        } => {
            let hot = hot_nodes.clamp(1, n);
            if r.random_range(0u32..1000) < hot_permille {
                Request::Point(
                    NodeId::new(r.random_range(0..hot)),
                    NodeId::new(r.random_range(0..hot)),
                )
            } else {
                let (s, t) = pair(r);
                Request::Point(s, t)
            }
        }
        QueryMix::Knn { k } => Request::Knn(NodeId::new(r.random_range(0..n)), k),
        QueryMix::Batch { size } => Request::Batch((0..size).map(|_| pair(r)).collect()),
    }
}

/// Issues one request against the oracle, differential-checking every answer
/// it produced. Returns how many point answers were served.
///
/// # Panics
///
/// Panics on any divergence from the checker — a wrong served byte is a bug,
/// not a data point.
fn issue<S: DistanceSource>(
    oracle: &mut DistanceOracle<S>,
    req: &Request,
    check: &dyn AnswerCheck,
) -> u64 {
    match req {
        Request::Point(s, t) => {
            let got = oracle.lookup(*s, *t);
            check
                .check_point(*s, *t, got)
                .unwrap_or_else(|e| panic!("serve divergence: {e}"));
            1
        }
        Request::Knn(s, k) => {
            let got = oracle.k_nearest(*s, *k);
            check
                .check_knn(*s, *k, &got)
                .unwrap_or_else(|e| panic!("serve divergence: {e}"));
            1
        }
        Request::Batch(queries) => {
            let got = oracle.lookup_batch(queries);
            for (&(s, t), &d) in queries.iter().zip(&got) {
                check
                    .check_point(s, t, d)
                    .unwrap_or_else(|e| panic!("serve divergence: {e}"));
            }
            queries.len() as u64
        }
    }
}

/// The `p`-th percentile (0–100) of `sorted` latencies, in microseconds.
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64 / 1e3
}

/// Runs one scenario's full ramp against `oracle`: resets the cache, warms it
/// if the scenario asks, then paces each step's deterministic request stream
/// at its target rate, measuring per-request service latency (the pacing wait
/// is excluded) and differential-checking **every** answer.
///
/// # Panics
///
/// Panics if any served answer diverges from `check` — that is the point.
pub fn run_scenario<S: DistanceSource>(
    oracle: &mut DistanceOracle<S>,
    scenario: &Scenario,
    ramp: &RampConfig,
    seed: u64,
    check: &dyn AnswerCheck,
) -> ScenarioReport {
    let n = oracle.n();
    assert!(n > 0, "cannot serve an empty graph");
    let scenario_salt = scenario
        .name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    oracle.reset_cache();

    if scenario.warm_cache {
        // Replay the first step's exact stream once, untimed: the ramp then
        // starts against a warmed cache instead of a cold one.
        let rates = ramp.steps();
        let first = rates[0];
        let count = step_requests(first, ramp.step_duration_ms);
        let mut r = rng::seeded(rng::derive(seed, scenario_salt ^ first));
        for _ in 0..count {
            let req = draw(&scenario.mix, n, &mut r);
            issue(oracle, &req, check);
        }
    }

    let mut steps = Vec::new();
    for rate in ramp.steps() {
        let count = step_requests(rate, ramp.step_duration_ms);
        let mut r = rng::seeded(rng::derive(seed, scenario_salt ^ rate));
        // Pre-draw the stream so request generation stays out of the loop.
        let stream: Vec<Request> = (0..count).map(|_| draw(&scenario.mix, n, &mut r)).collect();

        let before = oracle.metrics().clone();
        let mut latencies: Vec<u64> = Vec::with_capacity(stream.len());
        let mut lookups = 0u64;
        let interval = Duration::from_nanos(1_000_000_000 / rate.max(1));
        let start = Instant::now();
        for (i, req) in stream.iter().enumerate() {
            // Closed-loop pacing: spin until this request's scheduled slot;
            // once the oracle falls behind the schedule, requests fire
            // back-to-back and achieved rps drops below the target.
            let sched = start + interval * (i as u32);
            while Instant::now() < sched {
                std::hint::spin_loop();
            }
            let t0 = Instant::now();
            let served = issue(oracle, req, check);
            latencies.push(t0.elapsed().as_nanos() as u64);
            lookups += served;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let after = oracle.metrics().clone();

        latencies.sort_unstable();
        steps.push(StepReport {
            target_rps: rate,
            requests: stream.len() as u64,
            lookups,
            achieved_rps: stream.len() as f64 / elapsed.max(1e-9),
            p50_us: percentile_us(&latencies, 50.0),
            p95_us: percentile_us(&latencies, 95.0),
            p99_us: percentile_us(&latencies, 99.0),
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            checked: lookups,
        });
    }

    ScenarioReport {
        scenario: scenario.name.clone(),
        warmed: scenario.warm_cache,
        steps,
    }
}

/// Requests one ramp step issues: `rate × duration` rounded half-up, at
/// least 1. Truncating here biased achieved-rps low on short steps (3 rps ×
/// 1500 ms issued 4 requests for a 4.5-request budget); rounding keeps the
/// issued count within half a request of the schedule.
fn step_requests(rate: u64, step_duration_ms: u64) -> u64 {
    (rate.saturating_mul(step_duration_ms).saturating_add(500) / 1000).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceOracle;
    use apsp_core::distance::MatrixSource;
    use congest_graph::generators;

    #[test]
    fn ramp_steps_cover_initial_to_target() {
        let ramp = RampConfig {
            initial_rps: 100,
            increment_rps: 200,
            target_rps: 600,
            step_duration_ms: 10,
        };
        assert_eq!(ramp.steps(), vec![100, 300, 500, 600]);
        let degenerate = RampConfig {
            initial_rps: 50,
            increment_rps: 10,
            target_rps: 50,
            step_duration_ms: 10,
        };
        assert_eq!(degenerate.steps(), vec![50]);
    }

    #[test]
    fn inverted_ramp_clamps_initial_to_target() {
        // initial > target: the ascending ramp collapses to the target step
        // by the documented clamp — not by silently skipping the loop.
        let inverted = RampConfig {
            initial_rps: 500,
            increment_rps: 100,
            target_rps: 200,
            step_duration_ms: 10,
        };
        assert_eq!(inverted.steps(), vec![200]);
    }

    #[test]
    fn equal_initial_and_target_is_one_step() {
        let flat = RampConfig {
            initial_rps: 300,
            increment_rps: 1,
            target_rps: 300,
            step_duration_ms: 10,
        };
        assert_eq!(flat.steps(), vec![300]);
    }

    #[test]
    fn zero_target_serves_at_one_rps() {
        let zero = RampConfig {
            initial_rps: 0,
            increment_rps: 0,
            target_rps: 0,
            step_duration_ms: 10,
        };
        assert_eq!(zero.steps(), vec![1]);
        // A nonzero initial above the zero target clamps down too.
        let zero_target = RampConfig {
            initial_rps: 7,
            increment_rps: 3,
            target_rps: 0,
            step_duration_ms: 10,
        };
        assert_eq!(zero_target.steps(), vec![1]);
    }

    #[test]
    fn step_requests_round_half_up() {
        // 3 rps × 1500 ms = 4.5 requests → 5, not the truncated 4.
        assert_eq!(step_requests(3, 1500), 5);
        // Exact products stay exact; below-half fractions round down.
        assert_eq!(step_requests(100, 20), 2);
        assert_eq!(step_requests(3, 1100), 3); // 3.3 → 3
        assert_eq!(step_requests(1, 1500), 2); // 1.5 → 2 (half-up)
                                               // Tiny steps still issue at least one request.
        assert_eq!(step_requests(1, 1), 1);
        assert_eq!(step_requests(0, 1000), 1);
    }

    #[test]
    fn percentiles_of_known_data() {
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert!((percentile_us(&sorted, 50.0) - 51.0).abs() < 2.0);
        assert!((percentile_us(&sorted, 99.0) - 99.0).abs() < 2.0);
        assert_eq!(percentile_us(&[], 50.0), 0.0);
    }

    #[test]
    fn scenario_run_checks_every_answer_and_reports_steps() {
        let g = generators::gnp_connected(20, 0.25, 5);
        let check = ExactReference::bfs(&g);
        let want = check.want.clone();
        let mut oracle = DistanceOracle::builder(MatrixSource::new(&want))
            .cache_capacity(64)
            .build();
        // Transpose: MatrixSource takes dist[t][s]; BFS reference is want[s][t]
        // — symmetric on undirected graphs, so the matrix serves either way.
        let ramp = RampConfig {
            initial_rps: 2000,
            increment_rps: 2000,
            target_rps: 6000,
            step_duration_ms: 20,
        };
        for scenario in [
            Scenario {
                name: "uniform-cold".into(),
                mix: QueryMix::Uniform,
                warm_cache: false,
            },
            Scenario {
                name: "hot-warm".into(),
                mix: QueryMix::HotKey {
                    hot_nodes: 4,
                    hot_permille: 900,
                },
                warm_cache: true,
            },
            Scenario {
                name: "knn".into(),
                mix: QueryMix::Knn { k: 3 },
                warm_cache: false,
            },
            Scenario {
                name: "batch".into(),
                mix: QueryMix::Batch { size: 8 },
                warm_cache: false,
            },
        ] {
            let report = run_scenario(&mut oracle, &scenario, &ramp, 9, &check);
            assert_eq!(report.steps.len(), 3);
            for step in &report.steps {
                assert!(step.requests >= 1);
                assert!(step.achieved_rps > 0.0);
                assert_eq!(step.checked, step.lookups);
                assert!(step.p50_us <= step.p95_us && step.p95_us <= step.p99_us);
            }
        }
    }

    #[test]
    fn warmed_hot_key_scenario_hits_more_than_cold() {
        let g = generators::gnp_connected(24, 0.2, 7);
        let check = ExactReference::bfs(&g);
        let want = check.want.clone();
        let mix = QueryMix::HotKey {
            hot_nodes: 3,
            hot_permille: 1000,
        };
        let ramp = RampConfig {
            initial_rps: 3000,
            increment_rps: 1000,
            target_rps: 3000,
            step_duration_ms: 20,
        };
        let run = |warm: bool| {
            let mut oracle = DistanceOracle::builder(MatrixSource::new(&want))
                .cache_capacity(256)
                .build();
            let scenario = Scenario {
                name: "hot".into(),
                mix: mix.clone(),
                warm_cache: warm,
            };
            run_scenario(&mut oracle, &scenario, &ramp, 3, &check)
        };
        let cold = run(false);
        let warm = run(true);
        // Same stream, same answers — only hit/miss accounting may differ.
        assert!(warm.steps[0].hits >= cold.steps[0].hits);
        assert!(warm.steps[0].misses <= cold.steps[0].misses);
    }
}
