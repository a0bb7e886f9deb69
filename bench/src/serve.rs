//! `serve_queries`: a `DistanceOracle` over Theorem 1.1's output, queried by
//! one closed-loop client — a miss-heavy uniform stream beside a hit-heavy
//! hot-set stream (the write-beside-read pair for the LRU cache), k-nearest
//! queries and batched lookups. Every answer is stored and checked against
//! the sequential all-pairs Dijkstra reference after the clock has stopped.

use crate::measure::{Bench, Metric, RepOutcome, PINNED_SEED};
use crate::rng::SplitMix64;
use crate::span::{median, ratio, Tracer};
use congest_apsp::apsp_core::distance::Distance;
use congest_apsp::apsp_core::weighted_apsp::{
    weighted_apsp, WeightedApspConfig, WeightedApspResult,
};
use congest_apsp::graph::{generators, reference, NodeId, WeightedGraph};
use congest_apsp::serve::loadgen::{AnswerCheck, ExactReference};
use congest_apsp::serve::DistanceOracle;
use std::time::Instant;

pub struct ServeQueries {
    pub smoke: bool,
}

/// Sizes of the request mix.
struct Mix {
    n: usize,
    cache: usize,
    points: usize,
    hot_nodes: usize,
    knn: usize,
    batches: usize,
}

const K: usize = 8;
const BATCH: usize = 64;

impl ServeQueries {
    fn mix(&self) -> Mix {
        if self.smoke {
            Mix {
                n: 64,
                cache: 256,
                points: 20_000,
                hot_nodes: 12,
                knn: 500,
                batches: 300,
            }
        } else {
            // 262 144 possible pairs ≫ 4 096 cache entries ≫ 48² hot pairs.
            Mix {
                n: 512,
                cache: 4_096,
                points: 1_000_000,
                hot_nodes: 48,
                knn: 20_000,
                batches: 15_625,
            }
        }
    }
}

type Pair = (NodeId, NodeId);

pub struct ServeInput {
    oracle: DistanceOracle<WeightedApspResult>,
    reference: ExactReference,
    uniform: Vec<Pair>,
    hot: Vec<Pair>,
    knn_sources: Vec<NodeId>,
    batches: Vec<Pair>,
    /// What computing the served APSP cost in the simulated network.
    sim_messages: u64,
    sim_rounds: u64,
    /// Per-request k-NN latencies of the traced reps, in ns.
    knn_ns: Vec<Vec<f64>>,
}

/// Every answer of one rep, plus the cache's exact hit counts.
#[derive(PartialEq)]
pub struct Served {
    uniform: Vec<Distance>,
    hot: Vec<Distance>,
    knn: Vec<Vec<(NodeId, Distance)>>,
    batches: Vec<Vec<Distance>>,
    uniform_hits: u64,
    hot_hits: u64,
    sim: (u64, u64),
}

fn differing<T: PartialEq>(a: &[T], b: &[T]) -> u64 {
    a.iter().zip(b).filter(|(x, y)| x != y).count() as u64 + a.len().abs_diff(b.len()) as u64
}

impl RepOutcome for Served {
    /// One request is one point lookup, one k-NN query or one batch.
    fn ops(&self) -> u64 {
        (self.uniform.len() + self.hot.len() + self.knn.len() + self.batches.len()) as u64
    }

    fn failures(&self, reference: Option<&Self>) -> u64 {
        // The query paths return plain values, never errors: a request fails
        // by differing from the reference rep (or, in `verify`, from Dijkstra).
        reference.map_or(0, |r| {
            differing(&self.uniform, &r.uniform)
                + differing(&self.hot, &r.hot)
                + differing(&self.knn, &r.knn)
                + differing(&self.batches, &r.batches)
                + u64::from(self.uniform_hits != r.uniform_hits)
                + u64::from(self.hot_hits != r.hot_hits)
        })
    }

    fn account(&self) -> (u64, u64) {
        self.sim
    }
}

fn pairs(rng: &mut SplitMix64, count: usize, nodes: usize, offset: usize) -> Vec<Pair> {
    (0..count)
        .map(|_| {
            (
                NodeId::new(offset + rng.below(nodes)),
                NodeId::new(offset + rng.below(nodes)),
            )
        })
        .collect()
}

impl Bench for ServeQueries {
    type Input = ServeInput;
    type Rep = Served;

    fn setup(&self, seed: u64, t: &mut Tracer) -> ServeInput {
        let mix = self.mix();
        let graph = t.span("graph.gen_gnp", |_| {
            // Pinned topology and coins: what the Theorem 2.1 simulation
            // costs swings with both (see `PINNED_SEED`). The weights and
            // every query stream are drawn from `--seed`.
            generators::gnp_connected(mix.n, 8.0 / mix.n as f64, PINNED_SEED)
        });
        let wg = t.span("graph.weights", |_| {
            WeightedGraph::random_weights(&graph, 1..=9, seed)
        });
        let apsp = t.span("core.weighted_apsp", |t| {
            let cfg = WeightedApspConfig {
                seed: PINNED_SEED,
                ..Default::default()
            };
            let run = weighted_apsp(&wg, &cfg).expect("weighted APSP of the served graph");
            t.count("messages", run.metrics.messages);
            t.count("rounds", run.metrics.rounds);
            run
        });
        let (sim_messages, sim_rounds) = (apsp.metrics.messages, apsp.metrics.rounds);
        let reference = t.span("graph.ref_apsp", |_| {
            ExactReference::new(reference::all_pairs_dijkstra(&wg))
        });
        let oracle = t.span("serve.build", |_| {
            DistanceOracle::builder(apsp)
                .cache_capacity(mix.cache)
                .build()
        });
        let mut rng = SplitMix64::new(seed);
        let hot_offset = rng.below(mix.n - mix.hot_nodes + 1);
        t.span("harness.streams", |_| ServeInput {
            oracle,
            reference,
            uniform: pairs(&mut rng, mix.points, mix.n, 0),
            hot: pairs(&mut rng, mix.points, mix.hot_nodes, hot_offset),
            knn_sources: (0..mix.knn)
                .map(|_| NodeId::new(rng.below(mix.n)))
                .collect(),
            batches: pairs(&mut rng, mix.batches * BATCH, mix.n, 0),
            sim_messages,
            sim_rounds,
            knn_ns: Vec::new(),
        })
    }

    fn rep(&self, input: &mut ServeInput, t: &mut Tracer) -> Served {
        let ServeInput {
            oracle,
            uniform,
            hot,
            knn_sources,
            batches,
            knn_ns,
            ..
        } = input;
        oracle.reset_cache();
        let (uniform_answers, uniform_hits) = point_phase("serve.point_miss", oracle, uniform, t);
        let (hot_answers, hot_hits) = point_phase("serve.point_hit", oracle, hot, t);

        let knn = t.span("serve.knn", |t| {
            t.count("requests", knn_sources.len() as u64);
            if !t.enabled() {
                return knn_sources
                    .iter()
                    .map(|&s| oracle.k_nearest(s, K))
                    .collect();
            }
            // Traced reps time each query, for the tail percentile.
            let mut latencies = Vec::with_capacity(knn_sources.len());
            let answers = knn_sources
                .iter()
                .map(|&s| {
                    let start = Instant::now();
                    let answer = oracle.k_nearest(s, K);
                    latencies.push(start.elapsed().as_nanos() as f64);
                    answer
                })
                .collect();
            knn_ns.push(latencies);
            answers
        });
        let batch_answers = t.span("serve.batch", |t| {
            t.count("requests", (batches.len() / BATCH) as u64);
            t.count("pairs", batches.len() as u64);
            batches
                .chunks(BATCH)
                .map(|chunk| oracle.lookup_batch(chunk))
                .collect()
        });

        Served {
            uniform: uniform_answers,
            hot: hot_answers,
            knn,
            batches: batch_answers,
            uniform_hits,
            hot_hits,
            sim: (input.sim_messages, input.sim_rounds),
        }
    }

    fn verify(&self, input: &ServeInput, reference: &Served, t: &mut Tracer) -> u64 {
        t.span("serve.check", |t| {
            let answers = reference.uniform.len()
                + reference.hot.len()
                + reference.knn.len()
                + input.batches.len();
            t.count("answers", answers as u64);
            rejected(input, reference)
        })
    }

    fn layers(&self, input: &ServeInput, t: &Tracer) -> Vec<Metric> {
        let seconds = |span: &str| Metric::span_seconds(t, span);
        let per = |name: &str, span: &str, key: &str, scale: f64, unit: &'static str| {
            Metric::new(
                name,
                ratio(t.self_s(span) * scale, t.counted(span, key)),
                unit,
            )
        };
        let points = input.uniform.len() as f64;
        let p99s: Vec<f64> = input
            .knn_ns
            .iter()
            .map(|rep| percentile(rep, 0.99) / 1e3)
            .collect();
        vec![
            // `graph.gen_gnp` and `core.weighted_apsp` also run in this set-up;
            // their metrics are `apsp_tradeoff`'s, so each name has one home.
            seconds("graph.ref_apsp"),
            per(
                "serve.point_miss_ns",
                "serve.point_miss",
                "requests",
                1e9,
                "ns",
            ),
            per(
                "serve.point_hit_ns",
                "serve.point_hit",
                "requests",
                1e9,
                "ns",
            ),
            per("serve.knn_us", "serve.knn", "requests", 1e6, "us"),
            Metric::new("serve.knn_p99_us", median(p99s), "us"),
            per("serve.batch_ns_per_pair", "serve.batch", "pairs", 1e9, "ns"),
            Metric::new(
                "serve.hit_ratio_uniform",
                t.counted("serve.point_miss", "hits") / points,
                "ratio",
            ),
            Metric::new(
                "serve.hit_ratio_hot",
                t.counted("serve.point_hit", "hits") / points,
                "ratio",
            ),
            per(
                "serve.check_ns_per_answer",
                "serve.check",
                "answers",
                1e9,
                "ns",
            ),
        ]
    }
}

/// One stream of point lookups: the answers, and how many the cache served.
fn point_phase(
    span: &str,
    oracle: &mut DistanceOracle<WeightedApspResult>,
    stream: &[Pair],
    t: &mut Tracer,
) -> (Vec<Distance>, u64) {
    t.span(span, |t| {
        let before = oracle.metrics().hits;
        let answers = stream.iter().map(|&(s, d)| oracle.lookup(s, d)).collect();
        let hits = oracle.metrics().hits - before;
        t.count("requests", stream.len() as u64);
        t.count("hits", hits);
        (answers, hits)
    })
}

/// Requests of `served` the Dijkstra reference rejects (a batch is rejected
/// if any of its answers is).
fn rejected(input: &ServeInput, served: &Served) -> u64 {
    let check = &input.reference;
    let point = |&((s, d), &got): &(Pair, &Distance)| check.check_point(s, d, got).is_err();
    let mut bad = input
        .uniform
        .iter()
        .copied()
        .zip(&served.uniform)
        .filter(point)
        .count();
    bad += input
        .hot
        .iter()
        .copied()
        .zip(&served.hot)
        .filter(point)
        .count();
    bad += input
        .knn_sources
        .iter()
        .zip(&served.knn)
        .filter(|&(&s, got)| check.check_knn(s, K, got).is_err())
        .count();
    bad += input
        .batches
        .chunks(BATCH)
        .zip(&served.batches)
        .filter(|&(chunk, got)| {
            chunk.len() != got.len() || chunk.iter().copied().zip(got).any(|q| point(&q))
        })
        .count();
    bad as u64
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_answer_is_a_failed_request_not_a_panic() {
        let bench = ServeQueries { smoke: true };
        let mut t = Tracer::new();
        let mut input = bench.setup(11, &mut t);
        let clean = bench.rep(&mut input, &mut t);
        assert_eq!(bench.verify(&input, &clean, &mut t), 0);
        assert_eq!(clean.failures(Some(&clean)), 0);

        // One wrong point answer, one wrong k-NN list, one wrong batch element.
        let mut bad = bench.rep(&mut input, &mut t);
        bad.uniform[3] = Distance::Exact(u64::MAX - 1);
        bad.knn[5].pop();
        bad.batches[7][BATCH - 1] = Distance::Unknown;
        assert_eq!(bench.verify(&input, &bad, &mut t), 3);
        assert_eq!(bad.failures(Some(&clean)), 3);
        assert_eq!(bad.ops(), clean.ops());
    }

    #[test]
    fn the_two_point_streams_sit_on_either_side_of_the_cache() {
        let bench = ServeQueries { smoke: true };
        let mut t = Tracer::new();
        let mut input = bench.setup(11, &mut t);
        let served = bench.rep(&mut input, &mut t);
        let points = served.uniform.len() as f64;
        assert!((served.uniform_hits as f64) < 0.2 * points, "miss-heavy");
        assert!((served.hot_hits as f64) > 0.9 * points, "hit-heavy");
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
