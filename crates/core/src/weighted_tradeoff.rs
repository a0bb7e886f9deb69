//! **Extension (the paper's concluding open question)** — message-time trade-offs
//! for *weighted* APSP.
//!
//! The paper asks ("Conclusions and Future Work") whether its framework yields
//! trade-offs for weighted APSP. The obstacle is aggregation: for a weighted
//! relaxation, the per-source minimum *message* is not the per-source minimum
//! *candidate distance*, because different senders sit at different edge weights
//! from the receiver. [`WeightedApspOverHierarchy`] fixes this with a
//! **receiver-aware aggregate** — Definition 3.1 explicitly allows `agg_{v,r}` to
//! depend on the receiver `v`, and cluster centers know all edges incident to
//! their members after preprocessing, so they can evaluate
//! `min_(sender) (dist_sender + w(sender, v))` exactly.
//!
//! With that, the weight-delayed Dijkstra payload runs through Theorems 3.9/3.10
//! unchanged, giving (experimentally) a weighted trade-off with the same shape as
//! Theorem 1.2. Dilation is `Õ(wdiam + n)` rather than `Õ(n)`, so the round end of
//! the trade-off is weaker than in the unweighted case — matching the paper's
//! intuition for why the weighted case is harder.

use crate::ensure_epsilon;
use crate::simulate::{
    simulate_aggregation_general, simulate_aggregation_star, AggSimOptions, SimulationRun,
};
use crate::weighted_apsp::WeightedApspResult;
use congest_algos::apsp_weighted::{WApspMsg, WApspOutput, WApspState, WeightedApsp};
use congest_decomp::pruning::prune;
use congest_decomp::Hierarchy;
use congest_engine::{AggregationAlgorithm, BcongestAlgorithm, EngineError, LocalView};
use congest_graph::{NodeId, WeightedGraph};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The weighted APSP payload with a receiver-aware aggregate, suitable for the
/// hierarchy simulations.
#[derive(Clone, Debug)]
pub struct WeightedApspOverHierarchy {
    inner: WeightedApsp,
    /// Per node: neighbor → edge weight (global knowledge for the *aggregator*,
    /// i.e. cluster centers, which legitimately hold member adjacency).
    weight_of: Arc<Vec<BTreeMap<NodeId, u64>>>,
}

impl WeightedApspOverHierarchy {
    /// Builds the payload for `wg`.
    pub fn new(wg: &WeightedGraph) -> Self {
        let weight_of: Vec<BTreeMap<NodeId, u64>> = wg
            .graph()
            .nodes()
            .map(|v| wg.incident(v).map(|(_, u, w)| (u, w)).collect())
            .collect();
        Self {
            inner: WeightedApsp::new(wg.max_weight()),
            weight_of: Arc::new(weight_of),
        }
    }
}

impl BcongestAlgorithm for WeightedApspOverHierarchy {
    type State = WApspState;
    type Msg = WApspMsg;
    type Output = WApspOutput;

    fn name(&self) -> &'static str {
        "weighted-apsp/hierarchy"
    }
    fn init(&self, view: &LocalView<'_>) -> WApspState {
        self.inner.init(view)
    }
    fn broadcast(&self, s: &WApspState, round: usize) -> Option<WApspMsg> {
        self.inner.broadcast(s, round)
    }
    fn on_broadcast_sent(&self, s: &mut WApspState, round: usize) {
        self.inner.on_broadcast_sent(s, round)
    }
    fn receive(&self, s: &mut WApspState, round: usize, msgs: &[(NodeId, WApspMsg)]) {
        self.inner.receive(s, round, msgs)
    }
    fn is_done(&self, s: &WApspState) -> bool {
        self.inner.is_done(s)
    }
    fn output(&self, s: &WApspState) -> WApspOutput {
        self.inner.output(s)
    }
    fn next_activity(&self, s: &WApspState, after: usize) -> Option<usize> {
        self.inner.next_activity(s, after)
    }
    fn round_bound(&self, n: usize, m: usize) -> usize {
        self.inner.round_bound(n, m)
    }
    fn output_words(&self, out: &WApspOutput) -> usize {
        self.inner.output_words(out)
    }
}

impl AggregationAlgorithm for WeightedApspOverHierarchy {
    fn aggregate(&self, receiver: NodeId, _round: usize, msgs: &mut Vec<(NodeId, WApspMsg)>) {
        // Per source, keep the message minimizing the *candidate distance at the
        // receiver* (dist + w(sender, receiver)), ties by sender — exactly the
        // message the receiver's relaxation would pick from this batch. Only
        // neighbors can deliver relaxations.
        let w = &self.weight_of[receiver.index()];
        msgs.retain(|(from, _)| w.contains_key(from));
        msgs.sort_unstable_by_key(|&(from, m)| (m.source, m.dist.saturating_add(w[&from]), from));
        msgs.dedup_by_key(|(_, m)| m.source);
    }

    fn aggregate_budget(&self, n: usize) -> usize {
        n.max(1)
    }
}

/// Configuration of the weighted trade-off.
#[derive(Clone, Debug)]
pub struct WeightedTradeoffConfig {
    /// Trade-off parameter `ε ∈ (0, 1]`.
    pub epsilon: f64,
    /// Master seed.
    pub seed: u64,
}

/// Weighted APSP through the trade-off machinery (experimental extension): the
/// hierarchy simulation of Theorem 3.9 (or 3.10 when `ε ≥ 1/2`) applied to the
/// weighted payload.
///
/// # Errors
///
/// [`EngineError::InvalidParameter`] if `cfg.epsilon` is outside `(0, 1]`;
/// propagates engine errors.
pub fn weighted_apsp_tradeoff(
    wg: &WeightedGraph,
    cfg: &WeightedTradeoffConfig,
) -> Result<WeightedApspResult, EngineError> {
    let in_domain = cfg.epsilon > 0.0 && cfg.epsilon <= 1.0;
    ensure_epsilon(cfg.epsilon, in_domain, "(0, 1]")?;
    let g = wg.graph();
    let h = prune(g, &Hierarchy::build(g, cfg.epsilon, cfg.seed));
    let algo = WeightedApspOverHierarchy::new(wg);
    let opts = AggSimOptions {
        seed: cfg.seed,
        charge_hierarchy: true,
        ..Default::default()
    };
    let sim: SimulationRun<WApspOutput> = if cfg.epsilon >= 0.5 {
        simulate_aggregation_star(&algo, g, Some(wg.weights()), &h, &opts)?
    } else {
        simulate_aggregation_general(&algo, g, Some(wg.weights()), &h, &opts)?
    };
    Ok(WeightedApspResult {
        distances: sim.outputs.iter().map(|o| o.dist.clone()).collect(),
        metrics: sim.metrics,
        simulated_broadcasts: sim.simulated_broadcasts,
        simulated_rounds: sim.simulated_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_weighted_apsp;
    use congest_graph::generators;
    use proptest::prelude::*;

    #[test]
    fn weighted_tradeoff_is_exact_across_epsilon() {
        let g = generators::gnp_connected(18, 0.2, 4);
        let wg = WeightedGraph::random_weights(&g, 1..=6, 4);
        for &eps in &[0.34, 0.5, 1.0] {
            let res = weighted_apsp_tradeoff(
                &wg,
                &WeightedTradeoffConfig {
                    epsilon: eps,
                    seed: 9,
                },
            )
            .unwrap();
            check_weighted_apsp(&wg, &res.distances).unwrap_or_else(|e| panic!("eps {eps}: {e}"));
        }
    }

    #[test]
    fn receiver_aware_aggregate_prefers_better_candidates() {
        // Sender A is far (dist 10) over a weight-1 edge; sender B is near (dist 2)
        // over a weight-100 edge. The receiver-aware aggregate must keep A.
        let g = congest_graph::Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let wg = WeightedGraph::from_weights(g, vec![1, 100]).unwrap();
        let algo = WeightedApspOverHierarchy::new(&wg);
        let mut agg = vec![
            (
                NodeId::new(1),
                WApspMsg {
                    source: 9,
                    dist: 10,
                },
            ),
            (NodeId::new(2), WApspMsg { source: 9, dist: 2 }),
        ];
        algo.aggregate(NodeId::new(0), 0, &mut agg);
        assert_eq!(
            agg,
            vec![(
                NodeId::new(1),
                WApspMsg {
                    source: 9,
                    dist: 10
                }
            )]
        );
    }

    #[test]
    fn a_distance_that_would_overflow_loses_the_aggregate() {
        let g = congest_graph::Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let wg = WeightedGraph::from_weights(g, vec![1, 100]).unwrap();
        let algo = WeightedApspOverHierarchy::new(&wg);
        let near = (NodeId::new(2), WApspMsg { source: 9, dist: 2 });
        let wrapping = WApspMsg {
            source: 9,
            dist: u64::MAX,
        };
        let mut agg = vec![(NodeId::new(1), wrapping), near];
        algo.aggregate(NodeId::new(0), 0, &mut agg);
        assert_eq!(agg, vec![near]);
    }

    /// The `Vec`-in / `Vec`-out aggregate the in-place one replaced.
    fn aggregate_reference(
        algo: &WeightedApspOverHierarchy,
        receiver: NodeId,
        msgs: Vec<(NodeId, WApspMsg)>,
    ) -> Vec<(NodeId, WApspMsg)> {
        let w = &algo.weight_of[receiver.index()];
        let mut best: BTreeMap<u32, (u64, NodeId, WApspMsg)> = BTreeMap::new();
        for (from, m) in msgs {
            let Some(&edge_w) = w.get(&from) else {
                continue; // only neighbors can deliver relaxations
            };
            let cand = m.dist + edge_w;
            match best.get(&m.source) {
                Some(&(c, f, _)) if (c, f) <= (cand, from) => {}
                _ => {
                    best.insert(m.source, (cand, from, m));
                }
            }
        }
        best.into_values().map(|(_, from, m)| (from, m)).collect()
    }

    proptest! {
        /// Same pairs in the same order as the reference, on batches with
        /// repeated senders, ties on the candidate distance, several sources
        /// and senders that are not neighbours of the receiver, and on the
        /// empty batch.
        #[test]
        fn aggregate_matches_its_reference(
            receiver in 0usize..8,
            batch in prop::collection::vec((0usize..8, 0u32..4, 0u64..5), 0..40),
        ) {
            let g = generators::gnp_connected(8, 0.4, 3);
            let wg = WeightedGraph::random_weights(&g, 1..=3, 3);
            let algo = WeightedApspOverHierarchy::new(&wg);
            let receiver = NodeId::new(receiver);
            let msgs: Vec<(NodeId, WApspMsg)> = batch
                .into_iter()
                .map(|(from, source, dist)| (NodeId::new(from), WApspMsg { source, dist }))
                .collect();
            for msgs in [msgs, Vec::new()] {
                let mut got = msgs.clone();
                algo.aggregate(receiver, 0, &mut got);
                prop_assert_eq!(got, aggregate_reference(&algo, receiver, msgs));
            }
        }
    }

    #[test]
    fn rejects_epsilon_outside_its_domain() {
        let wg = WeightedGraph::unit(&generators::path(4));
        for epsilon in [0.0, 1.5] {
            let res = weighted_apsp_tradeoff(&wg, &WeightedTradeoffConfig { epsilon, seed: 1 });
            assert!(matches!(
                res,
                Err(EngineError::InvalidParameter {
                    what: "epsilon",
                    ..
                })
            ));
        }
    }

    #[test]
    fn tradeoff_shape_weighted() {
        let g = generators::gnp_connected(20, 0.3, 6);
        let wg = WeightedGraph::random_weights(&g, 1..=4, 6);
        let low = weighted_apsp_tradeoff(
            &wg,
            &WeightedTradeoffConfig {
                epsilon: 0.34,
                seed: 2,
            },
        )
        .unwrap();
        let high = weighted_apsp_tradeoff(
            &wg,
            &WeightedTradeoffConfig {
                epsilon: 1.0,
                seed: 2,
            },
        )
        .unwrap();
        assert_eq!(low.distances, high.distances);
        // Both regimes pay for the payload's broadcasts at least once.
        assert!(low.metrics.messages as u128 >= u128::from(low.simulated_broadcasts));
        assert!(high.metrics.messages as u128 >= u128::from(high.simulated_broadcasts));
    }
}
