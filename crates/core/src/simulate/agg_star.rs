//! **Theorem 3.10** — the improved simulation for `ε ≥ 1/2` (paper §3.2.2), where
//! the pruned hierarchy has at most three levels: singletons, *star clusters*
//! (depth ≤ 1), and the all-dropped top level.
//!
//! The send step differs from the general simulation:
//!
//! * `L₁` nodes broadcast directly over all their incident edges (Lemma 3.16: all of
//!   them are inter-communication edges);
//! * star-cluster broadcasters send to their center, which computes a **maximal
//!   matching** `M(C, C′)` towards every neighboring star cluster and, per matched
//!   edge, routes an identity packet `m₁ = (w, m_w)` plus an aggregate packet
//!   `m₂ = agg(B_p(u) ∩ C)` through the matched edge;
//! * (deviation documented in DESIGN.md §2) singleton `F₁`-edges owned by `L₁` nodes
//!   receive the broadcast of their star endpoint directly — the level-0 duty of the
//!   general simulation — closing the star→`L₁` gap the paper's prose leaves open.
//!
//! The receive and compute steps are the general simulation's — one copy, owned
//! with every per-phase table by the crate-private phase workspace (`phase.rs`);
//! this file owns the send step above. Congestion over star edges per phase is
//! `Õ(n^{1-ε})` (Lemma 3.18), which is what buys the faster phases and, through
//! Lemma 3.22, the round-optimal end of the trade-off.
//!
//! A phase is one routed schedule ([`congest_engine::route_casts`]): the `L₁` and
//! duty-edge words lead their edges from round 1; a center's matched-edge
//! downcast leaves once its members' to-center words are in, and a matched
//! sender forwards its `1 + |m₂|` words, one per round, once it holds them; the
//! receive upcast waits only for the `m₁` arrivals it carries.

use crate::simulate::common::{payload_options, SimulationRun};
use crate::simulate::phase::{batch_words, LevelClusters, PhaseWorkspace};
use congest_algos::leader::{setup_network_with, NetworkSetup};
use congest_decomp::Hierarchy;
use congest_engine::{
    route_casts, run_bcongest_over, upcast, AggregationAlgorithm, Cast, EngineError, Metrics,
    Router,
};
use congest_graph::{ClusterId, EdgeId, Graph, NodeId};

pub use super::agg_general::AggSimOptions;

/// Simulates the aggregation-based `algo` over `g` using a pruned hierarchy with
/// parameter `ε ≥ 1/2` (κ ≤ 2), per Theorem 3.10.
///
/// # Errors
///
/// Returns [`EngineError::InvalidParameter`] if the hierarchy has more than three
/// levels (κ > 2; use [`super::agg_general::simulate_aggregation_general`] for
/// smaller ε) and [`EngineError::RoundLimitExceeded`] on a diverging payload;
/// propagates preprocessing errors.
pub fn simulate_aggregation_star<A: AggregationAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    h: &Hierarchy,
    opts: &AggSimOptions,
) -> Result<SimulationRun<A::Output>, EngineError> {
    simulate_star_with_setup(algo, g, weights, h, opts, None)
}

/// [`simulate_aggregation_star`] on a network `setup` (§3.2.1 step 1) the
/// caller already ran and charged to its own account, or, with `None`, on one
/// it runs and charges itself.
pub(crate) fn simulate_star_with_setup<A: AggregationAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    h: &Hierarchy,
    opts: &AggSimOptions,
    setup: Option<&NetworkSetup>,
) -> Result<SimulationRun<A::Output>, EngineError> {
    if h.kappa > 2 {
        return Err(EngineError::InvalidParameter {
            what: "hierarchy",
            reason: format!(
                "the star simulation needs ε ≥ 1/2 (κ ≤ 2), got κ = {}",
                h.kappa
            ),
        });
    }
    let n = g.n();
    let mut metrics = Metrics::new(g.m());

    // ---- Preprocessing (identical to the general simulation) ----
    if setup.is_none() {
        metrics.merge_sequential(&setup_network_with(g, opts.seed, &opts.exec)?.metrics);
    }
    if opts.charge_hierarchy {
        metrics.merge_sequential(&h.metrics);
    }
    let mut router = Router::new(g)?;
    let star = match h.levels.get(1) {
        Some(lvl) => Some(LevelClusters::new(g, lvl)?),
        None => None,
    };
    if let Some(LevelClusters {
        level: lvl, forest, ..
    }) = star.as_ref()
    {
        let items: Vec<(NodeId, usize)> = g
            .nodes()
            .filter(|v| lvl.cluster_of[v.index()].is_some())
            .map(|v| (v, g.degree(v) + 1))
            .collect();
        if !items.is_empty() {
            metrics.merge_sequential(&upcast(&mut router, forest, items)?);
        }
    }
    // Level-0 duty edges: F₁ edges grouped by their star-side endpoint.
    let mut duty_of: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n]; // endpoint -> (owner, edge)
    if h.levels.len() > 1 {
        for f in &h.levels[1].f_edges {
            duty_of[f.other.index()].push((f.owner, f.edge));
        }
    }
    let in_l1: Vec<bool> = (0..n).map(|v| h.dropout[v] == 1).collect();
    let preprocessing = metrics.clone();

    // Nodes keep their own states: phase `p` is round `p` of the payload's own
    // execution, delivered by the transport below as one routed schedule.
    let mut ws: PhaseWorkspace<A::Msg> = PhaseWorkspace::new(n);
    let transport = |phase: usize,
                     broadcasters: &[(NodeId, A::Msg)],
                     inboxes: &mut [Vec<(NodeId, A::Msg)>]|
     -> Result<(), EngineError> {
        if broadcasters.is_empty() {
            return Ok(());
        }
        ws.begin(broadcasters);

        // ---- Send: L₁ broadcasters use all incident edges; star-endpoint
        //      duty edges deliver their endpoint's broadcast (cast 0). ----
        let mut sends = Vec::with_capacity(2 * g.m());
        for (v, m) in broadcasters {
            if in_l1[v.index()] {
                for (e, u) in g.incident(*v) {
                    sends.push((*v, e, 1));
                    ws.raw[u.index()].push((*v, m.clone()));
                }
            }
        }
        for (w, duties) in duty_of.iter().enumerate() {
            if in_l1[w] {
                continue; // L₁ endpoints already broadcast everywhere
            }
            if let Some(m) = &ws.bp[w] {
                for &(owner, e) in duties {
                    sends.push((NodeId::new(w), e, 1));
                    ws.raw[owner.index()].push((NodeId::new(w), m.clone()));
                }
            }
        }
        let mut casts = vec![Cast::Hop {
            items: sends,
            up: None,
            after: vec![],
        }];

        // ---- Star-cluster machinery ----
        if let Some(clusters) = star.as_ref() {
            let (lvl, forest) = (clusters.level, &clusters.forest);
            // Broadcasting members send to their center (cast 1: an upcast of
            // depth ≤ 1).
            let to_center = broadcasters
                .iter()
                .filter(|(v, _)| lvl.cluster_of[v.index()].is_some())
                .map(|(v, _)| (*v, 1))
                .collect();
            casts.push(Cast::Up {
                forest,
                items: to_center,
                after: vec![],
            });

            // Per cluster: matchings to every neighboring star cluster.
            let mut down = Vec::new();
            let mut forward = Vec::new();
            for (ci, (_center, members)) in lvl.clusters.iter().enumerate() {
                let cid = ClusterId::new(ci);
                let senders: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|v| ws.bp[v.index()].is_some())
                    .collect();
                if senders.is_empty() {
                    continue;
                }
                // Candidate matching edges, grouped by neighboring cluster.
                let mut by_target: Vec<(ClusterId, Vec<(NodeId, NodeId)>)> = Vec::new();
                for &w in &senders {
                    for &u in g.neighbors(w) {
                        let Some(cu) = lvl.cluster_of[u.index()] else {
                            continue;
                        };
                        if cu == cid {
                            continue;
                        }
                        match by_target.iter_mut().find(|(c, _)| *c == cu) {
                            Some((_, v)) => v.push((w, u)),
                            None => by_target.push((cu, vec![(w, u)])),
                        }
                    }
                }
                for (_, mut cand) in by_target {
                    cand.sort_unstable();
                    let mut used_w = vec![];
                    let mut used_u = vec![];
                    for (w, u) in cand {
                        if used_w.contains(&w) || used_u.contains(&u) {
                            continue;
                        }
                        used_w.push(w);
                        used_u.push(u);
                        // m₁: identity packet; m₂: aggregate for u over C.
                        let in_c = |x: &NodeId| lvl.cluster_of[x.index()] == Some(cid);
                        ws.gather(g.neighbors(u).iter().copied().filter(in_c));
                        algo.aggregate(u, phase, &mut ws.msgs);
                        let m1 = ws.bp[w.index()].clone().expect("w is a sender");
                        let words = 1 + batch_words(&ws.msgs);
                        let e = g.edge_between(w, u).expect("matched pairs are edges");
                        down.push((w, words));
                        forward.push((w, e, words));
                        ws.arrivals[u.index()].push((w, m1));
                        ws.direct[u.index()].append(&mut ws.msgs);
                    }
                }
            }
            // Once its members' words are in, the center downcasts both
            // packets to each matched sender (cast 2), which forwards them over
            // its matched edge as soon as it has them (cast 3).
            casts.push(Cast::Down {
                forest,
                items: down,
                after: vec![1],
            });
            casts.push(Cast::Hop {
                items: forward,
                up: None,
                after: vec![2],
            });

            // ---- Receive step: members upcast their m₁ arrivals; centers
            //      downcast per-member aggregates. ----
            ws.receive_level(algo, phase, Some(clusters), 3, 1, &mut casts);
        }
        metrics.merge_sequential(&route_casts(&mut router, &casts)?);

        // ---- Compute ----
        ws.compute(broadcasters, inboxes);
        Ok(())
    };
    let payload_opts = payload_options(opts.seed, &opts.exec);
    let payload = run_bcongest_over(algo, g, weights, &payload_opts, transport)?;
    Ok(SimulationRun::assemble(payload, metrics, preprocessing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algos::bfs_collection::BfsCollection;
    use congest_decomp::pruning::prune;
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::generators;

    fn pruned(g: &Graph, eps: f64, seed: u64) -> Hierarchy {
        let h = Hierarchy::build(g, eps, seed);
        prune(g, &h)
    }

    #[test]
    fn star_sim_equals_direct_for_bfs_collection() {
        for &eps in &[0.5, 0.75, 1.0] {
            let g = generators::gnp_connected(26, 0.15, 8);
            let h = pruned(&g, eps, 81);
            let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(6);
            let direct = run_bcongest(
                &algo,
                &g,
                None,
                &RunOptions {
                    seed: 17,
                    ..Default::default()
                },
            )
            .unwrap();
            let sim = simulate_aggregation_star(
                &algo,
                &g,
                None,
                &h,
                &AggSimOptions {
                    seed: 17,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(sim.outputs, direct.outputs, "eps = {eps}");
        }
    }

    #[test]
    fn star_sim_on_structured_graphs() {
        for (i, g) in [
            generators::grid(5, 5),
            generators::caveman(4, 6),
            generators::star(20),
        ]
        .iter()
        .enumerate()
        {
            let h = pruned(g, 0.5, 90 + i as u64);
            let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(2);
            let direct = run_bcongest(
                &algo,
                g,
                None,
                &RunOptions {
                    seed: 23,
                    ..Default::default()
                },
            )
            .unwrap();
            let sim = simulate_aggregation_star(
                &algo,
                g,
                None,
                &h,
                &AggSimOptions {
                    seed: 23,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(sim.outputs, direct.outputs, "family {i}");
        }
    }

    #[test]
    fn rejects_small_epsilon() {
        let g = generators::path(6);
        let h = pruned(&g, 0.25, 1);
        let algo = BfsCollection::new(vec![NodeId::new(0)]);
        let res = simulate_aggregation_star(&algo, &g, None, &h, &AggSimOptions::default());
        assert!(matches!(
            res,
            Err(EngineError::InvalidParameter {
                what: "hierarchy",
                ..
            })
        ));
    }
}
