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
//! The receive and compute steps match the general simulation. Congestion over star
//! edges per phase is `Õ(n^{1-ε})` (Lemma 3.18), which is what buys the faster
//! phases and, through Lemma 3.22, the round-optimal end of the trade-off.

use crate::simulate::common::{dedupe_msgs, payload_options, Pad, SimulationRun};
use congest_algos::leader::setup_network_with;
use congest_decomp::Hierarchy;
use congest_engine::{
    downcast, run_bcongest_over, upcast, AggregationAlgorithm, EngineError, Forest, Metrics,
    Router, Wire,
};
use congest_graph::{ClusterId, EdgeId, Graph, NodeId};

pub use super::agg_general::AggSimOptions;

/// Simulates the aggregation-based `algo` over `g` using a pruned hierarchy with
/// parameter `ε ≥ 1/2` (κ ≤ 2), per Theorem 3.10.
///
/// # Errors
///
/// Returns [`EngineError::RoundLimitExceeded`] on a diverging payload; propagates
/// preprocessing errors. Panics if the hierarchy has more than three levels (use
/// [`super::agg_general::simulate_aggregation_general`] for smaller ε).
pub fn simulate_aggregation_star<A: AggregationAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    h: &Hierarchy,
    opts: &AggSimOptions,
) -> Result<SimulationRun<A::Output>, EngineError> {
    assert!(
        h.kappa <= 2,
        "the star simulation needs ε ≥ 1/2 (κ ≤ 2); got κ = {}",
        h.kappa
    );
    let n = g.n();
    let mut metrics = Metrics::new(g.m());

    // ---- Preprocessing (identical to the general simulation) ----
    let setup = setup_network_with(g, opts.seed, &opts.exec)?;
    metrics.merge_sequential(&setup.metrics);
    if opts.charge_hierarchy {
        metrics.merge_sequential(&h.metrics);
    }
    let mut router = Router::new(g);
    let star_level = (h.levels.len() > 1).then(|| &h.levels[1]);
    let star_forest: Option<Forest> = match star_level {
        Some(lvl) => Some(Forest::from_parents(g, lvl.parent.clone())?),
        None => None,
    };
    if let (Some(lvl), Some(forest)) = (star_level, star_forest.as_ref()) {
        let items: Vec<(NodeId, Pad)> = g
            .nodes()
            .filter(|v| lvl.cluster_of[v.index()].is_some())
            .map(|v| (v, Pad(g.degree(v) + 1)))
            .collect();
        if !items.is_empty() {
            let up = upcast(&mut router, forest, items)?;
            metrics.merge_sequential(&up.metrics);
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
    // execution, delivered by the transport below.
    let transport = |phase: usize,
                     broadcasters: &[(NodeId, A::Msg)],
                     inboxes: &mut [Vec<(NodeId, A::Msg)>]|
     -> Result<(), EngineError> {
        let mut phase_cost = Metrics::new(g.m());
        let mut raw_packets: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];
        let mut direct_packets: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];
        let mut receive_packets: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];
        let mut star_arrivals: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];

        if !broadcasters.is_empty() {
            let mut bp: Vec<Option<A::Msg>> = vec![None; n];
            for (v, m) in broadcasters {
                bp[v.index()] = Some(m.clone());
            }

            // ---- Send: L₁ broadcasters use all incident edges; star-endpoint
            //      duty edges deliver their endpoint's broadcast. One round. ----
            {
                let mut step = Metrics::new(g.m());
                step.rounds = 1;
                for (v, m) in broadcasters {
                    if in_l1[v.index()] {
                        for (e, u) in g.incident(*v) {
                            step.add_messages(e, 1);
                            raw_packets[u.index()].push((*v, m.clone()));
                        }
                    }
                }
                for (w, duties) in duty_of.iter().enumerate() {
                    if in_l1[w] {
                        continue; // L₁ endpoints already broadcast everywhere
                    }
                    if let Some(m) = &bp[w] {
                        for &(owner, e) in duties {
                            step.add_messages(e, 1);
                            raw_packets[owner.index()].push((NodeId::new(w), m.clone()));
                        }
                    }
                }
                phase_cost.merge_sequential(&step);
            }

            // ---- Star-cluster machinery ----
            if let (Some(lvl), Some(forest)) = (star_level, star_forest.as_ref()) {
                // Broadcasting members send to their center (upcast: depth ≤ 1).
                let to_center: Vec<(NodeId, Pad)> = broadcasters
                    .iter()
                    .filter(|(v, _)| lvl.cluster_of[v.index()].is_some())
                    .map(|(v, _)| (*v, Pad(1)))
                    .collect();
                if !to_center.is_empty() {
                    let up = upcast(&mut router, forest, to_center)?;
                    phase_cost.merge_sequential(&up.metrics);
                }

                // Per cluster: matchings to every neighboring star cluster.
                let mut down_items: Vec<(NodeId, Pad)> = Vec::new();
                let mut forwards: Vec<(EdgeId, usize)> = Vec::new();
                for (ci, (_center, members)) in lvl.clusters.iter().enumerate() {
                    let cid = ClusterId::new(ci);
                    let senders: Vec<NodeId> = members
                        .iter()
                        .copied()
                        .filter(|v| bp[v.index()].is_some())
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
                            let msgs: Vec<(NodeId, A::Msg)> = g
                                .neighbors(u)
                                .iter()
                                .filter(|x| lvl.cluster_of[x.index()] == Some(cid))
                                .filter_map(|x| bp[x.index()].clone().map(|m| (*x, m)))
                                .collect();
                            let agg = algo.aggregate(u, phase, msgs);
                            let m1 = bp[w.index()].clone().expect("w is a sender");
                            let words =
                                1 + agg.iter().map(|(_, m)| m.words().max(1)).sum::<usize>();
                            down_items.push((w, Pad(words)));
                            let e = g.edge_between(w, u).expect("matched pairs are edges");
                            forwards.push((e, words));
                            star_arrivals[u.index()].push((w, m1));
                            direct_packets[u.index()].extend(agg);
                        }
                    }
                }
                if !down_items.is_empty() {
                    let down = downcast(&mut router, forest, down_items)?;
                    phase_cost.merge_sequential(&down.metrics);
                }
                if !forwards.is_empty() {
                    let mut step = Metrics::new(g.m());
                    step.rounds = 1;
                    for (e, w) in forwards {
                        step.add_messages(e, w as u64);
                    }
                    phase_cost.merge_sequential(&step);
                }

                // ---- Receive step: members upcast m₁ arrivals + own broadcasts;
                //      centers downcast per-member aggregates. ----
                let mut avail: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); lvl.clusters.len()];
                let mut up_items: Vec<(NodeId, Pad)> = Vec::new();
                for v in g.nodes() {
                    let Some(c) = lvl.cluster_of[v.index()] else {
                        continue;
                    };
                    let mut words = 0usize;
                    if let Some(m) = &bp[v.index()] {
                        avail[c.index()].push((v, m.clone()));
                        words += 1;
                    }
                    if !star_arrivals[v.index()].is_empty() {
                        avail[c.index()].extend(star_arrivals[v.index()].iter().cloned());
                        words += star_arrivals[v.index()].len();
                    }
                    if words > 0 {
                        up_items.push((v, Pad(words)));
                    }
                }
                if !up_items.is_empty() {
                    let up = upcast(&mut router, forest, up_items)?;
                    phase_cost.merge_sequential(&up.metrics);
                }
                let mut down2: Vec<(NodeId, Pad)> = Vec::new();
                for (ci, msgs) in avail.iter().enumerate() {
                    if msgs.is_empty() {
                        continue;
                    }
                    for &u in &lvl.clusters[ci].1 {
                        let relevant: Vec<(NodeId, A::Msg)> = msgs
                            .iter()
                            .filter(|(v, _)| *v != u && g.has_edge(*v, u))
                            .cloned()
                            .collect();
                        if relevant.is_empty() {
                            continue;
                        }
                        let agg = algo.aggregate(u, phase, relevant);
                        if agg.is_empty() {
                            continue;
                        }
                        let words: usize = agg.iter().map(|(_, m)| m.words().max(1)).sum();
                        down2.push((u, Pad(words)));
                        receive_packets[u.index()].extend(agg);
                    }
                }
                if !down2.is_empty() {
                    let down = downcast(&mut router, forest, down2)?;
                    phase_cost.merge_sequential(&down.metrics);
                }
            }
        }
        metrics.merge_sequential(&phase_cost);

        // ---- Compute ----
        for u in 0..n {
            let mut all = std::mem::take(&mut raw_packets[u]);
            all.extend(std::mem::take(&mut direct_packets[u]));
            all.extend(std::mem::take(&mut receive_packets[u]));
            if all.is_empty() {
                continue;
            }
            inboxes[u] = dedupe_msgs(all);
        }
        Ok(())
    };
    let payload_opts = payload_options(opts.seed, opts.max_phases, &opts.exec);
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
    #[should_panic(expected = "star simulation needs")]
    fn rejects_small_epsilon() {
        let g = generators::path(6);
        let h = pruned(&g, 0.25, 1);
        let algo = BfsCollection::new(vec![NodeId::new(0)]);
        let _ = simulate_aggregation_star(&algo, &g, None, &h, &AggSimOptions::default());
    }
}
