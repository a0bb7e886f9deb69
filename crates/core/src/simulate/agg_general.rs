//! **Theorem 3.9** — the general message-time trade-off simulation of
//! aggregation-based BCONGEST algorithms over a pruned Baswana–Sen cluster
//! hierarchy (paper §3.2.1).
//!
//! Nodes keep their own states (unlike Theorem 2.1). Each phase simulates one round
//! of the payload with three steps:
//!
//! * **indirect send** — every broadcaster sends `(v, m_v)` over its `F*` edges;
//! * **direct (aggregate) send** — broadcasters upcast `m_v` in every cluster tree
//!   containing them; each cluster center computes, for every outside node `u` with
//!   an inter-communication edge into the cluster, the aggregate of the messages of
//!   broadcasting members adjacent to `u`, downcasts the packet to the edge's
//!   endpoint, which forwards it to `u` (level-0 singleton clusters degenerate to
//!   the node itself sending its message over the edge);
//! * **receive** — indirect arrivals and member broadcasts are upcast; centers
//!   downcast one per-member aggregate packet.
//!
//! The compute step takes the union of all packets (Definition 3.1's
//! partition-invariance makes this equal to receiving every raw message), so with
//! one seed the simulated outputs equal a direct run's (Lemma 3.14; asserted by the
//! integration tests).

use crate::simulate::common::{dedupe_msgs, payload_options, Pad, SimulationRun};
use congest_algos::leader::setup_network_with;
use congest_decomp::{Hierarchy, Level};
use congest_engine::{
    downcast, run_bcongest_over, upcast, AggregationAlgorithm, EngineError, Forest, Metrics,
    Router, Wire,
};
use congest_graph::{ClusterId, EdgeId, Graph, NodeId};

/// Options for the Theorem 3.9 / 3.10 simulations.
#[derive(Clone, Debug)]
pub struct AggSimOptions {
    /// Master seed (same role as in the direct runner).
    pub seed: u64,
    /// Include the hierarchy's accounted construction cost in the preprocessing
    /// metrics (on by default; turn off when the hierarchy is shared across runs,
    /// e.g. in the Lemma 3.23 batches, and accounted once by the caller).
    pub charge_hierarchy: bool,
    /// Phase guard; defaults to `4 × round_bound + 64`.
    pub max_phases: Option<usize>,
    /// How per-node phases execute (stepper and preprocessing runs). Outputs
    /// and metrics are identical at every thread count.
    pub exec: congest_engine::ExecutorConfig,
}

impl Default for AggSimOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            charge_hierarchy: true,
            max_phases: None,
            exec: congest_engine::ExecutorConfig::default(),
        }
    }
}

/// An inter-communication edge pointing into a cluster: `(outside owner, inside
/// endpoint, edge)`.
#[derive(Clone, Copy, Debug)]
struct InEdge {
    owner: NodeId,
    endpoint: NodeId,
    edge: EdgeId,
}

/// Preprocessed hierarchy structures reused across phases.
struct Runtime {
    /// Per level ≥ 1: the forest of its cluster trees.
    forests: Vec<Option<Forest>>,
    /// Per level `j`, per cluster: the `F*_{j+1}` edges pointing into it.
    r_in: Vec<Vec<Vec<InEdge>>>,
    /// Per node: its `F*` edges (at its drop-out level).
    f_of: Vec<Vec<(EdgeId, NodeId, usize, ClusterId)>>, // (edge, other, target level, target)
}

impl Runtime {
    fn build(g: &Graph, h: &Hierarchy) -> Result<Self, EngineError> {
        let mut forests = vec![None];
        for lvl in &h.levels[1..] {
            forests.push(Some(Forest::from_parents(g, lvl.parent.clone())?));
        }
        let mut r_in: Vec<Vec<Vec<InEdge>>> = h
            .levels
            .iter()
            .map(|lvl| vec![Vec::new(); lvl.clusters.len().max(g.n())])
            .collect();
        let mut f_of: Vec<Vec<(EdgeId, NodeId, usize, ClusterId)>> = vec![Vec::new(); g.n()];
        for (li, f) in h.all_f_edges() {
            // F*_li points into clusters of level li-1.
            r_in[li - 1][f.target.index()].push(InEdge {
                owner: f.owner,
                endpoint: f.other,
                edge: f.edge,
            });
            f_of[f.owner.index()].push((f.edge, f.other, li - 1, f.target));
        }
        Ok(Self {
            forests,
            r_in,
            f_of,
        })
    }
}

/// Simulates the aggregation-based `algo` over `g` using pruned hierarchy `h`
/// (Theorem 3.9).
///
/// # Errors
///
/// Returns [`EngineError::RoundLimitExceeded`] on a diverging payload; propagates
/// preprocessing errors.
pub fn simulate_aggregation_general<A: AggregationAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    h: &Hierarchy,
    opts: &AggSimOptions,
) -> Result<SimulationRun<A::Output>, EngineError> {
    let n = g.n();
    let mut metrics = Metrics::new(g.m());

    // ---- Preprocessing ----
    let setup = setup_network_with(g, opts.seed, &opts.exec)?;
    metrics.merge_sequential(&setup.metrics);
    if opts.charge_hierarchy {
        metrics.merge_sequential(&h.metrics);
    }
    let rt = Runtime::build(g, h)?;
    let mut router = Router::new(g);
    // Per-level upcast of member neighborhoods to cluster centers (§3.2.1 step 2).
    for (li, lvl) in h.levels.iter().enumerate().skip(1) {
        let forest = rt.forests[li].as_ref().expect("built for levels >= 1");
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
    let preprocessing = metrics.clone();

    // Nodes keep their own states: phase `p` is round `p` of the payload's own
    // execution, delivered by the transport below.
    let transport = |phase: usize,
                     broadcasters: &[(NodeId, A::Msg)],
                     inboxes: &mut [Vec<(NodeId, A::Msg)>]|
     -> Result<(), EngineError> {
        let mut phase_cost = Metrics::new(g.m());
        let mut direct_packets: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];
        let mut receive_packets: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];

        if !broadcasters.is_empty() {
            let mut bp: Vec<Option<A::Msg>> = vec![None; n];
            for (v, m) in broadcasters {
                bp[v.index()] = Some(m.clone());
            }

            // ---- Indirect send over F* edges ----
            let mut indirect_at: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];
            {
                let mut step = Metrics::new(g.m());
                step.rounds = 1;
                for (v, m) in broadcasters {
                    for &(edge, other, _, _) in &rt.f_of[v.index()] {
                        step.add_messages(edge, 1);
                        indirect_at[other.index()].push((*v, m.clone()));
                    }
                }
                phase_cost.merge_sequential(&step);
            }

            // ---- Direct (aggregate) send ----
            // (a) broadcasters upcast their message in every containing cluster tree.
            for (li, lvl) in h.levels.iter().enumerate().skip(1) {
                let items: Vec<(NodeId, Pad)> = broadcasters
                    .iter()
                    .filter(|(v, _)| lvl.cluster_of[v.index()].is_some())
                    .map(|(v, _)| (*v, Pad(1)))
                    .collect();
                if !items.is_empty() {
                    let forest = rt.forests[li].as_ref().expect("level forest");
                    let up = upcast(&mut router, forest, items)?;
                    phase_cost.merge_sequential(&up.metrics);
                }
            }
            // (b) per level, centers aggregate for R(C) and route packets.
            for (lj, lvl) in h.levels.iter().enumerate() {
                if lj >= rt.r_in.len() {
                    break;
                }
                let mut down_items: Vec<(NodeId, Pad)> = Vec::new();
                let mut forwards: Vec<(EdgeId, usize)> = Vec::new();
                for (ci, ins) in rt.r_in[lj].iter().enumerate() {
                    if ins.is_empty() {
                        continue;
                    }
                    let cid = ClusterId::new(ci);
                    for ie in ins {
                        let msgs: Vec<(NodeId, A::Msg)> = g
                            .neighbors(ie.owner)
                            .iter()
                            .filter(|x| lvl.cluster_of[x.index()] == Some(cid))
                            .filter_map(|x| bp[x.index()].clone().map(|m| (*x, m)))
                            .collect();
                        if msgs.is_empty() {
                            continue;
                        }
                        let agg = algo.aggregate(ie.owner, phase, msgs);
                        if agg.is_empty() {
                            continue;
                        }
                        let words: usize = agg.iter().map(|(_, m)| m.words().max(1)).sum();
                        debug_assert!(
                            words <= algo.aggregate_budget(n),
                            "aggregate exceeded its budget"
                        );
                        if lj >= 1 {
                            down_items.push((ie.endpoint, Pad(words)));
                        }
                        forwards.push((ie.edge, words));
                        direct_packets[ie.owner.index()].extend(agg);
                    }
                }
                if !down_items.is_empty() {
                    let forest = rt.forests[lj].as_ref().expect("level forest");
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
            }

            // ---- Receive step ----
            // Members upcast indirect arrivals and their own broadcasts; centers
            // downcast one aggregate per member. Level 0 degenerates to local work.
            for (li, lvl) in h.levels.iter().enumerate() {
                if li == h.levels.len() - 1 && lvl.clusters.is_empty() {
                    break;
                }
                // Cluster-local available messages.
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
                    if !indirect_at[v.index()].is_empty() {
                        avail[c.index()].extend(indirect_at[v.index()].iter().cloned());
                        words += indirect_at[v.index()].len();
                    }
                    if words > 0 && li >= 1 {
                        up_items.push((v, Pad(words)));
                    }
                }
                if li >= 1 && !up_items.is_empty() {
                    let forest = rt.forests[li].as_ref().expect("level forest");
                    let up = upcast(&mut router, forest, up_items)?;
                    phase_cost.merge_sequential(&up.metrics);
                }
                let mut down_items: Vec<(NodeId, Pad)> = Vec::new();
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
                        if li >= 1 {
                            down_items.push((u, Pad(words)));
                        }
                        receive_packets[u.index()].extend(agg);
                    }
                }
                if li >= 1 && !down_items.is_empty() {
                    let forest = rt.forests[li].as_ref().expect("level forest");
                    let down = downcast(&mut router, forest, down_items)?;
                    phase_cost.merge_sequential(&down.metrics);
                }
            }
        }
        metrics.merge_sequential(&phase_cost);

        // ---- Compute ----
        for u in 0..n {
            let mut all = std::mem::take(&mut direct_packets[u]);
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

/// Convenience view: which levels an ℓ-node belongs to (used by tests).
pub fn membership_levels(h: &Hierarchy, v: NodeId) -> Vec<usize> {
    h.levels
        .iter()
        .filter(|lvl: &&Level| lvl.cluster_of[v.index()].is_some())
        .map(|lvl| lvl.index)
        .collect()
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
    fn bfs_collection_simulated_equals_direct() {
        for &eps in &[0.34, 0.5, 1.0] {
            let g = generators::gnp_connected(24, 0.15, 7);
            let h = pruned(&g, eps, 71);
            let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(5);
            let direct = run_bcongest(
                &algo,
                &g,
                None,
                &RunOptions {
                    seed: 13,
                    ..Default::default()
                },
            )
            .unwrap();
            let sim = simulate_aggregation_general(
                &algo,
                &g,
                None,
                &h,
                &AggSimOptions {
                    seed: 13,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(sim.outputs, direct.outputs, "eps = {eps}");
            assert_eq!(sim.simulated_broadcasts, direct.metrics.broadcasts);
        }
    }

    #[test]
    fn depth_limited_collection_equals_direct() {
        let g = generators::grid(5, 5);
        let h = pruned(&g, 0.5, 3);
        let algo = BfsCollection::new(g.nodes().collect())
            .with_depth_limit(3)
            .with_random_delays(9);
        let direct = run_bcongest(
            &algo,
            &g,
            None,
            &RunOptions {
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let sim = simulate_aggregation_general(
            &algo,
            &g,
            None,
            &h,
            &AggSimOptions {
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sim.outputs, direct.outputs);
    }

    #[test]
    fn membership_levels_shrink_with_dropout() {
        let g = generators::gnp_connected(30, 0.2, 2);
        let h = pruned(&g, 0.34, 2);
        for v in g.nodes() {
            let lv = membership_levels(&h, v);
            assert_eq!(lv.len(), h.dropout[v.index()]);
        }
    }
}
