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
//!
//! This file owns the two send steps and what they read off the hierarchy
//! (`Runtime`: each in-edge's adjacent members are found once, not per phase). The
//! receive and compute steps, shared with Theorem 3.10, and every per-phase table
//! belong to the crate-private phase workspace (`phase.rs`), created once per
//! simulation.

use crate::simulate::common::{payload_options, Pad, SimulationRun};
use crate::simulate::phase::{batch_words, PhaseWorkspace};
use congest_algos::leader::setup_network_with;
use congest_decomp::Hierarchy;
use congest_engine::{
    downcast, run_bcongest_over, upcast, AggregationAlgorithm, EngineError, Forest, Metrics, Router,
};
use congest_graph::{EdgeId, Graph, NodeId};
use std::ops::Range;

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
    /// How per-node phases execute (the payload's round loop and the
    /// preprocessing runs). Outputs and metrics are identical at every thread
    /// count.
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
#[derive(Clone, Debug)]
struct InEdge {
    owner: NodeId,
    endpoint: NodeId,
    edge: EdgeId,
    /// The owner's neighbours inside the target cluster — whose broadcasts the
    /// center aggregates for the owner — as a range into [`Runtime::adjacent`].
    adjacent: Range<usize>,
}

/// Preprocessed hierarchy structures reused across phases.
struct Runtime {
    /// Per level ≥ 1: the forest of its cluster trees.
    forests: Vec<Option<Forest>>,
    /// Per level `j`, per cluster: the `F*_{j+1}` edges pointing into it.
    r_in: Vec<Vec<Vec<InEdge>>>,
    /// Every in-edge's adjacent members, in the owner's adjacency order.
    adjacent: Vec<NodeId>,
    /// Per node: its `F*` edges (at its drop-out level).
    f_of: Vec<Vec<(EdgeId, NodeId)>>, // (edge, other)
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
            .map(|lvl| vec![Vec::new(); lvl.clusters.len()])
            .collect();
        let mut adjacent = Vec::new();
        let mut f_of: Vec<Vec<(EdgeId, NodeId)>> = vec![Vec::new(); g.n()];
        for (li, f) in h.all_f_edges() {
            // F*_li points into clusters of level li-1.
            let lvl = &h.levels[li - 1];
            debug_assert!(f.target.index() < lvl.clusters.len(), "compact ids");
            let start = adjacent.len();
            let inside = |x: &&NodeId| lvl.cluster_of[x.index()] == Some(f.target);
            adjacent.extend(g.neighbors(f.owner).iter().filter(inside));
            r_in[li - 1][f.target.index()].push(InEdge {
                owner: f.owner,
                endpoint: f.other,
                edge: f.edge,
                adjacent: start..adjacent.len(),
            });
            f_of[f.owner.index()].push((f.edge, f.other));
        }
        Ok(Self {
            forests,
            r_in,
            adjacent,
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
    let mut router = Router::new(g)?;
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
    let mut ws: PhaseWorkspace<A::Msg> = PhaseWorkspace::new(n);
    let transport = |phase: usize,
                     broadcasters: &[(NodeId, A::Msg)],
                     inboxes: &mut [Vec<(NodeId, A::Msg)>]|
     -> Result<(), EngineError> {
        if broadcasters.is_empty() {
            return Ok(());
        }
        ws.begin(broadcasters);

        // ---- Indirect send over F* edges ----
        metrics.rounds += 1;
        for (v, m) in broadcasters {
            for &(edge, other) in &rt.f_of[v.index()] {
                metrics.add_messages(edge, 1);
                ws.arrivals[other.index()].push((*v, m.clone()));
            }
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
                metrics.merge_sequential(&upcast(&mut router, forest, items)?.metrics);
            }
        }
        // (b) per level, centers aggregate for R(C), downcast the packets to the
        // in-edges' endpoints, and those forward them in one round.
        for (lj, ins) in rt.r_in.iter().enumerate() {
            let mut down_items: Vec<(NodeId, Pad)> = Vec::new();
            let mut forwarded = false;
            for ie in ins.iter().flatten() {
                ws.gather(rt.adjacent[ie.adjacent.clone()].iter().copied());
                if ws.msgs.is_empty() {
                    continue;
                }
                algo.aggregate(ie.owner, phase, &mut ws.msgs);
                if ws.msgs.is_empty() {
                    continue;
                }
                let words = batch_words(&ws.msgs);
                debug_assert!(
                    words <= algo.aggregate_budget(n),
                    "aggregate exceeded its budget"
                );
                if lj >= 1 {
                    down_items.push((ie.endpoint, Pad(words)));
                }
                metrics.add_messages(ie.edge, words as u64);
                forwarded = true;
                ws.direct[ie.owner.index()].append(&mut ws.msgs);
            }
            if !down_items.is_empty() {
                let forest = rt.forests[lj].as_ref().expect("level forest");
                metrics.merge_sequential(&downcast(&mut router, forest, down_items)?.metrics);
            }
            metrics.rounds += u64::from(forwarded);
        }

        // ---- Receive step, level by level ----
        for (lvl, forest) in h.levels.iter().zip(&rt.forests) {
            ws.receive_level(algo, phase, lvl, forest.as_ref(), &mut router, &mut metrics)?;
        }

        // ---- Compute ----
        ws.compute(broadcasters, inboxes);
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

    /// Which levels an ℓ-node belongs to.
    fn membership_levels(h: &Hierarchy, v: NodeId) -> Vec<usize> {
        h.levels
            .iter()
            .filter(|lvl| lvl.cluster_of[v.index()].is_some())
            .map(|lvl| lvl.index)
            .collect()
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
