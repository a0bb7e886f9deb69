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
//! * **receive** — members upcast their indirect arrivals (their own broadcasts
//!   are at the center already, from the direct send); centers downcast one
//!   per-member aggregate packet.
//!
//! The three steps run as one routed schedule
//! ([`congest_engine::route_casts`]), each word moving on as soon as it may:
//! the indirect sends and the level-0 forwards lead their edges from round 1; a
//! center's downcast leaves once the upcast words into *that* center are in,
//! and an endpoint forwards once its downcast words are; the receive upcast
//! waits only for the indirect arrivals, so it overlaps the direct send. A
//! `w`-word packet costs `w` rounds on every edge it crosses.
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

use crate::simulate::common::{payload_options, SimulationRun};
use crate::simulate::phase::{LevelClusters, PhaseWorkspace};
use congest_algos::leader::{setup_network, NetworkSetup};
use congest_decomp::Hierarchy;
use congest_engine::{
    route_casts, run_bcongest_over, upcast, AggregationAlgorithm, Cast, EngineError, Metrics,
    Router,
};
use congest_graph::{EdgeId, Graph, NodeId};
use std::ops::Range;

/// Options for the Theorem 3.9 / 3.10 simulations. The phase guard is the
/// payload runner's, `4 × round_bound + 64` phases.
#[derive(Clone, Debug)]
pub struct AggSimOptions {
    /// Master seed (same role as in the direct runner).
    pub seed: u64,
    /// Include the hierarchy's accounted construction cost in the preprocessing
    /// metrics (on by default; turn off when the hierarchy is shared across runs,
    /// e.g. in the Lemma 3.23 batches, and accounted once by the caller).
    pub charge_hierarchy: bool,
    /// How the payload's round loop executes its per-node phases (the
    /// preprocessing runs sequentially). Outputs and metrics are identical at
    /// every thread count.
    pub exec: congest_engine::ExecutorConfig,
}

impl Default for AggSimOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            charge_hierarchy: true,
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
struct Runtime<'h> {
    /// Per level ≥ 1: its clusters as the receive step reads them, the forest
    /// of its cluster trees included.
    levels: Vec<Option<LevelClusters<'h>>>,
    /// Per level `j`, per cluster: the `F*_{j+1}` edges pointing into it.
    r_in: Vec<Vec<Vec<InEdge>>>,
    /// Every in-edge's adjacent members, in the owner's adjacency order.
    adjacent: Vec<NodeId>,
    /// Per node: its `F*` edges (at its drop-out level).
    f_of: Vec<Vec<(EdgeId, NodeId)>>, // (edge, other)
}

impl<'h> Runtime<'h> {
    fn build(g: &'h Graph, h: &'h Hierarchy) -> Result<Self, EngineError> {
        let mut levels = vec![None];
        for lvl in &h.levels[1..] {
            levels.push(Some(LevelClusters::new(g, lvl)?));
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
            levels,
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
    simulate_general_with_setup(algo, g, weights, h, opts, None)
}

/// [`simulate_aggregation_general`] on a network `setup` (§3.2.1 step 1) the
/// caller already ran and charged to its own account, or, with `None`, on one
/// it runs and charges itself.
pub(crate) fn simulate_general_with_setup<A: AggregationAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    h: &Hierarchy,
    opts: &AggSimOptions,
    setup: Option<&NetworkSetup>,
) -> Result<SimulationRun<A::Output>, EngineError> {
    let n = g.n();
    let mut metrics = Metrics::new(g.m());

    // ---- Preprocessing ----
    if setup.is_none() {
        metrics.merge_sequential(&setup_network(g, opts.seed)?.metrics);
    }
    if opts.charge_hierarchy {
        metrics.merge_sequential(&h.metrics);
    }
    let rt = Runtime::build(g, h)?;
    let mut router = Router::new(g)?;
    // Per-level upcast of member neighborhoods to cluster centers (§3.2.1 step 2).
    for (li, lvl) in h.levels.iter().enumerate().skip(1) {
        let forest = &rt.levels[li]
            .as_ref()
            .expect("built for levels >= 1")
            .forest;
        let items: Vec<(NodeId, usize)> = g
            .nodes()
            .filter(|v| lvl.cluster_of[v.index()].is_some())
            .map(|v| (v, g.degree(v) + 1))
            .collect();
        if !items.is_empty() {
            metrics.merge_sequential(&upcast(&mut router, forest, items)?);
        }
    }
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

        // ---- Indirect send over F* edges (cast 0; at most one word per
        //      directed edge) ----
        let mut indirect = Vec::with_capacity(2 * g.m());
        for (v, m) in broadcasters {
            for &(edge, other) in &rt.f_of[v.index()] {
                indirect.push((*v, edge, 1));
                ws.arrivals[other.index()].push((*v, m.clone()));
            }
        }
        let mut casts = vec![Cast::Hop {
            items: indirect,
            up: None,
            after: vec![],
        }];

        for (lj, (ins, lvl)) in rt.r_in.iter().zip(&h.levels).enumerate() {
            let clusters = rt.levels[lj].as_ref();
            let forest = clusters.map(|c| &c.forest);
            // ---- Direct (aggregate) send ----
            // (a) Broadcasters upcast their message to their cluster's center.
            let held = casts.len();
            if let Some(forest) = forest {
                let items = broadcasters
                    .iter()
                    .filter(|(v, _)| lvl.cluster_of[v.index()].is_some())
                    .map(|(v, _)| (*v, 1))
                    .collect();
                casts.push(Cast::Up {
                    forest,
                    items,
                    after: vec![],
                });
            }
            // (b) Once its members' words are in, each center aggregates for
            // R(C) and downcasts each packet to its in-edge's endpoint, which
            // forwards it over the edge as soon as it has it (at level 0 the
            // endpoint is the cluster and forwards at once).
            let mut down = Vec::new();
            let mut forward = Vec::new();
            for ie in ins.iter().flatten() {
                ws.gather(rt.adjacent[ie.adjacent.clone()].iter().copied());
                if ws.msgs.is_empty() {
                    continue;
                }
                algo.aggregate(ie.owner, phase, &mut ws.msgs);
                if ws.msgs.is_empty() {
                    continue;
                }
                let words = ws.msgs.len();
                debug_assert!(
                    words <= algo.aggregate_budget(n),
                    "aggregate exceeded its budget"
                );
                if forest.is_some() {
                    down.push((ie.endpoint, words));
                }
                forward.push((ie.endpoint, ie.edge, words));
                ws.direct[ie.owner.index()].append(&mut ws.msgs);
            }
            let mut forward_after = vec![];
            if let Some(forest) = forest {
                forward_after.push(casts.len());
                casts.push(Cast::Down {
                    forest,
                    items: down,
                    after: vec![held],
                });
            }
            casts.push(Cast::Hop {
                items: forward,
                up: None,
                after: forward_after,
            });

            // ---- Receive step: waits for the indirect arrivals only ----
            ws.receive_level(algo, phase, clusters, 0, held, &mut casts);
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
