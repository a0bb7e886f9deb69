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
//! Several payloads can be simulated together, each over its own hierarchy
//! (Lemma 3.23's batches are): the one round loop steps them in lockstep,
//! wrapper round `t` being round `⌊t/k⌋` of instance `t mod k`, and payload
//! round `r` of every instance is routed as one schedule. Each instance's
//! casts, inboxes and outputs are those of its run alone; only the rounds
//! the shared network takes change.
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
    route_casts, run_bcongest_over, AggregationAlgorithm, BcongestAlgorithm, Cast, EngineError,
    LocalView, Metrics, Router,
};
use congest_graph::{rng, EdgeId, Graph, NodeId};

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

/// An inter-communication edge pointing into a cluster: the inside endpoint
/// and the edge (the outside owner is the edge's other end).
#[derive(Clone, Copy, Debug)]
struct InEdge {
    endpoint: NodeId,
    edge: EdgeId,
}

/// Preprocessed hierarchy structures reused across phases, flat: a joint
/// simulation keeps one per instance alive for the whole run.
struct Runtime<'h> {
    g: &'h Graph,
    /// Per level ≥ 1 with clusters: its clusters as the receive step reads
    /// them, the forest of its cluster trees included (`None` at level 0, and
    /// at a level without clusters, which has nothing to send or receive).
    levels: Vec<Option<LevelClusters<'h>>>,
    /// Every `F*_{j+1}` edge pointing into a cluster of level `j`, level by
    /// level and, within a level, cluster by cluster; level `j`'s are
    /// `r_in[r_in_at[j]..r_in_at[j + 1]]`.
    r_in: Vec<InEdge>,
    r_in_at: Vec<usize>,
    /// Per in-edge, in `r_in` order: the owner's neighbours inside the target
    /// cluster, whose broadcasts the center aggregates for the owner, in the
    /// owner's adjacency order; in-edge `i`'s are
    /// `adjacent[adjacent_at[i]..adjacent_at[i + 1]]`.
    adjacent: Vec<NodeId>,
    adjacent_at: Vec<u32>,
    /// Every node's `F*` edges (at its drop-out level), `(edge, other)`, node
    /// by node; `v`'s are `f_of[f_at[v]..f_at[v + 1]]`.
    f_of: Vec<(EdgeId, NodeId)>,
    f_at: Vec<u32>,
}

impl<'h> Runtime<'h> {
    fn build(g: &'h Graph, h: &'h Hierarchy) -> Result<Self, EngineError> {
        let mut levels = vec![None];
        for lvl in &h.levels[1..] {
            let clusters = (!lvl.clusters.is_empty()).then(|| LevelClusters::new(g, lvl));
            levels.push(clusters.transpose()?);
        }
        // F*_li points into clusters of level li-1. Sorted stably, so a
        // cluster's in-edges keep the order they were found in.
        let mut found: Vec<_> = h.all_f_edges().map(|(li, f)| (li - 1, f)).collect();
        found.sort_by_key(|&(lj, f)| (lj, f.target));
        let mut r_in = Vec::with_capacity(found.len());
        let mut r_in_at = vec![0; h.levels.len() + 1];
        let mut adjacent = Vec::new();
        let mut adjacent_at = Vec::with_capacity(found.len() + 1);
        adjacent_at.push(0);
        let mut f_at = vec![0; g.n() + 1];
        for &(lj, f) in &found {
            let lvl = &h.levels[lj];
            debug_assert!(f.target.index() < lvl.clusters.len(), "compact ids");
            let inside = |x: &&NodeId| lvl.cluster_of[x.index()] == Some(f.target);
            adjacent.extend(g.neighbors(f.owner).iter().filter(inside));
            adjacent_at.push(adjacent.len() as u32);
            r_in.push(InEdge {
                endpoint: f.other,
                edge: f.edge,
            });
            r_in_at[lj + 1] += 1;
            f_at[f.owner.index() + 1] += 1;
        }
        adjacent.shrink_to_fit();
        for j in 0..h.levels.len() {
            r_in_at[j + 1] += r_in_at[j];
        }
        for v in 0..g.n() {
            f_at[v + 1] += f_at[v];
        }
        let mut f_of = vec![(EdgeId::new(0), NodeId::new(0)); found.len()];
        let mut cursor = f_at.clone();
        for (_, f) in h.all_f_edges() {
            let at = &mut cursor[f.owner.index()];
            f_of[*at as usize] = (f.edge, f.other);
            *at += 1;
        }
        Ok(Self {
            g,
            levels,
            r_in,
            r_in_at,
            adjacent,
            adjacent_at,
            f_of,
            f_at,
        })
    }

    /// The in-edges into level `lj`'s clusters, cluster by cluster, each
    /// with its owner and adjacent members.
    fn r_in(&self, lj: usize) -> impl Iterator<Item = (NodeId, InEdge, &[NodeId])> + '_ {
        (self.r_in_at[lj]..self.r_in_at[lj + 1]).map(|i| {
            let ie = self.r_in[i];
            let (a, b) = self.g.endpoints(ie.edge);
            let owner = if a == ie.endpoint { b } else { a };
            let members = self.adjacent_at[i] as usize..self.adjacent_at[i + 1] as usize;
            (owner, ie, &self.adjacent[members])
        })
    }

    /// `v`'s `F*` edges, `(edge, other)`.
    fn f_of(&self, v: NodeId) -> &[(EdgeId, NodeId)] {
        &self.f_of[self.f_at[v.index()] as usize..self.f_at[v.index() + 1] as usize]
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
    let one = [(algo, h, opts.seed)];
    let run = simulate_general_with_setup(&one, g, weights, opts, None, |out| out)?;
    Ok(run.map_outputs(|mut outs| outs.pop().expect("one instance, one output")))
}

/// One payload of a joint Theorem 3.9 simulation: the algorithm, the pruned
/// hierarchy it is simulated over and the seed of its own execution.
pub(crate) type Instance<'a, A> = (&'a A, &'a Hierarchy, u64);

/// Theorem 3.9 for `instances`, all stepped together, on a network `setup`
/// (§3.2.1 step 1) the caller already ran and charged to its own account, or,
/// with `None`, on one it runs and charges itself (seeded by `opts.seed`).
/// Each node's output is one per instance, in instance order, as `keep`
/// leaves it: the instances' states all stay alive until the run ends, so
/// every output is built beside them, and a caller that reads a fraction of
/// an output keeps only that.
///
/// Every instance keeps its own hierarchy, casts and execution, which is
/// exactly its run alone. What the instances share is the network: the step-2
/// upcasts of one level, over every instance's hierarchy, are one routed
/// schedule, and so is payload round `r` of every instance (Lemma 3.23 runs
/// its batches this way, phase-synchronously, and Theorem 1.3 bounds the
/// joint schedule). One instance is [`simulate_aggregation_general`].
pub(crate) fn simulate_general_with_setup<A, O, K>(
    instances: &[Instance<'_, A>],
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &AggSimOptions,
    setup: Option<&NetworkSetup>,
    keep: K,
) -> Result<SimulationRun<Vec<O>>, EngineError>
where
    A: AggregationAlgorithm,
    O: Clone + std::fmt::Debug + PartialEq,
    K: Fn(A::Output) -> O + Sync,
{
    let n = g.n();
    let mut metrics = Metrics::new(g.m());

    // ---- Preprocessing ----
    if setup.is_none() {
        metrics.merge_sequential(&setup_network(g, opts.seed)?.metrics);
    }
    let mut runtimes = Vec::with_capacity(instances.len());
    for &(_, h, _) in instances {
        if opts.charge_hierarchy {
            metrics.merge_sequential(&h.metrics);
        }
        runtimes.push(Runtime::build(g, h)?);
    }
    let mut router = Router::new(g)?;
    // Per-level upcast of member neighborhoods to cluster centers (§3.2.1
    // step 2), every instance's at that level in one schedule.
    let depth = runtimes.iter().map(|rt| rt.levels.len()).max().unwrap_or(0);
    for li in 1..depth {
        let mut casts = Vec::new();
        for rt in &runtimes {
            let Some(Some(clusters)) = rt.levels.get(li) else {
                continue;
            };
            let lvl = clusters.level;
            let items: Vec<(NodeId, usize)> = g
                .nodes()
                .filter(|v| lvl.cluster_of[v.index()].is_some())
                .map(|v| (v, g.degree(v) + 1))
                .collect();
            if !items.is_empty() {
                casts.push(Cast::Up {
                    forest: &clusters.forest,
                    items,
                    after: vec![],
                });
            }
        }
        if !casts.is_empty() {
            metrics.merge_sequential(&route_casts(&mut router, &casts)?);
        }
    }
    let preprocessing = metrics.clone();

    // Nodes keep their own states: wrapper round `t` is round `t / k` of
    // instance `t % k` (see `Lockstep`), delivered by the transport below. The
    // k wrapper rounds of one payload round append their casts to `pending`,
    // which is routed as one schedule when a later payload round first
    // broadcasts, and, for the last payload round, after the run.
    let k = instances.len();
    let mut ws: PhaseWorkspace<A::Msg> = PhaseWorkspace::new(n);
    let mut pending: Vec<Cast<'_>> = Vec::new();
    let mut pending_phase = 0;
    let transport = |round: usize,
                     broadcasters: &[(NodeId, A::Msg)],
                     inboxes: &mut [Vec<(NodeId, A::Msg)>]|
     -> Result<(), EngineError> {
        if broadcasters.is_empty() {
            return Ok(());
        }
        let (phase, b) = (round / k, round % k);
        if phase != pending_phase && !pending.is_empty() {
            metrics.merge_sequential(&route_casts(&mut router, &pending)?);
            pending.clear();
        }
        pending_phase = phase;
        let (algo, h, _) = instances[b];
        let rt = &runtimes[b];
        ws.begin(broadcasters);

        // ---- Indirect send over F* edges (at most one word per directed
        //      edge) ----
        let words = broadcasters.iter().map(|(v, _)| rt.f_of(*v).len()).sum();
        let mut indirect = Vec::with_capacity(words);
        for (v, m) in broadcasters {
            for &(edge, other) in rt.f_of(*v) {
                indirect.push((*v, edge, 1));
                ws.arrivals[other.index()].push((*v, m.clone()));
            }
        }
        let arrived = pending.len();
        pending.push(Cast::Hop {
            items: indirect,
            up: None,
            after: vec![],
        });

        for (lj, lvl) in h.levels.iter().enumerate() {
            let clusters = rt.levels[lj].as_ref();
            if lj > 0 && clusters.is_none() {
                continue; // no clusters: nothing to send into or receive in
            }
            let forest = clusters.map(|c| &c.forest);
            // ---- Direct (aggregate) send ----
            // (a) Broadcasters upcast their message to their cluster's center.
            let held = pending.len();
            if let Some(forest) = forest {
                let items = broadcasters
                    .iter()
                    .filter(|(v, _)| lvl.cluster_of[v.index()].is_some())
                    .map(|(v, _)| (*v, 1))
                    .collect();
                pending.push(Cast::Up {
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
            for (owner, ie, adjacent) in rt.r_in(lj) {
                ws.gather(adjacent.iter().copied());
                if ws.msgs.is_empty() {
                    continue;
                }
                algo.aggregate(owner, phase, &mut ws.msgs);
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
                ws.direct[owner.index()].append(&mut ws.msgs);
            }
            let mut forward_after = vec![];
            if let Some(forest) = forest {
                forward_after.push(pending.len());
                pending.push(Cast::Down {
                    forest,
                    items: down,
                    after: vec![held],
                });
            }
            pending.push(Cast::Hop {
                items: forward,
                up: None,
                after: forward_after,
            });

            // ---- Receive step: waits for the indirect arrivals only ----
            ws.receive_level(algo, phase, clusters, arrived, held, &mut pending);
        }

        shrink(&mut pending[arrived..]);

        // ---- Compute ----
        ws.compute(broadcasters, inboxes);
        Ok(())
    };
    let lockstep = Lockstep {
        instances,
        g,
        weights,
        keep,
    };
    let payload_opts = payload_options(opts.seed, &opts.exec);
    let payload = run_bcongest_over(&lockstep, g, weights, &payload_opts, transport)?;
    if !pending.is_empty() {
        metrics.merge_sequential(&route_casts(&mut router, &pending)?);
    }
    let run = SimulationRun::assemble(payload, metrics, preprocessing);
    Ok(run.map_outputs(|kept| kept.outputs))
}

/// Gives back what building `casts` over-allocated: they wait in the pending
/// list until their payload round is routed, beside every other instance's.
fn shrink(casts: &mut [Cast<'_>]) {
    for cast in casts {
        match cast {
            Cast::Up { items, .. } | Cast::Down { items, .. } => items.shrink_to_fit(),
            Cast::Hop { items, .. } => items.shrink_to_fit(),
        }
    }
}

/// The instances of a joint simulation as one payload for the round loop:
/// wrapper round `t` is round `t / k` of instance `t % k`, so each instance
/// steps exactly as it would alone, one of its rounds every `k` wrapper rounds.
struct Lockstep<'a, A, K> {
    instances: &'a [Instance<'a, A>],
    g: &'a Graph,
    weights: Option<&'a [u64]>,
    /// What a node keeps of each instance's output.
    keep: K,
}

/// A node's state in a [`Lockstep`] run: per instance, its state, initialised
/// with the instance's own seed, and its `next_activity` answer as a wrapper
/// round ([`NEVER`] for none) as of the last change to that state.
#[derive(Clone, Debug)]
struct Entries<S> {
    states: Vec<S>,
    next: Vec<usize>,
}

/// "No activity" in [`Entries::next`].
const NEVER: usize = usize::MAX;

/// A node's output in a [`Lockstep`] run: per instance, what `keep` left of
/// its output, and the words of those outputs as the instances count them.
#[derive(Clone, Debug, PartialEq)]
struct Kept<O> {
    outputs: Vec<O>,
    words: usize,
}

impl<A: AggregationAlgorithm, K> Lockstep<'_, A, K> {
    /// The instance wrapper round `t` steps, its index and its round.
    fn split(&self, t: usize) -> (&A, usize, usize) {
        let k = self.instances.len();
        (self.instances[t % k].0, t % k, t / k)
    }

    /// Instance `b`'s answer for its rounds from `from` on, as a wrapper
    /// round: its round `r` is wrapper round `r·k + b`.
    fn ask(&self, b: usize, st: &A::State, from: usize) -> usize {
        let k = self.instances.len();
        let r = self.instances[b].0.next_activity(st, from);
        r.map_or(NEVER, |r| r.saturating_mul(k).saturating_add(b))
    }
}

impl<A, O, K> BcongestAlgorithm for Lockstep<'_, A, K>
where
    A: AggregationAlgorithm,
    O: Clone + std::fmt::Debug + PartialEq,
    K: Fn(A::Output) -> O + Sync,
{
    type State = Entries<A::State>;
    type Msg = A::Msg;
    type Output = Kept<O>;

    fn name(&self) -> &'static str {
        self.instances[0].0.name()
    }

    fn init(&self, view: &LocalView<'_>) -> Self::State {
        let v = view.node();
        let seeded =
            |seed| LocalView::new(self.g, self.weights, v, rng::node_seed(seed, v.index()));
        let states: Vec<A::State> = (self.instances.iter())
            .map(|&(algo, _, seed)| algo.init(&seeded(seed)))
            .collect();
        let next = states.iter().enumerate().map(|(b, st)| self.ask(b, st, 0));
        Entries {
            next: next.collect(),
            states,
        }
    }

    fn broadcast(&self, s: &Self::State, t: usize) -> Option<A::Msg> {
        let (algo, b, r) = self.split(t);
        algo.broadcast(&s.states[b], r)
    }

    fn on_broadcast_sent(&self, s: &mut Self::State, t: usize) {
        let (algo, b, r) = self.split(t);
        algo.on_broadcast_sent(&mut s.states[b], r);
        s.next[b] = self.ask(b, &s.states[b], r + 1);
    }

    fn receive(&self, s: &mut Self::State, t: usize, msgs: &[(NodeId, A::Msg)]) {
        let (algo, b, r) = self.split(t);
        algo.receive(&mut s.states[b], r, msgs);
        s.next[b] = self.ask(b, &s.states[b], r + 1);
    }

    fn is_done(&self, s: &Self::State) -> bool {
        let mut states = self.instances.iter().zip(&s.states);
        states.all(|(&(algo, ..), st)| algo.is_done(st))
    }

    fn output(&self, s: &Self::State) -> Self::Output {
        let mut words = 0;
        let states = self.instances.iter().zip(&s.states);
        let outputs = states.map(|(&(algo, ..), st)| {
            let out = algo.output(st);
            words += algo.output_words(&out);
            (self.keep)(out)
        });
        Kept {
            outputs: outputs.collect(),
            words,
        }
    }

    /// The earliest stored answer. An answer stands while it is not in the
    /// past: its instance's state has not changed since, so it still names no
    /// round too late. Only a past one is asked again, for the instance's
    /// first round at or after wrapper round `after`, `⌈(after − b) / k⌉`.
    fn next_activity(&self, s: &Self::State, after: usize) -> Option<usize> {
        let k = self.instances.len();
        let next = s.next.iter().zip(&s.states).enumerate();
        let answers = next.map(|(b, (&w, st))| match w {
            w if w < after => self.ask(b, st, after.saturating_sub(b).div_ceil(k)),
            w => w,
        });
        answers.min().filter(|&w| w != NEVER)
    }

    /// `k` times the slowest instance's bound, plus `16 (k − 1)`: the loop's
    /// guard, `4 × bound + 64` wrapper rounds, then lets every instance run
    /// the `4 × its bound + 64` rounds it would alone.
    fn round_bound(&self, n: usize, m: usize) -> usize {
        let k = self.instances.len();
        let slowest = self
            .instances
            .iter()
            .map(|(algo, ..)| algo.round_bound(n, m));
        k * slowest.max().unwrap_or(0) + 16 * (k - 1)
    }

    fn output_words(&self, out: &Self::Output) -> usize {
        out.words
    }
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
