//! The phase workspace of the two aggregation simulations (Theorems 3.9 / 3.10).
//!
//! A simulated phase fills a handful of per-node and per-cluster tables. They
//! live here, created once per simulation next to its `Router` and emptied by
//! the phase that filled them, so a phase costs what it aggregates rather than
//! what it would take to build the tables again.
//!
//! The workspace also owns the two steps the simulations share: the per-level
//! **receive** step ([`PhaseWorkspace::receive_level`]) and the **compute**
//! step ([`PhaseWorkspace::compute`]). The send steps differ — `F*` edges and
//! per-in-edge aggregates in `agg_general.rs`, `L₁` broadcasts and star
//! matchings in `agg_star.rs` — and stay with their theorem; they write into
//! the public tables below.
//!
//! No step routes anything itself. Each appends its casts, with the casts they
//! wait for, to the phase's list, and the simulation routes the whole list as
//! one schedule ([`congest_engine::route_casts`]). The receive step's two casts
//! are a member upcast of its arrivals (its own broadcast reached the center in
//! the send step) and a per-member downcast from the center; the center reads
//! who is next to whom off [`LevelClusters`], built once per simulation.

use congest_decomp::Level;
use congest_engine::{AggregationAlgorithm, Cast, EngineError, Forest};
use congest_graph::{ClusterId, Graph, NodeId};

/// A batch of `(sender, message)` pairs.
type Batch<M> = Vec<(NodeId, M)>;

/// A hierarchy level with clusters (level ≥ 1) as the receive step reads it:
/// the level, its cluster forest, and per node its neighbours grouped by
/// their cluster, so a center finds the members next to a sender without
/// scanning the sender's whole adjacency. Built once per simulation.
pub(crate) struct LevelClusters<'h> {
    pub level: &'h Level,
    pub forest: Forest,
    graph: &'h Graph,
    /// Node `v`'s neighbours that are members, `(their cluster, neighbour)`
    /// sorted by cluster, at `by_cluster[offsets[v]..offsets[v + 1]]`.
    by_cluster: Vec<(u32, NodeId)>,
    offsets: Vec<u32>,
}

impl<'h> LevelClusters<'h> {
    /// # Errors
    ///
    /// [`EngineError::InvalidForest`] if the level's parents are no forest of `g`.
    pub(crate) fn new(g: &'h Graph, level: &'h Level) -> Result<Self, EngineError> {
        let forest = Forest::from_parents(g, level.parent.clone())?;
        let mut by_cluster = Vec::with_capacity(2 * g.m());
        let mut offsets = Vec::with_capacity(g.n() + 1);
        offsets.push(0);
        for v in g.nodes() {
            let start = by_cluster.len();
            let members = g
                .neighbors(v)
                .iter()
                .filter_map(|&u| level.cluster_of[u.index()].map(|c| (c.raw(), u)));
            by_cluster.extend(members);
            by_cluster[start..].sort_unstable();
            offsets.push(by_cluster.len() as u32);
        }
        // A level's members are a fraction of the graph (none at the top), and
        // a joint simulation keeps every instance's levels for the whole run.
        by_cluster.shrink_to_fit();
        Ok(Self {
            level,
            forest,
            graph: g,
            by_cluster,
            offsets,
        })
    }

    /// `v`'s neighbours in cluster `c`.
    fn neighbours_in(&self, v: NodeId, c: ClusterId) -> &[(u32, NodeId)] {
        let all = &self.by_cluster
            [self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize];
        let from = all.partition_point(|&(x, _)| x < c.raw());
        let to = all.partition_point(|&(x, _)| x <= c.raw());
        &all[from..to]
    }
}

pub(crate) struct PhaseWorkspace<M> {
    /// Per node: its broadcast this phase (`B_p`).
    pub bp: Vec<Option<M>>,
    /// Per node: the `(sender, message)` pairs that reached it over an
    /// inter-cluster edge, which its clusters share in the receive step.
    pub arrivals: Vec<Batch<M>>,
    /// Per node: packets delivered as they were sent (the star simulation's
    /// `L₁` broadcasts and level-0 duty edges).
    pub raw: Vec<Batch<M>>,
    /// Per node: aggregate packets of the direct-send step.
    pub direct: Vec<Batch<M>>,
    /// The batch a send step [gathers](Self::gather) for one `aggregate` call.
    pub msgs: Batch<M>,
    /// Per node: aggregate packets of the receive step.
    receive: Vec<Batch<M>>,
    /// Per member: the available messages its neighbours sent.
    relevant: Vec<Batch<M>>,
    /// Per cluster of the level being received: broadcasts and arrivals of
    /// its members.
    avail: Vec<Batch<M>>,
}

impl<M: Clone + PartialEq> PhaseWorkspace<M> {
    /// An empty workspace for an `n`-node graph (no level has more than `n`
    /// clusters).
    pub(crate) fn new(n: usize) -> Self {
        let table = || vec![Vec::new(); n];
        Self {
            bp: vec![None; n],
            arrivals: table(),
            raw: table(),
            direct: table(),
            msgs: Vec::new(),
            receive: table(),
            relevant: table(),
            avail: table(),
        }
    }

    /// Opens a phase: records who broadcasts what.
    pub(crate) fn begin(&mut self, broadcasters: &[(NodeId, M)]) {
        for (v, m) in broadcasters {
            self.bp[v.index()] = Some(m.clone());
        }
    }

    /// Replaces `msgs` with the broadcasts of those of `nodes` that broadcast
    /// this phase, in `nodes` order.
    pub(crate) fn gather(&mut self, nodes: impl Iterator<Item = NodeId>) {
        self.msgs.clear();
        for x in nodes {
            if let Some(m) = &self.bp[x.index()] {
                self.msgs.push((x, m.clone()));
            }
        }
    }

    /// The receive step at one level, as two casts appended to the phase's
    /// `casts`: members upcast their arrivals to the center, once those
    /// arrived (the items of cast `arrived` ending at them), and the center,
    /// once its members' arrivals and broadcasts are in (the latter the items
    /// of cast `held`, which the send step already brought there), downcasts
    /// one aggregate per member of what that member's neighbours sent.
    /// `clusters` is `None` at level 0, where clusters are singletons, both
    /// casts degenerate to local work and the fan-in is the arrival table
    /// itself.
    pub(crate) fn receive_level<'f, A: AggregationAlgorithm<Msg = M>>(
        &mut self,
        algo: &A,
        phase: usize,
        clusters: Option<&'f LevelClusters<'_>>,
        arrived: usize,
        held: usize,
        casts: &mut Vec<Cast<'f>>,
    ) {
        let Some(clusters) = clusters else {
            // Singleton clusters: every arrival at `x` crossed an edge into `x`,
            // and `x`'s own broadcast is not addressed to `x`, so what `x`'s
            // neighbours sent is `arrivals[x]` as it stands.
            for (x, arrivals) in self.arrivals.iter().enumerate() {
                if arrivals.is_empty() {
                    continue;
                }
                let relevant = &mut self.relevant[x];
                relevant.extend_from_slice(arrivals);
                algo.aggregate(NodeId::new(x), phase, relevant);
                self.receive[x].append(relevant);
            }
            return;
        };
        let lvl = clusters.level;
        let mut up_items = Vec::new();
        for v in clusters.graph.nodes() {
            let Some(c) = lvl.cluster_of[v.index()] else {
                continue;
            };
            let avail = &mut self.avail[c.index()];
            avail.extend(self.bp[v.index()].iter().map(|m| (v, m.clone())));
            let arrivals = &self.arrivals[v.index()];
            avail.extend_from_slice(arrivals);
            if !arrivals.is_empty() {
                up_items.push((v, arrivals.len()));
            }
        }
        let up = casts.len();
        casts.push(Cast::Up {
            forest: &clusters.forest,
            items: up_items,
            after: vec![arrived],
        });
        let mut down_items = Vec::new();
        for (ci, (_, members)) in lvl.clusters.iter().enumerate() {
            if self.avail[ci].is_empty() {
                continue;
            }
            // Every member ends up with its neighbours' messages in the
            // cluster's order.
            let cid = ClusterId::new(ci);
            for (v, m) in self.avail[ci].drain(..) {
                for &(_, u) in clusters.neighbours_in(v, cid) {
                    self.relevant[u.index()].push((v, m.clone()));
                }
            }
            for &u in members {
                let relevant = &mut self.relevant[u.index()];
                if relevant.is_empty() {
                    continue;
                }
                algo.aggregate(u, phase, relevant);
                if relevant.is_empty() {
                    continue;
                }
                down_items.push((u, relevant.len()));
                self.receive[u.index()].append(relevant);
            }
        }
        casts.push(Cast::Down {
            forest: &clusters.forest,
            items: down_items,
            after: vec![held, up],
        });
    }

    /// The compute step, which closes the phase: every node's inbox is the
    /// union of its packets (Definition 3.1 — a message may legitimately
    /// arrive through several routes), first arrival first.
    pub(crate) fn compute(&mut self, broadcasters: &[(NodeId, M)], inboxes: &mut [Batch<M>]) {
        for (v, _) in broadcasters {
            self.bp[v.index()] = None;
        }
        for (u, inbox) in inboxes.iter_mut().enumerate() {
            self.arrivals[u].clear();
            let packets = self.raw[u]
                .drain(..)
                .chain(self.direct[u].drain(..))
                .chain(self.receive[u].drain(..));
            for (from, m) in packets {
                if !inbox.iter().any(|(f, x)| *f == from && *x == m) {
                    inbox.push((from, m));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted_tradeoff::WeightedApspOverHierarchy;
    use congest_algos::apsp_weighted::{WApspMsg, WeightedApsp};
    use congest_algos::bfs_collection::{BfsCollection, BfsMsg};
    use congest_engine::LocalView;
    use congest_graph::{generators, Graph, WeightedGraph};

    /// Definition 3.1, which is what lets `compute` hand a node the union of its
    /// packets: `receive(M) == receive(∪ agg(M_i))` for any partition of `M`.
    fn assert_partition_invariant<A: AggregationAlgorithm>(
        algo: &A,
        g: &Graph,
        weights: Option<&[u64]>,
        receiver: NodeId,
        msgs: &[(NodeId, A::Msg)],
    ) {
        let view = LocalView::new(g, weights, receiver, 1);
        let mut direct = algo.init(&view);
        algo.receive(&mut direct, 4, msgs);
        for parts in 1..=4 {
            let mut union = Vec::new();
            for first in 0..parts {
                let mut part: Vec<_> = msgs.iter().skip(first).step_by(parts).cloned().collect();
                algo.aggregate(receiver, 4, &mut part);
                union.append(&mut part);
            }
            let mut merged = algo.init(&view);
            algo.receive(&mut merged, 4, &union);
            assert_eq!(
                algo.output(&direct),
                algo.output(&merged),
                "{} in {parts} parts",
                algo.name()
            );
        }
    }

    #[test]
    fn aggregation_is_partition_invariant() {
        let g = generators::gnp_connected(20, 0.3, 23);
        let receiver = NodeId::new(0);
        // Every neighbour reports three instances, at distances that tie and cross.
        let batch: Vec<(NodeId, u32, u32)> = g
            .neighbors(receiver)
            .iter()
            .enumerate()
            .flat_map(|(i, &v)| (1..4).map(move |j| (v, j, (7 * i as u32 + 3 * j) % 5)))
            .collect();
        assert!(batch.len() >= 9);
        let bfs: Vec<(NodeId, BfsMsg)> = batch
            .iter()
            .map(|&(v, bfs, dist)| {
                (
                    v,
                    BfsMsg {
                        bfs,
                        dist,
                        delay: bfs,
                    },
                )
            })
            .collect();
        let weighted: Vec<(NodeId, WApspMsg)> = batch
            .iter()
            .map(|&(v, source, dist)| {
                (
                    v,
                    WApspMsg {
                        source,
                        dist: dist.into(),
                    },
                )
            })
            .collect();

        let collection = BfsCollection::new(g.nodes().collect());
        assert_partition_invariant(&collection, &g, None, receiver, &bfs);
        // The sender-blind weighted aggregate is exact only under equal weights.
        let unit = WeightedGraph::unit(&g);
        let blind = WeightedApsp::new(1);
        assert_partition_invariant(&blind, &g, Some(unit.weights()), receiver, &weighted);
        let wg = WeightedGraph::random_weights(&g, 1..=6, 23);
        let aware = WeightedApspOverHierarchy::new(&wg);
        assert_partition_invariant(&aware, &g, Some(wg.weights()), receiver, &weighted);
    }

    /// Every node broadcasts its id once, in round 0, and outputs what it
    /// heard; `aggregate` keeps every message, so an aggregate of `w`
    /// broadcasts is `w` words.
    struct Once;

    impl congest_engine::BcongestAlgorithm for Once {
        type State = (bool, Vec<(NodeId, u32)>);
        type Msg = u32;
        type Output = Vec<(NodeId, u32)>;

        fn name(&self) -> &'static str {
            "once"
        }
        fn init(&self, _: &LocalView<'_>) -> Self::State {
            (false, Vec::new())
        }
        fn broadcast(&self, s: &Self::State, _: usize) -> Option<u32> {
            (!s.0).then_some(7)
        }
        fn on_broadcast_sent(&self, s: &mut Self::State, _: usize) {
            s.0 = true;
        }
        fn receive(&self, s: &mut Self::State, _: usize, msgs: &[(NodeId, u32)]) {
            s.1.extend_from_slice(msgs);
            s.1.sort_unstable();
        }
        fn is_done(&self, s: &Self::State) -> bool {
            s.0
        }
        fn output(&self, s: &Self::State) -> Self::Output {
            s.1.clone()
        }
        fn round_bound(&self, _: usize, _: usize) -> usize {
            1
        }
        fn output_words(&self, out: &Self::Output) -> usize {
            out.len()
        }
    }

    impl AggregationAlgorithm for Once {
        fn aggregate(&self, _: NodeId, _: usize, _: &mut Vec<(NodeId, u32)>) {}
        fn aggregate_budget(&self, n: usize) -> usize {
            n
        }
    }

    /// A star cluster — center 0, leaves `1..=w` — and a one-node cluster
    /// `{o}`, `o = w + 1`, adjacent to every leaf; κ = 2, everyone drops out
    /// at level 2, and `o`'s one `F₂`-edge into the star lands on leaf 1.
    /// So the star's center owes `o` an aggregate of all `w` leaves' messages.
    fn star_and_neighbour(w: usize) -> (Graph, congest_decomp::Hierarchy) {
        use congest_decomp::{FEdge, Hierarchy, Level};
        use congest_engine::Metrics;
        let o = w + 1;
        let edges: Vec<(usize, usize)> = (1..=w).flat_map(|i| [(0, i), (i, o)]).collect();
        let g = Graph::from_edges(w + 2, &edges);
        let node = NodeId::new;
        let singletons = Level {
            index: 0,
            cluster_of: g.nodes().map(|v| Some(ClusterId::new(v.index()))).collect(),
            clusters: g.nodes().map(|v| (v, vec![v])).collect(),
            parent: vec![None; g.n()],
            depth: vec![0; g.n()],
            l_nodes: Vec::new(),
            f_edges: Vec::new(),
        };
        let (star, single) = (ClusterId::new(0), ClusterId::new(1));
        let clusters = Level {
            index: 1,
            cluster_of: (0..g.n())
                .map(|v| Some(if v == o { single } else { star }))
                .collect(),
            clusters: vec![
                (node(0), (0..=w).map(node).collect()),
                (node(o), vec![node(o)]),
            ],
            parent: (0..g.n())
                .map(|v| (1..=w).contains(&v).then_some(node(0)))
                .collect(),
            depth: (0..g.n())
                .map(|v| u32::from((1..=w).contains(&v)))
                .collect(),
            l_nodes: Vec::new(),
            f_edges: Vec::new(),
        };
        let f_edge = |owner: usize, other: usize, target| FEdge {
            owner: node(owner),
            edge: g.edge_between(node(owner), node(other)).expect("an edge"),
            other: node(other),
            target,
        };
        let mut f_edges = vec![f_edge(o, 1, star)];
        f_edges.extend((1..=w).map(|i| f_edge(i, o, single)));
        let top = Level {
            index: 2,
            cluster_of: vec![None; g.n()],
            clusters: Vec::new(),
            parent: vec![None; g.n()],
            depth: vec![0; g.n()],
            l_nodes: g.nodes().collect(),
            f_edges,
        };
        let h = Hierarchy {
            epsilon: 0.5,
            kappa: 2,
            levels: vec![singletons, clusters, top],
            dropout: vec![2; g.n()],
            cluster_edge: (0..g.m())
                .map(|e| g.endpoints(congest_graph::EdgeId::new(e)).0 == node(0))
                .collect(),
            metrics: Metrics::new(g.m()),
        };
        (g, h)
    }

    #[test]
    fn a_w_word_aggregate_costs_w_rounds_on_its_edge() {
        use crate::simulate::{
            simulate_aggregation_general, simulate_aggregation_star, AggSimOptions,
        };
        let w = 9;
        let (g, h) = star_and_neighbour(w);
        let direct = congest_engine::run_bcongest(&Once, &g, None, &Default::default())
            .expect("direct run")
            .outputs;
        let opts = AggSimOptions::default();
        let runs = [
            simulate_aggregation_general(&Once, &g, None, &h, &opts).expect("Theorem 3.9"),
            simulate_aggregation_star(&Once, &g, None, &h, &opts).expect("Theorem 3.10"),
        ];
        for run in runs {
            assert_eq!(run.outputs, direct);
            // The one phase: `o`'s `w`-word aggregate (the star simulation
            // adds the identity word) crosses the edge down to the sender,
            // then the edge into `o`, one word per round on each, and the
            // sender forwards once it holds all of it. Charging the forward one
            // round, as the simulations once did, gave 16 and 17 rounds here.
            let phase = run.metrics.rounds - run.preprocessing.rounds;
            assert!(
                phase >= 2 * w as u64,
                "{phase} rounds for a {w}-word aggregate"
            );
        }
    }

    #[test]
    fn compute_takes_the_union_first_arrival_first_and_empties_the_phase() {
        let [a, b] = [NodeId::new(1), NodeId::new(2)];
        let mut ws: PhaseWorkspace<u64> = PhaseWorkspace::new(3);
        let broadcasters = [(a, 7)];
        ws.begin(&broadcasters);
        ws.arrivals[2].push((a, 7));
        ws.raw[0] = vec![(a, 7), (a, 8)];
        ws.direct[0] = vec![(a, 7), (b, 7)];
        ws.receive[0] = vec![(b, 7), (a, 8), (b, 9)];
        let mut inboxes = vec![Vec::new(); 3];
        ws.compute(&broadcasters, &mut inboxes);
        assert_eq!(inboxes[0], vec![(a, 7), (a, 8), (b, 7), (b, 9)]);
        assert!(inboxes[1].is_empty() && inboxes[2].is_empty());
        assert!(ws.bp.iter().all(Option::is_none));
        for table in [&ws.arrivals, &ws.raw, &ws.direct, &ws.receive] {
            assert!(table.iter().all(Vec::is_empty));
        }
    }
}
