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

use crate::simulate::common::Pad;
use congest_decomp::Level;
use congest_engine::{
    downcast, upcast, AggregationAlgorithm, EngineError, Forest, Metrics, Router, Wire,
};
use congest_graph::{ClusterId, NodeId};

/// A batch of `(sender, message)` pairs.
type Batch<M> = Vec<(NodeId, M)>;

/// Words one batch costs to move (`Õ(1)`-word aggregates cost at least a word each).
pub(crate) fn batch_words<M: Wire>(batch: &[(NodeId, M)]) -> usize {
    batch.iter().map(|(_, m)| m.words().max(1)).sum()
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

impl<M: Wire> PhaseWorkspace<M> {
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

    /// The receive step at one level: members upcast their own broadcast and
    /// their arrivals to the center, which downcasts one aggregate per member
    /// of what that member's neighbours sent. `forest` is the level's cluster
    /// forest, `None` at level 0 where clusters are singletons, both casts
    /// degenerate to local work and the fan-in is the arrival table itself.
    pub(crate) fn receive_level<A: AggregationAlgorithm<Msg = M>>(
        &mut self,
        algo: &A,
        phase: usize,
        lvl: &Level,
        forest: Option<&Forest>,
        router: &mut Router<'_>,
        metrics: &mut Metrics,
    ) -> Result<(), EngineError> {
        let Some(forest) = forest else {
            // Singleton clusters: every arrival at `x` crossed an edge into `x`,
            // and `x`'s own broadcast is not addressed to `x`, so what `x`'s
            // neighbours sent is `arrivals[x]` as it stands.
            debug_assert_eq!(lvl.index, 0, "only level 0 has no cluster forest");
            for (x, arrivals) in self.arrivals.iter().enumerate() {
                if arrivals.is_empty() {
                    continue;
                }
                let relevant = &mut self.relevant[x];
                relevant.extend_from_slice(arrivals);
                algo.aggregate(NodeId::new(x), phase, relevant);
                self.receive[x].append(relevant);
            }
            return Ok(());
        };
        let g = router.graph();
        let mut up_items: Vec<(NodeId, Pad)> = Vec::new();
        for v in g.nodes() {
            let Some(c) = lvl.cluster_of[v.index()] else {
                continue;
            };
            let avail = &mut self.avail[c.index()];
            let before = avail.len();
            avail.extend(self.bp[v.index()].iter().map(|m| (v, m.clone())));
            avail.extend_from_slice(&self.arrivals[v.index()]);
            let words = avail.len() - before;
            if words > 0 {
                up_items.push((v, Pad(words)));
            }
        }
        if !up_items.is_empty() {
            metrics.merge_sequential(&upcast(router, forest, up_items)?.metrics);
        }
        let mut down_items: Vec<(NodeId, Pad)> = Vec::new();
        for (ci, (_, members)) in lvl.clusters.iter().enumerate() {
            if self.avail[ci].is_empty() {
                continue;
            }
            // One pass over each sender's adjacency: every member ends up with
            // its neighbours' messages in the cluster's order.
            let cid = Some(ClusterId::new(ci));
            for (v, m) in self.avail[ci].drain(..) {
                for &u in g.neighbors(v) {
                    if lvl.cluster_of[u.index()] == cid {
                        self.relevant[u.index()].push((v, m.clone()));
                    }
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
                down_items.push((u, Pad(batch_words(relevant))));
                self.receive[u.index()].append(relevant);
            }
        }
        if !down_items.is_empty() {
            metrics.merge_sequential(&downcast(router, forest, down_items)?.metrics);
        }
        Ok(())
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
            .map(|&(v, bfs, dist)| (v, BfsMsg { bfs, dist }))
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
