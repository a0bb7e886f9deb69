//! The time–message trade-off for MST, `k`-parameterized — the "Beyond" companion to
//! [`crate::tradeoff`] (Gmyr–Pandurangan's trade-off framework applied to
//! Pandurangan–Robinson–Scquizzato-style MST):
//!
//! * `k ≥ n` — the **message-optimal route**: pure GHS merging
//!   ([`congest_algos::mst::distributed_mst`]), `Õ(m)` messages, but round cost
//!   proportional to fragment depth (up to `Õ(n)` on path-like fragments);
//! * `k < n` — **controlled merging plus a central finish**: fragments grow only to
//!   size `k`, then a leader (elected over a BFS tree) collects each node's lightest
//!   edge per neighboring fragment via a pipelined upcast, finishes the MST of the
//!   contracted fragment graph locally, and downcasts the chosen edges. Small `k`
//!   keeps fragment trees shallow (few, cheap rounds) at the price of upcasting up to
//!   `Õ(min(m, (n/k)·n))` candidate words — at `k = √n` the collection is the
//!   `Õ(n^{3/2})` point of the trade-off.
//!
//! Both routes produce the *same* edge set — the unique minimum spanning forest under
//! the `(weight, EdgeId)` total order — so every point of the sweep is differentially
//! checked against the sequential oracles.

use congest_algos::leader::setup_network;
use congest_algos::mst::{distributed_mst, MstConfig, MstRun};
use congest_engine::{treeops, EngineError, Metrics, Router};
use congest_graph::{reference, EdgeId, NodeId, WeightedGraph};
use std::collections::BTreeMap;

/// Which regime of the MST trade-off served a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MstRoute {
    /// `k ≥ n`: pure GHS merging (message-optimal end).
    MessageOptimal,
    /// `k < n`: controlled merging to size-`k` fragments, then a central finish.
    ControlledPlusCentral,
}

/// Result of the trade-off MST.
#[derive(Clone, Debug)]
pub struct MstTradeoffResult {
    /// The minimum spanning forest's edges, sorted ascending by [`EdgeId`].
    pub edges: Vec<EdgeId>,
    /// Sum of the chosen edges' weights.
    pub total_weight: u64,
    /// Which route ran.
    pub route: MstRoute,
    /// Realized total cost (merging + election/collection/finish where applicable).
    pub metrics: Metrics,
    /// The growth parameter requested.
    pub k: usize,
}

/// Minimum spanning forest at trade-off point `k ∈ [1, n]` (values above `n` clamp to
/// the message-optimal route).
///
/// # Errors
///
/// Propagates engine errors.
pub fn mst_tradeoff(
    wg: &WeightedGraph,
    k: usize,
    seed: u64,
) -> Result<MstTradeoffResult, EngineError> {
    let n = wg.n();
    if k >= n.max(1) {
        let run = distributed_mst(wg, &MstConfig::default())?;
        return Ok(MstTradeoffResult {
            edges: run.edges,
            total_weight: run.total_weight,
            route: MstRoute::MessageOptimal,
            metrics: run.metrics,
            k,
        });
    }

    // Part 1: controlled merging until every active fragment spans ≥ k nodes.
    let part1 = distributed_mst(
        wg,
        &MstConfig {
            growth_threshold: Some(k.max(2)),
            ..Default::default()
        },
    )?;
    let mut metrics = part1.metrics.clone();
    let mut edges = part1.edges.clone();

    if !part1.complete {
        let (chosen, finish_metrics) = central_finish(wg, &part1, seed)?;
        metrics.merge_sequential(&finish_metrics);
        edges.extend(chosen);
        edges.sort_unstable();
    }

    let total_weight = edges.iter().map(|&e| wg.weight(e)).sum();
    Ok(MstTradeoffResult {
        edges,
        total_weight,
        route: MstRoute::ControlledPlusCentral,
        metrics,
        k,
    })
}

/// The central finish: elect a leader over a BFS tree, upcast each node's lightest
/// edge per neighboring fragment, complete the MST of the contracted fragment graph
/// at the leader (Kruskal under `(weight, EdgeId)`), downcast the chosen edges.
fn central_finish(
    wg: &WeightedGraph,
    part1: &MstRun,
    seed: u64,
) -> Result<(Vec<EdgeId>, Metrics), EngineError> {
    let g = wg.graph();
    let setup = setup_network(g, seed)?;
    let mut metrics = setup.metrics;

    // Each node's lightest incident edge per neighboring fragment — the only crossing
    // edges the fragment-graph MST can ever use (the pair MWOE is among them) — is
    // upcast as one word, and the leader collects them all as `cands`.
    let mut items: Vec<(NodeId, usize)> = Vec::new();
    let mut cands: Vec<(u64, u64)> = Vec::new();
    for v in g.nodes() {
        let mut best: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
        for (e, u, w) in wg.incident(v) {
            let (fv, fu) = (part1.fragment[v.index()], part1.fragment[u.index()]);
            if fv == fu {
                continue;
            }
            let cand = (w, e.index() as u64);
            let slot = best.entry(fu).or_insert(cand);
            if cand < *slot {
                *slot = cand;
            }
        }
        items.extend(best.values().map(|_| (v, 1)));
        cands.extend(best.into_values());
    }
    let mut router = Router::new(g)?;
    metrics.merge_sequential(&treeops::upcast(&mut router, &setup.tree, items)?);

    // Kruskal on the contracted fragment graph, over all collected candidates (the
    // graph may be disconnected: each BFS-tree root collected its own component's
    // candidates; finishing them together is equivalent, crossing edges don't exist).
    // Fragments are identified by their leader node, so the oracles' UnionFind over
    // node indices contracts them directly.
    cands.sort_unstable();
    let mut uf = reference::UnionFind::new(g.n());
    let mut chosen: Vec<EdgeId> = Vec::new();
    for (_, ei) in cands {
        let e = EdgeId::new(ei as usize);
        let (u, v) = g.endpoints(e);
        if uf.union(
            part1.fragment[u.index()].index(),
            part1.fragment[v.index()].index(),
        ) {
            chosen.push(e);
        }
    }

    // Downcast each chosen edge to its canonical lower endpoint, which then notifies
    // its partner across the edge (one extra word per chosen edge, one round).
    let notify = chosen.iter().map(|&e| (g.endpoints(e).0, 1)).collect();
    metrics.merge_sequential(&treeops::downcast(&mut router, &setup.tree, notify)?);
    let mut connect = Metrics::new(g.m());
    if !chosen.is_empty() {
        connect.rounds = 1;
        for &e in &chosen {
            connect.add_messages(e, 1);
        }
    }
    metrics.merge_sequential(&connect);

    chosen.sort_unstable();
    Ok((chosen, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, reference};

    fn check_exact(wg: &WeightedGraph, res: &MstTradeoffResult) {
        let want = reference::mst_kruskal(wg);
        assert_eq!(res.edges, want.edges, "k = {}", res.k);
        assert_eq!(res.total_weight, want.total_weight);
    }

    #[test]
    fn all_routes_are_exact() {
        let g = generators::gnp_connected(30, 0.2, 5);
        let wg = WeightedGraph::random_unique_weights(&g, 5);
        for (k, route) in [
            (2, MstRoute::ControlledPlusCentral),
            (6, MstRoute::ControlledPlusCentral),
            (30, MstRoute::MessageOptimal),
            (100, MstRoute::MessageOptimal),
        ] {
            let res = mst_tradeoff(&wg, k, 31).unwrap();
            assert_eq!(res.route, route, "k = {k}");
            check_exact(&wg, &res);
        }
    }

    #[test]
    fn tie_heavy_and_structured_graphs_exact_at_sqrt_n() {
        for (i, g) in [
            generators::grid(6, 5),
            generators::caveman(5, 6),
            generators::barbell(8, 6),
        ]
        .into_iter()
        .enumerate()
        {
            let wg = WeightedGraph::random_weights(&g, 1..=6, 7 + i as u64);
            let k = (g.n() as f64).sqrt().ceil() as usize;
            let res = mst_tradeoff(&wg, k, 7).unwrap();
            check_exact(&wg, &res);
        }
    }

    #[test]
    fn central_route_also_handles_disconnected_graphs() {
        let g = congest_graph::Graph::from_edges(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (8, 9),
                (9, 10),
                (10, 11),
                (11, 8),
            ],
        );
        let wg = WeightedGraph::random_unique_weights(&g, 3);
        let res = mst_tradeoff(&wg, 2, 3).unwrap();
        check_exact(&wg, &res);
    }

    #[test]
    fn k_equals_n_is_the_message_optimal_end() {
        // The headline shape: across families, the pure-GHS end (k = n) spends the
        // fewest messages — moving k down buys rounds with extra collection traffic.
        for g in [
            generators::path(64),
            generators::complete(48),
            generators::gnp_connected(64, 0.15, 9),
            generators::caveman(8, 8),
        ] {
            let wg = WeightedGraph::random_unique_weights(&g, 11);
            let small = mst_tradeoff(&wg, 2, 1).unwrap();
            let big = mst_tradeoff(&wg, g.n(), 1).unwrap();
            check_exact(&wg, &small);
            check_exact(&wg, &big);
            assert!(
                small.metrics.messages > big.metrics.messages,
                "messages: k=2 {} vs k=n {} on {g:?}",
                small.metrics.messages,
                big.metrics.messages
            );
        }
    }

    #[test]
    fn small_k_buys_rounds_on_dense_graphs() {
        // Dense + shallow: the central finish is round-cheap (BFS tree of depth 1)
        // while full GHS merging pays fragment-tree depth for every phase.
        let g = generators::complete(96);
        for seed in [1, 2, 11] {
            let wg = WeightedGraph::random_unique_weights(&g, seed);
            let small = mst_tradeoff(&wg, 2, 1).unwrap();
            let big = mst_tradeoff(&wg, g.n(), 1).unwrap();
            assert!(
                small.metrics.rounds < big.metrics.rounds,
                "rounds at weight seed {seed}: k=2 {} vs k=n {}",
                small.metrics.rounds,
                big.metrics.rounds
            );
        }
    }
}
