//! Property-based tests for the distributed algorithms: exactness against
//! sequential oracles and validity of randomized outputs across arbitrary seeds.

use congest_algos::apsp_weighted::{WApspMsg, WeightedApsp};
use congest_algos::bfs::Bfs;
use congest_algos::bfs_collection::{BfsCollection, BfsMsg};
use congest_algos::leader::LeaderMsg;
use congest_algos::matching_maximal::{matching_pairs, IsraeliItai, MatchMsg};
use congest_algos::mis::{is_valid_mis, LubyMis, MisMsg};
use congest_algos::mst::{distributed_mst, message_bound, MstConfig};
use congest_engine::{run_bcongest, RunOptions, WireEncode};
use congest_graph::{generators, reference, NodeId, WeightedGraph};
use proptest::prelude::*;

fn opts(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn bfs_exact_on_arbitrary_connected_graphs(seed in 0u64..500, n in 8usize..36) {
        let g = generators::gnp_connected(n, 0.15, seed);
        let src = NodeId::new(seed as usize % n);
        let run = run_bcongest(&Bfs::new(src), &g, None, &opts(seed)).unwrap();
        let want = reference::bfs_distances(&g, src);
        for v in g.nodes() {
            prop_assert_eq!(run.outputs[v.index()].dist, want[v.index()]);
        }
    }

    #[test]
    fn bfs_collection_exact_with_arbitrary_delays(seed in 0u64..200, delay_seed in 0u64..50) {
        let g = generators::gnp_connected(18, 0.2, seed);
        let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(delay_seed);
        let run = run_bcongest(&algo, &g, None, &opts(seed)).unwrap();
        let want = reference::all_pairs_bfs(&g);
        for (v, out) in run.outputs.iter().enumerate() {
            for (s, entry) in out.entries.iter().enumerate() {
                prop_assert_eq!(entry.dist, want[s][v]);
            }
        }
    }

    #[test]
    fn weighted_apsp_exact_with_arbitrary_weights(seed in 0u64..200, wmax in 1u64..12) {
        let g = generators::gnp_connected(14, 0.25, seed);
        let wg = WeightedGraph::random_weights(&g, 0..=wmax, seed);
        let algo = WeightedApsp::new(wg.max_weight());
        let run = run_bcongest(&algo, &g, Some(wg.weights()), &opts(seed)).unwrap();
        let want = reference::all_pairs_dijkstra(&wg);
        for (v, out) in run.outputs.iter().enumerate() {
            for (s, &d) in out.dist.iter().enumerate() {
                prop_assert_eq!(d, want[s][v]);
            }
        }
    }

    #[test]
    fn mis_valid_for_any_seed(seed in 0u64..500) {
        let g = generators::gnp_connected(24, 0.2, seed % 7);
        let run = run_bcongest(&LubyMis, &g, None, &opts(seed)).unwrap();
        prop_assert!(is_valid_mis(&g, &run.outputs));
    }

    #[test]
    fn israeli_itai_maximal_for_any_seed(seed in 0u64..500) {
        let g = generators::gnp_connected(22, 0.2, seed % 5);
        let run = run_bcongest(&IsraeliItai, &g, None, &opts(seed)).unwrap();
        let pairs = matching_pairs(&run.outputs);
        prop_assert!(reference::is_maximal_matching(&g, &pairs));
    }

    #[test]
    fn mst_is_a_spanning_tree_matching_the_oracle(seed in 0u64..300, n in 8usize..32, wmax in 1u64..20) {
        // Arbitrary weights, duplicates included: the output must be a spanning tree
        // (n−1 edges, acyclic, connecting) and exactly the Kruskal/Prim forest under
        // the (weight, EdgeId) order.
        let g = generators::gnp_connected(n, 0.2, seed);
        let wg = WeightedGraph::random_weights(&g, 1..=wmax, seed);
        let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
        prop_assert_eq!(run.edges.len(), n - 1);
        prop_assert!(reference::is_spanning_forest(&g, &run.edges));
        let want = reference::mst_kruskal(&wg);
        prop_assert_eq!(&run.edges, &want.edges);
        prop_assert_eq!(run.total_weight, want.total_weight);
        prop_assert_eq!(want, reference::mst_prim(&wg));
    }

    #[test]
    fn mst_messages_stay_within_the_configured_budget(seed in 0u64..300, n in 8usize..32) {
        // The Õ(m) bound, installed as a *hard* budget: the run fails rather than
        // overspends, so success is the property.
        let g = generators::gnp_connected(n, 0.25, seed);
        let wg = WeightedGraph::random_unique_weights(&g, seed);
        let budget = message_bound(g.n(), g.m());
        let cfg = MstConfig { message_budget: Some(budget), ..Default::default() };
        let run = distributed_mst(&wg, &cfg).unwrap();
        prop_assert!(run.metrics.messages <= budget);
        prop_assert!(run.complete);
    }

    #[test]
    fn mst_fragments_are_labelled_rooted_trees(seed in 0u64..300, n in 8usize..40) {
        // Sparse G(n, p) with unique weights, often disconnected: each component is
        // one fragment with one shared label drawn from its own members and one root,
        // and the fragment forest is exactly the chosen edge set.
        let g = generators::gnp(n, 2.0 / n as f64, seed);
        let wg = WeightedGraph::random_unique_weights(&g, seed);
        let run = distributed_mst(&wg, &MstConfig::default()).unwrap();
        let (comp, count) = reference::connected_components(&g);
        let mut label = vec![None; count];
        let mut roots = vec![0usize; count];
        for v in g.nodes() {
            let c = comp[v.index()];
            let f = run.fragment[v.index()];
            prop_assert_eq!(*label[c].get_or_insert(f), f);
            if run.forest.parent(v).is_none() {
                roots[c] += 1;
            }
        }
        for (c, l) in label.iter().enumerate() {
            prop_assert_eq!(comp[l.unwrap().index()], c);
        }
        prop_assert!(roots.iter().all(|&r| r == 1));
        let mut tree_edges = run.forest.tree_edges().to_vec();
        tree_edges.sort_unstable();
        prop_assert_eq!(tree_edges, run.edges);
    }

    #[test]
    fn bfs_tree_parents_consistent(seed in 0u64..200) {
        let g = generators::gnp_connected(20, 0.2, seed);
        let run = run_bcongest(&Bfs::new(NodeId::new(0)), &g, None, &opts(seed)).unwrap();
        for v in g.nodes().skip(1) {
            if let Some(p) = run.outputs[v.index()].parent {
                prop_assert!(g.has_edge(v, p));
                prop_assert_eq!(
                    run.outputs[p.index()].dist.unwrap() + 1,
                    run.outputs[v.index()].dist.unwrap()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn algo_message_encodings_are_injective(wide in 0u32..2, ta in 0u32..3, tb in 0u32..3,
                                            x in 0u64..=u64::MAX, y in 0u64..=u64::MAX,
                                            z in 0u64..=u64::MAX, w in 0u64..=u64::MAX) {
        // Two values of every runner message type of this crate, with every
        // field drawn from the same width.
        let wide = wide == 1;
        let (x, y, z, w) = (field(x, wide), field(y, wide), field(z, wide), field(w, wide));
        encodes_injectively(
            LeaderMsg { leader: x as u32, dist: z as u32 },
            LeaderMsg { leader: y as u32, dist: w as u32 },
        )?;
        encodes_injectively(
            BfsMsg { bfs: x as u32, dist: z as u32, delay: (z >> 32) as u32 },
            BfsMsg { bfs: y as u32, dist: w as u32, delay: (w >> 32) as u32 },
        )?;
        encodes_injectively(
            WApspMsg { source: x as u32, dist: z },
            WApspMsg { source: y as u32, dist: w },
        )?;
        let mis = |tag, p| match tag {
            0 => MisMsg::Priority(p),
            1 => MisMsg::Join,
            _ => MisMsg::Leave,
        };
        encodes_injectively(mis(ta, x), mis(tb, y))?;
        let matching = |tag, v: u64| match tag {
            0 => MatchMsg::Propose(NodeId::from(v as u32)),
            1 => MatchMsg::Accept(NodeId::from(v as u32)),
            _ => MatchMsg::MatchedNow,
        };
        encodes_injectively(matching(ta, x), matching(tb, y))?;
    }
}

/// `raw` as drawn when `wide`, else with each 32-bit half cut to `0..3`, so
/// that equal values, and values equal in one half only, are common.
fn field(raw: u64, wide: bool) -> u64 {
    if wide {
        raw
    } else {
        (((raw >> 32) % 3) << 32) | ((raw & 0xffff_ffff) % 3)
    }
}

/// `a == b` exactly when their lanes are equal: a recorded trace tells every
/// two distinct messages apart, and only those.
fn encodes_injectively<T: WireEncode>(a: T, b: T) -> Result<(), TestCaseError> {
    let lanes = |v: &T| {
        let mut out = vec![0u32; T::LANES];
        v.encode(&mut out);
        out
    };
    prop_assert_eq!(a == b, lanes(&a) == lanes(&b), "{:?} vs {:?}", a, b);
    Ok(())
}
