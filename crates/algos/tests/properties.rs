//! Property-based tests for the distributed algorithms: exactness against
//! sequential oracles and validity of randomized outputs across arbitrary seeds.

use congest_algos::apsp_weighted::{WApspMsg, WeightedApsp};
use congest_algos::bfs::Bfs;
use congest_algos::bfs_collection::{BfsCollection, BfsMsg};
use congest_algos::leader::LeaderMsg;
use congest_algos::matching_maximal::{matching_pairs, IsraeliItai, MatchMsg};
use congest_algos::mis::{is_valid_mis, LubyMis, MisMsg};
use congest_algos::mst::{distributed_mst, message_bound, MstConfig};
use congest_engine::{run_bcongest, RunOptions, WireDecode};
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

    #[test]
    fn algo_message_codecs_roundtrip(a in 0u32..=u32::MAX, b in 0u32..=u32::MAX, d in 0u64..=u64::MAX, tag in 0u32..3) {
        // Every runner message type of this crate survives the flat plane's
        // packed encode→decode identically, with word accounting intact.
        codec_roundtrip(LeaderMsg { leader: a, dist: b })?;
        codec_roundtrip(BfsMsg { bfs: a, dist: b })?;
        codec_roundtrip(WApspMsg { source: a, dist: d })?;
        codec_roundtrip(match tag {
            0 => MisMsg::Priority(d),
            1 => MisMsg::Join,
            _ => MisMsg::Leave,
        })?;
        codec_roundtrip(match tag {
            0 => MatchMsg::Propose(NodeId::from(a)),
            1 => MatchMsg::Accept(NodeId::from(a)),
            _ => MatchMsg::MatchedNow,
        })?;
    }
}

/// Encode→decode must be the identity.
fn codec_roundtrip<T: WireDecode + PartialEq + std::fmt::Debug>(v: T) -> Result<(), TestCaseError> {
    let mut lanes = vec![0u32; T::LANES];
    v.encode(&mut lanes);
    let back = T::decode(&lanes);
    prop_assert_eq!(back, v);
    Ok(())
}
