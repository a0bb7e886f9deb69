//! The experiment suite: one function per paper claim (see DESIGN.md §4). Each
//! returns a [`Table`] that the `experiments` binary prints to stdout.

use crate::table::{f2, fit_exponent, Table};
use apsp_core::bfs_trees::all_bfs_batched;
use apsp_core::simulate::{simulate_bcongest_via_ldc, LdcSimOptions};
use apsp_core::tradeoff::{tradeoff_apsp, Route};
use apsp_core::verify;
use apsp_core::weighted_apsp::{weighted_apsp, weighted_apsp_direct, WeightedApspConfig};
use congest_algos::bfs::Bfs;
use congest_algos::bfs_collection::BfsCollection;
use congest_algos::matching_bipartite::BipartiteMatching;
use congest_algos::mis::LubyMis;
use congest_decomp::ensemble::{cluster_edge_frequency, Ensemble};
use congest_decomp::ldc::{build_ldc, LdcDecomposition};
use congest_decomp::pruning::{max_proper_subtree, prune};
use congest_decomp::spanner::{measured_stretch, spanner_edges};
use congest_decomp::Hierarchy;
use congest_engine::{run_bcongest, run_bcongest_observed, RunOptions};
use congest_graph::reference::bfs_distances;
use congest_graph::{generators, induced_subgraph_same_ids, Graph, NodeId, WeightedGraph};

fn ln(n: usize) -> f64 {
    (n.max(2) as f64).ln()
}

/// E-T1.1 — Theorem 1.1: weighted APSP message counts, simulated vs direct, with
/// fitted scaling exponents (expected ≈ 2 for the simulation, ≈ 3 for the direct
/// baseline on dense graphs).
pub fn e_t1_1(ns: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E-T1.1 (Theorem 1.1): weighted APSP — Õ(n²) simulated messages vs Θ(mn) direct",
        &[
            "n",
            "m",
            "B_A",
            "msgs (sim)",
            "msgs (direct)",
            "direct/sim",
            "rounds (sim)",
            "rounds (direct)",
        ],
    );
    let mut xs = Vec::new();
    let mut sim_ms = Vec::new();
    let mut dir_ms = Vec::new();
    for &n in ns {
        let g = generators::gnp_connected(n, 0.5, seed + n as u64);
        let wg = WeightedGraph::random_weights(&g, 1..=8, seed + n as u64);
        let sim = weighted_apsp(
            &wg,
            &WeightedApspConfig {
                seed,
                ..Default::default()
            },
        )
        .expect("sim");
        let dir = weighted_apsp_direct(&wg, seed).expect("direct");
        assert_eq!(sim.distances, dir.distances, "exactness");
        xs.push(n as f64);
        sim_ms.push(sim.metrics.messages as f64);
        dir_ms.push(dir.metrics.messages as f64);
        t.row(vec![
            n.to_string(),
            g.m().to_string(),
            sim.simulated_broadcasts.to_string(),
            sim.metrics.messages.to_string(),
            dir.metrics.messages.to_string(),
            f2(dir.metrics.messages as f64 / sim.metrics.messages as f64),
            sim.metrics.rounds.to_string(),
            dir.metrics.rounds.to_string(),
        ]);
    }
    if xs.len() >= 2 {
        t.note(format!(
            "fitted message exponents: simulated ≈ n^{}, direct ≈ n^{} (paper: Õ(n²) vs Θ(mn)=Θ(n³) on dense graphs)",
            f2(fit_exponent(&xs, &sim_ms)),
            f2(fit_exponent(&xs, &dir_ms)),
        ));
    }
    t
}

/// E-T1.2 — Theorem 1.2: the ε sweep — the endpoints trade rounds for messages;
/// the middle rows, at this n, are dominated on both axes (ROADMAP item 2).
pub fn e_t1_2(n: usize, eps: &[f64], seed: u64) -> Table {
    let mut t = Table::new(
        format!("E-T1.2 (Theorem 1.2): unweighted APSP trade-off, n = {n} — Õ(n^(2-ε)) rounds / Õ(n^(2+ε)) messages"),
        &[
            "ε",
            "route",
            "rounds",
            "messages",
            "rounds·msgs",
            "batches",
            "C",
            "⌈C/2⌉",
            "near rounds",
        ],
    );
    let g = generators::gnp_connected(n, 0.3, seed);
    for &e in eps {
        let res = tradeoff_apsp(&g, e, seed).expect("tradeoff");
        verify::check_unweighted_apsp(&g, &res.dist).expect("exactness");
        let mut row = vec![
            f2(e),
            format!("{:?}", res.route),
            res.metrics.rounds.to_string(),
            res.metrics.messages.to_string(),
            (res.metrics.rounds as u128 * res.metrics.messages as u128).to_string(),
        ];
        if res.route == Route::BatchedPlusLandmarks {
            // The route's near part again: the depth limit is
            // `tradeoff_apsp`'s ⌈2 n^(1−ε)⌉ (capped at n), and the sources
            // split into ⌈n / ⌈n / ζ⌉⌉ batches of ⌈n / ζ⌉.
            let nf = n.max(2) as f64;
            let depth = (2.0 * nf.powf(1.0 - e)).ceil().min(nf) as u32;
            let near = all_bfs_batched(&g, e, depth, seed).expect("near pairs");
            if near.depth_limit == u32::MAX {
                assert_eq!(
                    near.metrics, res.metrics,
                    "ε = {e}: the route is its near part"
                );
            }
            let batches = n.div_ceil(n.div_ceil(Ensemble::paper_zeta(n, e).max(1)));
            let c = near.metrics.max_congestion();
            row.extend([
                batches.to_string(),
                c.to_string(),
                c.div_ceil(2).to_string(),
                near.metrics.rounds.to_string(),
            ]);
        } else {
            row.extend(["—"; 4].map(String::from));
        }
        t.row(row);
    }
    t.note("every row is verified exact against sequential all-pairs BFS");
    t.note(
        "batched rows: the near part (Lemma 3.23) runs its batches in lockstep, payload round r of \
         every batch routed as one schedule; C is the busiest edge's messages over the near part, \
         whose batches carry nearly all of it. An edge carries one word each way per round, so the \
         near part cannot take fewer than ⌈C/2⌉ rounds",
    );
    t
}

/// E-T2.1 — Theorem 2.1: simulation overhead across payloads:
/// messages / (In + Out + B_A) should be polylog; rounds / (T_A·n) should be O(log).
/// Each row names the LDC it ran on (`build_ldc` with the same seed) and the
/// clusters it cast over once §2.2 step 3c merged fragments; the caveman row
/// is the one whose phases cross many clusters, and the `G(512, 8/512)` row is
/// the benchmark's Theorem 2.1 instance at the tables' seed.
pub fn e_t2_1(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E-T2.1 (Theorem 2.1): simulation overhead per payload",
        &[
            "payload",
            "graph",
            "clusters (MPX → cast)",
            "|F|",
            "max F-deg",
            "depth",
            "largest",
            "MPX center deg",
            "used center deg",
            "B_A",
            "In+Out (words)",
            "msgs (sim)",
            "msgs/(In+Out+B)",
            "T_A",
            "rounds (sim)",
            "phase rounds",
            "rounds/(T_A·n)",
        ],
    );
    let opts = LdcSimOptions {
        seed,
        ..Default::default()
    };

    fn push<O: Clone + std::fmt::Debug>(
        t: &mut Table,
        payload: &str,
        graph: &str,
        g: &congest_graph::Graph,
        seed: u64,
        sim: apsp_core::simulate::SimulationRun<O>,
    ) {
        let ldc = build_ldc(g, seed).expect("ldc");
        let (largest, mpx_degree, used_degree) = largest_cluster_centers(g, &ldc);
        let inout = (sim.input_words + sim.output_words) as f64;
        let denom = inout + sim.simulated_broadcasts as f64;
        let ta = sim.simulated_rounds.max(1) as f64;
        t.row(vec![
            payload.into(),
            graph.into(),
            format!("{} → {}", ldc.clustering.len(), cast_clusters(g, seed)),
            ldc.all_f_edges().count().to_string(),
            ldc.max_f_degree().to_string(),
            ldc.clustering.max_depth().to_string(),
            largest.to_string(),
            mpx_degree.to_string(),
            used_degree.to_string(),
            sim.simulated_broadcasts.to_string(),
            format!("{}", sim.input_words + sim.output_words),
            sim.metrics.messages.to_string(),
            f2(sim.metrics.messages as f64 / denom),
            sim.simulated_rounds.to_string(),
            sim.metrics.rounds.to_string(),
            (sim.metrics.rounds - sim.preprocessing.rounds).to_string(),
            f2(sim.metrics.rounds as f64 / (ta * g.n() as f64)),
        ]);
    }

    let g = generators::gnp_connected(n, 0.3, seed);
    let gnp = format!("gnp({n}, 0.3)");
    let bfs = simulate_bcongest_via_ldc(&Bfs::new(NodeId::new(0)), &g, None, &opts);
    push(&mut t, "bfs", &gnp, &g, seed, bfs.expect("bfs"));
    let mis = simulate_bcongest_via_ldc(&LubyMis, &g, None, &opts);
    push(&mut t, "luby-mis", &gnp, &g, seed, mis.expect("mis"));
    let apsp = BfsCollection::new(g.nodes().collect());
    let coll = simulate_bcongest_via_ldc(&apsp, &g, None, &opts);
    push(
        &mut t,
        "bfs-collection (apsp)",
        &gnp,
        &g,
        seed,
        coll.expect("coll"),
    );
    // 128 nodes in a ring of 32 four-cliques: 15 clusters at the tables' seed
    // (a caveman ring needs about 16 nodes per cluster), still milliseconds.
    let cave = generators::caveman(32, 4);
    assert!(build_ldc(&cave, seed).expect("ldc").clustering.len() >= 8);
    let apsp = BfsCollection::new(cave.nodes().collect());
    let coll = simulate_bcongest_via_ldc(&apsp, &cave, None, &opts).expect("coll");
    push(
        &mut t,
        "bfs-collection (apsp)",
        "caveman(32, 4)",
        &cave,
        seed,
        coll,
    );
    // The benchmark's pinned Theorem 2.1 topology at the tables' seed: MPX
    // draws 495 + 13 + 2 + 2 members there, and step 3c folds the fragments
    // into the hub, so no phase crosses a cluster.
    let sparse = generators::gnp_connected(512, 8.0 / 512.0, seed);
    let apsp = BfsCollection::new(sparse.nodes().collect());
    let coll = simulate_bcongest_via_ldc(&apsp, &sparse, None, &opts).expect("coll");
    push(
        &mut t,
        "bfs-collection (apsp)",
        "gnp(512, 8/512)",
        &sparse,
        seed,
        coll,
    );
    let gb = generators::random_bipartite_connected(n / 2, n / 2, 0.3, seed);
    let ako = simulate_bcongest_via_ldc(&BipartiteMatching, &gb, None, &opts);
    let bip = format!("bipartite({0}+{0}, 0.3)", n / 2);
    push(&mut t, "ako-matching", &bip, &gb, seed, ako.expect("ako"));
    t.note("msgs/(In+Out+B) is the Theorem 2.1 polylog factor; rounds/(T_A·n) its round overhead");
    t.note("phase rounds = total − preprocessing: the phases plus the output step");
    t.note("largest = the largest cluster's size; its MPX center's and its used center's cluster degrees differ where §2.2 step 2b re-elected the center");
    t.note("clusters: MPX's, then the ones the simulation casts over once §2.2 step 3c folded fragments into hosts, read off a silent payload's output step (a plain downcast: 1-word outputs never replicate); at the full sizes and seed 20250608 step 3c takes caveman(32, 4) from 70 120 messages / 5 401 rounds to 65 148 / 4 447, gnp(512, 8/512) from 1 107 456 / 32 880 to 746 761 / 14 051 (its phases now cost nothing) and the bipartite row from 235 to 163 rounds; replicated output delivery then takes caveman(32, 4) to 64 581 messages (rounds unchanged) and gnp(512, 8/512) to 605 526 / 9 067, and inputs as an edge list, each cluster edge once in step 3 and in the replicas' transcript, take them to 42 496 / 4 172 and 535 223 / 5 664 (msgs/(In+Out+B) 1.94 → 1.27 and 1.14 → 1.01)");
    t.note("against the MPX center at the full size (n = 40), re-election takes caveman(32, 4) from 87 434 messages / 8 399 rounds to 70 120 / 5 401; the gnp(40, 0.3) and bipartite rows pay +11…+20 % messages for −16…−29 % rounds, because the trial BFS costs two words per cluster edge, O(m), against a tiny payload");
    t
}

/// The number of clusters Theorem 2.1 casts over on `g` — the LDC's, after
/// §2.2 step 3c merged fragments into hosts — read off the simulation itself.
/// Under a payload that never broadcasts, the only transfer after
/// preprocessing is the output step, and with 1-word outputs no member
/// replicates its center: it is the plain downcast of one word from each
/// center to each other member, so exactly the cast forest's edges carry
/// words.
fn cast_clusters(g: &Graph, seed: u64) -> usize {
    struct Silent;
    impl congest_engine::BcongestAlgorithm for Silent {
        type State = ();
        type Msg = u32;
        type Output = ();
        fn name(&self) -> &'static str {
            "silent"
        }
        fn init(&self, _: &congest_engine::LocalView<'_>) {}
        fn broadcast(&self, _: &(), _: usize) -> Option<u32> {
            None
        }
        fn on_broadcast_sent(&self, _: &mut (), _: usize) {}
        fn receive(&self, _: &mut (), _: usize, _: &[(NodeId, u32)]) {}
        fn is_done(&self, _: &()) -> bool {
            true
        }
        fn output(&self, _: &()) {}
        fn round_bound(&self, _: usize, _: usize) -> usize {
            1
        }
        fn output_words(&self, _: &()) -> usize {
            1
        }
    }
    let opts = LdcSimOptions {
        seed,
        ..Default::default()
    };
    let sim = simulate_bcongest_via_ldc(&Silent, g, None, &opts).expect("silent run");
    let pre = sim.preprocessing.congestion();
    let tree_edges = sim.metrics.congestion().iter().zip(pre);
    g.n() - tree_edges.filter(|(total, pre)| total > pre).count()
}

/// The largest cluster's size, its MPX center's cluster degree, and the
/// cluster degree of the center Theorem 2.1 casts from: step 2b moves it to
/// the best-connected member (ties to the smaller id) when that member beats
/// the MPX center and its BFS tree of the cluster is no deeper.
fn largest_cluster_centers(g: &Graph, ldc: &LdcDecomposition) -> (usize, usize, usize) {
    let clustering = &ldc.clustering;
    let (center, members) = clustering
        .clusters
        .iter()
        .max_by_key(|(_, members)| members.len())
        .expect("a non-empty graph");
    let mut in_cluster = vec![false; g.n()];
    for v in members {
        in_cluster[v.index()] = true;
    }
    let degree = |v: NodeId| {
        g.neighbors(v)
            .iter()
            .filter(|u| in_cluster[u.index()])
            .count()
    };
    let hub = members
        .iter()
        .copied()
        .max_by_key(|&v| (degree(v), std::cmp::Reverse(v)))
        .expect("clusters are non-empty");
    let sub = induced_subgraph_same_ids(g, &in_cluster);
    let hub_depth = bfs_distances(&sub, hub).into_iter().flatten().max();
    let mpx_depth = members.iter().map(|v| clustering.depth[v.index()]).max();
    let used = if degree(hub) > degree(*center) && hub_depth <= mpx_depth {
        hub
    } else {
        *center
    };
    (members.len(), degree(*center), degree(used))
}

/// E-L2.4 — Lemma 2.4: LDC decomposition quality across graph families.
pub fn e_l2_4(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        format!("E-L2.4 (Lemma 2.4): (O(log n), O(log n))-LDC decomposition, n ≈ {n}"),
        &[
            "family",
            "n",
            "m",
            "clusters",
            "strong radius",
            "radius/ln n",
            "max F-deg",
            "F-deg/ln n",
            "build msgs",
        ],
    );
    let families: Vec<(&str, congest_graph::Graph)> = vec![
        ("gnp", generators::gnp_connected(n, 0.2, seed)),
        ("grid", generators::grid(n / 8, 8)),
        ("dense", generators::gnp_connected(n, 0.7, seed)),
        ("caveman", generators::caveman(n / 8, 8)),
        ("path", generators::path(n)),
    ];
    for (name, g) in families {
        let ldc = build_ldc(&g, seed).expect("ldc");
        let r = ldc.strong_radius(&g);
        let d = ldc.max_f_degree();
        t.row(vec![
            name.into(),
            g.n().to_string(),
            g.m().to_string(),
            ldc.clustering.len().to_string(),
            r.to_string(),
            f2(r as f64 / ln(g.n())),
            d.to_string(),
            f2(d as f64 / ln(g.n())),
            ldc.metrics.messages.to_string(),
        ]);
    }
    t
}

/// E-T3.3 — Theorem 3.3 / Corollary 3.5: hierarchy structure, pruning, spanner.
pub fn e_t3_3(n: usize, eps: &[f64], seed: u64) -> Table {
    let mut t = Table::new(
        format!("E-T3.3 (Thm 3.3 / Cor 3.5): Baswana–Sen hierarchies, n = {n}"),
        &[
            "ε",
            "κ",
            "max F-deg",
            "F-deg/n^ε",
            "max subtree (pruned)",
            "n^(1-ε) bound",
            "spanner edges",
            "n^(1+1/κ)",
            "stretch",
            "2κ-1",
        ],
    );
    let g = generators::gnp_connected(n, 0.4, seed);
    for &e in eps {
        let h = Hierarchy::build(&g, e, seed);
        congest_decomp::baswana_sen::validate_hierarchy(&g, &h).expect("Theorem 3.3");
        let p = prune(&g, &h);
        let kappa = h.kappa;
        let nf = n as f64;
        t.row(vec![
            f2(e),
            kappa.to_string(),
            h.max_f_degree().to_string(),
            f2(h.max_f_degree() as f64 / nf.powf(e)),
            max_proper_subtree(&g, &p).to_string(),
            f2(nf.powf(1.0 - e)),
            spanner_edges(&g, &h).len().to_string(),
            f2(nf.powf(1.0 + 1.0 / kappa as f64)),
            f2(measured_stretch(&g, &h, 8, seed)),
            (2 * kappa - 1).to_string(),
        ]);
    }
    t.note("property (a)-(c) validators pass for every row (validate_hierarchy)");
    t
}

/// E-L3.7 — Lemma 3.7: empirical cluster-edge probability vs the κ·n^{-ε} bound.
pub fn e_l3_7(n: usize, trials: usize, seed: u64) -> Table {
    let mut t = Table::new(
        format!("E-L3.7 (Lemma 3.7): P[edge is a cluster edge], n = {n}, {trials} trials"),
        &[
            "ε",
            "κ",
            "avg frequency",
            "max frequency",
            "κ·n^(-ε) bound",
            "avg/bound",
        ],
    );
    let g = generators::gnp_connected(n, 0.3, seed);
    for &e in &[0.25f64, 0.34, 0.5] {
        let kappa = (1.0 / e).ceil();
        let (avg, max) = cluster_edge_frequency(&g, e, trials, seed);
        let bound = kappa * (n as f64).powf(-e);
        t.row(vec![
            f2(e),
            (kappa as usize).to_string(),
            format!("{avg:.4}"),
            format!("{max:.4}"),
            format!("{bound:.4}"),
            f2(avg / bound),
        ]);
    }
    t
}

/// E-L3.8 — Lemma 3.8: congestion smoothing with an ensemble of hierarchies.
pub fn e_l3_8(n: usize, seed: u64) -> Table {
    use apsp_core::simulate::{simulate_aggregation_general, AggSimOptions};
    let mut t = Table::new(
        format!(
            "E-L3.8 (Lemma 3.8): max cluster-edge congestion, 1 hierarchy vs ζ = ⌈n^ε⌉, n = {n}"
        ),
        &[
            "ε",
            "batches",
            "max cluster-edge congestion (single)",
            "(ensemble)",
            "smoothing factor",
        ],
    );
    let g = generators::gnp_connected(n, 0.3, seed);
    let eps = 0.5;
    let zeta = Ensemble::paper_zeta(n, eps);
    let ensemble = Ensemble::build(&g, eps, zeta, seed);
    let chunk = n.div_ceil(zeta);
    let sources: Vec<NodeId> = g.nodes().collect();

    let run_over = |pick: &dyn for<'a> Fn(&'a [Hierarchy], usize) -> &'a Hierarchy| {
        let mut total = congest_engine::Metrics::new(g.m());
        for (b, ch) in sources.chunks(chunk).enumerate() {
            let algo = BfsCollection::new(ch.to_vec())
                .with_depth_limit(6)
                .with_random_delays(seed + b as u64);
            let sim = simulate_aggregation_general(
                &algo,
                &g,
                None,
                pick(&ensemble.hierarchies, b),
                &AggSimOptions {
                    seed,
                    charge_hierarchy: false,
                    ..Default::default()
                },
            )
            .expect("sim");
            total.merge_parallel(&sim.metrics);
        }
        total
    };

    let m_single = run_over(&|hs, _| &hs[0]);
    let m_ens = run_over(&|hs, b| &hs[b % hs.len()]);
    // Congestion over edges that are cluster edges anywhere in the ensemble.
    let mask_single = |e: congest_graph::EdgeId| ensemble.hierarchies[0].is_cluster_edge(e);
    let any_mask =
        |e: congest_graph::EdgeId| ensemble.hierarchies.iter().any(|h| h.is_cluster_edge(e));
    let c_single = m_single.max_congestion_where(mask_single);
    let c_ens = m_ens.max_congestion_where(any_mask);
    t.row(vec![
        f2(eps),
        zeta.to_string(),
        c_single.to_string(),
        c_ens.to_string(),
        f2(c_single as f64 / c_ens.max(1) as f64),
    ]);
    t.note("same batched depth-limited BFS workload; only the hierarchy assignment differs");
    t
}

/// E-T1.4 — Theorem 1.4: random-delay BFS scheduling.
pub fn e_t1_4(n: usize, ls: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        format!("E-T1.4 (Theorem 1.4): ℓ BFS with random delays, n = {n}"),
        &[
            "ℓ",
            "rounds",
            "ℓ+dilation",
            "rounds/(ℓ+dil)",
            "max distinct BFS per node-round",
            "log₂ n",
            "re-broadcasts",
        ],
    );
    let g = generators::gnp_connected(n, 0.25, seed);
    for &l in ls {
        let algo = BfsCollection::new(g.nodes().take(l).collect()).with_random_delays(seed);
        let mut max_distinct = 0usize;
        let run = run_bcongest_observed(
            &algo,
            &g,
            None,
            &RunOptions {
                seed,
                ..Default::default()
            },
            |_v, _r, inbox| {
                let mut ids: Vec<u32> = inbox.iter().map(|(_, m)| m.bfs).collect();
                ids.sort_unstable();
                ids.dedup();
                max_distinct = max_distinct.max(ids.len());
            },
        )
        .expect("run");
        let dilation = algo.dilation(g.n());
        let expected = run.metrics.broadcasts.saturating_sub((l * g.n()) as u64);
        t.row(vec![
            l.to_string(),
            run.metrics.rounds.to_string(),
            (l + dilation).to_string(),
            f2(run.metrics.rounds as f64 / (l + dilation) as f64),
            max_distinct.to_string(),
            f2((n as f64).log2()),
            expected.to_string(),
        ]);
    }
    t
}

/// E-C2.8 — Corollary 2.8: message-optimal bipartite maximum matching.
pub fn e_c2_8(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E-C2.8 (Corollary 2.8): bipartite maximum matching via Theorem 2.1",
        &[
            "n",
            "m",
            "|M|",
            "HK optimum",
            "B_A",
            "msgs (sim)",
            "msgs (direct)",
            "rounds (sim)",
        ],
    );
    for &half in sizes {
        let g = generators::random_bipartite_connected(half, half, 0.25, seed);
        let sim = apsp_core::matching::bipartite_maximum_matching(&g, seed).expect("sim");
        let dir = apsp_core::matching::bipartite_maximum_matching_direct(&g, seed).expect("direct");
        let hk = congest_graph::reference::hopcroft_karp(&g).expect("bipartite");
        assert_eq!(sim.pairs.len(), hk, "maximum");
        t.row(vec![
            g.n().to_string(),
            g.m().to_string(),
            sim.pairs.len().to_string(),
            hk.to_string(),
            sim.simulated_broadcasts.to_string(),
            sim.metrics.messages.to_string(),
            dir.metrics.messages.to_string(),
            sim.metrics.rounds.to_string(),
        ]);
    }
    t
}

/// E-C2.9 — Corollary 2.9: `(k, W)`-sparse neighborhood covers.
pub fn e_c2_9(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        format!("E-C2.9 (Corollary 2.9): (k,W)-sparse neighborhood covers, n = {n}"),
        &[
            "k",
            "W",
            "reps (trees/node)",
            "max depth",
            "kW·ln n bound",
            "msgs (sim)",
            "valid",
        ],
    );
    let g = generators::gnp_connected(n, 0.2, seed);
    for &(k, w) in &[(2usize, 1u32), (2, 2), (3, 2)] {
        let reps = 30;
        let res =
            apsp_core::cover::sparse_neighborhood_cover(&g, k, w, Some(reps), seed).expect("cover");
        let valid = res.validate(&g);
        let (depth, trees) = valid.as_ref().copied().unwrap_or((0, 0));
        t.row(vec![
            k.to_string(),
            w.to_string(),
            trees.to_string(),
            depth.to_string(),
            f2(3.0 * k as f64 * w as f64 * ln(n)),
            res.metrics.messages.to_string(),
            valid.is_ok().to_string(),
        ]);
    }
    t.note("reps fixed at 30 for comparability; the default Θ(n^{1/k} log n) count is used by the library");
    t
}

/// E-T1.2b — the n-sweep at fixed ε for fitted exponents (rounds vs n^{2-ε},
/// messages vs n^{2+ε}).
pub fn e_t1_2_scaling(ns: &[usize], epsilon: f64, seed: u64) -> Table {
    let mut t = Table::new(
        format!("E-T1.2b (Theorem 1.2): scaling at ε = {epsilon}"),
        &["n", "rounds", "messages"],
    );
    let mut xs = Vec::new();
    let mut rs = Vec::new();
    let mut ms = Vec::new();
    for &n in ns {
        let g = generators::gnp_connected(n, 0.3, seed + n as u64);
        let res = tradeoff_apsp(&g, epsilon, seed).expect("tradeoff");
        verify::check_unweighted_apsp(&g, &res.dist).expect("exactness");
        xs.push(n as f64);
        rs.push(res.metrics.rounds as f64);
        ms.push(res.metrics.messages as f64);
        t.row(vec![
            n.to_string(),
            res.metrics.rounds.to_string(),
            res.metrics.messages.to_string(),
        ]);
    }
    if xs.len() >= 2 {
        t.note(format!(
            "fitted exponents: rounds ≈ n^{} (paper 2-ε = {}), messages ≈ n^{} (paper 2+ε = {})",
            f2(fit_exponent(&xs, &rs)),
            f2(2.0 - epsilon),
            f2(fit_exponent(&xs, &ms)),
            f2(2.0 + epsilon),
        ));
    }
    t
}

/// Quick direct-vs-simulated equality spot check used by the harness preamble.
pub fn equality_smoke(seed: u64) -> bool {
    let g = generators::gnp_connected(18, 0.2, seed);
    let algo = Bfs::new(NodeId::new(0));
    let direct = run_bcongest(
        &algo,
        &g,
        None,
        &RunOptions {
            seed,
            ..Default::default()
        },
    )
    .expect("direct");
    let sim = simulate_bcongest_via_ldc(
        &algo,
        &g,
        None,
        &LdcSimOptions {
            seed,
            ..Default::default()
        },
    )
    .expect("sim");
    sim.outputs == direct.outputs
}

/// E-EXT — the paper's concluding open question, prototyped: weighted APSP through
/// the trade-off simulations (receiver-aware aggregation; see
/// `apsp_core::weighted_tradeoff`).
pub fn e_ext_weighted_tradeoff(n: usize, seed: u64) -> Table {
    use apsp_core::weighted_tradeoff::{weighted_apsp_tradeoff, WeightedTradeoffConfig};
    let mut t = Table::new(
        format!("E-EXT (future work §4): weighted APSP over the trade-off machinery, n = {n}"),
        &["ε", "simulation", "rounds", "messages", "B_A"],
    );
    let g = generators::gnp_connected(n, 0.3, seed);
    let wg = WeightedGraph::random_weights(&g, 1..=6, seed);
    for &e in &[0.34f64, 0.5, 1.0] {
        let res = weighted_apsp_tradeoff(&wg, &WeightedTradeoffConfig { epsilon: e, seed })
            .expect("weighted tradeoff");
        apsp_core::verify::check_weighted_apsp(&wg, &res.distances).expect("exact");
        t.row(vec![
            f2(e),
            if e >= 0.5 {
                "Thm 3.10 (star)"
            } else {
                "Thm 3.9 (general)"
            }
            .into(),
            res.metrics.rounds.to_string(),
            res.metrics.messages.to_string(),
            res.simulated_broadcasts.to_string(),
        ]);
    }
    t.note("exact on every row; this regime is not claimed by the paper — it is the open question of §4, prototyped");
    t
}

/// E-ABL — ablation of the random-delay technique (Theorem 1.4's key idea): the
/// same n-source BFS collection with and without delays.
pub fn e_abl_delays(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        format!("E-ABL (ablation of Theorem 1.4): random delays on vs off, n = {n}"),
        &[
            "delays",
            "rounds",
            "max distinct BFS per node-round",
            "re-broadcast broadcasts",
            "messages",
        ],
    );
    let g = generators::gnp_connected(n, 0.25, seed);
    for delays_on in [true, false] {
        let algo = if delays_on {
            BfsCollection::new(g.nodes().collect()).with_random_delays(seed)
        } else {
            BfsCollection::new(g.nodes().collect())
        };
        let mut max_distinct = 0usize;
        let run = run_bcongest_observed(
            &algo,
            &g,
            None,
            &RunOptions {
                seed,
                ..Default::default()
            },
            |_v, _r, inbox| {
                let mut ids: Vec<u32> = inbox.iter().map(|(_, m)| m.bfs).collect();
                ids.sort_unstable();
                ids.dedup();
                max_distinct = max_distinct.max(ids.len());
            },
        )
        .expect("run");
        let expected = (g.n() * g.n()) as u64;
        t.row(vec![
            if delays_on { "on" } else { "off" }.into(),
            run.metrics.rounds.to_string(),
            max_distinct.to_string(),
            run.metrics.broadcasts.saturating_sub(expected).to_string(),
            run.metrics.messages.to_string(),
        ]);
    }
    t.note("without delays all waves start together: per-round aggregates fatten and queue delays force re-broadcasts — the congestion Theorem 1.4 is designed to avoid");
    t
}

/// E-ABL2 — ablation of phase budgeting in Theorem 2.1: realized schedules vs the
/// worst-case Θ(n log n) per-phase padding.
pub fn e_abl_strict_budget(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        format!(
            "E-ABL2 (ablation of §2.2 phase budget): realized vs strict Θ(n log n) phases, n = {n}"
        ),
        &["phase budget", "rounds", "messages"],
    );
    let g = generators::gnp_connected(n, 0.3, seed);
    let algo = Bfs::new(NodeId::new(0));
    for strict in [false, true] {
        let sim = simulate_bcongest_via_ldc(
            &algo,
            &g,
            None,
            &LdcSimOptions {
                seed,
                strict_phase_budget: strict,
                ..Default::default()
            },
        )
        .expect("sim");
        t.row(vec![
            if strict {
                "strict (paper worst case)"
            } else {
                "realized schedule"
            }
            .into(),
            sim.metrics.rounds.to_string(),
            sim.metrics.messages.to_string(),
        ]);
    }
    t.note("identical outputs and messages; only the round accounting differs");
    t
}
