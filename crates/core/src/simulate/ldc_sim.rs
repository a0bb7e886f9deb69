//! **Theorem 2.1** — the message-efficient simulation of BCONGEST algorithms over an
//! LDC decomposition (paper §2.2).
//!
//! Preprocessing: leader election + node count (§2.2 step 1), an
//! `(O(log n), O(log n))`-LDC decomposition (step 2), and an upcast of every node's
//! input to its cluster center (step 3) — after which each center replicates its
//! members' state machines.
//!
//! Each phase `p` simulates round `p` of the payload: centers compute member
//! broadcasts locally, **downcast** one `(edge, message)` pair per outgoing F-edge of
//! each broadcaster, the pairs cross their inter-cluster edges (one round), and the
//! receiving sides **upcast** them to their centers, which apply the member `receive`
//! transitions. A final downcast delivers outputs. Message complexity is therefore
//! `Õ(In + Out + B_A)` — each simulated broadcast pays `O(log n)` F-edges ×
//! `O(log n)` tree depth rather than `deg(v)`.
//!
//! Correctness (Lemma 2.5) is checked in the strongest possible way: with the same
//! seed, outputs are asserted equal to a direct run's (see the integration tests).

use crate::simulate::common::{payload_options, Pad, SimulationRun};
use congest_algos::leader::setup_network_with;
use congest_decomp::ldc::{build_ldc, LdcDecomposition};
use congest_engine::{
    downcast, run_bcongest_over, upcast, BcongestAlgorithm, EngineError, Forest, Metrics, Router,
};
use congest_graph::{Graph, NodeId};

/// Options for the Theorem 2.1 simulation.
#[derive(Clone, Debug, Default)]
pub struct LdcSimOptions {
    /// Master seed (drives preprocessing randomness *and* the payload's per-node
    /// seeds — use the same seed as a direct run to compare outputs).
    pub seed: u64,
    /// Pad every phase to the worst-case `Θ(n log n)` budget of §2.2 instead of the
    /// realized schedule length.
    pub strict_phase_budget: bool,
    /// Phase guard; defaults to `4 × round_bound + 64`.
    pub max_phases: Option<usize>,
    /// How per-node phases execute (the payload's round loop and the
    /// preprocessing runs). Outputs and metrics are identical at every thread
    /// count.
    pub exec: congest_engine::ExecutorConfig,
}

/// Simulates `algo` over `g` per Theorem 2.1.
///
/// # Errors
///
/// Returns [`EngineError::RoundLimitExceeded`] if the payload does not quiesce
/// within the phase guard; propagates preprocessing errors.
pub fn simulate_bcongest_via_ldc<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &LdcSimOptions,
) -> Result<SimulationRun<A::Output>, EngineError> {
    let n = g.n();
    let mut metrics = Metrics::new(g.m());

    // ---- Preprocessing ----
    let setup = setup_network_with(g, opts.seed, &opts.exec)?;
    metrics.merge_sequential(&setup.metrics);

    let ldc: LdcDecomposition = build_ldc(g, opts.seed)?;
    metrics.merge_sequential(&ldc.metrics);
    let forest: Forest = ldc.clustering.forest(g)?;

    // Step 3: upcast every node's input (its incident edge list) to its center.
    let mut router = Router::new(g);
    let up = upcast(
        &mut router,
        &forest,
        g.nodes().map(|v| (v, Pad(g.degree(v) + 1))).collect(),
    )?;
    metrics.merge_sequential(&up.metrics);
    let preprocessing = metrics.clone();

    // Centers now (conceptually) hold all member inputs and replicate member
    // states: phase `p` is round `p` of the payload's own execution, delivered
    // by the transport below.
    let phase_budget = phase_budget_rounds(n);
    let transport = |_phase: usize,
                     broadcasters: &[(NodeId, A::Msg)],
                     inboxes: &mut [Vec<(NodeId, A::Msg)>]|
     -> Result<(), EngineError> {
        // Inboxes are exactly the direct run's: every broadcast reaches all
        // neighbors. The LDC decomposition guarantees every (broadcaster, receiving
        // cluster) pair is served by an F-edge (validated at construction), so the
        // transport below pays for precisely this information flow.
        for (v, m) in broadcasters {
            for &u in g.neighbors(*v) {
                inboxes[u.index()].push((*v, m.clone()));
            }
        }

        // Transport accounting: downcast (edge,msg) pairs to F-edge owners,
        // one round of inter-cluster sends, upcast into receiving centers.
        let mut phase_cost = Metrics::new(g.m());
        if !broadcasters.is_empty() {
            let mut down_items = Vec::new();
            let mut up_items = Vec::new();
            for (v, _) in broadcasters {
                for f in &ldc.f_edges[v.index()] {
                    down_items.push((*v, Pad(1)));
                    up_items.push((f.other, Pad(1)));
                }
            }
            let down = downcast(&mut router, &forest, down_items)?;
            phase_cost.merge_sequential(&down.metrics);
            let mut exchange = Metrics::new(g.m());
            exchange.rounds = 1;
            for (v, _) in broadcasters {
                for f in &ldc.f_edges[v.index()] {
                    exchange.add_messages(f.edge, 1);
                }
            }
            phase_cost.merge_sequential(&exchange);
            let upc = upcast(&mut router, &forest, up_items)?;
            phase_cost.merge_sequential(&upc.metrics);
        }
        if opts.strict_phase_budget {
            phase_cost.pad_rounds(phase_budget.saturating_sub(phase_cost.rounds));
        }
        metrics.merge_sequential(&phase_cost);
        Ok(())
    };
    let payload_opts = payload_options(opts.seed, opts.max_phases, &opts.exec);
    let payload = run_bcongest_over(algo, g, weights, &payload_opts, transport)?;

    // Final phase: downcast outputs to their nodes.
    let out_items: Vec<(NodeId, Pad)> = g
        .nodes()
        .zip(payload.outputs.iter())
        .map(|(v, o)| (v, Pad(algo.output_words(o))))
        .collect();
    let down = downcast(&mut router, &forest, out_items)?;
    metrics.merge_sequential(&down.metrics);

    Ok(SimulationRun::assemble(payload, metrics, preprocessing))
}

/// The §2.2 worst-case phase budget `Θ(n log n)`.
fn phase_budget_rounds(n: usize) -> u64 {
    let log = (usize::BITS - n.max(2).leading_zeros()) as u64;
    n as u64 * log
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algos::bfs::Bfs;
    use congest_algos::mis::{is_valid_mis, LubyMis};
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::generators;

    fn direct_opts(seed: u64) -> RunOptions {
        RunOptions {
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn bfs_simulated_equals_direct() {
        let g = generators::gnp_connected(30, 0.12, 3);
        let algo = Bfs::new(NodeId::new(5));
        let direct = run_bcongest(&algo, &g, None, &direct_opts(9)).unwrap();
        let sim = simulate_bcongest_via_ldc(
            &algo,
            &g,
            None,
            &LdcSimOptions {
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sim.outputs, direct.outputs);
        assert_eq!(sim.simulated_broadcasts, direct.metrics.broadcasts);
    }

    #[test]
    fn mis_simulated_equals_direct() {
        let g = generators::gnp_connected(25, 0.15, 4);
        let direct = run_bcongest(&LubyMis, &g, None, &direct_opts(11)).unwrap();
        let sim = simulate_bcongest_via_ldc(
            &LubyMis,
            &g,
            None,
            &LdcSimOptions {
                seed: 11,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sim.outputs, direct.outputs);
        assert!(is_valid_mis(&g, &sim.outputs));
    }

    #[test]
    fn message_complexity_tracks_broadcasts_not_degree() {
        // On a dense graph, direct BFS costs Θ(m) messages; simulated costs
        // Õ(B) = Õ(n) for the phase part (preprocessing is Õ(m) once).
        let g = generators::complete(40);
        let algo = Bfs::new(NodeId::new(0));
        let direct = run_bcongest(&algo, &g, None, &direct_opts(2)).unwrap();
        let sim = simulate_bcongest_via_ldc(
            &algo,
            &g,
            None,
            &LdcSimOptions {
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sim.outputs, direct.outputs);
        // Phase-only messages (total - preprocessing) are far below direct's 2m.
        let phase_msgs = sim.metrics.messages - sim.preprocessing.messages;
        assert!(
            phase_msgs < direct.metrics.messages / 2,
            "phase messages {} vs direct {}",
            phase_msgs,
            direct.metrics.messages
        );
    }

    #[test]
    fn strict_budget_pads_rounds() {
        let g = generators::gnp_connected(20, 0.2, 5);
        let algo = Bfs::new(NodeId::new(1));
        let lax = simulate_bcongest_via_ldc(
            &algo,
            &g,
            None,
            &LdcSimOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let strict = simulate_bcongest_via_ldc(
            &algo,
            &g,
            None,
            &LdcSimOptions {
                seed: 5,
                strict_phase_budget: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(lax.outputs, strict.outputs);
        assert!(strict.metrics.rounds > lax.metrics.rounds);
        assert_eq!(strict.metrics.messages, lax.metrics.messages);
    }

    #[test]
    fn round_guard_fires() {
        struct Chatter;
        #[derive(Clone, Debug)]
        struct S;
        impl BcongestAlgorithm for Chatter {
            type State = S;
            type Msg = u32;
            type Output = ();
            fn name(&self) -> &'static str {
                "chatter"
            }
            fn init(&self, _: &congest_engine::LocalView<'_>) -> S {
                S
            }
            fn broadcast(&self, _: &S, _: usize) -> Option<u32> {
                Some(1)
            }
            fn on_broadcast_sent(&self, _: &mut S, _: usize) {}
            fn receive(&self, _: &mut S, _: usize, _: &[(NodeId, u32)]) {}
            fn is_done(&self, _: &S) -> bool {
                false
            }
            fn output(&self, _: &S) {}
            fn round_bound(&self, _: usize, _: usize) -> usize {
                2
            }
            fn output_words(&self, _: &()) -> usize {
                0
            }
        }
        let g = generators::path(4);
        let err =
            simulate_bcongest_via_ldc(&Chatter, &g, None, &LdcSimOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::RoundLimitExceeded { .. }));
    }
}
