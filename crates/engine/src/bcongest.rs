//! The BCONGEST model: algorithm trait and direct (unsimulated) runner.
//!
//! [`BcongestAlgorithm`] is the central abstraction of this workspace. It describes a
//! BCONGEST algorithm (§1.1.2: every round a node sends the *same* message to all its
//! neighbors) as a **pure per-node state machine**. Purity is load-bearing:
//!
//! * the direct runner below executes it while counting rounds, messages, and the
//!   paper's *broadcast complexity* `B`;
//! * the Theorem 2.1 simulation lets cluster centers replicate member state machines;
//! * the Theorem 3.9/3.10 simulations step the same machines at their own nodes but
//!   deliver message *aggregates* instead of raw messages.
//!
//! All three executions of the same algorithm with the same seed produce identical
//! outputs — which is exactly the correctness statement of Lemmas 2.5/3.14/3.20, and is
//! asserted wholesale by the integration tests.

use crate::error::EngineError;
use crate::exec::ExecutorConfig;
use crate::faults::FaultPlan;
use crate::metrics::Metrics;
use crate::rounds::{self, Delivery, Observer, OverPlane, Transport};
use crate::view::LocalView;
use crate::wire::WireEncode;
use congest_graph::{Graph, NodeId};

/// A BCONGEST algorithm as a pure per-node state machine.
///
/// ## Contract
///
/// * [`broadcast`](Self::broadcast) must be a pure function of `(state, round)`;
/// * after the runner collects a broadcast it calls
///   [`on_broadcast_sent`](Self::on_broadcast_sent), the mutation point for "my message
///   went out" (e.g. popping a send queue);
/// * [`receive`](Self::receive) is invoked only on rounds where the node receives at
///   least one message — state machines must not rely on empty-inbox ticks (use the
///   `round` argument instead);
/// * [`next_activity`](Self::next_activity) is what the runner schedules by: a node is
///   polled for a broadcast only in rounds its last answer named, so the answer must never
///   be later than the first round [`broadcast`](Self::broadcast) would fire *absent
///   further input* (rounds nobody is scheduled for are skipped, but still counted).
pub trait BcongestAlgorithm: Sync {
    /// Per-node state. `Send + Sync` here, on [`Msg`](Self::Msg) and on the
    /// algorithm itself because state init and the broadcast poll may run on
    /// worker threads ([`RunOptions::exec`]).
    type State: Clone + std::fmt::Debug + Send + Sync;
    /// The broadcast message type; must fit in one word (one `O(log n)`-bit
    /// message). The round buffer ([`crate::plane`]) stores it as a value;
    /// the [`WireEncode`] bound gives it the fixed-width lanes a trace records
    /// and its `4 × LANES`-byte charge.
    type Msg: WireEncode + Send + Sync;
    /// Per-node output.
    type Output: Clone + std::fmt::Debug + PartialEq;

    /// Human-readable algorithm name (used in reports).
    fn name(&self) -> &'static str;

    /// Initial state of a node, from its local knowledge.
    fn init(&self, view: &LocalView<'_>) -> Self::State;

    /// The message this node broadcasts in `round`, if any. Pure.
    fn broadcast(&self, state: &Self::State, round: usize) -> Option<Self::Msg>;

    /// Called exactly once right after a non-`None` broadcast was collected in `round`.
    fn on_broadcast_sent(&self, state: &mut Self::State, round: usize);

    /// Delivers the messages this node receives in `round` (all broadcast by neighbors
    /// in the same round). Only called when `msgs` is non-empty.
    ///
    /// The order of `msgs` is the caller's — ascending senders from the message
    /// plane, first arrival first from the simulators — and an implementation must
    /// not depend on it: the state after the call is a function of the multiset.
    fn receive(&self, state: &mut Self::State, round: usize, msgs: &[(NodeId, Self::Msg)]);

    /// Whether this node's output is final and it will never broadcast again.
    fn is_done(&self, state: &Self::State) -> bool;

    /// This node's output.
    fn output(&self, state: &Self::State) -> Self::Output;

    /// Earliest round `>= after` at which this node might broadcast, assuming it
    /// receives nothing further. `None` if it will stay silent forever absent input.
    ///
    /// The runner is event-driven and relies on this per node: it asks once after
    /// every round in which the node was polled or received (and after a fault
    /// round), and then evaluates [`broadcast`](Self::broadcast) on the node only
    /// from the named round on — never before, and never at all after `None` —
    /// until the node receives again. So the answer must be **no later** than the
    /// first round `broadcast` would return `Some` with no further input. Answering
    /// earlier (even a round `< after`) is always legal and only costs a poll.
    /// Debug builds check the rule every round and panic with "`{name}: node {i}
    /// would broadcast in round {r} but was not scheduled`" on a late answer;
    /// release builds would silently drop that send.
    ///
    /// The default is conservative: polled every round until done.
    fn next_activity(&self, state: &Self::State, after: usize) -> Option<usize> {
        if self.is_done(state) {
            None
        } else {
            Some(after)
        }
    }

    /// A safe upper bound on the number of rounds on an `n`-node, `m`-edge graph
    /// (the paper's known bound `T_A`). Used as the default round guard and as the
    /// denominator in the Theorem 2.1 overhead experiments.
    fn round_bound(&self, n: usize, m: usize) -> usize;

    /// Size of one node's output in words (`Out = Σ_v output_words`).
    fn output_words(&self, out: &Self::Output) -> usize;

    /// Fault-response hook for [`crate::FaultResponse::SelfHeal`] plans: called on
    /// every live node at the start of a fault round, right after the round's
    /// events applied (freshly recovered nodes are re-initialized instead).
    /// Default: no-op — only algorithms that actually self-stabilize (e.g.
    /// leader election re-arming its flood) override this.
    fn on_fault(&self, _state: &mut Self::State, _round: usize) {}
}

/// An aggregation-based BCONGEST algorithm (Definition 3.1).
///
/// [`aggregate`](Self::aggregate) must keep a *subset* of the messages it is
/// handed, representable in `Õ(1)` words, such that delivering the union of
/// aggregates of any partition of a round's messages leaves
/// [`BcongestAlgorithm::receive`] with the same effect as delivering all messages.
/// (min/max/sum-style algorithms qualify; so do collections of BFS algorithms once
/// only `O(log n)` of them are active per neighborhood per round — Theorem 1.4.)
pub trait AggregationAlgorithm: BcongestAlgorithm {
    /// Reduces, in place, a batch of same-round `(sender, message)` pairs addressed
    /// to `receiver` to an equivalent small subset: on return `msgs` holds exactly
    /// the kept pairs. The caller owns the buffer and reuses it across calls, so
    /// reduce with `sort` / `dedup` / `retain` rather than building a replacement.
    /// The order of the kept pairs is the implementer's and must be deterministic —
    /// a function of the batch as handed over, never of addresses, hash seeds or
    /// earlier calls: the simulations forward the pairs in that order, and their
    /// whole account is pinned byte for byte.
    fn aggregate(&self, receiver: NodeId, round: usize, msgs: &mut Vec<(NodeId, Self::Msg)>);

    /// Upper bound (in words) on the size of any aggregate this algorithm produces; the
    /// simulations assert it. `Õ(1)` for a faithful Definition-3.1 algorithm.
    fn aggregate_budget(&self, n: usize) -> usize;
}

/// Options for [`run_bcongest`]. The round guard is
/// 4×[`BcongestAlgorithm::round_bound`] + 64 rounds, once more per fault round
/// under a fault plan.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Master seed; per-node seeds are derived from it.
    pub seed: u64,
    /// How state init and the per-round broadcast poll execute; delivery and
    /// the receive phase always run on the caller's thread. Outputs and
    /// [`Metrics`] are byte-identical at every thread count; `threads = 1`
    /// (the default) is the sequential path.
    pub exec: ExecutorConfig,
    /// Optional fault-injection schedule (see [`crate::faults`]). `None`
    /// (the default) runs fault-free. Faulty runs stay byte-identical at
    /// every thread count.
    pub faults: Option<FaultPlan>,
}

/// Result of a direct BCONGEST execution.
#[derive(Clone, Debug)]
pub struct BcongestRun<O> {
    /// Per-node outputs, indexed by node.
    pub outputs: Vec<O>,
    /// Rounds, messages (Σ deg over broadcasts), broadcast complexity `B`, congestion.
    pub metrics: Metrics,
    /// Words of input over all nodes (`I_n / log n` in the paper's notation).
    pub input_words: usize,
    /// Words of output over all nodes (`Out`).
    pub output_words: usize,
}

/// Runs `algo` directly in the BCONGEST model on `g`.
///
/// # Errors
///
/// Returns [`EngineError::RoundLimitExceeded`] if the algorithm does not quiesce within
/// the round limit, and [`EngineError::InvalidFaultPlan`] if `opts.faults` fails
/// [`FaultPlan::validate`] against `g`.
pub fn run_bcongest<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &RunOptions,
) -> Result<BcongestRun<A::Output>, EngineError> {
    let mut plane = OverPlane::new(g);
    run_on(algo, g, weights, opts, &mut plane, None)
}

/// Like [`run_bcongest`], but invokes `observe(node, round, inbox)` for every non-empty
/// inbox — used by the Theorem 1.4 experiments to count distinct BFS sources per
/// node-round. Observers see inboxes in node order, each just before its node
/// receives it.
pub fn run_bcongest_observed<A, F>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &RunOptions,
    mut observe: F,
) -> Result<BcongestRun<A::Output>, EngineError>
where
    A: BcongestAlgorithm,
    F: FnMut(NodeId, usize, &[(NodeId, A::Msg)]),
{
    let mut plane = OverPlane::new(g);
    run_on(algo, g, weights, opts, &mut plane, Some(&mut observe))
}

/// Runs `algo`'s BCONGEST execution with its delivery replaced by `transport` —
/// which is what the paper's simulation theorems are. In every executed round,
/// empty ones included, `transport(round, broadcasters, inboxes)` is called
/// once with the round's broadcasters in ascending node order and one inbox
/// per node, all empty: it pushes `(sender, msg)` into `inboxes[receiver]` for
/// whatever it delivers and keeps its own account of what moving it cost, so
/// the returned [`Metrics`] carry the execution's `rounds` and `broadcasts`
/// only. Scheduling and the round guard are [`run_bcongest`]'s; the receive
/// phase is sequential.
///
/// # Errors
///
/// [`EngineError::RoundLimitExceeded`] as for [`run_bcongest`]; whatever
/// `transport` returns; and [`EngineError::InvalidFaultPlan`] for any
/// `opts.faults: Some(_)` — the transport owns the topology.
pub fn run_bcongest_over<A, T>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &RunOptions,
    transport: T,
) -> Result<BcongestRun<A::Output>, EngineError>
where
    A: BcongestAlgorithm,
    T: FnMut(usize, &[(NodeId, A::Msg)], &mut [Vec<(NodeId, A::Msg)>]) -> Result<(), EngineError>,
{
    if opts.faults.is_some() {
        return Err(EngineError::InvalidFaultPlan {
            reason: "a run over a caller-supplied transport takes no fault plan".to_string(),
        });
    }
    let mut transport = Transport::new(g.n(), transport);
    run_on(algo, g, weights, opts, &mut transport, None)
}

/// The shared loop under the three entry points, plus a [`BcongestRun`]'s
/// output and word accounting.
fn run_on<A, D>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &RunOptions,
    delivery: &mut D,
    observer: Option<Observer<'_, A::Msg>>,
) -> Result<BcongestRun<A::Output>, EngineError>
where
    A: BcongestAlgorithm,
    D: Delivery<A>,
{
    let (states, metrics) = rounds::run(algo, g, weights, opts, delivery, observer)?;
    let outputs: Vec<A::Output> = states.iter().map(|s| algo.output(s)).collect();
    let output_words = outputs.iter().map(|o| algo.output_words(o)).sum();
    Ok(BcongestRun {
        outputs,
        metrics,
        input_words: g.input_words(),
        output_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, EdgeId};

    /// Toy algorithm: flood the minimum ID; output it. Broadcast-on-improvement.
    struct MinFlood;

    #[derive(Clone, Debug)]
    struct FloodState {
        best: u32,
        dirty: bool,
    }

    impl BcongestAlgorithm for MinFlood {
        type State = FloodState;
        type Msg = u32;
        type Output = u32;

        fn name(&self) -> &'static str {
            "min-flood"
        }
        fn init(&self, view: &LocalView<'_>) -> FloodState {
            FloodState {
                best: view.node().raw(),
                dirty: true,
            }
        }
        fn broadcast(&self, s: &FloodState, _round: usize) -> Option<u32> {
            s.dirty.then_some(s.best)
        }
        fn on_broadcast_sent(&self, s: &mut FloodState, _round: usize) {
            s.dirty = false;
        }
        fn receive(&self, s: &mut FloodState, _round: usize, msgs: &[(NodeId, u32)]) {
            for &(_, m) in msgs {
                if m < s.best {
                    s.best = m;
                    s.dirty = true;
                }
            }
        }
        fn is_done(&self, s: &FloodState) -> bool {
            !s.dirty
        }
        fn output(&self, s: &FloodState) -> u32 {
            s.best
        }
        fn round_bound(&self, n: usize, _m: usize) -> usize {
            2 * n + 2
        }
        fn output_words(&self, _out: &u32) -> usize {
            1
        }
    }

    #[test]
    fn min_flood_converges_to_zero() {
        let g = generators::gnp_connected(30, 0.1, 3);
        let run = run_bcongest(&MinFlood, &g, None, &RunOptions::default()).expect("min-flood run");
        assert!(run.outputs.iter().all(|&o| o == 0));
        // Rounds at least the eccentricity of node 0.
        let ecc = congest_graph::reference::eccentricity(&g, NodeId::new(0))
            .expect("connected graph") as u64;
        assert!(run.metrics.rounds >= ecc);
        assert!(run.metrics.broadcasts >= g.n() as u64);
        // Messages = Σ over broadcasts of deg.
        assert!(run.metrics.messages >= run.metrics.broadcasts);
    }

    #[test]
    fn message_count_on_star() {
        // Round 0: all 5 nodes broadcast their own ID (hub deg 4, leaves deg 1 each
        // → 8 messages). Leaves learn 0 and re-broadcast it in round 1 (4 more
        // broadcasts, 4 messages); the hub learns nothing new. Quiescent after that.
        let g = generators::star(5);
        let run = run_bcongest(&MinFlood, &g, None, &RunOptions::default()).expect("min-flood run");
        assert_eq!(run.metrics.broadcasts, 9);
        assert_eq!(run.metrics.messages, 12);
        assert_eq!(run.metrics.rounds, 2);
    }

    #[test]
    fn round_limit_error() {
        struct Chatter;
        impl BcongestAlgorithm for Chatter {
            type State = ();
            type Msg = u32;
            type Output = ();
            fn name(&self) -> &'static str {
                "chatter"
            }
            fn init(&self, _: &LocalView<'_>) {}
            fn broadcast(&self, _: &(), _: usize) -> Option<u32> {
                Some(1)
            }
            fn on_broadcast_sent(&self, _: &mut (), _: usize) {}
            fn receive(&self, _: &mut (), _: usize, _: &[(NodeId, u32)]) {}
            fn is_done(&self, _: &()) -> bool {
                false
            }
            fn output(&self, _: &()) {}
            fn round_bound(&self, _: usize, _: usize) -> usize {
                4
            }
            fn output_words(&self, _: &()) -> usize {
                0
            }
        }
        let g = generators::path(3);
        let err = run_bcongest(&Chatter, &g, None, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::RoundLimitExceeded { .. }));
    }

    /// Node 0 speaks once, in round 0. Every other node holds a timer for
    /// round `wake` that hearing anything cancels; with `stuck` set it never
    /// speaks and answers `next_activity` with round 0 forever instead.
    struct Sleeper {
        wake: usize,
        stuck: bool,
    }

    #[derive(Clone, Debug)]
    struct SleeperState {
        me: u32,
        heard: bool,
        sent: bool,
    }

    impl BcongestAlgorithm for Sleeper {
        type State = SleeperState;
        type Msg = u32;
        type Output = bool;

        fn name(&self) -> &'static str {
            "sleeper"
        }
        fn init(&self, view: &LocalView<'_>) -> SleeperState {
            SleeperState {
                me: view.node().raw(),
                heard: false,
                sent: false,
            }
        }
        fn broadcast(&self, s: &SleeperState, round: usize) -> Option<u32> {
            let armed = !s.sent && !s.heard && !self.stuck;
            (armed && (s.me == 0 || round >= self.wake)).then_some(s.me)
        }
        fn on_broadcast_sent(&self, s: &mut SleeperState, _round: usize) {
            s.sent = true;
        }
        fn receive(&self, s: &mut SleeperState, _round: usize, _msgs: &[(NodeId, u32)]) {
            s.heard = true;
        }
        fn is_done(&self, s: &SleeperState) -> bool {
            s.sent || s.heard
        }
        fn output(&self, s: &SleeperState) -> bool {
            s.heard
        }
        fn next_activity(&self, s: &SleeperState, after: usize) -> Option<usize> {
            if self.stuck {
                return Some(0);
            }
            let wake = if s.me == 0 { 0 } else { self.wake };
            (!self.is_done(s)).then_some(after.max(wake))
        }
        fn round_bound(&self, _n: usize, _m: usize) -> usize {
            4
        }
        fn output_words(&self, _out: &bool) -> usize {
            1
        }
    }

    #[test]
    fn next_activity_in_the_past_hits_the_round_limit() {
        // Used to spin at round 0 forever (release) or trip a debug assertion.
        let g = generators::path(3);
        let stuck = Sleeper {
            wake: 0,
            stuck: true,
        };
        let err = run_bcongest(&stuck, &g, None, &RunOptions::default()).unwrap_err();
        assert!(
            matches!(err, EngineError::RoundLimitExceeded { .. }),
            "{err}"
        );
    }

    #[test]
    fn a_timer_cancelled_by_a_receive_does_not_outlive_the_run() {
        // The leaves' timers name a round far beyond the limit (80); the hub's
        // round-0 broadcast cancels them all, so the run is quiescent after
        // one round — their stale heap entries must not drag it to round 10⁶.
        let g = generators::star(6);
        let algo = Sleeper {
            wake: 1_000_000,
            stuck: false,
        };
        for threads in [1, 2] {
            let opts = RunOptions {
                exec: ExecutorConfig::with_threads(threads),
                ..Default::default()
            };
            let run = run_bcongest(&algo, &g, None, &opts).expect("quiescent after round 0");
            assert_eq!(run.metrics.rounds, 1);
            assert_eq!(run.metrics.broadcasts, 1);
            assert_eq!(run.outputs, [false, true, true, true, true, true]);
        }
        // A timer nobody cancels is still honoured: on a path the far end
        // never hears node 0, and its wake-up round is past the limit.
        let err = run_bcongest(&algo, &generators::path(3), None, &RunOptions::default());
        assert!(matches!(
            err.unwrap_err(),
            EngineError::RoundLimitExceeded { .. }
        ));
    }

    #[test]
    fn a_flooding_transport_reproduces_the_direct_execution() {
        let g = generators::gnp_connected(30, 0.1, 3);
        let opts = RunOptions::default();
        let direct = run_bcongest(&MinFlood, &g, None, &opts).expect("direct run");
        let over = run_bcongest_over(&MinFlood, &g, None, &opts, |_, senders, inboxes| {
            for (v, m) in senders {
                for &u in g.neighbors(*v) {
                    inboxes[u.index()].push((*v, *m));
                }
            }
            Ok(())
        })
        .expect("run over a transport");
        assert_eq!(over.outputs, direct.outputs);
        assert_eq!(over.metrics.rounds, direct.metrics.rounds);
        assert_eq!(over.metrics.broadcasts, direct.metrics.broadcasts);
        assert_eq!(over.metrics.messages, 0, "the transport keeps the books");
        assert_eq!(over.input_words, direct.input_words);
        assert_eq!(over.output_words, direct.output_words);
    }

    #[test]
    fn the_transport_sees_every_executed_round_and_owns_the_topology() {
        // Path 0-1-2: node 0 speaks in round 0; nothing reaches node 2 (the
        // transport delivers nothing), whose timer fires in round 3. Rounds 1
        // and 4 follow an active round and are executed empty; 2 is skipped.
        let g = generators::path(3);
        let algo = Sleeper {
            wake: 3,
            stuck: false,
        };
        let mut seen: Vec<(usize, Vec<NodeId>)> = Vec::new();
        let run = run_bcongest_over(&algo, &g, None, &RunOptions::default(), |r, senders, _| {
            seen.push((r, senders.iter().map(|(v, _)| *v).collect()));
            Ok(())
        })
        .expect("quiescent after round 3");
        let (n0, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let want = [(0, vec![n0]), (1, vec![]), (3, vec![n1, n2]), (4, vec![])];
        assert_eq!(seen, want);
        assert_eq!(run.metrics.rounds, 4);
        assert_eq!(run.outputs, [false, false, false]);

        // A transport's error ends the run, and a fault plan is refused.
        let failing = run_bcongest_over(&algo, &g, None, &RunOptions::default(), |_, _, _| {
            Err(EngineError::InvalidPath { task: 7 })
        });
        assert_eq!(failing.unwrap_err(), EngineError::InvalidPath { task: 7 });
        let faulty = RunOptions {
            faults: Some(crate::FaultPlan::new(crate::FaultResponse::Restart)),
            ..Default::default()
        };
        let refused = run_bcongest_over(&algo, &g, None, &faulty, |_, _, _| Ok(()));
        assert!(matches!(
            refused.unwrap_err(),
            EngineError::InvalidFaultPlan { .. }
        ));
    }

    #[test]
    fn faults_freeze_crashed_nodes_and_restart_the_rest() {
        use crate::faults::{FaultEvent, FaultPlan, FaultResponse};

        // Path 0-1-2-3-4: node 2 crashes at round 1, cutting the path in two.
        let g = generators::path(5);
        let plan = FaultPlan::new(FaultResponse::Restart).at(1, FaultEvent::Crash(NodeId::new(2)));
        let opts = RunOptions {
            faults: Some(plan.clone()),
            ..Default::default()
        };
        let run = run_bcongest(&MinFlood, &g, None, &opts).expect("faulty run");
        // Live components converge to their own minimum id.
        assert_eq!(run.outputs[0], 0);
        assert_eq!(run.outputs[1], 0);
        assert_eq!(run.outputs[3], 3);
        assert_eq!(run.outputs[4], 3);
        // Node 2 is frozen at its end-of-round-0 state (it had heard 1).
        assert_eq!(run.outputs[2], 1);
        // Neighbors of the corpse keep talking into the void at the restart.
        assert!(run.metrics.dropped_messages > 0);

        // The faulty run is identical at every thread count.
        for threads in [2, 4] {
            let alt = run_bcongest(
                &MinFlood,
                &g,
                None,
                &RunOptions {
                    faults: Some(plan.clone()),
                    exec: ExecutorConfig::with_threads(threads),
                    ..Default::default()
                },
            )
            .expect("faulty run (alt threads)");
            assert_eq!(alt.outputs, run.outputs);
            assert_eq!(alt.metrics, run.metrics);
        }
    }

    #[test]
    fn churned_edges_recover_and_heal() {
        use crate::faults::{FaultPlan, FaultResponse};

        // Down half the cycle's edges for rounds 0..3, then bring them back
        // with a Restart response: the final restart reruns MinFlood on the
        // full cycle, so everyone still converges to 0.
        let g = generators::cycle(8);
        let plan = FaultPlan::edge_churn(&g, 4, 0, 3, 9, FaultResponse::Restart);
        let run = run_bcongest(
            &MinFlood,
            &g,
            None,
            &RunOptions {
                faults: Some(plan),
                ..Default::default()
            },
        )
        .expect("churned run");
        assert!(run.outputs.iter().all(|&o| o == 0));
        assert!(run.metrics.dropped_messages > 0);
    }

    #[test]
    fn invalid_fault_plans_are_errors_not_panics() {
        use crate::faults::{FaultEvent, FaultPlan, FaultResponse};

        let g = generators::path(4);
        for plan in [
            FaultPlan::new(FaultResponse::Restart).at(1, FaultEvent::Recover(NodeId::new(2))),
            FaultPlan::new(FaultResponse::Restart).at(0, FaultEvent::EdgeDown(EdgeId::new(g.m()))),
        ] {
            let opts = RunOptions {
                faults: Some(plan),
                ..Default::default()
            };
            let err = run_bcongest(&MinFlood, &g, None, &opts).unwrap_err();
            assert!(matches!(err, EngineError::InvalidFaultPlan { .. }), "{err}");
            let recorded = crate::trace::record_bcongest(&MinFlood, &g, None, &opts, "t");
            assert_eq!(recorded.map(|_| ()).unwrap_err(), err);
        }
    }

    #[test]
    fn observer_sees_inboxes_in_node_order() {
        // Path 0-1-2: everyone speaks in round 0, the improved nodes 1 and 2
        // in round 1, node 2 once more in round 2. The observer sees each
        // round's inboxes in ascending node order, at every thread count.
        let g = generators::path(3);
        for threads in [1, 2] {
            let mut seen: Vec<(usize, u32, usize)> = Vec::new();
            let opts = RunOptions {
                exec: ExecutorConfig::with_threads(threads),
                ..Default::default()
            };
            run_bcongest_observed(&MinFlood, &g, None, &opts, |v, r, inbox| {
                seen.push((r, v.raw(), inbox.len()));
            })
            .expect("observed min-flood run");
            let want = [
                (0, 0, 1),
                (0, 1, 2),
                (0, 2, 1),
                (1, 0, 1),
                (1, 1, 1),
                (1, 2, 1),
                (2, 1, 1),
            ];
            assert_eq!(seen, want, "at {threads} threads");
        }
    }
}
