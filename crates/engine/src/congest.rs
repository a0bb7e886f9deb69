//! The general (point-to-point) CONGEST runner: per round, a node may send a
//! *different* `O(log n)`-bit message over each incident edge (§1.1.1).
//!
//! The broadcast-based work in this repository flows through
//! [`run_bcongest`](crate::run_bcongest); this runner completes the model for
//! algorithms that genuinely need per-neighbor messages (e.g. routing-table
//! protocols), and is used by tests as an independent cross-check of the
//! accounting.

use crate::error::EngineError;
use crate::metrics::Metrics;
use crate::rounds::{self, Model, Observer, OverPlane};
use crate::view::LocalView;
use crate::wire::WireEncode;
use congest_graph::{EdgeId, Graph, NodeId};

/// A CONGEST algorithm as a pure per-node state machine with per-edge sends.
///
/// Mirrors [`crate::BcongestAlgorithm`]'s contract: [`sends`](Self::sends) is pure;
/// [`on_sent`](Self::on_sent) is the post-send mutation point; [`receive`](Self::receive)
/// fires only on non-empty inboxes; [`next_activity`](Self::next_activity) is what
/// the runner schedules by — a node is polled for sends only in rounds its last
/// answer named.
pub trait CongestAlgorithm: Sync {
    /// Per-node state (`Send + Sync` for the same reason as
    /// [`BcongestAlgorithm::State`](crate::BcongestAlgorithm::State)).
    type State: Clone + std::fmt::Debug + Send + Sync;
    /// Message type; at most one per edge per round, one word each. The
    /// round buffer ([`crate::plane`]) stores it as a value; the
    /// [`WireEncode`] bound gives it the fixed-width lanes a trace records
    /// and its `4 × LANES`-byte charge.
    type Msg: WireEncode + Send + Sync;
    /// Per-node output.
    type Output: Clone + std::fmt::Debug + PartialEq;

    /// Algorithm name for diagnostics.
    fn name(&self) -> &'static str;
    /// Initial state.
    fn init(&self, view: &LocalView<'_>) -> Self::State;
    /// Messages to send this round: `(neighbor, msg)` pairs, at most one per
    /// neighbor. Pure.
    fn sends(&self, state: &Self::State, round: usize) -> Vec<(NodeId, Self::Msg)>;
    /// Called once after this round's sends were collected.
    fn on_sent(&self, state: &mut Self::State, round: usize);
    /// Delivers this round's inbox (non-empty).
    fn receive(&self, state: &mut Self::State, round: usize, msgs: &[(NodeId, Self::Msg)]);
    /// Whether the node is finished.
    fn is_done(&self, state: &Self::State) -> bool;
    /// Final output.
    fn output(&self, state: &Self::State) -> Self::Output;
    /// Earliest round `>= after` at which this node might send, assuming it
    /// receives nothing further; `None` if it stays silent forever absent input.
    ///
    /// The same per-node rule as
    /// [`BcongestAlgorithm::next_activity`](crate::BcongestAlgorithm::next_activity):
    /// the runner asks once after every round in which the node was polled or
    /// received (and after a fault round) and evaluates [`sends`](Self::sends) on
    /// the node only from the named round on, so the answer must be **no later**
    /// than the first round `sends` would be non-empty with no further input.
    /// Earlier is always legal and only costs a poll. Debug builds panic with
    /// "`{name}: node {i} would send in round {r} but was not scheduled`" on a
    /// late answer. The default is conservative: polled every round until done.
    fn next_activity(&self, state: &Self::State, after: usize) -> Option<usize> {
        if self.is_done(state) {
            None
        } else {
            Some(after)
        }
    }
    /// Round guard bound.
    fn round_bound(&self, n: usize, m: usize) -> usize;
    /// Fault-response hook for [`crate::FaultResponse::SelfHeal`] plans:
    /// called on every live node at the start of a fault round (recovered
    /// nodes are re-initialized instead). Default: no-op.
    fn on_fault(&self, _state: &mut Self::State, _round: usize) {}
}

/// Result of a CONGEST execution.
#[derive(Clone, Debug)]
pub struct CongestRun<O> {
    /// Per-node outputs.
    pub outputs: Vec<O>,
    /// Rounds/messages/congestion.
    pub metrics: Metrics,
}

/// Runs a point-to-point CONGEST algorithm.
///
/// # Errors
///
/// [`EngineError::RoundLimitExceeded`] if the algorithm does not quiesce in time;
/// [`EngineError::InvalidFaultPlan`] if `opts.faults` fails
/// [`FaultPlan::validate`](crate::FaultPlan::validate) against `g`.
///
/// # Panics
///
/// If a node sends to a non-neighbor (in every build — there is no
/// [`EngineError`] for it). Debug builds also panic on two messages over one
/// edge in one round, on a multi-word message, and on a
/// [`next_activity`](CongestAlgorithm::next_activity) that answered late.
pub fn run_congest<A: CongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &crate::RunOptions,
) -> Result<CongestRun<A::Output>, EngineError> {
    run_on(algo, g, weights, opts, None)
}

/// Like [`run_congest`], but invokes `observe(node, round, inbox)` for every
/// non-empty inbox — the CONGEST counterpart of
/// [`crate::run_bcongest_observed`], used by the trace recorder. Observers see
/// inboxes in node order: the receive phase runs sequentially when one is
/// attached (the other phases still honor `opts.exec`).
pub fn run_congest_observed<A, F>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &crate::RunOptions,
    mut observe: F,
) -> Result<CongestRun<A::Output>, EngineError>
where
    A: CongestAlgorithm,
    F: FnMut(NodeId, usize, &[(NodeId, A::Msg)]),
{
    run_on(algo, g, weights, opts, Some(&mut observe))
}

/// The shared loop under both entry points, over the flat plane.
fn run_on<A: CongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &crate::RunOptions,
    observer: Option<Observer<'_, A::Msg>>,
) -> Result<CongestRun<A::Output>, EngineError> {
    let mut plane = OverPlane::new(g, &opts.exec);
    let (states, metrics) =
        rounds::run(&PointToPoint(algo), g, weights, opts, &mut plane, observer)?;
    let outputs = states.iter().map(|s| algo.output(s)).collect();
    Ok(CongestRun { outputs, metrics })
}

/// [`CongestAlgorithm`] as the round loop sees it: a polled node hands over
/// its `(neighbor, msg)` list, each entry crossing the edge to that neighbor.
struct PointToPoint<'a, A>(&'a A);

impl<A: CongestAlgorithm> Model for PointToPoint<'_, A> {
    type State = A::State;
    type Msg = A::Msg;
    type Sent = Vec<(NodeId, A::Msg)>;

    const BROADCASTS: bool = false;

    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn round_bound(&self, n: usize, m: usize) -> usize {
        self.0.round_bound(n, m)
    }
    fn init(&self, view: &LocalView<'_>) -> A::State {
        self.0.init(view)
    }
    fn poll(&self, state: &A::State, round: usize) -> Option<Self::Sent> {
        let sends = self.0.sends(state, round);
        (!sends.is_empty()).then_some(sends)
    }
    fn on_sent(&self, state: &mut A::State, round: usize) {
        self.0.on_sent(state, round);
    }
    /// Edge resolution: the `edge_between` lookups are the hot part of the
    /// expansion.
    fn expand(
        &self,
        g: &Graph,
        v: NodeId,
        sends: &Self::Sent,
        mut emit: impl FnMut(EdgeId, NodeId, &A::Msg),
    ) {
        #[cfg(debug_assertions)]
        let mut used: Vec<EdgeId> = Vec::with_capacity(sends.len());
        for (u, m) in sends {
            let e = g
                .edge_between(v, *u)
                .unwrap_or_else(|| panic!("{v:?} sent to non-neighbor {u:?}"));
            #[cfg(debug_assertions)]
            {
                assert!(!used.contains(&e), "two messages on one edge in one round");
                used.push(e);
            }
            emit(e, *u, m);
        }
    }
    fn receive(&self, state: &mut A::State, round: usize, inbox: &[(NodeId, A::Msg)]) {
        self.0.receive(state, round, inbox);
    }
    fn next_activity(&self, state: &A::State, after: usize) -> Option<usize> {
        self.0.next_activity(state, after)
    }
    fn on_fault(&self, state: &mut A::State, round: usize) {
        self.0.on_fault(state, round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    /// Point-to-point echo: node 0 sends a token around a cycle (each node forwards
    /// to its successor only — impossible to express as a broadcast without waste).
    struct RingToken {
        laps: u32,
    }

    #[derive(Clone, Debug)]
    struct TokenState {
        me: u32,
        n: u32,
        holding: bool,
        count: u32,
        target: u32,
        pending: bool,
    }

    impl CongestAlgorithm for RingToken {
        type State = TokenState;
        type Msg = u32; // lap counter
        type Output = u32;

        fn name(&self) -> &'static str {
            "ring-token"
        }
        fn init(&self, view: &LocalView<'_>) -> TokenState {
            TokenState {
                me: view.node().raw(),
                n: view.n() as u32,
                holding: view.node().raw() == 0,
                count: 0,
                target: self.laps,
                pending: view.node().raw() == 0,
            }
        }
        fn sends(&self, s: &TokenState, _round: usize) -> Vec<(NodeId, u32)> {
            if s.pending && s.count < s.target {
                vec![(NodeId::from((s.me + 1) % s.n), s.count)]
            } else {
                Vec::new()
            }
        }
        fn on_sent(&self, s: &mut TokenState, _round: usize) {
            s.pending = false;
            s.holding = false;
        }
        fn receive(&self, s: &mut TokenState, _round: usize, msgs: &[(NodeId, u32)]) {
            for &(_, lap) in msgs {
                s.holding = true;
                s.count = lap + u32::from(s.me == 0);
                // The origin retires the token once all laps are complete.
                s.pending = s.count < s.target;
            }
        }
        fn is_done(&self, s: &TokenState) -> bool {
            !s.pending
        }
        fn output(&self, s: &TokenState) -> u32 {
            s.count
        }
        fn round_bound(&self, n: usize, _m: usize) -> usize {
            (self.laps as usize + 1) * n + 4
        }
    }

    #[test]
    fn token_circulates_exactly() {
        let g = generators::cycle(8);
        let run = run_congest(
            &RingToken { laps: 3 },
            &g,
            None,
            &crate::RunOptions::default(),
        )
        .expect("ring-token run");
        // 3 laps of 8 hops each.
        assert_eq!(run.metrics.messages, 24);
        assert_eq!(run.metrics.rounds, 24);
        // Each edge carried exactly 3 messages.
        assert!(run.metrics.congestion().iter().all(|&c| c == 3));
        assert_eq!(run.outputs[0], 3);
    }

    #[test]
    fn dropped_token_is_recovered_by_restart() {
        use crate::faults::{FaultEvent, FaultPlan, FaultResponse};

        let g = generators::cycle(6);
        // Edge 0-1 is down until round 2: the token dies on its first hop,
        // the ring goes quiet, and the restart at round 2 reruns the circuit.
        let e = g
            .edge_between(NodeId::new(0), NodeId::new(1))
            .expect("cycle edge");
        let plan = FaultPlan::new(FaultResponse::Restart)
            .at(0, FaultEvent::EdgeDown(e))
            .at(2, FaultEvent::EdgeUp(e));
        let run = run_congest(
            &RingToken { laps: 1 },
            &g,
            None,
            &crate::RunOptions {
                faults: Some(plan),
                ..Default::default()
            },
        )
        .expect("faulty ring run");
        assert_eq!(run.outputs[0], 1, "restarted token completes its lap");
        assert_eq!(run.metrics.dropped_messages, 1, "the first hop was lost");
        assert_eq!(run.metrics.messages, 6, "drops are not charged");
    }

    #[test]
    fn invalid_fault_plans_are_errors_not_panics() {
        use crate::faults::{FaultEvent, FaultPlan, FaultResponse};

        let g = generators::cycle(6);
        for plan in [
            FaultPlan::new(FaultResponse::Restart).at(1, FaultEvent::Recover(NodeId::new(2))),
            FaultPlan::new(FaultResponse::Restart).at(0, FaultEvent::EdgeDown(EdgeId::new(g.m()))),
        ] {
            let opts = crate::RunOptions {
                faults: Some(plan),
                ..Default::default()
            };
            let err = run_congest(&RingToken { laps: 1 }, &g, None, &opts).unwrap_err();
            assert!(matches!(err, EngineError::InvalidFaultPlan { .. }), "{err}");
            let recorded =
                crate::trace::record_congest(&RingToken { laps: 1 }, &g, None, &opts, "t");
            assert_eq!(recorded.map(|_| ()).unwrap_err(), err);
        }
    }

    #[test]
    fn observer_reports_congest_inboxes_in_node_order() {
        let g = generators::cycle(5);
        let mut seen: Vec<(u32, usize)> = Vec::new();
        let run = run_congest_observed(
            &RingToken { laps: 1 },
            &g,
            None,
            &crate::RunOptions::default(),
            |v, r, inbox| {
                assert!(!inbox.is_empty());
                seen.push((v.raw(), r));
            },
        )
        .expect("observed ring run");
        assert_eq!(run.outputs[0], 1);
        // One delivery per hop, five hops.
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[0], (1, 0), "first hop lands at node 1 in round 0");
    }

    /// Node 0 sends one word to each neighbor in round 0. Every other node
    /// holds a timer for round `wake` that hearing anything cancels; with
    /// `stuck` set it never sends and answers `next_activity` with round 0
    /// forever instead.
    struct Sleeper {
        wake: usize,
        stuck: bool,
    }

    #[derive(Clone, Debug)]
    struct SleeperState {
        me: u32,
        neighbors: Vec<NodeId>,
        heard: bool,
        sent: bool,
    }

    impl CongestAlgorithm for Sleeper {
        type State = SleeperState;
        type Msg = u32;
        type Output = bool;

        fn name(&self) -> &'static str {
            "sleeper"
        }
        fn init(&self, view: &LocalView<'_>) -> SleeperState {
            SleeperState {
                me: view.node().raw(),
                neighbors: view.neighbors().to_vec(),
                heard: false,
                sent: false,
            }
        }
        fn sends(&self, s: &SleeperState, round: usize) -> Vec<(NodeId, u32)> {
            let armed = !s.sent && !s.heard && !self.stuck;
            if armed && (s.me == 0 || round >= self.wake) {
                s.neighbors.iter().map(|&u| (u, s.me)).collect()
            } else {
                Vec::new()
            }
        }
        fn on_sent(&self, s: &mut SleeperState, _round: usize) {
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
    }

    #[test]
    fn next_activity_in_the_past_hits_the_round_limit() {
        // Used to spin at round 0 forever: the idle skip set `round = 0`.
        let g = generators::path(3);
        let stuck = Sleeper {
            wake: 0,
            stuck: true,
        };
        let err = run_congest(&stuck, &g, None, &crate::RunOptions::default()).unwrap_err();
        assert!(
            matches!(err, EngineError::RoundLimitExceeded { .. }),
            "{err}"
        );
    }

    #[test]
    fn a_timer_cancelled_by_a_receive_does_not_outlive_the_run() {
        // The leaves' timers name a round far beyond the limit (80); the hub's
        // round-0 sends cancel them all, so the run is quiescent after one
        // round — their stale heap entries must not drag it to round 10⁶.
        let g = generators::star(6);
        let algo = Sleeper {
            wake: 1_000_000,
            stuck: false,
        };
        for threads in [1, 2] {
            let opts = crate::RunOptions {
                exec: crate::ExecutorConfig::with_threads(threads),
                ..Default::default()
            };
            let run = run_congest(&algo, &g, None, &opts).expect("quiescent after round 0");
            assert_eq!(run.metrics.rounds, 1);
            assert_eq!(run.metrics.messages, 5);
            assert_eq!(run.outputs, [false, true, true, true, true, true]);
        }
        // A timer nobody cancels is still honoured: on a path the far end
        // never hears node 0, and its wake-up round is past the limit.
        let err = run_congest(
            &algo,
            &generators::path(3),
            None,
            &crate::RunOptions::default(),
        );
        assert!(matches!(
            err.unwrap_err(),
            EngineError::RoundLimitExceeded { .. }
        ));
    }

    #[test]
    fn round_guard() {
        struct Spinner;
        #[derive(Clone, Debug)]
        struct S;
        impl CongestAlgorithm for Spinner {
            type State = S;
            type Msg = u32;
            type Output = ();
            fn name(&self) -> &'static str {
                "spinner"
            }
            fn init(&self, _: &LocalView<'_>) -> S {
                S
            }
            fn sends(&self, _: &S, _: usize) -> Vec<(NodeId, u32)> {
                Vec::new()
            }
            fn on_sent(&self, _: &mut S, _: usize) {}
            fn receive(&self, _: &mut S, _: usize, _: &[(NodeId, u32)]) {}
            fn is_done(&self, _: &S) -> bool {
                false
            }
            fn output(&self, _: &S) {}
            fn next_activity(&self, _: &S, after: usize) -> Option<usize> {
                Some(after) // claims activity forever, never sends
            }
            fn round_bound(&self, _: usize, _: usize) -> usize {
                8
            }
        }
        let g = generators::path(3);
        let err = run_congest(&Spinner, &g, None, &crate::RunOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::RoundLimitExceeded { .. }));
    }
}
