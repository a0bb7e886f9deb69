//! The round loop, written once: guard → fault events → poll → `on_sent` →
//! deliver → `receive` → ask `next_activity` → idle-skip.
//!
//! Every execution in the workspace is this loop — the direct runner and,
//! through [`run_bcongest_over`](crate::run_bcongest_over), the paper's three
//! simulation theorems, which *are* the payload's BCONGEST execution with its
//! delivery replaced by a cheaper transport. It is generic, and monomorphised,
//! over the [`BcongestAlgorithm`] and the one thing that varies, the
//! [`Delivery`] — how a round's broadcasts become inboxes: [`OverPlane`] (the
//! [`FlatPlane`], one message over every incident edge, charging [`Metrics`]
//! per message and dropping what the fault mask forbids) or [`Transport`] (a
//! caller's closure, handed the round's ascending broadcaster list and the
//! inboxes to fill).
//!
//! The loop is event-driven: the agenda (`agenda.rs`) names the nodes to poll
//! each round and the delivery the nodes that received, so a round costs what
//! it sends, not `Θ(n)`. State init and the broadcast poll shard their
//! ascending node list into contiguous chunks via [`exec`] and merge
//! per-chunk results in fixed node order; delivery and the receive phase run
//! on the caller's thread in node order. So outputs and metrics are
//! byte-identical at every thread count.

use crate::agenda::Agenda;
use crate::error::EngineError;
use crate::exec;
use crate::faults::{FaultEvent, FaultResponse, FaultState, SurvivorMask};
use crate::metrics::Metrics;
use crate::plane::FlatPlane;
use crate::view::LocalView;
use crate::wire::WireEncode;
use crate::{BcongestAlgorithm, RunOptions};
use congest_graph::{rng, Graph, NodeId};

/// An inbox observer: `observe(node, round, inbox)` for every non-empty inbox.
pub(crate) type Observer<'a, Msg> = &'a mut dyn FnMut(NodeId, usize, &[(NodeId, Msg)]);

/// How one round's broadcasts reach the inboxes.
pub(crate) trait Delivery<A: BcongestAlgorithm> {
    /// Takes the round's broadcasters — ascending, possibly none — and fills
    /// the inboxes. Called once per executed round, empty ones included.
    fn deliver(
        &mut self,
        round: usize,
        senders: &[(NodeId, A::Msg)],
        mask: Option<&SurvivorMask>,
        metrics: &mut Metrics,
    ) -> Result<(), EngineError>;

    /// The nodes the last [`deliver`](Self::deliver) filled an inbox of,
    /// ascending; valid through the round's receive, until the next `deliver`.
    fn receivers(&self) -> &[u32];

    /// Applies `f(node, state, inbox)` to every receiver, in node order, and
    /// empties the inboxes. Returns whether any node received.
    fn receive(
        &mut self,
        states: &mut [A::State],
        f: impl FnMut(usize, &mut A::State, &[(NodeId, A::Msg)]),
    ) -> bool;
}

/// Delivery over the graph's own edges, through the flat message plane.
pub(crate) struct OverPlane<'a, Msg: WireEncode> {
    g: &'a Graph,
    plane: FlatPlane<Msg>,
}

impl<'a, Msg: WireEncode> OverPlane<'a, Msg> {
    pub(crate) fn new(g: &'a Graph) -> Self {
        Self {
            g,
            plane: FlatPlane::new(g.n()),
        }
    }
}

impl<A: BcongestAlgorithm> Delivery<A> for OverPlane<'_, A::Msg> {
    /// A broadcast crosses every incident edge, and each inbox receives its
    /// messages in sender order. Messages over down edges or to crashed
    /// receivers are dropped by the plane, at the single expansion point —
    /// never delivered, never charged, only counted.
    fn deliver(
        &mut self,
        _round: usize,
        senders: &[(NodeId, A::Msg)],
        mask: Option<&SurvivorMask>,
        metrics: &mut Metrics,
    ) -> Result<(), EngineError> {
        self.plane.deliver(self.g, senders, mask, metrics);
        Ok(())
    }

    fn receivers(&self) -> &[u32] {
        self.plane.receivers()
    }

    fn receive(
        &mut self,
        states: &mut [A::State],
        f: impl FnMut(usize, &mut A::State, &[(NodeId, A::Msg)]),
    ) -> bool {
        self.plane.receive(states, f)
    }
}

/// Delivery by a caller-supplied transport: `carry(round, senders, inboxes)`
/// pushes `(sender, msg)` pairs into `inboxes[receiver]` (one per node, all
/// empty on entry) and accounts for what moving them cost in its own books.
pub(crate) struct Transport<F, Msg> {
    carry: F,
    inboxes: Vec<Vec<(NodeId, Msg)>>,
    receivers: Vec<u32>,
}

impl<F, Msg> Transport<F, Msg> {
    pub(crate) fn new(n: usize, carry: F) -> Self {
        Self {
            carry,
            inboxes: std::iter::repeat_with(Vec::new).take(n).collect(),
            receivers: Vec::new(),
        }
    }
}

impl<A, F> Delivery<A> for Transport<F, A::Msg>
where
    A: BcongestAlgorithm,
    F: FnMut(usize, &[(NodeId, A::Msg)], &mut [Vec<(NodeId, A::Msg)>]) -> Result<(), EngineError>,
{
    fn deliver(
        &mut self,
        round: usize,
        senders: &[(NodeId, A::Msg)],
        _mask: Option<&SurvivorMask>,
        _metrics: &mut Metrics,
    ) -> Result<(), EngineError> {
        (self.carry)(round, senders, &mut self.inboxes)?;
        self.receivers.clear();
        let filled = self.inboxes.iter().enumerate();
        self.receivers
            .extend(filled.filter_map(|(u, inbox)| (!inbox.is_empty()).then_some(u as u32)));
        Ok(())
    }

    fn receivers(&self) -> &[u32] {
        &self.receivers
    }

    fn receive(
        &mut self,
        states: &mut [A::State],
        mut f: impl FnMut(usize, &mut A::State, &[(NodeId, A::Msg)]),
    ) -> bool {
        for &u in &self.receivers {
            let u = u as usize;
            f(u, &mut states[u], &self.inboxes[u]);
            self.inboxes[u].clear();
        }
        !self.receivers.is_empty()
    }
}

/// Runs `algo` on `g` until it quiesces, delivering through `delivery`;
/// returns the final states and the run's [`Metrics`] (`rounds`, `broadcasts`
/// and whatever the delivery charged).
pub(crate) fn run<A: BcongestAlgorithm, D: Delivery<A>>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &RunOptions,
    delivery: &mut D,
    mut observer: Option<Observer<'_, A::Msg>>,
) -> Result<(Vec<A::State>, Metrics), EngineError> {
    let n = g.n();
    let cfg = &opts.exec;
    let mut metrics = Metrics::new(g.m());
    let init_node = |i: usize| {
        let view = LocalView::new(g, weights, NodeId::new(i), rng::node_seed(opts.seed, i));
        algo.init(&view)
    };
    let mut states: Vec<A::State> =
        exec::map_ranges(cfg, n, |range| range.map(init_node).collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect();

    if let Some(plan) = &opts.faults {
        plan.validate(g)
            .map_err(|reason| EngineError::InvalidFaultPlan { reason })?;
    }
    let mut fault_rt: Option<FaultState<'_>> =
        opts.faults.as_ref().map(|plan| FaultState::new(plan, g));

    let base_limit = 4 * algo.round_bound(n, g.m()) + 64;
    let limit = match &opts.faults {
        // Every fault round can restart the algorithm from scratch, so the
        // guard scales with the number of fault rounds.
        Some(plan) => {
            (plan.fault_rounds().len() + 1) * base_limit + plan.last_fault_round().unwrap_or(0)
        }
        None => base_limit,
    };

    let mut agenda = Agenda::new(n);
    let mut senders: Vec<(NodeId, A::Msg)> = Vec::new();
    let mut round: usize = 0;
    let mut rounds_used: u64 = 0;

    loop {
        if round > limit {
            return Err(EngineError::RoundLimitExceeded {
                algorithm: algo.name(),
                limit,
            });
        }

        // 0. Apply fault events due this round, then the response policy.
        //    This runs sequentially before any phase fans out, so faulty runs
        //    stay byte-identical at every thread count. Either response may
        //    have rewritten any state, so every node is polled again.
        if let Some(fs) = fault_rt.as_mut() {
            let fired = fs.apply_due(round);
            if !fired.is_empty() {
                agenda.wake_all();
                match fs.response() {
                    FaultResponse::Restart => {
                        for (i, st) in states.iter_mut().enumerate() {
                            if fs.mask.node_up[i] {
                                *st = init_node(i);
                            }
                        }
                    }
                    FaultResponse::SelfHeal => {
                        for ev in &fired {
                            if let FaultEvent::Recover(v) = ev {
                                states[v.index()] = init_node(v.index());
                            }
                        }
                        for (i, st) in states.iter_mut().enumerate() {
                            if fs.mask.node_up[i] {
                                algo.on_fault(st, round);
                            }
                        }
                    }
                }
            }
        }

        // 1. Collect the broadcasts of the nodes scheduled for this round
        //    (pure reads, chunked over the ascending poll list; concatenating
        //    per-chunk batches in chunk order reproduces the sequential node
        //    order exactly), then apply send transitions. Crashed nodes send
        //    nothing.
        agenda.begin(round);
        let live = |i: usize| fault_rt.as_ref().is_none_or(|fs| fs.mask.node_up[i]);
        exec::collect_sends(cfg, agenda.poll(), &states, &mut senders, |i, st| {
            live(i).then(|| algo.broadcast(st, round)).flatten()
        });
        // The scheduler's soundness rests on `next_activity` never answering
        // late; debug builds check the whole contract every round.
        #[cfg(debug_assertions)]
        for i in agenda.unpolled().filter(|&i| live(i)) {
            assert!(
                algo.broadcast(&states[i], round).is_none(),
                "{}: node {i} would broadcast in round {round} but was not scheduled",
                algo.name(),
            );
        }
        for (v, _) in &senders {
            algo.on_broadcast_sent(&mut states[v.index()], round);
        }
        metrics.broadcasts += senders.len() as u64;

        // 2. Deliver, then 3. receive: per-node state transitions in node
        //    order, each inbox shown to the observer first when one is
        //    attached.
        let mask = fault_rt.as_ref().map(|fs| &fs.mask);
        delivery.deliver(round, &senders, mask, &mut metrics)?;
        let any_received = delivery.receive(&mut states, |i, st, inbox| {
            if let Some(obs) = observer.as_mut() {
                obs(NodeId::new(i), round, inbox);
            }
            algo.receive(st, round, inbox);
        });

        // 4. Reschedule every node something happened to: one
        //    `next_activity` question each. Crashed nodes claim no activity
        //    (their frozen state may still be "dirty").
        agenda.settle(round, delivery.receivers(), |i| {
            live(i)
                .then(|| algo.next_activity(&states[i], round + 1))
                .flatten()
        });

        // 5. Termination / idle-round skipping. Only rounds up to the last
        //    activity count: a real execution halts after its final message.
        if !senders.is_empty() || any_received {
            rounds_used = round as u64 + 1;
            round += 1;
            continue;
        }
        // The idle skip never goes backwards (the agenda clamps a past-round
        // `next_activity`) and never jumps past a scheduled fault round.
        let next_fault = fault_rt
            .as_ref()
            .and_then(|fs| fs.next_fault_round())
            .map(|r| r.max(round + 1));
        match agenda.next_round(round).into_iter().chain(next_fault).min() {
            Some(r) => round = r,
            None => break,
        }
    }

    metrics.rounds = rounds_used;
    Ok((states, metrics))
}
