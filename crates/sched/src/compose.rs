//! The congestion+dilation framework (Theorem 1.3, Ghaffari \[17\] / LMR \[26\]).
//!
//! Two composition modes:
//!
//! * [`compose_traces`] — a **real scheduler**: takes recorded per-round edge-usage
//!   traces of `ℓ` algorithms and produces a feasible joint schedule under per-edge
//!   capacity one message per direction per round, using random priorities and greedy
//!   admission (intra-algorithm round order is preserved, which is what makes
//!   replaying a recorded trace sound). The realized length is measured against
//!   `O(congestion + dilation · log n)`.
//! * [`compose_measured`] — Theorem 1.3 **accounting**: combines already-measured
//!   executions (congestion vectors + dilations) into the round/message totals the
//!   theorem guarantees for their joint schedule. Used where co-executing full
//!   simulations would be redundant — the schedule length is exactly the theorem's
//!   bound applied to realized (not worst-case) quantities. See DESIGN.md §2.

use congest_engine::faults::FaultState;
use congest_engine::{FaultPlan, FaultResponse, Metrics};
use congest_graph::{rng, EdgeId, Graph};
use rand::seq::SliceRandom;

/// A recorded execution trace: for each round, the directed edges used
/// (`(edge, from_canonical_u)` — `true` means the message went u→v for the canonical
/// endpoint order).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-round directed edge usage.
    pub rounds: Vec<Vec<(EdgeId, bool)>>,
}

impl Trace {
    /// The trace's dilation (its isolated running time).
    pub fn dilation(&self) -> usize {
        self.rounds.len()
    }

    /// Total messages in the trace.
    pub fn messages(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// Outcome of a joint schedule.
#[derive(Clone, Debug)]
pub struct Composed {
    /// Realized joint schedule length (rounds).
    pub rounds: u64,
    /// `congestion` = max over directed edges of total demanded messages.
    pub congestion: u64,
    /// `dilation` = max isolated running time.
    pub dilation: usize,
    /// Messages and per-edge congestion of the joint run.
    pub metrics: Metrics,
}

/// Schedules all `traces` together under per-edge capacity 1 (per direction, per
/// round): each global round admits, in seeded-random priority order, every
/// algorithm whose next recorded round fits in the remaining capacity. Preserves
/// each algorithm's internal round order.
pub fn compose_traces(g: &Graph, traces: &[Trace], seed: u64) -> Composed {
    compose_traces_faulty(g, traces, &FaultPlan::new(FaultResponse::Restart), seed)
}

/// [`compose_traces`] under a fault schedule: a directed edge can only be
/// granted in a global round where the plan's topology mask allows it (edge up,
/// both endpoints live — [`congest_engine::SurvivorMask::allows`]). Events
/// apply at the start of each global round, exactly like in the runners.
///
/// An algorithm whose next recorded round needs an unusable edge is held back
/// whole (preserving its internal round order). If no algorithm can advance
/// and a future fault round could change the mask, the schedule idles forward
/// to it; if the mask is final, the remaining recorded messages can never be
/// delivered and are charged to [`Metrics::dropped_messages`] instead.
///
/// With an empty plan this is exactly [`compose_traces`] (which delegates
/// here), including the seeded priority order.
///
/// # Panics
///
/// Panics if the plan fails [`FaultPlan::validate`].
pub fn compose_traces_faulty(g: &Graph, traces: &[Trace], plan: &FaultPlan, seed: u64) -> Composed {
    if let Err(e) = plan.validate(g) {
        panic!("invalid FaultPlan: {e}");
    }
    let mut metrics = Metrics::new(g.m());
    let dilation = traces.iter().map(Trace::dilation).max().unwrap_or(0);

    // Static congestion: total demand per directed edge (fault-blind — demand
    // exists whether or not the network can serve it).
    let mut demand = vec![0u64; 2 * g.m()];
    for t in traces {
        for round in &t.rounds {
            for &(e, dir) in round {
                demand[2 * e.index() + usize::from(dir)] += 1;
            }
        }
    }
    let congestion = demand.iter().copied().max().unwrap_or(0);

    let mut fault = FaultState::new(plan, g);
    let mut r = rng::seeded(rng::derive(seed, 0xc0de_0003));
    let mut next_round: Vec<usize> = vec![0; traces.len()];
    let mut live: Vec<usize> = (0..traces.len())
        .filter(|&j| !traces[j].rounds.is_empty())
        .collect();
    let mut used = vec![0u8; 2 * g.m()];
    let mut rounds: u64 = 0;
    let mut dropped: u64 = 0;

    while !live.is_empty() {
        fault.apply_due(rounds as usize);
        rounds += 1;
        used.fill(0);
        live.shuffle(&mut r);
        let mut advanced = false;
        let mut still_live = Vec::with_capacity(live.len());
        for &j in &live {
            let wanted = &traces[j].rounds[next_round[j]];
            let fits = wanted.iter().all(|&(e, dir)| {
                used[2 * e.index() + usize::from(dir)] == 0 && fault.mask.allows(g, e)
            });
            if fits {
                for &(e, dir) in wanted {
                    used[2 * e.index() + usize::from(dir)] = 1;
                    metrics.add_messages(e, 1);
                }
                next_round[j] += 1;
                advanced = true;
            }
            if next_round[j] < traces[j].rounds.len() {
                still_live.push(j);
            }
        }
        live = still_live;
        if !advanced && !live.is_empty() {
            match fault.next_fault_round() {
                // Stalled on unusable edges: idle forward to the round where
                // the mask next changes. (`apply_due` has consumed everything
                // at or before the current round, so this strictly advances.)
                Some(nf) => rounds = rounds.max(nf as u64),
                // The mask is final and still blocks every remaining round:
                // those messages are undeliverable — charge them as dropped.
                None => {
                    for &j in &live {
                        for round in &traces[j].rounds[next_round[j]..] {
                            dropped += round.len() as u64;
                        }
                    }
                    live.clear();
                }
            }
        }
    }

    metrics.rounds = rounds;
    metrics.dropped_messages = dropped;
    Composed {
        rounds,
        congestion,
        dilation,
        metrics,
    }
}

/// Theorem 1.3 accounting over already-measured executions: the joint schedule costs
/// `congestion + dilation·⌈log₂ n⌉` rounds (the theorem's bound applied to realized
/// congestion/dilation), total messages add, per-edge congestion adds.
pub fn compose_measured(g: &Graph, parts: &[Metrics]) -> Composed {
    let n = g.n();
    let mut metrics = Metrics::new(g.m());
    let mut dilation = 0u64;
    for p in parts {
        metrics.merge_parallel(p);
        dilation = dilation.max(p.rounds);
    }
    let congestion = metrics.max_congestion();
    let log = u64::from(usize::BITS - n.max(2).leading_zeros());
    metrics.rounds = congestion + dilation * log;
    Composed {
        rounds: metrics.rounds,
        congestion,
        dilation: dilation as usize,
        metrics,
    }
}

/// Records the trace of a BCONGEST execution (each broadcast uses all incident
/// edges in its round). Returns the run outputs together with the trace.
///
/// # Errors
///
/// Propagates engine errors from the run.
pub fn record_bcongest_trace<A: congest_engine::BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &congest_engine::RunOptions,
) -> Result<(congest_engine::BcongestRun<A::Output>, Trace), congest_engine::EngineError> {
    use std::cell::RefCell;
    let cells: RefCell<Vec<Vec<(EdgeId, bool)>>> = RefCell::new(Vec::new());
    let run =
        congest_engine::run_bcongest_observed(algo, g, weights, opts, |node, round, msgs| {
            let mut rounds = cells.borrow_mut();
            while rounds.len() <= round {
                rounds.push(Vec::new());
            }
            for (from, _) in msgs {
                let e = g.edge_between(*from, node).expect("messages follow edges");
                let (u, _) = g.endpoints(e);
                rounds[round].push((e, u == *from));
            }
        })?;
    let mut rounds = cells.into_inner();
    // Drop trailing empty rounds (idle-skipped gaps stay as explicit empty rounds,
    // preserving intra-algorithm timing).
    while rounds.last().is_some_and(Vec::is_empty) {
        rounds.pop();
    }
    Ok((run, Trace { rounds }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algos::bfs::Bfs;
    use congest_engine::RunOptions;
    use congest_graph::{generators, NodeId};

    fn single_edge_trace(e: EdgeId, rounds: usize) -> Trace {
        Trace {
            rounds: (0..rounds).map(|_| vec![(e, true)]).collect(),
        }
    }

    #[test]
    fn disjoint_traces_run_concurrently() {
        let g = generators::path(3);
        let t0 = single_edge_trace(EdgeId::new(0), 4);
        let t1 = single_edge_trace(EdgeId::new(1), 4);
        let c = compose_traces(&g, &[t0, t1], 1);
        assert_eq!(c.rounds, 4);
        assert_eq!(c.congestion, 4);
    }

    #[test]
    fn conflicting_traces_serialize() {
        let g = generators::path(2);
        let t = single_edge_trace(EdgeId::new(0), 3);
        let c = compose_traces(&g, &[t.clone(), t.clone(), t], 2);
        // 3 algorithms × 3 rounds over one directed edge: exactly 9 rounds.
        assert_eq!(c.rounds, 9);
        assert_eq!(c.congestion, 9);
        assert_eq!(c.metrics.messages, 9);
    }

    #[test]
    fn schedule_within_congestion_plus_dilation_log() {
        let g = generators::gnp_connected(25, 0.15, 5);
        // Record 6 BFS traces and co-schedule them.
        let traces: Vec<Trace> = (0..6)
            .map(|i| {
                let algo = Bfs::new(NodeId::new(i * 4));
                record_bcongest_trace(&algo, &g, None, &RunOptions::default())
                    .unwrap()
                    .1
            })
            .collect();
        let c = compose_traces(&g, &traces, 9);
        let log = u64::from(usize::BITS - g.n().leading_zeros());
        assert!(
            c.rounds <= c.congestion + (c.dilation as u64) * log,
            "rounds {} vs bound {}",
            c.rounds,
            c.congestion + (c.dilation as u64) * log
        );
        // Message totals are preserved by scheduling.
        let total: usize = traces.iter().map(Trace::messages).sum();
        assert_eq!(c.metrics.messages, total as u64);
    }

    #[test]
    fn compose_measured_shape() {
        let g = generators::path(5);
        let mut a = Metrics::new(g.m());
        a.rounds = 10;
        a.add_messages(EdgeId::new(0), 7);
        let mut b = Metrics::new(g.m());
        b.rounds = 4;
        b.add_messages(EdgeId::new(0), 5);
        let c = compose_measured(&g, &[a, b]);
        assert_eq!(c.congestion, 12);
        assert_eq!(c.dilation, 10);
        assert_eq!(c.metrics.messages, 12);
        let log = u64::from(usize::BITS - 5usize.leading_zeros());
        assert_eq!(c.rounds, 12 + 10 * log);
    }

    #[test]
    fn recorded_trace_matches_run_messages() {
        let g = generators::gnp_connected(20, 0.2, 3);
        let (run, trace) =
            record_bcongest_trace(&Bfs::new(NodeId::new(0)), &g, None, &RunOptions::default())
                .unwrap();
        assert_eq!(run.metrics.messages as usize, trace.messages());
        assert!(trace.dilation() as u64 <= run.metrics.rounds);
    }

    #[test]
    fn empty_traces_cost_nothing() {
        let g = generators::path(2);
        let c = compose_traces(&g, &[Trace::default()], 0);
        assert_eq!(c.rounds, 0);
        assert_eq!(c.metrics.messages, 0);
    }

    #[test]
    fn faulty_compose_with_empty_plan_matches_plain() {
        let g = generators::gnp_connected(25, 0.15, 5);
        let traces: Vec<Trace> = (0..5)
            .map(|i| {
                let algo = Bfs::new(NodeId::new(i * 3));
                record_bcongest_trace(&algo, &g, None, &RunOptions::default())
                    .unwrap()
                    .1
            })
            .collect();
        let plain = compose_traces(&g, &traces, 13);
        let faulty =
            compose_traces_faulty(&g, &traces, &FaultPlan::new(FaultResponse::SelfHeal), 13);
        assert_eq!(plain.rounds, faulty.rounds);
        assert_eq!(plain.congestion, faulty.congestion);
        assert_eq!(plain.dilation, faulty.dilation);
        assert_eq!(plain.metrics, faulty.metrics);
        assert_eq!(faulty.metrics.dropped_messages, 0);
    }

    #[test]
    fn downed_edge_delays_admission_until_recovery() {
        use congest_engine::FaultEvent;
        let g = generators::path(2);
        let t = single_edge_trace(EdgeId::new(0), 2);
        let plan = FaultPlan::new(FaultResponse::SelfHeal)
            .at(0, FaultEvent::EdgeDown(EdgeId::new(0)))
            .at(3, FaultEvent::EdgeUp(EdgeId::new(0)));
        let c = compose_traces_faulty(&g, &[t], &plan, 2);
        // Blocked at round 0, idles to the recovery round 3, then two rounds.
        assert_eq!(c.rounds, 5);
        assert_eq!(c.metrics.messages, 2);
        assert_eq!(c.metrics.dropped_messages, 0);
    }

    #[test]
    fn permanently_downed_edge_drops_remaining_demand() {
        use congest_engine::FaultEvent;
        let g = generators::path(3);
        let blocked = single_edge_trace(EdgeId::new(0), 2);
        let open = single_edge_trace(EdgeId::new(1), 3);
        let plan =
            FaultPlan::new(FaultResponse::SelfHeal).at(0, FaultEvent::EdgeDown(EdgeId::new(0)));
        let c = compose_traces_faulty(&g, &[blocked, open], &plan, 4);
        assert_eq!(c.metrics.messages, 3, "only the open edge delivers");
        assert_eq!(c.metrics.dropped_messages, 2, "blocked rounds are dropped");
        assert_eq!(c.rounds, 4, "three delivering rounds + the stall round");
        assert_eq!(c.congestion, 3, "demand is fault-blind");
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan")]
    fn faulty_compose_rejects_invalid_plans() {
        use congest_engine::FaultEvent;
        let g = generators::path(2);
        let plan =
            FaultPlan::new(FaultResponse::SelfHeal).at(0, FaultEvent::EdgeUp(EdgeId::new(0)));
        compose_traces_faulty(&g, &[], &plan, 0);
    }

    #[test]
    fn recorded_traces_identical_at_every_thread_count() {
        // Trace recording observes inboxes; the Theorem 1.3 accounting built
        // on those traces must therefore be invariant under the thread
        // count, exactly like run outputs and metrics.
        let g = generators::gnp_connected(22, 0.18, 7);
        let algo = Bfs::new(NodeId::new(0));
        let (base_run, base_trace) = record_bcongest_trace(&algo, &g, None, &RunOptions::default())
            .expect("one-thread trace");
        for threads in [2usize, 4, 8] {
            let opts = RunOptions {
                exec: congest_engine::ExecutorConfig::with_threads(threads),
                ..Default::default()
            };
            let (run, trace) =
                record_bcongest_trace(&algo, &g, None, &opts).expect("multi-thread trace");
            assert_eq!(base_run.outputs, run.outputs, "outputs @ {threads} threads");
            assert_eq!(base_run.metrics, run.metrics, "metrics @ {threads} threads");
            assert_eq!(
                base_trace.rounds, trace.rounds,
                "trace rounds @ {threads} threads"
            );
        }
    }
}
