//! The scheduler [`Router`](super::Router) replaced, kept as its reference, and
//! the random batches both are driven with. Shared by the `properties` suite
//! and the router's own unit tests (`#[path]`-included there, since
//! prerequisites are a crate-private column); it names its types through
//! `super`, so either parent supplies them.

use super::{EdgeId, EngineError, Graph, Metrics, NodeId, RouteReport, RouteTask};
use proptest::prelude::*;
use rand::Rng;
use std::collections::VecDeque;

/// The reference scheduler: one `VecDeque` per directed edge, every table
/// rebuilt per call, each hop an `edge_between` search. A round sends the head
/// of every active queue in `active` order, keeps the still-non-empty edges
/// first, then enqueues the arrivals in send order.
///
/// `after` is empty or names each task's prerequisites, earlier tasks. Round 0
/// releases the tasks without one, in task order. Each task that completes —
/// in a round, in the order its last word arrived — counts down the tasks
/// naming it, in task order (once per naming), and one whose count reaches
/// zero is released. Releasing a task queues one packet per word on its first
/// edge; a released task with nothing to send completes at once, and what it
/// releases goes behind everything already released that round.
pub fn reference_route(
    g: &Graph,
    tasks: &[RouteTask],
    after: &[Vec<usize>],
) -> Result<RouteReport, EngineError> {
    reference_route_timed(g, tasks, after, &[])
}

/// [`reference_route`] where a task may also wait for a release round
/// (`release` is empty, or has one entry per task; 0 = none). A release
/// round counts as one more prerequisite, which completes after that round's
/// arrivals, ahead of the tasks completing in it; round by round, due release
/// rounds count down in task order. With nothing in flight the schedule idles
/// to the next release round.
pub fn reference_route_timed(
    g: &Graph,
    tasks: &[RouteTask],
    after: &[Vec<usize>],
    release: &[u64],
) -> Result<RouteReport, EngineError> {
    // Directed edge index: 2*e for canonical u->v, 2*e+1 for v->u.
    let mut seqs: Vec<Vec<usize>> = Vec::with_capacity(tasks.len());
    for (task, t) in tasks.iter().enumerate() {
        let mut seq = Vec::new();
        for w in t.path.windows(2) {
            let e = g
                .edge_between(w[0], w[1])
                .ok_or(EngineError::InvalidPath { task })?;
            seq.push(2 * e.index() + usize::from(g.endpoints(e).0 != w[0]));
        }
        seqs.push(seq);
    }

    let mut metrics = Metrics::new(g.m());
    let mut completion = vec![0u64; tasks.len()];
    let dilation = seqs.iter().map(Vec::len).max().unwrap_or(0);

    let mut planned = vec![0u64; 2 * g.m()];
    for (t, seq) in tasks.iter().zip(&seqs) {
        for &d in seq {
            planned[d] += t.words as u64;
        }
    }
    let congestion = planned.iter().copied().max().unwrap_or(0);

    let timed = |t: usize| release.get(t).is_some_and(|&r| r > 0);
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    let mut pending: Vec<usize> = Vec::with_capacity(tasks.len());
    let mut released: VecDeque<usize> = VecDeque::new();
    for t in 0..tasks.len() {
        let prerequisites = after.get(t).map_or(&[][..], Vec::as_slice);
        for &a in prerequisites {
            dependents[a].push(t);
        }
        pending.push(prerequisites.len() + usize::from(timed(t)));
        if pending[t] == 0 {
            released.push_back(t);
        }
    }
    let mut timers: Vec<(u64, usize)> = (0..tasks.len())
        .filter(|&t| timed(t))
        .map(|t| (release[t], t))
        .collect();
    timers.sort_unstable();
    let mut timers: VecDeque<(u64, usize)> = timers.into();
    // The release rounds due in `round` count down first.
    let fire = |round: u64,
                timers: &mut VecDeque<(u64, usize)>,
                pending: &mut [usize],
                released: &mut VecDeque<usize>| {
        while timers.front().is_some_and(|&(r, _)| r == round) {
            let (_, t) = timers.pop_front().expect("checked");
            pending[t] -= 1;
            if pending[t] == 0 {
                released.push_back(t);
            }
        }
    };
    // A completed task counts its dependents down; those reaching zero go out.
    let count_down = |x: usize, pending: &mut [usize], released: &mut VecDeque<usize>| {
        for &d in &dependents[x] {
            pending[d] -= 1;
            if pending[d] == 0 {
                released.push_back(d);
            }
        }
    };

    // Packet = (task, hop index next to traverse). Each word is its own packet.
    let mut queues: Vec<VecDeque<(usize, usize)>> = vec![VecDeque::new(); 2 * g.m()];
    let mut is_active = vec![false; 2 * g.m()];
    let mut active: Vec<usize> = Vec::new();
    let mut outstanding: Vec<usize> = tasks.iter().map(|t| t.words).collect();
    let mut remaining_packets = 0usize;
    let mut round: u64 = 0;
    loop {
        while let Some(i) = released.pop_front() {
            let seq = &seqs[i];
            if seq.is_empty() || tasks[i].words == 0 {
                outstanding[i] = 0;
                completion[i] = round;
                count_down(i, &mut pending, &mut released);
                continue;
            }
            for _ in 0..tasks[i].words {
                queues[seq[0]].push_back((i, 0));
                remaining_packets += 1;
            }
            if !is_active[seq[0]] {
                is_active[seq[0]] = true;
                active.push(seq[0]);
            }
        }
        if remaining_packets == 0 {
            match timers.front() {
                Some(&(r, _)) => {
                    round = r;
                    fire(round, &mut timers, &mut pending, &mut released);
                    continue;
                }
                None => break,
            }
        }
        round += 1;
        fire(round, &mut timers, &mut pending, &mut released);
        let mut arrivals: Vec<(usize, usize)> = Vec::with_capacity(active.len());
        let mut survivors: Vec<usize> = Vec::with_capacity(active.len());
        for &d in &active {
            let (task, hop) = queues[d].pop_front().expect("active queues are non-empty");
            metrics.add_messages(EdgeId::new(d / 2), 1);
            arrivals.push((task, hop + 1));
            if queues[d].is_empty() {
                is_active[d] = false;
            } else {
                survivors.push(d);
            }
        }
        active = survivors;
        for (task, hop) in arrivals {
            if hop == seqs[task].len() {
                outstanding[task] -= 1;
                remaining_packets -= 1;
                if outstanding[task] == 0 {
                    completion[task] = round;
                    count_down(task, &mut pending, &mut released);
                }
            } else {
                let d = seqs[task][hop];
                queues[d].push_back((task, hop));
                if !is_active[d] {
                    is_active[d] = true;
                    active.push(d);
                }
            }
        }
    }
    metrics.rounds = round;

    Ok(RouteReport {
        metrics,
        completion_round: completion,
        dilation,
        congestion,
    })
}

/// Every field of the two reports, the per-edge congestion vector included
/// (`Metrics: PartialEq` compares it).
pub fn assert_same_report(got: &RouteReport, want: &RouteReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.metrics, &want.metrics);
    prop_assert_eq!(&got.completion_round, &want.completion_round);
    prop_assert_eq!(got.dilation, want.dilation);
    prop_assert_eq!(got.congestion, want.congestion);
    Ok(())
}

/// A random walk of `hops` hops from `from` (it may revisit nodes and edges).
fn random_walk(g: &Graph, r: &mut impl Rng, from: NodeId, hops: usize) -> Vec<NodeId> {
    let mut path = vec![from];
    for _ in 0..hops {
        let nbrs = g.neighbors(*path.last().expect("non-empty"));
        path.push(nbrs[r.random_range(0..nbrs.len())]);
    }
    path
}

/// `k` random tasks over connected `g` (n ≥ 2), words in `0..=5`: random walks
/// of 0..=7 hops (0 hops = a single-node path), mixed with the shapes the FIFO
/// order is sensitive to — walks that all start across one shared edge, and
/// the same edge crossed in the opposite direction.
pub fn random_batch(g: &Graph, r: &mut impl Rng, k: usize) -> Vec<RouteTask> {
    let (a, b) = g.endpoints(EdgeId::new(r.random_range(0..g.m())));
    (0..k)
        .map(|_| {
            let hops = r.random_range(0..=7usize);
            let path = match r.random_range(0..4u32) {
                0 => {
                    let mut p = vec![a];
                    p.extend(random_walk(g, r, b, hops));
                    p
                }
                1 => {
                    let mut p = vec![b];
                    p.extend(random_walk(g, r, a, hops));
                    p
                }
                _ => {
                    let from = NodeId::new(r.random_range(0..g.n()));
                    random_walk(g, r, from, hops)
                }
            };
            RouteTask {
                path,
                words: r.random_range(0..=5usize),
            }
        })
        .collect()
}
