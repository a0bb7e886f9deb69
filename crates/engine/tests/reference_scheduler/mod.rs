//! The scheduler the `Router` replaced, kept as its reference: it routes
//! [`Walk`]s, which the `properties` suite builds from the casts of a phase.

use congest_engine::{EngineError, Metrics};
use congest_graph::{EdgeId, Graph, NodeId};
use std::collections::VecDeque;

/// One routing task: deliver `words` words along `path`, a walk whose first
/// node is the source and last the destination. A single-node path delivers
/// locally for free.
#[derive(Clone, Debug)]
pub struct Walk {
    pub path: Vec<NodeId>,
    pub words: usize,
}

/// What [`reference_route`] measures: the schedule's metrics, and per walk
/// the round (1-based) its last word arrived in, or for a walk with nothing
/// to send, the round it was released in.
#[derive(Clone, Debug)]
pub struct Routed {
    pub metrics: Metrics,
    pub completion_round: Vec<u64>,
}

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
    tasks: &[Walk],
    after: &[Vec<usize>],
) -> Result<Routed, EngineError> {
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
    tasks: &[Walk],
    after: &[Vec<usize>],
    release: &[u64],
) -> Result<Routed, EngineError> {
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

    Ok(Routed {
        metrics,
        completion_round: completion,
    })
}
