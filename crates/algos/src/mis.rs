//! Luby's maximal independent set in BCONGEST — the paper's introductory example of a
//! broadcast-based algorithm whose message complexity (`Θ(m)` per phase) far exceeds
//! its broadcast complexity (`O(n)` per phase), making it a natural Theorem 2.1
//! payload.
//!
//! Each phase has three rounds:
//! 1. every undecided node broadcasts a fresh random priority (a pure function of its
//!    seed and the phase number, so the broadcast schedule is self-driven);
//! 2. local priority minima join the MIS and broadcast `Join`;
//! 3. nodes adjacent to a joiner leave and broadcast `Leave` (so neighbors can update
//!    their undecided-neighbor sets).

use congest_engine::{BcongestAlgorithm, LocalView, WireEncode};
use congest_graph::{rng, NodeId};
use std::collections::BTreeSet;

/// Messages of Luby's algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MisMsg {
    /// Phase priority draw.
    Priority(u64),
    /// "I joined the MIS."
    Join,
    /// "I left (a neighbor joined)."
    Leave,
}

impl WireEncode for MisMsg {
    // Lane 0 is the variant tag; lanes 1–2 carry the priority (Join/Leave
    // leave them zero).
    const LANES: usize = 3;
    fn encode(&self, out: &mut [u32]) {
        match self {
            MisMsg::Priority(p) => {
                out[0] = 0;
                p.encode(&mut out[1..]);
            }
            MisMsg::Join => {
                out[0] = 1;
                out[1] = 0;
                out[2] = 0;
            }
            MisMsg::Leave => {
                out[0] = 2;
                out[1] = 0;
                out[2] = 0;
            }
        }
    }
}

/// Node decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MisDecision {
    /// Still undecided (only possible if the round guard is hit).
    Undecided,
    /// In the independent set.
    In,
    /// Dominated by an MIS neighbor.
    Out,
}

/// Luby's randomized MIS.
#[derive(Clone, Copy, Debug, Default)]
pub struct LubyMis;

/// Per-node state.
#[derive(Clone, Debug)]
pub struct MisState {
    decision: MisDecision,
    /// Neighbors still undecided.
    undecided: BTreeSet<NodeId>,
    my_id: NodeId,
    seed: u64,
    /// Last phase in which the priority was broadcast.
    priority_sent_phase: Option<usize>,
    /// Phase in which this node joined (its `Join` goes out in that phase's round 1).
    join_phase: Option<usize>,
    join_sent: bool,
    /// Phase in which this node left (its `Leave` goes out in that phase's round 2).
    leave_phase: Option<usize>,
    leave_sent: bool,
}

const SUBROUNDS: usize = 3;

impl MisState {
    /// This node's priority for `phase` — a pure function, so `broadcast` needs no
    /// preparation tick.
    fn priority(&self, phase: usize) -> u64 {
        rng::derive(self.seed, 0x4d49_5000 ^ phase as u64)
    }
}

impl BcongestAlgorithm for LubyMis {
    type State = MisState;
    type Msg = MisMsg;
    type Output = MisDecision;

    fn name(&self) -> &'static str {
        "luby-mis"
    }

    fn init(&self, view: &LocalView<'_>) -> MisState {
        let undecided: BTreeSet<NodeId> = view.neighbors().iter().copied().collect();
        MisState {
            decision: if undecided.is_empty() {
                MisDecision::In // isolated nodes join immediately
            } else {
                MisDecision::Undecided
            },
            undecided,
            my_id: view.node(),
            seed: view.seed(),
            priority_sent_phase: None,
            join_phase: None,
            join_sent: false,
            leave_phase: None,
            leave_sent: false,
        }
    }

    fn broadcast(&self, s: &MisState, round: usize) -> Option<MisMsg> {
        let phase = round / SUBROUNDS;
        match round % SUBROUNDS {
            0 => (s.decision == MisDecision::Undecided
                && !s.undecided.is_empty()
                && s.priority_sent_phase != Some(phase))
            .then(|| MisMsg::Priority(s.priority(phase))),
            1 => (s.join_phase == Some(phase) && !s.join_sent).then_some(MisMsg::Join),
            _ => (s.leave_phase == Some(phase) && !s.leave_sent).then_some(MisMsg::Leave),
        }
    }

    fn on_broadcast_sent(&self, s: &mut MisState, round: usize) {
        let phase = round / SUBROUNDS;
        match round % SUBROUNDS {
            0 => s.priority_sent_phase = Some(phase),
            1 => s.join_sent = true,
            _ => s.leave_sent = true,
        }
    }

    fn receive(&self, s: &mut MisState, round: usize, msgs: &[(NodeId, MisMsg)]) {
        let phase = round / SUBROUNDS;
        match round % SUBROUNDS {
            0 => {
                if s.decision != MisDecision::Undecided {
                    return;
                }
                // Senders of priorities are undecided by definition of the schedule.
                let best = msgs
                    .iter()
                    .filter_map(|&(from, m)| match m {
                        MisMsg::Priority(p) => Some((p, from)),
                        _ => None,
                    })
                    .min();
                let me = (s.priority(phase), s.my_id);
                if best.is_none_or(|b| me < b) {
                    s.decision = MisDecision::In;
                    s.join_phase = Some(phase);
                    s.join_sent = false;
                }
            }
            1 => {
                let mut neighbor_joined = false;
                for &(from, m) in msgs {
                    if m == MisMsg::Join {
                        s.undecided.remove(&from);
                        neighbor_joined = true;
                    }
                }
                if neighbor_joined && s.decision == MisDecision::Undecided {
                    s.decision = MisDecision::Out;
                    s.leave_phase = Some(phase);
                    s.leave_sent = false;
                }
            }
            _ => {
                for &(from, m) in msgs {
                    if m == MisMsg::Leave {
                        s.undecided.remove(&from);
                    }
                }
                // All neighbors decided Out ⇒ joining is safe, and nobody needs to be
                // told (every neighbor is already decided).
                if s.decision == MisDecision::Undecided && s.undecided.is_empty() {
                    s.decision = MisDecision::In;
                }
            }
        }
    }

    fn is_done(&self, s: &MisState) -> bool {
        s.decision != MisDecision::Undecided
            && (s.join_phase.is_none() || s.join_sent)
            && (s.leave_phase.is_none() || s.leave_sent)
    }

    fn output(&self, s: &MisState) -> MisDecision {
        s.decision
    }

    fn round_bound(&self, n: usize, _m: usize) -> usize {
        let log = (usize::BITS - n.max(2).leading_zeros()) as usize;
        SUBROUNDS * (20 * log + 20)
    }

    fn output_words(&self, _out: &MisDecision) -> usize {
        1
    }
}

/// Validates that `decisions` is a maximal independent set of `g`.
pub fn is_valid_mis(g: &congest_graph::Graph, decisions: &[MisDecision]) -> bool {
    // Independence.
    for (_, u, v) in g.edges() {
        if decisions[u.index()] == MisDecision::In && decisions[v.index()] == MisDecision::In {
            return false;
        }
    }
    // Maximality & decidedness: every node is In, or Out with an In neighbor.
    for v in g.nodes() {
        match decisions[v.index()] {
            MisDecision::In => {}
            MisDecision::Out => {
                if !g
                    .neighbors(v)
                    .iter()
                    .any(|u| decisions[u.index()] == MisDecision::In)
                {
                    return false;
                }
            }
            MisDecision::Undecided => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::generators;

    #[test]
    fn valid_mis_on_families() {
        for (i, g) in [
            generators::gnp_connected(40, 0.1, 1),
            generators::complete(12),
            generators::path(17),
            generators::star(9),
            generators::grid(6, 5),
        ]
        .iter()
        .enumerate()
        {
            let opts = RunOptions {
                seed: i as u64,
                ..RunOptions::default()
            };
            let run = run_bcongest(&LubyMis, g, None, &opts).unwrap();
            assert!(is_valid_mis(g, &run.outputs), "family {i}");
        }
    }

    #[test]
    fn complete_graph_has_one_in() {
        let g = generators::complete(10);
        let run = run_bcongest(&LubyMis, &g, None, &RunOptions::default()).unwrap();
        let ins = run
            .outputs
            .iter()
            .filter(|&&d| d == MisDecision::In)
            .count();
        assert_eq!(ins, 1);
    }

    #[test]
    fn isolated_nodes_join() {
        let g = congest_graph::Graph::from_edges(3, &[(0, 1)]);
        let run = run_bcongest(&LubyMis, &g, None, &RunOptions::default()).unwrap();
        assert_eq!(run.outputs[2], MisDecision::In);
    }

    #[test]
    fn broadcast_complexity_much_less_than_messages_on_dense() {
        let g = generators::complete(20);
        let run = run_bcongest(&LubyMis, &g, None, &RunOptions::default()).unwrap();
        // Dense graph: messages = Θ(B · n); the gap Theorem 2.1 exploits.
        assert!(run.metrics.messages >= run.metrics.broadcasts * 10);
    }

    #[test]
    fn different_seeds_give_valid_but_possibly_different_sets() {
        let g = generators::gnp_connected(30, 0.15, 5);
        for seed in 0..5 {
            let opts = RunOptions {
                seed,
                ..RunOptions::default()
            };
            let run = run_bcongest(&LubyMis, &g, None, &opts).unwrap();
            assert!(is_valid_mis(&g, &run.outputs), "seed {seed}");
        }
    }
}
