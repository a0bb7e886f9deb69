//! Israeli–Itai randomized maximal matching in BCONGEST (`O(log n)` rounds w.h.p.) —
//! the preprocessing step of the Ahmadi–Kuhn–Oshman maximum-matching algorithm
//! (Appendix A.1 uses it to compute the upper bound `s = 2|M̂| ≥ s*`).
//!
//! Each phase has three rounds:
//! 1. every free node with free neighbors *proposes* to a random free neighbor (the
//!    target is a pure function of seed, phase and the current free-neighbor set, so
//!    the broadcast schedule is self-driven);
//! 2. every free node that received proposals *accepts* the smallest-ID proposer;
//! 3. newly matched nodes broadcast `MatchedNow` so neighbors update their
//!    free-neighbor sets.

use congest_engine::{BcongestAlgorithm, LocalView, WireEncode};
use congest_graph::{rng, NodeId};
use std::collections::BTreeSet;

/// Messages of the Israeli–Itai algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchMsg {
    /// "I propose to the node with this ID."
    Propose(NodeId),
    /// "I accept the proposal of the node with this ID."
    Accept(NodeId),
    /// "I am now matched."
    MatchedNow,
}

impl WireEncode for MatchMsg {
    // Lane 0 is the variant tag; lane 1 the partner ID (zero for MatchedNow).
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        match self {
            MatchMsg::Propose(v) => {
                out[0] = 0;
                out[1] = v.raw();
            }
            MatchMsg::Accept(v) => {
                out[0] = 1;
                out[1] = v.raw();
            }
            MatchMsg::MatchedNow => {
                out[0] = 2;
                out[1] = 0;
            }
        }
    }
}

/// Israeli–Itai randomized maximal matching.
#[derive(Clone, Copy, Debug, Default)]
pub struct IsraeliItai;

/// Per-node state.
#[derive(Clone, Debug)]
pub struct IiState {
    partner: Option<NodeId>,
    free_neighbors: BTreeSet<NodeId>,
    my_id: NodeId,
    seed: u64,
    /// Phase of the last proposal sent.
    proposed_phase: Option<usize>,
    /// Whom this node proposed to in that phase.
    proposed_to: Option<NodeId>,
    /// Pending acceptance: (phase, proposer).
    accept_phase: Option<usize>,
    accept_to: Option<NodeId>,
    accept_sent: bool,
    /// Phase in which this node became matched (MatchedNow goes out in its round 2).
    matched_phase: Option<usize>,
    matched_sent: bool,
}

const SUBROUNDS: usize = 3;

impl IiState {
    /// Sender/receiver role for `phase` (a fresh coin per phase). Senders propose and
    /// never accept; receivers accept and never propose — this is what makes the
    /// handshake race-free: a receiver commits when accepting, and the accepted sender
    /// (who proposed to exactly one node) always honours it.
    fn is_sender(&self, phase: usize) -> bool {
        rng::derive(self.seed, 0x4949_1000 ^ phase as u64) & 1 == 1
    }

    /// The proposal target for `phase`: a uniform pick from the current free-neighbor
    /// set. Pure, so `broadcast` and `on_broadcast_sent` agree on it.
    fn target(&self, phase: usize) -> Option<NodeId> {
        if self.free_neighbors.is_empty() {
            return None;
        }
        let k = (rng::derive(self.seed, 0x4949_0000 ^ phase as u64) as usize)
            % self.free_neighbors.len();
        self.free_neighbors.iter().nth(k).copied()
    }

    fn wants_to_propose(&self, phase: usize) -> bool {
        self.is_sender(phase)
            && self.partner.is_none()
            && !self.free_neighbors.is_empty()
            && self.proposed_phase != Some(phase)
    }
}

impl BcongestAlgorithm for IsraeliItai {
    type State = IiState;
    type Msg = MatchMsg;
    type Output = Option<NodeId>;

    fn name(&self) -> &'static str {
        "israeli-itai"
    }

    fn init(&self, view: &LocalView<'_>) -> IiState {
        IiState {
            partner: None,
            free_neighbors: view.neighbors().iter().copied().collect(),
            my_id: view.node(),
            seed: view.seed(),
            proposed_phase: None,
            proposed_to: None,
            accept_phase: None,
            accept_to: None,
            accept_sent: false,
            matched_phase: None,
            matched_sent: false,
        }
    }

    fn broadcast(&self, s: &IiState, round: usize) -> Option<MatchMsg> {
        let phase = round / SUBROUNDS;
        match round % SUBROUNDS {
            0 => s
                .wants_to_propose(phase)
                .then(|| s.target(phase).map(MatchMsg::Propose))
                .flatten(),
            1 => (s.accept_phase == Some(phase) && !s.accept_sent)
                .then(|| s.accept_to.map(MatchMsg::Accept))
                .flatten(),
            _ => {
                (s.matched_phase == Some(phase) && !s.matched_sent).then_some(MatchMsg::MatchedNow)
            }
        }
    }

    fn on_broadcast_sent(&self, s: &mut IiState, round: usize) {
        let phase = round / SUBROUNDS;
        match round % SUBROUNDS {
            0 => {
                s.proposed_phase = Some(phase);
                s.proposed_to = s.target(phase);
            }
            1 => s.accept_sent = true,
            _ => s.matched_sent = true,
        }
    }

    fn receive(&self, s: &mut IiState, round: usize, msgs: &[(NodeId, MatchMsg)]) {
        let phase = round / SUBROUNDS;
        match round % SUBROUNDS {
            0 => {
                // Receivers accept the smallest-ID proposer (if still free).
                if s.partner.is_none() && !s.is_sender(phase) {
                    let mut best: Option<NodeId> = None;
                    for &(from, m) in msgs {
                        if m == MatchMsg::Propose(s.my_id)
                            && s.free_neighbors.contains(&from)
                            && best.is_none_or(|b| from < b)
                        {
                            best = Some(from);
                        }
                    }
                    if let Some(p) = best {
                        s.partner = Some(p);
                        s.accept_phase = Some(phase);
                        s.accept_to = Some(p);
                        s.accept_sent = false;
                        s.matched_phase = Some(phase);
                        s.matched_sent = false;
                    }
                }
            }
            1 => {
                if s.partner.is_none() && s.proposed_phase == Some(phase) {
                    if let Some(target) = s.proposed_to {
                        for &(from, m) in msgs {
                            if from == target && m == MatchMsg::Accept(s.my_id) {
                                s.partner = Some(target);
                                s.matched_phase = Some(phase);
                                s.matched_sent = false;
                            }
                        }
                    }
                }
            }
            _ => {
                for &(from, m) in msgs {
                    if m == MatchMsg::MatchedNow {
                        s.free_neighbors.remove(&from);
                    }
                }
            }
        }
    }

    fn is_done(&self, s: &IiState) -> bool {
        (s.partner.is_some() || s.free_neighbors.is_empty())
            && (s.accept_phase.is_none() || s.accept_sent)
            && (s.matched_phase.is_none() || s.matched_sent)
    }

    fn output(&self, s: &IiState) -> Option<NodeId> {
        s.partner
    }

    fn round_bound(&self, n: usize, _m: usize) -> usize {
        let log = (usize::BITS - n.max(2).leading_zeros()) as usize;
        SUBROUNDS * (40 * log + 40)
    }

    fn output_words(&self, _out: &Option<NodeId>) -> usize {
        1
    }
}

/// Extracts the matched pairs from per-node outputs, checking mutual consistency.
///
/// # Panics
///
/// Panics if outputs are inconsistent (u says partner v, but v disagrees).
pub fn matching_pairs(outputs: &[Option<NodeId>]) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for (i, &p) in outputs.iter().enumerate() {
        let u = NodeId::new(i);
        if let Some(v) = p {
            assert_eq!(
                outputs[v.index()],
                Some(u),
                "inconsistent matching at {u:?}"
            );
            if u < v {
                pairs.push((u, v));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::{generators, reference};

    #[test]
    fn maximal_on_families() {
        for (i, g) in [
            generators::gnp_connected(40, 0.1, 2),
            generators::complete(15),
            generators::path(20),
            generators::cycle(21),
            generators::star(12),
            generators::random_bipartite_connected(10, 12, 0.3, 3),
        ]
        .iter()
        .enumerate()
        {
            let opts = RunOptions {
                seed: 100 + i as u64,
                ..RunOptions::default()
            };
            let run = run_bcongest(&IsraeliItai, g, None, &opts).unwrap();
            let pairs = matching_pairs(&run.outputs);
            assert!(
                reference::is_maximal_matching(g, &pairs),
                "family {i}: {pairs:?}"
            );
        }
    }

    #[test]
    fn rounds_are_logarithmic_in_practice() {
        let g = generators::gnp_connected(60, 0.1, 7);
        let run = run_bcongest(&IsraeliItai, &g, None, &RunOptions::default()).unwrap();
        // O(log n) phases of 3 rounds; allow a generous constant.
        assert!(
            run.metrics.rounds <= 3 * 40 * 6,
            "rounds = {}",
            run.metrics.rounds
        );
    }

    #[test]
    fn edgeless_graph_finishes_instantly() {
        let g = congest_graph::Graph::from_edges(5, &[]);
        let run = run_bcongest(&IsraeliItai, &g, None, &RunOptions::default()).unwrap();
        assert!(run.outputs.iter().all(Option::is_none));
        assert_eq!(run.metrics.rounds, 0);
    }

    #[test]
    fn single_edge_matches() {
        let g = congest_graph::Graph::from_edges(2, &[(0, 1)]);
        let run = run_bcongest(&IsraeliItai, &g, None, &RunOptions::default()).unwrap();
        assert_eq!(run.outputs[0], Some(NodeId::new(1)));
        assert_eq!(run.outputs[1], Some(NodeId::new(0)));
    }
}
