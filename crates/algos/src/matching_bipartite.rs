//! Exact bipartite maximum matching in BCONGEST — the Ahmadi–Kuhn–Oshman algorithm
//! (paper Appendix A.1), the payload of Corollary 2.8.
//!
//! Structure (one big state machine; every node derives the same absolute-round
//! schedule, first from `n` and then from the matching bound `s`):
//!
//! 1. **Prelude** — elect a leader + BFS tree (min-ID flood), learn tree children,
//!    compute a maximal matching `M̂` (Israeli–Itai), convergecast the matched-node
//!    count `s = 2|M̂| ≥ s*`, and broadcast `s` to everyone.
//! 2. **Phases** `i = 0..s-1`, each with four stages of length `b_i = Θ(⌈s/(s-i)⌉)`:
//!    * **explore** — free nodes flood alternating-path waves (odd hops over
//!      non-matching edges, even hops over matching edges; each node propagates only
//!      the first wave it receives). Completions are detected when a wave reaches a
//!      free node, or when two waves cross on an edge (both endpoints broadcast over
//!      it in the same round);
//!    * **backward** — completion labels (lexicographically canonical 4-tuples
//!      `(source_a, source_b, edge_a, edge_b)`) propagate back along wave-predecessor
//!      chains; each node adopts only the smallest label it sees, so the globally
//!      smallest label always survives;
//!    * **probe** — the smaller endpoint of the smallest completed label walks the
//!      recorded path to the other endpoint, verifying every hop still holds the label
//!      (this is what makes concurrent augmentations of overlapping paths impossible);
//!    * **commit** — the far endpoint walks back, toggling matched/unmatched along the
//!      augmenting path (the symmetric difference `M ⊕ P`).
//!
//! Hopcroft–Karp's short-augmenting-path bound (quoted as a corollary in the paper)
//! guarantees the growing budgets `b_i` always suffice, so after phase `s-1` the
//! matching is maximum. Total: `O(n log n)` rounds w.h.p. and `O(n)` broadcasts per
//! phase ⇒ broadcast complexity `O(n²)` — exactly what Corollary 2.8 feeds into
//! Theorem 2.1.

use congest_engine::{BcongestAlgorithm, LocalView, WireEncode};
use congest_graph::{rng, NodeId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A canonical augmenting-path label: `(sa, sb)` are the two free endpoints (wave
/// sources), `(ea, eb)` the endpoints of the detection edge on the `sa`/`sb` side
/// respectively. Canonical form has `sa < sb`; labels are compared lexicographically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PathLabel {
    sa: u32,
    sb: u32,
    ea: u32,
    eb: u32,
}

impl PathLabel {
    fn canonical(sa: u32, ea: u32, sb: u32, eb: u32) -> Self {
        if sa <= sb {
            Self { sa, sb, ea, eb }
        } else {
            Self {
                sa: sb,
                sb: sa,
                ea: eb,
                eb: ea,
            }
        }
    }
}

/// Messages of the AKO algorithm. Every variant carries a constant number of IDs and
/// therefore fits in one `O(log n)`-bit message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AkoMsg {
    /// Prelude: min-ID flooding (candidate leader, sender's distance).
    Leader { leader: u32, dist: u32 },
    /// Prelude: announce the BFS-tree parent (so parents learn their children).
    ParentIs(NodeId),
    /// Israeli–Itai proposal.
    Propose(NodeId),
    /// Israeli–Itai acceptance.
    Accept(NodeId),
    /// Israeli–Itai "I'm matched now".
    MatchedNow,
    /// Convergecast: subtree count of matched nodes.
    Count(u32),
    /// Broadcast of the matching bound `s`.
    SizeIs(u32),
    /// Exploration wave for the BFS from free node `src`; `via_matching` tells
    /// receivers which edge type this hop is allowed to use.
    Wave { src: u32, via_matching: bool },
    /// Backward propagation of a completed label, addressed to `to`.
    Backward { label: PathLabel, to: NodeId },
    /// Forward probe of the smallest label, addressed to `to`.
    Probe { label: PathLabel, to: NodeId },
    /// Commit walk (augmentation), addressed to `to`.
    Commit { label: PathLabel, to: NodeId },
}

impl WireEncode for AkoMsg {
    // Lane 0 is the variant tag; lanes 1–5 carry up to a `PathLabel` plus an
    // addressee (the widest variants); narrower variants leave the rest zero.
    const LANES: usize = 6;
    fn encode(&self, out: &mut [u32]) {
        out.fill(0);
        match *self {
            AkoMsg::Leader { leader, dist } => {
                out[0] = 0;
                out[1] = leader;
                out[2] = dist;
            }
            AkoMsg::ParentIs(v) => {
                out[0] = 1;
                out[1] = v.raw();
            }
            AkoMsg::Propose(v) => {
                out[0] = 2;
                out[1] = v.raw();
            }
            AkoMsg::Accept(v) => {
                out[0] = 3;
                out[1] = v.raw();
            }
            AkoMsg::MatchedNow => out[0] = 4,
            AkoMsg::Count(c) => {
                out[0] = 5;
                out[1] = c;
            }
            AkoMsg::SizeIs(s) => {
                out[0] = 6;
                out[1] = s;
            }
            AkoMsg::Wave { src, via_matching } => {
                out[0] = 7;
                out[1] = src;
                out[2] = u32::from(via_matching);
            }
            AkoMsg::Backward { label, to } => Self::encode_labelled(8, label, to, out),
            AkoMsg::Probe { label, to } => Self::encode_labelled(9, label, to, out),
            AkoMsg::Commit { label, to } => Self::encode_labelled(10, label, to, out),
        }
    }
}

impl AkoMsg {
    fn encode_labelled(tag: u32, label: PathLabel, to: NodeId, out: &mut [u32]) {
        out[0] = tag;
        out[1] = label.sa;
        out[2] = label.sb;
        out[3] = label.ea;
        out[4] = label.eb;
        out[5] = to.raw();
    }
}

/// The Ahmadi–Kuhn–Oshman exact bipartite maximum matching algorithm.
///
/// The input graph must be bipartite (validated by the caller/tests; on non-bipartite
/// inputs the result is a matching, but not necessarily maximum).
#[derive(Clone, Copy, Debug, Default)]
pub struct BipartiteMatching;

/// The absolute-round schedule, derivable by every node from `n` (and later `s`).
#[derive(Clone, Copy, Debug)]
struct Schedule {
    n: usize,
}

impl Schedule {
    fn new(n: usize) -> Self {
        Self { n }
    }

    fn ii_phases(&self) -> usize {
        let log = (usize::BITS - self.n.max(2).leading_zeros()) as usize;
        8 * log + 16
    }

    /// End of leader election (min-ID flood stabilizes within n rounds).
    fn leader_end(&self) -> usize {
        self.n + 4
    }

    /// The round in which everyone announces their tree parent.
    fn parent_round(&self) -> usize {
        self.leader_end()
    }

    fn ii_start(&self) -> usize {
        self.parent_round() + 1
    }

    fn ii_end(&self) -> usize {
        self.ii_start() + 3 * self.ii_phases()
    }

    fn count_end(&self) -> usize {
        self.ii_end() + self.n + 4
    }

    fn prelude_end(&self) -> usize {
        self.count_end() + self.n + 4
    }

    /// Stage length of phase `i` when the bound is `s`.
    fn stage_len(&self, s: usize, i: usize) -> usize {
        4 * s.div_ceil(s - i) + 12
    }

    /// Cumulative phase starts (s + 1 entries, last = end of the algorithm).
    fn phase_starts(&self, s: usize) -> Vec<usize> {
        let mut starts = Vec::with_capacity(s + 1);
        let mut t = self.prelude_end();
        starts.push(t);
        for i in 0..s {
            t += 4 * self.stage_len(s, i);
            starts.push(t);
        }
        starts
    }
}

/// Which stage of a phase a round falls in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Explore,
    Backward,
    Probe,
    Commit,
}

/// Per-phase scratch state, reset lazily at each phase boundary.
#[derive(Clone, Debug, Default)]
struct PhaseScratch {
    /// Which phase this scratch belongs to.
    phase: usize,
    /// Wave adopted by this node: (source, predecessor, round the wave arrived).
    wave_src: Option<u32>,
    wave_pred: Option<NodeId>,
    /// Round at which this node (re)broadcasts its wave, and with which edge type.
    wave_prop_round: Option<usize>,
    wave_via_matching: bool,
    wave_sent: bool,
    /// Backward initiations this node owes (label → first backward hop).
    backward_inits: BTreeMap<PathLabel, NodeId>,
    /// Smallest label this node has back-propagated (and to whom it must forward).
    back_label: Option<PathLabel>,
    back_succ: Option<NodeId>,
    back_sent_for: Option<PathLabel>,
    /// Labels whose Backward reached this node as a wave source (label → succ).
    completed_at_source: BTreeMap<PathLabel, NodeId>,
    probe_initiated: bool,
    commit_initiated: bool,
}

/// Per-node state of [`BipartiteMatching`].
#[derive(Clone, Debug)]
pub struct AkoState {
    me: NodeId,
    n: usize,
    seed: u64,
    degree: usize,
    // Leader election / tree.
    leader_best: u32,
    leader_dist: u32,
    leader_parent: Option<NodeId>,
    leader_dirty: bool,
    children: BTreeSet<NodeId>,
    parent_announced: bool,
    // Israeli–Itai.
    partner: Option<NodeId>,
    ii_free_neighbors: BTreeSet<NodeId>,
    ii_proposed_phase: Option<usize>,
    ii_proposed_to: Option<NodeId>,
    ii_accept_phase: Option<usize>,
    ii_accept_to: Option<NodeId>,
    ii_accept_sent: bool,
    ii_matched_phase: Option<usize>,
    ii_matched_sent: bool,
    // Counting.
    pending_children: BTreeSet<NodeId>,
    child_count_sum: u32,
    count_sent: bool,
    s_bound: Option<u32>,
    size_forwarded: bool,
    phase_starts: Vec<usize>,
    // Phases.
    scratch: PhaseScratch,
    /// Reactive sends (wave forwards, backward/probe/commit forwards).
    pending: VecDeque<AkoMsg>,
}

impl AkoState {
    fn sched(&self) -> Schedule {
        Schedule::new(self.n)
    }

    /// Phase/stage/offset of an absolute round, once `s` is known.
    fn locate(&self, round: usize) -> Option<(usize, Stage, usize)> {
        let s = self.s_bound? as usize;
        if s == 0 || self.phase_starts.is_empty() {
            return None;
        }
        let end = *self.phase_starts.last().expect("non-empty");
        if round < self.phase_starts[0] || round >= end {
            return None;
        }
        let phase = match self.phase_starts.binary_search(&round) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let len = self.sched().stage_len(s, phase);
        let off = round - self.phase_starts[phase];
        let stage = match off / len {
            0 => Stage::Explore,
            1 => Stage::Backward,
            2 => Stage::Probe,
            _ => Stage::Commit,
        };
        Some((phase, stage, off % len))
    }

    /// Lazily resets the per-phase scratch when entering a new phase.
    fn ensure_phase(&mut self, round: usize) {
        if let Some((phase, _, _)) = self.locate(round) {
            if self.scratch.phase != phase {
                self.scratch = PhaseScratch {
                    phase,
                    ..PhaseScratch::default()
                };
                self.pending.clear();
            }
        }
    }

    /// The scratch, viewed as empty if it belongs to an older phase.
    fn scratch_for(&self, round: usize) -> Option<&PhaseScratch> {
        let (phase, _, _) = self.locate(round)?;
        (self.scratch.phase == phase).then_some(&self.scratch)
    }

    fn is_free(&self) -> bool {
        self.partner.is_none()
    }

    /// Sender/receiver role for Israeli–Itai `phase` (see
    /// [`matching_maximal`](crate::matching_maximal) for why roles make the handshake
    /// race-free).
    fn ii_is_sender(&self, phase: usize) -> bool {
        rng::derive(self.seed, 0x414b_4f10 ^ phase as u64) & 1 == 1
    }

    /// The Israeli–Itai proposal target for `phase` — pure, so `broadcast` and
    /// `on_broadcast_sent` agree on it without a preparation tick.
    fn ii_target(&self, phase: usize) -> Option<NodeId> {
        if self.ii_free_neighbors.is_empty() {
            return None;
        }
        let k = (rng::derive(self.seed, 0x414b_4f00 ^ phase as u64) as usize)
            % self.ii_free_neighbors.len();
        self.ii_free_neighbors.iter().nth(k).copied()
    }

    /// Smallest completed label whose probe this node must initiate (it is the
    /// smaller endpoint `sa`). A free endpoint engages in at most one augmentation
    /// per phase, so both probe and commit initiation share the engagement gate.
    fn probe_duty(&self, round: usize) -> Option<(PathLabel, NodeId)> {
        let sc = self.scratch_for(round)?;
        if sc.probe_initiated || sc.commit_initiated {
            return None;
        }
        sc.completed_at_source
            .iter()
            .find(|(l, _)| l.sa == self.me.raw())
            .map(|(l, succ)| (*l, *succ))
    }

    /// Whether this node still owes its one backward-initiation broadcast. The
    /// backward target was recorded at detection time (the wave predecessor for
    /// crossing detections at relays; the final-hop sender for free-endpoint
    /// detections).
    fn backward_duty(&self, round: usize) -> Option<AkoMsg> {
        let sc = self.scratch_for(round)?;
        if sc.back_sent_for.is_some() {
            return None;
        }
        let (label, to) = sc.backward_inits.iter().next()?;
        Some(AkoMsg::Backward {
            label: *label,
            to: *to,
        })
    }
}

impl BcongestAlgorithm for BipartiteMatching {
    type State = AkoState;
    type Msg = AkoMsg;
    type Output = Option<NodeId>;

    fn name(&self) -> &'static str {
        "ako-bipartite-matching"
    }

    fn init(&self, view: &LocalView<'_>) -> AkoState {
        AkoState {
            me: view.node(),
            n: view.n(),
            seed: view.seed(),
            degree: view.degree(),
            leader_best: view.node().raw(),
            leader_dist: 0,
            leader_parent: None,
            leader_dirty: true,
            children: BTreeSet::new(),
            parent_announced: false,
            partner: None,
            ii_free_neighbors: view.neighbors().iter().copied().collect(),
            ii_proposed_phase: None,
            ii_proposed_to: None,
            ii_accept_phase: None,
            ii_accept_to: None,
            ii_accept_sent: false,
            ii_matched_phase: None,
            ii_matched_sent: false,
            pending_children: BTreeSet::new(),
            child_count_sum: 0,
            count_sent: false,
            s_bound: None,
            size_forwarded: false,
            phase_starts: Vec::new(),
            scratch: PhaseScratch::default(),
            pending: VecDeque::new(),
        }
    }

    fn broadcast(&self, s: &AkoState, round: usize) -> Option<AkoMsg> {
        let sched = s.sched();
        if round < sched.leader_end() {
            return s.leader_dirty.then_some(AkoMsg::Leader {
                leader: s.leader_best,
                dist: s.leader_dist,
            });
        }
        if round == sched.parent_round() {
            return (!s.parent_announced && s.degree > 0)
                .then(|| AkoMsg::ParentIs(s.leader_parent.unwrap_or(s.me)));
        }
        if round < sched.ii_end() {
            let rel = round.checked_sub(sched.ii_start())?;
            let phase = rel / 3;
            return match rel % 3 {
                0 => (s.ii_is_sender(phase)
                    && s.partner.is_none()
                    && !s.ii_free_neighbors.is_empty()
                    && s.ii_proposed_phase != Some(phase))
                .then(|| s.ii_target(phase).map(AkoMsg::Propose))
                .flatten(),
                1 => (s.ii_accept_phase == Some(phase) && !s.ii_accept_sent)
                    .then(|| s.ii_accept_to.map(AkoMsg::Accept))
                    .flatten(),
                _ => (s.ii_matched_phase == Some(phase) && !s.ii_matched_sent)
                    .then_some(AkoMsg::MatchedNow),
            };
        }
        if round < sched.count_end() {
            // Convergecast: send once all children reported (leaves: immediately).
            if !s.count_sent && s.pending_children.is_empty() && s.leader_parent.is_some() {
                let own = u32::from(s.partner.is_some());
                return Some(AkoMsg::Count(s.child_count_sum + own));
            }
            // Root computes s at the end of the window (handled in receive/sent hooks).
            return None;
        }
        if round < sched.prelude_end() {
            // Broadcast of s: the root starts, everyone forwards once.
            if !s.size_forwarded {
                if let Some(sv) = s.s_bound {
                    return Some(AkoMsg::SizeIs(sv));
                }
            }
            return None;
        }
        // Phase rounds.
        let (_phase, stage, off) = s.locate(round)?;
        match stage {
            Stage::Explore => {
                // Free nodes start waves at stage round 0.
                if off == 0 {
                    let already = s.scratch_for(round).is_some_and(|sc| sc.wave_sent);
                    return (s.is_free() && s.degree > 0 && !already).then(|| AkoMsg::Wave {
                        src: s.me.raw(),
                        via_matching: false,
                    });
                }
                // Matched nodes relay their adopted wave at the scheduled round.
                let sc = s.scratch_for(round)?;
                if !sc.wave_sent && sc.wave_prop_round == Some(round) {
                    return Some(AkoMsg::Wave {
                        src: sc.wave_src.expect("wave scheduled implies adopted"),
                        via_matching: sc.wave_via_matching,
                    });
                }
                None
            }
            Stage::Backward => {
                if let Some(m) = s.backward_duty(round) {
                    return Some(m);
                }
                s.pending
                    .front()
                    .copied()
                    .filter(|m| matches!(m, AkoMsg::Backward { .. }))
            }
            Stage::Probe => {
                if let Some((label, succ)) = s.probe_duty(round) {
                    return Some(AkoMsg::Probe { label, to: succ });
                }
                s.pending
                    .front()
                    .copied()
                    .filter(|m| matches!(m, AkoMsg::Probe { .. }))
            }
            Stage::Commit => s
                .pending
                .front()
                .copied()
                .filter(|m| matches!(m, AkoMsg::Commit { .. })),
        }
    }

    fn on_broadcast_sent(&self, s: &mut AkoState, round: usize) {
        let sched = s.sched();
        if round < sched.leader_end() {
            s.leader_dirty = false;
            return;
        }
        if round == sched.parent_round() {
            s.parent_announced = true;
            return;
        }
        if round < sched.ii_end() {
            let rel = round - sched.ii_start();
            let phase = rel / 3;
            match rel % 3 {
                0 => {
                    s.ii_proposed_phase = Some(phase);
                    s.ii_proposed_to = s.ii_target(phase);
                }
                1 => s.ii_accept_sent = true,
                _ => s.ii_matched_sent = true,
            }
            return;
        }
        if round < sched.count_end() {
            s.count_sent = true;
            return;
        }
        if round < sched.prelude_end() {
            s.size_forwarded = true;
            return;
        }
        s.ensure_phase(round);
        let Some((_, stage, off)) = s.locate(round) else {
            return;
        };
        match stage {
            Stage::Explore => {
                if off == 0 && s.is_free() {
                    s.scratch.wave_src = Some(s.me.raw());
                    s.scratch.wave_prop_round = Some(round);
                    s.scratch.wave_via_matching = false;
                    s.scratch.wave_sent = true;
                } else if s.scratch.wave_prop_round == Some(round) && !s.scratch.wave_sent {
                    s.scratch.wave_sent = true;
                } else {
                    s.pending.pop_front();
                }
            }
            Stage::Backward => {
                if let Some(m @ AkoMsg::Backward { label, .. }) = s.backward_duty(round) {
                    // The duty send happened.
                    let _ = m;
                    s.scratch.back_sent_for = Some(label);
                } else {
                    s.pending.pop_front();
                }
            }
            Stage::Probe => {
                if s.probe_duty(round).is_some() {
                    s.scratch.probe_initiated = true;
                } else {
                    s.pending.pop_front();
                }
            }
            Stage::Commit => {
                if let Some(AkoMsg::Commit { to, .. }) = s.pending.pop_front() {
                    // Sending a commit over a formerly non-matching path edge makes
                    // it matched. (If this node already absorbed its new partner at
                    // receive time, the outgoing edge was the formerly-matched one
                    // and its removal is recorded at the receiving end.)
                    if s.partner.is_none() {
                        s.partner = Some(to);
                    }
                }
            }
        }
    }

    fn receive(&self, s: &mut AkoState, round: usize, msgs: &[(NodeId, AkoMsg)]) {
        let sched = s.sched();
        let mut sorted: Vec<&(NodeId, AkoMsg)> = msgs.iter().collect();
        sorted.sort_unstable_by_key(|(from, _)| *from);

        if round < sched.leader_end() {
            for &&(from, m) in &sorted {
                if let AkoMsg::Leader { leader, dist } = m {
                    if (leader, dist + 1) < (s.leader_best, s.leader_dist) {
                        s.leader_best = leader;
                        s.leader_dist = dist + 1;
                        s.leader_parent = Some(from);
                        s.leader_dirty = true;
                    }
                }
            }
            return;
        }
        if round == sched.parent_round() {
            for &&(from, m) in &sorted {
                if m == AkoMsg::ParentIs(s.me) {
                    s.children.insert(from);
                    s.pending_children.insert(from);
                }
            }
            return;
        }
        if round < sched.ii_end() {
            let rel = round - sched.ii_start();
            let phase = rel / 3;
            match rel % 3 {
                0 => {
                    if s.partner.is_none() && !s.ii_is_sender(phase) {
                        let mut best: Option<NodeId> = None;
                        for &&(from, m) in &sorted {
                            if m == AkoMsg::Propose(s.me)
                                && s.ii_free_neighbors.contains(&from)
                                && best.is_none_or(|b| from < b)
                            {
                                best = Some(from);
                            }
                        }
                        if let Some(p) = best {
                            s.partner = Some(p);
                            s.ii_accept_phase = Some(phase);
                            s.ii_accept_to = Some(p);
                            s.ii_accept_sent = false;
                            s.ii_matched_phase = Some(phase);
                            s.ii_matched_sent = false;
                        }
                    }
                }
                1 => {
                    if s.partner.is_none() && s.ii_proposed_phase == Some(phase) {
                        if let Some(target) = s.ii_proposed_to {
                            for &&(from, m) in &sorted {
                                if from == target && m == AkoMsg::Accept(s.me) {
                                    s.partner = Some(target);
                                    s.ii_matched_phase = Some(phase);
                                    s.ii_matched_sent = false;
                                }
                            }
                        }
                    }
                }
                _ => {
                    for &&(from, m) in &sorted {
                        if m == AkoMsg::MatchedNow {
                            s.ii_free_neighbors.remove(&from);
                        }
                    }
                }
            }
            return;
        }
        if round < sched.count_end() {
            for &&(from, m) in &sorted {
                if let AkoMsg::Count(c) = m {
                    if s.pending_children.remove(&from) {
                        s.child_count_sum += c;
                    }
                }
            }
            // The leader (root, no parent) learns s once all children reported.
            if s.leader_parent.is_none() && s.pending_children.is_empty() && s.s_bound.is_none() {
                let own = u32::from(s.partner.is_some());
                let total = s.child_count_sum + own;
                s.s_bound = Some(total);
                s.phase_starts = s.sched().phase_starts(total as usize);
            }
            return;
        }
        if round < sched.prelude_end() {
            for &&(_, m) in &sorted {
                if let AkoMsg::SizeIs(sv) = m {
                    if s.s_bound.is_none() {
                        s.s_bound = Some(sv);
                        s.phase_starts = s.sched().phase_starts(sv as usize);
                    }
                }
            }
            return;
        }

        // ---- Phase rounds ----
        s.ensure_phase(round);
        let Some((_, stage, _off)) = s.locate(round) else {
            return;
        };
        match stage {
            Stage::Explore => receive_explore(s, round, &sorted),
            Stage::Backward => receive_backward(s, &sorted),
            Stage::Probe => receive_probe(s, &sorted),
            Stage::Commit => receive_commit(s, &sorted),
        }
    }

    fn is_done(&self, s: &AkoState) -> bool {
        s.pending.is_empty() && s.s_bound.is_some()
    }

    fn output(&self, s: &AkoState) -> Option<NodeId> {
        s.partner
    }

    fn next_activity(&self, s: &AkoState, after: usize) -> Option<usize> {
        let sched = s.sched();
        if s.leader_dirty && after < sched.leader_end() {
            return Some(after);
        }
        if !s.parent_announced && s.degree > 0 && after <= sched.parent_round() {
            return Some(sched.parent_round().max(after));
        }
        if after < sched.ii_end() {
            let proposing = s.partner.is_none() && !s.ii_free_neighbors.is_empty();
            let flushing = (s.ii_accept_phase.is_some() && !s.ii_accept_sent)
                || (s.ii_matched_phase.is_some() && !s.ii_matched_sent);
            if proposing || flushing {
                return Some(after.max(sched.ii_start()));
            }
        }
        if !s.count_sent
            && s.leader_parent.is_some()
            && s.pending_children.is_empty()
            && after < sched.count_end()
        {
            return Some(after.max(sched.ii_end()));
        }
        if !s.size_forwarded && s.s_bound.is_some() && after < sched.prelude_end() {
            return Some(after.max(sched.count_end()));
        }
        // Before s is known we cannot schedule phases; stay quiet until woken.
        let sv = s.s_bound? as usize;
        if sv == 0 {
            return None;
        }
        let end = *s.phase_starts.last().expect("schedule computed with s");
        if after >= end {
            return None;
        }
        if !s.pending.is_empty()
            || s.backward_duty(after).is_some()
            || s.probe_duty(after).is_some()
        {
            return Some(after);
        }
        if let Some(sc) = s.scratch_for(after) {
            if let Some(r) = sc.wave_prop_round {
                if !sc.wave_sent && r >= after {
                    return Some(r);
                }
            }
        }
        // Otherwise: free nodes wake at the next explore-stage start.
        if s.is_free() && s.degree > 0 {
            let next_start = s
                .phase_starts
                .iter()
                .find(|&&t| t >= after)
                .copied()
                .filter(|&t| t < end);
            return next_start;
        }
        None
    }

    fn round_bound(&self, n: usize, _m: usize) -> usize {
        let sched = Schedule::new(n);
        // Worst case s = n (even though s ≤ n always, and usually much smaller).
        let mut total = sched.prelude_end();
        for i in 0..n {
            total += 4 * sched.stage_len(n, i);
        }
        total + 64
    }

    fn output_words(&self, _out: &Option<NodeId>) -> usize {
        1
    }
}

/// Edge-toggle at the receiving end of a commit hop: if the edge was matched it is
/// removed; otherwise it becomes this node's new matching edge (any stale partner
/// pointer is corrected when the commit walk traverses that formerly-matched edge,
/// which alternation guarantees is the very next hop).
fn toggle_partner(partner: &mut Option<NodeId>, other: NodeId) {
    if *partner == Some(other) {
        *partner = None;
    } else {
        *partner = Some(other);
    }
}

fn receive_explore(s: &mut AkoState, round: usize, sorted: &[&(NodeId, AkoMsg)]) {
    // Did I broadcast a wave this very round? (needed for crossing detection)
    let my_broadcast = s
        .scratch
        .wave_sent
        .then_some(())
        .and(s.scratch.wave_prop_round)
        .filter(|&r| r == round)
        .and(
            s.scratch
                .wave_src
                .map(|src| (src, s.scratch.wave_via_matching)),
        );
    let mut adoption: Option<(u32, NodeId)> = None;

    for &&(from, m) in sorted {
        let AkoMsg::Wave { src, via_matching } = m else {
            continue;
        };
        // Edge-type validity.
        let from_is_partner = s.partner == Some(from);
        if via_matching != from_is_partner {
            continue;
        }
        if src == s.me.raw() {
            continue; // a wave never re-enters its own source
        }
        // Crossing detection: both endpoints broadcast over this edge this round.
        if let Some((my_src, my_via)) = my_broadcast {
            if my_via == via_matching && my_src != src {
                let label = PathLabel::canonical(my_src, s.me.raw(), src, from.raw());
                // My side's probe successor is the crossing partner; my side's
                // backward walk starts at my wave predecessor (None at sources,
                // whose side is trivially complete).
                let backward_to = s.scratch.wave_pred;
                record_completion(s, label, from, backward_to);
                continue;
            }
        }
        if s.is_free() {
            // Completion: a wave reached a free node over a non-matching edge. The
            // far side's backward walk starts at the final-hop sender.
            if !via_matching {
                let label = PathLabel::canonical(src, from.raw(), s.me.raw(), s.me.raw());
                record_completion(s, label, from, Some(from));
            }
            continue;
        }
        // Matched node: candidates for adoption are collected; the smallest
        // (src, from) wave this round wins (the paper's ID tie-breaking).
        if s.scratch.wave_src.is_none() {
            adoption = match adoption {
                Some((s0, f0)) if (s0, f0) <= (src, from) => Some((s0, f0)),
                _ => Some((src, from)),
            };
        }
    }
    if let Some((src, from)) = adoption {
        if s.scratch.wave_src.is_none() {
            let via_matching = s.partner == Some(from);
            s.scratch.wave_src = Some(src);
            s.scratch.wave_pred = Some(from);
            s.scratch.wave_via_matching = !via_matching; // alternate edge type
            s.scratch.wave_prop_round = Some(round + 1);
            s.scratch.wave_sent = false;
        }
    }
}

/// Records a detected completion.
///
/// * `probe_succ` — the neighbor a probe from this node would visit next;
/// * `backward_to` — where this node must send the Backward message for the *other*
///   side of the path (`None` when the other side's detector handles it).
///
/// Wave sources record the label as already backward-complete on their own side;
/// matched relays only owe the backward initiation.
fn record_completion(
    s: &mut AkoState,
    label: PathLabel,
    probe_succ: NodeId,
    backward_to: Option<NodeId>,
) {
    let me = s.me.raw();
    if me == label.sa || me == label.sb {
        s.scratch
            .completed_at_source
            .entry(label)
            .or_insert(probe_succ);
        if let Some(t) = backward_to {
            s.scratch.backward_inits.entry(label).or_insert(t);
        }
    } else {
        let t = backward_to.expect("matched relays always have a wave predecessor");
        s.scratch.backward_inits.entry(label).or_insert(t);
    }
}

fn receive_backward(s: &mut AkoState, sorted: &[&(NodeId, AkoMsg)]) {
    for &&(from, m) in sorted {
        let AkoMsg::Backward { label, to } = m else {
            continue;
        };
        if to != s.me {
            continue;
        }
        let me = s.me.raw();
        if me == label.sa || me == label.sb {
            // Reached a free endpoint: record completion (succ = backward sender).
            s.scratch.completed_at_source.entry(label).or_insert(from);
            continue;
        }
        // Adopt if strictly smaller than anything seen; forward towards my pred.
        if s.scratch.back_label.is_none_or(|cur| label < cur) {
            s.scratch.back_label = Some(label);
            s.scratch.back_succ = Some(from);
            if let Some(pred) = s.scratch.wave_pred {
                s.pending.push_back(AkoMsg::Backward { label, to: pred });
            }
        }
    }
}

fn receive_probe(s: &mut AkoState, sorted: &[&(NodeId, AkoMsg)]) {
    for &&(from, m) in sorted {
        let AkoMsg::Probe { label, to } = m else {
            continue;
        };
        if to != s.me {
            continue;
        }
        let me = s.me.raw();
        let _ = from;
        if me == label.sb {
            // Probe complete: initiate the commit walk back towards sa — unless this
            // endpoint is already engaged in another augmentation this phase.
            if !s.scratch.commit_initiated && !s.scratch.probe_initiated {
                s.scratch.commit_initiated = true;
                let next = if me == label.eb {
                    // I'm also the detection-edge endpoint (mode-A completion).
                    Some(NodeId::from(label.ea))
                } else {
                    s.scratch.completed_at_source.get(&label).copied()
                };
                if let Some(next) = next {
                    s.pending.push_back(AkoMsg::Commit { label, to: next });
                }
            }
            continue;
        }
        // Forward along the recorded path.
        let next = if me == label.ea {
            Some(NodeId::from(label.eb))
        } else if s.scratch.wave_src == Some(label.sb) {
            s.scratch.wave_pred
        } else if s.scratch.back_label == Some(label) {
            s.scratch.back_succ
        } else {
            None // path lost the race at this node: drop, fail safely
        };
        if let Some(next) = next {
            s.pending.push_back(AkoMsg::Probe { label, to: next });
        }
    }
}

fn receive_commit(s: &mut AkoState, sorted: &[&(NodeId, AkoMsg)]) {
    for &&(from, m) in sorted {
        let AkoMsg::Commit { label, to } = m else {
            continue;
        };
        if to != s.me {
            continue;
        }
        // Receiving a commit toggles the just-traversed edge.
        toggle_partner(&mut s.partner, from);
        let me = s.me.raw();
        if me == label.sa {
            continue; // augmentation complete
        }
        let next = if me == label.eb {
            Some(NodeId::from(label.ea))
        } else if s.scratch.wave_src == Some(label.sb) && s.scratch.back_succ.is_some() {
            s.scratch.back_succ
        } else {
            s.scratch.wave_pred
        };
        if let Some(next) = next {
            s.pending.push_back(AkoMsg::Commit { label, to: next });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::{generators, reference};

    /// Distinct messages encode to distinct lanes, so a trace tells them
    /// apart: every variant, plus labelled messages that differ only in the
    /// addressee or only in the label. Lives here (not in the crate's
    /// proptest suite) because `PathLabel`'s fields are private.
    #[test]
    fn ako_encodings_are_pairwise_distinct() {
        let label = PathLabel::canonical(3, 7, 5, u32::MAX);
        let other = PathLabel::canonical(3, 7, 5, 8);
        let to = NodeId::new(9);
        let msgs = [
            AkoMsg::Leader {
                leader: 4,
                dist: u32::MAX,
            },
            AkoMsg::ParentIs(NodeId::new(2)),
            AkoMsg::Propose(NodeId::new(0)),
            AkoMsg::Accept(NodeId::new(77)),
            AkoMsg::MatchedNow,
            AkoMsg::Count(123),
            AkoMsg::SizeIs(u32::MAX),
            AkoMsg::Wave {
                src: 6,
                via_matching: true,
            },
            AkoMsg::Wave {
                src: 0,
                via_matching: false,
            },
            AkoMsg::Backward { label, to },
            AkoMsg::Probe { label, to },
            AkoMsg::Commit { label, to },
            AkoMsg::Commit {
                label,
                to: NodeId::new(10),
            },
            AkoMsg::Commit { label: other, to },
        ];
        let lanes: Vec<[u32; AkoMsg::LANES]> = msgs
            .iter()
            .map(|m| {
                let mut out = [0; AkoMsg::LANES];
                m.encode(&mut out);
                out
            })
            .collect();
        for (i, a) in lanes.iter().enumerate() {
            for (j, b) in lanes.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{:?} and {:?} encode alike", msgs[i], msgs[j]);
            }
        }
    }

    fn run_and_check(g: &congest_graph::Graph, seed: u64) {
        let opts = RunOptions {
            seed,
            ..RunOptions::default()
        };
        let run = run_bcongest(&BipartiteMatching, g, None, &opts).unwrap();
        let pairs = crate::matching_maximal::matching_pairs(&run.outputs);
        assert!(
            reference::is_matching(g, &pairs),
            "not a matching: {pairs:?}"
        );
        let want = reference::hopcroft_karp(g).expect("test graphs are bipartite");
        assert_eq!(pairs.len(), want, "matching size mismatch");
    }

    #[test]
    fn single_edge() {
        run_and_check(&congest_graph::Graph::from_edges(2, &[(0, 1)]), 1);
    }

    #[test]
    fn even_cycles() {
        run_and_check(&generators::cycle(6), 2);
        run_and_check(&generators::cycle(10), 3);
    }

    #[test]
    fn paths() {
        run_and_check(&generators::path(2), 4);
        run_and_check(&generators::path(5), 5);
        run_and_check(&generators::path(8), 6);
    }

    #[test]
    fn stars_and_trees() {
        run_and_check(&generators::star(7), 7);
        run_and_check(&generators::binary_tree(11), 8);
        run_and_check(&generators::random_tree(14, 9), 9);
    }

    #[test]
    fn random_bipartite_graphs() {
        for seed in 0..4 {
            let g = generators::random_bipartite_connected(6, 7, 0.3, seed);
            run_and_check(&g, 20 + seed);
        }
    }

    #[test]
    fn grid_is_bipartite() {
        run_and_check(&generators::grid(4, 3), 31);
    }
}
