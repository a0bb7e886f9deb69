//! `(k, W)`-sparse neighborhood covers (paper Appendix A.2 / Corollary 2.9) as a
//! BCONGEST algorithm: `t = Θ(n^{1/k} log n)` independent MPX decompositions with
//! shift parameter `β = ln(n)/(2kW)`, run in fixed round windows.
//!
//! Each repetition keeps a `W`-ball intact with probability `≥ n^{-1/k}`, so across
//! `t` repetitions every node's `W`-ball is fully inside some cluster w.h.p.; tree
//! depth is `O(kW log n)` and each node belongs to exactly `t = Õ(n^{1/k})` trees —
//! the three properties of a `(k, W)`-sparse cover, up to the polylog factors the
//! paper's `Õ` hides (this substitutes Elkin's construction \[13\]; see DESIGN.md §2).

use congest_engine::{BcongestAlgorithm, LocalView, WireEncode};
use congest_graph::{reference, rng, Graph, NodeId};
use rand::Rng;

/// Claim message of one cover repetition (same shape as MPX's claim).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoverMsg {
    /// Cluster center of this wave.
    pub center: u32,
    /// Quantized shift fraction (tie-breaking).
    pub qfrac: u32,
    /// Sender's distance from the center.
    pub dist: u32,
}

impl WireEncode for CoverMsg {
    const LANES: usize = 3;
    fn encode(&self, out: &mut [u32]) {
        out[0] = self.center;
        out[1] = self.qfrac;
        out[2] = self.dist;
    }
}

/// The `(k, W)`-sparse neighborhood cover algorithm.
#[derive(Clone, Copy, Debug)]
pub struct NeighborhoodCover {
    k: usize,
    w: u32,
    beta: f64,
    reps: usize,
    window: usize,
}

impl NeighborhoodCover {
    /// Creates a cover algorithm for an `n`-node graph with parameters `k ≥ 1` and
    /// `w ≥ 1`, using the default repetition count `⌈3·n^{1/k}·ln n⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `w == 0`.
    pub fn new(n: usize, k: usize, w: u32) -> Self {
        assert!(k >= 1 && w >= 1, "cover parameters must be positive");
        let nf = n.max(2) as f64;
        let reps = (3.0 * nf.powf(1.0 / k as f64) * nf.ln()).ceil() as usize;
        Self::with_reps(n, k, w, reps)
    }

    /// Like [`NeighborhoodCover::new`] with an explicit repetition count.
    pub fn with_reps(n: usize, k: usize, w: u32, reps: usize) -> Self {
        assert!(k >= 1 && w >= 1, "cover parameters must be positive");
        let nf = n.max(2) as f64;
        let beta = (nf.ln() / (2.0 * k as f64 * w as f64)).clamp(0.05, 2.0);
        let horizon = (3.0 * nf.ln() / beta).ceil() as usize;
        Self {
            k,
            w,
            beta,
            reps: reps.max(1),
            window: 2 * horizon + 6,
        }
    }

    /// The cover radius parameter `W`.
    pub fn w(&self) -> u32 {
        self.w
    }

    /// The sparsity parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of repetitions (= trees per node).
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Per-node, per-rep start round (within the window) and tie fraction — pure.
    fn rep_params(&self, seed: u64, rep: usize) -> (usize, u32) {
        let mut r = rng::seeded(rng::derive(seed, 0xc0fe_0000 ^ rep as u64));
        let u: f64 = r.random::<f64>().max(f64::MIN_POSITIVE);
        let horizon = (self.window - 6) as f64 / 2.0;
        let delta = (-u.ln() / self.beta).min(horizon);
        let start = horizon - delta;
        (
            start.floor() as usize,
            ((start - start.floor()) * (1u32 << 20) as f64) as u32,
        )
    }
}

/// Membership of one node in one repetition's cluster tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoverMembership {
    /// The tree's root (cluster center).
    pub center: NodeId,
    /// Depth of this node in the tree.
    pub dist: u32,
    /// Tree parent (`None` at the root).
    pub parent: Option<NodeId>,
}

/// Per-node output: one membership per repetition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverOutput {
    /// Indexed by repetition.
    pub memberships: Vec<CoverMembership>,
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct CoverState {
    me: NodeId,
    seed: u64,
    /// Current repetition whose scratch is live.
    rep: usize,
    claimed: Option<(u32, u32, u32, Option<NodeId>)>,
    claim_broadcast_round: Option<usize>,
    claim_sent: bool,
    finished: Vec<CoverMembership>,
}

impl CoverState {
    fn finalize_current(&mut self, me: NodeId) {
        let (center, _, dist, parent) = self.claimed.unwrap_or((me.raw(), 0, 0, None));
        self.finished.push(CoverMembership {
            center: NodeId::from(center),
            dist,
            parent,
        });
    }
}

impl NeighborhoodCover {
    fn rep_of(&self, round: usize) -> Option<usize> {
        let rep = round / self.window;
        (rep < self.reps).then_some(rep)
    }

    fn ensure_rep(&self, s: &mut CoverState, round: usize) {
        let Some(target) = self.rep_of(round) else {
            return;
        };
        while s.rep < target {
            s.finalize_current(s.me);
            s.rep += 1;
            s.claimed = None;
            s.claim_broadcast_round = None;
            s.claim_sent = false;
        }
    }
}

impl BcongestAlgorithm for NeighborhoodCover {
    type State = CoverState;
    type Msg = CoverMsg;
    type Output = CoverOutput;

    fn name(&self) -> &'static str {
        "neighborhood-cover"
    }

    fn init(&self, view: &LocalView<'_>) -> CoverState {
        CoverState {
            me: view.node(),
            seed: view.seed(),
            rep: 0,
            claimed: None,
            claim_broadcast_round: None,
            claim_sent: false,
            finished: Vec::with_capacity(self.reps),
        }
    }

    fn broadcast(&self, s: &CoverState, round: usize) -> Option<CoverMsg> {
        let rep = self.rep_of(round)?;
        let base = rep * self.window;
        let (start, qfrac) = self.rep_params(s.seed, rep);
        if s.rep < rep || s.claimed.is_none() {
            // Fresh (or stale-scratch) repetition: self-claim at my start round.
            return (round >= base + start).then_some(CoverMsg {
                center: s.me.raw(),
                qfrac,
                dist: 0,
            });
        }
        match s.claimed {
            Some((center, cq, dist, _))
                if !s.claim_sent && s.claim_broadcast_round == Some(round) =>
            {
                Some(CoverMsg {
                    center,
                    qfrac: cq,
                    dist,
                })
            }
            _ => None,
        }
    }

    fn on_broadcast_sent(&self, s: &mut CoverState, round: usize) {
        self.ensure_rep(s, round);
        if s.claimed.is_none() {
            let (_, qfrac) = self.rep_params(s.seed, s.rep);
            s.claimed = Some((s.me.raw(), qfrac, 0, None));
        }
        s.claim_sent = true;
    }

    fn receive(&self, s: &mut CoverState, round: usize, msgs: &[(NodeId, CoverMsg)]) {
        self.ensure_rep(s, round);
        let Some(rep) = self.rep_of(round) else {
            return;
        };
        if s.claimed.is_some() {
            return;
        }
        let base = rep * self.window;
        let best = msgs
            .iter()
            .map(|&(from, m)| ((round + 1, m.qfrac, m.center), (m.dist, from)))
            .min();
        if let Some(((arr, qfrac, center), (dist, from))) = best {
            let (start, my_qfrac) = self.rep_params(s.seed, rep);
            let self_key = (base + start, my_qfrac, s.me.raw());
            if (arr, qfrac, center) < self_key {
                s.claimed = Some((center, qfrac, dist + 1, Some(from)));
                s.claim_broadcast_round = Some(round + 1);
            }
        }
    }

    fn is_done(&self, s: &CoverState) -> bool {
        s.finished.len() == self.reps
    }

    fn output(&self, s: &CoverState) -> CoverOutput {
        // Finalize any repetitions that never saw another event.
        let mut tmp = s.clone();
        while tmp.finished.len() < self.reps {
            tmp.finalize_current(tmp.me);
            tmp.rep += 1;
            tmp.claimed = None;
        }
        CoverOutput {
            memberships: tmp.finished,
        }
    }

    fn next_activity(&self, s: &CoverState, after: usize) -> Option<usize> {
        let end = self.reps * self.window;
        if after >= end {
            return None;
        }
        let rep = after / self.window;
        let base = rep * self.window;
        // If the live scratch is for this rep and a claim is pending, wake for it.
        if s.rep == rep {
            if s.claimed.is_none() {
                let (start, _) = self.rep_params(s.seed, rep);
                return Some(after.max(base + start));
            }
            if !s.claim_sent {
                if let Some(r) = s.claim_broadcast_round {
                    return Some(after.max(r));
                }
            }
            // Claim done: next event is the next repetition.
            let next_base = base + self.window;
            if next_base >= end {
                return None;
            }
            let (start, _) = self.rep_params(s.seed, rep + 1);
            return Some(next_base + start);
        }
        // Scratch is stale: I will self-claim (or join) in this window.
        let (start, _) = self.rep_params(s.seed, rep);
        Some(after.max(base + start))
    }

    fn round_bound(&self, _n: usize, _m: usize) -> usize {
        self.reps * self.window + 8
    }

    fn output_words(&self, out: &CoverOutput) -> usize {
        out.memberships.len().max(1)
    }
}

/// Validates the three `(k, W)`-cover properties on a run's outputs. Returns
/// `(max tree depth, trees per node)` on success.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn validate_cover(
    g: &Graph,
    cover: &NeighborhoodCover,
    outputs: &[CoverOutput],
) -> Result<(u32, usize), String> {
    let reps = cover.reps();
    let mut max_depth = 0;
    for (v, o) in outputs.iter().enumerate() {
        if o.memberships.len() != reps {
            return Err(format!(
                "node {v} has {} memberships, want {reps}",
                o.memberships.len()
            ));
        }
    }
    // Tree validity per repetition.
    for rep in 0..reps {
        for v in g.nodes() {
            let m = outputs[v.index()].memberships[rep];
            max_depth = max_depth.max(m.dist);
            match m.parent {
                None => {
                    if m.center != v || m.dist != 0 {
                        return Err(format!("root mismatch at {v:?} rep {rep}"));
                    }
                }
                Some(p) => {
                    if !g.has_edge(v, p) {
                        return Err(format!("tree link {v:?}->{p:?} not an edge (rep {rep})"));
                    }
                    let pm = outputs[p.index()].memberships[rep];
                    if pm.center != m.center || pm.dist + 1 != m.dist {
                        return Err(format!("inconsistent tree at {v:?} rep {rep}"));
                    }
                }
            }
        }
    }
    // Coverage: some repetition's cluster contains each node's whole W-ball.
    for v in g.nodes() {
        let ball = reference::bfs_limited(g, v, cover.w());
        let covered = (0..reps).any(|rep| {
            let c = outputs[v.index()].memberships[rep].center;
            g.nodes().all(|u| {
                ball[u.index()].is_none() || outputs[u.index()].memberships[rep].center == c
            })
        });
        if !covered {
            return Err(format!("W-ball of {v:?} is never fully covered"));
        }
    }
    Ok((max_depth, reps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::generators;

    fn run_cover(g: &Graph, cover: &NeighborhoodCover, seed: u64) -> Vec<CoverOutput> {
        let opts = RunOptions {
            seed,
            ..Default::default()
        };
        run_bcongest(cover, g, None, &opts).unwrap().outputs
    }

    #[test]
    fn covers_grid() {
        let g = generators::grid(6, 5);
        let cover = NeighborhoodCover::with_reps(g.n(), 2, 2, 40);
        let outs = run_cover(&g, &cover, 1);
        let (depth, trees) = validate_cover(&g, &cover, &outs).unwrap();
        assert_eq!(trees, 40);
        assert!(depth > 0);
    }

    #[test]
    fn covers_random_graphs() {
        for seed in 0..3 {
            let g = generators::gnp_connected(30, 0.12, seed);
            let cover = NeighborhoodCover::with_reps(g.n(), 2, 2, 40);
            let outs = run_cover(&g, &cover, seed);
            validate_cover(&g, &cover, &outs).unwrap();
        }
    }

    #[test]
    fn default_rep_count_formula() {
        let cover = NeighborhoodCover::new(100, 2, 3);
        // 3 · √100 · ln(100) ≈ 138.
        assert!((130..150).contains(&cover.reps()));
    }

    #[test]
    fn w1_cover_on_star_contains_hub_ball() {
        let g = generators::star(12);
        let cover = NeighborhoodCover::with_reps(g.n(), 2, 1, 30);
        let outs = run_cover(&g, &cover, 5);
        validate_cover(&g, &cover, &outs).unwrap();
    }

    #[test]
    fn broadcast_complexity_linear_per_rep() {
        let g = generators::gnp_connected(25, 0.15, 9);
        let cover = NeighborhoodCover::with_reps(g.n(), 2, 2, 20);
        let opts = RunOptions {
            seed: 9,
            ..Default::default()
        };
        let run = run_bcongest(&cover, &g, None, &opts).unwrap();
        // ≤ one claim broadcast per node per rep.
        assert!(run.metrics.broadcasts <= (g.n() * 20) as u64);
    }
}
