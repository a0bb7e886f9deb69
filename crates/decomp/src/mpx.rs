//! The Miller–Peng–Xu (MPX) low-diameter decomposition \[28\], as a real BCONGEST
//! algorithm with exponential random shifts.
//!
//! Every node `u` draws a shift `δ_u ~ Exp(β)` (truncated at `T = 3·ln(n)/β`) and
//! starts a claim wave at round `⌊T − δ_u⌋`; a node is claimed by the wave with the
//! smallest `(arrival round, shift fraction, center ID)` key, which realizes
//! `cluster(v) = argmin_u (d(u,v) − δ_u)` with consistent tie-breaking. Clusters are
//! BFS regions, hence have *strong* diameter `O(log n / β)` w.h.p. and come with
//! spanning trees of the same depth.
//!
//! After the claim window every node announces its cluster to its neighbors, which
//! is exactly the information the LDC decomposition (§2.1) needs to build `F`.

use congest_engine::{BcongestAlgorithm, LocalView, WireEncode};
use congest_graph::{rng, ClusterId, Graph, NodeId};
use rand::Rng;

/// Messages of the MPX algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpxMsg {
    /// A cluster claim wave: center, the center's quantized shift fraction (for
    /// tie-breaking), and the sender's distance from the center.
    Claim {
        /// The cluster center.
        center: u32,
        /// Quantized fractional part of the center's start time.
        qfrac: u32,
        /// Sender's hop distance from the center.
        dist: u32,
    },
    /// Post-claiming announcement of the final cluster center.
    Announce {
        /// The sender's cluster center.
        center: u32,
    },
}

impl WireEncode for MpxMsg {
    // Lane 0 is the variant tag; Claim fills lanes 1–3, Announce lane 1.
    const LANES: usize = 4;
    fn encode(&self, out: &mut [u32]) {
        out.fill(0);
        match *self {
            MpxMsg::Claim {
                center,
                qfrac,
                dist,
            } => {
                out[0] = 0;
                out[1] = center;
                out[2] = qfrac;
                out[3] = dist;
            }
            MpxMsg::Announce { center } => {
                out[0] = 1;
                out[1] = center;
            }
        }
    }
}

/// The MPX decomposition algorithm with shift parameter `beta`.
///
/// Smaller `beta` ⇒ larger clusters (radius `O(log n / β)`) and fewer inter-cluster
/// edges. `beta = 0.5` gives the `(O(log n), O(log n))` regime Lemma 2.4 needs.
#[derive(Clone, Copy, Debug)]
pub struct MpxAlgorithm {
    beta: f64,
}

impl MpxAlgorithm {
    /// Creates the algorithm with shift parameter `beta`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < beta <= 4`.
    pub fn new(beta: f64) -> Self {
        assert!(beta > 0.0 && beta <= 4.0, "beta must be in (0, 4]");
        Self { beta }
    }

    /// The shift truncation horizon `T = 3·ln(n)/β` (all start times fall in `[0,T]`).
    pub fn horizon(&self, n: usize) -> f64 {
        3.0 * (n.max(2) as f64).ln() / self.beta
    }

    fn horizon_rounds(&self, n: usize) -> usize {
        self.horizon(n).ceil() as usize
    }

    /// The fixed round in which every node announces its final cluster.
    fn announce_round(&self, n: usize) -> usize {
        2 * self.horizon_rounds(n) + 6
    }
}

/// Per-node output of MPX.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MpxOutput {
    /// Final cluster center.
    pub center: NodeId,
    /// Hop distance to the center along the cluster tree.
    pub dist: u32,
    /// Cluster-tree parent (`None` at centers).
    pub parent: Option<NodeId>,
    /// `(neighbor, neighbor's center)` for every neighbor (from the announce round).
    pub neighbor_centers: Vec<(NodeId, NodeId)>,
}

/// Per-node state.
#[derive(Clone, Debug)]
pub struct MpxState {
    me: NodeId,
    /// My own start round and quantized fraction.
    start_round: usize,
    my_qfrac: u32,
    /// Claim: (center, qfrac, dist, parent).
    claimed: Option<(u32, u32, u32, Option<NodeId>)>,
    claim_broadcast_round: Option<usize>,
    claim_sent: bool,
    announced: bool,
    announce_round: usize,
    neighbor_centers: Vec<(NodeId, NodeId)>,
}

impl BcongestAlgorithm for MpxAlgorithm {
    type State = MpxState;
    type Msg = MpxMsg;
    type Output = MpxOutput;

    fn name(&self) -> &'static str {
        "mpx-decomposition"
    }

    fn init(&self, view: &LocalView<'_>) -> MpxState {
        let n = view.n();
        let tf = self.horizon(n);
        let mut r = rng::seeded(rng::derive(view.seed(), 0x6d70_7801));
        // δ ~ Exp(β), truncated at the horizon.
        let u: f64 = r.random::<f64>().max(f64::MIN_POSITIVE);
        let delta = (-u.ln() / self.beta).min(tf);
        let start = tf - delta;
        let start_round = start.floor() as usize;
        let frac = start - start.floor();
        MpxState {
            me: view.node(),
            start_round,
            my_qfrac: (frac * (1u32 << 20) as f64) as u32,
            claimed: None,
            claim_broadcast_round: None,
            claim_sent: false,
            announced: false,
            announce_round: self.announce_round(n),
            neighbor_centers: Vec::new(),
        }
    }

    fn broadcast(&self, s: &MpxState, round: usize) -> Option<MpxMsg> {
        if round == s.announce_round {
            let (center, _, _, _) = s.claimed.expect("all nodes claim by the horizon");
            return (!s.announced).then_some(MpxMsg::Announce { center });
        }
        if round >= s.announce_round {
            return None;
        }
        match s.claimed {
            None if round >= s.start_round => Some(MpxMsg::Claim {
                center: s.me.raw(),
                qfrac: s.my_qfrac,
                dist: 0,
            }),
            Some((center, qfrac, dist, _))
                if !s.claim_sent && s.claim_broadcast_round == Some(round) =>
            {
                Some(MpxMsg::Claim {
                    center,
                    qfrac,
                    dist,
                })
            }
            _ => None,
        }
    }

    fn on_broadcast_sent(&self, s: &mut MpxState, round: usize) {
        if round == s.announce_round {
            s.announced = true;
            return;
        }
        if s.claimed.is_none() {
            // Self-claim: I am a cluster center.
            s.claimed = Some((s.me.raw(), s.my_qfrac, 0, None));
        }
        s.claim_sent = true;
    }

    fn receive(&self, s: &mut MpxState, round: usize, msgs: &[(NodeId, MpxMsg)]) {
        if round >= s.announce_round {
            for (from, m) in msgs {
                if let MpxMsg::Announce { center } = m {
                    s.neighbor_centers.push((*from, NodeId::from(*center)));
                }
            }
            return;
        }
        if s.claimed.is_some() {
            return; // earlier waves always have smaller keys
        }
        // Key of an arriving claim: (this round, qfrac, center). My own future
        // self-claim has key (start_round, my_qfrac, me); I only join a wave whose
        // key beats it.
        let best = msgs
            .iter()
            .filter_map(|(from, m)| match m {
                MpxMsg::Claim {
                    center,
                    qfrac,
                    dist,
                } => Some(((round + 1, *qfrac, *center), (*dist, *from))),
                _ => None,
            })
            .min();
        if let Some(((arr, qfrac, center), (dist, from))) = best {
            let self_key = (s.start_round, s.my_qfrac, s.me.raw());
            if (arr, qfrac, center) < self_key {
                s.claimed = Some((center, qfrac, dist + 1, Some(from)));
                s.claim_broadcast_round = Some(round + 1);
            }
        }
    }

    fn is_done(&self, s: &MpxState) -> bool {
        s.announced
    }

    fn output(&self, s: &MpxState) -> MpxOutput {
        let (center, _, dist, parent) = s.claimed.expect("all nodes claim by the horizon");
        let mut neighbor_centers = s.neighbor_centers.clone();
        neighbor_centers.sort_unstable();
        MpxOutput {
            center: NodeId::from(center),
            dist,
            parent,
            neighbor_centers,
        }
    }

    fn next_activity(&self, s: &MpxState, after: usize) -> Option<usize> {
        if s.announced {
            return None;
        }
        if s.claimed.is_none() {
            return Some(after.max(s.start_round));
        }
        if !s.claim_sent {
            if let Some(r) = s.claim_broadcast_round {
                if r < s.announce_round {
                    return Some(after.max(r));
                }
            }
        }
        Some(after.max(s.announce_round))
    }

    fn round_bound(&self, n: usize, _m: usize) -> usize {
        self.announce_round(n) + 8
    }

    fn output_words(&self, out: &MpxOutput) -> usize {
        1 + out.neighbor_centers.len()
    }
}

/// A clustering of the graph: a partition into clusters, each spanned by a rooted
/// tree (the common output shape of MPX and of each Baswana–Sen level).
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Per node: its cluster.
    pub cluster_of: Vec<ClusterId>,
    /// Per node: its cluster-tree parent (`None` at centers).
    pub parent: Vec<Option<NodeId>>,
    /// Per node: hop distance to its cluster center along the tree.
    pub depth: Vec<u32>,
    /// Per cluster: `(center, members)`.
    pub clusters: Vec<(NodeId, Vec<NodeId>)>,
}

impl Clustering {
    /// Builds a clustering from per-node `(center, parent, depth)` triples.
    pub fn from_assignment(centers: &[NodeId], parents: &[Option<NodeId>], depths: &[u32]) -> Self {
        let n = centers.len();
        let mut uniq: Vec<NodeId> = centers.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let cluster_index = |c: NodeId| uniq.binary_search(&c).expect("center exists");
        let mut clusters: Vec<(NodeId, Vec<NodeId>)> =
            uniq.iter().map(|&c| (c, Vec::new())).collect();
        let mut cluster_of = Vec::with_capacity(n);
        for (v, &center) in centers.iter().enumerate() {
            let ci = cluster_index(center);
            cluster_of.push(ClusterId::new(ci));
            clusters[ci].1.push(NodeId::new(v));
        }
        Self {
            cluster_of,
            parent: parents.to_vec(),
            depth: depths.to_vec(),
            clusters: clusters.clone(),
        }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters (empty graph).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Maximum tree depth over all clusters.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// The forest of all cluster trees.
    ///
    /// # Errors
    ///
    /// Propagates forest validation errors (impossible for a valid clustering).
    pub fn forest(&self, g: &Graph) -> Result<congest_engine::Forest, congest_engine::EngineError> {
        congest_engine::Forest::from_parents(g, self.parent.clone())
    }

    /// Checks the strong-diameter property: within each cluster's induced subgraph,
    /// every member is reachable from the center within `bound` hops. Returns the
    /// maximum strong radius observed.
    pub fn strong_radius(&self, g: &Graph) -> u32 {
        let mut worst = 0;
        for (center, members) in &self.clusters {
            let mut in_set = vec![false; g.n()];
            for &v in members {
                in_set[v.index()] = true;
            }
            let sub = congest_graph::induced_subgraph_same_ids(g, &in_set);
            let dist = congest_graph::reference::bfs_distances(&sub, *center);
            for &v in members {
                worst = worst.max(dist[v.index()].expect("clusters are connected"));
            }
        }
        worst
    }
}

/// Result of running MPX: the clustering plus the per-node neighbor-center lists and
/// the realized execution cost.
#[derive(Clone, Debug)]
pub struct MpxRun {
    /// The clustering.
    pub clustering: Clustering,
    /// `(neighbor, neighbor's center)` lists, per node.
    pub neighbor_centers: Vec<Vec<(NodeId, NodeId)>>,
    /// Execution cost of the distributed construction.
    pub metrics: congest_engine::Metrics,
}

/// Runs the distributed MPX decomposition on `g` as one BCONGEST run.
///
/// # Errors
///
/// Propagates engine errors (round-limit; cannot occur for valid parameters).
pub fn run_mpx(g: &Graph, beta: f64, seed: u64) -> Result<MpxRun, congest_engine::EngineError> {
    let algo = MpxAlgorithm::new(beta);
    let opts = congest_engine::RunOptions {
        seed,
        ..Default::default()
    };
    let run = congest_engine::run_bcongest(&algo, g, None, &opts)?;
    let centers: Vec<NodeId> = run.outputs.iter().map(|o| o.center).collect();
    let parents: Vec<Option<NodeId>> = run.outputs.iter().map(|o| o.parent).collect();
    let depths: Vec<u32> = run.outputs.iter().map(|o| o.dist).collect();
    let clustering = Clustering::from_assignment(&centers, &parents, &depths);
    Ok(MpxRun {
        clustering,
        neighbor_centers: run
            .outputs
            .into_iter()
            .map(|o| o.neighbor_centers)
            .collect(),
        metrics: run.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn partitions_and_trees_are_valid() {
        for seed in 0..5 {
            let g = generators::gnp_connected(50, 0.08, seed);
            let run = run_mpx(&g, 0.5, seed).unwrap();
            let c = &run.clustering;
            // Partition: every node in exactly one cluster.
            let total: usize = c.clusters.iter().map(|(_, m)| m.len()).sum();
            assert_eq!(total, g.n());
            // Trees are valid (parents are edges, no cycles) and stay in-cluster.
            let forest = c.forest(&g).unwrap();
            for v in g.nodes() {
                assert_eq!(
                    c.cluster_of[forest.root_of(v).index()],
                    c.cluster_of[v.index()]
                );
            }
        }
    }

    #[test]
    fn strong_radius_is_logarithmic() {
        let g = generators::gnp_connected(80, 0.06, 3);
        let run = run_mpx(&g, 0.5, 7).unwrap();
        let r = run.clustering.strong_radius(&g);
        // Radius ≤ horizon = 3 ln n / β ≈ 26; and tree depth matches.
        let bound = MpxAlgorithm::new(0.5).horizon(g.n()).ceil() as u32 + 1;
        assert!(r <= bound, "strong radius {r} > {bound}");
        assert!(run.clustering.max_depth() <= bound);
    }

    #[test]
    fn depth_agrees_with_tree() {
        let g = generators::grid(8, 8);
        let run = run_mpx(&g, 0.5, 1).unwrap();
        let forest = run.clustering.forest(&g).unwrap();
        for v in g.nodes() {
            assert_eq!(forest.depth_of(v), run.clustering.depth[v.index()]);
        }
    }

    #[test]
    fn neighbor_centers_complete() {
        let g = generators::gnp_connected(30, 0.15, 2);
        let run = run_mpx(&g, 0.5, 2).unwrap();
        for v in g.nodes() {
            assert_eq!(run.neighbor_centers[v.index()].len(), g.degree(v));
            for &(u, cu) in &run.neighbor_centers[v.index()] {
                let (uc, _) =
                    &run.clustering.clusters[run.clustering.cluster_of[u.index()].index()];
                assert_eq!(*uc, cu);
            }
        }
    }

    #[test]
    fn messages_linear_in_m() {
        let g = generators::gnp_connected(60, 0.1, 5);
        let run = run_mpx(&g, 0.5, 5).unwrap();
        // Each node broadcasts at most twice (claim + announce): messages ≤ 4m + slack.
        assert!(run.metrics.messages <= 4 * g.m() as u64 + 2 * g.n() as u64);
        assert!(run.metrics.broadcasts <= 2 * g.n() as u64);
    }

    #[test]
    fn rounds_logarithmic() {
        let g = generators::gnp_connected(100, 0.05, 6);
        let run = run_mpx(&g, 0.5, 6).unwrap();
        let bound = MpxAlgorithm::new(0.5).round_bound(g.n(), g.m()) as u64;
        assert!(run.metrics.rounds <= bound);
    }

    #[test]
    fn beta_controls_cluster_count() {
        let g = generators::gnp_connected(80, 0.08, 9);
        let coarse = run_mpx(&g, 0.2, 9).unwrap();
        let fine = run_mpx(&g, 2.0, 9).unwrap();
        assert!(coarse.clustering.len() <= fine.clustering.len());
    }
}
