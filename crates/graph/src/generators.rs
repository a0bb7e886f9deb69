//! Seeded graph generators for every family used by the tests, examples and experiments.
//!
//! All generators are deterministic in their seed. Families were chosen to stress the
//! quantities the paper cares about: dense graphs (`m = Θ(n²)`, where message-optimality
//! matters most), high-diameter graphs (where round complexity matters), and mixtures
//! (`barbell`: two cliques joined by a long path — dense *and* high-diameter, the
//! worst case for "round-optimal but message-wasteful" baselines).

use crate::rng::{derive, seeded};
use crate::{Graph, GraphBuilder};
use rand::seq::SliceRandom;
use rand::Rng;

/// Path graph `P_n`: nodes `0..n` in a line.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(
        n,
        &(0..n.saturating_sub(1))
            .map(|i| (i, i + 1))
            .collect::<Vec<_>>(),
    )
}

/// Cycle graph `C_n` (requires `n >= 3`).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.push((n - 1, 0));
    Graph::from_edges(n, &edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Star graph: node 0 is the hub, nodes `1..n` are leaves.
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, &(1..n).map(|i| (0, i)).collect::<Vec<_>>())
}

/// `w × h` grid graph (4-neighborhood). Node `(x, y)` has index `y*w + x`.
pub fn grid(w: usize, h: usize) -> Graph {
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                edges.push((i, i + 1));
            }
            if y + 1 < h {
                edges.push((i, i + w));
            }
        }
    }
    Graph::from_edges(w * h, &edges)
}

/// Complete balanced binary tree with `n` nodes (node `i`'s parent is `(i-1)/2`).
pub fn binary_tree(n: usize) -> Graph {
    Graph::from_edges(n, &(1..n).map(|i| (i, (i - 1) / 2)).collect::<Vec<_>>())
}

/// Uniform random labelled tree on `n` nodes (random Prüfer-like attachment: node `i`
/// attaches to a uniform node in `0..i`).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    Graph::from_edges(n, &random_tree_edges(n, seed))
}

/// The edge list of [`random_tree`].
fn random_tree_edges(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut r = seeded(derive(seed, 0x7265_6531));
    (1..n).map(|i| (i, r.random_range(0..i))).collect()
}

/// Sparse connected graph in `O(n + extra_edges)` time: a uniform random
/// recursive tree (expected depth `O(log n)`, so rounds stay low at any `n`)
/// plus `extra_edges` uniform random chords. Self-loop chords are skipped and
/// the builder dedups parallel edges, so `m` lands slightly below
/// `n - 1 + extra_edges`. This is the large-`n` generator behind the scale
/// bench — the `gnp*` family costs `Θ(n²)` to sample and is unusable past
/// ~10⁴ nodes.
pub fn sparse_connected(n: usize, extra_edges: usize, seed: u64) -> Graph {
    let mut r = seeded(derive(seed, 0x7370_6172));
    let mut b = GraphBuilder::new(n);
    b.add_edges((1..n).map(|i| (i, r.random_range(0..i))));
    for _ in 0..extra_edges {
        let u = r.random_range(0..n);
        let v = r.random_range(0..n);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)` (possibly disconnected).
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    Graph::from_edges(n, &gnp_edges(n, p, seed))
}

/// The edge list of [`gnp`].
fn gnp_edges(n: usize, p: f64, seed: u64) -> Vec<(usize, usize)> {
    let mut r = seeded(derive(seed, 0x676e_7001));
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if r.random::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Connected Erdős–Rényi: `G(n, p)` unioned with a uniform random spanning tree, so the
/// result is always connected but keeps G(n,p)'s degree/edge statistics for `p ≫ 1/n`.
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Graph {
    let mut edges = gnp_edges(n, p, seed);
    edges.extend(random_tree_edges(n, derive(seed, 0x676e_7002)));
    Graph::from_edges(n, &edges)
}

/// Barbell: two cliques `K_k` joined by a path of `path_len` extra nodes.
///
/// Dense *and* high-diameter — the family where "round-optimal but `Θ(mn)`-message"
/// baselines waste the most messages. Total nodes: `2k + path_len`.
pub fn barbell(k: usize, path_len: usize) -> Graph {
    assert!(k >= 1, "cliques need at least one node");
    let n = 2 * k + path_len;
    let mut edges = Vec::new();
    for u in 0..k {
        for v in (u + 1)..k {
            edges.push((u, v));
        }
    }
    let right = k + path_len;
    for u in right..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    // Path from node k-1 through the middle nodes to node `right`.
    let mut prev = k - 1;
    for mid in k..right {
        edges.push((prev, mid));
        prev = mid;
    }
    edges.push((prev, right));
    Graph::from_edges(n, &edges)
}

/// Connected caveman graph: `cliques` cliques of `size` nodes each, arranged in a ring
/// with one edge between consecutive cliques. A natural "clustered" family for the
/// decomposition experiments.
pub fn caveman(cliques: usize, size: usize) -> Graph {
    assert!(cliques >= 1 && size >= 1);
    let n = cliques * size;
    let mut edges = Vec::new();
    for c in 0..cliques {
        let base = c * size;
        for u in 0..size {
            for v in (u + 1)..size {
                edges.push((base + u, base + v));
            }
        }
        if cliques > 1 {
            let next = ((c + 1) % cliques) * size;
            edges.push((base, next));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Random bipartite graph: left nodes `0..nl`, right nodes `nl..nl+nr`, each cross pair is
/// an edge with probability `p`. Isolated nodes are possible (matching algorithms must
/// handle them).
pub fn random_bipartite(nl: usize, nr: usize, p: f64, seed: u64) -> Graph {
    Graph::from_edges(nl + nr, &random_bipartite_edges(nl, nr, p, seed))
}

/// The edge list of [`random_bipartite`].
fn random_bipartite_edges(nl: usize, nr: usize, p: f64, seed: u64) -> Vec<(usize, usize)> {
    let mut r = seeded(derive(seed, 0x6269_7001));
    let mut edges = Vec::new();
    for u in 0..nl {
        for v in 0..nr {
            if r.random::<f64>() < p {
                edges.push((u, nl + v));
            }
        }
    }
    edges
}

/// Connected random bipartite graph: like [`random_bipartite`] but augmented with a
/// bipartiteness-preserving random spanning structure (left `i` — right `i mod nr`,
/// right `j` — left `j mod nl` chains) so it is connected.
pub fn random_bipartite_connected(nl: usize, nr: usize, p: f64, seed: u64) -> Graph {
    assert!(nl >= 1 && nr >= 1);
    let mut edges = random_bipartite_edges(nl, nr, p, seed);
    // A bipartite double chain: L0-R0-L1-R1-… touches every node.
    let chain = nl.max(nr);
    for i in 0..chain {
        let l = i % nl;
        let rr = i % nr;
        edges.push((l, nl + rr));
        if i + 1 < chain {
            edges.push(((i + 1) % nl, nl + rr));
        }
    }
    Graph::from_edges(nl + nr, &edges)
}

/// Random `d`-regular-ish graph via the configuration model (simple-graph rejection of
/// self-loops/multi-edges, then connectivity patched with a path). Degrees are `≤ d` and
/// close to `d` for `n·d` even.
pub fn random_regularish(n: usize, d: usize, seed: u64) -> Graph {
    assert!(d < n, "degree must be below n");
    let mut r = seeded(derive(seed, 0x7265_6702));
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(&mut r);
    let mut b = GraphBuilder::new(n);
    for pair in stubs.chunks_exact(2) {
        if pair[0] != pair[1] {
            b.add_edge(pair[0], pair[1]);
        }
    }
    // Patch connectivity with a path (adds ≤ n-1 edges; keeps max degree ≤ d+2).
    for i in 0..n.saturating_sub(1) {
        b.add_edge(i, i + 1);
    }
    b.build()
}

/// Preferential-attachment power-law graph (Barabási–Albert flavour): nodes
/// arrive one at a time and attach to `attach` distinct existing nodes chosen
/// proportionally to degree (sampled from the stub list, so early nodes become
/// hubs). Always connected; degree distribution is heavy-tailed — the skewed
/// family where per-node fan-out is maximally unbalanced across shards.
///
/// # Panics
///
/// Panics if `n < 2` or `attach == 0`.
pub fn power_law(n: usize, attach: usize, seed: u64) -> Graph {
    assert!(n >= 2, "power_law needs at least 2 nodes");
    assert!(attach >= 1, "each arrival must attach somewhere");
    let mut r = seeded(derive(seed, 0x706f_7701));
    let mut b = GraphBuilder::new(n);
    // One entry per edge endpoint: sampling uniformly from `stubs` is sampling
    // nodes proportionally to their current degree.
    let mut stubs: Vec<usize> = vec![0, 1];
    b.add_edge(0, 1);
    for v in 2..n {
        let want = attach.min(v);
        let mut targets: Vec<usize> = Vec::with_capacity(want);
        while targets.len() < want {
            let t = stubs[r.random_range(0..stubs.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge(v, t);
            stubs.push(v);
            stubs.push(t);
        }
    }
    b.build()
}

/// Hub-and-spoke topology: `hubs` hub nodes forming a clique, each carrying
/// `spokes_per_hub` degree-1 leaves (leaf `j` hangs off hub `j % hubs`).
/// Total nodes: `hubs * (1 + spokes_per_hub)`; hubs are nodes `0..hubs`.
/// Deterministic by construction (no randomness). The extreme skew case:
/// almost all traffic funnels through the hub clique.
///
/// # Panics
///
/// Panics if `hubs == 0`.
pub fn hub_and_spoke(hubs: usize, spokes_per_hub: usize) -> Graph {
    assert!(hubs >= 1, "need at least one hub");
    let n = hubs * (1 + spokes_per_hub);
    let mut edges = Vec::new();
    for h in 0..hubs {
        for h2 in (h + 1)..hubs {
            edges.push((h, h2));
        }
    }
    for s in 0..hubs * spokes_per_hub {
        edges.push((s % hubs, hubs + s));
    }
    Graph::from_edges(n, &edges)
}

/// The lower-bound-flavoured family from Abboud–Censor-Hillel–Khoury \[1\]-style
/// constructions: a sparse core of two node sets with a perfect matching "bit gadget"
/// bridged by a path. Used here simply as a sparse, high-diameter stress instance.
pub fn sparse_bridge(k: usize, bridge_len: usize) -> Graph {
    // Left column 0..k, right column k..2k, matched pairwise through a shared path.
    let n = 2 * k + bridge_len;
    let mut edges = Vec::new();
    for i in 0..k.saturating_sub(1) {
        edges.push((i, i + 1));
        edges.push((k + i, k + i + 1));
    }
    let start = 2 * k;
    if bridge_len > 0 {
        edges.push((k - 1, start));
        for i in 0..bridge_len - 1 {
            edges.push((start + i, start + i + 1));
        }
        edges.push((start + bridge_len - 1, 2 * k - 1));
    } else {
        edges.push((k - 1, 2 * k - 1));
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn is_connected(g: &Graph) -> bool {
        reference::connected_components(g).1 <= 1
    }

    fn max_degree(g: &Graph) -> usize {
        g.nodes().map(|v| g.degree(v)).max().unwrap_or(0)
    }

    #[test]
    fn sparse_connected_is_connected_sparse_and_shallow() {
        let g = sparse_connected(5000, 2500, 3);
        assert!(is_connected(&g));
        assert!(g.m() >= 4999, "tree backbone survives dedup");
        assert!(g.m() <= 4999 + 2500);
        // The recursive-tree backbone keeps the graph low-diameter: BFS from
        // node 0 must reach everything within O(log n) ≪ n hops.
        let dist = reference::bfs_distances(&g, crate::NodeId::new(0));
        let ecc = dist.iter().map(|d| d.expect("connected")).max().unwrap();
        assert!(ecc <= 64, "eccentricity {ecc} is not logarithmic");
        // Determinism: same parameters, same graph.
        assert_eq!(g, sparse_connected(5000, 2500, 3));
    }

    #[test]
    fn path_and_cycle_shapes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(reference::diameter(&path(5)), Some(4));
    }

    #[test]
    fn complete_edge_count() {
        let g = complete(7);
        assert_eq!(g.m(), 21);
        assert_eq!(reference::diameter(&g), Some(1));
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(crate::NodeId::new(0)), 4);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // vertical 3*3, horizontal 2*4
        assert_eq!(reference::diameter(&g), Some(2 + 3));
    }

    #[test]
    fn trees_are_trees() {
        for seed in 0..5 {
            let t = random_tree(20, seed);
            assert_eq!(t.m(), 19);
            assert!(is_connected(&t));
        }
        let b = binary_tree(15);
        assert_eq!(b.m(), 14);
        assert!(is_connected(&b));
    }

    #[test]
    fn gnp_connected_is_connected() {
        for seed in 0..5 {
            let g = gnp_connected(40, 0.05, seed);
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn gnp_deterministic() {
        let a = gnp(30, 0.2, 9);
        let b = gnp(30, 0.2, 9);
        assert_eq!(a.m(), b.m());
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5, 3);
        assert_eq!(g.n(), 13);
        assert!(is_connected(&g));
        // Diameter is path through the bridge: 1 + (3+1) + 1 = 6? ends of cliques:
        // clique-node -> k-1 (1 hop) -> 3 mid nodes + 1 -> right edge -> clique node.
        assert_eq!(reference::diameter(&g), Some(6));
    }

    #[test]
    fn caveman_connected() {
        let g = caveman(4, 5);
        assert_eq!(g.n(), 20);
        assert!(is_connected(&g));
    }

    /// The connected variants build one edge list, and get the graph they built before as
    /// the union of a built `gnp` / `random_bipartite` graph and their extra edges.
    #[test]
    fn connected_variants_equal_their_unions() {
        let edge_list = |g: &Graph| -> Vec<(usize, usize)> {
            g.edges().map(|(_, u, v)| (u.index(), v.index())).collect()
        };
        for seed in 0..4 {
            let mut b = GraphBuilder::new(40);
            b.add_edges(edge_list(&gnp(40, 0.1, seed)));
            b.add_edges(edge_list(&random_tree(40, derive(seed, 0x676e_7002))));
            assert_eq!(gnp_connected(40, 0.1, seed), b.build());

            let (nl, nr) = (9, 6);
            let mut b = GraphBuilder::new(nl + nr);
            b.add_edges(edge_list(&random_bipartite(nl, nr, 0.2, seed)));
            for i in 0..nl {
                b.add_edge(i, nl + i % nr);
                if i + 1 < nl {
                    b.add_edge(i + 1, nl + i % nr);
                }
            }
            assert_eq!(random_bipartite_connected(nl, nr, 0.2, seed), b.build());
        }
    }

    #[test]
    fn bipartite_families_are_bipartite() {
        let g = random_bipartite(8, 6, 0.4, 3);
        assert!(reference::bipartition(&g).is_some());
        let gc = random_bipartite_connected(8, 6, 0.4, 3);
        assert!(reference::bipartition(&gc).is_some());
        assert!(is_connected(&gc));
    }

    #[test]
    fn regularish_degrees_bounded() {
        let g = random_regularish(30, 4, 1);
        assert!(is_connected(&g));
        assert!(max_degree(&g) <= 6);
    }

    #[test]
    fn power_law_is_connected_skewed_and_deterministic() {
        for &(n, attach) in &[(56usize, 2usize), (256, 3)] {
            let g = power_law(n, attach, 21);
            assert_eq!(g.n(), n);
            assert!(is_connected(&g));
            // Heavy tail: the hubbiest node dominates the attachment floor.
            assert!(max_degree(&g) >= 3 * attach);
            assert_eq!(g, power_law(n, attach, 21), "seeded determinism");
        }
        assert_ne!(power_law(56, 2, 21), power_law(56, 2, 22));
    }

    #[test]
    fn hub_and_spoke_shape() {
        let g = hub_and_spoke(4, 6);
        assert_eq!(g.n(), 4 * 7);
        // Clique edges + one edge per leaf.
        assert_eq!(g.m(), 4 * 3 / 2 + 4 * 6);
        assert!(is_connected(&g));
        // Every hub carries its clique links plus its share of leaves.
        for h in 0..4 {
            assert_eq!(g.degree(crate::NodeId::new(h)), 3 + 6);
        }
        assert_eq!(g, hub_and_spoke(4, 6), "structural determinism");
    }

    #[test]
    fn sparse_bridge_connected() {
        let g = sparse_bridge(6, 4);
        assert!(is_connected(&g));
        assert_eq!(g.n(), 16);
    }
}
