//! Verification oracles used by tests, examples and the experiment harness.
//!
//! Distance answers are checked **generically** through
//! [`crate::distance::DistanceSource`]: two private checkers validate a source
//! against sequential all-pairs Dijkstra and all-pairs BFS without
//! pattern-matching concrete result structs, and the matrix-shaped checkers
//! below are thin adapters over the two.

use crate::distance::{Distance, DistanceSource, MatrixSource};
use congest_graph::{reference, EdgeId, Graph, NodeId, WeightedGraph};

/// Validates one source answer against the reference distance for the pair.
///
/// Exact sources must reproduce the reference everywhere (including
/// [`Distance::Unknown`] exactly on unreachable pairs); estimate sources must
/// stay **admissible** — never below the true distance, and never an answer
/// where no path exists.
fn check_answer(s: usize, t: usize, got: Distance, want: Option<u64>) -> Result<(), String> {
    match (got, want) {
        (Distance::Exact(d), Some(w)) if d == w => Ok(()),
        (Distance::Estimate(d), Some(w)) if d >= w => Ok(()),
        (Distance::Unknown, None) => Ok(()),
        (Distance::Unknown, Some(_)) => Ok(()), // estimates may not cover near pairs
        _ => Err(format!("distance({s},{t}) = {got:?}, reference {want:?}")),
    }
}

/// Checks every pair a [`DistanceSource`] answers against a reference
/// `want[s][t]` matrix. Exact sources must match the reference exactly
/// (`Unknown` only on unreachable pairs); estimate sources must be admissible
/// upper bounds.
fn check_source(src: &dyn DistanceSource, want: &[Vec<Option<u64>>]) -> Result<(), String> {
    if src.n() != want.len() {
        return Err(format!(
            "source covers {} nodes, reference has {}",
            src.n(),
            want.len()
        ));
    }
    for (s, row) in want.iter().enumerate() {
        for (t, &cell) in row.iter().enumerate() {
            let got = src.distance(NodeId::new(s), NodeId::new(t));
            if src.is_exact() {
                if got == Distance::Unknown && cell.is_some() {
                    return Err(format!(
                        "exact source does not cover reachable pair ({s},{t})"
                    ));
                }
                if matches!(got, Distance::Estimate(_)) {
                    return Err(format!("exact source answered an estimate for ({s},{t})"));
                }
            }
            check_answer(s, t, got, cell)?;
        }
    }
    Ok(())
}

/// Checks a [`DistanceSource`] against sequential all-pairs Dijkstra; the
/// first violating `(source, target)` pair is the error.
fn check_distance_source_weighted(
    wg: &WeightedGraph,
    src: &dyn DistanceSource,
) -> Result<(), String> {
    check_source(src, &reference::all_pairs_dijkstra(wg))
}

/// Checks a [`DistanceSource`] against sequential all-pairs BFS; the first
/// violating `(source, target)` pair is the error.
fn check_distance_source_unweighted(g: &Graph, src: &dyn DistanceSource) -> Result<(), String> {
    let want: Vec<Vec<Option<u64>>> = reference::all_pairs_bfs(g)
        .into_iter()
        .map(|row| row.into_iter().map(|d| d.map(u64::from)).collect())
        .collect();
    check_source(src, &want)
}

/// Checks an unweighted APSP answer (`dist[v][s]`) against sequential all-pairs BFS.
///
/// # Errors
///
/// Returns the first mismatching `(source, node)` pair.
pub fn check_unweighted_apsp(g: &Graph, dist: &[Vec<Option<u32>>]) -> Result<(), String> {
    let widened: Vec<Vec<Option<u64>>> = dist
        .iter()
        .map(|row| row.iter().map(|d| d.map(u64::from)).collect())
        .collect();
    check_distance_source_unweighted(g, &MatrixSource::new(&widened))
}

/// Checks a weighted APSP answer (`dist[v][s]`) against sequential all-pairs
/// Dijkstra.
///
/// # Errors
///
/// Returns the first mismatching `(source, node)` pair.
pub fn check_weighted_apsp(wg: &WeightedGraph, dist: &[Vec<Option<u64>>]) -> Result<(), String> {
    check_distance_source_weighted(wg, &MatrixSource::new(dist))
}

/// Checks that `edges` is exactly the minimum spanning forest of `wg` under the
/// `(weight, EdgeId)` total order, differentially against **both** sequential oracles
/// (Kruskal and Prim) plus the structural spanning-forest validator.
///
/// # Errors
///
/// Describes the first violation (oracle disagreement, wrong edge set, wrong weight,
/// or not a spanning forest).
pub fn check_mst(wg: &WeightedGraph, edges: &[EdgeId]) -> Result<(), String> {
    let kruskal = reference::mst_kruskal(wg);
    let prim = reference::mst_prim(wg);
    if kruskal != prim {
        return Err("oracle disagreement: Kruskal != Prim (tie-break bug)".into());
    }
    let mut sorted = edges.to_vec();
    sorted.sort_unstable();
    if sorted != kruskal.edges {
        return Err(format!(
            "edge set mismatch: got {} edges, oracle has {} (first diff at {:?})",
            sorted.len(),
            kruskal.edges.len(),
            sorted
                .iter()
                .zip(&kruskal.edges)
                .find(|(a, b)| a != b)
                .map(|(a, _)| *a)
        ));
    }
    if !reference::is_spanning_forest(wg.graph(), &sorted) {
        return Err("edge set is not a spanning forest".into());
    }
    Ok(())
}

/// Checks a matching is a *maximum* matching of a bipartite graph.
///
/// # Errors
///
/// Describes the violation (not a matching / not maximum / not bipartite).
pub fn check_maximum_matching(
    g: &Graph,
    pairs: &[(congest_graph::NodeId, congest_graph::NodeId)],
) -> Result<(), String> {
    if !reference::is_matching(g, pairs) {
        return Err("not a matching".into());
    }
    let want = reference::hopcroft_karp(g).ok_or("graph is not bipartite")?;
    if pairs.len() != want {
        return Err(format!("matching size {} ≠ maximum {want}", pairs.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn apsp_checkers_accept_reference_answers() {
        let g = generators::gnp_connected(12, 0.3, 1);
        let bfs = reference::all_pairs_bfs(&g);
        // Transpose: checkers take dist[v][s].
        let dist: Vec<Vec<Option<u32>>> = (0..g.n())
            .map(|v| (0..g.n()).map(|s| bfs[s][v]).collect())
            .collect();
        check_unweighted_apsp(&g, &dist).unwrap();

        let wg = WeightedGraph::random_weights(&g, 1..=5, 1);
        let dij = reference::all_pairs_dijkstra(&wg);
        let wdist: Vec<Vec<Option<u64>>> = (0..g.n())
            .map(|v| (0..g.n()).map(|s| dij[s][v]).collect())
            .collect();
        check_weighted_apsp(&wg, &wdist).unwrap();
    }

    #[test]
    fn apsp_checker_rejects_wrong_answers() {
        let g = generators::path(4);
        let mut dist: Vec<Vec<Option<u32>>> = vec![vec![Some(0); 4]; 4];
        dist[3][0] = Some(99);
        assert!(check_unweighted_apsp(&g, &dist).is_err());
    }

    #[test]
    fn mst_checker_accepts_oracle_and_rejects_wrong_sets() {
        let g = generators::gnp_connected(18, 0.25, 4);
        let wg = WeightedGraph::random_weights(&g, 1..=5, 4);
        let want = reference::mst_kruskal(&wg);
        check_mst(&wg, &want.edges).unwrap();
        // Any strict subset fails.
        assert!(check_mst(&wg, &want.edges[1..]).is_err());
        // Swapping in a non-MST edge fails.
        let non_tree = (0..g.m())
            .map(EdgeId::new)
            .find(|e| !want.edges.contains(e))
            .unwrap();
        let mut wrong = want.edges.clone();
        wrong[0] = non_tree;
        assert!(check_mst(&wg, &wrong).is_err());
    }

    #[test]
    fn matching_checker() {
        let g = generators::cycle(6);
        use congest_graph::NodeId;
        let max = vec![
            (NodeId::new(0), NodeId::new(1)),
            (NodeId::new(2), NodeId::new(3)),
            (NodeId::new(4), NodeId::new(5)),
        ];
        check_maximum_matching(&g, &max).unwrap();
        assert!(check_maximum_matching(&g, &max[..2]).is_err());
    }
}
