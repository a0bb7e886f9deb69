//! The differential answer checks: an [`AnswerCheck`] validates one served
//! answer against a sequential reference, and [`ExactReference`] is that
//! reference for exact sources (an all-pairs Dijkstra matrix).
//!
//! The module keeps its name because the benchmark under `bench/` imports
//! these two items from the `serve::loadgen` path.

use apsp_core::distance::Distance;
use congest_graph::{reference, NodeId, WeightedGraph};

/// Differential checker for served answers.
pub trait AnswerCheck {
    /// Validates one point/batched answer.
    ///
    /// # Errors
    ///
    /// Describes the divergence.
    fn check_point(&self, s: NodeId, t: NodeId, got: Distance) -> Result<(), String>;

    /// Validates one k-nearest answer.
    ///
    /// # Errors
    ///
    /// Describes the divergence.
    fn check_knn(&self, s: NodeId, k: usize, got: &[(NodeId, Distance)]) -> Result<(), String>;
}

/// The sequential reference for **exact** sources: a `want[s][t]` distance
/// matrix (all-pairs Dijkstra). Point answers must be byte-equal;
/// k-nearest answers must equal the reference ordering under the
/// `(distance, node id)` total order.
#[derive(Clone, Debug)]
pub struct ExactReference {
    want: Vec<Vec<Option<u64>>>,
}

impl ExactReference {
    /// Wraps a precomputed `want[s][t]` matrix.
    pub fn new(want: Vec<Vec<Option<u64>>>) -> Self {
        Self { want }
    }

    /// The sequential all-pairs Dijkstra reference for `wg`.
    pub fn dijkstra(wg: &WeightedGraph) -> Self {
        Self::new(reference::all_pairs_dijkstra(wg))
    }

    /// The reference's own k-nearest answer from `s`.
    fn k_nearest(&self, s: NodeId, k: usize) -> Vec<(NodeId, u64)> {
        let mut reached: Vec<(u64, usize)> = self.want[s.index()]
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != s.index())
            .filter_map(|(t, &d)| d.map(|v| (v, t)))
            .collect();
        reached.sort_unstable();
        reached
            .into_iter()
            .take(k)
            .map(|(v, t)| (NodeId::new(t), v))
            .collect()
    }
}

impl AnswerCheck for ExactReference {
    fn check_point(&self, s: NodeId, t: NodeId, got: Distance) -> Result<(), String> {
        let want = match self.want[s.index()][t.index()] {
            Some(d) => Distance::Exact(d),
            None => Distance::Unknown,
        };
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "lookup({s:?},{t:?}) served {got:?}, reference {want:?}"
            ))
        }
    }

    fn check_knn(&self, s: NodeId, k: usize, got: &[(NodeId, Distance)]) -> Result<(), String> {
        let want = self.k_nearest(s, k);
        let got_flat: Vec<(NodeId, u64)> = got
            .iter()
            .map(|&(t, d)| {
                d.value()
                    .map(|v| (t, v))
                    .ok_or_else(|| format!("k_nearest({s:?},{k}) served uncovered node {t:?}"))
            })
            .collect::<Result<_, _>>()?;
        if got_flat == want {
            Ok(())
        } else {
            Err(format!(
                "k_nearest({s:?},{k}) served {got_flat:?}, reference {want:?}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The path 0–1–2 plus the isolated node 3: from 1, nodes 0 and 2 tie at
    /// distance 1, and 3 is unreachable from everyone.
    fn path_and_isolated() -> ExactReference {
        let want = (0..4usize)
            .map(|s| {
                (0..4usize)
                    .map(|t| ((s < 3 && t < 3) || s == t).then_some(s.abs_diff(t) as u64))
                    .collect()
            })
            .collect();
        ExactReference::new(want)
    }

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn check_point_rejects_a_wrong_exact_distance() {
        let check = path_and_isolated();
        assert!(check.check_point(v(0), v(2), Distance::Exact(2)).is_ok());
        assert!(check.check_point(v(0), v(2), Distance::Exact(3)).is_err());
    }

    #[test]
    fn check_point_rejects_unknown_where_a_path_exists() {
        let check = path_and_isolated();
        assert!(check.check_point(v(0), v(3), Distance::Unknown).is_ok());
        assert!(check.check_point(v(0), v(2), Distance::Unknown).is_err());
    }

    #[test]
    fn check_point_rejects_an_estimate_for_an_exact_pair() {
        let check = path_and_isolated();
        assert!(check.check_point(v(1), v(2), Distance::Exact(1)).is_ok());
        assert!(check
            .check_point(v(1), v(2), Distance::Estimate(1))
            .is_err());
    }

    #[test]
    fn check_knn_rejects_swapped_ties() {
        let check = path_and_isolated();
        let (a, b) = ((v(0), Distance::Exact(1)), (v(2), Distance::Exact(1)));
        assert!(check.check_knn(v(1), 2, &[a, b]).is_ok());
        assert!(check.check_knn(v(1), 2, &[b, a]).is_err());
    }

    #[test]
    fn check_knn_rejects_an_uncovered_node() {
        let check = path_and_isolated();
        let near = [(v(0), Distance::Exact(1)), (v(2), Distance::Exact(1))];
        // Node 3 is unreachable, so k = 3 is answered by the two covered nodes.
        assert!(check.check_knn(v(1), 3, &near).is_ok());
        let with_uncovered = [near[0], near[1], (v(3), Distance::Unknown)];
        assert!(check.check_knn(v(1), 3, &with_uncovered).is_err());
    }

    #[test]
    fn check_knn_rejects_a_list_one_short() {
        let check = path_and_isolated();
        let near = [(v(1), Distance::Exact(1)), (v(2), Distance::Exact(2))];
        assert!(check.check_knn(v(0), 2, &near).is_ok());
        assert!(check.check_knn(v(0), 2, &near[..1]).is_err());
    }
}
