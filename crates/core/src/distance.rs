//! The common query surface over every distance structure the paper builds.
//!
//! The APSP, landmark and BFS computations all end in the same place: a data
//! structure whose entire point is to answer "how far is `t` from `s`?". Until
//! now each result struct exposed its own matrix layout and every consumer
//! pattern-matched the concrete type. [`DistanceSource`] unifies them: one
//! `distance(s, t)` signature whose return type distinguishes **exact**
//! answers from admissible **estimates** — the landmark structure of §3.3
//! answers with upper bounds that are only guaranteed tight for far pairs,
//! while the Theorem 1.1/1.2 matrices are exact everywhere.
//!
//! `congest-serve` builds its [`DistanceOracle`] over this trait, and the
//! [`crate::verify`] checkers validate through it generically, so new
//! distance structures plug into serving and verification by implementing one
//! trait.
//!
//! [`DistanceOracle`]: https://docs.rs/congest-serve

use crate::bfs_trees::BfsForestResult;
use crate::landmarks::LandmarkResult;
use crate::tradeoff::TradeoffResult;
use crate::weighted_apsp::WeightedApspResult;
use congest_graph::NodeId;

/// One answer to a distance query, with its guarantee in the type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Distance {
    /// The exact shortest-path distance.
    Exact(u64),
    /// An admissible estimate: an upper bound on the true distance (the
    /// landmark guarantee — exact whenever a landmark lies on a shortest
    /// path, an overshoot otherwise; never an undershoot).
    Estimate(u64),
    /// The structure does not cover the pair — no path exists (exact
    /// sources), or no landmark reaches both endpoints (estimate sources).
    Unknown,
}

impl Distance {
    /// The numeric value, if the pair is covered.
    pub fn value(self) -> Option<u64> {
        match self {
            Distance::Exact(d) | Distance::Estimate(d) => Some(d),
            Distance::Unknown => None,
        }
    }

    /// Whether this answer carries the exact-distance guarantee.
    pub fn is_exact(self) -> bool {
        matches!(self, Distance::Exact(_))
    }
}

/// A queryable distance structure over nodes `0..n`.
///
/// Implementations must be **pure**: `distance` is a function of the built
/// structure only, so repeated queries (and cached re-serves) are
/// byte-identical — the `tests/serve_conformance.rs` suite pins this.
pub trait DistanceSource {
    /// Number of nodes the structure covers (queries take `NodeId`s below
    /// this).
    fn n(&self) -> usize;

    /// Whether every covered pair is answered [`Distance::Exact`] (`false`
    /// for estimate structures like the landmark sketch).
    fn is_exact(&self) -> bool;

    /// The distance from `s` to `t` as this structure knows it.
    fn distance(&self, s: NodeId, t: NodeId) -> Distance;
}

/// Every `&S` serves like `S` — lets callers hand out borrowed sources.
impl<S: DistanceSource + ?Sized> DistanceSource for &S {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn is_exact(&self) -> bool {
        (**self).is_exact()
    }

    fn distance(&self, s: NodeId, t: NodeId) -> Distance {
        (**self).distance(s, t)
    }
}

/// Theorem 1.1's output serves exact weighted distances
/// (`distances[t][s]` = d(s, t)).
impl DistanceSource for WeightedApspResult {
    fn n(&self) -> usize {
        self.distances.len()
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn distance(&self, s: NodeId, t: NodeId) -> Distance {
        match self.distances[t.index()][s.index()] {
            Some(d) => Distance::Exact(d),
            None => Distance::Unknown,
        }
    }
}

/// Theorem 1.2's output serves exact hop distances (`dist[t][s]` = d(s, t)).
impl DistanceSource for TradeoffResult {
    fn n(&self) -> usize {
        self.dist.len()
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn distance(&self, s: NodeId, t: NodeId) -> Distance {
        match self.dist[t.index()][s.index()] {
            Some(d) => Distance::Exact(u64::from(d)),
            None => Distance::Unknown,
        }
    }
}

/// Lemma 3.22/3.23 BFS forests serve exact hop distances up to their depth
/// limit (`Unknown` beyond it).
impl DistanceSource for BfsForestResult {
    fn n(&self) -> usize {
        self.dist.len()
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn distance(&self, s: NodeId, t: NodeId) -> Distance {
        match self.dist[t.index()][s.index()] {
            Some(d) => Distance::Exact(u64::from(d)),
            None => Distance::Unknown,
        }
    }
}

/// The landmark sketch of §3.3 serves **estimates**: `through[s][t]` is the
/// best landmark-mediated distance — an upper bound on d(s, t), exact w.h.p.
/// for pairs farther apart than the sampling scale.
impl DistanceSource for LandmarkResult {
    fn n(&self) -> usize {
        self.through.len()
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn distance(&self, s: NodeId, t: NodeId) -> Distance {
        match self.through[s.index()][t.index()] {
            Some(d) => Distance::Estimate(u64::from(d)),
            None => Distance::Unknown,
        }
    }
}

/// A borrowed `dist[t][s]` matrix (the layout every checker historically
/// consumed) as an exact [`DistanceSource`] — the adapter
/// [`crate::verify::check_weighted_apsp`] now routes through instead of
/// pattern-matching result structs.
#[derive(Clone, Copy, Debug)]
pub struct MatrixSource<'a> {
    dist: &'a [Vec<Option<u64>>],
}

impl<'a> MatrixSource<'a> {
    /// Wraps a `dist[t][s]` matrix of exact distances.
    pub fn new(dist: &'a [Vec<Option<u64>>]) -> Self {
        Self { dist }
    }
}

impl DistanceSource for MatrixSource<'_> {
    fn n(&self) -> usize {
        self.dist.len()
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn distance(&self, s: NodeId, t: NodeId) -> Distance {
        match self.dist[t.index()][s.index()] {
            Some(d) => Distance::Exact(d),
            None => Distance::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_engine::Metrics;

    #[test]
    fn distance_value_and_exactness() {
        assert_eq!(Distance::Exact(3).value(), Some(3));
        assert_eq!(Distance::Estimate(4).value(), Some(4));
        assert_eq!(Distance::Unknown.value(), None);
        assert!(Distance::Exact(0).is_exact());
        assert!(!Distance::Estimate(0).is_exact());
        assert!(!Distance::Unknown.is_exact());
    }

    #[test]
    fn matrix_source_transposes_to_query_order() {
        // dist[t][s]: d(0→1) = 7 lives at dist[1][0].
        let dist = vec![vec![Some(0), None], vec![Some(7), Some(0)]];
        let src = MatrixSource::new(&dist);
        assert_eq!(src.n(), 2);
        assert!(src.is_exact());
        assert_eq!(
            src.distance(NodeId::new(0), NodeId::new(1)),
            Distance::Exact(7)
        );
        assert_eq!(
            src.distance(NodeId::new(1), NodeId::new(0)),
            Distance::Unknown
        );
    }

    #[test]
    fn result_structs_serve_their_matrices() {
        let apsp = WeightedApspResult {
            distances: vec![vec![Some(0), Some(2)], vec![Some(2), Some(0)]],
            metrics: Metrics::new(1),
            simulated_broadcasts: 0,
            simulated_rounds: 0,
        };
        assert!(apsp.is_exact());
        assert_eq!(
            apsp.distance(NodeId::new(1), NodeId::new(0)),
            Distance::Exact(2)
        );

        let lm = LandmarkResult {
            landmarks: vec![NodeId::new(0)],
            through: vec![vec![Some(0), Some(5)], vec![Some(5), None]],
            metrics: Metrics::new(1),
        };
        assert!(!lm.is_exact());
        assert_eq!(
            lm.distance(NodeId::new(0), NodeId::new(1)),
            Distance::Estimate(5)
        );
        assert_eq!(
            lm.distance(NodeId::new(1), NodeId::new(1)),
            Distance::Unknown
        );
    }
}
