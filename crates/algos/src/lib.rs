//! # congest-algos
//!
//! Distributed BCONGEST algorithms: the "payloads" the paper's simulations run, plus
//! the primitives they compose.
//!
//! * [`bfs`] — single-source (partial, delayed) BFS;
//! * [`bfs_collection`] — many BFS under random delays (Theorem 1.4), aggregation-based;
//! * [`apsp_weighted`] — exact weighted APSP via weight-delayed Dijkstra (the
//!   Bernstein–Nanongkai substitute for Theorem 1.1);
//! * [`gossip`] — one-shot gossip with a checksum over who sent what, and when
//!   (the delivery probe of the workload registry);
//! * [`leader`] — leader election / BFS tree / node counting (preprocessing);
//! * [`mis`] — Luby's maximal independent set (a classic broadcast-based algorithm);
//! * [`matching_maximal`] — Israeli–Itai randomized maximal matching;
//! * [`matching_bipartite`] — Ahmadi–Kuhn–Oshman exact bipartite maximum matching
//!   (Appendix A.1, the payload of Corollary 2.8);
//! * [`mst`] — message-efficient minimum spanning trees (controlled-GHS merging over
//!   the engine's tree primitives), the "Beyond APSP" workload family.

pub mod apsp_weighted;
pub mod bfs;
pub mod bfs_collection;
pub mod gossip;
pub mod leader;
pub mod matching_bipartite;
pub mod matching_maximal;
pub mod mis;
pub mod mst;
mod send_queue;

/// The driver of the four "the one-pass `receive` is the sorted one, for any
/// inbox order" proptests ([`bfs_collection`], [`apsp_weighted`], [`leader`],
/// [`gossip`]).
#[cfg(test)]
pub(crate) mod receive_order {
    use congest_engine::{BcongestAlgorithm, LocalView};
    use congest_graph::{rng, NodeId};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::seq::SliceRandom;
    use std::fmt::Debug;

    /// One `receive` call of a proptest case: the inbox as drawn, and whether
    /// (`1`) the node hands over its pending broadcast afterwards.
    pub(crate) type Step<T> = (Vec<T>, u8);

    /// Drives two states of `algo` through `steps` (`message` turns a drawn
    /// tuple into a delivery): one through `reference(state, round, inbox)`
    /// on every inbox as given, one through `receive` on a permutation of it
    /// drawn from `shuffle_seed`. After every call the two must agree on all a runner can
    /// observe and on `queue`, the payload's pending sends.
    pub(crate) fn check<A, T: Copy, Q>(
        algo: &A,
        view: &LocalView<'_>,
        steps: &[Step<T>],
        message: impl Fn(T) -> (NodeId, A::Msg),
        shuffle_seed: u64,
        reference: impl Fn(&mut A::State, usize, &[(NodeId, A::Msg)]),
        queue: impl Fn(&A::State) -> Q,
    ) -> Result<(), TestCaseError>
    where
        A: BcongestAlgorithm,
        A::Msg: Clone + Debug + PartialEq,
        Q: Debug + PartialEq,
    {
        let mut shuffle = rng::seeded(shuffle_seed);
        let mut want = algo.init(view);
        let mut got = algo.init(view);
        for (round, (drawn, send)) in steps.iter().enumerate() {
            let inbox: Vec<(NodeId, A::Msg)> = drawn.iter().copied().map(&message).collect();
            reference(&mut want, round, &inbox);
            let mut permuted = inbox.clone();
            permuted.shuffle(&mut shuffle);
            algo.receive(&mut got, round, &permuted);
            for at in [round, usize::MAX] {
                prop_assert_eq!(algo.broadcast(&got, at), algo.broadcast(&want, at));
            }
            if *send == 1 && algo.broadcast(&want, usize::MAX).is_some() {
                algo.on_broadcast_sent(&mut want, usize::MAX);
                algo.on_broadcast_sent(&mut got, usize::MAX);
            }
            prop_assert_eq!(algo.output(&got), algo.output(&want));
            prop_assert_eq!(queue(&got), queue(&want));
            prop_assert_eq!(algo.is_done(&got), algo.is_done(&want));
            prop_assert_eq!(
                algo.next_activity(&got, round),
                algo.next_activity(&want, round)
            );
        }
        Ok(())
    }
}
