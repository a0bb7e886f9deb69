//! Allocation regression guard for the min-relaxation payloads: `receive`
//! relaxes an inbox in one pass over packed per-instance slots, so a call that
//! lowers nothing allocates nothing (a call that lowers something at most grows
//! the send queue's one buffer), and a node's instances are one allocation per
//! column, whatever their number. Before PR 21 every call copied its inbox into
//! a `Vec<&_>` and sorted it, and a node's state was three parallel vectors;
//! one stray `collect()` in `receive` brings that back on every node of every
//! round, and no message count can see it.
//!
//! Like the engine's and core's `alloc_regression`, this is its own
//! integration-test binary with exactly one `#[test]`: the counting
//! `#[global_allocator]` is process-wide, so anything else running beside it
//! would make the counter racy.

use congest_algos::apsp_weighted::{WApspMsg, WeightedApsp};
use congest_algos::bfs_collection::{BfsCollection, BfsMsg};
use congest_algos::leader::{LeaderElect, LeaderMsg};
use congest_engine::{BcongestAlgorithm, LocalView};
use congest_graph::{generators, NodeId, WeightedGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every allocation/reallocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCS.load(Ordering::SeqCst) - before, out)
}

/// Delivers `inbox` twice: the first call lowers what there is to lower, so the
/// second lowers nothing and must not allocate.
fn second_delivery_allocates_nothing<A: BcongestAlgorithm>(
    algo: &A,
    state: &mut A::State,
    inbox: &[(NodeId, A::Msg)],
) {
    let before = algo.output(state);
    algo.receive(state, 1, inbox);
    assert_ne!(
        algo.output(state),
        before,
        "{}: warm-up lowers",
        algo.name()
    );
    let (spent, ()) = allocs_of(|| algo.receive(state, 2, inbox));
    assert_eq!(spent, 0, "{}: a receive that lowers nothing", algo.name());
}

#[test]
fn relaxations_allocate_what_they_lower() {
    let g = generators::complete(64);
    let wg = WeightedGraph::random_weights(&g, 1..=6, 3);
    let receiver = NodeId::new(63);
    // Every neighbour reports four instances, at distances that tie and cross.
    let batch: Vec<(NodeId, u32, u32)> = g
        .neighbors(receiver)
        .iter()
        .flat_map(|&v| (0..4).map(move |j| (v, j, (7 * v.raw() + 3 * j) % 5)))
        .collect();

    let collection = BfsCollection::new((0..48).map(NodeId::new).collect()).with_random_delays(5);
    let view = LocalView::new(&g, None, receiver, 1);
    let (spent, mut state) = allocs_of(|| collection.init(&view));
    assert_eq!(spent, 1, "a non-source node's 48 instances are one table");
    let inbox: Vec<(NodeId, BfsMsg)> = batch
        .iter()
        .map(|&(v, bfs, dist)| {
            (
                v,
                BfsMsg {
                    bfs,
                    dist,
                    delay: 0,
                },
            )
        })
        .collect();
    second_delivery_allocates_nothing(&collection, &mut state, &inbox);

    let weighted = WeightedApsp::new(6);
    let init_allocs = |wg: &WeightedGraph| {
        let view = LocalView::new(wg.graph(), Some(wg.weights()), receiver, 1);
        allocs_of(|| weighted.init(&view)).0
    };
    let large = generators::gnp_connected(1024, 8.0 / 1024.0, 3);
    let large = WeightedGraph::random_weights(&large, 1..=6, 3);
    for wg in [&wg, &large] {
        assert_eq!(
            init_allocs(wg),
            4,
            "n = {}: the weights, the dist column, the cold slots and the queue's first key",
            wg.graph().n()
        );
    }
    let view = LocalView::new(&g, Some(wg.weights()), receiver, 1);
    let mut state = weighted.init(&view);
    let inbox: Vec<(NodeId, WApspMsg)> = batch
        .iter()
        .map(|&(v, source, dist)| {
            (
                v,
                WApspMsg {
                    source,
                    dist: dist.into(),
                },
            )
        })
        .collect();
    second_delivery_allocates_nothing(&weighted, &mut state, &inbox);

    let view = LocalView::new(&g, None, receiver, 1);
    let mut state = LeaderElect.init(&view);
    let inbox: Vec<(NodeId, LeaderMsg)> = batch
        .iter()
        .map(|&(v, leader, dist)| (v, LeaderMsg { leader, dist }))
        .collect();
    second_delivery_allocates_nothing(&LeaderElect, &mut state, &inbox);
}
