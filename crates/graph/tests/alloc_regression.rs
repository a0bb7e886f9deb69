//! Allocation regression guard for the CSR build: `Graph::from_edges` makes the same
//! small, fixed number of heap allocations whatever the graph's size — one per array it
//! builds or uses as scratch, and no per-node `Vec`. A per-node allocation in the build
//! costs `n` allocator calls, and at the bench's 10⁶ nodes that is a large share of
//! building a graph.
//!
//! This lives in its own integration-test binary because a global allocator is
//! process-wide: sharing a binary with other tests would make the counter racy across the
//! libtest harness's threads. The edge lists are built before counting starts, and this
//! binary has exactly one `#[test]`.

use congest_graph::Graph;
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

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// A path through all `n` nodes plus `n / 2` chords, with self-loops, repeats and reversed
/// copies mixed in, so the build's dedup and loop skipping run too.
fn edge_list(n: usize) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    edges.extend((0..n / 2).map(|i| ((i * 7919) % n, (i * 104_729 + 13) % n)));
    edges.extend((0..n / 8).map(|i| (i, i)));
    edges.extend((1..n / 8).map(|i| (i, i - 1)));
    edges
}

/// Allocations `Graph::from_edges` makes on `edges`, and the graph it built.
fn build_allocs(n: usize, edges: &[(usize, usize)]) -> (u64, Graph) {
    let before = allocs();
    let g = Graph::from_edges(n, edges);
    (allocs() - before, g)
}

#[test]
fn from_edges_allocates_a_fixed_number_of_arrays() {
    let (small_edges, large_edges) = (edge_list(1_000), edge_list(100_000));
    let (small, g_small) = build_allocs(1_000, &small_edges);
    let (large, g_large) = build_allocs(100_000, &large_edges);
    assert!(
        g_small.m() >= 999 && g_large.m() >= 99_999,
        "the path survives"
    );
    assert_eq!(
        small, large,
        "from_edges allocated {small} times at n = 1 000 but {large} at n = 100 000"
    );
    assert!(
        small <= 8,
        "from_edges allocated {small} times, not a few arrays"
    );
}
