//! Allocation regression guard for the flat message plane: once warm, a
//! steady-state deliver/receive round performs **zero heap allocations** —
//! every arena, offset table, cursor table and decode scratch buffer is
//! reused via `clear()`. This is the property that makes the plane viable at
//! n = 10⁵–10⁶, and it can rot silently (one stray `Vec::new()` in
//! the round path brings the allocator back); this harness pins it with a
//! counting `#[global_allocator]` wrapper.
//!
//! The assertion is scoped to the plane's deliver/receive cycle, not a whole
//! runner round: the algorithm-facing trait API returns per-round send `Vec`s
//! by design, so a full-run zero-allocation claim is unattainable without
//! changing the public contract. The plane is the hot path the tentpole
//! optimizes, and the plane is what this test isolates.
//!
//! This lives in its own integration-test binary because a global allocator
//! is process-wide: sharing a binary with other tests would make the counter
//! racy across the libtest harness's threads. Warm-up and measurement below
//! run on the test's thread, and the measured phase is sequential, so other
//! harness threads are quiescent (this binary has exactly one `#[test]`).

use congest_engine::{ExecutorConfig, FlatPlane, Metrics};
use congest_graph::{generators, EdgeId, NodeId};
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

#[test]
fn steady_state_flat_rounds_allocate_nothing() {
    let g = generators::gnp_connected(200, 0.05, 11);
    let cfg = ExecutorConfig::default();
    let mut plane: FlatPlane<(u32, u32)> = FlatPlane::new(g.n());
    let mut metrics = Metrics::new(g.m());
    let mut states: Vec<u64> = vec![0; g.n()];

    // Identical traffic every round: every node floods a two-lane payload to
    // all neighbors, so round 2+ exercises exactly the buffers round 1 sized.
    let senders: Vec<(NodeId, u32)> = g.nodes().map(|v| (v, v.raw())).collect();
    let expand = |v: NodeId, payload: &u32, sink: &mut dyn FnMut(NodeId, EdgeId, (u32, u32))| {
        for (e, u) in g.incident(v) {
            sink(u, e, (*payload, e.raw()));
        }
    };
    let receive = |st: &mut u64, inbox: &[(NodeId, (u32, u32))]| {
        for (from, (a, b)) in inbox {
            *st = st
                .wrapping_add(u64::from(from.raw()))
                .wrapping_add(u64::from(*a))
                .wrapping_add(u64::from(*b));
        }
    };

    // Warm-up: grows every arena to its steady-state capacity.
    for _ in 0..3 {
        plane.deliver(&cfg, &senders, &expand, &mut metrics);
        assert!(plane.receive(&cfg, &mut states, receive));
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..5 {
        plane.deliver(&cfg, &senders, &expand, &mut metrics);
        assert!(plane.receive(&cfg, &mut states, receive));
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state flat rounds must not touch the heap"
    );

    // Sanity: the rounds really moved messages (2 directed per edge per round).
    assert_eq!(metrics.messages, 8 * 2 * g.m() as u64);
}
