//! Allocation regression guard for the aggregation simulations (Theorems 3.9 /
//! 3.10): a simulated phase reuses one workspace — packet tables, the
//! per-member fan-in, the `aggregate` scratch, the `Router` its one schedule
//! runs on — so a run's heap allocations follow what the payload sends, not
//! `phases × |F*|`. Before the workspace, every
//! in-edge of every phase paid a `Vec`, a `BTreeMap` and a second `Vec` per
//! `aggregate` call and every phase four to six `n`-row tables; one stray
//! `collect()` in a per-in-edge or per-member loop brings that back, and
//! `sim_messages` cannot see it.
//!
//! Like the engine's `alloc_regression`, this is its own integration-test
//! binary with exactly one `#[test]`: the counting `#[global_allocator]` is
//! process-wide, so anything else running beside it would make the counter
//! racy.

use apsp_core::simulate::{
    simulate_aggregation_general, simulate_aggregation_star, AggSimOptions, SimulationRun,
};
use congest_algos::bfs_collection::{BfsCollection, CollectionOutput};
use congest_decomp::pruning::prune;
use congest_decomp::Hierarchy;
use congest_engine::EngineError;
use congest_graph::{generators, Graph, NodeId};
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

type Simulate = fn(
    &BfsCollection,
    &Graph,
    Option<&[u64]>,
    &Hierarchy,
    &AggSimOptions,
) -> Result<SimulationRun<CollectionOutput>, EngineError>;

/// Heap allocations of one `simulate` call collecting BFS trees from the first
/// `sources` nodes of `g` over `h`.
fn run_allocs(simulate: Simulate, g: &Graph, h: &Hierarchy, sources: usize) -> u64 {
    let algo = BfsCollection::new((0..sources).map(NodeId::new).collect()).with_random_delays(5);
    let opts = AggSimOptions {
        seed: 7,
        ..Default::default()
    };
    let before = ALLOCS.load(Ordering::SeqCst);
    let run = simulate(&algo, g, None, h, &opts).expect("simulation");
    let spent = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(run.simulated_broadcasts >= (sources * g.n()) as u64);
    spent
}

#[test]
fn simulated_phases_allocate_what_they_aggregate() {
    let g = generators::gnp_connected(96, 0.08, 11);
    // (simulator, ε of its pruned hierarchy, landed count of the 24-source
    // run since a phase is one routed schedule, and the same run's count
    // before the phase workspace, while the payload still copied and sorted
    // every inbox, and while a phase routed its casts one by one)
    let cases: [(&str, Simulate, f64, u64, [u64; 3]); 2] = [
        (
            "general",
            simulate_aggregation_general,
            0.34,
            4_674,
            [93_217, 18_884, 15_390],
        ),
        (
            "star",
            simulate_aggregation_star,
            0.5,
            22_188,
            [85_851, 32_094, 28_705],
        ),
    ];
    for (name, simulate, eps, landed, parents) in cases {
        let h = prune(&g, &Hierarchy::build(&g, eps, 3));
        run_allocs(simulate, &g, &h, 4); // first use of anything process-wide
        let base = run_allocs(simulate, &g, &h, 24);
        let doubled = run_allocs(simulate, &g, &h, 48);
        assert!(
            base <= landed + landed / 10,
            "{name}: {base} allocations, landed at {landed} (parents: {parents:?})"
        );
        // A per-in-edge-per-phase allocation coming back multiplies by |F*|,
        // not by sources.
        assert!(
            doubled <= 2 * base + base / 10,
            "{name}: twice the sources cost {doubled} allocations against {base}"
        );
    }
}
