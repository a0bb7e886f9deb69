//! Allocation regression guard for the round path: once warm, a steady-state
//! deliver/receive round of the flat message plane performs **zero heap
//! allocations** — every arena, count and cursor table, the receiver list and
//! every decode scratch buffer is reused via `clear()` — whether the round is
//! dense, sparse, or dense again after a sparse one; and a whole
//! `run_bcongest` round adds none on top: the agenda's poll list, timer heap
//! and `due` table and the runner's sender buffer are reused the same way.
//! The routing workspace keeps the same promise one level up: a warm
//! [`Router`] allocates only the `Metrics` it returns, so an
//! `upcast` / `downcast` / `route_casts` costs one allocation on a
//! 20 000-edge graph as on a 1 000-edge one, however many rounds the
//! schedule takes.
//! This is the property that makes the engine viable at n = 10⁵–10⁶, and it
//! can rot silently (one stray `Vec::new()` in the round path brings the
//! allocator back); this harness pins it with a counting
//! `#[global_allocator]` wrapper.
//!
//! The plane is measured directly. The agenda is crate-private, so it is
//! measured through the runner: a BCONGEST run whose state machine allocates
//! nothing per round must cost the same number of allocations however many
//! rounds it takes. (A CONGEST run cannot: `sends` returns a `Vec` by
//! contract.)
//!
//! This lives in its own integration-test binary because a global allocator
//! is process-wide: sharing a binary with other tests would make the counter
//! racy across the libtest harness's threads. Warm-up and measurement below
//! run on the test's thread, and the measured phases are sequential, so other
//! harness threads are quiescent (this binary has exactly one `#[test]`).

use congest_engine::{
    downcast, route_casts, run_bcongest, upcast, BcongestAlgorithm, Cast, ExecutorConfig,
    FlatPlane, Forest, LocalView, Metrics, Router, RunOptions,
};
use congest_graph::{generators, reference, EdgeId, Graph, NodeId};
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

#[test]
fn steady_state_rounds_allocate_nothing() {
    flat_rounds_allocate_nothing();
    runner_rounds_allocate_nothing();
    warm_tree_casts_allocate_only_what_they_return();
    warm_phases_allocate_only_what_they_return();
}

fn flat_rounds_allocate_nothing() {
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

    let before = allocs();
    for _ in 0..5 {
        plane.deliver(&cfg, &senders, &expand, &mut metrics);
        assert!(plane.receive(&cfg, &mut states, receive));
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state flat rounds must not touch the heap"
    );

    // Sparse rounds on the warm plane: two senders, so almost every count and
    // cursor stays untouched, and the receiver list is exactly the addressed
    // nodes, ascending.
    let pair = [senders[17], senders[150]];
    let mut addressed: Vec<u32> = pair
        .iter()
        .flat_map(|(v, _)| g.incident(*v).map(|(_, u)| u.raw()))
        .collect();
    addressed.sort_unstable();
    addressed.dedup();
    let before = allocs();
    for _ in 0..5 {
        plane.deliver(&cfg, &pair, &expand, &mut metrics);
        assert_eq!(plane.receivers(), addressed);
        assert!(plane.receive(&cfg, &mut states, receive));
    }
    assert_eq!(
        allocs() - before,
        0,
        "sparse rounds must not touch the heap"
    );

    // Dense again: the sparse rounds zeroed only their own receivers' counts,
    // and a stale count would corrupt this round's offsets. Checked against
    // the push-loop reference, inbox by inbox (the transcript's capacity is
    // reserved up front, so the round itself still may not allocate).
    let mut want: Vec<Vec<(NodeId, (u32, u32))>> = vec![Vec::new(); g.n()];
    for (v, payload) in &senders {
        expand(*v, payload, &mut |u, _e, m| want[u.index()].push((*v, m)));
    }
    let mut got: Vec<Vec<(NodeId, (u32, u32))>> =
        want.iter().map(|w| Vec::with_capacity(w.len())).collect();
    let before = allocs();
    plane.deliver(&cfg, &senders, &expand, &mut metrics);
    assert!(plane.receive(&cfg, &mut got, |slot, inbox| {
        slot.extend_from_slice(inbox);
    }));
    assert_eq!(
        allocs() - before,
        0,
        "a dense round after sparse ones must not touch the heap"
    );
    assert_eq!(got, want, "dense round after sparse rounds");

    // Sanity: the rounds really moved messages (2 directed per edge per dense
    // round, one per incident edge of each sparse sender).
    let sparse: u64 = pair.iter().map(|(v, _)| g.degree(*v) as u64).sum();
    assert_eq!(metrics.messages, 9 * 2 * g.m() as u64 + 5 * sparse);
}

/// A pulse bouncing between the ends of a path: whoever hears a new pulse
/// re-broadcasts it two rounds later (a timer, not a hot poll), and each end
/// answers with the next pulse until `bounces` are spent. One or two senders a
/// round, thousands of rounds, and nothing in the state machine allocates.
struct Pulse {
    bounces: u32,
}

#[derive(Clone, Debug)]
struct PulseState {
    is_end: bool,
    seen: u32,
    /// `(round, pulse)` of the pending broadcast.
    pending: Option<(usize, u32)>,
}

impl BcongestAlgorithm for Pulse {
    type State = PulseState;
    type Msg = u32;
    type Output = u32;

    fn name(&self) -> &'static str {
        "pulse"
    }
    fn init(&self, view: &LocalView<'_>) -> PulseState {
        PulseState {
            is_end: view.degree() == 1,
            seen: 0,
            pending: (view.node().index() == 0).then_some((0, 1)),
        }
    }
    fn broadcast(&self, s: &PulseState, round: usize) -> Option<u32> {
        s.pending
            .and_then(|(at, pulse)| (round >= at).then_some(pulse))
    }
    fn on_broadcast_sent(&self, s: &mut PulseState, _round: usize) {
        if let Some((_, pulse)) = s.pending.take() {
            s.seen = s.seen.max(pulse); // its echo from the next hop is not news
        }
    }
    fn receive(&self, s: &mut PulseState, round: usize, msgs: &[(NodeId, u32)]) {
        for &(_, pulse) in msgs {
            if pulse > s.seen {
                s.seen = pulse;
                let next = pulse + u32::from(s.is_end);
                s.pending = (next <= self.bounces).then_some((round + 2, next));
            }
        }
    }
    fn is_done(&self, s: &PulseState) -> bool {
        s.pending.is_none()
    }
    fn output(&self, s: &PulseState) -> u32 {
        s.seen
    }
    fn next_activity(&self, s: &PulseState, after: usize) -> Option<usize> {
        s.pending.map(|(at, _)| after.max(at))
    }
    fn round_bound(&self, n: usize, _m: usize) -> usize {
        2 * n * (self.bounces as usize + 1)
    }
    fn output_words(&self, _out: &u32) -> usize {
        1
    }
}

/// The agenda's `begin`/`settle`/`next_round` cycle, the plane and the
/// runner's sender buffer, all at once: a run three times as long costs not
/// one allocation more.
fn runner_rounds_allocate_nothing() {
    let g = generators::path(40);
    let measure = |bounces: u32| {
        let before = allocs();
        let run =
            run_bcongest(&Pulse { bounces }, &g, None, &RunOptions::default()).expect("pulse run");
        (allocs() - before, run.metrics.rounds)
    };
    measure(2); // first use of anything process-wide
    let (short_allocs, short_rounds) = measure(4);
    let (long_allocs, long_rounds) = measure(12);
    assert!(long_rounds > 2 * short_rounds && short_rounds > 100);
    assert_eq!(
        long_allocs, short_allocs,
        "{short_rounds} vs {long_rounds} rounds: a warm round must not touch the heap"
    );
}

/// Allocations and routed rounds of one `upcast` plus one `downcast` of the
/// same 32 items (nodes 1..=32 of `g`'s BFS tree from node 0, `words` words
/// each) on a `Router` that has already run that very pair. The item lists
/// are built before the count starts: the caller hands them over.
fn warm_cast_allocs(g: &Graph, words: usize) -> (u64, u64) {
    let forest = Forest::from_parents(g, reference::bfs_tree(g, NodeId::new(0))).expect("BFS tree");
    let items: Vec<(NodeId, usize)> = (1..=32).map(|v| (NodeId::new(v), words)).collect();
    let mut router = Router::new(g).expect("a small graph");
    let mut cast = |up_items, down_items| {
        let before = allocs();
        let up = upcast(&mut router, &forest, up_items).expect("upcast");
        let down = downcast(&mut router, &forest, down_items).expect("downcast");
        let spent = allocs() - before;
        assert_eq!(up.messages, down.messages);
        (spent, up.rounds + down.rounds)
    };
    cast(items.clone(), items.clone());
    cast(items.clone(), items)
}

/// What a warm cast may allocate is what it hands back: its `Metrics`'
/// congestion vector, one per cast, so 2 per pair, whatever `m` is and however
/// long the schedule runs. The scheduler the `Router` replaced paid two tables
/// of `2m` entries, a `VecDeque` per touched edge, two `Vec`s per task and two
/// per routed round on top.
fn warm_tree_casts_allocate_only_what_they_return() {
    let small = generators::gnp_connected(200, 0.05, 11);
    let large = generators::sparse_connected(5_000, 15_050, 11);
    assert!(small.m() < 1_200 && large.m() > 20_000);

    let (small_allocs, _) = warm_cast_allocs(&small, 1);
    let (large_allocs, short_rounds) = warm_cast_allocs(&large, 1);
    let (long_allocs, long_rounds) = warm_cast_allocs(&large, 9);
    assert!(long_rounds > 4 * short_rounds);
    assert_eq!(small_allocs, 2, "allocations per warm cast pair");
    assert_eq!(
        small_allocs,
        large_allocs,
        "{} vs {} edges",
        small.m(),
        large.m()
    );
    assert_eq!(
        large_allocs, long_allocs,
        "{short_rounds} vs {long_rounds} rounds"
    );
}

/// Allocations and routed rounds of one `route_casts` phase over `g`'s BFS
/// tree from node 0, on a `Router` that has already run that very phase:
/// nodes `1..=owners` send one word across each incident edge (a lead hop
/// cast) and upcast one word each, the root downcasts one word to each of them
/// once those are in, and each then sends one more word across each incident
/// edge once its downcast word is in, which climbs on to the root (the shape
/// of Theorem 2.1's phase).
fn warm_phase_allocs(g: &Graph, owners: usize) -> (u64, u64) {
    let forest = Forest::from_parents(g, reference::bfs_tree(g, NodeId::new(0))).expect("BFS tree");
    let hops: Vec<(NodeId, EdgeId, usize)> = (1..=owners)
        .map(NodeId::new)
        .flat_map(|v| g.incident(v).map(move |(e, _)| (v, e, 1)))
        .collect();
    let every: Vec<(NodeId, usize)> = (1..=owners).map(|v| (NodeId::new(v), 1)).collect();
    let casts = [
        Cast::Hop {
            items: hops.clone(),
            up: None,
            after: vec![],
        },
        Cast::Up {
            forest: &forest,
            items: every.clone(),
            after: vec![0],
        },
        Cast::Down {
            forest: &forest,
            items: every,
            after: vec![1],
        },
        Cast::Hop {
            items: hops,
            up: Some(&forest),
            after: vec![2],
        },
    ];
    let mut router = Router::new(g).expect("a small graph");
    route_casts(&mut router, &casts).expect("hops leave owners");
    let before = allocs();
    let metrics = route_casts(&mut router, &casts).expect("hops leave owners");
    (allocs() - before, metrics.rounds)
}

/// A warm phase allocates only its `Metrics`' congestion vector: barriers,
/// release rounds, lead counts and the prerequisite and dependents columns are
/// reused like the rest of the workspace, whatever `m` is and however long the
/// schedule runs.
fn warm_phases_allocate_only_what_they_return() {
    let small = generators::gnp_connected(200, 0.05, 11);
    let large = generators::sparse_connected(5_000, 15_050, 11);
    let (small_allocs, _) = warm_phase_allocs(&small, 32);
    let (large_allocs, short_rounds) = warm_phase_allocs(&large, 32);
    let (long_allocs, long_rounds) = warm_phase_allocs(&large, 640);
    assert!(long_rounds > short_rounds);
    assert_eq!(small_allocs, 1, "allocations per warm phase");
    assert_eq!(small_allocs, large_allocs);
    assert_eq!(
        large_allocs, long_allocs,
        "{short_rounds} vs {long_rounds} rounds"
    );
}
