//! Deterministic chunked-parallel execution of per-node phases.
//!
//! The CONGEST/BCONGEST runners step every node once per round, and the
//! expensive parts of a round — the pure [`sends`](crate::CongestAlgorithm::sends)
//! / [`broadcast`](crate::BcongestAlgorithm::broadcast) scans and the per-node
//! [`receive`](crate::BcongestAlgorithm::receive) transitions — are
//! embarrassingly parallel: node `i`'s contribution depends only on node `i`'s
//! state. This module shards the node range into **contiguous chunks**, runs
//! the chunks on a cached thread pool (the vendored `rayon` shim), and merges
//! per-chunk results **in fixed chunk order**, so every quantity the engine
//! reports — outputs, rounds, message counts, per-edge congestion — is
//! byte-identical to the sequential path at any thread count. The
//! `tests/parallel_determinism.rs` suite enforces this.
//!
//! [`ExecutorConfig::sequential`] (`threads = 1`, the default) bypasses the
//! pool entirely: the chunk helpers degenerate to a single inline call, so the
//! sequential path is the `threads = 1` special case of the parallel one, not
//! a separate code path.

use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// How a runner's **delivery phase** moves messages from senders to inboxes.
///
/// All three backends produce byte-identical outputs and [`crate::Metrics`] —
/// rounds, messages, broadcasts, and the full per-edge congestion vector — for
/// every workload; the root `tests/backend_conformance.rs` suite pins this
/// differentially. The backend is therefore a wall-clock/layout knob only,
/// exactly like [`ExecutorConfig::threads`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryBackend {
    /// Inline resolve-and-push: each sender's messages are charged and pushed
    /// straight into the receivers' inboxes, in sender order. The reference
    /// path every other backend is pinned against.
    Sequential,
    /// Chunk-parallel: senders are sharded into contiguous chunks, per-chunk
    /// outboxes expand concurrently, and outboxes merge in chunk order. With
    /// one effective thread this degenerates to [`DeliveryBackend::Sequential`].
    Chunked,
    /// Sharded mailboxes: nodes are partitioned into `shards` contiguous
    /// shards, each shard owns its nodes' inboxes and drains intra-shard
    /// messages locally, and cross-shard traffic accumulates into
    /// per-(src-shard, dst-shard) batch queues exchanged at the round barrier
    /// and merged in fixed (shard, node, edge) order. `shards = 0` or `1`
    /// degenerates to a single shard (still exercising the batch plumbing).
    Sharded {
        /// Number of node shards (clamped to `[1, n]`).
        shards: usize,
    },
    /// Cost-model auto-selection: the runners resolve this to one of the
    /// three concrete backends **per round**, from the round's measured
    /// message volume via [`AutoCostModel`] (with hysteresis, so consecutive
    /// rounds don't thrash between pool-dispatching backends). The chosen
    /// backend is recorded in [`crate::Metrics::backend_decisions`]; the
    /// decision is a pure function of `(volume, n, previous decision)` — never
    /// of the thread count — so the decision log is byte-identical across
    /// repeats and thread counts, and outputs/metrics stay byte-identical to
    /// every manual backend (each concrete backend is conformant).
    ///
    /// Outside the runners' round loops (direct `deliver_phase`
    /// calls) no per-round volume exists; there [`ExecutorConfig::resolved_backend`]
    /// falls back to the [`DeliveryBackend::Chunked`] rule (sequential at one
    /// effective thread, chunk-parallel otherwise).
    Auto,
}

impl Default for DeliveryBackend {
    /// [`DeliveryBackend::Chunked`]: sequential inline delivery at one thread,
    /// chunk-parallel delivery otherwise — the pre-backend-enum behaviour.
    fn default() -> Self {
        DeliveryBackend::Chunked
    }
}

/// How a runner's round buffers represent in-flight messages.
///
/// Like [`DeliveryBackend`], the plane is a layout knob only: outputs and
/// [`crate::Metrics`] are byte-identical across planes for every workload and
/// every backend — the root `tests/plane_conformance.rs` suite pins this
/// differentially over the whole registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MessagePlane {
    /// The legacy representation: each in-flight message is a typed value
    /// pushed into a per-node `Vec` inbox. Allocates per message on the hot
    /// path; works for any [`crate::Wire`] payload including variable-width
    /// ones.
    #[default]
    Boxed,
    /// The flat struct-of-arrays plane ([`crate::plane`]): messages are packed
    /// into per-round `u32` arenas via [`crate::WireEncode`] and scattered to
    /// receivers by a stable counting sort. Arenas are reused across rounds,
    /// so steady-state rounds are allocation-free. Requires fixed-width
    /// ([`crate::WireDecode`]) payloads, which every runner message type is.
    Flat,
}

/// How a runner executes its per-node phases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads for the per-node phases. `1` = sequential (no pool);
    /// `0` = one per available hardware thread; `k > 1` = exactly `k`.
    pub threads: usize,
    /// How the delivery phase moves messages (outputs/metrics identical for
    /// every backend; see [`DeliveryBackend`]).
    pub backend: DeliveryBackend,
    /// How round buffers represent in-flight messages (outputs/metrics
    /// identical for either plane; see [`MessagePlane`]).
    pub message_plane: MessagePlane,
}

impl Default for ExecutorConfig {
    /// One thread (sequential), the [`DeliveryBackend::Chunked`] delivery
    /// backend and the [`MessagePlane::Boxed`] message plane.
    fn default() -> Self {
        Self {
            threads: 1,
            backend: DeliveryBackend::Chunked,
            message_plane: MessagePlane::Boxed,
        }
    }
}

/// Fluent builder for [`ExecutorConfig`] —
/// `ExecutorConfig::builder().threads(t).backend(b).plane(p).build()`.
///
/// Starts from [`ExecutorConfig::default`] (one thread, chunked delivery,
/// boxed plane); every setter overrides one knob.
/// The shorthand constructors ([`ExecutorConfig::sequential`],
/// [`ExecutorConfig::with_threads`], [`ExecutorConfig::sharded`]) and the
/// `with_*` combinators remain as thin equivalents — existing call sites
/// compile unchanged.
#[derive(Clone, Debug)]
pub struct ExecutorConfigBuilder {
    cfg: ExecutorConfig,
}

impl ExecutorConfigBuilder {
    /// Sets the worker thread count (`1` = sequential, `0` = one per
    /// hardware thread).
    #[must_use]
    pub const fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Sets the delivery backend.
    #[must_use]
    pub const fn backend(mut self, backend: DeliveryBackend) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Sets the message plane.
    #[must_use]
    pub const fn plane(mut self, plane: MessagePlane) -> Self {
        self.cfg.message_plane = plane;
        self
    }

    /// Finalizes the configuration.
    #[must_use]
    pub fn build(self) -> ExecutorConfig {
        self.cfg
    }
}

impl ExecutorConfig {
    /// Starts a fluent [`ExecutorConfigBuilder`] from the default
    /// configuration.
    pub fn builder() -> ExecutorConfigBuilder {
        ExecutorConfigBuilder {
            cfg: ExecutorConfig::default(),
        }
    }

    /// The sequential executor (`threads = 1`, inline delivery).
    pub const fn sequential() -> Self {
        Self {
            threads: 1,
            backend: DeliveryBackend::Sequential,
            message_plane: MessagePlane::Boxed,
        }
    }

    /// An executor with exactly `threads` workers (`0` = hardware threads) and
    /// the default chunk-parallel delivery backend.
    pub const fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            backend: DeliveryBackend::Chunked,
            message_plane: MessagePlane::Boxed,
        }
    }

    /// An executor with the sharded delivery backend: `shards` node shards and
    /// exactly as many worker threads (`sharded(0)` means hardware-many
    /// workers over a single shard). Build the config by hand to pick a
    /// different worker count — e.g. `threads: 1` drives the shard layout
    /// inline on the caller thread.
    pub const fn sharded(shards: usize) -> Self {
        Self {
            threads: shards,
            backend: DeliveryBackend::Sharded { shards },
            message_plane: MessagePlane::Boxed,
        }
    }

    /// An executor with the cost-model [`DeliveryBackend::Auto`] backend and
    /// exactly `threads` workers (`0` = hardware threads). The runners resolve
    /// the concrete backend per round; see [`AutoCostModel`].
    pub const fn auto(threads: usize) -> Self {
        Self {
            threads,
            backend: DeliveryBackend::Auto,
            message_plane: MessagePlane::Boxed,
        }
    }

    /// Replaces the delivery backend, keeping the thread count.
    #[must_use]
    pub const fn with_backend(mut self, backend: DeliveryBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the message plane, keeping everything else.
    #[must_use]
    pub const fn with_plane(mut self, plane: MessagePlane) -> Self {
        self.message_plane = plane;
        self
    }

    /// The resolved worker count (`0` resolved to the hardware thread count,
    /// queried once per process — the runners resolve the backend every
    /// round, and `available_parallelism` is a syscall).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            static HARDWARE: OnceLock<usize> = OnceLock::new();
            *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
        } else {
            self.threads
        }
    }

    /// Whether the chunk helpers will fan out to a pool.
    pub fn is_parallel(&self) -> bool {
        self.effective_threads() > 1
    }

    /// The delivery backend that will actually run: [`DeliveryBackend::Chunked`]
    /// collapses to [`DeliveryBackend::Sequential`] at one effective thread
    /// (chunking with one chunk is the sequential path), and sharded shard
    /// counts are clamped to at least 1.
    pub fn resolved_backend(&self) -> DeliveryBackend {
        match self.backend {
            DeliveryBackend::Sequential => DeliveryBackend::Sequential,
            DeliveryBackend::Chunked => {
                if self.is_parallel() {
                    DeliveryBackend::Chunked
                } else {
                    DeliveryBackend::Sequential
                }
            }
            DeliveryBackend::Sharded { shards } => DeliveryBackend::Sharded {
                shards: shards.max(1),
            },
            // Volume-blind fallback for contexts without a per-round volume
            // hint (direct `deliver_phase` callers): same rule as
            // `Chunked`. The runners' round loops never hit this arm — they
            // resolve `Auto` through a `BackendChooser` before delivery.
            DeliveryBackend::Auto => {
                if self.is_parallel() {
                    DeliveryBackend::Chunked
                } else {
                    DeliveryBackend::Sequential
                }
            }
        }
    }
}

/// Calibrated volume thresholds for [`DeliveryBackend::Auto`].
///
/// The model maps a round's pre-delivery message volume (the number of
/// point-to-point messages the round will move, counted before fault masking)
/// to one of three **tiers**:
///
/// * tier 0, [`DeliveryBackend::Sequential`] — `volume ≤ sequential_max_volume`.
///   Quiet rounds: pool dispatch costs more than it saves, so deliver inline.
/// * tier 2, [`DeliveryBackend::Sharded`] — `volume ≥ sharded_min_volume` **and**
///   `volume ≥ sharded_min_density × n`. Heavy *and dense* rounds: the sharded
///   mailbox layout pays only when each node's inbox is touched several times
///   per round (its ≤1.08× wins came from dense small graphs at 4–12
///   messages/node, and it **lost** ~30% on sparse 10⁶-node workloads at ~3
///   messages/node — the single-core readings in ROADMAP.md item 2 — so
///   absolute volume alone must not trigger this tier).
/// * tier 1, [`DeliveryBackend::Chunked`] — everything between. Chunked
///   collapses to the sequential path at one effective thread, so this tier
///   never costs more than sequential on a small host while fanning out on a
///   large one.
///
/// **Thread-independence**: the tier is a pure function of `(volume, n,
/// previous tier)` — `effective_threads()` influences execution only through
/// the conformant `Chunked → Sequential` collapse in
/// [`ExecutorConfig::resolved_backend`]. That keeps the decision log
/// byte-identical across thread counts, which the determinism suite pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AutoCostModel {
    /// Largest round volume still delivered inline (tier 0).
    pub sequential_max_volume: u64,
    /// Smallest round volume eligible for sharded mailboxes (tier 2).
    pub sharded_min_volume: u64,
    /// Minimum average messages **per node** for tier 2 — the mailbox-reuse
    /// density at which the sharded layout's extra batch copy amortizes.
    pub sharded_min_density: u64,
    /// Hysteresis divisor: once a tier is entered, the run downgrades only
    /// when the volume falls below that tier's entry threshold divided by
    /// this factor. Amortizes pool dispatch across consecutive rounds and
    /// prevents backend thrashing on sawtooth volume profiles.
    pub hysteresis: u64,
    /// Nodes per shard when tier 2 fires: `shards = (n / nodes_per_shard)`
    /// clamped to `[2, max_shards]`.
    pub nodes_per_shard: usize,
    /// Upper bound on the shard count tier 2 requests.
    pub max_shards: usize,
}

impl AutoCostModel {
    /// The calibrated defaults, fitted to the single-core engine, shard and
    /// scale sweep readings recorded in ROADMAP.md item 2.
    pub const fn calibrated() -> Self {
        Self {
            sequential_max_volume: 4096,
            sharded_min_volume: 1 << 16,
            sharded_min_density: 4,
            hysteresis: 2,
            nodes_per_shard: 1 << 14,
            max_shards: 8,
        }
    }

    /// The tier (0 = sequential, 1 = chunked, 2 = sharded) this volume maps to
    /// with no hysteresis applied.
    fn preferred_tier(&self, volume: u64, n: usize) -> u8 {
        if volume >= self.sharded_min_volume
            && volume >= self.sharded_min_density.saturating_mul(n as u64)
        {
            2
        } else if volume > self.sequential_max_volume {
            1
        } else {
            0
        }
    }

    /// The volume at which `tier` is entered from below (tier 0 returns 0).
    fn entry_threshold(&self, tier: u8, n: usize) -> u64 {
        match tier {
            2 => {
                let density = self.sharded_min_density.saturating_mul(n as u64);
                if density > self.sharded_min_volume {
                    density
                } else {
                    self.sharded_min_volume
                }
            }
            1 => self.sequential_max_volume + 1,
            _ => 0,
        }
    }

    /// Shard count for an `n`-node graph when tier 2 fires.
    fn shards_for(&self, n: usize) -> usize {
        (n / self.nodes_per_shard.max(1)).clamp(2, self.max_shards.max(2))
    }
}

impl Default for AutoCostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// One per-round [`DeliveryBackend::Auto`] resolution, recorded in
/// [`crate::Metrics::backend_decisions`]. `round` is the 0-based round index
/// the decision applied to (as the runners count rounds), `volume` the
/// measured pre-delivery message volume it was derived from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendDecision {
    /// 0-based round index within the run.
    pub round: u64,
    /// Pre-delivery message volume of that round.
    pub volume: u64,
    /// The concrete backend the cost model resolved to.
    pub backend: DeliveryBackend,
}

/// Per-run state for [`DeliveryBackend::Auto`]: applies [`AutoCostModel`]
/// with hysteresis. The runners create one chooser per run (only when the
/// configured backend is `Auto`) and consult it once per executed round.
#[derive(Clone, Debug)]
pub struct BackendChooser {
    model: AutoCostModel,
    n: usize,
    tier: u8,
}

impl BackendChooser {
    /// A chooser for an `n`-node run, starting on the sequential tier.
    pub fn new(model: AutoCostModel, n: usize) -> Self {
        Self { model, n, tier: 0 }
    }

    /// Resolves the backend for a round moving `volume` messages. Upgrades to
    /// a higher tier immediately; downgrades only once the volume falls below
    /// the current tier's entry threshold divided by the hysteresis factor,
    /// so consecutive mid-volume rounds keep reusing the already-dispatched
    /// parallel machinery instead of thrashing.
    pub fn choose(&mut self, volume: u64) -> DeliveryBackend {
        let preferred = self.model.preferred_tier(volume, self.n);
        if preferred > self.tier {
            self.tier = preferred;
        } else if preferred < self.tier {
            let entry = self.model.entry_threshold(self.tier, self.n);
            if volume < entry / self.model.hysteresis.max(1) {
                self.tier = preferred;
            }
        }
        match self.tier {
            0 => DeliveryBackend::Sequential,
            1 => DeliveryBackend::Chunked,
            _ => DeliveryBackend::Sharded {
                shards: self.model.shards_for(self.n),
            },
        }
    }
}

/// Contiguous chunk size for `len` items over `threads` workers: one chunk
/// per worker. `pub(crate)`: the flat plane ([`crate::plane`]) partitions its
/// staging arenas with the same boundaries so its chunk order matches the
/// boxed path's.
pub(crate) fn chunk_size_for(len: usize, threads: usize) -> usize {
    len.div_ceil(threads).max(1)
}

/// Cached pools, one per distinct thread count. Runs share pools across rounds
/// and calls, so the per-round cost is job dispatch, not thread spawning.
/// `pub(crate)`: the sharded delivery backend ([`crate::shard`]) runs its
/// per-shard tasks on the same pools.
pub(crate) fn pool_for(threads: usize) -> Arc<ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pools = pools.lock().expect("pool cache poisoned");
    Arc::clone(pools.entry(threads).or_insert_with(|| {
        Arc::new(
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build executor pool"),
        )
    }))
}

/// Applies `f` to contiguous chunks of `items` (passing each chunk's start
/// index) and returns the per-chunk results **in chunk order**. Sequentially
/// this is one chunk spanning the whole slice; in parallel, one chunk per
/// worker. Callers must merge chunk results with an operation for which the
/// chunk boundaries are invisible (concatenation, min, sum, …) — then the
/// merged value is identical at every thread count.
pub fn map_chunks<T, R, F>(cfg: &ExecutorConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    map_ranges(cfg, items.len(), |r| f(r.start, &items[r]))
}

/// [`map_chunks`] over an index range instead of a slice: applies `f` to
/// contiguous sub-ranges of `0..len` and returns per-chunk results in order.
/// Used where the per-node work has no backing slice yet (state init).
pub fn map_ranges<R, F>(cfg: &ExecutorConfig, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let threads = cfg.effective_threads();
    if threads <= 1 || len <= 1 {
        return vec![f(0..len)];
    }
    let size = chunk_size_for(len, threads);
    let chunk_count = len.div_ceil(size);
    let mut results: Vec<Option<R>> = (0..chunk_count).map(|_| None).collect();
    pool_for(threads).scope(|s| {
        let mut rest = results.as_mut_slice();
        for ci in 0..chunk_count {
            let (slot, tail) = rest.split_first_mut().expect("one slot per chunk");
            rest = tail;
            let f = &f;
            s.spawn(move |_| {
                let start = ci * size;
                *slot = Some(f(start..(start + size).min(len)));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk completes"))
        .collect()
}

/// Mutable two-slice variant: chunks `a` and `b` (equal length) with the same
/// boundaries, applies `f(start, a_chunk, b_chunk)` per chunk, and returns
/// per-chunk results in chunk order. This is the receive phase's shape: states
/// and inboxes, sharded together.
pub fn map_chunks_mut2<T, U, R, F>(cfg: &ExecutorConfig, a: &mut [T], b: &mut [U], f: F) -> Vec<R>
where
    T: Send,
    U: Send,
    R: Send,
    F: Fn(usize, &mut [T], &mut [U]) -> R + Sync,
{
    assert_eq!(a.len(), b.len(), "slices must shard together");
    let threads = cfg.effective_threads();
    if threads <= 1 || a.len() <= 1 {
        return vec![f(0, a, b)];
    }
    let size = chunk_size_for(a.len(), threads);
    let chunk_count = a.len().div_ceil(size);
    let mut results: Vec<Option<R>> = (0..chunk_count).map(|_| None).collect();
    pool_for(threads).scope(|s| {
        let mut rest = results.as_mut_slice();
        let mut ra = a;
        let mut rb = b;
        let mut start = 0usize;
        while !ra.is_empty() {
            let take = size.min(ra.len());
            let (ca, ta) = ra.split_at_mut(take);
            let (cb, tb) = rb.split_at_mut(take);
            ra = ta;
            rb = tb;
            let (slot, tail) = rest.split_first_mut().expect("one slot per chunk");
            rest = tail;
            let f = &f;
            let chunk_start = start;
            s.spawn(move |_| *slot = Some(f(chunk_start, ca, cb)));
            start += take;
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk completes"))
        .collect()
}

/// Minimum of `f` over `items`, computed chunk-wise (via the shim's
/// `par_chunks`) when parallel. Identical to
/// `items.iter().filter_map(f).min()` at every thread count.
pub fn min_chunks<T, K, F>(cfg: &ExecutorConfig, items: &[T], f: F) -> Option<K>
where
    T: Sync,
    K: Ord + Send,
    F: Fn(&T) -> Option<K> + Sync,
{
    let threads = cfg.effective_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.iter().filter_map(f).min();
    }
    let size = chunk_size_for(items.len(), threads);
    let mins: Vec<Option<K>> = pool_for(threads).install(|| {
        items
            .par_chunks(size)
            .map(|chunk| chunk.iter().filter_map(&f).min())
            .collect()
    });
    mins.into_iter().flatten().min()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_shorthand_constructors() {
        assert_eq!(ExecutorConfig::builder().build(), ExecutorConfig::default());
        assert_eq!(
            ExecutorConfig::builder()
                .threads(1)
                .backend(DeliveryBackend::Sequential)
                .build(),
            ExecutorConfig::sequential()
        );
        assert_eq!(
            ExecutorConfig::builder().threads(4).build(),
            ExecutorConfig::with_threads(4)
        );
        assert_eq!(
            ExecutorConfig::builder()
                .threads(4)
                .backend(DeliveryBackend::Sharded { shards: 4 })
                .build(),
            ExecutorConfig::sharded(4)
        );
        assert_eq!(
            ExecutorConfig::builder().plane(MessagePlane::Flat).build(),
            ExecutorConfig::default().with_plane(MessagePlane::Flat)
        );
    }

    fn cfgs() -> Vec<ExecutorConfig> {
        vec![
            ExecutorConfig::sequential(),
            ExecutorConfig::with_threads(2),
            ExecutorConfig::with_threads(4),
            ExecutorConfig::with_threads(7),
        ]
    }

    #[test]
    fn map_chunks_concatenation_matches_sequential() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for cfg in cfgs() {
            let got: Vec<u64> = map_chunks(&cfg, &items, |start, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(off, &x)| {
                        assert_eq!(items[start + off], x, "start index is the global index");
                        u64::from(x) * 3
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            assert_eq!(got, expected, "threads = {}", cfg.threads);
        }
    }

    #[test]
    fn map_ranges_covers_exactly_once() {
        for cfg in cfgs() {
            let covered: Vec<usize> = map_ranges(&cfg, 57, |r| r.collect::<Vec<_>>())
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(covered, (0..57).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_chunks_mut2_shards_together() {
        for cfg in cfgs() {
            let mut a: Vec<u32> = (0..41).collect();
            let mut b: Vec<u32> = (0..41).rev().collect();
            let chunk_sums = map_chunks_mut2(&cfg, &mut a, &mut b, |start, ca, cb| {
                assert_eq!(ca.len(), cb.len());
                for (off, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                    assert_eq!(*x as usize, start + off);
                    *x += *y;
                    *y = 0;
                }
                ca.iter().map(|&v| u64::from(v)).sum::<u64>()
            });
            assert!(a.iter().all(|&v| v == 40), "threads = {}", cfg.threads);
            assert!(b.iter().all(|&v| v == 0));
            assert_eq!(chunk_sums.iter().sum::<u64>(), 40 * 41);
        }
    }

    #[test]
    fn min_chunks_matches_sequential() {
        let items: Vec<i64> = vec![9, 4, 7, 4, 12, -3, 8, 40, 2];
        for cfg in cfgs() {
            let got = min_chunks(&cfg, &items, |&x| (x > 0).then_some(x));
            assert_eq!(got, Some(2));
            let none = min_chunks(&cfg, &items, |&x| (x > 100).then_some(x));
            assert_eq!(none, None);
        }
    }

    #[test]
    fn zero_threads_means_hardware() {
        let cfg = ExecutorConfig::with_threads(0);
        assert!(cfg.effective_threads() >= 1);
    }

    #[test]
    fn backend_resolution() {
        // Chunked at one thread collapses to the sequential path.
        assert_eq!(
            ExecutorConfig::with_threads(1).resolved_backend(),
            DeliveryBackend::Sequential
        );
        assert_eq!(
            ExecutorConfig::with_threads(4).resolved_backend(),
            DeliveryBackend::Chunked
        );
        // Sequential stays sequential even with spare workers.
        assert_eq!(
            ExecutorConfig::with_threads(4)
                .with_backend(DeliveryBackend::Sequential)
                .resolved_backend(),
            DeliveryBackend::Sequential
        );
        // Sharded shard counts clamp to at least one shard.
        assert_eq!(
            ExecutorConfig::sharded(0).resolved_backend(),
            DeliveryBackend::Sharded { shards: 1 }
        );
        assert_eq!(
            ExecutorConfig::sharded(4).resolved_backend(),
            DeliveryBackend::Sharded { shards: 4 }
        );
        // `sharded(s)` provisions one worker per shard.
        assert_eq!(ExecutorConfig::sharded(4).threads, 4);
        // Auto's volume-blind fallback follows the Chunked collapse rule.
        assert_eq!(
            ExecutorConfig::auto(1).resolved_backend(),
            DeliveryBackend::Sequential
        );
        assert_eq!(
            ExecutorConfig::auto(4).resolved_backend(),
            DeliveryBackend::Chunked
        );
        assert_eq!(ExecutorConfig::auto(4).backend, DeliveryBackend::Auto);
    }

    #[test]
    fn chooser_tiers_follow_volume_and_density() {
        let model = AutoCostModel::calibrated();
        // Dense graph: density gate satisfied at the volume threshold.
        let mut ch = BackendChooser::new(model, 1 << 12);
        assert_eq!(ch.choose(0), DeliveryBackend::Sequential);
        assert_eq!(ch.choose(4096), DeliveryBackend::Sequential);
        assert_eq!(ch.choose(4097), DeliveryBackend::Chunked);
        assert_eq!(
            ch.choose(1 << 16),
            DeliveryBackend::Sharded { shards: 2 },
            "high volume on a dense graph promotes to sharded mailboxes"
        );
        // Sparse 2^20-node graph at ~3 messages/node: volume is huge but the
        // density gate (4 per node) holds it on the chunked tier — the regime
        // where sharded measured slower than sequential (ROADMAP.md item 2).
        let n = 1 << 20;
        let mut sparse = BackendChooser::new(model, n);
        assert_eq!(sparse.choose(3 * n as u64), DeliveryBackend::Chunked);
        assert_eq!(
            sparse.choose(4 * n as u64),
            DeliveryBackend::Sharded { shards: 8 },
            "shard count scales with n, clamped to max_shards"
        );
    }

    #[test]
    fn chooser_hysteresis_amortizes_dispatch() {
        let model = AutoCostModel::calibrated();
        let mut ch = BackendChooser::new(model, 1 << 12);
        assert_eq!(ch.choose(10_000), DeliveryBackend::Chunked);
        // A dip to just below the entry threshold stays chunked (hysteresis),
        // so alternating 10k/4k rounds don't thrash backends.
        assert_eq!(ch.choose(4_000), DeliveryBackend::Chunked);
        assert_eq!(ch.choose(10_000), DeliveryBackend::Chunked);
        // Falling below entry/hysteresis (4097 / 2) releases the tier.
        assert_eq!(ch.choose(2_000), DeliveryBackend::Sequential);
        // Same for the sharded tier: entry is 2^16, dip to 40k holds.
        assert_eq!(ch.choose(1 << 16), DeliveryBackend::Sharded { shards: 2 });
        assert_eq!(ch.choose(40_000), DeliveryBackend::Sharded { shards: 2 });
        assert_eq!(ch.choose(20_000), DeliveryBackend::Chunked);
    }

    #[test]
    fn chooser_is_thread_independent_by_construction() {
        // The chooser never sees the thread count: identical volume sequences
        // give identical decision sequences regardless of any cfg.
        let volumes = [0u64, 100, 5_000, 70_000, 70_000, 3_000, 1_000, 0];
        let run = |_threads: usize| {
            let mut ch = BackendChooser::new(AutoCostModel::calibrated(), 4096);
            volumes.iter().map(|&v| ch.choose(v)).collect::<Vec<_>>()
        };
        let base = run(1);
        for t in [2, 4, 8] {
            assert_eq!(run(t), base);
        }
    }

    #[test]
    fn plane_defaults_to_boxed() {
        assert_eq!(ExecutorConfig::default().message_plane, MessagePlane::Boxed);
        assert_eq!(
            ExecutorConfig::sequential().message_plane,
            MessagePlane::Boxed
        );
        let flat = ExecutorConfig::sharded(2).with_plane(MessagePlane::Flat);
        assert_eq!(flat.message_plane, MessagePlane::Flat);
        assert_eq!(flat.backend, DeliveryBackend::Sharded { shards: 2 });
    }

    #[test]
    fn empty_inputs_are_fine() {
        for cfg in cfgs() {
            let r: Vec<Vec<u32>> = map_chunks(&cfg, &[] as &[u32], |_, c| c.to_vec());
            assert_eq!(r.into_iter().flatten().count(), 0);
            assert_eq!(min_chunks(&cfg, &[] as &[u32], |&x| Some(x)), None);
        }
    }
}
