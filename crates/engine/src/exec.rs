//! Deterministic chunked-parallel execution of per-node phases.
//!
//! Two phases of the BCONGEST round loop run here: state init, once per run,
//! and each round's pure [`broadcast`](crate::BcongestAlgorithm::broadcast)
//! polls of the nodes the agenda scheduled (`agenda.rs`: the nodes that might
//! send, not every node). Both are embarrassingly parallel: node `i`'s
//! contribution depends only on node `i`'s state. Delivery and the
//! [`receive`](crate::BcongestAlgorithm::receive) transitions run on the
//! caller's thread ([`crate::plane`]). This module shards an ascending node
//! list or range into **contiguous chunks**, runs the chunks on a cached
//! thread pool (the vendored `rayon` shim), and merges per-chunk results **in
//! fixed chunk order**, so every quantity the engine reports — outputs,
//! rounds, message counts, per-edge congestion — is byte-identical at any
//! thread count. The `tests/parallel_determinism.rs` suite enforces this.
//!
//! [`ExecutorConfig::threads`] is the only execution setting. At `threads = 1`
//! (the default) the pool is bypassed entirely: the chunk helpers degenerate
//! to a single inline call, so the sequential path is the `threads = 1`
//! special case of the parallel one, not a separate code path.

use congest_graph::NodeId;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// How a runner executes its per-node phases. Outputs and [`crate::Metrics`]
/// are byte-identical at every thread count, so this is a wall-clock setting
/// only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads for the per-node phases. `1` = sequential (no pool);
    /// `0` = one per available hardware thread; `k > 1` = exactly `k`.
    pub threads: usize,
}

impl Default for ExecutorConfig {
    /// One thread: every phase runs inline on the caller.
    fn default() -> Self {
        Self { threads: 1 }
    }
}

impl ExecutorConfig {
    /// An executor with exactly `threads` workers (`0` = hardware threads).
    pub const fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// The resolved worker count (`0` resolved to the hardware thread count,
    /// queried once per process — the round loop asks every round, and
    /// `available_parallelism` is a syscall).
    fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            static HARDWARE: OnceLock<usize> = OnceLock::new();
            *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
        } else {
            self.threads
        }
    }
}

/// Contiguous chunk size for `len` items over `threads` workers: one chunk
/// per worker.
fn chunk_size_for(len: usize, threads: usize) -> usize {
    len.div_ceil(threads).max(1)
}

/// Cached pools, one per distinct thread count. Runs share pools across rounds
/// and calls, so the per-round cost is job dispatch, not thread spawning.
fn pool_for(threads: usize) -> Arc<ThreadPool> {
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
pub(crate) fn map_chunks<T, R, F>(cfg: &ExecutorConfig, items: &[T], f: F) -> Vec<R>
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
pub(crate) fn map_ranges<R, F>(cfg: &ExecutorConfig, len: usize, f: F) -> Vec<R>
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

/// Polls the nodes on `poll` (ascending) for their send decision and fills
/// `out` — cleared first, reused by the runners across rounds — with the
/// senders in poll order: `f(node_index, state)` returning `Some(payload)`
/// marks the node a sender this round. At one thread this is a single pass
/// into `out`; in parallel the poll list is cut into contiguous chunks via
/// [`map_chunks`] and the per-chunk batches are appended in chunk order, which
/// reproduces the sequential order exactly.
pub(crate) fn collect_sends<St, X, F>(
    cfg: &ExecutorConfig,
    poll: &[u32],
    states: &[St],
    out: &mut Vec<(NodeId, X)>,
    f: F,
) where
    St: Sync,
    X: Send,
    F: Fn(usize, &St) -> Option<X> + Sync,
{
    let poll_one = |&i: &u32| f(i as usize, &states[i as usize]).map(|x| (NodeId::from(i), x));
    out.clear();
    if cfg.effective_threads() <= 1 || poll.len() <= 1 {
        out.extend(poll.iter().filter_map(poll_one));
        return;
    }
    let batches = map_chunks(cfg, poll, |_, chunk| {
        chunk.iter().filter_map(poll_one).collect::<Vec<_>>()
    });
    for mut batch in batches {
        out.append(&mut batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfgs() -> Vec<ExecutorConfig> {
        vec![
            ExecutorConfig::default(),
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
    fn zero_threads_means_hardware() {
        let cfg = ExecutorConfig::with_threads(0);
        assert!(cfg.effective_threads() >= 1);
    }

    #[test]
    fn empty_inputs_are_fine() {
        for cfg in cfgs() {
            let r: Vec<Vec<u32>> = map_chunks(&cfg, &[] as &[u32], |_, c| c.to_vec());
            assert_eq!(r.into_iter().flatten().count(), 0);
        }
    }
}
