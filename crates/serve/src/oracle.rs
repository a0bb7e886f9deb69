//! The [`DistanceOracle`]: any [`DistanceSource`] behind an LRU query cache
//! with exact hit/miss/eviction counters.
//!
//! The cache is a **transparency layer**: answers are byte-identical with the
//! cache on, off, warm or cold (the root `tests/serve_conformance.rs` suite
//! pins cached ≡ uncached differentially) — only [`ServeMetrics`] and
//! wall-clock change. Eviction is exact LRU, implemented with a lazy
//! recency queue: every touch pushes a `(key, stamp)` entry, eviction pops
//! stale entries until it finds the key whose stamp is current, and a queue
//! grown past `2 × capacity + 64` entries is compacted to its current ones —
//! O(1) amortized, bounded by the capacity, no linked lists, fully
//! deterministic.

use apsp_core::distance::{Distance, DistanceSource};
use congest_graph::NodeId;
use std::collections::{HashMap, VecDeque};

/// Exact serving-side counters, in the same spirit as the engine's
/// `Metrics`: every field is deterministic for a given oracle + query
/// sequence (no wall-clock is recorded here, so these counters participate
/// in conformance equality).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Point lookups served (including each element of a batched lookup).
    pub lookups: u64,
    /// Batched-lookup calls served.
    pub batches: u64,
    /// k-nearest queries served.
    pub knn_queries: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to consult the source.
    pub misses: u64,
    /// Cache entries evicted to make room.
    pub evictions: u64,
}

impl ServeMetrics {
    /// Cache hit rate over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}

/// One cached answer plus the recency stamp of its latest touch.
struct CacheSlot {
    answer: Distance,
    stamp: u64,
}

/// Exact-LRU cache over `(s, t)` query keys (lazy recency queue; see module
/// docs). Capacity 0 disables caching entirely.
struct LruCache {
    capacity: usize,
    map: HashMap<(usize, usize), CacheSlot>,
    recency: VecDeque<((usize, usize), u64)>,
    tick: u64,
}

impl LruCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            recency: VecDeque::new(),
            tick: 0,
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    fn get(&mut self, key: (usize, usize)) -> Option<Distance> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.map.get_mut(&key)?;
        slot.stamp = tick;
        let answer = slot.answer;
        self.recency.push_back((key, tick));
        // Hits only push; without this, hit-heavy traffic that never evicts
        // would grow the queue with the number of lookups.
        if self.recency.len() > 2 * self.capacity + 64 {
            self.compact();
        }
        Some(answer)
    }

    /// Drops every stale recency entry, keeping the current ones in order —
    /// afterwards the queue holds exactly one entry per cached key.
    fn compact(&mut self) {
        let map = &self.map;
        self.recency
            .retain(|(key, stamp)| map.get(key).is_some_and(|s| s.stamp == *stamp));
    }

    /// Inserts `key`, evicting the least-recently-used entry if full.
    /// Returns whether an eviction happened.
    fn insert(&mut self, key: (usize, usize), answer: Distance) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.tick += 1;
        self.map.insert(
            key,
            CacheSlot {
                answer,
                stamp: self.tick,
            },
        );
        self.recency.push_back((key, self.tick));
        if self.map.len() <= self.capacity {
            return false;
        }
        // Pop recency entries until one is current — that key is the LRU.
        while let Some((old_key, stamp)) = self.recency.pop_front() {
            if self.map.get(&old_key).is_some_and(|s| s.stamp == stamp) {
                self.map.remove(&old_key);
                return true;
            }
        }
        unreachable!("a full cache always holds a current recency entry");
    }

    fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
        self.tick = 0;
    }
}

/// A queryable distance oracle: a [`DistanceSource`] behind an LRU query
/// cache, with [`ServeMetrics`] counters. Built with
/// [`DistanceOracle::builder`].
///
/// All three query paths return exactly what the source would return — the
/// cache never changes an answer, only whether the source is consulted.
pub struct DistanceOracle<S: DistanceSource> {
    source: S,
    cache: LruCache,
    metrics: ServeMetrics,
}

/// Typed fluent builder for [`DistanceOracle`] —
/// `DistanceOracle::builder(source).cache_capacity(c).build()`.
#[derive(Debug)]
pub struct DistanceOracleBuilder<S: DistanceSource> {
    source: S,
    cache_capacity: usize,
}

impl<S: DistanceSource> DistanceOracleBuilder<S> {
    /// Sets the query-cache capacity in entries (`0` disables the cache;
    /// the default is 1024).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Builds the oracle.
    #[must_use]
    pub fn build(self) -> DistanceOracle<S> {
        DistanceOracle {
            source: self.source,
            cache: LruCache::new(self.cache_capacity),
            metrics: ServeMetrics::default(),
        }
    }
}

impl<S: DistanceSource> DistanceOracle<S> {
    /// Starts a typed builder over `source` (default: 1024 cache entries).
    pub fn builder(source: S) -> DistanceOracleBuilder<S> {
        DistanceOracleBuilder {
            source,
            cache_capacity: 1024,
        }
    }

    /// The exact serving counters so far.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Drops every cached entry (cold-start scenarios). Counters are kept —
    /// they are cumulative, like engine metrics.
    pub fn reset_cache(&mut self) {
        self.cache.clear();
    }

    /// Serves one lookup through the cache, counting hit/miss/eviction.
    fn serve(&mut self, s: NodeId, t: NodeId) -> Distance {
        self.metrics.lookups += 1;
        let key = (s.index(), t.index());
        if let Some(answer) = self.cache.get(key) {
            self.metrics.hits += 1;
            return answer;
        }
        self.metrics.misses += 1;
        let answer = self.source.distance(s, t);
        if self.cache.insert(key, answer) {
            self.metrics.evictions += 1;
        }
        answer
    }

    /// Point lookup: the distance from `s` to `t`.
    pub fn lookup(&mut self, s: NodeId, t: NodeId) -> Distance {
        self.serve(s, t)
    }

    /// Batched lookup: answers in query order (each element served through
    /// the cache like a point lookup).
    pub fn lookup_batch(&mut self, queries: &[(NodeId, NodeId)]) -> Vec<Distance> {
        self.metrics.batches += 1;
        queries.iter().map(|&(s, t)| self.serve(s, t)).collect()
    }

    /// The `k` nodes nearest to `s` by served distance, ascending, ties
    /// broken by node id (so the ordering is total and deterministic).
    /// Excludes `s` itself and pairs the source does not cover; returns
    /// fewer than `k` entries only when fewer covered nodes exist.
    ///
    /// Scans the source directly — a full-row scan through the point cache
    /// would evict the working set a point-lookup mix built up, so the k-NN
    /// path deliberately bypasses it.
    pub fn k_nearest(&mut self, s: NodeId, k: usize) -> Vec<(NodeId, Distance)> {
        self.metrics.knn_queries += 1;
        let mut reached: Vec<(u64, usize, Distance)> = (0..self.source.n())
            .filter(|&t| t != s.index())
            .filter_map(|t| {
                let d = self.source.distance(s, NodeId::new(t));
                d.value().map(|v| (v, t, d))
            })
            .collect();
        let by_distance_then_id = |&(v, t, _): &(u64, usize, Distance)| (v, t);
        if k < reached.len() {
            reached.select_nth_unstable_by_key(k, by_distance_then_id);
            reached.truncate(k);
        }
        reached.sort_unstable_by_key(by_distance_then_id);
        // Collected from a borrow, so the answer is a fresh `Vec` of its own size:
        // `into_iter().collect()` would reuse `reached` in place and hand the caller
        // the whole `n − 1`-candidate scan buffer to keep alive.
        reached
            .iter()
            .map(|&(_, t, d)| (NodeId::new(t), d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_core::distance::MatrixSource;

    /// dist[t][s] for a 4-node path 0–1–2–3 with unit weights.
    fn path4() -> Vec<Vec<Option<u64>>> {
        (0..4usize)
            .map(|t| (0..4usize).map(|s| Some(s.abs_diff(t) as u64)).collect())
            .collect()
    }

    #[test]
    fn lookup_paths_agree_with_source() {
        let dist = path4();
        let mut oracle = DistanceOracle::builder(MatrixSource::new(&dist))
            .cache_capacity(2)
            .build();
        assert_eq!(
            oracle.lookup(NodeId::new(0), NodeId::new(3)),
            Distance::Exact(3)
        );
        let batch = oracle.lookup_batch(&[
            (NodeId::new(0), NodeId::new(3)),
            (NodeId::new(2), NodeId::new(1)),
        ]);
        assert_eq!(batch, vec![Distance::Exact(3), Distance::Exact(1)]);
        assert_eq!(oracle.metrics().lookups, 3);
        assert_eq!(oracle.metrics().batches, 1);
        assert_eq!(oracle.metrics().hits, 1); // the repeated (0,3)
        assert_eq!(oracle.metrics().misses, 2);
    }

    #[test]
    fn knn_orders_by_distance_then_node_id() {
        let dist = path4();
        let mut oracle = DistanceOracle::builder(MatrixSource::new(&dist)).build();
        let near = oracle.k_nearest(NodeId::new(1), 3);
        // d(1,0) = d(1,2) = 1 — the tie breaks toward the smaller node id.
        assert_eq!(
            near,
            vec![
                (NodeId::new(0), Distance::Exact(1)),
                (NodeId::new(2), Distance::Exact(1)),
                (NodeId::new(3), Distance::Exact(2)),
            ]
        );
        assert_eq!(oracle.metrics().knn_queries, 1);
        assert_eq!(oracle.metrics().lookups, 0); // bypasses the point paths
    }

    #[test]
    fn knn_selects_the_full_sort_prefix_and_keeps_no_scan_buffer() {
        // A 41-cycle: every distance from node 7 is shared by two nodes, so every
        // cut through the ranking lands on or next to a tie.
        let n = 41usize;
        let dist: Vec<Vec<Option<u64>>> = (0..n)
            .map(|t| {
                let ring = |s: usize| s.abs_diff(t).min(n - s.abs_diff(t)) as u64;
                (0..n).map(|s| Some(ring(s))).collect()
            })
            .collect();
        let s = NodeId::new(7);
        let mut ranked: Vec<(u64, usize)> = (0..n)
            .filter(|&t| t != s.index())
            .map(|t| (dist[t][s.index()].expect("connected"), t))
            .collect();
        ranked.sort_unstable();
        let mut oracle = DistanceOracle::builder(MatrixSource::new(&dist)).build();
        for k in [0, 1, 2, 3, 8, n - 2, n - 1, n, 10 * n] {
            let near = oracle.k_nearest(s, k);
            let want: Vec<(NodeId, Distance)> = ranked
                .iter()
                .take(k)
                .map(|&(d, t)| (NodeId::new(t), Distance::Exact(d)))
                .collect();
            assert_eq!(near, want, "k = {k}");
            assert!(near.capacity() <= k.max(near.len()), "k = {k}");
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let dist = path4();
        let mut oracle = DistanceOracle::builder(MatrixSource::new(&dist))
            .cache_capacity(2)
            .build();
        let (a, b, c) = (
            (NodeId::new(0), NodeId::new(1)),
            (NodeId::new(0), NodeId::new(2)),
            (NodeId::new(0), NodeId::new(3)),
        );
        oracle.lookup(a.0, a.1); // miss, cache {a}
        oracle.lookup(b.0, b.1); // miss, cache {a, b}
        oracle.lookup(a.0, a.1); // hit — a becomes most recent
        oracle.lookup(c.0, c.1); // miss — evicts b (LRU), cache {a, c}
        assert_eq!(oracle.metrics().evictions, 1);
        oracle.lookup(a.0, a.1); // hit
        oracle.lookup(b.0, b.1); // miss — b was evicted
        assert_eq!(oracle.metrics().hits, 2);
        assert_eq!(oracle.metrics().misses, 4);
    }

    #[test]
    fn recency_queue_stays_bounded_under_hits() {
        let mut cache = LruCache::new(4);
        cache.insert((0, 1), Distance::Exact(1));
        for _ in 0..10_000 {
            assert_eq!(cache.get((0, 1)), Some(Distance::Exact(1)));
            assert!(cache.recency.len() <= 72, "{}", cache.recency.len());
        }
    }

    #[test]
    fn compaction_keeps_lru_order() {
        let mut cache = LruCache::new(2);
        let (a, b, c) = ((0, 1), (0, 2), (0, 3));
        cache.insert(a, Distance::Exact(1));
        cache.insert(b, Distance::Exact(2));
        // Hit a 1 000 times, then on until a compaction has just run, so the
        // queue holds only the current entries: b's, then a's.
        let mut hits = 0;
        while hits < 1_000 || cache.recency.len() > 2 {
            cache.get(a);
            hits += 1;
            assert!(hits < 2_000, "the recency queue never compacted");
        }
        assert!(cache.insert(c, Distance::Exact(3)), "a full cache evicts");
        assert!(cache.map.contains_key(&a) && cache.map.contains_key(&c));
        assert!(!cache.map.contains_key(&b), "b was least recently used");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let dist = path4();
        let mut oracle = DistanceOracle::builder(MatrixSource::new(&dist))
            .cache_capacity(0)
            .build();
        for _ in 0..3 {
            oracle.lookup(NodeId::new(0), NodeId::new(3));
        }
        assert_eq!(oracle.metrics().hits, 0);
        assert_eq!(oracle.metrics().misses, 3);
        assert_eq!(oracle.metrics().evictions, 0);
    }

    #[test]
    fn reset_cache_forces_misses_but_keeps_counters() {
        let dist = path4();
        let mut oracle = DistanceOracle::builder(MatrixSource::new(&dist)).build();
        oracle.lookup(NodeId::new(0), NodeId::new(1));
        oracle.lookup(NodeId::new(0), NodeId::new(1));
        assert_eq!(oracle.metrics().hits, 1);
        oracle.reset_cache();
        oracle.lookup(NodeId::new(0), NodeId::new(1));
        assert_eq!(oracle.metrics().hits, 1);
        assert_eq!(oracle.metrics().misses, 2);
        assert_eq!(oracle.metrics().hit_rate(), 1.0 / 3.0);
    }
}
