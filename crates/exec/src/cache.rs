//! Sharded in-memory result cache keyed by canonical scenarios.
//!
//! The cache exploits the paper's Appendix isomorphism: scenarios that
//! canonicalise to the same key (`d1 ⊕ d2 ≡ k·d1 ⊕ k·d2 (mod m)` for any
//! unit `k`) are provably equivalent, so the design-space sweeps simulate
//! each equivalence class once and replay every further member for free.
//!
//! Shards are plain `Mutex<HashMap>`s picked by key hash, so concurrent
//! runner workers rarely contend on the same lock. Hit/miss counters are
//! lock-free atomics; export them into a `vecmem-obs` metrics registry via
//! [`crate::telemetry::export_exec_telemetry`].

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// Monotonic hit/miss counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (the isomorphic replays).
    pub hits: u64,
    /// Lookups that had to execute the scenario.
    pub misses: u64,
    /// Misses whose computed value was discarded because a racing worker
    /// inserted the same key first (duplicate in-flight computation).
    pub coalesced: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A sharded map from canonical scenario keys to cloned outcomes.
///
/// Values must be cheap to clone relative to recomputing them — for the
/// steady-state sweeps a [`SteadyState`](vecmem_banksim::SteadyState) clone
/// is a few heap words against millions of simulated cycles.
#[derive(Debug)]
pub struct ResultCache<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> Default for ResultCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V: Clone> ResultCache<K, V> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h as usize) % SHARDS]
    }

    /// Looks `key` up, executing `compute` on a miss and memoising its
    /// result. Two workers racing on the same fresh key may both compute;
    /// the first insert wins (the results are identical by construction).
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        #[expect(
            clippy::expect_used,
            reason = "a lock is poisoned only by a panic while it is held, and that panic already propagates"
        )]
        if let Some(v) = self.shard(&key).lock().expect("cache shard").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        // Compute outside the lock: scenario runs can take millions of
        // simulated cycles and must not serialise the shard.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        #[expect(
            clippy::expect_used,
            reason = "a lock is poisoned only by a panic while it is held, and that panic already propagates"
        )]
        match self.shard(&key).lock().expect("cache shard").entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => {
                // A racing worker inserted first: this computation was
                // duplicate work, visible in the coalesced counter.
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value.clone());
            }
        }
        value
    }

    /// Number of distinct keys stored.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "a lock is poisoned only by a panic while it is held, and that panic already propagates"
    )]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").len())
            .sum()
    }

    /// True when no key is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoises_and_counts() {
        let cache: ResultCache<u64, u64> = ResultCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache.get_or_compute(7, || {
                calls += 1;
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(calls, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn coalesced_counts_duplicate_inflight_computation() {
        let cache: ResultCache<u64, u64> = ResultCache::new();
        // The inner lookup stands in for a racing worker: it inserts the
        // key while the outer computation is still in flight, so the
        // outer insert finds the slot occupied and counts a coalesce.
        let v = cache.get_or_compute(1, || cache.get_or_compute(1, || 10));
        assert_eq!(v, 10);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(cache.len(), 1);
        // Serial reuse afterwards is a plain hit, no further coalesces.
        assert_eq!(cache.get_or_compute(1, || 99), 10);
        assert_eq!(cache.stats().coalesced, 1);
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache: ResultCache<u64, u64> = ResultCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn distinct_keys_live_side_by_side() {
        let cache: ResultCache<(u64, u64), String> = ResultCache::new();
        for k in 0..100 {
            cache.get_or_compute((k, k + 1), || format!("v{k}"));
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().misses, 100);
        assert_eq!(cache.get_or_compute((3, 4), String::new), "v3");
    }
}
