//! Thread-safe memoization of solver queries.
//!
//! The paper's `POST(pc)` validity checks issue one solver query per
//! negatable branch per generation, and consecutive generations share
//! long `ALT(pc)` prefixes — so structurally identical formulas are
//! re-solved constantly. [`QueryCache`] is a sharded memo table shared by
//! every worker thread of a parallel campaign: keys carry a precomputed
//! structural fingerprint (cheap hashing, shard selection) but compare by
//! full structural equality, so a fingerprint collision can only cost a
//! shard imbalance, never a wrong answer.
//!
//! Determinism: cached values are exactly the values the underlying
//! (deterministic) solver would recompute, so interposing the cache never
//! changes campaign *results* — only `hits`/`misses` counters, which may
//! legitimately differ between thread counts (two workers can race to
//! populate the same slot).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// Default per-cache entry capacity (across all shards). Campaigns are
/// bounded by `max_runs`, so this is a backstop against pathological
/// query streams, not a tuning knob.
const DEFAULT_CAPACITY: usize = 65_536;

/// Hit/miss counters of the query memo tables (monotone,
/// campaign-lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that fell through to the solver.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all memo lookups (`0.0` when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Component-wise sum of two counters.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// A sharded, thread-safe memo table from query keys to solver results.
///
/// Keys must hash *deterministically* (use precomputed fingerprints) and
/// compare exactly; values are cloned out on hit.
#[derive(Debug)]
pub struct QueryCache<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity_per_shard: usize,
}

impl<K: Hash + Eq, V: Clone> QueryCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> QueryCache<K, V> {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity_per_shard: capacity.div_ceil(SHARDS).max(1),
        }
    }

    /// Creates a cache with the default capacity.
    pub fn new() -> QueryCache<K, V> {
        QueryCache::with_capacity(DEFAULT_CAPACITY)
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        // Fixed-key hasher: `DefaultHasher`'s keys are unspecified across
        // Rust releases, which would make shard placement (and any
        // persisted trace derived from it) toolchain-dependent.
        let mut h = hotg_logic::StableHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks up a memoized value, counting a hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache lock")
            .get(key)
            .cloned();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes a value. A full shard drops the insert (the cache is a
    /// bounded accelerator, not a store of record).
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).lock().expect("cache lock");
        if shard.len() >= self.capacity_per_shard && !shard.contains_key(&key) {
            return;
        }
        shard.insert(key, value);
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").len())
            .sum()
    }

    /// `true` if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<K: Hash + Eq, V: Clone> Default for QueryCache<K, V> {
    fn default() -> QueryCache<K, V> {
        QueryCache::new()
    }
}

/// A cache key wrapping a payload with its precomputed fingerprint:
/// hashing writes only the fingerprint (O(1)), equality compares the full
/// payload (exact).
#[derive(Clone, Debug)]
pub struct Keyed<T> {
    fingerprint: u64,
    payload: T,
}

impl<T> Keyed<T> {
    /// Wraps `payload` with its `fingerprint`.
    pub fn new(fingerprint: u64, payload: T) -> Keyed<T> {
        Keyed {
            fingerprint,
            payload,
        }
    }

    /// The precomputed fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The wrapped payload.
    pub fn payload(&self) -> &T {
        &self.payload
    }
}

impl<T: PartialEq> PartialEq for Keyed<T> {
    fn eq(&self, other: &Keyed<T>) -> bool {
        self.fingerprint == other.fingerprint && self.payload == other.payload
    }
}

impl<T: Eq> Eq for Keyed<T> {}

impl<T> Hash for Keyed<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let cache: QueryCache<Keyed<u32>, &'static str> = QueryCache::new();
        let k = Keyed::new(7, 7u32);
        assert_eq!(cache.get(&k), None);
        cache.insert(k.clone(), "v");
        assert_eq!(cache.get(&k), Some("v"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn colliding_fingerprints_stay_exact() {
        let cache: QueryCache<Keyed<u32>, u32> = QueryCache::new();
        let a = Keyed::new(1, 10u32);
        let b = Keyed::new(1, 20u32); // same fingerprint, different payload
        cache.insert(a.clone(), 100);
        assert_eq!(cache.get(&b), None, "payload equality must disambiguate");
        cache.insert(b.clone(), 200);
        assert_eq!(cache.get(&a), Some(100));
        assert_eq!(cache.get(&b), Some(200));
    }

    #[test]
    fn capacity_bounds_inserts() {
        let cache: QueryCache<Keyed<u64>, u64> = QueryCache::with_capacity(SHARDS);
        for i in 0..10_000u64 {
            cache.insert(Keyed::new(i, i), i);
        }
        assert!(
            cache.len() <= SHARDS,
            "one entry per shard at this capacity"
        );
        // Existing keys still update when a shard is full.
        let existing = (0..10_000u64)
            .map(|i| Keyed::new(i, i))
            .find(|k| cache.get(k).is_some())
            .expect("something was cached");
        cache.insert(existing.clone(), 999);
        assert_eq!(cache.get(&existing), Some(999));
    }

    #[test]
    fn stats_merge() {
        let a = CacheStats { hits: 2, misses: 3 };
        let b = CacheStats { hits: 5, misses: 7 };
        assert_eq!(
            a.merged(b),
            CacheStats {
                hits: 7,
                misses: 10
            }
        );
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn shared_across_threads() {
        let cache: QueryCache<Keyed<u64>, u64> = QueryCache::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..100u64 {
                        let k = Keyed::new(i, i);
                        if cache.get(&k).is_none() {
                            cache.insert(k, i * 10);
                        }
                    }
                    let _ = t;
                });
            }
        });
        for i in 0..100u64 {
            assert_eq!(cache.get(&Keyed::new(i, i)), Some(i * 10));
        }
    }
}
