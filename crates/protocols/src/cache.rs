//! Subtree partial caching for the wave runner.
//!
//! The two-step aggregation split (mergeable partial state vs. a
//! root-side `finalize` accessor, see `saq-core::aggregate`) means an
//! interior node's merged *subtree partial* is a complete, reusable
//! answer to a sub-request: if the same sub-request arrives again and no
//! item below the node has changed, the node can reply from cache
//! without recomputing its local contribution or contacting its subtree
//! at all. Repeated queries then cost bits only along the (usually
//! empty) invalidated paths — the "partial caching" follow-up of the
//! ROADMAP, and the same idea as materialized partial aggregates in
//! two-step aggregation systems (TimescaleDB continuous aggregates,
//! q-digest-style summary reuse).
//!
//! [`PartialCache`] is the per-node store: a bounded FIFO map from
//! [`CacheKey`] (the *encoded wire bits* of the sub-request — predicate,
//! domain, aggregate kind and parameters, exactly as both endpoints of a
//! hop would see them) to the node's merged subtree partial for that
//! sub-request. Invalidation is handled by the wave runner:
//!
//! * a wave whose request [`WaveProtocol::invalidates_cache`] reports
//!   `true` (item mutation, e.g. the paper's Fig. 4 zoom) clears the
//!   cache of every node that executes it, *before* serving any slot;
//! * item replacement between waves ([`WaveSubstrate::set_items`]) visits
//!   the mutated node **and every ancestor** — their cached partials
//!   embed the stale subtree contribution — and, entry by entry, either
//!   folds the update in place or drops the entry
//!   ([`PartialCache::delta_maintain`]).
//!
//! [`WaveProtocol::invalidates_cache`]: crate::wave::WaveProtocol::invalidates_cache
//! [`WaveSubstrate::set_items`]: crate::wave::WaveSubstrate::set_items

use saq_netsim::wire::BitString;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Key identifying a cacheable sub-request: its exact encoded wire bits.
///
/// Using the encoding (rather than a hash of an in-memory value) makes
/// the key definition protocol-independent and collision-free: two
/// sub-requests share a key if and only if every node would execute them
/// identically. Randomized sub-requests embed their seed nonce in the
/// encoding, so a cached sketch partial is only reused for the *same*
/// random instance — a hit is always bit-exact.
pub type CacheKey = BitString;

/// Hit/miss/occupancy counters of one or many [`PartialCache`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real convergecast.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Entries evicted by the capacity bound (not by invalidation).
    pub evictions: u64,
    /// Entries updated in place by delta maintenance
    /// ([`PartialCache::delta_maintain`]) — each one a subtree partial
    /// that survived an item mutation and can keep serving refreshes.
    pub delta_applied: u64,
    /// Entries invalidated because a delta could not be applied soundly
    /// (the loud fallback for unsupported aggregates).
    pub delta_invalidated: u64,
}

impl CacheStats {
    /// Accumulates another counter set (used to aggregate per-node caches
    /// into a network-wide view).
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
        self.evictions += other.evictions;
        self.delta_applied += other.delta_applied;
        self.delta_invalidated += other.delta_invalidated;
    }
}

/// A bounded map from encoded sub-requests to cached subtree partials.
///
/// Eviction is FIFO by insertion order: the cache's job is to absorb
/// *repeated* request streams (dashboards re-issuing the same queries),
/// where any reasonable policy behaves identically. Each entry carries
/// its insertion stamp, so the order costs one integer per entry rather
/// than a second copy of every key; finding the oldest entry scans the
/// map, which only an insert into a full cache does.
///
/// # Examples
///
/// ```
/// use saq_protocols::cache::PartialCache;
/// use saq_netsim::wire::BitWriter;
///
/// let key = {
///     let mut w = BitWriter::new();
///     w.write_bits(0b1011, 4);
///     w.finish()
/// };
/// let mut cache: PartialCache<u64> = PartialCache::new(8);
/// assert_eq!(cache.get(&key), None);
/// cache.insert(key.clone(), 42);
/// assert_eq!(cache.get(&key), Some(42));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PartialCache<V> {
    /// Each value with its insertion stamp (FIFO eviction order).
    map: HashMap<CacheKey, (u64, V)>,
    /// The stamp the next new entry gets.
    next_stamp: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    delta_applied: u64,
    delta_invalidated: u64,
}

impl<V: Clone> PartialCache<V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a zero-capacity cache is "caching
    /// disabled", which callers express by not constructing one).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PartialCache {
            map: HashMap::new(),
            next_stamp: 0,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
            delta_applied: 0,
            delta_invalidated: 0,
        }
    }

    /// Delta-maintains every resident entry through an item mutation:
    /// `apply` receives each cached partial and returns whether it
    /// folded the update in (`true` keeps the entry, now up to date;
    /// `false` invalidates it — the per-entry fallback that replaces the
    /// old whole-cache clear, so entries whose aggregates support deltas
    /// stay resident across mutations). Counted in
    /// [`CacheStats::delta_applied`] / [`CacheStats::delta_invalidated`];
    /// returns this call's `(applied, invalidated)` counts, so a caller
    /// reporting them need not diff the cumulative counters. Allocates
    /// nothing.
    pub fn delta_maintain(&mut self, mut apply: impl FnMut(&mut V) -> bool) -> (u64, u64) {
        let (mut applied, mut invalidated) = (0, 0);
        self.map.retain(|_, (_, value)| {
            let kept = apply(value);
            if kept {
                applied += 1;
            } else {
                invalidated += 1;
            }
            kept
        });
        self.delta_applied += applied;
        self.delta_invalidated += invalidated;
        (applied, invalidated)
    }

    /// Looks up a cached subtree partial, counting the hit or miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<V> {
        match self.map.get(key) {
            Some((_, v)) => {
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a subtree partial, evicting the oldest entry when full.
    /// Re-inserting an existing key replaces its value in place.
    pub fn insert(&mut self, key: CacheKey, value: V) {
        match self.map.entry(key) {
            // Refreshed in place; insertion order unchanged.
            Entry::Occupied(mut entry) => entry.get_mut().1 = value,
            Entry::Vacant(entry) => {
                entry.insert((self.next_stamp, value));
                self.next_stamp += 1;
            }
        }
        if self.map.len() > self.capacity {
            let oldest = self.map.values().map(|&(stamp, _)| stamp).min();
            self.map.retain(|_, &mut (stamp, _)| Some(stamp) != oldest);
            self.evictions += 1;
        }
    }

    /// Drops every entry (invalidation). Hit/miss counters survive so
    /// measurements span invalidations.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len() as u64,
            evictions: self.evictions,
            delta_applied: self.delta_applied,
            delta_invalidated: self.delta_invalidated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_netsim::wire::BitWriter;

    fn key(v: u64) -> CacheKey {
        let mut w = BitWriter::new();
        w.write_bits(v, 16);
        w.finish()
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c: PartialCache<String> = PartialCache::new(4);
        assert_eq!(c.get(&key(1)), None);
        c.insert(key(1), "one".into());
        assert_eq!(c.get(&key(1)), Some("one".into()));
        assert_eq!(c.get(&key(2)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c: PartialCache<u64> = PartialCache::new(2);
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        c.insert(key(3), 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key(1)), None, "oldest entry evicted");
        assert_eq!(c.get(&key(2)), Some(2));
        assert_eq!(c.get(&key(3)), Some(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let mut c: PartialCache<u64> = PartialCache::new(2);
        c.insert(key(1), 1);
        c.insert(key(1), 10);
        c.insert(key(2), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key(1)), Some(10));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c: PartialCache<u64> = PartialCache::new(4);
        c.insert(key(1), 1);
        c.get(&key(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&key(1)), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = PartialCache::<u64>::new(0);
    }

    #[test]
    fn delta_maintain_updates_or_invalidates_per_entry() {
        let mut c: PartialCache<u64> = PartialCache::new(8);
        c.insert(key(1), 10);
        c.insert(key(2), 20);
        c.insert(key(3), 30);
        // The entry holding 20 absorbs the delta; the others decline.
        let counts = c.delta_maintain(|v| {
            if *v == 20 {
                *v += 5;
                true
            } else {
                false
            }
        });
        assert_eq!(counts, (1, 2), "the call reports its own counts");
        assert_eq!(c.get(&key(2)), Some(25), "applied entry updated in place");
        assert_eq!(c.get(&key(1)), None, "declined entry invalidated");
        assert_eq!(c.get(&key(3)), None);
        let s = c.stats();
        assert_eq!((s.delta_applied, s.delta_invalidated), (1, 2));
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 0, "invalidation is not eviction");
        // FIFO order book stays consistent after invalidations.
        c.insert(key(4), 40);
        c.insert(key(5), 50);
        assert_eq!(c.len(), 3);
    }
}
