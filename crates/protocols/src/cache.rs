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
/// where any reasonable policy behaves identically. The table is one
/// dense `Vec` of entries kept in insertion order, oldest first: a
/// lookup scans it (capacities are a few hundred entries at most, and
/// each entry carries its key's fixed word hash, so the scan compares
/// keys only on a hash match), an eviction removes the front, and
/// invalidation is an order-preserving retain. No second copy of any
/// key, no per-process hash seed: every lookup is bounded by the
/// capacity whatever the keys, so keys crafted to collide cost at most
/// a key comparison each.
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
/// assert_eq!(cache.probe(&key), Some(&42));
/// assert_eq!(cache.get(&key), Some(42));
/// assert_eq!(cache.stats().hits, 2);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PartialCache<V> {
    /// Resident entries in insertion order (front = next to evict).
    entries: Vec<Entry<V>>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    delta_applied: u64,
    delta_invalidated: u64,
}

/// One resident entry, its key's hash kept beside the key.
#[derive(Debug, Clone)]
struct Entry<V> {
    hash: u64,
    key: CacheKey,
    value: V,
}

/// The table's fixed, deterministic key hash: the packed words folded
/// one at a time (FxHash's rotate-xor-multiply step). It covers the
/// words only — keys differing just in trailing zero bits share a
/// hash, and the key comparison tells them apart.
fn key_hash(key: &CacheKey) -> u64 {
    key.as_words().iter().fold(0, |h, &word| {
        (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

impl<V> PartialCache<V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a zero-capacity cache is "caching
    /// disabled", which callers express by not constructing one).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PartialCache {
            entries: Vec::new(),
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
    /// reporting them need not diff the cumulative counters. Survivors
    /// keep their FIFO order. Allocates nothing.
    pub fn delta_maintain(&mut self, mut apply: impl FnMut(&mut V) -> bool) -> (u64, u64) {
        let before = self.entries.len() as u64;
        self.entries.retain_mut(|entry| apply(&mut entry.value));
        let applied = self.entries.len() as u64;
        let invalidated = before - applied;
        self.delta_applied += applied;
        self.delta_invalidated += invalidated;
        (applied, invalidated)
    }

    /// Where `key` sits in the table, counting the hit or miss. The
    /// position stays valid until the next `insert`, `delta_maintain`
    /// or `clear` — long enough for a wave to admit, execute and
    /// assemble at one node ([`PartialCache::at`]).
    pub(crate) fn position(&mut self, key: &CacheKey) -> Option<usize> {
        let hash = key_hash(key);
        let found = self
            .entries
            .iter()
            .position(|e| e.hash == hash && e.key == *key);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// The value at a position [`PartialCache::position`] returned.
    pub(crate) fn at(&self, pos: usize) -> &V {
        &self.entries[pos].value
    }

    /// Looks up a cached subtree partial in place, counting the hit or
    /// miss exactly as [`PartialCache::get`] does.
    pub fn probe(&mut self, key: &CacheKey) -> Option<&V> {
        self.position(key).map(|pos| self.at(pos))
    }

    /// Stores a subtree partial, evicting the oldest entry when full.
    /// Re-inserting an existing key replaces its value in place, keeping
    /// its place in the eviction order.
    pub fn insert(&mut self, key: CacheKey, value: V) {
        let hash = key_hash(&key);
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.key == key)
        {
            entry.value = value;
            return;
        }
        self.entries.push(Entry { hash, key, value });
        if self.entries.len() > self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
    }

    /// Drops every entry (invalidation). Hit/miss counters survive so
    /// measurements span invalidations.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len() as u64,
            evictions: self.evictions,
            delta_applied: self.delta_applied,
            delta_invalidated: self.delta_invalidated,
        }
    }
}

impl<V: Clone> PartialCache<V> {
    /// Looks up a cached subtree partial, counting the hit or miss, and
    /// returns a copy ([`PartialCache::probe`] borrows instead).
    pub fn get(&mut self, key: &CacheKey) -> Option<V> {
        self.probe(key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use saq_netsim::wire::{BitReader, BitWriter, ScratchPool};
    use std::collections::HashMap;

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

    /// The previous table, kept as the reference: a `HashMap` under a
    /// per-process random hash, FIFO by insertion stamp, the oldest
    /// entry found by a min-scan.
    struct StampCache<V> {
        map: HashMap<CacheKey, (u64, V)>,
        next_stamp: u64,
        capacity: usize,
        hits: u64,
        misses: u64,
        evictions: u64,
        delta_applied: u64,
        delta_invalidated: u64,
    }

    impl<V: Clone> StampCache<V> {
        fn new(capacity: usize) -> Self {
            StampCache {
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

        fn get(&mut self, key: &CacheKey) -> Option<V> {
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

        fn insert(&mut self, key: CacheKey, value: V) {
            match self.map.get_mut(&key) {
                Some(slot) => slot.1 = value,
                None => {
                    self.map.insert(key, (self.next_stamp, value));
                    self.next_stamp += 1;
                }
            }
            if self.map.len() > self.capacity {
                let oldest = self.map.values().map(|&(stamp, _)| stamp).min();
                self.map.retain(|_, &mut (stamp, _)| Some(stamp) != oldest);
                self.evictions += 1;
            }
        }

        fn delta_maintain(&mut self, mut apply: impl FnMut(&mut V) -> bool) -> (u64, u64) {
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

        fn stats(&self) -> CacheStats {
            CacheStats {
                hits: self.hits,
                misses: self.misses,
                entries: self.map.len() as u64,
                evictions: self.evictions,
                delta_applied: self.delta_applied,
                delta_invalidated: self.delta_invalidated,
            }
        }

        /// Resident `(key, value)` pairs, oldest first.
        fn resident(&self) -> Vec<(CacheKey, V)> {
            let mut all: Vec<_> = self.map.iter().collect();
            all.sort_by_key(|(_, (stamp, _))| *stamp);
            all.into_iter()
                .map(|(k, (_, v))| (k.clone(), v.clone()))
                .collect()
        }
    }

    /// A key from a small universe of 1–4-bit strings: many of them
    /// pack to the same word (`0`, `00`, `000` and `0000`; `1` and
    /// `10`), so they share a hash and only the comparison tells them
    /// apart.
    fn small_key(v: u8) -> CacheKey {
        let len = 1 + u32::from(v % 4);
        let mut w = BitWriter::new();
        w.write_bits(u64::from(v / 4) & ((1 << len) - 1), len);
        w.finish()
    }

    #[test]
    fn small_keys_share_hashes_but_not_identity() {
        let (a, b) = (small_key(0), small_key(1));
        assert_eq!(key_hash(&a), key_hash(&b));
        assert_ne!(a, b);
        let mut c: PartialCache<u64> = PartialCache::new(4);
        c.insert(a.clone(), 1);
        c.insert(b.clone(), 2);
        assert_eq!((c.get(&a), c.get(&b)), (Some(1), Some(2)));
    }

    /// The same bits reached by different codec paths — captured at a
    /// word-aligned or an unaligned cursor, duplicated or written into
    /// recycled buffers that last held a longer frame — are one key:
    /// equal, with equal `key_hash`, so a lookup finds what another
    /// path inserted.
    #[test]
    fn same_bits_by_any_path_are_one_key() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_gamma(1234);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0b101, 3);
        let src = w.finish();
        let ones = {
            let mut w = BitWriter::new();
            (0..3).for_each(|_| w.write_bits(u64::MAX, 64));
            w.finish()
        };
        let mut pool = ScratchPool::new();
        for len in 0..=src.len_bits() {
            let key = BitReader::new(&src).read_bitstring(len).unwrap();
            let unaligned = {
                let mut w = BitWriter::new();
                w.write_bits(0b11, 2);
                w.write_bitstring(&key);
                let s = w.finish();
                let mut r = BitReader::new(&s);
                r.read_bits(2).unwrap();
                r.read_bitstring(len).unwrap()
            };
            pool.recycle(ones.clone());
            let duplicate = pool.duplicate(&key);
            pool.recycle(ones.clone());
            let mut w = pool.writer();
            w.write_bitstring(&key);
            let pooled = w.finish();
            let mut cache: PartialCache<u64> = PartialCache::new(4);
            cache.insert(key.clone(), len);
            for other in [unaligned, duplicate, pooled] {
                assert_eq!(other, key, "{len} bits");
                assert_eq!(key_hash(&other), key_hash(&key), "{len} bits");
                assert_eq!(cache.probe(&other), Some(&len), "{len} bits");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // The dense FIFO table against the stamp-ordered `HashMap` it
        // replaced: identical lookups, counters, occupancy and
        // eviction victims after every operation.
        #[test]
        fn prop_dense_table_matches_stamp_map(
            capacity in 1usize..8,
            ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..96),
        ) {
            let mut dense: PartialCache<u64> = PartialCache::new(capacity);
            let mut oracle: StampCache<u64> = StampCache::new(capacity);
            for (kind, k, v) in ops {
                let key = small_key(k % 24);
                match kind % 8 {
                    0..=2 => {
                        dense.insert(key.clone(), v);
                        oracle.insert(key, v);
                    }
                    3 => prop_assert_eq!(dense.get(&key), oracle.get(&key)),
                    4 | 5 => prop_assert_eq!(dense.probe(&key).copied(), oracle.get(&key)),
                    6 => {
                        // Keep entries by a value bit, bumping survivors.
                        let bit = v % 64;
                        let step = |x: &mut u64| {
                            *x = x.wrapping_add(1);
                            (*x >> bit) & 1 == 0
                        };
                        prop_assert_eq!(dense.delta_maintain(step), oracle.delta_maintain(step));
                    }
                    _ => {
                        dense.clear();
                        oracle.map.clear();
                    }
                }
                prop_assert_eq!(dense.stats(), oracle.stats());
                prop_assert_eq!(dense.len(), oracle.map.len());
                let resident: Vec<(CacheKey, u64)> = dense
                    .entries
                    .iter()
                    .map(|e| (e.key.clone(), e.value))
                    .collect();
                prop_assert_eq!(resident, oracle.resident());
            }
        }
    }
}
