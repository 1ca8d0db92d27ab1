//! Bottom-k (KMV) sampling synopses.
//!
//! A bottom-k synopsis keeps the `k` inserted pairs with the smallest hash
//! keys. Because "smallest k of a union" is determined by the union alone,
//! the synopsis is order- and duplicate-insensitive, making it the
//! classic ODI *uniform sample* of Nath et al. and the "k minimum values"
//! distinct-count estimator.
//!
//! In the workspace it serves as the sampling-median baseline (experiment
//! E7): the median of a bottom-k sample of item identities estimates the
//! population median with rank error `Θ(N/√k)`, at a wire cost of
//! `Θ(k log N)` bits — the `Ω(log N)`-per-node shape the paper contrasts
//! with its polyloglog algorithm.

use crate::DistinctSketch;
use saq_netsim::wire::{sorted_run_len, BitReader, BitWriter, WireEncode};
use saq_netsim::NetsimError;

/// A bottom-k synopsis over `(hash key, value)` pairs.
///
/// # Examples
///
/// ```
/// use saq_sketches::{BottomK, HashFamily};
///
/// let h = HashFamily::new(1);
/// let mut s = BottomK::new(32, 16);
/// for item in 0..1000u64 {
///     s.insert(h.hash(item), item % 100); // value payload: item mod 100
/// }
/// assert_eq!(s.sample().len(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BottomK {
    k: usize,
    /// Bits used to encode each value on the wire.
    value_width: u32,
    /// Sorted ascending by key; keys unique; length ≤ k.
    entries: Vec<(u64, u64)>,
}

impl BottomK {
    /// Creates an empty synopsis keeping `k` pairs whose values fit in
    /// `value_width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `value_width` is 0 or exceeds 64.
    pub fn new(k: usize, value_width: u32) -> Self {
        assert!(k > 0, "k must be positive");
        assert!((1..=64).contains(&value_width), "value_width out of range");
        BottomK {
            k,
            value_width,
            entries: Vec::with_capacity(k.min(1024)),
        }
    }

    /// The synopsis capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bits each value takes on the wire.
    pub fn value_width(&self) -> u32 {
        self.value_width
    }

    /// Inserts a pair. The key must be a well-mixed hash; the value is an
    /// arbitrary payload (item value, node id, ...).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the configured width.
    pub fn insert(&mut self, key: u64, value: u64) {
        assert!(
            self.value_width == 64 || value < (1u64 << self.value_width),
            "value {value} wider than {} bits",
            self.value_width
        );
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(_) => {} // duplicate key: idempotent
            Err(pos) => {
                if pos < self.k {
                    self.make_room();
                    self.entries.insert(pos, (key, value));
                }
            }
        }
    }

    /// Before inserting a pair below the k-th key: a full synopsis drops
    /// its largest pair first, so the storage never grows past `k` pairs
    /// (inserting and then truncating would double it once).
    fn make_room(&mut self) {
        if self.entries.len() == self.k {
            self.entries.pop();
        }
    }

    /// The sampled values, ordered by hash key (i.e. uniformly shuffled).
    pub fn sample(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.1).collect()
    }

    /// Whether `key` is currently retained.
    pub fn contains_key(&self, key: u64) -> bool {
        self.entries.binary_search_by_key(&key, |e| e.0).is_ok()
    }

    /// The largest retained key (the k-th smallest of everything
    /// inserted, once the synopsis is full), or `None` when empty.
    pub fn max_key(&self) -> Option<u64> {
        self.entries.last().map(|e| e.0)
    }

    /// Replaces the value stored under `key` in place, returning whether
    /// the key was retained (`false` leaves the synopsis untouched).
    /// Membership is key-determined, so a value update never changes
    /// which pairs are retained — the delta-maintenance primitive behind
    /// continuously maintained bottom-k subtree partials.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the configured width.
    pub fn set_value(&mut self, key: u64, value: u64) -> bool {
        assert!(
            self.value_width == 64 || value < (1u64 << self.value_width),
            "value {value} wider than {} bits",
            self.value_width
        );
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(pos) => {
                self.entries[pos].1 = value;
                true
            }
            Err(_) => false,
        }
    }

    /// The retained `(key, value)` pairs, sorted by key (wire encoders in
    /// higher layers iterate these).
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Number of retained pairs (≤ k).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Releases the spare capacity merges left behind.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// Whether the synopsis holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Writes the retained pairs as two columns: the keys as one
    /// delta-packed sorted run (its own length header included), then
    /// the values in key order at the value width — straight from the
    /// entries. [`BottomK::read_pairs`] reads them back.
    pub fn write_pairs(&self, w: &mut BitWriter) {
        w.write_sorted_run(self.entries.iter().map(|e| e.0));
        for &(_, value) in &self.entries {
            w.write_bits(value, self.value_width);
        }
    }

    /// Exactly how many bits [`BottomK::write_pairs`] writes: the key
    /// run, priced without writing it, plus one value width per pair.
    pub fn pairs_len(&self) -> u64 {
        sorted_run_len(self.entries.iter().map(|e| e.0))
            + self.entries.len() as u64 * self.value_width as u64
    }

    /// Replaces the retained pairs with the columns
    /// [`BottomK::write_pairs`] wrote, decoding straight into this
    /// synopsis' storage. A repeated key keeps its first value, as
    /// [`BottomK::insert`] would. Returns whether the keys were strictly
    /// increasing (a frame that repeats one does not round-trip). On
    /// error the synopsis is left empty.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on a truncated or malformed
    /// frame, or more than `k` keys.
    pub fn read_pairs(&mut self, r: &mut BitReader<'_>) -> Result<bool, NetsimError> {
        let read = self.read_pairs_unchecked(r);
        if read.is_err() {
            self.entries.clear();
        }
        read?;
        let len = self.entries.len();
        self.entries.dedup_by_key(|e| e.0);
        Ok(self.entries.len() == len)
    }

    fn read_pairs_unchecked(&mut self, r: &mut BitReader<'_>) -> Result<(), NetsimError> {
        let entries = &mut self.entries;
        entries.clear();
        let run = r.read_sorted_header(self.k as u64)?;
        entries.reserve(run.len() as usize);
        r.read_sorted_values(run, |key| entries.push((key, 0)))?;
        for e in entries.iter_mut() {
            e.1 = r.read_bits(self.value_width)?;
        }
        Ok(())
    }

    /// Estimates the `phi`-quantile (`0 < phi ≤ 1`) of the sampled
    /// population from the retained values; `None` when empty.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        let mut vals = self.sample();
        vals.sort_unstable();
        let phi = phi.clamp(0.0, 1.0);
        let idx = ((phi * vals.len() as f64).ceil() as usize).clamp(1, vals.len()) - 1;
        Some(vals[idx])
    }

    /// Estimates the population median from the sample.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }
}

impl DistinctSketch for BottomK {
    fn insert_hash(&mut self, hash: u64) {
        let mask = if self.value_width == 64 {
            u64::MAX
        } else {
            (1u64 << self.value_width) - 1
        };
        self.insert(hash, hash & mask);
    }

    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "cannot merge BottomK of different k");
        assert_eq!(
            self.value_width, other.value_width,
            "cannot merge BottomK of different value width"
        );
        for &(key, value) in &other.entries {
            match self.entries.binary_search_by_key(&key, |e| e.0) {
                Ok(_) => {}
                Err(pos) => {
                    if pos < self.k {
                        self.make_room();
                        self.entries.insert(pos, (key, value));
                    }
                }
            }
        }
    }

    /// The KMV distinct-count estimator: `(k − 1) / U_(k)` where `U_(k)`
    /// is the k-th smallest key normalized to `(0, 1)`; falls back to the
    /// exact retained count when fewer than `k` keys were seen.
    fn estimate(&self) -> f64 {
        if self.entries.len() < self.k {
            return self.entries.len() as f64;
        }
        let kth = self.entries[self.k - 1].0;
        let u = (kth as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / u
    }

    fn wire_bits(&self) -> u64 {
        // Entry count header (up to k), then (key, value) pairs. Keys are
        // truncated to 32 bits on the wire: collision probability over
        // realistic network sizes is negligible and it halves the cost.
        let header = saq_netsim::wire::width_for_max(self.k as u64) as u64;
        header + self.entries.len() as u64 * (32 + self.value_width as u64)
    }
}

impl WireEncode for BottomK {
    /// Layout: varint `k`, 6-bit `value_width − 1`, then the key column
    /// as a delta-packed sorted run (the entries are key-sorted with
    /// unique keys) followed by the values in key order at the fixed
    /// configured width ([`BottomK::write_pairs`]). Uniform hash keys
    /// are incompressible, so the key run's fixed-width fallback arm
    /// usually carries them — the point of the packed form is that the
    /// *headers* shrink and clustered key sets (e.g. tests) pack tight.
    fn encode(&self, w: &mut BitWriter) {
        w.write_varint(self.k as u64);
        w.write_bits(self.value_width as u64 - 1, 6);
        self.write_pairs(w);
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, NetsimError> {
        let k = r.read_varint()? as usize;
        let value_width = r.read_bits(6)? as u32 + 1;
        if k == 0 {
            return Err(NetsimError::WireDecode("bottomk header invalid"));
        }
        let mut s = BottomK::new(k, value_width);
        // Duplicate keys collapse under insert; a frame carrying them
        // would not round-trip, so reject it outright.
        if !s.read_pairs(r)? {
            return Err(NetsimError::WireDecode("bottomk keys not strictly sorted"));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HashFamily;
    use proptest::prelude::*;

    #[test]
    fn keeps_smallest_keys() {
        let mut s = BottomK::new(3, 16);
        s.insert(50, 5);
        s.insert(10, 1);
        s.insert(30, 3);
        s.insert(20, 2);
        s.insert(40, 4);
        assert_eq!(s.sample(), vec![1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn duplicate_keys_idempotent() {
        let mut s = BottomK::new(4, 8);
        for _ in 0..10 {
            s.insert(7, 1);
        }
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_equals_union() {
        let h = HashFamily::new(5);
        let mut whole = BottomK::new(16, 32);
        let mut a = BottomK::new(16, 32);
        let mut b = BottomK::new(16, 32);
        for item in 0..500u64 {
            let key = h.hash(item);
            whole.insert(key, item);
            if item % 2 == 0 {
                a.insert(key, item);
            } else {
                b.insert(key, item);
            }
        }
        a.merge_from(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn distinct_estimate_reasonable() {
        let h = HashFamily::new(9);
        let mut s = BottomK::new(256, 8);
        let n = 50_000u64;
        for item in 0..n {
            s.insert(h.hash(item), 0);
        }
        let rel = (s.estimate() - n as f64).abs() / n as f64;
        // sigma ~ 1/sqrt(k) ~ 6%
        assert!(rel < 0.25, "rel err {rel}");
    }

    #[test]
    fn partial_fill_estimates_exactly() {
        let h = HashFamily::new(9);
        let mut s = BottomK::new(64, 8);
        for item in 0..10u64 {
            s.insert(h.hash(item), 0);
        }
        assert_eq!(s.estimate(), 10.0);
    }

    #[test]
    fn sample_median_near_population_median() {
        let h = HashFamily::new(17);
        let n = 20_000u64;
        let mut s = BottomK::new(512, 20);
        // Population: values 0..n (uniform), keys = hashed item ids.
        for item in 0..n {
            s.insert(h.hash(item), item);
        }
        let med = s.median().unwrap() as f64;
        let expected = n as f64 / 2.0;
        // Rank error ~ n/sqrt(k) ~ 884; allow 4x.
        assert!(
            (med - expected).abs() < 4.0 * n as f64 / (512f64).sqrt(),
            "sample median {med} vs {expected}"
        );
    }

    #[test]
    fn quantile_extremes() {
        let mut s = BottomK::new(8, 8);
        for (i, v) in [(1u64, 10u64), (2, 20), (3, 30)] {
            s.insert(i, v);
        }
        assert_eq!(s.quantile(0.0), Some(10));
        assert_eq!(s.quantile(1.0), Some(30));
        assert_eq!(BottomK::new(4, 8).median(), None);
    }

    #[test]
    fn set_value_updates_in_place_without_membership_change() {
        let mut s = BottomK::new(3, 16);
        s.insert(10, 1);
        s.insert(20, 2);
        s.insert(30, 3);
        s.insert(40, 4); // not retained
        assert!(s.contains_key(20));
        assert!(!s.contains_key(40));
        assert_eq!(s.max_key(), Some(30));
        assert!(s.set_value(20, 99));
        assert_eq!(s.sample(), vec![1, 99, 3]);
        // An unretained key is untouched and reported as such.
        assert!(!s.set_value(40, 7));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn wire_roundtrip() {
        let h = HashFamily::new(2);
        let mut s = BottomK::new(10, 24);
        for item in 0..100u64 {
            s.insert(h.hash(item), item * 3);
        }
        let mut w = BitWriter::new();
        s.encode(&mut w);
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert_eq!(BottomK::decode(&mut r).unwrap(), s);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn oversized_value_panics() {
        let mut s = BottomK::new(4, 4);
        s.insert(1, 16);
    }

    proptest! {
        #[test]
        fn prop_odi_any_partition(items in proptest::collection::vec(0u64..1000, 0..300), split in 0usize..3) {
            let h = HashFamily::new(33);
            let mut whole = BottomK::new(8, 10);
            let mut parts = vec![BottomK::new(8, 10), BottomK::new(8, 10), BottomK::new(8, 10)];
            for (i, &item) in items.iter().enumerate() {
                let key = h.hash(item);
                whole.insert(key, item);
                parts[(i + split) % 3].insert(key, item);
            }
            let mut merged = parts.remove(0);
            for p in &parts {
                merged.merge_from(p);
            }
            prop_assert_eq!(merged, whole);
        }

        #[test]
        fn prop_len_bounded_by_k(keys in proptest::collection::vec(any::<u64>(), 0..200), k in 1usize..20) {
            let mut s = BottomK::new(k, 64);
            for &key in &keys {
                s.insert(key, key);
            }
            prop_assert!(s.len() <= k);
            // And entries are the k smallest distinct keys:
            let mut distinct: Vec<u64> = keys.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let expect: Vec<u64> = distinct.into_iter().take(k).collect();
            let got: Vec<u64> = s.sample();
            prop_assert_eq!(got, expect);
        }
    }
}
