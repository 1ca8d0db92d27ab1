//! Mergeable ε-approximate quantile summaries.
//!
//! This is the workspace's stand-in for the Greenwald–Khanna PODS 2004
//! construction the paper cites as concurrent work:
//!
//! > *"their algorithm requires O((log N)^4) communication bits per node
//! > ... \[but\] can compute deterministically, after one pass over the
//! > data and O((log N)^3) communication bits, any approximate order
//! > statistic."*
//!
//! We implement the cleaner mergeable formulation (à la Agarwal et al.'s
//! *Mergeable Summaries*): a summary is a sorted list of values with
//! per-value rank intervals `[rmin, rmax]`. Exact summaries have
//! zero-width intervals; `merge` adds interval widths; `prune(k)` keeps
//! `k + 1` entries at the cost of `count/(2k)` extra rank error. A
//! bottom-up tree aggregation of prune-after-merge summaries answers *all*
//! quantiles in one convergecast — more bits per node than the paper's
//! binary search, which is exactly the trade-off experiment E7 measures.
//!
//! The error bookkeeping is *certified*: [`QuantileSummary::max_rank_error`]
//! is computed from the stored intervals, and property tests check that
//! every query's true rank deviation is within it.
//!
//! Merge and prune are linear. [`QuantileSummary::merge_from`] is one
//! two-pointer pass, run backwards inside the receiver's own storage,
//! and [`QuantileSummary::merged`] runs it on a copy of one side.
//! [`QuantileSummary::prune`] is one forward sweep: its target ranks
//! rise, so the entry nearest each one only moves forward, and the kept
//! entries are compacted in place. Both stay equal, entry for entry, to
//! the sort-based merge and the binary-search prune they replaced,
//! which the tests keep as an oracle. The wire form is three
//! delta-packed columns (values, `rmin`s, `rmax`s), written straight
//! from the entries and read straight back into them
//! ([`QuantileSummary::write_columns`], [`QuantileSummary::read_columns`]).

use saq_netsim::wire::{sorted_run_len, BitReader, BitWriter, WireEncode};
use saq_netsim::NetsimError;

/// One summary entry: a stored value and bounds on its rank within the
/// summarized multiset (1-based, inclusive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QEntry {
    /// The stored value.
    pub value: u64,
    /// Smallest possible rank of this stored occurrence.
    pub rmin: u64,
    /// Largest possible rank of this stored occurrence.
    pub rmax: u64,
}

/// A mergeable quantile summary over `u64` values.
///
/// # Examples
///
/// ```
/// use saq_sketches::QuantileSummary;
///
/// let a = QuantileSummary::from_sorted(&[1, 3, 5]);
/// let b = QuantileSummary::from_sorted(&[2, 4, 6]);
/// let merged = QuantileSummary::merged(&a, &b);
/// assert_eq!(merged.count(), 6);
/// assert_eq!(merged.query_rank(3), Some(3)); // exact: no pruning yet
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuantileSummary {
    entries: Vec<QEntry>,
    count: u64,
}

impl QuantileSummary {
    /// The empty summary (zero items).
    pub fn new() -> Self {
        Self::default()
    }

    /// An exact summary of one item.
    pub fn from_single(value: u64) -> Self {
        QuantileSummary {
            entries: vec![QEntry {
                value,
                rmin: 1,
                rmax: 1,
            }],
            count: 1,
        }
    }

    /// An exact summary of a **sorted** slice.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slice is not sorted ascending.
    pub fn from_sorted(values: &[u64]) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
        QuantileSummary {
            entries: values
                .iter()
                .enumerate()
                .map(|(i, &value)| QEntry {
                    value,
                    rmin: i as u64 + 1,
                    rmax: i as u64 + 1,
                })
                .collect(),
            count: values.len() as u64,
        }
    }

    /// Reassembles a summary from raw parts (used by wire decoders in
    /// higher layers).
    ///
    /// # Errors
    ///
    /// Returns a static message if the entries are not sorted by value or
    /// any rank interval is inconsistent with `count`.
    pub fn from_parts(entries: Vec<QEntry>, count: u64) -> Result<Self, &'static str> {
        check_parts(&entries, count)?;
        Ok(QuantileSummary { entries, count })
    }

    /// Number of items represented (with multiplicity).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the summary represents zero items.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The stored entries, sorted by value.
    pub fn entries(&self) -> &[QEntry] {
        &self.entries
    }

    /// Releases the spare capacity merges left behind (a merge grows the
    /// entries to the merged length before pruning them back).
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// Makes room for at least `additional` more entries, and no more,
    /// so a caller that knows how far its merges will grow the summary
    /// can size it once ([`QuantileSummary::merge_from`] then grows it
    /// only past that).
    pub fn reserve_exact(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Merges two summaries over disjoint item populations.
    ///
    /// Rank intervals combine by the standard rule: an entry `x` from one
    /// summary gains the `rmin` of its predecessor and the `rmax − 1` of
    /// its successor in the other summary. Interval widths add, so merging
    /// exact summaries stays exact.
    pub fn merged(a: &QuantileSummary, b: &QuantileSummary) -> QuantileSummary {
        let mut m = QuantileSummary {
            entries: Vec::with_capacity(a.len() + b.len()),
            count: a.count,
        };
        m.entries.extend_from_slice(&a.entries);
        m.merge_from(b);
        m
    }

    /// Merges `other` into `self` in place: afterwards `self` equals
    /// [`QuantileSummary::merged`]`(self, other)`.
    ///
    /// One two-pointer pass, run backwards through `self`'s own storage
    /// grown to exactly the merged length, so no second buffer is
    /// needed: each write lands at or above the next entry of `self`
    /// still to be read. In merged order ties go to `self` first, so
    /// equal values from `other` count `self`'s as predecessors and not
    /// the reverse (otherwise equal values in both summaries would count
    /// each other and inflate both bounds). Each side's predecessor and
    /// successor in the other are the other cursor's neighbours; with
    /// rank bounds non-decreasing this is the order a stable sort by
    /// `(value, rmin)` of the transformed entries gives.
    pub fn merge_from(&mut self, other: &QuantileSummary) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.entries.clone_from(&other.entries);
            self.count = other.count;
            return;
        }
        let (ys, a_count) = (&other.entries[..], self.count);
        let (mut i, mut j) = (self.entries.len(), ys.len());
        let xs = &mut self.entries;
        // Exactly the merged length, as `merged` allocates it. Growing
        // by doubling leaves up to twice that allocated, and raised
        // stackbench's `provenance_lossy_1e4` peak RSS by a fifth.
        xs.reserve_exact(j);
        xs.resize(i + j, QEntry::default());
        // An entry gains the `rmin` of its predecessor in the other
        // summary (0 without one) and the `rmax − 1` of its successor
        // there (the other's whole count without one).
        let rmin_before = |es: &[QEntry], n: usize| n.checked_sub(1).map_or(0, |p| es[p].rmin);
        // The original `rmax` of the entry of `self` placed last: the
        // successor of the entries of `other` placed after it.
        let mut succ_rmax = None;
        for w in (0..i + j).rev() {
            // Backwards, a tie places `other`'s entry first.
            if j > 0 && (i == 0 || ys[j - 1].value >= xs[i - 1].value) {
                let e = ys[j - 1];
                xs[w] = QEntry {
                    value: e.value,
                    rmin: e.rmin + rmin_before(xs, i),
                    rmax: e.rmax + succ_rmax.map_or(a_count, |r: u64| r - 1),
                };
                j -= 1;
            } else {
                let e = xs[i - 1];
                xs[w] = QEntry {
                    value: e.value,
                    rmin: e.rmin + rmin_before(ys, j),
                    rmax: e.rmax + ys.get(j).map_or(other.count, |s| s.rmax - 1),
                };
                succ_rmax = Some(e.rmax);
                i -= 1;
            }
        }
        self.count += other.count;
    }

    /// Prunes the summary to at most `k + 1` entries, keeping the extreme
    /// entries and entries nearest to the `k − 1` interior equi-spaced
    /// ranks. Adds at most `⌈count / (2k)⌉` to the worst-case rank error.
    ///
    /// One forward sweep, `O(len + k)`: the target ranks rise with `i`,
    /// so the crossover cursor of the nearest-entry search only moves
    /// forward and the chosen indices never decrease. Kept entries are
    /// compacted in place, each written one choice late — once the
    /// cursor can no longer read the slot it lands in.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn prune(&mut self, k: usize) {
        assert!(k > 0, "prune target must be positive");
        let len = self.entries.len();
        if len <= k + 1 {
            return;
        }
        let entries = &mut self.entries;
        // Slot 0 keeps the minimum; `last` is the latest choice, not yet
        // written unless it is 0.
        let (mut kept, mut last, mut cursor) = (1usize, 0usize, 0usize);
        for i in 1..k {
            let r = (i as u64 * self.count).div_ceil(k as u64);
            while cursor < len && below(&entries[cursor], r) {
                cursor += 1;
            }
            let idx = nearest_at(entries, cursor, r);
            debug_assert!(idx >= last, "prune choices must not decrease");
            if idx != last {
                if last != 0 {
                    entries[kept] = entries[last];
                    kept += 1;
                }
                last = idx;
            }
        }
        if last != 0 {
            entries[kept] = entries[last];
            kept += 1;
        }
        if last != len - 1 {
            entries[kept] = entries[len - 1]; // the maximum
            kept += 1;
        }
        entries.truncate(kept);
    }

    /// Index of the entry whose rank interval is closest to `r`.
    ///
    /// `O(log len)`: along the entries (sorted by value, rank bounds
    /// non-decreasing — see [`QuantileSummary::from_parts`]) the falling
    /// term `r − rmin` is non-increasing and the rising term `rmax − r`
    /// non-decreasing, so their max is unimodal and minimized where the
    /// rising term overtakes.
    fn nearest_entry(&self, r: u64) -> usize {
        debug_assert!(!self.entries.is_empty());
        let cursor = self.entries.partition_point(|e| below(e, r));
        nearest_at(&self.entries, cursor, r)
    }

    /// Returns a stored value whose true rank is near `r` (clamped to
    /// `[1, count]`), or `None` on an empty summary. The deviation is at
    /// most [`QuantileSummary::max_rank_error`].
    pub fn query_rank(&self, r: u64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let r = r.clamp(1, self.count);
        Some(self.entries[self.nearest_entry(r)].value)
    }

    /// Returns the `phi`-quantile for `phi ∈ (0, 1]` (`0.5` = median).
    pub fn query_quantile(&self, phi: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let r = ((phi.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        self.query_rank(r)
    }

    /// Certified worst-case rank error of any [`QuantileSummary::query_rank`]
    /// answer, computed from the stored intervals: for every query rank
    /// the chosen entry's interval deviates from the query by at most this
    /// many ranks.
    pub fn max_rank_error(&self) -> u64 {
        if self.entries.is_empty() {
            return 0;
        }
        let mut worst = 0u64;
        // Error within / around a single entry chosen for nearby ranks,
        // and for ranks falling between consecutive entries.
        for r in [1u64, self.count] {
            let e = &self.entries[self.nearest_entry(r)];
            worst = worst.max((r.saturating_sub(e.rmin)).max(e.rmax.saturating_sub(r)));
        }
        for w in self.entries.windows(2) {
            // Worst query rank between entries w[0] and w[1]: the midpoint
            // of [w[0].rmin, w[1].rmax].
            let lo = w[0].rmin;
            let hi = w[1].rmax;
            if hi > lo {
                let mid = lo + (hi - lo) / 2;
                let a = &w[0];
                let b = &w[1];
                let score_a = (mid.saturating_sub(a.rmin)).max(a.rmax.saturating_sub(mid));
                let score_b = (mid.saturating_sub(b.rmin)).max(b.rmax.saturating_sub(mid));
                worst = worst.max(score_a.min(score_b));
            }
        }
        // Also single-entry interval widths (query lands inside interval).
        for e in &self.entries {
            worst = worst.max((e.rmax - e.rmin).div_ceil(2));
        }
        worst
    }

    /// Merges an exact summary of `values` (sorted ascending) into
    /// `self` in place — the quantile **delta merge** continuous
    /// aggregates use to re-contribute newly arrived items into a cached
    /// subtree summary without rebuilding it bottom-up. Rank-interval
    /// soundness is preserved (this is an ordinary summary merge), so
    /// [`QuantileSummary::max_rank_error`] stays a valid certificate;
    /// callers prune afterwards to restore their wire budget.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `values` is not sorted ascending.
    pub fn absorb_sorted(&mut self, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        *self = QuantileSummary::merged(self, &QuantileSummary::from_sorted(values));
    }

    /// Writes the three entry columns — values, `rmin`s, `rmax`s — as
    /// delta-packed sorted runs, straight from the entries. Every column
    /// is non-decreasing by the summary invariant, so each gamma-codes
    /// its gaps instead of spending a fixed width per entry. The item
    /// count is the caller's header; [`QuantileSummary::read_columns`]
    /// reads the columns back.
    pub fn write_columns(&self, w: &mut BitWriter) {
        w.write_sorted_run(self.entries.iter().map(|e| e.value));
        w.write_sorted_run(self.entries.iter().map(|e| e.rmin));
        w.write_sorted_run(self.entries.iter().map(|e| e.rmax));
    }

    /// Exactly how many bits [`QuantileSummary::write_columns`] writes,
    /// priced column by column without writing a bit.
    pub fn columns_len(&self) -> u64 {
        sorted_run_len(self.entries.iter().map(|e| e.value))
            + sorted_run_len(self.entries.iter().map(|e| e.rmin))
            + sorted_run_len(self.entries.iter().map(|e| e.rmax))
    }

    /// Replaces `self` with the summary of `count` items whose columns
    /// [`QuantileSummary::write_columns`] wrote, decoding straight into
    /// `self`'s storage (so a reused decode target allocates nothing).
    /// The value column may hold at most `max_len` entries; the other
    /// two must match it. The result passes
    /// [`QuantileSummary::from_parts`]'s checks. On error `self` is left
    /// empty.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on a truncated or malformed
    /// column, columns of different lengths, or entries `from_parts`
    /// rejects.
    pub fn read_columns(
        &mut self,
        r: &mut BitReader<'_>,
        count: u64,
        max_len: u64,
    ) -> Result<(), NetsimError> {
        let decoded = self.read_columns_unchecked(r, max_len).and_then(|()| {
            check_parts(&self.entries, count)
                .map_err(|_| NetsimError::WireDecode("quantile summary inconsistent"))
        });
        match decoded {
            Ok(()) => self.count = count,
            Err(_) => {
                self.entries.clear();
                self.count = 0;
            }
        }
        decoded
    }

    fn read_columns_unchecked(
        &mut self,
        r: &mut BitReader<'_>,
        max_len: u64,
    ) -> Result<(), NetsimError> {
        let entries = &mut self.entries;
        entries.clear();
        let run = r.read_sorted_header(max_len)?;
        entries.reserve(run.len() as usize);
        r.read_sorted_values(run, |value| {
            entries.push(QEntry {
                value,
                rmin: 0,
                rmax: 0,
            })
        })?;
        read_rank_column(r, entries, |e, v| e.rmin = v)?;
        read_rank_column(r, entries, |e, v| e.rmax = v)
    }
}

/// Reads one rank column, which must be as long as `entries`, into
/// each entry's field through `set`.
fn read_rank_column(
    r: &mut BitReader<'_>,
    entries: &mut [QEntry],
    set: fn(&mut QEntry, u64),
) -> Result<(), NetsimError> {
    let run = r.read_sorted_header(entries.len() as u64)?;
    if run.len() != entries.len() as u64 {
        return Err(NetsimError::WireDecode("quantile column lengths differ"));
    }
    let mut slots = entries.iter_mut();
    r.read_sorted_values(run, |v| set(slots.next().expect("run length checked"), v))
}

/// Whether `e` lies before the crossover for query rank `r`: its
/// rising term `rmax − r` is still below its falling term `r − rmin`.
/// True on a prefix of any summary's entries (their rank bounds are
/// non-decreasing), and a prefix that only grows as `r` rises.
fn below(e: &QEntry, r: u64) -> bool {
    e.rmax.saturating_sub(r) < r.saturating_sub(e.rmin)
}

/// The entry nearest rank `r`, given the crossover `cursor` (the
/// number of entries [`below`] `r`): the minimum of the unimodal score
/// is at the crossover or immediately before it.
fn nearest_at(entries: &[QEntry], cursor: usize, r: u64) -> usize {
    let score = |e: &QEntry| (r.saturating_sub(e.rmin)).max(e.rmax.saturating_sub(r));
    let i = cursor.min(entries.len() - 1);
    if i > 0 && score(&entries[i - 1]) <= score(&entries[i]) {
        i - 1
    } else {
        i
    }
}

/// [`QuantileSummary::from_parts`]' checks, in one pass: entries sorted
/// by value, rank bounds non-decreasing (an invariant of every summary
/// this module builds and the precondition of the crossover search in
/// [`QuantileSummary::nearest_entry`] and `prune`), and every interval
/// inside `[1, count]`.
fn check_parts(entries: &[QEntry], count: u64) -> Result<(), &'static str> {
    let (mut sorted, mut monotone, mut inside) = (true, true, true);
    for (i, e) in entries.iter().enumerate() {
        if let Some(p) = i.checked_sub(1).map(|p| &entries[p]) {
            sorted &= p.value <= e.value;
            monotone &= p.rmin <= e.rmin && p.rmax <= e.rmax;
        }
        inside &= e.rmin != 0 && e.rmin <= e.rmax && e.rmax <= count;
    }
    if !sorted {
        Err("entries not sorted by value")
    } else if !monotone {
        Err("entry rank bounds not monotone")
    } else if !inside {
        Err("entry rank interval inconsistent with count")
    } else {
        Ok(())
    }
}

/// Hard cap on decoded entry counts — far above any summary a pruned
/// tree aggregation produces, but low enough that a malformed length
/// header cannot drive a huge allocation.
const MAX_WIRE_ENTRIES: u64 = 1 << 20;

impl WireEncode for QuantileSummary {
    /// Column layout: a varint item count, then the three delta-packed
    /// columns of [`QuantileSummary::write_columns`].
    fn encode(&self, w: &mut BitWriter) {
        w.write_varint(self.count);
        self.write_columns(w);
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, NetsimError> {
        let count = r.read_varint()?;
        let mut s = QuantileSummary::new();
        s.read_columns(r, count, MAX_WIRE_ENTRIES)?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// True rank interval of `v` in `sorted`: the ranks its occurrences
    /// could occupy, i.e. `[l+1, l+mult]` where `l` = #items < v.
    fn true_rank_bounds(sorted: &[u64], v: u64) -> (u64, u64) {
        let l = sorted.partition_point(|&x| x < v) as u64;
        let le = sorted.partition_point(|&x| x <= v) as u64;
        (l + 1, le.max(l + 1))
    }

    #[test]
    fn exact_summary_answers_exactly() {
        let vals = [10u64, 20, 30, 40, 50];
        let s = QuantileSummary::from_sorted(&vals);
        assert_eq!(s.max_rank_error(), 0);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(s.query_rank(i as u64 + 1), Some(v));
        }
        assert_eq!(s.query_quantile(0.5), Some(30));
    }

    #[test]
    fn empty_summary() {
        let s = QuantileSummary::new();
        assert!(s.is_empty());
        assert_eq!(s.query_rank(1), None);
        assert_eq!(s.query_quantile(0.5), None);
        assert_eq!(s.max_rank_error(), 0);
        let merged = QuantileSummary::merged(&s, &QuantileSummary::from_single(9));
        assert_eq!(merged.count(), 1);
        assert_eq!(merged.query_rank(1), Some(9));
    }

    #[test]
    fn merge_of_exact_is_exact() {
        let a = QuantileSummary::from_sorted(&[1, 3, 5, 7]);
        let b = QuantileSummary::from_sorted(&[2, 4, 6, 8]);
        let m = QuantileSummary::merged(&a, &b);
        assert_eq!(m.count(), 8);
        assert_eq!(m.max_rank_error(), 0);
        for r in 1..=8u64 {
            assert_eq!(m.query_rank(r), Some(r));
        }
    }

    #[test]
    fn merge_with_duplicates() {
        let a = QuantileSummary::from_sorted(&[5, 5, 5]);
        let b = QuantileSummary::from_sorted(&[5, 5]);
        let m = QuantileSummary::merged(&a, &b);
        assert_eq!(m.count(), 5);
        assert_eq!(m.query_rank(3), Some(5));
    }

    #[test]
    fn prune_bounds_error() {
        let vals: Vec<u64> = (0..1000).collect();
        let mut s = QuantileSummary::from_sorted(&vals);
        s.prune(20);
        assert!(s.len() <= 21);
        // Analytic bound: count/(2k) = 25.
        assert!(
            s.max_rank_error() <= 25 + 1,
            "error {} exceeds bound",
            s.max_rank_error()
        );
        // Median query lands within the bound.
        let med = s.query_rank(500).unwrap();
        let (lo, hi) = true_rank_bounds(&vals, med);
        assert!(lo <= 500 + 26 && hi + 26 >= 500);
    }

    #[test]
    fn tree_merge_error_accumulates_linearly_in_height() {
        // 64 leaves of 16 items each, binary tree merge with prune(32).
        let k = 32usize;
        let mut layer: Vec<QuantileSummary> = (0..64)
            .map(|leaf| {
                let vals: Vec<u64> = (0..16).map(|i| (leaf * 16 + i) as u64).collect();
                QuantileSummary::from_sorted(&vals)
            })
            .collect();
        let mut height = 0;
        while layer.len() > 1 {
            height += 1;
            layer = layer
                .chunks(2)
                .map(|pair| {
                    let mut m = if pair.len() == 2 {
                        QuantileSummary::merged(&pair[0], &pair[1])
                    } else {
                        pair[0].clone()
                    };
                    m.prune(k);
                    m
                })
                .collect();
        }
        let root = &layer[0];
        assert_eq!(root.count(), 1024);
        // Each prune at subtree size n_s adds n_s/(2k); along the tree this
        // telescopes to ~ height * count/(2k) at the root.
        let bound = (height * 1024) as u64 / (2 * k as u64) + height as u64;
        assert!(
            root.max_rank_error() <= bound,
            "certified error {} vs analytic bound {bound}",
            root.max_rank_error()
        );
        // And the certified bound really holds for the median:
        let med = root.query_rank(512).unwrap();
        let all: Vec<u64> = (0..1024).collect();
        let (lo, hi) = true_rank_bounds(&all, med);
        let err = root.max_rank_error();
        assert!(lo <= 512 + err && hi + err >= 512);
    }

    #[test]
    fn nearest_entry_is_argmin_and_bounds_stay_monotone() {
        // Merge-then-prune chains with duplicates: the shape every tree
        // aggregation produces. Rank bounds must stay monotone (the
        // binary-searched `nearest_entry`'s precondition) and the chosen
        // entry must score no worse than a full linear scan's argmin.
        let mut acc = QuantileSummary::new();
        for chunk in 0u64..6 {
            let mut vals: Vec<u64> = (0..50).map(|i| (i * 7 + chunk * 13) % 90).collect();
            vals.sort_unstable();
            acc = QuantileSummary::merged(&acc, &QuantileSummary::from_sorted(&vals));
            acc.prune(12);
            assert!(
                acc.entries()
                    .windows(2)
                    .all(|w| w[0].rmin <= w[1].rmin && w[0].rmax <= w[1].rmax),
                "rank bounds lost monotonicity after merge {chunk}"
            );
        }
        for r in 1..=acc.count() {
            let score = |e: &QEntry| (r.saturating_sub(e.rmin)).max(e.rmax.saturating_sub(r));
            let best = acc.entries().iter().map(score).min().unwrap();
            assert_eq!(
                score(&acc.entries()[acc.nearest_entry(r)]),
                best,
                "rank {r}: binary search missed the best entry"
            );
        }
    }

    #[test]
    fn from_parts_rejects_non_monotone_bounds() {
        let entries = vec![
            QEntry {
                value: 1,
                rmin: 3,
                rmax: 4,
            },
            QEntry {
                value: 2,
                rmin: 1,
                rmax: 5,
            },
        ];
        assert!(QuantileSummary::from_parts(entries, 5).is_err());
    }

    #[test]
    fn absorb_sorted_is_a_sound_delta_merge() {
        let mut base: Vec<u64> = (0..300).map(|i| (i * 7) % 500).collect();
        base.sort_unstable();
        let mut s = QuantileSummary::from_sorted(&base);
        s.prune(12);
        let added: Vec<u64> = (0..80).map(|i| (i * 13) % 500).collect();
        let mut sorted_added = added.clone();
        sorted_added.sort_unstable();
        s.absorb_sorted(&sorted_added);
        s.prune(12);
        assert_eq!(s.count(), 380);
        // The certificate survives the delta: every query stays within it.
        let mut all = [base, sorted_added].concat();
        all.sort_unstable();
        let err = s.max_rank_error();
        for q in [1u64, 190, 380] {
            let got = s.query_rank(q).unwrap();
            let lo = all.partition_point(|&x| x < got) as u64 + 1;
            let hi = (all.partition_point(|&x| x <= got) as u64).max(lo);
            assert!(
                lo <= q + err && hi + err >= q,
                "rank {q} -> {got} outside certified ±{err}"
            );
        }
        // Absorbing nothing is a no-op.
        let before = s.clone();
        s.absorb_sorted(&[]);
        assert_eq!(s, before);
    }

    #[test]
    fn wire_roundtrip() {
        let mut s = QuantileSummary::from_sorted(&(0..100).collect::<Vec<_>>());
        s.prune(10);
        let mut w = BitWriter::new();
        s.encode(&mut w);
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert_eq!(QuantileSummary::decode(&mut r).unwrap(), s);
    }

    #[test]
    fn decode_rejects_zero_rank_frame() {
        // rmin = rmax = 0 passes the interval-order checks but is no
        // rank; a later merge would compute `rmax − 1` on it.
        let mut w = BitWriter::new();
        w.write_varint(1);
        for col in [[5u64], [0], [0]] {
            w.write_sorted_deltas(&col);
        }
        let bits = w.finish();
        assert!(QuantileSummary::decode(&mut BitReader::new(&bits)).is_err());
    }

    #[test]
    fn read_columns_reuses_its_target_and_empties_it_on_error() {
        let mut s = QuantileSummary::from_sorted(&(0..40).collect::<Vec<_>>());
        s.prune(6);
        let mut w = BitWriter::new();
        s.write_columns(&mut w);
        let bits = w.finish();
        let mut target = QuantileSummary::from_sorted(&[1, 2, 3]);
        target
            .read_columns(&mut BitReader::new(&bits), s.count(), 64)
            .unwrap();
        assert_eq!(target, s);
        // The value column holds more entries than `max_len` allows.
        assert!(target
            .read_columns(&mut BitReader::new(&bits), s.count(), 2)
            .is_err());
        assert_eq!(target, QuantileSummary::new());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn prune_zero_panics() {
        let mut s = QuantileSummary::from_single(1);
        s.prune(0);
    }

    proptest! {
        #[test]
        fn prop_query_error_within_certificate(
            mut vals in proptest::collection::vec(0u64..10_000, 1..400),
            k in 4usize..40,
            splits in proptest::collection::vec(0usize..4, 0..4),
        ) {
            vals.sort_unstable();
            // Partition into up to 4 parts, summarize, merge, prune.
            let parts: Vec<Vec<u64>> = {
                let mut parts = vec![Vec::new(); 4];
                for (i, &v) in vals.iter().enumerate() {
                    parts[(i + splits.len()) % 4].push(v);
                }
                parts
            };
            let mut acc = QuantileSummary::new();
            for p in parts {
                let mut sorted = p.clone();
                sorted.sort_unstable();
                let s = QuantileSummary::from_sorted(&sorted);
                acc = QuantileSummary::merged(&acc, &s);
                acc.prune(k);
            }
            prop_assert_eq!(acc.count(), vals.len() as u64);
            let err = acc.max_rank_error();
            for q in [1u64, (vals.len() as u64 / 2).max(1), vals.len() as u64] {
                let got = acc.query_rank(q).unwrap();
                let (lo, hi) = true_rank_bounds(&vals, got);
                prop_assert!(
                    lo <= q + err && hi + err >= q,
                    "rank {} answered {} with true bounds [{},{}], certified err {}",
                    q, got, lo, hi, err
                );
            }
        }

        #[test]
        fn prop_merge_counts_add(a in proptest::collection::vec(0u64..100, 0..50),
                                 b in proptest::collection::vec(0u64..100, 0..50)) {
            let mut sa = a.clone(); sa.sort_unstable();
            let mut sb = b.clone(); sb.sort_unstable();
            let m = QuantileSummary::merged(
                &QuantileSummary::from_sorted(&sa),
                &QuantileSummary::from_sorted(&sb),
            );
            prop_assert_eq!(m.count(), (a.len() + b.len()) as u64);
            prop_assert_eq!(m.len(), a.len() + b.len());
        }

        #[test]
        fn prop_exact_merge_has_zero_error(a in proptest::collection::vec(0u64..50, 1..60),
                                           b in proptest::collection::vec(0u64..50, 1..60)) {
            let mut sa = a; sa.sort_unstable();
            let mut sb = b; sb.sort_unstable();
            let m = QuantileSummary::merged(
                &QuantileSummary::from_sorted(&sa),
                &QuantileSummary::from_sorted(&sb),
            );
            let mut all = [sa, sb].concat();
            all.sort_unstable();
            prop_assert_eq!(m.max_rank_error(), 0);
            for r in 1..=all.len() as u64 {
                let got = m.query_rank(r).unwrap();
                let (lo, hi) = true_rank_bounds(&all, got);
                prop_assert!(lo <= r && r <= hi, "rank {} -> {} bounds [{},{}]", r, got, lo, hi);
            }
        }
    }

    /// The sort-based merge and binary-search prune the linear passes
    /// replaced, kept as their oracle.
    mod reference {
        use super::*;

        pub fn merged(a: &QuantileSummary, b: &QuantileSummary) -> QuantileSummary {
            if a.is_empty() {
                return b.clone();
            }
            if b.is_empty() {
                return a.clone();
            }
            let mut out = Vec::with_capacity(a.len() + b.len());
            let mut push_transformed =
                |own: &QuantileSummary, other: &QuantileSummary, other_wins_ties: bool| {
                    for e in &own.entries {
                        let pos = if other_wins_ties {
                            other.entries.partition_point(|o| o.value < e.value)
                        } else {
                            other.entries.partition_point(|o| o.value <= e.value)
                        };
                        let pred_rmin = if pos > 0 {
                            other.entries[pos - 1].rmin
                        } else {
                            0
                        };
                        let succ_rmax = if pos < other.entries.len() {
                            other.entries[pos].rmax - 1
                        } else {
                            other.count
                        };
                        out.push(QEntry {
                            value: e.value,
                            rmin: e.rmin + pred_rmin,
                            rmax: e.rmax + succ_rmax,
                        });
                    }
                };
            push_transformed(a, b, true);
            push_transformed(b, a, false);
            out.sort_by(|x, y| x.value.cmp(&y.value).then(x.rmin.cmp(&y.rmin)));
            QuantileSummary {
                entries: out,
                count: a.count + b.count,
            }
        }

        pub fn nearest_entry(s: &QuantileSummary, r: u64) -> usize {
            let score = |e: &QEntry| (r.saturating_sub(e.rmin)).max(e.rmax.saturating_sub(r));
            let i = s
                .entries
                .partition_point(|e| e.rmax.saturating_sub(r) < r.saturating_sub(e.rmin))
                .min(s.entries.len() - 1);
            if i > 0 && score(&s.entries[i - 1]) <= score(&s.entries[i]) {
                i - 1
            } else {
                i
            }
        }

        pub fn prune(s: &mut QuantileSummary, k: usize) {
            if s.entries.len() <= k + 1 {
                return;
            }
            let mut keep = vec![0usize];
            for i in 1..k {
                let target = (i as u64 * s.count).div_ceil(k as u64);
                keep.push(nearest_entry(s, target));
            }
            keep.push(s.entries.len() - 1);
            keep.sort_unstable();
            keep.dedup();
            s.entries = keep.into_iter().map(|i| s.entries[i]).collect();
        }
    }

    /// A summary of `raw` drawn from few distinct values (so duplicates
    /// are heavy), possibly empty, pruned to `k` when `k > 0`.
    fn leaf(raw: &[u64], spread: u64, k: usize) -> QuantileSummary {
        let mut vals: Vec<u64> = raw.iter().map(|v| v % spread).collect();
        vals.sort_unstable();
        let mut s = QuantileSummary::from_sorted(&vals);
        if k > 0 {
            s.prune(k);
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_linear_merge_and_prune_match_the_oracle(
            leaves in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..40), 1..10),
            spread in 1u64..12,
            k in 1usize..64,
            leaf_k in 0usize..20,
        ) {
            let mut acc = QuantileSummary::new();
            for raw in &leaves {
                let s = leaf(raw, spread, leaf_k);
                for (x, y) in [(&acc, &s), (&s, &acc)] {
                    let want = reference::merged(x, y);
                    prop_assert_eq!(&QuantileSummary::merged(x, y), &want);
                    let mut into = x.clone();
                    into.merge_from(y);
                    prop_assert_eq!(&into, &want);
                }
                let mut got = QuantileSummary::merged(&acc, &s);
                let mut want = got.clone();
                got.prune(k);
                reference::prune(&mut want, k);
                prop_assert_eq!(&got, &want);
                for r in 1..=got.count() {
                    prop_assert_eq!(got.nearest_entry(r), reference::nearest_entry(&got, r));
                }
                acc = got;
            }
        }

        #[test]
        fn prop_prune_matches_the_oracle_at_every_k(
            raw in proptest::collection::vec(any::<u64>(), 0..200),
            spread in 1u64..400,
            leaf_k in 0usize..30,
        ) {
            let half = raw.len() / 2;
            let merged = QuantileSummary::merged(
                &leaf(&raw[..half], spread, leaf_k),
                &leaf(&raw[half..], spread, leaf_k),
            );
            for k in 1..64 {
                let (mut got, mut want) = (merged.clone(), merged.clone());
                got.prune(k);
                reference::prune(&mut want, k);
                prop_assert_eq!(got, want);
            }
        }
    }
}
