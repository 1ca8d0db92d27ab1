//! The Durand–Flajolet LogLog counting sketch.
//!
//! This is the concrete instantiation of the paper's Fact 2.2:
//!
//! > *"For any given parameter m, there exists an α-counting protocol with
//! > communication and processing complexity O(m log log N). The protocol
//! > has α < 10⁻⁶, and its variance σ² satisfies σ ≤ β_m/√m + 10⁻⁶ + o(1)
//! > for some sequence of constants β_m → 1.298."*
//!
//! A sketch is `m = 2^b` registers; a key is routed to the register named
//! by its top `b` hash bits, and the register keeps the maximum `ρ` (rank
//! of first one-bit) of the remaining bits. The estimator is
//! `α_m · m · 2^{mean(registers)}`.
//!
//! Each register is bounded by `64 − b + 1 ≈ log₂ N + O(1)`, so its wire
//! size is `Θ(log log N)` bits — this is precisely why `APX_COUNT` beats
//! the `Ω(log N)` cost of sending even a single exact item. The E2
//! experiment calibrates the bias and standard deviation against the
//! constants quoted above.
//!
//! ## Small-range behaviour
//!
//! Raw LogLog is asymptotic in `N/m`: for small true counts the estimator
//! has large positive bias (an empty sketch estimates `α_m · m`, not 0).
//! [`LogLog::estimate_corrected`] applies linear counting below the
//! standard threshold, which matters when the paper's algorithms count
//! small sub-multisets (e.g. `APX_MEDIAN2`'s rank adjustment). The pure
//! estimator remains available as [`LogLog::estimate_raw`] for
//! calibration. Both estimators read the same registers, so the choice
//! does not affect communication cost.

use crate::geometric::rho;
use crate::DistinctSketch;
use saq_netsim::wire::{BitReader, BitWriter, WireEncode};
use saq_netsim::NetsimError;

/// Asymptotic LogLog bias-correction constant `α_∞ = 0.39701…`.
pub const ALPHA_INF: f64 = 0.397_010_26;

/// Asymptotic relative standard deviation constant `β_∞ ≈ 1.298`
/// (Fact 2.2's `β_m → 1.298`): `σ ≈ β_∞ / √m`.
pub const BETA_INF: f64 = 1.298_06;

/// The LogLog bias-correction constant `α_m` for `m = 2^b` registers,
/// using the Durand–Flajolet asymptotic expansion
/// `α_m ≈ α_∞ − (2π² + ln²2) / (48m)`.
pub fn alpha_m(m: usize) -> f64 {
    let m = m as f64;
    ALPHA_INF - (2.0 * std::f64::consts::PI.powi(2) + std::f64::consts::LN_2.powi(2)) / (48.0 * m)
}

/// Relative standard deviation of the LogLog estimator with `m`
/// registers, `σ ≈ 1.30/√m` (the paper's Fact 2.2 constant).
pub fn sigma_m(m: usize) -> f64 {
    BETA_INF / (m as f64).sqrt()
}

/// A Durand–Flajolet LogLog sketch with `2^b` registers.
///
/// # Examples
///
/// ```
/// use saq_sketches::{LogLog, HashFamily, DistinctSketch};
///
/// let h = HashFamily::new(7);
/// let mut sk = LogLog::new(6); // m = 64 registers, sigma ~ 16%
/// for key in 0..10_000u64 {
///     sk.insert_hash(h.hash(key));
/// }
/// let est = sk.estimate();
/// assert!((est - 10_000.0).abs() / 10_000.0 < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLog {
    /// log2 of the register count.
    b: u32,
    /// Register file; values in `[0, 64 - b + 1]`.
    regs: Vec<u8>,
}

impl LogLog {
    /// Creates an empty sketch with `2^b` registers.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ b ≤ 16` (2 to 65536 registers).
    pub fn new(b: u32) -> Self {
        assert!((1..=16).contains(&b), "b={b} out of supported range 1..=16");
        LogLog {
            b,
            regs: vec![0; 1 << b],
        }
    }

    /// Reconstructs a sketch from raw register values (used by wire
    /// decoders in higher layers).
    ///
    /// # Errors
    ///
    /// Returns a static message if `b` is out of range, the register count
    /// is not `2^b`, or any register exceeds the hash-window bound
    /// `64 − b + 1`.
    pub fn from_registers(b: u32, regs: Vec<u8>) -> Result<Self, &'static str> {
        if !(1..=16).contains(&b) {
            return Err("b out of supported range 1..=16");
        }
        if regs.len() != 1 << b {
            return Err("register count must be 2^b");
        }
        let bound = (64 - b + 1) as u8;
        if regs.iter().any(|&r| r > bound) {
            return Err("register exceeds hash-window bound");
        }
        Ok(LogLog { b, regs })
    }

    /// Number of registers `m`.
    pub fn m(&self) -> usize {
        self.regs.len()
    }

    /// `log2` of the register count.
    pub fn b(&self) -> u32 {
        self.b
    }

    /// Register values (mainly for diagnostics and tests).
    pub fn registers(&self) -> &[u8] {
        &self.regs
    }

    /// Number of registers still zero (used by the linear-counting
    /// correction).
    pub fn zero_registers(&self) -> usize {
        self.regs.iter().filter(|&&r| r == 0).count()
    }

    /// Width of the hash window observed by each register.
    fn window(&self) -> u32 {
        64 - self.b
    }

    /// The raw Durand–Flajolet estimator `α_m · m · 2^{mean(regs)}`.
    ///
    /// Asymptotically unbiased as `N/m → ∞`; heavily biased for small
    /// counts (an empty sketch estimates `α_m · m`).
    pub fn estimate_raw(&self) -> f64 {
        let m = self.m() as f64;
        let mean = self.regs.iter().map(|&r| r as f64).sum::<f64>() / m;
        alpha_m(self.m()) * m * mean.exp2()
    }

    /// The estimator with a linear-counting small-range correction: when
    /// the raw estimate is below `2.5·m` and empty registers remain, use
    /// `m · ln(m / V)` where `V` is the number of empty registers.
    ///
    /// This matches practical deployments (and HyperLogLog's standard
    /// correction) and makes estimates of *small* sub-multisets sane —
    /// needed by `APX_MEDIAN2`'s rank adjustments. It is a deliberate
    /// deviation from pure Durand–Flajolet.
    pub fn estimate_corrected(&self) -> f64 {
        let m = self.m() as f64;
        let raw = self.estimate_raw();
        let zeros = self.zero_registers();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Wire size using fixed-width registers:
    /// `m × ⌈log₂(64 − b + 2)⌉` bits. With a 64-bit hash this is the
    /// `Θ(m log log N)` cost quoted by Fact 2.2 (`N ≤ 2^64`).
    pub fn wire_bits_fixed(&self) -> u64 {
        let reg_width = saq_netsim::wire::width_for_max((self.window() + 1) as u64) as u64;
        self.m() as u64 * reg_width
    }

    /// Wire size under Elias-gamma register coding (`register + 1` is
    /// gamma-coded so empty registers cost one bit). Cheaper for sparse
    /// sketches, e.g. leaf contributions covering a single item.
    pub fn wire_bits_gamma(&self) -> u64 {
        self.regs
            .iter()
            .map(|&r| saq_netsim::wire::gamma_len(r as u64 + 1))
            .sum()
    }
}

impl DistinctSketch for LogLog {
    fn insert_hash(&mut self, hash: u64) {
        let idx = (hash >> self.window()) as usize;
        let w = self.window();
        let r = rho(hash, w).min(u8::MAX as u32) as u8;
        if r > self.regs[idx] {
            self.regs[idx] = r;
        }
    }

    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.b, other.b,
            "cannot merge LogLog sketches of different size"
        );
        for (a, &b) in self.regs.iter_mut().zip(other.regs.iter()) {
            if b > *a {
                *a = b;
            }
        }
    }

    fn estimate(&self) -> f64 {
        self.estimate_corrected()
    }

    fn wire_bits(&self) -> u64 {
        self.wire_bits_fixed()
    }
}

impl WireEncode for LogLog {
    fn encode(&self, w: &mut BitWriter) {
        w.write_bits(self.b as u64, 5);
        let reg_width = saq_netsim::wire::width_for_max((self.window() + 1) as u64);
        for &r in &self.regs {
            w.write_bits(r as u64, reg_width);
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, NetsimError> {
        let b = r.read_bits(5)? as u32;
        if !(1..=16).contains(&b) {
            return Err(NetsimError::WireDecode("loglog b out of range"));
        }
        let mut sk = LogLog::new(b);
        let reg_width = saq_netsim::wire::width_for_max((sk.window() + 1) as u64);
        for slot in &mut sk.regs {
            let v = r.read_bits(reg_width)?;
            if v > (64 - b + 1) as u64 {
                return Err(NetsimError::WireDecode("loglog register exceeds window"));
            }
            *slot = v as u8;
        }
        Ok(sk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HashFamily;
    use proptest::prelude::*;

    fn filled(b: u32, seed: u64, n: u64) -> LogLog {
        let h = HashFamily::new(seed);
        let mut sk = LogLog::new(b);
        for k in 0..n {
            sk.insert_hash(h.hash(k));
        }
        sk
    }

    #[test]
    fn empty_sketch_corrected_estimate_is_zero() {
        let sk = LogLog::new(6);
        assert_eq!(sk.estimate_corrected(), 0.0);
        assert!(sk.estimate_raw() > 0.0, "raw estimator is biased at 0");
    }

    #[test]
    fn alpha_and_sigma_constants() {
        assert!(alpha_m(1 << 16) > 0.3968 && alpha_m(1 << 16) < 0.3971);
        assert!(alpha_m(16) < alpha_m(1024));
        assert!((sigma_m(64) - 1.29806 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_within_a_few_sigma() {
        for (b, n) in [(6u32, 10_000u64), (8, 100_000), (10, 50_000)] {
            let sk = filled(b, 1, n);
            let sigma = sigma_m(sk.m());
            let rel = (sk.estimate() - n as f64) / n as f64;
            assert!(
                rel.abs() < 4.0 * sigma,
                "b={b} n={n}: rel err {rel:.4} vs sigma {sigma:.4}"
            );
        }
    }

    #[test]
    fn duplicate_insensitive() {
        let h = HashFamily::new(3);
        let mut a = LogLog::new(6);
        let mut b = LogLog::new(6);
        for k in 0..1000u64 {
            a.insert_hash(h.hash(k));
            // b sees every key five times
            for _ in 0..5 {
                b.insert_hash(h.hash(k));
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_equals_union() {
        let h = HashFamily::new(5);
        let mut left = LogLog::new(7);
        let mut right = LogLog::new(7);
        let mut both = LogLog::new(7);
        for k in 0..4000u64 {
            let hash = h.hash(k);
            if k % 2 == 0 {
                left.insert_hash(hash);
            } else {
                right.insert_hash(hash);
            }
            both.insert_hash(hash);
        }
        left.merge_from(&right);
        assert_eq!(left, both);
    }

    #[test]
    #[should_panic(expected = "different size")]
    fn merge_size_mismatch_panics() {
        let mut a = LogLog::new(4);
        let b = LogLog::new(5);
        a.merge_from(&b);
    }

    #[test]
    fn wire_roundtrip_and_size() {
        let sk = filled(6, 9, 500);
        let mut w = BitWriter::new();
        sk.encode(&mut w);
        let s = w.finish();
        assert_eq!(s.len_bits(), 5 + sk.wire_bits_fixed());
        let mut r = BitReader::new(&s);
        let back = LogLog::decode(&mut r).unwrap();
        assert_eq!(back, sk);
    }

    #[test]
    fn fixed_wire_size_matches_m_times_loglog() {
        // m * ceil(log2(window+2)): for b=6, window 58, width 6 -> 384.
        let sk = LogLog::new(6);
        assert_eq!(sk.wire_bits_fixed(), 64 * 6);
        // Gamma coding of an empty sketch: 1 bit per register.
        assert_eq!(sk.wire_bits_gamma(), 64);
    }

    #[test]
    fn gamma_encoding_cheap_for_sparse() {
        let h = HashFamily::new(2);
        let mut sk = LogLog::new(8);
        sk.insert_hash(h.hash(1));
        assert!(
            sk.wire_bits_gamma() < sk.wire_bits_fixed() / 2,
            "sparse sketch should gamma-compress well"
        );
    }

    #[test]
    fn small_range_correction_tracks_small_counts() {
        for n in [1u64, 5, 20, 60] {
            let sk = filled(6, 11, n);
            let est = sk.estimate_corrected();
            assert!(
                (est - n as f64).abs() <= (n as f64 * 0.5).max(4.0),
                "n={n} corrected estimate {est}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_merge_commutative(keys1 in proptest::collection::vec(any::<u64>(), 0..200),
                                  keys2 in proptest::collection::vec(any::<u64>(), 0..200)) {
            let h = HashFamily::new(1);
            let mut a1 = LogLog::new(5);
            let mut a2 = LogLog::new(5);
            for k in &keys1 { a1.insert_hash(h.hash(*k)); }
            for k in &keys2 { a2.insert_hash(h.hash(*k)); }
            let mut m1 = a1.clone();
            m1.merge_from(&a2);
            let mut m2 = a2.clone();
            m2.merge_from(&a1);
            prop_assert_eq!(m1, m2);
        }

        #[test]
        fn prop_merge_idempotent(keys in proptest::collection::vec(any::<u64>(), 0..200)) {
            let h = HashFamily::new(1);
            let mut a = LogLog::new(5);
            for k in &keys { a.insert_hash(h.hash(*k)); }
            let mut twice = a.clone();
            twice.merge_from(&a);
            prop_assert_eq!(twice, a);
        }

        #[test]
        fn prop_wire_roundtrip(keys in proptest::collection::vec(any::<u64>(), 0..300), b in 1u32..=10) {
            let h = HashFamily::new(4);
            let mut sk = LogLog::new(b);
            for k in &keys { sk.insert_hash(h.hash(*k)); }
            let mut w = BitWriter::new();
            sk.encode(&mut w);
            let s = w.finish();
            let mut r = BitReader::new(&s);
            prop_assert_eq!(LogLog::decode(&mut r).unwrap(), sk);
        }

        #[test]
        fn prop_registers_bounded(keys in proptest::collection::vec(any::<u64>(), 0..500)) {
            let mut sk = LogLog::new(4);
            for k in &keys { sk.insert_hash(*k); } // raw keys: worst case
            let bound = (64 - 4 + 1) as u8;
            prop_assert!(sk.registers().iter().all(|&r| r <= bound));
        }
    }
}
