//! Deterministic, splittable random number generation.
//!
//! Reproducibility is a hard requirement for the experiment harness: the
//! same seed must produce bit-identical simulations regardless of the
//! `rand` crate version or platform. We therefore implement the two small
//! generators used throughout the workspace here:
//!
//! * [`SplitMix64`] — a tiny 64-bit mixer used both as a stream-splitting
//!   seeder and as the workspace hash finalizer;
//! * [`Xoshiro256StarStar`] — the main generator (Blackman & Vigna), seeded
//!   via SplitMix64 as its authors recommend.
//!
//! A consumer of randomness derives its own independent stream from
//! `(master_seed, label, purpose)` (push-sum gossip: one per node, labelled
//! by node id), so adding a new consumer never perturbs existing streams.

/// A 64-bit SplitMix generator.
///
/// Used to seed other generators and to derive independent streams; also a
/// high-quality integer mixer (see [`SplitMix64::mix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output and advances the state.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Self::mix(self.state)
    }

    /// The SplitMix64 finalizer: a bijective mix of a 64-bit word.
    ///
    /// This is the workspace's standard integer hash: statistical quality is
    /// good enough for sketch bucketing (it passes the avalanche criterion)
    /// while staying allocation-free and branch-free.
    pub fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** 1.0, the workspace's general-purpose PRNG.
///
/// Period 2^256 − 1; passes BigCrush. Not cryptographic, which is fine:
/// the paper's protocols only need statistically independent coin flips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64
    /// (the seeding procedure recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros, but keep the guard for clarity.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only reached with probability < bound / 2^64.
            let threshold = bound.wrapping_neg() % bound;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Samples a geometric random variable with parameter 1/2: the number
    /// of fair-coin tosses before (and not counting) the first head,
    /// i.e. `P(G = k) = 2^-(k+1)` for `k ≥ 0`.
    ///
    /// This is the primitive behind approximate counting (§2.2 of the
    /// paper): the maximum of `N` such samples concentrates around
    /// `log2 N`. Implemented by counting trailing zeros of 64-bit words so
    /// a sample costs O(1) words of randomness.
    pub fn geometric_half(&mut self) -> u32 {
        let mut total = 0u32;
        loop {
            let w = self.next_u64();
            if w != 0 {
                return total + w.trailing_zeros();
            }
            // Astronomically unlikely; keep counting across words.
            total += 64;
            if total >= 4096 {
                return total;
            }
        }
    }
}

/// Derives an independent stream seed from a master seed and a pair of
/// labels (typically `(node_id, purpose)`).
///
/// Streams derived with different labels are de-correlated by the
/// SplitMix64 mixing function; the mapping is deterministic so experiments
/// are reproducible.
pub fn derive_seed(master: u64, label_a: u64, label_b: u64) -> u64 {
    let mut x = SplitMix64::mix(master ^ 0xD1B5_4A32_D192_ED03);
    x = SplitMix64::mix(x ^ label_a.wrapping_mul(0xA24B_AED4_963E_E407));
    x = SplitMix64::mix(x ^ label_b.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 0 from the public-domain reference
        // implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        let mut c = Xoshiro256StarStar::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut g = Xoshiro256StarStar::seed_from_u64(7);
        let bound = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = g.next_below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        // Each bucket should hold ~10_000; allow generous slack.
        for &c in &counts {
            assert!((8_500..=11_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut g = Xoshiro256StarStar::seed_from_u64(1);
        let _ = g.next_below(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = Xoshiro256StarStar::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn geometric_half_has_mean_about_one() {
        // E[G] = 1 for P(G=k) = 2^-(k+1).
        let mut g = Xoshiro256StarStar::seed_from_u64(11);
        let n = 200_000u64;
        let sum: u64 = (0..n).map(|_| g.geometric_half() as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn geometric_half_max_tracks_log2_n() {
        // max of N samples should be near log2(N); this is the heart of
        // approximate counting (paper §2.2).
        let mut g = Xoshiro256StarStar::seed_from_u64(13);
        let n = 1 << 16;
        let max = (0..n).map(|_| g.geometric_half()).max().unwrap();
        assert!(
            (10..=26).contains(&max),
            "max geometric sample {max} far from log2 N = 16"
        );
    }

    #[test]
    fn derived_seeds_differ_per_label() {
        let s1 = derive_seed(99, 0, 0);
        let s2 = derive_seed(99, 1, 0);
        let s3 = derive_seed(99, 0, 1);
        let s4 = derive_seed(100, 0, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s2, s3);
        assert_ne!(s1, s4);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut g = Xoshiro256StarStar::seed_from_u64(5);
        assert!(!g.bernoulli(0.0));
        assert!(g.bernoulli(1.0));
        assert!(!g.bernoulli(-0.5));
        assert!(g.bernoulli(1.5));
    }
}
