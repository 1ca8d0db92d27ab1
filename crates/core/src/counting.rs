//! Configuration of the `APX_COUNT` primitive (Fact 2.2).
//!
//! The paper's approximate algorithms are parameterized by *any*
//! α-counting protocol (Definition 2.1) with bias `α_c` and relative
//! standard deviation `σ` such that `α_c < σ/2`. The workspace instantiates
//! it with Durand–Flajolet LogLog sketches merged up the aggregation tree;
//! `m = 2^b` registers give `σ ≈ 1.30/√m` and asymptotic bias below
//! `10⁻⁶` (Fact 2.2's constants).
//!
//! Repetition counts: `REP_COUNTP(r, P)` averages `r` independent
//! instances. Fig. 2 uses `r = ⌈2q⌉` for the initial size estimate and
//! `r = ⌈32q⌉` inside the search, `q = log(M−m)/ε`. The `32` is a
//! worst-case Chebyshev constant; the per-iteration failure probability
//! scales as `1/r`, so any multiplier `c·q` preserves the `1 − ε`
//! guarantee structure with a proportionally larger ε. The config exposes
//! both the paper's constants ([`ApxCountConfig::paper`]) and scaled
//! variants for the larger experiment sweeps.

use saq_sketches::loglog::{sigma_m, LogLog};

/// Parameters of the LogLog-based `APX_COUNT` instantiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApxCountConfig {
    /// `log2` of the LogLog register count (`m = 2^b`).
    pub b: u32,
    /// Multiplier `c` in the in-search repetition count `r = ⌈c·q⌉`
    /// (paper: 32).
    pub rep_search: f64,
    /// Multiplier for the initial population estimate `r = ⌈c·q⌉`
    /// (paper: 2).
    pub rep_count: f64,
    /// Base seed for deriving per-instance hash functions.
    pub seed: u64,
}

impl Default for ApxCountConfig {
    /// A practical default: `m = 64` registers (σ ≈ 16%), repetition
    /// multipliers 8 and 2.
    fn default() -> Self {
        ApxCountConfig {
            b: 6,
            rep_search: 8.0,
            rep_count: 2.0,
            seed: 0x5EED_CAFE,
        }
    }
}

impl ApxCountConfig {
    /// The constants exactly as written in Fig. 2 of the paper.
    pub fn paper() -> Self {
        ApxCountConfig {
            rep_search: 32.0,
            ..Self::default()
        }
    }

    /// Returns a copy with the given base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with `2^b` registers per sketch.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ b ≤ 16` (the [`LogLog`] supported range).
    pub fn with_b(mut self, b: u32) -> Self {
        assert!((1..=16).contains(&b), "b={b} out of range 1..=16");
        self.b = b;
        self
    }

    /// Number of registers `m`.
    pub fn m(&self) -> usize {
        1 << self.b
    }

    /// The bias bound `α_c` of a single instance (Fact 2.2: `α < 10⁻⁶`).
    pub fn alpha_c(&self) -> f64 {
        1e-6
    }

    /// The relative standard deviation `σ ≈ 1.30/√m` of a single instance.
    pub fn sigma(&self) -> f64 {
        sigma_m(self.m())
    }

    /// Wire size in bits of one sketch instance under fixed-width register
    /// coding — the `O(m log log N)` of Fact 2.2.
    pub fn sketch_bits(&self) -> u64 {
        LogLog::new(self.b).wire_bits_fixed()
    }

    /// The repetition count `⌈mult·q⌉` for `q = log₂(range)/ε`, clamped
    /// into `[1, u16::MAX]`: 65535 sketches per request is already far
    /// past any useful accuracy, and every request is held to this bound
    /// ([`crate::wave_proto::CoreRequest::check_bounds`]).
    pub fn reps_for(&self, mult: f64, range: u64, epsilon: f64) -> u32 {
        let q = ((range.max(2) as f64).log2() / epsilon).max(1.0);
        (mult * q).ceil().clamp(1.0, u16::MAX as f64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_satisfy_alpha_sigma_precondition() {
        // Theorems 4.5-4.7 require alpha_c < sigma / 2.
        let cfg = ApxCountConfig::default();
        assert!(cfg.alpha_c() < cfg.sigma() / 2.0);
        let paper = ApxCountConfig::paper();
        assert!(paper.alpha_c() < paper.sigma() / 2.0);
        assert_eq!(paper.rep_search, 32.0);
    }

    #[test]
    fn sigma_shrinks_with_m() {
        let small = ApxCountConfig::default().with_b(4);
        let large = ApxCountConfig::default().with_b(10);
        assert!(large.sigma() < small.sigma());
        assert_eq!(small.m(), 16);
        assert_eq!(large.m(), 1024);
    }

    #[test]
    fn sketch_bits_scale_with_m() {
        let cfg = ApxCountConfig::default().with_b(6);
        // 64 registers x 6 bits (values up to 59).
        assert_eq!(cfg.sketch_bits(), 64 * 6);
    }

    #[test]
    fn reps_formula() {
        let cfg = ApxCountConfig::paper();
        // range 1024, eps 0.5: q = 20, r = 32*20 = 640.
        assert_eq!(cfg.reps_for(cfg.rep_search, 1024, 0.5), 640);
        // Degenerate range still yields at least one instance.
        assert_eq!(cfg.reps_for(cfg.rep_search, 0, 0.5), 64);
        assert!(cfg.reps_for(1.0, 2, 10.0) >= 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_b_panics() {
        let _ = ApxCountConfig::default().with_b(40);
    }
}
