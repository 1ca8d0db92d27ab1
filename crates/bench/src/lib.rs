//! # saq-bench — the experiment harness
//!
//! One experiment per claim (E1–E20, indexed in the README's Experiments
//! section), each regenerating a quantitative claim of the paper as a
//! printed table; the `run_all` binary runs the ones named by id, or all
//! of them. Criterion micro-benchmarks of the median, sketch and
//! quantile-summary kernels live in `benches/`.
//!
//! This library holds what the experiments share:
//!
//! * [`workload`] — deterministic value-distribution generators (uniform,
//!   Zipf, clustered, bimodal);
//! * [`table`] — plain-text table rendering for the experiment reports;
//! * [`fit`] — least-squares helpers that check *shape* claims
//!   (`bits ∝ (log N)^2`, `∝ (log log N)^3`, `∝ N`, ...) by fitting the
//!   constant and reporting residual spread;
//! * [`heap`] — a counting global allocator whose live-byte tally the
//!   memory columns read.

pub mod deploy;
pub mod fit;
pub mod heap;
pub mod table;
pub mod workload;

/// The scaling shapes the experiments test against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `f(N) = log₂ N`
    Log,
    /// `f(N) = (log₂ N)²`
    Log2,
    /// `f(N) = (log₂ N)⁴`
    Log4,
    /// `f(N) = log₂ log₂ N`
    LogLog,
    /// `f(N) = (log₂ log₂ N)³`
    LogLog3,
    /// `f(N) = N`
    Linear,
}

impl Shape {
    /// Evaluates the shape function at `n`.
    pub fn eval(&self, n: f64) -> f64 {
        let lg = n.max(2.0).log2();
        let lglg = lg.max(2.0).log2();
        match self {
            Shape::Log => lg,
            Shape::Log2 => lg * lg,
            Shape::Log4 => lg.powi(4),
            Shape::LogLog => lglg,
            Shape::LogLog3 => lglg.powi(3),
            Shape::Linear => n,
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Shape::Log => "log N",
            Shape::Log2 => "(log N)^2",
            Shape::Log4 => "(log N)^4",
            Shape::LogLog => "loglog N",
            Shape::LogLog3 => "(loglog N)^3",
            Shape::Linear => "N",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_evaluate() {
        assert_eq!(Shape::Linear.eval(64.0), 64.0);
        assert_eq!(Shape::Log.eval(64.0), 6.0);
        assert_eq!(Shape::Log2.eval(64.0), 36.0);
        assert!((Shape::LogLog.eval(65536.0) - 4.0).abs() < 1e-12);
        assert!((Shape::LogLog3.eval(65536.0) - 64.0).abs() < 1e-9);
        assert!(!Shape::Log4.label().is_empty());
    }
}

pub mod experiments;

/// Experiment scale: `Quick` keeps every sweep small enough for CI and
/// `run_all`; `Full` is each experiment's full parameter grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sweeps (seconds).
    Quick,
    /// The full parameter grid (minutes).
    Full,
}

impl Scale {
    /// Parses `--quick` from argv; defaults to `Full`.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}
