//! Ground truth the benchmark computes itself.
//!
//! The benchmark generated every item and applies every update, so it
//! holds the current multiset as a value histogram (items live in
//! `0..=X̄`, X̄ = 1000) and can check any answer in `O(X̄)` without
//! calling into the program it is checking.

use saq::core::engine::{QueryOutcome, QuerySpec};
use saq::core::predicate::{Domain, Predicate, Test};

/// Declared maximum item value of every workload.
pub const XBAR: u64 = 1000;

/// The current item of every node plus a histogram over values.
#[derive(Debug, Clone)]
pub struct Truth {
    items: Vec<u64>,
    hist: Vec<u32>,
}

fn floor_log2(v: u64) -> u64 {
    u64::from(63 - v.max(1).leading_zeros())
}

fn matches(pred: &Predicate, v: u64) -> bool {
    let x = match pred.domain {
        Domain::Raw => v,
        Domain::Log => floor_log2(v),
    };
    match pred.test {
        Test::True => true,
        Test::LessThan2 { y2 } => 2 * x < y2,
    }
}

impl Truth {
    pub fn new(items: Vec<u64>) -> Self {
        let mut hist = vec![0u32; XBAR as usize + 1];
        for &v in &items {
            hist[v as usize] += 1;
        }
        Truth { items, hist }
    }

    pub fn set(&mut self, node: usize, value: u64) {
        self.hist[self.items[node] as usize] -= 1;
        self.hist[value as usize] += 1;
        self.items[node] = value;
    }

    fn len(&self) -> u64 {
        self.items.len() as u64
    }

    /// `(value, multiplicity)` over values present, ascending.
    fn present(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
        self.hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, u64::from(c)))
    }

    /// Items strictly below `v`.
    fn rank_lt(&self, v: u64) -> u64 {
        self.present()
            .take_while(|&(x, _)| x < v)
            .map(|(_, c)| c)
            .sum()
    }

    /// Checks one answer against the current items.
    ///
    /// * `Count`/`Sum`/`Min`/`Max`: exact.
    /// * `Median`: Definition 2.3 of the paper with `k = N/2`
    ///   (`ℓ(y) < N/2 ≤ ℓ(y+1)`), the guarantee of Theorem 3.2.
    /// * `Quantile`: the answer's rank interval reaches within its own
    ///   `rank_error` of `⌈q·N⌉`, and that certificate is at most `ε·N`.
    /// * `BottomK`: `min(k, N)` values forming a sub-multiset of the
    ///   items.
    ///
    /// # Errors
    ///
    /// What was expected and what arrived.
    pub fn check(&self, spec: &QuerySpec, outcome: &QueryOutcome) -> Result<(), String> {
        let n = self.len();
        let ok = match (spec, outcome) {
            (QuerySpec::Count(p), QueryOutcome::Num(got)) => {
                let want: u64 = self
                    .present()
                    .filter(|&(v, _)| matches(p, v))
                    .map(|(_, c)| c)
                    .sum();
                *got == want
            }
            (QuerySpec::Sum(p), QueryOutcome::Num(got)) => {
                let want: u64 = self
                    .present()
                    .filter(|&(v, _)| matches(p, v))
                    .map(|(v, c)| v * c)
                    .sum();
                *got == want
            }
            (QuerySpec::Min(d), QueryOutcome::OptVal(got)) => {
                *got == self.present().next().map(|(v, _)| in_domain(*d, v))
            }
            (QuerySpec::Max(d), QueryOutcome::OptVal(got)) => {
                *got == self.present().next_back().map(|(v, _)| in_domain(*d, v))
            }
            (QuerySpec::Median, QueryOutcome::Median(m)) => {
                2 * self.rank_lt(m.value) < n && 2 * self.rank_lt(m.value + 1) >= n
            }
            (QuerySpec::Quantile { q, eps }, QueryOutcome::Quantile(out)) => {
                out.value.is_some_and(|v| {
                    let target = ((q * n as f64).ceil() as u64).max(1);
                    let lo = self.rank_lt(v) + 1;
                    let hi = self.rank_lt(v + 1).max(lo);
                    out.count == n
                        && lo <= target + out.rank_error
                        && hi + out.rank_error >= target
                        && out.rank_error as f64 <= eps * n as f64
                })
            }
            (QuerySpec::BottomK { k }, QueryOutcome::Values(sample)) => {
                let mut left = self.hist.clone();
                sample.len() as u64 == u64::from(*k).min(n)
                    && sample.iter().all(|&v| {
                        left.get_mut(v as usize).is_some_and(|c| {
                            let had = *c > 0;
                            *c = c.saturating_sub(1);
                            had
                        })
                    })
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{spec:?} answered {outcome:?}"))
        }
    }
}

/// MIN/MAX answer in the domain's own coordinates (`Log` answers
/// `⌊log₂ v⌋`, which is monotone, so the extremum commutes with it).
fn in_domain(domain: Domain, v: u64) -> u64 {
    match domain {
        Domain::Raw => v,
        Domain::Log => floor_log2(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq::core::median::MedianOutcome;
    use saq::core::plan::QuantileOutcome;

    fn median_outcome(value: u64) -> QueryOutcome {
        QueryOutcome::Median(MedianOutcome {
            value,
            iterations: 0,
            countp_calls: 0,
        })
    }

    #[test]
    fn exact_aggregates_follow_updates() {
        let mut t = Truth::new(vec![5, 1, 9, 5]);
        let lt6 = QuerySpec::Count(Predicate::less_than(6));
        assert!(t.check(&lt6, &QueryOutcome::Num(3)).is_ok());
        assert!(t.check(&lt6, &QueryOutcome::Num(2)).is_err());
        assert!(t
            .check(
                &QuerySpec::Sum(Predicate::less_than(6)),
                &QueryOutcome::Num(11)
            )
            .is_ok());
        assert!(t
            .check(&QuerySpec::Min(Domain::Raw), &QueryOutcome::OptVal(Some(1)))
            .is_ok());
        assert!(t
            .check(&QuerySpec::Max(Domain::Log), &QueryOutcome::OptVal(Some(3)))
            .is_ok());
        t.set(1, 7);
        assert!(t.check(&lt6, &QueryOutcome::Num(2)).is_ok());
        assert!(t
            .check(&QuerySpec::Min(Domain::Raw), &QueryOutcome::OptVal(Some(5)))
            .is_ok());
        // A right number of the wrong kind is still wrong.
        assert!(t.check(&lt6, &QueryOutcome::OptVal(Some(2))).is_err());
    }

    #[test]
    fn median_is_definition_2_3() {
        let t = Truth::new(vec![1, 2, 3, 4]);
        // N/2 = 2: ℓ(2) = 1 < 2 ≤ ℓ(3) = 2, so 2 is the median; 3 is
        // not (ℓ(3) = 2 is not < 2).
        assert!(t.check(&QuerySpec::Median, &median_outcome(2)).is_ok());
        assert!(t.check(&QuerySpec::Median, &median_outcome(3)).is_err());
        assert!(t.check(&QuerySpec::Median, &median_outcome(1)).is_err());
    }

    #[test]
    fn quantile_must_honour_its_own_certificate() {
        let t = Truth::new((0..100).collect());
        let spec = QuerySpec::Quantile { q: 0.5, eps: 0.1 };
        let answer = |value, rank_error| {
            QueryOutcome::Quantile(QuantileOutcome {
                value: Some(value),
                rank_error,
                count: 100,
                summary_len: 0,
            })
        };
        assert!(t.check(&spec, &answer(49, 0)).is_ok());
        assert!(t.check(&spec, &answer(55, 6)).is_ok());
        assert!(t.check(&spec, &answer(55, 5)).is_err()); // off by more than certified
        assert!(t.check(&spec, &answer(49, 11)).is_err()); // certificate above ε·N
    }

    #[test]
    fn bottom_k_is_a_sub_multiset() {
        let t = Truth::new(vec![4, 4, 8]);
        let spec = QuerySpec::BottomK { k: 2 };
        assert!(t.check(&spec, &QueryOutcome::Values(vec![4, 4])).is_ok());
        assert!(t.check(&spec, &QueryOutcome::Values(vec![8, 4])).is_ok());
        assert!(t.check(&spec, &QueryOutcome::Values(vec![8, 8])).is_err());
        assert!(t.check(&spec, &QueryOutcome::Values(vec![4])).is_err());
        let all = QuerySpec::BottomK { k: 9 };
        assert!(t.check(&all, &QueryOutcome::Values(vec![8, 4, 4])).is_ok());
    }
}
