//! Percentiles, medians and the simulation fingerprint.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `p` percentile position —
/// the guide asks for at least ten before a percentile is reported.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Sorts and returns the nearest-rank percentile (0.0 when empty).
pub fn percentile_of(values: &mut [u64], p: f64) -> u64 {
    values.sort_unstable();
    percentile(values, p).unwrap_or(0)
}

/// Median of a float sample (mean of the middle two when even; 0.0
/// when empty).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// 64-bit FNV-1a over everything the simulated network produced: equal
/// seeds on equal code must give equal fingerprints, and a change that
/// only speeds the simulator up must not move it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.95), Some(95));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        assert_eq!(percentile(&[7u64], 0.95), Some(7));
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_repeats() {
        let fp = |vals: &[u64]| {
            let mut f = Fingerprint::default();
            vals.iter().for_each(|&v| f.u64(v));
            f.value()
        };
        assert_eq!(fp(&[1, 2, 3]), fp(&[1, 2, 3]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[3, 2, 1]));
        assert_ne!(fp(&[]), fp(&[0]));
    }
}
