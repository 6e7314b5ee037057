//! Exact sample sets and the percentile rule the reports use.

use std::collections::BTreeMap;

/// An exact multiset of integer samples (value → occurrences).
///
/// Simulated latencies sit on the container tick grid, so a run of
/// millions of deliveries holds a few dozen distinct values: keeping
/// counts per value is lossless and stays small, unlike a log2 histogram
/// (which cannot tell 511 µs from 1000 µs) or a raw sample vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Samples {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Samples {
    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile `q` in `(0, 1]`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (&value, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return Some(value);
            }
        }
        self.counts.keys().next_back().copied()
    }

    /// The tail percentile the sample count supports (see
    /// [`tail_quantile`]) and its value.
    pub fn tail(&self) -> Option<(f64, u64)> {
        let q = tail_quantile(self.total)?;
        Some((q, self.quantile(q)?))
    }
}

/// The highest quantile, capped at p99, that leaves at least ten samples
/// beyond it: p99 from 1000 samples on, `1 − 10/n` below that, and `None`
/// under 20 samples (where even the median has fewer than ten beyond).
pub fn tail_quantile(n: u64) -> Option<f64> {
    if n < 20 {
        return None;
    }
    Some((1.0 - 10.0 / n as f64).min(0.99))
}

/// Quantile `q` in `[0, 1]` of a non-empty slice, interpolating linearly
/// between the two nearest order statistics.
///
/// # Panics
///
/// Panics on an empty slice or a NaN — both are bugs in the caller.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(v.len() - 1);
    v[below] + (v[above] - v[below]) * (at - below as f64)
}

/// Median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(1.0 - 10.0 / 999.0));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(5_000_000), Some(0.99), "never above p99");
        // The rule in samples: exactly ten lie beyond the reported value.
        let mut s = Samples::default();
        for v in 1..=200 {
            s.record(v);
        }
        let (q, value) = s.tail().unwrap();
        assert_eq!(q, 0.95);
        assert_eq!(value, 190);
        assert_eq!((value + 1..=200).count(), 10);
    }

    #[test]
    fn quantiles_are_nearest_rank_over_counts() {
        let mut s = Samples::default();
        assert_eq!(s.quantile(0.5), None);
        for _ in 0..98 {
            s.record(500);
        }
        s.record(1000);
        s.record(1500);
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile(0.5), Some(500));
        assert_eq!(s.quantile(0.98), Some(500));
        assert_eq!(s.quantile(0.99), Some(1000));
        assert_eq!(s.quantile(1.0), Some(1500));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.75), 40.0);
        assert_eq!(quantile(&v, 0.9), 46.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }
}
