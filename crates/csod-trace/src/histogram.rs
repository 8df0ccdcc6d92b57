//! Power-of-two-bucketed histograms cheap enough for runtime paths.
//!
//! A recorded value lands in bucket `⌈log2(v)⌉` — one increment and a
//! handful of scalar updates, no allocation. That resolution (each
//! bucket spans a 2× range) is plenty for the distributions tracked
//! here: watch lifetimes, slot occupancy, per-context sampling rates.

/// Buckets cover `0, 1, 2, 4, … 2^63, u64::MAX` — 66 in total (the
/// last catches values above `2^63`).
const BUCKETS: usize = 66;

/// An accumulating histogram with power-of-two buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Index of the bucket whose upper bound is the smallest power of two
/// `>= value` (bucket 0 holds exact zeros).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - (value - 1).leading_zeros() as usize + 1
    }
}

/// Upper bound of bucket `idx` (inclusive).
fn bucket_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64.checked_shl(idx as u32 - 1).unwrap_or(u64::MAX)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Immutable point-in-time copy for serialization.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (bucket_bound(i), n))
                .collect(),
        }
    }
}

/// A serializable point-in-time view of a [`Histogram`]. Buckets are
/// `(inclusive upper bound, count)` pairs for non-empty buckets only,
/// in ascending bound order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u128,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// `(upper_bound, count)` for each non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`); an upper estimate within one 2× bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_ceil_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(u64::MAX), 65);
        assert_eq!(bucket_bound(65), u64::MAX);
        for idx in [0usize, 1, 2, 3, 10, 64, 65] {
            let bound = bucket_bound(idx);
            assert_eq!(bucket_index(bound), idx, "bound {bound} in own bucket");
        }
    }

    #[test]
    fn snapshot_tracks_extremes_and_mean() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 26.5).abs() < 1e-9);
        let total: u64 = s.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn quantiles_are_bucket_upper_estimates() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 16); // 10 rounds up to bucket bound 16
        assert_eq!(s.quantile(1.0), 1000); // clamped to observed max
        assert_eq!(s.quantile(0.0), 16); // lowest non-empty bucket
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }
}
