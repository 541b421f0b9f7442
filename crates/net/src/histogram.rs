//! The one log2 histogram: runtime latency paths, the profiler's
//! per-site remote cycles, the tracer's rolling baseline, and the fleet
//! plane's per-shard queue-depth and train-size gauges all record into it.

/// A log2-bucketed histogram of `u64` values. Bucket `b` (b ≥ 1) counts
/// values in `[2^(b-1), 2^b)`; bucket 0 counts zeros. 65 buckets cover the
/// full `u64` range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Lower bound of bucket `b`.
    fn bucket_floor(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Record one value. Runs on every guard, so it is inlined into the
    /// runtime across the crate boundary.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other`'s observations into this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0 < q ≤ 1`): the lower bound of the
    /// bucket holding the q-th value, clamped to the observed min/max so
    /// single-bucket histograms report exact values. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            // The q=1 quantile is the observed maximum, exactly; the
            // bucket-walk below would round it down to a bucket floor.
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_floor(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (approximate; see [`Self::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile (approximate).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile (approximate).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (Self::bucket_floor(b), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [0u64, 3, 70, 70, 9_000] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 64, 1 << 40] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!((a.min(), a.max(), a.count()), (0, 1 << 40, 8));
    }

    #[test]
    fn merging_an_empty_histogram_changes_nothing() {
        let mut h = Histogram::default();
        h.record(5);
        let before = h.clone();
        h.merge(&Histogram::default());
        assert_eq!(h, before);
        let mut e = Histogram::default();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
