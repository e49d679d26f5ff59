//! Handle types: lock-free counters, gauges, and a fixed-bucket
//! power-of-two histogram with consistent snapshots.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count. Cloning is cheap and every
/// clone addresses the same underlying atomic, so a component can keep
/// a handle on its hot path while a [`crate::Registry`] holds another
/// for exposition.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down (open sessions, buffered bytes).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds values in
/// `[2^i, 2^(i+1))`, bucket 0 holds `< 2`, and the last bucket is an
/// overflow catch-all for everything at or above `2^(BUCKETS-1)`.
pub const BUCKETS: usize = 27;

/// The bucket a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
}

/// Inclusive-exclusive upper bound of bucket `i` (`u64::MAX` for the
/// overflow bucket — it has no real upper edge).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

#[derive(Default)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// Fixed power-of-two-bucket histogram. Recording touches exactly
/// three relaxed atomics (bucket, sum, max). All reads go through
/// [`Histogram::snapshot`], which copies the buckets once and derives
/// every statistic from the copy — percentile lines can never mix
/// bucket counts from different instants.
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in microseconds (the unit every latency
    /// histogram in the stack uses).
    #[inline]
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// One consistent copy of the buckets; the count is derived from
    /// the copied buckets themselves, so `count == buckets.sum()` holds
    /// by construction no matter how many writers are racing.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let count = buckets.iter().fold(0u64, |a, b| a.saturating_add(*b));
        HistogramSnapshot {
            buckets,
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            max: self.0.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]. Every statistic on this
/// type reads the same frozen bucket array.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    /// Sum of `buckets` (saturating), frozen at snapshot time.
    pub count: u64,
    /// Sum of recorded values (racy relative to `buckets` by at most
    /// the handful of records in flight during the snapshot).
    pub sum: u64,
    /// Largest value ever recorded.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the p-th percentile (0 < p ≤ 1): the
    /// upper edge of the bucket where the cumulative count crosses the
    /// rank, capped by the observed max. At most one bucket width (2×)
    /// above the exact order statistic.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // f64 has 53 mantissa bits; for saturating counts near u64::MAX
        // the ceil/clamp still lands on a valid rank in [1, count].
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*b);
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        let g2 = g.clone();
        g.add(10);
        g2.sub(3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_math_matches_the_power_of_two_shape() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index((1 << 26) - 1), 25);
        assert_eq!(bucket_index(1 << 26), 26);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 2);
        assert_eq!(bucket_upper_bound(25), 1 << 26);
        assert_eq!(bucket_upper_bound(26), u64::MAX);
    }

    #[test]
    fn snapshot_count_equals_bucket_sum() {
        let h = Histogram::new();
        for v in [1u64, 10, 100, 1000, 10_000] {
            for _ in 0..20 {
                h.record(v);
            }
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.count, s.buckets.iter().sum::<u64>());
        assert_eq!(s.max, 10_000);
        let p50 = s.percentile(0.50);
        assert!((100..=128).contains(&p50), "p50 = {p50}");
        assert!(s.percentile(0.99) >= 10_000);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.percentile(0.5), 0);
    }
}
