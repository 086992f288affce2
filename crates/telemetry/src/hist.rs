//! Fixed-bucket base-2 logarithmic histograms.
//!
//! A [`Histogram`] has exactly [`BUCKETS`] = 65 buckets covering the full
//! `u64` range with no configuration and no allocation:
//!
//! * bucket `0` holds the value `0`;
//! * bucket `k` (1 ≤ k ≤ 64) holds values in `[2^(k-1), 2^k - 1]` — i.e.
//!   `k = floor(log2(v)) + 1`, computed from `leading_zeros`.
//!
//! Records are three relaxed atomic updates (bucket count, value sum,
//! running max); snapshots read every bucket. Like [`crate::Counter`],
//! totals are exact once writers quiesce and monotone while they race.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: value 0, plus one bucket per power-of-two decade.
pub const BUCKETS: usize = 65;

/// The bucket index a value lands in.
#[inline]
pub const fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive `[lo, hi]` value range of bucket `i`.
///
/// # Panics
///
/// Panics if `i >= BUCKETS`.
pub const fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS);
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        k => (1 << (k - 1), (1 << k) - 1),
    }
}

/// A log2 histogram over `u64` values.
///
/// `const`-constructible so metrics live in statics; see
/// [`crate::registry`] for the workspace catalogue.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Wrapping sum of recorded values (for the mean).
    sum: AtomicU64,
    /// Largest recorded value.
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram (usable in `static` position).
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        // indexing: bucket_of clamps to BUCKETS - 1, always in bounds.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations in bucket `i`.
    ///
    /// Read-side boundary: Acquire pairs with the hot path's Relaxed
    /// increments (XA102), as do the other getters below.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Acquire)
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, b| acc.wrapping_add(b.load(Ordering::Acquire)))
    }

    /// Wrapping sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Acquire)
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Acquire)
    }

    /// Mean recorded value (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Captures an immutable [`crate::export::HistogramSample`]. Each
    /// bucket is read atomically; see the snapshot-while-writing test in
    /// [`crate::export`] for the consistency contract.
    pub fn sample(&self) -> crate::export::HistogramSample {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Acquire);
        }
        crate::export::HistogramSample {
            buckets,
            sum: self.sum(),
            max: self.max(),
        }
    }

    /// Clears every bucket and the sum/max. Release publishes the
    /// zeroes to subsequent Acquire snapshots (XA102 boundary).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Release);
        }
        self.sum.store(0, Ordering::Release);
        self.max.store(0, Ordering::Release);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Adds every observation of an owned [`LocalHistogram`] (the
    /// publish-at-merge path). Empty buckets are skipped; the totals
    /// equal recording each observation here directly.
    pub fn merge_from(&self, local: &LocalHistogram) {
        for (b, &n) in self.buckets.iter().zip(local.buckets.iter()) {
            if n != 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
    }
}

/// An owned, non-atomic log2 histogram with the bucket layout of
/// [`Histogram`]: a hot loop records into one with plain adds and
/// publishes it once with [`Histogram::merge_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    sum: u64,
    max: u64,
}

impl LocalHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        // indexing: bucket_of returns at most BUCKETS - 1.
        self.buckets[bucket_of(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &b| acc.wrapping_add(b))
    }
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_bucket_boundaries() {
        // The satellite test: 0, 1, 2^k, 2^k - 1, and u64::MAX land
        // exactly where the module contract says.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        for k in 1..=63usize {
            let p = 1u64 << k;
            assert_eq!(bucket_of(p), k + 1, "2^{k}");
            assert_eq!(bucket_of(p - 1), k, "2^{k} - 1");
        }
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1u64 << 63), 64);
    }

    #[test]
    fn bounds_partition_the_u64_range() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(10), (512, 1023));
        assert_eq!(bucket_bounds(64), (1 << 63, u64::MAX));
        // Adjacent buckets tile with no gap or overlap, and every value's
        // bucket contains it.
        for i in 1..64 {
            let (lo, hi) = bucket_bounds(i);
            let (next_lo, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, next_lo, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
        }
    }

    #[test]
    fn record_updates_count_sum_max() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 2); // 2 and 3
        assert_eq!(h.bucket(10), 1); // 1000
        assert_eq!(h.bucket(64), 1); // u64::MAX
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(
            h.sum(),
            0u64.wrapping_add(1 + 2 + 3 + 1000).wrapping_add(u64::MAX)
        );
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn mean_of_known_values() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn merged_local_equals_direct_records() {
        let direct = Histogram::new();
        let merged = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 5, 5, 900, u64::MAX, 3] {
            direct.record(v);
            local.record(v);
        }
        assert_eq!(local.count(), 7);
        merged.record(2);
        direct.record(2);
        merged.merge_from(&local);
        assert_eq!(merged.sample(), direct.sample());
        // Merging an empty local histogram changes nothing.
        merged.merge_from(&LocalHistogram::new());
        assert_eq!(merged.sample(), direct.sample());
    }

    #[test]
    fn concurrent_records_sum_exactly() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.max(), 39_999);
    }
}
