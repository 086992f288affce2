//! The benchmark's own arithmetic: medians, nearest-rank percentiles,
//! Python-compatible quartiles and the open-loop latency rule.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// observations: the smallest rank whose cumulative share reaches `p`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 100.0, "rank of p{p} among {n}");
    // Round the product first so p99 of 100 values is rank 99, not 100
    // through floating-point noise.
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    s[nearest_rank(p, s.len()) - 1]
}

/// Observations ranked strictly above the nearest-rank percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - nearest_rank(p, n)
}

/// Whether `n` observations put at least `min_beyond` of them above the
/// nearest-rank percentile `p` (the benchmark asks 10 beyond p99).
pub fn resolves(p: f64, n: usize, min_beyond: usize) -> bool {
    n > 0 && beyond(p, n) >= min_beyond
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median: the spread the
/// benchmark is judged on.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its response completed (nanoseconds on one clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl OpenLoopSample {
    /// Latency as a user of an open-loop service sees it: from the due
    /// time, so a generator running late charges its lateness to the
    /// system instead of hiding it (coordinated omission).
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Exact nearest-rank percentiles of integer nanosecond latencies
/// without keeping every sample: one counter per nanosecond below
/// [`LatencyHist::SPAN`], the rare slower samples kept as they are.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    slow: Vec<u64>,
    n: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            counts: vec![0; Self::SPAN as usize],
            slow: Vec::new(),
            n: 0,
        }
    }
}

impl LatencyHist {
    pub const SPAN: u64 = 200_000;

    pub fn record(&mut self, ns: u64) {
        if ns < Self::SPAN {
            self.counts[ns as usize] += 1;
        } else {
            self.slow.push(ns);
        }
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `p`, in nanoseconds.
    pub fn percentile_ns(&mut self, p: f64) -> u64 {
        let rank = nearest_rank(p, self.n as usize) as u64;
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return ns as u64;
            }
        }
        self.slow.sort_unstable();
        self.slow[(rank - seen - 1) as usize]
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Ten values: p50 is the 5th, p99 the 10th (the maximum).
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 50.0), 5.0);
        assert_eq!(percentile(&w, 99.0), 10.0);
        assert_eq!(percentile(&w, 91.0), 10.0);
        assert_eq!(percentile(&w, 90.0), 9.0);
        // Order of the input does not matter.
        let r: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&r, 99.0), 99.0);
    }

    #[test]
    fn ten_beyond_p99_needs_a_thousand_samples() {
        assert_eq!(beyond(99.0, 100), 1);
        assert!(!resolves(99.0, 999, 10));
        assert_eq!(beyond(99.0, 999), 9);
        assert!(resolves(99.0, 1000, 10));
        assert_eq!(beyond(99.0, 1000), 10);
        assert!(!resolves(99.0, 0, 10));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Values from CPython: statistics.quantiles(range(1, 11), n=4)
        // == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of short samples.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        let spread = relative_spread(&v);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn latency_histogram_matches_sorted_percentiles() {
        let values: Vec<u64> = (0..5_000u64)
            .map(|i| (i * 7919) % 3_001 + (i % 97) * 5_000)
            .collect();
        let mut h = LatencyHist::default();
        for &v in &values {
            h.record(v);
        }
        let mut slow = LatencyHist::default();
        slow.record(10 * LatencyHist::SPAN);
        h.merge(&slow);
        let mut all: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        all.push((10 * LatencyHist::SPAN) as f64);
        for p in [1.0, 50.0, 90.0, 99.0, 99.99, 100.0] {
            assert_eq!(h.percentile_ns(p) as f64, percentile(&all, p), "p{p}");
        }
        assert_eq!(h.count(), 5_001);
    }

    #[test]
    fn open_loop_latency_is_timed_from_the_due_time() {
        // Due at 1 ms, the generator ran 3 ms late, the response took
        // 0.5 ms once sent: the user waited 3.5 ms, not 0.5 ms.
        let late = OpenLoopSample {
            due_ns: 1_000_000,
            sent_ns: 4_000_000,
            done_ns: 4_500_000,
        };
        assert_eq!(late.latency_ms(), 3.5);
        assert_eq!(late.lateness_ms(), 3.0);
        let on_time = OpenLoopSample {
            due_ns: 1_000_000,
            sent_ns: 1_000_000,
            done_ns: 1_200_000,
        };
        assert!((on_time.latency_ms() - 0.2).abs() < 1e-12);
        assert_eq!(on_time.lateness_ms(), 0.0);
    }
}
