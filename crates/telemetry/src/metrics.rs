//! The lock-free metric primitives: [`Counter`], [`Gauge`] and the
//! power-of-two-bucketed [`Histogram`].
//!
//! All three are plain atomic cells — updates never lock, never
//! allocate, and never fail. They are handed out as `Arc`s by the
//! [`Registry`](crate::Registry); the hot path holds the `Arc` and
//! touches only the atomics.
//!
//! Memory-ordering policy: every update and read is `Relaxed`. Metrics
//! are monotone event counts or last-write-wins levels, never used to
//! publish other data; a caller that needs its writes visible to
//! another thread (the sharded engine's flush barrier) synchronises
//! through its own lock.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A level that can move both ways (queue depths, resident flows).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the level to `v` if it is higher than the current value
    /// (high-water marks, e.g. the largest SMB round observed).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Add `n` (possibly negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of buckets: bucket `i` counts values `v` with
/// `2^(i−1) < v ≤ 2^i` (bucket 0 holds `v ≤ 1`); the last bucket
/// absorbs everything larger, playing Prometheus's `+Inf` role.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free histogram over `u64` samples with power-of-two bucket
/// boundaries.
///
/// Power-of-two buckets cost one `leading_zeros` per record — no
/// float math, no searches — and give ≤ 2× relative quantile error,
/// plenty for latency/occupancy monitoring. Quantiles interpolate
/// linearly inside the winning bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index whose upper bound `2^i` first covers `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` acts as +Inf).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, `NaN` when empty.
    pub fn mean(&self) -> f64 {
        self.sum() as f64 / self.count() as f64
    }

    /// A point-in-time copy of the bucket counts and derived
    /// summaries. Concurrent recording may tear between cells; each
    /// cell is individually consistent, which is all a monitoring
    /// snapshot needs.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Derive totals from the copied cells so quantile ranks are
        // consistent with the buckets even under concurrent writes.
        let count: u64 = counts.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let highest = counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1)
            .max(1);
        let mut cumulative = 0u64;
        let buckets: Vec<(u64, u64)> = counts[..highest]
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                cumulative += c;
                (bucket_upper_bound(i), cumulative)
            })
            .collect();
        HistogramSnapshot {
            p50: quantile(&counts, count, 0.50),
            p95: quantile(&counts, count, 0.95),
            p99: quantile(&counts, count, 0.99),
            count,
            sum,
            buckets,
        }
    }
}

/// Quantile estimate from per-bucket counts: find the bucket holding
/// the target rank, interpolate linearly inside it.
///
/// Edge cases are deterministic so exporters and gates never see a
/// surprise value: an empty histogram reports `0.0` (not `NaN`, which
/// JSON cannot carry and threshold comparisons silently absorb), and
/// a histogram whose samples all landed in one bucket reports that
/// bucket's upper bound for every `q` — interpolating inside the only
/// occupied bucket would fabricate a spread the data never showed.
fn quantile(counts: &[u64], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut occupied = counts.iter().enumerate().filter(|(_, &c)| c > 0);
    if let (Some((only, _)), None) = (occupied.next(), occupied.next()) {
        return bucket_upper_bound(only) as f64;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let prev = cumulative;
        cumulative += c;
        if cumulative >= rank {
            let lo = if i == 0 { 0.0 } else { bucket_upper_bound(i - 1) as f64 };
            let hi = bucket_upper_bound(i) as f64;
            let frac = (rank - prev) as f64 / c as f64;
            return lo + (hi - lo) * frac;
        }
    }
    bucket_upper_bound(HISTOGRAM_BUCKETS - 1) as f64
}

/// A point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(upper_bound, cumulative_count)` pairs up to the highest
    /// non-empty bucket (Prometheus `le` semantics); the final
    /// `u64::MAX` bound renders as `+Inf`.
    pub buckets: Vec<(u64, u64)>,
    /// Median estimate (`0.0` when empty; a single occupied bucket
    /// reports its upper bound — see the `quantile` edge cases).
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Mean sample, `NaN` when empty.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.set_max(7);
        assert_eq!(g.get(), 12, "set_max never lowers");
        g.set_max(99);
        assert_eq!(g.get(), 99);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(10), 1024);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn histogram_count_sum_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        // Uniform 1..=1000: the true p50 is 500; power-of-two buckets
        // put it in (256, 512] — accept the bucket's span.
        assert!(snap.p50 > 256.0 && snap.p50 <= 512.0, "p50={}", snap.p50);
        assert!(snap.p95 > 512.0 && snap.p95 <= 1024.0, "p95={}", snap.p95);
        assert!(snap.p99 <= 1024.0, "p99={}", snap.p99);
        // Cumulative bucket counts end at the total.
        assert_eq!(snap.buckets.last().unwrap().1, 1000);
        // Cumulative counts are non-decreasing.
        for w in snap.buckets.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn empty_histogram_reports_zero_quantiles() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50, 0.0);
        assert_eq!(snap.p95, 0.0);
        assert_eq!(snap.p99, 0.0);
        assert!(snap.mean().is_nan(), "mean keeps NaN: 0/0 has no answer");
        assert_eq!(snap.buckets.len(), 1, "one bucket row even when empty");
    }

    #[test]
    fn single_bucket_histogram_pins_quantiles_to_the_bucket_bound() {
        // Every sample in (512, 1024] — one occupied bucket. All
        // quantiles must report the bucket's upper bound, with no
        // fabricated spread from intra-bucket interpolation.
        let h = Histogram::new();
        for v in 513..=1024u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.p50, 1024.0);
        assert_eq!(snap.p95, 1024.0);
        assert_eq!(snap.p99, 1024.0);

        // Same for a single sample, and for the degenerate v ≤ 1
        // bucket whose upper bound is 1.
        let one = Histogram::new();
        one.record(0);
        let snap = one.snapshot();
        assert_eq!((snap.p50, snap.p95, snap.p99), (1.0, 1.0, 1.0));
    }

    #[test]
    fn quantile_boundary_interpolation_is_pinned() {
        // 100 samples in (1, 2] and 100 in (2, 4]: cumulative rank
        // crosses p50 exactly at the first bucket's last sample, so
        // p50 interpolates to that bucket's upper bound; p95 and p99
        // land at fractional positions inside the second bucket:
        // lo + (hi − lo) · (rank − prev)/c = 2 + 2·(rank − 100)/100.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(2);
            h.record(4);
        }
        let snap = h.snapshot();
        assert_eq!(snap.p50, 2.0, "rank 100 closes the first bucket");
        assert_eq!(snap.p95, 2.0 + 2.0 * 0.90, "rank 190 → 90% into (2,4]");
        assert_eq!(snap.p99, 2.0 + 2.0 * 0.98, "rank 198 → 98% into (2,4]");
    }

    #[test]
    fn histogram_is_shareable_across_threads() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
