//! The three metric kinds: counters, gauges, and fixed-bucket latency
//! histograms.
//!
//! Handles are cheap `Arc` clones over lock-free atomics — registration
//! takes the registry lock once, after which the hot path is a handful of
//! relaxed atomic operations. Nothing here allocates after registration.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing count. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Counter { cell: Arc::new(AtomicU64::new(0)) }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depths, in-flight requests).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Gauge { cell: Arc::new(AtomicI64::new(0)) }
    }

    /// Set the value outright.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Bucket count for [`Histogram`]: power-of-two boundaries from 1 µs up
/// to 2^39 µs (~6.4 days) — latencies above that saturate the last
/// bucket (and are still exact in `max`).
pub const HISTOGRAM_BUCKETS: usize = 40;

pub(crate) struct HistogramCore {
    /// `buckets[i]` counts values `v` with `floor(log2(v)) + 1 == i`
    /// (bucket 0 holds `v == 0`), i.e. bucket `i` spans `[2^(i-1), 2^i)`.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Which bucket a value lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The inclusive upper bound a bucket index represents (the value
/// reported for percentiles that land in it).
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        (1u64 << idx.min(63)) - 1
    }
}

/// The smallest value a bucket index holds.
#[inline]
fn bucket_lower(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64 << (idx - 1)
    }
}

/// The `q`-quantile of one read of the buckets, as a bucket upper bound
/// clamped to `max`. 0 when empty.
fn quantile_of(counts: &[u64; HISTOGRAM_BUCKETS], max: u64, q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (idx, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            return bucket_upper(idx).min(max);
        }
    }
    max
}

/// A fixed-bucket latency histogram (microseconds by convention).
///
/// Recording is lock-free: one bucket increment plus count/sum/max
/// updates, all relaxed. Percentiles are read from the buckets, so p50,
/// p90, and p99 are upper bounds accurate to the bucket width (a factor
/// of two); `max` is exact.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Histogram { core: Arc::new(HistogramCore::new()) }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let core = &self.core;
        core.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (exact).
    pub fn max(&self) -> u64 {
        self.core.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket upper bound, clamped
    /// to the observed max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let (counts, max) = self.read();
        quantile_of(&counts, max, q)
    }

    /// Summarize from **one** read of the buckets, so a snapshot taken
    /// while writers run is internally consistent: `count` is the sum of
    /// the bucket counts the percentiles were derived from, and all three
    /// percentiles clamp to the same `max` (`p50 <= p90 <= p99 <= max`).
    /// `sum` is read separately and may run a few observations ahead.
    pub fn snapshot(&self, name: String) -> HistogramSnapshot {
        let (counts, max) = self.read();
        HistogramSnapshot {
            name,
            count: counts.iter().sum(),
            sum: self.sum(),
            max,
            p50: quantile_of(&counts, max, 0.50),
            p90: quantile_of(&counts, max, 0.90),
            p99: quantile_of(&counts, max, 0.99),
        }
    }

    /// One pass over the buckets plus the max to clamp against. `record`
    /// bumps its bucket before it raises `max`, so the max read here can
    /// lag a bucket already counted; it is raised to the lower bound of
    /// the highest non-empty bucket, which every value in it reached.
    fn read(&self) -> ([u64; HISTOGRAM_BUCKETS], u64) {
        let counts = self.buckets();
        let highest = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        (counts, self.max().max(bucket_lower(highest)))
    }

    /// Raw bucket counts (index = `floor(log2(v)) + 1`).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.core.buckets[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        // Clones share the cell.
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn bucket_mapping_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let h = Histogram::new();
        // 100 observations: 1..=100 µs.
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // p50 of 1..=100 is 50; the covering bucket [32, 64) reports 63.
        let p50 = h.quantile(0.50);
        assert!((50..=63).contains(&p50), "p50 {p50}");
        // p99 lands in [64, 128) → reports 100 (clamped to max).
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn snapshot_stays_ordered_when_max_lags_a_counted_bucket() {
        // A writer caught between its bucket increment and its max update:
        // the bucket [512, 1024) is counted, `max` still says 40.
        let h = Histogram::new();
        h.record(40);
        h.core.buckets[bucket_of(700)].fetch_add(1, Ordering::Relaxed);
        let s = h.snapshot("lat_us".into());
        assert_eq!(s.count, 2, "count comes from the same bucket read");
        assert_eq!(s.max, 512, "raised to the highest counted bucket's lower bound");
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max, "{s:?}");
        assert_eq!(s.p99, 512);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn zero_observations_land_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.quantile(0.5), 0);
    }
}
