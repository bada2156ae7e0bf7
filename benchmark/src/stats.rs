//! Order statistics and the small JSON writer the reports use.
//!
//! Percentiles are nearest-rank over a sorted sample. A percentile is
//! *supported* only when at least ten samples lie beyond it
//! (choosing-metrics §1): with fewer, the figure is one or two outliers,
//! not a tail.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample (`q` in 0..=1).
/// An empty sample reads 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// True when at least [`MIN_BEYOND`] samples lie strictly beyond the
/// `q`-th percentile's rank.
pub fn supported(n: usize, q: f64) -> bool {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + MIN_BEYOND
}

/// The highest of the usual percentiles the sample supports (the median
/// is always reported).
pub fn highest_supported(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|&q| supported(n, q))
        .unwrap_or(0.5)
}

/// Median of an unsorted float sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

/// A latency sample in nanoseconds, sorted once, read many times.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    sorted: Vec<u64>,
}

impl Sample {
    /// Sort `values` into a sample.
    pub fn new(mut values: Vec<u64>) -> Sample {
        values.sort_unstable();
        Sample { sorted: values }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `q`-th percentile in the sample's own unit.
    pub fn p(&self, q: f64) -> u64 {
        percentile(&self.sorted, q)
    }

    /// `q`-th percentile of a nanosecond sample, in milliseconds.
    pub fn ms(&self, q: f64) -> f64 {
        self.p(q) as f64 / 1e6
    }

    /// `q`-th percentile of a nanosecond sample, in microseconds.
    pub fn us(&self, q: f64) -> f64 {
        self.p(q) as f64 / 1e3
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }

    /// Mean observation.
    pub fn mean(&self) -> f64 {
        mean(&self.sorted)
    }
}

/// Escape a string for a JSON document.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON: every digit the measurement has, never `NaN`/`inf`
/// (JSON has neither; a non-finite value is a bug upstream, shown as -1).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_arrays() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 samples has exactly 10 beyond rank 190.
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        // p99 needs 1000.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(!supported(0, 0.5));
        assert_eq!(highest_supported(15), 0.5);
        assert_eq!(highest_supported(100), 0.9);
        assert_eq!(highest_supported(250), 0.95);
        assert_eq!(highest_supported(5_000), 0.99);
        assert_eq!(highest_supported(10_000), 0.999);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "-1");
    }
}
