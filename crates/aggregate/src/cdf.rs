//! Empirical cumulative distribution functions.
//!
//! Every panel of the paper's Figure 1 is a CDF ("cumulative fraction of
//! entities" / "of queries" against a log-scaled count axis); this type
//! computes, evaluates, and exports them.

/// An empirical CDF over `f64` samples.
///
/// ```
/// use orsp_aggregate::EmpiricalCdf;
/// let cdf = EmpiricalCdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(cdf.median(), Some(3.0));
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Build from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> EmpiricalCdf {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(|a, b| a.total_cmp(b));
        EmpiricalCdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True iff no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        Some(self.sorted[idx])
    }

    /// The median, `None` if empty.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Mean of the samples.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Export `(x, cumulative fraction)` points at each distinct sample —
    /// the series a plotting tool would draw.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &v) in self.sorted.iter().enumerate() {
            let frac = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 = frac,
                _ => out.push((v, frac)),
            }
        }
        out
    }

    /// Evaluate the CDF at log-spaced x values from `start` doubling up to
    /// `end` — matching the paper's log-scale x axes (1, 4, 16, 64, ...).
    pub fn log_series(&self, start: f64, end: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut x = start.max(f64::MIN_POSITIVE);
        while x <= end {
            out.push((x, self.fraction_at_or_below(x)));
            x *= 2.0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fractions_and_median() {
        let cdf = EmpiricalCdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(3.0), 0.6);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(cdf.median(), Some(3.0));
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(5.0));
        assert_eq!(cdf.mean(), Some(3.0));
    }

    #[test]
    fn empty_cdf() {
        let cdf = EmpiricalCdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert!(cdf.median().is_none());
    }

    #[test]
    fn nan_samples_dropped() {
        let cdf = EmpiricalCdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn points_deduplicate_x() {
        let cdf = EmpiricalCdf::new(vec![1.0, 1.0, 2.0]);
        assert_eq!(cdf.points(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn log_series_doubles() {
        let cdf = EmpiricalCdf::new((1..=100).map(|i| i as f64).collect());
        let series = cdf.log_series(1.0, 64.0);
        let xs: Vec<f64> = series.iter().map(|p| p.0).collect();
        assert_eq!(xs, vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]);
        assert_eq!(series.last().unwrap().1, 0.64);
    }

    proptest! {
        #[test]
        fn cdf_is_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let cdf = EmpiricalCdf::new(samples);
            let mut prev = 0.0;
            for x in [-1e7, -100.0, 0.0, 100.0, 1e7] {
                let f = cdf.fraction_at_or_below(x);
                prop_assert!(f >= prev);
                prop_assert!((0.0..=1.0).contains(&f));
                prev = f;
            }
        }

        #[test]
        fn quantiles_are_ordered(samples in proptest::collection::vec(-1e6f64..1e6, 5..200)) {
            let cdf = EmpiricalCdf::new(samples);
            let q1 = cdf.quantile(0.25).unwrap();
            let q2 = cdf.quantile(0.5).unwrap();
            let q3 = cdf.quantile(0.75).unwrap();
            prop_assert!(q1 <= q2 && q2 <= q3);
        }
    }
}
