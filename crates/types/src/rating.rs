//! Ratings and opinion summaries.
//!
//! The paper's "effort is endorsement" classifier (§4.1) "outputs a
//! numerical rating between 0 and 5 or declares it infeasible to accurately
//! gauge the user's opinion". [`Rating`] is that 0–5 value; a
//! [`StarHistogram`] is the per-entity aggregate the RSP publishes so that
//! "no information about any individual user is revealed" (§4.2).

use std::fmt;

/// A rating in `[0.0, 5.0]`. Construction clamps into range, so a `Rating`
/// is always valid by construction.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rating(f64);

impl Rating {
    /// The minimum rating.
    pub const MIN: Rating = Rating(0.0);
    /// The maximum rating.
    pub const MAX: Rating = Rating(5.0);

    /// Construct, clamping into `[0, 5]`. NaN becomes the midpoint 2.5 so
    /// a `Rating` never carries a NaN.
    ///
    /// ```
    /// use orsp_types::Rating;
    /// assert_eq!(Rating::new(7.2).value(), 5.0);
    /// assert_eq!(Rating::new(-1.0).value(), 0.0);
    /// assert!(Rating::new(4.0).is_positive());
    /// ```
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            Rating(2.5)
        } else {
            Rating(value.clamp(0.0, 5.0))
        }
    }

    /// Construct from whole stars (clamped to `0..=5`).
    pub fn stars(stars: u8) -> Self {
        Rating::new(stars as f64)
    }

    /// The underlying value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The nearest whole-star bucket, `0..=5`.
    pub fn rounded_stars(self) -> u8 {
        self.0.round() as u8
    }

    /// True iff this rating indicates endorsement (>= 3.5 stars).
    pub fn is_positive(self) -> bool {
        self.0 >= 3.5
    }

    /// Absolute error against another rating.
    pub fn abs_error(self, other: Rating) -> f64 {
        (self.0 - other.0).abs()
    }
}

impl fmt::Display for Rating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}★", self.0)
    }
}

/// A histogram of ratings bucketed into whole stars 0–5: the
/// privacy-preserving aggregate the RSP exports (§4.2 "histograms of
/// inferred ratings").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StarHistogram {
    counts: [u64; 6],
}

impl StarHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one rating.
    pub fn add(&mut self, rating: Rating) {
        self.counts[rating.rounded_stars().min(5) as usize] += 1;
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &StarHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Total number of ratings.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count in a given star bucket (`0..=5`).
    pub fn count(&self, stars: u8) -> u64 {
        self.counts[(stars.min(5)) as usize]
    }

    /// Mean rating, or `None` if empty.
    pub fn mean(&self) -> Option<Rating> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let sum: f64 =
            self.counts.iter().enumerate().map(|(stars, &n)| stars as f64 * n as f64).sum();
        Some(Rating::new(sum / total as f64))
    }

    /// Fraction of ratings that are positive (4–5 stars), or `None` if
    /// empty.
    pub fn positive_fraction(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        Some((self.counts[4] + self.counts[5]) as f64 / total as f64)
    }

    /// Iterate `(stars, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        self.counts.iter().enumerate().map(|(s, &n)| (s as u8, n))
    }

    /// The raw per-star counts (index = stars), e.g. for wire encoding.
    pub fn counts(&self) -> [u64; 6] {
        self.counts
    }

    /// Rebuild a histogram from raw per-star counts (the inverse of
    /// [`Self::counts`], e.g. off a wire message).
    pub fn from_counts(counts: [u64; 6]) -> Self {
        StarHistogram { counts }
    }
}

impl fmt::Display for StarHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (stars, count) in self.iter() {
            if stars > 0 {
                write!(f, " ")?;
            }
            write!(f, "{stars}★:{count}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Rating> for StarHistogram {
    fn from_iter<I: IntoIterator<Item = Rating>>(iter: I) -> Self {
        let mut h = StarHistogram::new();
        for r in iter {
            h.add(r);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rating_clamps() {
        assert_eq!(Rating::new(-1.0).value(), 0.0);
        assert_eq!(Rating::new(9.0).value(), 5.0);
        assert_eq!(Rating::new(3.2).value(), 3.2);
        assert_eq!(Rating::new(f64::NAN).value(), 2.5);
    }

    #[test]
    fn rating_stars_and_rounding() {
        assert_eq!(Rating::stars(4).value(), 4.0);
        assert_eq!(Rating::stars(200).value(), 5.0);
        assert_eq!(Rating::new(3.5).rounded_stars(), 4);
        assert_eq!(Rating::new(3.49).rounded_stars(), 3);
    }

    #[test]
    fn positivity_threshold() {
        assert!(Rating::new(3.5).is_positive());
        assert!(!Rating::new(3.49).is_positive());
    }

    #[test]
    fn histogram_mean_matches_hand_computation() {
        let h: StarHistogram =
            [Rating::stars(5), Rating::stars(5), Rating::stars(2)].into_iter().collect();
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(5), 2);
        assert_eq!(h.count(2), 1);
        assert!((h.mean().unwrap().value() - 4.0).abs() < 1e-12);
        assert!((h.positive_fraction().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_has_no_mean() {
        let h = StarHistogram::new();
        assert_eq!(h.total(), 0);
        assert!(h.mean().is_none());
        assert!(h.positive_fraction().is_none());
    }

    #[test]
    fn merge_adds_counts() {
        let a: StarHistogram = [Rating::stars(1)].into_iter().collect();
        let mut b: StarHistogram = [Rating::stars(5)].into_iter().collect();
        b.merge(&a);
        assert_eq!(b.total(), 2);
        assert_eq!(b.count(1), 1);
        assert_eq!(b.count(5), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Rating::new(4.25).to_string(), "4.2★");
        let h: StarHistogram = [Rating::stars(3)].into_iter().collect();
        assert_eq!(h.to_string(), "[0★:0 1★:0 2★:0 3★:1 4★:0 5★:0]");
    }

    proptest! {
        #[test]
        fn rating_always_in_range(v in proptest::num::f64::ANY) {
            let r = Rating::new(v);
            prop_assert!((0.0..=5.0).contains(&r.value()));
        }

        #[test]
        fn histogram_total_equals_inputs(ratings in proptest::collection::vec(0.0f64..=5.0, 0..100)) {
            let h: StarHistogram = ratings.iter().map(|&v| Rating::new(v)).collect();
            prop_assert_eq!(h.total(), ratings.len() as u64);
            if let Some(m) = h.mean() {
                prop_assert!((0.0..=5.0).contains(&m.value()));
            }
        }

        #[test]
        fn merge_is_commutative(
            a in proptest::collection::vec(0u8..=5, 0..50),
            b in proptest::collection::vec(0u8..=5, 0..50),
        ) {
            let ha: StarHistogram = a.iter().map(|&s| Rating::stars(s)).collect();
            let hb: StarHistogram = b.iter().map(|&s| Rating::stars(s)).collect();
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ba = hb.clone();
            ba.merge(&ha);
            prop_assert_eq!(ab, ba);
        }
    }
}
