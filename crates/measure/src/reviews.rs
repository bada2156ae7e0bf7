//! Review-count distributions, calibrated per service.
//!
//! Review counts on real services are famously heavy-tailed; a discretized
//! log-normal reproduces both the medians and the upper-tail fractions the
//! paper reports. Parameters were fitted so that:
//!
//! * the median review count matches Fig 1(a) (Yelp 25, Angie's 8,
//!   Healthgrades 5), and
//! * the fraction of entities with ≥50 reviews implies Fig 1(b)'s median
//!   per-query counts given each service's typical result-set size
//!   (Yelp ~22%, Angie's ~9%, Healthgrades ~1%).

use orsp_types::ServiceKind;
use rand::Rng;

/// A discretized log-normal review-count generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReviewDistribution {
    /// Median review count (the log-normal's `exp(mu)`).
    pub median: f64,
    /// Log-space standard deviation.
    pub sigma: f64,
}

impl ReviewDistribution {
    /// The calibrated distribution for a review service.
    pub fn for_service(service: ServiceKind) -> ReviewDistribution {
        match service {
            // P(X >= 50) = 1 - Phi(ln(50/median)/sigma):
            ServiceKind::Yelp => ReviewDistribution { median: 25.0, sigma: 0.90 }, // ~22%
            ServiceKind::AngiesList => ReviewDistribution { median: 8.0, sigma: 1.37 }, // ~9%
            ServiceKind::Healthgrades => ReviewDistribution { median: 5.0, sigma: 0.96 }, // ~0.8%
            ServiceKind::GooglePlay | ServiceKind::YouTube => {
                // Not used for Fig 1(a); see `engagement`.
                ReviewDistribution { median: 30.0, sigma: 1.5 }
            }
        }
    }

    /// Sample one review count.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let z = gaussian(rng);
        let value = (self.median.ln() + self.sigma * z).exp();
        value.floor().min(u32::MAX as f64) as u32
    }

    /// Theoretical fraction of entities at or above a threshold.
    pub fn fraction_at_least(&self, threshold: f64) -> f64 {
        if threshold <= 0.0 {
            return 1.0;
        }
        let z = (threshold / self.median).ln() / self.sigma;
        1.0 - phi(z)
    }
}

/// Standard normal draw (Box–Muller).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Standard normal CDF (Abramowitz–Stegun 7.1.26 via erf approximation).
fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, max error 1.5e-7.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_median(dist: ReviewDistribution, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts: Vec<u32> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        counts.sort_unstable();
        counts[n / 2] as f64
    }

    #[test]
    fn medians_match_calibration_targets() {
        // Paper (Fig 1a): "The median number of reviews is 8, 5, and 25 on
        // Angie's List, Healthgrades, and Yelp."
        let yelp = sample_median(ReviewDistribution::for_service(ServiceKind::Yelp), 20_000, 1);
        let angies =
            sample_median(ReviewDistribution::for_service(ServiceKind::AngiesList), 20_000, 2);
        let hg =
            sample_median(ReviewDistribution::for_service(ServiceKind::Healthgrades), 20_000, 3);
        assert!((20.0..=30.0).contains(&yelp), "yelp median {yelp}");
        assert!((6.0..=10.0).contains(&angies), "angie's median {angies}");
        assert!((3.0..=7.0).contains(&hg), "healthgrades median {hg}");
    }

    #[test]
    fn tail_fractions_are_ordered() {
        let f = |s| ReviewDistribution::for_service(s).fraction_at_least(50.0);
        let yelp = f(ServiceKind::Yelp);
        let angies = f(ServiceKind::AngiesList);
        let hg = f(ServiceKind::Healthgrades);
        assert!(yelp > angies && angies > hg, "{yelp} {angies} {hg}");
        assert!((0.15..0.30).contains(&yelp), "yelp tail {yelp}");
        assert!((0.05..0.15).contains(&angies), "angie's tail {angies}");
        assert!(hg < 0.02, "healthgrades tail {hg}");
    }

    #[test]
    fn theoretical_and_empirical_tails_agree() {
        let dist = ReviewDistribution::for_service(ServiceKind::Yelp);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let empirical =
            (0..n).filter(|_| dist.sample(&mut rng) >= 50).count() as f64 / n as f64;
        let theory = dist.fraction_at_least(50.0);
        assert!(
            (empirical - theory).abs() < 0.02,
            "empirical {empirical} vs theory {theory}"
        );
    }

    #[test]
    fn erf_spot_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!((phi(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn fraction_at_nonpositive_threshold_is_one() {
        let dist = ReviewDistribution::for_service(ServiceKind::Yelp);
        assert_eq!(dist.fraction_at_least(0.0), 1.0);
        assert_eq!(dist.fraction_at_least(-5.0), 1.0);
    }
}
