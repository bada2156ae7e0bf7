//! The Fig 1(c) study: explicit vs. implicit interaction on Google Play
//! and YouTube.
//!
//! §2: *"We randomly selected 1000 apps on Google Play and 1000 videos on
//! YouTube. For every selected entity, we crawled the number of users who
//! have explicitly contributed feedback ... and the number who have
//! interacted with the entity. ... the discrepancy ... is more than an
//! order of magnitude."*
//!
//! The generator builds the discrepancy from first principles rather than
//! hard-coding it: popularity is Pareto-distributed (a few blockbusters,
//! a long tail), and each user who interacts leaves explicit feedback
//! with a small per-platform probability (participation inequality — the
//! same 1/9/90 behaviour the world simulator gives its personas).

use orsp_aggregate::EmpiricalCdf;
use orsp_types::rng::rng_for;
use orsp_types::ServiceKind;
use rand::Rng;

/// Sample size per platform, matching the paper.
pub const SAMPLE_SIZE: usize = 1_000;

/// One sampled app or video.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformEntity {
    /// Users who interacted (installed the app / viewed the video).
    pub implicit: u64,
    /// Users who left explicit feedback (review, comment, rating, like).
    pub explicit: u64,
}

impl PlatformEntity {
    /// The implicit : explicit ratio (∞-safe).
    pub fn discrepancy(&self) -> f64 {
        self.implicit as f64 / (self.explicit.max(1)) as f64
    }
}

/// The generated study for one platform.
#[derive(Debug, Clone)]
pub struct EngagementStudy {
    /// Which platform.
    pub platform: ServiceKind,
    /// The sampled entities.
    pub entities: Vec<PlatformEntity>,
}

impl EngagementStudy {
    /// Generate the study. Deterministic per seed.
    pub fn generate(platform: ServiceKind, seed: u64) -> EngagementStudy {
        assert!(
            ServiceKind::INTERACTION_PLATFORMS.contains(&platform),
            "engagement study is for Play/YouTube"
        );
        let mut rng = rng_for(seed, &format!("engagement.{platform}"));
        // Popularity: Pareto with shape ~1.1 over a platform-specific
        // floor. YouTube videos have more views than apps have installs.
        let (floor, shape) = match platform {
            ServiceKind::GooglePlay => (1_000.0, 1.1),
            _ => (5_000.0, 1.05),
        };
        // Feedback propensity: a small per-user probability, itself
        // varying per entity (some content begs for comments).
        let entities = (0..SAMPLE_SIZE)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let implicit = (floor * u.powf(-1.0 / shape)).min(5e8) as u64;
                let propensity = rng.gen_range(0.002..0.04);
                let explicit = ((implicit as f64) * propensity).round() as u64;
                PlatformEntity { implicit, explicit }
            })
            .collect();
        EngagementStudy { platform, entities }
    }

    /// CDF of implicit interaction counts.
    pub fn implicit_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(self.entities.iter().map(|e| e.implicit as f64).collect())
    }

    /// CDF of explicit feedback counts.
    pub fn explicit_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(self.entities.iter().map(|e| e.explicit as f64).collect())
    }

    /// Median per-entity discrepancy ratio.
    pub fn median_discrepancy(&self) -> f64 {
        EmpiricalCdf::new(self.entities.iter().map(|e| e.discrepancy()).collect())
            .median()
            .unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_has_paper_sample_size() {
        let s = EngagementStudy::generate(ServiceKind::GooglePlay, 1);
        assert_eq!(s.entities.len(), SAMPLE_SIZE);
    }

    #[test]
    fn discrepancy_exceeds_an_order_of_magnitude() {
        // The Fig 1(c) takeaway, for both platforms.
        for platform in ServiceKind::INTERACTION_PLATFORMS {
            let s = EngagementStudy::generate(platform, 3);
            let d = s.median_discrepancy();
            assert!(d >= 10.0, "{platform}: median discrepancy {d}");
            // Medians of the two CDFs are also an order of magnitude
            // apart (the visual form of the figure).
            let mi = s.implicit_cdf().median().unwrap();
            let me = s.explicit_cdf().median().unwrap();
            assert!(mi >= 10.0 * me.max(1.0), "{platform}: {mi} vs {me}");
        }
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let s = EngagementStudy::generate(ServiceKind::YouTube, 5);
        let cdf = s.implicit_cdf();
        let median = cdf.median().unwrap();
        let p99 = cdf.quantile(0.99).unwrap();
        assert!(p99 > 20.0 * median, "blockbusters exist: p99 {p99} vs median {median}");
    }

    #[test]
    fn explicit_never_exceeds_implicit() {
        for platform in ServiceKind::INTERACTION_PLATFORMS {
            let s = EngagementStudy::generate(platform, 7);
            for e in &s.entities {
                assert!(e.explicit <= e.implicit);
            }
        }
    }

    #[test]
    #[should_panic(expected = "engagement study is for Play/YouTube")]
    fn review_services_are_rejected() {
        EngagementStudy::generate(ServiceKind::Yelp, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = EngagementStudy::generate(ServiceKind::GooglePlay, 9);
        let b = EngagementStudy::generate(ServiceKind::GooglePlay, 9);
        assert_eq!(a.entities, b.entities);
    }
}
