//! User personas: the behavioural traits that drive activity generation.
//!
//! The paper's root-cause observation is that *"most users largely consume
//! opinions shared by others but seldom post reviews themselves"* (the
//! 1/9/90 rule it cites from Yelp). [`ReviewerClass`] encodes that split;
//! the remaining traits shape how a user chooses, revisits, and travels.

use rand::Rng;

/// How willing a user is to post explicit reviews.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReviewerClass {
    /// Never posts — the silent ~90%.
    Silent,
    /// Posts occasionally — the ~9%.
    Occasional,
    /// Posts often — the ~1% power reviewers.
    Prolific,
}

impl ReviewerClass {
    /// Probability of posting a review after one interaction, given the
    /// world config's base probabilities.
    pub fn review_probability(self, occasional_p: f64, prolific_p: f64) -> f64 {
        match self {
            ReviewerClass::Silent => 0.0,
            ReviewerClass::Occasional => occasional_p,
            ReviewerClass::Prolific => prolific_p,
        }
    }
}

/// Behavioural traits of one user.
#[derive(Debug, Clone, PartialEq)]
pub struct Persona {
    /// Review posting behaviour.
    pub reviewer: ReviewerClass,
    /// Exploration appetite in `[0, 1]`: 0 settles immediately on a good
    /// option, 1 keeps trying alternatives. Drives §4.1's "tried out many
    /// options before settling" feature.
    pub explorer: f64,
    /// Dining-out rate: expected restaurant outings per week.
    pub outings_per_week: f64,
    /// Tolerance for travel, in meters: the user's "effort budget". Users
    /// with larger budgets will travel farther for entities they like —
    /// the paper's key effort signal.
    pub travel_tolerance_m: f64,
    /// Whether the user has dietary restrictions (gates restaurant choice;
    /// §4.1: "a user may frequent a restaurant only because it is one of
    /// the few ... that satisfy the user's dietary restrictions").
    pub dietary_restricted: bool,
    /// Propensity to organize/join group outings, `[0, 1]`.
    pub gregariousness: f64,
    /// Quality sensitivity in `[0.5, 2.0]`: how strongly the user's choice
    /// utility weights experienced quality vs. convenience.
    pub quality_weight: f64,
    /// Rate of *needing* a home-service trade, expected needs per year.
    pub service_needs_per_year: f64,
}

impl Persona {
    /// Sample a persona.
    ///
    /// `reviewer_fraction` / `prolific_fraction` follow the world config;
    /// everything else is drawn from ranges chosen to produce the
    /// heavy-tailed participation the paper measures.
    pub fn sample<R: Rng + ?Sized>(
        rng: &mut R,
        reviewer_fraction: f64,
        prolific_fraction: f64,
    ) -> Self {
        let reviewer = if rng.gen::<f64>() < reviewer_fraction {
            if rng.gen::<f64>() < prolific_fraction {
                ReviewerClass::Prolific
            } else {
                ReviewerClass::Occasional
            }
        } else {
            ReviewerClass::Silent
        };
        Persona {
            reviewer,
            explorer: rng.gen::<f64>().powf(1.5), // skew toward habit
            outings_per_week: 0.3 + rng.gen::<f64>() * 3.0,
            travel_tolerance_m: 800.0 + rng.gen::<f64>() * 7_000.0,
            dietary_restricted: rng.gen::<f64>() < 0.15,
            gregariousness: rng.gen::<f64>(),
            quality_weight: 0.5 + rng.gen::<f64>() * 1.5,
            service_needs_per_year: 0.5 + rng.gen::<f64>() * 3.5,
        }
    }

    /// True iff this user never posts reviews.
    pub fn is_silent(&self) -> bool {
        self.reviewer == ReviewerClass::Silent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn review_probability_by_class() {
        assert_eq!(ReviewerClass::Silent.review_probability(0.1, 0.5), 0.0);
        assert_eq!(ReviewerClass::Occasional.review_probability(0.1, 0.5), 0.1);
        assert_eq!(ReviewerClass::Prolific.review_probability(0.1, 0.5), 0.5);
    }

    #[test]
    fn sampled_fractions_approximate_config() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 10_000;
        let personas: Vec<Persona> =
            (0..n).map(|_| Persona::sample(&mut rng, 0.10, 0.10)).collect();
        let reviewers =
            personas.iter().filter(|p| p.reviewer != ReviewerClass::Silent).count() as f64;
        let prolific =
            personas.iter().filter(|p| p.reviewer == ReviewerClass::Prolific).count() as f64;
        let frac_rev = reviewers / n as f64;
        let frac_pro = prolific / n as f64;
        assert!((0.08..0.12).contains(&frac_rev), "reviewer fraction {frac_rev}");
        assert!((0.005..0.02).contains(&frac_pro), "prolific fraction {frac_pro}");
    }

    #[test]
    fn sampled_traits_in_range() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..1_000 {
            let p = Persona::sample(&mut rng, 0.1, 0.1);
            assert!((0.0..=1.0).contains(&p.explorer));
            assert!(p.outings_per_week > 0.0);
            assert!(p.travel_tolerance_m >= 800.0);
            assert!((0.0..=1.0).contains(&p.gregariousness));
            assert!((0.5..=2.0).contains(&p.quality_weight));
            assert!(p.service_needs_per_year > 0.0);
        }
    }

    #[test]
    fn explorer_skews_toward_habit() {
        let mut rng = StdRng::seed_from_u64(13);
        let mean: f64 =
            (0..5_000).map(|_| Persona::sample(&mut rng, 0.1, 0.1).explorer).sum::<f64>() / 5_000.0;
        assert!(mean < 0.5, "power-law-ish skew expected, mean={mean}");
    }
}
