//! World-generation configuration.

use orsp_types::SimDuration;

/// All knobs for world generation, in one place. Defaults produce a small
/// city suitable for unit tests; benches scale the counts up.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every stream in the world derives from it.
    pub seed: u64,
    /// Number of zipcode neighbourhoods.
    pub num_zipcodes: usize,
    /// Residents per zipcode.
    pub users_per_zipcode: usize,
    /// Restaurants per cuisine per zipcode (before popularity skew).
    pub restaurants_per_cuisine_per_zip: usize,
    /// Doctors per specialty per zipcode.
    pub doctors_per_specialty_per_zip: usize,
    /// Service providers per trade per zipcode.
    pub providers_per_trade_per_zip: usize,
    /// Radius of each zipcode disk, meters.
    pub zipcode_radius_m: f64,
    /// Spacing between zipcode centers, meters.
    pub zipcode_spacing_m: f64,
    /// Total simulated span of activity.
    pub horizon: SimDuration,
    /// Fraction of users who ever write reviews (the paper's root cause:
    /// "most users largely consume opinions shared by others but seldom
    /// post reviews themselves"; Yelp's 1/9/90 rule).
    pub reviewer_fraction: f64,
    /// Among reviewers, fraction who are prolific (the "1" of 1/9/90).
    pub prolific_fraction: f64,
    /// Probability a reviewer posts after any given interaction.
    pub review_prob_per_interaction: f64,
    /// Probability a prolific reviewer posts after any given interaction.
    pub prolific_review_prob: f64,
    /// Probability a restaurant outing is a group outing.
    pub group_outing_prob: f64,
    /// Mean size of a group outing (>= 2).
    pub group_size_mean: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0xC0FFEE,
            num_zipcodes: 2,
            users_per_zipcode: 120,
            restaurants_per_cuisine_per_zip: 6,
            doctors_per_specialty_per_zip: 5,
            providers_per_trade_per_zip: 3,
            zipcode_radius_m: 3_000.0,
            zipcode_spacing_m: 9_000.0,
            horizon: SimDuration::days(730),
            reviewer_fraction: 0.10,
            prolific_fraction: 0.10,
            review_prob_per_interaction: 0.08,
            prolific_review_prob: 0.35,
            group_outing_prob: 0.25,
            group_size_mean: 3.0,
        }
    }
}

impl WorldConfig {
    /// A tiny world for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            num_zipcodes: 1,
            users_per_zipcode: 40,
            restaurants_per_cuisine_per_zip: 3,
            doctors_per_specialty_per_zip: 2,
            providers_per_trade_per_zip: 1,
            horizon: SimDuration::days(365),
            ..Self::default()
        }
    }

    /// A mid-sized city for integration tests and examples.
    pub fn city(seed: u64) -> Self {
        WorldConfig {
            seed,
            num_zipcodes: 4,
            users_per_zipcode: 400,
            restaurants_per_cuisine_per_zip: 8,
            doctors_per_specialty_per_zip: 6,
            providers_per_trade_per_zip: 4,
            horizon: SimDuration::days(1_095),
            ..Self::default()
        }
    }

    /// Validate ranges; returns an error naming the offending field.
    pub fn validate(&self) -> orsp_types::Result<()> {
        use orsp_types::OrspError::InvalidConfig;
        if self.num_zipcodes == 0 {
            return Err(InvalidConfig("num_zipcodes must be >= 1".into()));
        }
        if self.users_per_zipcode == 0 {
            return Err(InvalidConfig("users_per_zipcode must be >= 1".into()));
        }
        if self.horizon <= SimDuration::ZERO {
            return Err(InvalidConfig("horizon must be positive".into()));
        }
        for (name, v) in [
            ("reviewer_fraction", self.reviewer_fraction),
            ("prolific_fraction", self.prolific_fraction),
            ("review_prob_per_interaction", self.review_prob_per_interaction),
            ("prolific_review_prob", self.prolific_review_prob),
            ("group_outing_prob", self.group_outing_prob),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(InvalidConfig(format!("{name} must be in [0,1], got {v}")));
            }
        }
        if self.group_size_mean < 2.0 {
            return Err(InvalidConfig("group_size_mean must be >= 2".into()));
        }
        if self.zipcode_radius_m <= 0.0 || self.zipcode_spacing_m <= 0.0 {
            return Err(InvalidConfig("zipcode geometry must be positive".into()));
        }
        Ok(())
    }

    /// Total users in the world.
    pub fn total_users(&self) -> usize {
        self.num_zipcodes * self.users_per_zipcode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        WorldConfig::default().validate().unwrap();
        WorldConfig::tiny(1).validate().unwrap();
        WorldConfig::city(1).validate().unwrap();
    }

    #[test]
    fn invalid_fractions_rejected() {
        let mut c = WorldConfig::default();
        c.reviewer_fraction = 1.5;
        assert!(c.validate().is_err());
        c.reviewer_fraction = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_sizes_rejected() {
        let mut c = WorldConfig::default();
        c.num_zipcodes = 0;
        assert!(c.validate().is_err());
        let mut c = WorldConfig::default();
        c.users_per_zipcode = 0;
        assert!(c.validate().is_err());
        let mut c = WorldConfig::default();
        c.horizon = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn total_users_multiplies() {
        let c = WorldConfig { num_zipcodes: 3, users_per_zipcode: 10, ..Default::default() };
        assert_eq!(c.total_users(), 30);
    }
}
