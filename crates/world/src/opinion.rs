//! The ground-truth opinion model.
//!
//! A user's *true* opinion of an entity is a latent value the RSP never
//! observes directly — it is what the inference engine (and, for the
//! reviewer minority, the explicit review) tries to recover. We model it
//! as the entity's latent quality plus a stable per-(user, entity) taste
//! offset, clamped to the rating scale.
//!
//! The offset is derived deterministically from (seed, user, entity), so
//! the same world always holds the same opinions regardless of the order
//! in which they are queried.

use crate::entity::Entity;
use crate::user::User;
use orsp_types::rng::derive_seed_indexed;
use orsp_types::{rng, Rating};
use rand::Rng;

/// Deterministic ground-truth opinions for one world.
#[derive(Debug, Clone)]
pub struct OpinionModel {
    seed: u64,
    /// Std-dev of per-(user, entity) taste offsets.
    taste_sigma: f64,
}

impl OpinionModel {
    /// Build the opinion model for a world seed.
    pub fn new(seed: u64) -> Self {
        OpinionModel { seed, taste_sigma: 0.7 }
    }

    /// The user's true opinion of the entity, in `[0, 5]`.
    ///
    /// Dietary-restricted users penalize restaurants that cannot cater to
    /// them — they may still *frequent* such a place out of necessity,
    /// which is precisely the uncertainty §4.1 warns about.
    pub fn true_rating(&self, user: &User, entity: &Entity) -> Rating {
        let taste = self.taste_offset(user, entity);
        let mut value = entity.quality + taste;
        if user.persona.dietary_restricted
            && matches!(entity.category, orsp_types::Category::Restaurant(_))
            && !entity.attributes.dietary_friendly
        {
            value -= 1.0;
        }
        Rating::new(value)
    }

    /// The stable taste offset for (user, entity): approximately
    /// `N(0, taste_sigma)` via a deterministic draw.
    fn taste_offset(&self, user: &User, entity: &Entity) -> f64 {
        let child = derive_seed_indexed(self.seed, "opinion", user.id.raw());
        let mut r = rng::rng_for_indexed(child, "entity", entity.id.raw());
        // Box-Muller from two uniform draws.
        let u1: f64 = r.gen_range(f64::EPSILON..1.0);
        let u2: f64 = r.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        z * self.taste_sigma
    }

    /// A noisy *expressed* rating (what a reviewer actually posts): the
    /// true rating plus review noise, rounded to whole stars like real
    /// review widgets.
    pub fn expressed_rating<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        user: &User,
        entity: &Entity,
    ) -> Rating {
        let true_r = self.true_rating(user, entity);
        let noise: f64 = rng.gen_range(-0.5..0.5);
        Rating::stars((true_r.value() + noise).round().clamp(0.0, 5.0) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityAttributes;
    use crate::persona::{Persona, ReviewerClass};
    use orsp_types::{Category, Cuisine, DeviceId, EntityId, GeoPoint, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn user(id: u64, dietary: bool) -> User {
        User {
            id: UserId::new(id),
            device: DeviceId::new(id),
            home: GeoPoint::ORIGIN,
            work: GeoPoint::ORIGIN,
            zipcode: 1,
            persona: Persona {
                reviewer: ReviewerClass::Silent,
                explorer: 0.5,
                outings_per_week: 1.0,
                travel_tolerance_m: 1_000.0,
                dietary_restricted: dietary,
                gregariousness: 0.5,
                quality_weight: 1.0,
                service_needs_per_year: 1.0,
            },
        }
    }

    fn restaurant(id: u64, quality: f64, dietary_friendly: bool) -> Entity {
        Entity {
            id: EntityId::new(id),
            name: format!("R{id}"),
            category: Category::Restaurant(Cuisine::Italian),
            location: GeoPoint::ORIGIN,
            zipcode: 1,
            quality,
            attributes: EntityAttributes { dietary_friendly, ..Default::default() },
            phone: 0,
        }
    }

    #[test]
    fn true_rating_is_deterministic() {
        let m = OpinionModel::new(99);
        let u = user(1, false);
        let e = restaurant(1, 4.0, true);
        assert_eq!(m.true_rating(&u, &e), m.true_rating(&u, &e));
    }

    #[test]
    fn quality_dominates_on_average() {
        let m = OpinionModel::new(7);
        let good = restaurant(1, 4.5, true);
        let bad = restaurant(2, 1.5, true);
        let n = 500;
        let mean_good: f64 =
            (0..n).map(|i| m.true_rating(&user(i, false), &good).value()).sum::<f64>() / n as f64;
        let mean_bad: f64 =
            (0..n).map(|i| m.true_rating(&user(i, false), &bad).value()).sum::<f64>() / n as f64;
        assert!(mean_good - mean_bad > 2.0, "good {mean_good} vs bad {mean_bad}");
    }

    #[test]
    fn taste_varies_across_users() {
        let m = OpinionModel::new(7);
        let e = restaurant(1, 3.0, true);
        let ratings: Vec<f64> =
            (0..50).map(|i| m.true_rating(&user(i, false), &e).value()).collect();
        let distinct = ratings
            .iter()
            .map(|r| (r * 1000.0) as i64)
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > 30, "taste offsets should differ: {distinct} distinct");
    }

    #[test]
    fn dietary_penalty_applies() {
        let m = OpinionModel::new(7);
        let e = restaurant(1, 3.0, false);
        // Same user id ⇒ same taste offset; only the dietary flag differs.
        let with = m.true_rating(&user(1, true), &e).value();
        let without = m.true_rating(&user(1, false), &e).value();
        assert!(without - with > 0.9, "penalty missing: {without} vs {with}");
    }

    #[test]
    fn expressed_rating_is_whole_stars_near_truth() {
        let m = OpinionModel::new(7);
        let mut rng = StdRng::seed_from_u64(1);
        let u = user(1, false);
        let e = restaurant(1, 4.0, true);
        let truth = m.true_rating(&u, &e).value();
        for _ in 0..50 {
            let expressed = m.expressed_rating(&mut rng, &u, &e).value();
            assert_eq!(expressed.fract(), 0.0, "whole stars");
            assert!((expressed - truth).abs() <= 1.5);
        }
    }

    #[test]
    fn different_seeds_different_opinions() {
        let a = OpinionModel::new(1);
        let b = OpinionModel::new(2);
        let u = user(1, false);
        let e = restaurant(1, 3.0, true);
        // Not guaranteed unequal for every pair, but these seeds differ.
        assert_ne!(a.true_rating(&u, &e), b.true_rating(&u, &e));
    }
}
