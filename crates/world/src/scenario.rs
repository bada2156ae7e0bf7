//! Canned scenarios, most importantly the three-dentist setup behind
//! Figure 3 of the paper.
//!
//! Fig. 3(a) compares histograms of visits-per-user across dentists A, B,
//! and C: *"dentist A has very few repeat patients compared to dentists B
//! and C"*. Fig. 3(b) then disambiguates B from C: *"the average distance
//! travelled is more strongly correlated with the number of visits for
//! dentist B than dentist C"* — B's repeat patients go out of their way
//! (endorsement), C's repeats are a captive nearby population
//! (convenience).
//!
//! The scenario encodes those three regimes directly:
//!
//! * **A** — low quality: most patients come once and never return;
//! * **B** — high quality: patients return repeatedly *and* travel far,
//!   the more loyal the farther (they moved clinics toward B by choice);
//! * **C** — mediocre but the only convenient option for a dense nearby
//!   block: plenty of repeats, all short-haul, no distance–visits
//!   correlation.

use crate::config::WorldConfig;
use crate::entity::{Entity, EntityAttributes};
use crate::events::{ActivityEvent, ActivityKind};
use crate::opinion::OpinionModel;
use crate::persona::Persona;
use crate::sim::World;
use crate::user::User;
use orsp_types::rng::{rng_for, rng_for_indexed};
use orsp_types::{
    Category, DeviceId, EntityId, GeoPoint, SimDuration, Specialty, Timestamp, UserId, Zipcode,
};
use rand::Rng;

/// The three dentists of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig3Dentists {
    /// Dentist A: few repeat patients.
    pub a: EntityId,
    /// Dentist B: repeats driven by endorsement (high travel effort).
    pub b: EntityId,
    /// Dentist C: repeats driven by convenience (low travel effort).
    pub c: EntityId,
}

/// A generated Fig. 3 scenario: a world whose trace contains the three
/// dentists' patient populations.
#[derive(Debug, Clone)]
pub struct Fig3Scenario {
    /// The world (only dentists + their patients).
    pub world: World,
    /// Which entities are the three dentists.
    pub dentists: Fig3Dentists,
}

/// Number of patients generated per dentist.
pub const FIG3_PATIENTS_PER_DENTIST: usize = 120;

/// Build the Figure 3 scenario.
pub fn fig3_scenario(seed: u64) -> Fig3Scenario {
    let _ = rng_for(seed, "fig3"); // reserved for future scenario randomness
    let zip = Zipcode::new(48104, GeoPoint::ORIGIN, 6_000.0, 50_000);
    let spec = Category::Doctor(Specialty::Dentist);

    let make_dentist = |id: u64, name: &str, quality: f64, loc: GeoPoint| Entity {
        id: EntityId::new(id),
        name: name.to_string(),
        category: spec,
        location: loc,
        zipcode: zip.code,
        quality,
        attributes: EntityAttributes::default(),
        phone: 5_550_000_000 + id,
    };

    let entities = vec![
        make_dentist(0, "Dentist A", 1.8, GeoPoint::new(-3_000.0, 0.0)),
        make_dentist(1, "Dentist B", 4.7, GeoPoint::new(0.0, 3_000.0)),
        make_dentist(2, "Dentist C", 2.9, GeoPoint::new(3_000.0, -1_000.0)),
    ];
    let dentists = Fig3Dentists { a: EntityId::new(0), b: EntityId::new(1), c: EntityId::new(2) };

    let mut users = Vec::new();
    let mut events = Vec::new();
    let horizon = SimDuration::days(5 * 365);

    let add_patient = |users: &mut Vec<User>, home: GeoPoint, rng: &mut rand::rngs::StdRng| {
        let id = UserId::new(users.len() as u64);
        users.push(User {
            id,
            device: DeviceId::new(id.raw()),
            home,
            work: home.offset(rng.gen_range(-2_000.0..2_000.0), rng.gen_range(-2_000.0..2_000.0)),
            zipcode: zip.code,
            persona: Persona::sample(rng, 0.1, 0.1),
        });
        id
    };

    let visit = |events: &mut Vec<ActivityEvent>,
                 user: UserId,
                 dentist: EntityId,
                 t: Timestamp,
                 travel: f64,
                 rng: &mut rand::rngs::StdRng| {
        events.push(ActivityEvent {
            user,
            entity: dentist,
            start: t,
            kind: ActivityKind::Visit {
                dwell: SimDuration::minutes(rng.gen_range(30..70)),
                travel_distance_m: travel,
            },
            group: None,
            is_fraud: false,
        });
    };

    // --- Dentist A: one-and-done. Patients come once (new-patient churn),
    // only ~10% grudgingly return a second time.
    for i in 0..FIG3_PATIENTS_PER_DENTIST {
        let mut prng = rng_for_indexed(seed, "fig3-a", i as u64);
        let home = GeoPoint::new(
            -3_000.0 + prng.gen_range(-4_000.0..4_000.0),
            prng.gen_range(-4_000.0..4_000.0),
        );
        let uid = add_patient(&mut users, home, &mut prng);
        let dentist_loc = entities[0].location;
        let travel = home.distance_to(&dentist_loc);
        let t0 = Timestamp::from_seconds(prng.gen_range(0..horizon.as_seconds() / 2));
        visit(&mut events, uid, dentists.a, t0, travel, &mut prng);
        if prng.gen_bool(0.10) {
            let t1 = t0 + SimDuration::days(prng.gen_range(120..360));
            visit(&mut events, uid, dentists.a, t1, travel, &mut prng);
        }
    }

    // --- Dentist B: endorsement loyalty. Visit count correlates with how
    // far the patient willingly travels: the most loyal patients are the
    // ones who keep coming from across town.
    for i in 0..FIG3_PATIENTS_PER_DENTIST {
        let mut prng = rng_for_indexed(seed, "fig3-b", i as u64);
        // Loyalty level 1..=8 visits over 5 years; distance scales with it.
        let visits = 1 + (prng.gen::<f64>().powf(0.8) * 8.0) as usize;
        let base_dist = 800.0 + visits as f64 * 700.0 + prng.gen_range(0.0..600.0);
        let theta = prng.gen::<f64>() * std::f64::consts::TAU;
        let home = entities[1].location.offset(base_dist * theta.cos(), base_dist * theta.sin());
        let uid = add_patient(&mut users, home, &mut prng);
        let mut t = Timestamp::from_seconds(prng.gen_range(0..90 * 86_400));
        for _ in 0..visits {
            let travel = base_dist * prng.gen_range(0.9..1.1);
            visit(&mut events, uid, dentists.b, t, travel, &mut prng);
            t = t + SimDuration::days(prng.gen_range(150..240));
        }
    }

    // --- Dentist C: convenience loyalty. A captive nearby block revisits
    // out of habit; travel distance is short and *independent* of visit
    // count.
    for i in 0..FIG3_PATIENTS_PER_DENTIST {
        let mut prng = rng_for_indexed(seed, "fig3-c", i as u64);
        let visits = 1 + (prng.gen::<f64>().powf(0.8) * 8.0) as usize;
        let base_dist = prng.gen_range(150.0..1_200.0); // always close
        let theta = prng.gen::<f64>() * std::f64::consts::TAU;
        let home = entities[2].location.offset(base_dist * theta.cos(), base_dist * theta.sin());
        let uid = add_patient(&mut users, home, &mut prng);
        let mut t = Timestamp::from_seconds(prng.gen_range(0..90 * 86_400));
        for _ in 0..visits {
            let travel = base_dist * prng.gen_range(0.9..1.1);
            visit(&mut events, uid, dentists.c, t, travel, &mut prng);
            t = t + SimDuration::days(prng.gen_range(150..240));
        }
    }

    events.sort_by_key(|e| (e.start, e.user.raw()));

    let config = WorldConfig { seed, horizon, ..WorldConfig::tiny(seed) };
    let world = World {
        config,
        zipcodes: vec![zip],
        entities,
        users,
        events,
        reviews: Vec::new(),
        opinions: OpinionModel::new(seed),
    };
    Fig3Scenario { world, dentists }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn visits_per_user(s: &Fig3Scenario, dentist: EntityId) -> HashMap<UserId, usize> {
        let mut m = HashMap::new();
        for e in &s.world.events {
            if e.entity == dentist {
                *m.entry(e.user).or_default() += 1;
            }
        }
        m
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = fig3_scenario(5);
        let b = fig3_scenario(5);
        assert_eq!(a.world.events.len(), b.world.events.len());
        assert_eq!(a.world.events.first(), b.world.events.first());
    }

    #[test]
    fn dentist_a_has_few_repeat_patients() {
        let s = fig3_scenario(1);
        let a = visits_per_user(&s, s.dentists.a);
        let b = visits_per_user(&s, s.dentists.b);
        let repeat_frac = |m: &HashMap<UserId, usize>| {
            m.values().filter(|&&v| v >= 2).count() as f64 / m.len() as f64
        };
        assert!(repeat_frac(&a) < 0.2, "A repeat fraction {}", repeat_frac(&a));
        assert!(repeat_frac(&b) > 0.5, "B repeat fraction {}", repeat_frac(&b));
    }

    #[test]
    fn dentist_b_distance_correlates_with_visits_c_does_not() {
        let s = fig3_scenario(2);
        // Per-user (visits, mean travel).
        let per_user = |dentist: EntityId| -> Vec<(f64, f64)> {
            let mut acc: HashMap<UserId, (usize, f64)> = HashMap::new();
            for e in &s.world.events {
                if e.entity == dentist {
                    if let ActivityKind::Visit { travel_distance_m, .. } = e.kind {
                        let ent = acc.entry(e.user).or_default();
                        ent.0 += 1;
                        ent.1 += travel_distance_m;
                    }
                }
            }
            acc.values().map(|&(n, d)| (n as f64, d / n as f64)).collect()
        };
        let pearson = |pts: &[(f64, f64)]| -> f64 {
            let n = pts.len() as f64;
            let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
            let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
            let cov = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
            let sx = pts.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>().sqrt();
            let sy = pts.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>().sqrt();
            cov / (sx * sy)
        };
        let rb = pearson(&per_user(s.dentists.b));
        let rc = pearson(&per_user(s.dentists.c));
        assert!(rb > 0.6, "B correlation {rb}");
        assert!(rc.abs() < 0.35, "C correlation {rc}");
    }

    #[test]
    fn dentist_c_patients_are_close() {
        let s = fig3_scenario(3);
        let mean_travel = |dentist: EntityId| -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for e in &s.world.events {
                if e.entity == dentist {
                    if let ActivityKind::Visit { travel_distance_m, .. } = e.kind {
                        sum += travel_distance_m;
                        n += 1;
                    }
                }
            }
            sum / n as f64
        };
        assert!(mean_travel(s.dentists.c) < 1_500.0);
        assert!(mean_travel(s.dentists.b) > 2_500.0);
    }

    #[test]
    fn all_three_dentists_have_full_populations() {
        let s = fig3_scenario(4);
        for d in [s.dentists.a, s.dentists.b, s.dentists.c] {
            assert_eq!(visits_per_user(&s, d).len(), FIG3_PATIENTS_PER_DENTIST);
        }
        assert_eq!(s.world.users.len(), 3 * FIG3_PATIENTS_PER_DENTIST);
    }

    #[test]
    fn events_sorted() {
        let s = fig3_scenario(6);
        for w in s.world.events.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }
}
