//! The activity simulator: turns personas + ground-truth opinions into a
//! multi-year event trace.
//!
//! The generator encodes the behavioural regularities the paper's design
//! leans on, so that each of §4.1's proposed inference features has a real
//! signal to find:
//!
//! * **Effort** — users travel farther, more often, for entities they hold
//!   a high true opinion of (choice utility weighs experienced quality
//!   against distance).
//! * **Explore-then-settle** — users try alternatives early (rate set by
//!   their `explorer` trait) and settle on a favourite; settling on a
//!   choice after exploration is evidence, laziness-loyalty is not.
//! * **Confounds** — the paper's two warnings are simulated faithfully:
//!   a user repeatedly calls a *bad* plumber (callback pattern after a
//!   botched job), and dietary-restricted users frequent restaurants they
//!   don't actually like when few alternatives cater to them.
//! * **Group outings** — gregarious users bring friends; every member
//!   produces an interaction record at the same time/entity under one
//!   [`orsp_types::GroupId`] (§4.1 requires deduplicating these).

use crate::config::WorldConfig;
use crate::entity::{Entity, EntityAttributes};
use crate::events::{ActivityEvent, ActivityKind, Review};
use crate::opinion::OpinionModel;
use crate::persona::Persona;
use crate::user::User;
use orsp_types::rng::{rng_for, rng_for_indexed};
use orsp_types::{
    Category, Cuisine, EntityId, GeoPoint, GroupId, ReviewId, SimDuration, Specialty, Timestamp,
    Trade, UserId, Zipcode,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// A fully generated world: geography, population, ground truth, and the
/// activity trace.
#[derive(Debug, Clone)]
pub struct World {
    /// The configuration it was generated from.
    pub config: WorldConfig,
    /// Zipcode neighbourhoods.
    pub zipcodes: Vec<Zipcode>,
    /// All entities, indexed by position == id.
    pub entities: Vec<Entity>,
    /// All users, indexed by position == id.
    pub users: Vec<User>,
    /// The activity trace, sorted by start time.
    pub events: Vec<ActivityEvent>,
    /// Explicit reviews posted by the reviewer minority.
    pub reviews: Vec<Review>,
    /// Ground-truth opinions.
    pub opinions: OpinionModel,
}

/// Headline statistics of a generated world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldStats {
    /// Number of users.
    pub users: usize,
    /// Number of entities.
    pub entities: usize,
    /// Number of activity events.
    pub events: usize,
    /// Number of explicit reviews.
    pub reviews: usize,
    /// Events per user (mean).
    pub events_per_user: f64,
    /// Fraction of events belonging to group outings.
    pub group_event_fraction: f64,
}

impl World {
    /// Generate a world from a config. Deterministic per config.
    ///
    /// ```
    /// use orsp_world::{World, WorldConfig};
    /// let world = World::generate(WorldConfig::tiny(42)).unwrap();
    /// assert!(!world.events.is_empty());
    /// // Same seed, same world:
    /// let again = World::generate(WorldConfig::tiny(42)).unwrap();
    /// assert_eq!(world.events.len(), again.events.len());
    /// ```
    pub fn generate(config: WorldConfig) -> orsp_types::Result<World> {
        config.validate()?;
        let mut gen = Generator::new(config);
        gen.place_zipcodes();
        gen.place_entities();
        gen.create_users();
        gen.simulate_activity();
        Ok(gen.finish())
    }

    /// Look up an entity by id.
    pub fn entity(&self, id: EntityId) -> Option<&Entity> {
        self.entities.get(id.raw() as usize)
    }

    /// Look up a user by id.
    pub fn user(&self, id: UserId) -> Option<&User> {
        self.users.get(id.raw() as usize)
    }

    /// Entities of one category.
    pub fn entities_in_category(&self, category: Category) -> impl Iterator<Item = &Entity> {
        self.entities.iter().filter(move |e| e.category == category)
    }

    /// Number of *similar options* near an entity (§4.1 feature kind 3).
    pub fn similar_options_near(&self, entity: &Entity, radius_m: f64) -> usize {
        self.entities.iter().filter(|e| entity.is_similar_option(e, radius_m)).count()
    }

    /// Headline statistics.
    pub fn stats(&self) -> WorldStats {
        let group_events = self.events.iter().filter(|e| e.group.is_some()).count();
        WorldStats {
            users: self.users.len(),
            entities: self.entities.len(),
            events: self.events.len(),
            reviews: self.reviews.len(),
            events_per_user: if self.users.is_empty() {
                0.0
            } else {
                self.events.len() as f64 / self.users.len() as f64
            },
            group_event_fraction: if self.events.is_empty() {
                0.0
            } else {
                group_events as f64 / self.events.len() as f64
            },
        }
    }
}

/// Relative frequency weights for how often each trade is needed.
fn trade_weight(trade: Trade) -> f64 {
    match trade {
        Trade::Plumber | Trade::Electrician | Trade::Handyman => 3.0,
        Trade::HouseCleaner | Trade::Hvac | Trade::ApplianceRepair => 2.0,
        Trade::Gardener | Trade::Painter | Trade::Landscaper | Trade::PestControl => 1.5,
        _ => 1.0,
    }
}

struct Generator {
    config: WorldConfig,
    zipcodes: Vec<Zipcode>,
    entities: Vec<Entity>,
    users: Vec<User>,
    events: Vec<ActivityEvent>,
    reviews: Vec<Review>,
    opinions: OpinionModel,
    next_group: u64,
    next_review: u64,
    /// (user, entity) pairs that already have a review (one review per
    /// pair, like real services).
    reviewed: HashMap<(UserId, EntityId), ()>,
}

impl Generator {
    fn new(config: WorldConfig) -> Self {
        let opinions = OpinionModel::new(config.seed);
        Generator {
            config,
            zipcodes: Vec::new(),
            entities: Vec::new(),
            users: Vec::new(),
            events: Vec::new(),
            reviews: Vec::new(),
            opinions,
            next_group: 0,
            next_review: 0,
            reviewed: HashMap::new(),
        }
    }

    fn place_zipcodes(&mut self) {
        let mut rng = rng_for(self.config.seed, "zipcodes");
        let side = (self.config.num_zipcodes as f64).sqrt().ceil() as usize;
        for i in 0..self.config.num_zipcodes {
            let gx = (i % side) as f64;
            let gy = (i / side) as f64;
            let center = GeoPoint::new(
                gx * self.config.zipcode_spacing_m,
                gy * self.config.zipcode_spacing_m,
            );
            let population = rng.gen_range(20_000u32..90_000);
            self.zipcodes.push(Zipcode::new(
                10_000 + i as u32 * 111,
                center,
                self.config.zipcode_radius_m,
                population,
            ));
        }
    }

    /// Uniform random point in a zipcode disk.
    fn point_in_zip(rng: &mut StdRng, zip: &Zipcode) -> GeoPoint {
        let r = zip.radius * rng.gen::<f64>().sqrt();
        let theta = rng.gen::<f64>() * std::f64::consts::TAU;
        zip.center.offset(r * theta.cos(), r * theta.sin())
    }

    /// Latent entity quality: a bimodal-ish mixture — most entities are
    /// middling, a minority are excellent or poor. Gives the inference
    /// engine real variance to recover.
    fn sample_quality(rng: &mut StdRng) -> f64 {
        let roll: f64 = rng.gen();
        if roll < 0.15 {
            rng.gen_range(1.0..2.2) // poor
        } else if roll < 0.85 {
            rng.gen_range(2.2..4.0) // middling
        } else {
            rng.gen_range(4.0..5.0) // excellent
        }
    }

    fn place_entities(&mut self) {
        let mut rng = rng_for(self.config.seed, "entities");
        let zipcodes = self.zipcodes.clone();
        for zip in &zipcodes {
            for &cuisine in Cuisine::ALL {
                for k in 0..self.config.restaurants_per_cuisine_per_zip {
                    self.push_entity(
                        &mut rng,
                        zip,
                        Category::Restaurant(cuisine),
                        format!("{} {} #{}", zip.code, cuisine, k),
                    );
                }
            }
            for &spec in Specialty::ALL {
                for k in 0..self.config.doctors_per_specialty_per_zip {
                    self.push_entity(
                        &mut rng,
                        zip,
                        Category::Doctor(spec),
                        format!("Dr. {} {} #{}", zip.code, spec, k),
                    );
                }
            }
            for &trade in Trade::ALL {
                for k in 0..self.config.providers_per_trade_per_zip {
                    self.push_entity(
                        &mut rng,
                        zip,
                        Category::ServiceProvider(trade),
                        format!("{} {} #{}", zip.code, trade, k),
                    );
                }
            }
        }
    }

    fn push_entity(&mut self, rng: &mut StdRng, zip: &Zipcode, category: Category, name: String) {
        let id = EntityId::new(self.entities.len() as u64);
        let location = Self::point_in_zip(rng, zip);
        self.entities.push(Entity {
            id,
            name,
            category,
            location,
            zipcode: zip.code,
            quality: Self::sample_quality(rng),
            attributes: EntityAttributes {
                price_level: rng.gen_range(1..=4),
                parking: rng.gen_bool(0.7),
                dietary_friendly: rng.gen_bool(0.3),
            },
            phone: 5_550_000_000 + id.raw(),
        });
    }

    fn create_users(&mut self) {
        let mut rng = rng_for(self.config.seed, "users");
        let zipcodes = self.zipcodes.clone();
        for (zi, zip) in zipcodes.iter().enumerate() {
            for _ in 0..self.config.users_per_zipcode {
                let id = UserId::new(self.users.len() as u64);
                let home = Self::point_in_zip(&mut rng, zip);
                // Most users work in their own zipcode; some commute.
                let work_zip = if rng.gen_bool(0.3) && self.zipcodes.len() > 1 {
                    let other = rng.gen_range(0..self.zipcodes.len());
                    &zipcodes[other]
                } else {
                    &zipcodes[zi]
                };
                let work = Self::point_in_zip(&mut rng, work_zip);
                let persona = Persona::sample(
                    &mut rng,
                    self.config.reviewer_fraction,
                    self.config.prolific_fraction,
                );
                self.users.push(User {
                    id,
                    device: orsp_types::DeviceId::new(id.raw()),
                    home,
                    work,
                    zipcode: zip.code,
                    persona,
                });
            }
        }
    }

    fn simulate_activity(&mut self) {
        for ui in 0..self.users.len() {
            self.simulate_user_restaurants(ui);
            self.simulate_user_doctors(ui);
            self.simulate_user_trades(ui);
        }
        self.events.sort_by_key(|e| (e.start, e.user.raw(), e.entity.raw()));
        self.reviews.sort_by_key(|r| r.posted_at);
    }

    /// Candidate entities of a category the user would consider:
    /// within travel tolerance (with slack), dietary-filtered.
    fn candidates(&self, user: &User, category: Category) -> Vec<EntityId> {
        let dietary = user.persona.dietary_restricted;
        let tol = user.persona.travel_tolerance_m * 1.5;
        let mut c: Vec<EntityId> = self
            .entities
            .iter()
            .filter(|e| e.category == category)
            .filter(|e| e.location.distance_to(&user.home) <= tol)
            .filter(|e| {
                !dietary
                    || !matches!(category, Category::Restaurant(_))
                    || e.attributes.dietary_friendly
            })
            .map(|e| e.id)
            .collect();
        // Dietary-restricted users with no compliant options fall back to
        // whatever is nearby (the paper's "few close ... that satisfy the
        // user's dietary restrictions" confound).
        if c.is_empty() && dietary {
            c = self
                .entities
                .iter()
                .filter(|e| e.category == category)
                .filter(|e| e.location.distance_to(&user.home) <= tol)
                .map(|e| e.id)
                .collect();
        }
        c
    }

    /// Explore-then-settle choice among candidates.
    ///
    /// `known` maps entities to the user's experienced rating. With
    /// probability `explore_p` the user tries something new (or random);
    /// otherwise they pick the best-known option, discounted by distance.
    fn choose_entity(
        &self,
        rng: &mut StdRng,
        user: &User,
        candidates: &[EntityId],
        known: &HashMap<EntityId, f64>,
        visits_so_far: usize,
    ) -> Option<EntityId> {
        if candidates.is_empty() {
            return None;
        }
        // Exploration decays with experience, floored by the explorer trait.
        let decay = 1.0 / (1.0 + visits_so_far as f64 * 0.15);
        let explore_p = (0.15 + 0.6 * user.persona.explorer) * decay + 0.05;
        let unexplored: Vec<EntityId> =
            candidates.iter().copied().filter(|id| !known.contains_key(id)).collect();
        if (!unexplored.is_empty() && rng.gen::<f64>() < explore_p) || known.is_empty() {
            let pool = if unexplored.is_empty() { candidates } else { &unexplored };
            return Some(pool[rng.gen_range(0..pool.len())]);
        }
        // Exploit: maximize experienced quality minus travel cost. The
        // distance coefficient makes travel genuinely binding: going one
        // full travel-tolerance farther must buy ~2.5 stars of quality —
        // this is what puts the "effort is endorsement" signal into the
        // trace (a far entity is only revisited when it is truly liked).
        let mut best: Option<(EntityId, f64)> = None;
        for (&id, &rating) in known {
            // Only candidates for *this* choice (e.g. tonight's cuisine) —
            // the favourite Italian place is not an option on Thai night.
            if !candidates.contains(&id) {
                continue;
            }
            let entity = &self.entities[id.raw() as usize];
            let dist = entity.location.distance_to(&user.home);
            let utility =
                user.persona.quality_weight * rating - 2.5 * dist / user.persona.travel_tolerance_m;
            if best.map_or(true, |(_, u)| utility > u) {
                best = Some((id, utility));
            }
        }
        match best {
            Some((id, _)) => Some(id),
            // Nothing known among these candidates yet: first taste.
            None => Some(candidates[rng.gen_range(0..candidates.len())]),
        }
    }

    fn maybe_review(
        &mut self,
        rng: &mut StdRng,
        user_idx: usize,
        entity_id: EntityId,
        t: Timestamp,
    ) {
        let user = &self.users[user_idx];
        let p = user.persona.reviewer.review_probability(
            self.config.review_prob_per_interaction,
            self.config.prolific_review_prob,
        );
        if p == 0.0 || rng.gen::<f64>() >= p {
            return;
        }
        if self.reviewed.contains_key(&(user.id, entity_id)) {
            return;
        }
        let entity = self.entities[entity_id.raw() as usize].clone();
        let user = self.users[user_idx].clone();
        let rating = self.opinions.expressed_rating(rng, &user, &entity);
        // Reviews are posted some time after the interaction (users must
        // "remember to return to the online service", §2).
        let delay = SimDuration::hours(rng.gen_range(2..96));
        self.reviews.push(Review {
            id: ReviewId::new(self.next_review),
            user: user.id,
            entity: entity_id,
            rating,
            posted_at: t + delay,
        });
        self.next_review += 1;
        self.reviewed.insert((user.id, entity_id), ());
    }

    fn simulate_user_restaurants(&mut self, user_idx: usize) {
        let user = self.users[user_idx].clone();
        let mut rng = rng_for_indexed(self.config.seed, "restaurants", user.id.raw());
        // Users favour 2–3 cuisines.
        let mut cuisines: Vec<Cuisine> = Cuisine::ALL.to_vec();
        for i in (1..cuisines.len()).rev() {
            cuisines.swap(i, rng.gen_range(0..=i));
        }
        let favoured: Vec<Cuisine> = cuisines.into_iter().take(rng.gen_range(2..=3)).collect();
        // Candidate restaurants per favoured cuisine, computed once.
        let candidates_by_cuisine: Vec<Vec<EntityId>> =
            favoured.iter().map(|&c| self.candidates(&user, Category::Restaurant(c))).collect();
        // Local friends, computed once.
        let neighbours: Vec<usize> = (0..self.users.len())
            .filter(|&i| i != user_idx && self.users[i].zipcode == user.zipcode)
            .collect();

        let mut known: HashMap<EntityId, f64> = HashMap::new();
        let mut visits = 0usize;
        let horizon_s = self.config.horizon.as_seconds();
        // Outing inter-arrival ~ exponential around the persona rate.
        let mean_gap_s = (7.0 * 86_400.0) / user.persona.outings_per_week.max(0.05);
        let mut t = (rng.gen::<f64>() * mean_gap_s) as i64;
        while t < horizon_s {
            let ci = rng.gen_range(0..favoured.len());
            let candidates = &candidates_by_cuisine[ci];
            if let Some(entity_id) = self.choose_entity(&mut rng, &user, candidates, &known, visits)
            {
                let day_start = Timestamp::from_seconds(t - t.rem_euclid(86_400));
                // Lunch or dinner.
                let hour = if rng.gen_bool(0.35) {
                    rng.gen_range(11.5..13.5)
                } else {
                    rng.gen_range(18.0..20.5)
                };
                let start = day_start + SimDuration::seconds((hour * 3_600.0) as i64);
                let entity = self.entities[entity_id.raw() as usize].clone();
                let dwell = SimDuration::minutes(rng.gen_range(30..90));
                let is_weekend = start.is_weekend();
                let travel = user.travel_distance_to(&entity.location, hour, is_weekend);

                // Group outing?
                let group = if rng.gen::<f64>()
                    < self.config.group_outing_prob * user.persona.gregariousness * 2.0
                {
                    let gid = GroupId::new(self.next_group);
                    self.next_group += 1;
                    Some(gid)
                } else {
                    None
                };

                self.events.push(ActivityEvent {
                    user: user.id,
                    entity: entity_id,
                    start,
                    kind: ActivityKind::Visit { dwell, travel_distance_m: travel },
                    group,
                    is_fraud: false,
                });
                // Payment accompanies the meal.
                self.events.push(ActivityEvent {
                    user: user.id,
                    entity: entity_id,
                    start: start + dwell,
                    kind: ActivityKind::Payment {
                        amount_cents: (entity.attributes.price_level as u64)
                            * rng.gen_range(800..2_500),
                    },
                    group,
                    is_fraud: false,
                });

                // Friends attend group outings; friendships are local, so
                // friends come from the user's own zipcode.
                if let Some(gid) = group {
                    let size = 1
                        + (rng.gen::<f64>() * (self.config.group_size_mean - 1.0) * 2.0).round()
                            as usize;
                    for _ in 0..size.min(5) {
                        if neighbours.is_empty() {
                            break;
                        }
                        let fi = neighbours[rng.gen_range(0..neighbours.len())];
                        let friend = self.users[fi].clone();
                        let ftravel = friend.travel_distance_to(&entity.location, hour, is_weekend);
                        self.events.push(ActivityEvent {
                            user: friend.id,
                            entity: entity_id,
                            start,
                            kind: ActivityKind::Visit { dwell, travel_distance_m: ftravel },
                            group: Some(gid),
                            is_fraud: false,
                        });
                    }
                }

                // The user learns their true opinion after the visit.
                let experienced = self.opinions.true_rating(&user, &entity).value();
                known.insert(entity_id, experienced);
                visits += 1;
                self.maybe_review(&mut rng, user_idx, entity_id, start + dwell);
            }
            t += (-(rng.gen::<f64>().max(1e-9)).ln() * mean_gap_s) as i64 + 1;
        }
    }

    fn simulate_user_doctors(&mut self, user_idx: usize) {
        let user = self.users[user_idx].clone();
        let mut rng = rng_for_indexed(self.config.seed, "doctors", user.id.raw());
        for &spec in Specialty::ALL {
            let has_need = match spec {
                Specialty::Dentist => true,
                Specialty::FamilyMedicine => rng.gen_bool(0.7),
                Specialty::Pediatrics => rng.gen_bool(0.3),
                Specialty::PlasticSurgery => rng.gen_bool(0.05),
            };
            if !has_need {
                continue;
            }
            let category = Category::Doctor(spec);
            let candidates = self.candidates(&user, category);
            if candidates.is_empty() {
                continue;
            }
            let cadence_days = category.typical_gap_days();
            let mut known: HashMap<EntityId, f64> = HashMap::new();
            let mut current: Option<EntityId> = None;
            let horizon_s = self.config.horizon.as_seconds();
            let mut t = (rng.gen::<f64>() * cadence_days * 86_400.0) as i64;
            let mut visits = 0usize;
            while t < horizon_s {
                // Stay with the current doctor unless dissatisfied.
                let entity_id = match current {
                    Some(id) if known.get(&id).copied().unwrap_or(3.0) >= 2.5 => id,
                    _ => match self.choose_entity(&mut rng, &user, &candidates, &known, visits) {
                        Some(id) => id,
                        None => break,
                    },
                };
                let entity = self.entities[entity_id.raw() as usize].clone();
                let day_start = Timestamp::from_seconds(t - t.rem_euclid(86_400));
                let hour = rng.gen_range(9.0..16.5);
                let start = day_start + SimDuration::seconds((hour * 3_600.0) as i64);
                let dwell = SimDuration::minutes(rng.gen_range(25..75));
                let travel = user.travel_distance_to(&entity.location, hour, start.is_weekend());
                self.events.push(ActivityEvent {
                    user: user.id,
                    entity: entity_id,
                    start,
                    kind: ActivityKind::Visit { dwell, travel_distance_m: travel },
                    group: None,
                    is_fraud: false,
                });
                let experienced = self.opinions.true_rating(&user, &entity).value();
                known.insert(entity_id, experienced);
                current = Some(entity_id);
                visits += 1;
                self.maybe_review(&mut rng, user_idx, entity_id, start + dwell);
                // Next appointment at the cadence ± 25% jitter.
                let jitter = 0.75 + rng.gen::<f64>() * 0.5;
                t += (cadence_days * 86_400.0 * jitter) as i64;
            }
        }
    }

    fn simulate_user_trades(&mut self, user_idx: usize) {
        let user = self.users[user_idx].clone();
        let mut rng = rng_for_indexed(self.config.seed, "trades", user.id.raw());
        let horizon_years = self.config.horizon.as_days_f64() / 365.0;
        let expected_needs = user.persona.service_needs_per_year * horizon_years;
        let needs = {
            // Poisson sample via inversion on small means.
            let lambda = expected_needs.min(60.0);
            let mut k = 0usize;
            let mut p = (-lambda).exp();
            let mut cum = p;
            let roll: f64 = rng.gen();
            while roll > cum && k < 200 {
                k += 1;
                p *= lambda / k as f64;
                cum += p;
            }
            k
        };
        let weights: Vec<f64> = Trade::ALL.iter().map(|&t| trade_weight(t)).collect();
        let weight_sum: f64 = weights.iter().sum();
        // Per-trade loyalty memory.
        let mut preferred: HashMap<Trade, (EntityId, f64)> = HashMap::new();
        let horizon_s = self.config.horizon.as_seconds();
        for _ in 0..needs {
            // Weighted trade pick.
            let mut roll = rng.gen::<f64>() * weight_sum;
            let mut trade = Trade::Plumber;
            for (i, &w) in weights.iter().enumerate() {
                roll -= w;
                if roll <= 0.0 {
                    trade = Trade::ALL[i];
                    break;
                }
            }
            let category = Category::ServiceProvider(trade);
            let candidates = self.candidates(&user, category);
            if candidates.is_empty() {
                continue;
            }
            let t = rng.gen_range(0..horizon_s);
            let day_start = Timestamp::from_seconds(t - t.rem_euclid(86_400));
            let hour = rng.gen_range(8.0..19.0);
            let start = day_start + SimDuration::seconds((hour * 3_600.0) as i64);

            // Reuse a liked provider; otherwise pick by proximity.
            let entity_id = match preferred.get(&trade) {
                Some(&(id, rating)) if rating >= 3.0 && candidates.contains(&id) => id,
                _ => {
                    // Nearest-biased random pick.
                    let mut best = candidates[0];
                    let mut best_d = f64::MAX;
                    for &c in &candidates {
                        let d = self.entities[c.raw() as usize].location.distance_to(&user.home)
                            * rng.gen_range(0.5..1.5);
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    best
                }
            };
            let entity = self.entities[entity_id.raw() as usize].clone();
            let opinion = self.opinions.true_rating(&user, &entity).value();

            // The booking call.
            self.events.push(ActivityEvent {
                user: user.id,
                entity: entity_id,
                start,
                kind: ActivityKind::PhoneCall {
                    duration: SimDuration::minutes(rng.gen_range(3..12)),
                },
                group: None,
                is_fraud: false,
            });
            // Payment for the job a few days later.
            let job_done = start + SimDuration::days(rng.gen_range(1..7));
            self.events.push(ActivityEvent {
                user: user.id,
                entity: entity_id,
                start: job_done,
                kind: ActivityKind::Payment { amount_cents: rng.gen_range(8_000..60_000) },
                group: None,
                is_fraud: false,
            });

            if opinion < 2.5 {
                // Botched job → the callback confound: repeated calls in
                // quick succession that signal *dissatisfaction*.
                let callbacks = rng.gen_range(1..=3);
                for cb in 0..callbacks {
                    let cb_start = job_done
                        + SimDuration::days(1 + cb as i64 * 2)
                        + SimDuration::minutes(rng.gen_range(0..600));
                    self.events.push(ActivityEvent {
                        user: user.id,
                        entity: entity_id,
                        start: cb_start,
                        kind: ActivityKind::PhoneCall {
                            duration: SimDuration::minutes(rng.gen_range(2..8)),
                        },
                        group: None,
                        is_fraud: false,
                    });
                }
                preferred.remove(&trade);
            } else {
                preferred.insert(trade, (entity_id, opinion));
            }
            self.maybe_review(&mut rng, user_idx, entity_id, job_done);
        }
    }

    fn finish(self) -> World {
        World {
            config: self.config,
            zipcodes: self.zipcodes,
            entities: self.entities,
            users: self.users,
            events: self.events,
            reviews: self.reviews,
            opinions: self.opinions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn tiny_world() -> World {
        World::generate(WorldConfig::tiny(42)).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldConfig::tiny(7)).unwrap();
        let b = World::generate(WorldConfig::tiny(7)).unwrap();
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.reviews.len(), b.reviews.len());
        assert_eq!(a.events.first(), b.events.first());
        assert_eq!(a.events.last(), b.events.last());
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::tiny(1)).unwrap();
        let b = World::generate(WorldConfig::tiny(2)).unwrap();
        assert_ne!(a.events.len(), b.events.len());
    }

    #[test]
    fn events_are_sorted() {
        let w = tiny_world();
        assert!(!w.events.is_empty());
        for pair in w.events.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
    }

    #[test]
    fn entity_and_user_ids_are_positional() {
        let w = tiny_world();
        for (i, e) in w.entities.iter().enumerate() {
            assert_eq!(e.id.raw() as usize, i);
        }
        for (i, u) in w.users.iter().enumerate() {
            assert_eq!(u.id.raw() as usize, i);
        }
        assert!(w.entity(EntityId::new(0)).is_some());
        assert!(w.user(UserId::new(0)).is_some());
        assert!(w.entity(EntityId::new(u64::MAX)).is_none());
    }

    #[test]
    fn entity_counts_match_config() {
        let cfg = WorldConfig::tiny(3);
        let w = World::generate(cfg.clone()).unwrap();
        let expected_per_zip = 9 * cfg.restaurants_per_cuisine_per_zip
            + 4 * cfg.doctors_per_specialty_per_zip
            + 24 * cfg.providers_per_trade_per_zip;
        assert_eq!(w.entities.len(), cfg.num_zipcodes * expected_per_zip);
        assert_eq!(w.users.len(), cfg.total_users());
    }

    #[test]
    fn reviews_are_a_small_fraction_of_events() {
        // The paper's core measurement: explicit feedback is at least an
        // order of magnitude rarer than interactions.
        let w = World::generate(WorldConfig::city(5)).unwrap();
        let s = w.stats();
        assert!(s.reviews > 0, "some reviews exist");
        assert!(
            (s.events as f64) / (s.reviews as f64) >= 10.0,
            "events {} vs reviews {}",
            s.events,
            s.reviews
        );
    }

    #[test]
    fn silent_users_never_review() {
        let w = tiny_world();
        for r in &w.reviews {
            let user = w.user(r.user).unwrap();
            assert!(!user.persona.is_silent(), "silent user {} posted a review", r.user);
        }
    }

    #[test]
    fn at_most_one_review_per_user_entity_pair() {
        let w = World::generate(WorldConfig::city(9)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in &w.reviews {
            assert!(
                seen.insert((r.user, r.entity)),
                "duplicate review by {} of {}",
                r.user,
                r.entity
            );
        }
    }

    #[test]
    fn events_reference_valid_ids() {
        let w = tiny_world();
        for e in &w.events {
            assert!(w.entity(e.entity).is_some());
            assert!(w.user(e.user).is_some());
            assert!(!e.is_fraud, "generator emits no fraud by itself");
        }
    }

    #[test]
    fn group_events_share_entity_and_time() {
        let w = World::generate(WorldConfig::city(11)).unwrap();
        let mut by_group: HashMap<GroupId, Vec<&ActivityEvent>> = HashMap::new();
        for e in w.events.iter().filter(|e| e.group.is_some()) {
            by_group.entry(e.group.unwrap()).or_default().push(e);
        }
        assert!(!by_group.is_empty(), "group outings occur");
        let mut multi = 0;
        for members in by_group.values() {
            let visits: Vec<_> =
                members.iter().filter(|e| matches!(e.kind, ActivityKind::Visit { .. })).collect();
            if visits.len() > 1 {
                multi += 1;
                let first = visits[0];
                for v in &visits {
                    assert_eq!(v.entity, first.entity);
                    assert_eq!(v.start, first.start);
                }
            }
        }
        assert!(multi > 0, "some groups have multiple attendees");
    }

    #[test]
    fn loyal_users_revisit() {
        // At least some (user, entity) pairs accumulate repeat visits —
        // the raw signal the whole paper builds on.
        let w = tiny_world();
        let mut counts: HashMap<(UserId, EntityId), usize> = HashMap::new();
        for e in &w.events {
            if matches!(e.kind, ActivityKind::Visit { .. }) {
                *counts.entry((e.user, e.entity)).or_default() += 1;
            }
        }
        let max_repeat = counts.values().copied().max().unwrap_or(0);
        assert!(max_repeat >= 5, "expected loyalty, max repeat was {max_repeat}");
    }

    #[test]
    fn bad_providers_get_callback_bursts() {
        // The §4.1 confound: somewhere in the trace, a user places 2+
        // calls to the same provider within a short window.
        let w = World::generate(WorldConfig::city(13)).unwrap();
        let mut calls: HashMap<(UserId, EntityId), Vec<Timestamp>> = HashMap::new();
        for e in &w.events {
            if matches!(e.kind, ActivityKind::PhoneCall { .. }) {
                calls.entry((e.user, e.entity)).or_default().push(e.start);
            }
        }
        let burst = calls
            .values()
            .any(|starts| starts.windows(2).any(|w| (w[1] - w[0]).abs() <= SimDuration::days(8)));
        assert!(burst, "callback confound should appear in a city-sized world");
    }

    #[test]
    fn effort_correlates_with_opinion() {
        // The simulator's central property, stated the way the paper uses
        // it (§4.1 "effort is endorsement"): *conditional on repeat
        // visits*, entities a user travels far for must be entities the
        // user truly likes — a mediocre place only earns repeat visits if
        // it is convenient; a distant one only if it is good. Group visits
        // are excluded (attendees did not choose the venue; §4.1 requires
        // deduplicating groups) and single-visit pairs are exploration
        // noise by construction.
        let w = World::generate(WorldConfig::city(17)).unwrap();
        let mut pairs: HashMap<(UserId, EntityId), (usize, f64)> = HashMap::new();
        for e in w.events.iter().filter(|e| e.group.is_none()) {
            if let ActivityKind::Visit { travel_distance_m, .. } = e.kind {
                let p = pairs.entry((e.user, e.entity)).or_default();
                p.0 += 1;
                p.1 += travel_distance_m;
            }
        }
        // Each user's *final* restaurant favourite (most solo visits,
        // >= 4): the place they settled on after exploration. For these,
        // normalized effort (home distance over the persona's travel
        // tolerance) must buy opinion — a far settled favourite is only
        // sustainable if it is truly liked, because the choice utility
        // charges 2.5 stars per tolerance-radius of travel. (Pairs with
        // 2–3 visits are transient early favourites later dethroned;
        // comparing those would measure convergence, not endorsement —
        // exactly §4.1's "tried out many options before settling" point.)
        let mut top: HashMap<UserId, (EntityId, usize)> = HashMap::new();
        for (&(u, e), &(n, _)) in &pairs {
            if !matches!(w.entity(e).unwrap().category, orsp_types::Category::Restaurant(_)) {
                continue;
            }
            let cur = top.entry(u).or_insert((e, 0));
            if n > cur.1 {
                *cur = (e, n);
            }
        }
        let mut settled: Vec<(f64, f64)> = top
            .iter()
            .filter(|(_, &(_, n))| n >= 4)
            .map(|(&u, &(e, _))| {
                let user = w.user(u).unwrap();
                let entity = w.entity(e).unwrap();
                let effort =
                    user.home.distance_to(&entity.location) / user.persona.travel_tolerance_m;
                let op = w.opinions.true_rating(user, entity).value();
                (effort, op)
            })
            .collect();
        assert!(settled.len() > 100, "need settled pairs: {}", settled.len());
        settled.sort_by(|a, b| a.0.total_cmp(&b.0));
        let q = settled.len() / 4;
        let near_mean: f64 = settled[..q].iter().map(|p| p.1).sum::<f64>() / q as f64;
        let far_mean: f64 =
            settled[settled.len() - q..].iter().map(|p| p.1).sum::<f64>() / q as f64;
        assert!(
            far_mean > near_mean,
            "high-effort settled favourites should be better liked: far {far_mean:.2} vs near {near_mean:.2}"
        );
    }

    #[test]
    fn loyalty_signals_endorsement() {
        // The primary inference signal: (user, entity) pairs with many
        // solo visits carry much higher true opinions than one-shot pairs.
        let w = World::generate(WorldConfig::city(19)).unwrap();
        let mut counts: HashMap<(UserId, EntityId), usize> = HashMap::new();
        for e in w.events.iter().filter(|e| e.group.is_none()) {
            if matches!(e.kind, ActivityKind::Visit { .. }) {
                *counts.entry((e.user, e.entity)).or_default() += 1;
            }
        }
        let mean_opinion = |min: usize, max: usize| -> (f64, usize) {
            let mut sum = 0.0;
            let mut n = 0;
            for (&(u, e), &c) in &counts {
                if c >= min && c <= max {
                    sum += w.opinions.true_rating(w.user(u).unwrap(), w.entity(e).unwrap()).value();
                    n += 1;
                }
            }
            (sum / n.max(1) as f64, n)
        };
        let (one_shot, n1) = mean_opinion(1, 1);
        let (loyal, n2) = mean_opinion(4, usize::MAX);
        assert!(n1 > 100 && n2 > 100, "samples: {n1} one-shot, {n2} loyal");
        assert!(
            loyal - one_shot > 0.5,
            "loyal pairs {loyal:.2} should clearly exceed one-shot {one_shot:.2}"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let w = tiny_world();
        let s = w.stats();
        assert_eq!(s.users, w.users.len());
        assert_eq!(s.entities, w.entities.len());
        assert_eq!(s.events, w.events.len());
        assert!(s.events_per_user > 0.0);
        assert!((0.0..=1.0).contains(&s.group_event_fraction));
    }

    #[test]
    fn similar_options_counts_same_category_neighbors() {
        let w = tiny_world();
        let e = &w.entities[0];
        let n = w.similar_options_near(e, 50_000.0);
        // With a generous radius, there should be at least one other
        // similar entity of the same category somewhere in the zipcode.
        let same_cat = w.entities_in_category(e.category).count();
        assert!(n <= same_cat - 1);
    }
}
