//! The privacy-preserving egress: per-entity aggregates.
//!
//! §4.2: *"If an RSP uses histograms of inferred ratings or visualizations
//! of aggregate user interactions to export its inferences to users, no
//! information about any individual user is revealed."*
//!
//! [`EntityAggregate`] carries exactly the series the paper's Figure 3
//! visualizations need — the visits-per-user histogram (3a) and the
//! (visit count, average distance) points (3b) — plus summary statistics
//! the search layer shows beside explicit reviews.

use crate::store::{HistoryStore, StoredHistory};
use orsp_types::{EntityId, InteractionKind, RecordId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Aggregate interaction statistics for one entity.
///
/// "Per user" here means per anonymous history: the server cannot count
/// users, only `hash(Ru, e)` records — which is one per (user, entity)
/// pair, exactly the right unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityAggregate {
    /// The entity.
    pub entity: EntityId,
    /// Number of anonymous histories (≈ distinct users who interacted).
    pub histories: usize,
    /// Total interactions across histories.
    pub interactions: usize,
    /// Histogram of interactions-per-history: index = count (capped),
    /// value = how many histories. Figure 3(a)'s series.
    pub visits_per_user: Vec<usize>,
    /// (interaction count, mean distance travelled) per history —
    /// Figure 3(b)'s scatter, with no user identity attached.
    pub effort_points: Vec<(usize, f64)>,
    /// Mean dwell minutes across visit interactions.
    pub mean_dwell_min: f64,
    /// Fraction of histories with 2+ interactions (repeat rate).
    pub repeat_fraction: f64,
}

/// Cap for the visits-per-user histogram.
const HISTOGRAM_CAP: usize = 20;

/// The mergeable form of an [`EntityAggregate`]: every accumulator is
/// either an exact integer sum or an order-canonicalized list, so partial
/// aggregates computed over disjoint record subsets (per ingest shard, or
/// per backend in a multi-node deployment) merge into *bit-identical*
/// results no matter how the records were partitioned.
///
/// The float fields of [`EntityAggregate`] are derived only at
/// [`AggregateParts::finalize`]: `mean_dwell_min` from an integer
/// second-sum (addition over `i64` is associative, unlike `f64`), and
/// `repeat_fraction` from two integer counts. `effort_points` entries are
/// per-history values — independent of every other history. The publish
/// sorts them once ([`AggregateParts::sort_effort_points`]);
/// [`AggregateParts::finalize`] still sorts, so concatenation order
/// cannot show through, but on one node's parts or on N concatenated
/// sorted legs it only merges already-sorted runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateParts {
    /// The entity.
    pub entity: EntityId,
    /// Number of anonymous histories.
    pub histories: u64,
    /// Total interactions across histories.
    pub interactions: u64,
    /// Histogram of interactions-per-history (index = capped count).
    pub visits_per_user: Vec<u64>,
    /// Histories with 2+ interactions.
    pub repeats: u64,
    /// Exact sum of visit dwell time, in seconds.
    pub dwell_secs: i64,
    /// Number of visit interactions behind `dwell_secs`.
    pub dwell_n: u64,
    /// (interaction count, mean distance) per history. Sorted when the
    /// publisher built these parts; [`AggregateParts::merge`] concatenates
    /// and finalize sorts, whatever order arrived.
    pub effort_points: Vec<(u64, f64)>,
}

/// The one canonical effort-point order: by interaction count, then by
/// mean distance under IEEE total order. The publish presorts in it and
/// finalize sorts in it, so a sort at finalize only merges sorted runs.
fn effort_order<N: Ord>(a: &(N, f64), b: &(N, f64)) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then(a.1.total_cmp(&b.1))
}

/// The integer support behind an entity's inferences — all a search hit
/// shows of an aggregate. Two counts that merge by addition, so a hit's
/// support can be summed across backends without shipping, concatenating
/// or sorting a single effort point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupportParts {
    /// Number of anonymous histories.
    pub histories: u64,
    /// Histories with 2+ interactions.
    pub repeats: u64,
}

impl SupportParts {
    /// Merge another partial count for the same entity.
    pub fn merge(&mut self, other: SupportParts) {
        self.histories += other.histories;
        self.repeats += other.repeats;
    }

    /// The published pair `(histories, repeat_fraction)`: `(0, 0.0)` when
    /// empty or below the `min_support` k-anonymity floor. The only place
    /// `repeat_fraction` is computed — [`AggregateParts::finalize`] calls
    /// it too — so a search hit and a fetched aggregate agree to the bit.
    pub fn published(self, min_support: usize) -> (u64, f64) {
        if self.histories == 0 || (self.histories as usize) < min_support {
            (0, 0.0)
        } else {
            (self.histories, self.repeats as f64 / self.histories as f64)
        }
    }
}

impl AggregateParts {
    /// Empty parts for one entity.
    pub fn empty(entity: EntityId) -> Self {
        AggregateParts {
            entity,
            histories: 0,
            interactions: 0,
            visits_per_user: vec![0; HISTOGRAM_CAP + 1],
            repeats: 0,
            dwell_secs: 0,
            dwell_n: 0,
            effort_points: Vec::new(),
        }
    }

    /// Fold one stored history into the accumulators.
    pub fn add(&mut self, stored: &StoredHistory) {
        let n = stored.history.len();
        self.histories += 1;
        self.interactions += n as u64;
        self.visits_per_user[n.min(HISTOGRAM_CAP)] += 1;
        if n >= 2 {
            self.repeats += 1;
        }
        let mean_dist = stored.history.mean_distance_m().unwrap_or(0.0);
        self.effort_points.push((n as u64, mean_dist));
        for r in stored.history.iter() {
            if r.kind == InteractionKind::Visit {
                self.dwell_secs += r.duration.as_seconds();
                self.dwell_n += 1;
            }
        }
    }

    /// Merge another partial aggregate for the same entity. Integer sums
    /// and list concatenation only — commutative and associative, so any
    /// merge tree over any partition of the records finalizes to the same
    /// bytes.
    pub fn merge(&mut self, other: &AggregateParts) {
        debug_assert_eq!(self.entity, other.entity, "merging parts for different entities");
        self.histories += other.histories;
        self.interactions += other.interactions;
        if other.visits_per_user.len() > self.visits_per_user.len() {
            self.visits_per_user.resize(other.visits_per_user.len(), 0);
        }
        for (slot, v) in self.visits_per_user.iter_mut().zip(&other.visits_per_user) {
            *slot += v;
        }
        self.repeats += other.repeats;
        self.dwell_secs += other.dwell_secs;
        self.dwell_n += other.dwell_n;
        self.effort_points.extend(other.effort_points.iter().copied());
    }

    /// Put the effort points in the canonical order `finalize` uses — the
    /// publish does this once, so every fetch's finalize sorts runs that
    /// are already in order.
    pub fn sort_effort_points(&mut self) {
        self.effort_points.sort_by(effort_order);
    }

    /// The integer support counts, without touching an effort point.
    pub fn support(&self) -> SupportParts {
        SupportParts { histories: self.histories, repeats: self.repeats }
    }

    /// Derive the published aggregate: floats computed once from the
    /// exact integer accumulators, effort points canonically sorted.
    pub fn finalize(&self) -> EntityAggregate {
        let mean_dwell_min = if self.dwell_n == 0 {
            0.0
        } else {
            (self.dwell_secs as f64 / 60.0) / self.dwell_n as f64
        };
        let (_, repeat_fraction) = self.support().published(0);
        let mut effort_points: Vec<(usize, f64)> =
            self.effort_points.iter().map(|&(n, d)| (n as usize, d)).collect();
        effort_points.sort_by(effort_order);
        EntityAggregate {
            entity: self.entity,
            histories: self.histories as usize,
            interactions: self.interactions as usize,
            visits_per_user: self.visits_per_user.iter().map(|&v| v as usize).collect(),
            effort_points,
            mean_dwell_min,
            repeat_fraction,
        }
    }
}

/// Default k-anonymity floor: aggregates for entities with fewer
/// anonymous histories than this are suppressed. The paper's claim that
/// histograms reveal "no information about any individual user" is only
/// true above a support floor — a histogram over one history *is* that
/// user's visit pattern.
pub const MIN_AGGREGATE_SUPPORT: usize = 5;

/// Builds aggregates from the store.
pub struct AggregatePublisher;

impl AggregatePublisher {
    /// Build the aggregate for one entity.
    pub fn for_entity(store: &HistoryStore, entity: EntityId) -> EntityAggregate {
        // Fix the iteration order before accumulating floats: the store's
        // map iterates in arbitrary order, and float addition is not
        // associative — mean_dwell_min must not depend on hash seeds.
        let mut histories: Vec<_> = store.histories_for_entity(entity).collect();
        histories.sort_by_key(|(rid, _)| **rid);
        Self::accumulate(entity, histories.into_iter().map(|(_, s)| s)).finalize()
    }

    /// Build the aggregate from histories gathered out of several shard
    /// stores. Sorting by record id here reproduces [`Self::for_entity`]'s
    /// accumulation order exactly, so the result is bit-identical to
    /// computing over the merged store.
    pub fn from_histories(
        entity: EntityId,
        histories: Vec<(RecordId, StoredHistory)>,
    ) -> EntityAggregate {
        Self::parts_from_histories(entity, histories).finalize()
    }

    /// The mergeable partial aggregate over a subset of an entity's
    /// histories — what a backend exports so a front-door proxy can merge
    /// per-backend partials into the exact whole-cluster aggregate.
    /// Accumulation runs in record-id order (the canonical order; the
    /// accumulators are order-free, so this is belt and braces). The
    /// effort points leave sorted, exactly as the publish
    /// (`ShardedIngest::aggregate_parts`) leaves them.
    pub fn parts_from_histories(
        entity: EntityId,
        mut histories: Vec<(RecordId, StoredHistory)>,
    ) -> AggregateParts {
        histories.sort_by_key(|(rid, _)| *rid);
        let mut parts = Self::accumulate(entity, histories.iter().map(|(_, s)| s));
        parts.sort_effort_points();
        parts
    }

    fn accumulate<'a>(
        entity: EntityId,
        sorted: impl Iterator<Item = &'a StoredHistory>,
    ) -> AggregateParts {
        let mut parts = AggregateParts::empty(entity);
        for stored in sorted {
            parts.add(stored);
        }
        parts
    }

    /// Build aggregates for every entity present in the store.
    pub fn all(store: &HistoryStore) -> HashMap<EntityId, EntityAggregate> {
        let mut entities: Vec<EntityId> = store.iter().map(|(_, s)| s.entity).collect();
        entities.sort_unstable();
        entities.dedup();
        entities.into_iter().map(|e| (e, Self::for_entity(store, e))).collect()
    }

    /// Like [`Self::all`], but suppress aggregates below a k-anonymity
    /// support floor — the publishable egress.
    pub fn all_published(
        store: &HistoryStore,
        min_support: usize,
    ) -> HashMap<EntityId, EntityAggregate> {
        Self::all(store)
            .into_iter()
            .filter(|(_, agg)| agg.histories >= min_support)
            .collect()
    }

    /// Average distance travelled for histories with a given interaction
    /// count — the Figure 3(b) line for one entity.
    pub fn mean_distance_by_count(agg: &EntityAggregate) -> Vec<(usize, f64)> {
        let mut by_count: HashMap<usize, (f64, usize)> = HashMap::new();
        for &(n, d) in &agg.effort_points {
            let e = by_count.entry(n).or_default();
            e.0 += d;
            e.1 += 1;
        }
        let mut out: Vec<(usize, f64)> =
            by_count.into_iter().map(|(n, (sum, c))| (n, sum / c as f64)).collect();
        out.sort_by_key(|&(n, _)| n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::{Interaction, RecordId, SimDuration, Timestamp};

    fn add_history(store: &mut HistoryStore, rid: u8, entity: u64, visits: usize, dist: f64) {
        for i in 0..visits {
            store
                .append(
                    RecordId::from_bytes([rid; 32]),
                    EntityId::new(entity),
                    Interaction::solo(
                        InteractionKind::Visit,
                        Timestamp::from_seconds(i as i64 * 10 * 86_400),
                        SimDuration::minutes(40),
                        dist,
                    ),
                )
                .unwrap();
        }
    }

    #[test]
    fn aggregate_counts_histories_and_interactions() {
        let mut store = HistoryStore::new();
        add_history(&mut store, 1, 5, 3, 100.0);
        add_history(&mut store, 2, 5, 1, 200.0);
        add_history(&mut store, 3, 9, 2, 50.0);
        let agg = AggregatePublisher::for_entity(&store, EntityId::new(5));
        assert_eq!(agg.histories, 2);
        assert_eq!(agg.interactions, 4);
        assert_eq!(agg.visits_per_user[3], 1);
        assert_eq!(agg.visits_per_user[1], 1);
        assert!((agg.repeat_fraction - 0.5).abs() < 1e-12);
        assert!((agg.mean_dwell_min - 40.0).abs() < 1e-9);
    }

    #[test]
    fn effort_points_have_no_identity() {
        let mut store = HistoryStore::new();
        add_history(&mut store, 1, 5, 2, 300.0);
        let agg = AggregatePublisher::for_entity(&store, EntityId::new(5));
        // The aggregate type simply has no user/record field to leak.
        assert_eq!(agg.effort_points, vec![(2, 300.0)]);
    }

    #[test]
    fn histogram_caps_extreme_counts() {
        let mut store = HistoryStore::new();
        add_history(&mut store, 1, 5, 50, 10.0);
        let agg = AggregatePublisher::for_entity(&store, EntityId::new(5));
        assert_eq!(agg.visits_per_user[HISTOGRAM_CAP], 1);
    }

    #[test]
    fn all_builds_every_entity() {
        let mut store = HistoryStore::new();
        add_history(&mut store, 1, 5, 2, 10.0);
        add_history(&mut store, 2, 9, 1, 10.0);
        let all = AggregatePublisher::all(&store);
        assert_eq!(all.len(), 2);
        assert!(all.contains_key(&EntityId::new(5)));
        assert!(all.contains_key(&EntityId::new(9)));
    }

    #[test]
    fn mean_distance_by_count_averages() {
        let mut store = HistoryStore::new();
        add_history(&mut store, 1, 5, 2, 100.0);
        add_history(&mut store, 2, 5, 2, 300.0);
        add_history(&mut store, 3, 5, 4, 500.0);
        let agg = AggregatePublisher::for_entity(&store, EntityId::new(5));
        let line = AggregatePublisher::mean_distance_by_count(&agg);
        assert_eq!(line, vec![(2, 200.0), (4, 500.0)]);
    }

    #[test]
    fn published_aggregates_respect_support_floor() {
        let mut store = HistoryStore::new();
        // Entity 5: 5 histories; entity 9: 1 history (one user's pattern).
        for i in 0..5u8 {
            add_history(&mut store, i, 5, 2, 100.0);
        }
        add_history(&mut store, 10, 9, 4, 100.0);
        let published = AggregatePublisher::all_published(&store, MIN_AGGREGATE_SUPPORT);
        assert!(published.contains_key(&EntityId::new(5)));
        assert!(
            !published.contains_key(&EntityId::new(9)),
            "a single-user histogram must never be published"
        );
        // The unfiltered internal view still has both (analytics need it).
        assert_eq!(AggregatePublisher::all(&store).len(), 2);
    }

    #[test]
    fn merged_parts_finalize_bit_identically_to_the_whole() {
        // Build one store, then partition its histories arbitrarily and
        // merge the partial parts: any partition must finalize to the
        // same bytes as computing over everything at once.
        let mut store = HistoryStore::new();
        for i in 0..9u8 {
            add_history(&mut store, i, 5, 1 + (i as usize % 4), 10.0 * i as f64 + 0.1);
        }
        let whole = AggregatePublisher::for_entity(&store, EntityId::new(5));
        for split in 1..8usize {
            let mut a = AggregateParts::empty(EntityId::new(5));
            let mut b = AggregateParts::empty(EntityId::new(5));
            let mut histories: Vec<_> = store
                .histories_for_entity(EntityId::new(5))
                .map(|(rid, s)| (*rid, s.clone()))
                .collect();
            // Deliberately scramble the order before partitioning.
            histories.reverse();
            for (i, (_, stored)) in histories.iter().enumerate() {
                if i % 8 < split {
                    a.add(stored);
                } else {
                    b.add(stored);
                }
            }
            a.merge(&b);
            assert_eq!(a.finalize(), whole, "split {split}");
            assert_eq!(a.finalize().mean_dwell_min.to_bits(), whole.mean_dwell_min.to_bits());
            assert_eq!(
                a.finalize().repeat_fraction.to_bits(),
                whole.repeat_fraction.to_bits()
            );
        }
    }

    #[test]
    fn support_is_the_integer_half_of_finalize() {
        let mut store = HistoryStore::new();
        for i in 0..7u8 {
            add_history(&mut store, i, 5, 1 + (i as usize % 3), 10.0);
        }
        let histories: Vec<_> = store
            .histories_for_entity(EntityId::new(5))
            .map(|(rid, s)| (*rid, s.clone()))
            .collect();
        let parts = AggregatePublisher::parts_from_histories(EntityId::new(5), histories);
        let whole = parts.finalize();
        let (histories, repeat_fraction) = parts.support().published(MIN_AGGREGATE_SUPPORT);
        assert_eq!(histories as usize, whole.histories);
        assert_eq!(repeat_fraction.to_bits(), whole.repeat_fraction.to_bits());
        // Below the floor the pair reads as unsupported, like an absent entity.
        assert_eq!(parts.support().published(8), (0, 0.0));
        assert_eq!(SupportParts::default().published(0), (0, 0.0));
        // Merging is two integer adds.
        let mut sum = SupportParts { histories: 3, repeats: 1 };
        sum.merge(SupportParts { histories: 2, repeats: 2 });
        assert_eq!(sum, SupportParts { histories: 5, repeats: 3 });
    }

    #[test]
    fn published_parts_carry_effort_points_presorted_and_finalize_still_sorts() {
        let mut store = HistoryStore::new();
        for i in 0..12u8 {
            add_history(&mut store, i, 5, 1 + (i as usize * 7 % 4), 90.0 - 7.5 * i as f64);
        }
        let histories: Vec<_> = store
            .histories_for_entity(EntityId::new(5))
            .map(|(rid, s)| (*rid, s.clone()))
            .collect();
        let parts = AggregatePublisher::parts_from_histories(EntityId::new(5), histories);
        assert!(parts.effort_points.windows(2).all(|w| effort_order(&w[0], &w[1]).is_le()));
        // The presort is a speed-up, not a contract: parts arriving in any
        // order (an older peer, a hand-built leg) finalize identically.
        let mut reversed = parts.clone();
        reversed.effort_points.reverse();
        assert_eq!(reversed.finalize(), parts.finalize());
    }

    #[test]
    fn empty_entity_aggregate() {
        let store = HistoryStore::new();
        let agg = AggregatePublisher::for_entity(&store, EntityId::new(1));
        assert_eq!(agg.histories, 0);
        assert_eq!(agg.repeat_fraction, 0.0);
        assert_eq!(agg.mean_dwell_min, 0.0);
    }
}
