//! The interaction data model.
//!
//! §4.2 of the paper: *"for every entity that a user has interacted with,
//! the RSP needs to store a sequence of interactions, with a number of
//! features associated with each interaction (e.g., duration of
//! interaction, time since last interaction, distance travelled since
//! previous stationary spot, etc.)"*.
//!
//! [`Interaction`] is one such observation; [`InteractionHistory`] is the
//! ordered sequence stored (anonymously) per (user, entity) pair. The same
//! types are used on-device by the client, in transit through the anonymity
//! network, and at rest in the server's history store — the record is
//! *already anonymous by content*: it carries no user id, device id, or
//! absolute location, only the features the inference engine needs.

use crate::time::{SimDuration, Timestamp};
use std::fmt;

/// How the user interacted with the entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InteractionKind {
    /// A physical visit detected from location (restaurant, doctor's
    /// office).
    Visit,
    /// A phone call placed to the entity (plumber, electrician).
    PhoneCall,
    /// A payment made to the entity.
    Payment,
    /// Online engagement (app session, video view) — used by the Fig. 1c
    /// platforms.
    OnlineUse,
}

impl InteractionKind {
    /// All kinds, in declaration order.
    pub const ALL: [InteractionKind; 4] = [
        InteractionKind::Visit,
        InteractionKind::PhoneCall,
        InteractionKind::Payment,
        InteractionKind::OnlineUse,
    ];

    /// Short label for display.
    pub const fn label(self) -> &'static str {
        match self {
            InteractionKind::Visit => "visit",
            InteractionKind::PhoneCall => "call",
            InteractionKind::Payment => "payment",
            InteractionKind::OnlineUse => "online",
        }
    }
}

impl fmt::Display for InteractionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One observed interaction between a user and an entity.
///
/// The fields are exactly the per-interaction features §4.2 enumerates.
/// Deliberately absent: user id, entity id (the history's opaque
/// [`crate::RecordId`] stands for the pair), and absolute coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interaction {
    /// What kind of interaction.
    pub kind: InteractionKind,
    /// When the interaction began.
    pub start: Timestamp,
    /// How long it lasted ("duration of interaction").
    pub duration: SimDuration,
    /// Distance travelled since the previous stationary spot, meters
    /// ("distance travelled since previous stationary spot") — the paper's
    /// canonical *effort* feature.
    pub distance_travelled_m: f64,
    /// Number of users who interacted together; 1 means alone. Group
    /// interactions must not inflate aggregates (§4.1).
    pub group_size: u16,
}

impl Interaction {
    /// A solo interaction with the given parameters.
    pub fn solo(
        kind: InteractionKind,
        start: Timestamp,
        duration: SimDuration,
        distance_travelled_m: f64,
    ) -> Self {
        Interaction { kind, start, duration, distance_travelled_m, group_size: 1 }
    }

    /// When the interaction ended.
    pub fn end(&self) -> Timestamp {
        self.start + self.duration
    }

    /// Basic well-formedness: non-negative duration and distance, group of
    /// at least one.
    pub fn is_well_formed(&self) -> bool {
        !self.duration.is_negative()
            && self.distance_travelled_m >= 0.0
            && self.distance_travelled_m.is_finite()
            && self.group_size >= 1
    }
}

/// The ordered sequence of interactions for one (user, entity) pair.
///
/// ```
/// use orsp_types::{Interaction, InteractionHistory, InteractionKind, SimDuration, Timestamp};
/// let mut h = InteractionHistory::new();
/// h.push(Interaction::solo(
///     InteractionKind::Visit,
///     Timestamp::from_seconds(0),
///     SimDuration::minutes(45),
///     800.0,
/// )).unwrap();
/// assert_eq!(h.len(), 1);
/// ```
///
/// Invariant: records are sorted by `start` (ties allowed) and every record
/// is well-formed. [`InteractionHistory::push`] enforces this; out-of-order
/// appends are rejected rather than silently reordered, because an
/// out-of-order upload is exactly the kind of anomaly the fraud pipeline
/// wants to see (§4.3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InteractionHistory {
    records: Vec<Interaction>,
}

impl InteractionHistory {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from records, sorting them by start time. Returns `None` if
    /// any record is malformed.
    pub fn from_records(mut records: Vec<Interaction>) -> Option<Self> {
        if records.iter().any(|r| !r.is_well_formed()) {
            return None;
        }
        records.sort_by_key(|r| r.start);
        Some(InteractionHistory { records })
    }

    /// Append a record. Fails if the record is malformed or starts before
    /// the last recorded interaction.
    pub fn push(&mut self, record: Interaction) -> crate::Result<()> {
        if !record.is_well_formed() {
            return Err(crate::OrspError::MalformedInteraction);
        }
        if let Some(last) = self.records.last() {
            if record.start < last.start {
                return Err(crate::OrspError::OutOfOrderInteraction {
                    last: last.start,
                    attempted: record.start,
                });
            }
        }
        self.records.push(record);
        Ok(())
    }

    /// Number of interactions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff there are no interactions.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in start order.
    pub fn records(&self) -> &[Interaction] {
        &self.records
    }

    /// The most recent interaction.
    pub fn last(&self) -> Option<&Interaction> {
        self.records.last()
    }

    /// The first interaction.
    pub fn first(&self) -> Option<&Interaction> {
        self.records.first()
    }

    /// Gaps between consecutive interaction starts ("time since last
    /// interaction"); empty when fewer than two records.
    pub fn gaps(&self) -> Vec<SimDuration> {
        self.records.windows(2).map(|w| w[1].start - w[0].start).collect()
    }

    /// Total span from first start to last end.
    pub fn span(&self) -> SimDuration {
        match (self.records.first(), self.records.last()) {
            (Some(first), Some(last)) => last.end() - first.start,
            _ => SimDuration::ZERO,
        }
    }

    /// Total time spent interacting.
    pub fn total_duration(&self) -> SimDuration {
        self.records.iter().map(|r| r.duration).sum()
    }

    /// Mean distance travelled per interaction, or `None` if empty.
    pub fn mean_distance_m(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        Some(
            self.records.iter().map(|r| r.distance_travelled_m).sum::<f64>()
                / self.records.len() as f64,
        )
    }

    /// Drop records that *ended* before `cutoff` (the client's bounded
    /// local store, §4.2: "purges an entry from the user's history once the
    /// entry is older than a configurable threshold"). Returns how many
    /// were purged.
    pub fn purge_older_than(&mut self, cutoff: Timestamp) -> usize {
        let before = self.records.len();
        self.records.retain(|r| r.end() >= cutoff);
        before - self.records.len()
    }

    /// Merge another history into this one, re-sorting by start time.
    pub fn merge(&mut self, other: &InteractionHistory) {
        self.records.extend_from_slice(&other.records);
        self.records.sort_by_key(|r| r.start);
    }

    /// Iterate over records.
    pub fn iter(&self) -> std::slice::Iter<'_, Interaction> {
        self.records.iter()
    }
}

impl<'a> IntoIterator for &'a InteractionHistory {
    type Item = &'a Interaction;
    type IntoIter = std::slice::Iter<'a, Interaction>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn visit(start_s: i64, dur_s: i64, dist: f64) -> Interaction {
        Interaction::solo(
            InteractionKind::Visit,
            Timestamp::from_seconds(start_s),
            SimDuration::seconds(dur_s),
            dist,
        )
    }

    #[test]
    fn push_keeps_order() {
        let mut h = InteractionHistory::new();
        h.push(visit(0, 100, 500.0)).unwrap();
        h.push(visit(1_000, 100, 400.0)).unwrap();
        assert_eq!(h.len(), 2);
        assert!(h.push(visit(500, 10, 1.0)).is_err(), "out-of-order rejected");
        assert_eq!(h.len(), 2, "rejected record is not stored");
    }

    #[test]
    fn malformed_records_rejected() {
        let mut h = InteractionHistory::new();
        let neg_dur = Interaction::solo(
            InteractionKind::Visit,
            Timestamp::EPOCH,
            SimDuration::seconds(-5),
            1.0,
        );
        assert!(h.push(neg_dur).is_err());
        let neg_dist = visit(0, 10, -1.0);
        assert!(h.push(neg_dist).is_err());
        let mut zero_group = visit(0, 10, 1.0);
        zero_group.group_size = 0;
        assert!(h.push(zero_group).is_err());
        let nan_dist = visit(0, 10, f64::NAN);
        assert!(h.push(nan_dist).is_err());
    }

    #[test]
    fn gaps_between_starts() {
        let h = InteractionHistory::from_records(vec![
            visit(0, 60, 1.0),
            visit(3_600, 60, 1.0),
            visit(10_800, 60, 1.0),
        ])
        .unwrap();
        assert_eq!(h.gaps(), vec![SimDuration::hours(1), SimDuration::hours(2)]);
    }

    #[test]
    fn span_and_total_duration() {
        let h = InteractionHistory::from_records(vec![visit(0, 100, 1.0), visit(900, 100, 1.0)])
            .unwrap();
        assert_eq!(h.span(), SimDuration::seconds(1_000));
        assert_eq!(h.total_duration(), SimDuration::seconds(200));
    }

    #[test]
    fn from_records_sorts() {
        let h =
            InteractionHistory::from_records(vec![visit(500, 10, 1.0), visit(0, 10, 2.0)]).unwrap();
        assert_eq!(h.first().unwrap().start, Timestamp::EPOCH);
    }

    #[test]
    fn from_records_rejects_malformed() {
        assert!(InteractionHistory::from_records(vec![visit(0, -1, 1.0)]).is_none());
    }

    #[test]
    fn purge_drops_old_entries() {
        let mut h = InteractionHistory::from_records(vec![
            visit(0, 100, 1.0),
            visit(10_000, 100, 1.0),
            visit(20_000, 100, 1.0),
        ])
        .unwrap();
        let purged = h.purge_older_than(Timestamp::from_seconds(10_050));
        assert_eq!(purged, 1);
        assert_eq!(h.len(), 2);
        assert_eq!(h.first().unwrap().start, Timestamp::from_seconds(10_000));
    }

    #[test]
    fn purge_keeps_record_spanning_cutoff() {
        // A visit still in progress at the cutoff survives.
        let mut h = InteractionHistory::from_records(vec![visit(0, 1_000, 1.0)]).unwrap();
        assert_eq!(h.purge_older_than(Timestamp::from_seconds(500)), 0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn mean_distance() {
        let h = InteractionHistory::from_records(vec![visit(0, 10, 100.0), visit(100, 10, 300.0)])
            .unwrap();
        assert!((h.mean_distance_m().unwrap() - 200.0).abs() < 1e-12);
        assert!(InteractionHistory::new().mean_distance_m().is_none());
    }

    #[test]
    fn merge_resorts() {
        let mut a = InteractionHistory::from_records(vec![visit(0, 10, 1.0)]).unwrap();
        let b = InteractionHistory::from_records(vec![visit(5, 10, 1.0)]).unwrap();
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!(a.records()[0].start <= a.records()[1].start);
    }

    #[test]
    fn empty_history_edge_cases() {
        let h = InteractionHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.span(), SimDuration::ZERO);
        assert!(h.gaps().is_empty());
        assert!(h.first().is_none());
        assert!(h.last().is_none());
    }

    proptest! {
        #[test]
        fn from_records_always_sorted(
            starts in proptest::collection::vec(0i64..1_000_000, 0..50),
        ) {
            let records: Vec<_> = starts.iter().map(|&s| visit(s, 60, 10.0)).collect();
            let h = InteractionHistory::from_records(records).unwrap();
            for w in h.records().windows(2) {
                prop_assert!(w[0].start <= w[1].start);
            }
            prop_assert!(h.gaps().iter().all(|g| !g.is_negative()));
        }

        #[test]
        fn purge_is_idempotent(
            starts in proptest::collection::vec(0i64..1_000_000, 0..50),
            cutoff in 0i64..1_000_000,
        ) {
            let records: Vec<_> = starts.iter().map(|&s| visit(s, 60, 10.0)).collect();
            let mut h = InteractionHistory::from_records(records).unwrap();
            let cutoff = Timestamp::from_seconds(cutoff);
            h.purge_older_than(cutoff);
            let after_first = h.clone();
            prop_assert_eq!(h.purge_older_than(cutoff), 0);
            prop_assert_eq!(h, after_first);
        }
    }
}
