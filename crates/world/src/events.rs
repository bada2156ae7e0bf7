//! The activity-event vocabulary: what "happened" in the world.
//!
//! An [`ActivityEvent`] is ground truth — the simulator knows exactly who
//! did what. The sensor layer (`orsp-sensors`) renders these into the noisy
//! observables (GPS fixes, call-log entries) that the RSP's client actually
//! sees; nothing downstream of the sensors may read the event fields
//! directly.

use orsp_types::{EntityId, GroupId, Rating, ReviewId, SimDuration, Timestamp, UserId};

/// What kind of activity occurred.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivityKind {
    /// The user physically visited the entity and dwelled there.
    Visit {
        /// Dwell time at the entity.
        dwell: SimDuration,
        /// Straight-line distance from the user's previous stationary
        /// anchor, meters.
        travel_distance_m: f64,
    },
    /// The user phoned the entity.
    PhoneCall {
        /// Call duration.
        duration: SimDuration,
    },
    /// The user paid the entity (accompanies most visits / completed jobs).
    Payment {
        /// Amount in cents.
        amount_cents: u64,
    },
}

impl ActivityKind {
    /// How long the activity occupied the user.
    pub fn duration(&self) -> SimDuration {
        match self {
            ActivityKind::Visit { dwell, .. } => *dwell,
            ActivityKind::PhoneCall { duration } => *duration,
            ActivityKind::Payment { .. } => SimDuration::ZERO,
        }
    }
}

/// One ground-truth activity event.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityEvent {
    /// Who.
    pub user: UserId,
    /// With which entity.
    pub entity: EntityId,
    /// When it started.
    pub start: Timestamp,
    /// What happened.
    pub kind: ActivityKind,
    /// Group outing id when several users went together (§4.1 requires the
    /// RSP to deduplicate these).
    pub group: Option<GroupId>,
    /// Ground-truth fraud flag: set by attack injectors, never visible to
    /// the pipeline — used only for scoring detection.
    pub is_fraud: bool,
}

impl ActivityEvent {
    /// When the activity ended.
    pub fn end(&self) -> Timestamp {
        self.start + self.kind.duration()
    }
}

/// An explicitly posted review (the minority signal existing services rely
/// on).
#[derive(Debug, Clone, PartialEq)]
pub struct Review {
    /// Unique id.
    pub id: ReviewId,
    /// Who posted it.
    pub user: UserId,
    /// About which entity.
    pub entity: EntityId,
    /// The star rating given.
    pub rating: Rating,
    /// When it was posted.
    pub posted_at: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_by_kind() {
        let v = ActivityKind::Visit { dwell: SimDuration::minutes(45), travel_distance_m: 900.0 };
        let c = ActivityKind::PhoneCall { duration: SimDuration::minutes(5) };
        let p = ActivityKind::Payment { amount_cents: 4_200 };
        assert_eq!(v.duration(), SimDuration::minutes(45));
        assert_eq!(c.duration(), SimDuration::minutes(5));
        assert_eq!(p.duration(), SimDuration::ZERO);
    }

    #[test]
    fn event_end_adds_duration() {
        let e = ActivityEvent {
            user: UserId::new(1),
            entity: EntityId::new(2),
            start: Timestamp::from_seconds(1_000),
            kind: ActivityKind::Visit { dwell: SimDuration::seconds(600), travel_distance_m: 10.0 },
            group: None,
            is_fraud: false,
        };
        assert_eq!(e.end(), Timestamp::from_seconds(1_600));
    }
}
