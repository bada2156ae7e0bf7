//! Call-log records: the phone-side observable for phone-first entities
//! (plumbers, electricians — the provider comes to you, so the trace is a
//! call, not a visit).

use orsp_types::{SimDuration, Timestamp, UserId};
use orsp_world::{ActivityKind, World};

/// One call-log entry, exactly what a phone's call history exposes: the
/// dialed number, when, and for how long. No entity id — the client must
/// map the number to an entity itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallRecord {
    /// When the call was placed.
    pub time: Timestamp,
    /// The dialed number.
    pub number: u64,
    /// Call duration (zero for unanswered).
    pub duration: SimDuration,
}

/// Extract a user's call log from the world trace.
pub fn call_log(world: &World, user: UserId) -> Vec<CallRecord> {
    world
        .events
        .iter()
        .filter(|e| e.user == user)
        .filter_map(|e| match e.kind {
            ActivityKind::PhoneCall { duration } => {
                Some(CallRecord { time: e.start, number: world.entity(e.entity)?.phone, duration })
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_world::{World, WorldConfig};

    #[test]
    fn call_log_matches_call_events() {
        let w = World::generate(WorldConfig::tiny(31)).unwrap();
        let caller = w
            .events
            .iter()
            .find(|e| matches!(e.kind, ActivityKind::PhoneCall { .. }))
            .map(|e| e.user)
            .expect("some call exists");
        let log = call_log(&w, caller);
        let expected = w
            .events
            .iter()
            .filter(|e| e.user == caller && matches!(e.kind, ActivityKind::PhoneCall { .. }))
            .count();
        assert_eq!(log.len(), expected);
        for pair in log.windows(2) {
            assert!(pair[0].time <= pair[1].time, "log is chronological");
        }
    }

    #[test]
    fn numbers_map_back_to_entities() {
        let w = World::generate(WorldConfig::tiny(31)).unwrap();
        let caller = w
            .events
            .iter()
            .find(|e| matches!(e.kind, ActivityKind::PhoneCall { .. }))
            .map(|e| e.user)
            .unwrap();
        for rec in call_log(&w, caller) {
            assert!(
                w.entities.iter().any(|e| e.phone == rec.number),
                "number {} belongs to an entity",
                rec.number
            );
        }
    }

    #[test]
    fn user_without_calls_has_empty_log() {
        let w = World::generate(WorldConfig::tiny(31)).unwrap();
        assert!(call_log(&w, UserId::new(9_999_999)).is_empty());
    }
}
