//! Movement timelines: a user's ground-truth whereabouts as a sequence of
//! stationary and travel segments, reconstructed from the world's event
//! trace.
//!
//! The sampling policies operate on this timeline: a stationary segment is
//! where fixes reveal a place; a travel segment is where periodic policies
//! burn energy for nothing and gated policies stay quiet.

use orsp_types::{EntityId, GeoPoint, SimDuration, Timestamp, UserId};
use orsp_world::{ActivityKind, World};

/// What the user is doing during a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentKind {
    /// Stationary at home.
    AtHome,
    /// Stationary at work.
    AtWork,
    /// Stationary at an entity (a visit). The id is ground truth — the
    /// client must *infer* it from the location.
    AtEntity(EntityId),
    /// In transit between stationary spots.
    Travel,
}

impl SegmentKind {
    /// True for stationary segments.
    pub fn is_stationary(self) -> bool {
        !matches!(self, SegmentKind::Travel)
    }
}

/// One segment of a user's day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start.
    pub start: Timestamp,
    /// Segment end (exclusive).
    pub end: Timestamp,
    /// Where the user is (for travel: the destination).
    pub location: GeoPoint,
    /// What they are doing.
    pub kind: SegmentKind,
}

impl Segment {
    /// Segment length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A user's whereabouts over the whole horizon.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MovementTimeline {
    /// Contiguous, ordered segments.
    pub segments: Vec<Segment>,
}

/// Assumed travel speed for reconstructing transit times, m/s (driving in
/// a city, average).
const TRAVEL_SPEED_MPS: f64 = 9.0;

/// Longest plausible single trip; distances implying more are clamped.
const MAX_TRAVEL: SimDuration = SimDuration::seconds(3 * 3_600);

impl MovementTimeline {
    /// Build the timeline for one user from the world's trace.
    ///
    /// Between visits, the user follows their anchor schedule (work on
    /// weekday business hours, home otherwise). Visits interleave travel
    /// segments sized by distance.
    pub fn build(world: &World, user_id: UserId) -> MovementTimeline {
        let user = match world.user(user_id) {
            Some(u) => u.clone(),
            None => return MovementTimeline::default(),
        };
        let horizon_end = Timestamp::EPOCH + world.config.horizon;

        // Collect this user's visits (only visits move them; calls and
        // payments don't).
        let mut visits: Vec<(Timestamp, Timestamp, EntityId, GeoPoint)> = world
            .events
            .iter()
            .filter(|e| e.user == user_id)
            .filter_map(|e| match e.kind {
                ActivityKind::Visit { dwell, .. } => {
                    let loc = world.entity(e.entity)?.location;
                    Some((e.start, e.start + dwell, e.entity, loc))
                }
                _ => None,
            })
            .collect();
        visits.sort_by_key(|v| v.0);
        // Drop overlapping visits (a user can only be in one place).
        let mut filtered: Vec<(Timestamp, Timestamp, EntityId, GeoPoint)> = Vec::new();
        for v in visits {
            if filtered.last().map_or(true, |last| v.0 >= last.1) {
                filtered.push(v);
            }
        }

        let mut segments = Vec::new();
        let mut cursor = Timestamp::EPOCH;
        let mut cursor_loc = user.home;
        for (vstart, vend, entity, vloc) in filtered {
            if vstart >= horizon_end {
                break;
            }
            // Anchor time from cursor to departure.
            let distance = cursor_loc.distance_to(&vloc);
            let travel_time = SimDuration::from_seconds_f64(distance / TRAVEL_SPEED_MPS)
                .clamp(SimDuration::minutes(1), MAX_TRAVEL);
            let depart = (vstart - travel_time).max(cursor);
            Self::fill_anchor_time(&mut segments, &user, cursor, depart);
            if depart < vstart {
                segments.push(Segment {
                    start: depart,
                    end: vstart,
                    location: vloc,
                    kind: SegmentKind::Travel,
                });
            }
            let vend = vend.min(horizon_end);
            if vstart < vend {
                segments.push(Segment {
                    start: vstart,
                    end: vend,
                    location: vloc,
                    kind: SegmentKind::AtEntity(entity),
                });
            }
            cursor = vend;
            cursor_loc = vloc;
        }
        // Tail: back to the anchor schedule until the horizon.
        Self::fill_anchor_time(&mut segments, &user, cursor, horizon_end);

        MovementTimeline { segments }
    }

    /// Fill `[from, to)` with home/work anchor segments split at schedule
    /// boundaries (9:00 and 17:00 on weekdays).
    fn fill_anchor_time(
        segments: &mut Vec<Segment>,
        user: &orsp_world::User,
        from: Timestamp,
        to: Timestamp,
    ) {
        let mut t = from;
        while t < to {
            let hour = t.hour_of_day();
            let weekend = t.is_weekend();
            let at_work = !weekend && (9.0..17.0).contains(&hour);
            // Next schedule boundary.
            let day_base = Timestamp::from_seconds(t.as_seconds() - t.second_of_day());
            let next_boundary = if weekend {
                day_base + SimDuration::DAY
            } else if hour < 9.0 {
                day_base + SimDuration::hours(9)
            } else if hour < 17.0 {
                day_base + SimDuration::hours(17)
            } else {
                day_base + SimDuration::DAY
            };
            let end = next_boundary.min(to);
            segments.push(Segment {
                start: t,
                end,
                location: if at_work { user.work } else { user.home },
                kind: if at_work { SegmentKind::AtWork } else { SegmentKind::AtHome },
            });
            t = end;
        }
    }

    /// Total time covered.
    pub fn span(&self) -> SimDuration {
        match (self.segments.first(), self.segments.last()) {
            (Some(f), Some(l)) => l.end - f.start,
            _ => SimDuration::ZERO,
        }
    }

    /// The visit segments (ground truth for scoring visit detection).
    pub fn visits(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(|s| matches!(s.kind, SegmentKind::AtEntity(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny(21)).unwrap()
    }

    #[test]
    fn timeline_is_contiguous_and_ordered() {
        let w = world();
        let tl = MovementTimeline::build(&w, UserId::new(0));
        assert!(!tl.segments.is_empty());
        for pair in tl.segments.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "no gaps");
            assert!(pair[0].start <= pair[0].end);
        }
    }

    #[test]
    fn timeline_covers_horizon() {
        let w = world();
        let tl = MovementTimeline::build(&w, UserId::new(1));
        assert_eq!(tl.segments.first().unwrap().start, Timestamp::EPOCH);
        assert_eq!(tl.segments.last().unwrap().end, Timestamp::EPOCH + w.config.horizon);
    }

    #[test]
    fn visits_appear_in_timeline() {
        let w = world();
        // Find a user with at least one visit event.
        let visit_user = w
            .events
            .iter()
            .find(|e| matches!(e.kind, ActivityKind::Visit { .. }))
            .map(|e| e.user)
            .expect("some visit exists");
        let tl = MovementTimeline::build(&w, visit_user);
        assert!(tl.visits().count() >= 1, "visits present in timeline");
    }

    #[test]
    fn travel_precedes_each_visit() {
        let w = world();
        let visit_user = w
            .events
            .iter()
            .find(|e| matches!(e.kind, ActivityKind::Visit { .. }))
            .map(|e| e.user)
            .unwrap();
        let tl = MovementTimeline::build(&w, visit_user);
        for (i, seg) in tl.segments.iter().enumerate() {
            if matches!(seg.kind, SegmentKind::AtEntity(_)) && i > 0 {
                let prev = &tl.segments[i - 1];
                assert!(
                    matches!(prev.kind, SegmentKind::Travel)
                        || matches!(prev.kind, SegmentKind::AtEntity(_)),
                    "visit at {} preceded by {:?}",
                    seg.start,
                    prev.kind
                );
            }
        }
    }

    #[test]
    fn weekday_business_hours_are_at_work() {
        let w = world();
        let tl = MovementTimeline::build(&w, UserId::new(2));
        let user = w.user(UserId::new(2)).unwrap();
        // Find an AtWork segment and check its location.
        let work_seg = tl.segments.iter().find(|s| s.kind == SegmentKind::AtWork);
        if let Some(s) = work_seg {
            assert_eq!(s.location, user.work);
            assert!(!s.start.is_weekend());
        }
    }

    #[test]
    fn unknown_user_yields_empty_timeline() {
        let w = world();
        let tl = MovementTimeline::build(&w, UserId::new(999_999));
        assert!(tl.segments.is_empty());
        assert_eq!(tl.span(), SimDuration::ZERO);
    }

    #[test]
    fn anchor_fill_splits_at_schedule_boundaries() {
        let w = world();
        let tl = MovementTimeline::build(&w, UserId::new(3));
        for s in &tl.segments {
            if s.kind == SegmentKind::AtHome || s.kind == SegmentKind::AtWork {
                // No anchor segment spans both sides of 9:00 on a weekday.
                assert!(
                    s.duration() <= SimDuration::DAY,
                    "anchor segment too long: {}",
                    s.duration()
                );
            }
        }
    }
}
