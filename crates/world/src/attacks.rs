//! Fraud-trace injectors (§4.3).
//!
//! The paper's threat model: *"even without modifying an RSP's client or
//! tampering with the inputs it receives, a fraudulent user can lead the
//! client to infer fake recommendations by generating user activity that
//! appears to indicate significant engagement"*. Its two worked examples —
//! back-to-back phone calls to an electrician, and a restaurant employee
//! using daily presence as endorsement — are implemented here verbatim,
//! plus a sybil ring that spreads the same attack across colluding
//! accounts.
//!
//! Injected events carry `is_fraud = true` as *ground truth for scoring
//! only*; the flag is stripped before anything reaches the pipeline.

use crate::events::{ActivityEvent, ActivityKind};
use crate::sim::World;
use orsp_types::rng::rng_for;
use orsp_types::{EntityId, SimDuration, Timestamp, UserId};
use rand::Rng;

/// A fraud campaign to inject into a world's trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Attack {
    /// Back-to-back phone calls, "hanging up immediately after calling but
    /// resulting in a record in the phone's call history" (§4.3).
    CallSpam {
        /// The attacking user.
        attacker: UserId,
        /// The promoted entity (e.g. an electrician).
        target: EntityId,
        /// Number of calls to place.
        calls: u32,
        /// When the burst begins.
        start: Timestamp,
        /// Gap between consecutive calls (seconds to minutes for a naive
        /// attacker).
        spacing: SimDuration,
    },
    /// "Any employee at a restaurant can use his presence at the
    /// restaurant daily as evidence of his approval" (§4.3).
    EmployeePresence {
        /// The employee account.
        attacker: UserId,
        /// The restaurant.
        target: EntityId,
        /// First working day.
        start: Timestamp,
        /// Number of consecutive working days.
        days: u32,
        /// Shift length per day.
        shift: SimDuration,
    },
    /// A ring of colluding accounts, each running a diluted call-spam
    /// campaign so no single history looks extreme.
    SybilRing {
        /// The colluding accounts.
        attackers: Vec<UserId>,
        /// The promoted entity.
        target: EntityId,
        /// Calls per attacker.
        calls_each: u32,
        /// Campaign start.
        start: Timestamp,
        /// Campaign length over which each attacker spreads its calls.
        span: SimDuration,
    },
}

impl Attack {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Attack::CallSpam { .. } => "call-spam",
            Attack::EmployeePresence { .. } => "employee-presence",
            Attack::SybilRing { .. } => "sybil-ring",
        }
    }

    /// Generate this attack's events (all flagged `is_fraud`).
    pub fn events(&self, seed: u64) -> Vec<ActivityEvent> {
        let mut rng = rng_for(seed, "attack");
        let mut out = Vec::new();
        match self {
            Attack::CallSpam { attacker, target, calls, start, spacing } => {
                let mut t = *start;
                for _ in 0..*calls {
                    out.push(ActivityEvent {
                        user: *attacker,
                        entity: *target,
                        start: t,
                        // Hang up almost immediately: seconds-long calls.
                        kind: ActivityKind::PhoneCall {
                            duration: SimDuration::seconds(rng.gen_range(2..15)),
                        },
                        group: None,
                        is_fraud: true,
                    });
                    t = t + *spacing + SimDuration::seconds(rng.gen_range(0..30));
                }
            }
            Attack::EmployeePresence { attacker, target, start, days, shift } => {
                for d in 0..*days {
                    let day = *start + SimDuration::days(d as i64);
                    // Shift starts 8–10am each day; commute distance is
                    // short and constant-ish (they work there).
                    let shift_start =
                        day + SimDuration::seconds((rng.gen_range(8.0..10.0) * 3_600.0) as i64);
                    out.push(ActivityEvent {
                        user: *attacker,
                        entity: *target,
                        start: shift_start,
                        kind: ActivityKind::Visit {
                            dwell: *shift,
                            travel_distance_m: rng.gen_range(200.0..900.0),
                        },
                        group: None,
                        is_fraud: true,
                    });
                }
            }
            Attack::SybilRing { attackers, target, calls_each, start, span } => {
                for (i, attacker) in attackers.iter().enumerate() {
                    let mut arng = rng_for(seed ^ (i as u64 + 1), "sybil");
                    for _ in 0..*calls_each {
                        let offset = SimDuration::seconds(
                            (arng.gen::<f64>() * span.as_seconds() as f64) as i64,
                        );
                        out.push(ActivityEvent {
                            user: *attacker,
                            entity: *target,
                            start: *start + offset,
                            kind: ActivityKind::PhoneCall {
                                duration: SimDuration::minutes(arng.gen_range(1..5)),
                            },
                            group: None,
                            is_fraud: true,
                        });
                    }
                }
            }
        }
        out.sort_by_key(|e| e.start);
        out
    }
}

/// Inject a set of attacks into a world's event trace (keeping it sorted).
/// Returns the number of fraudulent events added.
pub fn inject(world: &mut World, attacks: &[Attack], seed: u64) -> usize {
    let mut added = 0;
    for (i, attack) in attacks.iter().enumerate() {
        let events = attack.events(seed ^ ((i as u64) << 32));
        added += events.len();
        world.events.extend(events);
    }
    world.events.sort_by_key(|e| (e.start, e.user.raw(), e.entity.raw()));
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    #[test]
    fn call_spam_is_rapid_and_short() {
        let attack = Attack::CallSpam {
            attacker: UserId::new(0),
            target: EntityId::new(5),
            calls: 10,
            start: Timestamp::EPOCH,
            spacing: SimDuration::minutes(2),
        };
        let events = attack.events(1);
        assert_eq!(events.len(), 10);
        for e in &events {
            assert!(e.is_fraud);
            match e.kind {
                ActivityKind::PhoneCall { duration } => {
                    assert!(duration < SimDuration::minutes(1), "hang-up calls are short");
                }
                _ => panic!("call spam emits calls"),
            }
        }
        // Entire burst fits in well under an hour.
        let span = events.last().unwrap().start - events[0].start;
        assert!(span < SimDuration::hours(1));
    }

    #[test]
    fn employee_presence_is_daily_and_long() {
        let attack = Attack::EmployeePresence {
            attacker: UserId::new(0),
            target: EntityId::new(5),
            start: Timestamp::EPOCH,
            days: 30,
            shift: SimDuration::hours(8),
        };
        let events = attack.events(2);
        assert_eq!(events.len(), 30);
        for w in events.windows(2) {
            let gap = w[1].start - w[0].start;
            assert!(gap >= SimDuration::hours(20) && gap <= SimDuration::hours(28));
        }
        for e in &events {
            match e.kind {
                ActivityKind::Visit { dwell, .. } => assert_eq!(dwell, SimDuration::hours(8)),
                _ => panic!("presence attack emits visits"),
            }
        }
    }

    #[test]
    fn sybil_ring_spreads_across_accounts() {
        let attackers: Vec<UserId> = (0..5).map(UserId::new).collect();
        let attack = Attack::SybilRing {
            attackers: attackers.clone(),
            target: EntityId::new(9),
            calls_each: 4,
            start: Timestamp::EPOCH,
            span: SimDuration::days(60),
        };
        let events = attack.events(3);
        assert_eq!(events.len(), 20);
        for a in &attackers {
            assert_eq!(events.iter().filter(|e| e.user == *a).count(), 4);
        }
        // Different attackers see different schedules.
        let t0: Vec<Timestamp> =
            events.iter().filter(|e| e.user == attackers[0]).map(|e| e.start).collect();
        let t1: Vec<Timestamp> =
            events.iter().filter(|e| e.user == attackers[1]).map(|e| e.start).collect();
        assert_ne!(t0, t1);
    }

    #[test]
    fn inject_keeps_trace_sorted_and_counts() {
        let mut world = World::generate(WorldConfig::tiny(1)).unwrap();
        let before = world.events.len();
        let added = inject(
            &mut world,
            &[Attack::CallSpam {
                attacker: UserId::new(0),
                target: EntityId::new(0),
                calls: 7,
                start: Timestamp::from_seconds(86_400),
                spacing: SimDuration::minutes(1),
            }],
            99,
        );
        assert_eq!(added, 7);
        assert_eq!(world.events.len(), before + 7);
        for w in world.events.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert_eq!(world.events.iter().filter(|e| e.is_fraud).count(), 7);
    }

    #[test]
    fn attacks_are_deterministic_per_seed() {
        let attack = Attack::CallSpam {
            attacker: UserId::new(0),
            target: EntityId::new(5),
            calls: 5,
            start: Timestamp::EPOCH,
            spacing: SimDuration::minutes(2),
        };
        assert_eq!(attack.events(7), attack.events(7));
        assert_ne!(attack.events(7), attack.events(8));
    }

    #[test]
    fn labels() {
        let a = Attack::CallSpam {
            attacker: UserId::new(0),
            target: EntityId::new(0),
            calls: 1,
            start: Timestamp::EPOCH,
            spacing: SimDuration::ZERO,
        };
        assert_eq!(a.label(), "call-spam");
    }
}
