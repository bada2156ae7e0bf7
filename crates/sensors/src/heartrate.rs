//! Wearable heart-rate sensing (§3.1).
//!
//! *"Given the increasing array of sensors on wearable devices (e.g.,
//! heart rate monitors on smartwatches), an RSP may be able to infer a
//! user's opinion about an entity by monitoring the user's emotions when
//! interacting with the entity."* The paper sets this aside as beyond its
//! "more modest means"; we implement it as the optional extension it is.
//!
//! Model (documented assumption, per DESIGN.md): emotional arousal during
//! an enjoyable interaction elevates heart rate a few BPM above the
//! wearer's baseline, disappointment depresses it slightly —
//! `delta ≈ 3.0 · (opinion − 2.5) + N(0, 4)` — while commutes and
//! exercise inject large positive spikes *outside* interaction windows
//! (the confound that makes raw HR useless without context).

use orsp_types::rng::rng_for_indexed;
use orsp_types::{SimDuration, Timestamp, UserId};
use orsp_world::{ActivityKind, World};
use rand::Rng;

/// One heart-rate sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HrSample {
    /// Sample time.
    pub time: Timestamp,
    /// Beats per minute.
    pub bpm: f64,
}

/// Sampling cadence during interaction windows.
const SAMPLE_EVERY: SimDuration = SimDuration::seconds(120);

/// The wearer's resting baseline.
const BASELINE_BPM: f64 = 65.0;

/// Arousal slope: BPM per star of (opinion − 2.5).
const AROUSAL_SLOPE: f64 = 3.0;

/// Generate the user's heart-rate stream: samples during every visit
/// window (what a watch would flag as "sedentary, measure continuously"),
/// plus exercise-confound bursts between them.
pub fn hr_trace(world: &World, user_id: UserId) -> Vec<HrSample> {
    let Some(user) = world.user(user_id) else { return Vec::new() };
    let mut rng = rng_for_indexed(world.config.seed, "heartrate", user_id.raw());
    let mut samples = Vec::new();

    for event in world.events.iter().filter(|e| e.user == user_id) {
        if let ActivityKind::Visit { dwell, .. } = event.kind {
            let entity = match world.entity(event.entity) {
                Some(e) => e,
                None => continue,
            };
            let opinion = world.opinions.true_rating(user, entity).value();
            let delta = AROUSAL_SLOPE * (opinion - 2.5);
            let mut t = event.start;
            let end = event.start + dwell;
            while t < end {
                let noise: f64 = rng.gen_range(-4.0..4.0);
                samples.push(HrSample { time: t, bpm: BASELINE_BPM + delta + noise });
                t = t + SAMPLE_EVERY;
            }
            // The confound: a workout or brisk commute right after ~20% of
            // outings, spiking HR far above any arousal signal.
            if rng.gen_bool(0.2) {
                let mut t = end + SimDuration::minutes(5);
                let burst_end = t + SimDuration::minutes(rng.gen_range(15..40));
                while t < burst_end {
                    samples.push(HrSample { time: t, bpm: 110.0 + rng.gen_range(0.0..30.0) });
                    t = t + SAMPLE_EVERY;
                }
            }
        }
    }
    samples.sort_by_key(|s| s.time);
    samples
}

/// Mean HR delta (vs baseline) inside a time window; `None` if no samples.
pub fn mean_delta_in(samples: &[HrSample], start: Timestamp, end: Timestamp) -> Option<f64> {
    let lo = samples.partition_point(|s| s.time < start);
    let hi = samples.partition_point(|s| s.time < end);
    if lo >= hi {
        return None;
    }
    let mean: f64 = samples[lo..hi].iter().map(|s| s.bpm).sum::<f64>() / (hi - lo) as f64;
    Some(mean - BASELINE_BPM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_world::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::tiny(88)).unwrap()
    }

    #[test]
    fn trace_is_chronological_and_nonempty_for_active_users() {
        let w = world();
        let user = w
            .events
            .iter()
            .find(|e| matches!(e.kind, ActivityKind::Visit { .. }))
            .map(|e| e.user)
            .unwrap();
        let trace = hr_trace(&w, user);
        assert!(!trace.is_empty());
        for pair in trace.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }

    #[test]
    fn liked_visits_elevate_heart_rate() {
        let w = world();
        // Find a (user, entity) visit with a strong opinion either way.
        let mut liked_delta = Vec::new();
        let mut disliked_delta = Vec::new();
        for user in w.users.iter().take(20) {
            let trace = hr_trace(&w, user.id);
            for e in w.events.iter().filter(|e| e.user == user.id) {
                if let ActivityKind::Visit { dwell, .. } = e.kind {
                    let entity = w.entity(e.entity).unwrap();
                    let opinion = w.opinions.true_rating(user, entity).value();
                    if let Some(d) = mean_delta_in(&trace, e.start, e.start + dwell) {
                        if opinion >= 4.0 {
                            liked_delta.push(d);
                        } else if opinion <= 1.5 {
                            disliked_delta.push(d);
                        }
                    }
                }
            }
        }
        assert!(!liked_delta.is_empty());
        let liked_mean: f64 = liked_delta.iter().sum::<f64>() / liked_delta.len() as f64;
        assert!(liked_mean > 2.0, "liked visits elevate HR: {liked_mean}");
        if !disliked_delta.is_empty() {
            let disliked_mean: f64 =
                disliked_delta.iter().sum::<f64>() / disliked_delta.len() as f64;
            assert!(liked_mean > disliked_mean + 2.0);
        }
    }

    #[test]
    fn mean_delta_outside_windows_is_none() {
        let samples = vec![
            HrSample { time: Timestamp::from_seconds(1_000), bpm: 70.0 },
            HrSample { time: Timestamp::from_seconds(2_000), bpm: 72.0 },
        ];
        assert_eq!(
            mean_delta_in(&samples, Timestamp::from_seconds(5_000), Timestamp::from_seconds(6_000)),
            None
        );
        let d = mean_delta_in(&samples, Timestamp::from_seconds(0), Timestamp::from_seconds(3_000))
            .unwrap();
        assert!((d - 6.0).abs() < 1e-9, "mean 71 vs baseline 65: {d}");
    }

    #[test]
    fn unknown_user_has_empty_trace() {
        let w = world();
        assert!(hr_trace(&w, UserId::new(999_999)).is_empty());
    }

    #[test]
    fn trace_is_deterministic() {
        let w = world();
        let user = w.users[0].id;
        assert_eq!(hr_trace(&w, user), hr_trace(&w, user));
    }
}
