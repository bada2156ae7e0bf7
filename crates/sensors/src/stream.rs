//! Rendering: movement timeline × sampling policy → the sensor trace the
//! RSP's client observes.

use crate::calls::{call_log, CallRecord};
use crate::energy::{EnergyModel, EnergyReport};
use crate::location::{FixSource, LocationFix};
use crate::movement::{MovementTimeline, SegmentKind};
use crate::payments::{payment_feed, PaymentRecord};
use crate::policy::SamplingPolicy;
use orsp_types::rng::rng_for_indexed;
use orsp_types::{GeoPoint, SimDuration, UserId};
use orsp_world::World;
use rand::rngs::StdRng;
use rand::Rng;

/// Everything the RSP's client can observe about one user.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorTrace {
    /// Whose trace (client-side bookkeeping — never uploaded).
    pub user: UserId,
    /// Location fixes, chronological.
    pub fixes: Vec<LocationFix>,
    /// Call-log entries, chronological.
    pub calls: Vec<CallRecord>,
    /// Payment feed, chronological.
    pub payments: Vec<PaymentRecord>,
    /// What collecting this trace cost.
    pub energy: EnergyReport,
}

/// Gaussian noise via Box–Muller.
fn gaussian(rng: &mut StdRng, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn noisy(point: GeoPoint, source: FixSource, rng: &mut StdRng) -> GeoPoint {
    let sigma = source.accuracy_m();
    point.offset(gaussian(rng, sigma), gaussian(rng, sigma))
}

/// Render one user's sensor trace under a sampling policy.
///
/// Deterministic per (world seed, user, policy).
pub fn render_user_trace(
    world: &World,
    user: UserId,
    policy: SamplingPolicy,
    model: &EnergyModel,
) -> SensorTrace {
    let timeline = MovementTimeline::build(world, user);
    let mut rng = rng_for_indexed(world.config.seed, "sensors", user.raw());
    let mut fixes = Vec::new();
    let mut energy = EnergyReport::default();

    match policy {
        SamplingPolicy::PeriodicGps { interval } => {
            render_periodic(&timeline, interval, &mut fixes, &mut energy, model, &mut rng);
        }
        SamplingPolicy::AccelGated { settle, idle_interval } => {
            render_gated(
                &timeline,
                settle,
                idle_interval,
                FixSource::Gps,
                &mut fixes,
                &mut energy,
                model,
                &mut rng,
            );
            energy.record_accel(timeline.span(), model);
        }
        SamplingPolicy::WifiAssisted { settle, idle_interval } => {
            render_gated(
                &timeline,
                settle,
                idle_interval,
                FixSource::Wifi,
                &mut fixes,
                &mut energy,
                model,
                &mut rng,
            );
            energy.record_accel(timeline.span(), model);
        }
    }

    SensorTrace {
        user,
        fixes,
        calls: call_log(world, user),
        payments: payment_feed(world, user),
        energy,
    }
}

/// Naive periodic GPS: a fix every `interval`, wherever the user is.
/// During travel the position interpolates from the previous stationary
/// location toward the destination.
fn render_periodic(
    timeline: &MovementTimeline,
    interval: SimDuration,
    fixes: &mut Vec<LocationFix>,
    energy: &mut EnergyReport,
    model: &EnergyModel,
    rng: &mut StdRng,
) {
    let Some(first) = timeline.segments.first() else { return };
    let mut t = first.start;
    let mut seg_idx = 0usize;
    let mut prev_stationary = first.location;
    while seg_idx < timeline.segments.len() {
        let seg = &timeline.segments[seg_idx];
        if t >= seg.end {
            if seg.kind.is_stationary() {
                prev_stationary = seg.location;
            }
            seg_idx += 1;
            continue;
        }
        let truth = match seg.kind {
            SegmentKind::Travel => {
                let total = (seg.end - seg.start).as_seconds().max(1) as f64;
                let done = (t - seg.start).as_seconds() as f64;
                prev_stationary.lerp(&seg.location, (done / total).clamp(0.0, 1.0))
            }
            _ => seg.location,
        };
        fixes.push(LocationFix {
            time: t,
            point: noisy(truth, FixSource::Gps, rng),
            source: FixSource::Gps,
        });
        energy.record_fix(FixSource::Gps, model);
        t = t + interval;
    }
}

/// Accelerometer-gated sampling: one fix `settle` after each stationary
/// segment begins (GPS), then confirmations every `idle_interval`
/// (`confirm_source`). Nothing during travel.
#[allow(clippy::too_many_arguments)]
fn render_gated(
    timeline: &MovementTimeline,
    settle: SimDuration,
    idle_interval: SimDuration,
    confirm_source: FixSource,
    fixes: &mut Vec<LocationFix>,
    energy: &mut EnergyReport,
    model: &EnergyModel,
    rng: &mut StdRng,
) {
    for seg in &timeline.segments {
        if !seg.kind.is_stationary() || seg.duration() < settle {
            continue;
        }
        // First fix after settling: always GPS (establish the place).
        let first_t = seg.start + settle;
        fixes.push(LocationFix {
            time: first_t,
            point: noisy(seg.location, FixSource::Gps, rng),
            source: FixSource::Gps,
        });
        energy.record_fix(FixSource::Gps, model);
        // Confirmations until the segment ends.
        let mut t = first_t + idle_interval;
        while t < seg.end {
            fixes.push(LocationFix {
                time: t,
                point: noisy(seg.location, confirm_source, rng),
                source: confirm_source,
            });
            energy.record_fix(confirm_source, model);
            t = t + idle_interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movement::MovementTimeline;
    use orsp_world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny(41)).unwrap()
    }

    #[test]
    fn traces_are_deterministic() {
        let w = world();
        let a = render_user_trace(
            &w,
            UserId::new(0),
            SamplingPolicy::accel_gated(),
            &EnergyModel::default(),
        );
        let b = render_user_trace(
            &w,
            UserId::new(0),
            SamplingPolicy::accel_gated(),
            &EnergyModel::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn fixes_are_chronological() {
        let w = world();
        for policy in [
            SamplingPolicy::naive_slow(),
            SamplingPolicy::accel_gated(),
            SamplingPolicy::wifi_assisted(),
        ] {
            let tr = render_user_trace(&w, UserId::new(1), policy, &EnergyModel::default());
            for pair in tr.fixes.windows(2) {
                assert!(pair[0].time <= pair[1].time, "{}", policy.label());
            }
        }
    }

    #[test]
    fn gated_uses_less_energy_than_fast_periodic() {
        let w = world();
        let model = EnergyModel::default();
        let fast = render_user_trace(&w, UserId::new(2), SamplingPolicy::naive_fast(), &model);
        let gated = render_user_trace(&w, UserId::new(2), SamplingPolicy::accel_gated(), &model);
        let wifi = render_user_trace(&w, UserId::new(2), SamplingPolicy::wifi_assisted(), &model);
        assert!(
            gated.energy.total_mj < fast.energy.total_mj / 2.0,
            "gated {} vs fast {}",
            gated.energy.total_mj,
            fast.energy.total_mj
        );
        assert!(
            wifi.energy.total_mj < gated.energy.total_mj,
            "wifi {} vs gated {}",
            wifi.energy.total_mj,
            gated.energy.total_mj
        );
    }

    #[test]
    fn gated_covers_every_long_stationary_segment() {
        let w = world();
        let user = UserId::new(3);
        let tl = MovementTimeline::build(&w, user);
        let tr =
            render_user_trace(&w, user, SamplingPolicy::accel_gated(), &EnergyModel::default());
        let settle = SimDuration::minutes(3);
        for seg in tl.segments.iter().filter(|s| s.kind.is_stationary() && s.duration() >= settle) {
            let covered = tr.fixes.iter().any(|f| f.time >= seg.start && f.time < seg.end);
            assert!(covered, "stationary segment at {} has no fix", seg.start);
        }
    }

    #[test]
    fn wifi_policy_mixes_sources() {
        let w = world();
        let tr = render_user_trace(
            &w,
            UserId::new(4),
            SamplingPolicy::wifi_assisted(),
            &EnergyModel::default(),
        );
        let gps = tr.fixes.iter().filter(|f| f.source == FixSource::Gps).count();
        let wifi = tr.fixes.iter().filter(|f| f.source == FixSource::Wifi).count();
        assert!(gps > 0, "first fix per spot is GPS");
        assert!(wifi > gps, "confirmations dominate");
    }

    #[test]
    fn fixes_are_near_ground_truth() {
        let w = world();
        let user = UserId::new(5);
        let tl = MovementTimeline::build(&w, user);
        let tr =
            render_user_trace(&w, user, SamplingPolicy::accel_gated(), &EnergyModel::default());
        for f in &tr.fixes {
            let seg = tl
                .segments
                .iter()
                .find(|s| f.time >= s.start && f.time < s.end)
                .expect("fix inside timeline");
            let err = f.point.distance_to(&seg.location);
            // 6 sigma of the worst source in play.
            assert!(err < 6.0 * f.source.accuracy_m(), "error {err} m");
        }
    }

    #[test]
    fn energy_report_counts_match_fix_list() {
        let w = world();
        let tr = render_user_trace(
            &w,
            UserId::new(6),
            SamplingPolicy::wifi_assisted(),
            &EnergyModel::default(),
        );
        let gps = tr.fixes.iter().filter(|f| f.source == FixSource::Gps).count() as u64;
        let wifi = tr.fixes.iter().filter(|f| f.source == FixSource::Wifi).count() as u64;
        assert_eq!(tr.energy.gps_fixes, gps);
        assert_eq!(tr.energy.wifi_scans, wifi);
    }
}
