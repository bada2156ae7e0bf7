//! E5 — Energy-efficient location tracking (§5, "Location tracking").
//!
//! Paper: the RSP "can do so by exploiting cues from sensors such as the
//! accelerometer (e.g., to sample the user's location only when the user
//! has been stationary for a few minutes ...) and by leveraging WiFi and
//! cellular information, not only the GPS."
//!
//! For each sampling policy: total energy, fix counts, average power, and
//! the visit-detection recall the client achieves on that fix stream —
//! the trade-off that justifies duty cycling.

use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_client::{EntityMapper, SessionizerConfig, VisitSessionizer};
use orsp_core::directory_entries;
use orsp_sensors::{render_user_trace, EnergyModel, MovementTimeline, SamplingPolicy};
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};

fn main() {
    let seed = seed_from_args();
    let users = arg_u64("users", 30) as usize;
    header("E5", "Energy-efficient location tracking — policy comparison");

    let config = WorldConfig {
        users_per_zipcode: users,
        horizon: SimDuration::days(120),
        ..WorldConfig::tiny(seed)
    };
    let world = World::generate(config).unwrap();
    let mapper = EntityMapper::new(directory_entries(&world));
    let model = EnergyModel::default();
    let span = world.config.horizon;

    let policies = [
        ("periodic GPS / 1 min", SamplingPolicy::naive_fast()),
        ("periodic GPS / 10 min", SamplingPolicy::naive_slow()),
        ("accel-gated (paper)", SamplingPolicy::accel_gated()),
        ("wifi-assisted (paper)", SamplingPolicy::wifi_assisted()),
    ];

    println!(
        "\n{:<24} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "policy", "fixes/day", "J/day", "avg mW", "recall", ""
    );
    let mut rows = Vec::new();
    for (label, policy) in policies {
        let mut total_energy = 0.0f64;
        let mut total_fixes = 0u64;
        let mut true_visits = 0usize;
        let mut detected = 0usize;
        for user in &world.users {
            let trace = render_user_trace(&world, user.id, policy, &model);
            total_energy += trace.energy.total_mj;
            total_fixes += trace.energy.total_fixes();
            // Ground truth: entity dwells of at least the sessionizer's
            // min dwell.
            let timeline = MovementTimeline::build(&world, user.id);
            let truths: Vec<_> =
                timeline.visits().filter(|s| s.duration() >= SimDuration::minutes(20)).collect();
            true_visits += truths.len();
            let detections =
                VisitSessionizer::sessionize(&trace.fixes, &mapper, SessionizerConfig::default());
            // A truth is detected if some entity-attributed detection
            // overlaps it.
            for t in &truths {
                if detections
                    .iter()
                    .any(|d| d.entity.is_some() && d.start <= t.end && d.end >= t.start)
                {
                    detected += 1;
                }
            }
        }
        let days = span.as_days_f64() * world.users.len() as f64;
        let recall = detected as f64 / true_visits.max(1) as f64;
        println!(
            "{:<24} {:>10} {:>10} {:>10} {:>9}%",
            label,
            f(total_fixes as f64 / days),
            f(total_energy / 1_000.0 / days),
            f(total_energy / (span.as_seconds() as f64 * world.users.len() as f64)),
            f(100.0 * recall)
        );
        rows.push((label, total_energy, recall));
    }

    println!("\nPAPER vs MEASURED");
    let naive = rows[0].1;
    let gated = rows[2].1;
    compare(
        "accel gating cuts energy vs naive GPS",
        "large ↓",
        &format!("{}x less", f(naive / gated)),
    );
    compare(
        "visit detection preserved",
        "yes",
        &format!("{}% vs {}%", f(100.0 * rows[2].2), f(100.0 * rows[0].2)),
    );
    assert!(naive / gated > 4.0, "gating must save substantial energy");
    assert!(rows[2].2 > 0.8 * rows[0].2, "gating must preserve recall");
    println!("  shape check: PASS");
}
