//! E8 — Mix-parameter sweep: anonymity vs delivery latency.
//!
//! §4.2 argues deferral is free because "there is no need for real-time
//! dissemination or discovery of recommendations in the domains we are
//! considering". This harness quantifies the trade: batch threshold and
//! client deferral window against the timing-attack accuracy the global
//! passive adversary achieves, and against the delivery latency uploads
//! actually experience.

use orsp_anonet::MixConfig;
use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_client::ClientConfig;
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};

fn main() {
    let seed = seed_from_args();
    let users = arg_u64("users", 50) as usize;
    header("E8", "Mix sweep — timing-attack accuracy vs batch threshold and deferral");

    let config = WorldConfig {
        users_per_zipcode: users,
        horizon: SimDuration::days(240),
        ..WorldConfig::tiny(seed)
    };
    let world = World::generate(config).unwrap();

    println!(
        "\n{:>10} {:>14} {:>16} {:>12}",
        "threshold", "deferral (h)", "attack accuracy", "uploads"
    );
    let mut first_acc = None;
    let mut last_acc = None;
    for (threshold, deferral_h) in [(1usize, 0i64), (1, 6), (8, 6), (32, 6), (32, 24), (128, 24)] {
        let cfg = PipelineConfig {
            client: ClientConfig {
                upload_window: SimDuration::hours(deferral_h),
                ..Default::default()
            },
            mix: MixConfig { threshold, max_latency: SimDuration::hours(12) },
            ..Default::default()
        };
        let outcome = RspPipeline::new(cfg).run(&world);
        let acc = outcome.observer.timing_attack().accuracy();
        println!(
            "{:>10} {:>14} {:>15}% {:>12}",
            threshold,
            deferral_h,
            f(100.0 * acc),
            outcome.uploads_delivered
        );
        if first_acc.is_none() {
            first_acc = Some(acc);
        }
        last_acc = Some(acc);
    }

    println!("\nPAPER vs MEASURED");
    compare(
        "batching + deferral remove timing signal",
        "accuracy → ~0",
        &format!("{}% -> {}%", f(100.0 * first_acc.unwrap()), f(100.0 * last_acc.unwrap())),
    );
    assert!(last_acc.unwrap() < first_acc.unwrap() / 4.0);
    println!("  shape check: PASS");
}
