//! E10 — The wearable extension (§3.1, implemented future work).
//!
//! The paper: *"an RSP may be able to infer a user's opinion about an
//! entity by monitoring the user's emotions when interacting with the
//! entity"* — then restricts itself to "more modest means". This harness
//! implements the immodest version: heart-rate arousal during visits as
//! an extra inference feature, and measures what it buys on top of the
//! behavioural features.

use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};

fn main() {
    let seed = seed_from_args();
    let users = arg_u64("users", 80) as usize;
    header("E10", "Wearable heart-rate sensing as an inference feature");

    let config = WorldConfig {
        users_per_zipcode: users,
        horizon: SimDuration::days(365),
        ..WorldConfig::tiny(seed)
    };
    let world = World::generate(config).unwrap();

    println!("\n{:<28} {:>8} {:>10} {:>12}", "configuration", "MAE", "coverage", "within 1★");
    let mut maes = Vec::new();
    for (label, wearables) in [("behavioural features only", false), ("+ heart-rate arousal", true)]
    {
        let cfg = PipelineConfig { use_wearables: wearables, ..Default::default() };
        let outcome = RspPipeline::new(cfg).run(&world);
        println!(
            "{:<28} {:>8} {:>9}% {:>11}%",
            label,
            f(outcome.eval.mae),
            f(100.0 * outcome.eval.coverage),
            f(100.0 * outcome.eval.within_one_star)
        );
        maes.push(outcome.eval.mae);
    }

    println!("\nPAPER vs MEASURED");
    compare(
        "emotion sensing sharpens inference",
        "plausible (§3.1)",
        &format!("MAE {} -> {}", f(maes[0]), f(maes[1])),
    );
    // The HR signal is built from ground-truth opinion (plus noise and an
    // exercise confound), so it should help — but the behavioural
    // features already carry most of the signal.
    assert!(maes[1] <= maes[0] + 0.05, "wearables must not hurt: {} vs {}", maes[1], maes[0]);
    println!("  shape check: PASS");
}
