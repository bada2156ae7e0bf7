//! E2 — Inference accuracy & abstention (§4.1).
//!
//! Trains the effort-is-endorsement predictor on the reviewer minority's
//! explicit ratings and evaluates on held-out (silent-user) pairs against
//! latent ground truth, comparing with the repeat-count baseline the
//! paper warns against, and sweeping the abstention (disagreement)
//! threshold to show the coverage/accuracy trade-off.

use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_inference::predictor::PredictorConfig;
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};

fn main() {
    let seed = seed_from_args();
    let users = arg_u64("users", 80) as usize;
    header("E2", "Inference accuracy and abstention quality");

    let config = WorldConfig {
        users_per_zipcode: users,
        horizon: SimDuration::days(365),
        ..WorldConfig::tiny(seed)
    };
    let world = World::generate(config).unwrap();

    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    println!("\nheld-out pairs: {}", outcome.eval.total);
    println!("{:<26} {:>8} {:>8} {:>10} {:>12}", "model", "MAE", "RMSE", "coverage", "within 1★");
    println!(
        "{:<26} {:>8} {:>8} {:>9}% {:>11}%",
        "effort predictor",
        f(outcome.eval.mae),
        f(outcome.eval.rmse),
        f(100.0 * outcome.eval.coverage),
        f(100.0 * outcome.eval.within_one_star)
    );
    println!(
        "{:<26} {:>8} {:>8} {:>9}% {:>11}%",
        "repeat-count baseline",
        f(outcome.eval_baseline.mae),
        f(outcome.eval_baseline.rmse),
        f(100.0 * outcome.eval_baseline.coverage),
        f(100.0 * outcome.eval_baseline.within_one_star)
    );
    println!("\nabstentions by reason: {:?}", outcome.eval.abstained);
    println!(
        "forced MAE on abstained pairs: {} (vs {} on predicted — abstention is {})",
        f(outcome.eval.abstained_forced_mae),
        f(outcome.eval.mae),
        if outcome.eval.abstained_forced_mae > outcome.eval.mae {
            "well-placed"
        } else {
            "miscalibrated"
        }
    );

    // Per-category stratification (restaurants / doctors / trades learn
    // separate models where labels allow).
    let grouped_cfg = PipelineConfig { per_category_models: true, ..Default::default() };
    let grouped = RspPipeline::new(grouped_cfg).run(&world);
    println!(
        "{:<26} {:>8} {:>8} {:>9}% {:>11}%",
        "per-category models",
        f(grouped.eval.mae),
        f(grouped.eval.rmse),
        f(100.0 * grouped.eval.coverage),
        f(100.0 * grouped.eval.within_one_star)
    );

    // Abstention sweep: tighter disagreement tolerance → less coverage,
    // better accuracy.
    println!("\nabstention sweep (max ensemble disagreement):");
    println!("{:>12} {:>10} {:>8}", "tolerance", "coverage", "MAE");
    for tol in [0.4, 0.7, 1.1, 1.6, 2.5] {
        let cfg = PipelineConfig {
            predictor: PredictorConfig { max_disagreement: tol, ..Default::default() },
            ..Default::default()
        };
        let o = RspPipeline::new(cfg).run(&world);
        println!("{:>12} {:>9}% {:>8}", f(tol), f(100.0 * o.eval.coverage), f(o.eval.mae));
    }

    println!("\nPAPER vs MEASURED");
    compare(
        "implicit inference beats count-only heuristic",
        "expected",
        &format!("MAE {} vs {}", f(outcome.eval.mae), f(outcome.eval_baseline_matched.mae)),
    );
    assert!(outcome.eval.mae < outcome.eval_baseline_matched.mae, "predictor must beat baseline");
    println!("  shape check: PASS");
}
