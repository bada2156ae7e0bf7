//! E7 — Feature-family ablation (§4.1's design choices, quantified).
//!
//! The paper prescribes three feature families: effort, exploration
//! ("tried out many options before settling"), and choice-set size. This
//! harness trains the predictor with each family removed and measures the
//! damage — the ablation evidence DESIGN.md promises for the §4.1 design
//! calls.

use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_inference::predictor::PredictorConfig;
use orsp_inference::{
    EvalReport, FeatureVector, LabeledExample, OpinionPredictor, Prediction, FEATURE_NAMES,
};
use orsp_types::{Rating, SimDuration};
use orsp_world::{World, WorldConfig};

/// Zero out the named feature columns.
fn mask(features: &FeatureVector, drop: &[&str]) -> FeatureVector {
    let mut out = *features;
    for (i, name) in FEATURE_NAMES.iter().enumerate() {
        if drop.contains(name) {
            out.values[i] = 0.0;
        }
    }
    out
}

fn main() {
    let seed = seed_from_args();
    let users = arg_u64("users", 150) as usize;
    header("E7", "Feature-family ablation for the effort classifier");

    // Ablation needs statistical power: a real RSP trains on millions of
    // reviewers, so give this study a denser reviewer base than the
    // default 1/9/90 world.
    let config = WorldConfig {
        users_per_zipcode: users,
        horizon: SimDuration::days(365),
        reviewer_fraction: 0.35,
        ..WorldConfig::tiny(seed)
    };
    let world = World::generate(config).unwrap();
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    let dataset = &outcome.dataset;
    println!(
        "\ndataset: {} pairs, {} labelled by reviewers\n",
        dataset.len(),
        dataset.iter().filter(|p| p.label.is_some()).count()
    );

    const EFFORT: &[&str] = &["mean_dwell_min", "log_mean_distance_m", "log_max_distance_m"];
    const EXPLORATION: &[&str] = &["log_alternatives_tried", "settled_share"];
    const CHOICE_SET: &[&str] = &["log_choice_set"];
    const CADENCE: &[&str] =
        &["log_span_days", "log_mean_gap_days", "gap_regularity", "burst_fraction"];

    let variants: Vec<(&str, Vec<&str>)> = vec![
        ("full model", vec![]),
        ("- effort features", EFFORT.to_vec()),
        ("- exploration features", EXPLORATION.to_vec()),
        ("- choice-set features", CHOICE_SET.to_vec()),
        ("- cadence features", CADENCE.to_vec()),
        (
            "count only (all but log_count)",
            FEATURE_NAMES.iter().copied().filter(|n| *n != "log_count").collect(),
        ),
    ];

    println!("{:<34} {:>8} {:>10} {:>12}", "variant", "MAE", "coverage", "within 1★");
    let mut results: Vec<(String, f64)> = Vec::new();
    for (label, drop) in &variants {
        let train: Vec<(FeatureVector, Rating)> =
            dataset.iter().filter_map(|p| p.label.map(|l| (mask(&p.features, drop), l))).collect();
        let Some(model) = OpinionPredictor::train(&train, PredictorConfig::default()) else {
            println!("{label:<34} (too little training data)");
            continue;
        };
        let examples: Vec<LabeledExample> = dataset
            .iter()
            .filter(|p| p.label.is_none())
            .map(|p| LabeledExample {
                prediction: model.predict(&mask(&p.features, drop), p.count),
                truth: p.truth,
                forced: None,
            })
            .collect();
        let report = EvalReport::compute(&examples);
        println!(
            "{:<34} {:>8} {:>9}% {:>11}%",
            label,
            f(report.mae),
            f(100.0 * report.coverage),
            f(100.0 * report.within_one_star)
        );
        results.push((label.to_string(), report.mae));
        // Silence unused-variant warnings for Prediction import.
        let _ = Prediction::Rating(Rating::new(0.0));
    }

    println!("\nPAPER vs MEASURED");
    let full_mae = results[0].1;
    let worst = results[1..].iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("ablations ran");
    compare(
        "each feature family carries signal",
        "MAE rises when dropped",
        &format!("worst ablation: {} (MAE {} vs {})", worst.0, f(worst.1), f(full_mae)),
    );
    assert!(worst.1 >= full_mae, "some ablation should hurt: full {full_mae} vs worst {}", worst.1);
    println!("  shape check: PASS");
}
