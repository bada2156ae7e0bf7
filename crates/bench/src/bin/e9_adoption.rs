//! E9 — Adoption sweep (§5, "Incentives").
//!
//! Angie's List has 10–12M monthly web visitors but at most 500K app
//! installs — so what fraction of users must carry the RSP's client
//! before the comprehensive repository materializes? This harness sweeps
//! the adoption rate and reports the coverage gain at each level.

use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};

fn main() {
    let seed = seed_from_args();
    let users = arg_u64("users", 150) as usize;
    header("E9", "Adoption sweep — coverage gain vs app-install fraction");

    let config = WorldConfig {
        users_per_zipcode: users,
        horizon: SimDuration::days(365),
        reviewer_fraction: 0.25,
        ..WorldConfig::tiny(seed)
    };
    let world = World::generate(config).unwrap();

    println!(
        "\n{:>10} {:>16} {:>16} {:>12}",
        "adoption", "mean opinions", "mean gain", "zero-opinion"
    );
    let mut gains = Vec::new();
    for adoption in [0.05, 0.15, 0.30, 0.60, 1.00] {
        let cfg = PipelineConfig { adoption_rate: adoption, ..Default::default() };
        let outcome = RspPipeline::new(cfg).run(&world);
        let c = &outcome.coverage;
        println!(
            "{:>9}% {:>16} {:>15}x {:>11}%",
            f(100.0 * adoption),
            f(c.mean_after),
            f(c.mean_gain()),
            f(100.0 * c.zero_after)
        );
        gains.push((adoption, c.mean_gain()));
    }

    println!("\nPAPER vs MEASURED");
    compare(
        "benefit grows with adoption",
        "monotone ↑",
        &format!(
            "gain {}x at 5% -> {}x at 100%",
            f(gains.first().unwrap().1),
            f(gains.last().unwrap().1)
        ),
    );
    compare("even partial adoption helps", "yes", &format!("{}x at 30%", f(gains[2].1)));
    assert!(gains.last().unwrap().1 > gains.first().unwrap().1);
    assert!(gains[2].1 > 1.5, "30% adoption should already produce real gain");
    if gains[0].1 <= 1.05 {
        println!(
            "  note: at {}% adoption the reviewer pool is below the training\n               threshold — the RSP can publish interaction aggregates but not\n               inferred ratings yet (the cold-start regime).",
            f(100.0 * gains[0].0)
        );
    }
    println!("  shape check: PASS");
}
