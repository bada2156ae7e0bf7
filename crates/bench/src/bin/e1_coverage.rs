//! E1 — Coverage gain: the paper's headline claim, end-to-end.
//!
//! §2: "the number of opinions that users can draw upon for a typical
//! entity can be dramatically increased." This harness runs the full
//! pipeline over a synthetic city and compares opinions-per-entity under
//! the status quo (explicit reviews only) against the paper's design
//! (explicit + implicitly inferred).

use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};

fn main() {
    let seed = seed_from_args();
    let users = arg_u64("users", 80) as usize;
    let days = arg_u64("days", 365) as i64;
    header("E1", "Coverage gain — opinions per entity, before vs after");
    println!("(seed {seed}, {users} users/zip, {days} days)\n");

    let config = WorldConfig {
        users_per_zipcode: users,
        horizon: SimDuration::days(days),
        ..WorldConfig::tiny(seed)
    };
    let world = World::generate(config).unwrap();
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    let c = &outcome.coverage;

    println!("{:<38} {:>10} {:>10}", "", "explicit", "+inferred");
    println!(
        "{:<38} {:>10} {:>10}",
        "median opinions per entity",
        f(c.median_before),
        f(c.median_after)
    );
    println!("{:<38} {:>10} {:>10}", "mean opinions per entity", f(c.mean_before), f(c.mean_after));
    println!(
        "{:<38} {:>9}% {:>9}%",
        "entities with zero opinions",
        f(100.0 * c.zero_before),
        f(100.0 * c.zero_after)
    );
    println!();
    println!("uploads delivered: {}", outcome.uploads_delivered);
    println!("anonymous histories stored: {}", outcome.ingest.store().len());
    println!("inference coverage on held-out pairs: {:.2}", outcome.eval.coverage);

    println!("\nPAPER vs MEASURED");
    compare(
        "opinions per typical entity",
        "dramatic ↑",
        &format!("{}x mean gain", f(c.mean_gain())),
    );
    assert!(c.mean_gain() > 2.0, "coverage gain too small: {}", c.mean_gain());
    println!("  shape check: PASS (gain {}x)", f(c.mean_gain()));
}
