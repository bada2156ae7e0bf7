use orsp_core::{PipelineConfig, RspPipeline};
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};

fn main() {
    let cfg = WorldConfig {
        users_per_zipcode: 70,
        horizon: SimDuration::days(300),
        ..WorldConfig::tiny(71)
    };
    let world = World::generate(cfg).unwrap();
    println!("reviews in world: {}", world.reviews.len());
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    println!("uploads {} histories {}", outcome.uploads_delivered, outcome.ingest.store().len());
    println!(
        "eval: total {} predicted {} abstained {:?}",
        outcome.eval.total, outcome.eval.predicted, outcome.eval.abstained
    );
    println!("inferred hist entities: {}", outcome.inferred_histograms.len());
    println!(
        "coverage before {} after {}",
        outcome.coverage.mean_before, outcome.coverage.mean_after
    );
}
