//! Quickstart: generate a small city, run the full RSP pipeline, and
//! search for a restaurant — seeing explicit reviews alongside the
//! implicitly inferred opinions that are the paper's whole point.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use orsp_core::{listings, PipelineConfig, RspPipeline};
use orsp_search::{InferredSummary, Ranker, ReviewSummary, SearchIndex, SearchQuery};
use orsp_types::{Category, Cuisine, SimDuration};
use orsp_world::{World, WorldConfig};

fn main() {
    // 1. A synthetic city: users live their lives (restaurants, doctors,
    //    plumbers) for a year; only ~10% ever write a review.
    let config = WorldConfig {
        users_per_zipcode: 60,
        horizon: SimDuration::days(365),
        ..WorldConfig::tiny(7)
    };
    let world = World::generate(config).expect("world generation");
    let stats = world.stats();
    println!(
        "world: {} users, {} entities, {} interactions, {} explicit reviews",
        stats.users, stats.entities, stats.events, stats.reviews
    );

    // 2. The full pipeline: sensors → client inference → anonymous,
    //    token-checked, batch-mixed uploads → server store → typical-user
    //    fraud filter → aggregates + opinion inference.
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    println!(
        "pipeline: {} uploads delivered, {} anonymous histories, {} tokens issued",
        outcome.uploads_delivered,
        outcome.ingest.store().len(),
        outcome.tokens_issued
    );
    println!(
        "coverage: median opinions/entity {} -> {} (mean {:.1} -> {:.1})",
        outcome.coverage.median_before,
        outcome.coverage.median_after,
        outcome.coverage.mean_before,
        outcome.coverage.mean_after
    );

    // 3. Search: one (zipcode, category) query, ranked by explicit ⊕
    //    inferred opinion.
    let index = SearchIndex::build(listings(&world));
    let query = SearchQuery {
        zipcode: world.zipcodes[0].code,
        category: Category::Restaurant(Cuisine::Thai),
    };
    let ranker = Ranker::default();
    let candidates: Vec<_> = index
        .query(&query)
        .into_iter()
        .map(|listing| {
            let explicit = ReviewSummary {
                histogram: outcome
                    .explicit_histograms
                    .get(&listing.id)
                    .cloned()
                    .unwrap_or_default(),
            };
            let inferred = InferredSummary {
                histogram: outcome
                    .inferred_histograms
                    .get(&listing.id)
                    .cloned()
                    .unwrap_or_default(),
                ..Default::default()
            };
            let inferred = match outcome.aggregates.get(&listing.id) {
                Some(agg) => inferred.with_support(agg.histories, agg.repeat_fraction),
                None => inferred,
            };
            (listing.id, explicit, inferred)
        })
        .collect();
    let ranked = ranker.rank(candidates);

    println!("\nsearch: Thai restaurants in {:05}", query.zipcode);
    println!(
        "{:<28} {:>7} {:>9} {:>9} {:>9} {:>7}",
        "entity", "score", "reviews", "rev mean", "inferred", "inf mean"
    );
    for r in ranked.iter().take(8) {
        let name = index.listing(r.entity).map(|l| l.name.clone()).unwrap_or_default();
        println!(
            "{:<28} {:>7.2} {:>9} {:>9} {:>9} {:>7}",
            name,
            r.score,
            r.explicit.count(),
            r.explicit.mean().map(|m| m.to_string()).unwrap_or_else(|| "-".into()),
            r.inferred.count(),
            r.inferred.mean().map(|m| m.to_string()).unwrap_or_else(|| "-".into()),
        );
    }
    let with_only_inferred =
        ranked.iter().filter(|r| r.explicit.count() == 0 && r.inferred.count() > 0).count();
    println!(
        "\n{} of {} results had ZERO reviews but now carry inferred opinions — \
         the paper's comprehensive repository at work.",
        with_only_inferred,
        ranked.len()
    );
}
