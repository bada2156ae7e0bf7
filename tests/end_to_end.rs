//! End-to-end integration: world → sensors → client → anonet → server →
//! inference → search, all through public APIs.

use orsp_core::{listings, PipelineConfig, RspPipeline};
use orsp_search::{InferredSummary, Ranker, ReviewSummary, SearchIndex, SearchQuery};
use orsp_types::{Category, SimDuration};
use orsp_world::{World, WorldConfig};

fn world() -> World {
    let cfg = WorldConfig {
        users_per_zipcode: 70,
        horizon: SimDuration::days(300),
        ..WorldConfig::tiny(2024)
    };
    World::generate(cfg).unwrap()
}

#[test]
fn full_pipeline_produces_inferred_opinions() {
    let world = world();
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);

    // The silent majority's activity reached the server.
    assert!(outcome.uploads_delivered > 1_000);
    assert!(outcome.ingest.store().len() > 200, "many anonymous histories");
    assert_eq!(outcome.ingest.stats().bad_token, 0, "honest pipeline, no forgeries");
    assert_eq!(outcome.ingest.stats().double_spend, 0);

    // Inferred opinions exist and dwarf explicit reviews.
    let inferred_total: u64 = outcome.inferred_histograms.values().map(|h| h.total()).sum();
    let explicit_total: u64 = outcome.explicit_histograms.values().map(|h| h.total()).sum();
    assert!(inferred_total > 0);
    assert!(
        inferred_total > explicit_total,
        "inferred {inferred_total} should exceed explicit {explicit_total}"
    );

    // Coverage improves (the headline claim).
    assert!(outcome.coverage.mean_after > 2.0 * outcome.coverage.mean_before);
    assert!(outcome.coverage.zero_after <= outcome.coverage.zero_before);
}

#[test]
fn search_ranks_with_inferred_summaries() {
    let world = world();
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    let index = SearchIndex::build(listings(&world));
    let ranker = Ranker::default();

    // Every (zipcode, category) query resolves and ranks deterministically.
    let mut any_inferred_support = false;
    for query in index.query_universe() {
        let candidates: Vec<_> = index
            .query(&query)
            .into_iter()
            .map(|l| {
                let explicit = ReviewSummary {
                    histogram: outcome.explicit_histograms.get(&l.id).cloned().unwrap_or_default(),
                };
                let inferred = InferredSummary {
                    histogram: outcome.inferred_histograms.get(&l.id).cloned().unwrap_or_default(),
                    ..Default::default()
                };
                (l.id, explicit, inferred)
            })
            .collect();
        let ranked = ranker.rank(candidates);
        for pair in ranked.windows(2) {
            assert!(pair[0].score >= pair[1].score, "ranking is ordered");
        }
        if ranked.iter().any(|r| r.inferred.count() > 0) {
            any_inferred_support = true;
        }
    }
    assert!(any_inferred_support, "some results carry inferred opinions");
}

#[test]
fn inference_accuracy_is_sane_and_beats_baseline() {
    let world = world();
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    assert!(outcome.eval.predicted > 50, "predicted {}", outcome.eval.predicted);
    assert!(outcome.eval.mae < 1.5, "MAE {}", outcome.eval.mae);
    assert!(
        outcome.eval.mae < outcome.eval_baseline_matched.mae,
        "effort predictor ({}) must beat the repeat-count baseline ({}) on the pairs it predicts",
        outcome.eval.mae,
        outcome.eval_baseline_matched.mae
    );
}

#[test]
fn restaurant_queries_resolve_entities_in_their_zipcode() {
    let world = world();
    let index = SearchIndex::build(listings(&world));
    let zip = world.zipcodes[0].code;
    for cuisine in orsp_types::Cuisine::ALL {
        let q = SearchQuery { zipcode: zip, category: Category::Restaurant(*cuisine) };
        for listing in index.query(&q) {
            assert_eq!(listing.zipcode, zip);
            assert_eq!(listing.category, Category::Restaurant(*cuisine));
        }
    }
}
