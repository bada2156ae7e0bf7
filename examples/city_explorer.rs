//! City explorer: free-text search with device-local personalization.
//!
//! Exercises the full search surface: `parse_query("plumber near …")`,
//! ranking over explicit ⊕ inferred opinions, and §5's incentive — the
//! re-ranking a user gets from their own (private, on-device) history.
//!
//! ```sh
//! cargo run --release --example city_explorer
//! ```

use orsp_core::{listings, PipelineConfig, RspPipeline};
use orsp_search::{
    parse_query, InferredSummary, PersonalHistory, Ranker, ReviewSummary, SearchIndex,
};
use orsp_types::{Rating, SimDuration};
use orsp_world::{World, WorldConfig};

fn main() {
    let config = WorldConfig {
        users_per_zipcode: 60,
        horizon: SimDuration::days(365),
        ..WorldConfig::tiny(31_415)
    };
    let world = World::generate(config).expect("world");
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    let index = SearchIndex::build(listings(&world));
    let ranker = Ranker::default();
    let zip = world.zipcodes[0].code;

    let rank_for = |query_text: &str| {
        let query = parse_query(query_text).expect("parsable query");
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
        ranker.rank(candidates)
    };

    for text in
        [format!("thai near {zip:05}"), format!("dentist in {zip:05}"), format!("plumber {zip:05}")]
    {
        let ranked = rank_for(&text);
        println!("query: {text:?} -> {} results", ranked.len());
        for r in ranked.iter().take(3) {
            let name = index.listing(r.entity).map(|l| l.name.clone()).unwrap_or_default();
            println!(
                "  {:<26} score {:.2}  ({} reviews, {} inferred opinions)",
                name,
                r.score,
                r.explicit.count(),
                r.inferred.count()
            );
        }
        println!();
    }

    // Personalization: the user had a terrible experience at the global
    // #1 Thai place — their private history sinks it, locally, without
    // telling the RSP anything.
    let text = format!("thai near {zip:05}");
    let ranked = rank_for(&text);
    if ranked.len() >= 2 {
        let global_best = ranked[0].entity;
        let mut personal = PersonalHistory::new();
        personal.record(global_best, Rating::new(0.5));
        let reranked = personal.rerank(ranked.clone(), 1.0);
        let name = |id| index.listing(id).map(|l| l.name.clone()).unwrap_or_default();
        println!("personalization: you hated {:?}", name(global_best));
        println!("  global ranking:   1. {}", name(ranked[0].entity));
        println!("  your ranking:     1. {}", name(reranked[0].entity));
        assert_ne!(
            reranked[0].entity, global_best,
            "a 0.5-star personal experience must dethrone the global #1"
        );
        println!("  (your opinion never left the phone)");
    }
}
