//! Dentist finder: the paper's running example, §4.1's *comparative
//! visualizations*.
//!
//! A user searches for a dentist. The three candidates have nearly
//! useless review pages (the Healthgrades median is 5 reviews!), so the
//! RSP instead shows visualizations computed from anonymous aggregate
//! interactions: the visits-per-user histogram (Fig 3a) separates the
//! churn clinic from the keepers, and the distance-vs-visits relation
//! (Fig 3b) separates genuine endorsement from mere convenience.
//!
//! ```sh
//! cargo run --release --example dentist_finder
//! ```

use orsp_aggregate::{ascii_histogram, pearson};
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_server::AggregatePublisher;
use orsp_world::scenario::fig3_scenario;

fn main() {
    let scenario = fig3_scenario(2026);
    println!("You need a dentist. Three are listed nearby. Reviews are sparse.");
    println!("The RSP shows you aggregate interaction evidence instead.\n");

    let outcome = RspPipeline::new(PipelineConfig::default()).run(&scenario.world);

    let dentists =
        [("A", scenario.dentists.a), ("B", scenario.dentists.b), ("C", scenario.dentists.c)];

    // Figure 3(a): who keeps their patients?
    println!("--- How often do patients come back? (visits per user) ---\n");
    for (label, id) in dentists {
        let agg = outcome.aggregates.get(&id).expect("aggregate");
        let bars: Vec<(f64, u64)> = agg
            .visits_per_user
            .iter()
            .enumerate()
            .skip(1)
            .take(9)
            .map(|(n, &c)| (n as f64, c as u64))
            .collect();
        println!(
            "{}",
            ascii_histogram(
                &format!(
                    "Dentist {label}: {} patients, repeat fraction {:.0}%",
                    agg.histories,
                    100.0 * agg.repeat_fraction
                ),
                &bars,
                36
            )
        );
    }

    // Figure 3(b): is the loyalty endorsement or convenience?
    println!("--- Do loyal patients travel for it? (distance vs visits) ---\n");
    for (label, id) in dentists {
        let agg = outcome.aggregates.get(&id).expect("aggregate");
        let points: Vec<(f64, f64)> =
            agg.effort_points.iter().map(|&(n, d)| (n as f64, d)).collect();
        let r = pearson(&points).unwrap_or(0.0);
        let line = AggregatePublisher::mean_distance_by_count(agg);
        let trend: Vec<String> =
            line.iter().take(6).map(|(n, d)| format!("{n}v:{d:.0}m")).collect();
        println!(
            "Dentist {label}: correlation(visits, distance) = {r:+.2}   [{}]",
            trend.join(" ")
        );
    }

    println!();
    println!("Reading the evidence like §4.1 says:");
    println!("  A — patients rarely return:            avoid.");
    println!("  B — repeats AND rising travel effort:  genuine endorsement. Pick B.");
    println!("  C — repeats but everyone lives nearby: convenience, not endorsement.");
}
