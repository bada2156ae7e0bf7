//! Fraud wargame: the attacks of §4.3, launched against the pipeline.
//!
//! Three adversaries try to manufacture endorsement for their businesses:
//! a spammer calling their own electrician number back-to-back, a
//! restaurant employee counting shifts as visits, and a five-account
//! sybil ring. The server's typical-user profile catches them — watch the
//! per-axis anomaly scores.
//!
//! ```sh
//! cargo run --release --example fraud_wargame
//! ```

use orsp_core::{category_map, PipelineConfig, RspPipeline};
use orsp_server::{FraudDetector, HistoryStats};
use orsp_types::{SimDuration, Timestamp, UserId};
use orsp_world::attacks::{inject, Attack};
use orsp_world::{World, WorldConfig};

fn main() {
    let config = WorldConfig {
        users_per_zipcode: 70,
        horizon: SimDuration::days(300),
        ..WorldConfig::tiny(1337)
    };
    let mut world = World::generate(config).unwrap();

    let plumber = world
        .entities
        .iter()
        .find(|e| matches!(e.category, orsp_types::Category::ServiceProvider(_)))
        .unwrap()
        .id;
    let restaurant = world
        .entities
        .iter()
        .find(|e| matches!(e.category, orsp_types::Category::Restaurant(_)))
        .unwrap()
        .id;

    let attacks = vec![
        Attack::CallSpam {
            attacker: UserId::new(0),
            target: plumber,
            calls: 30,
            start: Timestamp::from_seconds(40 * 86_400),
            spacing: SimDuration::minutes(2),
        },
        Attack::EmployeePresence {
            attacker: UserId::new(1),
            target: restaurant,
            start: Timestamp::from_seconds(5 * 86_400),
            days: 150,
            shift: SimDuration::hours(8),
        },
        Attack::SybilRing {
            attackers: (2..7).map(UserId::new).collect(),
            target: plumber,
            calls_each: 8,
            start: Timestamp::from_seconds(80 * 86_400),
            span: SimDuration::days(40),
        },
    ];
    let injected = inject(&mut world, &attacks, 99);
    println!("adversaries injected {injected} fake events:");
    for a in &attacks {
        println!("  - {}", a.label());
    }

    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);

    // Score every fraud record the way the detector did, with reasons.
    let categories = category_map(&world);
    let detector = FraudDetector::new(outcome.profiles.clone());
    println!(
        "\ntypical-user profiles learned from {} anonymous histories",
        outcome.record_owner.len()
    );

    let flagged: std::collections::HashSet<_> = outcome.fraud_flagged.iter().collect();
    let mut caught = 0;
    let mut slipped = 0;
    println!("\nverdicts on fraudulent histories:");
    for rid in &outcome.fraud_truth {
        let (user, entity) = outcome.record_owner[rid];
        // The store may have discarded it already; recompute the verdict
        // from the pre-filter aggregate path for display.
        let verdict =
            outcome.ingest.store().iter().find(|(id, _)| *id == rid).map(|(_, stored)| {
                detector.score(categories[&stored.entity], &HistoryStats::of(&stored.history))
            });
        let status = if flagged.contains(rid) {
            caught += 1;
            "CAUGHT"
        } else {
            slipped += 1;
            "slipped"
        };
        match verdict {
            Some(v) => {
                let reasons: Vec<String> = v
                    .reasons
                    .iter()
                    .filter(|(_, s)| *s > 0.0)
                    .map(|(n, s)| format!("{n}={s:.2}"))
                    .collect();
                println!(
                    "  {status}: {user} -> {entity}  score {:.2}  [{}]",
                    v.score,
                    reasons.join(" ")
                );
            }
            None => println!("  {status}: {user} -> {entity}  (discarded from store)"),
        }
    }

    let honest_flagged =
        outcome.fraud_flagged.iter().filter(|r| !outcome.fraud_truth.contains(*r)).count();
    println!("\nsummary: {caught} fraud histories caught, {slipped} slipped through,");
    println!("         {honest_flagged} honest histories wrongly flagged");
    println!(
        "\nThe paper's bar: naive fakery must cost real effort — a fake dentist \
         endorsement\nwould now require showing up for appointments, months apart, for years."
    );
}
