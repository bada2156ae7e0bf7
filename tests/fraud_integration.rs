//! Fraud integration: §4.3's attacks, injected into a live world and
//! scored against the pipeline's typical-user filter.

use orsp_core::{PipelineConfig, RspPipeline};
use orsp_types::{Category, SimDuration, Timestamp, UserId};
use orsp_world::attacks::{inject, Attack};
use orsp_world::{World, WorldConfig};

fn attacked_world() -> (World, usize) {
    let cfg = WorldConfig {
        users_per_zipcode: 70,
        horizon: SimDuration::days(300),
        ..WorldConfig::tiny(555)
    };
    let mut world = World::generate(cfg).unwrap();
    let plumber = world
        .entities
        .iter()
        .find(|e| matches!(e.category, Category::ServiceProvider(_)))
        .unwrap()
        .id;
    let restaurant =
        world.entities.iter().find(|e| matches!(e.category, Category::Restaurant(_))).unwrap().id;
    let attacks = vec![
        Attack::CallSpam {
            attacker: UserId::new(0),
            target: plumber,
            calls: 30,
            start: Timestamp::from_seconds(50 * 86_400),
            spacing: SimDuration::minutes(2),
        },
        Attack::EmployeePresence {
            attacker: UserId::new(1),
            target: restaurant,
            start: Timestamp::from_seconds(20 * 86_400),
            days: 150,
            shift: SimDuration::hours(8),
        },
    ];
    let injected = inject(&mut world, &attacks, 31);
    (world, injected)
}

#[test]
fn naive_attacks_are_detected_with_low_false_positives() {
    let (world, injected) = attacked_world();
    assert!(injected > 100);
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);

    let flagged: std::collections::HashSet<_> = outcome.fraud_flagged.iter().copied().collect();
    assert!(!outcome.fraud_truth.is_empty(), "attack records reached the server");

    let detected = outcome.fraud_truth.iter().filter(|r| flagged.contains(*r)).count();
    let detection_rate = detected as f64 / outcome.fraud_truth.len() as f64;
    assert!(
        detection_rate >= 0.5,
        "detection rate {detection_rate} ({detected}/{})",
        outcome.fraud_truth.len()
    );

    let honest_total = outcome.record_owner.len() - outcome.fraud_truth.len();
    let false_pos = flagged.iter().filter(|r| !outcome.fraud_truth.contains(*r)).count();
    let fp_rate = false_pos as f64 / honest_total.max(1) as f64;
    assert!(fp_rate < 0.05, "false positive rate {fp_rate}");
}

#[test]
fn fraud_filter_removes_flagged_histories_from_aggregates() {
    let (world, _) = attacked_world();
    let with_filter =
        RspPipeline::new(PipelineConfig { apply_fraud_filter: true, ..Default::default() })
            .run(&world);
    let without_filter =
        RspPipeline::new(PipelineConfig { apply_fraud_filter: false, ..Default::default() })
            .run(&world);

    // The filtered store is strictly smaller when something was flagged.
    assert!(!with_filter.fraud_flagged.is_empty());
    assert!(
        with_filter.ingest.store().len() < without_filter.ingest.store().len(),
        "filter must shrink the store"
    );

    // Specifically, the spam target's aggregate activity shrinks.
    let spam_target = world.events.iter().find(|e| e.is_fraud).map(|e| e.entity).unwrap();
    let hist_with = with_filter.aggregates.get(&spam_target).map(|a| a.histories).unwrap_or(0);
    let hist_without =
        without_filter.aggregates.get(&spam_target).map(|a| a.histories).unwrap_or(0);
    assert!(hist_with <= hist_without, "target histories {hist_with} vs unfiltered {hist_without}");
}

#[test]
fn small_histories_have_limited_influence_even_if_missed() {
    // The paper's fallback argument: whatever slips through with few
    // interactions barely moves aggregates. Verify: a single-interaction
    // fraud history contributes exactly one interaction to the target.
    let cfg = WorldConfig {
        users_per_zipcode: 40,
        horizon: SimDuration::days(180),
        ..WorldConfig::tiny(556)
    };
    let mut world = World::generate(cfg).unwrap();
    let target = world.entities[0].id;
    // A "stealth" attack: one fake call only.
    let attacks = vec![Attack::CallSpam {
        attacker: UserId::new(3),
        target,
        calls: 1,
        start: Timestamp::from_seconds(10 * 86_400),
        spacing: SimDuration::minutes(1),
    }];
    inject(&mut world, &attacks, 9);
    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);
    let agg = outcome.aggregates.get(&target);
    if let Some(agg) = agg {
        // The attacker's history, if present, is one of many and carries
        // at most 1 interaction — bounded influence.
        assert!(agg.interactions as f64 >= agg.histories as f64);
    }
}
