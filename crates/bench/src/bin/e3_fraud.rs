//! E3 — Fake-activity detection (§4.3).
//!
//! Injects the paper's two worked attacks (back-to-back call spam, daily
//! employee presence) plus a sybil ring, runs the pipeline, and scores
//! the typical-user fraud filter: detection rate, false positives on
//! honest histories, and the residual influence of surviving fraud.

use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_core::{PipelineConfig, RspPipeline};
use orsp_types::{SimDuration, Timestamp, UserId};
use orsp_world::attacks::{inject, Attack};
use orsp_world::{World, WorldConfig};

fn main() {
    let seed = seed_from_args();
    let users = arg_u64("users", 80) as usize;
    header("E3", "Fraud detection — call spam, employee presence, sybil ring");

    let config = WorldConfig {
        users_per_zipcode: users,
        horizon: SimDuration::days(365),
        ..WorldConfig::tiny(seed)
    };
    let mut world = World::generate(config).unwrap();

    // Targets: a plumber for call attacks, a restaurant for presence.
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
    let n = world.users.len() as u64;
    let attacks = vec![
        Attack::CallSpam {
            attacker: UserId::new(0),
            target: plumber,
            calls: 25,
            start: Timestamp::from_seconds(30 * 86_400),
            spacing: SimDuration::minutes(3),
        },
        Attack::EmployeePresence {
            attacker: UserId::new(1 % n),
            target: restaurant,
            start: Timestamp::from_seconds(10 * 86_400),
            days: 120,
            shift: SimDuration::hours(8),
        },
        Attack::SybilRing {
            attackers: (2..7).map(|i| UserId::new(i % n)).collect(),
            target: plumber,
            calls_each: 6,
            start: Timestamp::from_seconds(60 * 86_400),
            span: SimDuration::days(30),
        },
    ];
    let injected = inject(&mut world, &attacks, seed);
    println!("injected {injected} fraudulent events across {} campaigns\n", attacks.len());

    let outcome = RspPipeline::new(PipelineConfig::default()).run(&world);

    let flagged: std::collections::HashSet<_> = outcome.fraud_flagged.iter().copied().collect();
    let fraud_records = &outcome.fraud_truth;
    let detected = fraud_records.iter().filter(|r| flagged.contains(*r)).count();
    let false_pos = flagged.iter().filter(|r| !fraud_records.contains(*r)).count();
    let honest_total = outcome.record_owner.len() - fraud_records.len();

    println!("fraud histories (ground truth): {}", fraud_records.len());
    println!("flagged by detector:            {}", flagged.len());
    println!(
        "detection rate (all campaigns): {}%",
        f(100.0 * detected as f64 / fraud_records.len().max(1) as f64)
    );
    println!(
        "false positive rate:            {}%",
        f(100.0 * false_pos as f64 / honest_total.max(1) as f64)
    );

    // Per-campaign: which attack archetypes does the typical-user filter
    // catch?
    let caught_pair = |user: UserId, entity| {
        outcome
            .record_owner
            .iter()
            .find(|(_, &(u, e))| u == user && e == entity)
            .map(|(rid, _)| flagged.contains(rid))
    };
    let spam_caught = caught_pair(UserId::new(0), plumber);
    let employee_caught = caught_pair(UserId::new(1 % n), restaurant);
    let sybil_caught: Vec<bool> =
        (2..7).filter_map(|i| caught_pair(UserId::new(i % n), plumber)).collect();
    println!("\nper campaign:");
    println!("  call spam (25 calls, 3 min apart):     {:?}", spam_caught);
    println!("  employee presence (120 daily shifts):  {:?}", employee_caught);
    println!(
        "  sybil ring (5 accts x 6 calls / 30 d):  {}/{} members caught",
        sybil_caught.iter().filter(|&&b| b).count(),
        sybil_caught.len()
    );

    // Residual influence: how much did surviving fraud inflate the
    // targets' aggregate interaction counts?
    for (label, target) in [("plumber", plumber), ("restaurant", restaurant)] {
        let agg = outcome.aggregates.get(&target);
        let survived: usize = fraud_records
            .iter()
            .filter(|r| !flagged.contains(*r))
            .filter(|r| outcome.record_owner.get(*r).map(|(_, e)| *e) == Some(target))
            .count();
        println!(
            "{label} ({target}): {} surviving fraud histories among {} total",
            survived,
            agg.map(|a| a.histories).unwrap_or(0)
        );
    }

    println!("\nPAPER vs MEASURED");
    compare(
        "naive attacks are caught",
        "raised bar",
        &format!(
            "spam {:?}, employee {:?}",
            spam_caught.unwrap_or(false),
            employee_caught.unwrap_or(false)
        ),
    );
    compare(
        "honest users unaffected",
        "~0% FP",
        &format!("{}%", f(100.0 * false_pos as f64 / honest_total.max(1) as f64)),
    );
    compare(
        "concerted fraud costs real effort",
        "dissuade",
        &format!("sybils mimic 5 real customers over 30 days to evade"),
    );
    // The paper's bar: the two *naive* archetypes it names must be caught;
    // the sybil ring is the "most concerted" adversary the paper concedes
    // will sometimes slip through — at the cost of mimicking real
    // customers, which is exactly the deterrent.
    assert_eq!(spam_caught, Some(true), "call spam must be caught");
    assert_eq!(employee_caught, Some(true), "employee presence must be caught");
    let fp_rate = false_pos as f64 / honest_total.max(1) as f64;
    assert!(fp_rate < 0.05, "false positives must stay low: {fp_rate}");
    println!("  shape check: PASS");
}
