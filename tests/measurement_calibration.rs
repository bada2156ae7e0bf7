//! Measurement calibration: the synthetic crawl must reproduce the
//! paper's §2 statistics (Table 1, Fig 1a–c) from generated data, within
//! tolerance bands.

use orsp_measure::{Crawler, EngagementStudy, ServiceCatalog};
use orsp_types::ServiceKind;

#[test]
fn table1_totals_and_categories() {
    for (service, entities_target, categories_target) in [
        (ServiceKind::Yelp, 24_417.0, 9),
        (ServiceKind::AngiesList, 26_066.0, 24),
        (ServiceKind::Healthgrades, 24_922.0, 4),
    ] {
        let report = Crawler::crawl(&ServiceCatalog::generate(service, 42));
        assert_eq!(report.categories, categories_target);
        let err = (report.entities as f64 - entities_target).abs() / entities_target;
        assert!(err < 0.15, "{service}: {} vs {entities_target}", report.entities);
    }
}

#[test]
fn fig1a_median_reviews_ordering_and_bands() {
    let reports = Crawler::crawl_all(42);
    let median =
        |svc: ServiceKind| reports.iter().find(|r| r.service == svc).unwrap().median_reviews();
    let yelp = median(ServiceKind::Yelp);
    let angies = median(ServiceKind::AngiesList);
    let hg = median(ServiceKind::Healthgrades);
    // Paper: 25 / 8 / 5.
    assert!((18.0..=32.0).contains(&yelp), "yelp {yelp}");
    assert!((5.0..=11.0).contains(&angies), "angies {angies}");
    assert!((3.0..=7.0).contains(&hg), "hg {hg}");
    assert!(yelp > angies && angies > hg, "ordering preserved");
}

#[test]
fn fig1b_rich_results_per_query() {
    let reports = Crawler::crawl_all(42);
    let median =
        |svc: ServiceKind| reports.iter().find(|r| r.service == svc).unwrap().median_rich_results();
    // Paper: 12 / 2 / 1.
    assert!((6.0..=20.0).contains(&median(ServiceKind::Yelp)));
    assert!((1.0..=4.0).contains(&median(ServiceKind::AngiesList)));
    assert!(median(ServiceKind::Healthgrades) <= 2.0);
}

#[test]
fn fig1b_rich_results_are_small_fraction_of_results() {
    let reports = Crawler::crawl_all(42);
    for r in &reports {
        assert!(r.median_rich_fraction() < 0.3, "{}: {}", r.service, r.median_rich_fraction());
    }
}

#[test]
fn fig1c_order_of_magnitude_discrepancy() {
    for platform in ServiceKind::INTERACTION_PLATFORMS {
        let study = EngagementStudy::generate(platform, 42);
        assert_eq!(study.entities.len(), 1_000, "paper's sample size");
        assert!(study.median_discrepancy() >= 10.0, "{platform}: {}", study.median_discrepancy());
    }
}

#[test]
fn calibration_is_robust_across_seeds() {
    // The calibration claims hold for any seed, not one lucky draw.
    for seed in [1u64, 99, 12345] {
        let reports = Crawler::crawl_all(seed);
        let yelp = reports.iter().find(|r| r.service == ServiceKind::Yelp).unwrap();
        let hg = reports.iter().find(|r| r.service == ServiceKind::Healthgrades).unwrap();
        assert!(yelp.median_reviews() > hg.median_reviews(), "seed {seed}");
        assert!(yelp.median_rich_results() > hg.median_rich_results(), "seed {seed}");
    }
}
