//! T1 — Table 1: "Summary of measurements."
//!
//! The paper crawls three services over (50 zipcodes × per-service
//! categories) and reports the number of categories and total entities
//! discovered. This harness generates the calibrated synthetic catalogs,
//! runs the same crawl, and reports the same table.

use orsp_bench::{compare, header, seed_from_args};
use orsp_measure::Crawler;
use orsp_types::ServiceKind;

fn main() {
    let seed = seed_from_args();
    header("T1", "Table 1 — services, #categories, #entities");
    println!("(seed {seed}; 50 zipcodes per service, as in §2)\n");

    let reports = Crawler::crawl_all(seed);
    println!("{:<14} {:>12} {:>12} {:>10}", "Service", "#Categories", "#Entities", "#Queries");
    for r in &reports {
        println!(
            "{:<14} {:>12} {:>12} {:>10}",
            r.service.name(),
            r.categories,
            r.entities,
            r.queries
        );
    }

    println!("\nPAPER vs MEASURED");
    let get = |svc: ServiceKind| reports.iter().find(|r| r.service == svc).unwrap();
    compare("Yelp categories", "9", &get(ServiceKind::Yelp).categories.to_string());
    compare("Yelp entities", "24,417", &get(ServiceKind::Yelp).entities.to_string());
    compare("Angie's List categories", "24", &get(ServiceKind::AngiesList).categories.to_string());
    compare("Angie's List entities", "26,066", &get(ServiceKind::AngiesList).entities.to_string());
    compare("Healthgrades categories", "4", &get(ServiceKind::Healthgrades).categories.to_string());
    compare(
        "Healthgrades entities",
        "24,922",
        &get(ServiceKind::Healthgrades).entities.to_string(),
    );
}
