//! F1a — Figure 1(a): "Distribution across entities of number of
//! reviews."
//!
//! CDFs of per-entity review counts for Yelp, Angie's List, and
//! Healthgrades, on the paper's log-scaled x axis (1..1024). The paper's
//! headline: "The median number of reviews is 8, 5, and 25 on Angie's
//! List, Healthgrades, and Yelp."

use orsp_aggregate::ascii_cdf;
use orsp_bench::{compare, f, header, seed_from_args};
use orsp_measure::Crawler;
use orsp_types::ServiceKind;

fn main() {
    let seed = seed_from_args();
    header("F1a", "Figure 1(a) — CDF of reviews per entity");
    let reports = Crawler::crawl_all(seed);

    for r in &reports {
        let cdf = r.reviews_cdf();
        let series = cdf.log_series(1.0, 1024.0);
        println!();
        println!(
            "{}",
            ascii_cdf(
                &format!("{} — cumulative fraction of entities vs #reviews", r.service.name()),
                &series,
                40
            )
        );
    }

    println!("PAPER vs MEASURED (median reviews per entity)");
    let median =
        |svc: ServiceKind| reports.iter().find(|r| r.service == svc).unwrap().median_reviews();
    compare("Yelp median", "25", &f(median(ServiceKind::Yelp)));
    compare("Angie's List median", "8", &f(median(ServiceKind::AngiesList)));
    compare("Healthgrades median", "5", &f(median(ServiceKind::Healthgrades)));

    // The shape claim: a large fraction of entities have very few reviews.
    for r in &reports {
        let frac_below_10 = r.reviews_cdf().fraction_at_or_below(10.0);
        println!(
            "  {:<14} fraction of entities with <= 10 reviews: {:.2}",
            r.service.name(),
            frac_below_10
        );
    }
}
