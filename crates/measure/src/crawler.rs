//! The crawler: replays the paper's measurement methodology against the
//! synthetic catalogs and computes Figure 1(a,b) and Table 1 from what it
//! observes — never from the generator parameters.

use crate::catalog::ServiceCatalog;
use orsp_aggregate::EmpiricalCdf;
use orsp_types::ServiceKind;

/// The review threshold Fig 1(b) uses ("number of matching entities with
/// 50 or more reviews").
pub const REVIEW_THRESHOLD: u32 = 50;

/// Everything one crawl of one service produces.
#[derive(Debug, Clone)]
pub struct CrawlReport {
    /// Which service was crawled.
    pub service: ServiceKind,
    /// Table 1 row: number of categories queried.
    pub categories: usize,
    /// Table 1 row: total entities discovered.
    pub entities: usize,
    /// Number of queries issued (zipcodes × categories).
    pub queries: usize,
    /// Fig 1(a): review count per discovered entity.
    pub reviews_per_entity: Vec<f64>,
    /// Fig 1(b): per query, how many results have ≥ 50 reviews.
    pub rich_results_per_query: Vec<f64>,
    /// Per query, total result count (for the "small fraction" claim).
    pub results_per_query: Vec<f64>,
}

impl CrawlReport {
    /// CDF over entities of review counts (Fig 1a's curve).
    pub fn reviews_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(self.reviews_per_entity.clone())
    }

    /// CDF over queries of ≥50-review result counts (Fig 1b's curve).
    pub fn rich_results_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(self.rich_results_per_query.clone())
    }

    /// Median reviews per entity.
    pub fn median_reviews(&self) -> f64 {
        self.reviews_cdf().median().unwrap_or(f64::NAN)
    }

    /// Median ≥50-review results per query.
    pub fn median_rich_results(&self) -> f64 {
        self.rich_results_cdf().median().unwrap_or(f64::NAN)
    }

    /// Fraction of the median query's results that have ≥50 reviews.
    pub fn median_rich_fraction(&self) -> f64 {
        let rich = self.median_rich_results();
        let total = EmpiricalCdf::new(self.results_per_query.clone()).median().unwrap_or(f64::NAN);
        rich / total
    }
}

/// The crawler.
pub struct Crawler;

impl Crawler {
    /// Crawl one catalog: issue every (zipcode, category) query, dedup
    /// discovered entities, record the statistics.
    pub fn crawl(catalog: &ServiceCatalog) -> CrawlReport {
        let mut seen = std::collections::HashSet::new();
        let mut reviews_per_entity = Vec::new();
        let mut rich_results_per_query = Vec::new();
        let mut results_per_query = Vec::new();
        let categories = catalog.service.categories();

        for &zip in &catalog.zipcodes {
            for &category in &categories {
                let results = catalog.query(zip, category);
                results_per_query.push(results.len() as f64);
                rich_results_per_query
                    .push(results.iter().filter(|e| e.review_count >= REVIEW_THRESHOLD).count()
                        as f64);
                for entity in results {
                    if seen.insert(entity.id) {
                        reviews_per_entity.push(entity.review_count as f64);
                    }
                }
            }
        }

        CrawlReport {
            service: catalog.service,
            categories: categories.len(),
            entities: seen.len(),
            queries: catalog.zipcodes.len() * categories.len(),
            reviews_per_entity,
            rich_results_per_query,
            results_per_query,
        }
    }

    /// Crawl all three review services (the full Table 1 / Fig 1a / Fig 1b
    /// study).
    pub fn crawl_all(seed: u64) -> Vec<CrawlReport> {
        ServiceKind::REVIEW_SERVICES
            .iter()
            .map(|&svc| Crawler::crawl(&ServiceCatalog::generate(svc, seed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ServiceCatalog;

    #[test]
    fn crawl_discovers_every_entity_once() {
        let catalog = ServiceCatalog::generate(ServiceKind::Yelp, 13);
        let report = Crawler::crawl(&catalog);
        assert_eq!(report.entities, catalog.total_entities());
        assert_eq!(report.reviews_per_entity.len(), report.entities);
        assert_eq!(report.queries, 50 * 9);
        assert_eq!(report.rich_results_per_query.len(), report.queries);
    }

    #[test]
    fn fig1a_medians_match_paper_shape() {
        // Paper: medians 25 (Yelp), 8 (Angie's), 5 (Healthgrades).
        let reports = Crawler::crawl_all(17);
        let median =
            |svc: ServiceKind| reports.iter().find(|r| r.service == svc).unwrap().median_reviews();
        let yelp = median(ServiceKind::Yelp);
        let angies = median(ServiceKind::AngiesList);
        let hg = median(ServiceKind::Healthgrades);
        assert!((18.0..=32.0).contains(&yelp), "yelp {yelp}");
        assert!((5.0..=11.0).contains(&angies), "angies {angies}");
        assert!((3.0..=7.0).contains(&hg), "hg {hg}");
        assert!(yelp > angies && angies > hg);
    }

    #[test]
    fn fig1b_medians_match_paper_shape() {
        // Paper: "the number of results with at least 50 reviews is 12 on
        // Yelp, 2 on Angie's List, and 1 on Healthgrades" for the median
        // query.
        let reports = Crawler::crawl_all(19);
        let median = |svc: ServiceKind| {
            reports.iter().find(|r| r.service == svc).unwrap().median_rich_results()
        };
        let yelp = median(ServiceKind::Yelp);
        let angies = median(ServiceKind::AngiesList);
        let hg = median(ServiceKind::Healthgrades);
        assert!((6.0..=20.0).contains(&yelp), "yelp {yelp}");
        assert!((1.0..=4.0).contains(&angies), "angies {angies}");
        assert!(hg <= 2.0, "hg {hg}");
        assert!(yelp > angies && angies >= hg);
    }

    #[test]
    fn rich_results_are_a_small_fraction() {
        // "all of which constitute a small fraction of the total number of
        // results that match the median query".
        let reports = Crawler::crawl_all(23);
        for report in &reports {
            let frac = report.median_rich_fraction();
            assert!(frac < 0.30, "{}: rich fraction {frac}", report.service);
        }
    }

    #[test]
    fn cdfs_are_well_formed() {
        let report = Crawler::crawl(&ServiceCatalog::generate(ServiceKind::Healthgrades, 29));
        let cdf = report.reviews_cdf();
        assert_eq!(cdf.len(), report.entities);
        assert!(cdf.fraction_at_or_below(f64::MAX) == 1.0);
        let series = cdf.log_series(1.0, 1024.0);
        assert_eq!(series.len(), 11);
    }
}
