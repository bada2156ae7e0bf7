//! Synthetic service catalogs.
//!
//! One catalog per review service, mirroring the paper's methodology:
//! queries are (zipcode × category) over "the most populous zipcode in
//! each of the 50 states", and each query returns the entities listed in
//! that cell. Cell sizes are log-normal around the per-service mean
//! implied by Table 1's totals, so per-query result counts vary the way
//! the paper's spot checks do (127 Chinese restaurants in one cell, 248
//! dentists in another).

use crate::reviews::ReviewDistribution;
use orsp_types::rng::rng_for;
use orsp_types::{Category, EntityId, ServiceKind};
use rand::Rng;

/// Number of query zipcodes ("the most populous zipcode in each of the 50
/// states", §2).
pub const QUERY_ZIPCODES: usize = 50;

/// One listed entity in a catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntity {
    /// Id, unique within the catalog.
    pub id: EntityId,
    /// Category.
    pub category: Category,
    /// Zipcode cell the entity is listed under.
    pub zipcode: u32,
    /// Number of reviews the entity has accumulated.
    pub review_count: u32,
}

/// A synthetic catalog for one service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCatalog {
    /// Which service this models.
    pub service: ServiceKind,
    /// All entities.
    pub entities: Vec<CatalogEntity>,
    /// The 50 query zipcodes.
    pub zipcodes: Vec<u32>,
}

/// Mean entities per (zipcode, category) cell implied by Table 1.
fn mean_cell_size(service: ServiceKind) -> f64 {
    let (total, categories) = match service {
        ServiceKind::Yelp => (24_417.0, 9.0),
        ServiceKind::AngiesList => (26_066.0, 24.0),
        ServiceKind::Healthgrades => (24_922.0, 4.0),
        _ => (1_000.0, 1.0),
    };
    total / (QUERY_ZIPCODES as f64 * categories)
}

/// Log-space spread of cell sizes (drives the 127-vs-54 style variance the
/// paper's examples show).
const CELL_SIGMA: f64 = 0.55;

impl ServiceCatalog {
    /// Generate the catalog for a service. Deterministic per seed.
    pub fn generate(service: ServiceKind, seed: u64) -> ServiceCatalog {
        let mut rng = rng_for(seed, &format!("catalog.{service}"));
        let review_dist = ReviewDistribution::for_service(service);
        let zipcodes: Vec<u32> = (0..QUERY_ZIPCODES as u32).map(|i| 10_000 + i * 997).collect();
        let mean = mean_cell_size(service);
        // Log-normal with the configured *mean* (not median):
        // mean = exp(mu + sigma^2/2) ⇒ mu = ln(mean) - sigma^2/2.
        let mu = mean.ln() - CELL_SIGMA * CELL_SIGMA / 2.0;

        let mut entities = Vec::new();
        for &zipcode in &zipcodes {
            for category in service.categories() {
                let z = {
                    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = rng.gen();
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                };
                let cell = (mu + CELL_SIGMA * z).exp().round().max(1.0) as usize;
                for _ in 0..cell {
                    entities.push(CatalogEntity {
                        id: EntityId::new(entities.len() as u64),
                        category,
                        zipcode,
                        review_count: review_dist.sample(&mut rng),
                    });
                }
            }
        }
        ServiceCatalog { service, entities, zipcodes }
    }

    /// Entities matching one (zipcode, category) query.
    pub fn query(&self, zipcode: u32, category: Category) -> Vec<&CatalogEntity> {
        self.entities.iter().filter(|e| e.zipcode == zipcode && e.category == category).collect()
    }

    /// Total entities (Table 1's rightmost column).
    pub fn total_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of categories queried (Table 1's middle column).
    pub fn category_count(&self) -> usize {
        self.service.category_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ServiceCatalog::generate(ServiceKind::Yelp, 7);
        let b = ServiceCatalog::generate(ServiceKind::Yelp, 7);
        assert_eq!(a.entities.len(), b.entities.len());
        assert_eq!(a.entities.first(), b.entities.first());
    }

    #[test]
    fn totals_approximate_table_1() {
        for (service, target) in [
            (ServiceKind::Yelp, 24_417.0),
            (ServiceKind::AngiesList, 26_066.0),
            (ServiceKind::Healthgrades, 24_922.0),
        ] {
            let catalog = ServiceCatalog::generate(service, 11);
            let total = catalog.total_entities() as f64;
            assert!(
                (total - target).abs() / target < 0.15,
                "{service}: {total} vs target {target}"
            );
        }
    }

    #[test]
    fn category_counts_match_table_1() {
        assert_eq!(ServiceCatalog::generate(ServiceKind::Yelp, 1).category_count(), 9);
        assert_eq!(ServiceCatalog::generate(ServiceKind::AngiesList, 1).category_count(), 24);
        assert_eq!(ServiceCatalog::generate(ServiceKind::Healthgrades, 1).category_count(), 4);
    }

    #[test]
    fn query_returns_matching_cell() {
        let catalog = ServiceCatalog::generate(ServiceKind::Healthgrades, 3);
        let zip = catalog.zipcodes[0];
        let cat = ServiceKind::Healthgrades.categories()[0];
        let hits = catalog.query(zip, cat);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|e| e.zipcode == zip && e.category == cat));
    }

    #[test]
    fn cell_sizes_vary_widely() {
        // The paper's examples: one Yelp cell with 127 results, a
        // Healthgrades cell with 248. Our cells must spread similarly.
        let catalog = ServiceCatalog::generate(ServiceKind::Yelp, 5);
        let sizes: Vec<usize> = catalog
            .zipcodes
            .iter()
            .flat_map(|&z| ServiceKind::Yelp.categories().into_iter().map(move |c| (z, c)))
            .map(|(z, c)| catalog.query(z, c).len())
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max >= 3 * min.max(1), "spread {min}..{max}");
        assert!(max > 100, "some large cells exist: max {max}");
    }

    #[test]
    fn fifty_zipcodes() {
        let catalog = ServiceCatalog::generate(ServiceKind::AngiesList, 2);
        assert_eq!(catalog.zipcodes.len(), 50);
        let distinct: std::collections::HashSet<u32> = catalog.zipcodes.iter().copied().collect();
        assert_eq!(distinct.len(), 50);
    }
}
