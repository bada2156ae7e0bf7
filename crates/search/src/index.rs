//! The (zipcode, category) query index.
//!
//! The paper's measurement queries are exactly this shape: *"Each query
//! comprises the combination of a zipcode within the US and a category"*
//! (§2). The index answers them with the entities listed in that zipcode
//! for that category.

use orsp_types::{Category, EntityId, GeoPoint};
use std::collections::HashMap;

/// A listed entity, as the search tier sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Listing {
    /// Entity id.
    pub id: EntityId,
    /// Display name.
    pub name: String,
    /// Category.
    pub category: Category,
    /// Location.
    pub location: GeoPoint,
    /// Zipcode.
    pub zipcode: u32,
}

/// A search query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchQuery {
    /// Zipcode to search in.
    pub zipcode: u32,
    /// Category to search for.
    pub category: Category,
}

/// The query index.
#[derive(Debug, Clone, Default)]
pub struct SearchIndex {
    listings: Vec<Listing>,
    by_query: HashMap<(u32, Category), Vec<usize>>,
}

impl SearchIndex {
    /// Build from listings.
    pub fn build(listings: Vec<Listing>) -> SearchIndex {
        let mut by_query: HashMap<(u32, Category), Vec<usize>> = HashMap::new();
        for (i, l) in listings.iter().enumerate() {
            by_query.entry((l.zipcode, l.category)).or_default().push(i);
        }
        SearchIndex { listings, by_query }
    }

    /// Number of listings.
    pub fn len(&self) -> usize {
        self.listings.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.listings.is_empty()
    }

    /// Execute a query: all matching listings (unranked).
    pub fn query(&self, q: &SearchQuery) -> Vec<&Listing> {
        self.by_query
            .get(&(q.zipcode, q.category))
            .map(|idxs| idxs.iter().map(|&i| &self.listings[i]).collect())
            .unwrap_or_default()
    }

    /// Look up one listing.
    pub fn listing(&self, id: EntityId) -> Option<&Listing> {
        self.listings.iter().find(|l| l.id == id)
    }

    /// All distinct (zipcode, category) query keys with at least one
    /// result — the crawler's query universe.
    pub fn query_universe(&self) -> Vec<SearchQuery> {
        let mut keys: Vec<SearchQuery> = self
            .by_query
            .keys()
            .map(|&(zipcode, category)| SearchQuery { zipcode, category })
            .collect();
        keys.sort_by_key(|q| (q.zipcode, q.category.stable_index()));
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::Cuisine;

    fn listing(id: u64, zipcode: u32, category: Category) -> Listing {
        Listing {
            id: EntityId::new(id),
            name: format!("L{id}"),
            category,
            location: GeoPoint::ORIGIN,
            zipcode,
        }
    }

    fn index() -> SearchIndex {
        SearchIndex::build(vec![
            listing(0, 11111, Category::Restaurant(Cuisine::Thai)),
            listing(1, 11111, Category::Restaurant(Cuisine::Thai)),
            listing(2, 11111, Category::Restaurant(Cuisine::French)),
            listing(3, 22222, Category::Restaurant(Cuisine::Thai)),
        ])
    }

    #[test]
    fn query_filters_by_zip_and_category() {
        let idx = index();
        let hits = idx
            .query(&SearchQuery { zipcode: 11111, category: Category::Restaurant(Cuisine::Thai) });
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|l| l.zipcode == 11111));
    }

    #[test]
    fn missing_query_returns_empty() {
        let idx = index();
        assert!(idx
            .query(&SearchQuery { zipcode: 99999, category: Category::Restaurant(Cuisine::Thai) })
            .is_empty());
    }

    #[test]
    fn universe_enumerates_distinct_keys() {
        let idx = index();
        let universe = idx.query_universe();
        assert_eq!(universe.len(), 3);
    }

    #[test]
    fn listing_lookup() {
        let idx = index();
        assert_eq!(idx.listing(EntityId::new(2)).unwrap().name, "L2");
        assert!(idx.listing(EntityId::new(42)).is_none());
        assert_eq!(idx.len(), 4);
    }
}
