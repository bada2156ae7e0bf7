//! Entities: the restaurants, doctors, and service providers users
//! interact with.
//!
//! Each entity carries a latent **quality** — the ground truth the
//! inference engine is ultimately scored against — plus the comparable
//! attributes §4.1 names when discussing the "number of other similar
//! options" feature ("cuisine, price level, parking, etc.").

use orsp_types::{Category, EntityId, GeoPoint};

/// Comparable attributes used for similarity (§4.1 feature kind 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntityAttributes {
    /// Price level 1 (cheap) ..= 4 (expensive).
    pub price_level: u8,
    /// Whether parking is available.
    pub parking: bool,
    /// Whether the entity caters to dietary restrictions (veg-friendly,
    /// allergy-aware); gates which users will consider a restaurant.
    pub dietary_friendly: bool,
}

impl Default for EntityAttributes {
    fn default() -> Self {
        EntityAttributes { price_level: 2, parking: true, dietary_friendly: false }
    }
}

impl EntityAttributes {
    /// Attribute-similarity in `[0, 1]`: 1 when identical.
    pub fn similarity(&self, other: &EntityAttributes) -> f64 {
        let price = 1.0 - (self.price_level as f64 - other.price_level as f64).abs() / 3.0;
        let parking = if self.parking == other.parking { 1.0 } else { 0.0 };
        let dietary = if self.dietary_friendly == other.dietary_friendly { 1.0 } else { 0.0 };
        (price + parking + dietary) / 3.0
    }
}

/// An entity listed on the recommendation service.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// Unique id.
    pub id: EntityId,
    /// Display name.
    pub name: String,
    /// What it is (cuisine / specialty / trade).
    pub category: Category,
    /// Where it is.
    pub location: GeoPoint,
    /// The zipcode it belongs to.
    pub zipcode: u32,
    /// Latent quality in `[0, 5]` — ground truth, never exposed to the
    /// RSP pipeline.
    pub quality: f64,
    /// Comparable attributes.
    pub attributes: EntityAttributes,
    /// Phone number (synthetic), how phone-first entities are reached.
    pub phone: u64,
}

impl Entity {
    /// True iff `other` is a *similar option*: same category, comparable
    /// attributes, within `radius_m`.
    pub fn is_similar_option(&self, other: &Entity, radius_m: f64) -> bool {
        self.id != other.id
            && self.category == other.category
            && self.location.distance_to(&other.location) <= radius_m
            && self.attributes.similarity(&other.attributes) >= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::Cuisine;

    fn entity(id: u64, x: f64, price: u8) -> Entity {
        Entity {
            id: EntityId::new(id),
            name: format!("E{id}"),
            category: Category::Restaurant(Cuisine::Thai),
            location: GeoPoint::new(x, 0.0),
            zipcode: 11111,
            quality: 3.0,
            attributes: EntityAttributes { price_level: price, ..Default::default() },
            phone: 5_550_000 + id,
        }
    }

    #[test]
    fn identical_attributes_similarity_is_one() {
        let a = EntityAttributes::default();
        assert!((a.similarity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_decreases_with_price_gap() {
        let cheap = EntityAttributes { price_level: 1, ..Default::default() };
        let pricey = EntityAttributes { price_level: 4, ..Default::default() };
        let mid = EntityAttributes { price_level: 2, ..Default::default() };
        assert!(cheap.similarity(&mid) > cheap.similarity(&pricey));
    }

    #[test]
    fn similar_option_requires_same_category_and_distance() {
        let a = entity(1, 0.0, 2);
        let near_same = entity(2, 100.0, 2);
        let far_same = entity(3, 10_000.0, 2);
        assert!(a.is_similar_option(&near_same, 1_000.0));
        assert!(!a.is_similar_option(&far_same, 1_000.0));
        assert!(!a.is_similar_option(&a, 1_000.0), "an entity is not its own alternative");

        let mut diff_cat = entity(4, 100.0, 2);
        diff_cat.category = Category::Restaurant(Cuisine::French);
        assert!(!a.is_similar_option(&diff_cat, 1_000.0));
    }

    #[test]
    fn dissimilar_attributes_break_similar_option() {
        let a = entity(1, 0.0, 1);
        let mut b = entity(2, 10.0, 4);
        b.attributes.parking = false;
        b.attributes.dietary_friendly = true;
        assert!(a.attributes.similarity(&b.attributes) < 0.5);
        assert!(!a.is_similar_option(&b, 1_000.0));
    }
}
