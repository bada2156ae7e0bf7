//! Mapping sensitive inputs to entities, locally on the device (§3.1:
//! "An app can then map these sensitive inputs to the corresponding
//! entities (e.g., map location to restaurant or phone number to
//! dentist)"; §4.2: "the RSP's app should locally map the inputs that it
//! is privy to to the corresponding entities").
//!
//! The client holds a public [`EntityDirectory`] (the RSP's listing data —
//! not sensitive) and indexes it three ways: a spatial grid for location
//! lookups, a phone-number table, and a merchant-name table.

use orsp_types::{Category, EntityId, GeoPoint};
use std::collections::HashMap;

/// One entry of the RSP's public entity directory.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityDirectory {
    /// Entity id as listed by the RSP.
    pub id: EntityId,
    /// Listed name (matches payment merchant descriptors).
    pub name: String,
    /// Listed category.
    pub category: Category,
    /// Listed location.
    pub location: GeoPoint,
    /// Listed phone number.
    pub phone: u64,
}

/// Grid cell size for the spatial index, meters. Chosen a bit above GPS
/// accuracy so a lookup rarely touches more than the 3×3 neighbourhood.
const CELL_M: f64 = 250.0;

/// Device-local entity mapper.
#[derive(Debug, Clone, Default)]
pub struct EntityMapper {
    entries: Vec<EntityDirectory>,
    grid: HashMap<(i64, i64), Vec<usize>>,
    by_phone: HashMap<u64, usize>,
    by_name: HashMap<String, usize>,
    by_id: HashMap<EntityId, usize>,
}

impl EntityMapper {
    /// Build a mapper from directory entries.
    pub fn new(entries: Vec<EntityDirectory>) -> Self {
        let mut mapper = EntityMapper {
            grid: HashMap::new(),
            by_phone: HashMap::new(),
            by_name: HashMap::new(),
            by_id: HashMap::new(),
            entries,
        };
        for (i, e) in mapper.entries.iter().enumerate() {
            mapper.grid.entry(Self::cell(&e.location)).or_default().push(i);
            mapper.by_phone.insert(e.phone, i);
            mapper.by_name.insert(e.name.clone(), i);
            mapper.by_id.insert(e.id, i);
        }
        mapper
    }

    fn cell(p: &GeoPoint) -> (i64, i64) {
        ((p.x / CELL_M).floor() as i64, (p.y / CELL_M).floor() as i64)
    }

    /// Number of directory entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Directory entry by id. O(1) via the id index — this sits on the
    /// pipeline's choice-set hot path, once per candidate entity per pair.
    pub fn entry(&self, id: EntityId) -> Option<&EntityDirectory> {
        self.by_id.get(&id).map(|&i| &self.entries[i])
    }

    /// The nearest entity within `max_dist_m` of a point, if any.
    ///
    /// This is how a dwell location becomes an inferred visit target. The
    /// search scans the grid cells overlapping the radius.
    pub fn entity_at(&self, point: &GeoPoint, max_dist_m: f64) -> Option<EntityId> {
        let r_cells = (max_dist_m / CELL_M).ceil() as i64;
        let (cx, cy) = Self::cell(point);
        let mut best: Option<(EntityId, f64)> = None;
        for dx in -r_cells..=r_cells {
            for dy in -r_cells..=r_cells {
                if let Some(cell) = self.grid.get(&(cx + dx, cy + dy)) {
                    for &i in cell {
                        let e = &self.entries[i];
                        let d = e.location.distance_to(point);
                        if d <= max_dist_m && best.map_or(true, |(_, bd)| d < bd) {
                            best = Some((e.id, d));
                        }
                    }
                }
            }
        }
        best.map(|(id, _)| id)
    }

    /// Entities within `radius_m` of a point (for choice-set features).
    pub fn entities_near(&self, point: &GeoPoint, radius_m: f64) -> Vec<EntityId> {
        let r_cells = (radius_m / CELL_M).ceil() as i64;
        let (cx, cy) = Self::cell(point);
        let mut out = Vec::new();
        for dx in -r_cells..=r_cells {
            for dy in -r_cells..=r_cells {
                if let Some(cell) = self.grid.get(&(cx + dx, cy + dy)) {
                    for &i in cell {
                        let e = &self.entries[i];
                        if e.location.distance_to(point) <= radius_m {
                            out.push(e.id);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Map a dialed number to an entity.
    pub fn entity_by_phone(&self, number: u64) -> Option<EntityId> {
        self.by_phone.get(&number).map(|&i| self.entries[i].id)
    }

    /// Map a payment merchant descriptor to an entity.
    pub fn entity_by_merchant(&self, merchant: &str) -> Option<EntityId> {
        self.by_name.get(merchant).map(|&i| self.entries[i].id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::Cuisine;

    fn directory() -> Vec<EntityDirectory> {
        vec![
            EntityDirectory {
                id: EntityId::new(0),
                name: "Thai Palace".into(),
                category: Category::Restaurant(Cuisine::Thai),
                location: GeoPoint::new(0.0, 0.0),
                phone: 5_551_000,
            },
            EntityDirectory {
                id: EntityId::new(1),
                name: "Luigi's".into(),
                category: Category::Restaurant(Cuisine::Italian),
                location: GeoPoint::new(100.0, 0.0),
                phone: 5_551_001,
            },
            EntityDirectory {
                id: EntityId::new(2),
                name: "Far Diner".into(),
                category: Category::Restaurant(Cuisine::American),
                location: GeoPoint::new(10_000.0, 10_000.0),
                phone: 5_551_002,
            },
        ]
    }

    #[test]
    fn location_maps_to_nearest_within_radius() {
        let m = EntityMapper::new(directory());
        assert_eq!(m.entity_at(&GeoPoint::new(10.0, 5.0), 80.0), Some(EntityId::new(0)));
        assert_eq!(m.entity_at(&GeoPoint::new(90.0, 0.0), 80.0), Some(EntityId::new(1)));
        assert_eq!(m.entity_at(&GeoPoint::new(5_000.0, 0.0), 80.0), None);
    }

    #[test]
    fn nearest_wins_when_both_in_range() {
        let m = EntityMapper::new(directory());
        // 40 m from entity 0, 60 m from entity 1.
        assert_eq!(m.entity_at(&GeoPoint::new(40.0, 0.0), 200.0), Some(EntityId::new(0)));
        assert_eq!(m.entity_at(&GeoPoint::new(60.0, 0.0), 200.0), Some(EntityId::new(1)));
    }

    #[test]
    fn phone_and_merchant_lookup() {
        let m = EntityMapper::new(directory());
        assert_eq!(m.entity_by_phone(5_551_001), Some(EntityId::new(1)));
        assert_eq!(m.entity_by_phone(999), None);
        assert_eq!(m.entity_by_merchant("Thai Palace"), Some(EntityId::new(0)));
        assert_eq!(m.entity_by_merchant("Nope"), None);
    }

    #[test]
    fn entities_near_respects_radius() {
        let m = EntityMapper::new(directory());
        let near = m.entities_near(&GeoPoint::new(0.0, 0.0), 150.0);
        assert_eq!(near, vec![EntityId::new(0), EntityId::new(1)]);
        let all = m.entities_near(&GeoPoint::new(0.0, 0.0), 100_000.0);
        assert_eq!(all.len(), 3);
        assert!(m.entities_near(&GeoPoint::new(-9_000.0, -9_000.0), 100.0).is_empty());
    }

    #[test]
    fn empty_mapper_maps_nothing() {
        let m = EntityMapper::new(Vec::new());
        assert!(m.is_empty());
        assert_eq!(m.entity_at(&GeoPoint::ORIGIN, 1_000.0), None);
        assert_eq!(m.entity_by_phone(1), None);
    }

    #[test]
    fn entry_lookup() {
        let m = EntityMapper::new(directory());
        assert_eq!(m.entry(EntityId::new(2)).unwrap().name, "Far Diner");
        assert!(m.entry(EntityId::new(99)).is_none());
    }

    #[test]
    fn indexed_entry_matches_linear_scan() {
        // The by_id index must agree with the old linear scan on a random
        // directory, including ids that collide with none of the entries.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let entries: Vec<EntityDirectory> = (0..200)
            .map(|i| {
                // Non-contiguous, shuffled-ish ids so index != id.
                let id = EntityId::new(i * 7 % 1_000);
                EntityDirectory {
                    id,
                    name: format!("e{}", id.raw()),
                    category: Category::Restaurant(Cuisine::Thai),
                    location: GeoPoint::new(
                        rng.gen_range(0.0..5_000.0),
                        rng.gen_range(0.0..5_000.0),
                    ),
                    phone: 5_000_000 + id.raw(),
                }
            })
            .collect();
        let m = EntityMapper::new(entries.clone());
        for probe in 0..1_000u64 {
            let id = EntityId::new(probe);
            let linear = entries.iter().find(|e| e.id == id);
            assert_eq!(m.entry(id), linear, "divergence at id {probe}");
        }
    }
}
