//! The headline claim, quantified: how many opinions per entity does a
//! user get to draw on, before and after implicit inference?
//!
//! §2 closes with: *"if the opinion of even a fraction of those who have
//! interacted with an entity but not provided feedback can be implicitly
//! inferred, ... the number of opinions that users can draw upon for a
//! typical entity can be dramatically increased."* This module measures
//! exactly that increase.

use orsp_aggregate::EmpiricalCdf;
use orsp_types::EntityId;
use std::collections::HashMap;

/// Opinion counts for one entity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpinionCounts {
    /// Explicit reviews posted.
    pub explicit: u64,
    /// Implicitly inferred opinions.
    pub inferred: u64,
}

impl OpinionCounts {
    /// Opinions available in the status quo (explicit only).
    pub fn before(&self) -> u64 {
        self.explicit
    }

    /// Opinions available under the paper's design.
    pub fn after(&self) -> u64 {
        self.explicit + self.inferred
    }
}

/// The coverage comparison across all entities.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Per-entity counts.
    pub per_entity: HashMap<EntityId, OpinionCounts>,
    /// Median opinions per entity, explicit only.
    pub median_before: f64,
    /// Median opinions per entity, explicit + inferred.
    pub median_after: f64,
    /// Mean opinions per entity, explicit only.
    pub mean_before: f64,
    /// Mean opinions per entity, explicit + inferred.
    pub mean_after: f64,
    /// Fraction of entities with zero opinions, before.
    pub zero_before: f64,
    /// Fraction of entities with zero opinions, after.
    pub zero_after: f64,
}

impl CoverageReport {
    /// Compute over a universe of entities (entities with no signal at
    /// all still count — they are the paper's problem case).
    pub fn compute(
        universe: &[EntityId],
        per_entity: HashMap<EntityId, OpinionCounts>,
    ) -> CoverageReport {
        let befores: Vec<f64> = universe
            .iter()
            .map(|e| per_entity.get(e).map(|c| c.before()).unwrap_or(0) as f64)
            .collect();
        let afters: Vec<f64> = universe
            .iter()
            .map(|e| per_entity.get(e).map(|c| c.after()).unwrap_or(0) as f64)
            .collect();
        let cdf_b = EmpiricalCdf::new(befores.clone());
        let cdf_a = EmpiricalCdf::new(afters.clone());
        let zero = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().filter(|&&x| x == 0.0).count() as f64 / v.len() as f64
            }
        };
        CoverageReport {
            per_entity,
            median_before: cdf_b.median().unwrap_or(0.0),
            median_after: cdf_a.median().unwrap_or(0.0),
            mean_before: cdf_b.mean().unwrap_or(0.0),
            mean_after: cdf_a.mean().unwrap_or(0.0),
            zero_before: zero(&befores),
            zero_after: zero(&afters),
        }
    }

    /// The multiplicative gain in median opinions (∞-safe).
    pub fn median_gain(&self) -> f64 {
        self.median_after / self.median_before.max(1.0)
    }

    /// The multiplicative gain in mean opinions.
    pub fn mean_gain(&self) -> f64 {
        self.mean_after / self.mean_before.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(explicit: u64, inferred: u64) -> OpinionCounts {
        OpinionCounts { explicit, inferred }
    }

    #[test]
    fn report_medians_and_zeros() {
        let universe: Vec<EntityId> = (0..4).map(EntityId::new).collect();
        let mut per_entity = HashMap::new();
        per_entity.insert(EntityId::new(0), counts(2, 20));
        per_entity.insert(EntityId::new(1), counts(0, 10));
        per_entity.insert(EntityId::new(2), counts(0, 0));
        // Entity 3 absent entirely.
        let r = CoverageReport::compute(&universe, per_entity);
        assert_eq!(r.zero_before, 0.75);
        assert_eq!(r.zero_after, 0.5);
        assert!(r.median_after > r.median_before);
        assert!(r.mean_after > r.mean_before);
    }

    #[test]
    fn gain_is_safe_at_zero_before() {
        let universe = vec![EntityId::new(0)];
        let mut per_entity = HashMap::new();
        per_entity.insert(EntityId::new(0), counts(0, 50));
        let r = CoverageReport::compute(&universe, per_entity);
        assert!(r.median_gain().is_finite());
        assert!(r.median_gain() >= 50.0);
    }

    #[test]
    fn before_after_accessors() {
        let c = counts(3, 7);
        assert_eq!(c.before(), 3);
        assert_eq!(c.after(), 10);
    }

    #[test]
    fn empty_universe() {
        let r = CoverageReport::compute(&[], HashMap::new());
        assert_eq!(r.median_before, 0.0);
        assert_eq!(r.zero_before, 0.0);
    }
}
