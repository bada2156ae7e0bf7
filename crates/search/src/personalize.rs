//! Personalization (§5, "Incentives").
//!
//! *"a user is more likely to install the app if she herself benefits from
//! it ... for any search query issued by a user, the RSP could tailor
//! results based on the user's history."*
//!
//! Personalization is **device-local**: the user's own history never
//! leaves the phone; the client re-ranks the (already anonymous) global
//! results with its private knowledge. That keeps the privacy story
//! intact while delivering the install incentive.

use crate::ranking::RankedResult;
use orsp_types::{EntityId, Rating};
use std::collections::HashMap;

/// The device-local personal history used for re-ranking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PersonalHistory {
    /// The user's own (inferred or explicit) opinion per entity.
    own_opinions: HashMap<EntityId, Rating>,
}

impl PersonalHistory {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the user's own opinion of an entity.
    pub fn record(&mut self, entity: EntityId, rating: Rating) {
        self.own_opinions.insert(entity, rating);
    }

    /// The user's opinion of an entity, if known.
    pub fn opinion(&self, entity: EntityId) -> Option<Rating> {
        self.own_opinions.get(&entity).copied()
    }

    /// Number of entities with recorded opinions.
    pub fn len(&self) -> usize {
        self.own_opinions.len()
    }

    /// True iff no opinions recorded.
    pub fn is_empty(&self) -> bool {
        self.own_opinions.is_empty()
    }

    /// Re-rank results with the user's own experience:
    ///
    /// * entities the user knows move by their own rating relative to
    ///   neutral (a place you love outranks a stranger-approved one; a
    ///   place you hate sinks regardless of its aggregate);
    /// * unknown entities keep their global score.
    pub fn rerank(&self, mut results: Vec<RankedResult>, own_weight: f64) -> Vec<RankedResult> {
        for r in &mut results {
            if let Some(own) = self.opinion(r.entity) {
                r.score += own_weight * (own.value() - 3.0);
            }
        }
        results.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.entity.cmp(&b.entity)));
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{InferredSummary, ReviewSummary};

    fn result(id: u64, score: f64) -> RankedResult {
        RankedResult {
            entity: EntityId::new(id),
            explicit: ReviewSummary::default(),
            inferred: InferredSummary::default(),
            score,
        }
    }

    #[test]
    fn known_loved_entity_rises() {
        let mut h = PersonalHistory::new();
        h.record(EntityId::new(2), Rating::new(5.0));
        let ranked = h.rerank(vec![result(1, 4.0), result(2, 3.8)], 1.0);
        assert_eq!(ranked[0].entity, EntityId::new(2), "own 5★ beats stranger 4.0");
    }

    #[test]
    fn known_hated_entity_sinks() {
        let mut h = PersonalHistory::new();
        h.record(EntityId::new(1), Rating::new(0.5));
        let ranked = h.rerank(vec![result(1, 4.5), result(2, 3.5)], 1.0);
        assert_eq!(ranked[0].entity, EntityId::new(2));
    }

    #[test]
    fn unknown_entities_unchanged() {
        let h = PersonalHistory::new();
        let ranked = h.rerank(vec![result(1, 4.0), result(2, 3.0)], 1.0);
        assert!((ranked[0].score - 4.0).abs() < 1e-12);
        assert!((ranked[1].score - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_disables_personalization() {
        let mut h = PersonalHistory::new();
        h.record(EntityId::new(2), Rating::new(5.0));
        let ranked = h.rerank(vec![result(1, 4.0), result(2, 3.0)], 0.0);
        assert_eq!(ranked[0].entity, EntityId::new(1));
    }

    #[test]
    fn history_bookkeeping() {
        let mut h = PersonalHistory::new();
        assert!(h.is_empty());
        h.record(EntityId::new(1), Rating::new(2.0));
        h.record(EntityId::new(1), Rating::new(4.0));
        assert_eq!(h.len(), 1, "re-recording replaces");
        assert_eq!(h.opinion(EntityId::new(1)), Some(Rating::new(4.0)));
        assert_eq!(h.opinion(EntityId::new(9)), None);
    }
}
