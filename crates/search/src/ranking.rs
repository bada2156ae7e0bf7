//! Ranking: explicit reviews ⊕ inferred opinions.
//!
//! The score is a support-weighted blend of the explicit mean rating and
//! the inferred mean rating, each smoothed toward a neutral prior — so an
//! entity with 3 reviews and 400 inferred opinions is dominated by the
//! inferences, and vice versa. This realizes the paper's headline benefit:
//! entities with almost no reviews become rankable.

use orsp_types::{EntityId, Rating, StarHistogram};

/// Summary of explicit reviews for one entity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReviewSummary {
    /// Star histogram of posted reviews.
    pub histogram: StarHistogram,
}

impl ReviewSummary {
    /// Number of reviews.
    pub fn count(&self) -> u64 {
        self.histogram.total()
    }

    /// Mean review rating.
    pub fn mean(&self) -> Option<Rating> {
        self.histogram.mean()
    }
}

/// Summary of inferred opinions for one entity (the §4.2 egress:
/// histograms only, no individuals).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InferredSummary {
    /// Star histogram of inferred ratings.
    pub histogram: StarHistogram,
    /// Interaction-level support (anonymous histories behind the
    /// inferences).
    pub histories: usize,
    /// Fraction of histories with repeat interactions.
    pub repeat_fraction: f64,
}

impl InferredSummary {
    /// Number of inferred opinions.
    pub fn count(&self) -> u64 {
        self.histogram.total()
    }

    /// Mean inferred rating.
    pub fn mean(&self) -> Option<Rating> {
        self.histogram.mean()
    }

    /// Attach the interaction-support half: the published history count
    /// and repeat fraction of the entity's aggregate.
    pub fn with_support(mut self, histories: usize, repeat_fraction: f64) -> InferredSummary {
        self.histories = histories;
        self.repeat_fraction = repeat_fraction;
        self
    }
}

/// One ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedResult {
    /// The entity.
    pub entity: EntityId,
    /// Explicit-review summary.
    pub explicit: ReviewSummary,
    /// Inferred-opinion summary.
    pub inferred: InferredSummary,
    /// Final ranking score.
    pub score: f64,
}

/// Ranking parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranker {
    /// Prior (pseudo-count) rating toward which low-support means shrink.
    pub prior_rating: f64,
    /// Pseudo-count strength of the prior.
    pub prior_weight: f64,
    /// Weight multiplier for explicit reviews relative to inferred
    /// opinions (explicit input is lower-variance; §4.1's uncertainty).
    pub explicit_multiplier: f64,
}

impl Default for Ranker {
    fn default() -> Self {
        Ranker { prior_rating: 3.0, prior_weight: 8.0, explicit_multiplier: 2.0 }
    }
}

impl Ranker {
    /// Score one entity from its two summaries.
    pub fn score(&self, explicit: &ReviewSummary, inferred: &InferredSummary) -> f64 {
        let er = explicit.mean().map(|r| r.value()).unwrap_or(self.prior_rating);
        let en = explicit.count() as f64 * self.explicit_multiplier;
        let ir = inferred.mean().map(|r| r.value()).unwrap_or(self.prior_rating);
        let inn = inferred.count() as f64;
        (self.prior_rating * self.prior_weight + er * en + ir * inn)
            / (self.prior_weight + en + inn)
    }

    /// Rank a result set (descending score; ties broken by support then
    /// id for determinism).
    pub fn rank(
        &self,
        results: Vec<(EntityId, ReviewSummary, InferredSummary)>,
    ) -> Vec<RankedResult> {
        let mut out: Vec<RankedResult> = results
            .into_iter()
            .map(|(entity, explicit, inferred)| {
                let score = self.score(&explicit, &inferred);
                RankedResult { entity, explicit, inferred, score }
            })
            .collect();
        out.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| {
                    (b.explicit.count() + b.inferred.count())
                        .cmp(&(a.explicit.count() + a.inferred.count()))
                })
                .then_with(|| a.entity.cmp(&b.entity))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stars(ratings: &[u8]) -> StarHistogram {
        ratings.iter().map(|&s| Rating::stars(s)).collect()
    }

    fn explicit(ratings: &[u8]) -> ReviewSummary {
        ReviewSummary { histogram: stars(ratings) }
    }

    fn inferred(ratings: &[u8]) -> InferredSummary {
        InferredSummary {
            histogram: stars(ratings),
            histories: ratings.len(),
            repeat_fraction: 0.5,
        }
    }

    #[test]
    fn no_signal_scores_at_prior() {
        let r = Ranker::default();
        let s = r.score(&ReviewSummary::default(), &InferredSummary::default());
        assert!((s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn strong_inferred_signal_dominates_weak_explicit() {
        let r = Ranker::default();
        // 2 bad reviews vs 200 good inferred opinions.
        let s = r.score(&explicit(&[1, 1]), &inferred(&vec![5u8; 200]));
        assert!(s > 4.5, "score {s}");
    }

    #[test]
    fn explicit_reviews_weigh_more_per_observation() {
        let r = Ranker::default();
        let via_explicit = r.score(&explicit(&[5; 10]), &InferredSummary::default());
        let via_inferred = r.score(&ReviewSummary::default(), &inferred(&[5; 10]));
        assert!(via_explicit > via_inferred);
    }

    #[test]
    fn low_support_shrinks_to_prior() {
        let r = Ranker::default();
        let one_five_star = r.score(&ReviewSummary::default(), &inferred(&[5]));
        assert!(one_five_star < 3.5, "one opinion can't move the needle: {one_five_star}");
    }

    #[test]
    fn rank_orders_descending_deterministically() {
        let r = Ranker::default();
        let ranked = r.rank(vec![
            (EntityId::new(1), explicit(&[2, 2]), inferred(&[2; 30])),
            (EntityId::new(2), explicit(&[5, 5]), inferred(&[5; 30])),
            (EntityId::new(3), ReviewSummary::default(), InferredSummary::default()),
        ]);
        assert_eq!(ranked[0].entity, EntityId::new(2));
        assert_eq!(ranked[2].entity, EntityId::new(1));
        for pair in ranked.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn tie_break_prefers_support_then_id() {
        let r = Ranker::default();
        let ranked = r.rank(vec![
            (EntityId::new(9), ReviewSummary::default(), InferredSummary::default()),
            (EntityId::new(1), ReviewSummary::default(), InferredSummary::default()),
        ]);
        assert_eq!(ranked[0].entity, EntityId::new(1), "id tiebreak");
    }
}
