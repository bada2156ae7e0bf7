//! The naive baseline: repeat interaction count as endorsement, with no
//! effort features at all.
//!
//! This is exactly the assumption §4.1 warns against — "repeated
//! interaction is of course not always a sign of endorsement; an RSP
//! should not attribute loyalty to what is laziness or compulsion" — so
//! beating it is the paper's claim made quantitative.

use crate::features::{FeatureVector, FEATURE_NAMES};
use orsp_types::Rating;

/// Rating from interaction count alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatCountBaseline {
    /// Rating assigned at one interaction.
    pub base: f64,
    /// Rating added per doubling of interactions.
    pub per_doubling: f64,
}

impl Default for RepeatCountBaseline {
    fn default() -> Self {
        // One visit ≈ neutral-ish 2.8; each doubling adds ~0.55 stars,
        // saturating at 5. Roughly matches "5 visits = regular = happy".
        RepeatCountBaseline { base: 2.8, per_doubling: 0.55 }
    }
}

impl RepeatCountBaseline {
    /// Predict from a feature vector (uses only the `log_count` feature).
    pub fn predict(&self, features: &FeatureVector) -> Rating {
        let log_count_idx = FEATURE_NAMES.iter().position(|n| *n == "log_count").unwrap();
        // values[log_count] = ln(1 + n)  ⇒  doublings ≈ ln(n)/ln(2).
        let n = features.values[log_count_idx].exp() - 1.0;
        let doublings = if n <= 1.0 { 0.0 } else { n.ln() / std::f64::consts::LN_2 };
        Rating::new(self.base + self.per_doubling * doublings)
    }

    /// Predict directly from a count (convenience for tests/benches).
    pub fn predict_from_count(&self, count: usize) -> Rating {
        let doublings = if count <= 1 { 0.0 } else { (count as f64).ln() / std::f64::consts::LN_2 };
        Rating::new(self.base + self.per_doubling * doublings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureVector, PairContext};
    use orsp_types::{Interaction, InteractionHistory, InteractionKind, SimDuration, Timestamp};

    #[test]
    fn more_visits_higher_rating() {
        let b = RepeatCountBaseline::default();
        let r1 = b.predict_from_count(1);
        let r4 = b.predict_from_count(4);
        let r16 = b.predict_from_count(16);
        assert!(r1 < r4);
        assert!(r4 < r16);
        assert!((0.0..=5.0).contains(&r16.value()));
    }

    #[test]
    fn saturates_at_five() {
        let b = RepeatCountBaseline::default();
        assert_eq!(b.predict_from_count(10_000).value(), 5.0);
    }

    #[test]
    fn feature_and_count_paths_agree() {
        let b = RepeatCountBaseline::default();
        for n in [1usize, 3, 8, 20] {
            let h = InteractionHistory::from_records(
                (0..n)
                    .map(|i| {
                        Interaction::solo(
                            InteractionKind::Visit,
                            Timestamp::from_seconds(i as i64 * 86_400),
                            SimDuration::minutes(30),
                            100.0,
                        )
                    })
                    .collect(),
            )
            .unwrap();
            let f = FeatureVector::extract(&h, &PairContext::default());
            assert!(b.predict(&f).abs_error(b.predict_from_count(n)) < 1e-6, "n = {n}");
        }
    }

    #[test]
    fn baseline_is_blind_to_effort() {
        // Same count, wildly different effort: identical prediction.
        let b = RepeatCountBaseline::default();
        let near = InteractionHistory::from_records(
            (0..5)
                .map(|i| {
                    Interaction::solo(
                        InteractionKind::Visit,
                        Timestamp::from_seconds(i * 86_400),
                        SimDuration::minutes(5),
                        10.0,
                    )
                })
                .collect(),
        )
        .unwrap();
        let far = InteractionHistory::from_records(
            (0..5)
                .map(|i| {
                    Interaction::solo(
                        InteractionKind::Visit,
                        Timestamp::from_seconds(i * 30 * 86_400),
                        SimDuration::minutes(90),
                        9_000.0,
                    )
                })
                .collect(),
        )
        .unwrap();
        let ctx = PairContext::default();
        let pn = b.predict(&FeatureVector::extract(&near, &ctx));
        let pf = b.predict(&FeatureVector::extract(&far, &ctx));
        assert!(pn.abs_error(pf) < 1e-9, "the baseline cannot tell these apart");
    }
}
