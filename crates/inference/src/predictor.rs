//! The abstaining opinion predictor.
//!
//! Footnote 1 of the paper: *"Since implicit inference of opinions will
//! never be perfect, an RSP must strive to identify instances when
//! accurate inference is infeasible and choose to avoid making a judgement
//! about the user's opinion in such cases."*
//!
//! The predictor ensembles ridge and k-NN and abstains when:
//!
//! * the pair has too few interactions to say anything (`TooFewSignals`),
//! * the query sits far from the training manifold (`OffManifold`), or
//! * the two models disagree by more than a tolerance (`ModelDisagreement`)
//!   — the cheap, effective proxy for predictive uncertainty.

use crate::features::FeatureVector;
use crate::knn::KnnRegressor;
use crate::ridge::RidgeRegressor;
use orsp_types::Rating;

/// Why the predictor declined to predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstainReason {
    /// Too few interactions in the history.
    TooFewSignals,
    /// The feature vector is unlike anything in the training data.
    OffManifold,
    /// The ensemble members disagree beyond tolerance.
    ModelDisagreement,
}

/// A prediction or a principled refusal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prediction {
    /// A numerical rating in `[0, 5]`.
    Rating(Rating),
    /// "Infeasible to accurately gauge the user's opinion."
    Abstain(AbstainReason),
}

impl Prediction {
    /// The rating if predicted.
    pub fn rating(&self) -> Option<Rating> {
        match self {
            Prediction::Rating(r) => Some(*r),
            Prediction::Abstain(_) => None,
        }
    }
}

/// Predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// Ridge penalty.
    pub lambda: f64,
    /// k-NN neighbourhood size.
    pub k: usize,
    /// Minimum interactions before predicting.
    pub min_interactions: usize,
    /// Abstain when the mean normalized neighbour distance exceeds this.
    pub max_support_distance: f64,
    /// Abstain when |ridge − knn| exceeds this many stars.
    pub max_disagreement: f64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            lambda: 1.0,
            k: 15,
            min_interactions: 2,
            // In 13-dim standardized space typical points sit ~sqrt(13)
            // apart; 6.0 keeps genuinely alien queries out without
            // abstaining on the bulk.
            max_support_distance: 6.0,
            max_disagreement: 1.1,
        }
    }
}

/// The trained, abstaining predictor.
pub struct OpinionPredictor {
    ridge: RidgeRegressor,
    knn: KnnRegressor,
    config: PredictorConfig,
}

impl OpinionPredictor {
    /// Train on (features, rating, interaction count) examples — the
    /// reviewer minority's labelled pairs. Returns `None` when training
    /// data is insufficient for either member.
    pub fn train(
        examples: &[(FeatureVector, Rating)],
        config: PredictorConfig,
    ) -> Option<OpinionPredictor> {
        let ridge = RidgeRegressor::fit(examples, config.lambda)?;
        let knn = KnnRegressor::fit(examples, config.k.min(examples.len()))?;
        Some(OpinionPredictor { ridge, knn, config })
    }

    /// Predict the user's opinion for a pair with `interaction_count`
    /// observed interactions.
    pub fn predict(&self, features: &FeatureVector, interaction_count: usize) -> Prediction {
        if interaction_count < self.config.min_interactions {
            return Prediction::Abstain(AbstainReason::TooFewSignals);
        }
        if !features.is_finite() {
            return Prediction::Abstain(AbstainReason::OffManifold);
        }
        let (knn_pred, support) = self.knn.predict_with_support(features);
        if support > self.config.max_support_distance {
            return Prediction::Abstain(AbstainReason::OffManifold);
        }
        let ridge_pred = self.ridge.predict(features);
        if ridge_pred.abs_error(knn_pred) > self.config.max_disagreement {
            return Prediction::Abstain(AbstainReason::ModelDisagreement);
        }
        // Blend: equal weight — simple, and each member covers the
        // other's failure mode (ridge extrapolates, knn localizes).
        Prediction::Rating(Rating::new((ridge_pred.value() + knn_pred.value()) / 2.0))
    }

    /// The configuration in force.
    pub fn config(&self) -> PredictorConfig {
        self.config
    }

    /// The trained ridge member (for ablation benches).
    pub fn ridge(&self) -> &RidgeRegressor {
        &self.ridge
    }

    /// The trained k-NN member (for ablation benches).
    pub fn knn(&self) -> &KnnRegressor {
        &self.knn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FEATURE_COUNT;

    fn fv(f0: f64, f1: f64) -> FeatureVector {
        let mut values = [0.0; FEATURE_COUNT];
        values[0] = f0;
        values[1] = f1;
        FeatureVector { values }
    }

    /// Linearly separable data both members can learn.
    fn dataset() -> Vec<(FeatureVector, Rating)> {
        let mut data = Vec::new();
        for i in 0..200 {
            let f0 = (i % 20) as f64 / 4.0;
            let f1 = ((i / 20) % 10) as f64 / 2.0;
            data.push((fv(f0, f1), Rating::new(0.5 + 0.6 * f0 + 0.1 * f1)));
        }
        data
    }

    #[test]
    fn predicts_on_supported_inputs() {
        let p = OpinionPredictor::train(&dataset(), PredictorConfig::default()).unwrap();
        match p.predict(&fv(2.0, 2.0), 5) {
            Prediction::Rating(r) => {
                let truth = 0.5 + 0.6 * 2.0 + 0.1 * 2.0;
                assert!(r.abs_error(Rating::new(truth)) < 0.5, "pred {r} truth {truth}");
            }
            Prediction::Abstain(why) => panic!("unexpected abstain: {why:?}"),
        }
    }

    #[test]
    fn abstains_on_too_few_interactions() {
        let p = OpinionPredictor::train(&dataset(), PredictorConfig::default()).unwrap();
        assert_eq!(p.predict(&fv(2.0, 2.0), 1), Prediction::Abstain(AbstainReason::TooFewSignals));
    }

    #[test]
    fn abstains_off_manifold() {
        let p = OpinionPredictor::train(&dataset(), PredictorConfig::default()).unwrap();
        assert_eq!(
            p.predict(&fv(10_000.0, -10_000.0), 5),
            Prediction::Abstain(AbstainReason::OffManifold)
        );
    }

    #[test]
    fn abstains_on_nan_features() {
        let p = OpinionPredictor::train(&dataset(), PredictorConfig::default()).unwrap();
        let mut bad = fv(1.0, 1.0);
        bad.values[3] = f64::NAN;
        assert_eq!(p.predict(&bad, 5), Prediction::Abstain(AbstainReason::OffManifold));
    }

    #[test]
    fn training_fails_gracefully_on_tiny_data() {
        assert!(OpinionPredictor::train(&dataset()[..3], PredictorConfig::default()).is_none());
    }

    #[test]
    fn disagreement_triggers_abstention() {
        // Train ridge on a linear trend but poison a far corner so knn
        // localizes differently there.
        let mut data = dataset();
        for i in 0..30 {
            // Cluster at f0≈9.5..10 rated 0 — contradicts the linear trend
            // (0.5 + 0.6*10 ≈ 6.5 → clamped 5).
            data.push((fv(9.5 + (i as f64) * 0.01, 0.0), Rating::new(0.0)));
        }
        let config = PredictorConfig { max_disagreement: 0.8, ..Default::default() };
        let p = OpinionPredictor::train(&data, config).unwrap();
        match p.predict(&fv(9.7, 0.0), 5) {
            Prediction::Abstain(AbstainReason::ModelDisagreement) => {}
            other => panic!("expected disagreement abstention, got {other:?}"),
        }
    }

    #[test]
    fn prediction_rating_accessor() {
        assert_eq!(Prediction::Rating(Rating::new(3.0)).rating(), Some(Rating::new(3.0)));
        assert_eq!(Prediction::Abstain(AbstainReason::TooFewSignals).rating(), None);
    }
}
