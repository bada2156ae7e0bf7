//! Evaluation metrics for opinion inference.
//!
//! The quantities every inference experiment reports: error on predicted
//! pairs, coverage (how often the predictor was willing to speak), and
//! *abstention quality* — a good abstainer declines exactly the cases it
//! would have gotten wrong, so its error-if-forced on abstained pairs
//! should exceed its error on predicted pairs.

use crate::predictor::{AbstainReason, Prediction};
use orsp_types::Rating;

/// One evaluation example: prediction vs. ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledExample {
    /// What the predictor said.
    pub prediction: Prediction,
    /// The latent true rating (from the world's opinion model).
    pub truth: Rating,
    /// What the predictor *would* have said had it been forced (used to
    /// score abstention quality); `None` when unavailable.
    pub forced: Option<Rating>,
}

/// Aggregated evaluation results.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Total examples.
    pub total: usize,
    /// Examples with a numeric prediction.
    pub predicted: usize,
    /// Mean absolute error over predicted examples.
    pub mae: f64,
    /// Root mean squared error over predicted examples.
    pub rmse: f64,
    /// Coverage: predicted / total.
    pub coverage: f64,
    /// Abstentions by reason: (reason name, count).
    pub abstained: Vec<(String, usize)>,
    /// MAE the predictor would have incurred on abstained examples had it
    /// been forced to answer (NaN if not computable).
    pub abstained_forced_mae: f64,
    /// Fraction of predictions within 1 star of truth.
    pub within_one_star: f64,
}

impl EvalReport {
    /// Compute the report from labelled examples.
    pub fn compute(examples: &[LabeledExample]) -> EvalReport {
        let total = examples.len();
        let mut abs_errors = Vec::new();
        let mut sq_sum = 0.0;
        let mut within_one = 0usize;
        let mut abstain_counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        let mut forced_errors = Vec::new();

        for ex in examples {
            match ex.prediction {
                Prediction::Rating(r) => {
                    let err = r.abs_error(ex.truth);
                    abs_errors.push(err);
                    sq_sum += err * err;
                    if err <= 1.0 {
                        within_one += 1;
                    }
                }
                Prediction::Abstain(reason) => {
                    let name = match reason {
                        AbstainReason::TooFewSignals => "too_few_signals",
                        AbstainReason::OffManifold => "off_manifold",
                        AbstainReason::ModelDisagreement => "model_disagreement",
                    };
                    *abstain_counts.entry(name).or_default() += 1;
                    if let Some(forced) = ex.forced {
                        forced_errors.push(forced.abs_error(ex.truth));
                    }
                }
            }
        }

        let predicted = abs_errors.len();
        let mae = if predicted == 0 {
            f64::NAN
        } else {
            abs_errors.iter().sum::<f64>() / predicted as f64
        };
        let rmse = if predicted == 0 { f64::NAN } else { (sq_sum / predicted as f64).sqrt() };
        let abstained_forced_mae = if forced_errors.is_empty() {
            f64::NAN
        } else {
            forced_errors.iter().sum::<f64>() / forced_errors.len() as f64
        };

        EvalReport {
            total,
            predicted,
            mae,
            rmse,
            coverage: if total == 0 { 0.0 } else { predicted as f64 / total as f64 },
            abstained: abstain_counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            abstained_forced_mae,
            within_one_star: if predicted == 0 {
                0.0
            } else {
                within_one as f64 / predicted as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(value: f64, truth: f64) -> LabeledExample {
        LabeledExample {
            prediction: Prediction::Rating(Rating::new(value)),
            truth: Rating::new(truth),
            forced: None,
        }
    }

    fn abstain(reason: AbstainReason, truth: f64, forced: f64) -> LabeledExample {
        LabeledExample {
            prediction: Prediction::Abstain(reason),
            truth: Rating::new(truth),
            forced: Some(Rating::new(forced)),
        }
    }

    #[test]
    fn mae_and_rmse() {
        let report = EvalReport::compute(&[pred(3.0, 4.0), pred(5.0, 5.0), pred(1.0, 3.0)]);
        assert_eq!(report.total, 3);
        assert_eq!(report.predicted, 3);
        assert!((report.mae - 1.0).abs() < 1e-12);
        let expected_rmse = ((1.0f64 + 0.0 + 4.0) / 3.0).sqrt();
        assert!((report.rmse - expected_rmse).abs() < 1e-12);
        assert!((report.coverage - 1.0).abs() < 1e-12);
        assert!((report.within_one_star - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_counts_abstentions() {
        let report = EvalReport::compute(&[
            pred(3.0, 3.0),
            abstain(AbstainReason::TooFewSignals, 4.0, 2.0),
            abstain(AbstainReason::ModelDisagreement, 1.0, 4.0),
        ]);
        assert_eq!(report.predicted, 1);
        assert!((report.coverage - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            report.abstained,
            vec![("model_disagreement".to_string(), 1), ("too_few_signals".to_string(), 1)]
        );
        // Forced errors: |2-4| = 2 and |4-1| = 3 → mean 2.5.
        assert!((report.abstained_forced_mae - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report() {
        let report = EvalReport::compute(&[]);
        assert_eq!(report.total, 0);
        assert!(report.mae.is_nan());
        assert_eq!(report.coverage, 0.0);
    }

    #[test]
    fn good_abstention_shows_higher_forced_error() {
        // The property the report is designed to surface.
        let examples =
            vec![pred(4.0, 4.2), pred(2.0, 1.9), abstain(AbstainReason::OffManifold, 5.0, 1.0)];
        let r = EvalReport::compute(&examples);
        assert!(r.abstained_forced_mae > r.mae);
    }
}
