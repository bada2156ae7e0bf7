//! Feature extraction for opinion inference.
//!
//! §4.1 names three families of input features:
//!
//! 1. *"features that quantify the effort the user puts in to interact
//!    with an entity, e.g., the distance traveled by a user to visit a
//!    dentist"*;
//! 2. *"features that reveal whether the user tried out many options
//!    before settling on a choice or has stuck with a choice merely due
//!    to laziness"*;
//! 3. *"features that quantify the number of other similar options from
//!    among which the user selected the entity"*.
//!
//! A [`FeatureVector`] is extracted from the (user, entity) interaction
//! history plus a [`PairContext`] carrying the cross-entity facts only the
//! device knows (alternatives tried, choice-set size). The vector itself
//! contains no identifiers — it is safe to contribute as training data.

use orsp_types::{InteractionHistory, InteractionKind};

/// Number of features.
pub const FEATURE_COUNT: usize = 14;

/// Names, index-aligned with [`FeatureVector::values`].
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "log_count",
    "log_span_days",
    "log_mean_gap_days",
    "gap_regularity",
    "mean_dwell_min",
    "log_mean_distance_m",
    "log_max_distance_m",
    "burst_fraction",
    "visit_fraction",
    "log_payments",
    "log_alternatives_tried",
    "settled_share",
    "log_choice_set",
    "hr_delta_bpm",
];

/// Cross-entity context the client computes for one (user, entity) pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PairContext {
    /// How many *other* same-category entities this user has interacted
    /// with (feature family 2: exploration).
    pub alternatives_tried: usize,
    /// Fraction of the user's same-category interactions that landed on
    /// this entity (1.0 = fully settled).
    pub settled_share: f64,
    /// Number of similar options near the user among which this entity
    /// was chosen (feature family 3).
    pub choice_set_size: usize,
    /// Mean heart-rate delta (BPM vs baseline) during this pair's visits,
    /// when the user wears a heart-rate device; 0.0 otherwise. The §3.1
    /// wearable extension — see `orsp_sensors::heartrate`.
    pub mean_hr_delta: f64,
}

/// A fixed-length, identity-free feature vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector {
    /// Values, index-aligned with [`FEATURE_NAMES`].
    pub values: [f64; FEATURE_COUNT],
}

fn log1p(x: f64) -> f64 {
    (1.0 + x.max(0.0)).ln()
}

impl FeatureVector {
    /// Extract features from a history and its pair context.
    pub fn extract(history: &InteractionHistory, context: &PairContext) -> FeatureVector {
        let n = history.len() as f64;
        let span_days = history.span().as_days_f64();
        let gaps = history.gaps();
        let gap_days: Vec<f64> = gaps.iter().map(|g| g.as_days_f64()).collect();
        let mean_gap = if gap_days.is_empty() {
            0.0
        } else {
            gap_days.iter().sum::<f64>() / gap_days.len() as f64
        };
        // Regularity: 1 / (1 + coefficient of variation). Periodic
        // cadences (dentist every ~6 months) score high; bursts score low.
        let gap_regularity = if gap_days.len() < 2 || mean_gap <= 0.0 {
            0.0
        } else {
            let var = gap_days.iter().map(|g| (g - mean_gap).powi(2)).sum::<f64>()
                / gap_days.len() as f64;
            1.0 / (1.0 + var.sqrt() / mean_gap)
        };
        // Burstiness: fraction of gaps under 7 days — the callback
        // confound signal ("repeated phone calls to a plumber may be
        // because the plumber did a poor job").
        let burst_fraction = if gap_days.is_empty() {
            0.0
        } else {
            gap_days.iter().filter(|&&g| g < 7.0).count() as f64 / gap_days.len() as f64
        };

        let visits: Vec<_> = history.iter().filter(|r| r.kind == InteractionKind::Visit).collect();
        let mean_dwell_min = if visits.is_empty() {
            // Calls: use call duration instead.
            let calls: Vec<_> =
                history.iter().filter(|r| r.kind == InteractionKind::PhoneCall).collect();
            if calls.is_empty() {
                0.0
            } else {
                calls.iter().map(|r| r.duration.as_minutes_f64()).sum::<f64>() / calls.len() as f64
            }
        } else {
            visits.iter().map(|r| r.duration.as_minutes_f64()).sum::<f64>() / visits.len() as f64
        };

        let distances: Vec<f64> = history.iter().map(|r| r.distance_travelled_m).collect();
        let mean_distance =
            if distances.is_empty() { 0.0 } else { distances.iter().sum::<f64>() / n };
        let max_distance = distances.iter().copied().fold(0.0, f64::max);
        let visit_fraction = visits.len() as f64 / n.max(1.0);
        let payments = history.iter().filter(|r| r.kind == InteractionKind::Payment).count() as f64;

        FeatureVector {
            values: [
                log1p(n),
                log1p(span_days),
                log1p(mean_gap),
                gap_regularity,
                mean_dwell_min,
                log1p(mean_distance),
                log1p(max_distance),
                burst_fraction,
                visit_fraction,
                log1p(payments),
                log1p(context.alternatives_tried as f64),
                context.settled_share.clamp(0.0, 1.0),
                log1p(context.choice_set_size as f64),
                context.mean_hr_delta.clamp(-30.0, 60.0),
            ],
        }
    }

    /// Squared Euclidean distance between vectors (after caller-side
    /// normalization).
    pub fn distance_sq(&self, other: &FeatureVector) -> f64 {
        self.values.iter().zip(other.values.iter()).map(|(a, b)| (a - b) * (a - b)).sum()
    }

    /// All values finite?
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

/// Per-dimension normalization statistics (for k-NN and for reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    /// Per-dimension means.
    pub mean: [f64; FEATURE_COUNT],
    /// Per-dimension standard deviations (>= epsilon).
    pub std: [f64; FEATURE_COUNT],
}

impl Normalizer {
    /// Fit from a sample of vectors.
    pub fn fit(vectors: &[FeatureVector]) -> Normalizer {
        let n = vectors.len().max(1) as f64;
        let mut mean = [0.0; FEATURE_COUNT];
        for v in vectors {
            for (m, x) in mean.iter_mut().zip(v.values.iter()) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut std = [0.0; FEATURE_COUNT];
        for v in vectors {
            for i in 0..FEATURE_COUNT {
                std[i] += (v.values[i] - mean[i]).powi(2);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt().max(1e-9);
        }
        Normalizer { mean, std }
    }

    /// Normalize a vector to zero-mean unit-variance coordinates.
    pub fn apply(&self, v: &FeatureVector) -> FeatureVector {
        let mut out = [0.0; FEATURE_COUNT];
        for i in 0..FEATURE_COUNT {
            out[i] = (v.values[i] - self.mean[i]) / self.std[i];
        }
        FeatureVector { values: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::{Interaction, SimDuration, Timestamp};

    fn visit(day: i64, dwell_min: i64, dist: f64) -> Interaction {
        Interaction::solo(
            InteractionKind::Visit,
            Timestamp::from_seconds(day * 86_400),
            SimDuration::minutes(dwell_min),
            dist,
        )
    }

    fn call(day: i64, minutes: i64) -> Interaction {
        Interaction::solo(
            InteractionKind::PhoneCall,
            Timestamp::from_seconds(day * 86_400),
            SimDuration::minutes(minutes),
            0.0,
        )
    }

    #[test]
    fn names_align_with_count() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
    }

    #[test]
    fn regular_cadence_scores_high_regularity() {
        let regular =
            InteractionHistory::from_records((0..6).map(|i| visit(i * 30, 45, 500.0)).collect())
                .unwrap();
        let bursty = InteractionHistory::from_records(vec![
            visit(0, 45, 500.0),
            visit(1, 45, 500.0),
            visit(2, 45, 500.0),
            visit(300, 45, 500.0),
        ])
        .unwrap();
        let ctx = PairContext::default();
        let fr = FeatureVector::extract(&regular, &ctx);
        let fb = FeatureVector::extract(&bursty, &ctx);
        let reg_idx = FEATURE_NAMES.iter().position(|n| *n == "gap_regularity").unwrap();
        assert!(fr.values[reg_idx] > fb.values[reg_idx]);
    }

    #[test]
    fn burst_fraction_catches_callbacks() {
        let callbacks =
            InteractionHistory::from_records(vec![call(0, 8), call(2, 4), call(4, 3), call(6, 2)])
                .unwrap();
        let spaced =
            InteractionHistory::from_records(vec![call(0, 8), call(90, 7), call(200, 9)]).unwrap();
        let ctx = PairContext::default();
        let idx = FEATURE_NAMES.iter().position(|n| *n == "burst_fraction").unwrap();
        assert_eq!(FeatureVector::extract(&callbacks, &ctx).values[idx], 1.0);
        assert_eq!(FeatureVector::extract(&spaced, &ctx).values[idx], 0.0);
    }

    #[test]
    fn distance_features_are_monotone_in_effort() {
        let near =
            InteractionHistory::from_records((0..4).map(|i| visit(i * 30, 45, 200.0)).collect())
                .unwrap();
        let far =
            InteractionHistory::from_records((0..4).map(|i| visit(i * 30, 45, 6_000.0)).collect())
                .unwrap();
        let ctx = PairContext::default();
        let idx = FEATURE_NAMES.iter().position(|n| *n == "log_mean_distance_m").unwrap();
        assert!(
            FeatureVector::extract(&far, &ctx).values[idx]
                > FeatureVector::extract(&near, &ctx).values[idx]
        );
    }

    #[test]
    fn call_only_history_uses_call_duration() {
        let h = InteractionHistory::from_records(vec![call(0, 10), call(60, 6)]).unwrap();
        let f = FeatureVector::extract(&h, &PairContext::default());
        let dwell_idx = FEATURE_NAMES.iter().position(|n| *n == "mean_dwell_min").unwrap();
        assert!((f.values[dwell_idx] - 8.0).abs() < 1e-9);
        let vf_idx = FEATURE_NAMES.iter().position(|n| *n == "visit_fraction").unwrap();
        assert_eq!(f.values[vf_idx], 0.0);
    }

    #[test]
    fn context_features_pass_through() {
        let h = InteractionHistory::from_records(vec![visit(0, 45, 100.0)]).unwrap();
        let ctx = PairContext {
            alternatives_tried: 6,
            settled_share: 0.8,
            choice_set_size: 12,
            mean_hr_delta: 0.0,
        };
        let f = FeatureVector::extract(&h, &ctx);
        let alt_idx = FEATURE_NAMES.iter().position(|n| *n == "log_alternatives_tried").unwrap();
        let settle_idx = FEATURE_NAMES.iter().position(|n| *n == "settled_share").unwrap();
        assert!((f.values[alt_idx] - (7.0f64).ln()).abs() < 1e-9);
        assert_eq!(f.values[settle_idx], 0.8);
    }

    #[test]
    fn empty_history_is_finite() {
        let h = InteractionHistory::new();
        let f = FeatureVector::extract(&h, &PairContext::default());
        assert!(f.is_finite());
        assert_eq!(f.values[0], 0.0);
    }

    #[test]
    fn normalizer_standardizes() {
        let vs: Vec<FeatureVector> = (0..100)
            .map(|i| {
                let h = InteractionHistory::from_records(
                    (0..(1 + i % 7))
                        .map(|k| visit(k as i64 * 20, 30 + i, 100.0 * i as f64))
                        .collect(),
                )
                .unwrap();
                FeatureVector::extract(&h, &PairContext::default())
            })
            .collect();
        let norm = Normalizer::fit(&vs);
        let applied: Vec<FeatureVector> = vs.iter().map(|v| norm.apply(v)).collect();
        // Column 0 (log_count) should now have ~zero mean, ~unit std.
        let mean0: f64 = applied.iter().map(|v| v.values[0]).sum::<f64>() / 100.0;
        let var0: f64 = applied.iter().map(|v| (v.values[0] - mean0).powi(2)).sum::<f64>() / 100.0;
        assert!(mean0.abs() < 1e-9);
        assert!((var0 - 1.0).abs() < 1e-6);
    }
}
