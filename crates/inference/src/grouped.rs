//! Grouped predictors: one model per entity group, with a global
//! fallback.
//!
//! A dentist you see twice a year and a restaurant you visit weekly have
//! nothing in common cadence-wise; a single global model must average
//! across them. The grouped predictor trains one
//! [`OpinionPredictor`] per group key (e.g. restaurant / doctor / trade)
//! wherever the group has enough labels, falling back to the global model
//! elsewhere — the standard stratification an RSP would ship.

use crate::features::FeatureVector;
use crate::predictor::{OpinionPredictor, Prediction, PredictorConfig};
use orsp_types::Rating;
use std::collections::HashMap;
use std::hash::Hash;

/// Minimum labels a group needs for its own model.
pub const MIN_GROUP_LABELS: usize = 12;

/// A per-group predictor with global fallback.
pub struct GroupedPredictor<K: Eq + Hash + Clone> {
    global: OpinionPredictor,
    per_group: HashMap<K, OpinionPredictor>,
}

impl<K: Eq + Hash + Clone> GroupedPredictor<K> {
    /// Train from (group, features, label) triples. Returns `None` when
    /// even the global model cannot train.
    pub fn train(
        examples: &[(K, FeatureVector, Rating)],
        config: PredictorConfig,
    ) -> Option<GroupedPredictor<K>> {
        let all: Vec<(FeatureVector, Rating)> = examples.iter().map(|(_, f, r)| (*f, *r)).collect();
        let global = OpinionPredictor::train(&all, config)?;

        let mut by_group: HashMap<K, Vec<(FeatureVector, Rating)>> = HashMap::new();
        for (k, f, r) in examples {
            by_group.entry(k.clone()).or_default().push((*f, *r));
        }
        let per_group = by_group
            .into_iter()
            .filter(|(_, v)| v.len() >= MIN_GROUP_LABELS)
            .filter_map(|(k, v)| OpinionPredictor::train(&v, config).map(|m| (k, m)))
            .collect();
        Some(GroupedPredictor { global, per_group })
    }

    /// Predict with the group's model when it exists, otherwise globally.
    pub fn predict(&self, group: &K, features: &FeatureVector, count: usize) -> Prediction {
        match self.per_group.get(group) {
            Some(model) => model.predict(features, count),
            None => self.global.predict(features, count),
        }
    }

    /// Number of groups with their own model.
    pub fn specialized_groups(&self) -> usize {
        self.per_group.len()
    }

    /// The global fallback model.
    pub fn global(&self) -> &OpinionPredictor {
        &self.global
    }

    /// Whether a group has its own model.
    pub fn has_group(&self, group: &K) -> bool {
        self.per_group.contains_key(group)
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

    /// Two groups with *opposite* relationships between f0 and rating —
    /// the case a global model must fumble and group models nail.
    fn opposed_dataset() -> Vec<(u8, FeatureVector, Rating)> {
        let mut data = Vec::new();
        for i in 0..120 {
            let x = (i % 20) as f64 / 4.0;
            let y = ((i / 7) % 9) as f64 / 2.0;
            data.push((0u8, fv(x, y), Rating::new(0.5 + 0.8 * x)));
            data.push((1u8, fv(x, y), Rating::new(4.5 - 0.8 * x)));
        }
        data
    }

    #[test]
    fn group_models_beat_global_on_opposed_groups() {
        let data = opposed_dataset();
        let grouped = GroupedPredictor::train(&data, PredictorConfig::default()).unwrap();
        assert_eq!(grouped.specialized_groups(), 2);

        let probe = fv(4.0, 2.0);
        let g0 = grouped.predict(&0u8, &probe, 5).rating().expect("predict");
        let g1 = grouped.predict(&1u8, &probe, 5).rating().expect("predict");
        // Group 0: 0.5 + 0.8*4 = 3.7; group 1: 4.5 - 0.8*4 = 1.3.
        assert!(g0.abs_error(Rating::new(3.7)) < 0.6, "group 0: {g0}");
        assert!(g1.abs_error(Rating::new(1.3)) < 0.6, "group 1: {g1}");
        // The global model cannot satisfy both.
        let global = grouped.global().predict(&probe, 5).rating();
        if let Some(g) = global {
            let err0 = g.abs_error(Rating::new(3.7));
            let err1 = g.abs_error(Rating::new(1.3));
            assert!(err0 + err1 > 1.0, "global can't serve both: {err0} + {err1}");
        }
    }

    #[test]
    fn small_groups_fall_back_to_global() {
        let mut data = opposed_dataset();
        // A third group with only 3 labels.
        for i in 0..3 {
            data.push((2u8, fv(i as f64, 0.0), Rating::new(3.0)));
        }
        let grouped = GroupedPredictor::train(&data, PredictorConfig::default()).unwrap();
        assert!(!grouped.has_group(&2u8));
        // Predicting for group 2 still works (global fallback).
        let p = grouped.predict(&2u8, &fv(1.0, 1.0), 5);
        assert!(matches!(p, Prediction::Rating(_) | Prediction::Abstain(_)));
    }

    #[test]
    fn unseen_group_uses_global() {
        let data = opposed_dataset();
        let grouped = GroupedPredictor::train(&data, PredictorConfig::default()).unwrap();
        let via_unknown = grouped.predict(&9u8, &fv(2.0, 1.0), 5);
        let via_global = grouped.global().predict(&fv(2.0, 1.0), 5);
        assert_eq!(via_unknown, via_global);
    }

    #[test]
    fn too_little_data_fails_training() {
        let data: Vec<(u8, FeatureVector, Rating)> =
            (0..3).map(|i| (0u8, fv(i as f64, 0.0), Rating::new(2.0))).collect();
        assert!(GroupedPredictor::train(&data, PredictorConfig::default()).is_none());
    }
}
