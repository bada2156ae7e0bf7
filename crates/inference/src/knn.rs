//! k-nearest-neighbour rating regressor: the non-parametric comparator to
//! ridge, and the source of the ensemble's disagreement signal.

use crate::features::{FeatureVector, Normalizer};
use orsp_types::Rating;

/// A fitted k-NN regressor (stores its training set, normalized).
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    k: usize,
    normalizer: Normalizer,
    points: Vec<(FeatureVector, f64)>,
}

impl KnnRegressor {
    /// Fit with neighbourhood size `k`. Returns `None` if there are fewer
    /// than `k` examples.
    pub fn fit(examples: &[(FeatureVector, Rating)], k: usize) -> Option<KnnRegressor> {
        if examples.len() < k || k == 0 {
            return None;
        }
        let vectors: Vec<FeatureVector> = examples.iter().map(|(f, _)| *f).collect();
        let normalizer = Normalizer::fit(&vectors);
        let points = examples.iter().map(|(f, r)| (normalizer.apply(f), r.value())).collect();
        Some(KnnRegressor { k, normalizer, points })
    }

    /// Predict the mean rating of the k nearest neighbours, and the mean
    /// normalized distance to them (a support/novelty signal: far
    /// neighbours mean the query is unlike anything in training).
    pub fn predict_with_support(&self, features: &FeatureVector) -> (Rating, f64) {
        let q = self.normalizer.apply(features);
        // Partial selection of the k smallest distances.
        let mut dists: Vec<(f64, f64)> =
            self.points.iter().map(|(p, y)| (p.distance_sq(&q), *y)).collect();
        dists.select_nth_unstable_by(self.k - 1, |a, b| a.0.total_cmp(&b.0));
        let neighbours = &dists[..self.k];
        let mean_rating = neighbours.iter().map(|(_, y)| y).sum::<f64>() / self.k as f64;
        let mean_dist = neighbours.iter().map(|(d, _)| d.sqrt()).sum::<f64>() / self.k as f64;
        (Rating::new(mean_rating), mean_dist)
    }

    /// Predict only the rating.
    pub fn predict(&self, features: &FeatureVector) -> Rating {
        self.predict_with_support(features).0
    }

    /// Neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Training-set size.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff no training points (cannot happen post-fit; for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
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

    fn clustered_dataset() -> Vec<(FeatureVector, Rating)> {
        let mut data = Vec::new();
        // Cluster A near (0,0): rating 1. Cluster B near (10,10): rating 5.
        for i in 0..30 {
            let e = i as f64 * 0.01;
            data.push((fv(e, -e), Rating::new(1.0)));
            data.push((fv(10.0 + e, 10.0 - e), Rating::new(5.0)));
        }
        data
    }

    #[test]
    fn predicts_cluster_rating() {
        let model = KnnRegressor::fit(&clustered_dataset(), 5).unwrap();
        assert!(model.predict(&fv(0.1, 0.1)).abs_error(Rating::new(1.0)) < 0.01);
        assert!(model.predict(&fv(9.9, 9.9)).abs_error(Rating::new(5.0)) < 0.01);
    }

    #[test]
    fn midpoint_averages_clusters() {
        let model = KnnRegressor::fit(&clustered_dataset(), 60).unwrap();
        // With k = whole dataset, the prediction is the global mean 3.0.
        let p = model.predict(&fv(5.0, 5.0));
        assert!(p.abs_error(Rating::new(3.0)) < 0.01, "{p}");
    }

    #[test]
    fn support_distance_grows_off_manifold() {
        let model = KnnRegressor::fit(&clustered_dataset(), 5).unwrap();
        let (_, near_support) = model.predict_with_support(&fv(0.0, 0.0));
        let (_, far_support) = model.predict_with_support(&fv(500.0, -500.0));
        assert!(far_support > 10.0 * near_support.max(1e-6));
    }

    #[test]
    fn fit_requires_enough_examples() {
        let data = clustered_dataset();
        assert!(KnnRegressor::fit(&data[..3], 5).is_none());
        assert!(KnnRegressor::fit(&data, 0).is_none());
        assert!(KnnRegressor::fit(&data, data.len()).is_some());
    }

    #[test]
    fn k_one_memorizes() {
        let data = clustered_dataset();
        let model = KnnRegressor::fit(&data, 1).unwrap();
        for (f, y) in data.iter().take(10) {
            assert_eq!(model.predict(f).value(), y.value());
        }
    }
}
