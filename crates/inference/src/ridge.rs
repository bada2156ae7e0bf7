//! Closed-form ridge regression over [`FeatureVector`]s.
//!
//! With 13 features the normal equations `(XᵀX + λI) w = Xᵀy` are a
//! 14×14 system (intercept included) solved by Gaussian elimination with
//! partial pivoting — no iterative optimizer, no external linear-algebra
//! dependency, deterministic to the last bit.

use crate::features::{FeatureVector, FEATURE_COUNT};
use orsp_types::Rating;

const DIM: usize = FEATURE_COUNT + 1; // + intercept

/// Minimum training-set size for a regularized fit.
pub const MIN_EXAMPLES: usize = 10;

/// A trained ridge model.
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeRegressor {
    /// Weights; index 0 is the intercept.
    pub weights: [f64; DIM],
    /// Ridge penalty used at training.
    pub lambda: f64,
    /// Training-set size.
    pub trained_on: usize,
}

impl RidgeRegressor {
    /// Fit on (features, rating) pairs. Returns `None` when there are
    /// fewer than [`MIN_EXAMPLES`] examples — with a positive ridge
    /// penalty the normal equations are solvable below `DIM` examples,
    /// but a model trained on almost nothing should not ship.
    pub fn fit(examples: &[(FeatureVector, Rating)], lambda: f64) -> Option<RidgeRegressor> {
        if examples.len() < MIN_EXAMPLES || (lambda <= 0.0 && examples.len() < DIM) {
            return None;
        }
        // Build XᵀX (+ λI on non-intercept diagonal) and Xᵀy.
        let mut xtx = [[0.0f64; DIM]; DIM];
        let mut xty = [0.0f64; DIM];
        for (f, rating) in examples {
            let mut row = [0.0f64; DIM];
            row[0] = 1.0;
            row[1..].copy_from_slice(&f.values);
            for i in 0..DIM {
                xty[i] += row[i] * rating.value();
                for j in 0..DIM {
                    xtx[i][j] += row[i] * row[j];
                }
            }
        }
        for (i, row) in xtx.iter_mut().enumerate().skip(1) {
            row[i] += lambda;
        }
        let weights = solve(xtx, xty)?;
        Some(RidgeRegressor { weights, lambda, trained_on: examples.len() })
    }

    /// Predict a (clamped) rating.
    pub fn predict(&self, features: &FeatureVector) -> Rating {
        let mut y = self.weights[0];
        for (w, x) in self.weights[1..].iter().zip(features.values.iter()) {
            y += w * x;
        }
        Rating::new(y)
    }
}

/// Solve `A x = b` by Gaussian elimination with partial pivoting.
fn solve(mut a: [[f64; DIM]; DIM], mut b: [f64; DIM]) -> Option<[f64; DIM]> {
    for col in 0..DIM {
        // Pivot.
        let pivot = (col..DIM).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None; // singular
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..DIM {
            let factor = a[row][col] / a[col][col];
            for k in col..DIM {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back-substitute.
    let mut x = [0.0f64; DIM];
    for row in (0..DIM).rev() {
        let mut acc = b[row];
        for k in row + 1..DIM {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(values: [f64; FEATURE_COUNT]) -> FeatureVector {
        FeatureVector { values }
    }

    /// Synthetic linear data: rating = 1 + 2*f0 - 0.5*f1 (clamped).
    fn linear_dataset(n: usize) -> Vec<(FeatureVector, Rating)> {
        (0..n)
            .map(|i| {
                let f0 = (i % 10) as f64 / 10.0;
                let f1 = ((i / 10) % 10) as f64 / 10.0;
                let mut values = [0.0; FEATURE_COUNT];
                values[0] = f0;
                values[1] = f1;
                // Also vary an irrelevant column so XtX is nonsingular.
                values[2] = ((i * 7) % 13) as f64 / 13.0;
                (fv(values), Rating::new(1.0 + 2.0 * f0 - 0.5 * f1))
            })
            .collect()
    }

    #[test]
    fn recovers_linear_relationship() {
        let data = linear_dataset(200);
        let model = RidgeRegressor::fit(&data, 1e-6).unwrap();
        assert!((model.weights[0] - 1.0).abs() < 0.05, "intercept {}", model.weights[0]);
        assert!((model.weights[1] - 2.0).abs() < 0.05, "w0 {}", model.weights[1]);
        assert!((model.weights[2] + 0.5).abs() < 0.05, "w1 {}", model.weights[2]);
        // Irrelevant column ~0.
        assert!(model.weights[3].abs() < 0.05);
    }

    #[test]
    fn predictions_match_truth_in_sample() {
        let data = linear_dataset(200);
        let model = RidgeRegressor::fit(&data, 1e-6).unwrap();
        for (f, y) in data.iter().take(20) {
            assert!(model.predict(f).abs_error(*y) < 0.05);
        }
    }

    #[test]
    fn too_few_examples_returns_none() {
        let data = linear_dataset(5);
        assert!(RidgeRegressor::fit(&data, 0.1).is_none());
    }

    #[test]
    fn constant_features_are_singular_without_ridge() {
        // All-identical rows: XtX singular; ridge makes it solvable.
        let data: Vec<(FeatureVector, Rating)> =
            (0..50).map(|_| (fv([1.0; FEATURE_COUNT]), Rating::new(3.0))).collect();
        // Heavy ridge regularizes the degenerate directions.
        let model = RidgeRegressor::fit(&data, 1.0).unwrap();
        let pred = model.predict(&fv([1.0; FEATURE_COUNT]));
        assert!(pred.abs_error(Rating::new(3.0)) < 0.2, "pred {pred}");
    }

    #[test]
    fn stronger_lambda_shrinks_weights() {
        let data = linear_dataset(200);
        let light = RidgeRegressor::fit(&data, 1e-6).unwrap();
        let heavy = RidgeRegressor::fit(&data, 1_000.0).unwrap();
        let norm = |m: &RidgeRegressor| -> f64 {
            m.weights[1..].iter().map(|w| w * w).sum::<f64>().sqrt()
        };
        assert!(norm(&heavy) < norm(&light));
    }

    #[test]
    fn predictions_are_clamped() {
        let data = linear_dataset(200);
        let model = RidgeRegressor::fit(&data, 1e-6).unwrap();
        let mut extreme = [0.0; FEATURE_COUNT];
        extreme[0] = 1e9;
        let p = model.predict(&fv(extreme));
        assert!((0.0..=5.0).contains(&p.value()));
    }
}
