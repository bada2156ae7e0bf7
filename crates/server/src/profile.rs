//! The typical-user profile (§4.3).
//!
//! *"since the history of interactions for every (user, entity) pair is
//! stored on an RSP's servers, it can merge these individual histories to
//! generate a profile of the typical user. For example, an RSP ... can use
//! its knowledge of the observed distribution of gaps between interactions
//! with the same provider to detect fraud when a user's frequency of
//! interaction is significantly greater than is typical."*
//!
//! A [`CategoryProfile`] holds empirical quantiles of three per-history
//! statistics: the minimum gap between interactions, the median
//! interaction duration, and the interaction count. Profiles are built per
//! entity category because cadence differs wildly (a dentist twice a year,
//! a restaurant weekly).

use crate::store::HistoryStore;
use orsp_types::{Category, EntityId, InteractionHistory};
use std::collections::HashMap;

/// Empirical quantiles of one statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// 1st percentile.
    pub p01: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Quantiles {
    /// Compute from samples; `None` if fewer than 5 samples (too little
    /// data to call anything atypical).
    pub fn from_samples(mut samples: Vec<f64>) -> Option<Quantiles> {
        if samples.len() < 5 {
            return None;
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let at = |q: f64| {
            let idx = (q * (samples.len() - 1) as f64).round() as usize;
            samples[idx]
        };
        Some(Quantiles { p01: at(0.01), p05: at(0.05), p50: at(0.50), p95: at(0.95), p99: at(0.99) })
    }

    /// Where a value sits relative to the bulk: 0 inside `[p05, p95]`,
    /// growing toward 1 as it passes p01/p99.
    pub fn outlier_score(&self, value: f64) -> f64 {
        if value >= self.p05 && value <= self.p95 {
            0.0
        } else if value < self.p05 {
            let span = (self.p05 - self.p01).max(1e-9);
            ((self.p05 - value) / span).min(1.0)
        } else {
            let span = (self.p99 - self.p95).max(1e-9);
            ((value - self.p95) / span).min(1.0)
        }
    }
}

/// Per-history summary statistics the profile is built over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryStats {
    /// Minimum gap between consecutive interactions, in days (`f64::MAX`
    /// when fewer than 2 interactions).
    pub min_gap_days: f64,
    /// Median interaction duration, minutes.
    pub median_duration_min: f64,
    /// Number of interactions.
    pub count: f64,
    /// Fraction of days in the history span with at least one interaction
    /// (1.0 for single-interaction histories). Near-daily presence is the
    /// employee signature.
    pub active_day_fraction: f64,
}

impl HistoryStats {
    /// Compute the summary for one history.
    pub fn of(history: &InteractionHistory) -> HistoryStats {
        let gaps = history.gaps();
        let min_gap_days = gaps
            .iter()
            .map(|g| g.as_days_f64())
            .fold(f64::MAX, f64::min);
        let mut durations: Vec<f64> =
            history.iter().map(|r| r.duration.as_minutes_f64()).collect();
        durations.sort_by(|a, b| a.total_cmp(b));
        let median_duration_min =
            durations.get(durations.len() / 2).copied().unwrap_or(0.0);
        let span_days = history.span().as_days_f64().max(1.0);
        let active_days: std::collections::HashSet<i64> =
            history.iter().map(|r| r.start.day_index()).collect();
        HistoryStats {
            min_gap_days,
            median_duration_min,
            count: history.len() as f64,
            active_day_fraction: (active_days.len() as f64 / span_days).min(1.0),
        }
    }
}

/// The typical-user profile for one category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryProfile {
    /// Quantiles of per-history minimum gaps (days).
    pub min_gap_days: Quantiles,
    /// Quantiles of per-history median durations (minutes).
    pub duration_min: Quantiles,
    /// Quantiles of per-history interaction counts.
    pub count: Quantiles,
    /// Quantiles of active-day fractions.
    pub active_day_fraction: Quantiles,
    /// Histories the profile was built from.
    pub support: usize,
}

/// Builds typical-user profiles from the store.
pub struct ProfileBuilder<'a> {
    /// Category of each entity (the server's own listing data).
    pub entity_categories: &'a HashMap<EntityId, Category>,
}

impl<'a> ProfileBuilder<'a> {
    /// Build profiles for every category with enough support.
    pub fn build(&self, store: &HistoryStore) -> HashMap<Category, CategoryProfile> {
        let mut samples: HashMap<Category, Vec<HistoryStats>> = HashMap::new();
        for (_, stored) in store.iter() {
            let Some(&cat) = self.entity_categories.get(&stored.entity) else { continue };
            // Single-interaction histories say nothing about cadence.
            if stored.history.len() < 2 {
                continue;
            }
            samples.entry(cat).or_default().push(HistoryStats::of(&stored.history));
        }
        samples
            .into_iter()
            .filter_map(|(cat, stats)| {
                let support = stats.len();
                let q = |f: fn(&HistoryStats) -> f64| {
                    Quantiles::from_samples(stats.iter().map(f).collect())
                };
                Some((
                    cat,
                    CategoryProfile {
                        min_gap_days: q(|s| s.min_gap_days)?,
                        duration_min: q(|s| s.median_duration_min)?,
                        count: q(|s| s.count)?,
                        active_day_fraction: q(|s| s.active_day_fraction)?,
                        support,
                    },
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::{Interaction, InteractionKind, SimDuration, Timestamp};

    fn history(starts_days: &[i64], dur_min: i64) -> InteractionHistory {
        InteractionHistory::from_records(
            starts_days
                .iter()
                .map(|&d| {
                    Interaction::solo(
                        InteractionKind::Visit,
                        Timestamp::from_seconds(d * 86_400),
                        SimDuration::minutes(dur_min),
                        100.0,
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn quantiles_of_uniform_samples() {
        let q = Quantiles::from_samples((0..=100).map(|i| i as f64).collect()).unwrap();
        assert_eq!(q.p50, 50.0);
        assert_eq!(q.p05, 5.0);
        assert_eq!(q.p95, 95.0);
    }

    #[test]
    fn too_few_samples_yield_none() {
        assert!(Quantiles::from_samples(vec![1.0, 2.0]).is_none());
        assert!(Quantiles::from_samples(vec![]).is_none());
    }

    #[test]
    fn outlier_score_zero_in_bulk() {
        let q = Quantiles::from_samples((0..=100).map(|i| i as f64).collect()).unwrap();
        assert_eq!(q.outlier_score(50.0), 0.0);
        assert_eq!(q.outlier_score(5.0), 0.0);
        assert_eq!(q.outlier_score(95.0), 0.0);
        assert!(q.outlier_score(0.5) > 0.5, "below p01-ish");
        assert!(q.outlier_score(100.0) >= 1.0);
        assert!(q.outlier_score(-50.0) >= 1.0);
    }

    #[test]
    fn history_stats_basics() {
        let h = history(&[0, 30, 60, 90], 45);
        let s = HistoryStats::of(&h);
        assert!((s.min_gap_days - 30.0).abs() < 0.01);
        assert!((s.median_duration_min - 45.0).abs() < 0.01);
        assert_eq!(s.count, 4.0);
        assert!(s.active_day_fraction < 0.1);
    }

    #[test]
    fn daily_presence_has_high_active_fraction() {
        let days: Vec<i64> = (0..30).collect();
        let s = HistoryStats::of(&history(&days, 480));
        assert!(s.active_day_fraction > 0.9, "fraction {}", s.active_day_fraction);
        assert!((s.min_gap_days - 1.0).abs() < 0.01);
    }

    #[test]
    fn profile_built_per_category() {
        let mut store = HistoryStore::new();
        let mut cats = HashMap::new();
        // 10 normal dentist-style histories on entity 1.
        cats.insert(EntityId::new(1), Category::Doctor(orsp_types::Specialty::Dentist));
        for i in 0..10u8 {
            let h = history(&[i as i64, 180 + i as i64, 360 + i as i64], 45);
            for r in h.iter() {
                store
                    .append(orsp_types::RecordId::from_bytes([i; 32]), EntityId::new(1), *r)
                    .unwrap();
            }
        }
        let builder = ProfileBuilder { entity_categories: &cats };
        let profiles = builder.build(&store);
        let p = profiles
            .get(&Category::Doctor(orsp_types::Specialty::Dentist))
            .expect("dentist profile");
        assert_eq!(p.support, 10);
        assert!(p.min_gap_days.p50 > 100.0, "typical dentist gap is months");
    }

    #[test]
    fn single_interaction_histories_excluded() {
        let mut store = HistoryStore::new();
        let mut cats = HashMap::new();
        cats.insert(EntityId::new(1), Category::Restaurant(orsp_types::Cuisine::Thai));
        for i in 0..10u8 {
            store
                .append(
                    orsp_types::RecordId::from_bytes([i; 32]),
                    EntityId::new(1),
                    Interaction::solo(
                        InteractionKind::Visit,
                        Timestamp::EPOCH,
                        SimDuration::minutes(30),
                        10.0,
                    ),
                )
                .unwrap();
        }
        let builder = ProfileBuilder { entity_categories: &cats };
        assert!(builder.build(&store).is_empty(), "no multi-interaction support");
    }
}
