//! The fraud detector (§4.3).
//!
//! Verifies "whether the user's engagement with that entity reflects that
//! of a typical user": each stored history is scored against its
//! category's [`CategoryProfile`] on four axes —
//!
//! * **gap** — calls/visits "appropriately spaced apart": a minimum gap
//!   far below the typical p05 (back-to-back call spam) scores high;
//! * **duration** — "of reasonable duration": second-long hang-up calls or
//!   8-hour daily "visits" sit outside the typical duration band;
//! * **count** — interaction counts beyond the typical p99;
//! * **presence** — near-daily activity at one entity over a long span
//!   (the restaurant-employee signature).
//!
//! Histories scoring above a threshold are discarded. The paper is
//! explicit that this "will not completely eliminate fake recommendations"
//! — the experiments measure both the detection rate and what slips
//! through ("such an interaction history will have limited influence").

use crate::profile::{CategoryProfile, HistoryStats};
use crate::store::HistoryStore;
use orsp_types::{Category, EntityId, RecordId};
use std::collections::HashMap;

/// Verdict on one history.
#[derive(Debug, Clone, PartialEq)]
pub struct FraudVerdict {
    /// Combined anomaly score in `[0, 1]`.
    pub score: f64,
    /// Per-axis contributions, for explainability: (axis, score).
    pub reasons: Vec<(&'static str, f64)>,
}

impl FraudVerdict {
    /// Whether the history should be discarded at a given threshold.
    pub fn is_fraudulent(&self, threshold: f64) -> bool {
        self.score >= threshold
    }
}

/// The detector.
#[derive(Debug, Clone)]
pub struct FraudDetector {
    /// Typical-user profiles per category.
    pub profiles: HashMap<Category, CategoryProfile>,
    /// Discard threshold on the combined score.
    pub threshold: f64,
}

impl FraudDetector {
    /// A detector from profiles with the default threshold.
    pub fn new(profiles: HashMap<Category, CategoryProfile>) -> Self {
        FraudDetector { profiles, threshold: 0.75 }
    }

    /// Score one history against its category profile. Histories in
    /// categories without a profile, or with a single interaction, score
    /// 0 — the paper: "it is hard to evaluate whether the interactions
    /// ... are fake if the number of interactions is small, [but] such an
    /// interaction history will have limited influence".
    pub fn score(&self, category: Category, stats: &HistoryStats) -> FraudVerdict {
        let Some(profile) = self.profiles.get(&category) else {
            return FraudVerdict { score: 0.0, reasons: Vec::new() };
        };
        if stats.count < 2.0 {
            return FraudVerdict { score: 0.0, reasons: Vec::new() };
        }

        let mut reasons = Vec::new();
        // Gap: only *too small* is suspicious (slow users are just rare).
        let gap_score = if stats.min_gap_days < profile.min_gap_days.p05 {
            profile.min_gap_days.outlier_score(stats.min_gap_days)
        } else {
            0.0
        };
        reasons.push(("gap", gap_score));

        // Duration: both directions are suspicious (hang-up calls, all-day
        // presence).
        let duration_score = profile.duration_min.outlier_score(stats.median_duration_min);
        reasons.push(("duration", duration_score));

        // Count: only *too many*.
        let count_score = if stats.count > profile.count.p95 {
            profile.count.outlier_score(stats.count)
        } else {
            0.0
        };
        reasons.push(("count", count_score));

        // Presence: near-daily activity far beyond the typical fraction.
        let presence_score = if stats.active_day_fraction > profile.active_day_fraction.p95 {
            profile.active_day_fraction.outlier_score(stats.active_day_fraction)
        } else {
            0.0
        };
        reasons.push(("presence", presence_score));

        // Combine: the two strongest axes, averaged — one wild axis alone
        // can be bad luck; two independent anomalies rarely are.
        let mut scores: Vec<f64> = reasons.iter().map(|(_, s)| *s).collect();
        scores.sort_by(|a, b| b.total_cmp(a));
        let score = ((scores[0] + scores[1]) / 2.0).min(1.0);
        FraudVerdict { score, reasons }
    }

    /// Sweep the store: return the record ids whose histories exceed the
    /// threshold.
    pub fn sweep(
        &self,
        store: &HistoryStore,
        entity_categories: &HashMap<EntityId, Category>,
    ) -> Vec<RecordId> {
        let mut flagged = Vec::new();
        for (id, stored) in store.iter() {
            let Some(&cat) = entity_categories.get(&stored.entity) else { continue };
            let stats = HistoryStats::of(&stored.history);
            if self.score(cat, &stats).is_fraudulent(self.threshold) {
                flagged.push(*id);
            }
        }
        flagged.sort();
        flagged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Quantiles;
    use orsp_types::Trade;

    fn electrician_profile() -> CategoryProfile {
        // Typical electrician histories: gaps of 30–400 days, calls of
        // 3–15 minutes, 2–6 interactions, sparse active days.
        CategoryProfile {
            min_gap_days: Quantiles { p01: 12.0, p05: 25.0, p50: 90.0, p95: 400.0, p99: 600.0 },
            duration_min: Quantiles { p01: 1.5, p05: 3.0, p50: 7.0, p95: 15.0, p99: 25.0 },
            count: Quantiles { p01: 2.0, p05: 2.0, p50: 3.0, p95: 6.0, p99: 9.0 },
            active_day_fraction: Quantiles {
                p01: 0.001,
                p05: 0.004,
                p50: 0.02,
                p95: 0.08,
                p99: 0.15,
            },
            support: 100,
        }
    }

    fn detector() -> FraudDetector {
        let mut profiles = HashMap::new();
        profiles.insert(Category::ServiceProvider(Trade::Electrician), electrician_profile());
        FraudDetector::new(profiles)
    }

    #[test]
    fn typical_history_scores_low() {
        let d = detector();
        let stats = HistoryStats {
            min_gap_days: 60.0,
            median_duration_min: 8.0,
            count: 3.0,
            active_day_fraction: 0.02,
        };
        let v = d.score(Category::ServiceProvider(Trade::Electrician), &stats);
        assert!(v.score < 0.1, "score {}", v.score);
        assert!(!v.is_fraudulent(0.75));
    }

    #[test]
    fn call_spam_scores_high() {
        // Back-to-back hang-up calls: minute-scale gaps, second-scale
        // durations, large count.
        let d = detector();
        let stats = HistoryStats {
            min_gap_days: 0.002,
            median_duration_min: 0.1,
            count: 25.0,
            active_day_fraction: 0.9,
        };
        let v = d.score(Category::ServiceProvider(Trade::Electrician), &stats);
        assert!(v.score > 0.9, "score {}", v.score);
        assert!(v.is_fraudulent(0.75));
        let gap = v.reasons.iter().find(|(n, _)| *n == "gap").unwrap().1;
        assert!(gap > 0.9);
    }

    #[test]
    fn unknown_category_scores_zero() {
        let d = detector();
        let stats = HistoryStats {
            min_gap_days: 0.001,
            median_duration_min: 0.1,
            count: 100.0,
            active_day_fraction: 1.0,
        };
        let v = d.score(Category::Restaurant(orsp_types::Cuisine::Thai), &stats);
        assert_eq!(v.score, 0.0);
    }

    #[test]
    fn single_interaction_scores_zero() {
        let d = detector();
        let stats = HistoryStats {
            min_gap_days: f64::MAX,
            median_duration_min: 0.05,
            count: 1.0,
            active_day_fraction: 1.0,
        };
        let v = d.score(Category::ServiceProvider(Trade::Electrician), &stats);
        assert_eq!(v.score, 0.0, "one interaction has limited influence anyway");
    }

    #[test]
    fn one_mild_anomaly_is_not_fraud() {
        // A slightly unusual duration alone must not trip the filter —
        // combining two axes protects honest outliers.
        let d = detector();
        let stats = HistoryStats {
            min_gap_days: 60.0,
            median_duration_min: 20.0, // above p95 but below p99
            count: 3.0,
            active_day_fraction: 0.02,
        };
        let v = d.score(Category::ServiceProvider(Trade::Electrician), &stats);
        assert!(!v.is_fraudulent(0.75), "score {}", v.score);
    }

    #[test]
    fn sweep_flags_only_bad_records() {
        use orsp_types::{Interaction, InteractionKind, SimDuration, Timestamp};
        let mut store = HistoryStore::new();
        let entity = EntityId::new(1);
        let mut cats = HashMap::new();
        cats.insert(entity, Category::ServiceProvider(Trade::Electrician));

        // Honest record: three calls, months apart, minutes long.
        for (i, day) in [0i64, 90, 200].iter().enumerate() {
            store
                .append(
                    RecordId::from_bytes([1; 32]),
                    entity,
                    Interaction::solo(
                        InteractionKind::PhoneCall,
                        Timestamp::from_seconds(day * 86_400 + i as i64),
                        SimDuration::minutes(8),
                        0.0,
                    ),
                )
                .unwrap();
        }
        // Spam record: 20 calls, 2 minutes apart, 5 seconds long.
        for i in 0..20i64 {
            store
                .append(
                    RecordId::from_bytes([2; 32]),
                    entity,
                    Interaction::solo(
                        InteractionKind::PhoneCall,
                        Timestamp::from_seconds(i * 120),
                        SimDuration::seconds(5),
                        0.0,
                    ),
                )
                .unwrap();
        }
        let flagged = detector().sweep(&store, &cats);
        assert_eq!(flagged, vec![RecordId::from_bytes([2; 32])]);
    }
}
