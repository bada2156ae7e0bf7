//! Location-sampling policies (§5, "Location tracking").
//!
//! Three strategies with very different energy profiles:
//!
//! * [`SamplingPolicy::PeriodicGps`] — the naive baseline: wake the GPS on
//!   a fixed interval regardless of what the user is doing;
//! * [`SamplingPolicy::AccelGated`] — the paper's suggestion: let the
//!   (nearly free) accelerometer detect stationarity; take a GPS fix only
//!   once the user *has been stationary for a few minutes*, then keep a
//!   slow confirmation cadence until movement resumes;
//! * [`SamplingPolicy::WifiAssisted`] — scan WiFi (cheap, coarser) on the
//!   confirmation cadence and reserve GPS for the first fix at each new
//!   stationary spot.

use orsp_types::SimDuration;

/// A location-sampling strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingPolicy {
    /// Fixed-interval GPS, always on.
    PeriodicGps {
        /// Time between fixes.
        interval: SimDuration,
    },
    /// Accelerometer-gated GPS.
    AccelGated {
        /// How long the user must be stationary before the first fix.
        settle: SimDuration,
        /// Confirmation cadence while stationary.
        idle_interval: SimDuration,
    },
    /// Accelerometer-gated, WiFi for confirmations, GPS only for the
    /// first fix per stationary spot.
    WifiAssisted {
        /// How long the user must be stationary before the first fix.
        settle: SimDuration,
        /// Confirmation cadence while stationary (WiFi scans).
        idle_interval: SimDuration,
    },
}

impl SamplingPolicy {
    /// The naive baseline at a 1-minute cadence.
    pub fn naive_fast() -> Self {
        SamplingPolicy::PeriodicGps { interval: SimDuration::minutes(1) }
    }

    /// The naive baseline at a 10-minute cadence.
    pub fn naive_slow() -> Self {
        SamplingPolicy::PeriodicGps { interval: SimDuration::minutes(10) }
    }

    /// The paper's accelerometer-gated policy with sensible defaults.
    pub fn accel_gated() -> Self {
        SamplingPolicy::AccelGated {
            settle: SimDuration::minutes(3),
            idle_interval: SimDuration::minutes(10),
        }
    }

    /// The WiFi-assisted variant.
    pub fn wifi_assisted() -> Self {
        SamplingPolicy::WifiAssisted {
            settle: SimDuration::minutes(3),
            idle_interval: SimDuration::minutes(10),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            SamplingPolicy::PeriodicGps { interval } => {
                format!("periodic-gps/{interval}")
            }
            SamplingPolicy::AccelGated { .. } => "accel-gated".into(),
            SamplingPolicy::WifiAssisted { .. } => "wifi-assisted".into(),
        }
    }

    /// Whether this policy keeps the accelerometer monitoring on (for
    /// energy accounting).
    pub fn uses_accelerometer(&self) -> bool {
        !matches!(self, SamplingPolicy::PeriodicGps { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            SamplingPolicy::naive_fast(),
            SamplingPolicy::naive_slow(),
            SamplingPolicy::accel_gated(),
            SamplingPolicy::wifi_assisted(),
        ]
        .iter()
        .map(|p| p.label())
        .collect();
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn accelerometer_usage() {
        assert!(!SamplingPolicy::naive_fast().uses_accelerometer());
        assert!(SamplingPolicy::accel_gated().uses_accelerometer());
        assert!(SamplingPolicy::wifi_assisted().uses_accelerometer());
    }
}
