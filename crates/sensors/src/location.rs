//! Location fixes: what positioning hardware reports.

use orsp_types::{GeoPoint, Timestamp};

/// Which subsystem produced a fix (drives accuracy and energy cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixSource {
    /// GPS: accurate (~10 m), expensive.
    Gps,
    /// WiFi positioning: moderate (~40 m), cheap.
    Wifi,
    /// Cell-tower positioning: coarse (~400 m), nearly free.
    Cell,
}

impl FixSource {
    /// 1-sigma positioning error, meters.
    pub const fn accuracy_m(self) -> f64 {
        match self {
            FixSource::Gps => 10.0,
            FixSource::Wifi => 40.0,
            FixSource::Cell => 400.0,
        }
    }
}

/// One location fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationFix {
    /// When the fix was taken.
    pub time: Timestamp,
    /// The reported position (truth + noise).
    pub point: GeoPoint,
    /// What produced it.
    pub source: FixSource,
}

impl LocationFix {
    /// True iff two fixes plausibly describe the same place, given their
    /// combined accuracy.
    pub fn same_place(&self, other: &LocationFix, slack: f64) -> bool {
        let tolerance = self.source.accuracy_m() + other.source.accuracy_m() + slack;
        self.point.distance_to(&other.point) <= tolerance * 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_ordering() {
        assert!(FixSource::Gps.accuracy_m() < FixSource::Wifi.accuracy_m());
        assert!(FixSource::Wifi.accuracy_m() < FixSource::Cell.accuracy_m());
    }

    #[test]
    fn same_place_respects_accuracy() {
        let a = LocationFix {
            time: Timestamp::EPOCH,
            point: GeoPoint::new(0.0, 0.0),
            source: FixSource::Gps,
        };
        let near = LocationFix {
            time: Timestamp::EPOCH,
            point: GeoPoint::new(50.0, 0.0),
            source: FixSource::Gps,
        };
        let far = LocationFix {
            time: Timestamp::EPOCH,
            point: GeoPoint::new(5_000.0, 0.0),
            source: FixSource::Gps,
        };
        assert!(a.same_place(&near, 0.0));
        assert!(!a.same_place(&far, 0.0));
        // Two cell fixes tolerate much more spread.
        let cell_a = LocationFix { source: FixSource::Cell, ..a };
        let cell_b = LocationFix { source: FixSource::Cell, ..far };
        assert!(!cell_a.same_place(&cell_b, 0.0));
        let cell_c = LocationFix {
            source: FixSource::Cell,
            point: GeoPoint::new(2_000.0, 0.0),
            time: Timestamp::EPOCH,
        };
        assert!(cell_a.same_place(&cell_c, 0.0));
    }
}
