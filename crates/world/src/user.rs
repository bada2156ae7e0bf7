//! Users: residents of the simulated city.

use crate::persona::Persona;
use orsp_types::{DeviceId, GeoPoint, UserId};

/// A user of the recommendation service.
#[derive(Debug, Clone, PartialEq)]
pub struct User {
    /// Unique id.
    pub id: UserId,
    /// The phone they carry (one device per user in this simulation; the
    /// privacy design keys secrets to the device).
    pub device: DeviceId,
    /// Home location — the default "previous stationary spot" for effort
    /// measurement.
    pub home: GeoPoint,
    /// Work location; users split their anchor time between home and work.
    pub work: GeoPoint,
    /// The zipcode the user lives in.
    pub zipcode: u32,
    /// Behavioural traits.
    pub persona: Persona,
}

impl User {
    /// The user's anchor point at a given fraction of the day:
    /// workdays ~9–17h are anchored at work, otherwise home.
    pub fn anchor_at(&self, hour_of_day: f64, is_weekend: bool) -> GeoPoint {
        if !is_weekend && (9.0..17.0).contains(&hour_of_day) {
            self.work
        } else {
            self.home
        }
    }

    /// Distance from the relevant anchor to a target — the "distance
    /// travelled since previous stationary spot" effort feature.
    pub fn travel_distance_to(&self, target: &GeoPoint, hour_of_day: f64, is_weekend: bool) -> f64 {
        self.anchor_at(hour_of_day, is_weekend).distance_to(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::ReviewerClass;

    fn user() -> User {
        User {
            id: UserId::new(1),
            device: DeviceId::new(1),
            home: GeoPoint::new(0.0, 0.0),
            work: GeoPoint::new(5_000.0, 0.0),
            zipcode: 11111,
            persona: Persona {
                reviewer: ReviewerClass::Silent,
                explorer: 0.2,
                outings_per_week: 1.0,
                travel_tolerance_m: 2_000.0,
                dietary_restricted: false,
                gregariousness: 0.5,
                quality_weight: 1.0,
                service_needs_per_year: 1.0,
            },
        }
    }

    #[test]
    fn weekday_office_hours_anchor_at_work() {
        let u = user();
        assert_eq!(u.anchor_at(12.0, false), u.work);
        assert_eq!(u.anchor_at(8.0, false), u.home);
        assert_eq!(u.anchor_at(18.0, false), u.home);
        assert_eq!(u.anchor_at(12.0, true), u.home, "weekend midday is home");
    }

    #[test]
    fn travel_distance_uses_correct_anchor() {
        let u = user();
        let target = GeoPoint::new(6_000.0, 0.0);
        // From work (weekday noon): 1 km; from home (evening): 6 km.
        assert!((u.travel_distance_to(&target, 12.0, false) - 1_000.0).abs() < 1e-9);
        assert!((u.travel_distance_to(&target, 20.0, false) - 6_000.0).abs() < 1e-9);
    }
}
