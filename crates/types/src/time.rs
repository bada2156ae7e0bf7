//! Simulated time.
//!
//! All of `orsp` runs against a simulated clock: a [`Timestamp`] is a number
//! of seconds since the simulation epoch, and a [`SimDuration`] is a signed
//! span of seconds. Library code never reads the wall clock — this is what
//! makes every experiment in the repository reproducible bit-for-bit.
//!
//! The paper's domains operate on very long horizons ("to infer
//! recommendations of rarely used service providers such as dentists and
//! plumbers", histories "span several years" — §4.2), so the representation
//! comfortably covers multi-decade simulations at second resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A span of simulated time, in seconds. May be negative (the difference of
/// two timestamps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(i64);

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One second.
    pub const SECOND: SimDuration = SimDuration(1);
    /// One minute.
    pub const MINUTE: SimDuration = SimDuration(60);
    /// One hour.
    pub const HOUR: SimDuration = SimDuration(3_600);
    /// One day.
    pub const DAY: SimDuration = SimDuration(86_400);
    /// One (7-day) week.
    pub const WEEK: SimDuration = SimDuration(7 * 86_400);
    /// A 365-day year.
    pub const YEAR: SimDuration = SimDuration(365 * 86_400);

    /// A span of `n` seconds.
    pub const fn seconds(n: i64) -> Self {
        SimDuration(n)
    }

    /// A span of `n` minutes.
    pub const fn minutes(n: i64) -> Self {
        SimDuration(n * 60)
    }

    /// A span of `n` hours.
    pub const fn hours(n: i64) -> Self {
        SimDuration(n * 3_600)
    }

    /// A span of `n` days.
    pub const fn days(n: i64) -> Self {
        SimDuration(n * 86_400)
    }

    /// A span of `n` weeks.
    pub const fn weeks(n: i64) -> Self {
        SimDuration(n * 7 * 86_400)
    }

    /// The span as whole seconds.
    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// The span as fractional minutes.
    pub fn as_minutes_f64(self) -> f64 {
        self.0 as f64 / 60.0
    }

    /// The span as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600.0
    }

    /// The span as fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// Absolute value of the span.
    pub const fn abs(self) -> Self {
        SimDuration(self.0.abs())
    }

    /// True iff the span is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Build from a fractional number of seconds, rounding to nearest.
    pub fn from_seconds_f64(secs: f64) -> Self {
        SimDuration(secs.round() as i64)
    }

    /// Clamp the span into `[lo, hi]`.
    pub fn clamp(self, lo: SimDuration, hi: SimDuration) -> Self {
        SimDuration(self.0.clamp(lo.0, hi.0))
    }

    /// Saturating multiplication by an integer factor.
    pub const fn saturating_mul(self, factor: i64) -> Self {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0;
        let sign = if total < 0 { "-" } else { "" };
        let mut s = total.unsigned_abs();
        let days = s / 86_400;
        s %= 86_400;
        let hours = s / 3_600;
        s %= 3_600;
        let mins = s / 60;
        let secs = s % 60;
        if days > 0 {
            write!(f, "{sign}{days}d{hours:02}h{mins:02}m{secs:02}s")
        } else if hours > 0 {
            write!(f, "{sign}{hours}h{mins:02}m{secs:02}s")
        } else if mins > 0 {
            write!(f, "{sign}{mins}m{secs:02}s")
        } else {
            write!(f, "{sign}{secs}s")
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Neg for SimDuration {
    type Output = SimDuration;
    fn neg(self) -> SimDuration {
        SimDuration(-self.0)
    }
}

impl Mul<i64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs).round() as i64)
    }
}

impl Div<i64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

/// An instant of simulated time: seconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// The simulation epoch (t = 0).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Construct from seconds since the epoch.
    pub const fn from_seconds(secs: i64) -> Self {
        Timestamp(secs)
    }

    /// Seconds since the epoch.
    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// The span since an earlier instant (negative if `earlier` is later).
    pub const fn since(self, earlier: Timestamp) -> SimDuration {
        SimDuration::seconds(self.0 - earlier.0)
    }

    /// Number of whole simulated days since the epoch (can be negative).
    pub const fn day_index(self) -> i64 {
        self.0.div_euclid(86_400)
    }

    /// Seconds elapsed within the current simulated day, in `[0, 86400)`.
    pub const fn second_of_day(self) -> i64 {
        self.0.rem_euclid(86_400)
    }

    /// Fractional hour of the simulated day, in `[0, 24)`.
    pub fn hour_of_day(self) -> f64 {
        self.second_of_day() as f64 / 3_600.0
    }

    /// Day of the simulated week in `[0, 7)`; the epoch falls on day 0.
    pub const fn day_of_week(self) -> i64 {
        self.day_index().rem_euclid(7)
    }

    /// True iff the instant falls on day 5 or 6 of the simulated week.
    pub const fn is_weekend(self) -> bool {
        self.day_of_week() >= 5
    }

    /// The earlier of two instants.
    pub fn min(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0.min(other.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0.max(other.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_index();
        let s = self.second_of_day();
        write!(f, "T{}+{:02}:{:02}:{:02}", day, s / 3_600, (s % 3_600) / 60, s % 60)
    }
}

impl Add<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0 + rhs.as_seconds())
    }
}

impl Sub<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0 - rhs.as_seconds())
    }
}

impl Sub for Timestamp {
    type Output = SimDuration;
    fn sub(self, rhs: Timestamp) -> SimDuration {
        self.since(rhs)
    }
}

impl AddAssign<SimDuration> for Timestamp {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_seconds();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn duration_constants_are_consistent() {
        assert_eq!(SimDuration::MINUTE, SimDuration::seconds(60));
        assert_eq!(SimDuration::HOUR, SimDuration::minutes(60));
        assert_eq!(SimDuration::DAY, SimDuration::hours(24));
        assert_eq!(SimDuration::WEEK, SimDuration::days(7));
        assert_eq!(SimDuration::YEAR, SimDuration::days(365));
    }

    #[test]
    fn duration_conversions() {
        let d = SimDuration::hours(2);
        assert_eq!(d.as_seconds(), 7_200);
        assert!((d.as_minutes_f64() - 120.0).abs() < 1e-12);
        assert!((d.as_hours_f64() - 2.0).abs() < 1e-12);
        assert!((SimDuration::days(3).as_days_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn duration_display_formats() {
        assert_eq!(SimDuration::seconds(42).to_string(), "42s");
        assert_eq!(SimDuration::minutes(3).to_string(), "3m00s");
        assert_eq!(SimDuration::hours(1).to_string(), "1h00m00s");
        assert_eq!(
            (SimDuration::days(2) + SimDuration::hours(3) + SimDuration::seconds(5)).to_string(),
            "2d03h00m05s"
        );
        assert_eq!(SimDuration::seconds(-90).to_string(), "-1m30s");
    }

    #[test]
    fn timestamp_day_arithmetic() {
        let t = Timestamp::from_seconds(3 * 86_400 + 3_600 * 5 + 61);
        assert_eq!(t.day_index(), 3);
        assert_eq!(t.second_of_day(), 5 * 3_600 + 61);
        assert!((t.hour_of_day() - (5.0 + 61.0 / 3600.0)).abs() < 1e-9);
    }

    #[test]
    fn timestamp_negative_seconds_use_euclidean_days() {
        let t = Timestamp::from_seconds(-1);
        assert_eq!(t.day_index(), -1);
        assert_eq!(t.second_of_day(), 86_399);
    }

    #[test]
    fn weekend_detection() {
        assert!(!Timestamp::EPOCH.is_weekend());
        let sat = Timestamp::EPOCH + SimDuration::days(5);
        let sun = Timestamp::EPOCH + SimDuration::days(6);
        let mon = Timestamp::EPOCH + SimDuration::days(7);
        assert!(sat.is_weekend());
        assert!(sun.is_weekend());
        assert!(!mon.is_weekend());
    }

    #[test]
    fn since_and_sub_agree() {
        let a = Timestamp::from_seconds(100);
        let b = Timestamp::from_seconds(40);
        assert_eq!(a.since(b), SimDuration::seconds(60));
        assert_eq!(a - b, SimDuration::seconds(60));
        assert_eq!(b - a, SimDuration::seconds(-60));
        assert!((b - a).is_negative());
    }

    #[test]
    fn display_timestamp() {
        let t = Timestamp::from_seconds(86_400 + 3_600 + 62);
        assert_eq!(t.to_string(), "T1+01:01:02");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration =
            [SimDuration::MINUTE, SimDuration::HOUR, SimDuration::seconds(1)]
                .into_iter()
                .sum();
        assert_eq!(total.as_seconds(), 3_661);
    }

    proptest! {
        #[test]
        fn add_then_sub_round_trips(base in -1_000_000_000i64..1_000_000_000, span in -1_000_000i64..1_000_000) {
            let t = Timestamp::from_seconds(base);
            let d = SimDuration::seconds(span);
            prop_assert_eq!((t + d) - d, t);
            prop_assert_eq!((t + d) - t, d);
        }

        #[test]
        fn second_of_day_is_bounded(secs in -10_000_000i64..10_000_000) {
            let t = Timestamp::from_seconds(secs);
            prop_assert!((0..86_400).contains(&t.second_of_day()));
            prop_assert!((0..7).contains(&t.day_of_week()));
        }

        #[test]
        fn duration_abs_is_nonnegative(span in -1_000_000i64..1_000_000) {
            prop_assert!(!SimDuration::seconds(span).abs().is_negative());
        }
    }
}
