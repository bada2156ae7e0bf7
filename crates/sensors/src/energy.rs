//! Energy accounting for location sampling.
//!
//! Costs are in millijoules, drawn from the energy-profiling literature the
//! paper cites (GPS is ~an order of magnitude more expensive than a WiFi
//! scan, which is more expensive than cell lookup; continuous accelerometer
//! monitoring is nearly free per unit time).

use crate::location::FixSource;
use orsp_types::SimDuration;

/// Per-operation energy costs, millijoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One GPS fix (including receiver warm-up amortization).
    pub gps_fix_mj: f64,
    /// One WiFi positioning scan.
    pub wifi_scan_mj: f64,
    /// One cell-tower lookup.
    pub cell_lookup_mj: f64,
    /// Continuous accelerometer monitoring, per hour.
    pub accel_per_hour_mj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            gps_fix_mj: 1_400.0,
            wifi_scan_mj: 350.0,
            cell_lookup_mj: 30.0,
            accel_per_hour_mj: 40.0,
        }
    }
}

impl EnergyModel {
    /// Cost of one fix from a given source.
    pub fn fix_cost(&self, source: FixSource) -> f64 {
        match source {
            FixSource::Gps => self.gps_fix_mj,
            FixSource::Wifi => self.wifi_scan_mj,
            FixSource::Cell => self.cell_lookup_mj,
        }
    }
}

/// Accumulated energy usage for one rendered trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Number of GPS fixes taken.
    pub gps_fixes: u64,
    /// Number of WiFi scans taken.
    pub wifi_scans: u64,
    /// Number of cell lookups taken.
    pub cell_lookups: u64,
    /// Total accelerometer monitoring time.
    pub accel_time: SimDuration,
    /// Total energy, millijoules.
    pub total_mj: f64,
}

impl EnergyReport {
    /// Record one fix.
    pub fn record_fix(&mut self, source: FixSource, model: &EnergyModel) {
        match source {
            FixSource::Gps => self.gps_fixes += 1,
            FixSource::Wifi => self.wifi_scans += 1,
            FixSource::Cell => self.cell_lookups += 1,
        }
        self.total_mj += model.fix_cost(source);
    }

    /// Record accelerometer monitoring time.
    pub fn record_accel(&mut self, time: SimDuration, model: &EnergyModel) {
        self.accel_time += time;
        self.total_mj += time.as_hours_f64() * model.accel_per_hour_mj;
    }

    /// Total number of fixes of any source.
    pub fn total_fixes(&self) -> u64 {
        self.gps_fixes + self.wifi_scans + self.cell_lookups
    }

    /// Total energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.total_mj / 1_000.0
    }

    /// Average power over a span, milliwatts.
    pub fn average_power_mw(&self, span: SimDuration) -> f64 {
        if span <= SimDuration::ZERO {
            return 0.0;
        }
        // mJ per second is exactly mW.
        self.total_mj / span.as_seconds() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_ordered() {
        let m = EnergyModel::default();
        assert!(m.gps_fix_mj > m.wifi_scan_mj);
        assert!(m.wifi_scan_mj > m.cell_lookup_mj);
    }

    #[test]
    fn report_accumulates() {
        let m = EnergyModel::default();
        let mut r = EnergyReport::default();
        r.record_fix(FixSource::Gps, &m);
        r.record_fix(FixSource::Wifi, &m);
        r.record_fix(FixSource::Wifi, &m);
        assert_eq!(r.gps_fixes, 1);
        assert_eq!(r.wifi_scans, 2);
        assert_eq!(r.total_fixes(), 3);
        let expected = m.gps_fix_mj + 2.0 * m.wifi_scan_mj;
        assert!((r.total_mj - expected).abs() < 1e-9);
    }

    #[test]
    fn accel_time_costs_by_hour() {
        let m = EnergyModel::default();
        let mut r = EnergyReport::default();
        r.record_accel(SimDuration::hours(10), &m);
        assert!((r.total_mj - 400.0).abs() < 1e-9);
        assert_eq!(r.accel_time, SimDuration::hours(10));
    }

    #[test]
    fn average_power() {
        let m = EnergyModel::default();
        let mut r = EnergyReport::default();
        r.record_fix(FixSource::Gps, &m); // 1400 mJ
        // Over 1000 seconds: 1.4 mJ/s = 1.4 mW.
        assert!((r.average_power_mw(SimDuration::seconds(1_000)) - 1.4).abs() < 1e-9);
        assert_eq!(r.average_power_mw(SimDuration::ZERO), 0.0);
    }
}
