//! The global passive adversary and its attack evaluators.
//!
//! The observer watches both edges of the anonymity network:
//!
//! * **entries** — `(device, time)` whenever a device submits something
//!   (it cannot read the payload, but metadata is visible to a network
//!   adversary);
//! * **exits** — `(record id, time)` whenever the mix delivers an upload
//!   to the RSP.
//!
//! Two attacks are scored against ground truth the simulation holds:
//!
//! * [`NetworkObserver::timing_attack`] — link each exit to the device
//!   whose entry immediately preceded it. Defeated by the client's async
//!   deferral plus mix batching (§4.2: "an RSP's app can upload all of its
//!   inferences asynchronously, thereby preventing timing attacks").
//! * [`NetworkObserver::linkage_attack`] — given the server's stored
//!   record ids, partition them by owning device. Defeated by
//!   `hash(Ru, e)` record ids; trivial under a device-prefixed scheme.

use crate::channel::{ChannelId, LinkageScheme};
use orsp_types::{DeviceId, EntityId, RecordId, Timestamp};
use std::collections::HashMap;

/// Result of the timing attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Exits the adversary attempted to link.
    pub attempts: usize,
    /// Correct links.
    pub correct: usize,
}

impl TimingReport {
    /// Attack accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.correct as f64 / self.attempts as f64
        }
    }
}

/// Result of the linkage attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkageReport {
    /// Number of record-id pairs the adversary claimed share an owner.
    pub claimed_pairs: usize,
    /// How many of those claims are correct.
    pub correct_pairs: usize,
    /// Total same-owner pairs that exist (recall denominator).
    pub true_pairs: usize,
}

impl LinkageReport {
    /// Precision of same-owner claims.
    pub fn precision(&self) -> f64 {
        if self.claimed_pairs == 0 {
            0.0
        } else {
            self.correct_pairs as f64 / self.claimed_pairs as f64
        }
    }

    /// Recall of same-owner pairs.
    pub fn recall(&self) -> f64 {
        if self.true_pairs == 0 {
            0.0
        } else {
            self.correct_pairs as f64 / self.true_pairs as f64
        }
    }
}

/// The global passive adversary's view.
#[derive(Debug, Default)]
pub struct NetworkObserver {
    entries: Vec<(DeviceId, Timestamp)>,
    exits: Vec<(RecordId, ChannelId, Timestamp)>,
    /// Ground truth for scoring: which device produced each exit.
    truth: HashMap<RecordId, DeviceId>,
}

impl NetworkObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a network entry (device submitted *something*).
    pub fn observe_entry(&mut self, device: DeviceId, time: Timestamp) {
        self.entries.push((device, time));
    }

    /// Record an exit (the RSP received an upload), with ground truth for
    /// scoring.
    pub fn observe_exit(
        &mut self,
        record: RecordId,
        channel: ChannelId,
        time: Timestamp,
        truth_device: DeviceId,
    ) {
        self.exits.push((record, channel, time));
        self.truth.insert(record, truth_device);
    }

    /// Timing attack: for each exit, guess the device with the latest
    /// entry at or before the exit time (the classic
    /// first-in-first-out-correlation heuristic).
    pub fn timing_attack(&self) -> TimingReport {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|e| e.1);
        let times: Vec<Timestamp> = entries.iter().map(|e| e.1).collect();
        let mut report = TimingReport { attempts: 0, correct: 0 };
        for (record, _, exit_time) in &self.exits {
            // Latest entry at or before the exit.
            let idx = match times.binary_search(exit_time) {
                Ok(i) => i,
                Err(0) => continue,
                Err(i) => i - 1,
            };
            let guess = entries[idx].0;
            report.attempts += 1;
            if self.truth.get(record) == Some(&guess) {
                report.correct += 1;
            }
        }
        report
    }

    /// Linkage attack: partition stored records by owner.
    ///
    /// Under [`LinkageScheme::DevicePrefixed`] the adversary brute-forces
    /// each channel's device (the derivation is public). Under
    /// [`LinkageScheme::Unlinkable`] no id-based linking is possible; the
    /// adversary can only group records that exited in the same mix batch
    /// — modeled here as grouping exits sharing an exact exit timestamp.
    pub fn linkage_attack(
        &self,
        scheme: LinkageScheme,
        devices: &[DeviceId],
        entities: &[EntityId],
    ) -> LinkageReport {
        // Adversary's proposed clusters. A history uploads many times, so
        // exits repeat record ids; clusters are over *distinct* records.
        let dedup = |mut v: Vec<RecordId>| -> Vec<RecordId> {
            v.sort();
            v.dedup();
            v
        };
        let clusters: Vec<Vec<RecordId>> = match scheme {
            LinkageScheme::DevicePrefixed => {
                let mut by_device: HashMap<DeviceId, Vec<RecordId>> = HashMap::new();
                for (record, channel, _) in &self.exits {
                    if let Some(d) = scheme.recover_device(*channel, devices, entities) {
                        by_device.entry(d).or_default().push(*record);
                    }
                }
                by_device.into_values().map(dedup).collect()
            }
            LinkageScheme::Unlinkable => {
                let mut by_time: HashMap<Timestamp, Vec<RecordId>> = HashMap::new();
                for (record, _, t) in &self.exits {
                    by_time.entry(*t).or_default().push(*record);
                }
                by_time.into_values().map(dedup).filter(|v| v.len() > 1).collect()
            }
        };

        // Score pairs.
        let pairs_in = |records: &[RecordId]| records.len() * records.len().saturating_sub(1) / 2;
        let mut claimed = 0usize;
        let mut correct = 0usize;
        for cluster in &clusters {
            claimed += pairs_in(cluster);
            for i in 0..cluster.len() {
                for j in i + 1..cluster.len() {
                    if self.truth.get(&cluster[i]) == self.truth.get(&cluster[j]) {
                        correct += 1;
                    }
                }
            }
        }
        // True pairs: per-device record counts.
        let mut per_device: HashMap<DeviceId, usize> = HashMap::new();
        for d in self.truth.values() {
            *per_device.entry(*d).or_default() += 1;
        }
        let true_pairs: usize = per_device.values().map(|&n| n * (n - 1) / 2).sum();

        LinkageReport { claimed_pairs: claimed, correct_pairs: correct, true_pairs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u8) -> RecordId {
        RecordId::from_bytes([n; 32])
    }

    fn chan(scheme: LinkageScheme, device: u64, entity: u64) -> ChannelId {
        scheme.channel_id(DeviceId::new(device), &[0u8; 32], EntityId::new(entity))
    }

    #[test]
    fn timing_attack_wins_without_deferral() {
        // Device i submits at t=i*100 and its upload exits immediately at
        // t=i*100: trivial correlation.
        let mut obs = NetworkObserver::new();
        let scheme = LinkageScheme::Unlinkable;
        for i in 0..20u64 {
            let t = Timestamp::from_seconds(i as i64 * 100);
            obs.observe_entry(DeviceId::new(i), t);
            obs.observe_exit(rid(i as u8), chan(scheme, i, 0), t, DeviceId::new(i));
        }
        let r = obs.timing_attack();
        assert_eq!(r.attempts, 20);
        assert!(r.accuracy() > 0.95, "accuracy {}", r.accuracy());
    }

    #[test]
    fn timing_attack_fails_with_batch_release() {
        // All devices submit at distinct times but everything exits in one
        // batch at the same instant: the nearest-entry heuristic can only
        // ever point at the last submitter.
        let mut obs = NetworkObserver::new();
        let scheme = LinkageScheme::Unlinkable;
        let batch_time = Timestamp::from_seconds(100_000);
        for i in 0..20u64 {
            obs.observe_entry(DeviceId::new(i), Timestamp::from_seconds(i as i64 * 100));
            obs.observe_exit(rid(i as u8), chan(scheme, i, 0), batch_time, DeviceId::new(i));
        }
        let r = obs.timing_attack();
        assert!(r.accuracy() <= 0.1, "accuracy {}", r.accuracy());
    }

    #[test]
    fn linkage_trivial_under_device_prefixed() {
        let mut obs = NetworkObserver::new();
        let scheme = LinkageScheme::DevicePrefixed;
        let devices: Vec<DeviceId> = (0..5).map(DeviceId::new).collect();
        let entities: Vec<EntityId> = (0..4).map(EntityId::new).collect();
        let mut n = 0u8;
        for d in 0..5u64 {
            for e in 0..4u64 {
                obs.observe_exit(
                    rid(n),
                    chan(scheme, d, e),
                    Timestamp::from_seconds(n as i64),
                    DeviceId::new(d),
                );
                n += 1;
            }
        }
        let r = obs.linkage_attack(scheme, &devices, &entities);
        assert!(r.precision() > 0.99, "precision {}", r.precision());
        assert!(r.recall() > 0.99, "recall {}", r.recall());
    }

    #[test]
    fn linkage_defeated_under_unlinkable_ids() {
        let mut obs = NetworkObserver::new();
        let scheme = LinkageScheme::Unlinkable;
        let devices: Vec<DeviceId> = (0..5).map(DeviceId::new).collect();
        let entities: Vec<EntityId> = (0..4).map(EntityId::new).collect();
        let mut n = 0u8;
        for d in 0..5u64 {
            for e in 0..4u64 {
                // Distinct exit times: no co-batch grouping either.
                obs.observe_exit(
                    rid(n),
                    chan(scheme, d, e),
                    Timestamp::from_seconds(n as i64 * 977),
                    DeviceId::new(d),
                );
                n += 1;
            }
        }
        let r = obs.linkage_attack(scheme, &devices, &entities);
        assert_eq!(r.claimed_pairs, 0, "nothing linkable");
        assert_eq!(r.recall(), 0.0);
        assert_eq!(r.true_pairs, 5 * (4 * 3 / 2));
    }

    #[test]
    fn empty_observer_reports_zero() {
        let obs = NetworkObserver::new();
        assert_eq!(obs.timing_attack().accuracy(), 0.0);
        let r = obs.linkage_attack(LinkageScheme::Unlinkable, &[], &[]);
        assert_eq!(r.precision(), 0.0);
        assert_eq!(r.recall(), 0.0);
    }
}
