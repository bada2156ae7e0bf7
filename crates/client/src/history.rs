//! The client's bounded local interaction store (§4.2).
//!
//! *"the solution is for any RSP to store only a recent snapshot of any
//! user's inferred interactions on her device and store the rest of the
//! user's long-term history at the RSP's servers. ... the RSP's app purges
//! an entry from the user's history once the entry is older than a
//! configurable threshold."*
//!
//! The store keys by entity *in memory only*; nothing here is uploaded.
//! What leaks if the device is stolen is exactly this window — the test
//! `leak_surface_is_bounded` quantifies it.

use orsp_crypto::{derive_record_id, DeviceSecret};
use orsp_types::{EntityId, Interaction, InteractionHistory, RecordId, SimDuration, Timestamp};
use std::collections::HashMap;

/// Device-local, time-bounded interaction store.
#[derive(Debug)]
pub struct LocalHistoryStore {
    retention: SimDuration,
    histories: HashMap<EntityId, InteractionHistory>,
}

impl LocalHistoryStore {
    /// A store that retains entries for `retention` after they end.
    pub fn new(retention: SimDuration) -> Self {
        LocalHistoryStore { retention, histories: HashMap::new() }
    }

    /// Record an inferred interaction.
    pub fn record(&mut self, entity: EntityId, interaction: Interaction) -> orsp_types::Result<()> {
        self.histories.entry(entity).or_default().push(interaction)
    }

    /// Purge entries older than the retention window relative to `now`.
    /// Returns how many records were dropped.
    pub fn purge(&mut self, now: Timestamp) -> usize {
        let cutoff = now - self.retention;
        let mut dropped = 0;
        self.histories.retain(|_, h| {
            dropped += h.purge_older_than(cutoff);
            !h.is_empty()
        });
        dropped
    }

    /// The local history for one entity, if any survives.
    pub fn history(&self, entity: EntityId) -> Option<&InteractionHistory> {
        self.histories.get(&entity)
    }

    /// Drop everything stored locally about one entity (the user asked to
    /// forget it). Returns how many records were dropped.
    pub fn purge_entity(&mut self, entity: EntityId) -> usize {
        self.histories.remove(&entity).map(|h| h.len()).unwrap_or(0)
    }

    /// Entities with at least one retained record — the device's entire
    /// leak surface.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self.histories.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Total retained records.
    pub fn total_records(&self) -> usize {
        self.histories.values().map(|h| h.len()).sum()
    }

    /// Derive the server-side record id for an entity — computed on the
    /// fly from `Ru`, never stored (§4.2: "preempts the need for the
    /// client to locally store a (entity, ID) mapping").
    pub fn record_id_for(secret: &DeviceSecret, entity: EntityId) -> RecordId {
        derive_record_id(secret, entity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::InteractionKind;

    fn visit(start_s: i64) -> Interaction {
        Interaction::solo(
            InteractionKind::Visit,
            Timestamp::from_seconds(start_s),
            SimDuration::minutes(40),
            500.0,
        )
    }

    #[test]
    fn records_accumulate_per_entity() {
        let mut s = LocalHistoryStore::new(SimDuration::days(30));
        s.record(EntityId::new(1), visit(0)).unwrap();
        s.record(EntityId::new(1), visit(1_000)).unwrap();
        s.record(EntityId::new(2), visit(500)).unwrap();
        assert_eq!(s.total_records(), 3);
        assert_eq!(s.history(EntityId::new(1)).unwrap().len(), 2);
        assert_eq!(s.entities(), vec![EntityId::new(1), EntityId::new(2)]);
    }

    #[test]
    fn purge_enforces_retention() {
        let mut s = LocalHistoryStore::new(SimDuration::days(30));
        s.record(EntityId::new(1), visit(0)).unwrap();
        s.record(EntityId::new(1), visit(40 * 86_400)).unwrap();
        let dropped = s.purge(Timestamp::from_seconds(45 * 86_400));
        assert_eq!(dropped, 1);
        assert_eq!(s.total_records(), 1);
    }

    #[test]
    fn purge_removes_empty_entities_entirely() {
        let mut s = LocalHistoryStore::new(SimDuration::days(7));
        s.record(EntityId::new(9), visit(0)).unwrap();
        s.purge(Timestamp::from_seconds(100 * 86_400));
        assert!(s.history(EntityId::new(9)).is_none());
        assert!(s.entities().is_empty());
        assert_eq!(s.total_records(), 0);
    }

    #[test]
    fn leak_surface_is_bounded() {
        // Simulate two years of weekly visits with a 30-day retention:
        // at any point the device holds at most ~5 records per entity.
        let mut s = LocalHistoryStore::new(SimDuration::days(30));
        for week in 0..104 {
            let t = week * 7 * 86_400;
            s.record(EntityId::new(1), visit(t)).unwrap();
            s.purge(Timestamp::from_seconds(t));
            assert!(
                s.total_records() <= 6,
                "leak surface grew to {} at week {week}",
                s.total_records()
            );
        }
    }

    #[test]
    fn record_ids_derived_not_stored() {
        let secret = DeviceSecret::from_bytes([5u8; 32]);
        let a = LocalHistoryStore::record_id_for(&secret, EntityId::new(1));
        let b = LocalHistoryStore::record_id_for(&secret, EntityId::new(1));
        let c = LocalHistoryStore::record_id_for(&secret, EntityId::new(2));
        assert_eq!(a, b, "derivation is stable");
        assert_ne!(a, c, "ids differ per entity");
    }

    #[test]
    fn out_of_order_rejected() {
        let mut s = LocalHistoryStore::new(SimDuration::days(30));
        s.record(EntityId::new(1), visit(5_000)).unwrap();
        assert!(s.record(EntityId::new(1), visit(100)).is_err());
    }
}
