//! The anonymous history store.
//!
//! Each record is one (user, entity) interaction history keyed by the
//! opaque [`RecordId`] the client derived as `hash(Ru, e)`. The store
//! knows which *entity* each history concerns (needed for aggregation and
//! profiles) but has no idea which user — and cannot find out, because the
//! id derivation is one-way and keyed by a secret it never sees.
//!
//! API shape enforces §4.2's asymmetry: clients can *append*; nothing can
//! *read back* an individual history through the client-facing surface.
//! (The RSP's own analytics — profiles, fraud, aggregates — iterate
//! internally; that is the design's trust model: the server is trusted
//! not to learn user identity, which the ids guarantee, not to forgo
//! statistics.)

use orsp_types::{EntityId, Interaction, InteractionHistory, OrspError, RecordId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One stored anonymous history.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredHistory {
    /// The entity this history concerns.
    pub entity: EntityId,
    /// The interaction sequence.
    pub history: InteractionHistory,
}

/// The server's record store.
#[derive(Debug, Default)]
pub struct HistoryStore {
    records: HashMap<RecordId, StoredHistory>,
    /// Entity → record ids, maintained on every append/delete so
    /// per-entity lookups (aggregates, search scoring) cost O(matches)
    /// instead of a full-store scan.
    by_entity: HashMap<EntityId, Vec<RecordId>>,
}

impl HistoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an interaction to the history with id `record_id`,
    /// initializing the history on first sight ("if the server is not
    /// already storing a history with this identifier, it initializes a
    /// new interaction history for entity e").
    ///
    /// Rejects appends that try to re-bind an existing record to a
    /// different entity — a corruption attempt (§4.2's Ru-guessing
    /// attacker).
    pub fn append(
        &mut self,
        record_id: RecordId,
        entity: EntityId,
        interaction: Interaction,
    ) -> orsp_types::Result<()> {
        let stored = match self.records.entry(record_id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                self.by_entity.entry(entity).or_default().push(record_id);
                v.insert(StoredHistory { entity, history: InteractionHistory::new() })
            }
        };
        if stored.entity != entity {
            return Err(OrspError::UploadRejected(format!(
                "record {} is bound to {} but upload names {}",
                record_id.short_hex(),
                stored.entity,
                entity
            )));
        }
        stored.history.push(interaction)
    }

    /// Number of stored histories.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total interactions across all histories.
    pub fn total_interactions(&self) -> usize {
        self.records.values().map(|s| s.history.len()).sum()
    }

    /// Server-internal iteration for analytics (profiles, fraud,
    /// aggregates). Not part of the client-facing API.
    pub fn iter(&self) -> impl Iterator<Item = (&RecordId, &StoredHistory)> {
        self.records.iter()
    }

    /// Look up one record. Server-internal (the replication promote-fold
    /// compares its absorbed copy against the one already serving) — no
    /// public RPC retrieves an individual record, by design.
    pub fn get(&self, id: &RecordId) -> Option<&StoredHistory> {
        self.records.get(id)
    }

    /// Server-internal: histories for one entity, via the entity index.
    pub fn histories_for_entity(
        &self,
        entity: EntityId,
    ) -> impl Iterator<Item = (&RecordId, &StoredHistory)> {
        self.by_entity
            .get(&entity)
            .into_iter()
            .flatten()
            .map(move |rid| (rid, self.records.get(rid).expect("entity index out of sync")))
    }

    /// Move an already-built history into the store. Server-side
    /// plumbing only (shard redistribution, cluster merges, reshard) —
    /// clients append interaction by interaction through [`Self::append`],
    /// which enforces the entity-binding check. Each record id must be
    /// inserted at most once (the shard/backend partitions guarantee it).
    pub fn insert_history(&mut self, record_id: RecordId, stored: StoredHistory) {
        self.by_entity.entry(stored.entity).or_default().push(record_id);
        let previous = self.records.insert(record_id, stored);
        debug_assert!(previous.is_none(), "insert_history over an existing record");
    }

    /// Consume the store, yielding every history (shard redistribution,
    /// cluster merges, reshard).
    pub fn into_histories(self) -> impl Iterator<Item = (RecordId, StoredHistory)> {
        self.records.into_iter()
    }

    /// Delete one record at its owner's request.
    ///
    /// This is the right-to-be-forgotten the `hash(Ru, e)` design enables
    /// for free: the 256-bit record id is deriveable only by the device
    /// holding `Ru`, so presenting it *is* the proof of ownership — the
    /// server honours the deletion without ever learning who asked.
    /// Returns true iff the record existed.
    pub fn delete_record(&mut self, id: &RecordId) -> bool {
        match self.records.remove(id) {
            Some(stored) => {
                if let Some(ids) = self.by_entity.get_mut(&stored.entity) {
                    ids.retain(|r| r != id);
                    if ids.is_empty() {
                        self.by_entity.remove(&stored.entity);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Remove a set of records (the fraud filter's discard action).
    /// Returns how many were present and removed.
    pub fn remove_records(&mut self, ids: &[RecordId]) -> usize {
        let mut removed = 0;
        for id in ids {
            if self.delete_record(id) {
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::{InteractionKind, SimDuration, Timestamp};

    fn rid(n: u8) -> RecordId {
        RecordId::from_bytes([n; 32])
    }

    fn visit(t: i64) -> Interaction {
        Interaction::solo(
            InteractionKind::Visit,
            Timestamp::from_seconds(t),
            SimDuration::minutes(30),
            200.0,
        )
    }

    #[test]
    fn first_append_initializes_history() {
        let mut s = HistoryStore::new();
        s.append(rid(1), EntityId::new(5), visit(0)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_interactions(), 1);
    }

    #[test]
    fn appends_accumulate_in_order() {
        let mut s = HistoryStore::new();
        s.append(rid(1), EntityId::new(5), visit(0)).unwrap();
        s.append(rid(1), EntityId::new(5), visit(1_000)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_interactions(), 2);
        assert!(s.append(rid(1), EntityId::new(5), visit(500)).is_err(), "out of order");
    }

    #[test]
    fn entity_rebinding_rejected() {
        let mut s = HistoryStore::new();
        s.append(rid(1), EntityId::new(5), visit(0)).unwrap();
        let err = s.append(rid(1), EntityId::new(6), visit(1_000));
        assert!(matches!(err, Err(OrspError::UploadRejected(_))));
        assert_eq!(s.total_interactions(), 1);
    }

    #[test]
    fn histories_for_entity_filters() {
        let mut s = HistoryStore::new();
        s.append(rid(1), EntityId::new(5), visit(0)).unwrap();
        s.append(rid(2), EntityId::new(5), visit(0)).unwrap();
        s.append(rid(3), EntityId::new(9), visit(0)).unwrap();
        assert_eq!(s.histories_for_entity(EntityId::new(5)).count(), 2);
        assert_eq!(s.histories_for_entity(EntityId::new(9)).count(), 1);
        assert_eq!(s.histories_for_entity(EntityId::new(7)).count(), 0);
    }

    #[test]
    fn remove_records_discards() {
        let mut s = HistoryStore::new();
        s.append(rid(1), EntityId::new(5), visit(0)).unwrap();
        s.append(rid(2), EntityId::new(5), visit(0)).unwrap();
        assert_eq!(s.remove_records(&[rid(1), rid(9)]), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn owner_initiated_deletion() {
        let mut s = HistoryStore::new();
        s.append(rid(1), EntityId::new(5), visit(0)).unwrap();
        s.append(rid(2), EntityId::new(5), visit(0)).unwrap();
        // Only the holder of Ru can derive rid(1); presenting it deletes
        // exactly that history.
        assert!(s.delete_record(&rid(1)));
        assert!(!s.delete_record(&rid(1)), "second delete is a no-op");
        assert_eq!(s.len(), 1);
        // A guessing attacker (wrong id) deletes nothing.
        assert!(!s.delete_record(&rid(99)));
    }

    #[test]
    fn distinct_records_stay_distinct() {
        // Two users, same entity: two record ids, two histories.
        let mut s = HistoryStore::new();
        s.append(rid(1), EntityId::new(5), visit(0)).unwrap();
        s.append(rid(2), EntityId::new(5), visit(0)).unwrap();
        assert_eq!(s.len(), 2);
    }
}
