//! The transparency log (§5, "Transparency").
//!
//! *"An RSP must ensure that any user of its app has visibility into the
//! inferences the app has made about the user's activities. Exposing
//! inferences to users will not only assuage potential fears ... but also
//! enable users to correct inaccurate inferences."*
//!
//! Every inference the client makes lands here before upload; the user can
//! suppress an entry, which prevents (or retracts the intent of) its
//! upload. Vetting is *optional* — the default is automatic sharing, since
//! requiring approval "will nullify the benefits of implicit inference".

use orsp_types::{EntityId, Interaction, Timestamp};

/// Lifecycle of one logged inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceStatus {
    /// Queued for upload (default path — no user action needed).
    Pending,
    /// Released into the anonymity network.
    Uploaded,
    /// Suppressed by the user before upload.
    Suppressed,
}

/// One user-visible inference entry.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceEntry {
    /// Log-local id.
    pub id: u64,
    /// When the inference was made.
    pub inferred_at: Timestamp,
    /// Which entity the client believes the user interacted with.
    pub entity: EntityId,
    /// The inferred interaction.
    pub interaction: Interaction,
    /// Current status.
    pub status: InferenceStatus,
}

/// The device-local, user-visible inference log.
#[derive(Debug, Default)]
pub struct TransparencyLog {
    entries: Vec<InferenceEntry>,
}

impl TransparencyLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Log a new inference; returns its id.
    pub fn log(
        &mut self,
        inferred_at: Timestamp,
        entity: EntityId,
        interaction: Interaction,
    ) -> u64 {
        let id = self.entries.len() as u64;
        self.entries.push(InferenceEntry {
            id,
            inferred_at,
            entity,
            interaction,
            status: InferenceStatus::Pending,
        });
        id
    }

    /// The user suppresses an inference (it was wrong, or they don't want
    /// it shared). Only pending entries can be suppressed — once uploaded,
    /// the anonymous record cannot be recalled (the server cannot know
    /// whose it is; this is the flip side of unlinkability).
    pub fn suppress(&mut self, id: u64) -> bool {
        match self.entries.get_mut(id as usize) {
            Some(e) if e.status == InferenceStatus::Pending => {
                e.status = InferenceStatus::Suppressed;
                true
            }
            _ => false,
        }
    }

    /// Mark an entry as uploaded.
    pub fn mark_uploaded(&mut self, id: u64) -> bool {
        match self.entries.get_mut(id as usize) {
            Some(e) if e.status == InferenceStatus::Pending => {
                e.status = InferenceStatus::Uploaded;
                true
            }
            _ => false,
        }
    }

    /// All entries (what the user sees).
    pub fn entries(&self) -> &[InferenceEntry] {
        &self.entries
    }

    /// Entries with a given status.
    pub fn with_status(&self, status: InferenceStatus) -> impl Iterator<Item = &InferenceEntry> {
        self.entries.iter().filter(move |e| e.status == status)
    }

    /// Whether entry `id` is currently suppressed.
    pub fn is_suppressed(&self, id: u64) -> bool {
        self.entries
            .get(id as usize)
            .map(|e| e.status == InferenceStatus::Suppressed)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_types::{InteractionKind, SimDuration};

    fn interaction() -> Interaction {
        Interaction::solo(InteractionKind::Visit, Timestamp::EPOCH, SimDuration::minutes(30), 100.0)
    }

    #[test]
    fn log_and_inspect() {
        let mut log = TransparencyLog::new();
        let id = log.log(Timestamp::from_seconds(10), EntityId::new(5), interaction());
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.entries()[0].id, id);
        assert_eq!(log.entries()[0].status, InferenceStatus::Pending);
    }

    #[test]
    fn suppress_pending_entry() {
        let mut log = TransparencyLog::new();
        let id = log.log(Timestamp::EPOCH, EntityId::new(1), interaction());
        assert!(log.suppress(id));
        assert!(log.is_suppressed(id));
        assert_eq!(log.with_status(InferenceStatus::Suppressed).count(), 1);
        // Cannot mark a suppressed entry as uploaded.
        assert!(!log.mark_uploaded(id));
    }

    #[test]
    fn uploaded_entries_cannot_be_suppressed() {
        let mut log = TransparencyLog::new();
        let id = log.log(Timestamp::EPOCH, EntityId::new(1), interaction());
        assert!(log.mark_uploaded(id));
        assert!(!log.suppress(id), "cannot recall an anonymous upload");
        assert!(!log.is_suppressed(id));
    }

    #[test]
    fn unknown_ids_are_noops() {
        let mut log = TransparencyLog::new();
        assert!(!log.suppress(99));
        assert!(!log.mark_uploaded(99));
        assert!(!log.is_suppressed(99));
    }

    #[test]
    fn status_filter() {
        let mut log = TransparencyLog::new();
        let a = log.log(Timestamp::EPOCH, EntityId::new(1), interaction());
        let b = log.log(Timestamp::EPOCH, EntityId::new(2), interaction());
        let _c = log.log(Timestamp::EPOCH, EntityId::new(3), interaction());
        log.mark_uploaded(a);
        log.suppress(b);
        assert_eq!(log.with_status(InferenceStatus::Pending).count(), 1);
        assert_eq!(log.with_status(InferenceStatus::Uploaded).count(), 1);
        assert_eq!(log.with_status(InferenceStatus::Suppressed).count(), 1);
    }
}
