//! Ingest: admission control for anonymous uploads.
//!
//! Every upload must present a valid, unspent blind token (§4.2) and a
//! well-formed record; entity re-binding attempts are rejected by the
//! store. The service counts every rejection by reason so the experiments
//! can report exactly what the defences caught.
//!
//! [`IngestService`] is the store + counters container the analytics
//! tier works on, and its [`IngestService::ingest`] is the sequential
//! reference the tests compare the served admission core
//! ([`crate::ShardedIngest`]) against.

use crate::store::HistoryStore;
use orsp_crypto::blind::verify_unblinded;
use orsp_crypto::{RsaPublicKey, UploadRequest};
use std::collections::HashSet;

/// Why an upload was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Token signature invalid (forged).
    BadToken,
    /// Token already spent.
    DoubleSpend,
    /// Interaction malformed or out of order for its history.
    BadRecord,
    /// Record id already bound to a different entity.
    EntityMismatch,
}

/// Ingest counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Uploads accepted into the store.
    pub accepted: u64,
    /// Forged tokens.
    pub bad_token: u64,
    /// Double-spent tokens.
    pub double_spend: u64,
    /// Malformed or out-of-order records.
    pub bad_record: u64,
    /// Entity re-binding attempts.
    pub entity_mismatch: u64,
}

impl IngestStats {
    /// Total rejected.
    pub fn rejected(&self) -> u64 {
        self.bad_token + self.double_spend + self.bad_record + self.entity_mismatch
    }

    fn count(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::BadToken => self.bad_token += 1,
            RejectReason::DoubleSpend => self.double_spend += 1,
            RejectReason::BadRecord => self.bad_record += 1,
            RejectReason::EntityMismatch => self.entity_mismatch += 1,
        }
    }
}

/// The ingest service: token check then store append.
pub struct IngestService {
    store: HistoryStore,
    stats: IngestStats,
    /// Ledger keys [`Self::ingest`] has spent. Only the sequential
    /// reference fills it; the served ledger is [`crate::ShardedIngest`]'s.
    spent: HashSet<[u8; 32]>,
}

impl Default for IngestService {
    fn default() -> Self {
        Self::new()
    }
}

impl IngestService {
    /// A fresh service with an empty store.
    pub fn new() -> Self {
        Self::from_parts(HistoryStore::new(), IngestStats::default())
    }

    /// Assemble a service from an already-populated store and its
    /// counters — how [`crate::deterministic_ingest`] and the served
    /// drain path hand back what [`crate::ShardedIngest`] admitted.
    pub fn from_parts(store: HistoryStore, stats: IngestStats) -> Self {
        IngestService { store, stats, spent: HashSet::new() }
    }

    /// Process one upload — the sequential reference for the admission
    /// rule (tests only; traffic goes through
    /// [`crate::ShardedIngest::ingest_verified`]). A token whose signature
    /// does not verify under `mint_key` never reaches the spend set, and
    /// a spent token stays spent even when the store refuses its record.
    pub fn ingest(
        &mut self,
        upload: &UploadRequest,
        mint_key: &RsaPublicKey,
    ) -> Result<(), RejectReason> {
        let token = &upload.token;
        if !verify_unblinded(mint_key, &token.message, &token.signature) {
            self.stats.count(RejectReason::BadToken);
            return Err(RejectReason::BadToken);
        }
        if !self.spent.insert(token.ledger_key()) {
            self.stats.count(RejectReason::DoubleSpend);
            return Err(RejectReason::DoubleSpend);
        }
        match self.store.append(upload.record_id, upload.entity, upload.interaction) {
            Ok(()) => {
                self.stats.accepted += 1;
                Ok(())
            }
            Err(orsp_types::OrspError::UploadRejected(_)) => {
                self.stats.count(RejectReason::EntityMismatch);
                Err(RejectReason::EntityMismatch)
            }
            Err(_) => {
                self.stats.count(RejectReason::BadRecord);
                Err(RejectReason::BadRecord)
            }
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Break the service into its store and counters — the shard
    /// redistribution path ([`crate::ShardedIngest::from_service`]).
    pub fn into_parts(self) -> (HistoryStore, IngestStats) {
        (self.store, self.stats)
    }

    /// The underlying store (server-internal analytics).
    pub fn store(&self) -> &HistoryStore {
        &self.store
    }

    /// Mutable store access (fraud filter discards).
    pub fn store_mut(&mut self) -> &mut HistoryStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_crypto::{BigUint, Token, TokenMint, TokenWallet};
    use orsp_types::{
        DeviceId, EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (TokenMint, TokenWallet, StdRng) {
        let mut rng = StdRng::seed_from_u64(5);
        let mint = TokenMint::new(&mut rng, 256, 1_000, SimDuration::DAY);
        let wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        (mint, wallet, rng)
    }

    fn upload(token: Token, record: u8, entity: u64, t: i64) -> UploadRequest {
        UploadRequest {
            record_id: RecordId::from_bytes([record; 32]),
            entity: EntityId::new(entity),
            interaction: Interaction::solo(
                InteractionKind::Visit,
                Timestamp::from_seconds(t),
                SimDuration::minutes(30),
                100.0,
            ),
            token,
            release_at: Timestamp::from_seconds(t),
        }
    }

    fn fresh_token(wallet: &mut TokenWallet, mint: &mut TokenMint, rng: &mut StdRng) -> Token {
        wallet.request_token(rng, mint, Timestamp::EPOCH).unwrap();
        wallet.take_token().unwrap()
    }

    #[test]
    fn valid_upload_accepted() {
        let (mut mint, mut wallet, mut rng) = setup();
        let mut svc = IngestService::new();
        let t = fresh_token(&mut wallet, &mut mint, &mut rng);
        assert!(svc.ingest(&upload(t, 1, 5, 0), mint.public_key()).is_ok());
        assert_eq!(svc.stats().accepted, 1);
        assert_eq!(svc.store().len(), 1);
    }

    #[test]
    fn forged_token_rejected() {
        // A forgery of a real token's message never spends that message:
        // the genuine token for it is still accepted afterwards.
        let (mut mint, mut wallet, mut rng) = setup();
        let mut svc = IngestService::new();
        let t = fresh_token(&mut wallet, &mut mint, &mut rng);
        let forged = Token { message: t.message, signature: BigUint::from_u64(42) };
        let err = svc.ingest(&upload(forged, 1, 5, 0), mint.public_key());
        assert_eq!(err, Err(RejectReason::BadToken));
        assert_eq!(svc.stats().bad_token, 1);
        assert!(svc.store().is_empty());
        assert_eq!(svc.ingest(&upload(t, 1, 5, 0), mint.public_key()), Ok(()));
    }

    #[test]
    fn double_spend_rejected() {
        let (mut mint, mut wallet, mut rng) = setup();
        let mut svc = IngestService::new();
        let t = fresh_token(&mut wallet, &mut mint, &mut rng);
        assert!(svc.ingest(&upload(t.clone(), 1, 5, 0), mint.public_key()).is_ok());
        let err = svc.ingest(&upload(t, 2, 5, 100), mint.public_key());
        assert_eq!(err, Err(RejectReason::DoubleSpend));
        assert_eq!(svc.stats().double_spend, 1);
    }

    #[test]
    fn entity_mismatch_rejected() {
        let (mut mint, mut wallet, mut rng) = setup();
        let mut svc = IngestService::new();
        let t1 = fresh_token(&mut wallet, &mut mint, &mut rng);
        let t2 = fresh_token(&mut wallet, &mut mint, &mut rng);
        assert!(svc.ingest(&upload(t1, 1, 5, 0), mint.public_key()).is_ok());
        let err = svc.ingest(&upload(t2.clone(), 1, 6, 100), mint.public_key());
        assert_eq!(err, Err(RejectReason::EntityMismatch));
        assert_eq!(svc.stats().entity_mismatch, 1);
        // The refused record still spent its token.
        let err = svc.ingest(&upload(t2, 2, 6, 100), mint.public_key());
        assert_eq!(err, Err(RejectReason::DoubleSpend));
    }

    #[test]
    fn out_of_order_record_rejected() {
        let (mut mint, mut wallet, mut rng) = setup();
        let mut svc = IngestService::new();
        let t1 = fresh_token(&mut wallet, &mut mint, &mut rng);
        let t2 = fresh_token(&mut wallet, &mut mint, &mut rng);
        assert!(svc.ingest(&upload(t1, 1, 5, 1_000), mint.public_key()).is_ok());
        let err = svc.ingest(&upload(t2, 1, 5, 10), mint.public_key());
        assert_eq!(err, Err(RejectReason::BadRecord));
        assert_eq!(svc.stats().bad_record, 1);
        assert_eq!(svc.stats().rejected(), 1);
    }
}
