//! The admission core: verify token → spend → validate record → append
//! → log, partitioned so a multi-worker server can run it without a
//! global lock.
//!
//! Every upload in the system is admitted here — served RPCs one at a
//! time, the in-process pipeline through [`crate::deterministic_ingest`]
//! — and [`crate::IngestService::ingest`] is the sequential reference the
//! tests hold it to. Three independently synchronized pieces:
//!
//! * **Spend ledger**, sharded by `shard_index(token.ledger_key())` — the
//!   double-spend check must be global per *token*, and the ledger key is
//!   a hash of the token message, so sharding by it spreads tokens
//!   uniformly while keeping each token's first-presentation-wins
//!   decision on a single lock.
//! * **History store**, sharded by `shard_index(record_id)` — matching
//!   the storage engine's on-disk segment sharding, so when the shard
//!   counts agree each ingest shard appends to exactly its own shard log.
//! * **Per-shard group commit** — each accepted upload enqueues its
//!   encoded WAL work *under the store lock* (so queue order equals
//!   apply order), releases the store, and then contends for the shard's
//!   commit lock. Whoever wins is the **leader**: it drains the queue
//!   (up to `group_commit_batch_max` items), hands the whole batch to
//!   the sink — one buffered write, **one fsync** — and publishes the
//!   durable watermark. Followers that arrive after their ticket is
//!   covered just read their verdict and return. Every ack still waits
//!   for the fsync covering its own record, so durability semantics are
//!   byte-for-byte those of one-fsync-per-record, but under concurrency
//!   the fsync cost is amortized across the whole group. Reads never
//!   queue behind a disk flush.
//!
//! Counters are atomics: every stat is an order-independent sum, which is
//! one of the two facts that keep a sharded run bit-identical to the
//! sequential reference (the other: admission decisions only ever depend
//! on single-token or single-record state, never on cross-shard state).

use crate::aggregates::AggregateParts;
use crate::ingest::{IngestService, IngestStats, RejectReason};
use crate::lockorder::{self, rank};
use crate::sharded::shard_index;
use crate::store::{HistoryStore, StoredHistory};
use crate::wal::{WalBatchItem, WalEntry, WalSink};
use orsp_client::UploadRequest;
use orsp_crypto::blind::verify_unblinded;
use orsp_crypto::RsaPublicKey;
use orsp_types::{EntityId, OrspError, RecordId};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Tuning for the per-shard group commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Most items one leader commits in a single batch (≥ 1). Larger
    /// batches amortize the fsync further but lengthen the tail an
    /// unlucky follower waits behind.
    pub batch_max: usize,
    /// Microseconds the leader holds its window open before draining,
    /// letting more concurrent uploaders join the group. 0 (the
    /// default) drains immediately — batches then form naturally from
    /// whatever queued while the previous fsync was in flight.
    pub window_us: u64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig { batch_max: 64, window_us: 0 }
    }
}

/// Result of one admission attempt.
#[derive(Debug)]
pub enum IngestOutcome {
    /// Applied to the store and (when a sink is wired) durably logged.
    Accepted,
    /// Applied to the store, but the durability sink failed — the caller
    /// must surface this rather than acknowledge a clean accept, and the
    /// client must not retry (the token is spent, the record applied).
    AcceptedNotDurable(OrspError),
    /// Refused; nothing was applied. (The token *is* consumed for store
    /// rejections — same semantics as the sequential path, where
    /// redemption precedes the append.)
    Rejected(RejectReason),
}

#[derive(Default)]
struct AtomicStats {
    accepted: AtomicU64,
    bad_token: AtomicU64,
    double_spend: AtomicU64,
    bad_record: AtomicU64,
    entity_mismatch: AtomicU64,
}

impl AtomicStats {
    fn from_stats(stats: IngestStats) -> Self {
        AtomicStats {
            accepted: AtomicU64::new(stats.accepted),
            bad_token: AtomicU64::new(stats.bad_token),
            double_spend: AtomicU64::new(stats.double_spend),
            bad_record: AtomicU64::new(stats.bad_record),
            entity_mismatch: AtomicU64::new(stats.entity_mismatch),
        }
    }

    fn count(&self, reason: RejectReason) {
        match reason {
            RejectReason::BadToken => self.bad_token.fetch_add(1, Relaxed),
            RejectReason::DoubleSpend => self.double_spend.fetch_add(1, Relaxed),
            RejectReason::BadRecord => self.bad_record.fetch_add(1, Relaxed),
            RejectReason::EntityMismatch => self.entity_mismatch.fetch_add(1, Relaxed),
        };
    }

    fn snapshot(&self) -> IngestStats {
        IngestStats {
            accepted: self.accepted.load(Relaxed),
            bad_token: self.bad_token.load(Relaxed),
            double_spend: self.double_spend.load(Relaxed),
            bad_record: self.bad_record.load(Relaxed),
            entity_mismatch: self.entity_mismatch.load(Relaxed),
        }
    }
}

/// Pending WAL work for one shard, in apply order. Tickets are dense
/// and monotonic; `durable_through` is the exclusive watermark below
/// which every ticket's commit attempt has finished.
struct GroupQueue {
    pending: VecDeque<(u64, WalBatchItem)>,
    next_ticket: u64,
    durable_through: u64,
    /// Sink errors for decided tickets, removed by each ticket's sole
    /// owner; commits that succeed never touch this map.
    failed: HashMap<u64, OrspError>,
}

impl GroupQueue {
    fn new() -> Self {
        GroupQueue {
            pending: VecDeque::new(),
            next_ticket: 0,
            durable_through: 0,
            failed: HashMap::new(),
        }
    }
}

struct StoreShard {
    store: Mutex<HistoryStore>,
    /// Group-commit leader lock: the holder drains `queue` and commits
    /// batches until its own ticket is covered. Rank [`rank::WAL_ORDER`].
    commit: Mutex<()>,
    /// Enqueued-but-not-yet-durable uploads. Rank [`rank::GROUP_QUEUE`];
    /// held only for push/drain instants, never across I/O.
    queue: Mutex<GroupQueue>,
}

/// Shard-partitioned admission control for the request path.
pub struct ShardedIngest {
    ledgers: Vec<Mutex<HashSet<[u8; 32]>>>,
    shards: Vec<StoreShard>,
    wal: RwLock<Option<(Arc<dyn WalSink>, GroupCommitConfig)>>,
    stats: AtomicStats,
    /// Times any store-shard lock was taken, read paths included — the
    /// hammer suite asserts this stays flat across read-only traffic.
    store_locks: AtomicU64,
}

impl ShardedIngest {
    /// An empty ingest domain with `n` shards (clamped to ≥ 1).
    pub fn new(n: usize) -> Self {
        Self::with_parts(HistoryStore::new(), IngestStats::default(), n)
    }

    /// Reshard an existing service's store (recovery resume path): every
    /// history is redistributed by `shard_index(record_id)`. The spend
    /// ledger starts empty; durable runs re-seed it from the recovered
    /// log via [`Self::seed_spent_tokens`].
    pub fn from_service(service: IngestService, n: usize) -> Self {
        let (store, stats) = service.into_parts();
        Self::with_parts(store, stats, n)
    }

    fn with_parts(store: HistoryStore, stats: IngestStats, n: usize) -> Self {
        let n = n.max(1);
        let ledgers = (0..n).map(|_| Mutex::new(HashSet::new())).collect();
        let mut shards: Vec<StoreShard> = (0..n)
            .map(|_| StoreShard {
                store: Mutex::new(HistoryStore::new()),
                commit: Mutex::new(()),
                queue: Mutex::new(GroupQueue::new()),
            })
            .collect();
        for (rid, stored) in store.into_histories() {
            let shard = shard_index(rid.as_bytes(), n);
            shards[shard].store.get_mut().insert_history(rid, stored);
        }
        ShardedIngest {
            ledgers,
            shards,
            wal: RwLock::new(None),
            stats: AtomicStats::from_stats(stats),
            store_locks: AtomicU64::new(0),
        }
    }

    /// Wire (or replace) the durability sink every accepted upload is
    /// logged through, with default group-commit tuning.
    pub fn set_wal(&self, sink: Arc<dyn WalSink>) {
        self.set_wal_with(sink, GroupCommitConfig::default());
    }

    /// Wire (or replace) the durability sink with explicit group-commit
    /// tuning.
    pub fn set_wal_with(&self, sink: Arc<dyn WalSink>, config: GroupCommitConfig) {
        *self.wal.write() = Some((sink, config));
    }

    /// Seed the spend ledger with keys recovered from the durable log,
    /// so tokens spent before a crash stay spent after it.
    pub fn seed_spent_tokens<I: IntoIterator<Item = [u8; 32]>>(&self, keys: I) {
        for key in keys {
            let _rank = lockorder::enter(rank::LEDGER_SHARD);
            self.ledgers[shard_index(&key, self.ledgers.len())].lock().insert(key);
        }
    }

    /// Snapshot of every spent-token ledger key across shards (the
    /// checkpoint path folds this into the snapshot at drain).
    pub fn spent_tokens(&self) -> HashSet<[u8; 32]> {
        let mut out = HashSet::new();
        for ledger in &self.ledgers {
            let _rank = lockorder::enter(rank::LEDGER_SHARD);
            out.extend(ledger.lock().iter().copied());
        }
        out
    }

    /// Times any store-shard lock has been acquired since construction
    /// (ingest and publish paths both count; the served read path must
    /// not move this).
    pub fn store_lock_acquisitions(&self) -> u64 {
        self.store_locks.load(Relaxed)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns a record id.
    pub fn shard_of(&self, record_id: &RecordId) -> usize {
        shard_index(record_id.as_bytes(), self.shards.len())
    }

    /// Admit one upload: verify the token signature (pure RSA, no lock),
    /// then delegate to [`Self::ingest_verified`].
    pub fn ingest(&self, upload: &UploadRequest, mint_key: &RsaPublicKey) -> IngestOutcome {
        let valid =
            verify_unblinded(mint_key, &upload.token.message, &upload.token.signature);
        self.ingest_verified(upload, valid)
    }

    /// Admit one upload whose signature verdict was computed by the
    /// caller. Locks touched, in rank order, each held only for the
    /// in-memory operation: the token's ledger shard, then the record's
    /// store shard (under which the WAL work is enqueued, so log order
    /// equals apply order), then — for durable accepts — the shard's
    /// group-commit lock while this thread either leads a batch commit
    /// or collects the verdict a previous leader already published. The
    /// store lock is released before any I/O, so reads and other shards
    /// never wait on the fsync.
    pub fn ingest_verified(&self, upload: &UploadRequest, signature_valid: bool) -> IngestOutcome {
        if !signature_valid {
            self.stats.count(RejectReason::BadToken);
            return IngestOutcome::Rejected(RejectReason::BadToken);
        }

        // Trace the shard handoff (ledger spend + store append + WAL
        // enqueue) as one span; the durability wait below is a sibling.
        // A no-op unless this thread is inside a sampled trace.
        let ingest_span = orsp_obs::trace::child("ingest_shard");

        let key = upload.token.ledger_key();
        {
            let _rank = lockorder::enter(rank::LEDGER_SHARD);
            let mut ledger = self.ledgers[shard_index(&key, self.ledgers.len())].lock();
            if !ledger.insert(key) {
                drop(ledger);
                drop(_rank);
                self.stats.count(RejectReason::DoubleSpend);
                return IngestOutcome::Rejected(RejectReason::DoubleSpend);
            }
        }
        // From here the token stays spent even if the store refuses the
        // record — identical to the sequential redeem-then-append path.

        let shard = &self.shards[self.shard_of(&upload.record_id)];
        let rank_store = lockorder::enter(rank::STORE_SHARD);
        self.store_locks.fetch_add(1, Relaxed);
        let mut store = shard.store.lock();
        match store.append(upload.record_id, upload.entity, upload.interaction) {
            Ok(()) => {
                self.stats.accepted.fetch_add(1, Relaxed);
                let wired = self.wal.read().clone();
                match wired {
                    Some((sink, config)) => {
                        // Enqueue while the store lock is still held:
                        // the queue sequences items exactly in apply
                        // order. The spend rides along so one fsync
                        // covers both the ledger entry and the record.
                        let entry = WalEntry {
                            record_id: upload.record_id,
                            entity: upload.entity,
                            interaction: upload.interaction,
                        };
                        let ticket = {
                            let _rank_q = lockorder::enter(rank::GROUP_QUEUE);
                            let mut q = shard.queue.lock();
                            let t = q.next_ticket;
                            q.next_ticket += 1;
                            q.pending.push_back((
                                t,
                                WalBatchItem { spend: Some(key), entry },
                            ));
                            t
                        };
                        drop(store);
                        drop(rank_store);
                        ingest_span.end();
                        match self.await_durable(shard, &*sink, config, ticket) {
                            Ok(()) => IngestOutcome::Accepted,
                            Err(e) => IngestOutcome::AcceptedNotDurable(e),
                        }
                    }
                    None => IngestOutcome::Accepted,
                }
            }
            Err(OrspError::UploadRejected(_)) => {
                self.stats.count(RejectReason::EntityMismatch);
                IngestOutcome::Rejected(RejectReason::EntityMismatch)
            }
            Err(_) => {
                self.stats.count(RejectReason::BadRecord);
                IngestOutcome::Rejected(RejectReason::BadRecord)
            }
        }
    }

    /// Block until the fsync covering `ticket` has returned, leading the
    /// commit if this thread wins the shard's commit lock first.
    ///
    /// Leader election is a non-blocking bid: every enqueuer polls the
    /// queue's `durable_through` and, while uncovered, `try_lock`s
    /// `shard.commit`; the winner drains the queue in ticket order — up
    /// to `config.batch_max` items per batch, one sink call (one fsync)
    /// per batch — until its own ticket is covered, then releases the
    /// lock. Losers spin-then-nap on the queue state instead of queueing
    /// on the commit lock: a follower whose record just became durable
    /// must return (and get back to producing) without waiting out the
    /// *next* leader's fsync, which is what blocking on the lock would
    /// cost — measured, that convoy caps grouping near two records per
    /// fsync no matter how many uploaders a shard has. No thread ever
    /// returns before the sink call covering its record has, which is
    /// the whole durability contract.
    fn await_durable(
        &self,
        shard: &StoreShard,
        sink: &dyn WalSink,
        config: GroupCommitConfig,
        ticket: u64,
    ) -> orsp_types::Result<()> {
        // Covers the whole durability wait, leader or follower; the
        // leader opens `group_commit_lead`/`wal_fsync` children inside.
        let _wait_span = orsp_obs::trace::child("group_commit_wait");
        let mut bids_lost = 0u32;
        let _commit = loop {
            {
                let _rank_q = lockorder::enter(rank::GROUP_QUEUE);
                let mut q = shard.queue.lock();
                if q.durable_through > ticket {
                    // A leader carried this ticket.
                    return match q.failed.remove(&ticket) {
                        Some(e) => Err(e),
                        None => Ok(()),
                    };
                }
            }
            let _rank_commit = lockorder::enter(rank::WAL_ORDER);
            match shard.commit.try_lock() {
                Some(guard) => break (guard, _rank_commit),
                None => {
                    drop(_rank_commit);
                    bids_lost += 1;
                    if bids_lost <= 64 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(std::time::Duration::from_micros(20));
                    }
                }
            }
        };
        {
            // The bid raced a leader's publish: re-check now that the
            // lock is held (tickets drain only under it, so from here
            // an uncovered ticket is still in the queue).
            let _rank_q = lockorder::enter(rank::GROUP_QUEUE);
            let mut q = shard.queue.lock();
            if q.durable_through > ticket {
                return match q.failed.remove(&ticket) {
                    Some(e) => Err(e),
                    None => Ok(()),
                };
            }
        }
        let _lead_span = orsp_obs::trace::child("group_commit_lead");
        // This thread is the leader. Optionally hold the first batch
        // open so concurrent uploaders can join it — but adaptively:
        // poll the queue and sync as soon as arrivals dry up or the
        // batch is full, so `window_us` bounds the straggler wait
        // instead of being paid in full on every commit.
        if config.window_us > 0 {
            let deadline = std::time::Instant::now()
                + std::time::Duration::from_micros(config.window_us);
            let mut seen = {
                let _rank_q = lockorder::enter(rank::GROUP_QUEUE);
                shard.queue.lock().pending.len()
            };
            while seen < config.batch_max && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_micros(25));
                let len = {
                    let _rank_q = lockorder::enter(rank::GROUP_QUEUE);
                    shard.queue.lock().pending.len()
                };
                if len == seen {
                    break; // arrivals dried up; waiting longer is dead air
                }
                seen = len;
            }
        }
        loop {
            let (first, batch) = {
                let _rank_q = lockorder::enter(rank::GROUP_QUEUE);
                let mut q = shard.queue.lock();
                let n = q.pending.len().min(config.batch_max.max(1));
                debug_assert!(n > 0, "leader with an undrained ticket, empty queue");
                let first = q.pending.front().map(|(t, _)| *t).unwrap_or(ticket);
                let batch: Vec<WalBatchItem> =
                    q.pending.drain(..n).map(|(_, item)| item).collect();
                (first, batch)
            };
            let last = first + batch.len() as u64 - 1;
            let fsync_span = orsp_obs::trace::child("wal_fsync");
            let result = sink.log_upload_batch(&batch);
            fsync_span.end();
            {
                let _rank_q = lockorder::enter(rank::GROUP_QUEUE);
                let mut q = shard.queue.lock();
                q.durable_through = last + 1;
                if let Err(e) = &result {
                    for t in first..=last {
                        if t != ticket {
                            q.failed.insert(t, e.clone());
                        }
                    }
                }
            }
            if ticket <= last {
                // Our own record was in this batch: its fsync (or
                // failure) is the verdict, and leadership ends here —
                // anything still queued belongs to the next leader.
                return result;
            }
        }
    }

    /// Counter snapshot (atomic sums; exact once concurrent callers have
    /// returned).
    pub fn stats(&self) -> IngestStats {
        self.stats.snapshot()
    }

    /// Total histories across shards.
    pub fn store_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let _rank = lockorder::enter(rank::STORE_SHARD);
                self.store_locks.fetch_add(1, Relaxed);
                s.store.lock().len()
            })
            .sum()
    }

    /// Total interactions across shards.
    pub fn total_interactions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let _rank = lockorder::enter(rank::STORE_SHARD);
                self.store_locks.fetch_add(1, Relaxed);
                s.store.lock().total_interactions()
            })
            .sum()
    }

    /// Every entity's mergeable aggregate parts — the aggregate-publish
    /// path. It walks the whole store once, one brief shard lock at a
    /// time, and folds each history into its entity's parts in place:
    /// no history is cloned. The parts are order-free sums plus a list
    /// sorted at the end, so they equal
    /// [`crate::AggregatePublisher::parts_from_histories`] over the same
    /// histories whatever the shard layout.
    pub fn aggregate_parts(&self) -> HashMap<EntityId, AggregateParts> {
        let mut out: HashMap<EntityId, AggregateParts> = HashMap::new();
        for shard in &self.shards {
            let _rank = lockorder::enter(rank::STORE_SHARD);
            self.store_locks.fetch_add(1, Relaxed);
            let store = shard.store.lock();
            for (_, stored) in store.iter() {
                out.entry(stored.entity)
                    .or_insert_with(|| AggregateParts::empty(stored.entity))
                    .add(stored);
            }
        }
        for parts in out.values_mut() {
            parts.sort_effort_points();
        }
        out
    }

    /// Clone out every history for one entity, one brief shard lock at a
    /// time. Callers sort by record id before accumulating floats
    /// ([`crate::AggregatePublisher::from_histories`] does), which makes
    /// the result independent of shard layout.
    pub fn histories_for_entity(&self, entity: EntityId) -> Vec<(RecordId, StoredHistory)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let _rank = lockorder::enter(rank::STORE_SHARD);
            self.store_locks.fetch_add(1, Relaxed);
            let store = shard.store.lock();
            out.extend(
                store.histories_for_entity(entity).map(|(rid, s)| (*rid, s.clone())),
            );
        }
        out
    }

    /// Fold a recovered range of histories and spent-token keys into the
    /// serving domain — the promotion path: a follower elected primary
    /// absorbs the replicated range it had been applying to its dormant
    /// engine. Replace semantics per record (the absorbed copy is the
    /// authoritative one; a record already present is superseded, not
    /// double-appended), so absorbing is idempotent across repeated
    /// promotions of the same range. `accepted` grows by the number of
    /// *new* interactions absorbed, keeping the counter an
    /// order-independent sum.
    pub fn absorb_histories<R, T>(&self, records: R, spent_tokens: T)
    where
        R: IntoIterator<Item = (RecordId, StoredHistory)>,
        T: IntoIterator<Item = [u8; 32]>,
    {
        for (rid, stored) in records {
            let shard = &self.shards[shard_index(rid.as_bytes(), self.shards.len())];
            let _rank = lockorder::enter(rank::STORE_SHARD);
            self.store_locks.fetch_add(1, Relaxed);
            let mut store = shard.store.lock();
            let prior = store.get(&rid).map(|s| s.history.len()).unwrap_or(0);
            store.delete_record(&rid);
            let absorbed = stored.history.len();
            store.insert_history(rid, stored);
            self.stats.accepted.fetch_add(absorbed.saturating_sub(prior) as u64, Relaxed);
        }
        self.seed_spent_tokens(spent_tokens);
    }

    /// Collapse back into the single-threaded service (drain/checkpoint
    /// path). Consumes the domain, so no locks are contended.
    pub fn into_merged(self) -> (HistoryStore, IngestStats) {
        let stats = self.stats.snapshot();
        let mut merged = HistoryStore::new();
        for shard in self.shards {
            for (rid, stored) in shard.store.into_inner().into_histories() {
                merged.insert_history(rid, stored);
            }
        }
        (merged, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_crypto::{TokenMint, TokenWallet};
    use orsp_types::{
        DeviceId, Interaction, InteractionKind, SimDuration, Timestamp,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn minted_uploads(n: usize, seed: u64) -> (Vec<UploadRequest>, RsaPublicKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mint = TokenMint::new(&mut rng, 256, u32::MAX, SimDuration::DAY);
        let mut wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        let ups = (0..n)
            .map(|i| {
                wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap();
                UploadRequest {
                    record_id: RecordId::from_bytes({
                        let mut b = [0u8; 32];
                        b[0] = (i % 251) as u8;
                        b[1] = (i / 251) as u8;
                        b
                    }),
                    entity: EntityId::new((i % 5) as u64),
                    interaction: Interaction::solo(
                        InteractionKind::Visit,
                        Timestamp::from_seconds(i as i64 * 1_000),
                        SimDuration::minutes(30),
                        75.0,
                    ),
                    token: wallet.take_token().unwrap(),
                    release_at: Timestamp::EPOCH,
                }
            })
            .collect();
        (ups, mint.public_key().clone())
    }

    #[test]
    fn sharded_admission_matches_sequential_counters() {
        let (ups, key) = minted_uploads(30, 7);
        let ingest = ShardedIngest::new(8);
        for u in &ups {
            assert!(matches!(ingest.ingest(u, &key), IngestOutcome::Accepted));
        }
        // Replays double-spend; a forged token is caught with no lock.
        assert!(matches!(
            ingest.ingest(&ups[0], &key),
            IngestOutcome::Rejected(RejectReason::DoubleSpend)
        ));
        let mut forged = ups[1].clone();
        forged.token.signature = orsp_crypto::BigUint::from_u64(3);
        assert!(matches!(
            ingest.ingest(&forged, &key),
            IngestOutcome::Rejected(RejectReason::BadToken)
        ));
        let stats = ingest.stats();
        assert_eq!(stats.accepted, 30);
        assert_eq!(stats.double_spend, 1);
        assert_eq!(stats.bad_token, 1);
        assert_eq!(ingest.store_len(), 30);
        assert_eq!(ingest.total_interactions(), 30);
    }

    #[test]
    fn reshard_then_merge_round_trips() {
        let (ups, key) = minted_uploads(40, 8);
        let ingest = ShardedIngest::new(4);
        for u in &ups {
            ingest.ingest(u, &key);
        }
        let (store, stats) = ingest.into_merged();
        assert_eq!(store.len(), 40);
        assert_eq!(stats.accepted, 40);

        // Reshard to a different count: same contents, same counters.
        let resharded =
            ShardedIngest::from_service(IngestService::from_parts(store, stats), 16);
        assert_eq!(resharded.shard_count(), 16);
        assert_eq!(resharded.store_len(), 40);
        assert_eq!(resharded.stats().accepted, 40);
        let (merged, _) = resharded.into_merged();
        assert_eq!(merged.total_interactions(), 40);
    }

    #[test]
    fn entity_histories_aggregate_identically_to_merged_store() {
        let (ups, key) = minted_uploads(35, 9);
        let ingest = ShardedIngest::new(8);
        for u in &ups {
            ingest.ingest(u, &key);
        }
        // The publish folds histories in place, shard by shard: the same
        // parts, presorted, as from the cloned histories of each entity.
        let published = ingest.aggregate_parts();
        assert_eq!(published.len(), 5);
        for (&entity, parts) in &published {
            let cloned = crate::AggregatePublisher::parts_from_histories(
                entity,
                ingest.histories_for_entity(entity),
            );
            assert_eq!(*parts, cloned, "entity {entity:?}");
        }
        let entity = EntityId::new(2);
        let via_shards = crate::AggregatePublisher::from_histories(
            entity,
            ingest.histories_for_entity(entity),
        );
        let (merged, _) = ingest.into_merged();
        let via_merged = crate::AggregatePublisher::for_entity(&merged, entity);
        assert_eq!(via_shards, via_merged, "shard layout must not leak into aggregates");
    }

    #[test]
    fn store_rejection_still_consumes_the_token() {
        let (ups, key) = minted_uploads(2, 10);
        let ingest = ShardedIngest::new(4);
        assert!(matches!(ingest.ingest(&ups[0], &key), IngestOutcome::Accepted));
        // Same record id, different entity: entity mismatch, token spent.
        let mut rebind = ups[1].clone();
        rebind.record_id = ups[0].record_id;
        rebind.entity = EntityId::new(99);
        assert!(matches!(
            ingest.ingest(&rebind, &key),
            IngestOutcome::Rejected(RejectReason::EntityMismatch)
        ));
        // Retrying the same token now double-spends even with a good record.
        let mut retry = rebind.clone();
        retry.record_id = RecordId::from_bytes([77; 32]);
        retry.entity = ups[1].entity;
        assert!(matches!(
            ingest.ingest(&retry, &key),
            IngestOutcome::Rejected(RejectReason::DoubleSpend)
        ));
    }

    /// A sink that records every batch handed to `log_upload_batch`.
    struct BatchSink {
        batches: Mutex<Vec<Vec<WalBatchItem>>>,
    }

    impl WalSink for BatchSink {
        fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()> {
            self.batches.lock().push(vec![WalBatchItem { spend: None, entry: *entry }]);
            Ok(())
        }

        fn log_upload_batch(&self, items: &[WalBatchItem]) -> orsp_types::Result<()> {
            self.batches.lock().push(items.to_vec());
            Ok(())
        }
    }

    #[test]
    fn group_commit_logs_every_upload_once_in_apply_order() {
        let (ups, key) = minted_uploads(60, 21);
        let ingest = ShardedIngest::new(1); // one shard: one global queue
        let sink = Arc::new(BatchSink { batches: Mutex::new(Vec::new()) });
        ingest.set_wal_with(
            Arc::clone(&sink) as Arc<dyn WalSink>,
            GroupCommitConfig { batch_max: 8, window_us: 0 },
        );
        std::thread::scope(|s| {
            for chunk in ups.chunks(15) {
                let (ingest, key) = (&ingest, &key);
                s.spawn(move || {
                    for u in chunk {
                        assert!(matches!(ingest.ingest(u, key), IngestOutcome::Accepted));
                    }
                });
            }
        });
        let batches = sink.batches.lock();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 60, "every accepted upload logged exactly once");
        assert!(batches.iter().all(|b| !b.is_empty() && b.len() <= 8), "batch_max respected");
        assert!(batches.iter().all(|b| b.iter().all(|i| i.spend.is_some())));
        // Single shard ⇒ the concatenated batches are the apply order;
        // the store must agree record for record.
        let logged: Vec<RecordId> =
            batches.iter().flatten().map(|i| i.entry.record_id).collect();
        let (store, _) = ingest.into_merged();
        assert_eq!(logged.len(), store.len());
        for rid in &logged {
            assert!(store.iter().any(|(id, _)| id == rid));
        }
        // Each logged spend is a distinct token.
        let spends: HashSet<[u8; 32]> =
            batches.iter().flatten().filter_map(|i| i.spend).collect();
        assert_eq!(spends.len(), 60);
    }

    /// A sink whose batch commits always fail.
    struct FailingSink;

    impl WalSink for FailingSink {
        fn log_append(&self, _entry: &WalEntry) -> orsp_types::Result<()> {
            Err(OrspError::Storage("disk on fire".into()))
        }

        fn log_upload_batch(&self, _items: &[WalBatchItem]) -> orsp_types::Result<()> {
            Err(OrspError::Storage("disk on fire".into()))
        }
    }

    #[test]
    fn every_member_of_a_failed_group_learns_of_the_failure() {
        let (ups, key) = minted_uploads(24, 22);
        let ingest = ShardedIngest::new(1);
        ingest.set_wal(Arc::new(FailingSink));
        let not_durable = AtomicU64::new(0);
        std::thread::scope(|s| {
            for chunk in ups.chunks(6) {
                let (ingest, key, not_durable) = (&ingest, &key, &not_durable);
                s.spawn(move || {
                    for u in chunk {
                        match ingest.ingest(u, key) {
                            IngestOutcome::AcceptedNotDurable(OrspError::Storage(_)) => {
                                not_durable.fetch_add(1, Relaxed);
                            }
                            other => panic!("expected AcceptedNotDurable, got {other:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(not_durable.load(Relaxed), 24, "no follower mistakes failure for an ack");
        assert_eq!(ingest.stats().accepted, 24, "records applied despite sink failure");
    }

    #[test]
    fn spent_token_seed_round_trips_and_rejects_replay() {
        let (ups, key) = minted_uploads(10, 23);
        let ingest = ShardedIngest::new(4);
        for u in &ups {
            assert!(matches!(ingest.ingest(u, &key), IngestOutcome::Accepted));
        }
        let tokens = ingest.spent_tokens();
        assert_eq!(tokens.len(), 10);
        // A fresh domain seeded with the old ledger refuses the replay.
        let fresh = ShardedIngest::new(4);
        fresh.seed_spent_tokens(tokens);
        assert!(matches!(
            fresh.ingest(&ups[3], &key),
            IngestOutcome::Rejected(RejectReason::DoubleSpend)
        ));
    }

    #[test]
    fn read_paths_do_not_touch_store_locks_counter_only_moves_on_ingest() {
        let (ups, key) = minted_uploads(5, 24);
        let ingest = ShardedIngest::new(2);
        assert_eq!(ingest.store_lock_acquisitions(), 0);
        for u in &ups {
            ingest.ingest(u, &key);
        }
        let after_ingest = ingest.store_lock_acquisitions();
        assert_eq!(after_ingest, 5, "one store lock per accepted upload");
        // Ledger-only work leaves the store locks alone.
        let _ = ingest.spent_tokens();
        assert_eq!(ingest.store_lock_acquisitions(), after_ingest);
    }

    #[test]
    fn concurrent_uploads_from_many_threads_count_exactly() {
        let (ups, key) = minted_uploads(200, 11);
        let ingest = ShardedIngest::new(8);
        std::thread::scope(|s| {
            for chunk in ups.chunks(50) {
                let (ingest, key) = (&ingest, &key);
                s.spawn(move || {
                    for u in chunk {
                        assert!(matches!(
                            ingest.ingest(u, key),
                            IngestOutcome::Accepted
                        ));
                    }
                });
            }
        });
        assert_eq!(ingest.stats().accepted, 200);
        assert_eq!(ingest.store_len(), 200);
    }
}
