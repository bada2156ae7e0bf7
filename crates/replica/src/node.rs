//! One node's replication state machine.
//!
//! A [`ReplicaNode`] owns a [`StorageEngine`] per held range — the born
//! range in the node's main data dir, each followed range in its own
//! subdirectory — so every engine holds exactly one range's records and
//! spent-token keys. That structural split is what makes promotion and
//! catch-up exact: a range's authoritative state is always "whatever
//! one engine's logs replay to", never a filtered view of a shared log.
//!
//! Followed ranges are *dormant*: replicated batches reach the range
//! engine (durable) but not the serving [`ShardedIngest`], so the
//! proxy's scatter reads — which go to current primaries only — never
//! see a record twice. Promotion folds the range dir into the serving
//! store via [`ShardedIngest::absorb_histories`] and checkpoints the
//! engine at the bumped epoch, making the fence durable before the
//! first write under it is acked.
//!
//! In `sync` mode a primary sends each batch's `Replicate` first, runs
//! its own append and fsync while the followers run theirs, and only
//! then collects their answers, so a write waits for one fsync, not
//! two in a row. That order opens a window: a follower may hold a batch
//! the primary never made durable (the primary died between the send
//! and its fsync). That batch was never acked, and the device retries
//! its token; if the primary comes back without failing over, it
//! accepts the retry and forwards it again. A follower therefore
//! applies idempotently by spend key: each range keeps the set of
//! ledger keys its engine holds — seeded from the recovery report,
//! otherwise rebuilt from the range's directory before its first
//! apply — and skips, but acknowledges, any item whose key it already
//! holds. The same rule absorbs a `Replicate` the net client resent
//! after a lost ack.

use crate::catchup;
use crate::peer::{PeerLink, ReplicationMode};
use orsp_net::{NetError, ReplicaHook, ReplicateOutcome, Request, Response};
use orsp_obs::{trace, Counter, Gauge, Registry};
use orsp_server::{ShardedIngest, Topology, WalBatchItem};
use orsp_storage::{scan_source, Dir, StorageEngine};
use orsp_types::{OrspError, RecordId};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// What went wrong in the replication tier.
#[derive(Debug)]
pub enum ReplicaError {
    /// A peer call failed at the transport layer.
    Net(NetError),
    /// A local engine or scan failed.
    Storage(orsp_storage::StorageError),
    /// A peer answered something the protocol does not allow here.
    Protocol(String),
    /// The catch-up rebuild did not reproduce the primary's state —
    /// the invariant the whole crate exists to uphold.
    DigestMismatch {
        /// Our rebuilt digest.
        ours: u32,
        /// The primary's digest.
        theirs: u32,
    },
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Net(e) => write!(f, "peer call failed: {e}"),
            ReplicaError::Storage(e) => write!(f, "storage failed: {e}"),
            ReplicaError::Protocol(d) => write!(f, "protocol violation: {d}"),
            ReplicaError::DigestMismatch { ours, theirs } => {
                write!(f, "catch-up digest mismatch: rebuilt {ours:08x}, primary {theirs:08x}")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<NetError> for ReplicaError {
    fn from(e: NetError) -> Self {
        ReplicaError::Net(e)
    }
}

impl From<orsp_storage::StorageError> for ReplicaError {
    fn from(e: orsp_storage::StorageError) -> Self {
        ReplicaError::Storage(e)
    }
}

/// A node's current duty for one range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Serving reads and accepting writes for the range.
    Primary,
    /// Holding a dormant durable copy; refuses direct writes.
    Follower,
}

/// Everything [`ReplicaNode::new`] needs to register one held range.
pub struct RangeInit {
    /// The hash range.
    pub range: u32,
    /// Starting role (the daemon decides after probing its peers).
    pub role: Role,
    /// Starting epoch (from the range engine's recovery report).
    pub epoch: u64,
    /// The range's directory — scanned for promotion and catch-up.
    pub dir: Arc<dyn Dir>,
    /// The range's engine, already recovered from `dir`.
    pub engine: Arc<StorageEngine>,
}

struct RangeState {
    role: Role,
    epoch: u64,
    dir: Arc<dyn Dir>,
    engine: Arc<StorageEngine>,
    /// Every spend key the range's engine holds, so a replayed item is
    /// skipped. `None` until seeded or rebuilt: a primary's serving
    /// ledger does this duty, so promotion drops the set and demotion
    /// leaves it to be rebuilt from `dir`.
    spent: Option<HashSet<[u8; 32]>>,
}

impl RangeState {
    /// The range's spend keys, rebuilt from its directory if unknown.
    fn spent_keys(&mut self) -> Result<&mut HashSet<[u8; 32]>, orsp_storage::StorageError> {
        let keys = match self.spent.take() {
            Some(keys) => keys,
            None => scan_source(self.dir.as_ref())?.spent_tokens,
        };
        Ok(self.spent.insert(keys))
    }
}

struct Metrics {
    forwarded: Counter,
    degraded: Counter,
    fenced: Counter,
    demotions: Counter,
    applied: Counter,
    promotions: Counter,
    catch_up_chunks: Counter,
    lag: Gauge,
}

impl Metrics {
    fn new(obs: &Registry) -> Metrics {
        Metrics {
            forwarded: obs.counter("replication_forwarded_total"),
            degraded: obs.counter("replication_degraded_total"),
            fenced: obs.counter("replication_fenced_total"),
            demotions: obs.counter("replication_demotions_total"),
            applied: obs.counter("replication_applied_total"),
            promotions: obs.counter("replication_promotions_total"),
            catch_up_chunks: obs.counter("catch_up_chunks_served_total"),
            lag: obs.gauge("replication_lag"),
        }
    }
}

/// State shared with the async forwarding worker.
struct Shared {
    topology: Topology,
    ranges: HashMap<u32, Mutex<RangeState>>,
    peers: Vec<Option<Arc<dyn PeerLink>>>,
    metrics: Metrics,
}

struct QueuedBatch {
    range: u32,
    epoch: u64,
    items: Vec<WalBatchItem>,
}

/// One node's replication brain. Register it on the service with
/// [`orsp_net::RspService::set_replica`] and wire its
/// [`ReplicatingSink`](crate::ReplicatingSink) as the durability sink.
pub struct ReplicaNode {
    shared: Arc<Shared>,
    mode: ReplicationMode,
    tx: Mutex<Option<mpsc::Sender<QueuedBatch>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl ReplicaNode {
    /// Build a node over its held ranges. `peers` is indexed by node id
    /// (`None` at this node's own slot, or for nodes it never calls).
    /// `mode == Async` spawns the background forwarding worker.
    pub fn new(
        topology: Topology,
        mode: ReplicationMode,
        peers: Vec<Option<Arc<dyn PeerLink>>>,
        ranges: Vec<RangeInit>,
        obs: &Registry,
    ) -> ReplicaNode {
        assert_eq!(peers.len(), topology.cluster_size as usize, "one peer slot per node");
        let map: HashMap<u32, Mutex<RangeState>> = ranges
            .into_iter()
            .map(|init| {
                assert!(topology.holds(init.range), "range {} not held", init.range);
                init.engine.set_epoch(init.epoch);
                (
                    init.range,
                    Mutex::new(RangeState {
                        role: init.role,
                        epoch: init.epoch,
                        dir: init.dir,
                        engine: init.engine,
                        spent: None,
                    }),
                )
            })
            .collect();
        let shared = Arc::new(Shared { topology, ranges: map, peers, metrics: Metrics::new(obs) });
        let (tx, worker) = if mode == ReplicationMode::Async {
            let (tx, rx) = mpsc::channel::<QueuedBatch>();
            let shared_for_worker = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("replica-forward".into())
                .spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        forward(&shared_for_worker, batch.range, batch.epoch, &batch.items);
                        shared_for_worker.metrics.lag.add(-1);
                    }
                })
                .expect("spawn replication worker");
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };
        ReplicaNode { shared, mode, tx: Mutex::new(tx), worker: Mutex::new(worker) }
    }

    /// The node's topology.
    pub fn topology(&self) -> Topology {
        self.shared.topology
    }

    /// Seed `range`'s spend-key set from its engine's recovery report,
    /// which saves the directory scan an unseeded range makes before its
    /// first `Replicate`. A no-op for a range this node does not hold.
    pub fn seed_spent_tokens(&self, range: u32, keys: HashSet<[u8; 32]>) {
        if let Some(state) = self.shared.ranges.get(&range) {
            state.lock().spent = Some(keys);
        }
    }

    /// Drain the async queue (if any) and stop the worker. Idempotent;
    /// call before the final checkpoints so queued batches reach their
    /// followers.
    pub fn shutdown(&self) {
        drop(self.tx.lock().take());
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }

    /// The primary's write path, called by the sink with one
    /// group-commit batch already bucketed to `range`. In `sync` mode:
    /// send the batch to every follower, append it to the range engine
    /// (one fsync) while they apply it, then collect every answer
    /// before the ack. In `async` mode: append, then queue the forward.
    pub(crate) fn replicate_batch(
        &self,
        range: u32,
        items: &[WalBatchItem],
    ) -> orsp_types::Result<()> {
        let Some(state) = self.shared.ranges.get(&range) else {
            return Err(OrspError::Storage(format!("range {range} is not held by this node")));
        };
        let (engine, epoch, role) = {
            let st = state.lock();
            (Arc::clone(&st.engine), st.epoch, st.role)
        };
        if role != Role::Primary {
            // `pre_upload` refuses these before the token is spent;
            // this closes the race where demotion lands mid-request.
            return Err(OrspError::Storage(format!("range {range} demoted; not primary")));
        }
        match self.mode {
            ReplicationMode::Sync => {
                let request =
                    Request::Replicate { range, epoch, promote: false, items: items.to_vec() };
                // The span runs from the first send to the last answer;
                // the local append runs beside it, so its
                // `storage_fsync` is the span's sibling, not its child.
                let span = trace::child("replicate");
                let followers = self.shared.followers(range);
                let pending: Vec<_> = followers
                    .iter()
                    .map(|peer| {
                        self.shared.metrics.forwarded.inc();
                        peer.send(&request)
                    })
                    .collect();
                let local = {
                    let _beside = span.beside();
                    engine.append_upload_batch(items)
                };
                // Collect every answer even when the local append
                // failed: no pooled connection may keep an unread one.
                let mut fenced = None;
                for (peer, pending) in followers.iter().zip(pending) {
                    fenced = fenced.max(settle(&self.shared, range, peer.collect(pending)));
                }
                span.end();
                local.map_err(OrspError::from)?;
                match fenced {
                    Some(fenced_at) => Err(OrspError::Storage(format!(
                        "range {range} fenced at epoch {fenced_at}: a newer primary exists"
                    ))),
                    None => Ok(()),
                }
            }
            ReplicationMode::Async => {
                engine.append_upload_batch(items).map_err(OrspError::from)?;
                if let Some(tx) = self.tx.lock().as_ref() {
                    self.shared.metrics.lag.add(1);
                    let _ = tx.send(QueuedBatch { range, epoch, items: items.to_vec() });
                }
                Ok(())
            }
        }
    }
}

impl Shared {
    /// The links to every other member of `range`'s replica set, in
    /// ascending node order: the one order in which a caller may hold
    /// pooled connections to several peers at once.
    fn followers(&self, range: u32) -> Vec<&dyn PeerLink> {
        let mut members = self.topology.peers_of(range);
        members.sort_unstable();
        members
            .into_iter()
            .filter_map(|node| self.peers.get(node as usize).and_then(|p| p.as_deref()))
            .collect()
    }
}

/// Forward one batch to every other member of the range's replica set,
/// one call after another (the async worker's path). Returns
/// `Some(current)` iff a follower fenced us with a strictly higher
/// epoch — the caller fails the write; we have already demoted.
fn forward(shared: &Shared, range: u32, epoch: u64, items: &[WalBatchItem]) -> Option<u64> {
    let request = Request::Replicate { range, epoch, promote: false, items: items.to_vec() };
    let span = trace::child("replicate");
    let mut fenced = None;
    for peer in shared.followers(range) {
        shared.metrics.forwarded.inc();
        fenced = settle(shared, range, peer.call(&request));
        if fenced.is_some() {
            break;
        }
    }
    span.end();
    fenced
}

/// Account for one follower's answer to a `Replicate`. A `StaleEpoch`
/// demotes the range and returns `Some(current)`. Anything else but an
/// ack only degrades (counted): availability over strict copy count, by
/// design — see DESIGN §9.
fn settle(shared: &Shared, range: u32, answer: Result<Response, NetError>) -> Option<u64> {
    match answer {
        Ok(Response::ReplicateAck { .. }) => None,
        Ok(Response::StaleEpoch { current, .. }) => {
            demote(shared, range, current);
            Some(current)
        }
        Ok(_) | Err(_) => {
            shared.metrics.degraded.inc();
            None
        }
    }
}

/// Step aside for a newer primary: adopt its epoch and stop taking
/// writes. The epoch becomes durable at the next checkpoint; until then
/// the in-memory role already fails writes closed, and a replayed
/// rejoin re-fences against the live peers, so an unluckily-timed crash
/// cannot resurrect the old primary.
fn demote(shared: &Shared, range: u32, current: u64) {
    if let Some(state) = shared.ranges.get(&range) {
        let mut st = state.lock();
        if current > st.epoch {
            st.epoch = current;
            st.engine.set_epoch(current);
        }
        if st.role == Role::Primary {
            st.role = Role::Follower;
            // Rebuilt from the directory before the next apply.
            st.spent = None;
            shared.metrics.demotions.inc();
        }
    }
}

impl ReplicaHook for ReplicaNode {
    fn pre_upload(&self, record_id: &RecordId) -> Result<(), Response> {
        let range = self.shared.topology.range_of(record_id);
        match self.shared.ranges.get(&range) {
            Some(state) => {
                let st = state.lock();
                if st.role == Role::Primary {
                    Ok(())
                } else {
                    Err(Response::Unavailable {
                        detail: format!(
                            "range {range} demoted at epoch {}: this node is a follower",
                            st.epoch
                        ),
                    })
                }
            }
            None => Err(Response::Unavailable {
                detail: format!("range {range} is not held by this node"),
            }),
        }
    }

    fn apply_replicate(
        &self,
        ingest: &ShardedIngest,
        range: u32,
        epoch: u64,
        promote: bool,
        items: &[WalBatchItem],
    ) -> ReplicateOutcome {
        let Some(state) = self.shared.ranges.get(&range) else {
            return ReplicateOutcome::Failed(format!("range {range} is not held by this node"));
        };
        let mut st = state.lock();
        if epoch < st.epoch {
            self.shared.metrics.fenced.inc();
            return ReplicateOutcome::Stale { current: st.epoch };
        }
        if promote {
            if epoch == st.epoch && st.role == Role::Primary {
                // Idempotent re-promotion (a proxy retry); nothing to fold.
                return ReplicateOutcome::Applied { epoch, applied: 0, promoted: false };
            }
            // Fold the dormant range into the serving store, then make
            // the new epoch durable *before* acknowledging: the first
            // write acked under this epoch must never race a recovery
            // that forgot the fence.
            let scan = match scan_source(st.dir.as_ref()) {
                Ok(scan) => scan,
                Err(e) => return ReplicateOutcome::Failed(format!("promotion scan: {e}")),
            };
            st.epoch = epoch;
            st.engine.set_epoch(epoch);
            if let Err(e) = st.engine.checkpoint(&scan.store, &scan.stats, &scan.spent_tokens) {
                return ReplicateOutcome::Failed(format!("promotion checkpoint: {e}"));
            }
            ingest.absorb_histories(scan.store.into_histories(), scan.spent_tokens.iter().copied());
            st.role = Role::Primary;
            // The serving ledger, seeded from the same scan, now skips
            // replayed spends; the range's own set is not needed.
            st.spent = None;
            self.shared.metrics.promotions.inc();
            return ReplicateOutcome::Applied { epoch, applied: 0, promoted: true };
        }
        if epoch > st.epoch {
            // A newer primary exists. Adopt its epoch — and if we
            // thought *we* were primary, we missed our own succession:
            // step down before applying.
            st.epoch = epoch;
            st.engine.set_epoch(epoch);
            if st.role == Role::Primary {
                st.role = Role::Follower;
                st.spent = None;
                self.shared.metrics.demotions.inc();
            }
        }
        // A replayed item — a resend after a lost ack, or the retry of a
        // write whose primary died before its own fsync — is already
        // here: acknowledge it without applying it twice.
        let fresh: Vec<WalBatchItem> = match st.spent_keys() {
            Ok(spent) => items
                .iter()
                .filter(|item| item.spend.map_or(true, |key| !spent.contains(&key)))
                .copied()
                .collect(),
            Err(e) => return ReplicateOutcome::Failed(format!("spend-key scan: {e}")),
        };
        if let Err(e) = st.engine.append_upload_batch(&fresh) {
            return ReplicateOutcome::Failed(format!("follower append: {e}"));
        }
        if let Some(spent) = st.spent.as_mut() {
            spent.extend(fresh.iter().filter_map(|item| item.spend));
        }
        self.shared.metrics.applied.add(fresh.len() as u64);
        ReplicateOutcome::Applied { epoch: st.epoch, applied: fresh.len() as u64, promoted: false }
    }

    fn serve_catch_up(&self, _ingest: &ShardedIngest, range: u32, cursor: u64) -> Response {
        let Some(state) = self.shared.ranges.get(&range) else {
            return Response::Unavailable {
                detail: format!("range {range} is not held by this node"),
            };
        };
        let (dir, epoch, primary) = {
            let st = state.lock();
            (Arc::clone(&st.dir), st.epoch, st.role == Role::Primary)
        };
        self.shared.metrics.catch_up_chunks.inc();
        match catchup::catch_up_chunk(dir.as_ref(), epoch, primary, cursor) {
            Ok(chunk) => chunk,
            Err(e) => Response::Error { detail: format!("catch-up scan: {e}") },
        }
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::Pending;
    use crate::ReplicatingSink;
    use orsp_crypto::{BigUint, Token, UploadRequest};
    use orsp_net::{ClientConfig, FrameService, NetPool, NetServer, ServerConfig};
    use orsp_obs::TraceContext;
    use orsp_server::{GroupCommitConfig, IngestOutcome, IngestStats, WalEntry, WalSink};
    use orsp_storage::{state_digest, FaultPlan, FsyncPolicy, SegmentFile, SimDir, StorageOptions};
    use orsp_types::{EntityId, Interaction, InteractionKind, SimDuration, Timestamp};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    /// One shard, so a batch is exactly one write and one fsync.
    fn opts() -> StorageOptions {
        StorageOptions { shard_count: 1, fsync: FsyncPolicy::Always, ..StorageOptions::default() }
    }

    fn item(n: u8) -> WalBatchItem {
        WalBatchItem {
            spend: Some([n; 32]),
            entry: WalEntry {
                record_id: RecordId::from_bytes([n; 32]),
                entity: EntityId::new(u64::from(n % 3)),
                interaction: Interaction::solo(
                    InteractionKind::Visit,
                    Timestamp::from_seconds(i64::from(n) * 100),
                    SimDuration::minutes(20),
                    150.0,
                ),
            },
        }
    }

    fn range_init(dir: Arc<dyn Dir>, role: Role) -> RangeInit {
        let (engine, _) = StorageEngine::open(Arc::clone(&dir), opts()).expect("open engine");
        RangeInit { range: 0, role, epoch: 1, dir, engine: Arc::new(engine) }
    }

    /// Range 0's primary in a two-node ring whose one follower is `peer`.
    fn primary(dir: Arc<dyn Dir>, peer: Arc<dyn PeerLink>, obs: &Registry) -> ReplicaNode {
        ReplicaNode::new(
            Topology::new(0, 2, 2),
            ReplicationMode::Sync,
            vec![None, Some(peer)],
            vec![range_init(dir, Role::Primary)],
            obs,
        )
    }

    /// Range 0's follower: node 1 of the same ring.
    fn follower(dir: &SimDir) -> Arc<ReplicaNode> {
        Arc::new(ReplicaNode::new(
            Topology::new(1, 2, 2),
            ReplicationMode::Sync,
            vec![None, None],
            vec![range_init(Arc::new(dir.clone()), Role::Follower)],
            &Registry::new(),
        ))
    }

    fn digest(dir: &SimDir) -> u32 {
        let scan = scan_source(dir).expect("scan");
        state_digest(&scan.store, &IngestStats::default(), &scan.spent_tokens)
    }

    /// A follower that gives `answer` as the batch leaves, noting how
    /// many syncs the primary's disk had made by then; with `crash` it
    /// also kills that disk, so the primary's own append fails after the
    /// send. Counts both halves of every call.
    struct Scripted {
        answer: fn() -> Result<Response, NetError>,
        primary_dir: SimDir,
        crash: bool,
        syncs_at_send: AtomicU64,
        sent: AtomicU64,
        collected: AtomicU64,
    }

    impl Scripted {
        fn new(primary_dir: &SimDir, answer: fn() -> Result<Response, NetError>) -> Scripted {
            Scripted {
                answer,
                primary_dir: primary_dir.clone(),
                crash: false,
                syncs_at_send: AtomicU64::new(u64::MAX),
                sent: AtomicU64::new(0),
                collected: AtomicU64::new(0),
            }
        }
    }

    impl PeerLink for Scripted {
        fn call(&self, _request: &Request) -> Result<Response, NetError> {
            (self.answer)()
        }

        fn send(&self, request: &Request) -> Pending<'_> {
            self.sent.fetch_add(1, Ordering::SeqCst);
            self.syncs_at_send.store(self.primary_dir.sync_count(), Ordering::SeqCst);
            if self.crash {
                self.primary_dir.crash_now();
            }
            Pending::Answered(self.call(request))
        }

        fn collect(&self, pending: Pending<'_>) -> Result<Response, NetError> {
            self.collected.fetch_add(1, Ordering::SeqCst);
            match pending {
                Pending::Answered(answer) => answer,
                Pending::OnTheWire(_) => unreachable!("a fake never touches the wire"),
            }
        }

        fn label(&self) -> String {
            "scripted".into()
        }
    }

    fn ack() -> Result<Response, NetError> {
        Ok(Response::ReplicateAck { epoch: 1, applied: 1 })
    }

    /// Set up a primary over a fresh disk whose follower is `peer`.
    fn scripted_primary(
        answer: fn() -> Result<Response, NetError>,
        crash: bool,
    ) -> (SimDir, Arc<Scripted>, ReplicaNode, Registry) {
        let dir = SimDir::new();
        let peer = Arc::new(Scripted { crash, ..Scripted::new(&dir, answer) });
        let obs = Registry::new();
        let node = primary(Arc::new(dir.clone()), Arc::clone(&peer) as Arc<dyn PeerLink>, &obs);
        (dir, peer, node, obs)
    }

    #[test]
    fn the_replicate_leaves_before_the_local_fsync_and_is_collected_after_it() {
        let (dir, peer, node, obs) = scripted_primary(ack, false);
        let before = dir.sync_count();
        node.replicate_batch(0, &[item(1), item(2)]).expect("acked");
        assert_eq!(peer.syncs_at_send.load(Ordering::SeqCst), before, "no fsync before the send");
        assert!(dir.sync_count() > before, "the batch was fsynced");
        assert_eq!(peer.sent.load(Ordering::SeqCst), 1);
        assert_eq!(peer.collected.load(Ordering::SeqCst), 1, "every answer collected");
        assert_eq!(obs.counter("replication_forwarded_total").get(), 1);
        assert_eq!(obs.counter("replication_degraded_total").get(), 0);
    }

    #[test]
    fn a_failed_local_append_still_collects_and_refuses_the_write() {
        let (_dir, peer, node, _obs) = scripted_primary(ack, true);
        assert!(node.replicate_batch(0, &[item(1)]).is_err(), "the write is refused");
        assert_eq!(peer.sent.load(Ordering::SeqCst), 1);
        assert_eq!(peer.collected.load(Ordering::SeqCst), 1, "the answer was still read");
    }

    #[test]
    fn a_stale_epoch_answer_demotes_the_range_and_refuses_the_write() {
        let (dir, peer, node, obs) =
            scripted_primary(|| Ok(Response::StaleEpoch { range: 0, current: 5 }), false);
        let before = dir.sync_count();
        let refused = node.replicate_batch(0, &[item(1)]).expect_err("fenced");
        assert!(refused.to_string().contains("fenced at epoch 5"), "{refused}");
        assert!(dir.sync_count() > before, "the local append itself succeeded");
        assert_eq!(peer.collected.load(Ordering::SeqCst), 1);
        assert!(node.pre_upload(&item(2).entry.record_id).is_err(), "range demoted");
        assert_eq!(obs.counter("replication_demotions_total").get(), 1);
        assert!(node.replicate_batch(0, &[item(3)]).is_err(), "no write after demotion");
    }

    #[test]
    fn a_dead_follower_only_degrades() {
        // A real pool dialling a port nothing listens on.
        let addr = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let dead: Arc<dyn PeerLink> = Arc::new(NetPool::new(addr, ClientConfig::default(), 2));
        let dir = SimDir::new();
        let obs = Registry::new();
        let node = primary(Arc::new(dir.clone()), dead, &obs);
        node.replicate_batch(0, &[item(1)]).expect("acked without the follower");
        assert_eq!(obs.counter("replication_degraded_total").get(), 1);
        assert_eq!(scan_source(&dir).unwrap().store.len(), 1, "the local copy is durable");
    }

    /// Every segment sync sleeps `delay` once `armed`.
    struct SlowSyncDir {
        inner: SimDir,
        armed: Arc<AtomicBool>,
        delay: Duration,
    }

    struct SlowSyncFile {
        inner: Box<dyn SegmentFile>,
        armed: Arc<AtomicBool>,
        delay: Duration,
    }

    impl Dir for SlowSyncDir {
        fn create(&self, name: &str) -> orsp_storage::Result<Box<dyn SegmentFile>> {
            Ok(Box::new(SlowSyncFile {
                inner: self.inner.create(name)?,
                armed: Arc::clone(&self.armed),
                delay: self.delay,
            }))
        }
        fn read(&self, name: &str) -> orsp_storage::Result<Vec<u8>> {
            self.inner.read(name)
        }
        fn list(&self) -> orsp_storage::Result<Vec<String>> {
            self.inner.list()
        }
        fn delete(&self, name: &str) -> orsp_storage::Result<()> {
            self.inner.delete(name)
        }
        fn truncate(&self, name: &str, len: u64) -> orsp_storage::Result<()> {
            self.inner.truncate(name, len)
        }
    }

    impl SegmentFile for SlowSyncFile {
        fn append(&mut self, buf: &[u8]) -> orsp_storage::Result<()> {
            self.inner.append(buf)
        }
        fn sync(&mut self) -> orsp_storage::Result<()> {
            if self.armed.load(Ordering::SeqCst) {
                std::thread::sleep(self.delay);
            }
            self.inner.sync()
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    /// A follower whose apply takes `delay`.
    struct SlowFollower {
        obs: Arc<Registry>,
        delay: Duration,
    }

    impl FrameService for SlowFollower {
        fn handle_traced(&self, request: Request, _ctx: Option<TraceContext>) -> Response {
            match request {
                Request::Replicate { epoch, items, .. } => {
                    std::thread::sleep(self.delay);
                    Response::ReplicateAck { epoch, applied: items.len() as u64 }
                }
                _ => Response::Pong,
            }
        }

        fn obs(&self) -> &Arc<Registry> {
            &self.obs
        }
    }

    #[test]
    fn over_tcp_the_follower_applies_while_the_primary_fsyncs() {
        let delay = Duration::from_millis(150);
        let service = Arc::new(SlowFollower { obs: Arc::new(Registry::new()), delay });
        let server = NetServer::bind("127.0.0.1:0", service, ServerConfig::default())
            .expect("bind follower");
        let pool = Arc::new(NetPool::new(server.local_addr(), ClientConfig::default(), 2));
        // Dial before timing.
        assert!(matches!(PeerLink::call(pool.as_ref(), &Request::Ping), Ok(Response::Pong)));

        let armed = Arc::new(AtomicBool::new(false));
        let dir = SlowSyncDir { inner: SimDir::new(), armed: Arc::clone(&armed), delay };
        let obs = Registry::new();
        let node = primary(Arc::new(dir), pool as Arc<dyn PeerLink>, &obs);
        armed.store(true, Ordering::SeqCst);
        let started = Instant::now();
        node.replicate_batch(0, &[item(1)]).expect("acked");
        let took = started.elapsed();
        assert_eq!(obs.counter("replication_degraded_total").get(), 0);
        // In a row the two would take 300 ms.
        assert!(took < Duration::from_millis(250), "fsync and forward overlap: took {took:?}");
        server.shutdown();
    }

    /// A follower reached without a wire. Each `Replicate` is delivered
    /// `1 + replays` times, as a net client resending after a lost ack
    /// would; `cut` kills the primary's disk once the batch has landed.
    struct InProcess {
        node: Arc<ReplicaNode>,
        ingest: ShardedIngest,
        replays: usize,
        cut: Option<SimDir>,
    }

    impl InProcess {
        fn link(node: &Arc<ReplicaNode>, replays: usize, cut: Option<SimDir>) -> Arc<dyn PeerLink> {
            Arc::new(InProcess {
                node: Arc::clone(node),
                ingest: ShardedIngest::new(1),
                replays,
                cut,
            })
        }
    }

    impl PeerLink for InProcess {
        fn call(&self, request: &Request) -> Result<Response, NetError> {
            let Request::Replicate { range, epoch, promote, items } = request else {
                panic!("follower got {request:?}");
            };
            let mut outcome = None;
            for _ in 0..=self.replays {
                outcome =
                    Some(self.node.apply_replicate(&self.ingest, *range, *epoch, *promote, items));
            }
            if let Some(disk) = &self.cut {
                disk.crash_now();
            }
            Ok(match outcome.expect("delivered") {
                ReplicateOutcome::Applied { epoch, applied, .. } => {
                    Response::ReplicateAck { epoch, applied }
                }
                ReplicateOutcome::Stale { current } => {
                    Response::StaleEpoch { range: *range, current }
                }
                ReplicateOutcome::Failed(detail) => Response::Error { detail },
            })
        }

        fn label(&self) -> String {
            "in-process".into()
        }
    }

    #[test]
    fn a_replicate_delivered_twice_leaves_the_follower_equal_to_the_primary() {
        let follower_dir = SimDir::new();
        let follower_node = follower(&follower_dir);
        let primary_dir = SimDir::new();
        let node = primary(
            Arc::new(primary_dir.clone()),
            InProcess::link(&follower_node, 1, None),
            &Registry::new(),
        );
        node.replicate_batch(0, &[item(1), item(2)]).expect("acked");
        node.replicate_batch(0, &[item(3)]).expect("acked");
        assert_eq!(scan_source(&follower_dir).unwrap().store.len(), 3);
        assert_eq!(digest(&follower_dir), digest(&primary_dir));
    }

    #[test]
    fn a_restarted_follower_skips_replays_from_its_recovered_keys() {
        let first_life = SimDir::new();
        let follower_node = follower(&first_life);
        let link = InProcess::link(&follower_node, 0, None);
        let batch = Request::Replicate { range: 0, epoch: 1, promote: false, items: vec![item(1)] };
        link.call(&batch).expect("applied");
        drop((link, follower_node));

        let rebooted = first_life.reopen();
        let want = digest(&rebooted);
        let dir: Arc<dyn Dir> = Arc::new(rebooted.clone());
        let (engine, report) = StorageEngine::open(Arc::clone(&dir), opts()).unwrap();
        let node = Arc::new(ReplicaNode::new(
            Topology::new(1, 2, 2),
            ReplicationMode::Sync,
            vec![None, None],
            vec![RangeInit {
                range: 0,
                role: Role::Follower,
                epoch: 1,
                dir,
                engine: Arc::new(engine),
            }],
            &Registry::new(),
        ));
        node.seed_spent_tokens(0, report.spent_tokens);
        let answer = InProcess::link(&node, 0, None).call(&batch).expect("acked");
        assert_eq!(answer, Response::ReplicateAck { epoch: 1, applied: 0 });
        assert_eq!(digest(&rebooted), want, "the replay changed nothing");
    }

    /// An upload whose token is unique to `serial` (dummy signature,
    /// verdict supplied by the caller). An even `serial` lands in range 0
    /// of the two-node ring.
    fn upload(serial: u8) -> UploadRequest {
        let WalBatchItem { entry, .. } = item(serial);
        UploadRequest {
            record_id: entry.record_id,
            entity: entry.entity,
            interaction: entry.interaction,
            token: Token { message: [serial; 32], signature: BigUint::from_u64(1) },
            release_at: Timestamp::EPOCH,
        }
    }

    fn serving(node: ReplicaNode) -> ShardedIngest {
        let ingest = ShardedIngest::new(1);
        ingest.set_wal_with(
            Arc::new(ReplicatingSink::new(Arc::new(node))) as Arc<dyn WalSink>,
            GroupCommitConfig::default(),
        );
        ingest
    }

    #[test]
    fn a_retry_after_the_primary_lost_its_copy_is_not_applied_twice() {
        let follower_dir = SimDir::new();
        let follower_node = follower(&follower_dir);

        // The primary's disk dies once the batch has reached the
        // follower and before its own write and fsync: the upload is
        // never acked, and the follower holds it anyway.
        let primary_dir =
            SimDir::with_plan(FaultPlan { lose_unsynced_on_crash: true, ..FaultPlan::default() });
        let doomed = serving(primary(
            Arc::new(primary_dir.clone()),
            InProcess::link(&follower_node, 0, Some(primary_dir.clone())),
            &Registry::new(),
        ));
        let first = doomed.ingest_verified(&upload(2), true);
        assert!(!matches!(first, IngestOutcome::Accepted), "never acked: {first:?}");
        assert_eq!(scan_source(&follower_dir).unwrap().store.len(), 1);

        // Power back without a failover: the primary's ledger lost the
        // token, so it accepts the device's retry and forwards it again.
        let rebooted = primary_dir.reopen();
        let recovered = scan_source(&rebooted).unwrap();
        assert!(recovered.spent_tokens.is_empty() && recovered.store.len() == 0);
        let restarted = serving(primary(
            Arc::new(rebooted.clone()),
            InProcess::link(&follower_node, 0, None),
            &Registry::new(),
        ));
        restarted.seed_spent_tokens(recovered.spent_tokens);
        let retry = restarted.ingest_verified(&upload(2), true);
        assert!(matches!(retry, IngestOutcome::Accepted), "{retry:?}");

        assert_eq!(scan_source(&follower_dir).unwrap().store.len(), 1);
        assert_eq!(digest(&follower_dir), digest(&rebooted));
    }
}
