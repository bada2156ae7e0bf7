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

use crate::catchup;
use crate::peer::{PeerLink, ReplicationMode};
use orsp_net::{NetError, ReplicaHook, ReplicateOutcome, Request, Response};
use orsp_obs::{trace, Counter, Gauge, Registry};
use orsp_server::{ShardedIngest, Topology, WalBatchItem};
use orsp_storage::{scan_source, Dir, StorageEngine};
use orsp_types::{OrspError, RecordId};
use parking_lot::Mutex;
use std::collections::HashMap;
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
            ReplicaError::DigestMismatch { ours, theirs } => write!(
                f,
                "catch-up digest mismatch: rebuilt {ours:08x}, primary {theirs:08x}"
            ),
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
                    }),
                )
            })
            .collect();
        let shared = Arc::new(Shared {
            topology,
            ranges: map,
            peers,
            metrics: Metrics::new(obs),
        });
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

    /// Current (role, epoch) for a held range.
    pub fn range_status(&self, range: u32) -> Option<(Role, u64)> {
        self.shared.ranges.get(&range).map(|s| {
            let st = s.lock();
            (st.role, st.epoch)
        })
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
    /// group-commit batch already bucketed to `range`: append to the
    /// range engine (one fsync), then forward to followers — inline
    /// and before the ack in `sync` mode, queued in `async` mode.
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
        engine.append_upload_batch(items).map_err(OrspError::from)?;
        match self.mode {
            ReplicationMode::Sync => {
                if let Some(fenced_at) = forward(&self.shared, range, epoch, items) {
                    return Err(OrspError::Storage(format!(
                        "range {range} fenced at epoch {fenced_at}: a newer primary exists"
                    )));
                }
                Ok(())
            }
            ReplicationMode::Async => {
                if let Some(tx) = self.tx.lock().as_ref() {
                    self.shared.metrics.lag.add(1);
                    let _ = tx.send(QueuedBatch { range, epoch, items: items.to_vec() });
                }
                Ok(())
            }
        }
    }
}

/// Forward one batch to every other member of the range's replica set.
/// Returns `Some(current)` iff a follower fenced us with a strictly
/// higher epoch — the caller fails the write; we have already demoted.
/// An unreachable follower only degrades (counted): availability over
/// strict copy count, by design — see DESIGN §9.
fn forward(shared: &Shared, range: u32, epoch: u64, items: &[WalBatchItem]) -> Option<u64> {
    let request = Request::Replicate { range, epoch, promote: false, items: items.to_vec() };
    let span = trace::child("replicate");
    let mut fenced = None;
    for peer_idx in shared.topology.peers_of(range) {
        let Some(peer) = shared.peers.get(peer_idx as usize).and_then(|p| p.as_ref()) else {
            continue;
        };
        shared.metrics.forwarded.inc();
        match peer.call(&request) {
            Ok(Response::ReplicateAck { .. }) => {}
            Ok(Response::StaleEpoch { current, .. }) => {
                demote(shared, range, current);
                fenced = Some(current);
                break;
            }
            Ok(_) | Err(_) => shared.metrics.degraded.inc(),
        }
    }
    span.end();
    fenced
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
            if let Err(e) = st.engine.checkpoint(&scan.store, &scan.stats, &scan.spent_tokens)
            {
                return ReplicateOutcome::Failed(format!("promotion checkpoint: {e}"));
            }
            ingest.absorb_histories(
                scan.store.into_histories(),
                scan.spent_tokens.iter().copied(),
            );
            st.role = Role::Primary;
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
                self.shared.metrics.demotions.inc();
            }
        }
        if let Err(e) = st.engine.append_upload_batch(items) {
            return ReplicateOutcome::Failed(format!("follower append: {e}"));
        }
        self.shared.metrics.applied.add(items.len() as u64);
        ReplicateOutcome::Applied {
            epoch: st.epoch,
            applied: items.len() as u64,
            promoted: false,
        }
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
