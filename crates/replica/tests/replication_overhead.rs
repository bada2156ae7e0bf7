//! What RF=2 costs the durable ingest path, re-measured on every run.
//!
//! Two configurations over identical uploads, every record id forced
//! into hash range 0 so one replica set carries the whole load:
//!
//! * **single** — the group-commit engine sink alone, one fsync per
//!   commit group, no replication;
//! * **sync RF=2** — a primary `ReplicaNode` whose `ReplicatingSink`
//!   appends each group to its own range engine and forwards it to a
//!   follower (its own engine, its own fsync) before the group's uploads
//!   are acked.
//!
//! The peer link is in-process, so the overhead measured is the
//! replication protocol's — the second engine's append and fsync on the
//! ack path — not the network stack's. The gate: sync RF=2 costs less
//! than 2× single-copy throughput. On one core the two fsyncs cannot
//! overlap, so the serial floor *is* 2×; there the gate is reported and
//! not asserted.
//!
//! The ratio is asserted in a release build only; a debug build runs a
//! smaller load and checks the counts.
//!
//! ```sh
//! cargo test --release -p orsp-replica --test replication_overhead -- --nocapture
//! ```

use orsp_crypto::{BigUint, Token, UploadRequest};
use orsp_net::{NetError, ReplicaHook, ReplicateOutcome, Request, Response};
use orsp_replica::{PeerLink, RangeInit, ReplicaNode, ReplicatingSink, ReplicationMode, Role};
use orsp_server::{
    shard_index, GroupCommitConfig, IngestOutcome, ShardedIngest, Topology, WalSink,
};
use orsp_storage::{Dir, FsDir, FsyncPolicy, StorageEngine, StorageOptions};
use orsp_types::{EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// Three, not four: record ids are forced even (range 0 of 2, below),
// and even values mod 3 still cover every ingest shard — mod 4 they
// would collapse onto two.
const INGEST_SHARDS: usize = 3;
const UPLOADERS: u64 = 32;
const PER_UPLOADER: u64 = if cfg!(debug_assertions) { 20 } else { 1_500 };
const GATE_MAX_OVERHEAD: f64 = 2.0;
/// Throughput on a shared disk is noisy: a pair over the bound is
/// measured again up to this many times, keeping each side's best.
const RERUNS: usize = 3;

fn options() -> StorageOptions {
    StorageOptions { shard_count: 1, fsync: FsyncPolicy::Always, ..StorageOptions::default() }
}

/// An upload whose record id lands in hash range 0 of a 2-node ring, so
/// a single replica set (primary + one follower) sees every write.
fn upload(serial: u64) -> UploadRequest {
    let mut id = [0u8; 32];
    // `shard_index` is the id's first 8 LE bytes mod n: an even value
    // is range 0 of 2 by construction.
    id[..8].copy_from_slice(&(serial * 2).to_le_bytes());
    id[16] = 0x7E;
    debug_assert_eq!(shard_index(&id, 2), 0);
    let mut message = [0u8; 32];
    message[..8].copy_from_slice(&serial.to_le_bytes());
    message[16] = 0xB3;
    UploadRequest {
        record_id: RecordId::from_bytes(id),
        entity: EntityId::new(1 + serial % 997),
        interaction: Interaction::solo(
            InteractionKind::Visit,
            Timestamp::EPOCH + SimDuration::minutes(serial as i64 % 10_000),
            SimDuration::minutes(25),
            650.0,
        ),
        // Dummy signature, verdict supplied: the ledger, group-commit
        // and replication paths behave exactly as with minted tokens,
        // without RSA dominating the measurement.
        token: Token { message, signature: BigUint::from_u64(1) },
        release_at: Timestamp::EPOCH,
    }
}

/// The follower, reachable without a wire: applies `Replicate` batches
/// to its own engine through the real `ReplicaHook` state machine.
struct LocalFollower {
    node: Arc<ReplicaNode>,
    ingest: ShardedIngest,
}

impl PeerLink for LocalFollower {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        match request {
            Request::Replicate { range, epoch, promote, items } => {
                match self.node.apply_replicate(&self.ingest, *range, *epoch, *promote, items) {
                    ReplicateOutcome::Applied { epoch, applied, .. } => {
                        Ok(Response::ReplicateAck { epoch, applied })
                    }
                    ReplicateOutcome::Stale { current } => {
                        Ok(Response::StaleEpoch { range: *range, current })
                    }
                    ReplicateOutcome::Failed(detail) => Ok(Response::Error { detail }),
                }
            }
            other => panic!("follower got {other:?}"),
        }
    }

    fn label(&self) -> String {
        "local-follower".into()
    }
}

/// A fresh engine on `path`, with the directory handle a `RangeInit`
/// needs.
fn fresh_engine(path: &Path) -> (Arc<dyn Dir>, Arc<StorageEngine>) {
    let _ = std::fs::remove_dir_all(path);
    let dir: Arc<dyn Dir> = Arc::new(FsDir::open(path).expect("open data dir"));
    let (engine, _) = StorageEngine::open(Arc::clone(&dir), options()).expect("fresh engine");
    (dir, Arc::new(engine))
}

/// Push every uploader's pre-built uploads through `ingest` and return
/// records per second.
fn drive(ingest: &ShardedIngest) -> f64 {
    let batches: Vec<Vec<UploadRequest>> = (0..UPLOADERS)
        .map(|t| (0..PER_UPLOADER).map(|i| upload(t * PER_UPLOADER + i)).collect())
        .collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for batch in &batches {
            s.spawn(move || {
                for request in batch {
                    match ingest.ingest_verified(request, true) {
                        IngestOutcome::Accepted => {}
                        other => panic!("upload refused: {other:?}"),
                    }
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let records = UPLOADERS * PER_UPLOADER;
    assert_eq!(ingest.stats().accepted, records, "every upload accepted");
    records as f64 / secs
}

/// Baseline: the bare group-commit engine sink, single copy.
fn single_rps(root: &Path) -> f64 {
    let path = root.join("single");
    let (_, engine) = fresh_engine(&path);
    let ingest = ShardedIngest::new(INGEST_SHARDS);
    ingest.set_wal_with(engine as Arc<dyn WalSink>, GroupCommitConfig::default());
    let rps = drive(&ingest);
    drop(ingest);
    let _ = std::fs::remove_dir_all(&path);
    rps
}

/// Sync RF=2: a primary node whose sink forwards every commit group to
/// an in-process follower with its own engine.
fn sync_rf2_rps(root: &Path) -> f64 {
    let follower_path = root.join("follower");
    let (dir, engine) = fresh_engine(&follower_path);
    let follower = Arc::new(ReplicaNode::new(
        Topology::new(1, 2, 2),
        ReplicationMode::Sync,
        vec![None, None],
        vec![RangeInit { range: 0, role: Role::Follower, epoch: 0, dir, engine }],
        orsp_obs::global(),
    ));
    let peer: Arc<dyn PeerLink> =
        Arc::new(LocalFollower { node: follower, ingest: ShardedIngest::new(INGEST_SHARDS) });

    let primary_path = root.join("primary");
    let (dir, engine) = fresh_engine(&primary_path);
    let primary = Arc::new(ReplicaNode::new(
        Topology::new(0, 2, 2),
        ReplicationMode::Sync,
        vec![None, Some(peer)],
        vec![RangeInit { range: 0, role: Role::Primary, epoch: 0, dir, engine }],
        orsp_obs::global(),
    ));
    let ingest = ShardedIngest::new(INGEST_SHARDS);
    ingest.set_wal_with(
        Arc::new(ReplicatingSink::new(Arc::clone(&primary))) as Arc<dyn WalSink>,
        GroupCommitConfig::default(),
    );
    let rps = drive(&ingest);
    primary.shutdown();
    drop(ingest);
    let _ = std::fs::remove_dir_all(&primary_path);
    let _ = std::fs::remove_dir_all(&follower_path);
    rps
}

#[test]
fn sync_rf2_costs_less_than_twice_single_copy() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("replication-overhead");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut single = single_rps(&root);
    let mut sync = sync_rf2_rps(&root);
    let mut reruns = 0;
    while !cfg!(debug_assertions) && single / sync >= GATE_MAX_OVERHEAD && reruns < RERUNS {
        reruns += 1;
        single = single.max(single_rps(&root));
        sync = sync.max(sync_rf2_rps(&root));
    }
    let overhead = single / sync;
    println!(
        "{UPLOADERS} uploaders x {PER_UPLOADER} on {cores} cores: single {single:.0} rec/s, \
         sync RF=2 {sync:.0} rec/s, overhead {overhead:.2}x after {reruns} re-runs"
    );
    if cfg!(debug_assertions) {
        return;
    }
    if cores == 1 {
        // One core serializes the primary's and the follower's fsyncs
        // completely: the 2x floor is structural there, not a protocol
        // defect.
        println!("1 core: the serial fsync floor is 2x; gate not asserted");
        return;
    }
    assert!(
        overhead < GATE_MAX_OVERHEAD,
        "sync RF=2 costs {overhead:.2}x single-copy on {cores} cores (gate < {GATE_MAX_OVERHEAD}x)"
    );
}
