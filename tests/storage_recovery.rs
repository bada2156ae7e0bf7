//! Crash a *served* RSP at an injected fault point, recover its data
//! directory, and get back exactly the accepted-upload prefix.
//!
//! This is the tentpole invariant at system scope, not storage scope:
//! real wire requests (blind-token RPCs, uploads through the codec) hit
//! a service whose durability sink sits on a fault-injected simulated
//! disk. The disk dies mid-run; the test then reopens the directory the
//! way a restarted daemon would and checks the recovered store against
//! the uploads the service actually acknowledged — every `UploadAccepted`
//! durable, nothing else resurrected.

use orsp_core::{run_client_side, service_for_world_recovered, PipelineConfig, RspPipeline};
use orsp_net::{InMemoryTransport, NetError};
use orsp_server::{HistoryStore, IngestService, WalEntry, WalSink};
use orsp_storage::{FaultPlan, FsyncPolicy, SimDir, StorageEngine, StorageOptions};
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};
use std::sync::{Arc, Mutex};

fn small_world() -> World {
    let cfg = WorldConfig {
        users_per_zipcode: 70,
        horizon: SimDuration::days(300),
        ..WorldConfig::tiny(71)
    };
    World::generate(cfg).unwrap()
}

fn storage_options() -> StorageOptions {
    StorageOptions {
        shard_count: 2,
        max_segment_bytes: 1 << 16,
        fsync: FsyncPolicy::Always,
        ..StorageOptions::default()
    }
}

/// Forwards to the engine and remembers every entry the engine durably
/// acknowledged — the test's ground truth for "the accepted prefix".
struct RecordingSink {
    engine: StorageEngine,
    logged: Mutex<Vec<WalEntry>>,
}

impl WalSink for RecordingSink {
    fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()> {
        self.engine.log_append(entry)?;
        self.logged.lock().unwrap().push(*entry);
        Ok(())
    }
}

#[test]
fn served_run_killed_mid_flight_recovers_the_acknowledged_prefix() {
    let world = small_world();
    let config = PipelineConfig::default();
    let pipeline = RspPipeline::new(config.clone());

    // A disk that dies after ~8 KiB of log writes — mid-upload-stream.
    let dir = SimDir::with_plan(FaultPlan::crash_at(8_192));
    let (engine, report) = StorageEngine::open(Arc::new(dir.clone()), storage_options()).unwrap();
    assert_eq!(report.records_replayed, 0);
    let sink = Arc::new(RecordingSink { engine, logged: Mutex::new(Vec::new()) });

    let service = service_for_world_recovered(
        &world,
        &config,
        IngestService::new(),
        Some(sink.clone() as Arc<dyn WalSink>),
    );
    let public = service.mint_public_key();
    let transport = InMemoryTransport::new(service);

    // The client half runs until the durability failure surfaces as a
    // wire-level `Error` response — the moment the daemon "dies".
    let run = run_client_side(&pipeline, &world, &public, &transport);
    match run {
        Err(NetError::Unexpected(detail)) => {
            assert!(detail.contains("durability"), "died for the wrong reason: {detail}")
        }
        Err(other) => panic!("died for the wrong reason: {other}"),
        Ok(run) => panic!(
            "the crash budget never triggered: {} uploads all accepted — \
             lower crash_after_bytes",
            run.uploads_accepted
        ),
    }
    let acknowledged = sink.logged.lock().unwrap().clone();
    assert!(
        acknowledged.len() > 20,
        "want a meaningful accepted prefix before the crash, got {}",
        acknowledged.len()
    );

    // Reboot the machine; recover the data dir like a restarted daemon.
    let (_, recovered) = StorageEngine::open(Arc::new(dir.reopen()), storage_options()).unwrap();

    let mut reference = HistoryStore::new();
    for e in &acknowledged {
        reference.append(e.record_id, e.entity, e.interaction).unwrap();
    }
    assert_eq!(recovered.records_replayed as usize, acknowledged.len());
    assert_eq!(recovered.stats.accepted as usize, acknowledged.len());
    assert_eq!(recovered.store.len(), reference.len());
    for (id, stored) in reference.iter() {
        let other = recovered
            .store
            .iter()
            .find(|(other_id, _)| *other_id == id)
            .unwrap_or_else(|| panic!("acknowledged record {id:?} missing after recovery"))
            .1;
        assert_eq!(other, stored, "record {id:?} differs after recovery");
    }
}

#[test]
fn recovered_service_resumes_serving_with_the_recovered_store() {
    let world = small_world();
    let config = PipelineConfig::default();
    let pipeline = RspPipeline::new(config.clone());

    // Phase 1: a clean served run over a durable directory.
    let dir = SimDir::new();
    let (engine, _) = StorageEngine::open(Arc::new(dir.clone()), storage_options()).unwrap();
    let sink = Arc::new(RecordingSink { engine, logged: Mutex::new(Vec::new()) });
    let service = service_for_world_recovered(
        &world,
        &config,
        IngestService::new(),
        Some(sink.clone() as Arc<dyn WalSink>),
    );
    let public = service.mint_public_key();
    let transport = InMemoryTransport::new(service);
    let run = run_client_side(&pipeline, &world, &public, &transport).expect("clean run");
    assert!(run.uploads_accepted > 100);
    let live_stats = transport.service().ingest_stats();

    // Phase 2: "restart" — recover and stand up a service on the result.
    let (_, recovered) = StorageEngine::open(Arc::new(dir.reopen()), storage_options()).unwrap();
    assert_eq!(recovered.stats.accepted, run.uploads_accepted);
    let resumed = service_for_world_recovered(
        &world,
        &config,
        IngestService::from_parts(recovered.store, recovered.stats),
        None,
    );
    assert_eq!(resumed.ingest_stats().accepted, live_stats.accepted);
    // Reject counters are checkpoint-scoped by design (rejections are
    // never logged); with no checkpoint in this run they restart at 0.
    assert_eq!(resumed.ingest_stats().rejected(), 0);
}
