//! Thread-count invariance: the multi-core pipeline must produce
//! bit-for-bit identical results at any worker count.
//!
//! This is the contract that makes the parallel client stage, the sharded
//! ingest, and the parallel feature assembly safe to ship: parallelism
//! may only change the wall clock, never the science. Each user draws
//! from an RNG stream derived from `(seed, "client", user id)`, merges
//! happen in user/delivery order, and admission is one sequential pass
//! through the served core over a decided order — so 1, 2, and 8 threads
//! must agree on everything, down to float bit patterns.

use orsp_core::{
    outcome_digest, run_client_side, service_for_world, PipelineConfig, PipelineOutcome,
    RspPipeline,
};
use orsp_crypto::UploadRequest;
use orsp_net::{InMemoryTransport, NetError, Request, Response, Transport};
use orsp_server::{IngestOutcome, RejectReason, ShardedIngest, WalEntry, WalSink};
use orsp_types::{OrspError, SimDuration};
use orsp_world::{World, WorldConfig};
use std::sync::{Arc, Mutex};

fn test_world() -> World {
    let cfg = WorldConfig {
        users_per_zipcode: 70,
        horizon: SimDuration::days(300),
        ..WorldConfig::tiny(71)
    };
    World::generate(cfg).unwrap()
}

fn run_with_threads(world: &World, threads: usize) -> PipelineOutcome {
    RspPipeline::new(PipelineConfig { threads, ..PipelineConfig::default() }).run(world)
}

/// Arm the tracing layer at the firehose rate before every run below:
/// instrumentation is write-only (DESIGN §7), so the digests this file
/// pins must not move with span collection switched fully on.
fn arm_tracing() {
    let tracer = orsp_obs::global().tracer();
    tracer.set_seed(1);
    tracer.set_sampling(10_000);
}

#[test]
fn outcome_identical_across_thread_counts() {
    arm_tracing();
    let world = test_world();
    let baseline = run_with_threads(&world, 1);
    let baseline_digest = outcome_digest(&baseline);

    for threads in [2, 8] {
        let outcome = run_with_threads(&world, threads);

        // Headline scalars first, for a readable failure.
        assert_eq!(
            outcome.uploads_delivered, baseline.uploads_delivered,
            "uploads_delivered diverges at {threads} threads"
        );
        assert_eq!(
            outcome.tokens_issued, baseline.tokens_issued,
            "tokens_issued diverges at {threads} threads"
        );
        assert_eq!(
            outcome.eval.predicted, baseline.eval.predicted,
            "eval.predicted diverges at {threads} threads"
        );
        assert_eq!(
            outcome.coverage.median_after.to_bits(),
            baseline.coverage.median_after.to_bits(),
            "coverage.median_after diverges at {threads} threads"
        );
        assert_eq!(
            outcome.eval.mae.to_bits(),
            baseline.eval.mae.to_bits(),
            "eval.mae diverges at {threads} threads"
        );

        // Full ground-truth ownership map, entry by entry.
        assert_eq!(
            outcome.record_owner, baseline.record_owner,
            "record_owner diverges at {threads} threads"
        );
        assert_eq!(
            outcome.fraud_flagged, baseline.fraud_flagged,
            "fraud_flagged diverges at {threads} threads"
        );

        // And the whole outcome, bit for bit.
        assert_eq!(
            outcome_digest(&outcome),
            baseline_digest,
            "outcome digest diverges at {threads} threads"
        );
    }
}

#[test]
fn auto_thread_count_matches_single_thread() {
    arm_tracing();
    // threads = 0 resolves to the machine's core count — whatever that
    // is, the result must equal the single-threaded run.
    let world = test_world();
    let auto = run_with_threads(&world, 0);
    let single = run_with_threads(&world, 1);
    assert_eq!(outcome_digest(&auto), outcome_digest(&single));
}

#[test]
fn repeated_runs_are_stable() {
    arm_tracing();
    // Same thread count twice: guards against any residual use of global
    // or time-seeded state inside the parallel stages.
    let world = test_world();
    let a = run_with_threads(&world, 4);
    let b = run_with_threads(&world, 4);
    assert_eq!(outcome_digest(&a), outcome_digest(&b));
}

/// A transport that remembers the first upload its service accepted —
/// how a test gets hold of a real delivery, token and all.
struct Tap {
    inner: InMemoryTransport,
    accepted: Mutex<Option<UploadRequest>>,
}

impl Transport for Tap {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        let response = self.inner.call(request)?;
        if let (Request::Upload { upload, .. }, Response::UploadAccepted) = (request, &response) {
            self.accepted.lock().unwrap().get_or_insert_with(|| upload.clone());
        }
        Ok(response)
    }
}

#[test]
fn durability_changes_nothing_at_any_thread_count() {
    arm_tracing();
    // Durable logging is write-only with respect to the pipeline: with a
    // storage engine attached, the outcome digest stays bit-identical to
    // the undecorated baseline at 1, 2, and 8 threads — and the log the
    // engine wrote recovers into exactly the store the pipeline built,
    // spent tokens included.
    use orsp_storage::{SimDir, StorageEngine, StorageOptions};

    let world = test_world();
    let baseline_digest = outcome_digest(&run_with_threads(&world, 1));

    // One delivery the pipeline admits, captured from a served run at the
    // same seed (same mint keypair, same tokens, same deliveries).
    let config = PipelineConfig::default();
    let service = service_for_world(&world, &config);
    let mint_public = service.mint_public_key();
    let tap = Tap { inner: InMemoryTransport::new(service), accepted: Mutex::new(None) };
    run_client_side(&RspPipeline::new(config), &world, &mint_public, &tap).unwrap();
    let delivery = tap.accepted.into_inner().unwrap().expect("some upload was accepted");

    for threads in [1, 2, 8] {
        let dir = SimDir::new();
        let (engine, report) =
            StorageEngine::open(Arc::new(dir.clone()), StorageOptions::default()).unwrap();
        assert_eq!(report.records_replayed, 0);
        let pipeline = RspPipeline::new(PipelineConfig { threads, ..PipelineConfig::default() });
        // The pipeline drops its handle on the engine when it returns.
        let outcome = pipeline.run_logged(&world, Some(Arc::new(engine)));
        assert_eq!(
            outcome_digest(&outcome),
            baseline_digest,
            "durable logging perturbed the outcome at {threads} threads"
        );

        // Reboot: the log replays into the full accepted set.
        let (_, recovered) =
            StorageEngine::open(Arc::new(dir.reopen()), StorageOptions::default()).unwrap();
        assert_eq!(
            recovered.stats.accepted,
            outcome.ingest.stats().accepted,
            "recovered accepted count diverges at {threads} threads"
        );
        assert_eq!(
            recovered.store.total_interactions() as u64,
            recovered.stats.accepted,
            "one logged record per accepted upload"
        );
        // Each spend rode next to its record, so the ledger recovers
        // whole and a token spent before the reboot stays spent after it.
        assert_eq!(
            recovered.spent_tokens.len() as u64,
            recovered.stats.accepted,
            "one logged spend per accepted upload"
        );
        let rebooted = ShardedIngest::new(4);
        rebooted.seed_spent_tokens(recovered.spent_tokens);
        assert!(matches!(
            rebooted.ingest(&delivery, &mint_public),
            IngestOutcome::Rejected(RejectReason::DoubleSpend)
        ));
    }
}

/// A sink whose every write fails.
struct FailingSink;

impl WalSink for FailingSink {
    fn log_append(&self, _entry: &WalEntry) -> orsp_types::Result<()> {
        Err(OrspError::Storage("disk on fire".into()))
    }
}

#[test]
fn sink_failure_changes_nothing_and_is_counted() {
    arm_tracing();
    // No other test in this binary wires a failing sink, so the global
    // counter moves only here: one `AcceptedNotDurable` = one count.
    let errors =
        || orsp_obs::global().snapshot().counter("storage_append_errors_total").unwrap_or(0);
    let world = test_world();
    let baseline_digest = outcome_digest(&run_with_threads(&world, 2));
    let before = errors();
    let outcome = RspPipeline::new(PipelineConfig { threads: 2, ..PipelineConfig::default() })
        .run_logged(&world, Some(Arc::new(FailingSink)));
    assert_eq!(outcome_digest(&outcome), baseline_digest, "a failing sink perturbed the outcome");
    assert_eq!(errors() - before, outcome.ingest.stats().accepted);
}
