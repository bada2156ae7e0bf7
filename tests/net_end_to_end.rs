//! The wire changes nothing: running the pipeline *as a service* — every
//! blind token an RPC through the codec, every upload a replayed
//! delivery — produces a bit-identical outcome digest to the in-process
//! pipeline at the same seed.
//!
//! This holds because (1) the service's mint draws from the same RNG
//! stream as the in-process mint, (2) BigUints survive the wire losslessly
//! (`to_bytes_be`/`from_bytes_be`), (3) rate limiting is per-device so
//! cross-device interleaving is immaterial, and (4) deliveries replay in
//! the exact order `deterministic_ingest` consumes them.

use orsp_core::{
    complete_served, digest_hex, outcome_digest, run_client_side, service_for_world,
    PipelineConfig, RspPipeline,
};
use orsp_net::InMemoryTransport;
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};

fn small_world() -> World {
    let cfg = WorldConfig {
        users_per_zipcode: 70,
        horizon: SimDuration::days(300),
        ..WorldConfig::tiny(71)
    };
    World::generate(cfg).unwrap()
}

#[test]
fn served_pipeline_digest_matches_in_process() {
    let world = small_world();
    let config = PipelineConfig::default();
    let pipeline = RspPipeline::new(config.clone());

    // Reference: everything in one process, no wire anywhere.
    let in_process = pipeline.run(&world);

    // Served: client half issues tokens and delivers uploads through the
    // full codec; analytics half runs on state extracted from the service.
    let service = service_for_world(&world, &config);
    let public = service.mint_public_key();
    let transport = InMemoryTransport::new(service);
    let run = run_client_side(&pipeline, &world, &public, &transport).expect("served client half");
    assert!(run.uploads_accepted > 100, "accepted {}", run.uploads_accepted);
    // Rejections (mix reordering within a record) must match the
    // in-process admission outcome exactly — compared via stats below.
    assert_eq!(run.uploads_rejected, in_process.ingest.stats().rejected());
    assert!(
        transport.calls() > run.uploads_accepted,
        "token issues + uploads all went through the transport"
    );
    let served = complete_served(&pipeline, &world, run, transport.into_service());

    // Field-level agreement first, for diagnosable failures...
    assert_eq!(served.ingest.stats(), in_process.ingest.stats());
    assert_eq!(served.tokens_issued, in_process.tokens_issued);
    assert_eq!(served.uploads_delivered, in_process.uploads_delivered);
    assert_eq!(served.ingest.store().len(), in_process.ingest.store().len());
    assert_eq!(served.fraud_flagged, in_process.fraud_flagged);
    assert_eq!(served.eval.predicted, in_process.eval.predicted);
    assert_eq!(served.eval.mae.to_bits(), in_process.eval.mae.to_bits());

    // ...then the whole thing: bit-identical digests.
    assert_eq!(
        digest_hex(&outcome_digest(&served)),
        digest_hex(&outcome_digest(&in_process)),
        "served and in-process pipelines must digest identically"
    );
}

#[test]
fn served_pipeline_is_reproducible() {
    let world = small_world();
    let config = PipelineConfig::default();
    let pipeline = RspPipeline::new(config.clone());

    let digest_of_served_run = || {
        let service = service_for_world(&world, &config);
        let public = service.mint_public_key();
        let transport = InMemoryTransport::new(service);
        let run = run_client_side(&pipeline, &world, &public, &transport).expect("client half");
        let outcome = complete_served(&pipeline, &world, run, transport.into_service());
        digest_hex(&outcome_digest(&outcome))
    };
    assert_eq!(digest_of_served_run(), digest_of_served_run());
}
