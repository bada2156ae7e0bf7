//! Serve the RSP over the wire — the pipeline split across a network.
//!
//! [`service_for_world`] builds the wire-facing
//! [`RspService`] whose token mint draws from the *same* RNG stream the
//! in-process pipeline uses, [`run_client_side`] executes the pipeline's
//! client and mix stages against any [`Transport`] (every blind token a
//! real RPC) and replays the mixed deliveries as upload RPCs in delivery
//! order, and [`complete_served`] extracts the mint and ingest state back
//! out of the service and finishes the analytics half.
//!
//! The punchline, asserted by `tests/net_end_to_end.rs`: at the same
//! seed, the served pipeline's [`outcome_digest`](crate::outcome_digest)
//! is bit-identical to [`RspPipeline::run`]'s. Putting a wire protocol, a
//! codec, and a transport between the client and the server changes
//! nothing about the result — only who computes it where.

use crate::directory::{directory_entries, listings};
use crate::pipeline::{PipelineConfig, PipelineOutcome, RspPipeline};
use orsp_client::EntityMapper;
use orsp_crypto::{RsaPublicKey, TokenMint};
use orsp_net::{
    NetError, NetServer, RemoteIssuer, Request, Response, RspService, ServerConfig, ServiceConfig,
    Transport,
};
use orsp_search::{Ranker, SearchIndex};
use orsp_types::rng::rng_for;
use orsp_types::{EntityId, StarHistogram};
use orsp_world::World;
use std::collections::HashMap;
use std::sync::Arc;

/// Build the wire-facing service for a world.
///
/// The mint is created from `rng_for(seed, "pipeline")` with the
/// pipeline's modulus/rate parameters — the exact draws
/// [`RspPipeline::run`] makes — so a served run and an in-process run at
/// the same seed share a keypair, and with it every signature. The search
/// index covers the world's listings; explicit review histograms feed
/// ranking from day one (reviews are public — no privacy machinery
/// needed for them).
pub fn service_for_world(world: &World, config: &PipelineConfig) -> RspService {
    service_for_world_recovered(world, config, orsp_server::IngestService::new(), None)
}

/// [`service_for_world`] resuming from recovered state: the service's
/// history store starts from `ingest` (what crash recovery rebuilt from
/// the durable log) and, when `sink` is given, every accepted upload is
/// durably logged before its `UploadAccepted` response exists.
pub fn service_for_world_recovered(
    world: &World,
    config: &PipelineConfig,
    ingest: orsp_server::IngestService,
    sink: Option<Arc<dyn orsp_server::WalSink>>,
) -> RspService {
    service_for_world_sharded(world, config, ingest, sink, ServiceConfig::default().ingest_shards)
}

/// [`service_for_world_recovered`] with an explicit ingest-shard count.
///
/// Align `ingest_shards` with the storage engine's shard count
/// (`StorageEngine::shard_count()`) and each ingest shard's accepted
/// uploads land in exactly its own on-disk segment log — the two layers
/// route by the same `shard_index(record_id)` function, so equal counts
/// mean equal partitions and zero cross-shard lock traffic in the sink.
pub fn service_for_world_sharded(
    world: &World,
    config: &PipelineConfig,
    ingest: orsp_server::IngestService,
    sink: Option<Arc<dyn orsp_server::WalSink>>,
    ingest_shards: usize,
) -> RspService {
    let mut rng = rng_for(world.config.seed, "pipeline");
    let mint = TokenMint::new(
        &mut rng,
        config.modulus_bits,
        config.tokens_per_window,
        config.token_window,
    );
    let mut explicit: HashMap<EntityId, StarHistogram> = HashMap::new();
    for review in &world.reviews {
        explicit.entry(review.entity).or_default().add(review.rating);
    }
    let service = RspService::with_ingest(
        mint,
        SearchIndex::build(listings(world)),
        explicit,
        Ranker::default(),
        ServiceConfig { ingest_shards, ..ServiceConfig::default() },
        ingest,
    );
    if let Some(sink) = sink {
        service.set_durability(sink);
    }
    // Publish the served world's shape as gauges so a `Stats` RPC (or a
    // Prometheus scrape) reports what this daemon is serving, not just
    // how fast.
    let stats = world.stats();
    let obs = service.obs();
    obs.gauge("world_users").set(stats.users as i64);
    obs.gauge("world_entities").set(stats.entities as i64);
    obs.gauge("world_events").set(stats.events as i64);
    obs.gauge("world_reviews").set(stats.reviews as i64);
    service
}

/// Bind a TCP server for a world (use port 0 for an ephemeral port) and
/// return it together with a handle to its service. The pipeline's core
/// `serve()` entry point: world in, listening daemon out.
pub fn serve(
    world: &World,
    config: &PipelineConfig,
    addr: impl std::net::ToSocketAddrs,
    server_config: ServerConfig,
) -> std::io::Result<(NetServer, Arc<RspService>)> {
    let service = Arc::new(service_for_world(world, config));
    let server = NetServer::bind(addr, service.clone(), server_config)?;
    Ok((server, service))
}

/// The client half of a served run: the front-half state plus what the
/// server said about each delivery. Feed it to [`complete_served`].
pub struct ServedRun {
    front: crate::pipeline::FrontHalf,
    mapper: Arc<EntityMapper>,
    /// Uploads the server accepted.
    pub uploads_accepted: u64,
    /// Uploads the server rejected (bad token, double spend, ...).
    pub uploads_rejected: u64,
}

/// Run the pipeline's client and mix stages against a [`Transport`].
///
/// Token issuance goes through the transport (a [`RemoteIssuer`] per
/// device), and every mixed delivery is replayed as an `Upload` RPC in
/// delivery order — the order `deterministic_ingest` would have consumed
/// them, so the server builds the identical store. `mint_public` is the
/// service's verifying key, distributed out of band (see
/// [`RspService::mint_public_key`](orsp_net::RspService::mint_public_key)).
pub fn run_client_side<T: Transport>(
    pipeline: &RspPipeline,
    world: &World,
    mint_public: &RsaPublicKey,
    transport: &T,
) -> Result<ServedRun, NetError> {
    let mapper = Arc::new(EntityMapper::new(directory_entries(world)));
    let front = pipeline.front_half(world, &mapper, mint_public, &|| RemoteIssuer::new(transport));
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for (at, request) in &front.deliveries {
        match transport.call(&Request::Upload { upload: request.clone(), now: *at })? {
            Response::UploadAccepted => accepted += 1,
            Response::UploadRejected { .. } => rejected += 1,
            other => return Err(NetError::Unexpected(format!("upload got {other:?}"))),
        }
    }
    Ok(ServedRun { front, mapper, uploads_accepted: accepted, uploads_rejected: rejected })
}

/// Finish a served run: tear the service down into its mint and ingest
/// state and run the pipeline's analytics half over them, producing the
/// same [`PipelineOutcome`] shape (and, at the same seed, the same
/// digest) as an in-process run.
///
/// Takes the service by value: the server must be shut down and every
/// other handle dropped first (`Arc::try_unwrap`), which is exactly the
/// "no more requests in flight" precondition the analytics need.
pub fn complete_served(
    pipeline: &RspPipeline,
    world: &World,
    run: ServedRun,
    service: RspService,
) -> PipelineOutcome {
    complete_served_multi(pipeline, world, run, vec![service])
}

/// [`complete_served`] for a cluster: tear down N backend services that
/// served behind a proxy (`orsp-proxy`) and finish the analytics over
/// their union.
///
/// The proxy routes every record id to exactly one backend with the same
/// [`shard_index`](orsp_server::shard_index) formula the ingest shards
/// use, so the per-backend stores partition the one-node store — merging
/// is plain insertion, and `insert_history` would reject any overlap.
/// Token mints at the same seed share a keypair but issue independently
/// (each device is pinned to one backend), so issued totals sum. At the
/// same seed the outcome digest is bit-identical to a one-node run —
/// asserted by `tests/proxy_end_to_end.rs`.
pub fn complete_served_multi(
    pipeline: &RspPipeline,
    world: &World,
    run: ServedRun,
    services: Vec<RspService>,
) -> PipelineOutcome {
    let mut tokens_issued = 0u64;
    let mut store = orsp_server::HistoryStore::new();
    let mut stats = orsp_server::IngestStats::default();
    for service in services {
        let (mint, ingest) = service.into_parts();
        tokens_issued += mint.issued_total();
        let (node_store, node_stats) = ingest.into_parts();
        for (rid, stored) in node_store.into_histories() {
            store.insert_history(rid, stored);
        }
        stats.accepted += node_stats.accepted;
        stats.bad_token += node_stats.bad_token;
        stats.double_spend += node_stats.double_spend;
        stats.bad_record += node_stats.bad_record;
        stats.entity_mismatch += node_stats.entity_mismatch;
    }
    let ingest = orsp_server::IngestService::from_parts(store, stats);
    pipeline.back_half(world, &run.mapper, run.front, ingest, tokens_issued)
}
