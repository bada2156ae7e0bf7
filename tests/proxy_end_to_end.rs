//! The cluster changes nothing: a 3-backend RSP behind `orsp-proxy`
//! answers every request — writes routed by record id, reads
//! scatter-gathered and merged — exactly like one node, and the final
//! pipeline outcome digests bit-identically to the in-process run at
//! the same seed.
//!
//! This holds because (1) every backend's mint draws from the same RNG
//! stream (`rng_for(seed, "pipeline")`), so the cluster shares one
//! keypair and blind signatures are deterministic; (2) the proxy routes
//! each record id to exactly one backend with the same `shard_index`
//! formula the ingest shards use, so the per-backend stores partition
//! the one-node store; (3) search ranking depends only on the review
//! histograms every backend derives identically from the world, with
//! the per-backend aggregate fields refilled from the merged partials;
//! and (4) partial aggregates merge commutatively with the k-anonymity
//! floor applied after the union.

use orsp_core::{
    complete_served, complete_served_multi, digest_hex, listings, outcome_digest, run_client_side,
    serve, service_for_world, shard_index, PipelineConfig, RspPipeline,
};
use orsp_net::{
    ClientConfig, InMemoryTransport, NetPool, NetServer, Request, Response, RspService,
    ServerConfig, TcpTransport, Transport,
};
use orsp_proxy::{BackendLink, ProxyConfig, ProxyService};
use orsp_search::SearchQuery;
use orsp_types::{RecordId, SimDuration};
use orsp_world::{World, WorldConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const BACKENDS: usize = 3;

fn small_world() -> World {
    let cfg = WorldConfig {
        users_per_zipcode: 50,
        horizon: SimDuration::days(240),
        ..WorldConfig::tiny(73)
    };
    World::generate(cfg).unwrap()
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        ..ClientConfig::default()
    }
}

/// Three served backends with a proxy in front, all on loopback
/// ephemeral ports.
struct Cluster {
    backends: Vec<(NetServer, Arc<RspService>)>,
    proxy_server: NetServer,
    proxy: Arc<ProxyService>,
}

impl Cluster {
    fn start(world: &World, config: &PipelineConfig) -> Cluster {
        let backends: Vec<(NetServer, Arc<RspService>)> = (0..BACKENDS)
            .map(|_| {
                serve(world, config, "127.0.0.1:0", ServerConfig::default()).expect("bind backend")
            })
            .collect();
        let links: Vec<Arc<dyn BackendLink>> = backends
            .iter()
            .map(|(server, _)| {
                Arc::new(NetPool::new(server.local_addr(), fast_client(), 2))
                    as Arc<dyn BackendLink>
            })
            .collect();
        let proxy = Arc::new(ProxyService::new(links, ProxyConfig::default()));
        let proxy_server = NetServer::bind("127.0.0.1:0", proxy.clone(), ServerConfig::default())
            .expect("bind proxy");
        Cluster { backends, proxy_server, proxy }
    }

    fn transport(&self) -> TcpTransport {
        TcpTransport::connect(self.proxy_server.local_addr(), fast_client())
            .expect("connect to proxy")
    }

    /// Shut everything down and hand back the backend services for
    /// `complete_served_multi`.
    fn into_services(self) -> Vec<RspService> {
        self.proxy_server.shutdown();
        drop(self.proxy);
        self.backends
            .into_iter()
            .map(|(server, service)| {
                server.shutdown();
                Arc::try_unwrap(service).ok().expect("server kept a service handle")
            })
            .collect()
    }
}

#[test]
fn proxy_over_three_backends_matches_one_node_bit_for_bit() {
    let world = small_world();
    let config = PipelineConfig::default();
    let pipeline = RspPipeline::new(config.clone());

    // Reference 1: everything in one process, no wire anywhere.
    let in_process = pipeline.run(&world);

    // Reference 2: one served node holding the full store, for
    // comparing read RPCs against the cluster.
    let single = service_for_world(&world, &config);
    let public = single.mint_public_key();
    let single_transport = InMemoryTransport::new(single);
    let single_run = run_client_side(&pipeline, &world, &public, &single_transport)
        .expect("single-node client half");

    // The cluster: same world, same seed, three backends, one proxy.
    let cluster = Cluster::start(&world, &config);
    let transport = cluster.transport();
    let run = run_client_side(&pipeline, &world, &public, &transport).expect("proxied client half");

    // Admission through the proxy is the same decision sequence.
    assert!(run.uploads_accepted > 100, "accepted {}", run.uploads_accepted);
    assert_eq!(run.uploads_accepted, single_run.uploads_accepted);
    assert_eq!(run.uploads_rejected, single_run.uploads_rejected);

    // Scatter-gather reads answer bit-identically to the single node:
    // every (zipcode, category) the world lists, every listed entity's
    // aggregate (present, floored, or absent alike).
    let mut queried = 0;
    let mut pairs: Vec<(u32, orsp_types::Category)> =
        listings(&world).iter().map(|l| (l.zipcode, l.category)).collect();
    pairs.sort_by_key(|(zip, cat)| (*zip, format!("{cat:?}")));
    pairs.dedup();
    for (zipcode, category) in pairs {
        let request = Request::Search { query: SearchQuery { zipcode, category } };
        let via_proxy = transport.call(&request).expect("proxy search");
        let via_single = single_transport.call(&request).expect("single search");
        assert_eq!(via_proxy, via_single, "search({zipcode}, {category:?}) diverged");
        if let Response::SearchResults { hits } = &via_proxy {
            queried += hits.len();
        }
    }
    assert!(queried > 0, "the world's listings produced no search hits");
    for listing in listings(&world) {
        let request = Request::FetchAggregate { entity: listing.id };
        assert_eq!(
            transport.call(&request).expect("proxy aggregate"),
            single_transport.call(&request).expect("single aggregate"),
            "aggregate for {:?} diverged",
            listing.id,
        );
    }

    // Stats degrades to namespaced per-backend snapshots plus the
    // proxy's own counters.
    match transport.call(&Request::Stats).expect("proxy stats") {
        Response::Stats { snapshot } => {
            assert!(snapshot.counter("proxy_requests_total").unwrap_or(0) > 0);
            for i in 0..BACKENDS {
                let key = format!("backend{i}_ingest_accepted_total");
                assert!(
                    snapshot.counter(&key).unwrap_or(0) > 0,
                    "missing namespaced backend snapshot {key}"
                );
                assert!(
                    snapshot.counter(&format!("proxy_backend{i}_forwarded_total")).unwrap_or(0) > 0,
                    "backend {i} was never routed to"
                );
            }
        }
        other => panic!("stats got {other:?}"),
    }

    // Teardown both topologies and finish the analytics half.
    let services = cluster.into_services();
    let served_multi = complete_served_multi(&pipeline, &world, run, services);
    let served_single =
        complete_served(&pipeline, &world, single_run, single_transport.into_service());

    assert_eq!(served_multi.ingest.stats(), in_process.ingest.stats());
    assert_eq!(served_multi.tokens_issued, in_process.tokens_issued);
    assert_eq!(served_multi.ingest.store().len(), in_process.ingest.store().len());

    let multi = digest_hex(&outcome_digest(&served_multi));
    assert_eq!(
        multi,
        digest_hex(&outcome_digest(&in_process)),
        "proxied 3-backend pipeline must digest identically to in-process"
    );
    assert_eq!(
        multi,
        digest_hex(&outcome_digest(&served_single)),
        "proxied 3-backend pipeline must digest identically to one served node"
    );
}

/// Satellite pin: the proxy's routing choice IS the ingest tier's shard
/// choice — one formula (`orsp_core::shard_index`, re-exported from
/// `orsp_server`), shared by ingest shards, storage segment logs, and
/// the proxy. A proxy over N backends and an ingest tier with N shards
/// partition record ids identically.
mod routing {
    use super::*;

    fn proxy_of(n: usize) -> ProxyService {
        // Lazy pools never dial, so routing is testable without a
        // single listener.
        let links: Vec<Arc<dyn BackendLink>> = (0..n)
            .map(|i| {
                let addr = format!("127.0.0.1:{}", 19000 + i).parse().unwrap();
                Arc::new(NetPool::new(addr, fast_client(), 1)) as Arc<dyn BackendLink>
            })
            .collect();
        ProxyService::new(links, ProxyConfig::default())
    }

    proptest! {
        #[test]
        fn proxy_choice_equals_ingest_shard_choice(
            raw in proptest::collection::vec(any::<u8>(), 32..33),
            n in 1usize..=12,
        ) {
            let mut bytes = [0u8; 32];
            bytes.copy_from_slice(&raw);
            let proxy = proxy_of(n);
            let record = RecordId::from_bytes(bytes);
            let chosen = proxy.backend_for_record(&record);
            prop_assert_eq!(chosen, shard_index(&bytes, n));
            prop_assert_eq!(chosen, orsp_server::shard_index(record.as_bytes(), n));
            prop_assert!(chosen < n);
        }

        #[test]
        fn device_routing_is_stable_and_in_range(
            device in any::<u64>(),
            n in 1usize..=12,
        ) {
            let proxy = proxy_of(n);
            let id = orsp_types::DeviceId::new(device);
            let chosen = proxy.backend_for_device(id);
            prop_assert!(chosen < n);
            prop_assert_eq!(chosen, proxy.backend_for_device(id));
        }
    }
}
