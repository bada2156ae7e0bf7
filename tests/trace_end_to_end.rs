//! Trace causality across the cluster: one sampled upload through a
//! proxy and two TCP backends produces a single connected span tree —
//! the proxy's RPC root, its `backend_call` child, the backend's
//! `server/upload` span under that, and the group-commit machinery
//! (`ingest_shard`, `group_commit_wait`, `group_commit_lead`,
//! `wal_fsync`) as descendants — assembled by one `Traces` RPC against
//! the proxy, which drains its own spans, scatters to the backends, and
//! stitches the parts by trace id.
//!
//! The two backends replicate each other's range (RF 2, sync) over
//! TCP, so the upload's `wal_fsync` covers two children that run at
//! once: the primary's own `storage_fsync` and the `replicate` span
//! from the send to the follower's answer, under which the follower's
//! `server/replicate` parents. The two must be siblings: the local
//! flush runs beside the forward, not inside it.
//!
//! The sampling decision is made once, at the proxy (head-based,
//! pinned to always-sample here); the backends inherit it from the
//! trace context on the wire, never re-rolling. Clock domains differ
//! per process, so the nesting assertion below is only sound because
//! `merge_traces` re-centers each remote fragment inside its wire
//! parent and clamps top-down.

use orsp_core::{serve, PipelineConfig};
use orsp_crypto::TokenWallet;
use orsp_net::{
    ClientConfig, NetClient, NetPool, NetServer, RemoteIssuer, RspService, ServerConfig,
    TcpTransport,
};
use orsp_obs::TraceRecord;
use orsp_proxy::{BackendLink, ProxyConfig, ProxyService};
use orsp_replica::{PeerLink, RangeInit, ReplicaNode, ReplicatingSink, ReplicationMode, Role};
use orsp_server::{GroupCommitConfig, Topology, WalSink};
use orsp_storage::{Dir, FsyncPolicy, SimDir, StorageEngine, StorageOptions};
use orsp_types::rng::rng_for;
use orsp_types::{DeviceId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp};
use orsp_world::{World, WorldConfig};
use std::sync::Arc;
use std::time::Duration;

const BACKENDS: usize = 2;

/// Backend `node`'s replication: an in-memory engine per held range
/// (its born range as primary, its neighbour's as follower) and a pool
/// to the other backend.
fn replica_node(node: usize, peer: std::net::SocketAddr) -> Arc<ReplicaNode> {
    let topology = Topology::new(node as u32, BACKENDS as u32, 2);
    let inits = topology
        .held_ranges()
        .into_iter()
        .map(|range| {
            let dir: Arc<dyn Dir> = Arc::new(SimDir::new());
            let options =
                StorageOptions { fsync: FsyncPolicy::Always, ..StorageOptions::default() };
            let (engine, _) = StorageEngine::open(Arc::clone(&dir), options).expect("engine");
            let role = if range == node as u32 { Role::Primary } else { Role::Follower };
            RangeInit { range, role, epoch: 0, dir, engine: Arc::new(engine) }
        })
        .collect();
    let mut peers: Vec<Option<Arc<dyn PeerLink>>> = vec![None; BACKENDS];
    peers[1 - node] = Some(Arc::new(NetPool::new(peer, fast_client(), 2)));
    Arc::new(ReplicaNode::new(
        topology,
        ReplicationMode::Sync,
        peers,
        inits,
        &orsp_obs::Registry::new(),
    ))
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

/// Walk parent links from `from` to the root, returning the names
/// passed through (inclusive of `from`, exclusive of nothing — the
/// root's name is last).
fn ancestor_names(trace: &TraceRecord, from: u64) -> Vec<String> {
    let mut names = Vec::new();
    let mut cursor = Some(from);
    while let Some(id) = cursor {
        let Some(span) = trace.spans.iter().find(|s| s.span_id == id) else { break };
        names.push(span.name.clone());
        cursor = trace
            .spans
            .iter()
            .any(|s| s.span_id == span.parent_span_id)
            .then_some(span.parent_span_id);
    }
    names
}

#[test]
fn sampled_upload_trace_connects_proxy_backend_and_fsync() {
    let world = World::generate(WorldConfig {
        users_per_zipcode: 30,
        horizon: SimDuration::days(60),
        ..WorldConfig::tiny(31)
    })
    .unwrap();
    let config = PipelineConfig::default();

    // Two backends replicating each other, tracing pinned to
    // always-sample with distinct deterministic id streams per process.
    let backends: Vec<(NetServer, Arc<RspService>)> = (0..BACKENDS)
        .map(|i| {
            let (server, service) = serve(&world, &config, "127.0.0.1:0", ServerConfig::default())
                .expect("bind backend");
            service.obs().tracer().set_seed(100 + i as u64);
            service.obs().tracer().set_sampling(10_000);
            (server, service)
        })
        .collect();
    let nodes: Vec<Arc<ReplicaNode>> = (0..BACKENDS)
        .map(|i| {
            let node = replica_node(i, backends[1 - i].0.local_addr());
            let service = &backends[i].1;
            service.set_durability_with(
                Arc::new(ReplicatingSink::new(Arc::clone(&node))) as Arc<dyn WalSink>,
                GroupCommitConfig { batch_max: 8, window_us: 0 },
            );
            service.set_replica(Arc::clone(&node) as Arc<dyn orsp_net::ReplicaHook>);
            node
        })
        .collect();
    let links: Vec<Arc<dyn BackendLink>> = backends
        .iter()
        .map(|(server, _)| {
            Arc::new(NetPool::new(server.local_addr(), fast_client(), 2)) as Arc<dyn BackendLink>
        })
        .collect();
    let proxy = Arc::new(ProxyService::new(links, ProxyConfig::default()));
    proxy.obs().tracer().set_seed(7);
    proxy.obs().tracer().set_sampling(10_000);
    let proxy_server =
        NetServer::bind("127.0.0.1:0", proxy.clone(), ServerConfig::default()).expect("bind proxy");
    let addr = proxy_server.local_addr();

    // One device round trip, entirely through the proxy: blind token,
    // then the upload whose trace this test dissects.
    let transport = TcpTransport::connect(addr, fast_client()).expect("transport");
    let mut rng = rng_for(5, "trace-e2e-device");
    let mut wallet = TokenWallet::new(DeviceId::new(9), backends[0].1.mint_public_key());
    let mut issuer = RemoteIssuer::new(&transport);
    wallet.request_token(&mut rng, &mut issuer, Timestamp::EPOCH).expect("blind token");

    let mut client = NetClient::connect(addr, fast_client()).expect("connect");
    let upload = orsp_crypto::UploadRequest {
        record_id: RecordId::from_bytes([7u8; 32]),
        entity: world.entities[0].id,
        interaction: Interaction::solo(
            InteractionKind::Visit,
            Timestamp::EPOCH + SimDuration::hours(12),
            SimDuration::minutes(35),
            900.0,
        ),
        token: wallet.take_token().expect("token in wallet"),
        release_at: Timestamp::EPOCH + SimDuration::hours(13),
    };
    let verdict =
        client.upload(upload, Timestamp::EPOCH + SimDuration::hours(13)).expect("upload RPC");
    assert!(verdict.is_ok(), "upload rejected: {verdict:?}");

    // Drain through the proxy: local proxy spans + both backends'
    // spans, joined by trace id and stitched into one tree each.
    let traces = client.traces().expect("traces RPC");
    let trace = traces
        .iter()
        .find(|t| t.spans.iter().any(|s| s.name == "server/upload"))
        .expect("no trace contains the backend upload span");

    // The tree is rooted at the proxy and crosses into exactly one
    // backend process.
    let root = trace.root().expect("trace has a root");
    assert_eq!(root.name, "proxy/upload");
    assert_eq!(root.process, "proxy");
    let backend_call =
        trace.spans.iter().find(|s| s.name == "backend_call").expect("no backend_call span");
    assert_eq!(backend_call.parent_span_id, root.span_id);
    assert_eq!(backend_call.process, "proxy");
    let server_upload =
        trace.spans.iter().find(|s| s.name == "server/upload").expect("checked above");
    assert_eq!(server_upload.parent_span_id, backend_call.span_id);
    assert!(
        server_upload.process.starts_with("backend"),
        "backend span process was {:?}",
        server_upload.process
    );

    // The covering fsync is a descendant of the backend RPC via the
    // group-commit chain.
    let fsync = trace.spans.iter().find(|s| s.name == "wal_fsync").expect("no wal_fsync span");
    assert_eq!(fsync.process, server_upload.process);
    let chain = ancestor_names(trace, fsync.span_id);
    for expected in
        ["wal_fsync", "group_commit_lead", "group_commit_wait", "server/upload", "proxy/upload"]
    {
        assert!(chain.iter().any(|n| n == expected), "{expected} missing from {chain:?}");
    }
    assert!(trace.spans.iter().any(|s| s.name == "ingest_shard"), "shard handoff span missing");

    // The primary's flush and its forward are siblings under the
    // covering fsync; the follower's apply parents under the forward.
    let primary_span = |name: &str| {
        trace
            .spans
            .iter()
            .find(|s| s.name == name && s.process == server_upload.process)
            .unwrap_or_else(|| panic!("no {name} span on the primary"))
    };
    let replicate = primary_span("replicate");
    assert_eq!(replicate.parent_span_id, fsync.span_id, "replicate's parent");
    assert_eq!(primary_span("storage_fsync").parent_span_id, fsync.span_id, "local flush's parent");
    let applied =
        trace.spans.iter().find(|s| s.name == "server/replicate").expect("no follower span");
    assert_ne!(applied.process, server_upload.process, "the follower is the other backend");
    assert_eq!(applied.parent_span_id, replicate.span_id);

    // Every child interval nests inside its parent — across the
    // process boundary too, which is the stitch/clamp contract.
    for span in &trace.spans {
        if let Some(parent) = trace.spans.iter().find(|p| p.span_id == span.parent_span_id) {
            assert!(
                parent.start_us <= span.start_us && span.end_us <= parent.end_us,
                "span {} [{}, {}] escapes parent {} [{}, {}]",
                span.name,
                span.start_us,
                span.end_us,
                parent.name,
                parent.start_us,
                parent.end_us,
            );
        }
    }

    // Drained means drained: the upload trace is handed out once.
    let again = client.traces().expect("second traces RPC");
    assert!(!again.iter().any(|t| t.trace_id == trace.trace_id), "trace was exported twice");

    proxy_server.shutdown();
    for (server, _) in backends {
        server.shutdown();
    }
    for node in nodes {
        node.shutdown();
    }
}
