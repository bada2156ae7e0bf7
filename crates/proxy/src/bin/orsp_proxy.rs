//! The ORSP front door as a binary.
//!
//! ```sh
//! orsp-proxy --listen 127.0.0.1:7400 \
//!     --backend 127.0.0.1:7401 --backend 127.0.0.1:7402 --backend 127.0.0.1:7403
//! ```
//!
//! Speaks the ORSP wire protocol on both sides: clients connect to
//! `--listen` exactly as they would to a single daemon; each `--backend`
//! is a running `orsp-replicad` node. Writes route to the owning backend
//! by `shard_index(record_id)`; reads scatter-gather with merges
//! bit-identical to a single node.
//!
//! `--pool N` sets the persistent keep-alive connections per backend
//! (default 4). `--cluster-internal` serves the floor-unfiltered
//! `AggregateParts` RPCs to this proxy's clients — only for a proxy that
//! is itself a backend of another proxy, deployed behind the same
//! firewall as the leaf backends; a public front door (the default)
//! refuses them. The proxy serves until stdin reaches EOF (pipe from
//! `sleep` or close the terminal with ctrl-d), then drains gracefully
//! and prints its final metric snapshot.

use orsp_net::{
    process_trace_seed, ClientConfig, FlagSpec, Flags, NetPool, NetServer, ServerConfig,
};
use orsp_proxy::{BackendLink, ProxyConfig, ProxyService};
use orsp_server::Topology;
use std::io::Read;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Every flag this binary defines; anything else on argv is a usage error.
const FLAGS: &[FlagSpec] = &[
    ("--listen", "ADDR"),
    ("--backend", "ADDR"),
    ("--pool", "N"),
    ("--max-connections", "N"),
    ("--cluster-internal", ""),
    ("--replication-factor", "N"),
    ("--trace-sample", "PER10K"),
    ("--trace-slow-us", "N"),
];

fn main() {
    let flags = Flags::from_env("orsp-proxy", FLAGS);
    let listen = flags.value("--listen").unwrap_or("127.0.0.1:0");
    let backends: Vec<SocketAddr> = flags
        .all("--backend")
        .map(|a| {
            a.parse().unwrap_or_else(|_| flags.usage_error(&format!("--backend {a}: bad address")))
        })
        .collect();
    if backends.is_empty() {
        flags.usage_error("at least one --backend is required");
    }
    let cluster_internal = flags.has("--cluster-internal");
    // Replication factor of the backend tier (see `orsp-replicad`):
    // above 1, the proxy fails reads and writes over to a range's
    // follower when its primary goes hard-down, promoting it in place.
    // `orsp-replicad`'s shape check refuses a factor the backends cannot
    // hold, before anything binds.
    let replication_factor: u32 = flags.parsed("--replication-factor").unwrap_or(1);
    if let Err(e) = Topology::try_new(0, backends.len() as u32, replication_factor) {
        flags.usage_error(&format!("--replication-factor: {e}"));
    }
    let pool: usize = flags.parsed("--pool").unwrap_or(4);
    // Connection slab size: the proxy is the tier that fronts the device
    // fleet, so this is where a raised ceiling matters most. 0 means
    // workers + queue depth.
    let max_connections: usize = flags.parsed("--max-connections").unwrap_or(0);
    // Head-based trace sampling, in traces per 10 000 roots (default 100
    // = 1%); requests slower than `--trace-slow-us` are sampled anyway.
    let trace_sample: Option<u32> = flags.parsed("--trace-sample");
    let trace_slow_us: Option<u64> = flags.parsed("--trace-slow-us");

    // The fan-out inherits the call deadline: a black-holed backend
    // costs a scatter-gather leg at most this budget (dial + retries),
    // never connect_timeout × attempts.
    let backend_client =
        ClientConfig { call_deadline: Some(Duration::from_secs(10)), ..ClientConfig::default() };
    let links: Vec<Arc<dyn BackendLink>> = backends
        .iter()
        .map(|&addr| Arc::new(NetPool::new(addr, backend_client, pool)) as Arc<dyn BackendLink>)
        .collect();
    for (i, addr) in backends.iter().enumerate() {
        println!("proxy: backend {i} -> {addr} ({pool} pooled connections)");
    }
    if cluster_internal {
        println!("proxy: cluster-internal tier — serving floor-unfiltered AggregateParts");
    }
    let service = Arc::new(ProxyService::new(
        links,
        ProxyConfig {
            cluster_internal,
            replication_factor: replication_factor as usize,
            ..ProxyConfig::default()
        },
    ));
    if replication_factor > 1 {
        println!("proxy: replication factor {replication_factor} — failover routing enabled");
    }
    service.obs().tracer().set_seed(process_trace_seed());
    if let Some(rate) = trace_sample {
        service.obs().tracer().set_sampling(rate);
        println!("proxy: tracing {rate}/10000 requests");
    }
    if let Some(slow) = trace_slow_us {
        service.obs().tracer().set_slow_threshold_us(slow);
        println!("proxy: always tracing requests slower than {slow}µs");
    }
    let server = NetServer::bind(
        listen,
        service.clone(),
        ServerConfig { max_connections, ..ServerConfig::default() },
    )
    .expect("bind proxy");
    println!("proxy: listening on {} over {} backends", server.local_addr(), backends.len());

    // Serve until stdin closes, then drain.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    let stats = server.shutdown();
    println!(
        "proxy: drained — {} connections, {} requests, {} shed",
        stats.accepted, stats.requests, stats.shed
    );
    println!("proxy: final snapshot\n{}", service.obs().snapshot().render_json());
}
