//! The ORSP front door as a binary.
//!
//! ```sh
//! orsp-proxy --listen 127.0.0.1:7400 \
//!     --backend 127.0.0.1:7401 --backend 127.0.0.1:7402 --backend 127.0.0.1:7403
//! ```
//!
//! Speaks the ORSP wire protocol on both sides: clients connect to
//! `--listen` exactly as they would to a single daemon; each `--backend`
//! is a running RSP node (see `examples/rsp_daemon.rs --listen`). Writes
//! route to the owning backend by `shard_index(record_id)`; reads
//! scatter-gather with merges bit-identical to a single node.
//!
//! `--pool N` sets the persistent keep-alive connections per backend
//! (default 4). `--cluster-internal` serves the floor-unfiltered
//! `AggregateParts` RPCs to this proxy's clients — only for a proxy that
//! is itself a backend of another proxy, deployed behind the same
//! firewall as the leaf backends; a public front door (the default)
//! refuses them. The proxy serves until stdin reaches EOF (pipe from
//! `sleep` or close the terminal with ctrl-d), then drains gracefully
//! and prints its final metric snapshot.

use orsp_net::{ClientConfig, NetPool, NetServer, ServerConfig};
use orsp_proxy::{BackendLink, ProxyConfig, ProxyService};
use std::io::Read;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let listen = args
        .iter()
        .position(|a| a == "--listen")
        .map(|i| args.get(i + 1).expect("--listen takes an address").clone())
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let backends: Vec<SocketAddr> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == "--backend")
        .map(|(i, _)| {
            args.get(i + 1)
                .expect("--backend takes an address")
                .parse()
                .expect("--backend address")
        })
        .collect();
    if backends.is_empty() {
        eprintln!(
            "usage: orsp-proxy [--listen ADDR] --backend ADDR [--backend ADDR ...] \
             [--pool N] [--max-connections N] [--cluster-internal] \
             [--replication-factor N] [--trace-sample PER10K] [--trace-slow-us N]"
        );
        std::process::exit(2);
    }
    let cluster_internal = args.iter().any(|a| a == "--cluster-internal");
    // Replication factor of the backend tier (see `orsp-replicad`):
    // above 1, the proxy fails reads and writes over to a range's
    // follower when its primary goes hard-down, promoting it in place.
    let replication_factor: usize = args
        .iter()
        .position(|a| a == "--replication-factor")
        .map(|i| {
            args.get(i + 1)
                .expect("--replication-factor takes a count")
                .parse()
                .expect("--replication-factor count")
        })
        .unwrap_or(1);
    let pool: usize = args
        .iter()
        .position(|a| a == "--pool")
        .map(|i| args.get(i + 1).expect("--pool takes a count").parse().expect("--pool count"))
        .unwrap_or(4);
    // Connection slab size: the proxy is the tier that fronts the device
    // fleet, so this is where a raised ceiling matters most. 0 means
    // workers + queue depth.
    let max_connections: usize = args
        .iter()
        .position(|a| a == "--max-connections")
        .map(|i| {
            args.get(i + 1)
                .expect("--max-connections takes a count")
                .parse()
                .expect("--max-connections count")
        })
        .unwrap_or(0);
    // Head-based trace sampling, in traces per 10 000 roots (default 100
    // = 1%); requests slower than `--trace-slow-us` are sampled anyway.
    let trace_sample: Option<u32> = args.iter().position(|a| a == "--trace-sample").map(|i| {
        args.get(i + 1)
            .expect("--trace-sample takes a per-10k rate")
            .parse()
            .expect("--trace-sample rate")
    });
    let trace_slow_us: Option<u64> = args.iter().position(|a| a == "--trace-slow-us").map(|i| {
        args.get(i + 1)
            .expect("--trace-slow-us takes microseconds")
            .parse()
            .expect("--trace-slow-us microseconds")
    });

    // The fan-out inherits the call deadline: a black-holed backend
    // costs a scatter-gather leg at most this budget (dial + retries),
    // never connect_timeout × attempts.
    let backend_client =
        ClientConfig { call_deadline: Some(Duration::from_secs(10)), ..ClientConfig::default() };
    let links: Vec<Arc<dyn BackendLink>> = backends
        .iter()
        .map(|&addr| {
            Arc::new(NetPool::new(addr, backend_client, pool)) as Arc<dyn BackendLink>
        })
        .collect();
    for (i, addr) in backends.iter().enumerate() {
        println!("proxy: backend {i} -> {addr} ({pool} pooled connections)");
    }
    if cluster_internal {
        println!("proxy: cluster-internal tier — serving floor-unfiltered AggregateParts");
    }
    let service = Arc::new(ProxyService::new(
        links,
        ProxyConfig { cluster_internal, replication_factor, ..ProxyConfig::default() },
    ));
    if replication_factor > 1 {
        println!("proxy: replication factor {replication_factor} — failover routing enabled");
    }
    // Distinct per-process id streams: the library default seed is fixed
    // (tests pin ids), but the proxy and its backends must never mint
    // colliding trace ids or the trace join would fuse unrelated traces.
    let trace_seed = (std::process::id() as u64) << 32
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
    service.obs().tracer().set_seed(trace_seed);
    if let Some(rate) = trace_sample {
        service.obs().tracer().set_sampling(rate);
        println!("proxy: tracing {rate}/10000 requests");
    }
    if let Some(slow) = trace_slow_us {
        service.obs().tracer().set_slow_threshold_us(slow);
        println!("proxy: always tracing requests slower than {slow}µs");
    }
    let server = NetServer::bind(
        listen.as_str(),
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
