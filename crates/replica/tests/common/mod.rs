//! Spawn helpers shared by the suites that drive real `orsp-replicad`
//! processes.

use orsp_net::{ClientConfig, Request, Response, TcpTransport, Transport};
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Same world as the proxy end-to-end suite — and the same seed every
/// replicad child derives, so the whole cluster shares one mint.
pub fn small_world() -> World {
    let cfg = WorldConfig {
        users_per_zipcode: 50,
        horizon: SimDuration::days(240),
        ..WorldConfig::tiny(73)
    };
    World::generate(cfg).unwrap()
}

pub fn fast_client() -> ClientConfig {
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

pub fn spawn_node(
    dir: &Path,
    node: usize,
    cluster: usize,
    listen: &str,
    peers: &[SocketAddr],
) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_orsp-replicad"));
    cmd.arg("--data-dir")
        .arg(dir)
        .args(["--listen", listen])
        .args(["--node", &node.to_string()])
        .args(["--cluster-size", &cluster.to_string()])
        .args(["--replication-factor", &cluster.min(2).to_string()])
        .args(["--replication", "sync"])
        .args(["--seed", "73"])
        .args(["--users-per-zipcode", "50"])
        .args(["--horizon-days", "240"]);
    for peer in peers {
        cmd.args(["--peer", &peer.to_string()]);
    }
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    cmd.spawn().expect("spawn orsp-replicad")
}

/// Block until the node answers a Ping (world generation and recovery
/// happen before it binds, so allow a generous deadline).
pub fn wait_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        if let Ok(transport) = TcpTransport::connect(addr, fast_client()) {
            if matches!(transport.call(&Request::Ping), Ok(Response::Pong)) {
                return;
            }
        }
        assert!(Instant::now() < deadline, "node at {addr} never became ready");
        std::thread::sleep(Duration::from_millis(50));
    }
}
