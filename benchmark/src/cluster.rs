//! The real-process topology: 3× `orsp-replicad` (RF 2, sync, fsync
//! always) behind 1× `orsp-proxy`, on loopback, plus the data-directory
//! layout both topologies preload.
//!
//! Every child has a piped stdin. The daemons serve until stdin reaches
//! EOF, so a harness that dies for any reason — panic, SIGINT, SIGKILL —
//! closes the pipes and the children drain and exit on their own; on the
//! normal paths [`Cluster`] drains or kills them and waits for each.

use crate::gen::{world_flags, Dataset};
use orsp_net::{ClientConfig, NetClient};
use orsp_server::IngestStats;
use orsp_storage::{FsDir, FsyncPolicy, StorageEngine, StorageOptions};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Backends in the cluster.
pub const NODES: usize = 3;
/// Copies of each hash range.
pub const RF: usize = 2;
/// How long a daemon may take to answer its first `Ping`.
const READY_DEADLINE: Duration = Duration::from_secs(60);

/// Directory of range `range`'s copy on `node`: the born range lives in
/// the node's data directory, a followed one in `follow-r<range>` — the
/// layout `orsp-replicad` opens.
pub fn range_dir(root: &Path, node: usize, range: usize) -> PathBuf {
    let base = root.join(format!("node{node}"));
    if node == range {
        base
    } else {
        base.join(format!("follow-r{range}"))
    }
}

/// Nodes holding `range`, primary first (`Topology::replica_set`).
pub fn replica_set(range: usize) -> [usize; RF] {
    [range, (range + 1) % NODES]
}

/// The options every range engine opens with (the daemons' defaults at
/// `--fsync always`).
pub fn storage_options() -> StorageOptions {
    StorageOptions {
        fsync: FsyncPolicy::Always,
        ..StorageOptions::default()
    }
}

/// Write the preload into every range directory of the cluster layout:
/// each range's histories become a checkpoint in its primary directory
/// and in its follower copy, so daemon start-up performs a real recovery
/// (checkpoint decode, store rebuild, `publish_aggregates`).
pub fn preload_cluster(root: &Path, data: &Dataset) {
    let stores = data.stores_by_range(NODES);
    for (range, store) in stores.iter().enumerate() {
        let stats = IngestStats {
            accepted: store.total_interactions() as u64,
            ..IngestStats::default()
        };
        for node in replica_set(range) {
            let dir = Arc::new(FsDir::open(range_dir(root, node, range)).expect("open range dir"));
            let (engine, _) =
                StorageEngine::open(dir, storage_options()).expect("fresh range engine");
            engine
                .checkpoint(store, &stats, &HashSet::new())
                .expect("preload checkpoint");
        }
    }
}

fn sibling_binary(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    exe.parent().expect("exe has a directory").join(name)
}

fn wait_ready(addr: SocketAddr, what: &str) {
    let deadline = Instant::now() + READY_DEADLINE;
    loop {
        if let Ok(mut client) = NetClient::connect(
            addr,
            ClientConfig {
                max_retries: 0,
                ..ClientConfig::default()
            },
        ) {
            if client.ping().is_ok() {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "{what} at {addr} never answered Ping"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The running cluster. Dropping it kills whatever is still alive.
pub struct Cluster {
    backends: Vec<Child>,
    proxy: Option<Child>,
    /// Where clients connect.
    pub proxy_addr: SocketAddr,
    /// The backends, by node index.
    pub backend_addrs: Vec<SocketAddr>,
}

impl Cluster {
    /// Spawn the four daemons over the preloaded `root` and wait until
    /// each answers `Ping`. Backends first: a proxy whose first read met
    /// a backend still recovering would promote its follower.
    pub fn start(root: &Path, seed: u64) -> Cluster {
        // Reserve loopback ports so every daemon can be told every
        // address up front.
        let reserved: Vec<TcpListener> = (0..=NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
            .collect();
        let addrs: Vec<SocketAddr> = reserved
            .iter()
            .map(|l| l.local_addr().expect("reserved addr"))
            .collect();
        drop(reserved);
        let (backend_addrs, proxy_addr) = (addrs[..NODES].to_vec(), addrs[NODES]);

        let mut cluster = Cluster {
            backends: Vec::new(),
            proxy: None,
            proxy_addr,
            backend_addrs,
        };
        for node in 0..NODES {
            let mut cmd = Command::new(sibling_binary("orsp-replicad"));
            cmd.arg("--data-dir")
                .arg(range_dir(root, node, node))
                .args(["--listen", &cluster.backend_addrs[node].to_string()])
                .args(["--node", &node.to_string()])
                .args(["--cluster-size", &NODES.to_string()])
                .args(["--replication-factor", &RF.to_string()])
                .args(["--replication", "sync", "--fsync", "always"])
                .args(world_flags(seed));
            for peer in &cluster.backend_addrs {
                cmd.args(["--peer", &peer.to_string()]);
            }
            cluster.backends.push(spawn(cmd));
        }
        for (node, &addr) in cluster.backend_addrs.iter().enumerate() {
            wait_ready(addr, &format!("replicad {node}"));
        }
        let mut cmd = Command::new(sibling_binary("orsp-proxy"));
        cmd.args(["--listen", &proxy_addr.to_string()])
            .args(["--replication-factor", &RF.to_string()]);
        for backend in &cluster.backend_addrs {
            cmd.args(["--backend", &backend.to_string()]);
        }
        cluster.proxy = Some(spawn(cmd));
        wait_ready(proxy_addr, "proxy");
        cluster
    }

    /// Pids: the three backends, then the proxy.
    pub fn pids(&self) -> Vec<u32> {
        self.backends
            .iter()
            .chain(self.proxy.iter())
            .map(|c| c.id())
            .collect()
    }

    /// Graceful stop: close the proxy's stdin and wait for it, then the
    /// backends' (each drains and checkpoints every range it holds).
    /// Panics if a daemon exits unsuccessfully.
    pub fn drain(mut self) {
        for mut child in self.proxy.take().into_iter().chain(self.backends.drain(..)) {
            drop(child.stdin.take());
            let status = child.wait().expect("wait for daemon");
            assert!(status.success(), "daemon {} exited {status}", child.id());
        }
    }
}

fn spawn(mut cmd: Command) -> Child {
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd.spawn()
        .unwrap_or_else(|e| panic!("spawn {:?}: {e}", cmd.get_program()))
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in self.proxy.iter_mut().chain(self.backends.iter_mut()) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// True while `pid` is a live (or zombie) process.
pub fn process_exists(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}
