//! The same topologies, inside the benchmark process, with a `Traced…`
//! wrapper at every seam.
//!
//! [`InProcCluster`] repeats the wiring of `orsp_replicad.rs` and
//! `orsp_proxy.rs` — `ReplicaNode` / `ReplicatingSink` / `Topology` /
//! `NetServer` / `NetPool`, loopback TCP between tiers, the binaries'
//! client settings and pool sizes — minus what a first start never
//! exercises (the newer-primary probe). The checker holds both copies to
//! one oracle so the duplication cannot drift unnoticed.
//! [`SingleNode`] is the `rsp_daemon` composition `mixed_fresh` runs on.

use crate::cluster::{range_dir, storage_options, NODES, RF};
use crate::trace::{Seam, TracedBackend, TracedPeer, TracedService, TracedSink};
use orsp_core::{service_for_world_sharded, PipelineConfig};
use orsp_net::{ClientConfig, NetPool, NetServer, ReplicaHook, RspService, ServerConfig};
use orsp_proxy::{BackendLink, ProxyConfig, ProxyService};
use orsp_replica::{
    PeerLink, RangeInit, ReplicaNode, ReplicatingSink, ReplicationMode, Role, Topology,
};
use orsp_server::{GroupCommitConfig, IngestService, WalSink};
use orsp_storage::{Dir, FsDir, StorageEngine};
use orsp_world::World;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// `orsp_replicad.rs::peer_client`.
fn peer_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(5),
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(16),
        call_deadline: Some(Duration::from_secs(15)),
    }
}

fn group_commit() -> GroupCommitConfig {
    let options = storage_options();
    GroupCommitConfig {
        batch_max: options.group_commit_batch_max.max(1),
        window_us: options.group_commit_window_us,
    }
}

struct Node {
    service: Arc<RspService>,
    replica: Arc<ReplicaNode>,
    server: NetServer,
}

/// 1 proxy + 3 replica nodes in this process.
pub struct InProcCluster {
    nodes: Vec<Node>,
    proxy_server: NetServer,
    /// Where clients connect.
    pub proxy_addr: SocketAddr,
}

impl InProcCluster {
    /// Recover every range under the preloaded `root` and start serving.
    pub fn start(root: &Path, world: &World) -> InProcCluster {
        let reserved: Vec<TcpListener> = (0..NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
            .collect();
        let backend_addrs: Vec<SocketAddr> = reserved
            .iter()
            .map(|l| l.local_addr().expect("reserved addr"))
            .collect();
        drop(reserved);

        let nodes: Vec<Node> = (0..NODES)
            .map(|index| {
                let topology = Topology::new(index as u32, NODES as u32, RF as u32);
                let peers: Vec<Option<Arc<dyn PeerLink>>> = (0..NODES)
                    .map(|peer| {
                        (peer != index).then(|| {
                            TracedPeer::wrap(
                                Arc::new(NetPool::new(backend_addrs[peer], peer_client(), 2)),
                                peer,
                            )
                        })
                    })
                    .collect();
                let mut inits = Vec::new();
                let mut born = None;
                // Born range first, then the followed ones, each its own
                // engine in its own directory.
                for range in topology.held_ranges() {
                    let dir: Arc<dyn Dir> = Arc::new(
                        FsDir::open(range_dir(root, index, range as usize))
                            .expect("open range dir"),
                    );
                    let (engine, report) = StorageEngine::open(Arc::clone(&dir), storage_options())
                        .expect("recover range");
                    let engine = Arc::new(engine);
                    let is_born = range as usize == index;
                    inits.push(RangeInit {
                        range,
                        role: if is_born {
                            Role::Primary
                        } else {
                            Role::Follower
                        },
                        epoch: report.epoch,
                        dir,
                        engine: Arc::clone(&engine),
                    });
                    if is_born {
                        born = Some((engine, report));
                    }
                }
                let (born_engine, report) = born.expect("a node holds its born range");
                let service = Arc::new(service_for_world_sharded(
                    world,
                    &PipelineConfig::default(),
                    IngestService::from_parts(report.store, report.stats),
                    None,
                    born_engine.shard_count(),
                ));
                service.seed_spent_tokens(report.spent_tokens);
                let replica = Arc::new(ReplicaNode::new(
                    topology,
                    ReplicationMode::Sync,
                    peers,
                    inits,
                    service.obs(),
                ));
                service.set_durability_with(
                    TracedSink::wrap(
                        Arc::new(ReplicatingSink::new(Arc::clone(&replica))) as Arc<dyn WalSink>,
                        index,
                    ),
                    group_commit(),
                );
                service.set_replica(Arc::clone(&replica) as Arc<dyn ReplicaHook>);
                service.publish_aggregates();
                let server = NetServer::bind(
                    backend_addrs[index],
                    TracedService::wrap(service.clone(), Seam::Backend, index),
                    ServerConfig::default(),
                )
                .expect("bind in-process replica node");
                Node {
                    service,
                    replica,
                    server,
                }
            })
            .collect();

        // `orsp_proxy.rs`: default client settings with a 10 s call
        // deadline, four pooled connections per backend.
        let backend_client = ClientConfig {
            call_deadline: Some(Duration::from_secs(10)),
            ..ClientConfig::default()
        };
        let links: Vec<Arc<dyn BackendLink>> = backend_addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                TracedBackend::wrap(Arc::new(NetPool::new(addr, backend_client, 4)), i)
            })
            .collect();
        let proxy = Arc::new(ProxyService::new(
            links,
            ProxyConfig {
                replication_factor: RF,
                ..ProxyConfig::default()
            },
        ));
        let proxy_server = NetServer::bind(
            "127.0.0.1:0",
            TracedService::wrap(proxy, Seam::Proxy, 0),
            ServerConfig::default(),
        )
        .expect("bind in-process proxy");
        let proxy_addr = proxy_server.local_addr();
        InProcCluster {
            nodes,
            proxy_server,
            proxy_addr,
        }
    }

    /// Drain: proxy first, then every node (servers join their workers;
    /// sync replication has nothing queued). The range directories are
    /// complete on return.
    pub fn shutdown(self) {
        self.proxy_server.shutdown();
        for node in self.nodes {
            node.server.shutdown();
            node.replica.shutdown();
            drop(node.service);
        }
    }
}

/// One node: `service_for_world_sharded` + a `StorageEngine`
/// (fsync always) as its `WalSink` + `NetServer`.
pub struct SingleNode {
    /// The serving tier (the benchmark calls `publish_aggregates` on it).
    pub service: Arc<RspService>,
    server: NetServer,
    /// Where clients connect.
    pub addr: SocketAddr,
}

impl SingleNode {
    /// Recover the preloaded `dir` and start serving.
    pub fn start(dir: &Path, world: &World) -> SingleNode {
        let dir: Arc<dyn Dir> = Arc::new(FsDir::open(dir).expect("open data dir"));
        let (engine, report) =
            StorageEngine::open(dir, storage_options()).expect("recover data dir");
        let engine = Arc::new(engine);
        let service = Arc::new(service_for_world_sharded(
            world,
            &PipelineConfig::default(),
            IngestService::from_parts(report.store, report.stats),
            None,
            engine.shard_count(),
        ));
        service.seed_spent_tokens(report.spent_tokens);
        service.set_durability_with(
            TracedSink::wrap(engine as Arc<dyn WalSink>, 0),
            group_commit(),
        );
        service.publish_aggregates();
        let server = NetServer::bind(
            "127.0.0.1:0",
            TracedService::wrap(service.clone(), Seam::Backend, 0),
            ServerConfig::default(),
        )
        .expect("bind single node");
        let addr = server.local_addr();
        SingleNode {
            service,
            server,
            addr,
        }
    }

    /// Requests the server has dispatched so far.
    pub fn requests(&self) -> u64 {
        self.server.stats().requests
    }

    /// Drain the server; the directory is complete on return.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}
