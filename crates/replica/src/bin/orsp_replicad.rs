//! The durable RSP daemon: the serving core (`RspService` over sharded
//! ingest and the storage engine) plus per-range replication. Alone
//! (`--cluster-size 1`, the default) it is the single durable node; N of
//! them behind `orsp-proxy` are a cluster, unreplicated at
//! `--replication-factor 1`.
//!
//! Each node is born owning the hash range equal to its `--node` index
//! (in `--data-dir`) and follows the ranges the [`Topology`] assigns it
//! (each in its own `follow-r<r>` subdirectory — one engine per range,
//! so per-range state and token attribution are structural). On
//! startup the node probes its born range's replica-set peers: if one
//! answers as primary at a higher epoch, this node was failed over
//! while away — it demotes itself, catches up from the new primary
//! (anti-entropy, digest-proven), and rejoins as a follower.
//!
//! ```sh
//! orsp-replicad --data-dir /tmp/n0 --listen 127.0.0.1:7100 \
//!     --node 0 --cluster-size 3 --replication-factor 2 \
//!     --peer 127.0.0.1:7100 --peer 127.0.0.1:7101 --peer 127.0.0.1:7102
//! ```
//!
//! `--replication sync` (default) forwards each group-commit batch to
//! the range's followers before the batch's uploads are acked;
//! `--replication async` acks after the local fsync and forwards from a
//! background queue (the `replication_lag` gauge is its depth).
//!
//! Serves until stdin reaches EOF, then drains and checkpoints every
//! held range from a scan of its own directory. (Checkpoint stats come
//! from log replay, so reject counters — node-local noise outside the
//! replication contract — reset across restarts.)

use orsp_core::{service_for_world_sharded, PipelineConfig};
use orsp_net::{
    process_trace_seed, ClientConfig, FlagSpec, Flags, NetPool, NetServer, ReplicaHook,
    ServerConfig,
};
use orsp_replica::{
    catch_up_range, probe_range, PeerLink, RangeInit, ReplicaNode, ReplicatingSink,
    ReplicationMode, Role,
};
use orsp_server::{GroupCommitConfig, IngestService, ShapeError, Topology, WalSink};
use orsp_storage::{scan_source, Dir, FsDir, FsyncPolicy, StorageEngine, StorageOptions};
use orsp_types::SimDuration;
use orsp_world::{World, WorldConfig};
use std::sync::Arc;
use std::time::Duration;

/// Every flag this binary defines; anything else on argv is a usage error.
const FLAGS: &[FlagSpec] = &[
    ("--data-dir", "PATH"),
    ("--listen", "ADDR"),
    ("--node", "INDEX"),
    ("--cluster-size", "N"),
    ("--replication-factor", "N"),
    ("--replication", "sync|async"),
    ("--peer", "ADDR|-"),
    ("--fsync", "always|on-rotate|never"),
    ("--shards", "N"),
    ("--group-commit", "N"),
    ("--group-commit-window-us", "N"),
    ("--max-connections", "N"),
    ("--seed", "N"),
    ("--users-per-zipcode", "N"),
    ("--horizon-days", "N"),
];

fn peer_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(5),
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(16),
        // A black-holed peer (SYNs dropped, no RST) must not hold a
        // replication call for connect_timeout × attempts: the whole
        // call — dials, retries, backoff — fits this budget.
        call_deadline: Some(Duration::from_secs(15)),
    }
}

fn main() {
    let flags = Flags::from_env("orsp-replicad", FLAGS);
    let data_dir = flags
        .value("--data-dir")
        .unwrap_or_else(|| flags.usage_error("--data-dir is required"));
    let listen = flags.value("--listen").unwrap_or("127.0.0.1:0");
    let node_index: u32 = flags.parsed("--node").unwrap_or(0);
    let cluster_size: u32 = flags.parsed("--cluster-size").unwrap_or(1);
    let replication_factor: u32 =
        flags.parsed("--replication-factor").unwrap_or(2.min(cluster_size));
    let mode = match flags.value("--replication") {
        None => ReplicationMode::Sync,
        Some(v) => ReplicationMode::parse(v).unwrap_or_else(|| {
            flags.usage_error(&format!("--replication must be sync|async, got {v}"))
        }),
    };
    let fsync = match flags.value("--fsync") {
        None | Some("always") => FsyncPolicy::Always,
        Some("on-rotate") => FsyncPolicy::OnRotate,
        Some("never") => FsyncPolicy::Never,
        Some(other) => flags
            .usage_error(&format!("--fsync must be always|on-rotate|never, got {other}")),
    };
    let defaults = StorageOptions::default();
    let shards: usize = flags.parsed("--shards").unwrap_or(defaults.shard_count as usize);
    let group_commit: usize =
        flags.parsed("--group-commit").unwrap_or(defaults.group_commit_batch_max);
    let group_commit_window_us: u64 =
        flags.parsed("--group-commit-window-us").unwrap_or(defaults.group_commit_window_us);
    // Connection slab size; 0 means workers + queue depth.
    let max_connections: usize = flags.parsed("--max-connections").unwrap_or(0);
    let seed: u64 = flags.parsed("--seed").unwrap_or(13);
    let users_per_zipcode: usize = flags.parsed("--users-per-zipcode").unwrap_or(40);
    let horizon_days: i64 = flags.parsed("--horizon-days").unwrap_or(120);
    // Peer addresses in node-index order ("-" or the own slot ignored).
    let peer_addrs: Vec<&str> = flags.all("--peer").collect();

    let topology =
        Topology::try_new(node_index, cluster_size, replication_factor).unwrap_or_else(|e| {
            let flag = match e {
                ShapeError::EmptyCluster => "--cluster-size",
                ShapeError::NodeOutsideCluster { .. } => "--node",
                ShapeError::ReplicationFactor { .. } => "--replication-factor",
            };
            flags.usage_error(&format!("{flag}: {e}"))
        });
    let peers: Vec<Option<Arc<dyn PeerLink>>> = (0..cluster_size)
        .map(|i| {
            if i == node_index {
                return None;
            }
            peer_addrs.get(i as usize).filter(|a| **a != "-").map(|a| {
                let addr: std::net::SocketAddr = a
                    .parse()
                    .unwrap_or_else(|_| flags.usage_error(&format!("--peer {a}: bad address")));
                Arc::new(NetPool::new(addr, peer_client(), 2)) as Arc<dyn PeerLink>
            })
        })
        .collect();

    // The shared deterministic world: every node derives the same mint
    // keypair from the same seed, so a token minted anywhere verifies
    // everywhere — the cluster has one mint, not N.
    let world = World::generate(WorldConfig {
        users_per_zipcode,
        horizon: SimDuration::days(horizon_days),
        ..WorldConfig::tiny(seed)
    })
    .expect("world generation");

    let options = StorageOptions {
        fsync,
        shard_count: shards as u32,
        group_commit_batch_max: group_commit,
        group_commit_window_us,
        ..defaults
    };

    // Born range: recover, then probe the replica set for a newer
    // primary. Finding one means this node was failed over while away;
    // it rejoins as a follower only after proving itself bit-identical.
    let born = node_index;
    let born_dir: Arc<dyn Dir> = Arc::new(FsDir::open(data_dir).expect("open data dir"));
    let (mut engine, mut report) =
        StorageEngine::open(Arc::clone(&born_dir), options).expect("recover born range");
    let mut born_role = Role::Primary;
    for peer_idx in topology.peers_of(born) {
        let Some(peer) = peers[peer_idx as usize].as_ref() else { continue };
        let Ok(status) = probe_range(peer.as_ref(), born) else { continue };
        if status.primary && status.epoch > engine.epoch() {
            println!(
                "replicad: range {born} has a newer primary (node {peer_idx}, epoch {}); \
                 demoting and catching up",
                status.epoch
            );
            drop(engine);
            let rep = catch_up_range(peer.as_ref(), born, Arc::clone(&born_dir), options)
                .expect("catch up born range");
            println!(
                "replicad: range {born} caught up — {} records, {} tokens, epoch {}, \
                 digest {:08x}{}",
                rep.records,
                rep.tokens,
                rep.epoch,
                rep.digest,
                if rep.rebuilt { " (rebuilt)" } else { " (already identical)" }
            );
            let reopened = StorageEngine::open(Arc::clone(&born_dir), options)
                .expect("reopen after catch-up");
            engine = reopened.0;
            report = reopened.1;
            born_role = Role::Follower;
            break;
        }
    }
    println!(
        "replicad: node {node_index} range {born} {} at epoch {} — {} records recovered, \
         {} spent tokens",
        if born_role == Role::Primary { "primary" } else { "follower" },
        report.epoch,
        report.store.len(),
        report.spent_tokens.len(),
    );
    let born_engine = Arc::new(engine);

    // Followed ranges: a dormant engine each, in its own subdirectory.
    let mut inits = Vec::new();
    let mut handles: Vec<(u32, Arc<dyn Dir>, Arc<StorageEngine>)> = Vec::new();
    inits.push(RangeInit {
        range: born,
        role: born_role,
        epoch: if born_role == Role::Primary { report.epoch } else { born_engine.epoch() },
        dir: Arc::clone(&born_dir),
        engine: Arc::clone(&born_engine),
    });
    handles.push((born, Arc::clone(&born_dir), Arc::clone(&born_engine)));
    for range in topology.held_ranges().into_iter().skip(1) {
        let path = format!("{data_dir}/follow-r{range}");
        let dir: Arc<dyn Dir> = Arc::new(FsDir::open(&path).expect("open follow dir"));
        let (follow_engine, follow_report) =
            StorageEngine::open(Arc::clone(&dir), options).expect("recover follow range");
        println!(
            "replicad: range {range} follower at epoch {} — {} records recovered",
            follow_report.epoch,
            follow_report.store.len(),
        );
        let follow_engine = Arc::new(follow_engine);
        inits.push(RangeInit {
            range,
            role: Role::Follower,
            epoch: follow_report.epoch,
            dir: Arc::clone(&dir),
            engine: Arc::clone(&follow_engine),
        });
        handles.push((range, dir, follow_engine));
    }

    // The serving tier, resuming from the born range's recovered state.
    let service_shards = born_engine.shard_count();
    let service = Arc::new(service_for_world_sharded(
        &world,
        &PipelineConfig::default(),
        IngestService::from_parts(report.store, report.stats),
        None,
        service_shards,
    ));
    service.seed_spent_tokens(report.spent_tokens);

    let node = Arc::new(ReplicaNode::new(topology, mode, peers, inits, service.obs()));
    service.set_durability_with(
        Arc::new(ReplicatingSink::new(Arc::clone(&node))) as Arc<dyn WalSink>,
        GroupCommitConfig {
            batch_max: group_commit.max(1),
            window_us: group_commit_window_us,
        },
    );
    service.set_replica(Arc::clone(&node) as Arc<dyn ReplicaHook>);
    // A follower's recovered records still sit in its serving store,
    // but the proxy scatters reads to current primaries only, so they
    // are never double-counted; they become live again on promotion.
    service.publish_aggregates();

    service.obs().tracer().set_seed(process_trace_seed());

    let server = NetServer::bind(
        listen,
        service.clone(),
        ServerConfig { max_connections, ..ServerConfig::default() },
    )
    .expect("bind replicad");
    println!("replicad: listening on {}", server.local_addr());
    println!(
        "replicad: serving ({} mode, rf {}, ranges {:?})",
        if mode == ReplicationMode::Sync { "sync" } else { "async" },
        replication_factor,
        topology.held_ranges(),
    );

    // Serve until stdin closes — the cluster-backend lifecycle.
    let mut sink = Vec::new();
    let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);

    let stats = server.shutdown();
    node.shutdown();
    println!(
        "replicad: drained — {} connections, {} requests, {} shed",
        stats.accepted, stats.requests, stats.shed
    );

    // Checkpoint every held range from a scan of its own directory, at
    // its current (possibly adopted) epoch.
    for (range, dir, engine) in &handles {
        engine.sync_all().expect("sync at drain");
        let scan = scan_source(dir.as_ref()).expect("scan at drain");
        let generation = engine
            .checkpoint(&scan.store, &scan.stats, &scan.spent_tokens)
            .expect("checkpoint at drain");
        println!(
            "replicad: range {range} checkpoint generation {generation} — {} histories, \
             {} tokens, epoch {}",
            scan.store.len(),
            scan.spent_tokens.len(),
            engine.epoch(),
        );
    }
}
