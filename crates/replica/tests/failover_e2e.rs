//! Kill the primary, lose nothing: the acceptance test for per-range
//! replication.
//!
//! Three `orsp-replicad` processes at replication factor 2, a real
//! `ProxyService` in front, and the standard client half of the
//! pipeline driving load over TCP — then SIGKILL backend 0 (range 0's
//! born primary) mid-run. The run must finish without a client-visible
//! outage: the proxy promotes range 0's follower in place and reroutes.
//!
//! What "zero lost acked uploads" means here, precisely: every upload
//! the cluster acknowledged is in the store afterwards. The one window
//! sync replication leaves open is an *ack lost in flight* — a batch
//! that reached the follower but whose `UploadAccepted` died with the
//! primary. The primary sends its `Replicate` before its own fsync, so
//! the window also holds batches the primary never made durable at
//! all; either way the follower has the record. The client's retry
//! then hits the promoted follower's duplicate ledger and counts a
//! rejection instead. So accepted may dip below the single-node run by
//! at most the in-flight window while accepted + rejected stays exactly
//! equal — and every read (Search, FetchAggregate) must still answer
//! bit-identically to a single node holding all the data, because the
//! records themselves are all there.
//!
//! Afterwards the killed node restarts on the same directory, discovers
//! the newer primary for its born range (epoch fencing), demotes itself
//! and catches up; the final directories are proven `state_digest`
//! bit-identical offline.

mod common;

use common::{fast_client, small_world, spawn_node, wait_ready};
use orsp_core::{listings, run_client_side, service_for_world, PipelineConfig, RspPipeline};
use orsp_net::{
    InMemoryTransport, NetPool, NetServer, Request, Response, ServerConfig, TcpTransport, Transport,
};
use orsp_proxy::{BackendLink, ProxyConfig, ProxyService};
use orsp_search::SearchQuery;
use orsp_server::IngestStats;
use orsp_storage::{scan_source, state_digest, FsDir};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLUSTER: usize = 3;
/// Forwards backend 0 must have served before the SIGKILL lands: enough
/// that acked-then-killed state exists, early enough that plenty of
/// range-0 load arrives *after* the kill and exercises write failover.
const KILL_AFTER_FORWARDS: u64 = 25;

fn digest_of_dir(path: &Path) -> (u32, usize) {
    let scan = scan_source(&FsDir::open(path).unwrap())
        .unwrap_or_else(|e| panic!("scan {}: {e}", path.display()));
    let digest = state_digest(&scan.store, &IngestStats::default(), &scan.spent_tokens);
    (digest, scan.store.len())
}

#[test]
fn sigkill_of_the_primary_mid_load_loses_no_acked_upload() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("failover-e2e");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let dirs: Vec<PathBuf> = (0..CLUSTER).map(|i| root.join(format!("node{i}"))).collect();

    let world = small_world();
    let config = PipelineConfig::default();
    let pipeline = RspPipeline::new(config.clone());

    // Reference: one in-memory node holding the full store. Its mint is
    // the cluster's mint (same world, same seed).
    let single = service_for_world(&world, &config);
    let public = single.mint_public_key();
    let single_transport = InMemoryTransport::new(single);
    let single_run = run_client_side(&pipeline, &world, &public, &single_transport)
        .expect("single-node client half");

    // Pre-pick three loopback ports so every child can be handed the
    // full peer list up front.
    let reserved: Vec<std::net::TcpListener> =
        (0..CLUSTER).map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    let addrs: Vec<SocketAddr> = reserved.iter().map(|l| l.local_addr().unwrap()).collect();
    drop(reserved);

    let mut children: Vec<Child> = (0..CLUSTER)
        .map(|i| spawn_node(&dirs[i], i, CLUSTER, &addrs[i].to_string(), &addrs))
        .collect();
    for &addr in &addrs {
        wait_ready(addr);
    }

    // The proxy, replication-aware, in-process so its routing table and
    // counters are directly inspectable.
    let links: Vec<Arc<dyn BackendLink>> = addrs
        .iter()
        .map(|&addr| Arc::new(NetPool::new(addr, fast_client(), 2)) as Arc<dyn BackendLink>)
        .collect();
    let proxy = Arc::new(ProxyService::new(
        links,
        ProxyConfig { replication_factor: 2, ..ProxyConfig::default() },
    ));
    let proxy_server =
        NetServer::bind("127.0.0.1:0", proxy.clone(), ServerConfig::default()).expect("bind proxy");
    let transport =
        TcpTransport::connect(proxy_server.local_addr(), fast_client()).expect("connect proxy");

    // The killer: once backend 0 has served a handful of forwards (it
    // has acked state to lose), SIGKILL it mid-load.
    let victim = children.remove(0);
    let killer = {
        let proxy = Arc::clone(&proxy);
        std::thread::spawn(move || {
            let mut victim = victim;
            let deadline = Instant::now() + Duration::from_secs(300);
            while Instant::now() < deadline {
                let forwarded =
                    proxy.obs().snapshot().counter("proxy_backend0_forwarded_total").unwrap_or(0);
                if forwarded >= KILL_AFTER_FORWARDS {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            victim.kill().expect("SIGKILL backend 0");
            let _ = victim.wait();
        })
    };

    // The full client half of the pipeline must succeed across the
    // kill: the proxy masks the loss by promoting the follower.
    let run = run_client_side(&pipeline, &world, &public, &transport)
        .expect("client half must survive the primary's death");
    killer.join().expect("killer thread");

    // Admission bookkeeping. Every attempt resolved (sum is exact); the
    // only divergence allowed is the ack-lost-in-flight window, where a
    // stored-but-unacked upload's retry counts as a duplicate rejection
    // instead of an accept. The client is sequential, so that window is
    // a handful of uploads at most.
    assert!(run.uploads_accepted > 100, "accepted only {}", run.uploads_accepted);
    assert_eq!(
        run.uploads_accepted + run.uploads_rejected,
        single_run.uploads_accepted + single_run.uploads_rejected,
        "an upload vanished without an outcome"
    );
    assert!(
        run.uploads_accepted <= single_run.uploads_accepted,
        "cluster accepted more than the reference ({} > {})",
        run.uploads_accepted,
        single_run.uploads_accepted
    );
    let ack_window = single_run.uploads_accepted - run.uploads_accepted;
    assert!(
        ack_window <= 8,
        "{ack_window} accepts became rejects — more than an in-flight ack window; \
         acked uploads were lost"
    );

    // Reads after failover answer bit-identically to the single node
    // that holds every record — the zero-lost-acked-writes proof at the
    // public surface, floor and all.
    let mut pairs: Vec<(u32, orsp_types::Category)> =
        listings(&world).iter().map(|l| (l.zipcode, l.category)).collect();
    pairs.sort_by_key(|(zip, cat)| (*zip, format!("{cat:?}")));
    pairs.dedup();
    let mut hits = 0;
    for (zipcode, category) in pairs {
        let request = Request::Search { query: SearchQuery { zipcode, category } };
        let via_cluster = transport.call(&request).expect("cluster search");
        let via_single = single_transport.call(&request).expect("single search");
        assert_eq!(via_cluster, via_single, "search({zipcode}, {category:?}) diverged");
        if let Response::SearchResults { hits: h } = &via_cluster {
            hits += h.len();
        }
    }
    assert!(hits > 0, "the world's listings produced no search hits");
    for listing in listings(&world) {
        let request = Request::FetchAggregate { entity: listing.id };
        assert_eq!(
            transport.call(&request).expect("cluster aggregate"),
            single_transport.call(&request).expect("single aggregate"),
            "aggregate for {:?} diverged after failover",
            listing.id,
        );
    }

    // The proxy observed and survived the loss: range 0 now routes to
    // its follower (node 1) at a bumped epoch.
    let snapshot = proxy.obs().snapshot();
    assert!(snapshot.counter("proxy_promotions_total").unwrap_or(0) >= 1, "no promotion recorded");
    let failovers: u64 = (0..CLUSTER)
        .map(|i| {
            snapshot.counter(&format!("proxy_backend{i}_read_failover_total")).unwrap_or(0)
                + snapshot.counter(&format!("proxy_backend{i}_write_failover_total")).unwrap_or(0)
        })
        .sum();
    assert!(failovers >= 1, "no failover counted against the dead backend");
    assert_eq!(
        snapshot.gauge("proxy_range0_primary"),
        Some(1),
        "range 0 must be served by its follower"
    );
    assert!(snapshot.gauge("proxy_range0_epoch").unwrap_or(0) >= 1, "epoch never bumped");

    // Done with the front door; all further traffic is cluster-internal.
    drop(transport);
    proxy_server.shutdown();
    drop(proxy);

    // The killed node rejoins on the same directory (fresh port — it
    // only dials out). It must find the newer primary for its born
    // range, demote itself, and catch up to a proven-identical state.
    let mut rejoined = spawn_node(&dirs[0], 0, CLUSTER, "127.0.0.1:0", &addrs);
    let stdout = rejoined.stdout.take().expect("rejoined stdout piped");
    let (lines_tx, lines_rx) = std::sync::mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if lines_tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(180);
    let mut seen = Vec::new();
    let mut caught_up = false;
    while Instant::now() < deadline {
        let wait = deadline.saturating_duration_since(Instant::now());
        let Ok(line) = lines_rx.recv_timeout(wait) else { break };
        let done = line.contains("caught up");
        seen.push(line);
        if done {
            caught_up = true;
            break;
        }
    }
    assert!(
        caught_up,
        "rejoined node never reported catching up; its output so far:\n{}",
        seen.join("\n")
    );

    // Drain the cluster: close every stdin, wait for clean exits (the
    // drain checkpoints each held range).
    drop(rejoined.stdin.take());
    for child in &mut children {
        drop(child.stdin.take());
    }
    let status = rejoined.wait().expect("wait rejoined node");
    assert!(status.success(), "rejoined node exited {status}");
    for mut child in children {
        let status = child.wait().expect("wait backend");
        assert!(status.success(), "backend exited {status}");
    }
    reader.join().expect("stdout reader");

    // The offline proof: the rejoined follower's range-0 directory is
    // state_digest bit-identical to the promoted primary's (node 1
    // follows range 0 in its `follow-r0` subdirectory).
    let (rejoined_digest, rejoined_records) = digest_of_dir(&dirs[0]);
    let (primary_digest, primary_records) = digest_of_dir(&dirs[1].join("follow-r0"));
    assert!(primary_records > 0, "range 0 ingested nothing — the test proved nothing");
    assert_eq!(rejoined_records, primary_records);
    assert_eq!(
        rejoined_digest, primary_digest,
        "rejoined replica is not bit-identical to the promoted primary"
    );
}
