//! The RSP as a daemon: generate a synthetic city, serve it over TCP on a
//! loopback port, then act as a device — request a blind token, upload an
//! anonymous record, search for a restaurant — entirely through the
//! client library and the wire protocol. Exits after the round trip.
//!
//! ```sh
//! cargo run --release --example rsp_daemon
//! ```
//!
//! With `--data-dir <path>` the daemon is durable: it opens (or creates)
//! a segmented-log data directory, recovers whatever survived the last
//! run, serves with every accepted upload logged through the engine, and
//! writes a checkpoint at drain. Segments fsync per append by default
//! (`--fsync always`), which is what makes the served acknowledgement a
//! durability promise; `--fsync on-rotate|never` trade that promise for
//! throughput. Run it twice against the same directory and the second
//! run starts from the first run's store:
//!
//! ```sh
//! cargo run --release --example rsp_daemon -- --data-dir /tmp/rsp-data
//! cargo run --release --example rsp_daemon -- --data-dir /tmp/rsp-data
//! ```
//!
//! `--shards N` sizes the ingest domain (and, for a fresh data
//! directory, the engine's segment logs) — both layers partition by the
//! same hash, so the counts stay aligned and uploads to different shards
//! proceed fully in parallel. A recovered directory keeps its recorded
//! shard count.
//!
//! `--group-commit N` caps how many concurrent uploads one shard folds
//! into a single fsync (default 64; 1 disables grouping), and
//! `--group-commit-window-us N` lets a commit leader linger that long
//! for stragglers before syncing (default 0 — pure piggybacking).
//!
//! `--listen ADDR` binds a fixed address instead of an ephemeral
//! loopback port — the cluster deployment, where N daemons each get a
//! port and an `orsp-proxy --backend` list fronts them (DESIGN §9,
//! README "Running a cluster"). A fixed address also switches the
//! lifecycle from one-shot demo to backend: after the demo client the
//! daemon keeps serving until stdin reaches EOF, matching the proxy.

use orsp_core::{service_for_world_sharded, PipelineConfig};
use orsp_crypto::TokenWallet;
use orsp_net::{ClientConfig, NetClient, NetServer, RemoteIssuer, ServerConfig, TcpTransport};
use orsp_search::SearchQuery;
use orsp_server::{GroupCommitConfig, IngestService, WalSink};
use orsp_storage::{FsDir, FsyncPolicy, StorageEngine, StorageOptions};
use orsp_types::rng::rng_for;
use orsp_types::{
    Category, Cuisine, DeviceId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp,
};
use orsp_world::{World, WorldConfig};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let data_dir = args
        .iter()
        .position(|a| a == "--data-dir")
        .map(|i| args.get(i + 1).expect("--data-dir takes a path").clone());
    // The served ack promises that an accepted upload survives a crash;
    // only Always actually delivers that, so it is the default. The
    // flag exists for throughput experiments that accept bounded loss.
    let fsync = match args
        .iter()
        .position(|a| a == "--fsync")
        .map(|i| args.get(i + 1).expect("--fsync takes a policy").as_str())
    {
        None | Some("always") => FsyncPolicy::Always,
        Some("on-rotate") => FsyncPolicy::OnRotate,
        Some("never") => FsyncPolicy::Never,
        Some(other) => panic!("--fsync must be always|on-rotate|never, got {other}"),
    };
    // One shard count for both layers: the ingest domain's locks and the
    // engine's segment logs partition by the same shard_index(record_id),
    // so equal counts give each ingest shard its own shard log. An
    // existing data directory's recorded count wins (the on-disk layout
    // is fixed at creation).
    let shards: usize = args
        .iter()
        .position(|a| a == "--shards")
        .map(|i| args.get(i + 1).expect("--shards takes a count").parse().expect("--shards count"))
        .unwrap_or(StorageOptions::default().shard_count as usize);
    // Group commit: how many concurrent same-shard uploads one fsync may
    // cover, and how long a leader waits for stragglers before issuing it.
    let group_commit: usize = args
        .iter()
        .position(|a| a == "--group-commit")
        .map(|i| {
            args.get(i + 1)
                .expect("--group-commit takes a batch size")
                .parse()
                .expect("--group-commit batch size")
        })
        .unwrap_or(StorageOptions::default().group_commit_batch_max);
    let group_commit_window_us: u64 = args
        .iter()
        .position(|a| a == "--group-commit-window-us")
        .map(|i| {
            args.get(i + 1)
                .expect("--group-commit-window-us takes microseconds")
                .parse()
                .expect("--group-commit-window-us microseconds")
        })
        .unwrap_or(StorageOptions::default().group_commit_window_us);
    // Where to listen. The default ephemeral loopback port suits the
    // single-process demo below; a cluster run gives each daemon a fixed
    // port so an `orsp-proxy --backend` list can name them (DESIGN §9).
    let fixed_listen = args
        .iter()
        .position(|a| a == "--listen")
        .map(|i| args.get(i + 1).expect("--listen takes an address").clone());
    let listen = fixed_listen.clone().unwrap_or_else(|| "127.0.0.1:0".to_string());
    // Connection slab size. 0 (the default) means workers + queue depth;
    // a device-fleet deployment raises it to hold idle connections open.
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
    // = 1%); slow requests past `--trace-slow-us` are sampled regardless.
    let trace_sample: Option<u32> = args
        .iter()
        .position(|a| a == "--trace-sample")
        .map(|i| {
            args.get(i + 1)
                .expect("--trace-sample takes a per-10k rate")
                .parse()
                .expect("--trace-sample rate")
        });
    let trace_slow_us: Option<u64> = args
        .iter()
        .position(|a| a == "--trace-slow-us")
        .map(|i| {
            args.get(i + 1)
                .expect("--trace-slow-us takes microseconds")
                .parse()
                .expect("--trace-slow-us microseconds")
        });

    // 1. A synthetic city.
    let config = WorldConfig {
        users_per_zipcode: 40,
        horizon: SimDuration::days(120),
        ..WorldConfig::tiny(13)
    };
    let world = World::generate(config).expect("world generation");
    let stats = world.stats();
    println!(
        "world: {} users, {} entities, {} explicit reviews",
        stats.users, stats.entities, stats.reviews
    );

    // 2. Open the durable store, if asked for one, and recover it.
    let pipeline_config = PipelineConfig::default();
    let (engine, recovered_ingest, recovered_tokens) = match &data_dir {
        Some(path) => {
            let dir = Arc::new(FsDir::open(path).expect("open data dir"));
            let options = StorageOptions {
                fsync,
                shard_count: shards as u32,
                group_commit_batch_max: group_commit,
                group_commit_window_us,
                ..StorageOptions::default()
            };
            let (engine, report) = StorageEngine::open(dir, options).expect("recovery");
            println!(
                "storage: {path} recovered — {} records from checkpoint, {} replayed \
                 from the log, {} spent tokens, {} torn tail(s) repaired, {}µs",
                report.records_from_checkpoint,
                report.records_replayed,
                report.spent_tokens.len(),
                report.torn_tails,
                report.replay_us,
            );
            (
                Some(Arc::new(engine)),
                IngestService::from_parts(report.store, report.stats),
                report.spent_tokens,
            )
        }
        None => (None, IngestService::new(), Default::default()),
    };

    // 3. Serve it: the wire-facing service (token mint, ingest, search)
    //    behind a thread-pool TCP server on an ephemeral loopback port,
    //    resuming from the recovered store and logging through the engine.
    // Durable runs adopt the engine's (possibly recovered) shard count so
    // ingest shards and segment logs stay 1:1.
    let service_shards = engine.as_ref().map(|e| e.shard_count()).unwrap_or(shards);
    let service = Arc::new(service_for_world_sharded(
        &world,
        &pipeline_config,
        recovered_ingest,
        None,
        service_shards,
    ));
    // Durability is wired after construction so the daemon's group-commit
    // tuning reaches the ingest domain, and the recovered spend ledger is
    // seeded before the first request can try to double-spend against it.
    // Each run salts its device RNG and record id with the recovered
    // ledger size: the spend ledger is durable now, so replaying run 1's
    // deterministic token in run 2 would be (correctly) rejected as a
    // double spend.
    let run_nonce = recovered_tokens.len() as u64;
    if let Some(engine) = &engine {
        service.seed_spent_tokens(recovered_tokens);
        service.set_durability_with(
            Arc::clone(engine) as Arc<dyn WalSink>,
            GroupCommitConfig { batch_max: group_commit.max(1), window_us: group_commit_window_us },
        );
    }
    // Distinct per-process id streams: the library default seed is fixed
    // (tests pin ids), but two daemons must never mint colliding trace
    // ids or the proxy's trace join would fuse unrelated traces.
    let trace_seed = (std::process::id() as u64) << 32
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
    service.obs().tracer().set_seed(trace_seed);
    if let Some(rate) = trace_sample {
        service.obs().tracer().set_sampling(rate);
        println!("tracing: sampling {rate}/10000 requests");
    }
    if let Some(slow) = trace_slow_us {
        service.obs().tracer().set_slow_threshold_us(slow);
        println!("tracing: always sampling requests slower than {slow}µs");
    }
    println!(
        "service: {} ingest shards, group commit <= {} records/fsync",
        service.ingest_shards(),
        group_commit.max(1)
    );
    let server = NetServer::bind(
        listen.as_str(),
        service.clone(),
        ServerConfig { max_connections, ..ServerConfig::default() },
    )
    .expect("bind daemon");
    let addr = server.local_addr();
    println!("daemon: listening on {addr}");

    // 4. Be a device. Everything below crosses the socket.
    let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
    client.ping().expect("ping");
    println!("client: connected, server is live");

    //    Blind token: the wallet blinds a random message, the daemon signs
    //    it without seeing it, the wallet unblinds and verifies.
    let device = DeviceId::new(1);
    let mut rng = rng_for(99 ^ run_nonce, "rsp-daemon-device");
    let transport = TcpTransport::connect(addr, ClientConfig::default()).expect("transport");
    let mut wallet = TokenWallet::new(device, service.mint_public_key());
    let mut issuer = RemoteIssuer::new(&transport);
    wallet
        .request_token(&mut rng, &mut issuer, Timestamp::EPOCH)
        .expect("blind token issued over TCP");
    println!("client: blind token issued and verified (balance {})", wallet.balance());

    //    Anonymous upload: one dwell at the first listed entity, spending
    //    the token. The server can verify the token but not link it to
    //    the issuance above — that is the whole point of blind signatures.
    let entity = world.entities[0].id;
    let mut record_bytes = [42u8; 32];
    record_bytes[8..16].copy_from_slice(&run_nonce.to_le_bytes());
    let upload = orsp_client::UploadRequest {
        record_id: RecordId::from_bytes(record_bytes),
        entity,
        interaction: Interaction::solo(
            InteractionKind::Visit,
            Timestamp::EPOCH + SimDuration::hours(12),
            SimDuration::minutes(35),
            900.0,
        ),
        token: wallet.take_token().expect("token in wallet"),
        release_at: Timestamp::EPOCH + SimDuration::hours(13),
    };
    let verdict = client
        .upload(upload, Timestamp::EPOCH + SimDuration::hours(13))
        .expect("upload RPC");
    println!("client: anonymous upload -> {verdict:?}");
    assert_eq!(verdict, Ok(()), "daemon accepted the record");

    //    Search: ranked listings for a (zipcode, category) query, scored
    //    from the explicit reviews the daemon indexed at startup.
    let query = SearchQuery {
        zipcode: world.zipcodes[0].code,
        category: Category::Restaurant(Cuisine::Thai),
    };
    let hits = client.search(query).expect("search RPC");
    println!("client: search returned {} Thai restaurants in {:05}", hits.len(), query.zipcode);
    for hit in hits.iter().take(5) {
        println!(
            "    entity {:>4}  score {:.2}  explicit {:>3}  inferred {:>3}",
            hit.entity.raw(),
            hit.score,
            hit.explicit.total(),
            hit.inferred.total(),
        );
    }

    //    Aggregate for the entity we uploaded to: aggregates are served
    //    from a published snapshot (no store locks on the read path), and
    //    one history is below the k-anonymity floor anyway, so the daemon
    //    publishes nothing for this entity.
    service.publish_aggregates();
    let aggregate = client.fetch_aggregate(entity).expect("aggregate RPC");
    println!(
        "client: aggregate for entity {} -> {} (k-anonymity floor)",
        entity.raw(),
        if aggregate.is_none() { "suppressed" } else { "published" }
    );
    //    Stats: scrape the daemon's live metrics over the same wire. The
    //    snapshot carries every counter, gauge, and latency histogram the
    //    service registry accumulated while we were talking to it.
    let snapshot = client.stats().expect("stats RPC");
    println!(
        "client: stats RPC -> {} requests served, {} worlds metrics, {} rpc histograms",
        snapshot.counter("net_requests_total").unwrap_or(0),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
    );
    for h in &snapshot.histograms {
        if h.count > 0 {
            println!(
                "    {:<24} count {:>3}  p50 {:>6}µs  p99 {:>6}µs  max {:>6}µs",
                h.name, h.count, h.p50, h.p99, h.max
            );
        }
    }

    // 5. With a fixed `--listen` address this is a cluster backend, not a
    //    one-shot demo: keep serving (for `orsp-proxy --backend` peers)
    //    until stdin reaches EOF, the same lifecycle the proxy uses.
    if fixed_listen.is_some() {
        println!("daemon: serving until stdin closes");
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
    }

    //    Drain and exit, dumping the final registry snapshot.
    let stats = server.shutdown();
    println!(
        "daemon: drained — {} connections, {} requests, {} shed, {} protocol errors \
         (truncated {}, bad crc {}, oversized {}, unknown tag {}, other {})",
        stats.accepted,
        stats.requests,
        stats.shed,
        stats.protocol_errors,
        stats.proto_truncated,
        stats.proto_bad_crc,
        stats.proto_oversized,
        stats.proto_unknown_tag,
        stats.proto_other,
    );
    println!("daemon: final snapshot\n{}", service.obs().snapshot().render_json());

    // 6. Durable shutdown: checkpoint the drained service's state so the
    //    next run recovers from the snapshot instead of replaying logs.
    if let Some(engine) = engine {
        let service =
            Arc::try_unwrap(service).ok().expect("server drained, sole service handle");
        let spent_tokens = service.spent_tokens();
        let (_mint, ingest) = service.into_parts();
        let generation = engine
            .checkpoint(ingest.store(), &ingest.stats(), &spent_tokens)
            .expect("checkpoint at drain");
        println!(
            "storage: checkpoint generation {generation} written — {} histories, \
             {} accepted, {} spent tokens",
            ingest.store().len(),
            ingest.stats().accepted,
            spent_tokens.len(),
        );
    }
}
