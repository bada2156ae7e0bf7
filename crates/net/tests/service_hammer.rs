//! Concurrency hammer for the domain-partitioned service core.
//!
//! The router (PR 5) splits service state into a mint domain, a read
//! domain, and a sharded ingest domain. These tests drive all three at
//! once and assert the properties the decomposition promises:
//!
//! * exact counters under contention — no lost or double-counted
//!   uploads when many threads hit distinct shards simultaneously;
//! * reads never wait for ingest — search, stats, and token issuance
//!   all complete while an upload's (artificially slow) fsync is in
//!   flight, and an upload to a *different* shard overtakes it;
//! * no `Busy` shedding below saturation over real TCP when the
//!   concurrent connection count matches the worker count;
//! * monotonic registry snapshots — counters observed mid-hammer never
//!   go backwards;
//! * shard routing identical to the seed formula (proptest).

use orsp_crypto::{BlindedMessage, BlindSignature, TokenIssuer, TokenMint, TokenWallet};
use orsp_net::{
    ClientConfig, NetClient, NetServer, Request, Response, RspService, ServerConfig,
    ServiceConfig,
};
use orsp_search::{Listing, Ranker, SearchIndex, SearchQuery};
use orsp_server::{shard_index, wal::WalEntry, GroupCommitConfig, WalBatchItem, WalSink};
use orsp_types::rng::rng_for;
use orsp_types::{
    Category, Cuisine, DeviceId, EntityId, GeoPoint, Interaction, InteractionKind, RecordId,
    SimDuration, Timestamp,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const ZIP: u32 = 94107;
const SHARDS: usize = 8;

fn hammer_service(tokens_per_window: u32) -> RspService {
    let mut rng = rng_for(51, "service-hammer");
    let mint = TokenMint::new(&mut rng, 256, tokens_per_window, SimDuration::DAY);
    let listings = vec![
        Listing {
            id: EntityId::new(1),
            name: "Shard House".into(),
            category: Category::Restaurant(Cuisine::Mexican),
            location: GeoPoint::new(10.0, 10.0),
            zipcode: ZIP,
        },
        Listing {
            id: EntityId::new(2),
            name: "Lock Free Grill".into(),
            category: Category::Restaurant(Cuisine::Mexican),
            location: GeoPoint::new(20.0, 20.0),
            zipcode: ZIP,
        },
    ];
    RspService::new(
        mint,
        SearchIndex::build(listings),
        HashMap::new(),
        Ranker::default(),
        ServiceConfig { ingest_shards: SHARDS, ..ServiceConfig::default() },
    )
}

/// Issue tokens by calling the service directly (no transport): the
/// hammer pre-mints its budget so the concurrent phase measures ingest,
/// not RSA.
struct ServiceIssuer<'a>(&'a RspService);

impl TokenIssuer for ServiceIssuer<'_> {
    fn issue(
        &mut self,
        device: DeviceId,
        blinded: &BlindedMessage,
        now: Timestamp,
    ) -> orsp_types::Result<BlindSignature> {
        match self.0.handle(Request::IssueToken { device, blinded: blinded.clone(), now }) {
            Response::TokenIssued { signature } => Ok(signature),
            Response::TokenDenied { reason } => {
                Err(orsp_types::OrspError::InvalidToken(reason))
            }
            other => {
                Err(orsp_types::OrspError::Crypto(format!("unexpected response: {other:?}")))
            }
        }
    }
}

fn mint_tokens(service: &RspService, device: DeviceId, n: usize) -> Vec<orsp_crypto::Token> {
    let mut rng = rng_for(52 + device.raw(), "service-hammer-wallet");
    let mut wallet = TokenWallet::new(device, service.mint_public_key());
    let mut issuer = ServiceIssuer(service);
    (0..n)
        .map(|_| {
            wallet.request_token(&mut rng, &mut issuer, Timestamp::EPOCH).expect("mint");
            wallet.take_token().expect("token")
        })
        .collect()
}

/// Record ids that the service routes to `shard`, found by asking the
/// service itself (`shard_of`) rather than restating the hash — the
/// proptest below pins the formula; the hammer only needs targeting.
fn records_for_shard(service: &RspService, shard: usize, n: usize) -> Vec<RecordId> {
    let mut out = Vec::with_capacity(n);
    let mut counter: u64 = 0;
    while out.len() < n {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&counter.to_le_bytes());
        bytes[8] = shard as u8; // disambiguate across shards at equal counters
        let rid = RecordId::from_bytes(bytes);
        if service.shard_of(&rid) == shard {
            out.push(rid);
        }
        counter += 1;
    }
    out
}

fn upload_for(rid: RecordId, entity: EntityId, token: orsp_crypto::Token) -> Request {
    Request::Upload {
        upload: orsp_crypto::UploadRequest {
            record_id: rid,
            entity,
            interaction: Interaction::solo(
                InteractionKind::Visit,
                Timestamp::EPOCH,
                SimDuration::minutes(30),
                500.0,
            ),
            token,
            release_at: Timestamp::EPOCH,
        },
        now: Timestamp::EPOCH,
    }
}

fn snapshot_counter(service: &RspService, name: &str) -> u64 {
    match service.handle(Request::Stats) {
        Response::Stats { snapshot } => snapshot.counter(name).unwrap_or(0),
        other => panic!("stats rpc: {other:?}"),
    }
}

/// Four uploader threads on four distinct shards, two reader threads
/// spinning search + stats: after the dust settles every counter is
/// exact, and no reader ever saw one go backwards.
#[test]
fn concurrent_uploads_keep_exact_counters_and_snapshots_monotonic() {
    const UPLOADERS: usize = 4;
    const PER_THREAD: usize = 32;
    let service = hammer_service(PER_THREAD as u32);

    // Pre-mint (sequential, per-device rate accounting) and pre-route
    // (each uploader owns one shard) so the concurrent phase is pure
    // ingest contention.
    let work: Vec<(Vec<RecordId>, Vec<orsp_crypto::Token>)> = (0..UPLOADERS)
        .map(|t| {
            (
                records_for_shard(&service, t, PER_THREAD),
                mint_tokens(&service, DeviceId::new(t as u64 + 1), PER_THREAD),
            )
        })
        .collect();

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for (t, (records, tokens)) in work.into_iter().enumerate() {
            let service = &service;
            s.spawn(move || {
                let entity = EntityId::new(1 + (t as u64 % 2));
                for (rid, token) in records.into_iter().zip(tokens) {
                    assert_eq!(
                        service.handle(upload_for(rid, entity, token)),
                        Response::UploadAccepted,
                        "uploader {t} had a rejection"
                    );
                }
            });
        }
        for _ in 0..2 {
            let service = &service;
            let done = &done;
            s.spawn(move || {
                let mut last_accepted = 0u64;
                let mut last_searches = 0u64;
                while !done.load(Ordering::Acquire) {
                    let hits = match service.handle(Request::Search {
                        query: SearchQuery {
                            zipcode: ZIP,
                            category: Category::Restaurant(Cuisine::Mexican),
                        },
                    }) {
                        Response::SearchResults { hits } => hits.len(),
                        other => panic!("search: {other:?}"),
                    };
                    assert_eq!(hits, 2, "index snapshot stays intact mid-hammer");
                    let (accepted, searches) = match service.handle(Request::Stats) {
                        Response::Stats { snapshot } => (
                            snapshot.counter("ingest_accepted_total").unwrap_or(0),
                            snapshot
                                .histogram("rpc_search_us")
                                .map(|h| h.count)
                                .unwrap_or(0),
                        ),
                        other => panic!("stats: {other:?}"),
                    };
                    assert!(accepted >= last_accepted, "accepted went backwards");
                    assert!(searches >= last_searches, "search count went backwards");
                    last_accepted = accepted;
                    last_searches = searches;
                }
            });
        }
        // The scope joins uploaders only after `done` flips, so flip it
        // from a watcher thread keyed on the exact accepted count.
        let service = &service;
        let done = &done;
        s.spawn(move || {
            let total = (UPLOADERS * PER_THREAD) as u64;
            while service.ingest_stats().accepted < total {
                std::thread::sleep(Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });
    });

    let total = (UPLOADERS * PER_THREAD) as u64;
    let stats = service.ingest_stats();
    assert_eq!(stats.accepted, total, "every upload counted exactly once");
    assert_eq!(stats.bad_token, 0);
    assert_eq!(stats.double_spend, 0);
    assert_eq!(stats.bad_record, 0);
    assert_eq!(stats.entity_mismatch, 0);
    assert_eq!(
        snapshot_counter(&service, "ingest_accepted_total"),
        total,
        "registry counter agrees with the atomic stats"
    );
    assert_eq!(snapshot_counter(&service, "mint_issued_total"), total);
    assert_eq!(service.tokens_issued(), total);

    // Both entities got half the uploads: well over the k-anonymity
    // floor, and gathered across shards without losing a history when
    // the aggregates are published into the read snapshot.
    service.publish_aggregates();
    let locks_after_publish = service.store_lock_acquisitions();
    for entity in [EntityId::new(1), EntityId::new(2)] {
        match service.handle(Request::FetchAggregate { entity }) {
            Response::Aggregate { aggregate: Some(agg) } => {
                assert_eq!(agg.histories, total as usize / 2, "entity {entity:?}")
            }
            other => panic!("aggregate for {entity:?}: {other:?}"),
        }
    }
    // Served reads are pure snapshot work: a burst of aggregate
    // fetches, searches, and stats moves no store-shard lock.
    for _ in 0..25 {
        service.handle(Request::FetchAggregate { entity: EntityId::new(1) });
        service.handle(Request::Search {
            query: SearchQuery {
                zipcode: ZIP,
                category: Category::Restaurant(Cuisine::Mexican),
            },
        });
        service.handle(Request::Stats);
    }
    assert_eq!(
        service.store_lock_acquisitions(),
        locks_after_publish,
        "the served read path took a store-shard lock"
    );
}

/// A WAL sink that stalls on one chosen record id, so a test can hold a
/// shard's durability handoff open and watch what still makes progress.
struct SlowSink {
    slow_record: RecordId,
    stall: Duration,
    in_flight: AtomicBool,
    logged: Mutex<Vec<RecordId>>,
}

impl WalSink for SlowSink {
    fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()> {
        if entry.record_id == self.slow_record {
            self.in_flight.store(true, Ordering::Release);
            std::thread::sleep(self.stall);
            self.in_flight.store(false, Ordering::Release);
        }
        self.logged.lock().unwrap().push(entry.record_id);
        Ok(())
    }
}

/// While one shard's fsync is (artificially) stuck, searches, stats,
/// token issuance, and an upload to a different shard all complete.
/// This is the "no RPC path holds a lock beyond its domain" claim made
/// observable: under the old global service lock every one of these
/// would queue behind the stalled upload.
#[test]
fn reads_and_other_shards_proceed_while_fsync_is_in_flight() {
    let service = hammer_service(8);
    let slow_rid = records_for_shard(&service, 0, 1)[0];
    let fast_rid = records_for_shard(&service, 1, 1)[0];
    assert_ne!(service.shard_of(&slow_rid), service.shard_of(&fast_rid));

    let sink = Arc::new(SlowSink {
        slow_record: slow_rid,
        stall: Duration::from_millis(400),
        in_flight: AtomicBool::new(false),
        logged: Mutex::new(Vec::new()),
    });
    service.set_durability(Arc::clone(&sink) as Arc<dyn WalSink>);

    let mut tokens = mint_tokens(&service, DeviceId::new(9), 2);
    let fast_token = tokens.pop().unwrap();
    let slow_token = tokens.pop().unwrap();

    std::thread::scope(|s| {
        let service = &service;
        let sink = &sink;
        s.spawn(move || {
            assert_eq!(
                service.handle(upload_for(slow_rid, EntityId::new(1), slow_token)),
                Response::UploadAccepted,
                "the stalled upload still succeeds, just slowly"
            );
        });

        // Wait for the stalled append to actually be in flight.
        while !sink.in_flight.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Everything below runs to completion while shard 0's WAL
        // handoff is held open.
        let mut completed = 0u32;
        while sink.in_flight.load(Ordering::Acquire) && completed < 3 {
            match service.handle(Request::Search {
                query: SearchQuery {
                    zipcode: ZIP,
                    category: Category::Restaurant(Cuisine::Mexican),
                },
            }) {
                Response::SearchResults { .. } => {}
                other => panic!("search during fsync: {other:?}"),
            }
            match service.handle(Request::Stats) {
                Response::Stats { .. } => {}
                other => panic!("stats during fsync: {other:?}"),
            }
            if sink.in_flight.load(Ordering::Acquire) {
                completed += 1;
            }
        }
        assert!(completed >= 1, "reads completed while the fsync was in flight");

        // Mint domain: issuance is untouched by a stalled ingest shard.
        let issued_before = service.tokens_issued();
        let _ = mint_tokens(service, DeviceId::new(10), 1);
        assert_eq!(service.tokens_issued(), issued_before + 1);

        // Ingest domain, different shard: overtakes the stalled one.
        assert!(sink.in_flight.load(Ordering::Acquire), "stall window still open");
        assert_eq!(
            service.handle(upload_for(fast_rid, EntityId::new(2), fast_token)),
            Response::UploadAccepted
        );
        assert!(
            sink.in_flight.load(Ordering::Acquire),
            "the fast shard's upload finished before the slow shard's fsync"
        );
    });

    let logged = sink.logged.lock().unwrap();
    assert_eq!(logged.len(), 2, "both uploads reached the WAL");
    assert_eq!(logged[0], fast_rid, "the unstalled shard logged first");
    assert_eq!(logged[1], slow_rid);
    assert_eq!(service.ingest_stats().accepted, 2);
}

/// A batch-aware sink that stalls while committing any group containing
/// the chosen record, recording every group it commits.
struct SlowBatchSink {
    slow_record: RecordId,
    stall: Duration,
    in_flight: AtomicBool,
    batches: Mutex<Vec<Vec<RecordId>>>,
}

impl WalSink for SlowBatchSink {
    fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()> {
        self.log_upload_batch(&[WalBatchItem { spend: None, entry: *entry }])
    }

    fn log_upload_batch(&self, items: &[WalBatchItem]) -> orsp_types::Result<()> {
        if items.iter().any(|i| i.entry.record_id == self.slow_record) {
            self.in_flight.store(true, Ordering::Release);
            std::thread::sleep(self.stall);
            self.in_flight.store(false, Ordering::Release);
        }
        self.batches
            .lock()
            .unwrap()
            .push(items.iter().map(|i| i.entry.record_id).collect());
        Ok(())
    }
}

/// Group commit under a held-open fsync: uploaders landing on the SAME
/// shard while its leader is stuck in the sink must enqueue, ride the
/// next leader's single batch once the stall clears, and ack — while an
/// upload to a different shard overtakes the whole affair.
#[test]
fn same_shard_uploaders_group_behind_a_held_open_fsync() {
    const FOLLOWERS: usize = 4;
    let service = hammer_service(16);
    let shard0 = records_for_shard(&service, 0, FOLLOWERS + 1);
    let slow_rid = shard0[0];
    let follower_rids = &shard0[1..];
    let fast_rid = records_for_shard(&service, 1, 1)[0];

    let sink = Arc::new(SlowBatchSink {
        slow_record: slow_rid,
        stall: Duration::from_millis(500),
        in_flight: AtomicBool::new(false),
        batches: Mutex::new(Vec::new()),
    });
    service.set_durability_with(
        Arc::clone(&sink) as Arc<dyn WalSink>,
        GroupCommitConfig { batch_max: 16, window_us: 0 },
    );

    let mut tokens = mint_tokens(&service, DeviceId::new(11), FOLLOWERS + 2);

    std::thread::scope(|s| {
        let (service, sink) = (&service, &sink);
        let slow_token = tokens.pop().unwrap();
        s.spawn(move || {
            assert_eq!(
                service.handle(upload_for(slow_rid, EntityId::new(1), slow_token)),
                Response::UploadAccepted,
                "the stalled leader's own upload still acks"
            );
        });
        while !sink.in_flight.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Same-shard followers arrive while the leader is stuck: they
        // enqueue and block awaiting durability.
        for rid in follower_rids.iter().copied() {
            let token = tokens.pop().unwrap();
            s.spawn(move || {
                assert_eq!(
                    service.handle(upload_for(rid, EntityId::new(1), token)),
                    Response::UploadAccepted,
                    "follower behind the stall still acks"
                );
            });
        }
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            sink.in_flight.load(Ordering::Acquire),
            "stall window must outlast the followers' enqueue"
        );

        // A different shard is unaffected by shard 0's held-open fsync.
        let fast_token = tokens.pop().unwrap();
        assert_eq!(
            service.handle(upload_for(fast_rid, EntityId::new(2), fast_token)),
            Response::UploadAccepted
        );
        assert!(
            sink.in_flight.load(Ordering::Acquire),
            "the other shard's upload finished before the stalled fsync"
        );
    });

    let batches = sink.batches.lock().unwrap();
    let committed: Vec<RecordId> = batches.iter().flatten().copied().collect();
    assert_eq!(committed.len(), FOLLOWERS + 2, "every upload committed exactly once");
    assert!(
        batches.iter().any(|b| b.len() >= 2),
        "followers queued behind the stall must share a commit group, got {batches:?}"
    );
    for rid in follower_rids {
        assert!(committed.contains(rid));
    }
    assert_eq!(service.ingest_stats().accepted, (FOLLOWERS + 2) as u64);
}

/// Real TCP: six concurrent connections against six workers — four
/// hammering uploads, two scraping search + stats — must produce zero
/// `Busy` sheds and exact request/accept totals.
#[test]
fn tcp_hammer_sheds_nothing_below_saturation() {
    const UPLOADERS: usize = 4;
    const PER_THREAD: usize = 24;
    const READER_ITERS: usize = 20;
    let service = Arc::new(hammer_service(PER_THREAD as u32));

    let work: Vec<(Vec<RecordId>, Vec<orsp_crypto::Token>)> = (0..UPLOADERS)
        .map(|t| {
            (
                records_for_shard(&service, t, PER_THREAD),
                mint_tokens(&service, DeviceId::new(t as u64 + 1), PER_THREAD),
            )
        })
        .collect();

    // "Below saturation" = the offered load fits: one worker per
    // concurrent connection, and slab headroom beyond that so the
    // initial connect burst cannot itself shed.
    let config = ServerConfig {
        workers: UPLOADERS + 2,
        queue_depth: UPLOADERS + 2,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server =
        NetServer::bind("127.0.0.1:0", service.clone(), config).expect("bind");
    let addr = server.local_addr();
    let client_config = ClientConfig {
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        max_retries: 0, // a single shed would surface as a hard Busy error
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        ..ClientConfig::default()
    };

    std::thread::scope(|s| {
        for (t, (records, tokens)) in work.into_iter().enumerate() {
            let client_config = client_config.clone();
            s.spawn(move || {
                let mut client = NetClient::connect(addr, client_config).expect("connect");
                let entity = EntityId::new(1 + (t as u64 % 2));
                for (rid, token) in records.into_iter().zip(tokens) {
                    let upload = orsp_crypto::UploadRequest {
                        record_id: rid,
                        entity,
                        interaction: Interaction::solo(
                            InteractionKind::Visit,
                            Timestamp::EPOCH,
                            SimDuration::minutes(30),
                            500.0,
                        ),
                        token,
                        release_at: Timestamp::EPOCH,
                    };
                    let verdict =
                        client.upload(upload, Timestamp::EPOCH).expect("upload rpc");
                    assert_eq!(verdict, Ok(()), "uploader {t}");
                }
            });
        }
        for _ in 0..2 {
            let client_config = client_config.clone();
            s.spawn(move || {
                let mut client = NetClient::connect(addr, client_config).expect("connect");
                let mut last_requests = 0u64;
                let mut last_accepted = 0u64;
                for _ in 0..READER_ITERS {
                    let hits = client
                        .search(SearchQuery {
                            zipcode: ZIP,
                            category: Category::Restaurant(Cuisine::Mexican),
                        })
                        .expect("search rpc");
                    assert_eq!(hits.len(), 2);
                    let snapshot = client.stats().expect("stats rpc");
                    let requests = snapshot.counter("net_requests_total").unwrap_or(0);
                    let accepted = snapshot.counter("ingest_accepted_total").unwrap_or(0);
                    assert!(requests >= last_requests, "request counter went backwards");
                    assert!(accepted >= last_accepted, "accepted counter went backwards");
                    last_requests = requests;
                    last_accepted = accepted;
                }
            });
        }
    });

    let total_uploads = (UPLOADERS * PER_THREAD) as u64;
    assert_eq!(service.ingest_stats().accepted, total_uploads);
    let stats = server.shutdown();
    assert_eq!(stats.shed, 0, "no Busy below saturation");
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(
        stats.requests,
        total_uploads + 2 * READER_ITERS as u64 * 2,
        "uploads + (search, stats) pairs, nothing lost or duplicated"
    );
    assert_eq!(stats.accepted, (UPLOADERS + 2) as u64, "one connection per thread");
}

proptest! {
    /// Shard routing is the seed's formula, byte for byte: the first
    /// eight bytes of the key as a little-endian word, mod the shard
    /// count. A routing change would silently orphan every record in an
    /// existing data directory, so the formula is pinned here
    /// independently of the implementation.
    #[test]
    fn shard_routing_matches_the_seed_formula(
        bytes in proptest::collection::vec(any::<u8>(), 32..33),
        shards in 1usize..64,
    ) {
        let mut key = [0u8; 32];
        key.copy_from_slice(&bytes);
        let word = u64::from_le_bytes([
            key[0], key[1], key[2], key[3], key[4], key[5], key[6], key[7],
        ]);
        prop_assert_eq!(shard_index(&key, shards), (word as usize) % shards);
        // The routing ignores everything past the first eight bytes.
        let mut tail_flipped = key;
        for b in &mut tail_flipped[8..] {
            *b = !*b;
        }
        prop_assert_eq!(shard_index(&tail_flipped, shards), shard_index(&key, shards));
    }
}

/// The service routes records with the same function the seed used —
/// checked against the public `shard_index` for a spread of ids, so the
/// hammer's shard targeting above is targeting what production targets.
#[test]
fn service_shard_of_agrees_with_shard_index() {
    let service = hammer_service(1);
    let mut rng = rng_for(53, "service-hammer-routing");
    use rand::Rng;
    for _ in 0..256 {
        let mut bytes = [0u8; 32];
        rng.fill(&mut bytes);
        let rid = RecordId::from_bytes(bytes);
        assert_eq!(service.shard_of(&rid), shard_index(&bytes, SHARDS));
    }
}
