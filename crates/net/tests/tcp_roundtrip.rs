//! Integration tests for the TCP path: a real listener on a loopback
//! ephemeral port, the blocking client against it, explicit `Busy`
//! shedding under saturation, protocol-error reporting, and graceful
//! drain on shutdown.

use orsp_crypto::{BlindingSession, TokenMint, TokenWallet};
use orsp_net::{
    ClientConfig, NetClient, NetError, NetServer, RemoteIssuer, Request, Response, RspService,
    ServerConfig, ServiceConfig, TcpTransport, Transport,
};
use orsp_search::{Listing, Ranker, SearchIndex, SearchQuery};
use orsp_types::rng::rng_for;
use orsp_types::{
    Category, Cuisine, DeviceId, EntityId, GeoPoint, Interaction, InteractionKind, Rating,
    RecordId, SimDuration, StarHistogram, Timestamp,
};
use rand::Rng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const ZIP: u32 = 94107;

fn test_service() -> Arc<RspService> {
    let mut rng = rng_for(41, "tcp-roundtrip");
    let mint = TokenMint::new(&mut rng, 256, 64, SimDuration::DAY);
    let listings = vec![
        Listing {
            id: EntityId::new(1),
            name: "Taqueria Uno".into(),
            category: Category::Restaurant(Cuisine::Mexican),
            location: GeoPoint::new(10.0, 10.0),
            zipcode: ZIP,
        },
        Listing {
            id: EntityId::new(2),
            name: "Taqueria Dos".into(),
            category: Category::Restaurant(Cuisine::Mexican),
            location: GeoPoint::new(20.0, 20.0),
            zipcode: ZIP,
        },
    ];
    let mut explicit = HashMap::new();
    let mut hist = StarHistogram::default();
    hist.add(Rating::new(5.0));
    hist.add(Rating::new(4.0));
    explicit.insert(EntityId::new(1), hist);
    Arc::new(RspService::new(
        mint,
        SearchIndex::build(listings),
        explicit,
        Ranker::default(),
        ServiceConfig::default(),
    ))
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        max_retries: 0,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        ..ClientConfig::default()
    }
}

#[test]
fn full_rpc_round_trip_over_tcp() {
    let service = test_service();
    let server =
        NetServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, fast_client()).expect("connect");
    client.ping().expect("ping");

    // Token issue + spend, all through the wire.
    let device = DeviceId::new(7);
    let mut rng = rng_for(42, "tcp-roundtrip-client");
    let transport = TcpTransport::connect(addr, fast_client()).expect("transport");
    let mut wallet = TokenWallet::new(device, service.mint_public_key());
    let mut issuer = RemoteIssuer::new(&transport);
    wallet.request_token(&mut rng, &mut issuer, Timestamp::EPOCH).expect("token issued over TCP");
    assert_eq!(wallet.balance(), 1);

    let upload = orsp_crypto::UploadRequest {
        record_id: RecordId::from_bytes([3; 32]),
        entity: EntityId::new(1),
        interaction: Interaction {
            kind: InteractionKind::Visit,
            start: Timestamp::EPOCH,
            duration: SimDuration::minutes(40),
            distance_travelled_m: 1200.0,
            group_size: 2,
        },
        token: wallet.take_token().expect("token"),
        release_at: Timestamp::EPOCH,
    };
    let verdict = client.upload(upload, Timestamp::EPOCH).expect("upload rpc");
    assert_eq!(verdict, Ok(()), "valid token accepted");
    assert_eq!(service.ingest_stats().accepted, 1);

    // One upload is below the k-anonymity floor: aggregate suppressed.
    assert_eq!(client.fetch_aggregate(EntityId::new(1)).expect("agg rpc"), None);

    // Search sees both listings; the reviewed one ranks first.
    let hits = client
        .search(SearchQuery { zipcode: ZIP, category: Category::Restaurant(Cuisine::Mexican) })
        .expect("search rpc");
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0].entity, EntityId::new(1));
    assert!(hits[0].score > hits[1].score);

    let stats = server.shutdown();
    assert!(stats.requests >= 5, "served {} requests", stats.requests);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.shed, 0);
}

#[test]
fn saturated_server_sheds_with_busy_not_silence() {
    let service = test_service();
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        // Short read deadline so the pinned connections free the worker
        // well inside the patient client's retry budget.
        read_timeout: Duration::from_millis(700),
        write_timeout: Duration::from_millis(700),
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", service, config).expect("bind");
    let addr = server.local_addr();

    // Pin the lone worker with an idle connection, then park a second in
    // the queue. Short sleeps let the acceptor hand each one off before
    // the next arrives.
    let pin_worker = TcpStream::connect(addr).expect("pin connection");
    std::thread::sleep(Duration::from_millis(150));
    let fill_queue = TcpStream::connect(addr).expect("queue connection");
    std::thread::sleep(Duration::from_millis(150));

    // The next caller must be told, not dropped: the client sees an
    // explicit Busy frame, surfaced as NetError::Busy once retries run out.
    let mut client = NetClient::connect(addr, fast_client()).expect("connect");
    match client.ping() {
        Err(NetError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    assert!(server.stats().shed >= 1, "shed counter records the Busy");

    // With retries enabled the client rides out the saturation window:
    // the pinned connections idle out (read deadline) and free the worker.
    let patient = ClientConfig {
        max_retries: 8,
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_millis(400),
        ..fast_client()
    };
    let mut retrying = NetClient::connect(addr, patient).expect("connect");
    retrying.ping().expect("retry succeeds after the deadline frees the worker");
    assert!(retrying.retries() >= 1, "success came via the retry path");
    let retry_stats = retrying.retry_stats();
    assert!(retry_stats.attempts >= 2, "at least the failed try plus the success");
    assert!(retry_stats.busy >= 1, "the shed was recorded as a Busy");
    assert!(retry_stats.backoff_us > 0, "backoff sleep time was accounted");
    assert_eq!(retry_stats.exhausted, 0, "the call ultimately succeeded");

    drop(pin_worker);
    drop(fill_queue);
    let stats = server.shutdown();
    assert!(stats.shed >= 1);
}

#[test]
fn malformed_bytes_get_a_typed_error_response() {
    let service = test_service();
    let server = NetServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    // Exactly one magic+version prefix's worth of junk: the server
    // consumes it all before rejecting, so the close is a clean FIN
    // rather than an RST.
    raw.write_all(b"XXXX!").expect("write");
    // The server answers with an encoded Error response, then closes.
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read reply");
    match Response::decode(&reply) {
        Ok(Response::Error { detail }) => {
            assert!(detail.contains("magic"), "detail names the failure: {detail}")
        }
        other => panic!("expected Error response, got {other:?}"),
    }

    // Wait until the counter lands (the worker races `read_to_end`).
    let mut tries = 0;
    while server.stats().protocol_errors == 0 && tries < 50 {
        std::thread::sleep(Duration::from_millis(10));
        tries += 1;
    }
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.requests, 0);
}

#[test]
fn corrupted_crc_is_rejected_not_executed() {
    let service = test_service();
    let server =
        NetServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    // A real IssueToken frame with one payload byte flipped: the CRC
    // catches it, the mint never sees the request.
    let mut rng = rng_for(43, "tcp-corrupt");
    let public = service.mint_public_key();
    let mut message = [0u8; 32];
    rng.fill(&mut message);
    let (_, blinded) = BlindingSession::blind(&mut rng, &public, &message);
    let mut frame =
        Request::IssueToken { device: DeviceId::new(9), blinded, now: Timestamp::EPOCH }.encode();
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    raw.write_all(&frame).expect("write");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read reply");
    assert!(matches!(Response::decode(&reply), Ok(Response::Error { .. })));
    assert_eq!(service.tokens_issued(), 0, "corrupted request never reached the mint");

    server.shutdown();
}

#[test]
fn shutdown_drains_and_joins() {
    let service = test_service();
    let config = ServerConfig {
        workers: 2,
        queue_depth: 4,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", service, config).expect("bind");
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, fast_client()).expect("connect");
    client.ping().expect("ping before shutdown");

    let start = std::time::Instant::now();
    let stats = server.shutdown();
    // The open idle client connection must not wedge the drain: workers
    // close after at most one read deadline.
    assert!(start.elapsed() < Duration::from_secs(5), "shutdown joined promptly");
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.accepted, 1);

    // After shutdown the port no longer accepts service: a fresh call fails.
    match NetClient::connect(addr, fast_client()) {
        Ok(mut dead) => assert!(dead.ping().is_err(), "no server behind the port any more"),
        Err(_) => {} // refused outright: equally fine
    }
}

#[test]
fn stats_rpc_reports_live_counters() {
    let service = test_service();
    let server =
        NetServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, fast_client()).expect("connect");
    client.ping().expect("ping");
    client
        .search(SearchQuery { zipcode: ZIP, category: Category::Restaurant(Cuisine::Mexican) })
        .expect("search rpc");

    // The snapshot rides the same wire as every other RPC, and by the
    // time the Stats request dispatches, the ping and search spans have
    // already landed in the registry.
    let first = client.stats().expect("stats rpc");
    assert!(
        first.counter("net_requests_total").unwrap_or(0) >= 2,
        "ping and search were counted: {:?}",
        first.counter("net_requests_total")
    );
    let ping_hist = first.histogram("rpc_ping_us").expect("ping histogram exists");
    assert_eq!(ping_hist.count, 1, "exactly one ping timed");
    assert!(ping_hist.p50 <= ping_hist.max, "quantiles are ordered");
    let search_hist = first.histogram("rpc_search_us").expect("search histogram exists");
    assert_eq!(search_hist.count, 1, "exactly one search timed");

    // A second scrape is monotonic and sees the first Stats call itself.
    let second = client.stats().expect("second stats rpc");
    assert!(
        second.counter("net_requests_total").unwrap_or(0)
            >= first.counter("net_requests_total").unwrap_or(0),
        "request counter never goes backwards"
    );
    let stats_hist = second.histogram("rpc_stats_us").expect("stats histogram exists");
    assert!(stats_hist.count >= 1, "the first Stats RPC was itself timed");
    assert!(
        second.histogram("rpc_ping_us").expect("still present").count >= ping_hist.count,
        "histogram counts never go backwards"
    );

    let stats = server.shutdown();
    assert!(stats.requests >= 4);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn protocol_error_kinds_are_counted() {
    let service = test_service();
    let server = NetServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let send = |bytes: &[u8], expect_reply: bool| {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        raw.write_all(bytes).expect("write");
        if expect_reply {
            // Half-close so a server that keeps the connection open after
            // replying (decode errors are per-request, not fatal) sees a
            // clean end-of-conversation and closes its side too.
            raw.shutdown(std::net::Shutdown::Write).expect("half-close");
            let mut reply = Vec::new();
            raw.read_to_end(&mut reply).expect("read reply");
            assert!(
                matches!(Response::decode(&reply), Ok(Response::Error { .. })),
                "malformed input earns a typed Error response"
            );
        }
        // Dropping the stream closes it; for the truncation case that
        // close IS the malformation (EOF mid-frame).
    };

    // 1. Truncation: a valid header promising one payload byte, then FIN.
    let ping = Request::Ping.encode();
    send(&ping[..orsp_net::wire::HEADER_LEN], false);

    // 2. Corrupt CRC: a full Ping frame with the payload byte flipped.
    let mut bad_crc = ping.clone();
    let last = bad_crc.len() - 1;
    bad_crc[last] ^= 0xFF;
    send(&bad_crc, true);

    // 3. Oversized: the declared length exceeds the 1 MiB payload cap.
    // Header only — the server rejects on the length field and closes
    // without reading a payload, so unsent bytes would become an RST.
    let mut oversized = ping[..orsp_net::wire::HEADER_LEN].to_vec();
    oversized[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    send(&oversized, true);

    // 4. Unknown tag: a perfectly framed payload with a tag from the future.
    send(&orsp_net::wire::frame(&[0x7F]), true);

    // 5. Bad magic: prefix-sized junk, classified as "other". (Exactly
    // the prefix, so the server's reject leaves no unread bytes and the
    // close is a clean FIN.)
    send(b"XXXX!", true);

    // Wait until all five counters land (workers race our socket closes).
    let mut tries = 0;
    while server.stats().protocol_errors < 5 && tries < 100 {
        std::thread::sleep(Duration::from_millis(10));
        tries += 1;
    }
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 5, "every malformation counted once");
    assert_eq!(stats.proto_truncated, 1);
    assert_eq!(stats.proto_bad_crc, 1);
    assert_eq!(stats.proto_oversized, 1);
    assert_eq!(stats.proto_unknown_tag, 1);
    assert_eq!(stats.proto_other, 1);
    assert_eq!(
        stats.proto_truncated
            + stats.proto_bad_crc
            + stats.proto_oversized
            + stats.proto_unknown_tag
            + stats.proto_other,
        stats.protocol_errors,
        "the breakdown sums to the total"
    );
    assert_eq!(stats.requests, 0, "nothing malformed was ever executed");
}

#[test]
fn transport_trait_is_shared_across_threads() {
    let service = test_service();
    let server = NetServer::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let transport = Arc::new(TcpTransport::connect(addr, fast_client()).expect("transport"));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let transport = Arc::clone(&transport);
            std::thread::spawn(move || {
                for _ in 0..8 {
                    match transport.call(&Request::Ping) {
                        Ok(Response::Pong) => {}
                        other => panic!("ping failed: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker thread");
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, 32);
    assert_eq!(stats.protocol_errors, 0);
}
