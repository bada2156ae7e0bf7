//! The RSP as a daemon: generate a synthetic city, serve it over TCP on a
//! loopback port, then act as a device — request a blind token, upload an
//! anonymous record, search for a restaurant — entirely through the
//! client library and the wire protocol. Exits after the round trip.
//!
//! ```sh
//! cargo run --release --example rsp_daemon
//! ```
//!
//! This is the self-contained demo on `orsp_core::serve()` — world in,
//! listening server out, nothing on disk. The durable daemon and the
//! cluster backend are `orsp-replicad` (README "Running it durably").

use orsp_core::{serve, PipelineConfig};
use orsp_crypto::TokenWallet;
use orsp_net::{ClientConfig, NetClient, RemoteIssuer, ServerConfig, TcpTransport};
use orsp_search::SearchQuery;
use orsp_types::rng::rng_for;
use orsp_types::{
    Category, Cuisine, DeviceId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp,
};
use orsp_world::{World, WorldConfig};

fn main() {
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

    // 2. Serve it: the wire-facing service (token mint, ingest, search)
    //    behind the TCP server on an ephemeral loopback port.
    let (server, service) =
        serve(&world, &PipelineConfig::default(), "127.0.0.1:0", ServerConfig::default())
            .expect("bind daemon");
    let addr = server.local_addr();
    println!("daemon: listening on {addr}");

    // 3. Be a device. Everything below crosses the socket.
    let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
    client.ping().expect("ping");
    println!("client: connected, server is live");

    //    Blind token: the wallet blinds a random message, the daemon signs
    //    it without seeing it, the wallet unblinds and verifies.
    let device = DeviceId::new(1);
    let mut rng = rng_for(99, "rsp-daemon-device");
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
    let upload = orsp_client::UploadRequest {
        record_id: RecordId::from_bytes([42u8; 32]),
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
    //    Stats: scrape the daemon's live metrics over the same wire —
    //    every counter, gauge and latency histogram its registry holds.
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

    // 4. Drain and exit, dumping the final registry snapshot.
    let stats = server.shutdown();
    println!(
        "daemon: drained — {} connections, {} requests, {} shed, {} protocol errors",
        stats.accepted, stats.requests, stats.shed, stats.protocol_errors,
    );
    println!("daemon: final snapshot\n{}", service.obs().snapshot().render_json());
}
