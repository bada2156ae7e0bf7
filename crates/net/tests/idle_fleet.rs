//! The connection-scaling contract the reactor exists for: a device
//! fleet is mostly idle, a connection costs a slab slot and not a
//! thread, so a fixed pool of 4 workers holds thousands of keep-alive
//! connections at once and sheds none of them.

use orsp_crypto::TokenMint;
use orsp_net::{
    ClientConfig, NetClient, NetError, NetServer, RspService, ServerConfig, ServiceConfig,
};
use orsp_search::{Ranker, SearchIndex};
use orsp_types::rng::rng_for;
use orsp_types::SimDuration;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const WORKERS: usize = 4;
const QUEUE_DEPTH: usize = 64;
const FLEET: usize = 5_000;
const CLIENT_THREADS: usize = 8;
const ROUNDS: usize = 2;

/// The fleet this process can open: both ends of every connection are
/// its own descriptors, under the soft `RLIMIT_NOFILE`.
fn fleet_size() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let soft: usize = limits
        .lines()
        .find_map(|line| line.strip_prefix("Max open files"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|soft| soft.parse().ok())
        .unwrap_or(usize::MAX); // "unlimited"
    let fleet = FLEET.min(soft.saturating_sub(64) / 2);
    assert!(
        fleet >= 10 * (WORKERS + QUEUE_DEPTH),
        "RLIMIT_NOFILE {soft} allows only {fleet} connections: too few to tell a slab from \
         a thread pool"
    );
    fleet
}

/// One client thread's slice: open it, then ping every connection once
/// per round with an idle gap between rounds. Returns (held, busy).
fn fleet_thread(addr: std::net::SocketAddr, count: usize, barrier: &Barrier) -> (usize, usize) {
    // No retries: a `Busy` must be counted, not ridden out.
    let config = ClientConfig {
        max_retries: 0,
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(1),
        ..ClientConfig::default()
    };
    let mut busy = 0;
    let mut answers = |client: &mut NetClient| match client.ping() {
        Ok(()) => true,
        Err(NetError::Busy) => {
            busy += 1;
            false
        }
        Err(_) => false,
    };
    // A connect returns once the kernel has queued the connection; the
    // ping that follows returns once the server has accepted it, which
    // paces this thread to the accept rate instead of overflowing the
    // listen backlog into SYN retransmits.
    let mut fleet: Vec<NetClient> = (0..count)
        .filter_map(|_| NetClient::connect(addr, config).ok())
        .filter_map(|mut client| answers(&mut client).then_some(client))
        .collect();
    // Every thread holds its whole slice before the first round: this
    // is the instant the server provably holds all N at once.
    barrier.wait();
    for round in 0..ROUNDS {
        if round > 0 {
            std::thread::sleep(Duration::from_millis(500));
        }
        fleet.retain_mut(&mut answers);
    }
    // Nobody hangs up until everyone is done: freed slots must not let a
    // slower thread's slice sneak under the server's ceiling.
    barrier.wait();
    (fleet.len(), busy)
}

#[test]
fn four_workers_hold_an_idle_fleet_with_zero_sheds() {
    let fleet = fleet_size();
    let mint = TokenMint::new(&mut rng_for(47, "idle-fleet"), 256, 64, SimDuration::DAY);
    let service = Arc::new(RspService::new(
        mint,
        SearchIndex::build(Vec::new()),
        HashMap::new(),
        Ranker::default(),
        ServiceConfig::default(),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            workers: WORKERS,
            queue_depth: QUEUE_DEPTH,
            // The fleet is idle, not dead: the gap between rounds must
            // not trip the read deadline.
            read_timeout: Duration::from_secs(30),
            max_connections: fleet,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let barrier = Barrier::new(CLIENT_THREADS);
    let (held, busy) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let count = fleet / CLIENT_THREADS + usize::from(t < fleet % CLIENT_THREADS);
                let barrier = &barrier;
                scope.spawn(move || fleet_thread(addr, count, barrier))
            })
            .collect();
        threads.into_iter().fold((0, 0), |(held, busy), thread| {
            let (h, b) = thread.join().expect("fleet thread");
            (held + h, busy + b)
        })
    });
    let stats = server.shutdown();

    assert_eq!(busy, 0, "the server shed part of an idle fleet");
    assert_eq!(held, fleet, "connections that did not answer every round");
    assert_eq!(stats.shed, 0);
    assert!(
        stats.slab_high_water >= fleet as i64,
        "slab high water {} < fleet {fleet}: the fleet was never held all at once",
        stats.slab_high_water
    );
}
