//! Blocking TCP client with retry/backoff and connection pooling.
//!
//! One [`NetClient`] wraps one connection and reconnects transparently.
//! Retries cover exactly the transient failures ([`NetError::is_retryable`]):
//! an explicit `Busy` shed, a missed deadline, or a dropped connection —
//! each retried on a fresh connection after exponential backoff. Protocol
//! errors and server-reported errors are never retried.
//!
//! Connections are kept alive between calls. A keep-alive peer may close
//! an idle connection at any time; the client detects that as a close
//! before any response byte on a *reused* stream and resends on a fresh
//! connection immediately — no retry budget burned, no backoff sleep —
//! counted in [`RetryStats::stale_reconnects`]. Only that exact shape is
//! replaced for free: a mid-frame drop or a failed write means the peer
//! may already be processing the request, so those take the normal
//! bounded retry path and count as disconnects. [`NetPool`] widens this
//! to a fixed set of persistent connections picked round-robin, so
//! concurrent callers (the proxy's worker threads) don't serialize on a
//! single link.

use crate::error::NetError;
use crate::stream::{read_message, write_message};
use crate::transport::Transport;
use crate::wire::{Request, Response, SearchHit};
use orsp_obs::{TraceContext, TraceRecord};
use orsp_crypto::{BlindSignature, BlindedMessage, UploadRequest};
use orsp_search::SearchQuery;
use orsp_server::{EntityAggregate, RejectReason};
use orsp_types::{DeviceId, EntityId, Timestamp};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Client tunables.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Per-call read deadline.
    pub read_timeout: Duration,
    /// Per-call write deadline.
    pub write_timeout: Duration,
    /// Retries after the first attempt (on retryable failures only).
    pub max_retries: u32,
    /// First backoff sleep; doubles each retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Budget for one whole call, retries included. Each reconnect's
    /// `TcpStream::connect_timeout` is clamped to what remains, and a
    /// retry whose backoff would overrun the budget fails now instead —
    /// so a black-holed backend can never hold a call past the deadline,
    /// no matter how generous `connect_timeout` and `max_retries` are.
    /// `None` (the default) keeps the unbounded behavior.
    pub call_deadline: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_retries: 5,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(320),
            call_deadline: None,
        }
    }
}

/// Cumulative client-side retry accounting: what the backoff loop saw
/// and how long it slept. All counters are monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Call attempts, including each first try.
    pub attempts: u64,
    /// Explicit `Busy` sheds received.
    pub busy: u64,
    /// Read/write deadline misses.
    pub timeouts: u64,
    /// Connections that dropped mid-exchange.
    pub disconnects: u64,
    /// Total time spent sleeping in backoff, in microseconds.
    pub backoff_us: u64,
    /// Calls that failed after exhausting every retry.
    pub exhausted: u64,
    /// Idle keep-alive connections the peer had closed, detected on the
    /// next call and replaced transparently (no retry burned, no backoff).
    pub stale_reconnects: u64,
}

impl RetryStats {
    /// Backoff sleeps actually taken. Each retryable failure triggers
    /// one, except the final failure of a call that exhausted its budget.
    pub fn retries(&self) -> u64 {
        (self.busy + self.timeouts + self.disconnects).saturating_sub(self.exhausted)
    }

    /// Fold another client's counters into this one (pool aggregation).
    pub fn absorb(&mut self, other: &RetryStats) {
        self.attempts += other.attempts;
        self.busy += other.busy;
        self.timeouts += other.timeouts;
        self.disconnects += other.disconnects;
        self.backoff_us += other.backoff_us;
        self.exhausted += other.exhausted;
        self.stale_reconnects += other.stale_reconnects;
    }
}

/// Per-call accounting returned by [`NetClient::call_traced`]: how hard
/// this one request had to work. The proxy uses it to attribute retries
/// to individual backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTrace {
    /// Attempts made, including the first. Transparent stale-connection
    /// replacements are not counted — only attempts that reached a live
    /// peer (or burned retry budget failing to).
    pub attempts: u32,
    /// Stale keep-alive connections replaced along the way.
    pub stale_reconnects: u32,
}

impl CallTrace {
    /// True if the call needed more than its first attempt (excluding
    /// transparent stale-connection replacement).
    pub fn retried(&self) -> bool {
        self.attempts > 1
    }
}

/// A blocking connection to an RSP server.
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    /// True once the current stream has completed at least one call —
    /// i.e. it sat idle in keep-alive and the peer may have closed it.
    reused: bool,
    retry_stats: RetryStats,
}

impl NetClient {
    /// Build a client without connecting; the first call dials. Lets a
    /// pool (or the proxy) come up before its backends do.
    pub fn new(addr: SocketAddr, config: ClientConfig) -> NetClient {
        NetClient { addr, config, stream: None, reused: false, retry_stats: RetryStats::default() }
    }

    /// Connect to `addr` (eagerly, so configuration errors surface here).
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<NetClient, NetError> {
        let mut client = NetClient::new(addr, config);
        client.ensure_stream()?;
        Ok(client)
    }

    /// Dial now if not already connected.
    pub fn ensure_connected(&mut self) -> Result<(), NetError> {
        self.ensure_stream().map(|_| ())
    }

    /// The address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total retry attempts this client has made (busy + timeout + drop).
    pub fn retries(&self) -> u64 {
        self.retry_stats.retries()
    }

    /// Full retry/backoff accounting.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    fn ensure_stream(&mut self) -> Result<&mut TcpStream, NetError> {
        self.ensure_stream_within(self.config.connect_timeout)
    }

    fn ensure_stream_within(
        &mut self,
        connect_timeout: Duration,
    ) -> Result<&mut TcpStream, NetError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, connect_timeout)
                .map_err(NetError::from_io)?;
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(self.config.read_timeout))
                .map_err(NetError::from_io)?;
            stream
                .set_write_timeout(Some(self.config.write_timeout))
                .map_err(NetError::from_io)?;
            self.stream = Some(stream);
            self.reused = false;
        }
        Ok(self.stream.as_mut().expect("just set"))
    }

    /// One write/read exchange. `Ok(None)` means the peer closed before
    /// sending a single response byte — distinguishable from a mid-frame
    /// drop or a failed write ([`NetError::Closed`]) so the caller can
    /// treat a closed-while-idle keep-alive stream differently from a
    /// peer that died with the request possibly in hand.
    fn call_once(
        &mut self,
        frame: &[u8],
        connect_timeout: Duration,
    ) -> Result<Option<Response>, NetError> {
        let stream = self.ensure_stream_within(connect_timeout)?;
        write_message(stream, frame)?;
        match read_message(stream)? {
            Some((payload, _ctx)) => {
                let response = Response::decode_payload(&payload)?;
                self.reused = true;
                Ok(Some(response))
            }
            None => Ok(None),
        }
    }

    /// Send one request; retry with exponential backoff on `Busy`,
    /// timeouts, and dropped connections, reconnecting each time.
    ///
    /// If the calling thread is inside a traced span, the span's context
    /// is stamped onto the frame so the server continues the trace.
    pub fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        self.call_traced(request).map(|(response, _)| response)
    }

    /// [`NetClient::call`], plus per-call attempt accounting.
    pub fn call_traced(&mut self, request: &Request) -> Result<(Response, CallTrace), NetError> {
        self.call_traced_with(request, orsp_obs::trace::current())
    }

    /// [`NetClient::call_traced`] with an explicit trace context instead
    /// of the thread's ambient one — for callers that fan work out to
    /// scoped threads (thread-locals don't cross that boundary).
    pub fn call_traced_with(
        &mut self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, CallTrace), NetError> {
        let frame = request.encode_traced(ctx.as_ref());
        let mut trace = CallTrace::default();
        let mut attempt: u32 = 0;
        let deadline = self.config.call_deadline.map(|d| std::time::Instant::now() + d);
        loop {
            // The call deadline clamps every dial: a black-holed peer
            // (SYNs silently dropped) blocks `connect()` only for what
            // remains of this call's budget, not the full
            // `connect_timeout` per retry.
            let connect_timeout = match deadline {
                Some(d) => {
                    let remaining = d.saturating_duration_since(std::time::Instant::now());
                    if remaining.is_zero() {
                        self.retry_stats.exhausted += 1;
                        return Err(NetError::Timeout);
                    }
                    self.config.connect_timeout.min(remaining)
                }
                None => self.config.connect_timeout,
            };
            let reused = self.reused && self.stream.is_some();
            self.retry_stats.attempts += 1;
            trace.attempts += 1;
            let mut before_any_byte = false;
            let failure = match self.call_once(&frame, connect_timeout) {
                Ok(Some(Response::Busy)) => NetError::Busy,
                // A typed unavailability report is a fail-fast: the range
                // is dead or demoted, retrying into it with backoff would
                // only burn the budget `Busy` retries are reserved for.
                Ok(Some(Response::Unavailable { detail })) => {
                    return Err(NetError::Unavailable(detail))
                }
                Ok(Some(response)) => return Ok((response, trace)),
                // Close before any response byte: the peer never started
                // answering this request.
                Ok(None) => {
                    before_any_byte = true;
                    NetError::Closed
                }
                Err(e) if e.is_retryable() => e,
                Err(e) => return Err(e),
            };
            // A close before any response byte on a *reused* keep-alive
            // stream means the peer dropped it while it sat idle — the
            // request was never answered. Replace the connection and
            // resend right away: no retry burned, no backoff. Only that
            // exact shape is free: a mid-frame drop or a failed write
            // (also `Closed`) means the peer may have started processing,
            // so it falls through to the bounded retry path and counts as
            // a disconnect. The fresh stream clears `reused`, so a
            // genuinely failing peer cannot loop here.
            if reused && before_any_byte {
                self.stream = None;
                self.retry_stats.stale_reconnects += 1;
                trace.attempts -= 1;
                trace.stale_reconnects += 1;
                continue;
            }
            match failure {
                NetError::Busy => self.retry_stats.busy += 1,
                NetError::Timeout => self.retry_stats.timeouts += 1,
                _ => self.retry_stats.disconnects += 1,
            }
            // Whatever happened, this connection is suspect: reconnect.
            self.stream = None;
            if attempt >= self.config.max_retries {
                self.retry_stats.exhausted += 1;
                return Err(failure);
            }
            let backoff = self
                .config
                .backoff_base
                .saturating_mul(1u32 << attempt.min(16))
                .min(self.config.backoff_cap);
            if let Some(d) = deadline {
                // Sleeping through the deadline helps no one: if the
                // backoff would overrun the budget, report the failure
                // now.
                let remaining = d.saturating_duration_since(std::time::Instant::now());
                if backoff >= remaining {
                    self.retry_stats.exhausted += 1;
                    return Err(failure);
                }
            }
            self.retry_stats.backoff_us += backoff.as_micros() as u64;
            std::thread::sleep(backoff);
            attempt += 1;
        }
    }

    // ------------------------------------------------- typed RPC helpers

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Request a blind signature (the issuance RPC).
    pub fn issue_token(
        &mut self,
        device: DeviceId,
        blinded: &BlindedMessage,
        now: Timestamp,
    ) -> Result<Result<BlindSignature, String>, NetError> {
        match self.call(&Request::IssueToken { device, blinded: blinded.clone(), now })? {
            Response::TokenIssued { signature } => Ok(Ok(signature)),
            Response::TokenDenied { reason } => Ok(Err(reason)),
            other => Err(unexpected(&other)),
        }
    }

    /// Upload one anonymous record. The outer error is transport-level;
    /// the inner `Result` is the server's admission verdict.
    pub fn upload(
        &mut self,
        upload: UploadRequest,
        now: Timestamp,
    ) -> Result<Result<(), RejectReason>, NetError> {
        match self.call(&Request::Upload { upload, now })? {
            Response::UploadAccepted => Ok(Ok(())),
            Response::UploadRejected { reason } => Ok(Err(reason)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch an entity's published aggregate (None below the floor).
    pub fn fetch_aggregate(
        &mut self,
        entity: EntityId,
    ) -> Result<Option<EntityAggregate>, NetError> {
        match self.call(&Request::FetchAggregate { entity })? {
            Response::Aggregate { aggregate } => Ok(aggregate),
            other => Err(unexpected(&other)),
        }
    }

    /// Ranked search.
    pub fn search(&mut self, query: SearchQuery) -> Result<Vec<SearchHit>, NetError> {
        match self.call(&Request::Search { query })? {
            Response::SearchResults { hits } => Ok(hits),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the server's live metric snapshot.
    pub fn stats(&mut self) -> Result<orsp_obs::StatsSnapshot, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats { snapshot } => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// Drain the server's completed sampled traces (each is returned at
    /// most once; see the `Traces` RPC).
    pub fn traces(&mut self) -> Result<Vec<TraceRecord>, NetError> {
        match self.call(&Request::Traces)? {
            Response::Traces { traces } => Ok(traces),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &Response) -> NetError {
    match response {
        Response::Error { detail } => NetError::Unexpected(format!("server error: {detail}")),
        other => NetError::Unexpected(format!("{other:?}")),
    }
}

/// [`Transport`] over a TCP connection: interior mutability so worker
/// threads can share it (calls serialize on the connection, matching a
/// real device's single link to the service).
pub struct TcpTransport {
    client: Mutex<NetClient>,
}

impl TcpTransport {
    /// Connect a transport.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<TcpTransport, NetError> {
        Ok(TcpTransport { client: Mutex::new(NetClient::connect(addr, config)?) })
    }

    /// Total retries across all calls.
    pub fn retries(&self) -> u64 {
        self.client.lock().retries()
    }

    /// Full retry/backoff accounting for the underlying client.
    pub fn retry_stats(&self) -> RetryStats {
        self.client.lock().retry_stats()
    }
}

impl Transport for TcpTransport {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        self.client.lock().call(request)
    }
}

/// A fixed set of persistent keep-alive connections to one server,
/// handed out round-robin. Each slot serializes its own exchanges behind
/// a mutex, so up to `size` calls proceed concurrently; a caller landing
/// on a busy slot waits for that slot rather than hunting for a free one
/// (round-robin keeps the load even, and exchanges are short).
///
/// Connections dial lazily on first use and are replaced transparently
/// when the peer closes them while idle (see [`RetryStats::stale_reconnects`]).
pub struct NetPool {
    slots: Vec<Mutex<NetClient>>,
    next: AtomicUsize,
}

impl NetPool {
    /// Build a pool of `size` lazily-dialed connections (minimum 1).
    pub fn new(addr: SocketAddr, config: ClientConfig, size: usize) -> NetPool {
        let slots =
            (0..size.max(1)).map(|_| Mutex::new(NetClient::new(addr, config))).collect();
        NetPool { slots, next: AtomicUsize::new(0) }
    }

    /// Build a pool and dial every slot now, so a dead server surfaces
    /// at construction instead of on the first call.
    pub fn connect(
        addr: SocketAddr,
        config: ClientConfig,
        size: usize,
    ) -> Result<NetPool, NetError> {
        let pool = NetPool::new(addr, config, size);
        for slot in &pool.slots {
            slot.lock().ensure_connected()?;
        }
        Ok(pool)
    }

    /// Number of connections in the pool.
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// The address every slot dials.
    pub fn addr(&self) -> SocketAddr {
        self.slots[0].lock().addr()
    }

    fn slot(&self) -> &Mutex<NetClient> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        &self.slots[i]
    }

    /// Send one request on the next slot (with the slot's full
    /// retry/backoff behavior).
    pub fn call(&self, request: &Request) -> Result<Response, NetError> {
        self.slot().lock().call(request)
    }

    /// [`NetPool::call`], plus per-call attempt accounting.
    pub fn call_traced(&self, request: &Request) -> Result<(Response, CallTrace), NetError> {
        self.slot().lock().call_traced(request)
    }

    /// [`NetPool::call_traced`] with an explicit trace context (for
    /// callers dispatching from scoped threads).
    pub fn call_traced_with(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, CallTrace), NetError> {
        self.slot().lock().call_traced_with(request, ctx)
    }

    /// Retry/backoff accounting summed across every slot.
    pub fn retry_stats(&self) -> RetryStats {
        let mut total = RetryStats::default();
        for slot in &self.slots {
            total.absorb(&slot.lock().retry_stats());
        }
        total
    }
}

impl Transport for NetPool {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        NetPool::call(self, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn answer_ping(stream: &mut TcpStream) {
        let (payload, _) = read_message(stream).expect("read").expect("frame");
        assert!(matches!(Request::decode_payload(&payload).expect("decode"), Request::Ping));
        write_message(stream, &Response::Pong.encode()).expect("write");
    }

    #[test]
    fn stale_keepalive_connection_is_replaced_without_burning_retries() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            // Connection 1: answer one ping, then close while it idles.
            let (mut s1, _) = listener.accept().expect("accept 1");
            answer_ping(&mut s1);
            drop(s1);
            closed_tx.send(()).expect("signal");
            // Connection 2: the transparent replacement.
            let (mut s2, _) = listener.accept().expect("accept 2");
            answer_ping(&mut s2);
        });

        let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
        client.ping().expect("first ping");
        closed_rx.recv().expect("server closed conn 1");
        let (response, trace) = client.call_traced(&Request::Ping).expect("second ping");
        assert!(matches!(response, Response::Pong));
        assert_eq!(trace.stale_reconnects, 1, "stale stream replaced once");
        assert!(!trace.retried(), "replacement is not a retry");

        let stats = client.retry_stats();
        assert_eq!(stats.stale_reconnects, 1);
        assert_eq!(stats.disconnects, 0, "idle close must not count as a disconnect");
        assert_eq!(stats.retries(), 0, "no retry budget burned");
        assert_eq!(stats.backoff_us, 0, "no backoff slept");
        server.join().expect("server");
    }

    #[test]
    fn mid_frame_drop_on_a_reused_stream_is_a_disconnect_not_stale() {
        // Connection 1 answers one ping, then on the next request sends
        // half a response header and dies. The peer *started* answering
        // — it may have processed the request — so the resend must burn
        // retry budget and count as a disconnect, not ride the free
        // stale-replacement path.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s1, _) = listener.accept().expect("accept 1");
            answer_ping(&mut s1);
            let _ = read_message(&mut s1).expect("read request 2").expect("frame");
            use std::io::Write;
            let torn = &Response::Pong.encode()[..5];
            s1.write_all(torn).expect("torn write");
            drop(s1);
            let (mut s2, _) = listener.accept().expect("accept 2");
            answer_ping(&mut s2);
        });

        let config = ClientConfig {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..ClientConfig::default()
        };
        let mut client = NetClient::connect(addr, config).expect("connect");
        client.ping().expect("first ping");
        let (response, trace) = client.call_traced(&Request::Ping).expect("second ping");
        assert!(matches!(response, Response::Pong));
        assert_eq!(trace.stale_reconnects, 0, "mid-frame drop is not stale");
        assert_eq!(trace.attempts, 2, "the resend burned a retry");

        let stats = client.retry_stats();
        assert_eq!(stats.stale_reconnects, 0);
        assert_eq!(stats.disconnects, 1, "mid-frame drop is a disconnect");
        assert_eq!(stats.retries(), 1);
        server.join().expect("server");
    }

    #[test]
    fn fresh_connection_eof_still_burns_the_retry_budget() {
        // A peer that closes every brand-new connection without answering
        // must exhaust retries, not loop forever in stale replacement.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let mut accepted = 0u32;
            while let Ok((s, _)) = listener.accept() {
                drop(s);
                accepted += 1;
                if accepted >= 8 {
                    break;
                }
            }
        });
        let config = ClientConfig {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..ClientConfig::default()
        };
        let mut client = NetClient::new(addr, config);
        let err = client.call(&Request::Ping).expect_err("must exhaust");
        assert_eq!(err, NetError::Closed);
        let stats = client.retry_stats();
        assert_eq!(stats.attempts, 3, "first try + two retries");
        assert_eq!(stats.stale_reconnects, 0);
        assert_eq!(stats.exhausted, 1);
        drop(client);
        // Unblock the listener loop if it is still waiting.
        let _ = TcpStream::connect(addr);
        let _ = TcpStream::connect(addr);
        let _ = TcpStream::connect(addr);
        let _ = TcpStream::connect(addr);
        let _ = TcpStream::connect(addr);
        server.join().expect("server");
    }

    #[test]
    fn call_deadline_bounds_the_whole_retry_loop() {
        // A server that sheds every request with `Busy` would normally
        // hold this client for the full retry schedule (50 retries at
        // 20–40ms backoff ≈ seconds). The call deadline cuts the loop
        // the moment the next backoff would overrun the budget.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || loop {
            let Ok((mut s, _)) = listener.accept() else { return };
            match read_message(&mut s) {
                Ok(Some(_)) => {
                    let _ = write_message(&mut s, &Response::Busy.encode());
                }
                _ => return, // the throwaway stop connection
            }
        });

        let config = ClientConfig {
            max_retries: 50,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(40),
            call_deadline: Some(Duration::from_millis(150)),
            ..ClientConfig::default()
        };
        let mut client = NetClient::connect(addr, config).expect("connect");
        let started = std::time::Instant::now();
        let err = client.call(&Request::Ping).expect_err("deadline must cut the loop");
        let elapsed = started.elapsed();
        assert_eq!(err, NetError::Busy, "the last real failure is reported");
        assert!(elapsed < Duration::from_secs(1), "deadline ignored: took {elapsed:?}");

        let stats = client.retry_stats();
        assert_eq!(stats.exhausted, 1);
        assert!(stats.attempts < 51, "far fewer attempts than the retry budget allows");
        drop(client);
        let _ = TcpStream::connect(addr); // unblock the accept loop
        server.join().expect("server");
    }

    #[test]
    fn unavailable_fails_fast_without_burning_retries() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let _ = read_message(&mut s).expect("read").expect("frame");
            let resp = Response::Unavailable { detail: "range 2 down".into() };
            write_message(&mut s, &resp.encode()).expect("write");
        });
        let config = ClientConfig {
            max_retries: 3,
            backoff_base: Duration::from_millis(50),
            ..ClientConfig::default()
        };
        let mut client = NetClient::connect(addr, config).expect("connect");
        let err = client.call(&Request::Ping).expect_err("must fail fast");
        assert_eq!(err, NetError::Unavailable("range 2 down".into()));
        let stats = client.retry_stats();
        assert_eq!(stats.attempts, 1, "no retry attempted");
        assert_eq!(stats.backoff_us, 0, "no backoff slept");
        server.join().expect("server");
    }

    #[test]
    fn pool_round_robins_calls_across_persistent_slots() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let mut workers = Vec::new();
            for _ in 0..2 {
                let (mut s, _) = listener.accept().expect("accept");
                workers.push(std::thread::spawn(move || {
                    let mut served = 0u32;
                    while let Ok(Some((payload, _))) = read_message(&mut s) {
                        assert!(matches!(
                            Request::decode_payload(&payload).expect("decode"),
                            Request::Ping
                        ));
                        if write_message(&mut s, &Response::Pong.encode()).is_err() {
                            break;
                        }
                        served += 1;
                    }
                    served
                }));
            }
            workers.into_iter().map(|w| w.join().expect("worker")).collect::<Vec<_>>()
        });

        let pool = NetPool::connect(addr, ClientConfig::default(), 2).expect("pool");
        assert_eq!(pool.size(), 2);
        for _ in 0..6 {
            assert!(matches!(pool.call(&Request::Ping).expect("call"), Response::Pong));
        }
        let stats = pool.retry_stats();
        assert_eq!(stats.attempts, 6);
        assert_eq!(stats.retries(), 0);
        drop(pool);
        let served = server.join().expect("server");
        assert_eq!(served, vec![3, 3], "round-robin spreads calls evenly");
    }
}
