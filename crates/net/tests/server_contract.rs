//! The server's per-connection contracts, driven through a `FrameService`
//! whose handler can be held open: a `Stats` request blocks inside the
//! handler until the test releases the gate, a `Traces` request gets a
//! half-megabyte answer, and every other request answers `Pong` at once.
//! Raw sockets let each case see exactly which bytes arrive and when.

use orsp_net::stream::read_message;
use orsp_net::{FrameService, NetServer, Request, Response, ServerConfig};
use orsp_obs::{Registry, TraceContext};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The `detail` of the reply a held `Stats` request gets once released.
const HELD_REPLY: &str = "released";
/// How long any wait in these tests may take before it counts as a hang.
const PATIENCE: Duration = Duration::from_secs(5);
/// The size of the answer to a `Traces` request.
const BIG_REPLY: usize = 512 * 1024;

#[derive(Default)]
struct GateState {
    /// Requests that have entered the handler.
    entered: usize,
    released: bool,
}

struct Gate {
    obs: Arc<Registry>,
    state: Mutex<GateState>,
    changed: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            obs: Arc::new(Registry::new()),
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
        })
    }

    fn entered(&self) -> usize {
        self.state.lock().unwrap().entered
    }

    /// Block until `n` requests have entered the handler.
    fn wait_entered(&self, n: usize) {
        let state = self.state.lock().unwrap();
        let (state, _) =
            self.changed.wait_timeout_while(state, PATIENCE, |s| s.entered < n).unwrap();
        assert!(state.entered >= n, "only {} of {n} requests reached the handler", state.entered);
    }

    fn release(&self) {
        self.state.lock().unwrap().released = true;
        self.changed.notify_all();
    }
}

impl FrameService for Gate {
    fn handle_traced(&self, request: Request, _ctx: Option<TraceContext>) -> Response {
        let mut state = self.state.lock().unwrap();
        state.entered += 1;
        self.changed.notify_all();
        match request {
            Request::Stats => {
                let (_state, timeout) =
                    self.changed.wait_timeout_while(state, PATIENCE, |s| !s.released).unwrap();
                assert!(!timeout.timed_out(), "the test never released the gate");
                Response::Error { detail: HELD_REPLY.into() }
            }
            Request::Traces => Response::Error { detail: "x".repeat(BIG_REPLY) },
            _ => Response::Pong,
        }
    }

    fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }
}

fn serve(gate: &Arc<Gate>, workers: usize, read_timeout: Duration) -> NetServer {
    serve_with(gate, ServerConfig { workers, read_timeout, ..ServerConfig::default() })
}

fn serve_with(gate: &Arc<Gate>, config: ServerConfig) -> NetServer {
    NetServer::bind("127.0.0.1:0", Arc::clone(gate) as Arc<dyn FrameService>, config).expect("bind")
}

/// Connect and send `requests` as one `write`.
fn send(server: &NetServer, requests: &[Request]) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let bytes: Vec<u8> = requests.iter().flat_map(Request::encode).collect();
    stream.write_all(&bytes).expect("write");
    stream.set_read_timeout(Some(PATIENCE)).expect("read timeout");
    stream
}

fn read_response(stream: &mut TcpStream) -> Response {
    let (payload, _) = read_message(stream).expect("read").expect("a response, not a close");
    Response::decode_payload(&payload).expect("decode")
}

fn is_held_reply(response: &Response) -> bool {
    matches!(response, Response::Error { detail } if detail == HELD_REPLY)
}

/// Nothing has arrived on `stream` within `wait`.
fn assert_silent(stream: &TcpStream, wait: Duration, what: &str) {
    stream.set_read_timeout(Some(wait)).expect("read timeout");
    match stream.peek(&mut [0u8; 1]) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("{what}: expected no bytes yet, got {other:?}"),
    }
    stream.set_read_timeout(Some(PATIENCE)).expect("read timeout");
}

#[test]
fn shutdown_delivers_the_response_of_an_executing_request() {
    let gate = Gate::new();
    let server = serve(&gate, 2, PATIENCE);
    let mut conn = send(&server, &[Request::Stats]);
    gate.wait_entered(1);

    let releaser = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            gate.release();
        })
    };
    let start = Instant::now();
    let stats = server.shutdown();
    assert!(
        start.elapsed() >= Duration::from_millis(100),
        "shutdown returned after {:?}, before the held request was released",
        start.elapsed()
    );
    releaser.join().expect("releaser");

    // Every server thread has joined, so whatever arrives now was written
    // before `shutdown` returned: the response, then the drain's close.
    assert!(is_held_reply(&read_response(&mut conn)), "the executing request's response");
    assert!(read_message(&mut conn).expect("read").is_none(), "drain closes after the response");
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.open_connections, 0);
}

#[test]
fn two_frames_in_one_write_are_answered_in_order_one_at_a_time() {
    let gate = Gate::new();
    // A second thread is free the whole time: only the one-request-in-
    // flight rule keeps it off the pipelined `Ping`.
    let server = serve(&gate, 2, PATIENCE);
    let mut conn = send(&server, &[Request::Stats, Request::Ping]);
    gate.wait_entered(1);

    assert_silent(&conn, Duration::from_millis(150), "first request still held");
    assert_eq!(gate.entered(), 1, "the pipelined frame ran before the first was answered");

    gate.release();
    assert!(is_held_reply(&read_response(&mut conn)), "first frame answered first");
    assert_eq!(read_response(&mut conn), Response::Pong, "second frame answered second");
    assert_eq!(gate.entered(), 2);
    drop(conn);
    assert_eq!(server.shutdown().requests, 2);
}

#[test]
fn a_held_handler_does_not_delay_a_ping_on_another_connection() {
    let gate = Gate::new();
    let server = serve(&gate, 2, PATIENCE);
    let mut held = send(&server, &[Request::Stats]);
    gate.wait_entered(1);

    // Answered while the other connection's handler is still held.
    let mut other = send(&server, &[Request::Ping]);
    assert_eq!(read_response(&mut other), Response::Pong);

    gate.release();
    assert!(is_held_reply(&read_response(&mut held)));
    drop((held, other));
    let stats = server.shutdown();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.shed, 0);
}

#[test]
fn with_one_thread_a_second_request_waits_for_the_release_and_is_answered() {
    let gate = Gate::new();
    let server = serve(&gate, 1, PATIENCE);
    let mut held = send(&server, &[Request::Stats]);
    gate.wait_entered(1);

    // The lone thread is executing: the ping waits in its socket, neither
    // answered nor dropped.
    let mut other = send(&server, &[Request::Ping]);
    assert_silent(&other, Duration::from_millis(150), "the only thread is held");
    assert_eq!(gate.entered(), 1);

    gate.release();
    assert!(is_held_reply(&read_response(&mut held)));
    assert_eq!(read_response(&mut other), Response::Pong, "answered after the release");
    drop((held, other));
    let stats = server.shutdown();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.shed, 0);
}

#[test]
fn an_idle_connection_closes_on_its_read_deadline_and_is_counted() {
    let gate = Gate::new();
    let read_timeout = Duration::from_millis(200);
    let server = serve(&gate, 2, read_timeout);
    let mut idle = send(&server, &[]);

    let start = Instant::now();
    let mut byte = [0u8; 1];
    assert_eq!(idle.read(&mut byte).expect("read"), 0, "the server closed the idle connection");
    let waited = start.elapsed();
    assert!(waited >= read_timeout / 2, "closed after {waited:?}, before its read deadline");
    assert!(waited < PATIENCE, "closed after {waited:?}");

    // The counter is bumped before the close the client just saw.
    assert_eq!(gate.obs.counter("net_deadline_closed_total").get(), 1);
    let stats = server.shutdown();
    assert_eq!(stats.deadline_closed, 1);
    assert_eq!(stats.requests, 0);
}

#[test]
fn a_request_held_past_the_read_deadline_leaves_its_connection_a_full_deadline() {
    let gate = Gate::new();
    let read_timeout = Duration::from_millis(200);
    // One thread, held: nothing turns the timer wheel meanwhile.
    let server = serve(&gate, 1, read_timeout);
    let mut conn = send(&server, &[Request::Stats]);
    gate.wait_entered(1);
    std::thread::sleep(read_timeout * 3);

    gate.release();
    assert!(is_held_reply(&read_response(&mut conn)));
    conn.write_all(&Request::Ping.encode()).expect("write");
    assert_eq!(read_response(&mut conn), Response::Pong, "closed right after its slow answer");
    drop(conn);
    let stats = server.shutdown();
    assert_eq!(stats.deadline_closed, 0);
    assert_eq!(stats.requests, 2);
}

#[test]
fn a_peer_that_stops_reading_is_closed_on_the_write_deadline() {
    let gate = Gate::new();
    // The write deadline is the shorter one, and the connection's wheel
    // entry was filed under the read deadline.
    let write_timeout = Duration::from_millis(200);
    let config = ServerConfig {
        workers: 2,
        read_timeout: PATIENCE,
        write_timeout,
        ..ServerConfig::default()
    };
    let server = serve_with(&gate, config);
    // A first round trip parks the connection for a request, under the
    // read deadline.
    let mut stalled = send(&server, &[Request::Ping]);
    assert_eq!(read_response(&mut stalled), Response::Pong);
    // 64 MiB of answers overflow both ends' socket buffers (Linux caps
    // them at 32 MiB by default), and this peer stops reading.
    let bytes: Vec<u8> = std::iter::repeat_n(Request::Traces.encode(), 128).flatten().collect();
    stalled.write_all(&bytes).expect("write");

    let start = Instant::now();
    let deadline_closed = || gate.obs.counter("net_deadline_closed_total").get();
    while deadline_closed() == 0 && start.elapsed() < PATIENCE {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(deadline_closed(), 1, "the stalled writer was not closed");
    assert!(
        start.elapsed() < PATIENCE / 2,
        "closed after {:?}, long past its write deadline",
        start.elapsed()
    );
    drop(stalled);
    let stats = server.shutdown();
    assert_eq!(stats.deadline_closed, 1);
}
