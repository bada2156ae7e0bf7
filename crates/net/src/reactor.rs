//! Readiness-driven event-loop server: epoll + non-blocking sockets +
//! per-connection state machines, so an idle connection costs a slab
//! slot, not a thread.
//!
//! Topology: one **reactor thread** owns the listener, an epoll set, a
//! connection slab, and a timer wheel; a fixed **worker pool** executes
//! only *ready, fully-framed* requests. The reactor reads bytes into the
//! incremental [`FrameAssembler`]; the moment a frame completes and its
//! payload decodes, the request crosses to a worker as an explicit
//! `(request, trace-context)` job — the tracer hand-off is that argument,
//! no per-connection thread-local survives the boundary. The worker runs
//! [`FrameService::handle_traced`], writes the response straight to the
//! (non-blocking) socket while the reactor ignores the connection, and
//! posts a completion over an eventfd doorbell; the reactor finishes any
//! short write, re-arms read interest, and the connection goes back to
//! costing nothing.
//!
//! Contracts (`tests/tcp_roundtrip.rs` pins them):
//!
//! * **Shed** — a full slab (or inflight bound) earns the client an
//!   encoded `Busy` frame and a close, never a silent drop.
//! * **Deadlines** — per-connection read/write deadlines live on a
//!   hashed timer wheel; a stalled peer is closed within one tick of its
//!   deadline and counted in `net_deadline_closed_total`.
//! * **One request in flight per connection** — the assembler stops at
//!   each frame boundary and the reactor stops reading while a request
//!   executes, so pipelined bytes wait in the kernel buffer.
//! * **Drain** — shutdown closes idle connections immediately, lets
//!   queued/executing requests finish and their responses flush, then
//!   joins every thread.

use crate::assembler::FrameAssembler;
use crate::server::{FrameService, ProtoErrorKind, ServerConfig, ServerMetrics};
use crate::stream::write_message;
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{Request, Response};
use crossbeam::channel::{Receiver, Sender};
use orsp_obs::{Registry, TraceContext};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Epoll cookie for the listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll cookie for the wake eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Events drained per `epoll_wait`.
const EVENT_BATCH: usize = 256;
/// Read chunk size. Most frames fit one chunk; larger payloads loop.
const READ_CHUNK: usize = 16 * 1024;

/// One decoded request on its way to a worker.
struct Job {
    token: usize,
    gen: u64,
    stream: Arc<TcpStream>,
    request: Request,
    /// The trace context the frame arrived with — handed across the
    /// executor boundary explicitly; workers never inherit connection
    /// state through thread-locals.
    ctx: Option<TraceContext>,
}

/// What a worker reports back to the reactor.
struct Completion {
    token: usize,
    gen: u64,
    /// The encoded response frame.
    frame: Vec<u8>,
    /// Bytes the worker already wrote before hitting `WouldBlock`.
    written: usize,
    /// The socket write failed; the reactor should close.
    failed: bool,
    /// The worker already re-armed the connection's read interest
    /// (full write, fast path): the reactor only settles bookkeeping
    /// — no doorbell was rung, no epoll_ctl is owed.
    armed: bool,
}

struct EvShared {
    shutdown: AtomicBool,
    wake: EventFd,
    /// The epoll set, shared so workers can re-arm read interest
    /// directly after a full write (`epoll_ctl` is thread-safe).
    epoll: Arc<Epoll>,
    completions: Mutex<VecDeque<Completion>>,
}

/// The event-loop implementation behind [`crate::server::NetServer`].
pub(crate) struct EventServer {
    shared: Arc<EvShared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EventServer {
    pub(crate) fn bind(
        listener: TcpListener,
        service: Arc<dyn FrameService>,
        config: ServerConfig,
    ) -> io::Result<EventServer> {
        listener.set_nonblocking(true)?;
        let obs = Arc::clone(service.obs());
        let metrics = ServerMetrics::resolve(&obs);
        let shared = Arc::new(EvShared {
            shutdown: AtomicBool::new(false),
            wake: EventFd::new()?,
            epoll: Arc::new(Epoll::new()?),
            completions: Mutex::new(VecDeque::new()),
        });
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let service = Arc::clone(&service);
                let shared = Arc::clone(&shared);
                let rx = job_rx.clone();
                std::thread::spawn(move || worker_loop(&*service, &shared, &rx))
            })
            .collect();
        drop(job_rx);

        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name("orsp-reactor".into()).spawn(move || {
                let mut r = match Reactor::new(listener, config, shared, obs, metrics, job_tx) {
                    Ok(r) => r,
                    Err(_) => return,
                };
                r.run();
            })?
        };

        Ok(EventServer { shared, reactor: Some(reactor), workers })
    }

    pub(crate) fn stop(&mut self) {
        if self.reactor.is_none() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.ring();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        // The reactor dropped the job sender on exit; workers drain and
        // see the disconnect.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(service: &dyn FrameService, shared: &EvShared, rx: &Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let response = service.handle_traced(job.request, job.ctx);
        let frame = response.encode();
        // Write directly while the reactor ignores this connection (the
        // fd is disarmed and its timers cancelled for the whole
        // Executing phase, so this thread is the sole writer). The
        // common case — a small response into an empty loopback buffer —
        // completes here; a short write hands the tail to the reactor.
        let mut written = 0usize;
        let mut failed = false;
        loop {
            if written == frame.len() {
                break;
            }
            match (&*job.stream).write(&frame[written..]) {
                Ok(0) => {
                    failed = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        // Fast path: the whole response reached the kernel, so this
        // connection's next event is its next request — re-arm read
        // interest right here and skip the doorbell. The reactor settles
        // the bookkeeping (inflight, state, read deadline) when it next
        // runs; it drains the completion queue on every loop pass, and
        // the connection can't go anywhere meanwhile (the reactor never
        // closes an Executing connection). Short or failed writes take
        // the slow path: post and ring, the reactor owns what's left.
        let armed = !failed
            && written == frame.len()
            && shared
                .epoll
                .modify(
                    job.stream.as_raw_fd(),
                    EPOLLIN | EPOLLRDHUP | EPOLLONESHOT,
                    job.token as u64,
                )
                .is_ok();
        shared.completions.lock().push_back(Completion {
            token: job.token,
            gen: job.gen,
            frame,
            written,
            failed,
            armed,
        });
        if !armed {
            shared.wake.ring();
        }
    }
}

// ------------------------------------------------------------- reactor

enum ConnState {
    /// Waiting for (more of) a request frame.
    Reading,
    /// A decoded request is queued or running on a worker.
    Executing,
    /// Flushing a response (tail the worker could not write, or a
    /// reactor-generated `Busy`/`Error`).
    Writing,
}

struct Conn {
    stream: Arc<TcpStream>,
    state: ConnState,
    asm: FrameAssembler,
    /// Bytes read past the last frame boundary (a pipelining peer);
    /// consumed before the socket when reading resumes.
    backlog: Vec<u8>,
    out: Vec<u8>,
    out_off: usize,
    close_after_write: bool,
    gen: u64,
    /// Bumped on every timer (re-)arm and disarm; stale wheel entries
    /// carry an older value and are skipped.
    timer_gen: u64,
    /// A readable event landed while Executing (the worker had already
    /// re-armed read interest and the next request raced the completion
    /// queue). Consumed — the event was ONESHOT — so the read is owed
    /// the moment the completion settles.
    readable_pending: bool,
}

struct TimerEntry {
    token: usize,
    gen: u64,
    timer_gen: u64,
}

/// A hashed timer wheel: deadline precision is one tick, cancellation is
/// a generation bump (stale entries are skipped at expiry, never
/// searched for).
struct Wheel {
    tick: Duration,
    slots: Vec<Vec<TimerEntry>>,
    cursor: usize,
    next_tick_at: Instant,
}

impl Wheel {
    fn new(read_timeout: Duration, write_timeout: Duration) -> Wheel {
        let shortest = read_timeout.min(write_timeout).max(Duration::from_millis(1));
        let longest = read_timeout.max(write_timeout).max(Duration::from_millis(1));
        let tick = (shortest / 8).clamp(Duration::from_millis(1), Duration::from_millis(200));
        let slots = (longest.as_micros() / tick.as_micros()) as usize + 2;
        Wheel {
            tick,
            slots: (0..slots).map(|_| Vec::new()).collect(),
            cursor: 0,
            next_tick_at: Instant::now() + tick,
        }
    }

    fn arm(&mut self, token: usize, conn: &mut Conn, timeout: Duration) {
        conn.timer_gen += 1;
        let ticks = ((timeout.as_micros() / self.tick.as_micros()) as usize + 1)
            .min(self.slots.len() - 1)
            .max(1);
        let idx = (self.cursor + ticks) % self.slots.len();
        self.slots[idx].push(TimerEntry { token, gen: conn.gen, timer_gen: conn.timer_gen });
    }

    /// Milliseconds until the next tick (for `epoll_wait`).
    fn poll_timeout_ms(&self, now: Instant) -> i32 {
        let until = self.next_tick_at.saturating_duration_since(now);
        (until.as_millis() as i32 + 1).clamp(1, 1000)
    }

    /// Pop every entry whose tick has passed.
    fn expired(&mut self, now: Instant) -> Vec<TimerEntry> {
        let mut out = Vec::new();
        while now >= self.next_tick_at {
            self.cursor = (self.cursor + 1) % self.slots.len();
            out.append(&mut self.slots[self.cursor]);
            self.next_tick_at += self.tick;
        }
        out
    }
}

struct Reactor {
    epoll: Arc<Epoll>,
    listener: Option<TcpListener>,
    config: ServerConfig,
    shared: Arc<EvShared>,
    obs: Arc<Registry>,
    metrics: ServerMetrics,
    job_tx: Sender<Job>,
    slab: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on every close so stale completions
    /// and timer entries cannot touch a reused slot.
    slot_gens: Vec<u64>,
    free: Vec<usize>,
    open: usize,
    high_water: usize,
    inflight: usize,
    /// Connections whose ONESHOT readable event was consumed while they
    /// were still Executing: their completion is owed within microseconds
    /// (the worker pushes right after arming), so the next `epoll_wait`
    /// keeps a 1ms leash instead of sleeping a full wheel tick.
    readable_hint: usize,
    /// Reusable read buffer — `pump_read` takes it for the duration of a
    /// read burst instead of zeroing a fresh `READ_CHUNK` on every call.
    /// A nested `pump_read` (shed-response flush draining backlog) finds
    /// it empty and falls back to a one-off allocation.
    read_buf: Vec<u8>,
    wheel: Wheel,
    draining: bool,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        config: ServerConfig,
        shared: Arc<EvShared>,
        obs: Arc<Registry>,
        metrics: ServerMetrics,
        job_tx: Sender<Job>,
    ) -> io::Result<Reactor> {
        let epoll = Arc::clone(&shared.epoll);
        epoll.add(listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER)?;
        epoll.add(shared.wake.raw(), EPOLLIN | EPOLLONESHOT, TOKEN_WAKE)?;
        let slots = config.effective_max_connections();
        let wheel = Wheel::new(config.read_timeout, config.write_timeout);
        Ok(Reactor {
            epoll,
            listener: Some(listener),
            config,
            shared,
            obs,
            metrics,
            job_tx,
            slab: (0..slots).map(|_| None).collect(),
            slot_gens: vec![0; slots],
            free: (0..slots).rev().collect(),
            open: 0,
            high_water: 0,
            inflight: 0,
            readable_hint: 0,
            read_buf: vec![0u8; READ_CHUNK],
            wheel,
            draining: false,
        })
    }

    fn run(&mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        loop {
            // Completions drain on every pass, not only on the doorbell:
            // a worker that fully wrote its response re-arms the socket
            // itself and posts without ringing.
            self.drain_completions();
            if !self.draining && self.shared.shutdown.load(Ordering::SeqCst) {
                self.enter_drain();
            }
            if self.draining && self.open == 0 && self.inflight == 0 {
                return;
            }
            let timeout = if self.readable_hint > 0 {
                1 // a completion is owed momentarily; don't oversleep it
            } else {
                self.wheel.poll_timeout_ms(Instant::now())
            };
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => continue,
            };
            if n > 0 {
                self.metrics.readiness_wakeups.inc();
            }
            for ev in &events[..n] {
                let (token, mask) = ({ ev.data }, { ev.events });
                match token {
                    TOKEN_LISTENER => self.on_listener(),
                    TOKEN_WAKE => self.on_wake(),
                    _ => self.on_conn(token as usize, mask),
                }
            }
            // Drain again before timers: a readable event consumed while
            // its connection was Executing resolves here, as soon as the
            // worker's unrung completion lands.
            self.drain_completions();
            for entry in self.wheel.expired(Instant::now()) {
                self.on_deadline(entry);
            }
        }
    }

    fn drain_completions(&mut self) {
        loop {
            let Some(done) = self.shared.completions.lock().pop_front() else { break };
            self.on_completion(done);
        }
    }

    // ------------------------------------------------------------ accept

    fn on_listener(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, peer)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return; // drain is imminent; the listener is about to drop
                    }
                    self.admit(stream, peer);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        if let Some(listener) = self.listener.as_ref() {
            let _ = self.epoll.modify(listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER);
        }
    }

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) {
        let Some(token) = self.free.pop() else {
            // Slab full: the explicit load shed.
            self.shed(stream, peer);
            return;
        };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.free.push(token);
            return;
        }
        self.metrics.accepted.inc();
        self.open += 1;
        if self.open > self.high_water {
            self.high_water = self.open;
            self.metrics.slab_high_water.set(self.high_water as i64);
        }
        self.metrics.open_connections.set(self.open as i64);
        let gen = self.slot_gens[token];
        self.slab[token] = Some(Conn {
            stream: Arc::new(stream),
            state: ConnState::Reading,
            asm: FrameAssembler::new(),
            backlog: Vec::new(),
            out: Vec::new(),
            out_off: 0,
            close_after_write: false,
            gen,
            timer_gen: 0,
            readable_pending: false,
        });
        // Drain anything already buffered, then arm read interest.
        self.pump_read(token);
    }

    fn shed(&mut self, mut stream: TcpStream, peer: SocketAddr) {
        self.metrics.shed.inc();
        self.obs.event("shed", peer.to_string());
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        let _ = write_message(&mut stream, &Response::Busy.encode());
    }

    // ------------------------------------------------------------- wake

    fn on_wake(&mut self) {
        self.shared.wake.drain();
        let _ = self.epoll.modify(self.shared.wake.raw(), EPOLLIN | EPOLLONESHOT, TOKEN_WAKE);
        self.drain_completions();
    }

    fn on_completion(&mut self, done: Completion) {
        self.inflight -= 1;
        // Settle any readable event that raced this completion, whatever
        // branch runs below: the slow paths read after flushing anyway,
        // and `close` must not double-count the hint.
        let owed_read = {
            let Some(conn) = self.conn_mut(done.token, done.gen) else { return };
            debug_assert!(matches!(conn.state, ConnState::Executing));
            std::mem::take(&mut conn.readable_pending)
        };
        if owed_read {
            self.readable_hint -= 1;
        }
        if done.failed {
            self.close(done.token);
            return;
        }
        if done.armed {
            // Fast path: the worker flushed the whole response and
            // re-armed read interest itself; only bookkeeping is left.
            if self.draining {
                self.close(done.token);
                return;
            }
            let timeout = self.config.read_timeout;
            let conn = self.slab[done.token].as_mut().expect("checked above");
            conn.state = ConnState::Reading;
            conn.out = Vec::new();
            conn.out_off = 0;
            let has_backlog = !conn.backlog.is_empty();
            self.wheel.arm(done.token, conn, timeout);
            // The consumed ONESHOT event (or a pipelining peer's stashed
            // backlog) means bytes are owed a read right now; otherwise
            // the armed fd sleeps until the next request.
            if owed_read || has_backlog {
                self.pump_read(done.token);
            }
            return;
        }
        if done.written == done.frame.len() {
            self.response_flushed(done.token);
            return;
        }
        // Short write: the reactor owns the tail.
        let conn = self.slab[done.token].as_mut().expect("checked above");
        conn.out = done.frame;
        conn.out_off = done.written;
        conn.state = ConnState::Writing;
        self.arm_write(done.token);
    }

    // ------------------------------------------------------------- conns

    fn conn_mut(&mut self, token: usize, gen: u64) -> Option<&mut Conn> {
        match self.slab.get_mut(token) {
            Some(Some(conn)) if conn.gen == gen => Some(conn),
            _ => None,
        }
    }

    fn on_conn(&mut self, token: usize, _mask: u32) {
        let Some(conn) = self.slab.get_mut(token).and_then(Option::as_mut) else { return };
        match conn.state {
            ConnState::Reading => self.pump_read(token),
            ConnState::Writing => self.pump_write(token),
            // The worker re-armed this fd after its full write and the
            // next request (or a hangup) beat the completion queue here.
            // The ONESHOT event is consumed — note the debt; the read
            // happens the moment the completion settles.
            ConnState::Executing => {
                if !conn.readable_pending {
                    conn.readable_pending = true;
                    self.readable_hint += 1;
                }
            }
        }
    }

    /// Read until a frame completes, the kernel buffer empties, or the
    /// peer goes away. Called on readable events and whenever a
    /// connection returns to the Reading state.
    fn pump_read(&mut self, token: usize) {
        // Backlog first: bytes already read past the previous frame.
        loop {
            let conn = match self.slab.get_mut(token).and_then(Option::as_mut) {
                Some(c) => c,
                None => return,
            };
            if conn.backlog.is_empty() {
                break;
            }
            let bytes = std::mem::take(&mut conn.backlog);
            match self.feed(token, &bytes) {
                Feed::Continue => {}
                Feed::Done => return,
            }
        }
        let mut buf = std::mem::take(&mut self.read_buf);
        if buf.len() != READ_CHUNK {
            // Re-entered while the buffer is checked out (or first use
            // after a take): pay for a one-off allocation.
            buf = vec![0u8; READ_CHUNK];
        }
        loop {
            let conn = match self.slab.get_mut(token).and_then(Option::as_mut) {
                Some(c) => c,
                None => break,
            };
            let n = match (&*conn.stream).read(&mut buf) {
                Ok(0) => {
                    if conn.asm.at_boundary() {
                        // Clean close between frames.
                        self.close(token);
                    } else {
                        self.metrics.protocol_error(ProtoErrorKind::Truncated);
                        self.obs.event("protocol_error", "peer closed mid-frame");
                        self.close(token);
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.arm_read(token);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Reset/teardown: the error itself closes.
                    self.close(token);
                    break;
                }
                Ok(n) => n,
            };
            match self.feed(token, &buf[..n]) {
                Feed::Continue => {}
                Feed::Done => break,
            }
        }
        self.read_buf = buf;
    }

    /// Feed bytes into the connection's assembler; dispatch a completed
    /// frame. Returns whether the caller should keep reading.
    fn feed(&mut self, token: usize, mut bytes: &[u8]) -> Feed {
        while !bytes.is_empty() {
            let conn = match self.slab.get_mut(token).and_then(Option::as_mut) {
                Some(c) => c,
                None => return Feed::Done,
            };
            match conn.asm.feed(bytes) {
                Ok((consumed, None)) => {
                    bytes = &bytes[consumed..];
                    debug_assert!(bytes.is_empty());
                }
                Ok((consumed, Some(frame))) => {
                    // Stash the tail for after the response; stop reading.
                    conn.backlog = bytes[consumed..].to_vec();
                    self.dispatch(token, frame.payload, frame.ctx);
                    return Feed::Done;
                }
                Err(e) => {
                    // Framing is unrecoverable mid-stream: report, answer
                    // with a typed Error frame, close once it flushes.
                    self.metrics.protocol_error((&e).into());
                    self.obs.event("protocol_error", e.to_string());
                    let reply = Response::Error { detail: e.to_string() };
                    self.respond_and_close(token, reply);
                    return Feed::Done;
                }
            }
        }
        Feed::Continue
    }

    fn dispatch(&mut self, token: usize, payload: Vec<u8>, ctx: Option<TraceContext>) {
        match Request::decode_payload(&payload) {
            Ok(request) => {
                if self.config.max_inflight > 0 && self.inflight >= self.config.max_inflight {
                    // Inflight bound: shed with the same wire behavior as
                    // a full slab.
                    self.metrics.shed.inc();
                    self.obs.event("shed", "inflight bound".to_string());
                    self.respond_and_close(token, Response::Busy);
                    return;
                }
                self.metrics.requests.inc();
                let conn = self.slab[token].as_mut().expect("dispatch on live conn");
                conn.state = ConnState::Executing;
                conn.timer_gen += 1; // no deadline while executing
                self.inflight += 1;
                let job =
                    Job { token, gen: conn.gen, stream: Arc::clone(&conn.stream), request, ctx };
                if self.job_tx.send(job).is_err() {
                    self.inflight -= 1;
                    self.close(token);
                }
            }
            Err(e) => {
                // A sound frame with an unusable payload: per-request
                // error, the connection survives.
                self.metrics.protocol_error((&e).into());
                self.obs.event("protocol_error", e.to_string());
                self.respond(token, Response::Error { detail: e.to_string() }, false);
            }
        }
    }

    /// Queue a reactor-generated response and flush what fits now.
    fn respond(&mut self, token: usize, response: Response, close_after: bool) {
        let Some(conn) = self.slab.get_mut(token).and_then(Option::as_mut) else { return };
        conn.out = response.encode();
        conn.out_off = 0;
        conn.close_after_write = close_after;
        conn.state = ConnState::Writing;
        conn.timer_gen += 1;
        self.pump_write(token);
    }

    fn respond_and_close(&mut self, token: usize, response: Response) {
        self.respond(token, response, true);
    }

    fn pump_write(&mut self, token: usize) {
        loop {
            let conn = match self.slab.get_mut(token).and_then(Option::as_mut) {
                Some(c) => c,
                None => return,
            };
            if conn.out_off >= conn.out.len() {
                self.response_flushed(token);
                return;
            }
            match (&*conn.stream).write(&conn.out[conn.out_off..]) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => conn.out_off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.arm_write(token);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
    }

    /// A response fully reached the kernel: close if this connection is
    /// done (drain, or an error reply), otherwise resume reading.
    fn response_flushed(&mut self, token: usize) {
        let Some(conn) = self.slab.get_mut(token).and_then(Option::as_mut) else { return };
        if conn.close_after_write || self.draining {
            self.close(token);
            return;
        }
        conn.state = ConnState::Reading;
        conn.out = Vec::new();
        conn.out_off = 0;
        self.pump_read(token);
    }

    // ----------------------------------------------------- timers/close

    fn arm_read(&mut self, token: usize) {
        let timeout = self.config.read_timeout;
        let Some(conn) = self.slab.get_mut(token).and_then(Option::as_mut) else { return };
        let fd = conn.stream.as_raw_fd();
        let gen_entry = token as u64;
        self.wheel.arm(token, conn, timeout);
        if self.epoll.modify(fd, EPOLLIN | EPOLLRDHUP | EPOLLONESHOT, gen_entry).is_err() {
            // First arm for this fd.
            if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP | EPOLLONESHOT, gen_entry).is_err() {
                self.close(token);
            }
        }
    }

    fn arm_write(&mut self, token: usize) {
        let timeout = self.config.write_timeout;
        let Some(conn) = self.slab.get_mut(token).and_then(Option::as_mut) else { return };
        let fd = conn.stream.as_raw_fd();
        let gen_entry = token as u64;
        self.wheel.arm(token, conn, timeout);
        if self.epoll.modify(fd, EPOLLOUT | EPOLLONESHOT, gen_entry).is_err() {
            if self.epoll.add(fd, EPOLLOUT | EPOLLONESHOT, gen_entry).is_err() {
                self.close(token);
            }
        }
    }

    fn on_deadline(&mut self, entry: TimerEntry) {
        let Some(conn) = self.conn_mut(entry.token, entry.gen) else { return };
        if conn.timer_gen != entry.timer_gen {
            return; // re-armed or state-changed since; stale entry
        }
        if matches!(conn.state, ConnState::Executing) {
            return; // execution has no deadline
        }
        self.metrics.deadline_closed.inc();
        self.obs.event("deadline_closed", "connection deadline expired".to_string());
        self.close(entry.token);
    }

    fn close(&mut self, token: usize) {
        let Some(conn) = self.slab.get_mut(token).and_then(Option::take) else { return };
        if conn.readable_pending {
            self.readable_hint -= 1;
        }
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.slot_gens[token] = self.slot_gens[token].wrapping_add(1);
        // A reused slot must hand out the bumped generation.
        self.free.push(token);
        self.open -= 1;
        self.metrics.open_connections.set(self.open as i64);
        // Dropping `conn` closes the socket once any executing worker
        // drops its clone of the stream handle.
    }

    // ------------------------------------------------------------ drain

    fn enter_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        // Idle and mid-frame readers close now; executing and writing
        // connections finish their in-flight response first.
        let reading: Vec<usize> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref().filter(|c| matches!(c.state, ConnState::Reading)).map(|_| i)
            })
            .collect();
        for token in reading {
            self.close(token);
        }
    }
}

enum Feed {
    /// Keep reading from the socket.
    Continue,
    /// Stop: a request dispatched, an error reply queued, or the
    /// connection closed.
    Done,
}
