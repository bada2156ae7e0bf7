//! Leader/follower event-loop server: epoll + non-blocking sockets +
//! a connection slab, so an idle connection costs a slab slot, not a
//! thread.
//!
//! Topology: [`ServerConfig::workers`] identical threads share one epoll
//! set, the listener, the slab and a timer wheel. Each thread waits in
//! `epoll_wait` for one event at a time, and every fd is registered
//! `EPOLLONESHOT`, so an event hands its connection to exactly one
//! thread. That thread serves it through: it reads bytes into the
//! incremental [`FrameAssembler`], decodes the frame, runs
//! [`FrameService::handle_traced`] with the frame's trace context as an
//! explicit argument, writes the response and re-arms the fd. No request
//! crosses a thread, so a request costs one wake-up.
//!
//! Each slab slot sits behind its own mutex, held by the serving thread
//! for the whole request; timers and drain only `try_lock`, so they never
//! touch a connection mid-request. The epoll cookie is
//! `token | gen << 32`, and a slot's generation is bumped on every close,
//! so an event that outlived its connection is dropped. Beside the lock,
//! each slot holds its connection's deadline, which every park renews
//! with one store; the timer wheel holds at most one entry per slot.
//!
//! Contracts (`tests/tcp_roundtrip.rs` and `tests/server_contract.rs`
//! pin them):
//!
//! * **Shed** — a full slab earns the client an encoded `Busy` frame and
//!   a close, never a silent drop.
//! * **Deadlines** — per-connection read/write deadlines live on a
//!   hashed timer wheel; a stalled peer is closed within one tick of its
//!   deadline and counted in `net_deadline_closed_total`. Whichever
//!   thread wakes past a tick expires it.
//! * **One request in flight per connection** — the assembler stops at
//!   each frame boundary and a connection is not re-armed while its
//!   request executes, so pipelined bytes wait in the kernel buffer (or
//!   the connection's backlog) until the response is written.
//! * **Saturation** — while every thread executes, new requests wait in
//!   their sockets' kernel buffers and are served as threads free up.
//! * **Drain** — shutdown closes idle connections immediately, lets
//!   executing requests finish and their responses flush, then joins
//!   every thread.

use crate::assembler::{AssembledFrame, FrameAssembler};
use crate::error::WireError;
use crate::server::{FrameService, ProtoErrorKind, ServerConfig, ServerMetrics};
use crate::stream::write_message;
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{Request, Response};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Epoll cookie for the listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll cookie for the shutdown eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Read chunk size. Most frames fit one chunk; larger payloads loop.
const READ_CHUNK: usize = 16 * 1024;
/// Interest of a connection waiting for its next request.
const READ_INTEREST: u32 = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
/// Interest of a connection waiting to flush the rest of a response.
const WRITE_INTEREST: u32 = EPOLLOUT | EPOLLONESHOT;

/// The event-loop implementation behind [`crate::server::NetServer`].
pub(crate) struct EventServer {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl EventServer {
    pub(crate) fn bind(
        listener: TcpListener,
        service: Arc<dyn FrameService>,
        config: ServerConfig,
    ) -> io::Result<EventServer> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let wake = EventFd::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER)?;
        epoll.add(wake.raw(), EPOLLIN | EPOLLONESHOT, TOKEN_WAKE)?;
        let slots = config.effective_max_connections();
        let shared = Arc::new(Shared {
            epoll,
            wake,
            shutdown: AtomicBool::new(false),
            listener: Mutex::new(Some(listener)),
            slab: (0..slots)
                .map(|_| Entry {
                    deadline: AtomicU64::new(0),
                    slot: Mutex::new(Slot { gen: 0, on_wheel: false, conn: None }),
                })
                .collect(),
            free: Mutex::new(Free { tokens: (0..slots).rev().collect(), high_water: 0 }),
            timers: Timers::new(config.read_timeout, config.write_timeout),
            config,
            metrics: ServerMetrics::resolve(service.obs()),
            service,
        });
        // A spawn failure drops `server`, which stops the threads already
        // running.
        let mut server = EventServer { shared, threads: Vec::new() };
        for _ in 0..config.workers.max(1) {
            let shared = Arc::clone(&server.shared);
            let thread =
                std::thread::Builder::new().name("orsp-net".into()).spawn(move || shared.run())?;
            server.threads.push(thread);
        }
        Ok(server)
    }

    pub(crate) fn stop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Rung once and never drained: each thread that leaves re-arms it
        // so that the next waiting thread wakes too.
        self.shared.wake.ring();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    /// Bytes read past the last frame boundary (a pipelining peer);
    /// consumed before the socket once the response is written.
    backlog: Vec<u8>,
    /// The response being written; empty while the connection reads.
    out: Vec<u8>,
    out_off: usize,
    close_after_write: bool,
}

/// One slab entry.
struct Entry {
    /// When the slot's connection times out, in [`Timers::now_ns`] time.
    /// Written by every park, under the lock; read without it by an
    /// expirer, so a connection parked since its wheel entry was filed
    /// costs the expirer no lock.
    deadline: AtomicU64,
    slot: Mutex<Slot>,
}

struct Slot {
    /// Bumped on every close, so a stale event cannot touch a reused
    /// slot. Carried in the epoll cookie's high half.
    gen: u32,
    /// The wheel holds this slot's one entry (or an expirer has it in
    /// hand). A park files one only when it does not; the entry outlives
    /// the connection and is dropped, under the lock, by the expirer
    /// that finds the slot empty.
    on_wheel: bool,
    conn: Option<Conn>,
}

struct Free {
    tokens: Vec<usize>,
    high_water: usize,
}

/// What a served connection waits for next.
enum Park {
    /// Its next request: arm read interest under the read deadline.
    Read,
    /// Room to write the rest of its response: arm write interest under
    /// the write deadline.
    Write,
    /// Nothing: close it.
    Close,
}

/// What reading a connection produced.
enum Next {
    Frame(AssembledFrame),
    /// Unrecoverable framing: answer with a typed `Error`, then close.
    Broken(WireError),
    /// No complete frame yet.
    Wait,
    /// The peer closed or the socket failed.
    Gone,
}

struct Shared {
    epoll: Epoll,
    wake: EventFd,
    shutdown: AtomicBool,
    /// `None` once drain has begun.
    listener: Mutex<Option<TcpListener>>,
    slab: Vec<Entry>,
    free: Mutex<Free>,
    timers: Timers,
    config: ServerConfig,
    service: Arc<dyn FrameService>,
    metrics: ServerMetrics,
}

impl Shared {
    fn run(&self) {
        let mut buf = vec![0u8; READ_CHUNK];
        let mut events = [EpollEvent { events: 0, data: 0 }];
        loop {
            if self.shutdown.load(Ordering::SeqCst) && self.drain_pass() {
                let _ = self.epoll.modify(self.wake.raw(), EPOLLIN | EPOLLONESHOT, TOKEN_WAKE);
                return;
            }
            if let Ok(1) = self.epoll.wait(&mut events, self.timers.poll_timeout_ms()) {
                self.metrics.readiness_wakeups.inc();
                match { events[0].data } {
                    TOKEN_LISTENER => self.on_listener(&mut buf),
                    TOKEN_WAKE => {} // shutdown: the top of the loop drains
                    cookie => self.on_conn(cookie as u32 as usize, (cookie >> 32) as u32, &mut buf),
                }
            }
            self.expire_deadlines();
        }
    }

    // ------------------------------------------------------------ accept

    fn on_listener(&self, buf: &mut [u8]) {
        let accepted = {
            let listener = self.listener.lock();
            let Some(listener) = listener.as_ref() else { return };
            let accepted = listener.accept();
            // Re-armed before this thread serves its catch, so another
            // thread can take the next connection meanwhile.
            let _ = self.epoll.modify(listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER);
            accepted
        };
        if let Ok((stream, peer)) = accepted {
            if !self.shutdown.load(Ordering::SeqCst) {
                self.admit(stream, peer, buf);
            }
        }
    }

    fn admit(&self, stream: TcpStream, peer: SocketAddr, buf: &mut [u8]) {
        let token = {
            let mut free = self.free.lock();
            let Some(token) = free.tokens.pop() else {
                drop(free);
                // Slab full: the explicit load shed.
                self.shed(stream, peer);
                return;
            };
            let open = self.slab.len() - free.tokens.len();
            if open > free.high_water {
                free.high_water = open;
                self.metrics.slab_high_water.set(open as i64);
            }
            self.metrics.open_connections.set(open as i64);
            token
        };
        if stream.set_nonblocking(true).is_err() {
            self.release(token);
            return;
        }
        let _ = stream.set_nodelay(true);
        self.metrics.accepted.inc();
        let mut slot = self.slab[token].slot.lock();
        slot.conn = Some(Conn {
            stream,
            asm: FrameAssembler::new(),
            backlog: Vec::new(),
            out: Vec::new(),
            out_off: 0,
            close_after_write: false,
        });
        // Serve anything already buffered; the first park registers the fd.
        self.serve(token, &mut slot, buf);
    }

    fn shed(&self, mut stream: TcpStream, peer: SocketAddr) {
        self.metrics.shed.inc();
        self.service.obs().event("shed", peer.to_string());
        let _ = stream.set_write_timeout(Some(self.config.write_timeout));
        let _ = write_message(&mut stream, &Response::Busy.encode());
    }

    // ------------------------------------------------------------- conns

    fn on_conn(&self, token: usize, gen: u32, buf: &mut [u8]) {
        let Some(entry) = self.slab.get(token) else { return };
        let mut slot = entry.slot.lock();
        if slot.gen == gen {
            self.serve(token, &mut slot, buf);
        }
    }

    /// Serve the connection in a slot this thread holds, then park it.
    fn serve(&self, token: usize, slot: &mut Slot, buf: &mut [u8]) {
        let Some(conn) = slot.conn.as_mut() else { return };
        match self.answer(conn, buf) {
            Park::Read => self.park(token, slot, READ_INTEREST, self.config.read_timeout),
            Park::Write => self.park(token, slot, WRITE_INTEREST, self.config.write_timeout),
            Park::Close => self.close(token, slot),
        }
    }

    /// Answer frames one at a time until the connection must wait for its
    /// peer: flush the pending response, then take the next frame from the
    /// backlog, or from the socket if this pass began on a readable event.
    fn answer(&self, conn: &mut Conn, buf: &mut [u8]) -> Park {
        // After a flush the peer has most likely sent nothing yet: park
        // instead of paying a read that would block.
        let mut readable = conn.out.is_empty();
        loop {
            if !conn.out.is_empty() {
                match flush(conn) {
                    Ok(true) => {}
                    Ok(false) => return Park::Write,
                    Err(_) => return Park::Close,
                }
                conn.out = Vec::new();
                conn.out_off = 0;
                if conn.close_after_write || self.shutdown.load(Ordering::SeqCst) {
                    return Park::Close;
                }
                readable = false;
            }
            match self.next_frame(conn, buf, readable) {
                Next::Frame(frame) => conn.out = self.execute(frame),
                Next::Broken(e) => {
                    self.protocol_error((&e).into(), e.to_string());
                    conn.out = Response::Error { detail: e.to_string() }.encode();
                    conn.close_after_write = true;
                }
                // Idle: drain closes it, otherwise it waits for a request.
                Next::Wait if self.shutdown.load(Ordering::SeqCst) => return Park::Close,
                Next::Wait => return Park::Read,
                Next::Gone => return Park::Close,
            }
        }
    }

    /// The next complete frame: from the backlog first, then (if
    /// `readable`) from the socket until it would block.
    fn next_frame(&self, conn: &mut Conn, buf: &mut [u8], readable: bool) -> Next {
        if !conn.backlog.is_empty() {
            let bytes = std::mem::take(&mut conn.backlog);
            if let Some(next) = feed(conn, &bytes) {
                return next;
            }
        }
        if !readable {
            return Next::Wait;
        }
        loop {
            match (&conn.stream).read(buf) {
                Ok(0) => {
                    if !conn.asm.at_boundary() {
                        self.protocol_error(ProtoErrorKind::Truncated, "peer closed mid-frame");
                    }
                    return Next::Gone;
                }
                Ok(n) => {
                    if let Some(next) = feed(conn, &buf[..n]) {
                        return next;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Wait,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Reset/teardown: the error itself closes.
                Err(_) => return Next::Gone,
            }
        }
    }

    /// Decode and run one request; the encoded response.
    fn execute(&self, frame: AssembledFrame) -> Vec<u8> {
        let response = match Request::decode_payload(&frame.payload) {
            Ok(request) => {
                self.metrics.requests.inc();
                self.service.handle_traced(request, frame.ctx)
            }
            // A sound frame with an unusable payload: per-request error,
            // the connection survives.
            Err(e) => {
                self.protocol_error((&e).into(), e.to_string());
                Response::Error { detail: e.to_string() }
            }
        };
        response.encode()
    }

    fn protocol_error(&self, kind: ProtoErrorKind, detail: impl Into<String>) {
        self.metrics.protocol_error(kind);
        self.service.obs().event("protocol_error", detail);
    }

    /// Arm the connection's deadline and one-shot interest. Another thread
    /// may take the event the moment the fd is armed; it waits on the slot
    /// lock this thread still holds.
    fn park(&self, token: usize, slot: &mut Slot, interest: u32, timeout: Duration) {
        let Some(conn) = slot.conn.as_ref() else { return };
        let deadline = self.timers.now_ns() + timeout.as_nanos() as u64;
        self.slab[token].deadline.store(deadline, Ordering::Relaxed);
        if !slot.on_wheel {
            slot.on_wheel = true;
            self.timers.file(token, timeout);
        }
        let fd = conn.stream.as_raw_fd();
        let cookie = token as u64 | u64::from(slot.gen) << 32;
        // The first park of a connection registers its fd.
        if self.epoll.modify(fd, interest, cookie).is_err()
            && self.epoll.add(fd, interest, cookie).is_err()
        {
            self.close(token, slot);
        }
    }

    fn close(&self, token: usize, slot: &mut Slot) {
        let Some(conn) = slot.conn.take() else { return };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        drop(conn);
        slot.gen = slot.gen.wrapping_add(1);
        self.release(token);
    }

    fn release(&self, token: usize) {
        let mut free = self.free.lock();
        free.tokens.push(token);
        self.metrics.open_connections.set((self.slab.len() - free.tokens.len()) as i64);
    }

    // ----------------------------------------------------- timers/drain

    /// Handle every wheel entry whose tick has passed. An entry whose
    /// connection parked since goes back on the wheel for the time left;
    /// a due one closes its connection, unless the slot is locked (most
    /// likely being served: its next park renews the deadline), in which
    /// case it is looked at again next tick.
    fn expire_deadlines(&self) {
        for token in self.timers.expired() {
            let entry = &self.slab[token];
            if let Some(left) = self.timers.left(&entry.deadline) {
                self.timers.file(token, left);
                continue;
            }
            let Some(mut slot) = entry.slot.try_lock() else {
                self.timers.file(token, Duration::ZERO);
                continue;
            };
            // Parks happen under the lock, so this re-read is exact.
            if slot.conn.is_none() {
                slot.on_wheel = false;
            } else if let Some(left) = self.timers.left(&entry.deadline) {
                self.timers.file(token, left);
            } else {
                self.metrics.deadline_closed.inc();
                self.service.obs().event("deadline_closed", "connection deadline expired");
                self.close(token, &mut slot);
                slot.on_wheel = false;
            }
        }
    }

    /// One drain pass: stop accepting and close every idle connection. A
    /// connection being served is locked and closes itself once its
    /// response flushes; one still flushing is left to finish. Runs on
    /// every loop of every thread once shutdown is set, so a connection
    /// that a pass skipped is caught by a later one. Returns whether no
    /// connection is left open.
    fn drain_pass(&self) -> bool {
        if let Some(listener) = self.listener.lock().take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        for (token, entry) in self.slab.iter().enumerate() {
            let Some(mut slot) = entry.slot.try_lock() else { continue };
            if slot.conn.as_ref().is_some_and(|conn| conn.out.is_empty()) {
                self.close(token, &mut slot);
            }
        }
        self.free.lock().tokens.len() == self.slab.len()
    }
}

/// Feed bytes into the connection's assembler; stash whatever follows a
/// completed frame as backlog.
fn feed(conn: &mut Conn, bytes: &[u8]) -> Option<Next> {
    match conn.asm.feed(bytes) {
        Ok((_, None)) => None,
        Ok((consumed, Some(frame))) => {
            conn.backlog = bytes[consumed..].to_vec();
            Some(Next::Frame(frame))
        }
        Err(e) => Some(Next::Broken(e)),
    }
}

/// Write as much of the pending response as the socket takes; `true` once
/// all of it is out.
fn flush(conn: &mut Conn) -> io::Result<bool> {
    while conn.out_off < conn.out.len() {
        match (&conn.stream).write(&conn.out[conn.out_off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

// ------------------------------------------------------------- timers

/// A hashed timer wheel of slab tokens, at most one per slot: deadline
/// precision is one tick. An entry names a slot, not a deadline; the
/// expirer reads the slot's current deadline and files the entry again
/// if it has moved, so a busy connection costs the wheel nothing per
/// request.
struct Timers {
    epoch: Instant,
    tick: Duration,
    /// The shorter of the read and write timeouts: no entry is filed
    /// further out, so no deadline a later park sets can precede it.
    shortest: Duration,
    /// Nanoseconds from `epoch` to the next tick. Read without the lock,
    /// so a wake-up before the tick costs one load.
    next_tick: AtomicU64,
    wheel: Mutex<Wheel>,
}

struct Wheel {
    slots: Vec<Vec<usize>>,
    cursor: usize,
}

impl Timers {
    fn new(read_timeout: Duration, write_timeout: Duration) -> Timers {
        let shortest = read_timeout.min(write_timeout).max(Duration::from_millis(1));
        let tick = (shortest / 8).clamp(Duration::from_millis(1), Duration::from_millis(200));
        let slots = (shortest.as_micros() / tick.as_micros()) as usize + 2;
        Timers {
            epoch: Instant::now(),
            tick,
            shortest,
            next_tick: AtomicU64::new(tick.as_nanos() as u64),
            wheel: Mutex::new(Wheel { slots: (0..slots).map(|_| Vec::new()).collect(), cursor: 0 }),
        }
    }

    /// File `token` to come up `timeout` from now, but at least one tick
    /// and at most [`Timers::shortest`] out.
    fn file(&self, token: usize, timeout: Duration) {
        let timeout = timeout.min(self.shortest);
        let ticks = (timeout.as_micros() / self.tick.as_micros()) as usize + 1;
        let mut wheel = self.wheel.lock();
        let len = wheel.slots.len();
        let idx = (wheel.cursor + ticks.min(len - 1)) % len;
        wheel.slots[idx].push(token);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time left before `deadline`, or `None` once it is within a tick.
    /// An entry can come up early: filed against a cursor that lagged
    /// (nothing turns the wheel while every thread executes), or for a
    /// deadline a park has since moved.
    fn left(&self, deadline: &AtomicU64) -> Option<Duration> {
        let left = deadline.load(Ordering::Relaxed).saturating_sub(self.now_ns());
        (left > self.tick.as_nanos() as u64).then(|| Duration::from_nanos(left))
    }

    /// Milliseconds until the next tick (for `epoll_wait`).
    fn poll_timeout_ms(&self) -> i32 {
        let until = self.next_tick.load(Ordering::Relaxed).saturating_sub(self.now_ns());
        (until / 1_000_000 + 1).min(1000) as i32
    }

    /// Pop every token whose tick has passed.
    fn expired(&self) -> Vec<usize> {
        let now = self.now_ns();
        if now < self.next_tick.load(Ordering::Relaxed) {
            return Vec::new();
        }
        let tick = self.tick.as_nanos() as u64;
        let mut wheel = self.wheel.lock();
        let mut next = self.next_tick.load(Ordering::Relaxed);
        let mut due = Vec::new();
        while now >= next {
            wheel.cursor = (wheel.cursor + 1) % wheel.slots.len();
            let cursor = wheel.cursor;
            due.append(&mut wheel.slots[cursor]);
            next += tick;
        }
        self.next_tick.store(next, Ordering::Relaxed);
        due
    }
}
