//! The TCP server front: [`NetServer`] over the leader/follower event
//! loop.
//!
//! The event loop ([`crate::reactor`], Linux epoll) holds every
//! connection in a slab of non-blocking sockets. A fixed set of
//! [`ServerConfig::workers`] threads shares one epoll set; the thread
//! that takes a connection's readiness event reads, decodes, executes,
//! writes and re-arms it, so a request never changes threads. An idle
//! connection costs a slab slot, not a thread, so a mostly-idle device
//! fleet scales to the [`ServerConfig::max_connections`] bound instead of
//! the thread count.
//!
//! The contracts (no async runtime, per DESIGN §6): overload is an
//! explicit [`Response::Busy`] frame and a close, never a silent drop;
//! every connection runs under read/write deadlines on the event loop's
//! timer wheel; shutdown drains — executing requests get their responses
//! before the threads join.

use crate::error::WireError;
use crate::reactor::EventServer;
use crate::router::RspService;
use crate::wire::{Request, Response};
use orsp_obs::{Counter, Gauge, Registry, TraceContext};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Server threads. Each waits on the shared epoll set and serves the
    /// connection whose event it takes, start to finish, so at most this
    /// many requests execute at once; while all of them execute, further
    /// requests wait in their sockets' kernel buffers.
    pub workers: usize,
    /// Connections held beyond one per thread before new ones are shed
    /// with `Busy`, when [`ServerConfig::max_connections`] is left at its
    /// default.
    pub queue_depth: usize,
    /// Per-connection read deadline.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Connection slots in the slab; a connection arriving with
    /// every slot taken is shed with `Busy`. `0` means
    /// `workers + queue_depth`. Raise it (e.g. `--max-connections 10000`
    /// on the daemons) to hold a large mostly-idle fleet.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_connections: 0,
        }
    }
}

impl ServerConfig {
    /// The connection slab size: [`ServerConfig::max_connections`], with `0`
    /// defaulting to `workers + queue_depth`.
    pub fn effective_max_connections(&self) -> usize {
        if self.max_connections == 0 {
            (self.workers + self.queue_depth).max(1)
        } else {
            self.max_connections
        }
    }
}

/// Monotonic counters, readable while the server runs. A typed view over
/// the service registry (`RspService::obs`): the same values scrape as
/// `net_*` series via the Prometheus/JSON exporters or the `Stats` RPC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted into a slab slot.
    pub accepted: u64,
    /// Connections/requests shed with an explicit `Busy` frame.
    pub shed: u64,
    /// Requests decoded and dispatched.
    pub requests: u64,
    /// Frames or payloads that failed to parse (sum of the breakdown
    /// below).
    pub protocol_errors: u64,
    /// Frames cut short: a mid-frame disconnect or a header shorter than
    /// its declared payload.
    pub proto_truncated: u64,
    /// Payload checksum mismatches.
    pub proto_bad_crc: u64,
    /// Declared payload lengths over the frame cap.
    pub proto_oversized: u64,
    /// Sound frames carrying a message tag this server does not speak
    /// (version skew).
    pub proto_unknown_tag: u64,
    /// Everything else: bad magic, bad version, malformed payload bodies.
    pub proto_other: u64,
    /// Connections currently held open.
    pub open_connections: i64,
    /// Most connections ever held at once.
    pub slab_high_water: i64,
    /// Times a server thread woke with an event: about one per request,
    /// plus accepts and deferred flushes (the `wakeups` column of
    /// `orsp-top`).
    pub readiness_wakeups: u64,
    /// Connections closed by an expired read/write deadline.
    pub deadline_closed: u64,
}

/// Pre-resolved registry handles for the connection hot path.
pub(crate) struct ServerMetrics {
    pub(crate) accepted: Counter,
    pub(crate) shed: Counter,
    pub(crate) requests: Counter,
    pub(crate) protocol_errors: Counter,
    pub(crate) proto_truncated: Counter,
    pub(crate) proto_bad_crc: Counter,
    pub(crate) proto_oversized: Counter,
    pub(crate) proto_unknown_tag: Counter,
    pub(crate) proto_other: Counter,
    pub(crate) open_connections: Gauge,
    pub(crate) slab_high_water: Gauge,
    pub(crate) readiness_wakeups: Counter,
    pub(crate) deadline_closed: Counter,
}

impl ServerMetrics {
    pub(crate) fn resolve(obs: &Registry) -> Self {
        ServerMetrics {
            accepted: obs.counter("net_accepted_total"),
            shed: obs.counter("net_shed_total"),
            requests: obs.counter("net_requests_total"),
            protocol_errors: obs.counter("net_protocol_errors_total"),
            proto_truncated: obs.counter("net_proto_truncated_total"),
            proto_bad_crc: obs.counter("net_proto_bad_crc_total"),
            proto_oversized: obs.counter("net_proto_oversized_total"),
            proto_unknown_tag: obs.counter("net_proto_unknown_tag_total"),
            proto_other: obs.counter("net_proto_other_total"),
            open_connections: obs.gauge("net_open_connections"),
            slab_high_water: obs.gauge("net_slab_high_water"),
            readiness_wakeups: obs.counter("net_readiness_wakeups_total"),
            deadline_closed: obs.counter("net_deadline_closed_total"),
        }
    }

    /// Count one protocol error: the total, plus its kind.
    pub(crate) fn protocol_error(&self, kind: ProtoErrorKind) {
        self.protocol_errors.inc();
        match kind {
            ProtoErrorKind::Truncated => self.proto_truncated.inc(),
            ProtoErrorKind::BadCrc => self.proto_bad_crc.inc(),
            ProtoErrorKind::Oversized => self.proto_oversized.inc(),
            ProtoErrorKind::UnknownTag => self.proto_unknown_tag.inc(),
            ProtoErrorKind::Other => self.proto_other.inc(),
        }
    }
}

/// Anything that can sit behind a [`NetServer`]: one decoded request in,
/// one response out. The server also records its accept/shed/protocol
/// counters into the service's registry so one `Stats` RPC covers the
/// whole process. Implemented by [`RspService`] (a backend daemon) and by
/// `orsp-proxy`'s front-door router — both ends of the cluster speak the
/// same frames through the same server loop.
///
/// The trace context always travels as the explicit `ctx` argument —
/// never as ambient per-thread state — which is what lets any of the
/// event loop's threads serve any connection's request.
pub trait FrameService: Send + Sync {
    /// Handle one decoded request.
    fn handle(&self, request: Request) -> Response {
        self.handle_traced(request, None)
    }
    /// Handle one decoded request carrying the trace context its frame
    /// arrived with (None for unstamped frames). Services
    /// that trace continue the caller's trace; the default ignores it.
    fn handle_traced(&self, request: Request, ctx: Option<TraceContext>) -> Response;
    /// The registry the fronting server should record into.
    fn obs(&self) -> &Arc<Registry>;
}

impl FrameService for RspService {
    fn handle_traced(&self, request: Request, ctx: Option<TraceContext>) -> Response {
        RspService::handle_traced(self, request, ctx)
    }

    fn obs(&self) -> &Arc<Registry> {
        RspService::obs(self)
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ProtoErrorKind {
    Truncated,
    BadCrc,
    Oversized,
    UnknownTag,
    Other,
}

impl From<&WireError> for ProtoErrorKind {
    fn from(e: &WireError) -> Self {
        match e {
            WireError::Truncated { .. } => ProtoErrorKind::Truncated,
            WireError::BadCrc { .. } => ProtoErrorKind::BadCrc,
            WireError::Oversized { .. } => ProtoErrorKind::Oversized,
            WireError::UnknownTag(_) => ProtoErrorKind::UnknownTag,
            WireError::BadMagic(_) | WireError::BadVersion(_) | WireError::Malformed(_) => {
                ProtoErrorKind::Other
            }
        }
    }
}

/// A running server. Dropping it shuts down gracefully.
pub struct NetServer {
    addr: SocketAddr,
    metrics: ServerMetrics,
    reactor: EventServer,
}

impl NetServer {
    /// Bind and start serving `service` on `addr` (use port 0 for an
    /// ephemeral port; read it back with [`Self::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<dyn FrameService>,
        config: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = ServerMetrics::resolve(service.obs());
        let reactor = EventServer::bind(listener, service, config)?;
        Ok(NetServer { addr, metrics, reactor })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time counter snapshot (a typed view over the service
    /// registry's `net_*` series).
    pub fn stats(&self) -> ServerStats {
        let m = &self.metrics;
        ServerStats {
            accepted: m.accepted.get(),
            shed: m.shed.get(),
            requests: m.requests.get(),
            protocol_errors: m.protocol_errors.get(),
            proto_truncated: m.proto_truncated.get(),
            proto_bad_crc: m.proto_bad_crc.get(),
            proto_oversized: m.proto_oversized.get(),
            proto_unknown_tag: m.proto_unknown_tag.get(),
            proto_other: m.proto_other.get(),
            open_connections: m.open_connections.get(),
            slab_high_water: m.slab_high_water.get(),
            readiness_wakeups: m.readiness_wakeups.get(),
            deadline_closed: m.deadline_closed.get(),
        }
    }

    /// Graceful drain: stop accepting, close idle connections, finish and
    /// flush the requests executing, join every thread, and return the
    /// final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.reactor.stop();
        self.stats()
    }
}
