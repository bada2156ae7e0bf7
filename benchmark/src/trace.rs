//! Benchmark-owned tracing: a span recorder and a `Traced…` wrapper for
//! every public trait seam (`FrameService`, `BackendLink`, `WalSink`,
//! `PeerLink`, `TokenIssuer`), so per-layer self time is measured from
//! outside with no change to any crate.
//!
//! Spans record `{seam, kind, node, op id, span id, parent, start, end}`
//! into per-thread buffers, drained when the run ends. The op id and the
//! parent span id travel between tiers in the frame's existing 25-byte
//! trace context, marked *unsampled*: every tier's own tracer then
//! passes the context through untouched (and records nothing itself),
//! so a wrapper one hop down reads its caller's span id off the wire or
//! off the thread's ambient context.

use orsp_crypto::{BlindSignature, BlindedMessage, TokenIssuer};
use orsp_net::{CallTrace, FrameService, NetError, Request, Response, RetryStats};
use orsp_obs::{Registry, TraceContext};
use orsp_proxy::BackendLink;
use orsp_replica::PeerLink;
use orsp_server::{WalBatchItem, WalEntry, WalSink};
use orsp_types::{DeviceId, Timestamp};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Seam {
    /// One whole client op (a round trip, or a lone RPC's root).
    ClientOp,
    /// `BlindingSession::blind` on the device.
    Blind,
    /// `BlindingSession::unblind` on the device.
    Unblind,
    /// `TokenIssuer::issue` on the device (the issue RPC).
    Issuer,
    /// Any other client RPC (`Transport::call`).
    ClientRpc,
    /// The proxy's `FrameService`.
    Proxy,
    /// One `BackendLink::call` inside the proxy.
    BackendLink,
    /// A backend's `FrameService`.
    Backend,
    /// `WalSink::log_upload_batch` on a backend.
    WalSink,
    /// One `PeerLink::call` from a primary to a follower.
    PeerLink,
    /// `RspService::publish_aggregates`, called by the benchmark.
    Publish,
}

impl Seam {
    /// Name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Seam::ClientOp => "client.op",
            Seam::Blind => "client.blind",
            Seam::Unblind => "client.unblind",
            Seam::Issuer => "client.TokenIssuer",
            Seam::ClientRpc => "client.rpc",
            Seam::Proxy => "proxy.FrameService",
            Seam::BackendLink => "proxy.BackendLink",
            Seam::Backend => "backend.FrameService",
            Seam::WalSink => "backend.WalSink",
            Seam::PeerLink => "backend.PeerLink",
            Seam::Publish => "bench.publish",
        }
    }
}

/// What request a span served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    RoundTrip,
    Issue,
    Upload,
    Search,
    Fetch,
    Parts,
    Replicate,
    Other,
}

impl Kind {
    /// The kind of a wire request.
    pub fn of(request: &Request) -> Kind {
        match request {
            Request::IssueToken { .. } => Kind::Issue,
            Request::Upload { .. } => Kind::Upload,
            Request::Search { .. } => Kind::Search,
            Request::FetchAggregate { .. } => Kind::Fetch,
            Request::AggregateParts { .. } | Request::AggregatePartsBatch { .. } => Kind::Parts,
            Request::Replicate { .. } => Kind::Replicate,
            _ => Kind::Other,
        }
    }

    /// Name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RoundTrip => "roundtrip",
            Kind::Issue => "issue",
            Kind::Upload => "upload",
            Kind::Search => "search",
            Kind::Fetch => "fetch",
            Kind::Parts => "parts",
            Kind::Replicate => "replicate",
            Kind::Other => "other",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub seam: Seam,
    pub kind: Kind,
    /// Backend index (0 elsewhere).
    pub node: u8,
    /// The client op this span belongs to.
    pub op: u64,
    pub id: u64,
    /// 0 for an op's root.
    pub parent: u64,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items in the call (WAL batch size); 0 elsewhere.
    pub items: u32,
}

impl Span {
    /// Elapsed nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

/// Turn recording on or off. Off, every wrapper is a pass-through.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds on the recorder's clock (since its first use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn record(span: Span) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buffer = local.get_or_insert_with(|| {
            let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(4096)));
            BUFFERS
                .lock()
                .expect("span buffer list poisoned")
                .push(Arc::clone(&buffer));
            buffer
        });
        // Uncontended except against the final drain.
        buffer.lock().expect("span buffer poisoned").push(span);
    });
}

/// Take every span recorded so far, ordered by start time.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buffer in BUFFERS.lock().expect("span buffer list poisoned").iter() {
        all.append(&mut buffer.lock().expect("span buffer poisoned"));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// An open span. While it lives, its context is the thread's ambient
/// trace context, so calls made beneath it (a `NetPool` stamping a frame,
/// a wrapper one seam down) see it as their parent.
pub struct Open {
    ctx: TraceContext,
    parent: u64,
    start_ns: u64,
    _ambient: orsp_obs::trace::SpanGuard,
}

impl Open {
    /// Open a span under `parent` (`None` when recording is off or the
    /// caller carries no context — the request is then not part of any
    /// traced op).
    pub fn child(parent: Option<TraceContext>) -> Option<Open> {
        if !enabled() {
            return None;
        }
        let parent = parent?;
        Some(Open::start(parent.trace_id, parent.span_id))
    }

    /// Open the root span of client op `op` (`None` when recording is off).
    pub fn root(op: u64) -> Option<Open> {
        enabled().then(|| Open::start(op as u128, 0))
    }

    fn start(trace_id: u128, parent: u64) -> Open {
        let ctx = TraceContext {
            trace_id,
            span_id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            sampled: false,
        };
        // An unsampled context makes the tracer hand back a pass-through
        // guard: it records nothing and only sets the ambient context.
        let ambient = orsp_obs::global().tracer().child_of(Some(ctx), "");
        Open {
            ctx,
            parent,
            start_ns: now_ns(),
            _ambient: ambient,
        }
    }

    /// The context calls beneath this span should carry.
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// End and record the span.
    pub fn close(self, seam: Seam, kind: Kind, node: u8, items: u32) {
        let end_ns = now_ns();
        record(Span {
            seam,
            kind,
            node,
            op: self.ctx.trace_id as u64,
            id: self.ctx.span_id,
            parent: self.parent,
            start_ns: self.start_ns,
            end_ns,
            items,
        });
    }
}

/// Run `f` inside a span under the thread's ambient context.
pub fn in_span<T>(seam: Seam, kind: Kind, f: impl FnOnce() -> T) -> T {
    let open = Open::child(orsp_obs::trace::current());
    let out = f();
    if let Some(open) = open {
        open.close(seam, kind, 0, 0);
    }
    out
}

/// A [`FrameService`] seam: the proxy's front door or a backend's.
pub struct TracedService {
    inner: Arc<dyn FrameService>,
    seam: Seam,
    node: u8,
}

impl TracedService {
    /// Wrap `inner`; `seam` is [`Seam::Proxy`] or [`Seam::Backend`].
    pub fn wrap(inner: Arc<dyn FrameService>, seam: Seam, node: usize) -> Arc<dyn FrameService> {
        Arc::new(TracedService {
            inner,
            seam,
            node: node as u8,
        })
    }
}

impl FrameService for TracedService {
    fn handle_traced(&self, request: Request, ctx: Option<TraceContext>) -> Response {
        let Some(open) = Open::child(ctx) else {
            return self.inner.handle_traced(request, ctx);
        };
        let kind = Kind::of(&request);
        let response = self.inner.handle_traced(request, Some(open.ctx()));
        open.close(self.seam, kind, self.node, 0);
        response
    }

    fn obs(&self) -> &Arc<Registry> {
        self.inner.obs()
    }
}

/// A [`BackendLink`] seam inside the proxy.
pub struct TracedBackend {
    inner: Arc<dyn BackendLink>,
    node: u8,
}

impl TracedBackend {
    /// Wrap the link to backend `node`.
    pub fn wrap(inner: Arc<dyn BackendLink>, node: usize) -> Arc<dyn BackendLink> {
        Arc::new(TracedBackend {
            inner,
            node: node as u8,
        })
    }
}

impl BackendLink for TracedBackend {
    fn call(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, CallTrace), NetError> {
        let Some(open) = Open::child(ctx) else {
            return self.inner.call(request, ctx);
        };
        let result = self.inner.call(request, Some(open.ctx()));
        open.close(Seam::BackendLink, Kind::of(request), self.node, 0);
        result
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn retry_stats(&self) -> Option<RetryStats> {
        self.inner.retry_stats()
    }
}

/// A [`WalSink`] seam on a backend.
pub struct TracedSink {
    inner: Arc<dyn WalSink>,
    node: u8,
}

impl TracedSink {
    /// Wrap backend `node`'s durability sink.
    pub fn wrap(inner: Arc<dyn WalSink>, node: usize) -> Arc<dyn WalSink> {
        Arc::new(TracedSink {
            inner,
            node: node as u8,
        })
    }
}

impl WalSink for TracedSink {
    fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()> {
        self.inner.log_append(entry)
    }

    fn log_token_spend(&self, key: &[u8; 32]) -> orsp_types::Result<()> {
        self.inner.log_token_spend(key)
    }

    fn log_upload_batch(&self, items: &[WalBatchItem]) -> orsp_types::Result<()> {
        // The commit leader's request is ambient on this thread; a batch
        // that also carries other requests' items is charged to it.
        let Some(open) = Open::child(orsp_obs::trace::current()) else {
            return self.inner.log_upload_batch(items);
        };
        let result = self.inner.log_upload_batch(items);
        open.close(Seam::WalSink, Kind::Upload, self.node, items.len() as u32);
        result
    }
}

/// A [`PeerLink`] seam from a primary to one follower.
pub struct TracedPeer {
    inner: Arc<dyn PeerLink>,
    node: u8,
}

impl TracedPeer {
    /// Wrap the link to peer `node`.
    pub fn wrap(inner: Arc<dyn PeerLink>, node: usize) -> Arc<dyn PeerLink> {
        Arc::new(TracedPeer {
            inner,
            node: node as u8,
        })
    }
}

impl PeerLink for TracedPeer {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        // `NetPool`'s `PeerLink` stamps the ambient context, which the
        // open span has just replaced with its own.
        let Some(open) = Open::child(orsp_obs::trace::current()) else {
            return self.inner.call(request);
        };
        let result = self.inner.call(request);
        open.close(Seam::PeerLink, Kind::of(request), self.node, 0);
        result
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// A [`TokenIssuer`] seam on the device.
pub struct TracedIssuer<I: TokenIssuer>(pub I);

impl<I: TokenIssuer> TokenIssuer for TracedIssuer<I> {
    fn issue(
        &mut self,
        device: DeviceId,
        blinded: &BlindedMessage,
        now: Timestamp,
    ) -> orsp_types::Result<BlindSignature> {
        in_span(Seam::Issuer, Kind::Issue, || {
            self.0.issue(device, blinded, now)
        })
    }
}

/// Write spans as a JSON array (at most `limit`, earliest first).
pub fn write_json(path: &std::path::Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    let shown = &spans[..spans.len().min(limit)];
    for (i, s) in shown.iter().enumerate() {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"kind\": \"{}\", \"node\": {}, \"op\": {}, \"id\": {}, \
             \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"items\": {}}}{}",
            s.seam.name(),
            s.kind.name(),
            s.node,
            s.op,
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns,
            s.items,
            if i + 1 == shown.len() { "" } else { "," }
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}
