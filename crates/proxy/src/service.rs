//! The proxy request core: route writes, scatter-gather reads.
//!
//! [`ProxyService`] implements the same [`FrameService`] contract as the
//! backend [`RspService`](orsp_net::RspService), so [`orsp_net::NetServer`]
//! serves it unchanged — the proxy speaks the ORSP wire protocol on both
//! sides and holds no opinion data of its own (stateless; restart at
//! will, run several for availability).
//!
//! * **Writes** go to exactly one backend. `Upload` routes by
//!   `shard_index(record_id)` — the same formula the ingest shards and
//!   the storage engine use, so a record's entire history lives on one
//!   backend. `IssueToken` routes by device id, keeping each device's
//!   token rate window on one mint. (Tokens are blind: unlinkable to any
//!   record, so the two routings never need to agree.)
//! * **Reads** fan out to the *current primary* of every hash range and
//!   merge via [`crate::merge`]; `FetchAggregate` and `Search` answers
//!   are bit-identical to a single node holding the union of the data
//!   (asserted end to end by `tests/proxy_end_to_end.rs`). Each costs
//!   one fan-out round: a search scatters `SearchParts`, whose legs
//!   carry the ranked hits plus each hit's integer support, and never
//!   moves an effort point. The first leg runs on the dispatch thread;
//!   the others go to long-lived `proxy-leg` threads the service owns
//!   (see `LegPool`), so a read spawns nothing. The cluster-internal
//!   `AggregateParts`, `SearchParts`, `Replicate`, and `CatchUp` RPCs
//!   are refused at the front door unless
//!   [`ProxyConfig::cluster_internal`] is set.
//! * **Failover** (when [`ProxyConfig::replication_factor`] > 1): each
//!   range's route starts at its born owner and moves when that backend
//!   goes hard-down — the proxy promotes the next live member of the
//!   range's replica set with an epoch-fenced `Replicate { promote }`
//!   and retries against it, so a killed backend costs one in-flight
//!   round trip, not availability. A `StaleEpoch` refusal teaches the
//!   proxy the cluster's real epoch and it re-promotes above it.
//! * **Failure** is typed: backend shedding surfaces as a wire `Busy`
//!   (the protocol's retryable signal); a hard-down backend that has no
//!   promotable replica surfaces as the typed wire `Unavailable`, which
//!   clients fail fast on instead of burning their retry budget. Never
//!   a hang or a silently partial answer — only `Stats` degrades
//!   partially (see [`crate::merge::namespaced_stats`]).

use crate::merge::{self, MergeError};
use orsp_net::{CallTrace, FrameService, NetError, NetPool, Request, Response, RetryStats};
use orsp_obs::{trace, Counter, Gauge, Histogram, Registry, TraceContext};
use orsp_server::{shard_index, Topology};
use orsp_types::{DeviceId, EntityId, RecordId};
use parking_lot::Mutex;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Proxy tunables.
#[derive(Debug, Clone, Copy)]
pub struct ProxyConfig {
    /// K-anonymity floor applied to *merged* aggregates — must match the
    /// backends' `min_aggregate_support` for bit-identical answers.
    pub min_aggregate_support: usize,
    /// Serve the cluster-internal `AggregateParts` RPCs to this proxy's
    /// own clients. `false` (the default — a public front door) refuses
    /// them with a wire `Error`, never contacting a backend: the merged
    /// parts are floor-unfiltered, so answering would let any client
    /// read the below-floor support counts (down to a single user's
    /// interaction count and mean distance) that the k-anonymity floor
    /// exists to suppress. Enable only for a proxy that is itself a
    /// backend of another proxy, firewalled like the backends are.
    pub cluster_internal: bool,
    /// Copies per hash range, including the primary (clamped to
    /// `1..=backend_count`). 1 — the default — is the unreplicated PR 7
    /// cluster: every range has exactly its born owner and a backend
    /// loss makes that range's requests fail. Above 1 the proxy fails
    /// over: it promotes the next live member of a dead primary's
    /// replica set (an `orsp-replicad` follower holding the range's
    /// replicated log) and reroutes, for reads and writes both.
    pub replication_factor: usize,
}

/// Most of the proxy's *own* completed traces one `Traces` RPC drains
/// (each backend applies its own identical bound server-side).
const TRACES_RPC_LIMIT: usize = 16;

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            min_aggregate_support: orsp_server::MIN_AGGREGATE_SUPPORT,
            cluster_internal: false,
            replication_factor: 1,
        }
    }
}

/// One backend the proxy can call. [`NetPool`] is the production
/// implementation; tests plug in in-process fakes to exercise failure
/// paths no honest TCP backend would produce.
pub trait BackendLink: Send + Sync {
    /// Send one request, with per-call retry accounting. `ctx` is the
    /// distributed-trace context to stamp on the frame (None when the
    /// incoming request is untraced).
    fn call(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, CallTrace), NetError>;
    /// Human-readable identity (address) for logs and errors.
    fn label(&self) -> String;
    /// Cumulative client-side retry/backoff accounting for this link, if
    /// the implementation keeps any (a `NetPool` does; fakes need not).
    fn retry_stats(&self) -> Option<RetryStats> {
        None
    }
}

impl BackendLink for NetPool {
    fn call(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, CallTrace), NetError> {
        self.call_traced_with(request, ctx)
    }

    fn label(&self) -> String {
        self.addr().to_string()
    }

    fn retry_stats(&self) -> Option<RetryStats> {
        Some(NetPool::retry_stats(self))
    }
}

/// Why the proxy could not answer a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyError {
    /// A backend the answer needs is unreachable, shedding, or timing
    /// out (after any failover attempt). Shedding (`NetError::Busy`)
    /// maps to a wire `Busy` — the client's retry/backoff loop handles
    /// it; everything else maps to the typed wire `Unavailable`, which
    /// clients fail fast on.
    Unavailable {
        /// Index of the failing backend.
        backend: usize,
        /// The transport-level failure.
        source: NetError,
    },
    /// Backends returned answers that cannot belong to one honest
    /// cluster. Maps to a wire `Error` — retrying will not help.
    Inconsistent(MergeError),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::Unavailable { backend, source } => {
                write!(f, "backend {backend} unavailable: {source}")
            }
            ProxyError::Inconsistent(e) => write!(f, "inconsistent cluster state: {e}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<MergeError> for ProxyError {
    fn from(e: MergeError) -> Self {
        ProxyError::Inconsistent(e)
    }
}

/// Per-backend outcome counters (DESIGN §7 naming; `<i>` is the backend
/// index): `proxy_backend<i>_forwarded_total`, `..._retried_total`,
/// `..._unavailable_total`, `..._shed_total`, plus the failover pair
/// `..._read_failover_total` / `..._write_failover_total` counting how
/// often this backend was routed *around* as a dead primary.
struct BackendCounters {
    forwarded: Counter,
    retried: Counter,
    unavailable: Counter,
    shed: Counter,
    read_failover: Counter,
    write_failover: Counter,
}

impl BackendCounters {
    fn new(obs: &Registry, i: usize) -> BackendCounters {
        BackendCounters {
            forwarded: obs.counter(&format!("proxy_backend{i}_forwarded_total")),
            retried: obs.counter(&format!("proxy_backend{i}_retried_total")),
            unavailable: obs.counter(&format!("proxy_backend{i}_unavailable_total")),
            shed: obs.counter(&format!("proxy_backend{i}_shed_total")),
            read_failover: obs.counter(&format!("proxy_backend{i}_read_failover_total")),
            write_failover: obs.counter(&format!("proxy_backend{i}_write_failover_total")),
        }
    }
}

/// Per-range routing state exported as gauges: `proxy_range<r>_primary`
/// (backend index currently serving the range) and
/// `proxy_range<r>_epoch` (the fencing epoch the proxy last promoted
/// at or was taught by a `StaleEpoch` refusal). `orsp-top` renders
/// these as the per-range health column.
struct RangeGauges {
    primary: Gauge,
    epoch: Gauge,
}

struct ProxyMetrics {
    ranges: Vec<RangeGauges>,
    requests: Counter,
    unavailable: Counter,
    inconsistent: Counter,
    internal_refused: Counter,
    promotions: Counter,
    fanout_ping_us: Histogram,
    fanout_fetch_aggregate_us: Histogram,
    fanout_aggregate_parts_us: Histogram,
    fanout_search_us: Histogram,
    fanout_stats_us: Histogram,
    fanout_traces_us: Histogram,
    route_issue_us: Histogram,
    route_upload_us: Histogram,
}

impl ProxyMetrics {
    fn new(obs: &Registry, n: usize) -> ProxyMetrics {
        ProxyMetrics {
            ranges: (0..n)
                .map(|r| {
                    let gauges = RangeGauges {
                        primary: obs.gauge(&format!("proxy_range{r}_primary")),
                        epoch: obs.gauge(&format!("proxy_range{r}_epoch")),
                    };
                    gauges.primary.set(r as i64);
                    gauges.epoch.set(0);
                    gauges
                })
                .collect(),
            requests: obs.counter("proxy_requests_total"),
            unavailable: obs.counter("proxy_unavailable_total"),
            inconsistent: obs.counter("proxy_inconsistent_total"),
            internal_refused: obs.counter("proxy_internal_refused_total"),
            promotions: obs.counter("proxy_promotions_total"),
            fanout_ping_us: obs.histogram("proxy_fanout_ping_us"),
            fanout_fetch_aggregate_us: obs.histogram("proxy_fanout_fetch_aggregate_us"),
            fanout_aggregate_parts_us: obs.histogram("proxy_fanout_aggregate_parts_us"),
            fanout_search_us: obs.histogram("proxy_fanout_search_us"),
            fanout_stats_us: obs.histogram("proxy_fanout_stats_us"),
            fanout_traces_us: obs.histogram("proxy_fanout_traces_us"),
            route_issue_us: obs.histogram("proxy_route_issue_us"),
            route_upload_us: obs.histogram("proxy_route_upload_us"),
        }
    }
}

/// One hash range's current route: which backend serves it, and the
/// fencing epoch it was last promoted at.
#[derive(Debug, Clone, Copy)]
struct RangeRoute {
    primary: usize,
    epoch: u64,
}

/// One backend's answer to a scatter, tagged with the backend's index so
/// an error names the node that caused it.
type Leg = (usize, Result<Response, ProxyError>);

/// The backends and their outcome counters: everything one backend call
/// touches, shared by the dispatch thread and the leg threads.
struct Links {
    backends: Vec<Arc<dyn BackendLink>>,
    counters: Vec<BackendCounters>,
    obs: Arc<Registry>,
}

impl Links {
    /// One routed call, with per-backend outcome accounting, inside a
    /// `backend_call` trace span under `parent` (a no-op when the
    /// request is untraced). The span's own context is what gets
    /// stamped on the wire, so the backend's `server/<kind>` span parents
    /// under the call, not under the whole proxy RPC.
    fn call(
        &self,
        i: usize,
        request: &Request,
        parent: Option<TraceContext>,
    ) -> Result<Response, ProxyError> {
        let guard = self.obs.tracer().child_of(parent, "backend_call");
        let ctx = guard.context().or(parent);
        let result = self.call_raw(i, request, ctx);
        guard.end();
        result
    }

    /// [`Self::call`] for a fan-out leg: a link that panics becomes a
    /// typed `Unavailable` for its backend, so the read fails cleanly
    /// and neither the dispatch thread nor a leg thread dies with it.
    fn call_leg(&self, i: usize, request: &Request, parent: Option<TraceContext>) -> Leg {
        let result = panic::catch_unwind(AssertUnwindSafe(|| self.call(i, request, parent)))
            .unwrap_or_else(|payload| {
                self.counters[i].unavailable.inc();
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                Err(ProxyError::Unavailable {
                    backend: i,
                    source: NetError::Unexpected(format!("backend call panicked: {what}")),
                })
            });
        (i, result)
    }

    fn call_raw(
        &self,
        i: usize,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<Response, ProxyError> {
        let counters = &self.counters[i];
        counters.forwarded.inc();
        match self.backends[i].call(request, ctx) {
            Ok((Response::Busy, _)) => {
                // A fake or a proxy-of-proxies can hand back `Busy` as a
                // value; a `NetPool` retries it internally and surfaces
                // exhaustion as `Err(NetError::Busy)` below.
                counters.shed.inc();
                Err(ProxyError::Unavailable { backend: i, source: NetError::Busy })
            }
            Ok((Response::Unavailable { detail }, _)) => {
                // A backend refusing as *not serving* (a replica that
                // demoted itself, a follower holding a range it is not
                // primary for). A `NetPool` fails fast and surfaces this
                // as `Err(NetError::Unavailable)`; fakes and in-process
                // links hand it back as a value. Either way it is a
                // hard-down signal the failover logic routes around.
                counters.unavailable.inc();
                Err(ProxyError::Unavailable { backend: i, source: NetError::Unavailable(detail) })
            }
            Ok((response, trace)) => {
                if trace.retried() {
                    counters.retried.add(u64::from(trace.attempts - 1));
                }
                Ok(response)
            }
            Err(NetError::Busy) => {
                counters.shed.inc();
                Err(ProxyError::Unavailable { backend: i, source: NetError::Busy })
            }
            Err(source) => {
                counters.unavailable.inc();
                Err(ProxyError::Unavailable { backend: i, source })
            }
        }
    }
}

type LegJob = Box<dyn FnOnce() + Send>;

/// One parked `proxy-leg` thread and the channel that wakes it.
struct LegThread {
    jobs: mpsc::Sender<LegJob>,
    handle: JoinHandle<()>,
}

/// The long-lived threads a scatter hands its second and later legs to.
/// A scatter checks out one idle thread per leg and gives it back once
/// that leg has answered; a thread is spawned only when none is idle.
/// The pool therefore never holds more threads than concurrent scatters
/// times (targets − 1), and has no size to configure. The live count is
/// the `proxy_fanout_threads` gauge. Dropping the pool hangs up every
/// thread's channel and joins the thread.
struct LegPool {
    idle: Mutex<Vec<LegThread>>,
    threads: Gauge,
}

impl LegPool {
    fn new(threads: Gauge) -> LegPool {
        LegPool { idle: Mutex::new(Vec::new()), threads }
    }

    /// Run `job` on an idle leg thread, spawning one if none is idle.
    /// Returns the thread, to [`Self::give_back`] once the job's answer
    /// is in. Should the OS refuse a new thread, the job runs right here
    /// and `None` comes back: slower, never lost.
    fn run(&self, job: LegJob) -> Option<LegThread> {
        let idle = self.idle.lock().pop();
        let Some(thread) = idle.or_else(|| self.spawn()) else {
            job();
            return None;
        };
        // Jobs never unwind (each leg catches its link's panic), so a
        // leg thread lives until this sender is dropped.
        thread.jobs.send(job).expect("leg thread outlives its channel");
        Some(thread)
    }

    fn give_back(&self, threads: impl IntoIterator<Item = LegThread>) {
        self.idle.lock().extend(threads);
    }

    fn spawn(&self) -> Option<LegThread> {
        let (jobs, inbox) = mpsc::channel::<LegJob>();
        let threads = self.threads.clone();
        let handle = std::thread::Builder::new()
            .name("proxy-leg".into())
            .spawn(move || {
                for job in inbox {
                    job();
                }
                threads.add(-1);
            })
            .ok()?;
        self.threads.add(1);
        Some(LegThread { jobs, handle })
    }
}

impl Drop for LegPool {
    fn drop(&mut self) {
        for LegThread { jobs, handle } in self.idle.get_mut().drain(..) {
            drop(jobs);
            let _ = handle.join();
        }
    }
}

/// The front door over N backends. Almost stateless: the only state is
/// the per-range routing table, which a restarted proxy relearns in one
/// failed call + `StaleEpoch` exchange — restart at will, run several
/// for availability.
pub struct ProxyService {
    links: Arc<Links>,
    legs: LegPool,
    config: ProxyConfig,
    topology: Topology,
    routes: Mutex<Vec<RangeRoute>>,
    obs: Arc<Registry>,
    metrics: ProxyMetrics,
}

impl ProxyService {
    /// Build a proxy over the given backends (at least one).
    pub fn new(backends: Vec<Arc<dyn BackendLink>>, config: ProxyConfig) -> ProxyService {
        assert!(!backends.is_empty(), "a proxy needs at least one backend");
        let n = backends.len();
        let rf = config.replication_factor.clamp(1, n);
        // The proxy's own ring index is irrelevant — it only uses the
        // replica-set math, which every node computes identically.
        let topology = Topology::new(0, n as u32, rf as u32);
        let routes =
            Mutex::new((0..n).map(|r| RangeRoute { primary: r, epoch: 0 }).collect());
        let obs = Arc::new(Registry::new());
        obs.tracer().set_process("proxy");
        let metrics = ProxyMetrics::new(&obs, n);
        let counters = (0..n).map(|i| BackendCounters::new(&obs, i)).collect();
        let links = Arc::new(Links { backends, counters, obs: Arc::clone(&obs) });
        let legs = LegPool::new(obs.gauge("proxy_fanout_threads"));
        ProxyService { links, legs, config, topology, routes, obs, metrics }
    }

    /// Number of backends.
    pub fn backend_count(&self) -> usize {
        self.links.backends.len()
    }

    /// The proxy's own metric registry.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Which backend owns a record — the one shard-routing formula,
    /// [`orsp_server::shard_index`], applied to the backend count, exactly
    /// as each backend applies it to its ingest-shard count.
    pub fn backend_for_record(&self, record_id: &RecordId) -> usize {
        shard_index(record_id.as_bytes(), self.backend_count())
    }

    /// Which backend mints for a device. Devices hash by their id, so
    /// one backend holds each device's whole token rate window.
    pub fn backend_for_device(&self, device: DeviceId) -> usize {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&device.raw().to_le_bytes());
        shard_index(&key, self.backend_count())
    }

    /// The backend currently serving `range` — the born owner until a
    /// failover moved the route.
    pub fn primary_of(&self, range: usize) -> usize {
        self.routes.lock()[range].primary
    }

    /// The distinct set of backends currently serving at least one
    /// range — where reads scatter. With every route home this is all
    /// backends; after a failover the dead backend drops out and its
    /// ranges' answers come from the promoted followers, keeping merges
    /// duplicate-free (each range's data is counted exactly once).
    fn read_targets(&self) -> Vec<usize> {
        let routes = self.routes.lock();
        let mut targets: Vec<usize> = routes.iter().map(|r| r.primary).collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    fn set_route(&self, range: usize, primary: usize, epoch: u64) {
        self.routes.lock()[range] = RangeRoute { primary, epoch };
        self.metrics.ranges[range].primary.set(primary as i64);
        self.metrics.ranges[range].epoch.set(epoch as i64);
    }

    /// A failure that failover should route around: the backend is gone
    /// or has demoted itself — retrying the same backend will not help.
    /// `Busy` is deliberately excluded: shedding is transient and
    /// promoting a follower over a merely-loaded primary would fork the
    /// range.
    fn is_hard_down(result: &Result<Response, ProxyError>) -> bool {
        matches!(
            result,
            Err(ProxyError::Unavailable { source, .. }) if !matches!(source, NetError::Busy)
        )
    }

    /// Promote the next live member of `range`'s replica set (skipping
    /// `dead`) with an epoch-fenced `Replicate { promote }`, and point
    /// the route at it. A `StaleEpoch` refusal means the cluster is
    /// already past the epoch the proxy knew — adopt the reported epoch
    /// and re-promote above it (second attempt per candidate). Returns
    /// the new primary, or None if no replica answered (then the
    /// original failure stands).
    fn promote_range(&self, range: usize, dead: usize) -> Option<usize> {
        let mut epoch = self.routes.lock()[range].epoch + 1;
        for candidate in self.topology.replica_set(range as u32) {
            let candidate = candidate as usize;
            if candidate == dead {
                continue;
            }
            for _ in 0..2 {
                let promote = Request::Replicate {
                    range: range as u32,
                    epoch,
                    promote: true,
                    items: vec![],
                };
                match self.call_backend(candidate, &promote) {
                    Ok(Response::ReplicateAck { epoch: adopted, .. }) => {
                        self.set_route(range, candidate, adopted);
                        self.metrics.promotions.inc();
                        return Some(candidate);
                    }
                    Ok(Response::StaleEpoch { current, .. }) => {
                        epoch = current + 1;
                    }
                    _ => break,
                }
            }
        }
        None
    }

    /// Promote replacements for every range `dead` was serving. Returns
    /// true if at least one range moved.
    fn fail_over_backend(&self, dead: usize) -> bool {
        let owned: Vec<usize> = {
            let routes = self.routes.lock();
            routes
                .iter()
                .enumerate()
                .filter(|(_, r)| r.primary == dead)
                .map(|(range, _)| range)
                .collect()
        };
        let mut moved = false;
        for range in owned {
            moved |= self.promote_range(range, dead).is_some();
        }
        moved
    }

    /// One routed call on the dispatch thread, under its ambient trace
    /// (see [`Links::call`]).
    fn call_backend(&self, i: usize, request: &Request) -> Result<Response, ProxyError> {
        self.links.call(i, request, trace::current())
    }

    /// Fan one request out to every backend concurrently — the
    /// whole-cluster fan (`Stats`, `Traces`): every backend reports,
    /// primary or not.
    fn scatter(&self, request: Request) -> Vec<Leg> {
        let all: Vec<usize> = (0..self.backend_count()).collect();
        self.scatter_to(&all, &Arc::new(request))
    }

    /// Fan one request out to an explicit set of backends concurrently,
    /// answers in target order. The first leg runs on the calling
    /// thread, which would otherwise only wait; the rest go to the
    /// [`LegPool`]. The dispatch thread's trace context is captured
    /// here — leg threads don't inherit thread-locals, so each leg
    /// re-parents its `backend_call` span explicitly.
    fn scatter_to(&self, targets: &[usize], request: &Arc<Request>) -> Vec<Leg> {
        let Some((&first, rest)) = targets.split_first() else {
            return Vec::new();
        };
        let parent = trace::current();
        let (answers, inbox) = mpsc::channel();
        let checked_out: Vec<LegThread> = rest
            .iter()
            .enumerate()
            .filter_map(|(slot, &i)| {
                let links = Arc::clone(&self.links);
                let request = Arc::clone(request);
                let answers = answers.clone();
                self.legs.run(Box::new(move || {
                    let _ = answers.send((slot + 1, links.call_leg(i, &request, parent)));
                }))
            })
            .collect();
        drop(answers);
        let mut legs: Vec<Option<Leg>> = vec![None; targets.len()];
        legs[0] = Some(self.links.call_leg(first, request, parent));
        // Ends once every job has answered and dropped its sender.
        for (slot, leg) in inbox {
            legs[slot] = Some(leg);
        }
        self.legs.give_back(checked_out);
        legs.into_iter().map(|leg| leg.expect("every leg answers")).collect()
    }

    /// The read fan: scatter to the current primaries, and — when
    /// replicating — fail over once. Any leg that came back hard-down
    /// gets its backend's ranges promoted to live followers, then the
    /// *whole* read re-scatters against the new primary set (re-asking
    /// the survivors is what keeps the merge a complete union rather
    /// than a partial answer). If nothing could be promoted the original
    /// results — including the failure — stand.
    fn scatter_reads(&self, request: Request) -> Vec<Leg> {
        let request = Arc::new(request);
        let legs = self.scatter_to(&self.read_targets(), &request);
        if self.topology.replication_factor == 1 {
            return legs;
        }
        let dead: Vec<usize> = legs
            .iter()
            .filter(|(_, result)| Self::is_hard_down(result))
            .map(|&(backend, _)| backend)
            .collect();
        if dead.is_empty() {
            return legs;
        }
        let mut moved = false;
        for &backend in &dead {
            self.links.counters[backend].read_failover.inc();
            moved |= self.fail_over_backend(backend);
        }
        if !moved {
            return legs;
        }
        self.scatter_to(&self.read_targets(), &request)
    }

    /// Scatter `AggregateParts` and merge: the floor-unfiltered union of
    /// every backend's partials for `entity`.
    fn merged_parts(
        &self,
        entity: EntityId,
    ) -> Result<Option<orsp_server::AggregateParts>, ProxyError> {
        let span = self.obs.span_into(&self.metrics.fanout_aggregate_parts_us);
        let gathered = self.scatter_reads(Request::AggregateParts { entity });
        span.end();
        let mut parts = Vec::with_capacity(gathered.len());
        for (backend, result) in gathered {
            match result? {
                Response::AggregateParts { parts: p } => parts.push(p),
                other => return Err(unexpected(backend, "aggregate parts", other)),
            }
        }
        Ok(merge::merge_parts(entity, parts)?)
    }

    /// Scatter one `AggregatePartsBatch` and merge per entity: the
    /// floor-unfiltered union for each requested entity, in request
    /// order. One fan-out round no matter how many entities — this is
    /// the search support refill, where a per-entity scatter would make
    /// search latency grow linearly with hit count times backend RTT.
    fn merged_parts_batch(
        &self,
        entities: &[EntityId],
    ) -> Result<Vec<Option<orsp_server::AggregateParts>>, ProxyError> {
        if entities.is_empty() {
            return Ok(Vec::new());
        }
        let span = self.obs.span_into(&self.metrics.fanout_aggregate_parts_us);
        let gathered =
            self.scatter_reads(Request::AggregatePartsBatch { entities: entities.to_vec() });
        span.end();
        let mut lists = Vec::with_capacity(gathered.len());
        for (backend, result) in gathered {
            match result? {
                Response::AggregatePartsBatch { parts } if parts.len() == entities.len() => {
                    lists.push(parts)
                }
                other => return Err(unexpected(backend, "aggregate parts batch", other)),
            }
        }
        entities
            .iter()
            .enumerate()
            .map(|(i, &entity)| {
                merge::merge_parts(entity, lists.iter_mut().map(|list| list[i].take()))
                    .map_err(ProxyError::from)
            })
            .collect()
    }

    fn do_ping(&self) -> Result<Response, ProxyError> {
        let span = self.obs.span_into(&self.metrics.fanout_ping_us);
        let gathered = self.scatter_reads(Request::Ping);
        span.end();
        for (backend, result) in gathered {
            match result? {
                Response::Pong => {}
                other => return Err(unexpected(backend, "ping", other)),
            }
        }
        Ok(Response::Pong)
    }

    fn do_fetch_aggregate(&self, entity: EntityId) -> Result<Response, ProxyError> {
        let span = self.obs.span_into(&self.metrics.fanout_fetch_aggregate_us);
        let merged = self.merged_parts(entity);
        span.end();
        Ok(Response::Aggregate {
            aggregate: merge::floored_aggregate(merged?, self.config.min_aggregate_support),
        })
    }

    /// Scatter `SearchParts` and merge: the hit list every backend agrees
    /// on plus, per hit, the floor-unfiltered support summed across
    /// backends. One fan-out round, whatever the hit count.
    fn merged_search_parts(
        &self,
        query: orsp_search::SearchQuery,
    ) -> Result<(Vec<orsp_net::SearchHit>, Vec<orsp_server::SupportParts>), ProxyError> {
        let _span = self.obs.span_into(&self.metrics.fanout_search_us);
        let gathered = self.scatter_reads(Request::SearchParts { query });
        let mut legs = Vec::with_capacity(gathered.len());
        for (backend, result) in gathered {
            match result? {
                Response::SearchParts { hits, support } => legs.push((hits, support)),
                other => return Err(unexpected(backend, "search parts", other)),
            }
        }
        let _merge_span = trace::child("proxy_merge");
        Ok(merge::merge_search_parts(legs)?)
    }

    fn do_search(&self, query: orsp_search::SearchQuery) -> Result<Response, ProxyError> {
        // Scores, order, and histograms are world-determined and agreed
        // on; only the anonymous-history support comes from partitioned
        // data, and it arrives as integers on the same legs. The floor
        // applies to each summed total (a below-floor entity reads as
        // unsupported, exactly as on one node).
        let (mut hits, support) = self.merged_search_parts(query)?;
        merge::fill_support(&mut hits, &support, self.config.min_aggregate_support);
        Ok(Response::SearchResults { hits })
    }

    /// Refuse a cluster-internal RPC at the public front door, without
    /// contacting any backend. The backends sit behind a firewall; the
    /// proxy is what clients reach, so it must not re-export the
    /// floor-unfiltered partials the k-anonymity floor exists to
    /// suppress. A wire `Error` (not `Busy`) tells the caller retrying
    /// will not help.
    fn refuse_internal(&self, what: &str) -> Response {
        self.metrics.internal_refused.inc();
        Response::Error {
            detail: format!(
                "{what} is cluster-internal: this proxy is a public front door \
                 and does not serve floor-unfiltered partial aggregates \
                 (enable cluster-internal serving only behind a firewall)"
            ),
        }
    }

    fn do_stats(&self) -> Response {
        let span = self.obs.span_into(&self.metrics.fanout_stats_us);
        let gathered = self.scatter(Request::Stats);
        span.end();
        let backends = gathered
            .into_iter()
            .map(|(i, result)| match result {
                Ok(Response::Stats { snapshot }) => (i, Some(snapshot)),
                _ => (i, None),
            })
            .collect();
        // Snapshot the local registry *after* the fan-out so the counters
        // this very request incremented are visible in its answer, then
        // fold in each link's client-side retry accounting — the view
        // from the proxy's side of the wire, complementing the backends'
        // own server-side counters.
        let mut local = self.obs.snapshot();
        for (i, link) in self.links.backends.iter().enumerate() {
            if let Some(rs) = link.retry_stats() {
                local.counters.extend([
                    (format!("proxy_backend{i}_client_attempts_total"), rs.attempts),
                    (format!("proxy_backend{i}_client_busy_total"), rs.busy),
                    (format!("proxy_backend{i}_client_timeouts_total"), rs.timeouts),
                    (format!("proxy_backend{i}_client_disconnects_total"), rs.disconnects),
                    (format!("proxy_backend{i}_client_backoff_us_total"), rs.backoff_us),
                    (format!("proxy_backend{i}_client_exhausted_total"), rs.exhausted),
                    (
                        format!("proxy_backend{i}_client_stale_reconnects_total"),
                        rs.stale_reconnects,
                    ),
                ]);
            }
        }
        local.counters.sort_by(|a, b| a.0.cmp(&b.0));
        Response::Stats { snapshot: merge::namespaced_stats(local, backends) }
    }

    /// Drain completed sampled traces: the proxy's own, joined with each
    /// backend's parts of the same traces. Backend spans come back
    /// labelled with the generic `server` process; retag them by backend
    /// index so one trace tree tells the legs apart. A backend that
    /// cannot answer just contributes no spans — trace polling degrades
    /// partially, like `Stats`.
    fn do_traces(&self) -> Response {
        let span = self.obs.span_into(&self.metrics.fanout_traces_us);
        let mut traces = self.obs.tracer().drain_completed(TRACES_RPC_LIMIT);
        let gathered = self.scatter(Request::Traces);
        span.end();
        for (i, result) in gathered {
            if let Ok(Response::Traces { traces: remote }) = result {
                for mut trace_record in remote {
                    for s in &mut trace_record.spans {
                        if s.process == "server" {
                            s.process = format!("backend{i}");
                        }
                    }
                    traces.push(trace_record);
                }
            }
        }
        Response::Traces { traces: orsp_obs::trace::merge_traces(traces) }
    }

    fn dispatch(&self, request: Request) -> Result<Response, ProxyError> {
        match request {
            Request::Ping => self.do_ping(),
            Request::IssueToken { device, blinded, now } => {
                let span = self.obs.span_into(&self.metrics.route_issue_us);
                let backend = self.backend_for_device(device);
                let request = Request::IssueToken { device, blinded, now };
                let mut response = self.call_backend(backend, &request);
                // A replicated cluster derives one mint from one shared
                // world seed, so any live backend can sign for any
                // device — failing over only widens the device's rate
                // window to a second node for the outage's duration.
                // (Unreplicated clusters may run distinct seeds; there
                // the route stays fixed.)
                if self.topology.replication_factor > 1 {
                    let mut tried = 1;
                    let mut at = backend;
                    while Self::is_hard_down(&response) && tried < self.backend_count() {
                        self.links.counters[at].write_failover.inc();
                        at = (at + 1) % self.backend_count();
                        response = self.call_backend(at, &request);
                        tried += 1;
                    }
                }
                span.end();
                response
            }
            Request::Upload { upload, now } => {
                let span = self.obs.span_into(&self.metrics.route_upload_us);
                let range = self.backend_for_record(&upload.record_id);
                let request = Request::Upload { upload, now };
                let primary = self.primary_of(range);
                let mut response = self.call_backend(primary, &request);
                if Self::is_hard_down(&response) && self.topology.replication_factor > 1 {
                    self.links.counters[primary].write_failover.inc();
                    if let Some(promoted) = self.promote_range(range, primary) {
                        response = self.call_backend(promoted, &request);
                    }
                }
                span.end();
                response
            }
            Request::FetchAggregate { entity } => self.do_fetch_aggregate(entity),
            Request::AggregateParts { entity } => {
                if !self.config.cluster_internal {
                    return Ok(self.refuse_internal("AggregateParts"));
                }
                Ok(Response::AggregateParts { parts: self.merged_parts(entity)? })
            }
            Request::AggregatePartsBatch { entities } => {
                if !self.config.cluster_internal {
                    return Ok(self.refuse_internal("AggregatePartsBatch"));
                }
                Ok(Response::AggregatePartsBatch {
                    parts: self.merged_parts_batch(&entities)?,
                })
            }
            Request::Search { query } => self.do_search(query),
            Request::SearchParts { query } => {
                if !self.config.cluster_internal {
                    return Ok(self.refuse_internal("SearchParts"));
                }
                let (hits, support) = self.merged_search_parts(query)?;
                Ok(Response::SearchParts { hits, support })
            }
            Request::Stats => Ok(self.do_stats()),
            Request::Traces => Ok(self.do_traces()),
            // The replication RPCs are gated exactly like AggregateParts:
            // a public front door refuses them without touching a
            // backend (a client that could promote-at-will or pull a
            // range's raw per-record log would own the cluster).
            Request::Replicate { .. } => {
                if !self.config.cluster_internal {
                    return Ok(self.refuse_internal("Replicate"));
                }
                // Point-to-point between a range's replicas: the frame
                // names a range but not the *follower* it was meant for,
                // so a routing tier cannot deliver it faithfully.
                Ok(Response::Error {
                    detail: "Replicate is point-to-point between a range's replicas; \
                             a proxy tier cannot route it"
                        .into(),
                })
            }
            Request::CatchUp { range, cursor } => {
                if !self.config.cluster_internal {
                    return Ok(self.refuse_internal("CatchUp"));
                }
                // An internal tier may relay anti-entropy: the range's
                // current primary is the authoritative source.
                let range = range as usize;
                if range >= self.backend_count() {
                    return Ok(Response::Error {
                        detail: format!(
                            "range {range} outside cluster of {}",
                            self.backend_count()
                        ),
                    });
                }
                self.call_backend(
                    self.primary_of(range),
                    &Request::CatchUp { range: range as u32, cursor },
                )
            }
        }
    }

    /// Handle one request (the [`FrameService`] entry point).
    pub fn handle(&self, request: Request) -> Response {
        self.handle_traced(request, None)
    }

    /// [`Self::handle`] continuing the caller's distributed trace: the
    /// whole proxy RPC becomes a `proxy/<kind>` span (or a new sampled
    /// root when the client sent no context), and every backend call
    /// under it carries the trace onto the wire.
    pub fn handle_traced(&self, request: Request, ctx: Option<TraceContext>) -> Response {
        self.metrics.requests.inc();
        let name = match &request {
            Request::Ping => "proxy/ping",
            Request::IssueToken { .. } => "proxy/issue_token",
            Request::Upload { .. } => "proxy/upload",
            Request::FetchAggregate { .. } => "proxy/fetch_aggregate",
            Request::Search { .. } => "proxy/search",
            Request::Stats => "proxy/stats",
            Request::Traces => "proxy/traces",
            Request::AggregateParts { .. } => "proxy/aggregate_parts",
            Request::AggregatePartsBatch { .. } => "proxy/aggregate_parts_batch",
            Request::Replicate { .. } => "proxy/replicate",
            Request::CatchUp { .. } => "proxy/catch_up",
            Request::SearchParts { .. } => "proxy/search_parts",
        };
        let root = self.obs.tracer().root_or_remote(ctx, name);
        let response = match self.dispatch(request) {
            Ok(response) => response,
            Err(ProxyError::Unavailable { source: NetError::Busy, .. }) => {
                self.metrics.unavailable.inc();
                Response::Busy
            }
            Err(error @ ProxyError::Unavailable { .. }) => {
                self.metrics.unavailable.inc();
                Response::Unavailable { detail: error.to_string() }
            }
            Err(error @ ProxyError::Inconsistent(_)) => {
                self.metrics.inconsistent.inc();
                Response::Error { detail: error.to_string() }
            }
        };
        root.end();
        response
    }
}

/// A leg answered with a response of the wrong kind: an error naming
/// the backend that sent it.
fn unexpected(backend: usize, what: &str, got: Response) -> ProxyError {
    ProxyError::Unavailable {
        backend,
        source: NetError::Unexpected(format!("{what} got {got:?}")),
    }
}

impl FrameService for ProxyService {
    fn handle_traced(&self, request: Request, ctx: Option<TraceContext>) -> Response {
        ProxyService::handle_traced(self, request, ctx)
    }

    fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_server::{AggregateParts, SupportParts};
    use orsp_types::{Rating, StarHistogram};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A scripted backend: counts calls, answers from a closure.
    struct Fake {
        calls: AtomicU64,
        respond: Box<dyn Fn(&Request) -> Result<(Response, CallTrace), NetError> + Send + Sync>,
    }

    impl Fake {
        fn new(
            respond: impl Fn(&Request) -> Result<(Response, CallTrace), NetError>
                + Send
                + Sync
                + 'static,
        ) -> Arc<Fake> {
            Arc::new(Fake { calls: AtomicU64::new(0), respond: Box::new(respond) })
        }

        fn ok(respond: impl Fn(&Request) -> Response + Send + Sync + 'static) -> Arc<Fake> {
            Fake::new(move |r| Ok((respond(r), CallTrace { attempts: 1, stale_reconnects: 0 })))
        }
    }

    impl BackendLink for Fake {
        fn call(
            &self,
            request: &Request,
            _ctx: Option<TraceContext>,
        ) -> Result<(Response, CallTrace), NetError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            (self.respond)(request)
        }

        fn label(&self) -> String {
            "fake".into()
        }
    }

    fn proxy(backends: Vec<Arc<Fake>>) -> (ProxyService, Vec<Arc<Fake>>) {
        proxy_with(backends, ProxyConfig::default())
    }

    fn proxy_with(
        backends: Vec<Arc<Fake>>,
        config: ProxyConfig,
    ) -> (ProxyService, Vec<Arc<Fake>>) {
        let links: Vec<Arc<dyn BackendLink>> =
            backends.iter().map(|f| Arc::clone(f) as Arc<dyn BackendLink>).collect();
        (ProxyService::new(links, config), backends)
    }

    /// The cluster-internal tier's config: serves `AggregateParts`.
    fn internal() -> ProxyConfig {
        ProxyConfig { cluster_internal: true, ..ProxyConfig::default() }
    }

    fn parts(entity: u64, histories: u64) -> AggregateParts {
        AggregateParts {
            entity: EntityId::new(entity),
            histories,
            interactions: histories,
            visits_per_user: vec![0, histories],
            repeats: histories,
            dwell_secs: histories as i64 * 60,
            dwell_n: histories,
            effort_points: vec![],
        }
    }

    fn parts_backend(entity: u64, histories: u64) -> Arc<Fake> {
        Fake::ok(move |r| match r {
            Request::AggregateParts { .. } => {
                Response::AggregateParts { parts: Some(parts(entity, histories)) }
            }
            Request::AggregatePartsBatch { entities } => Response::AggregatePartsBatch {
                parts: entities
                    .iter()
                    .map(|e| (e.raw() == entity).then(|| parts(entity, histories)))
                    .collect(),
            },
            Request::Stats => Response::Stats { snapshot: Default::default() },
            _ => Response::Pong,
        })
    }

    fn hit(entity: u64, score: f64, histories: u64) -> orsp_net::SearchHit {
        let mut explicit = StarHistogram::default();
        explicit.add(Rating::stars(4));
        orsp_net::SearchHit {
            entity: EntityId::new(entity),
            score,
            explicit,
            inferred: StarHistogram::default(),
            histories,
            repeat_fraction: 0.0,
        }
    }

    #[test]
    fn upload_and_issue_route_to_exactly_one_backend_by_the_shared_formula() {
        // Routing is pure — assert the formula without crypto, then that
        // a routed request reaches only the owner.
        let (p, fakes) = proxy(vec![
            Fake::ok(|_| Response::Pong),
            Fake::ok(|_| Response::Pong),
            Fake::ok(|_| Response::Pong),
        ]);
        for i in 0..64u64 {
            let mut bytes = [0u8; 32];
            bytes[..8].copy_from_slice(&i.to_le_bytes());
            let rid = RecordId::from_bytes(bytes);
            assert_eq!(p.backend_for_record(&rid), shard_index(&bytes, 3));
            assert_eq!(p.backend_for_device(DeviceId::new(i)), (i % 3) as usize);
        }
        // Ping fans out to all three; routing itself is covered above and
        // end-to-end (with real tokens) in tests/proxy_end_to_end.rs.
        assert_eq!(p.handle(Request::Ping), Response::Pong);
        for f in &fakes {
            assert_eq!(f.calls.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn fetch_aggregate_floors_after_the_merge_not_per_backend() {
        // 3 + 2 histories: below the floor of 5 on every backend, at it
        // in the union. One node holding all 5 would publish; so must we.
        let (p, _) = proxy(vec![parts_backend(7, 3), parts_backend(7, 2)]);
        match p.handle(Request::FetchAggregate { entity: EntityId::new(7) }) {
            Response::Aggregate { aggregate: Some(agg) } => assert_eq!(agg.histories, 5),
            other => panic!("expected merged aggregate, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_parts_rpc_returns_the_unfloored_union_on_an_internal_tier() {
        // Only a cluster-internal proxy (a backend of another proxy,
        // firewalled like the leaf backends) serves unfloored parts.
        let (p, _) = proxy_with(vec![parts_backend(7, 2), parts_backend(7, 1)], internal());
        match p.handle(Request::AggregateParts { entity: EntityId::new(7) }) {
            Response::AggregateParts { parts: Some(merged) } => {
                assert_eq!(merged.histories, 3, "below-floor union still exported");
            }
            other => panic!("expected merged parts, got {other:?}"),
        }
        match p.handle(Request::AggregatePartsBatch {
            entities: vec![EntityId::new(7), EntityId::new(8)],
        }) {
            Response::AggregatePartsBatch { parts } => {
                assert_eq!(parts.len(), 2);
                assert_eq!(parts[0].as_ref().map(|m| m.histories), Some(3));
            }
            other => panic!("expected merged batch, got {other:?}"),
        }
    }

    #[test]
    fn public_front_door_refuses_cluster_internal_rpcs_without_touching_backends() {
        // A below-floor entity's support must not be readable through
        // the public dispatch — the floor FetchAggregate enforces would
        // be meaningless if AggregateParts handed out the raw union.
        let (p, fakes) = proxy(vec![parts_backend(7, 2), parts_backend(7, 1)]);
        for request in [
            Request::AggregateParts { entity: EntityId::new(7) },
            Request::AggregatePartsBatch { entities: vec![EntityId::new(7)] },
            Request::SearchParts { query: dentists() },
        ] {
            match p.handle(request) {
                Response::Error { detail } => {
                    assert!(detail.contains("cluster-internal"), "{detail}")
                }
                other => panic!("expected refusal, got {other:?}"),
            }
        }
        for f in &fakes {
            assert_eq!(f.calls.load(Ordering::Relaxed), 0, "refusal must not fan out");
        }
        let snap = p.obs().snapshot();
        assert_eq!(snap.counter("proxy_internal_refused_total"), Some(3));
        assert_eq!(snap.counter("proxy_inconsistent_total"), Some(0));
    }

    #[test]
    fn one_busy_backend_makes_reads_busy_and_counts_the_shed() {
        let (p, _) = proxy(vec![parts_backend(7, 9), Fake::new(|_| Err(NetError::Busy))]);
        assert_eq!(
            p.handle(Request::FetchAggregate { entity: EntityId::new(7) }),
            Response::Busy,
            "a partitioned read cannot answer from half the data"
        );
        let snap = p.obs().snapshot();
        assert_eq!(snap.counter("proxy_backend1_shed_total"), Some(1));
        assert_eq!(snap.counter("proxy_backend1_unavailable_total"), Some(0));
        assert_eq!(snap.counter("proxy_unavailable_total"), Some(1));
    }

    #[test]
    fn unreachable_backend_counts_separately_from_shed_and_surfaces_as_unavailable() {
        // Without a replica to promote (rf 1), a hard-down backend is a
        // typed wire `Unavailable` — clients fail fast instead of
        // burning their retry budget — where shedding stays `Busy`.
        let (p, _) = proxy(vec![
            parts_backend(7, 9),
            Fake::new(|_| Err(NetError::Io(std::io::ErrorKind::ConnectionRefused, "no".into()))),
        ]);
        match p.handle(Request::Ping) {
            Response::Unavailable { detail } => assert!(detail.contains("backend 1"), "{detail}"),
            other => panic!("expected typed unavailable, got {other:?}"),
        }
        let snap = p.obs().snapshot();
        assert_eq!(snap.counter("proxy_backend1_unavailable_total"), Some(1));
        assert_eq!(snap.counter("proxy_backend1_shed_total"), Some(0));
        assert_eq!(snap.counter("proxy_unavailable_total"), Some(1));
    }

    /// A two-backend replicated cluster (rf 2): backend 0 is hard-down,
    /// backend 1 is a live follower of range 0 that accepts promotion
    /// and serves the merged data.
    fn replicated_pair_with_dead_primary() -> (ProxyService, Vec<Arc<Fake>>) {
        let dead =
            Fake::new(|_| Err(NetError::Io(std::io::ErrorKind::ConnectionRefused, "no".into())));
        let follower = Fake::ok(|r| match r {
            Request::Replicate { epoch, promote: true, .. } => {
                Response::ReplicateAck { epoch: *epoch, applied: 0 }
            }
            Request::AggregateParts { .. } => {
                Response::AggregateParts { parts: Some(parts(7, 9)) }
            }
            Request::AggregatePartsBatch { entities } => Response::AggregatePartsBatch {
                parts: entities.iter().map(|_| Some(parts(7, 9))).collect(),
            },
            Request::Upload { .. } => Response::UploadAccepted,
            _ => Response::Pong,
        });
        proxy_with(
            vec![dead, follower],
            ProxyConfig { replication_factor: 2, ..ProxyConfig::default() },
        )
    }

    #[test]
    fn read_fails_over_promotes_the_follower_and_answers_from_it() {
        let (p, _) = replicated_pair_with_dead_primary();
        match p.handle(Request::FetchAggregate { entity: EntityId::new(7) }) {
            Response::Aggregate { aggregate: Some(agg) } => assert_eq!(agg.histories, 9),
            other => panic!("expected the follower's aggregate, got {other:?}"),
        }
        let snap = p.obs().snapshot();
        assert_eq!(snap.counter("proxy_backend0_read_failover_total"), Some(1));
        assert_eq!(snap.counter("proxy_promotions_total"), Some(1));
        assert_eq!(snap.gauge("proxy_range0_primary"), Some(1), "route moved to backend 1");
        assert_eq!(snap.gauge("proxy_range0_epoch"), Some(1), "promoted at epoch 1");
        assert_eq!(snap.gauge("proxy_range1_primary"), Some(1), "backend 1's own range stayed");
        // The route is learned: the next read goes straight to the
        // promoted primary, no failover round.
        match p.handle(Request::FetchAggregate { entity: EntityId::new(7) }) {
            Response::Aggregate { aggregate: Some(agg) } => assert_eq!(agg.histories, 9),
            other => panic!("expected the follower's aggregate, got {other:?}"),
        }
        let snap = p.obs().snapshot();
        assert_eq!(snap.counter("proxy_backend0_read_failover_total"), Some(1));
        assert_eq!(snap.counter("proxy_promotions_total"), Some(1));
    }

    #[test]
    fn upload_fails_over_to_the_promoted_follower() {
        let (p, fakes) = replicated_pair_with_dead_primary();
        // A record id owned by range 0 — its primary is the dead backend.
        let rid = (0u64..)
            .map(|i| {
                let mut bytes = [0u8; 32];
                bytes[..8].copy_from_slice(&i.to_le_bytes());
                RecordId::from_bytes(bytes)
            })
            .find(|rid| shard_index(rid.as_bytes(), 2) == 0)
            .unwrap();
        let range = p.backend_for_record(&rid);
        assert_eq!(range, 0);
        assert_eq!(p.primary_of(range), 0, "route starts at the born owner");
        // Routing is what's under test; the upload payload itself is
        // opaque to the proxy, so a forged-token shell suffices.
        let upload = orsp_crypto::UploadRequest {
            record_id: rid,
            entity: EntityId::new(7),
            interaction: orsp_types::Interaction {
                kind: orsp_types::InteractionKind::Visit,
                start: orsp_types::Timestamp::EPOCH,
                duration: orsp_types::SimDuration::minutes(30),
                distance_travelled_m: 100.0,
                group_size: 1,
            },
            token: orsp_crypto::Token {
                message: [0; 32],
                signature: orsp_crypto::BigUint::from_u64(12345),
            },
            release_at: orsp_types::Timestamp::EPOCH,
        };
        match p.handle(Request::Upload { upload, now: orsp_types::Timestamp::EPOCH }) {
            Response::UploadAccepted => {}
            other => panic!("expected the follower to take the write, got {other:?}"),
        }
        assert_eq!(p.primary_of(0), 1, "route moved");
        let snap = p.obs().snapshot();
        assert_eq!(snap.counter("proxy_backend0_write_failover_total"), Some(1));
        assert_eq!(snap.counter("proxy_promotions_total"), Some(1));
        assert!(fakes[1].calls.load(Ordering::Relaxed) >= 2, "promote + retried upload");
    }

    #[test]
    fn stale_epoch_refusal_teaches_the_proxy_the_real_epoch() {
        // The follower was already promoted to epoch 41 by another proxy
        // (or survived a previous incarnation): the first promote at
        // epoch 1 is refused with the real epoch, the second adopts it.
        let dead =
            Fake::new(|_| Err(NetError::Io(std::io::ErrorKind::ConnectionRefused, "no".into())));
        let promoted_before = AtomicU64::new(0);
        let follower = Fake::ok(move |r| match r {
            Request::Replicate { range, epoch, promote: true, .. } => {
                if *epoch <= 41 && promoted_before.fetch_add(1, Ordering::Relaxed) == 0 {
                    Response::StaleEpoch { range: *range, current: 41 }
                } else {
                    Response::ReplicateAck { epoch: *epoch, applied: 0 }
                }
            }
            Request::AggregateParts { .. } => {
                Response::AggregateParts { parts: Some(parts(7, 9)) }
            }
            _ => Response::Pong,
        });
        let (p, _) = proxy_with(
            vec![dead, follower],
            ProxyConfig { replication_factor: 2, ..ProxyConfig::default() },
        );
        match p.handle(Request::FetchAggregate { entity: EntityId::new(7) }) {
            Response::Aggregate { aggregate: Some(agg) } => assert_eq!(agg.histories, 9),
            other => panic!("expected failover through the stale refusal, got {other:?}"),
        }
        let snap = p.obs().snapshot();
        assert_eq!(snap.gauge("proxy_range0_epoch"), Some(42), "re-promoted above the refusal");
        assert_eq!(snap.counter("proxy_promotions_total"), Some(1));
    }

    #[test]
    fn a_demoted_backends_refusal_value_reroutes_like_a_dead_one() {
        // Backend 0 is alive but has demoted itself (it answers the wire
        // `Unavailable` a follower's pre-upload gate produces) — the
        // proxy must treat that as hard-down and promote around it.
        let demoted = Fake::ok(|r| match r {
            Request::Replicate { .. } | Request::CatchUp { .. } => {
                Response::Unavailable { detail: "range 0 demoted".into() }
            }
            _ => Response::Unavailable { detail: "backend 0 range 0 demoted; not primary".into() },
        });
        let follower = Fake::ok(|r| match r {
            Request::Replicate { epoch, promote: true, .. } => {
                Response::ReplicateAck { epoch: *epoch, applied: 0 }
            }
            Request::AggregateParts { .. } => {
                Response::AggregateParts { parts: Some(parts(7, 3)) }
            }
            _ => Response::Pong,
        });
        let (p, _) = proxy_with(
            vec![demoted, follower],
            ProxyConfig { replication_factor: 2, ..ProxyConfig::default() },
        );
        match p.handle(Request::FetchAggregate { entity: EntityId::new(7) }) {
            Response::Aggregate { aggregate } => assert!(aggregate.is_none(), "3 < floor of 5"),
            other => panic!("expected the follower's answer, got {other:?}"),
        }
        let snap = p.obs().snapshot();
        assert_eq!(snap.counter("proxy_backend0_unavailable_total"), Some(1));
        assert_eq!(snap.gauge("proxy_range0_primary"), Some(1));
    }

    #[test]
    fn replication_rpcs_are_refused_at_the_public_front_door() {
        let (p, fakes) = proxy(vec![parts_backend(7, 9)]);
        for request in [
            Request::Replicate { range: 0, epoch: 1, promote: true, items: vec![] },
            Request::CatchUp { range: 0, cursor: 0 },
        ] {
            match p.handle(request) {
                Response::Error { detail } => {
                    assert!(detail.contains("cluster-internal"), "{detail}")
                }
                other => panic!("expected refusal, got {other:?}"),
            }
        }
        assert_eq!(fakes[0].calls.load(Ordering::Relaxed), 0, "refusal must not fan out");
        assert_eq!(p.obs().snapshot().counter("proxy_internal_refused_total"), Some(2));
    }

    /// A backend answering `SearchParts` with fixed hits and support.
    fn search_backend(hits: Vec<orsp_net::SearchHit>, support: Vec<(u64, u64)>) -> Arc<Fake> {
        Fake::ok(move |r| match r {
            Request::SearchParts { .. } => Response::SearchParts {
                hits: hits.clone(),
                support: support
                    .iter()
                    .map(|&(histories, repeats)| SupportParts { histories, repeats })
                    .collect(),
            },
            _ => Response::Pong,
        })
    }

    fn dentists() -> orsp_search::SearchQuery {
        orsp_search::SearchQuery {
            zipcode: 94107,
            category: orsp_types::Category::Doctor(orsp_types::Specialty::Dentist),
        }
    }

    #[test]
    fn divergent_search_results_are_a_typed_error_not_a_guess() {
        let (p, _) = proxy(vec![
            search_backend(vec![hit(1, 4.0, 0)], vec![(9, 1)]),
            search_backend(vec![hit(1, 3.9, 0)], vec![(9, 1)]),
        ]);
        match p.handle(Request::Search { query: dentists() }) {
            Response::Error { detail } => assert!(detail.contains("scores"), "{detail}"),
            other => panic!("expected typed error, got {other:?}"),
        }
        assert_eq!(p.obs().snapshot().counter("proxy_inconsistent_total"), Some(1));
    }

    #[test]
    fn duplicate_entities_in_a_backend_hit_list_are_rejected() {
        let (p, _) = proxy(vec![search_backend(
            vec![hit(1, 4.0, 0), hit(1, 4.0, 0)],
            vec![(9, 1), (9, 1)],
        )]);
        match p.handle(Request::Search { query: dentists() }) {
            Response::Error { detail } => assert!(detail.contains("twice"), "{detail}"),
            other => panic!("expected typed error, got {other:?}"),
        }
    }

    #[test]
    fn search_refills_support_fields_from_the_merged_union() {
        // Both backends agree on the hits (scores are world-determined)
        // but each holds only part of the anonymous histories. Entity 7:
        // 3 + 2 = 5 clears the floor only in total. Entity 8: 2 + 2
        // stays below it and must read as unsupported.
        let hits = || vec![hit(7, 4.0, 0), hit(8, 3.0, 0)];
        let (p, _) = proxy(vec![
            search_backend(hits(), vec![(3, 2), (2, 2)]),
            search_backend(hits(), vec![(2, 1), (2, 0)]),
        ]);
        match p.handle(Request::Search { query: dentists() }) {
            Response::SearchResults { hits } => {
                assert_eq!(hits.len(), 2);
                assert_eq!(hits[0].histories, 5, "support summed across backends");
                assert_eq!(hits[0].repeat_fraction, 3.0 / 5.0);
                assert_eq!((hits[1].histories, hits[1].repeat_fraction), (0, 0.0));
            }
            other => panic!("expected hits, got {other:?}"),
        }
    }

    #[test]
    fn a_search_costs_each_backend_exactly_one_call() {
        // Hits and their support ride the same leg: three hits, one
        // round, and no follow-up RPC of any kind.
        let backend = || {
            search_backend(
                vec![hit(1, 4.0, 0), hit(2, 3.0, 0), hit(3, 2.0, 0)],
                vec![(6, 3); 3],
            )
        };
        let (p, fakes) = proxy(vec![backend(), backend(), backend()]);
        match p.handle(Request::Search { query: dentists() }) {
            Response::SearchResults { hits } => {
                assert_eq!(hits.len(), 3);
                assert!(hits.iter().all(|h| h.histories == 18), "6 + 6 + 6 per hit");
            }
            other => panic!("expected hits, got {other:?}"),
        }
        for f in &fakes {
            assert_eq!(f.calls.load(Ordering::Relaxed), 1, "one SearchParts leg per backend");
        }
    }

    #[test]
    fn search_parts_on_an_internal_tier_returns_consensus_hits_and_the_unfloored_sum() {
        let hits = || vec![hit(7, 4.0, 0)];
        let (p, _) = proxy_with(
            vec![search_backend(hits(), vec![(2, 1)]), search_backend(hits(), vec![(1, 1)])],
            internal(),
        );
        assert_eq!(
            p.handle(Request::SearchParts { query: dentists() }),
            Response::SearchParts {
                hits: hits(),
                support: vec![SupportParts { histories: 3, repeats: 2 }],
            },
            "below-floor sum still exported to the tier above"
        );
    }

    #[test]
    fn a_leg_with_mismatched_hit_and_support_counts_is_a_typed_error() {
        let (p, _) = proxy(vec![
            search_backend(vec![hit(7, 4.0, 0)], vec![(3, 1)]),
            search_backend(vec![hit(7, 4.0, 0)], vec![]),
        ]);
        match p.handle(Request::Search { query: dentists() }) {
            Response::Error { detail } => {
                assert!(detail.contains("1 hits with 0 support"), "{detail}")
            }
            other => panic!("expected typed error, got {other:?}"),
        }
        assert_eq!(p.obs().snapshot().counter("proxy_inconsistent_total"), Some(1));
    }

    #[test]
    fn empty_search_results_from_all_backends_stay_empty() {
        let empty = || search_backend(vec![], vec![]);
        let (p, _) = proxy(vec![empty(), empty(), empty()]);
        assert_eq!(
            p.handle(Request::Search { query: dentists() }),
            Response::SearchResults { hits: vec![] }
        );
    }

    #[test]
    fn stats_degrade_partially_and_namespace_backend_snapshots() {
        let up = Fake::ok(|r| match r {
            Request::Stats => Response::Stats {
                snapshot: orsp_obs::StatsSnapshot {
                    counters: vec![("net_requests_total".into(), 11)],
                    ..Default::default()
                },
            },
            _ => Response::Pong,
        });
        let down = Fake::new(|_| Err(NetError::Timeout));
        let (p, _) = proxy(vec![up, down]);
        match p.handle(Request::Stats) {
            Response::Stats { snapshot } => {
                assert_eq!(snapshot.counter("backend0_net_requests_total"), Some(11));
                assert_eq!(snapshot.counter("backend1_unreachable"), Some(1));
                assert_eq!(
                    snapshot.counter("proxy_requests_total"),
                    Some(1),
                    "proxy's own metrics ride along"
                );
                assert_eq!(
                    snapshot.gauge("proxy_fanout_threads"),
                    Some(1),
                    "the second backend's leg ran on the one leg thread"
                );
            }
            other => panic!("expected partial stats, got {other:?}"),
        }
    }

    #[test]
    fn retried_calls_are_attributed_to_their_backend() {
        let flaky = Fake::new(|_| {
            Ok((Response::Pong, CallTrace { attempts: 3, stale_reconnects: 1 }))
        });
        let (p, _) = proxy(vec![flaky]);
        assert_eq!(p.handle(Request::Ping), Response::Pong);
        let snap = p.obs().snapshot();
        assert_eq!(snap.counter("proxy_backend0_forwarded_total"), Some(1));
        assert_eq!(snap.counter("proxy_backend0_retried_total"), Some(2));
    }

    #[test]
    fn an_unexpected_leg_answer_names_the_backend_that_sent_it() {
        // Backend 2 answers `Pong` to everything: each read's error must
        // send the operator to backend 2, not to backend 0.
        let sound = || {
            let (parts, search) = (parts_backend(7, 3), three_hit_backend());
            Fake::new(move |r| match r {
                Request::SearchParts { .. } => search.call(r, None),
                _ => parts.call(r, None),
            })
        };
        let (p, _) = proxy_with(vec![sound(), sound(), Fake::ok(|_| Response::Pong)], internal());
        for request in [
            Request::FetchAggregate { entity: EntityId::new(7) },
            Request::AggregateParts { entity: EntityId::new(7) },
            Request::AggregatePartsBatch { entities: vec![EntityId::new(7)] },
            Request::Search { query: dentists() },
        ] {
            match p.handle(request) {
                Response::Unavailable { detail } => {
                    assert!(detail.starts_with("backend 2 unavailable"), "{detail}")
                }
                other => panic!("expected typed unavailable, got {other:?}"),
            }
        }
        let (p, _) = proxy(vec![
            Fake::ok(|_| Response::Pong),
            Fake::ok(|_| Response::UploadAccepted),
        ]);
        match p.handle(Request::Ping) {
            Response::Unavailable { detail } => {
                assert!(detail.starts_with("backend 1 unavailable"), "{detail}")
            }
            other => panic!("expected typed unavailable, got {other:?}"),
        }
    }

    /// The live leg-thread count, as `Stats` exports it.
    fn leg_threads(p: &ProxyService) -> i64 {
        p.obs().snapshot().gauge("proxy_fanout_threads").expect("fan-out gauge")
    }

    fn three_hit_backend() -> Arc<Fake> {
        search_backend(vec![hit(1, 4.0, 0), hit(2, 3.0, 0), hit(3, 2.0, 0)], vec![(6, 3); 3])
    }

    #[test]
    fn sequential_reads_reuse_one_leg_thread_per_extra_backend() {
        let (p, fakes) = proxy(vec![three_hit_backend(), three_hit_backend(), three_hit_backend()]);
        assert_eq!(leg_threads(&p), 0, "nothing spawned before the first read");
        let first = p.handle(Request::Search { query: dentists() });
        assert!(matches!(&first, Response::SearchResults { hits } if hits.len() == 3), "{first:?}");
        for _ in 1..1_000 {
            assert_eq!(p.handle(Request::Search { query: dentists() }), first);
        }
        for f in &fakes {
            assert_eq!(f.calls.load(Ordering::Relaxed), 1_000, "one leg per backend per read");
        }
        assert_eq!(leg_threads(&p), 2, "N - 1 legs leave the calling thread");
    }

    #[test]
    fn concurrent_readers_get_the_sequential_answers_from_a_bounded_pool() {
        let (p, fakes) = proxy(vec![three_hit_backend(), three_hit_backend(), three_hit_backend()]);
        let expected = p.handle(Request::Search { query: dentists() });
        let p = Arc::new(p);
        let start = Arc::new(std::sync::Barrier::new(8));
        let readers: Vec<_> = (0..8)
            .map(|_| {
                let (p, start) = (Arc::clone(&p), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    (0..200).map(|_| p.handle(Request::Search { query: dentists() })).collect()
                })
            })
            .collect();
        for reader in readers {
            let answers: Vec<Response> = reader.join().expect("reader thread");
            assert!(answers.iter().all(|a| *a == expected));
        }
        for f in &fakes {
            assert_eq!(f.calls.load(Ordering::Relaxed), 1 + 8 * 200);
        }
        let threads = leg_threads(&p);
        assert!((2..=16).contains(&threads), "8 readers x 2 extra legs at most, got {threads}");
    }

    #[test]
    fn a_panicking_leg_is_a_typed_error_and_the_next_read_is_served() {
        // Backend 2's first call panics (on a leg thread); backend 0's
        // second call panics (on the dispatch thread). Each read answers
        // a typed error naming the backend, well inside its deadline, and
        // the read after it is served by the same threads.
        let panicky = |panic_on: u64| {
            let calls = AtomicU64::new(0);
            let healthy = three_hit_backend();
            Fake::ok(move |r| {
                if calls.fetch_add(1, Ordering::Relaxed) == panic_on {
                    panic!("link bug");
                }
                healthy.call(r, None).expect("healthy fake").0
            })
        };
        let (p, _) = proxy(vec![panicky(1), three_hit_backend(), panicky(0)]);
        let p = Arc::new(p);
        let read = |p: &Arc<ProxyService>| {
            let (done, answer) = mpsc::channel();
            let p = Arc::clone(p);
            std::thread::spawn(move || {
                let _ = done.send(p.handle(Request::Search { query: dentists() }));
            });
            answer.recv_timeout(std::time::Duration::from_secs(10)).expect("read within deadline")
        };
        for culprit in [2, 0] {
            match read(&p) {
                Response::Unavailable { detail } => {
                    assert!(detail.starts_with(&format!("backend {culprit} ")), "{detail}");
                    assert!(detail.contains("panicked: link bug"), "{detail}");
                }
                other => panic!("expected typed unavailable, got {other:?}"),
            }
        }
        assert!(matches!(read(&p), Response::SearchResults { hits } if hits.len() == 3));
        assert_eq!(leg_threads(&p), 2, "no leg thread died with its panic");
        assert_eq!(p.obs().snapshot().counter("proxy_backend2_unavailable_total"), Some(1));
    }

    /// The kernel's id for the calling thread.
    fn tid() -> String {
        let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
        link.file_name().expect("task id").to_string_lossy().into_owned()
    }

    /// A thread's name as the kernel reports it, or None once it is gone.
    fn comm(tid: &str) -> Option<String> {
        std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
            .ok()
            .map(|name| name.trim_end().to_string())
    }

    #[test]
    fn dropping_the_service_ends_its_leg_threads() {
        // Each fake records which kernel thread served it, so the check
        // below follows this service's threads only — other tests in the
        // binary run proxies of their own in parallel.
        let seen = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        let recording = || {
            let seen = Arc::clone(&seen);
            let healthy = three_hit_backend();
            Fake::ok(move |r| {
                seen.lock().insert(tid());
                healthy.call(r, None).expect("healthy fake").0
            })
        };
        let (p, _) = proxy(vec![recording(), recording(), recording()]);
        for _ in 0..10 {
            let answer = p.handle(Request::Search { query: dentists() });
            assert!(matches!(answer, Response::SearchResults { .. }), "{answer:?}");
        }
        let mine = tid();
        let legs: Vec<String> = seen.lock().iter().filter(|&t| *t != mine).cloned().collect();
        assert_eq!(legs.len(), 2, "two leg threads served the extra legs: {legs:?}");
        for t in &legs {
            assert_eq!(comm(t).as_deref(), Some("proxy-leg"));
        }
        let obs = Arc::clone(p.obs());
        drop(p);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while legs.iter().any(|t| comm(t).as_deref() == Some("proxy-leg")) {
            assert!(std::time::Instant::now() < deadline, "leg threads outlived their service");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(obs.snapshot().gauge("proxy_fanout_threads"), Some(0));
    }
}
