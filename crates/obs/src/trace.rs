//! Zero-dependency distributed tracing: wire-propagated context, per-span
//! timing, head-based sampling, and cross-process trace assembly.
//!
//! A trace starts where a request enters the cluster (the proxy, or a
//! server reached directly). The root decides *once* whether the trace is
//! sampled — head-based, from a hash of the trace id — and that decision
//! rides the wire in a [`TraceContext`] alongside the 128-bit trace id
//! and the caller's 64-bit span id. Every tier then times its work as
//! spans parented to the context it received; a backend's spans and the
//! proxy's spans share a trace id and stitch into one tree.
//!
//! Collection is write-only and lock-light: a finished span is pushed
//! into one of a fixed set of bounded rings (shard picked by thread),
//! and when the process-local root of a trace finishes, its spans are
//! swept into a bounded completed-trace queue that the `Traces` RPC
//! drains. Nothing downstream of instrumentation ever reads a clock or a
//! span — the pipeline's outcome digests are bit-identical with tracing
//! on or off, the same contract the metric registry keeps.
//!
//! Determinism: span and trace ids come from a splitmix64 stream over a
//! per-tracer seed and counter, and timestamps come from the registry's
//! pluggable [`Clock`] — a test on a [`crate::LogicalClock`] with a fixed
//! seed reproduces ids and timestamps bit-for-bit.

use crate::clock::Clock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sampling rate denominator: rates are expressed per 10 000 traces.
pub const SAMPLE_DENOMINATOR: u32 = 10_000;
/// Default head-sampling rate: 1% (100 per 10 000).
pub const DEFAULT_SAMPLE_PER_10K: u32 = 100;
/// Bounded rings: spans per shard.
const SPAN_RING_CAP: usize = 256;
/// Bounded rings: shard count (threads hash onto shards).
const SPAN_SHARDS: usize = 8;
/// Completed traces kept until drained.
const COMPLETED_TRACES_CAP: usize = 64;
/// Default tracer id-stream seed ("orsptrac").
const DEFAULT_SEED: u64 = 0x6F72_7370_7472_6163;

/// The trace context one frame carries: which trace this request belongs
/// to, which span is the caller, and whether the head sampler kept it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id, minted at the root.
    pub trace_id: u128,
    /// The caller's span id — the parent of whatever the callee starts.
    pub span_id: u64,
    /// Head-sampling decision, made once at the root.
    pub sampled: bool,
}

/// One finished span, as exported (and as carried by the `Traces` RPC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id.
    pub span_id: u64,
    /// Parent span id; 0 means "no parent known here" (a trace root, or
    /// a local root whose parent lives in another process).
    pub parent_span_id: u64,
    /// Operation name, e.g. `"server/upload"` or `"wal_fsync"`.
    pub name: String,
    /// Start, µs on the recording process's clock.
    pub start_us: u64,
    /// End, µs on the recording process's clock.
    pub end_us: u64,
    /// Which process recorded it, e.g. `"proxy"` or `"backend0"`.
    pub process: String,
}

impl SpanRecord {
    /// Elapsed µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One completed trace: every span this process (or, after merging, the
/// cluster) recorded for a trace id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The trace id shared by every span.
    pub trace_id: u128,
    /// Spans, sorted by `(start_us, span_id)`.
    pub spans: Vec<SpanRecord>,
}

impl TraceRecord {
    /// The root span: no parent, or a parent recorded by no span here.
    pub fn root(&self) -> Option<&SpanRecord> {
        let ids: Vec<u64> = self.spans.iter().map(|s| s.span_id).collect();
        self.spans
            .iter()
            .find(|s| s.parent_span_id == 0 || !ids.contains(&s.parent_span_id))
    }

    /// Root duration (µs), 0 for an empty trace.
    pub fn duration_us(&self) -> u64 {
        self.root().map(|r| r.duration_us()).unwrap_or(0)
    }
}

/// A span as buffered (name still static, process implied).
#[derive(Debug, Clone)]
struct InnerSpan {
    trace_id: u128,
    span_id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
    end_us: u64,
}

struct Shared {
    clock: Arc<dyn Clock>,
    seed: AtomicU64,
    counter: AtomicU64,
    sample_per_10k: AtomicU32,
    slow_threshold_us: AtomicU64,
    shards: Vec<Mutex<VecDeque<InnerSpan>>>,
    completed: Mutex<VecDeque<TraceRecord>>,
    process: Mutex<String>,
    sealed_total: AtomicU64,
}

/// The per-registry span collector. Obtain via
/// [`Registry::tracer`](crate::Registry::tracer).
pub struct Tracer {
    shared: Arc<Shared>,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

thread_local! {
    static AMBIENT: RefCell<Option<Ambient>> = const { RefCell::new(None) };
    static SHARD: usize = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        (h.finish() as usize) % SPAN_SHARDS
    };
}

#[derive(Clone)]
struct Ambient {
    shared: Arc<Shared>,
    ctx: TraceContext,
}

/// The current thread's trace context, if a span is open. This is what
/// the net client stamps onto outgoing frames.
pub fn current() -> Option<TraceContext> {
    AMBIENT.with(|a| a.borrow().as_ref().map(|a| a.ctx))
}

/// Start a child span of whatever span is ambient on this thread. A
/// no-op (no clock read, no allocation) when no sampled trace is active
/// — deep layers can instrument unconditionally.
pub fn child(name: &'static str) -> SpanGuard {
    let ambient = AMBIENT.with(|a| a.borrow().clone());
    match ambient {
        Some(a) if a.ctx.sampled => {
            let shared = a.shared.clone();
            SpanGuard::open(shared, a.ctx.trace_id, a.ctx.span_id, true, name, Kind::Child)
        }
        _ => SpanGuard { inner: None },
    }
}

enum Kind {
    /// Minted the trace id: seals on drop, slow-threshold applies.
    TraceRoot,
    /// First span of this process for a remote trace: seals on drop.
    LocalRoot,
    /// Interior span.
    Child,
}

impl Tracer {
    pub(crate) fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Tracer {
            shared: Arc::new(Shared {
                clock,
                seed: AtomicU64::new(DEFAULT_SEED),
                counter: AtomicU64::new(0),
                sample_per_10k: AtomicU32::new(DEFAULT_SAMPLE_PER_10K),
                slow_threshold_us: AtomicU64::new(0),
                shards: (0..SPAN_SHARDS)
                    .map(|_| Mutex::new(VecDeque::with_capacity(16)))
                    .collect(),
                completed: Mutex::new(VecDeque::new()),
                process: Mutex::new(String::from("proc")),
                sealed_total: AtomicU64::new(0),
            }),
        }
    }

    /// Re-seed the id stream (tests pin this for reproducible ids).
    pub fn set_seed(&self, seed: u64) {
        self.shared.seed.store(seed, Ordering::Relaxed);
        self.shared.counter.store(0, Ordering::Relaxed);
    }

    /// Head-sampling rate per 10 000 root decisions (10 000 = always,
    /// 0 = never; with 0 and no slow threshold, roots are free no-ops).
    pub fn set_sampling(&self, per_10k: u32) {
        self.shared.sample_per_10k.store(per_10k.min(SAMPLE_DENOMINATOR), Ordering::Relaxed);
    }

    /// Always export the root span of a trace whose total latency
    /// reaches `micros`, even when the head sampler dropped it
    /// (0 disables the slow path).
    pub fn set_slow_threshold_us(&self, micros: u64) {
        self.shared.slow_threshold_us.store(micros, Ordering::Relaxed);
    }

    /// Label this process's spans (e.g. `"proxy"`, `"server"`).
    pub fn set_process(&self, label: &str) {
        *self.shared.process.lock().expect("tracer poisoned") = label.to_string();
    }

    /// Traces sealed (completed locally) since creation.
    pub fn sealed_total(&self) -> u64 {
        self.shared.sealed_total.load(Ordering::Relaxed)
    }

    fn next_id(&self) -> u64 {
        self.shared.next_id()
    }

    fn decide(&self, trace_id: u128) -> bool {
        let rate = self.shared.sample_per_10k.load(Ordering::Relaxed);
        if rate >= SAMPLE_DENOMINATOR {
            return true;
        }
        if rate == 0 {
            return false;
        }
        let h = splitmix64((trace_id as u64) ^ ((trace_id >> 64) as u64));
        (h % SAMPLE_DENOMINATOR as u64) < rate as u64
    }

    /// Start a trace root: mints a trace id, makes the head-sampling
    /// decision, and becomes the ambient span for this thread. When
    /// sampling is off (rate 0, no slow threshold) this is a free no-op.
    pub fn start_root(&self, name: &'static str) -> SpanGuard {
        let rate = self.shared.sample_per_10k.load(Ordering::Relaxed);
        let slow = self.shared.slow_threshold_us.load(Ordering::Relaxed);
        if rate == 0 && slow == 0 {
            return SpanGuard { inner: None };
        }
        let trace_id = ((self.next_id() as u128) << 64) | self.next_id() as u128;
        let sampled = self.decide(trace_id);
        SpanGuard::open_ids(
            self.shared.clone(),
            trace_id,
            self.next_id(),
            0,
            sampled,
            name,
            Kind::TraceRoot,
        )
    }

    /// Start this process's local root for a trace that arrived over the
    /// wire: parented to the caller's span, sampled iff the caller said
    /// so.
    pub fn start_remote(&self, ctx: TraceContext, name: &'static str) -> SpanGuard {
        if !ctx.sampled {
            // Nothing will record, but downstream calls must keep
            // propagating the (unsampled) context.
            return SpanGuard::passthrough(self.shared.clone(), ctx);
        }
        SpanGuard::open(
            self.shared.clone(),
            ctx.trace_id,
            ctx.span_id,
            true,
            name,
            Kind::LocalRoot,
        )
    }

    /// [`Tracer::start_remote`] when a context may be absent: starts a
    /// fresh root instead. The one entry point a request handler needs.
    pub fn root_or_remote(&self, ctx: Option<TraceContext>, name: &'static str) -> SpanGuard {
        match ctx {
            Some(ctx) => self.start_remote(ctx, name),
            None => self.start_root(name),
        }
    }

    /// Start a child of an explicit context — for worker threads that
    /// don't inherit the request thread's ambient span (the proxy's
    /// long-lived fan-out leg threads). No-op when `ctx` is `None` or
    /// unsampled.
    pub fn child_of(&self, ctx: Option<TraceContext>, name: &'static str) -> SpanGuard {
        match ctx {
            Some(c) if c.sampled => {
                SpanGuard::open(self.shared.clone(), c.trace_id, c.span_id, true, name, Kind::Child)
            }
            Some(c) => SpanGuard::passthrough(self.shared.clone(), c),
            None => SpanGuard { inner: None },
        }
    }

    /// Drain up to `max` completed traces, oldest first.
    pub fn drain_completed(&self, max: usize) -> Vec<TraceRecord> {
        let mut q = self.shared.completed.lock().expect("tracer poisoned");
        let n = max.min(q.len());
        q.drain(..n).collect()
    }
}

impl Shared {
    fn next_id(&self) -> u64 {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(self.seed.load(Ordering::Relaxed) ^ n);
        if id == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            id
        }
    }

    fn record(&self, span: InnerSpan) {
        let shard = SHARD.with(|s| *s);
        let mut buf = self.shards[shard].lock().expect("tracer poisoned");
        if buf.len() == SPAN_RING_CAP {
            buf.pop_front();
        }
        buf.push_back(span);
    }

    /// Sweep every buffered span of `trace_id` into one completed trace.
    fn seal(&self, trace_id: u128) {
        let process = self.process.lock().expect("tracer poisoned").clone();
        let mut spans: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            let mut buf = shard.lock().expect("tracer poisoned");
            let mut i = 0;
            while i < buf.len() {
                if buf[i].trace_id == trace_id {
                    let s = buf.remove(i).expect("index in bounds");
                    spans.push(SpanRecord {
                        span_id: s.span_id,
                        parent_span_id: s.parent,
                        name: s.name.to_string(),
                        start_us: s.start_us,
                        end_us: s.end_us,
                        process: process.clone(),
                    });
                } else {
                    i += 1;
                }
            }
        }
        spans.sort_by_key(|s| (s.start_us, s.span_id));
        self.sealed_total.fetch_add(1, Ordering::Relaxed);
        let mut q = self.completed.lock().expect("tracer poisoned");
        if q.len() == COMPLETED_TRACES_CAP {
            q.pop_front();
        }
        q.push_back(TraceRecord { trace_id, spans });
    }
}

struct GuardInner {
    shared: Arc<Shared>,
    ctx: TraceContext,
    parent: u64,
    name: &'static str,
    start_us: u64,
    kind: Kind,
    /// False for pass-through guards that only keep an unsampled
    /// context ambient.
    recording: bool,
    prev: Option<Ambient>,
}

/// A live span. Ends (and records, if its trace is sampled) on drop;
/// while alive it is the thread's ambient span — [`child`] parents to it
/// and [`current`] exports its context for the wire.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

impl SpanGuard {
    fn open(
        shared: Arc<Shared>,
        trace_id: u128,
        parent: u64,
        sampled: bool,
        name: &'static str,
        kind: Kind,
    ) -> SpanGuard {
        let span_id = shared.next_id();
        Self::open_ids(shared, trace_id, span_id, parent, sampled, name, kind)
    }

    fn open_ids(
        shared: Arc<Shared>,
        trace_id: u128,
        span_id: u64,
        parent: u64,
        sampled: bool,
        name: &'static str,
        kind: Kind,
    ) -> SpanGuard {
        let ctx = TraceContext { trace_id, span_id, sampled };
        let start_us = shared.clock.now_micros();
        let prev = AMBIENT.with(|a| {
            a.borrow_mut().replace(Ambient { shared: shared.clone(), ctx })
        });
        SpanGuard {
            inner: Some(GuardInner {
                shared,
                ctx,
                parent,
                name,
                start_us,
                kind,
                recording: sampled,
                prev,
            }),
        }
    }

    fn passthrough(shared: Arc<Shared>, ctx: TraceContext) -> SpanGuard {
        let prev = AMBIENT.with(|a| {
            a.borrow_mut().replace(Ambient { shared: shared.clone(), ctx })
        });
        SpanGuard {
            inner: Some(GuardInner {
                shared,
                ctx,
                parent: 0,
                name: "",
                start_us: 0,
                kind: Kind::Child,
                recording: false,
                prev,
            }),
        }
    }

    /// The context downstream calls should carry: this span as parent.
    /// `None` for no-op guards (tracing off, nothing to propagate).
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|i| i.ctx)
    }

    /// End the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut inner) = self.inner.take() else { return };
        AMBIENT.with(|a| *a.borrow_mut() = inner.prev.take());
        if inner.recording {
            let end_us = inner.shared.clock.now_micros();
            inner.shared.record(InnerSpan {
                trace_id: inner.ctx.trace_id,
                span_id: inner.ctx.span_id,
                parent: inner.parent,
                name: inner.name,
                start_us: inner.start_us,
                end_us,
            });
            if matches!(inner.kind, Kind::TraceRoot | Kind::LocalRoot) {
                inner.shared.seal(inner.ctx.trace_id);
            }
            return;
        }
        // Unsampled trace root: the slow path may still export it.
        if matches!(inner.kind, Kind::TraceRoot) {
            let slow = inner.shared.slow_threshold_us.load(Ordering::Relaxed);
            if slow > 0 {
                let end_us = inner.shared.clock.now_micros();
                if end_us.saturating_sub(inner.start_us) >= slow {
                    inner.shared.record(InnerSpan {
                        trace_id: inner.ctx.trace_id,
                        span_id: inner.ctx.span_id,
                        parent: inner.parent,
                        name: inner.name,
                        start_us: inner.start_us,
                        end_us,
                    });
                    inner.shared.seal(inner.ctx.trace_id);
                }
            }
        }
    }
}

// ----------------------------------------------------- trace assembly

/// Merge span lists that share a trace id (e.g. the proxy's own spans
/// plus what each backend's `Traces` RPC returned), then [`stitch`].
pub fn merge_traces(parts: Vec<TraceRecord>) -> Vec<TraceRecord> {
    let mut by_id: std::collections::BTreeMap<u128, TraceRecord> = Default::default();
    for part in parts {
        let entry = by_id
            .entry(part.trace_id)
            .or_insert_with(|| TraceRecord { trace_id: part.trace_id, spans: Vec::new() });
        entry.spans.extend(part.spans);
    }
    let mut out: Vec<TraceRecord> = by_id.into_values().collect();
    for trace in &mut out {
        stitch(trace);
    }
    out
}

/// Align a merged cross-process trace onto one timeline.
///
/// Each process timestamps on its own clock epoch, so a backend's spans
/// land nowhere near the proxy's. For every process group whose local
/// root is parented to a span in an already-aligned group, shift the
/// whole group so its root sits centered inside the parent call span
/// (the call's duration minus the callee's, split evenly between
/// network-out and network-in). Then clamp every span into its parent's
/// interval top-down, so "child nests within parent" holds exactly —
/// alignment across processes is an estimate, containment is an
/// invariant.
pub fn stitch(trace: &mut TraceRecord) {
    if trace.spans.len() < 2 {
        return;
    }
    let ids: HashMap<u64, usize> =
        trace.spans.iter().enumerate().map(|(i, s)| (s.span_id, i)).collect();
    // Group span indices by process.
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, s) in trace.spans.iter().enumerate() {
        match groups.iter_mut().find(|(p, _)| *p == s.process) {
            Some((_, v)) => v.push(i),
            None => groups.push((s.process.clone(), vec![i])),
        }
    }
    // A group is anchored once its timeline is trusted: initially the
    // groups holding the trace root (or any span with no known parent
    // in another group).
    let group_of = |idx: usize, groups: &[(String, Vec<usize>)]| {
        groups.iter().position(|(_, v)| v.contains(&idx))
    };
    let mut anchored: Vec<bool> = groups
        .iter()
        .map(|(_, members)| {
            members.iter().any(|&i| {
                let p = trace.spans[i].parent_span_id;
                p == 0 || !ids.contains_key(&p)
            })
        })
        .collect();
    if !anchored.iter().any(|&a| a) {
        anchored[0] = true;
    }
    for _ in 0..groups.len() {
        for g in 0..groups.len() {
            if anchored[g] {
                continue;
            }
            // This group's local root: parented to a span outside it.
            let root = groups[g].1.iter().copied().find(|&i| {
                let p = trace.spans[i].parent_span_id;
                ids.get(&p).map(|&pi| group_of(pi, &groups) != Some(g)).unwrap_or(false)
            });
            let Some(root) = root else { continue };
            let parent_idx = ids[&trace.spans[root].parent_span_id];
            let Some(pg) = group_of(parent_idx, &groups) else { continue };
            if !anchored[pg] {
                continue;
            }
            let parent = &trace.spans[parent_idx];
            let child = &trace.spans[root];
            let slack = parent.duration_us().saturating_sub(child.duration_us());
            let target = parent.start_us as i128 + (slack / 2) as i128;
            let shift = target - child.start_us as i128;
            for &i in &groups[g].1 {
                let s = &mut trace.spans[i];
                s.start_us = (s.start_us as i128 + shift).max(0) as u64;
                s.end_us = (s.end_us as i128 + shift).max(0) as u64;
            }
            anchored[g] = true;
        }
    }
    // Top-down clamp: every child interval inside its parent's.
    let mut order: Vec<usize> = (0..trace.spans.len()).collect();
    order.sort_by_key(|&i| (trace.spans[i].start_us, trace.spans[i].span_id));
    // Iterate until fixed point (tree depth passes).
    for _ in 0..trace.spans.len() {
        let mut changed = false;
        for &i in &order {
            let p = trace.spans[i].parent_span_id;
            let Some(&pi) = ids.get(&p) else { continue };
            let (ps, pe) = (trace.spans[pi].start_us, trace.spans[pi].end_us);
            let s = &mut trace.spans[i];
            let ns = s.start_us.clamp(ps, pe);
            let ne = s.end_us.clamp(ns, pe);
            if (ns, ne) != (s.start_us, s.end_us) {
                s.start_us = ns;
                s.end_us = ne;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    trace.spans.sort_by_key(|s| (s.start_us, s.span_id));
}

// ------------------------------------------------------------- export

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Hand-rolled JSON export (the workspace has no serde_json). Ids render
/// as hex strings — u64/u128 overflow JSON's number range.
pub fn render_traces_json(traces: &[TraceRecord]) -> String {
    let mut out = String::from("[");
    for (ti, t) in traces.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n  {{\"trace_id\": \"{:032x}\", \"spans\": [", t.trace_id));
        for (si, s) in t.spans.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"span_id\": \"{:016x}\", \"parent_span_id\": \"{:016x}\", \
                 \"name\": \"{}\", \"process\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.span_id,
                s.parent_span_id,
                escape_json(&s.name),
                escape_json(&s.process),
                s.start_us,
                s.end_us,
            ));
        }
        out.push_str("\n  ]}");
    }
    out.push_str("\n]\n");
    out
}

/// Render one trace as an indented span tree, children under parents,
/// siblings by start time — what `orsp-top` prints.
pub fn render_trace_tree(trace: &TraceRecord) -> String {
    let ids: HashMap<u64, usize> =
        trace.spans.iter().enumerate().map(|(i, s)| (s.span_id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); trace.spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in trace.spans.iter().enumerate() {
        match ids.get(&s.parent_span_id) {
            Some(&p) if p != i => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let mut out = format!("trace {:032x}\n", trace.trace_id);
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (r, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let s = &trace.spans[i];
        out.push_str(&format!(
            "{}{} [{}] {}µs @{}\n",
            "  ".repeat(depth + 1),
            s.name,
            s.process,
            s.duration_us(),
            s.start_us,
        ));
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::Registry;

    fn registry() -> Registry {
        let r = Registry::with_clock(Arc::new(LogicalClock::new(10)));
        r.tracer().set_seed(42);
        r.tracer().set_sampling(SAMPLE_DENOMINATOR);
        r
    }

    #[test]
    fn ids_are_deterministic_from_the_seed() {
        let a = registry();
        let b = registry();
        let (ra, rb) = (a.tracer().start_root("op"), b.tracer().start_root("op"));
        assert_eq!(ra.context(), rb.context());
        assert_ne!(ra.context().unwrap().span_id, 0);
        drop((ra, rb));
        let (ta, tb) = (
            a.tracer().drain_completed(8).remove(0),
            b.tracer().drain_completed(8).remove(0),
        );
        assert_eq!(ta, tb);
    }

    #[test]
    fn nested_spans_parent_correctly_and_seal_once() {
        let r = registry();
        {
            let root = r.tracer().start_root("server/upload");
            let root_id = root.context().unwrap().span_id;
            {
                let mid = child("ingest_shard");
                assert_eq!(current().unwrap().span_id, mid.context().unwrap().span_id);
                let _leaf = child("wal_fsync");
            }
            assert_eq!(current().unwrap().span_id, root_id);
        }
        assert!(current().is_none());
        let traces = r.tracer().drain_completed(8);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.spans.len(), 3);
        let root = t.root().unwrap();
        assert_eq!(root.name, "server/upload");
        let mid = t.spans.iter().find(|s| s.name == "ingest_shard").unwrap();
        let leaf = t.spans.iter().find(|s| s.name == "wal_fsync").unwrap();
        assert_eq!(mid.parent_span_id, root.span_id);
        assert_eq!(leaf.parent_span_id, mid.span_id);
        // Logical clock: children nest strictly inside parents.
        assert!(mid.start_us >= root.start_us && mid.end_us <= root.end_us);
        assert!(leaf.start_us >= mid.start_us && leaf.end_us <= mid.end_us);
    }

    #[test]
    fn remote_context_continues_the_trace() {
        let proxy = registry();
        let backend = registry();
        backend.tracer().set_process("server");
        let wire;
        let root_id;
        {
            let root = proxy.tracer().start_root("proxy/upload");
            root_id = root.context().unwrap().span_id;
            let call = child("backend_call");
            wire = call.context().unwrap();
        }
        {
            let _remote = backend.tracer().start_remote(wire, "server/upload");
            let _f = child("wal_fsync");
        }
        let pt = proxy.tracer().drain_completed(8).remove(0);
        let bt = backend.tracer().drain_completed(8).remove(0);
        assert_eq!(pt.trace_id, bt.trace_id);
        assert_eq!(bt.root().unwrap().parent_span_id, wire.span_id);
        assert_ne!(wire.span_id, root_id);
        assert_eq!(bt.spans[0].process, "server");
    }

    #[test]
    fn unsampled_traces_record_nothing_but_propagate() {
        let r = registry();
        r.tracer().set_sampling(0);
        r.tracer().set_slow_threshold_us(1); // keep roots alive for the slow path
        {
            let root = r.tracer().start_root("op");
            let ctx = root.context().unwrap();
            assert!(!ctx.sampled);
            let c = child("inner");
            assert!(c.context().is_none(), "unsampled children are no-ops");
        }
        // Slow path: logical clock advances 10µs per read, ≥ 1µs threshold.
        let traces = r.tracer().drain_completed(8);
        assert_eq!(traces.len(), 1, "slow root exported alone");
        assert_eq!(traces[0].spans.len(), 1);
        r.tracer().set_slow_threshold_us(1_000_000);
        {
            let _root = r.tracer().start_root("op");
        }
        assert!(r.tracer().drain_completed(8).is_empty(), "fast unsampled root dropped");
    }

    #[test]
    fn sampling_rate_zero_without_slow_path_is_a_noop() {
        let r = registry();
        r.tracer().set_sampling(0);
        let root = r.tracer().start_root("op");
        assert!(root.context().is_none());
        drop(root);
        assert!(current().is_none());
        assert_eq!(r.tracer().sealed_total(), 0);
    }

    #[test]
    fn sampling_rate_is_roughly_honored() {
        let r = registry();
        r.tracer().set_sampling(5_000); // 50%
        let mut sampled = 0;
        for _ in 0..200 {
            let root = r.tracer().start_root("op");
            if root.context().unwrap().sampled {
                sampled += 1;
            }
        }
        assert!((40..=160).contains(&sampled), "got {sampled}/200 at 50%");
    }

    #[test]
    fn completed_queue_is_bounded() {
        let r = registry();
        for _ in 0..(COMPLETED_TRACES_CAP + 20) {
            let _root = r.tracer().start_root("op");
        }
        assert_eq!(r.tracer().drain_completed(usize::MAX).len(), COMPLETED_TRACES_CAP);
        assert_eq!(r.tracer().sealed_total() as usize, COMPLETED_TRACES_CAP + 20);
    }

    #[test]
    fn child_of_bridges_scoped_threads() {
        let r = registry();
        let root = r.tracer().start_root("proxy/search");
        let ctx = root.context();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(current().is_none(), "ambient does not cross threads");
                let _span = r.tracer().child_of(ctx, "backend_call");
                assert!(current().is_some());
            });
        });
        drop(root);
        let t = r.tracer().drain_completed(8).remove(0);
        assert_eq!(t.spans.len(), 2);
        let call = t.spans.iter().find(|s| s.name == "backend_call").unwrap();
        assert_eq!(call.parent_span_id, t.root().unwrap().span_id);
    }

    #[test]
    fn stitch_centers_remote_groups_and_clamps() {
        let mut trace = TraceRecord {
            trace_id: 7,
            spans: vec![
                SpanRecord {
                    span_id: 1,
                    parent_span_id: 0,
                    name: "proxy/upload".into(),
                    start_us: 1_000,
                    end_us: 2_000,
                    process: "proxy".into(),
                },
                SpanRecord {
                    span_id: 2,
                    parent_span_id: 1,
                    name: "backend_call".into(),
                    start_us: 1_100,
                    end_us: 1_900,
                    process: "proxy".into(),
                },
                // Backend clock epoch is wildly different.
                SpanRecord {
                    span_id: 3,
                    parent_span_id: 2,
                    name: "server/upload".into(),
                    start_us: 900_000,
                    end_us: 900_400,
                    process: "backend0".into(),
                },
                SpanRecord {
                    span_id: 4,
                    parent_span_id: 3,
                    name: "wal_fsync".into(),
                    start_us: 900_100,
                    end_us: 900_300,
                    process: "backend0".into(),
                },
            ],
        };
        stitch(&mut trace);
        let get = |id: u64| trace.spans.iter().find(|s| s.span_id == id).unwrap();
        let (call, srv, fsync) = (get(2), get(3), get(4));
        // Backend root centered in the call span: slack (800-400)/2 = 200.
        assert_eq!((srv.start_us, srv.end_us), (1_300, 1_700));
        assert_eq!((fsync.start_us, fsync.end_us), (1_400, 1_600));
        assert!(srv.start_us >= call.start_us && srv.end_us <= call.end_us);
        // Sorted by start.
        assert!(trace.spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
    }

    #[test]
    fn stitch_clamps_oversized_children() {
        let mut trace = TraceRecord {
            trace_id: 9,
            spans: vec![
                SpanRecord {
                    span_id: 1,
                    parent_span_id: 0,
                    name: "root".into(),
                    start_us: 100,
                    end_us: 200,
                    process: "proxy".into(),
                },
                // Remote child *longer* than its parent (clock skew).
                SpanRecord {
                    span_id: 2,
                    parent_span_id: 1,
                    name: "remote".into(),
                    start_us: 5_000,
                    end_us: 5_500,
                    process: "b".into(),
                },
            ],
        };
        stitch(&mut trace);
        let child = trace.spans.iter().find(|s| s.span_id == 2).unwrap();
        assert!(child.start_us >= 100 && child.end_us <= 200);
        assert!(child.start_us <= child.end_us);
    }

    #[test]
    fn merge_traces_joins_parts_by_id() {
        let part = |trace_id: u128, span_id: u64, process: &str| TraceRecord {
            trace_id,
            spans: vec![SpanRecord {
                span_id,
                parent_span_id: 0,
                name: "x".into(),
                start_us: 0,
                end_us: 1,
                process: process.into(),
            }],
        };
        let merged = merge_traces(vec![part(1, 10, "proxy"), part(2, 20, "proxy"), part(1, 11, "backend0")]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].spans.len(), 2);
        assert_eq!(merged[1].spans.len(), 1);
    }

    #[test]
    fn json_and_tree_renders_are_well_formed() {
        let r = registry();
        {
            let _root = r.tracer().start_root("proxy/upload");
            let _c = child("backend_call");
        }
        let traces = r.tracer().drain_completed(8);
        let json = render_traces_json(&traces);
        assert!(json.contains("\"name\": \"proxy/upload\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(render_traces_json(&[]), "[\n]\n");
        let tree = render_trace_tree(&traces[0]);
        assert!(tree.contains("proxy/upload"));
        assert!(tree.contains("\n    backend_call"), "child indented under root:\n{tree}");
    }
}
