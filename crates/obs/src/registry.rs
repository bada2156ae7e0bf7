//! The central metric registry.
//!
//! One [`Registry`] per scope — the process-wide [`crate::global`] for
//! pipeline stages, one per service for anything a `Stats` RPC should
//! report in isolation. Registration (name → handle) takes a lock once;
//! recording through a handle is lock-free. Snapshots are sorted by name
//! and monotonic: counters and histogram counts never move backwards
//! between two snapshots of the same registry.

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::ring::{Event, EventRing};
use crate::snapshot::{EventSnapshot, StatsSnapshot};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Default bound on the structured event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Most recent events a [`StatsSnapshot`] carries (the ring holds
/// [`DEFAULT_EVENT_CAPACITY`]; snapshots export the newest slice so the
/// wire table stays small).
pub const SNAPSHOT_EVENT_LIMIT: usize = 64;

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named-metric registry with a pluggable clock.
pub struct Registry {
    metrics: Mutex<Metrics>,
    clock: Arc<dyn Clock>,
    events: EventRing,
    tracer: Tracer,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry on the monotonic wall clock (production).
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry on an explicit clock (tests use
    /// [`crate::LogicalClock`] for bit-reproducible spans).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry {
            metrics: Mutex::new(Metrics::default()),
            tracer: Tracer::with_clock(Arc::clone(&clock)),
            clock,
            events: EventRing::new(DEFAULT_EVENT_CAPACITY),
        }
    }

    /// The registry's distributed-trace collector (same clock as spans).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The registry's clock reading (µs).
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().expect("registry poisoned");
        m.counters.entry(name.to_string()).or_insert_with(Counter::new).clone()
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("registry poisoned");
        m.gauges.entry(name.to_string()).or_insert_with(Gauge::new).clone()
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("registry poisoned");
        m.histograms.entry(name.to_string()).or_insert_with(Histogram::new).clone()
    }

    /// Start a span that records its elapsed µs into the histogram
    /// `name` when dropped. Resolves the histogram by name — hot paths
    /// should pre-resolve with [`Registry::histogram`] and use
    /// [`Registry::span_into`].
    pub fn span(&self, name: &str) -> Span {
        self.span_into(&self.histogram(name))
    }

    /// Start a span over a pre-resolved histogram handle (no lock).
    #[inline]
    pub fn span_into(&self, hist: &Histogram) -> Span {
        Span {
            start: self.clock.now_micros(),
            hist: hist.clone(),
            clock: Arc::clone(&self.clock),
        }
    }

    /// Record a structured event.
    pub fn event(&self, kind: &'static str, detail: impl Into<String>) {
        self.events.push(Event {
            at_micros: self.clock.now_micros(),
            kind,
            detail: detail.into(),
        });
    }

    /// The most recent events, oldest first (bounded; see
    /// [`DEFAULT_EVENT_CAPACITY`]).
    pub fn recent_events(&self) -> Vec<Event> {
        self.events.recent()
    }

    /// Total events ever recorded, including those the ring dropped.
    pub fn events_recorded(&self) -> u64 {
        self.events.total_pushed()
    }

    /// A point-in-time snapshot, sorted by name. Counters and histogram
    /// counts are monotonic across successive snapshots.
    pub fn snapshot(&self) -> StatsSnapshot {
        let recent = self.events.recent();
        let skip = recent.len().saturating_sub(SNAPSHOT_EVENT_LIMIT);
        let events = recent
            .into_iter()
            .skip(skip)
            .map(|e| EventSnapshot {
                at_micros: e.at_micros,
                kind: e.kind.to_string(),
                detail: e.detail,
            })
            .collect();
        let m = self.metrics.lock().expect("registry poisoned");
        StatsSnapshot {
            counters: m.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            gauges: m.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            events,
            histograms: m
                .histograms
                .iter()
                .map(|(n, h)| h.snapshot(n.clone()))
                .collect(),
        }
    }
}

/// A live span timer; records elapsed µs into its histogram on drop.
/// Obtain via [`Registry::span`] or [`Registry::span_into`].
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    hist: Histogram,
    clock: Arc<dyn Clock>,
    start: u64,
}

impl Span {
    /// End the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.clock.now_micros().saturating_sub(self.start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;

    #[test]
    fn handles_share_state_by_name() {
        let r = Registry::new();
        r.counter("hits").inc();
        r.counter("hits").add(2);
        assert_eq!(r.counter("hits").get(), 3);
        r.gauge("depth").set(9);
        assert_eq!(r.gauge("depth").get(), 9);
    }

    #[test]
    fn spans_on_a_logical_clock_are_deterministic() {
        let r = Registry::with_clock(Arc::new(LogicalClock::new(10)));
        for _ in 0..5 {
            let span = r.span("work_us");
            span.end();
        }
        let h = r.histogram("work_us");
        assert_eq!(h.count(), 5);
        // Each span: start tick, end tick, 10 µs apart — exactly.
        assert_eq!(h.sum(), 50);
        assert_eq!(h.max(), 10);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::with_clock(Arc::new(LogicalClock::new(1)));
        r.counter("b_total").inc();
        r.counter("a_total").add(5);
        r.gauge("depth").set(-2);
        r.histogram("lat_us").record(8);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_total".to_string(), 5), ("b_total".to_string(), 1)]
        );
        assert_eq!(snap.gauge("depth"), Some(-2));
        let h = snap.histogram("lat_us").unwrap();
        assert_eq!((h.count, h.sum, h.max), (1, 8, 8));
    }

    #[test]
    fn events_carry_clock_timestamps() {
        let r = Registry::with_clock(Arc::new(LogicalClock::new(3)));
        r.event("shed", "conn 1");
        r.event("shed", "conn 2");
        let events = r.recent_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at_micros, 3);
        assert_eq!(events[1].at_micros, 6);
        assert_eq!(events[0].kind, "shed");
        assert_eq!(r.events_recorded(), 2);
    }
}
