//! Concurrency guarantees of the registry: handles shared across N
//! threads lose no increments, snapshots taken mid-hammer are internally
//! consistent, and repeated snapshots of monotonic metrics never go
//! backwards.

use orsp_obs::{LogicalClock, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const THREADS: usize = 8;
const INCREMENTS: u64 = 20_000;

#[test]
fn counter_increments_are_never_lost() {
    let registry = Arc::new(Registry::new());
    let counter = registry.counter("hammer_total");
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let counter = counter.clone();
            thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    counter.inc();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("hammer thread");
    }
    assert_eq!(
        registry.snapshot().counter("hammer_total"),
        Some(THREADS as u64 * INCREMENTS),
        "every increment from every thread is visible"
    );
}

#[test]
fn histogram_observations_are_never_lost() {
    let registry = Arc::new(Registry::new());
    let histogram = registry.histogram("hammer_us");
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let histogram = histogram.clone();
            thread::spawn(move || {
                for i in 0..INCREMENTS {
                    // Spread observations across buckets; thread t writes
                    // a known per-thread maximum.
                    histogram.record((t as u64 + 1) * 1000 + (i % 7));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("hammer thread");
    }
    let snapshot = registry.snapshot();
    let h = snapshot.histogram("hammer_us").expect("histogram present");
    assert_eq!(h.count, THREADS as u64 * INCREMENTS, "every observation counted");
    assert_eq!(h.max, THREADS as u64 * 1000 + 6, "exact max survives the race");
    assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max, "quantiles ordered");
}

#[test]
fn same_name_resolves_to_the_same_metric_across_threads() {
    // Registering concurrently under one name must converge on a single
    // underlying atomic, not N shadow copies.
    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let counter = registry.counter("shared_total");
                for _ in 0..INCREMENTS {
                    counter.inc();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("register thread");
    }
    assert_eq!(registry.snapshot().counter("shared_total"), Some(THREADS as u64 * INCREMENTS));
}

#[test]
fn snapshots_of_monotonic_metrics_never_go_backwards() {
    let registry = Arc::new(Registry::with_clock(Arc::new(LogicalClock::new(1))));
    let counter = registry.counter("mono_total");
    let histogram = registry.histogram("mono_us");
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..4)
        .map(|_| {
            let counter = counter.clone();
            let histogram = histogram.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    counter.inc();
                    histogram.record(i % 512);
                    i += 1;
                }
            })
        })
        .collect();

    // Snapshot repeatedly while the writers run: counts and sums must be
    // non-decreasing from one scrape to the next, and each snapshot must
    // be internally ordered.
    let mut last_count = 0u64;
    let mut last_hist_count = 0u64;
    for _ in 0..200 {
        let snapshot = registry.snapshot();
        let count = snapshot.counter("mono_total").unwrap_or(0);
        assert!(count >= last_count, "counter went backwards: {count} < {last_count}");
        last_count = count;
        let h = snapshot.histogram("mono_us").expect("histogram present");
        assert!(
            h.count >= last_hist_count,
            "histogram count went backwards: {} < {last_hist_count}",
            h.count
        );
        last_hist_count = h.count;
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max);
    }

    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().expect("writer thread");
    }
}
