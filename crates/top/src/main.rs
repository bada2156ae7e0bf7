//! `orsp-top` — a live view of a running ORSP cluster.
//!
//! ```sh
//! orsp-top --addr 127.0.0.1:7400            # live, redraws every second
//! orsp-top --addr 127.0.0.1:7400 --once     # one snapshot, plain text
//! orsp-top --addr 127.0.0.1:7400 --interval-ms 250 --top 8
//! ```
//!
//! Polls the `Stats` and `Traces` RPCs of whatever the address serves —
//! usually a proxy, in which case the stats arrive already namespaced
//! per backend and the traces arrive stitched across processes. Renders
//! a per-RPC latency table, a per-backend health table, the most recent
//! structured events, and the K slowest sampled traces seen so far as
//! indented span trees. Works against a single daemon too; the backend
//! table is just empty.
//!
//! The `Traces` RPC drains: every sampled trace is handed out exactly
//! once, so `orsp-top` keeps its own leaderboard of the slowest traces
//! across polls rather than re-asking for them.

use orsp_net::{ClientConfig, NetClient, NetError};
use orsp_obs::trace::render_trace_tree;
use orsp_obs::{StatsSnapshot, TraceRecord};
use std::collections::HashMap;
use std::net::SocketAddr;

/// One slot on the slowest-traces leaderboard.
struct SlowTrace {
    duration_us: u64,
    trace: TraceRecord,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr: SocketAddr = match args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .and_then(|a| a.parse().ok())
    {
        Some(addr) => addr,
        None => {
            eprintln!("usage: orsp-top --addr ADDR [--interval-ms N] [--once] [--top K]");
            std::process::exit(2);
        }
    };
    let interval_ms: u64 = args
        .iter()
        .position(|a| a == "--interval-ms")
        .map(|i| {
            args.get(i + 1)
                .expect("--interval-ms takes a count")
                .parse()
                .expect("--interval-ms count")
        })
        .unwrap_or(1000);
    let top_k: usize = args
        .iter()
        .position(|a| a == "--top")
        .map(|i| args.get(i + 1).expect("--top takes a count").parse().expect("--top count"))
        .unwrap_or(5);
    let once = args.iter().any(|a| a == "--once");

    let mut client = NetClient::new(addr, ClientConfig::default());
    let mut slowest: Vec<SlowTrace> = Vec::new();
    let mut poll = 0u64;
    loop {
        poll += 1;
        let frame = match poll_once(&mut client, &mut slowest, top_k) {
            Ok((stats, drained)) => render(addr, poll, &stats, drained, &slowest, top_k),
            Err(e) => {
                // Drop the stream so the next tick redials from scratch.
                client = NetClient::new(addr, ClientConfig::default());
                format!("orsp-top: {addr} unreachable ({e}); retrying\n")
            }
        };
        if once {
            print!("{frame}");
            return;
        }
        // Home + clear-below beats clear-screen: no flicker on redraw.
        print!("\x1b[H\x1b[J{frame}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One Stats + Traces poll; folds drained traces into the leaderboard.
fn poll_once(
    client: &mut NetClient,
    slowest: &mut Vec<SlowTrace>,
    top_k: usize,
) -> Result<(StatsSnapshot, usize), NetError> {
    let stats = client.stats()?;
    let traces = client.traces()?;
    let drained = traces.len();
    for trace in traces {
        let duration_us = trace.root().map(|r| r.duration_us()).unwrap_or(0);
        slowest.push(SlowTrace { duration_us, trace });
    }
    slowest.sort_by(|a, b| b.duration_us.cmp(&a.duration_us));
    slowest.truncate(top_k);
    Ok((stats, drained))
}

fn render(
    addr: SocketAddr,
    poll: u64,
    stats: &StatsSnapshot,
    drained: usize,
    slowest: &[SlowTrace],
    top_k: usize,
) -> String {
    let mut out = format!("orsp-top — {addr} — poll #{poll} ({drained} new traces)\n");

    out.push_str("\nRPC LATENCY (µs)\n");
    out.push_str(&format!(
        "  {:<34} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "histogram", "count", "p50", "p90", "p99", "max"
    ));
    for h in &stats.histograms {
        if h.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<34} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            h.name, h.count, h.p50, h.p90, h.p99, h.max
        ));
    }

    // Connection health: the scraped process's own server core — the
    // event loop's slab gauges and its accept/request/shed counters;
    // `wakeups` is server-thread wake-ups with an event, about one per
    // request.
    let open = stats.gauge("net_open_connections").unwrap_or(0);
    let high = stats.gauge("net_slab_high_water").unwrap_or(0);
    if stats.counter("net_accepted_total").is_some() {
        out.push_str("\nCONNECTIONS\n");
        out.push_str(&format!(
            "  {:<8} {:>10} {:>9} {:>9} {:>8} {:>9} {:>10} {:>9}\n",
            "open",
            "high-water",
            "accepted",
            "requests",
            "shed",
            "deadline",
            "wakeups",
            "proto-err"
        ));
        out.push_str(&format!(
            "  {:<8} {:>10} {:>9} {:>9} {:>8} {:>9} {:>10} {:>9}\n",
            open,
            high,
            stats.counter("net_accepted_total").unwrap_or(0),
            stats.counter("net_requests_total").unwrap_or(0),
            stats.counter("net_shed_total").unwrap_or(0),
            stats.counter("net_deadline_closed_total").unwrap_or(0),
            stats.counter("net_readiness_wakeups_total").unwrap_or(0),
            stats.counter("net_protocol_errors_total").unwrap_or(0),
        ));
    }

    let backends = backend_rows(stats);
    if !backends.is_empty() {
        // The table is built from the proxy's *own* counters and gauges,
        // so every backend keeps its row — including one whose Stats
        // scrape just failed (it simply shows a non-zero `unreach` and
        // stale last-known numbers elsewhere).
        out.push_str("\nBACKENDS\n");
        out.push_str(&format!(
            "  {:<8} {:>9} {:>9} {:>8} {:>9} {:>12} {:>8} {:>8} {:>8} {:>6}\n",
            "backend",
            "forwarded",
            "attempts",
            "busy",
            "timeouts",
            "disconnects",
            "stale",
            "unreach",
            "failover",
            "lag"
        ));
        for (id, row) in backends {
            let failover = row.get("read_failover").copied().unwrap_or(0)
                + row.get("write_failover").copied().unwrap_or(0);
            let lag = stats.gauge(&format!("backend{id}_replication_lag")).unwrap_or(0);
            out.push_str(&format!(
                "  {:<8} {:>9} {:>9} {:>8} {:>9} {:>12} {:>8} {:>8} {:>8} {:>6}\n",
                id,
                row.get("forwarded").copied().unwrap_or(0),
                row.get("attempts").copied().unwrap_or(0),
                row.get("busy").copied().unwrap_or(0),
                row.get("timeouts").copied().unwrap_or(0),
                row.get("disconnects").copied().unwrap_or(0),
                row.get("stale_reconnects").copied().unwrap_or(0),
                row.get("unreachable").copied().unwrap_or(0),
                failover,
                lag,
            ));
        }
    }

    let ranges = range_rows(stats);
    if !ranges.is_empty() {
        out.push_str("\nRANGES\n");
        out.push_str(&format!("  {:<6} {:>8} {:>7}  {}\n", "range", "primary", "epoch", ""));
        for (range, primary, epoch) in ranges {
            let note = if primary == range as i64 {
                String::new()
            } else {
                format!("failed over (born {range})")
            };
            out.push_str(&format!("  {range:<6} {primary:>8} {epoch:>7}  {note}\n"));
        }
    }

    if !stats.events.is_empty() {
        out.push_str("\nRECENT EVENTS\n");
        let skip = stats.events.len().saturating_sub(8);
        for e in &stats.events[skip..] {
            out.push_str(&format!("  @{:<12} {:<28} {}\n", e.at_micros, e.kind, e.detail));
        }
    }

    out.push_str(&format!("\nSLOWEST TRACES (top {top_k}, since start)\n"));
    if slowest.is_empty() {
        out.push_str("  (none sampled yet)\n");
    }
    for s in slowest {
        out.push_str(&format!("  {}µs ", s.duration_us));
        // Indent the tree under its duration header.
        let tree = render_trace_tree(&s.trace);
        for (i, line) in tree.lines().enumerate() {
            if i == 0 {
                out.push_str(line);
                out.push('\n');
            } else {
                out.push_str(&format!("  {line}\n"));
            }
        }
    }
    out
}

/// Fold `proxy_backend{i}_*` and `backend{i}_unreachable` counters into
/// one row per backend id. Rows come from the proxy's own registry —
/// `proxy_backend{i}_forwarded_total` exists for every backend from the
/// first snapshot — so a backend whose scrape failed this poll still
/// renders instead of vanishing from the table.
fn backend_rows(stats: &StatsSnapshot) -> Vec<(u64, HashMap<&'static str, u64>)> {
    const CLIENT_FIELDS: &[&str] =
        &["attempts", "busy", "timeouts", "disconnects", "exhausted", "stale_reconnects"];
    const PROXY_FIELDS: &[&str] = &["forwarded", "read_failover", "write_failover"];
    let mut rows: HashMap<u64, HashMap<&'static str, u64>> = HashMap::new();
    for (name, value) in &stats.counters {
        if let Some(rest) = name.strip_prefix("proxy_backend") {
            for field in CLIENT_FIELDS {
                let suffix = format!("_client_{field}_total");
                if let Some(id) = rest.strip_suffix(suffix.as_str()) {
                    if let Ok(id) = id.parse::<u64>() {
                        rows.entry(id).or_default().insert(field, *value);
                    }
                }
            }
            for field in PROXY_FIELDS {
                let suffix = format!("_{field}_total");
                if let Some(id) = rest.strip_suffix(suffix.as_str()) {
                    if let Ok(id) = id.parse::<u64>() {
                        rows.entry(id).or_default().insert(field, *value);
                    }
                }
            }
        } else if let Some(rest) = name.strip_prefix("backend") {
            if let Some(id) = rest.strip_suffix("_unreachable") {
                if let Ok(id) = id.parse::<u64>() {
                    rows.entry(id).or_default().insert("unreachable", *value);
                }
            }
        }
    }
    let mut out: Vec<(u64, HashMap<&'static str, u64>)> = rows.into_iter().collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

/// Fold the proxy's `proxy_range{r}_primary` / `proxy_range{r}_epoch`
/// routing gauges into `(range, primary, epoch)` rows — the per-range
/// view of who serves what and at which fencing epoch.
fn range_rows(stats: &StatsSnapshot) -> Vec<(u64, i64, i64)> {
    let mut rows: HashMap<u64, (Option<i64>, Option<i64>)> = HashMap::new();
    for (name, value) in &stats.gauges {
        if let Some(rest) = name.strip_prefix("proxy_range") {
            if let Some(id) = rest.strip_suffix("_primary") {
                if let Ok(id) = id.parse::<u64>() {
                    rows.entry(id).or_default().0 = Some(*value);
                }
            } else if let Some(id) = rest.strip_suffix("_epoch") {
                if let Ok(id) = id.parse::<u64>() {
                    rows.entry(id).or_default().1 = Some(*value);
                }
            }
        }
    }
    let mut out: Vec<(u64, i64, i64)> = rows
        .into_iter()
        .map(|(r, (primary, epoch))| (r, primary.unwrap_or(r as i64), epoch.unwrap_or(0)))
        .collect();
    out.sort_by_key(|(r, _, _)| *r);
    out
}
