//! The benchmark's contract, in one table: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics with the end-to-end
//! metric each is expected to move. `BENCHMARK.json` is generated from
//! this table (`--print-benchmark-json`) and a test holds the two equal.

use crate::stats::json_str;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// One workload.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The four workloads, in suite order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "device_roundtrip",
        why: "closed loop: blind, IssueToken, unblind, Upload through proxy + 3 replicad; the unit of account, the only workload RSA signing shows on, crosses every write-path layer once",
    },
    WorkloadDef {
        name: "ingest_open",
        why: "open loop, Poisson 500 uploads/s (about 28% of the measured 1.65-2.0k/s closed-loop capacity), tokens pre-minted: admission, commit + fsync, replication do the work; a crypto-sign gain must not show",
    },
    WorkloadDef {
        name: "read_mix",
        why: "closed loop, 2 Search : 1 FetchAggregate, no writes: reads scatter to all three backends, so per-message net cost and the proxy merge dominate; a write-path change must not move it",
    },
    WorkloadDef {
        name: "mixed_fresh",
        why: "one in-process node: 500 uploads/s open loop beside closed-loop readers beside a full publish every second; the only workload that exercises publish and the swap's effect on tails",
    },
];

/// One metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median it may worsen by.
    pub bound: f64,
    /// What it measures; for a per-layer metric, also the end-to-end
    /// metric and workload it is expected to move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        note,
    }
}

/// End-to-end metrics: every workload reports every one, untraced.
/// "op" is the workload's own: a device round trip, an upload timed from
/// its due time, or a read (read_mix, mixed_fresh).
///
/// The timing bounds are wide because the box is a shared 2-core VM
/// whose speed wanders by a fifth between minutes (README, "Measured
/// steadiness"); `rpcs_per_op` is the one that repeats to the digit.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25, "dataset + preload + daemons answering Ping (+ pre-minted tokens); median of 3 set-ups"),
    e2e("ops_per_s", "op/s", "higher", 0.25, "ops completed per second; better-quartile one-second slice of the window"),
    e2e("op_p50_ms", "ms", "lower", 0.25, "median op latency; better-quartile one-second slice of the window"),
    e2e("op_p95_ms", "ms", "lower", 0.25, "95th percentile op latency; better-quartile one-second slice of the window"),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25, "CPU of every daemon plus the generator over the window, per op"),
    e2e("rpcs_per_op", "count", "lower", 0.05, "requests every tier handled (net_requests_total) per op: a count, steady where the times are not"),
    e2e("peak_rss_mb", "MiB", "lower", 0.15, "sum of VmHWM of the 4 daemons (own process for mixed_fresh)"),
];

/// Per-layer metrics: reported by the traced run. Source T = span self
/// times of the in-process traced topology, R = seam replay, S = `Stats`
/// RPC, P = /proc.
pub const PER_LAYER: &[MetricDef] = &[
    // client (device side) -> roundtrip on device_roundtrip
    layer("client.blind_us", "us", "lower", "T: BlindingSession::blind; moves op_p50_ms on device_roundtrip"),
    layer("client.unblind_us", "us", "lower", "T: unblind + verify; moves op_p50_ms on device_roundtrip"),
    layer("client.issue_p50_us", "us", "lower", "IssueToken RPC as the device sees it; device_roundtrip"),
    layer("client.issue_p99_us", "us", "lower", "tail of the same; informational"),
    layer("client.upload_p50_us", "us", "lower", "Upload RPC (from due time when open loop); op_p50_ms on ingest_open"),
    layer("client.upload_p95_us", "us", "lower", "same, p95; op_p95_ms on ingest_open, mixed_fresh"),
    layer("client.upload_p99_us", "us", "lower", "same, p99; informational"),
    layer("client.search_p50_us", "us", "lower", "Search RPC; op_p50_ms on read_mix"),
    layer("client.search_p95_us", "us", "lower", "same, p95; op_p95_ms on read_mix, mixed_fresh"),
    layer("client.search_p99_us", "us", "lower", "same, p99; informational"),
    layer("client.fetch_p50_us", "us", "lower", "FetchAggregate RPC; op_p50_ms on read_mix"),
    layer("client.fetch_p95_us", "us", "lower", "same, p95; op_p95_ms on read_mix"),
    layer("client.roundtrip_p99_us", "us", "lower", "whole round trip, p99; informational"),
    layer("client.roundtrip_max_us", "us", "lower", "whole round trip, max; informational"),
    layer("client.late_p95_us", "us", "lower", "open loop: how late the generator sent; validity of ingest_open, mixed_fresh"),
    layer("client.over_limit_total", "count", "lower", "open-loop ops completing more than 20 ms after due"),
    layer("client.failed_frac", "share", "lower", "failed ops / attempted (errors, refusals, wrong verdicts or answers)"),
    layer("client.cpu_s", "s", "lower", "P: generator CPU over the window; cpu_ms_per_op everywhere"),
    // crypto -> device_roundtrip only
    layer("crypto.sign_us", "us", "lower", "R: sign_blinded; ops_per_s, op_p50_ms on device_roundtrip, nothing elsewhere"),
    layer("crypto.verify_us", "us", "lower", "R: verify_unblinded; small share of op_p50_ms on ingest_open"),
    layer("crypto.blind_us", "us", "lower", "R: BlindingSession::blind; device_roundtrip"),
    layer("crypto.unblind_us", "us", "lower", "R: BlindingSession::unblind; device_roundtrip"),
    // net -> read_mix first
    layer("net.client_hop_us", "us", "lower", "T: client RPC span - proxy span; op_p50_ms everywhere"),
    layer("net.backend_hop_us", "us", "lower", "T: BackendLink span - backend span; op_p50_ms, ops_per_s on read_mix (>=7 hops per search)"),
    layer("net.peer_hop_us", "us", "lower", "T: PeerLink span - follower span; op_p50_ms on ingest_open"),
    layer("net.ping_rtt_us", "us", "lower", "R: loopback Ping, the transport floor"),
    layer("net.encode_upload_ns", "ns", "lower", "R: Request::encode of an upload"),
    layer("net.decode_upload_ns", "ns", "lower", "R: Request::decode of an upload"),
    layer("net.encode_search_resp_ns", "ns", "lower", "R: Response::encode of the largest search answer; read_mix"),
    layer("net.decode_search_resp_ns", "ns", "lower", "R: Response::decode of the same; read_mix"),
    layer("net.assemble_ns", "ns", "lower", "R: FrameAssembler::feed of one upload frame"),
    layer("net.frame_bytes_upload", "B", "lower", "R: bytes of one upload frame"),
    layer("net.frame_bytes_search_resp", "B", "lower", "R: bytes of the largest search answer"),
    layer("net.shed_total", "count", "lower", "S: Busy sheds on every tier; must stay 0"),
    layer("net.protocol_errors_total", "count", "lower", "S: frames that failed to parse; must stay 0"),
    layer("net.client_retries_total", "count", "lower", "generator-side retries; must stay 0"),
    // proxy -> read_mix
    layer("proxy.route_self_us", "us", "lower", "T: proxy span - BackendLink span on issue/upload; op_p50_ms on device_roundtrip"),
    layer("proxy.merge_self_us", "us", "lower", "T: proxy span - union of legs on search/fetch; op_p50_ms on read_mix"),
    layer("proxy.fanout_wait_us", "us", "lower", "T: slowest-leg wait on search/fetch; op_p95_ms on read_mix"),
    layer("proxy.merge_parts_ns", "ns", "lower", "R: merge_parts of three partials; read_mix"),
    layer("proxy.search_consensus_ns", "ns", "lower", "R: search_consensus of three lists; read_mix"),
    layer("proxy.forwarded_total", "count", "lower", "S: backend calls made"),
    layer("proxy.retried_total", "count", "lower", "S: backend calls retried; must stay 0"),
    layer("proxy.unavailable_total", "count", "lower", "S: backend calls that failed; must stay 0"),
    layer("proxy.promotions_total", "count", "lower", "S: follower promotions; must stay 0"),
    layer("proxy.route_imbalance", "ratio", "lower", "S: max / mean forwarded per backend"),
    layer("proxy.cpu_s", "s", "lower", "P: proxy CPU over the window; ops_per_s on closed loops"),
    // server -> ingest_open, read_mix
    layer("server.issue_self_us", "us", "lower", "T: issue handler (accounting + RSA sign); device_roundtrip"),
    layer("server.upload_self_us", "us", "lower", "T: upload handler - WalSink span (verify, ledger, append, commit queueing); op_p50_ms on ingest_open"),
    layer("server.search_self_us", "us", "lower", "T: search handler on one backend; read_mix"),
    layer("server.parts_batch_self_us", "us", "lower", "T: AggregateParts(Batch) handler on one backend; read_mix"),
    layer("server.admit_us", "us", "lower", "R: ShardedIngest::ingest_verified, no WAL"),
    layer("server.accepted_total", "count", "higher", "S: uploads accepted; equals the generator's count exactly"),
    layer("server.double_spend_total", "count", "lower", "S: equals injected replays exactly"),
    layer("server.bad_token_total", "count", "lower", "S: equals injected forgeries exactly"),
    // storage -> ingest_open, device_roundtrip; recovery -> setup_s
    layer("storage.commit_us", "us", "lower", "T: primary WalSink span - PeerLink span (append + fsync); op_p50_ms, op_p95_ms on ingest_open"),
    layer("storage.batch_mean", "count", "higher", "T: mean items per log_upload_batch; about 1 at <=4 connections (known blind spot)"),
    layer("storage.batch_p95", "count", "higher", "T: p95 of the same"),
    layer("storage.fsyncs_per_upload", "ratio", "lower", "traced topology: fsyncs per accepted upload, RF included"),
    layer("storage.append1_us", "us", "lower", "R: one record + fsync on FsDir"),
    layer("storage.append32_us", "us", "lower", "R: 32 records + one fsync on FsDir"),
    layer("storage.recover_cold_ms", "ms", "lower", "R: reopen a run's directory (checkpoint + log tail); setup_s"),
    layer("storage.recover_warm_ms", "ms", "lower", "R: reopen it after a checkpoint; setup_s on read_mix"),
    layer("storage.checkpoint_ms", "ms", "lower", "R: checkpoint of the same directory"),
    layer("storage.disk_bytes_per_upload", "B", "lower", "bytes added under all data directories per accepted upload, RF included"),
    layer("host.fsync_us", "us", "lower", "bare 128-byte append + fsync on the data filesystem"),
    // replica -> ingest_open, device_roundtrip
    layer("replica.forward_us", "us", "lower", "T: PeerLink span on the primary; op_p50_ms on ingest_open, device_roundtrip"),
    layer("replica.follower_apply_us", "us", "lower", "T: follower's Replicate handler (append + fsync)"),
    layer("replica.degraded_total", "count", "lower", "S: forwards a follower did not ack; must stay 0"),
    layer("replica.stale_epoch_total", "count", "lower", "S: fenced replicates; must stay 0"),
    layer("replica.cpu_s", "s", "lower", "P: CPU of the three replicad over the window"),
    // search / aggregate -> mixed_fresh
    layer("search.handle_us", "us", "lower", "R: RspService::handle(Search) direct"),
    layer("aggregate.publish_us", "us", "lower", "R: one publish_aggregates of the preload"),
    layer("aggregate.publish_p50_ms", "ms", "lower", "mixed_fresh: median publish in the window; moves op_p95_ms, ops_per_s there"),
    layer("aggregate.publish_entities", "count", "lower", "entities rebuilt per publish"),
    layer("aggregate.publish_histories", "count", "lower", "histories scanned per publish"),
    layer("aggregate.dirty_frac", "share", "lower", "histories touched since the last publish / total"),
    // validity of the numbers above
    layer("budget.roundtrip_sum_err_frac", "share", "lower", "|sum of layer mean self times - traced round trip mean| / round trip mean: spans lost or mis-parented"),
    layer("trace.overhead_frac", "share", "lower", "mixed_fresh: traced vs untraced upload p50 on one topology"),
    layer("trace.topology_gap_frac", "share", "lower", "in-process traced vs real-process untraced op p50"),
];

/// `BENCHMARK.json`, exactly the contract's keys.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn the_tables_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-"), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(names.insert(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name, 64, "_.-"), "{}", m.name);
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }
}
