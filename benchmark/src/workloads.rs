//! The four workloads: set-up, checker phase, warm-up, measured window,
//! drain, state checks — and, on a traced run, the same again on the
//! in-process topology with every seam wrapped.

use crate::budget;
use crate::check::{dir_state, expected_state, Reference};
use crate::cluster::{self, preload_cluster, range_dir, replica_set, Cluster, NODES};
use crate::gen::{poisson_schedule, world_config, Dataset, FreshOp, OpStream};
use crate::host;
use crate::load::{
    backlog_growing, open_loop, premint_all, Accepted, ClientLog, Device, OpRecord, ReadCheck,
    LATENCY_LIMIT,
};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::replay;
use crate::stats::{median, Sample};
use crate::topology::{InProcCluster, SingleNode};
use crate::trace::{self, Kind, Open, Seam};
use orsp_core::{service_for_world, PipelineConfig};
use orsp_crypto::Token;
use orsp_net::{ClientConfig, NetClient};
use orsp_obs::StatsSnapshot;
use orsp_server::IngestStats;
use orsp_storage::{FsDir, StorageEngine};
use orsp_world::World;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where result files, the trace file and (under `tmp/`) the data
/// directories go, relative to the repository root `run.sh` runs from.
pub const OUT: &str = "benchmark/out";
/// Histories preloaded before the first request.
pub const HISTORIES: usize = 100_000;
/// Ops in the fixed-count checker phase before each timed window.
const CHECK_OPS: usize = 2_000;
/// Warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `ingest_open`'s offered load, uploads per second over all connections.
pub const INGEST_RATE: f64 = 500.0;
/// `mixed_fresh`'s writer, uploads per second.
const MIXED_WRITE_RATE: f64 = 500.0;
/// `mixed_fresh` republishes this often.
const PUBLISH_EVERY: Duration = Duration::from_secs(1);
/// Spans kept in the trace file.
const TRACE_FILE_SPANS: usize = 20_000;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeviceRoundtrip,
    IngestOpen,
    ReadMix,
    MixedFresh,
}

impl Workload {
    /// All four, in suite order.
    pub const ALL: [Workload; 4] = [
        Workload::DeviceRoundtrip,
        Workload::IngestOpen,
        Workload::ReadMix,
        Workload::MixedFresh,
    ];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    /// Parse a name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window (split in two on a traced run).
    pub seconds: f64,
    /// Report per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
    /// The host's bare fsync and loopback ping costs (the fingerprint's).
    pub fsync_us: f64,
    pub ping_rtt_us: f64,
}

/// What one run produced.
pub struct Outcome {
    /// Every answer, verdict, counter and final state checked out.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics this mode reports, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
    /// Extra human-readable output (the budget table).
    pub text: String,
    /// Sample counts behind the timings, for the printed report.
    pub counts: BTreeMap<&'static str, usize>,
}

/// How a client thread spends a phase.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    RoundTrip,
    Ingest,
    Reads,
}

impl Shape {
    /// The record kinds that are this workload's "op".
    fn op_kinds(self) -> &'static [Kind] {
        match self {
            Shape::RoundTrip => &[Kind::RoundTrip],
            Shape::Ingest => &[Kind::Upload],
            Shape::Reads => &[Kind::Search, Kind::Fetch],
        }
    }
}

/// Length of one slice of the measured window.
const SLICE_NS: u64 = 1_000_000_000;

/// Throughput and latency of a window, steadied: the window is cut into
/// whole one-second slices by completion time, each slice's rate, p50 and
/// p95 are taken, and the slice at the **better quartile** is reported —
/// the 75th percentile of the rates, the 25th of the latencies.
///
/// The box is a shared VM: a neighbour's burst or a stalled flush slows a
/// second, or a run of them, and nothing ever speeds one up. The better
/// quartile is the system's own speed as long as a quarter of the window
/// ran undisturbed, where a whole-window p95 (or the median slice) reads
/// the neighbour. A change to the system moves every slice, so it still
/// shows; a stall it adds to fewer than three slices in four does not —
/// that is what the whole-window `client.*_p99_us` and `*_max_us` are for.
struct Sliced {
    ops_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    /// Ops in the slices.
    n: usize,
    /// Ops in the reported slice (what its p95 rests on).
    per_slice: usize,
    /// Per slice, for the report: ops completed, p50 ms, p95 ms.
    slices: Vec<(usize, f64, f64)>,
}

/// The value at the better quartile of `values` (nearest rank).
fn better_quartile(mut values: Vec<f64>, higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| {
        if higher_is_better {
            b.total_cmp(a)
        } else {
            a.total_cmp(b)
        }
    });
    values[(values.len() as f64 * 0.25).ceil() as usize - 1]
}

impl Sliced {
    fn of<'a>(
        records: impl Iterator<Item = &'a OpRecord>,
        (start_ns, end_ns): (u64, u64),
    ) -> Sliced {
        // A window shorter than a slice is one slice.
        let slice_ns = SLICE_NS.min(end_ns.saturating_sub(start_ns).max(1));
        let mut latencies: Vec<Vec<u64>> =
            vec![Vec::new(); ((end_ns - start_ns) / slice_ns) as usize];
        for r in records {
            if r.done_ns >= start_ns {
                if let Some(slice) = latencies.get_mut(((r.done_ns - start_ns) / slice_ns) as usize)
                {
                    slice.push(r.latency_ns);
                }
            }
        }
        let slices: Vec<(usize, f64, f64)> = latencies
            .into_iter()
            .map(Sample::new)
            .map(|s| (s.len(), s.ms(0.5), s.ms(0.95)))
            .collect();
        let counts = || slices.iter().map(|s| s.0 as f64).collect::<Vec<_>>();
        Sliced {
            ops_per_s: better_quartile(counts(), true) * 1e9 / slice_ns as f64,
            p50_ms: better_quartile(slices.iter().map(|s| s.1).collect(), false),
            p95_ms: better_quartile(slices.iter().map(|s| s.2).collect(), false),
            n: slices.iter().map(|s| s.0).sum(),
            per_slice: better_quartile(counts(), true) as usize,
            slices,
        }
    }
}

impl Sliced {
    /// The slices, one per line item: what the quartiles were taken over.
    fn render(&self) -> String {
        let row = |name: &str, f: &dyn Fn(&(usize, f64, f64)) -> String| {
            format!(
                "{name:<22} {}\n",
                self.slices.iter().map(f).collect::<Vec<_>>().join(" ")
            )
        };
        format!(
            "per one-second slice of the window (the better quartile is reported):\n{}{}{}",
            row("  ops completed", &|s| s.0.to_string()),
            row("  op p50 ms", &|s| format!("{:.2}", s.1)),
            row("  op p95 ms", &|s| format!("{:.2}", s.2)),
        )
    }
}

type Pool = VecDeque<(FreshOp, Token)>;

/// What one pass over a front door measured.
struct Measured {
    /// The measured window only, and when it ran ([`trace::now_ns`]).
    window: ClientLog,
    window_span: (u64, u64),
    /// Every acknowledged upload of every phase.
    accepted: Vec<Accepted>,
    replays: u64,
    forgeries: u64,
    attempted: u64,
    failed: u64,
    /// `Stats` through the front door, after the window.
    stats: StatsSnapshot,
    /// Requests every tier handled during the window (`net_requests_total`).
    requests: u64,
    /// CPU seconds over the window: each daemon, then the generator.
    daemon_cpu: Vec<f64>,
    self_cpu: f64,
    retries: u64,
}

struct Run<'a> {
    opts: &'a Opts,
    world: World,
    root: PathBuf,
    clients: usize,
    problems: Vec<String>,
    text: String,
    /// Metric values by name, end-to-end and per-layer alike.
    values: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, usize>,
}

/// Strip a `backend<i>_` namespace, if any.
fn base_name(name: &str) -> &str {
    name.strip_prefix("backend")
        .and_then(|rest| rest.split_once('_'))
        .filter(|(index, _)| !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()))
        .map(|(_, base)| base)
        .unwrap_or(name)
}

/// Sum a counter over the front door and every backend behind it.
fn sum_counter(stats: &StatsSnapshot, base: &str) -> u64 {
    stats
        .counters
        .iter()
        .filter(|(n, _)| base_name(n) == base)
        .map(|(_, v)| v)
        .sum()
}

fn fetch_stats(addr: SocketAddr) -> StatsSnapshot {
    NetClient::connect(addr, ClientConfig::default())
        .and_then(|mut c| c.stats())
        .expect("Stats through the front door")
}

/// Run one workload.
pub fn run(opts: &Opts) -> Outcome {
    let world = World::generate(world_config(opts.seed)).expect("world generation");
    let root =
        Path::new(OUT)
            .join("tmp")
            .join(format!("{}-{}", opts.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create data root");
    let mut run = Run {
        opts,
        world,
        root: root.clone(),
        clients: host::clients(),
        problems: Vec::new(),
        text: String::new(),
        values: BTreeMap::new(),
        counts: BTreeMap::new(),
    };
    let (attempted, failed) = match opts.workload {
        Workload::MixedFresh => run.mixed(),
        _ => run.clustered(),
    };
    let correct = run.problems.is_empty();
    if correct {
        // Kept on failure, for the post-mortem.
        let _ = std::fs::remove_dir_all(&root);
    }
    // In table order; a metric the workload does not define reads 0.
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|m| (m.name, run.values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        problems: run.problems,
        text: run.text,
        counts: run.counts,
    }
}

impl Run<'_> {
    fn problem(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.problems.push(what);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().chain(END_TO_END).any(|m| m.name == name),
            "{name} is not in the tables"
        );
        self.values.insert(name, value);
    }

    /// The end-to-end metrics of a window: `op` sliced, CPU and request
    /// counters per op of the whole window (they are read at its edges,
    /// not at slice boundaries).
    fn end_to_end(
        &mut self,
        setup_s: &[f64],
        op: &Sliced,
        window_ops: usize,
        cpu_s: f64,
        requests: u64,
        rss_mib: f64,
    ) {
        let window_ops = window_ops.max(1) as f64;
        for (name, value) in [
            ("setup_s", median(setup_s)),
            ("ops_per_s", op.ops_per_s),
            ("op_p50_ms", op.p50_ms),
            ("op_p95_ms", op.p95_ms),
            ("cpu_ms_per_op", cpu_s * 1e3 / window_ops),
            ("rpcs_per_op", requests as f64 / window_ops),
            ("peak_rss_mb", rss_mib),
        ] {
            self.set(name, value);
        }
        self.counts.insert("op", op.n);
        self.counts.insert("op per slice", op.per_slice);
        self.text.push_str(&op.render());
    }

    /// The measured window: all of `--seconds`, or half on a traced run
    /// (the other half goes to the traced topology).
    fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.opts.trace {
            self.opts.seconds / 2.0
        } else {
            self.opts.seconds
        })
    }

    fn shape(&self) -> Shape {
        match self.opts.workload {
            Workload::DeviceRoundtrip => Shape::RoundTrip,
            Workload::IngestOpen => Shape::Ingest,
            Workload::ReadMix => Shape::Reads,
            Workload::MixedFresh => unreachable!("mixed_fresh has its own driver"),
        }
    }

    /// Arrival schedules for (warm-up, window), one per client, at
    /// `rate` split over `clients` connections.
    fn schedules(&self, rate: f64, clients: usize) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let per_client = rate / clients as f64;
        let make = |phase: u64, length: Duration| -> Vec<Vec<u64>> {
            (0..clients as u64)
                .map(|c| {
                    poisson_schedule(
                        self.opts.seed,
                        c * 2 + phase,
                        per_client,
                        length.as_nanos() as u64,
                    )
                })
                .collect()
        };
        (make(0, WARMUP), make(1, self.window()))
    }

    /// Pre-mint every token an open-loop workload will spend, through an
    /// in-process service's `IssueToken` (same seed ⇒ the cluster's key).
    fn premint_pools(
        &self,
        data: &Dataset,
        clients: usize,
        check_per_client: usize,
        schedules: &(Vec<Vec<u64>>, Vec<Vec<u64>>),
    ) -> Vec<Pool> {
        let mint = service_for_world(&self.world, &PipelineConfig::default());
        let public = mint.mint_public_key();
        let need = (0..clients)
            .map(|c| check_per_client + schedules.0[c].len() + schedules.1[c].len())
            .max()
            .unwrap_or(0);
        let mut streams: Vec<OpStream> = (0..clients)
            .map(|c| OpStream::new(self.opts.seed, c, clients, 1))
            .collect();
        premint_all(&mint, &public, data, &mut streams, need)
            .into_iter()
            .map(VecDeque::from)
            .collect()
    }

    // ------------------------------------------------- clustered workloads

    fn clustered(&mut self) -> (u64, u64) {
        let shape = self.shape();
        let seed = self.opts.seed;
        let clients = self.clients;
        let schedules = self.schedules(INGEST_RATE, clients);
        let check_per_client = CHECK_OPS / clients;

        // Set-up, several times over: everything between "nothing
        // exists" and "the cluster answers Ping with its inputs ready".
        let reps = if self.opts.trace { 1 } else { SETUP_REPS };
        let mut setup_s = Vec::new();
        let mut kept = None;
        for rep in 0..reps {
            let dir = self.root.join(format!("real{rep}"));
            let t = Instant::now();
            let data = Dataset::generate(&self.world, seed, HISTORIES);
            preload_cluster(&dir, &data);
            let cluster = Cluster::start(&dir, seed);
            let pools = (shape == Shape::Ingest)
                .then(|| self.premint_pools(&data, clients, check_per_client, &schedules));
            setup_s.push(t.elapsed().as_secs_f64());
            if rep + 1 < reps {
                drop(cluster);
                let _ = std::fs::remove_dir_all(&dir);
            } else {
                kept = Some((data, cluster, pools, dir));
            }
        }
        let (data, cluster, pools, dir) = kept.expect("at least one set-up");
        let reference = Reference::build(&self.world, &data);
        if self.opts.trace {
            for (name, value) in replay::run(
                &self.world,
                &data,
                &reference.service,
                &reference.expected,
                &self.root,
            ) {
                self.set(name, value);
            }
            // The replayed publish left the reference as it was: nothing
            // was uploaded to it yet.
            self.set("net.ping_rtt_us", self.opts.ping_rtt_us);
            self.set("host.fsync_us", self.opts.fsync_us);
        }

        let pids = cluster.pids();
        let disk_before = host::dir_bytes(&dir);
        let real = self.measure(
            cluster.proxy_addr,
            &data,
            &reference,
            shape,
            pools.clone(),
            &schedules,
            &pids,
        );
        let rss: f64 = pids.iter().map(|&p| host::peak_rss_mib(p)).sum();
        // Before the drain: its checkpoints rewrite the directories.
        let disk_per_upload = host::dir_bytes(&dir).saturating_sub(disk_before) as f64
            / real.accepted.len().max(1) as f64;
        cluster.drain();
        for pid in &pids {
            if cluster::process_exists(*pid) {
                self.problem(format!("daemon {pid} outlived the drain"));
            }
        }
        self.check_cluster_state(&dir, &data, &real.accepted, "real-process");
        self.check_counters(&real, "real-process");

        let op = Sliced::of(real.window.of(shape.op_kinds()), real.window_span);
        self.end_to_end(
            &setup_s,
            &op,
            real.window.of(shape.op_kinds()).count(),
            real.daemon_cpu.iter().sum::<f64>() + real.self_cpu,
            real.requests,
            rss,
        );
        let (mut attempted, mut failed) = (real.attempted, real.failed);

        if self.opts.trace {
            self.client_layers(&real.window, real.attempted, real.failed, real.retries);
            self.stats_layers(&real.stats);
            self.set("storage.disk_bytes_per_upload", disk_per_upload);
            self.set("client.cpu_s", real.self_cpu);
            self.set("proxy.cpu_s", real.daemon_cpu[NODES]);
            self.set("replica.cpu_s", real.daemon_cpu[..NODES].iter().sum());
            for (name, value) in replay::recovery(&range_dir(&dir, 0, 0)) {
                self.set(name, value);
            }

            // The same workload on the in-process topology, every seam
            // wrapped, recording only during the window.
            let traced_dir = self.root.join("traced");
            preload_cluster(&traced_dir, &data);
            let reference = Reference::build(&self.world, &data);
            let inproc = InProcCluster::start(&traced_dir, &self.world);
            let fsyncs_before = global_counter("storage_fsyncs_total");
            let traced = self.measure(
                inproc.proxy_addr,
                &data,
                &reference,
                shape,
                pools,
                &schedules,
                &[],
            );
            let fsyncs = global_counter("storage_fsyncs_total") - fsyncs_before;
            inproc.shutdown();
            self.check_cluster_state(&traced_dir, &data, &traced.accepted, "in-process");
            self.check_counters(&traced, "in-process");
            attempted += traced.attempted;
            failed += traced.failed;
            if !traced.accepted.is_empty() {
                self.set(
                    "storage.fsyncs_per_upload",
                    fsyncs as f64 / traced.accepted.len() as f64,
                );
            }
            let spans = trace::drain();
            self.span_layers(&spans, shape.op_kinds());
            let traced_op = Sliced::of(traced.window.of(shape.op_kinds()), traced.window_span);
            if op.p50_ms > 0.0 {
                self.set(
                    "trace.topology_gap_frac",
                    traced_op.p50_ms / op.p50_ms - 1.0,
                );
            }
        }
        (attempted, failed)
    }

    /// Checker phase, warm-up and measured window against one front
    /// door. `pids` are the daemons behind it (none when in-process);
    /// recording is on for the window alone.
    #[allow(clippy::too_many_arguments)]
    fn measure(
        &mut self,
        addr: SocketAddr,
        data: &Dataset,
        reference: &Reference,
        shape: Shape,
        pools: Option<Vec<Pool>>,
        schedules: &(Vec<Vec<u64>>, Vec<Vec<u64>>),
        pids: &[u32],
    ) -> Measured {
        let clients = self.clients;
        let traced = pids.is_empty() && self.opts.trace;
        let mut devices: Vec<Device> = (0..clients)
            .map(|c| {
                Device::connect(
                    addr,
                    ClientConfig::default(),
                    reference.public.clone(),
                    self.opts.seed,
                    c,
                )
            })
            .collect();
        let mut streams: Vec<OpStream> = (0..clients)
            .map(|c| OpStream::new(self.opts.seed, c, clients, 0))
            .collect();
        let mut pools: Vec<Pool> = pools.unwrap_or_else(|| vec![Pool::new(); clients]);
        let exact = ReadCheck::Exact(&reference.expected);

        // Checker: a fixed count of ops, every request mirrored onto the
        // in-memory reference, every response equal.
        let reference_before = reference.service.ingest_stats();
        for device in &mut devices {
            device.reference = Some(Arc::clone(&reference.service));
        }
        closed_phase(
            &mut devices,
            &mut streams,
            &mut pools,
            data,
            shape,
            &exact,
            |done| done >= CHECK_OPS / clients,
        );
        for device in &mut devices {
            device.reference = None;
        }
        // Same seed, same inputs: this line repeats exactly between runs.
        let stream_hash = streams
            .iter()
            .fold(0u64, |h, s| h.rotate_left(1) ^ s.hash());
        self.text.push_str(&format!(
            "op streams after the {CHECK_OPS}-op checker phase: {stream_hash:016x}\n"
        ));
        let after_check = fetch_stats(addr);
        let want = reference.service.ingest_stats();
        for (what, counter, have, had) in [
            (
                "accepted",
                "ingest_accepted_total",
                want.accepted,
                reference_before.accepted,
            ),
            (
                "double spends",
                "ingest_double_spend_total",
                want.double_spend,
                reference_before.double_spend,
            ),
            (
                "bad tokens",
                "ingest_bad_token_total",
                want.bad_token,
                reference_before.bad_token,
            ),
        ] {
            let got = sum_counter(&after_check, counter);
            if got != have - had {
                self.problem(format!(
                    "checker phase: cluster counts {got} {what}, the reference {}",
                    have - had
                ));
            }
        }
        let mut total = ClientLog::default();
        for device in &mut devices {
            total.absorb(device.take_log());
        }

        // Warm-up (discarded but for its verdicts), then the window. CPU
        // and request counters are read at the window's edges.
        let mut phase = |schedule: &[Vec<u64>], length: Duration, record: bool| {
            trace::set_enabled(record);
            let started = Instant::now();
            let started_ns = trace::now_ns();
            if shape == Shape::Ingest {
                open_phase(&mut devices, &mut pools, schedule, started);
            } else {
                let deadline = started + length;
                closed_phase(
                    &mut devices,
                    &mut streams,
                    &mut pools,
                    data,
                    shape,
                    &exact,
                    |_| Instant::now() >= deadline,
                );
            }
            trace::set_enabled(false);
            let mut log = ClientLog::default();
            for device in &mut devices {
                log.absorb(device.take_log());
            }
            (log, (started_ns, started_ns + length.as_nanos() as u64))
        };
        total.absorb(phase(&schedules.0, WARMUP, false).0);
        let requests_before = sum_counter(&fetch_stats(addr), "net_requests_total");
        let cpu_before: Vec<f64> = pids.iter().map(|&p| host::cpu_seconds(p)).collect();
        let own_before = host::cpu_seconds(std::process::id());
        let (window, window_span) = phase(&schedules.1, self.window(), traced);
        let self_cpu = host::cpu_seconds(std::process::id()) - own_before;
        let daemon_cpu: Vec<f64> = pids
            .iter()
            .zip(&cpu_before)
            .map(|(&p, before)| host::cpu_seconds(p) - before)
            .collect();
        total.absorb(window.clone());
        let stats = fetch_stats(addr);
        let requests = sum_counter(&stats, "net_requests_total") - requests_before;
        let retries = devices.iter().map(|d| d.retry_stats().retries()).sum();
        drop(devices);
        total.failed += self.open_loop_verdict(&window);
        for failure in std::mem::take(&mut total.failures) {
            self.problem(failure);
        }
        Measured {
            window_span,
            accepted: total.accepted,
            replays: total.replays,
            forgeries: total.forgeries,
            attempted: total.attempted,
            failed: total.failed,
            window,
            stats,
            requests,
            daemon_cpu,
            self_cpu,
            retries,
        }
    }

    /// Report how late an open-loop window's requests were sent. If the
    /// backlog was still growing when the window ended, the system was
    /// not keeping up with the offered rate: every op that missed the
    /// latency limit then counts as failed (returned). That is a verdict
    /// on the measurement, not on the program's answers, so it does not
    /// make the run incorrect.
    fn open_loop_verdict(&mut self, window: &ClientLog) -> u64 {
        if window.late_ns.is_empty() {
            return 0;
        }
        let late = Sample::new(window.late_ns.clone());
        self.text.push_str(&format!(
            "open loop: requests were sent p50 {:.0} us, p95 {:.0} us after their due time\n",
            late.us(0.5),
            late.us(0.95)
        ));
        if !backlog_growing(&window.late_ns) {
            return 0;
        }
        self.text.push_str(&format!(
            "open loop: the backlog was still growing when the window ended; the {} ops that \
             completed more than {} ms after their due time count as failed\n",
            window.over_limit,
            LATENCY_LIMIT.as_millis()
        ));
        window.over_limit
    }

    /// The server-side counters must equal what the generator injected,
    /// exactly, over every phase.
    fn check_counters(&mut self, m: &Measured, which: &str) {
        for (what, counter, want) in [
            (
                "accepted uploads",
                "ingest_accepted_total",
                m.accepted.len() as u64,
            ),
            ("double spends", "ingest_double_spend_total", m.replays),
            ("bad tokens", "ingest_bad_token_total", m.forgeries),
            ("promotions", "proxy_promotions_total", 0),
        ] {
            let got = sum_counter(&m.stats, counter);
            if got != want {
                self.problem(format!("{which}: {got} {what} counted, {want} generated"));
            }
        }
    }

    /// Every range's primary directory and follower copy must scan to
    /// the oracle's digest.
    fn check_cluster_state(
        &mut self,
        dir: &Path,
        data: &Dataset,
        accepted: &[Accepted],
        which: &str,
    ) {
        let want = expected_state(data, accepted, NODES);
        for (range, want) in want.iter().enumerate() {
            for node in replica_set(range) {
                let got = dir_state(&range_dir(dir, node, range));
                if got != *want {
                    self.problem(format!(
                        "{which} range {range} on node {node}: digest {:08x} over {} histories, \
                         the oracle says {:08x} over {}",
                        got.0, got.1, want.0, want.1
                    ));
                }
            }
        }
    }

    // --------------------------------------------------- per-layer metrics

    fn client_layers(&mut self, log: &ClientLog, attempted: u64, failed: u64, retries: u64) {
        let (issue, upload, search, fetch, roundtrip, late) = (
            log.sample(&[Kind::Issue]),
            log.sample(&[Kind::Upload]),
            log.sample(&[Kind::Search]),
            log.sample(&[Kind::Fetch]),
            log.sample(&[Kind::RoundTrip]),
            Sample::new(log.late_ns.clone()),
        );
        self.set("client.issue_p50_us", issue.us(0.5));
        self.set("client.issue_p99_us", issue.us(0.99));
        self.set("client.upload_p50_us", upload.us(0.5));
        self.set("client.upload_p95_us", upload.us(0.95));
        self.set("client.upload_p99_us", upload.us(0.99));
        self.set("client.search_p50_us", search.us(0.5));
        self.set("client.search_p95_us", search.us(0.95));
        self.set("client.search_p99_us", search.us(0.99));
        self.set("client.fetch_p50_us", fetch.us(0.5));
        self.set("client.fetch_p95_us", fetch.us(0.95));
        self.set("client.roundtrip_p99_us", roundtrip.us(0.99));
        self.set("client.roundtrip_max_us", roundtrip.max() as f64 / 1e3);
        self.set("client.late_p95_us", late.us(0.95));
        self.set("client.over_limit_total", log.over_limit as f64);
        self.set(
            "client.failed_frac",
            failed as f64 / attempted.max(1) as f64,
        );
        self.set("net.client_retries_total", retries as f64);
        for (name, n) in [
            ("issue", issue.len()),
            ("upload", upload.len()),
            ("search", search.len()),
            ("fetch", fetch.len()),
            ("roundtrip", roundtrip.len()),
        ] {
            self.counts.insert(name, n);
        }
    }

    /// Counters of one `Stats` snapshot, summed over every tier behind
    /// the front door (a tier that is not there reads 0).
    fn stats_layers(&mut self, stats: &StatsSnapshot) {
        for (layer, counter) in [
            ("net.shed_total", "net_shed_total"),
            ("net.protocol_errors_total", "net_protocol_errors_total"),
            ("proxy.promotions_total", "proxy_promotions_total"),
            ("server.accepted_total", "ingest_accepted_total"),
            ("server.double_spend_total", "ingest_double_spend_total"),
            ("server.bad_token_total", "ingest_bad_token_total"),
            ("replica.degraded_total", "replication_degraded_total"),
            ("replica.stale_epoch_total", "replication_fenced_total"),
        ] {
            self.set(layer, sum_counter(stats, counter) as f64);
        }
        let per_backend = |what: &str| -> Vec<f64> {
            (0..NODES)
                .map(|i| {
                    stats
                        .counter(&format!("proxy_backend{i}_{what}_total"))
                        .unwrap_or(0) as f64
                })
                .collect()
        };
        let forwarded = per_backend("forwarded");
        let total: f64 = forwarded.iter().sum();
        self.set("proxy.forwarded_total", total);
        self.set("proxy.retried_total", per_backend("retried").iter().sum());
        self.set(
            "proxy.unavailable_total",
            per_backend("unavailable").iter().sum(),
        );
        if total > 0.0 {
            let max = forwarded.iter().copied().fold(0.0, f64::max);
            self.set("proxy.route_imbalance", max / (total / NODES as f64));
        }
    }

    /// Per-layer self times from the traced window's spans, the trace
    /// file, and the printed budget.
    fn span_layers(&mut self, spans: &[trace::Span], roots: &[Kind]) {
        let a = budget::analyze(spans);
        if a.orphans > 0 {
            self.problem(format!(
                "{} spans whose parent was never recorded",
                a.orphans
            ));
        }
        let writes = [Kind::Issue, Kind::Upload];
        let reads = [Kind::Search, Kind::Fetch];
        self.set("client.blind_us", a.dur_us(Seam::Blind, &[]));
        self.set("client.unblind_us", a.dur_us(Seam::Unblind, &[]));
        let client_hop = Sample::new(
            [Seam::Issuer, Seam::ClientRpc]
                .iter()
                .flat_map(|seam| a.layers.iter().filter(move |((s, _), _)| s == seam))
                .flat_map(|(_, stat)| stat.self_ns.iter().copied())
                .collect(),
        );
        self.set("net.client_hop_us", client_hop.us(0.5));
        self.set("net.backend_hop_us", a.self_us(Seam::BackendLink, &[]));
        self.set("net.peer_hop_us", a.self_us(Seam::PeerLink, &[]));
        self.set("proxy.route_self_us", a.self_us(Seam::Proxy, &writes));
        self.set("proxy.merge_self_us", a.self_us(Seam::Proxy, &reads));
        self.set("proxy.fanout_wait_us", a.child_us(Seam::Proxy, &reads));
        self.set(
            "server.issue_self_us",
            a.self_us(Seam::Backend, &[Kind::Issue]),
        );
        self.set(
            "server.upload_self_us",
            a.self_us(Seam::Backend, &[Kind::Upload]),
        );
        self.set(
            "server.search_self_us",
            a.self_us(Seam::Backend, &[Kind::Search]),
        );
        self.set(
            "server.parts_batch_self_us",
            a.self_us(Seam::Backend, &[Kind::Parts]),
        );
        self.set("storage.commit_us", a.self_us(Seam::WalSink, &[]));
        let batches = a.batch_sizes();
        self.set("storage.batch_mean", batches.mean());
        self.set("storage.batch_p95", batches.p(0.95) as f64);
        self.set("replica.forward_us", a.dur_us(Seam::PeerLink, &[]));
        self.set(
            "replica.follower_apply_us",
            a.dur_us(Seam::Backend, &[Kind::Replicate]),
        );

        for &root in roots {
            if let Some(b) = budget::budget(spans, root) {
                self.text.push_str(&b.render());
                self.text.push('\n');
                if root == Kind::RoundTrip {
                    self.set("budget.roundtrip_sum_err_frac", b.sum_err_frac);
                }
            }
        }
        if a.layers
            .keys()
            .any(|(seam, kind)| *seam == Seam::Proxy && reads.contains(kind))
        {
            self.text.push_str(
                "(search and fetch fan out to three backends in parallel: leg rows add up \
                 to more than the whole; proxy.fanout_wait_us is the blocking share)\n\n",
            );
        }
        let path = Path::new(OUT).join(format!("{}.trace.json", self.opts.workload.name()));
        match trace::write_json(&path, spans, TRACE_FILE_SPANS) {
            Ok(()) => self.text.push_str(&format!(
                "trace: {} spans recorded, first {} in {}\n",
                spans.len(),
                spans.len().min(TRACE_FILE_SPANS),
                path.display()
            )),
            Err(e) => self.problem(format!("write {}: {e}", path.display())),
        }
    }

    // ------------------------------------------------------- mixed_fresh

    fn mixed(&mut self) -> (u64, u64) {
        let seed = self.opts.seed;
        // One writer; every other client reads (at least one).
        let readers = self.clients.saturating_sub(1).max(1);
        let clients = readers + 1;
        let (warmup_due, window_due) = self.schedules(MIXED_WRITE_RATE, 1);
        // A traced run measures two half windows on one topology.
        let windows = if self.opts.trace { 2 } else { 1 };
        let schedules = (warmup_due, window_due);
        let need = CHECK_OPS / 2 + schedules.0[0].len() + windows * schedules.1[0].len();

        let reps = if self.opts.trace { 1 } else { SETUP_REPS };
        let mut setup_s = Vec::new();
        let mut kept = None;
        for rep in 0..reps {
            let dir = self.root.join(format!("node{rep}"));
            let t = Instant::now();
            let data = Dataset::generate(&self.world, seed, HISTORIES);
            preload_single(&dir, &data);
            let node = SingleNode::start(&dir, &self.world);
            let mint = service_for_world(&self.world, &PipelineConfig::default());
            let mut stream = [OpStream::new(seed, 0, clients, 1)];
            let pool: Pool = premint_all(&mint, &mint.mint_public_key(), &data, &mut stream, need)
                .pop()
                .expect("one writer")
                .into();
            setup_s.push(t.elapsed().as_secs_f64());
            if rep + 1 < reps {
                node.shutdown();
                let _ = std::fs::remove_dir_all(&dir);
            } else {
                kept = Some((data, node, pool, dir));
            }
        }
        let (data, node, mut pool, dir) = kept.expect("at least one set-up");
        let reference = Reference::build(&self.world, &data);
        if self.opts.trace {
            for (name, value) in replay::run(
                &self.world,
                &data,
                &reference.service,
                &reference.expected,
                &self.root,
            ) {
                self.set(name, value);
            }
            self.set("net.ping_rtt_us", self.opts.ping_rtt_us);
            self.set("host.fsync_us", self.opts.fsync_us);
        }

        let mut devices: Vec<Device> = (0..clients)
            .map(|c| {
                Device::connect(
                    node.addr,
                    ClientConfig::default(),
                    reference.public.clone(),
                    seed,
                    c,
                )
            })
            .collect();
        let mut streams: Vec<OpStream> = (0..clients)
            .map(|c| OpStream::new(seed, c, clients, 0))
            .collect();

        // Checker: nothing publishes, so reads must equal the reference
        // exactly, and every upload's verdict must equal its verdict.
        let fsyncs_before = global_counter("storage_fsyncs_total");
        let reference_before = reference.service.ingest_stats();
        for device in &mut devices {
            device.reference = Some(Arc::clone(&reference.service));
        }
        let exact = ReadCheck::Exact(&reference.expected);
        std::thread::scope(|scope| {
            let (writer, reading) = devices.split_first_mut().expect("a writer");
            let pool = &mut pool;
            scope.spawn(move || {
                for _ in 0..CHECK_OPS / 2 {
                    let (op, token) = pool.pop_front().expect("pre-minted for the checker");
                    writer.upload_preminted(&op, token, None);
                }
            });
            for (device, stream) in reading.iter_mut().zip(streams[1..].iter_mut()) {
                let (data, exact) = (&data, &exact);
                scope.spawn(move || {
                    for _ in 0..CHECK_OPS / 2 / readers {
                        let op = stream.read(data);
                        device.read(data, op, exact);
                    }
                });
            }
        });
        for device in &mut devices {
            device.reference = None;
        }
        let accepted_in_check =
            reference.service.ingest_stats().accepted - reference_before.accepted;
        let got = sum_counter(&fetch_stats(node.addr), "ingest_accepted_total");
        if got != accepted_in_check {
            self.problem(format!(
                "checker phase: node counts {got} accepted, the reference {accepted_in_check}"
            ));
        }
        let mut total = ClientLog::default();
        for device in &mut devices {
            total.absorb(device.take_log());
        }

        // Warm-up, then the window (untraced; then traced, if asked).
        let at_least = ReadCheck::AtLeast(&reference.expected);
        let mut logs: Vec<MixedWindow> = Vec::new();
        let mut phases = vec![(&schedules.0[0], WARMUP, false, false)];
        phases.push((&schedules.1[0], self.window(), true, false));
        if self.opts.trace {
            phases.push((&schedules.1[0], self.window(), true, true));
        }
        let mut dirty: Vec<f64> = Vec::new();
        for (due, length, measured, traced) in phases {
            trace::set_enabled(traced);
            let requests_before = node.requests();
            let own_before = host::cpu_seconds(std::process::id());
            let started = Instant::now();
            let started_ns = trace::now_ns();
            let deadline = started + length;
            let publish_ns = std::thread::scope(|scope| {
                let (writer, reading) = devices.split_first_mut().expect("a writer");
                let pool = &mut pool;
                scope.spawn(move || {
                    let log = open_loop(started, due, |_, due_at| {
                        let (op, token) = pool.pop_front().expect("pre-minted for the window");
                        writer.upload_preminted(&op, token, Some(due_at));
                    });
                    writer.log.late_ns.extend(log.late_ns);
                });
                for (device, stream) in reading.iter_mut().zip(streams[1..].iter_mut()) {
                    let (data, at_least) = (&data, &at_least);
                    scope.spawn(move || {
                        while Instant::now() < deadline {
                            let op = stream.read(data);
                            device.read(data, op, at_least);
                        }
                    });
                }
                // The daemons never republish while serving; this is the
                // only way the publish path runs under load.
                let mut publish_ns = Vec::new();
                let mut next = started + PUBLISH_EVERY;
                while next < deadline {
                    std::thread::sleep(next.saturating_duration_since(Instant::now()));
                    let span = Open::root(0x00FF_0000_0000_0000 | publish_ns.len() as u64);
                    let t = Instant::now();
                    node.service.publish_aggregates();
                    publish_ns.push(t.elapsed().as_nanos() as u64);
                    if let Some(span) = span {
                        span.close(Seam::Publish, Kind::Other, 0, 0);
                    }
                    next += PUBLISH_EVERY;
                }
                publish_ns
            });
            trace::set_enabled(false);
            let span = (started_ns, started_ns + length.as_nanos() as u64);
            let cpu_s = host::cpu_seconds(std::process::id()) - own_before;
            let requests = node.requests() - requests_before;
            let mut log = ClientLog::default();
            for device in &mut devices {
                log.absorb(device.take_log());
            }
            if measured {
                let touched: HashSet<_> = log.accepted.iter().map(|a| a.record_id).collect();
                dirty.push(touched.len() as f64 / publish_ns.len().max(1) as f64);
                logs.push(MixedWindow {
                    log: log.clone(),
                    span,
                    cpu_s,
                    requests,
                    publish_ns,
                });
            }
            total.absorb(log);
        }
        let fsyncs = global_counter("storage_fsyncs_total") - fsyncs_before;
        let stats = fetch_stats(node.addr);
        let retries: u64 = devices.iter().map(|d| d.retry_stats().retries()).sum();
        drop(devices);
        node.shutdown();

        // Reopen: what recovery rebuilds must be the preload plus every
        // acknowledged upload, no more, no less.
        let want = expected_state(&data, &total.accepted, 1)[0];
        let got = dir_state(&dir);
        if got != want {
            self.problem(format!(
                "reopened directory: digest {:08x} over {} histories, the oracle says {:08x} over {}",
                got.0, got.1, want.0, want.1
            ));
        }
        let counted = sum_counter(&stats, "ingest_accepted_total");
        if counted != total.accepted.len() as u64 {
            self.problem(format!(
                "{counted} accepted uploads counted, {} acknowledged",
                total.accepted.len()
            ));
        }
        for window in &logs {
            total.failed += self.open_loop_verdict(&window.log);
        }
        for failure in total.failures.clone() {
            self.problem(failure);
        }

        // The reads are this workload's op: what a user waits for while
        // the node also ingests and republishes. (Pooled with the uploads,
        // p95 would sit on the seam of a two-humped distribution and move
        // with the read rate.) Upload latency is `client.upload_*`.
        const OPS: &[Kind] = &[Kind::Search, Kind::Fetch];
        let MixedWindow {
            log,
            span,
            cpu_s: cpu,
            requests,
            publish_ns,
        } = &logs[0];
        let op = Sliced::of(log.of(OPS), *span);
        let publish = Sample::new(publish_ns.clone());
        self.end_to_end(
            &setup_s,
            &op,
            log.of(OPS).count(),
            *cpu,
            *requests,
            host::peak_rss_mib(std::process::id()),
        );
        self.counts.insert("publish", publish.len());

        if self.opts.trace {
            self.client_layers(log, total.attempted, total.failed, retries);
            self.stats_layers(&stats);
            self.set("client.cpu_s", *cpu);
            self.set("aggregate.publish_p50_ms", publish.ms(0.5));
            let entities: HashSet<_> = data.histories.iter().map(|h| h.entity).collect();
            self.set("aggregate.publish_entities", entities.len() as f64);
            self.set("aggregate.publish_histories", got.1 as f64);
            self.set("aggregate.dirty_frac", median(&dirty) / got.1.max(1) as f64);
            self.set(
                "storage.fsyncs_per_upload",
                fsyncs as f64 / total.accepted.len().max(1) as f64,
            );
            for (name, value) in replay::recovery(&dir) {
                self.set(name, value);
            }
            self.span_layers(&trace::drain(), &[Kind::Upload, Kind::Search, Kind::Fetch]);
            // Same topology, same schedule, tracing off then on: the
            // difference is what the recorder costs.
            let untraced = logs[0].log.sample(&[Kind::Upload]).us(0.5);
            let traced = logs[1].log.sample(&[Kind::Upload]).us(0.5);
            if untraced > 0.0 {
                self.set("trace.overhead_frac", traced / untraced - 1.0);
            }
        }
        (total.attempted, total.failed)
    }
}

/// One measured window of `mixed_fresh`.
struct MixedWindow {
    log: ClientLog,
    span: (u64, u64),
    cpu_s: f64,
    requests: u64,
    publish_ns: Vec<u64>,
}

/// A counter of the process-wide registry (where the storage engine
/// counts; only meaningful for in-process topologies).
fn global_counter(name: &str) -> u64 {
    orsp_obs::global().snapshot().counter(name).unwrap_or(0)
}

/// The whole preload as one checkpoint in one directory.
fn preload_single(dir: &Path, data: &Dataset) {
    let store = data.stores_by_range(1).pop().expect("one range");
    let stats = IngestStats {
        accepted: data.preload_interactions(),
        ..IngestStats::default()
    };
    let (engine, _) = StorageEngine::open(
        Arc::new(FsDir::open(dir).expect("open data dir")),
        cluster::storage_options(),
    )
    .expect("fresh engine");
    engine
        .checkpoint(&store, &stats, &HashSet::new())
        .expect("preload checkpoint");
}

/// Every client runs `shape` ops until `done(ops so far)`.
fn closed_phase(
    devices: &mut [Device],
    streams: &mut [OpStream],
    pools: &mut [Pool],
    data: &Dataset,
    shape: Shape,
    check: &ReadCheck<'_>,
    done: impl Fn(usize) -> bool + Sync,
) {
    std::thread::scope(|scope| {
        for ((device, stream), pool) in devices.iter_mut().zip(streams).zip(pools) {
            let done = &done;
            scope.spawn(move || {
                let mut ops = 0;
                while !done(ops) {
                    match shape {
                        Shape::RoundTrip => device.roundtrip(&stream.fresh(data, true)),
                        Shape::Ingest => {
                            let (op, token) = pool.pop_front().expect("pre-minted tokens left");
                            device.upload_preminted(&op, token, None);
                        }
                        Shape::Reads => {
                            let op = stream.read(data);
                            device.read(data, op, check);
                        }
                    }
                    ops += 1;
                }
            });
        }
    });
}

/// Every client uploads its pre-minted ops on its arrival schedule.
fn open_phase(
    devices: &mut [Device],
    pools: &mut [Pool],
    schedules: &[Vec<u64>],
    started: Instant,
) {
    std::thread::scope(|scope| {
        for ((device, pool), due) in devices.iter_mut().zip(pools).zip(schedules) {
            scope.spawn(move || {
                let log = open_loop(started, due, |_, due_at| {
                    let (op, token) = pool.pop_front().expect("pre-minted tokens left");
                    device.upload_preminted(&op, token, Some(due_at));
                });
                device.log.late_ns.extend(log.late_ns);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_better_quartile_ignores_the_disturbed_slices() {
        // Twenty one-second slices, the middle twelve slowed tenfold.
        let mut records = Vec::new();
        for slice in 0..20u64 {
            let slow = (4..16).contains(&slice);
            let ops = if slow { 100 } else { 1_000 };
            for i in 0..ops {
                records.push(OpRecord {
                    kind: Kind::Upload,
                    done_ns: 5_000_000_000 + slice * SLICE_NS + i * (SLICE_NS / ops),
                    latency_ns: if slow {
                        10_000_000
                    } else {
                        1_000_000 + i * 1_000
                    },
                });
            }
        }
        let s = Sliced::of(records.iter(), (5_000_000_000, 25_000_000_000));
        assert_eq!(s.slices.len(), 20);
        assert_eq!(s.n, 8 * 1_000 + 12 * 100);
        assert_eq!(s.ops_per_s, 1_000.0);
        assert!((s.p50_ms - 1.5).abs() < 0.01, "{}", s.p50_ms);
        assert!((s.p95_ms - 1.95).abs() < 0.01, "{}", s.p95_ms);
        // Records outside the window, and a trailing part-slice, are left out.
        let s = Sliced::of(records.iter(), (5_000_000_000, 7_500_000_000));
        assert_eq!((s.slices.len(), s.n), (2, 2_000));
        // A window shorter than a slice is one slice.
        let s = Sliced::of(records.iter(), (5_000_000_000, 5_500_000_000));
        assert_eq!((s.slices.len(), s.ops_per_s), (1, 1_000.0));
    }

    #[test]
    fn better_quartile_is_nearest_rank_from_the_good_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(better_quartile(v.clone(), false), 5.0);
        assert_eq!(better_quartile(v, true), 16.0);
        assert_eq!(better_quartile(vec![3.0, 1.0], false), 1.0);
        assert_eq!(better_quartile(vec![3.0, 1.0], true), 3.0);
        assert_eq!(better_quartile(vec![], true), 0.0);
    }

    #[test]
    fn backend_namespaces_are_stripped_and_summed() {
        assert_eq!(
            base_name("backend12_net_requests_total"),
            "net_requests_total"
        );
        assert_eq!(base_name("net_requests_total"), "net_requests_total");
        assert_eq!(base_name("backend_x"), "backend_x");
        let stats = StatsSnapshot {
            counters: vec![
                ("backend0_ingest_accepted_total".into(), 3),
                ("backend1_ingest_accepted_total".into(), 4),
                ("ingest_accepted_total".into(), 1),
                ("proxy_backend0_forwarded_total".into(), 9),
            ],
            ..StatsSnapshot::default()
        };
        assert_eq!(sum_counter(&stats, "ingest_accepted_total"), 8);
    }
}
