//! `orsp-benchmark`: the device round trip through proxy + 3× replicad,
//! with a per-layer budget measured at the public seams.
//!
//! ```sh
//! benchmark/run.sh                                  # all four workloads, untraced
//! benchmark/run.sh --workload read_mix --seed 7     # one workload
//! benchmark/run.sh --workload device_roundtrip --trace 1   # per-layer run + budget
//! benchmark/run.sh --quick                          # 2 s windows, smoke test
//! benchmark/run.sh --selfcheck                      # suite twice; fail on disagreement
//! ```
//!
//! With one `--workload`, the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod budget;
mod check;
mod cluster;
mod gen;
mod host;
mod load;
mod metrics;
mod replay;
mod stats;
mod topology;
mod trace;
mod workloads;

use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{json_num, json_str};
use std::path::Path;
use workloads::{Opts, Outcome, Workload, OUT};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload device_roundtrip|ingest_open|read_mix|mixed_fresh|all] \
         [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick] [--selfcheck] \
         [--print-benchmark-json]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let name = value();
                if name != "all" {
                    args.workloads = vec![Workload::parse(&name).unwrap_or_else(|| usage())];
                }
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    if args.quick {
        args.seconds = 2.0;
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Every metric by name, with unit, direction, bound (end-to-end) or
/// what it should move (per-layer), then the budget.
fn print_report(opts: &Opts, outcome: &Outcome) {
    println!(
        "== {} seed {} window {} s {} ==",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        if opts.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        }
    );
    for (name, value) in &outcome.metrics {
        let def = table(opts.trace)
            .iter()
            .find(|m| m.name == *name)
            .expect("metric in table");
        if opts.trace {
            println!(
                "{:<32} {:>14.3} {:<6} {} better | {}",
                name, value, def.unit, def.better, def.note
            );
        } else {
            println!(
                "{:<16} {:>12.4} {:<5} {} better, bound {:.0}% | {}",
                name,
                value,
                def.unit,
                def.better,
                def.bound * 100.0,
                def.note
            );
        }
    }
    // A percentile with fewer than ten samples beyond it is one or two
    // outliers, not a tail: say which ones each sample supports.
    let counts: Vec<String> = outcome
        .counts
        .iter()
        .filter(|(_, &n)| n > 0)
        .map(|(k, &n)| format!("{k} n={n} (up to p{})", stats::highest_supported(n) * 100.0))
        .collect();
    println!("samples: {}", counts.join(", "));
    if let Some(&n) = outcome.counts.get("op") {
        if !opts.trace && !stats::supported(n, 0.95) {
            println!("NOTE: op_p95_ms has fewer than ten samples beyond it at n={n}");
        }
    }
    println!(
        "ops attempted {} failed {} (failed_frac {:.5})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    if !outcome.text.is_empty() {
        println!("\n{}", outcome.text);
    }
    for problem in &outcome.problems {
        println!("PROBLEM: {problem}");
    }
}

fn result_json(opts: &Opts, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = table(opts.trace)
                .iter()
                .find(|m| m.name == *name)
                .expect("in table")
                .unit;
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// One workload, its report, and its result file (with the fingerprint).
fn run_one(args: &Args, workload: Workload, fingerprint: &host::Fingerprint) -> (Opts, Outcome) {
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        fsync_us: fingerprint.fsync_us,
        ping_rtt_us: fingerprint.ping_rtt_us,
    };
    let mut outcome = workloads::run(&opts);
    for (name, value) in &outcome.metrics {
        // A timing or rate that reads 0 was not measured.
        if !opts.trace && (value.is_nan() || *value <= 0.0) {
            outcome.problems.push(format!("metric {name} is missing"));
            outcome.correct = false;
        }
    }
    print_report(&opts, &outcome);
    let path = Path::new(OUT).join(format!(
        "{}.{}.json",
        workload.name(),
        if opts.trace { "layers" } else { "result" }
    ));
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"window_s\": {}, \"traced\": {}, \"clients\": {}, \
         \"histories\": {}, \"host\": {}, \"result\": {}}}\n",
        json_str(workload.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        host::clients(),
        workloads::HISTORIES,
        fingerprint.json(),
        result_json(&opts, &outcome)
    );
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("could not write {}: {e}", path.display());
    }
    (opts, outcome)
}

/// The suite twice on one build: every end-to-end metric of the second
/// pass must be within its bound of the first.
fn selfcheck(args: &Args, fingerprint: &host::Fingerprint) -> bool {
    let mut ok = true;
    for &workload in &args.workloads {
        let (_, first) = run_one(args, workload, fingerprint);
        let (_, second) = run_one(args, workload, fingerprint);
        ok &= first.correct && second.correct;
        for ((name, a), (_, b)) in first.metrics.iter().zip(&second.metrics) {
            let def = END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .expect("in table");
            let apart = (a - b).abs() / a.min(*b).max(f64::MIN_POSITIVE);
            let within = apart <= def.bound;
            println!(
                "selfcheck {:<18} {:<14} {:>12.4} vs {:>12.4}  {:>5.1}% apart, bound {:.0}%  {}",
                workload.name(),
                name,
                a,
                b,
                apart * 100.0,
                def.bound * 100.0,
                if within {
                    "ok"
                } else if args.quick {
                    "apart (not enforced with --quick)"
                } else {
                    "FAIL"
                }
            );
            ok &= within || args.quick;
        }
    }
    ok
}

fn main() {
    let args = parse_args();
    let tmp = Path::new(OUT).join("tmp");
    std::fs::create_dir_all(&tmp).expect("create the output directory");
    let fingerprint = host::Fingerprint::probe(&tmp);
    println!(
        "host: {} cores, {}, kernel {}, data on {}, fsync {:.0} us, commit {}; {} client threads",
        fingerprint.nproc,
        fingerprint.cpu_model,
        fingerprint.kernel,
        fingerprint.data_fs,
        fingerprint.fsync_us,
        fingerprint.git_commit,
        host::clients()
    );
    if args.selfcheck {
        if args.trace {
            usage();
        }
        std::process::exit(if selfcheck(&args, &fingerprint) { 0 } else { 1 });
    }
    let mut all_correct = true;
    let mut last = None;
    for &workload in &args.workloads {
        let (opts, outcome) = run_one(&args, workload, &fingerprint);
        all_correct &= outcome.correct;
        last = Some(result_json(&opts, &outcome));
    }
    if let (1, Some(line)) = (args.workloads.len(), last) {
        println!("{line}");
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}
