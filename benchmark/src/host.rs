//! What the numbers were measured on: host fingerprint, the bare fsync
//! cost of the data filesystem, and `/proc` readers for CPU and memory.

use crate::stats::{json_num, json_str, Sample};
use orsp_net::{ClientConfig, FrameService, NetClient, NetServer, Request, Response, ServerConfig};
use orsp_obs::{Registry, TraceContext};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Client threads (and connections) the generator runs: one process,
/// never more threads than cores.
pub fn clients() -> usize {
    nproc().min(4)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Kernel release.
pub fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").trim().to_string()
}

/// Filesystem type holding `dir`: the longest mount point that prefixes
/// its canonical path.
pub fn filesystem_of(dir: &Path) -> String {
    let path = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Commit of the checkout, when it is a git repository (the driver's
/// checkout is not; it reads `unknown`).
pub fn git_commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => {
            let direct = read(&format!(".git/{r}"));
            if !direct.trim().is_empty() {
                return direct.trim().to_string();
            }
            read(".git/packed-refs")
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .unwrap_or("unknown")
                .to_string()
        }
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Median cost (µs) of appending 128 bytes and fsyncing, on `dir`'s
/// filesystem — the floor under every durable ack.
pub fn fsync_probe_us(dir: &Path) -> f64 {
    let path = dir.join("fsync.probe");
    let mut file = std::fs::File::create(&path).expect("create fsync probe");
    let mut ns = Vec::with_capacity(64);
    for _ in 0..64 {
        let t = Instant::now();
        file.write_all(&[0u8; 128]).expect("probe write");
        file.sync_data().expect("probe fsync");
        ns.push(t.elapsed().as_nanos() as u64);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    Sample::new(ns).us(0.5)
}

/// Answers every request `Pong`: what is left is the transport.
struct Echo(Arc<Registry>);

impl FrameService for Echo {
    fn handle_traced(&self, _: Request, _: Option<TraceContext>) -> Response {
        Response::Pong
    }

    fn obs(&self) -> &Arc<Registry> {
        &self.0
    }
}

/// Median loopback `Ping` round trip (µs) through a `NetServer` that
/// does nothing else: the floor under every hop.
pub fn ping_rtt_us() -> f64 {
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::new(Echo(Arc::new(Registry::new()))),
        ServerConfig::default(),
    )
    .expect("bind the echo server");
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect to echo");
    let ns = (0..500)
        .map(|_| {
            let t = Instant::now();
            client.ping().expect("ping");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    drop(client);
    server.shutdown();
    Sample::new(ns).us(0.5)
}

/// User + system CPU seconds a process has used so far.
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = read(&format!("/proc/{pid}/stat"));
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // SC_CLK_TCK is 100 on every Linux this runs on.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    read(&format!("/proc/{pid}/status"))
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Bytes in regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The fingerprint every result carries.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub data_fs: String,
    pub fsync_us: f64,
    pub ping_rtt_us: f64,
    pub git_commit: String,
}

impl Fingerprint {
    /// Probe the host; `data_root` is where the data directories live.
    pub fn probe(data_root: &Path) -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            cpu_model: cpu_model(),
            kernel: kernel(),
            data_fs: filesystem_of(data_root),
            fsync_us: fsync_probe_us(data_root),
            ping_rtt_us: ping_rtt_us(),
            git_commit: git_commit(),
        }
    }

    /// As a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"data_fs\": {}, \
             \"host.fsync_us\": {}, \"net.ping_rtt_us\": {}, \"git_commit\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.kernel),
            json_str(&self.data_fs),
            json_num(self.fsync_us),
            json_num(self.ping_rtt_us),
            json_str(&self.git_commit),
        )
    }
}
