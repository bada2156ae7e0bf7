//! The proxy refuses a cluster shape its backends cannot hold, exactly
//! as `orsp-replicad` does: usage on stderr naming the flag, exit 2, and
//! nothing served.

use std::process::{Command, Stdio};

#[test]
fn an_impossible_replication_factor_exits_2_naming_its_flag() {
    let cases = [
        ("4", "--replication-factor: replication factor 4 not in 1..=3\n"),
        ("0", "--replication-factor: replication factor 0 not in 1..=3\n"),
    ];
    for (rf, problem) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_orsp-proxy"))
            .args(["--backend", "127.0.0.1:9", "--backend", "127.0.0.1:10"])
            .args(["--backend", "127.0.0.1:11", "--replication-factor", rf])
            .stdin(Stdio::null())
            .output()
            .expect("run orsp-proxy");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "rf {rf}: {stderr}");
        assert!(stderr.starts_with(problem), "rf {rf}: {stderr}");
        assert!(stderr.contains("usage: orsp-proxy "), "rf {rf}: {stderr}");
        assert!(!stderr.contains("panicked"), "rf {rf}: {stderr}");
        assert!(output.stdout.is_empty(), "served anyway: {:?}", output.stdout);
    }
}
