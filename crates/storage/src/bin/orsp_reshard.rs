//! Offline shard-count rewrite for storage data directories.
//!
//! ```sh
//! orsp-reshard --src data/node0 --dst data/node0-resharded --shards 4
//! ```
//!
//! Reads the source exactly the way crash recovery does (read-only —
//! the source is never modified and can be kept as a rollback), writes
//! an N-shard copy into the empty `--dst` directory, cuts a checkpoint,
//! and verifies the result by recovering it and comparing state
//! digests. See `orsp_storage::reshard` for the protocol; DESIGN §9
//! for when to run it (growing or shrinking a cluster changes the
//! record-id partition, so each new backend's directory is produced by
//! resharding the old ones offline).

use orsp_storage::{reshard, FsDir, StorageOptions};
use std::sync::Arc;

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{flag} takes a value")).clone())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (src, dst) = match (arg(&args, "--src"), arg(&args, "--dst")) {
        (Some(s), Some(d)) => (s, d),
        _ => {
            eprintln!("usage: orsp-reshard --src DIR --dst DIR --shards N [--segment-bytes B]");
            std::process::exit(2);
        }
    };
    let shards: u32 =
        arg(&args, "--shards").expect("--shards N is required").parse().expect("--shards count");
    let opts = StorageOptions {
        shard_count: shards,
        max_segment_bytes: arg(&args, "--segment-bytes")
            .map(|v| v.parse().expect("--segment-bytes"))
            .unwrap_or(StorageOptions::default().max_segment_bytes),
        ..StorageOptions::default()
    };

    let src_dir = FsDir::open(&src).expect("open --src");
    let dst_dir = FsDir::open(&dst).expect("open --dst");
    match reshard(Arc::new(src_dir), Arc::new(dst_dir), opts) {
        Ok(report) => {
            println!(
                "reshard: {} -> {} shards, {} records ({} interactions), \
                 {} spent tokens, {} replayed from tails, {} torn tails tolerated",
                report.src_shards,
                report.dst_shards,
                report.records,
                report.interactions,
                report.spent_tokens,
                report.records_replayed,
                report.torn_tails,
            );
            println!("reshard: verified, state digest {:08x}", report.digest);
        }
        Err(e) => {
            eprintln!("reshard failed: {e}");
            eprintln!("the source was not modified; delete {dst} before retrying");
            std::process::exit(1);
        }
    }
}
