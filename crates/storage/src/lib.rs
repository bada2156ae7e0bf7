//! # orsp-storage
//!
//! The RSP's durability tier: per-shard segmented append-only logs on
//! disk (reusing the OWAL record codec from `orsp-server`), a
//! CRC-guarded manifest, periodic checkpoints so recovery replays only
//! the tail, and crash recovery that tolerates exactly the damage a
//! crash can cause and refuses everything else.
//!
//! The headline invariant, proven exhaustively in
//! `tests/crash_matrix.rs`: **crash at any byte offset, recovery
//! rebuilds precisely the accepted-append prefix** — the same store a
//! clean run over that prefix produces, bit for bit.
//!
//! Layering:
//!
//! * [`Dir`] / [`SegmentFile`] — the five-operation I/O surface the
//!   engine writes through: [`FsDir`] (real files + fsync) and
//!   [`SimDir`] (deterministic in-memory disk with a [`FaultPlan`] of
//!   torn writes, short reads, and crash-at-byte-N).
//! * [`segment`] — file naming and the segment writer.
//! * [`manifest`] / [`checkpoint`] — the two small CRC-guarded file
//!   formats that record layout and snapshot state.
//! * [`StorageEngine`] — open/recover, append (implements
//!   `orsp_server::WalSink` so the ingest tier logs through it),
//!   rotate, checkpoint.
//! * [`reshard`](crate::reshard) — the offline M→N shard-count rewrite
//!   behind the `orsp-reshard` binary: read-only source scan,
//!   re-bucketed append, checkpoint rebuild, digest-verified.
//!
//! Zero external dependencies: std plus workspace crates only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod dir;
pub mod engine;
pub mod error;
pub mod manifest;
pub mod reshard;
pub mod segment;
pub mod sim;

pub use checkpoint::{decode_checkpoint, encode_checkpoint, encode_checkpoint_with_epoch};
pub use dir::{Dir, FsDir, SegmentFile};
pub use engine::{FsyncPolicy, RecoveryReport, StorageEngine, StorageOptions};
pub use error::{Result, StorageError};
pub use manifest::{load_latest, write_manifest, Manifest};
pub use reshard::{reshard, scan_source, state_digest, ReshardReport, SourceScan};
pub use segment::{
    checkpoint_name, manifest_name, parse_checkpoint_name, parse_manifest_name, parse_segment_name,
    segment_name, SegmentWriter, SEGMENT_HEADER_BYTES,
};
pub use sim::{FaultPlan, SimDir};
