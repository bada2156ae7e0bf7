//! # orsp-server
//!
//! The RSP's backend, implementing the server half of §4.2 and all of
//! §4.3:
//!
//! * [`store`] — the anonymous history store: append-only records keyed by
//!   opaque `hash(Ru, e)` ids. **There is deliberately no
//!   retrieve-by-record-id in the client-facing API** — "the RSP's service
//!   only need support requests to update histories but not to retrieve
//!   them" — which is what makes a leaked `Ru` useless to a thief.
//! * [`sharded_ingest`] — admission control, once: verify token → spend
//!   → validate record → append → log. [`ShardedIngest`] is the only
//!   engine; the daemons call it per RPC and the in-process pipeline
//!   drives it through [`deterministic_ingest`]. [`ingest`] holds the
//!   store + counters container and the sequential reference the tests
//!   compare it against.
//! * [`profile`] — the *typical user* model of §4.3: quantile profiles of
//!   inter-interaction gaps, durations, and interaction counts, built by
//!   merging all stored histories per category.
//! * [`fraud`] — the detector: scores each history against the typical
//!   profile and discards outliers ("discarding interaction histories
//!   that significantly deviate from the activity patterns of the typical
//!   user").
//! * [`aggregates`] — the privacy-preserving egress: per-entity summaries
//!   (visit counts, distinct-history counts, effort statistics) that
//!   reveal "no information about any individual user".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod attest_gate;
pub mod fraud;
pub mod ingest;
pub mod lockorder;
pub mod profile;
pub mod sharded;
pub mod sharded_ingest;
pub mod store;
pub mod wal;

pub use aggregates::{
    AggregateParts, AggregatePublisher, EntityAggregate, SupportParts, MIN_AGGREGATE_SUPPORT,
};
pub use attest_gate::{AttestationGate, GateOutcome};
pub use fraud::{FraudDetector, FraudVerdict};
pub use ingest::{IngestService, IngestStats, RejectReason};
pub use profile::{CategoryProfile, HistoryStats, ProfileBuilder, Quantiles};
pub use sharded::{deterministic_ingest, shard_index};
pub use sharded_ingest::{GroupCommitConfig, IngestOutcome, ShardedIngest};
pub use store::{HistoryStore, StoredHistory};
pub use wal::{
    crc32, encode_batch_item, encode_record, encode_token_spend, replay, wal_header, Replay,
    WalBatchItem, WalEntry, WalFault, WalSink, WAL_HEADER_LEN, WAL_RECORD_LEN,
    WAL_TOKEN_RECORD_LEN,
};
