//! # orsp-proxy
//!
//! The multi-node front door (DESIGN §9): a stateless TCP tier that
//! speaks the ORSP wire protocol on both sides and makes N backend RSP
//! nodes answer exactly like one.
//!
//! * [`service`] — [`ProxyService`]: consistent-hash routing for writes
//!   (`shard_index(record_id)` picks the owning hash range — the
//!   identical formula the ingest shards and storage segments use one
//!   layer down), a per-range routing table that follows fail-overs
//!   (when [`ProxyConfig::replication_factor`] > 1 the proxy promotes a
//!   live `orsp-replica` follower over a dead primary and reroutes),
//!   scatter-gather over current primaries for reads, typed
//!   [`ProxyError`] failure semantics (shedding → wire `Busy`;
//!   hard-down with no promotable replica → wire `Unavailable`;
//!   cross-backend inconsistency → wire `Error`), per-backend outcome
//!   counters and per-RPC fan-out latency histograms in an `orsp-obs`
//!   registry that the `Stats` RPC exports alongside every backend's
//!   own snapshot under `backend<i>_` keys.
//! * [`merge`] — the pure merge rules, separated from transport so the
//!   bit-identical-to-one-node claim is unit-testable: partial-aggregate
//!   union with the k-anonymity floor applied *after* the merge, strict
//!   search consensus, partial-degradation stats.
//!
//! The proxy holds no opinion data and no keys. Backends stay the
//! sovereign stores; the proxy is pure request plumbing, which is what
//! lets the paper's single-service trust model survive horizontal
//! scaling unchanged — the RSP's privacy properties live in the
//! backends and the client protocol, not in this tier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merge;
pub mod service;

pub use merge::{floored_aggregate, merge_parts, namespaced_stats, search_consensus, MergeError};
pub use service::{BackendLink, Pending, ProxyConfig, ProxyError, ProxyService};
