//! # orsp-replica
//!
//! Per-range replication: the cluster survives a backend loss without
//! losing acked writes or read availability.
//!
//! The proxy's consistent-hash routing already partitions record ids
//! into `cluster_size` hash ranges (one per backend, by
//! [`orsp_server::shard_index`]). This crate adds a *replica set* per
//! range: the range's born owner plus the next `replication_factor - 1`
//! nodes in ring order. The set's membership is static; which member is
//! *primary* changes on failure.
//!
//! * [`orsp_server::Topology`] — the pure ring math (`range_of`,
//!   `replica_set`, `held_ranges`) lives in `orsp-server` beside
//!   `shard_index`, so the proxy's failover routing shares it without
//!   linking this crate and both sides agree on who may be promoted.
//! * [`peer`] — [`PeerLink`], how a node calls its replica-set peers,
//!   and [`ReplicationMode`], when a primary acks.
//! * [`ReplicaNode`] — one node's replication state: a
//!   [`StorageEngine`](orsp_storage::StorageEngine) per held range
//!   (born range in the main data dir, each followed range in its own
//!   `follow-r<r>` subdir, so every engine holds exactly one range and
//!   per-range token attribution is structural). Implements
//!   [`orsp_net::ReplicaHook`]: epoch-fenced `Replicate` apply,
//!   promote-fold into the serving store, and the `CatchUp` stream.
//! * [`ReplicatingSink`] — the primary's write path: a
//!   [`WalSink`](orsp_server::WalSink) that rides the existing
//!   group-commit batches and appends each batch to the range's own
//!   engine (one fsync). In `sync` mode it sends the batch to the
//!   range's followers first and collects their answers after its own
//!   fsync, before the client sees an ack; in `async` mode it forwards
//!   from a background queue whose depth is the replication-lag gauge.
//! * [`catchup`] — anti-entropy: a lagging replica pulls the range's
//!   authoritative state in chunks, rebuilds through the normal engine
//!   append path, and proves itself bit-identical by `state_digest`.
//!
//! ## Epoch fencing
//!
//! Each range carries a monotonically-increasing epoch, persisted in
//! the range engine's checkpoint. Promotion bumps it. A rejoining stale
//! primary's `Replicate` carries its old epoch and is refused with a
//! typed `StaleEpoch`; on seeing one the sender demotes itself and the
//! write fails closed. The inverse also fences: a `Replicate` arriving
//! *with* a higher epoch demotes a primary that missed its own
//! succession. Split-brain therefore resolves in one round trip in
//! either direction, and the demoted side rejoins via [`catchup`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catchup;
pub mod node;
pub mod peer;
pub mod sink;

pub use catchup::{catch_up_chunk, catch_up_range, probe_range, CatchUpReport, PeerStatus};
pub use node::{RangeInit, ReplicaError, ReplicaNode, Role};
pub use peer::{PeerLink, Pending, ReplicationMode};
pub use sink::ReplicatingSink;
// Kept for `benchmark/src/topology.rs`; in-tree code names `orsp_server::Topology`.
pub use orsp_server::Topology;
