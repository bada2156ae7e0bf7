//! The primary's replicated write path.
//!
//! [`ReplicatingSink`] is a [`WalSink`] the serving tier plugs in via
//! `set_durability_with`, replacing the bare engine: it rides the
//! existing group-commit batches unchanged. Each batch is bucketed by
//! hash range (the same `shard_index` formula as everywhere else),
//! appended to that range's own engine — one buffered write, one fsync,
//! exactly as before — and forwarded to the range's followers as one
//! cluster-internal `Replicate` RPC carrying the batch verbatim.
//! In `sync` mode the `Replicate` goes out first, the engine's write
//! and fsync run while the followers apply it, and every answer is in
//! before this sink returns, so the group-commit leader's ack (and
//! therefore every rider's `UploadAccepted`) implies the batch reached
//! the followers. The write waits for the slower flush, not for both in
//! a row. A follower may hold a batch the primary never made durable (a
//! crash between the send and the fsync); it was never acked, and its
//! retry reaches the follower as a replay the follower skips by spend
//! key.
//!
//! The per-item spend keys ride inside [`WalBatchItem`], which is what
//! makes per-range token attribution structural: a follower's range
//! engine replays to exactly the primary's store *and* ledger for that
//! range, nothing else.

use crate::node::ReplicaNode;
use orsp_server::{WalBatchItem, WalEntry, WalSink};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A [`WalSink`] that makes every durable append a replicated one.
pub struct ReplicatingSink {
    node: Arc<ReplicaNode>,
}

impl ReplicatingSink {
    /// Wrap a node's replication brain as the service's durability sink.
    pub fn new(node: Arc<ReplicaNode>) -> ReplicatingSink {
        ReplicatingSink { node }
    }
}

impl WalSink for ReplicatingSink {
    fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()> {
        self.log_upload_batch(&[WalBatchItem { spend: None, entry: *entry }])
    }

    fn log_upload_batch(&self, items: &[WalBatchItem]) -> orsp_types::Result<()> {
        // One group-commit batch can span ranges (ingest shards and
        // hash ranges partition record ids independently); bucket it so
        // each range's engine and followers see only their own records.
        // BTreeMap for a deterministic forwarding order.
        let topology = self.node.topology();
        let mut buckets: BTreeMap<u32, Vec<WalBatchItem>> = BTreeMap::new();
        for item in items {
            buckets.entry(topology.range_of(&item.entry.record_id)).or_default().push(*item);
        }
        for (range, batch) in buckets {
            self.node.replicate_batch(range, &batch)?;
        }
        Ok(())
    }
}
