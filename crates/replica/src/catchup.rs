//! Anti-entropy catch-up: a lagging replica pulls a range's
//! authoritative state and proves itself bit-identical.
//!
//! The stream reuses the reshard tool's deterministic read-only scan
//! ([`scan_source`]): records in sorted record-id order, then spent
//! token keys in sorted order, chunked under the wire's frame cap. The
//! final chunk carries the server's [`state_digest`] — the CRC of the
//! canonical epoch-free checkpoint encoding — computed with *default*
//! ingest stats on both sides: reject counters are node-local noise
//! (each node refused different duplicates), deliberately outside the
//! replication contract. What replicates is the store and the ledger.
//!
//! The puller rebuilds through the normal engine append path (exactly
//! the reshard idiom: verify from the logs alone *before* the first
//! checkpoint), so a power cut at any instant leaves a state the next
//! attempt recovers from or wipes — never a half-trusted checkpoint.
//!
//! Each chunk re-scans the source directory, so a primary that keeps
//! taking writes mid-stream can shift the sorted order under the
//! cursor. The digest check catches every such race; the puller
//! retries, and converges as soon as it gets one quiescent pass. This
//! trades a bounded number of re-pulls for zero coordination with the
//! write path — catch-up never blocks uploads.

use crate::node::ReplicaError;
use crate::peer::PeerLink;
use orsp_net::{CatchRecord, NetError, Request, Response};
use orsp_server::{IngestStats, WalEntry};
use orsp_storage::{scan_source, state_digest, Dir, StorageEngine, StorageOptions};
use orsp_types::RecordId;
use std::sync::Arc;

/// Most records per `CatchUpChunk` (each is a whole history; with the
/// wire's 1 MiB frame cap this leaves room for long histories).
const RECORDS_PER_CHUNK: usize = 256;
/// Most token keys per chunk (32 bytes each).
const TOKENS_PER_CHUNK: usize = 2048;
/// Catch-up attempts before giving up: each failed pass means the
/// primary wrote mid-stream, so one quiescent instant suffices.
const MAX_ATTEMPTS: usize = 3;

/// What a peer said about a range, from a zero-cost probe (a `CatchUp`
/// at an end-of-stream cursor returns the final chunk immediately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerStatus {
    /// The peer's replication epoch for the range.
    pub epoch: u64,
    /// Whether the peer currently serves the range as primary.
    pub primary: bool,
    /// The peer's `state_digest` over the range.
    pub digest: u32,
}

/// What one [`catch_up_range`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUpReport {
    /// Histories now held for the range.
    pub records: usize,
    /// Spent-token keys now held for the range.
    pub tokens: usize,
    /// The epoch adopted from the peer.
    pub epoch: u64,
    /// The digest both sides now agree on.
    pub digest: u32,
    /// True iff the local state diverged and was wiped and rebuilt
    /// (false: already bit-identical, only the epoch was adopted).
    pub rebuilt: bool,
    /// Whether the peer served as primary.
    pub peer_primary: bool,
}

/// Serve one chunk of a range's catch-up stream from its directory.
/// Shared by [`crate::ReplicaNode`] and tests (which fake the wire but
/// must not fake the chunking).
pub fn catch_up_chunk(
    dir: &dyn Dir,
    epoch: u64,
    primary: bool,
    cursor: u64,
) -> orsp_storage::Result<Response> {
    let scan = scan_source(dir)?;
    let mut records: Vec<(RecordId, &orsp_server::StoredHistory)> =
        scan.store.iter().map(|(id, s)| (*id, s)).collect();
    records.sort_by_key(|(id, _)| *id.as_bytes());
    let mut tokens: Vec<[u8; 32]> = scan.spent_tokens.iter().copied().collect();
    tokens.sort_unstable();

    let total = records.len() as u64 + tokens.len() as u64;
    let mut pos = cursor.min(total);
    let mut out_records = Vec::new();
    while (pos as usize) < records.len() && out_records.len() < RECORDS_PER_CHUNK {
        let (id, stored) = &records[pos as usize];
        out_records.push(CatchRecord {
            record_id: *id,
            entity: stored.entity,
            interactions: stored.history.records().to_vec(),
        });
        pos += 1;
    }
    let mut out_tokens = Vec::new();
    if out_records.len() < RECORDS_PER_CHUNK {
        while pos < total && out_tokens.len() < TOKENS_PER_CHUNK {
            out_tokens.push(tokens[(pos - records.len() as u64) as usize]);
            pos += 1;
        }
    }
    let done = pos >= total;
    let digest = if done {
        state_digest(&scan.store, &IngestStats::default(), &scan.spent_tokens)
    } else {
        0
    };
    Ok(Response::CatchUpChunk {
        epoch,
        primary,
        done,
        digest,
        next_cursor: pos,
        records: out_records,
        tokens: out_tokens,
    })
}

/// Ask a peer where it stands on `range` without pulling any data: the
/// rejoin probe a restarting node runs before deciding its own role.
pub fn probe_range(peer: &dyn PeerLink, range: u32) -> Result<PeerStatus, ReplicaError> {
    match peer.call(&Request::CatchUp { range, cursor: u64::MAX })? {
        Response::CatchUpChunk { epoch, primary, done: true, digest, .. } => {
            Ok(PeerStatus { epoch, primary, digest })
        }
        Response::Unavailable { detail } => Err(ReplicaError::Net(NetError::Unavailable(detail))),
        Response::Error { detail } => Err(ReplicaError::Protocol(detail)),
        other => Err(ReplicaError::Protocol(format!("probe got {other:?}"))),
    }
}

/// Pull `range`'s full state from `peer` into `dir`, adopt the peer's
/// epoch, and prove the result bit-identical by `state_digest`.
///
/// If the local directory already digests identically, only the epoch
/// is adopted (and made durable by a checkpoint). Otherwise the
/// directory is wiped and rebuilt through the normal engine append
/// path, verified from the logs alone, then checkpointed — the exact
/// reshard discipline, so a crash anywhere in between is recoverable
/// (the next attempt finds a digest mismatch and rebuilds again).
pub fn catch_up_range(
    peer: &dyn PeerLink,
    range: u32,
    dir: Arc<dyn Dir>,
    options: StorageOptions,
) -> Result<CatchUpReport, ReplicaError> {
    let mut last = None;
    for _ in 0..MAX_ATTEMPTS {
        match attempt(peer, range, Arc::clone(&dir), options) {
            Err(ReplicaError::DigestMismatch { ours, theirs }) => {
                last = Some(ReplicaError::DigestMismatch { ours, theirs });
            }
            other => return other,
        }
    }
    Err(last.expect("at least one attempt ran"))
}

fn attempt(
    peer: &dyn PeerLink,
    range: u32,
    dir: Arc<dyn Dir>,
    options: StorageOptions,
) -> Result<CatchUpReport, ReplicaError> {
    // Pull the whole stream first; the final chunk's digest is the
    // contract every later step is checked against.
    let mut cursor = 0u64;
    let mut records: Vec<CatchRecord> = Vec::new();
    let mut tokens: Vec<[u8; 32]> = Vec::new();
    let (epoch, peer_primary, digest) = loop {
        match peer.call(&Request::CatchUp { range, cursor })? {
            Response::CatchUpChunk {
                epoch,
                primary,
                done,
                digest,
                next_cursor,
                records: r,
                tokens: t,
            } => {
                records.extend(r);
                tokens.extend(t);
                if done {
                    break (epoch, primary, digest);
                }
                if next_cursor <= cursor {
                    return Err(ReplicaError::Protocol(format!(
                        "catch-up cursor stuck at {cursor}"
                    )));
                }
                cursor = next_cursor;
            }
            Response::Unavailable { detail } => {
                return Err(ReplicaError::Net(NetError::Unavailable(detail)))
            }
            Response::Error { detail } => return Err(ReplicaError::Protocol(detail)),
            other => return Err(ReplicaError::Protocol(format!("catch-up got {other:?}"))),
        }
    };

    // Already identical? Adopt the epoch durably and stop — the common
    // rejoin-after-clean-shutdown case costs one recovery and a
    // checkpoint. Recovery (not a bare scan) so a virgin directory is
    // initialized instead of rejected for its missing manifest.
    let (engine, report) = StorageEngine::open(Arc::clone(&dir), options)?;
    let local_digest =
        state_digest(&report.store, &IngestStats::default(), &report.spent_tokens);
    if local_digest == digest {
        engine.set_epoch(epoch);
        engine.checkpoint(&report.store, &report.stats, &report.spent_tokens)?;
        return Ok(CatchUpReport {
            records: report.store.len(),
            tokens: report.spent_tokens.len(),
            epoch,
            digest,
            rebuilt: false,
            peer_primary,
        });
    }

    // Diverged: wipe and rebuild through the normal append path.
    drop(engine);
    for name in dir.list()? {
        dir.delete(&name)?;
    }
    let (engine, _) = StorageEngine::open(Arc::clone(&dir), options)?;
    for rec in &records {
        for interaction in &rec.interactions {
            engine
                .append(&WalEntry {
                    record_id: rec.record_id,
                    entity: rec.entity,
                    interaction: *interaction,
                })
                .map_err(ReplicaError::Storage)?;
        }
    }
    for key in &tokens {
        engine.append_token_spend(key).map_err(ReplicaError::Storage)?;
    }
    engine.sync_all().map_err(ReplicaError::Storage)?;

    // Verify from the logs alone before trusting anything to a
    // checkpoint: reopen the directory as recovery would and compare.
    let rebuilt = scan_source(dir.as_ref())?;
    let ours = state_digest(&rebuilt.store, &IngestStats::default(), &rebuilt.spent_tokens);
    if ours != digest {
        return Err(ReplicaError::DigestMismatch { ours, theirs: digest });
    }
    engine.set_epoch(epoch);
    engine.checkpoint(&rebuilt.store, &rebuilt.stats, &rebuilt.spent_tokens)?;
    Ok(CatchUpReport {
        records: rebuilt.store.len(),
        tokens: rebuilt.spent_tokens.len(),
        epoch,
        digest,
        rebuilt: true,
        peer_primary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_storage::{FsyncPolicy, SimDir};
    use orsp_types::{EntityId, Interaction, InteractionKind, SimDuration, Timestamp};
    use std::sync::Mutex;

    fn rid(n: u8) -> RecordId {
        RecordId::from_bytes([n; 32])
    }

    fn rid16(n: u16) -> RecordId {
        let mut bytes = [0u8; 32];
        bytes[..2].copy_from_slice(&n.to_le_bytes());
        RecordId::from_bytes(bytes)
    }

    fn visit(t: i64) -> Interaction {
        Interaction::solo(
            InteractionKind::Visit,
            Timestamp::from_seconds(t),
            SimDuration::minutes(20),
            150.0,
        )
    }

    fn opts() -> StorageOptions {
        StorageOptions {
            shard_count: 2,
            max_segment_bytes: 512,
            fsync: FsyncPolicy::Always,
            ..StorageOptions::default()
        }
    }

    /// Populate a "primary" directory with a few histories and tokens.
    fn primary_dir(n: u8) -> SimDir {
        let dir = SimDir::new();
        let (engine, _) =
            StorageEngine::open(Arc::new(dir.clone()) as Arc<dyn Dir>, opts()).unwrap();
        for i in 0..n {
            engine
                .append(&WalEntry {
                    record_id: rid(i),
                    entity: EntityId::new(u64::from(i % 3)),
                    interaction: visit(i64::from(i) * 100),
                })
                .unwrap();
            engine
                .append(&WalEntry {
                    record_id: rid(i),
                    entity: EntityId::new(u64::from(i % 3)),
                    interaction: visit(i64::from(i) * 100 + 50),
                })
                .unwrap();
            engine.append_token_spend(&[i; 32]).unwrap();
        }
        engine.sync_all().unwrap();
        dir
    }

    /// A peer serving real chunks from a directory over a fake wire.
    struct DirPeer {
        dir: SimDir,
        epoch: u64,
        calls: Mutex<u64>,
    }

    impl PeerLink for DirPeer {
        fn call(&self, request: &Request) -> Result<Response, NetError> {
            *self.calls.lock().unwrap() += 1;
            match request {
                Request::CatchUp { cursor, .. } => {
                    Ok(catch_up_chunk(&self.dir, self.epoch, true, *cursor)
                        .expect("serve chunk"))
                }
                other => panic!("unexpected request {other:?}"),
            }
        }

        fn label(&self) -> String {
            "dir-peer".into()
        }
    }

    fn digest_of(dir: &SimDir) -> u32 {
        let scan = scan_source(dir).unwrap();
        state_digest(&scan.store, &IngestStats::default(), &scan.spent_tokens)
    }

    #[test]
    fn probe_reads_status_without_pulling_data() {
        let peer = DirPeer { dir: primary_dir(9), epoch: 4, calls: Mutex::new(0) };
        let status = probe_range(&peer, 0).unwrap();
        assert_eq!(status.epoch, 4);
        assert!(status.primary);
        assert_eq!(status.digest, digest_of(&peer.dir));
        assert_eq!(*peer.calls.lock().unwrap(), 1, "a probe is one round trip");
    }

    #[test]
    fn empty_follower_rebuilds_bit_identically() {
        let peer = DirPeer { dir: primary_dir(12), epoch: 7, calls: Mutex::new(0) };
        let follower = SimDir::new();
        let report = catch_up_range(
            &peer,
            0,
            Arc::new(follower.clone()) as Arc<dyn Dir>,
            opts(),
        )
        .unwrap();
        assert!(report.rebuilt);
        assert_eq!(report.records, 12);
        assert_eq!(report.tokens, 12);
        assert_eq!(report.epoch, 7);
        assert_eq!(digest_of(&follower), digest_of(&peer.dir), "bit-identical state");
        // The adopted epoch is durable: recovery reads it back.
        let (_, recovered) =
            StorageEngine::open(Arc::new(follower) as Arc<dyn Dir>, opts()).unwrap();
        assert_eq!(recovered.epoch, 7);
    }

    #[test]
    fn identical_follower_adopts_epoch_without_rebuilding() {
        let peer = DirPeer { dir: primary_dir(6), epoch: 3, calls: Mutex::new(0) };
        // The follower already holds the identical state (a clone of
        // the same simulated disk).
        let follower = peer.dir.reopen();
        let report =
            catch_up_range(&peer, 0, Arc::new(follower.clone()) as Arc<dyn Dir>, opts())
                .unwrap();
        assert!(!report.rebuilt, "identical state must not be wiped");
        assert_eq!(report.epoch, 3);
        let (_, recovered) =
            StorageEngine::open(Arc::new(follower) as Arc<dyn Dir>, opts()).unwrap();
        assert_eq!(recovered.epoch, 3, "epoch adoption alone is still made durable");
    }

    #[test]
    fn diverged_follower_is_wiped_not_merged() {
        let peer = DirPeer { dir: primary_dir(5), epoch: 2, calls: Mutex::new(0) };
        // A follower with different (stale-primary) state: same ids,
        // extra unreplicated record.
        let follower = SimDir::new();
        {
            let (engine, _) =
                StorageEngine::open(Arc::new(follower.clone()) as Arc<dyn Dir>, opts())
                    .unwrap();
            engine
                .append(&WalEntry {
                    record_id: rid(200),
                    entity: EntityId::new(9),
                    interaction: visit(10),
                })
                .unwrap();
            engine.sync_all().unwrap();
        }
        let report =
            catch_up_range(&peer, 0, Arc::new(follower.clone()) as Arc<dyn Dir>, opts())
                .unwrap();
        assert!(report.rebuilt);
        assert_eq!(digest_of(&follower), digest_of(&peer.dir));
        let scan = scan_source(&follower).unwrap();
        assert!(
            scan.store.get(&rid(200)).is_none(),
            "the unreplicated record is gone — it was never acked under the new epoch"
        );
    }

    #[test]
    fn chunked_stream_covers_large_ranges() {
        // More records than one chunk holds: the cursor must walk the
        // whole sorted sequence, records before tokens.
        let n = RECORDS_PER_CHUNK as u16 + 44;
        let dir = SimDir::new();
        {
            let (engine, _) =
                StorageEngine::open(Arc::new(dir.clone()) as Arc<dyn Dir>, opts()).unwrap();
            for i in 0..n {
                engine
                    .append(&WalEntry {
                        record_id: rid16(i),
                        entity: EntityId::new(u64::from(i % 3)),
                        interaction: visit(i64::from(i) * 100),
                    })
                    .unwrap();
                let mut key = [0u8; 32];
                key[..2].copy_from_slice(&i.to_le_bytes());
                engine.append_token_spend(&key).unwrap();
            }
            engine.sync_all().unwrap();
        }
        let peer = DirPeer { dir, epoch: 1, calls: Mutex::new(0) };
        let follower = SimDir::new();
        let report =
            catch_up_range(&peer, 0, Arc::new(follower.clone()) as Arc<dyn Dir>, opts())
                .unwrap();
        assert_eq!(report.records, usize::from(n));
        assert_eq!(report.tokens, usize::from(n));
        assert!(
            *peer.calls.lock().unwrap() >= 2,
            "{n} histories cannot fit one {RECORDS_PER_CHUNK}-record chunk"
        );
        assert_eq!(digest_of(&follower), digest_of(&peer.dir));
    }
}
