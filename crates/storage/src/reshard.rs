//! Offline reshard: rewrite an M-shard data directory into an N-shard
//! one, byte-verified end to end.
//!
//! A data directory's shard count is fixed at creation ([`crate::
//! StorageOptions::shard_count`] is adopted from the manifest on
//! reopen), so growing a deployment from M to N backends needs an
//! offline rewrite. [`reshard`] is that tool, and it is deliberately a
//! *reader* of the source and a *writer* of the destination — never the
//! other way around:
//!
//! 1. **Streaming segment replay (read-only).** The source is scanned
//!    exactly the way [`crate::StorageEngine::open`] recovers it —
//!    newest manifest, checkpoint seed, CRC-checked tail replay, a torn
//!    tail tolerated only in a shard's final segment — except nothing
//!    is repaired or written: a torn tail's valid prefix is used as-is
//!    and the source directory is left bit-for-bit untouched, so a
//!    failed or interrupted reshard can simply be rerun (or the source
//!    kept serving).
//! 2. **Re-bucketed append.** Every interaction and every spent-token
//!    ledger key is appended into a fresh engine opened over the empty
//!    destination with the new shard count — routed by the same
//!    [`orsp_server::shard_index`] formula every other layer uses, so
//!    the destination's per-shard logs are exactly what N-shard ingest
//!    would have written. Records are replayed in sorted record-id
//!    order: deterministic output, and within one record id the
//!    history's own order is preserved (the one order the store
//!    accepts).
//! 3. **Verification, then manifest/checkpoint rebuild.** The
//!    destination is closed and *reopened through ordinary crash
//!    recovery before any checkpoint exists*, so the full state must be
//!    rebuilt from the re-bucketed segment logs alone; its
//!    [`state_digest`] must equal the source's (the scan's reject
//!    counters ride along on both sides — rejects are never WAL-logged,
//!    so the logs cannot carry them). Only then is a checkpoint of the
//!    log-recovered state cut (CRC-guarded, supersedes the replay
//!    logs), and a final reopen — the recovery every future open
//!    repeats — must land on the same digest through the checkpoint
//!    path too. A mismatch at either step fails the reshard rather than
//!    report success.
//!
//! The destination must be empty: this tool creates directories, it
//! never merges into one.

use crate::checkpoint::{decode_checkpoint, encode_checkpoint};
use crate::dir::Dir;
use crate::error::{Result, StorageError};
use crate::manifest::load_latest;
use crate::segment::{checkpoint_name, parse_segment_name};
use orsp_server::{crc32, replay, HistoryStore, IngestStats, WalEntry};
use std::collections::HashSet;
use std::sync::Arc;

/// What a completed reshard read, wrote, and verified.
#[derive(Debug)]
pub struct ReshardReport {
    /// Shard count of the source directory (from its manifest).
    pub src_shards: u32,
    /// Shard count written to the destination.
    pub dst_shards: u32,
    /// Distinct record ids carried over.
    pub records: u64,
    /// Total interactions carried over.
    pub interactions: u64,
    /// Spent-token ledger keys carried over.
    pub spent_tokens: u64,
    /// Records replayed from source segment tails (the rest came from
    /// the source checkpoint).
    pub records_replayed: u64,
    /// Torn tails tolerated in the source (valid prefix used, file left
    /// untouched).
    pub torn_tails: u64,
    /// Digest of the source state — and, because a mismatch at either
    /// verification step is an error, of the destination state as
    /// recovered through [`crate::StorageEngine::open`] both from the
    /// re-bucketed segment logs alone and from the final checkpoint.
    pub digest: u32,
}

/// Deterministic digest of a full storage state: store, ingest
/// counters, and spent-token ledger.
///
/// Rides on [`encode_checkpoint`], which sorts records and tokens so
/// the same state always encodes to the same bytes regardless of
/// hash-map iteration order. Two directories with equal digests hold
/// equal state; the reshard verification and the `verify.sh` gates
/// compare exactly this.
pub fn state_digest(
    store: &HistoryStore,
    stats: &IngestStats,
    spent_tokens: &HashSet<[u8; 32]>,
) -> u32 {
    crc32(&encode_checkpoint(store, stats, spent_tokens))
}

/// A directory's state, read without writing anything.
pub struct SourceScan {
    /// Every stored history, checkpoint seed plus replayed tail.
    pub store: HistoryStore,
    /// Ingest counters as of the checkpoint plus replayed accepts.
    pub stats: IngestStats,
    /// The spent-token ledger, checkpoint plus tail.
    pub spent_tokens: HashSet<[u8; 32]>,
    /// Shard count recorded in the directory's manifest.
    pub shard_count: u32,
    /// Records replayed from segment tails.
    pub records_replayed: u64,
    /// Torn final tails tolerated (valid prefix used, nothing repaired).
    pub torn_tails: u64,
    /// Replication epoch from the checkpoint (0 if none).
    pub epoch: u64,
}

/// Read-only mirror of recovery's read phase: manifest → checkpoint →
/// CRC-checked tail replay. Tolerates a torn tail only in a shard's
/// final segment (using its valid prefix) and repairs nothing.
///
/// Public because it is the cluster's anti-entropy primitive too: a
/// replica primary streams `CatchUp` chunks straight out of this scan,
/// and both sides of a catch-up session prove convergence by comparing
/// [`state_digest`]s over it.
pub fn scan_source(dir: &dyn Dir) -> Result<SourceScan> {
    let names = dir.list()?;
    let manifest = load_latest(dir)?.ok_or_else(|| {
        StorageError::Unrecoverable(
            "source has no manifest — not a storage data directory".to_string(),
        )
    })?;
    let shard_count = manifest.shard_count as usize;

    let mut segments: Vec<Vec<(u64, String)>> = vec![Vec::new(); shard_count];
    for name in &names {
        if let Some((shard, seq)) = parse_segment_name(name) {
            let slot = segments.get_mut(shard as usize).ok_or_else(|| {
                StorageError::Unrecoverable(format!(
                    "segment {name} names shard {shard}, but the source has \
                     {shard_count} shards"
                ))
            })?;
            slot.push((seq, name.clone()));
        }
    }
    for shard in &mut segments {
        shard.sort();
    }

    let mut store = HistoryStore::new();
    let mut stats = IngestStats::default();
    let mut spent_tokens = HashSet::new();
    let mut epoch = 0u64;
    if let Some(gen) = manifest.checkpoint {
        let name = checkpoint_name(gen);
        let data = dir.read(&name).map_err(|_| {
            StorageError::Unrecoverable(format!(
                "source manifest generation {} names missing checkpoint {name}",
                manifest.gen
            ))
        })?;
        let (s, st, tokens, e) = decode_checkpoint(&name, &data)?;
        store = s;
        stats = st;
        spent_tokens = tokens;
        epoch = e;
    }

    let mut records_replayed = 0u64;
    let mut torn_tails = 0u64;
    for (shard, shard_segments) in segments.iter().enumerate() {
        let last = shard_segments.len().saturating_sub(1);
        for (i, (seq, name)) in shard_segments.iter().enumerate() {
            if *seq < manifest.replay_from[shard] {
                continue; // covered by the checkpoint
            }
            let data = dir.read(name)?;
            let is_final = i == last;
            let (entries, tokens) = if data.is_empty() {
                (Vec::new(), Vec::new())
            } else if data.len() < orsp_server::WAL_HEADER_LEN {
                if !is_final {
                    return Err(StorageError::Corrupt {
                        name: name.clone(),
                        detail: format!("non-final segment holds only {} bytes", data.len()),
                    });
                }
                torn_tails += 1;
                (Vec::new(), Vec::new())
            } else {
                let replayed = replay(&data).map_err(|e| StorageError::Corrupt {
                    name: name.clone(),
                    detail: e.to_string(),
                })?;
                match replayed.fault {
                    None => (replayed.entries, replayed.spent_tokens),
                    Some(fault) if fault.is_torn_tail() && is_final => {
                        torn_tails += 1;
                        (replayed.entries, replayed.spent_tokens)
                    }
                    Some(fault) => {
                        return Err(StorageError::SegmentFault { name: name.clone(), fault });
                    }
                }
            };
            spent_tokens.extend(tokens);
            for entry in entries {
                store.append(entry.record_id, entry.entity, entry.interaction).map_err(|e| {
                    StorageError::Corrupt {
                        name: name.clone(),
                        detail: format!("replayed entry rejected by store: {e}"),
                    }
                })?;
                stats.accepted += 1;
                records_replayed += 1;
            }
        }
    }

    Ok(SourceScan {
        store,
        stats,
        spent_tokens,
        shard_count: shard_count as u32,
        records_replayed,
        torn_tails,
        epoch,
    })
}

/// Rewrite the storage directory at `src` into the empty directory at
/// `dst` with `opts.shard_count` shards (everything else in `opts` —
/// segment size, fsync policy — applies to the destination's logs).
///
/// See the module docs for the three phases. The source is never
/// written; the destination is verified by reopening it through normal
/// crash recovery twice — once from the re-bucketed logs alone, once
/// from the final checkpoint — comparing [`state_digest`]s each time.
/// On any error the destination contents are garbage to be deleted and
/// the source is still authoritative.
pub fn reshard(
    src: Arc<dyn Dir>,
    dst: Arc<dyn Dir>,
    opts: crate::StorageOptions,
) -> Result<ReshardReport> {
    if !dst.list()?.is_empty() {
        return Err(StorageError::Unrecoverable(
            "destination directory is not empty — reshard only creates, never merges".to_string(),
        ));
    }
    let scan = scan_source(src.as_ref())?;
    let digest = state_digest(&scan.store, &scan.stats, &scan.spent_tokens);

    // Re-bucketed append through a fresh engine: the engine itself
    // routes every entry by shard_index over the new shard count, so
    // this loop cannot disagree with what N-shard ingest would write.
    let (engine, fresh) = crate::StorageEngine::open(Arc::clone(&dst), opts.clone())?;
    debug_assert!(fresh.store.is_empty(), "destination was empty");
    let mut records: Vec<_> = scan.store.iter().collect();
    records.sort_by_key(|(id, _)| *id.as_bytes());
    let mut interactions = 0u64;
    for (record_id, stored) in records {
        for interaction in stored.history.records() {
            engine.append(&WalEntry {
                record_id: *record_id,
                entity: stored.entity,
                interaction: interaction.clone(),
            })?;
            interactions += 1;
        }
    }
    let mut tokens: Vec<_> = scan.spent_tokens.iter().collect();
    tokens.sort();
    for key in tokens {
        engine.append_token_spend(key)?;
    }

    engine.sync_all()?;
    drop(engine);

    // Verify the append path *before* any checkpoint exists: reopen the
    // destination so ordinary crash recovery must rebuild the full
    // state from the re-bucketed segment logs alone. A checkpoint cut
    // from the source scan would mask a broken append path — recovery
    // prefers the checkpoint, and the digest would merely round-trip
    // the scan instead of validating what phase 2 wrote. Reject
    // counters never reach the logs (only accepted uploads are
    // WAL-logged), so the comparison carries the scan's stats on both
    // sides and pins exactly what the logs hold: the store and the
    // spent-token ledger.
    let (engine, replayed) = crate::StorageEngine::open(Arc::clone(&dst), opts.clone())?;
    let dst_shards = engine.shard_count() as u32;
    let log_digest = state_digest(&replayed.store, &scan.stats, &replayed.spent_tokens);
    if log_digest != digest {
        return Err(StorageError::Unrecoverable(format!(
            "reshard verification failed: source digest {digest:08x}, but the \
             destination's re-bucketed segment logs recover to {log_digest:08x}"
        )));
    }

    // Now cut the checkpoint that makes recovery O(checkpoint) and
    // sweeps the replay logs — fed the log-recovered state (plus the
    // scan's reject counters), not the scan's — then reopen once more:
    // the final recovery, the one every future open repeats, must land
    // on the same digest through the checkpoint path too.
    engine.checkpoint(&replayed.store, &scan.stats, &replayed.spent_tokens)?;
    drop(engine);
    let (_, recovered) = crate::StorageEngine::open(Arc::clone(&dst), opts)?;
    let dst_digest = state_digest(&recovered.store, &recovered.stats, &recovered.spent_tokens);
    if dst_digest != digest {
        return Err(StorageError::Unrecoverable(format!(
            "reshard verification failed: source digest {digest:08x}, \
             destination recovered to {dst_digest:08x}"
        )));
    }

    Ok(ReshardReport {
        src_shards: scan.shard_count,
        dst_shards,
        records: scan.store.len() as u64,
        interactions,
        spent_tokens: scan.spent_tokens.len() as u64,
        records_replayed: scan.records_replayed,
        torn_tails: scan.torn_tails,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FsyncPolicy, StorageEngine, StorageOptions};
    use crate::segment::segment_name;
    use crate::sim::{FaultPlan, SimDir};
    use orsp_types::{EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp};

    fn entry(i: u16) -> WalEntry {
        let mut id = [0u8; 32];
        id[0] = (i & 0xFF) as u8;
        id[1] = (i >> 8) as u8;
        id[2] = 0x5A;
        WalEntry {
            record_id: RecordId::from_bytes(id),
            entity: EntityId::new(i as u64 % 9),
            interaction: Interaction::solo(
                InteractionKind::ALL[i as usize % 4],
                Timestamp::from_seconds(i as i64 * 240),
                SimDuration::minutes(7),
                (i as f64) * 2.25,
            ),
        }
    }

    fn opts(shards: u32) -> StorageOptions {
        StorageOptions {
            shard_count: shards,
            max_segment_bytes: 512, // force rotations
            fsync: FsyncPolicy::Always,
            ..StorageOptions::default()
        }
    }

    fn populate(shards: u32, n: u16, checkpoint_at: Option<u16>) -> SimDir {
        let dir = SimDir::new();
        let (engine, _) = StorageEngine::open(Arc::new(dir.clone()), opts(shards)).unwrap();
        let mut store = HistoryStore::new();
        let mut stats = IngestStats::default();
        let mut spent = HashSet::new();
        for i in 0..n {
            let e = entry(i);
            engine.append(&e).unwrap();
            store.append(e.record_id, e.entity, e.interaction).unwrap();
            stats.accepted += 1;
            let key = [i as u8; 32];
            engine.append_token_spend(&key).unwrap();
            spent.insert(key);
            if checkpoint_at == Some(i) {
                engine.checkpoint(&store, &stats, &spent).unwrap();
            }
        }
        engine.sync_all().unwrap();
        dir.reopen()
    }

    fn recovered(dir: &SimDir, shards: u32) -> (HistoryStore, IngestStats, HashSet<[u8; 32]>) {
        let (_, r) = StorageEngine::open(Arc::new(dir.reopen()), opts(shards)).unwrap();
        (r.store, r.stats, r.spent_tokens)
    }

    #[test]
    fn two_to_four_round_trip_preserves_state_and_digest() {
        let src = populate(2, 60, Some(30));
        let dst = SimDir::new();
        let report = reshard(Arc::new(src.clone()), Arc::new(dst.clone()), opts(4)).unwrap();
        assert_eq!(report.src_shards, 2);
        assert_eq!(report.dst_shards, 4);
        assert_eq!(report.records, 60);
        assert_eq!(report.spent_tokens, 60);

        let (src_store, src_stats, src_tokens) = recovered(&src, 2);
        let (dst_store, dst_stats, dst_tokens) = recovered(&dst, 4);
        assert_eq!(dst_stats, src_stats);
        assert_eq!(dst_tokens, src_tokens);
        assert_eq!(
            state_digest(&dst_store, &dst_stats, &dst_tokens),
            state_digest(&src_store, &src_stats, &src_tokens),
        );
        assert_eq!(report.digest, state_digest(&src_store, &src_stats, &src_tokens));
    }

    #[test]
    fn shrink_four_to_one_works_too() {
        let src = populate(4, 40, None);
        let dst = SimDir::new();
        let report = reshard(Arc::new(src.clone()), Arc::new(dst.clone()), opts(1)).unwrap();
        assert_eq!((report.src_shards, report.dst_shards), (4, 1));
        let (src_store, src_stats, src_tokens) = recovered(&src, 4);
        let (dst_store, dst_stats, dst_tokens) = recovered(&dst, 1);
        assert_eq!(
            state_digest(&dst_store, &dst_stats, &dst_tokens),
            state_digest(&src_store, &src_stats, &src_tokens),
        );
    }

    #[test]
    fn source_is_left_untouched() {
        let src = populate(2, 25, None);
        let before: Vec<(String, Vec<u8>)> = src
            .list()
            .unwrap()
            .into_iter()
            .map(|n| {
                let data = src.read(&n).unwrap();
                (n, data)
            })
            .collect();
        reshard(Arc::new(src.clone()), Arc::new(SimDir::new()), opts(4)).unwrap();
        let after: Vec<(String, Vec<u8>)> = src
            .list()
            .unwrap()
            .into_iter()
            .map(|n| {
                let data = src.read(&n).unwrap();
                (n, data)
            })
            .collect();
        assert_eq!(before, after, "reshard wrote into its source");
    }

    #[test]
    fn non_empty_destination_is_refused() {
        let src = populate(2, 10, None);
        let dst = SimDir::new();
        dst.create("stray").unwrap().append(b"x").unwrap();
        let err = reshard(Arc::new(src), Arc::new(dst), opts(4)).unwrap_err();
        assert!(matches!(err, StorageError::Unrecoverable(_)), "got {err}");
    }

    #[test]
    fn empty_directory_source_is_refused() {
        let err = reshard(Arc::new(SimDir::new()), Arc::new(SimDir::new()), opts(4)).unwrap_err();
        assert!(matches!(err, StorageError::Unrecoverable(_)), "got {err}");
    }

    #[test]
    fn a_bad_destination_segment_fails_the_reshard_instead_of_being_masked() {
        // The destination's first shard-0 segment reads back short: the
        // re-bucketed logs are NOT what N-shard ingest would have
        // written. The pre-checkpoint verification reopen recovers from
        // those logs and must surface the damage as an error — a
        // checkpoint cut straight from the source scan would have
        // superseded (and swept) the broken segment without ever reading
        // it, reporting success over logs that were never validated.
        let src = populate(2, 60, None);
        let dst = SimDir::with_plan(FaultPlan {
            short_read: Some((segment_name(0, 0), 10)),
            ..FaultPlan::default()
        });
        reshard(Arc::new(src), Arc::new(dst.clone()), opts(4))
            .expect_err("a destination whose logs read back broken must not verify");
        // The failure happened before any checkpoint finalized the
        // destination: the unvalidated segment is still in place.
        assert!(
            dst.list().unwrap().contains(&segment_name(0, 0)),
            "verification must run before the checkpoint sweeps the logs"
        );
    }

    #[test]
    fn torn_source_tail_reshards_the_valid_prefix() {
        let dir = SimDir::new();
        {
            let (engine, _) = StorageEngine::open(
                Arc::new(dir.clone()),
                StorageOptions {
                    shard_count: 1,
                    max_segment_bytes: 1 << 20,
                    fsync: FsyncPolicy::Always,
                    ..StorageOptions::default()
                },
            )
            .unwrap();
            for i in 0..10 {
                engine.append(&entry(i)).unwrap();
            }
        }
        let src = dir.reopen();
        let seg = src
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| parse_segment_name(n).is_some())
            .next_back()
            .unwrap();
        let len = src.read(&seg).unwrap().len();
        src.truncate_file(&seg, len - 20);
        let dst = SimDir::new();
        let report = reshard(Arc::new(src.clone()), Arc::new(dst.clone()), opts(3)).unwrap();
        assert_eq!(report.torn_tails, 1);
        assert_eq!(report.records, 9);
        // Read-only: the torn segment was not repaired in the source.
        assert_eq!(src.read(&seg).unwrap().len(), len - 20);
        let (dst_store, _, _) = recovered(&dst, 3);
        assert_eq!(dst_store.len(), 9);
    }
}
