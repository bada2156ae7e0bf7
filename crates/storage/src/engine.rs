//! The storage engine: per-shard segmented append-only logs with
//! checkpoints, crash recovery, and a configurable fsync policy.
//!
//! ## Write path
//!
//! [`StorageEngine::append`] routes each entry by
//! [`orsp_server::shard_index`] over its record id, appends the OWAL
//! record to that shard's open segment, fsyncs according to policy, and
//! rotates the segment at the size threshold. Because the deterministic
//! ingest pipeline routes every record id to exactly one worker, the
//! per-record append order in the log equals admission order even under
//! parallel ingest.
//!
//! ## Checkpoint protocol
//!
//! [`StorageEngine::checkpoint`] runs, in order: write and sync
//! `ckpt-{gen}.snap` → rotate every shard to a fresh segment → write
//! and sync `MANIFEST-{gen}` naming the checkpoint and the fresh
//! segments as the replay frontier → delete superseded manifests,
//! checkpoints, and segments. A crash in *any* window leaves a
//! directory the recovery path reads correctly: an unreferenced
//! checkpoint is garbage (the old manifest wins), a torn manifest falls
//! back to its predecessor, and undeleted old files are re-deleted on
//! the next checkpoint.
//!
//! ## Recovery
//!
//! [`StorageEngine::open`] loads the newest manifest that parses,
//! decodes its checkpoint (if any), and replays every segment at or
//! past each shard's replay frontier. A torn tail is tolerated **only
//! in the final segment of a shard** — that is the one place a crash
//! can legitimately cut a log — and the damaged tail is repaired by
//! durably *truncating* the file to its valid prefix (never by
//! rewriting it, which would put acknowledged records at risk if
//! recovery itself crashed) so the next recovery sees a clean segment.
//! Any fault elsewhere, or any non-torn fault, is refused as real
//! corruption. With no manifest at all (a crash before the very first
//! manifest write), every segment present is scan-replayed under the
//! same tail rule.

use crate::checkpoint::{decode_checkpoint, encode_checkpoint_with_epoch};
use crate::dir::Dir;
use crate::error::{Result, StorageError};
use crate::manifest::{load_latest, write_manifest, Manifest};
use crate::segment::{
    checkpoint_name, manifest_name, parse_checkpoint_name, parse_manifest_name, parse_segment_name,
    SegmentWriter,
};
use orsp_obs::{Counter, Histogram};
use orsp_server::{
    replay, shard_index, GroupCommitConfig, HistoryStore, IngestStats, WalBatchItem, WalEntry,
    WalSink,
};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// When appended bytes are flushed to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every record: nothing accepted is ever lost, at the
    /// cost of one fsync per append.
    Always,
    /// Fsync when a segment rotates (and at checkpoints): bounds loss
    /// to the unsynced tail of one segment per shard.
    OnRotate,
    /// Never fsync segments: fastest, loses everything since the last
    /// checkpoint on power failure. Manifests and checkpoints are still
    /// always synced — the layout protocol requires it.
    Never,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct StorageOptions {
    /// Number of per-shard logs. Fixed at directory creation; reopening
    /// with a different value adopts the directory's recorded count.
    pub shard_count: u32,
    /// Rotate a segment once it reaches this many bytes.
    pub max_segment_bytes: u64,
    /// Segment fsync policy.
    pub fsync: FsyncPolicy,
    /// Most uploads one group commit may cover (≥ 1). The engine never
    /// reads it; a caller wiring the serving tier copies it into a
    /// [`GroupCommitConfig`], whose default it takes.
    pub group_commit_batch_max: usize,
    /// Microseconds a group-commit leader holds its window open before
    /// draining (0 drains immediately). Like `group_commit_batch_max`,
    /// the engine never reads it.
    pub group_commit_window_us: u64,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            shard_count: 8,
            max_segment_bytes: 4 * 1024 * 1024,
            fsync: FsyncPolicy::OnRotate,
            group_commit_batch_max: GroupCommitConfig::default().batch_max,
            group_commit_window_us: GroupCommitConfig::default().window_us,
        }
    }
}

/// What recovery found and rebuilt.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The rebuilt history store (checkpoint + replayed tail).
    pub store: HistoryStore,
    /// The rebuilt ingest counters. `accepted` is exact; reject
    /// counters are as of the last checkpoint (rejections are never
    /// logged, by design — only accepted uploads reach the WAL).
    pub stats: IngestStats,
    /// Records replayed from segment tails.
    pub records_replayed: u64,
    /// Records restored from the checkpoint snapshot.
    pub records_from_checkpoint: u64,
    /// Torn tails found (and repaired), at most one per shard.
    pub torn_tails: u64,
    /// Wall-clock microseconds spent in recovery.
    pub replay_us: u64,
    /// True when a checkpoint seeded the store.
    pub from_checkpoint: bool,
    /// Spent-token ledger keys recovered from the checkpoint and the
    /// replayed tail. Seeding the serving tier's ledger with these keeps
    /// tokens spent across a crash (no post-crash replay window).
    pub spent_tokens: std::collections::HashSet<[u8; 32]>,
    /// Replication epoch recovered from the checkpoint (0 when no
    /// checkpoint exists). The fence survives a restart: a deposed
    /// primary reopens already knowing it was deposed as of its last
    /// durable bump.
    pub epoch: u64,
}

struct Shard {
    writer: SegmentWriter,
}

struct Meta {
    /// Next manifest/checkpoint generation to write.
    next_gen: u64,
    /// Generation of the live checkpoint, if any.
    checkpoint: Option<u64>,
    /// Per shard: first segment seq to replay on recovery.
    replay_from: Vec<u64>,
}

struct EngineMetrics {
    bytes_appended: Counter,
    records_appended: Counter,
    fsyncs: Counter,
    rotations: Counter,
    checkpoints: Counter,
    group_commits: Counter,
    recovery_replay: Histogram,
    group_commit_batch: Histogram,
}

impl EngineMetrics {
    fn new() -> Self {
        let reg = orsp_obs::global();
        EngineMetrics {
            bytes_appended: reg.counter("storage_bytes_appended_total"),
            records_appended: reg.counter("storage_records_appended_total"),
            fsyncs: reg.counter("storage_fsyncs_total"),
            rotations: reg.counter("storage_segments_rotated_total"),
            checkpoints: reg.counter("storage_checkpoints_total"),
            group_commits: reg.counter("storage_group_commits_total"),
            recovery_replay: reg.histogram("storage_recovery_replay_us"),
            group_commit_batch: reg.histogram("storage_group_commit_batch_size"),
        }
    }
}

/// The durable storage engine. Cheap to share: appends take one shard
/// lock; checkpoints take all of them.
pub struct StorageEngine {
    dir: Arc<dyn Dir>,
    opts: StorageOptions,
    shards: Vec<Mutex<Shard>>,
    meta: Mutex<Meta>,
    /// Replication epoch for the range this directory holds; written
    /// into every checkpoint. 0 for single-copy deployments.
    epoch: std::sync::atomic::AtomicU64,
    metrics: EngineMetrics,
}

impl StorageEngine {
    /// Open a data directory: recover whatever is durable, start fresh
    /// segments past it, and return the engine plus what was rebuilt.
    pub fn open(dir: Arc<dyn Dir>, opts: StorageOptions) -> Result<(Self, RecoveryReport)> {
        let started = Instant::now();
        let names = dir.list()?;
        let manifest = load_latest(dir.as_ref())?;

        // Index every segment present: shard → sorted (seq, name).
        let recorded_shards =
            manifest.as_ref().map(|m| m.shard_count).unwrap_or(opts.shard_count) as usize;
        let mut segments: Vec<Vec<(u64, String)>> = vec![Vec::new(); recorded_shards];
        for name in &names {
            if let Some((shard, seq)) = parse_segment_name(name) {
                let slot = segments.get_mut(shard as usize).ok_or_else(|| {
                    StorageError::Unrecoverable(format!(
                        "segment {name} names shard {shard}, but the directory has \
                         {recorded_shards} shards"
                    ))
                })?;
                slot.push((seq, name.clone()));
            }
        }
        for shard in &mut segments {
            shard.sort();
        }

        // Seed from the checkpoint, if the manifest names one.
        let mut store = HistoryStore::new();
        let mut stats = IngestStats::default();
        let mut spent_tokens = std::collections::HashSet::new();
        let mut from_checkpoint = false;
        let mut epoch = 0u64;
        let replay_from: Vec<u64> = match &manifest {
            Some(m) => {
                if let Some(gen) = m.checkpoint {
                    let name = checkpoint_name(gen);
                    let data = dir.read(&name).map_err(|_| {
                        StorageError::Unrecoverable(format!(
                            "manifest generation {} names missing checkpoint {name}",
                            m.gen
                        ))
                    })?;
                    let (s, st, tokens, e) = decode_checkpoint(&name, &data)?;
                    store = s;
                    stats = st;
                    spent_tokens = tokens;
                    epoch = e;
                    from_checkpoint = true;
                }
                m.replay_from.clone()
            }
            None => {
                // No manifest can be a crash before the very first
                // manifest write — but then no checkpoint can exist
                // either. A checkpoint without a manifest is bit rot.
                if let Some(orphan) = names.iter().find(|n| parse_checkpoint_name(n).is_some()) {
                    return Err(StorageError::Unrecoverable(format!(
                        "checkpoint {orphan} exists but no manifest references it"
                    )));
                }
                vec![0; recorded_shards]
            }
        };
        let records_from_checkpoint = store.len() as u64;

        // Replay each shard's tail, tolerating (and repairing) a torn
        // tail only in the shard's final segment.
        let mut records_replayed = 0u64;
        let mut torn_tails = 0u64;
        let mut fresh_seq: Vec<u64> = manifest
            .as_ref()
            .map(|m| m.next_seq.clone())
            .unwrap_or_else(|| vec![0; recorded_shards]);
        for (shard, shard_segments) in segments.iter().enumerate() {
            let last = shard_segments.len().saturating_sub(1);
            for (i, (seq, name)) in shard_segments.iter().enumerate() {
                if *seq < replay_from[shard] {
                    continue; // covered by the checkpoint
                }
                fresh_seq[shard] = fresh_seq[shard].max(seq + 1);
                let data = dir.read(name)?;
                let is_final = i == last;
                let (entries, tokens) = if data.is_empty() {
                    // A crash between segment creation and its header
                    // write, or the durable result of repairing one:
                    // holds nothing, wherever it sits in the sequence.
                    (Vec::new(), Vec::new())
                } else if data.len() < orsp_server::WAL_HEADER_LEN {
                    // A crash can cut the 5-byte header itself.
                    if !is_final {
                        return Err(StorageError::Corrupt {
                            name: name.clone(),
                            detail: format!("non-final segment holds only {} bytes", data.len()),
                        });
                    }
                    torn_tails += 1;
                    repair_segment(dir.as_ref(), name, 0)?;
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
                            // The fault offset is where the torn record
                            // starts — exactly the valid prefix length.
                            repair_segment(dir.as_ref(), name, fault.offset())?;
                            (replayed.entries, replayed.spent_tokens)
                        }
                        Some(fault) => {
                            return Err(StorageError::SegmentFault { name: name.clone(), fault });
                        }
                    }
                };
                spent_tokens.extend(tokens);
                for entry in entries {
                    store.append(entry.record_id, entry.entity, entry.interaction).map_err(
                        |e| StorageError::Corrupt {
                            name: name.clone(),
                            detail: format!("replayed entry rejected by store: {e}"),
                        },
                    )?;
                    stats.accepted += 1;
                    records_replayed += 1;
                }
            }
        }

        // Never append to a recovered segment: every shard starts a
        // fresh one past everything seen.
        let mut shards = Vec::with_capacity(recorded_shards);
        for shard in 0..recorded_shards {
            let writer = SegmentWriter::create(dir.as_ref(), shard as u32, fresh_seq[shard])?;
            shards.push(Mutex::new(Shard { writer }));
        }

        // Record the post-recovery layout in a fresh manifest.
        let next_gen = manifest.as_ref().map(|m| m.gen + 1).unwrap_or(0);
        let new_manifest = Manifest {
            gen: next_gen,
            shard_count: recorded_shards as u32,
            checkpoint: manifest.as_ref().and_then(|m| m.checkpoint),
            replay_from,
            next_seq: fresh_seq.iter().map(|s| s + 1).collect(),
        };
        write_manifest(dir.as_ref(), &new_manifest, true)?;
        if let Some(m) = &manifest {
            let _ = dir.delete(&manifest_name(m.gen));
        }

        let metrics = EngineMetrics::new();
        let replay_us = started.elapsed().as_micros() as u64;
        metrics.recovery_replay.record(replay_us);

        let engine = StorageEngine {
            dir,
            opts: StorageOptions { shard_count: recorded_shards as u32, ..opts },
            shards,
            meta: Mutex::new(Meta {
                next_gen: next_gen + 1,
                checkpoint: new_manifest.checkpoint,
                replay_from: new_manifest.replay_from.clone(),
            }),
            epoch: std::sync::atomic::AtomicU64::new(epoch),
            metrics,
        };
        let report = RecoveryReport {
            store,
            stats,
            records_replayed,
            records_from_checkpoint,
            torn_tails,
            replay_us,
            from_checkpoint,
            spent_tokens,
            epoch,
        };
        Ok((engine, report))
    }

    /// The configured options (shard count reflects the directory).
    pub fn options(&self) -> &StorageOptions {
        &self.opts
    }

    /// Number of per-shard segment logs (the directory's recorded count).
    ///
    /// A serving tier that sizes its ingest shards to this value gets
    /// 1:1 sink wiring: ingest shard *i*'s accepted uploads all land in
    /// engine shard *i* — both layers route with the same
    /// `shard_index(record_id)` — so concurrent uploads to different
    /// ingest shards never contend on an engine shard lock either.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which segment log an entry for `record_id` appends to.
    pub fn shard_of(&self, record_id: &orsp_types::RecordId) -> usize {
        shard_index(record_id.as_bytes(), self.shards.len())
    }

    /// Current replication epoch (recovered from the checkpoint, or the
    /// last [`Self::set_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Adopt a new replication epoch. Only the next checkpoint makes it
    /// durable — fencing callers checkpoint immediately after bumping.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, std::sync::atomic::Ordering::SeqCst);
    }

    /// Durably log one accepted entry.
    pub fn append(&self, entry: &WalEntry) -> Result<()> {
        let shard = shard_index(entry.record_id.as_bytes(), self.shards.len());
        let mut guard = self.shards[shard].lock();
        let n = guard.writer.append(entry)?;
        self.metrics.bytes_appended.add(n as u64);
        self.metrics.records_appended.inc();
        if self.opts.fsync == FsyncPolicy::Always {
            guard.writer.sync()?;
            self.metrics.fsyncs.inc();
        }
        if guard.writer.bytes() >= self.opts.max_segment_bytes {
            self.rotate_shard(&mut guard, shard as u32)?;
        }
        Ok(())
    }

    /// Durably log one spent-token ledger key, routed like a record id.
    pub fn append_token_spend(&self, key: &[u8; 32]) -> Result<()> {
        let shard = shard_index(key, self.shards.len());
        let mut guard = self.shards[shard].lock();
        let buf = orsp_server::encode_token_spend(key);
        guard.writer.append_encoded(&buf, 1)?;
        self.metrics.bytes_appended.add(buf.len() as u64);
        if self.opts.fsync == FsyncPolicy::Always {
            guard.writer.sync()?;
            self.metrics.fsyncs.inc();
        }
        if guard.writer.bytes() >= self.opts.max_segment_bytes {
            self.rotate_shard(&mut guard, shard as u32)?;
        }
        Ok(())
    }

    /// Durably log a whole commit group with one write and one fsync
    /// per shard run (two only when the run crosses a rotation
    /// boundary, exactly as the sequential path would double-sync
    /// there).
    ///
    /// Items are bucketed by the engine's own shard routing, preserving
    /// order within each bucket; a group handed over by the serving
    /// tier's per-shard leader lands in a single bucket when the shard
    /// counts are aligned, which is the deployment the daemon sets up.
    /// Each bucket is encoded into one buffer chunked at the same
    /// rotation boundaries `append` would have hit, so the resulting
    /// segment bytes are identical to N sequential appends — the
    /// equivalence the `group_commit` test suite pins down.
    pub fn append_upload_batch(&self, items: &[WalBatchItem]) -> Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        let n = self.shards.len();
        let mut buckets: Vec<Vec<&WalBatchItem>> = vec![Vec::new(); n];
        for item in items {
            buckets[shard_index(item.entry.record_id.as_bytes(), n)].push(item);
        }
        for (shard, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut guard = self.shards[shard].lock();
            let mut i = 0;
            while i < bucket.len() {
                // One chunk: records that land before this segment's
                // rotation point, exactly as sequential appends would
                // have placed them (append while bytes-so-far < max).
                let mut buf = Vec::new();
                let mut framed = 0u64;
                let mut virt = guard.writer.bytes();
                while i < bucket.len() && virt < self.opts.max_segment_bytes {
                    let enc = orsp_server::encode_batch_item(bucket[i]);
                    virt += enc.len() as u64;
                    framed += if bucket[i].spend.is_some() { 2 } else { 1 };
                    buf.extend_from_slice(&enc);
                    i += 1;
                }
                guard.writer.append_encoded(&buf, framed)?;
                self.metrics.bytes_appended.add(buf.len() as u64);
                if self.opts.fsync == FsyncPolicy::Always {
                    // The disk flush itself, distinct from the group
                    // commit machinery above it in the trace.
                    let fsync_span = orsp_obs::trace::child("storage_fsync");
                    guard.writer.sync()?;
                    fsync_span.end();
                    self.metrics.fsyncs.inc();
                }
                if guard.writer.bytes() >= self.opts.max_segment_bytes {
                    self.rotate_shard(&mut guard, shard as u32)?;
                }
            }
        }
        self.metrics.records_appended.add(items.len() as u64);
        self.metrics.group_commits.inc();
        self.metrics.group_commit_batch.record(items.len() as u64);
        Ok(())
    }

    fn rotate_shard(&self, shard: &mut Shard, shard_id: u32) -> Result<()> {
        if self.opts.fsync != FsyncPolicy::Never {
            shard.writer.sync()?;
            self.metrics.fsyncs.inc();
        }
        let next = shard.writer.seq() + 1;
        shard.writer = SegmentWriter::create(self.dir.as_ref(), shard_id, next)?;
        self.metrics.rotations.inc();
        Ok(())
    }

    /// Fsync every shard's open segment (used at drain, regardless of
    /// policy).
    pub fn sync_all(&self) -> Result<()> {
        for shard in &self.shards {
            shard.lock().writer.sync()?;
            self.metrics.fsyncs.inc();
        }
        Ok(())
    }

    /// Write a checkpoint of `store` + `stats` + the spent-token ledger
    /// and advance the replay frontier past every current segment.
    /// Returns the generation.
    ///
    /// The caller asserts that `store` and `spent_tokens` reflect every
    /// append this engine has logged — true at drain, which is when the
    /// daemon checkpoints. Appends are blocked for the duration (all
    /// shard locks are held), so the frontier cannot race past a log
    /// write. Folding the tokens in matters: segments behind the new
    /// frontier are deleted, so any spend recorded only there would
    /// otherwise be forgotten — reopening the double-spend window.
    pub fn checkpoint(
        &self,
        store: &HistoryStore,
        stats: &IngestStats,
        spent_tokens: &std::collections::HashSet<[u8; 32]>,
    ) -> Result<u64> {
        let mut meta = self.meta.lock();
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let gen = meta.next_gen;

        // 1. The snapshot, synced before anything points at it. The
        // current epoch rides along so the fence survives restarts.
        let ckpt_name = checkpoint_name(gen);
        let mut file = self.dir.create(&ckpt_name)?;
        file.append(&encode_checkpoint_with_epoch(store, stats, spent_tokens, self.epoch()))?;
        file.sync()?;

        // 2. Rotate every shard; the fresh segments are the frontier.
        let mut replay_from = Vec::with_capacity(guards.len());
        for (shard_id, guard) in guards.iter_mut().enumerate() {
            self.rotate_shard(guard, shard_id as u32)?;
            replay_from.push(guard.writer.seq());
        }

        // 3. The manifest that makes the checkpoint live.
        let manifest = Manifest {
            gen,
            shard_count: self.opts.shard_count,
            checkpoint: Some(gen),
            replay_from: replay_from.clone(),
            next_seq: replay_from.iter().map(|s| s + 1).collect(),
        };
        write_manifest(self.dir.as_ref(), &manifest, true)?;

        // 4. Garbage: superseded manifests, checkpoints, and segments
        // behind the frontier. Failures here are retried implicitly by
        // the next checkpoint's sweep.
        for name in self.dir.list()? {
            let stale = match parse_manifest_name(&name) {
                Some(g) => g < gen,
                None => match parse_checkpoint_name(&name) {
                    Some(g) => g < gen,
                    None => match parse_segment_name(&name) {
                        Some((shard, seq)) => {
                            replay_from.get(shard as usize).is_some_and(|&from| seq < from)
                        }
                        None => false,
                    },
                },
            };
            if stale {
                let _ = self.dir.delete(&name);
            }
        }

        meta.next_gen = gen + 1;
        meta.checkpoint = Some(gen);
        meta.replay_from = replay_from;
        self.metrics.checkpoints.inc();
        Ok(gen)
    }
}

impl WalSink for StorageEngine {
    fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()> {
        self.append(entry).map_err(Into::into)
    }

    fn log_token_spend(&self, key: &[u8; 32]) -> orsp_types::Result<()> {
        self.append_token_spend(key).map_err(Into::into)
    }

    fn log_upload_batch(&self, items: &[WalBatchItem]) -> orsp_types::Result<()> {
        self.append_upload_batch(items).map_err(Into::into)
    }
}

/// Repair a torn segment by durably truncating it to its valid prefix
/// (`valid_len` bytes), so later recoveries see a clean non-final
/// segment.
///
/// Truncation — never rewrite. A rewrite (create-truncates-then-append)
/// destroys the only durable copy of fsynced, acknowledged records for
/// the duration of the rewrite: a crash *during recovery itself* (a
/// crash loop) would silently lose them, and the next recovery would
/// accept the shorter file as an ordinary torn tail. Truncating can
/// only ever discard the torn bytes past the last complete record; a
/// crash mid-repair leaves either the still-torn file (repaired again
/// next time — the segment is still the shard's final one, because
/// fresh segments are only created after every repair is durable) or
/// the repaired one.
fn repair_segment(dir: &dyn Dir, name: &str, valid_len: u64) -> Result<()> {
    dir.truncate(name, valid_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FaultPlan, SimDir};
    use orsp_types::{EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp};

    fn entry(i: u16) -> WalEntry {
        let mut id = [0u8; 32];
        id[0] = (i & 0xFF) as u8;
        id[1] = (i >> 8) as u8;
        id[2] = 0xA5;
        WalEntry {
            record_id: RecordId::from_bytes(id),
            entity: EntityId::new(i as u64 % 7),
            interaction: Interaction::solo(
                InteractionKind::ALL[i as usize % 4],
                Timestamp::from_seconds(i as i64 * 300),
                SimDuration::minutes(3),
                (i as f64) * 1.5,
            ),
        }
    }

    fn opts(shards: u32, seg_bytes: u64, fsync: FsyncPolicy) -> StorageOptions {
        StorageOptions {
            shard_count: shards,
            max_segment_bytes: seg_bytes,
            fsync,
            ..StorageOptions::default()
        }
    }

    fn no_tokens() -> std::collections::HashSet<[u8; 32]> {
        std::collections::HashSet::new()
    }

    fn reference_store(n: u16) -> HistoryStore {
        let mut store = HistoryStore::new();
        for i in 0..n {
            let e = entry(i);
            store.append(e.record_id, e.entity, e.interaction).unwrap();
        }
        store
    }

    fn open_err(dir: SimDir, opts: StorageOptions) -> StorageError {
        match StorageEngine::open(Arc::new(dir), opts) {
            Err(e) => e,
            Ok(_) => panic!("expected recovery to fail"),
        }
    }

    fn stores_equal(a: &HistoryStore, b: &HistoryStore) -> bool {
        a.len() == b.len()
            && a.iter().all(|(id, stored)| {
                b.iter().any(|(other_id, other)| other_id == id && other == stored)
            })
    }

    #[test]
    fn clean_shutdown_recovers_everything() {
        let dir = SimDir::new();
        {
            let (engine, report) =
                StorageEngine::open(Arc::new(dir.clone()), opts(4, 1 << 20, FsyncPolicy::Always))
                    .unwrap();
            assert_eq!(report.records_replayed, 0);
            assert!(!report.from_checkpoint);
            for i in 0..50 {
                engine.append(&entry(i)).unwrap();
            }
        }
        let reopened = dir.reopen();
        let (_, report) =
            StorageEngine::open(Arc::new(reopened), opts(4, 1 << 20, FsyncPolicy::Always)).unwrap();
        assert_eq!(report.records_replayed, 50);
        assert_eq!(report.stats.accepted, 50);
        assert!(stores_equal(&report.store, &reference_store(50)));
    }

    #[test]
    fn rotation_splits_segments_and_recovery_reads_all_of_them() {
        let dir = SimDir::new();
        // Tiny segments: 5-byte header + 75-byte records, rotate past 200.
        let (engine, _) =
            StorageEngine::open(Arc::new(dir.clone()), opts(1, 200, FsyncPolicy::OnRotate))
                .unwrap();
        for i in 0..20 {
            engine.append(&entry(i)).unwrap();
        }
        let segment_count =
            dir.list().unwrap().iter().filter(|n| parse_segment_name(n).is_some()).count();
        assert!(segment_count > 2, "expected rotation, saw {segment_count} segments");
        engine.sync_all().unwrap();
        let (_, report) =
            StorageEngine::open(Arc::new(dir.reopen()), opts(1, 200, FsyncPolicy::OnRotate))
                .unwrap();
        assert_eq!(report.records_replayed, 20);
        assert!(stores_equal(&report.store, &reference_store(20)));
    }

    #[test]
    fn checkpoint_bounds_replay_to_the_tail() {
        let dir = SimDir::new();
        let (engine, report) =
            StorageEngine::open(Arc::new(dir.clone()), opts(2, 1 << 20, FsyncPolicy::Always))
                .unwrap();
        let mut store = report.store;
        let mut stats = report.stats;
        for i in 0..30 {
            let e = entry(i);
            engine.append(&e).unwrap();
            store.append(e.record_id, e.entity, e.interaction).unwrap();
            stats.accepted += 1;
        }
        engine.checkpoint(&store, &stats, &no_tokens()).unwrap();
        // 10 more after the checkpoint: only these replay.
        for i in 30..40 {
            let e = entry(i);
            engine.append(&e).unwrap();
        }
        let (_, report) =
            StorageEngine::open(Arc::new(dir.reopen()), opts(2, 1 << 20, FsyncPolicy::Always))
                .unwrap();
        assert!(report.from_checkpoint);
        assert_eq!(report.records_from_checkpoint, 30);
        assert_eq!(report.records_replayed, 10);
        assert_eq!(report.stats.accepted, 40);
        assert!(stores_equal(&report.store, &reference_store(40)));
    }

    #[test]
    fn torn_tail_is_tolerated_and_repaired() {
        let dir = SimDir::new();
        let (engine, _) =
            StorageEngine::open(Arc::new(dir.clone()), opts(1, 1 << 20, FsyncPolicy::Always))
                .unwrap();
        for i in 0..10 {
            engine.append(&entry(i)).unwrap();
        }
        // Tear 30 bytes off the only data segment.
        let seg = dir
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| parse_segment_name(n).is_some())
            .next_back()
            .unwrap();
        let len = dir.read(&seg).unwrap().len();
        dir.truncate_file(&seg, len - 30);
        let rebooted = dir.reopen();
        let (_, report) =
            StorageEngine::open(Arc::new(rebooted.clone()), opts(1, 1 << 20, FsyncPolicy::Always))
                .unwrap();
        assert_eq!(report.torn_tails, 1);
        assert_eq!(report.records_replayed, 9);
        assert!(stores_equal(&report.store, &reference_store(9)));
        // The repair rewrote the tail: a second recovery is clean.
        let (_, second) =
            StorageEngine::open(Arc::new(rebooted.reopen()), opts(1, 1 << 20, FsyncPolicy::Always))
                .unwrap();
        assert_eq!(second.torn_tails, 0);
        assert_eq!(second.records_replayed, 9);
    }

    #[test]
    fn corruption_in_a_non_final_segment_is_refused() {
        let dir = SimDir::new();
        let (engine, _) =
            StorageEngine::open(Arc::new(dir.clone()), opts(1, 200, FsyncPolicy::Always)).unwrap();
        for i in 0..20 {
            engine.append(&entry(i)).unwrap();
        }
        // Flip a payload byte in the FIRST data segment (not the tail).
        let first =
            dir.list().unwrap().into_iter().find(|n| parse_segment_name(n).is_some()).unwrap();
        dir.flip_byte(&first, 20);
        let err = open_err(dir.reopen(), opts(1, 200, FsyncPolicy::Always));
        match err {
            StorageError::SegmentFault { name, .. } => assert_eq!(name, first),
            other => panic!("expected SegmentFault, got {other}"),
        }
    }

    #[test]
    fn never_policy_loses_unsynced_tail_but_always_does_not() {
        for (policy, expect_all) in [(FsyncPolicy::Never, false), (FsyncPolicy::Always, true)] {
            let dir = SimDir::with_plan(FaultPlan {
                lose_unsynced_on_crash: true,
                ..FaultPlan::default()
            });
            let (engine, _) =
                StorageEngine::open(Arc::new(dir.clone()), opts(1, 1 << 20, policy)).unwrap();
            for i in 0..25 {
                engine.append(&entry(i)).unwrap();
            }
            dir.crash_now();
            let (_, report) =
                StorageEngine::open(Arc::new(dir.reopen()), opts(1, 1 << 20, policy)).unwrap();
            if expect_all {
                assert_eq!(report.records_replayed, 25, "Always must lose nothing");
            } else {
                assert_eq!(report.records_replayed, 0, "Never syncs nothing before a crash");
            }
        }
    }

    #[test]
    fn epoch_survives_checkpoint_and_recovery() {
        let dir = SimDir::new();
        {
            let (engine, report) =
                StorageEngine::open(Arc::new(dir.clone()), opts(1, 1 << 20, FsyncPolicy::Always))
                    .unwrap();
            assert_eq!(report.epoch, 0);
            assert_eq!(engine.epoch(), 0);
            let mut store = report.store;
            let mut stats = report.stats;
            for i in 0..4 {
                let e = entry(i);
                engine.append(&e).unwrap();
                store.append(e.record_id, e.entity, e.interaction).unwrap();
                stats.accepted += 1;
            }
            engine.set_epoch(3);
            engine.checkpoint(&store, &stats, &no_tokens()).unwrap();
        }
        let (engine, report) =
            StorageEngine::open(Arc::new(dir.reopen()), opts(1, 1 << 20, FsyncPolicy::Always))
                .unwrap();
        assert_eq!(report.epoch, 3, "the fence must survive a restart");
        assert_eq!(engine.epoch(), 3);
        assert_eq!(report.stats.accepted, 4);
    }

    #[test]
    fn missing_checkpoint_named_by_manifest_is_unrecoverable() {
        let dir = SimDir::new();
        let (engine, report) =
            StorageEngine::open(Arc::new(dir.clone()), opts(1, 1 << 20, FsyncPolicy::Always))
                .unwrap();
        let mut store = report.store;
        let mut stats = report.stats;
        for i in 0..5 {
            let e = entry(i);
            engine.append(&e).unwrap();
            store.append(e.record_id, e.entity, e.interaction).unwrap();
            stats.accepted += 1;
        }
        let gen = engine.checkpoint(&store, &stats, &no_tokens()).unwrap();
        let rebooted = dir.reopen();
        rebooted.delete(&checkpoint_name(gen)).unwrap();
        let err = open_err(rebooted, opts(1, 1 << 20, FsyncPolicy::Always));
        assert!(matches!(err, StorageError::Unrecoverable(_)), "got {err}");
    }

    #[test]
    fn short_read_of_a_checkpoint_is_rejected_not_misread() {
        let dir = SimDir::new();
        let (engine, report) =
            StorageEngine::open(Arc::new(dir.clone()), opts(1, 1 << 20, FsyncPolicy::Always))
                .unwrap();
        let mut store = report.store;
        let mut stats = report.stats;
        for i in 0..8 {
            let e = entry(i);
            engine.append(&e).unwrap();
            store.append(e.record_id, e.entity, e.interaction).unwrap();
            stats.accepted += 1;
        }
        let gen = engine.checkpoint(&store, &stats, &no_tokens()).unwrap();
        let rebooted = dir.reopen_with(FaultPlan {
            short_read: Some((checkpoint_name(gen), 40)),
            ..FaultPlan::default()
        });
        let err = open_err(rebooted, opts(1, 1 << 20, FsyncPolicy::Always));
        assert!(matches!(err, StorageError::Corrupt { .. }), "got {err}");
    }
}
