//! The crash matrix: the headline invariant, proven exhaustively.
//!
//! **Crash at any byte offset, recovery rebuilds exactly the
//! accepted-append prefix** — the same store a clean run over that
//! prefix produces. The sweep walks the kill line over *every* byte the
//! engine ever writes (manifest, segment headers, record interiors,
//! checkpoint, all of it), so there is no "unlucky offset" left to
//! find: if a crash window existed, one of these iterations would land
//! in it. A second sweep kills *recovery itself* at every byte it
//! writes — the crash-loop case — because recovery performs writes of
//! its own (torn-tail repairs, fresh segments, a fresh manifest) and
//! must be just as interruption-proof as normal operation.

use orsp_server::{HistoryStore, IngestStats, WalBatchItem, WalEntry};
use orsp_storage::{Dir, FaultPlan, FsDir, FsyncPolicy, SimDir, StorageEngine, StorageOptions};
use orsp_types::{EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp};
use std::collections::HashSet;
use std::sync::Arc;

fn entry(i: u16) -> WalEntry {
    let mut id = [0u8; 32];
    id[0] = (i & 0xFF) as u8;
    id[1] = (i >> 8) as u8;
    id[2] = 0x5A;
    WalEntry {
        record_id: RecordId::from_bytes(id),
        entity: EntityId::new(i as u64 % 5),
        interaction: Interaction::solo(
            InteractionKind::ALL[i as usize % 4],
            Timestamp::from_seconds(i as i64 * 120),
            SimDuration::minutes(2 + i as i64 % 9),
            7.25 * (i as f64 + 1.0),
        ),
    }
}

/// The store a clean run over the first `n` accepted appends produces.
fn reference_store(n: usize) -> HistoryStore {
    let mut store = HistoryStore::new();
    for i in 0..n {
        let e = entry(i as u16);
        store.append(e.record_id, e.entity, e.interaction).unwrap();
    }
    store
}

fn stores_equal(a: &HistoryStore, b: &HistoryStore) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(id, stored)| b.iter().any(|(other_id, other)| other_id == id && other == stored))
}

fn opts(shards: u32, seg_bytes: u64, fsync: FsyncPolicy) -> StorageOptions {
    StorageOptions {
        shard_count: shards,
        max_segment_bytes: seg_bytes,
        fsync,
        ..StorageOptions::default()
    }
}

fn no_tokens() -> HashSet<[u8; 32]> {
    HashSet::new()
}

/// Open + append through a fault plan; returns how many appends were
/// accepted (engine open counting as "0 accepted" if it crashed).
fn run_until_crash(dir: &SimDir, options: StorageOptions, n: u16) -> usize {
    let engine = match StorageEngine::open(Arc::new(dir.clone()), options) {
        Ok((engine, _)) => engine,
        Err(_) => return 0,
    };
    let mut accepted = 0;
    for i in 0..n {
        if engine.append(&entry(i)).is_err() {
            break;
        }
        accepted += 1;
    }
    accepted
}

#[test]
fn every_byte_cut_recovers_exactly_the_accepted_prefix() {
    const N: u16 = 40;
    let options = || opts(1, 1 << 20, FsyncPolicy::Always);

    // Clean run: learn the total number of bytes the engine writes.
    let clean = SimDir::new();
    assert_eq!(run_until_crash(&clean, options(), N), N as usize);
    let total = clean.bytes_written();

    for cut in 0..=total {
        let dir = SimDir::with_plan(FaultPlan::crash_at(cut));
        let accepted = run_until_crash(&dir, options(), N);

        // Reboot and recover. Recovery must never fail on a crash
        // artifact, whatever byte the cut landed on.
        let rebooted = dir.reopen();
        let (_, report) = StorageEngine::open(Arc::new(rebooted), options())
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));

        assert_eq!(
            report.records_replayed as usize, accepted,
            "cut at byte {cut}: accepted {accepted}, replayed {}",
            report.records_replayed
        );
        assert!(
            stores_equal(&report.store, &reference_store(accepted)),
            "cut at byte {cut}: recovered store differs from clean run over \
             the {accepted}-record prefix"
        );
    }
}

#[test]
fn every_byte_cut_through_a_checkpoint_preserves_accepted_records() {
    const N: u16 = 20;
    let options = || opts(1, 1 << 20, FsyncPolicy::Always);

    // Clean run: append N, checkpoint, and measure the byte range the
    // checkpoint occupies so the sweep can focus the kill line on it.
    let clean = SimDir::new();
    let (engine, _) = StorageEngine::open(Arc::new(clean.clone()), options()).unwrap();
    for i in 0..N {
        engine.append(&entry(i)).unwrap();
    }
    let before_ckpt = clean.bytes_written();
    let store = reference_store(N as usize);
    let stats = IngestStats { accepted: N as u64, ..IngestStats::default() };
    engine.checkpoint(&store, &stats, &no_tokens()).unwrap();
    let after_ckpt = clean.bytes_written();
    assert!(after_ckpt > before_ckpt);

    for cut in before_ckpt..=after_ckpt {
        let dir = SimDir::with_plan(FaultPlan::crash_at(cut));
        let (engine, _) = StorageEngine::open(Arc::new(dir.clone()), options()).unwrap();
        for i in 0..N {
            engine.append(&entry(i)).unwrap();
        }
        // The checkpoint may die anywhere inside its protocol; either
        // way no accepted record may be lost.
        let _ = engine.checkpoint(&store, &stats, &no_tokens());

        let rebooted = dir.reopen();
        let (_, report) = StorageEngine::open(Arc::new(rebooted), options())
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));
        let total = report.records_from_checkpoint + report.records_replayed;
        assert_eq!(
            total, N as u64,
            "cut at byte {cut}: {} from checkpoint + {} replayed != {N}",
            report.records_from_checkpoint, report.records_replayed
        );
        assert!(
            stores_equal(&report.store, &store),
            "cut at byte {cut}: recovered store differs from the accepted set"
        );
    }
}

#[test]
fn every_byte_cut_through_recovery_itself_preserves_the_prefix() {
    // Recovery writes too: torn-tail repairs, fresh segment headers, a
    // fresh manifest, old-manifest deletion. A crash loop — the process
    // dying *during recovery*, repeatedly — must never lose a record
    // that an earlier run fsynced and acknowledged. The sweep: tear the
    // operational run at a spread of byte offsets, then for each torn
    // directory walk a second kill line over every byte recovery itself
    // writes, and check a final clean recovery still rebuilds exactly
    // the accepted prefix.
    const N: u16 = 24;
    let options = || opts(1, 1 << 20, FsyncPolicy::Always);

    let clean = SimDir::new();
    assert_eq!(run_until_crash(&clean, options(), N), N as usize);
    let total = clean.bytes_written();

    // Stride 11 over the tear points keeps the sweep affordable while
    // the inner loop stays byte-exhaustive over recovery's own writes.
    for tear in (0..=total).step_by(11) {
        let dir = SimDir::with_plan(FaultPlan::crash_at(tear));
        run_until_crash(&dir, options(), N);

        // Probe replica: how many records should survive, and how many
        // bytes does a full recovery of this exact directory write?
        let probe = dir.reopen();
        let (_, probe_report) = StorageEngine::open(Arc::new(probe.clone()), options())
            .unwrap_or_else(|e| panic!("tear at byte {tear}: probe recovery failed: {e}"));
        let surviving = probe_report.records_replayed as usize;
        let recovery_bytes = probe.bytes_written();

        for cut in 0..=recovery_bytes {
            let wounded = dir.reopen_with(FaultPlan::crash_at(cut));
            // This recovery may die anywhere in its own writes (repair,
            // fresh segments, manifest). Whether it does or not, nothing
            // durable may be lost.
            let _ = StorageEngine::open(Arc::new(wounded.clone()), options());
            let (_, report) = StorageEngine::open(Arc::new(wounded.reopen()), options())
                .unwrap_or_else(|e| {
                    panic!("tear {tear}, recovery cut {cut}: final recovery failed: {e}")
                });
            assert_eq!(
                report.records_replayed as usize, surviving,
                "tear {tear}, recovery cut {cut}: expected {surviving} records, \
                 got {}",
                report.records_replayed
            );
            assert!(
                stores_equal(&report.store, &reference_store(surviving)),
                "tear {tear}, recovery cut {cut}: recovered store differs from the \
                 clean {surviving}-record prefix"
            );
        }
    }
}

#[test]
fn multi_shard_cuts_recover_the_accepted_prefix() {
    const N: u16 = 80;
    let options = || opts(4, 512, FsyncPolicy::Always);

    let clean = SimDir::new();
    assert_eq!(run_until_crash(&clean, options(), N), N as usize);
    let total = clean.bytes_written();

    // Stride 7 keeps the sweep dense across all four shards' segments
    // (and their rotations) without repeating the single-shard
    // byte-exhaustive proof above.
    for cut in (0..=total).step_by(7) {
        let dir = SimDir::with_plan(FaultPlan::crash_at(cut));
        let accepted = run_until_crash(&dir, options(), N);
        let rebooted = dir.reopen();
        let (_, report) = StorageEngine::open(Arc::new(rebooted), options())
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));
        // Every acknowledged append must survive. One unacknowledged
        // append may too: when the record hit disk and the crash landed
        // in the segment *rotation* that followed, the caller saw an
        // error for a record that is durable — the standard WAL
        // in-flight window. Never more than one, and always the very
        // next record in sequence.
        let replayed = report.records_replayed as usize;
        assert!(
            replayed == accepted || replayed == accepted + 1,
            "cut at byte {cut}: accepted {accepted}, replayed {replayed}"
        );
        assert!(
            stores_equal(&report.store, &reference_store(replayed)),
            "cut at byte {cut}: recovered store is not a clean prefix"
        );
    }
}

#[test]
fn on_rotate_policy_bounds_loss_to_the_unsynced_tail() {
    // Small segments so rotation (and its fsync) happens repeatedly;
    // a power cut drops everything the OS never flushed.
    let dir = SimDir::with_plan(FaultPlan { lose_unsynced_on_crash: true, ..FaultPlan::default() });
    let (engine, _) =
        StorageEngine::open(Arc::new(dir.clone()), opts(1, 300, FsyncPolicy::OnRotate)).unwrap();
    // 300-byte segments hold 4 records each; 22 leaves 2 records in the
    // never-synced tail segment.
    for i in 0..22 {
        engine.append(&entry(i)).unwrap();
    }
    dir.crash_now();
    let (_, report) =
        StorageEngine::open(Arc::new(dir.reopen()), opts(1, 300, FsyncPolicy::OnRotate)).unwrap();
    let recovered = report.records_replayed as usize;
    // Rotated segments were synced: those records survive; the unsynced
    // tail does not; what survives is exactly a prefix.
    assert_eq!(recovered, 20, "every rotated segment survives, the unsynced tail dies");
    assert!(stores_equal(&report.store, &reference_store(recovered)));
}

#[test]
fn short_read_of_a_segment_is_a_torn_tail_only_at_the_tail() {
    // A short read of the FINAL segment looks exactly like a torn
    // tail — tolerated. The same short read of a non-final segment is
    // refused as corruption.
    let dir = SimDir::new();
    let (engine, _) =
        StorageEngine::open(Arc::new(dir.clone()), opts(1, 1 << 20, FsyncPolicy::Always)).unwrap();
    for i in 0..10 {
        engine.append(&entry(i)).unwrap();
    }
    let seg = dir
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| orsp_storage::parse_segment_name(n).is_some())
        .next_back()
        .unwrap();
    let full = dir.read(&seg).unwrap().len() as u64;

    // Tail case: tolerated, recovered prefix is clean.
    let rebooted = dir.reopen_with(FaultPlan {
        short_read: Some((seg.clone(), full - 40)),
        ..FaultPlan::default()
    });
    let (_, report) =
        StorageEngine::open(Arc::new(rebooted), opts(1, 1 << 20, FsyncPolicy::Always)).unwrap();
    assert_eq!(report.torn_tails, 1);
    assert!(stores_equal(&report.store, &reference_store(report.records_replayed as usize)));
}

/// One commit group: `per_batch` uploads starting at batch index `b`,
/// each item carrying a distinct spend key, ready for
/// [`StorageEngine::append_upload_batch`].
fn group(b: u16, per_batch: u16) -> Vec<WalBatchItem> {
    (0..per_batch)
        .map(|j| {
            let i = b * per_batch + j;
            let mut key = [0u8; 32];
            key[0] = (i & 0xFF) as u8;
            key[1] = (i >> 8) as u8;
            key[2] = 0x70;
            WalBatchItem { spend: Some(key), entry: entry(i) }
        })
        .collect()
}

#[test]
fn mid_group_power_cut_recovers_exactly_the_acked_groups() {
    // The sharp end of the group-commit durability contract: a power
    // cut (torn killing write + all unsynced bytes lost) at EVERY byte
    // the engine writes, while uploads flow through the batched path.
    // What recovery rebuilds must be exactly the items of the groups
    // whose fsync returned — never a record or a spend from the group
    // in flight, never one missing from an acked group.
    const BATCHES: u16 = 10;
    const PER_BATCH: u16 = 4;
    let options = || opts(1, 1 << 20, FsyncPolicy::Always);

    let clean = SimDir::new();
    {
        let (engine, _) = StorageEngine::open(Arc::new(clean.clone()), options()).unwrap();
        for b in 0..BATCHES {
            engine.append_upload_batch(&group(b, PER_BATCH)).unwrap();
        }
    }
    let total = clean.bytes_written();

    for cut in 0..=total {
        let dir = SimDir::with_plan(FaultPlan {
            crash_after_bytes: Some(cut),
            torn_final_write: true,
            lose_unsynced_on_crash: true,
            ..FaultPlan::default()
        });
        let mut acked = 0u16;
        if let Ok((engine, _)) = StorageEngine::open(Arc::new(dir.clone()), options()) {
            for b in 0..BATCHES {
                if engine.append_upload_batch(&group(b, PER_BATCH)).is_err() {
                    break;
                }
                acked += 1;
            }
        }

        let rebooted = dir.reopen();
        let (_, report) = StorageEngine::open(Arc::new(rebooted), options())
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));
        let expect_records = acked as usize * PER_BATCH as usize;
        assert_eq!(
            report.records_replayed as usize, expect_records,
            "cut at byte {cut}: {acked} groups acked, replay disagrees"
        );
        assert!(
            stores_equal(&report.store, &reference_store(expect_records)),
            "cut at byte {cut}: recovered store differs from the acked groups"
        );
        let expect_tokens: HashSet<[u8; 32]> =
            (0..acked).flat_map(|b| group(b, PER_BATCH)).filter_map(|item| item.spend).collect();
        assert_eq!(
            report.spent_tokens, expect_tokens,
            "cut at byte {cut}: recovered spend ledger differs from the acked groups"
        );
    }
}

#[test]
fn mid_group_cut_recovers_a_clean_prefix_covering_every_acked_group() {
    // Same sweep without dropping unsynced bytes (the disk kept what it
    // had buffered): recovery may then see items past the last acked
    // group, but only ever a clean prefix of the apply order — a torn
    // tail inside an unacked batch repairs exactly like a torn single
    // record, and spends stay aligned with the surviving records.
    const BATCHES: u16 = 8;
    const PER_BATCH: u16 = 5;
    let options = || opts(1, 1 << 20, FsyncPolicy::Always);

    let clean = SimDir::new();
    {
        let (engine, _) = StorageEngine::open(Arc::new(clean.clone()), options()).unwrap();
        for b in 0..BATCHES {
            engine.append_upload_batch(&group(b, PER_BATCH)).unwrap();
        }
    }
    let total = clean.bytes_written();

    for cut in 0..=total {
        let dir = SimDir::with_plan(FaultPlan::crash_at(cut));
        let mut acked = 0u16;
        if let Ok((engine, _)) = StorageEngine::open(Arc::new(dir.clone()), options()) {
            for b in 0..BATCHES {
                if engine.append_upload_batch(&group(b, PER_BATCH)).is_err() {
                    break;
                }
                acked += 1;
            }
        }

        let rebooted = dir.reopen();
        let (_, report) = StorageEngine::open(Arc::new(rebooted), options())
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));
        let replayed = report.records_replayed as usize;
        assert!(
            replayed >= acked as usize * PER_BATCH as usize,
            "cut at byte {cut}: an acked group lost records ({replayed} < {acked}×{PER_BATCH})"
        );
        assert!(
            stores_equal(&report.store, &reference_store(replayed)),
            "cut at byte {cut}: recovered store is not a clean prefix of apply order"
        );
        // Spends ride with their records: the surviving ledger is the
        // spends of the surviving prefix, give or take the one spend
        // whose paired record was the torn tail (spend precedes record
        // in the encoding, so it can land alone).
        let prefix: HashSet<[u8; 32]> = (0..BATCHES)
            .flat_map(|b| group(b, PER_BATCH))
            .take(replayed)
            .filter_map(|item| item.spend)
            .collect();
        let extra = report.spent_tokens.difference(&prefix).count();
        assert!(
            prefix.is_subset(&report.spent_tokens) && extra <= 1,
            "cut at byte {cut}: spend ledger diverges from the surviving prefix"
        );
    }
}

#[test]
fn crash_then_token_replay_is_still_rejected() {
    // The spend-ledger durability contract end to end: tokens spent
    // before a crash must stay spent after recovery. Drive the serving
    // tier's ShardedIngest through the engine sink, power-cut, recover,
    // seed the fresh ledger from the report, and re-present a token.
    use orsp_server::{GroupCommitConfig, IngestOutcome, RejectReason, ShardedIngest, WalSink};

    let upload = |i: u16| orsp_crypto::UploadRequest {
        record_id: RecordId::from_bytes({
            let mut b = [0u8; 32];
            b[0] = i as u8;
            b[2] = 0xD5;
            b
        }),
        entity: EntityId::new(i as u64 % 3),
        interaction: Interaction::solo(
            InteractionKind::Visit,
            Timestamp::from_seconds(i as i64 * 600),
            SimDuration::minutes(12),
            30.0,
        ),
        token: orsp_crypto::Token {
            message: [i as u8 ^ 0x3C; 32],
            signature: orsp_crypto::BigUint::from_u64(1),
        },
        release_at: Timestamp::EPOCH,
    };

    let dir = SimDir::with_plan(FaultPlan { lose_unsynced_on_crash: true, ..FaultPlan::default() });
    let (engine, _) =
        StorageEngine::open(Arc::new(dir.clone()), opts(2, 1 << 20, FsyncPolicy::Always)).unwrap();
    let ingest = ShardedIngest::new(2);
    ingest.set_wal_with(
        Arc::new(engine) as Arc<dyn WalSink>,
        GroupCommitConfig { batch_max: 8, window_us: 0 },
    );
    for i in 0..6 {
        // Dummy signatures, verdict supplied: admission and durability
        // behave exactly as with minted tokens.
        assert!(matches!(ingest.ingest_verified(&upload(i), true), IngestOutcome::Accepted));
    }
    dir.crash_now();

    let (_, report) =
        StorageEngine::open(Arc::new(dir.reopen()), opts(2, 1 << 20, FsyncPolicy::Always)).unwrap();
    assert_eq!(report.records_replayed, 6, "fsync=always: every accepted upload survives");
    assert_eq!(report.spent_tokens.len(), 6, "every spend recovered with its record");

    let recovered = ShardedIngest::new(2);
    recovered.seed_spent_tokens(report.spent_tokens);
    // The replayed token double-spends even though the post-crash
    // process never saw the original presentation.
    assert!(matches!(
        recovered.ingest_verified(&upload(3), true),
        IngestOutcome::Rejected(RejectReason::DoubleSpend)
    ));
    // A genuinely fresh token still clears.
    assert!(matches!(recovered.ingest_verified(&upload(40), true), IngestOutcome::Accepted));
}

#[test]
fn fsdir_round_trips_recovery_and_checkpoints_on_real_files() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("crash-matrix-fsdir");
    let _ = std::fs::remove_dir_all(&root);

    const N: u16 = 60;
    {
        let dir = Arc::new(FsDir::open(&root).unwrap());
        let (engine, report) =
            StorageEngine::open(dir, opts(2, 1024, FsyncPolicy::OnRotate)).unwrap();
        assert_eq!(report.records_replayed, 0);
        for i in 0..N {
            engine.append(&entry(i)).unwrap();
        }
        engine.sync_all().unwrap();
    }
    // "Restart the process": recover from real files.
    let dir = Arc::new(FsDir::open(&root).unwrap());
    let (engine, report) = StorageEngine::open(dir, opts(2, 1024, FsyncPolicy::OnRotate)).unwrap();
    assert_eq!(report.records_replayed, N as u64);
    assert!(stores_equal(&report.store, &reference_store(N as usize)));

    // Checkpoint, then recover again: replay starts past the frontier.
    let stats = IngestStats { accepted: N as u64, ..IngestStats::default() };
    engine.checkpoint(&report.store, &stats, &no_tokens()).unwrap();
    drop(engine);
    let dir = Arc::new(FsDir::open(&root).unwrap());
    let (_, second) = StorageEngine::open(dir, opts(2, 1024, FsyncPolicy::OnRotate)).unwrap();
    assert!(second.from_checkpoint);
    assert_eq!(second.records_from_checkpoint, N as u64);
    assert_eq!(second.records_replayed, 0);
    assert!(stores_equal(&second.store, &reference_store(N as usize)));
    assert_eq!(second.stats.accepted, N as u64);

    let _ = std::fs::remove_dir_all(&root);
}
