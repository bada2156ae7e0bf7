//! Group-commit equivalence: the batched append path must be
//! indistinguishable on disk from the sequential path it replaces.
//!
//! Two layers of proof:
//!
//! * **Byte identity** — for history-only workloads, committing through
//!   [`StorageEngine::append_upload_batch`] produces segment files that
//!   are byte-for-byte equal to one [`StorageEngine::append`] per
//!   record, across shard counts, batch shapes, and rotation
//!   boundaries. Recovery code, tooling, and the crash matrix therefore
//!   cover both paths at once.
//! * **Replay equivalence** — with spends riding along, standalone
//!   token records route by ledger key while batched spends ride their
//!   record's shard, so byte identity cannot hold; what must (and does)
//!   hold is that recovery rebuilds the same store, the same counters,
//!   and the same spent-token ledger either way.

use orsp_server::{HistoryStore, WalBatchItem, WalEntry, WalSink};
use orsp_storage::{parse_segment_name, Dir, FsyncPolicy, SimDir, StorageEngine, StorageOptions};
use orsp_types::{EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp};
use std::collections::HashSet;
use std::sync::Arc;

fn entry(i: u16) -> WalEntry {
    let mut id = [0u8; 32];
    id[0] = (i & 0xFF) as u8;
    id[1] = (i >> 8) as u8;
    id[2] = 0xEE;
    WalEntry {
        record_id: RecordId::from_bytes(id),
        entity: EntityId::new(i as u64 % 6),
        interaction: Interaction::solo(
            InteractionKind::ALL[i as usize % 4],
            Timestamp::from_seconds(i as i64 * 90),
            SimDuration::minutes(4),
            11.0 * (i as f64 + 1.0),
        ),
    }
}

fn spend_key(i: u16) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[0] = (i & 0xFF) as u8;
    key[1] = (i >> 8) as u8;
    key[2] = 0x4B;
    key
}

fn opts(shards: u32, seg_bytes: u64, fsync: FsyncPolicy) -> StorageOptions {
    StorageOptions {
        shard_count: shards,
        max_segment_bytes: seg_bytes,
        fsync,
        ..StorageOptions::default()
    }
}

fn segment_files(dir: &SimDir) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = dir
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| parse_segment_name(n).is_some())
        .map(|n| {
            let data = dir.read(&n).unwrap();
            (n, data)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn history_only_batches_are_byte_identical_to_sequential_appends() {
    // Sweep shard counts, segment sizes (forcing rotations mid-batch),
    // and batch shapes; every combination must leave identical bytes.
    const N: u16 = 60;
    for shards in [1u32, 4] {
        for seg_bytes in [1 << 20, 400] {
            for batch_size in [1usize, 3, 7, 60] {
                let sequential = SimDir::new();
                {
                    let (engine, _) = StorageEngine::open(
                        Arc::new(sequential.clone()),
                        opts(shards, seg_bytes, FsyncPolicy::Always),
                    )
                    .unwrap();
                    for i in 0..N {
                        engine.append(&entry(i)).unwrap();
                    }
                }

                let batched = SimDir::new();
                {
                    let (engine, _) = StorageEngine::open(
                        Arc::new(batched.clone()),
                        opts(shards, seg_bytes, FsyncPolicy::Always),
                    )
                    .unwrap();
                    let items: Vec<WalBatchItem> =
                        (0..N).map(|i| WalBatchItem { spend: None, entry: entry(i) }).collect();
                    for chunk in items.chunks(batch_size) {
                        engine.append_upload_batch(chunk).unwrap();
                    }
                }

                let a = segment_files(&sequential);
                let b = segment_files(&batched);
                assert_eq!(
                    a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                    b.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                    "{shards} shards / {seg_bytes}B segments / batch {batch_size}: \
                     different segment layout"
                );
                for ((name, seq_bytes), (_, batch_bytes)) in a.iter().zip(&b) {
                    assert_eq!(
                        seq_bytes, batch_bytes,
                        "{shards} shards / {seg_bytes}B segments / batch {batch_size}: \
                         segment {name} differs between paths"
                    );
                }
            }
        }
    }
}

#[test]
fn batches_with_spends_recover_the_same_state_as_the_sequential_sink_path() {
    const N: u16 = 48;
    let options = || opts(4, 600, FsyncPolicy::Always);

    // Sequential reference: the default WalSink decomposition a
    // non-batching sink gets — one token record, then one history
    // record, per upload.
    let sequential = SimDir::new();
    {
        let (engine, _) = StorageEngine::open(Arc::new(sequential.clone()), options()).unwrap();
        for i in 0..N {
            engine.log_token_spend(&spend_key(i)).unwrap();
            engine.log_append(&entry(i)).unwrap();
        }
    }

    // Batched: same uploads, grouped.
    let batched = SimDir::new();
    {
        let (engine, _) = StorageEngine::open(Arc::new(batched.clone()), options()).unwrap();
        let items: Vec<WalBatchItem> =
            (0..N).map(|i| WalBatchItem { spend: Some(spend_key(i)), entry: entry(i) }).collect();
        for chunk in items.chunks(9) {
            engine.log_upload_batch(chunk).unwrap();
        }
    }

    let (_, seq_report) = StorageEngine::open(Arc::new(sequential.reopen()), options()).unwrap();
    let (_, batch_report) = StorageEngine::open(Arc::new(batched.reopen()), options()).unwrap();

    assert_eq!(seq_report.records_replayed, N as u64);
    assert_eq!(batch_report.records_replayed, N as u64);
    let digest = |store: &HistoryStore| -> Vec<(RecordId, usize)> {
        let mut d: Vec<_> = store.iter().map(|(id, s)| (*id, s.history.records().len())).collect();
        d.sort();
        d
    };
    assert_eq!(digest(&seq_report.store), digest(&batch_report.store));
    let expect: HashSet<[u8; 32]> = (0..N).map(spend_key).collect();
    assert_eq!(seq_report.spent_tokens, expect);
    assert_eq!(batch_report.spent_tokens, expect);
}
