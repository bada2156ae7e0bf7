//! Power cuts mid-catch-up: the follower-side crash matrix.
//!
//! Catch-up rebuilds a replica through the normal engine append path —
//! wipe, append, verify from logs, checkpoint — precisely so that a
//! power cut at *any* instant leaves a directory the next attempt
//! either recovers or wipes again, never a half-trusted checkpoint.
//! These sweeps walk the kill line over every byte (strided) the
//! follower writes during a catch-up, restore power, catch up again,
//! and require the final state to be `state_digest` bit-identical to
//! the primary with the adopted epoch durable.

use orsp_net::{NetError, Request, Response};
use orsp_replica::{catch_up_chunk, catch_up_range, PeerLink};
use orsp_server::{IngestStats, WalEntry};
use orsp_storage::{
    scan_source, state_digest, Dir, FaultPlan, FsyncPolicy, SimDir, StorageEngine, StorageOptions,
};
use orsp_types::{EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp};
use std::sync::Arc;

fn rid(n: u8) -> RecordId {
    RecordId::from_bytes([n; 32])
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

/// A primary's directory: `n` two-interaction histories and `n` spent
/// tokens, fsynced.
fn primary_dir(n: u8) -> SimDir {
    let dir = SimDir::new();
    let (engine, _) = StorageEngine::open(Arc::new(dir.clone()) as Arc<dyn Dir>, opts()).unwrap();
    for i in 0..n {
        for offset in [0, 50] {
            engine
                .append(&WalEntry {
                    record_id: rid(i),
                    entity: EntityId::new(u64::from(i % 3)),
                    interaction: visit(i64::from(i) * 100 + offset),
                })
                .unwrap();
        }
        engine.append_token_spend(&[i; 32]).unwrap();
    }
    engine.sync_all().unwrap();
    dir
}

/// A peer serving real catch-up chunks from a directory — the wire is
/// faked, the chunking and digests are not.
struct DirPeer {
    dir: SimDir,
    epoch: u64,
}

impl PeerLink for DirPeer {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        match request {
            Request::CatchUp { cursor, .. } => {
                Ok(catch_up_chunk(&self.dir, self.epoch, true, *cursor).expect("serve chunk"))
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
fn power_cut_at_any_byte_mid_catch_up_converges_on_retry() {
    let peer = DirPeer { dir: primary_dir(24), epoch: 5 };
    let want = digest_of(&peer.dir);

    // Clean run sizes the kill line: every byte a full catch-up writes
    // (manifest, segments, spend markers, epoch checkpoint — all of it).
    let clean = SimDir::new();
    let report = catch_up_range(&peer, 0, Arc::new(clean.clone()) as Arc<dyn Dir>, opts()).unwrap();
    assert!(report.rebuilt);
    assert_eq!(report.digest, want);
    let total = clean.bytes_written();
    assert!(total > 0);

    for cut in (0..=total).step_by(37) {
        let follower = SimDir::with_plan(FaultPlan::crash_at(cut));
        // The cut may land anywhere: engine open, appends, the
        // verification scan, the epoch checkpoint. Late cuts may not
        // fire at all — then the first attempt simply succeeds.
        let first = catch_up_range(&peer, 0, Arc::new(follower.clone()) as Arc<dyn Dir>, opts());

        // Power restored: surviving bytes only, fault plan cleared.
        let restored = follower.reopen();
        let report = catch_up_range(&peer, 0, Arc::new(restored.clone()) as Arc<dyn Dir>, opts())
            .unwrap_or_else(|e| {
                panic!(
                    "cut at byte {cut}: catch-up after power restore failed: {e} \
                         (first attempt survived: {})",
                    first.is_ok()
                )
            });
        assert_eq!(report.epoch, 5, "cut at byte {cut}: epoch not adopted");
        assert_eq!(report.digest, want, "cut at byte {cut}: digests disagree");
        assert_eq!(
            digest_of(&restored),
            want,
            "cut at byte {cut}: rebuilt state is not bit-identical to the primary"
        );
        // The adopted epoch survived its checkpoint: a reboot reads it
        // back, so a replayed rejoin re-fences at the right epoch.
        let (_, recovered) =
            StorageEngine::open(Arc::new(restored.reopen()) as Arc<dyn Dir>, opts()).unwrap();
        assert_eq!(recovered.epoch, 5, "cut at byte {cut}: adopted epoch not durable");
    }
}

#[test]
fn power_cut_while_replacing_diverged_state_never_resurrects_it() {
    // The dangerous variant: the follower is a deposed primary holding
    // unreplicated (never-acked-under-the-new-epoch) writes. Catch-up
    // wipes and rebuilds; a power cut mid-replacement must leave no
    // state in which the divergent record survives a successful
    // catch-up.
    let peer = DirPeer { dir: primary_dir(12), epoch: 9 };
    let want = digest_of(&peer.dir);
    let diverged = || {
        let dir = SimDir::new();
        let (engine, _) =
            StorageEngine::open(Arc::new(dir.clone()) as Arc<dyn Dir>, opts()).unwrap();
        engine
            .append(&WalEntry {
                record_id: rid(200),
                entity: EntityId::new(7),
                interaction: visit(10),
            })
            .unwrap();
        engine.append_token_spend(&[0xEE; 32]).unwrap();
        engine.sync_all().unwrap();
        dir
    };

    // Clean replacement sizes the kill line (reopen resets the byte
    // counter, so the divergence seeding is not on it).
    let clean = diverged().reopen();
    let report = catch_up_range(&peer, 0, Arc::new(clean.clone()) as Arc<dyn Dir>, opts()).unwrap();
    assert!(report.rebuilt);
    let total = clean.bytes_written();
    assert!(total > 0);

    for cut in (0..=total).step_by(23) {
        let follower = diverged().reopen_with(FaultPlan::crash_at(cut));
        let _ = catch_up_range(&peer, 0, Arc::new(follower.clone()) as Arc<dyn Dir>, opts());

        let restored = follower.reopen();
        let report = catch_up_range(&peer, 0, Arc::new(restored.clone()) as Arc<dyn Dir>, opts())
            .unwrap_or_else(|e| {
                panic!("cut at byte {cut}: catch-up after power restore failed: {e}")
            });
        assert_eq!(report.digest, want, "cut at byte {cut}");
        let scan = scan_source(&restored).unwrap();
        assert!(
            scan.store.get(&rid(200)).is_none(),
            "cut at byte {cut}: the divergent record survived replacement"
        );
        assert!(
            !scan.spent_tokens.contains(&[0xEE; 32]),
            "cut at byte {cut}: the divergent spend survived replacement"
        );
    }
}
