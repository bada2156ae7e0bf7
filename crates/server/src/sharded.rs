//! The shard map, and the batch driver over the one admission core.
//!
//! [`shard_index`] is the single routing function every layer shares:
//! ingest ledger and store shards, on-disk segments, and the proxy's
//! hash ranges all partition by it. [`deterministic_ingest`] is how the
//! in-process pipeline admits a whole delivery list: it spreads the one
//! expensive, pure step — RSA token verification — across workers, then
//! walks the deliveries in order through [`ShardedIngest`], the same
//! admission core the daemons serve traffic with.

use crate::ingest::IngestService;
use crate::sharded_ingest::{IngestOutcome, ShardedIngest};
use crate::wal::WalSink;
use orsp_client::UploadRequest;
use orsp_crypto::blind::verify_unblinded;
use orsp_crypto::RsaPublicKey;
use orsp_types::Timestamp;
use std::sync::Arc;

/// Map a 32-byte key to one of `n` shards using its first 8 bytes as a
/// little-endian word. Keys here are hash outputs (record ids, token
/// ledger keys), so this is uniform. Shared by the store and the spend
/// ledger so both keyspaces spread across all shards, not just the first
/// 256 buckets.
pub fn shard_index(bytes: &[u8; 32], n: usize) -> usize {
    let b = bytes;
    (u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]) as usize) % n.max(1)
}

/// Multi-core ingest with bit-for-bit deterministic results: admit the
/// deliveries exactly as a sequential [`IngestService::ingest`] loop
/// would, with the CPU-heavy step spread across `threads` workers.
///
/// 1. **Verify** (parallel): RSA signature checks against `mint_key` —
///    pure functions of the public key, order-free.
/// 2. **Admit** (sequential): every delivery, in order, through one
///    single-shard [`ShardedIngest`] via `ingest_verified`. First
///    presentation of a token wins and each history sees its uploads in
///    delivery order, so the returned service is identical for any
///    thread count.
///
/// With a `sink`, every accepted upload's spend and record are logged
/// through the same `log_upload_batch` path the daemons use. Sink
/// failures never change the in-memory outcome (the run's digests stay
/// identical with or without a sink); each one is counted in
/// `storage_append_errors_total`, and a crashed sink simply stops
/// persisting — exactly the state a real crash leaves behind.
pub fn deterministic_ingest(
    deliveries: &[(Timestamp, UploadRequest)],
    mint_key: &RsaPublicKey,
    threads: usize,
    sink: Option<Arc<dyn WalSink>>,
) -> IngestService {
    let obs = orsp_obs::global();

    let verify_span = obs.span("ingest_verify_us");
    let mut valid = vec![false; deliveries.len()];
    let chunk = deliveries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for (slice, out) in deliveries.chunks(chunk).zip(valid.chunks_mut(chunk)) {
            scope.spawn(move || {
                for ((_, u), v) in slice.iter().zip(out.iter_mut()) {
                    *v = verify_unblinded(mint_key, &u.token.message, &u.token.signature);
                }
            });
        }
    });
    verify_span.end();

    let admit_span = obs.span("ingest_admit_us");
    let ingest = ShardedIngest::new(1);
    if let Some(sink) = sink {
        ingest.set_wal(sink);
    }
    let mut sink_errors = 0u64;
    for ((_, upload), &valid) in deliveries.iter().zip(&valid) {
        if let IngestOutcome::AcceptedNotDurable(_) = ingest.ingest_verified(upload, valid) {
            sink_errors += 1;
        }
    }
    let (store, stats) = ingest.into_merged();
    admit_span.end();

    // Mirror the batch outcome into the global registry as sums, after
    // the loop, so the hot path stays untouched.
    obs.counter("storage_append_errors_total").add(sink_errors);
    obs.counter("ingest_accepted_total").add(stats.accepted);
    obs.counter("ingest_rejected_total").add(stats.rejected());

    IngestService::from_parts(store, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredHistory;
    use orsp_crypto::{TokenMint, TokenWallet};
    use orsp_types::{
        DeviceId, EntityId, Interaction, InteractionKind, RecordId, SimDuration,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{HashMap, HashSet};

    fn uploads(n: usize, seed: u64) -> (Vec<(Timestamp, UploadRequest)>, RsaPublicKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mint = TokenMint::new(&mut rng, 256, u32::MAX, SimDuration::DAY);
        let mut wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        let ups = (0..n)
            .map(|i| {
                wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap();
                let upload = UploadRequest {
                    record_id: RecordId::from_bytes({
                        let mut b = [0u8; 32];
                        b[0] = (i % 251) as u8;
                        b[1] = (i / 251) as u8;
                        b
                    }),
                    entity: EntityId::new((i % 17) as u64),
                    interaction: Interaction::solo(
                        InteractionKind::Visit,
                        Timestamp::from_seconds(i as i64 * 1_000),
                        SimDuration::minutes(30),
                        50.0,
                    ),
                    token: wallet.take_token().unwrap(),
                    release_at: Timestamp::EPOCH,
                };
                (Timestamp::EPOCH, upload)
            })
            .collect();
        (ups, mint.public_key().clone())
    }

    #[test]
    fn double_spends_caught_across_threads() {
        let (mut ups, key) = uploads(20, 2);
        // Duplicate every upload: each replay must be caught exactly
        // once, whichever worker verified it.
        let dupes = ups.clone();
        ups.extend(dupes);
        let svc = deterministic_ingest(&ups, &key, 4, None);
        assert_eq!(svc.stats().accepted, 20);
        assert_eq!(svc.stats().double_spend, 20);
        assert_eq!(svc.store().total_interactions(), 20);
    }

    #[test]
    fn forged_tokens_rejected_in_parallel() {
        let (mut ups, key) = uploads(10, 3);
        for (_, u) in &mut ups {
            u.token.signature = orsp_crypto::BigUint::from_u64(99);
        }
        let svc = deterministic_ingest(&ups, &key, 4, None);
        assert_eq!(svc.stats().accepted, 0);
        assert_eq!(svc.stats().bad_token, 10);
        assert!(svc.store().is_empty());
    }

    #[test]
    fn merged_store_matches_serial_result() {
        let (ups, key) = uploads(50, 4);
        let svc = deterministic_ingest(&ups, &key, 4, None);

        let mut serial = crate::HistoryStore::new();
        for (_, u) in &ups {
            let _ = serial.append(u.record_id, u.entity, u.interaction);
        }
        assert_eq!(svc.store().len(), serial.len());
        assert_eq!(svc.store().total_interactions(), serial.total_interactions());
    }

    #[test]
    fn single_shard_single_thread_degenerates_gracefully() {
        let (ups, key) = uploads(10, 5);
        // 0 threads is clamped to 1, and an empty batch is fine too.
        for threads in [0, 1] {
            assert_eq!(deterministic_ingest(&ups, &key, threads, None).stats().accepted, 10);
        }
        assert_eq!(deterministic_ingest(&[], &key, 4, None).stats().rejected(), 0);
    }

    /// A mixed batch for the deterministic-ingest tests, with the mint
    /// returned for the sequential oracle: valid uploads, forged tokens,
    /// replays under the same and under a *different* record id, an
    /// entity re-binding and an out-of-order record.
    fn mixed_deliveries(seed: u64) -> (Vec<(Timestamp, UploadRequest)>, TokenMint) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mint = TokenMint::new(&mut rng, 256, u32::MAX, SimDuration::DAY);
        let mut wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        let mut out: Vec<(Timestamp, UploadRequest)> = Vec::new();
        for i in 0..60usize {
            wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap();
            let mut u = UploadRequest {
                record_id: RecordId::from_bytes({
                    let mut b = [0u8; 32];
                    b[0] = (i % 23) as u8;
                    b
                }),
                entity: EntityId::new((i % 23 % 7) as u64),
                interaction: Interaction::solo(
                    InteractionKind::Visit,
                    Timestamp::from_seconds(i as i64 * 1_000),
                    SimDuration::minutes(30),
                    50.0,
                ),
                token: wallet.take_token().unwrap(),
                release_at: Timestamp::from_seconds(i as i64),
            };
            if i % 11 == 10 {
                u.token.signature = orsp_crypto::BigUint::from_u64(7); // forged
            }
            if i == 30 {
                u.entity = EntityId::new(99); // record 7 is bound to entity 0
            }
            if i == 40 {
                u.interaction.start = Timestamp::EPOCH; // record 17 is already past this
            }
            let t = Timestamp::from_seconds(i as i64);
            if i % 13 == 12 {
                out.push((t, u.clone())); // replay: second copy double-spends
            }
            if i % 17 == 16 {
                // Replay under another record id: the ledger is per
                // token, so the second copy double-spends all the same.
                let mut moved = u.clone();
                moved.record_id = RecordId::from_bytes([200 + (i / 17) as u8; 32]);
                out.push((t, u));
                out.push((t, moved));
                continue;
            }
            out.push((t, u));
        }
        (out, mint)
    }

    /// The whole point: the admitted store and every counter must match a
    /// plain sequential `IngestService::ingest` loop, at any thread count.
    #[test]
    fn deterministic_ingest_matches_sequential() {
        let (deliveries, mut mint) = mixed_deliveries(11);
        let key = mint.public_key().clone();

        let mut reference = IngestService::new();
        for (at, u) in &deliveries {
            let _ = reference.ingest(u, &mut mint, *at);
        }
        let want = reference.stats();
        assert!(
            want.accepted > 0
                && want.bad_token > 0
                && want.double_spend > 0
                && want.bad_record > 0
                && want.entity_mismatch > 0,
            "the batch exercises every counter: {want:?}"
        );
        let want_store: HashMap<&RecordId, &StoredHistory> = reference.store().iter().collect();

        for threads in [1, 2, 4, 8] {
            let svc = deterministic_ingest(&deliveries, &key, threads, None);
            assert_eq!(svc.stats(), want, "stats diverge at {threads} threads");
            let got: HashMap<&RecordId, &StoredHistory> = svc.store().iter().collect();
            assert_eq!(got, want_store, "store diverges at {threads} threads");
        }
    }

    #[test]
    fn deterministic_ingest_spends_tokens_once() {
        let (deliveries, mint) = mixed_deliveries(12);
        let stats = deterministic_ingest(&deliveries, mint.public_key(), 4, None).stats();
        // Every distinct valid token was consumed exactly once, whether
        // or not the store then took its record; every further
        // presentation of it double-spent; forgeries never reached the
        // ledger.
        let valid: Vec<[u8; 32]> = deliveries
            .iter()
            .filter(|(_, u)| {
                verify_unblinded(mint.public_key(), &u.token.message, &u.token.signature)
            })
            .map(|(_, u)| u.token.ledger_key())
            .collect();
        let distinct = valid.iter().collect::<HashSet<_>>().len() as u64;
        assert_eq!(stats.accepted + stats.bad_record + stats.entity_mismatch, distinct);
        assert_eq!(stats.double_spend, valid.len() as u64 - distinct);
        assert_eq!(stats.bad_token, (deliveries.len() - valid.len()) as u64);
        assert!(stats.double_spend > 0 && stats.bad_token > 0, "batch has replays and forgeries");
    }

    proptest::proptest! {
        /// The shard map must stay in bounds and be a stable pure
        /// function — every layer's partitioning depends on both.
        #[test]
        fn shard_index_in_bounds_and_stable(
            bytes in proptest::collection::vec(0u8..=255, 32..33),
            n in 1usize..64,
        ) {
            let mut key = [0u8; 32];
            key.copy_from_slice(&bytes);
            let s = shard_index(&key, n);
            proptest::prop_assert!(s < n);
            proptest::prop_assert_eq!(s, shard_index(&key, n));
        }

        /// n = 0 is clamped rather than panicking.
        #[test]
        fn shard_index_survives_zero_shards(b0 in 0u8..=255) {
            let mut key = [0u8; 32];
            key[0] = b0;
            proptest::prop_assert_eq!(shard_index(&key, 0), 0);
        }
    }
}
