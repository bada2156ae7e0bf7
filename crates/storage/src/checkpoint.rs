//! Checkpoints: a whole serialized [`HistoryStore`] plus the ingest
//! counters and the spent-token ledger, written so recovery can skip
//! replaying the log's prefix.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   "OCKP"  u32
//! version u8      (3; nothing else decodes)
//! len     u32     payload length
//! crc     u32     crc32(payload)
//! payload:
//!   stats        5 × u64   accepted, bad_token, double_spend,
//!                          bad_record, entity_mismatch
//!   n_records    u64
//!   per record (sorted by record-id bytes):
//!     record_id  [u8; 32]
//!     entity     u64
//!     n          u32       interaction count
//!     per interaction: kind u8 | start i64 | duration i64 |
//!                      distance f64 | group u16
//!   n_tokens     u64
//!   per token (sorted by key bytes):
//!     ledger_key [u8; 32]
//!   epoch        u64
//! ```
//!
//! Records and tokens are sorted so the same state always encodes to
//! the same bytes, regardless of hash-map iteration order — checkpoints
//! are comparable across runs and thread counts, like everything else
//! in this repo.
//!
//! The **epoch** is the replication fence for the range this directory
//! holds: monotonically increasing, bumped when a proxy promotes a
//! follower over a dead primary, and persisted here so a rejoining
//! stale primary cannot forget it was deposed. Single-copy deployments
//! never move it past 0.

use crate::error::{Result, StorageError};
use orsp_server::{crc32, HistoryStore, IngestStats};
use orsp_types::{EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp};
use std::collections::HashSet;

const CHECKPOINT_MAGIC: u32 = 0x4F43_4B50; // "OCKP"
const CHECKPOINT_VERSION: u8 = 3;

fn kind_to_u8(kind: InteractionKind) -> u8 {
    // Same mapping as the WAL record codec (declaration order).
    InteractionKind::ALL.iter().position(|k| *k == kind).unwrap_or(0) as u8
}

fn kind_from_u8(v: u8) -> Option<InteractionKind> {
    InteractionKind::ALL.get(v as usize).copied()
}

/// Serialize `store` + `stats` + the spent-token ledger into a
/// checkpoint buffer at epoch 0.
///
/// This is also the byte layout [`crate::state_digest`] hashes, so the
/// epoch stays pinned at 0 here: two replicas holding the same records
/// and tokens must digest equal even when their fencing epochs were
/// bumped at different moments.
pub fn encode_checkpoint(
    store: &HistoryStore,
    stats: &IngestStats,
    spent_tokens: &HashSet<[u8; 32]>,
) -> Vec<u8> {
    encode_checkpoint_with_epoch(store, stats, spent_tokens, 0)
}

/// Serialize a checkpoint buffer carrying an explicit replication epoch.
pub fn encode_checkpoint_with_epoch(
    store: &HistoryStore,
    stats: &IngestStats,
    spent_tokens: &HashSet<[u8; 32]>,
    epoch: u64,
) -> Vec<u8> {
    let mut entries: Vec<_> = store.iter().collect();
    entries.sort_by_key(|(id, _)| *id.as_bytes());

    let mut payload = Vec::with_capacity(48 + store.total_interactions() * 27);
    for v in [
        stats.accepted,
        stats.bad_token,
        stats.double_spend,
        stats.bad_record,
        stats.entity_mismatch,
    ] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (id, stored) in entries {
        payload.extend_from_slice(id.as_bytes());
        payload.extend_from_slice(&stored.entity.raw().to_le_bytes());
        let records = stored.history.records();
        payload.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for r in records {
            payload.push(kind_to_u8(r.kind));
            payload.extend_from_slice(&r.start.as_seconds().to_le_bytes());
            payload.extend_from_slice(&r.duration.as_seconds().to_le_bytes());
            payload.extend_from_slice(&r.distance_travelled_m.to_le_bytes());
            payload.extend_from_slice(&r.group_size.to_le_bytes());
        }
    }
    let mut tokens: Vec<_> = spent_tokens.iter().collect();
    tokens.sort();
    payload.extend_from_slice(&(tokens.len() as u64).to_le_bytes());
    for key in tokens {
        payload.extend_from_slice(key);
    }
    payload.extend_from_slice(&epoch.to_le_bytes());

    let mut out = Vec::with_capacity(13 + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
    out.push(CHECKPOINT_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
    name: &'a str,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.data.len()).ok_or_else(|| {
            StorageError::Corrupt {
                name: self.name.to_string(),
                detail: format!("payload exhausted at byte {}", self.at),
            }
        })?;
        let slice = &self.data[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decode a checkpoint buffer back into its store, counters,
/// spent-token ledger, and replication epoch.
pub fn decode_checkpoint(
    name: &str,
    data: &[u8],
) -> Result<(HistoryStore, IngestStats, HashSet<[u8; 32]>, u64)> {
    let corrupt = |detail: String| StorageError::Corrupt { name: name.to_string(), detail };
    if data.len() < 13 {
        return Err(corrupt("shorter than the fixed header".into()));
    }
    if u32::from_le_bytes(data[0..4].try_into().unwrap()) != CHECKPOINT_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let version = data[4];
    if version != CHECKPOINT_VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let len = u32::from_le_bytes(data[5..9].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[9..13].try_into().unwrap());
    if data.len() != 13 + len {
        return Err(corrupt(format!(
            "payload length mismatch: header says {len}, file holds {}",
            data.len() - 13
        )));
    }
    let payload = &data[13..];
    if crc32(payload) != crc {
        return Err(corrupt("payload CRC mismatch".into()));
    }

    let mut c = Cursor { data: payload, at: 0, name };
    let stats = IngestStats {
        accepted: c.u64()?,
        bad_token: c.u64()?,
        double_spend: c.u64()?,
        bad_record: c.u64()?,
        entity_mismatch: c.u64()?,
    };
    let n_records = c.u64()?;
    let mut store = HistoryStore::new();
    for _ in 0..n_records {
        let id = RecordId::from_bytes(c.take(32)?.try_into().unwrap());
        let entity = EntityId::new(c.u64()?);
        let n = c.u32()?;
        for _ in 0..n {
            let kind = kind_from_u8(c.u8()?).ok_or_else(|| StorageError::Corrupt {
                name: name.to_string(),
                detail: "invalid interaction kind".to_string(),
            })?;
            let start = Timestamp::from_seconds(c.i64()?);
            let duration = SimDuration::seconds(c.i64()?);
            let distance = c.f64()?;
            let group = c.u16()?;
            let mut interaction = Interaction::solo(kind, start, duration, distance);
            interaction.group_size = group;
            store.append(id, entity, interaction).map_err(|e| StorageError::Corrupt {
                name: name.to_string(),
                detail: format!("snapshot replays into an invalid store: {e}"),
            })?;
        }
    }
    let mut spent_tokens = HashSet::new();
    let n_tokens = c.u64()?;
    for _ in 0..n_tokens {
        spent_tokens.insert(<[u8; 32]>::try_from(c.take(32)?).unwrap());
    }
    let epoch = c.u64()?;
    if c.at != payload.len() {
        return Err(corrupt(format!("{} trailing bytes after records", payload.len() - c.at)));
    }
    Ok((store, stats, spent_tokens, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> (HistoryStore, IngestStats, HashSet<[u8; 32]>) {
        let mut store = HistoryStore::new();
        for i in 0u8..10 {
            let id = RecordId::from_bytes([i; 32]);
            let entity = EntityId::new((i % 3) as u64);
            for j in 0..(i as i64 % 4 + 1) {
                let interaction = Interaction::solo(
                    InteractionKind::ALL[(j as usize) % 4],
                    Timestamp::from_seconds(i as i64 * 1000 + j * 60),
                    SimDuration::minutes(10 + j),
                    12.5 * (j + 1) as f64,
                );
                store.append(id, entity, interaction).unwrap();
            }
        }
        let stats = IngestStats {
            accepted: 25,
            bad_token: 3,
            double_spend: 1,
            bad_record: 2,
            entity_mismatch: 0,
        };
        let tokens: HashSet<[u8; 32]> = (0u8..25).map(|i| [i.wrapping_mul(7); 32]).collect();
        (store, stats, tokens)
    }

    #[test]
    fn round_trips_store_stats_and_tokens() {
        let (store, stats, tokens) = populated();
        let buf = encode_checkpoint(&store, &stats, &tokens);
        let (decoded_store, decoded_stats, decoded_tokens, epoch) =
            decode_checkpoint("ckpt", &buf).unwrap();
        assert_eq!(decoded_stats, stats);
        assert_eq!(decoded_tokens, tokens);
        assert_eq!(epoch, 0);
        assert_eq!(decoded_store.len(), store.len());
        assert_eq!(decoded_store.total_interactions(), store.total_interactions());
        for (id, stored) in store.iter() {
            let other = decoded_store.iter().find(|(i, _)| *i == id).unwrap().1;
            assert_eq!(other, stored);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let (store, stats, tokens) = populated();
        assert_eq!(
            encode_checkpoint(&store, &stats, &tokens),
            encode_checkpoint(&store, &stats, &tokens)
        );
    }

    #[test]
    fn older_versions_are_refused_by_version() {
        // Versions 1 (no token section) and 2 (no epoch) have no writer
        // left. Each is refused at its version byte, ahead of the length
        // and CRC checks — so the refusal holds even for a buffer that is
        // otherwise a sound checkpoint of that version.
        let (store, stats, _) = populated();
        let current = encode_checkpoint(&store, &stats, &HashSet::new());
        for (version, strip) in [(1u8, 16), (2u8, 8)] {
            let payload = &current[13..current.len() - strip];
            let mut old = CHECKPOINT_MAGIC.to_le_bytes().to_vec();
            old.push(version);
            old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            old.extend_from_slice(&crc32(payload).to_le_bytes());
            old.extend_from_slice(payload);
            match decode_checkpoint("old", &old) {
                Err(StorageError::Corrupt { detail, .. }) => {
                    assert_eq!(detail, format!("unsupported version {version}"))
                }
                other => panic!("version {version}: expected a typed refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn epoch_round_trips_without_touching_the_epoch_free_encoding() {
        let (store, stats, tokens) = populated();
        let fenced = encode_checkpoint_with_epoch(&store, &stats, &tokens, 7);
        let (_, _, _, epoch) = decode_checkpoint("fenced", &fenced).unwrap();
        assert_eq!(epoch, 7);
        // Same state, different epochs: identical except the epoch field
        // — the digest encoding (epoch pinned to 0) stays comparable.
        let zero = encode_checkpoint(&store, &stats, &tokens);
        assert_eq!(fenced.len(), zero.len());
        assert_ne!(fenced, zero);
        assert_eq!(fenced[13..fenced.len() - 8], zero[13..zero.len() - 8]);
    }

    #[test]
    fn rejects_damage() {
        let (store, stats, tokens) = populated();
        let good = encode_checkpoint(&store, &stats, &tokens);
        // Truncated.
        assert!(decode_checkpoint("c", &good[..good.len() - 1]).is_err());
        assert!(decode_checkpoint("c", &good[..4]).is_err());
        // Bad magic / version.
        let mut bad = good.clone();
        bad[1] ^= 0xFF;
        assert!(decode_checkpoint("c", &bad).is_err());
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(decode_checkpoint("c", &bad).is_err());
        // Flipped payload byte → CRC mismatch.
        let mut bad = good.clone();
        bad[40] ^= 0x20;
        assert!(decode_checkpoint("c", &bad).is_err());
    }

    #[test]
    fn empty_store_round_trips() {
        let store = HistoryStore::new();
        let stats = IngestStats::default();
        let buf = encode_checkpoint(&store, &stats, &HashSet::new());
        let (s, st, tokens, epoch) = decode_checkpoint("c", &buf).unwrap();
        assert!(s.is_empty());
        assert_eq!(st, stats);
        assert!(tokens.is_empty());
        assert_eq!(epoch, 0);
    }
}
