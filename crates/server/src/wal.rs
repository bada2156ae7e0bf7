//! A write-ahead log for the history store.
//!
//! Production ingest tiers don't keep a HashMap in RAM and hope; every
//! accepted upload is appended to a durable log and the store is
//! rebuilt by replay after a restart. This module defines the on-disk
//! format and the replay path over byte buffers; `orsp-storage` owns the
//! real I/O (segment files, rotation, checkpoints, crash recovery) and
//! builds directly on these encode/decode primitives:
//!
//! ```text
//! file    := header record*
//! header  := magic:u32 "OWAL" | version:u8   (current version: 2)
//! record  := len:u32 | crc32:u32 | payload[len]
//! payload := tag:u8 | body
//! body    := history | token-spend           (selected by tag)
//! history := record_id[32] | entity:u64 | kind:u8 | start:i64
//!          | duration:i64 | distance:f64 | group:u16      (tag 0)
//! token-spend := ledger_key[32]                           (tag 1)
//! ```
//!
//! All integers little-endian. The CRC covers the payload, so bit rot is
//! caught; a truncated final record (crash mid-append) is detected and
//! reported as a typed [`WalFault`] carrying the record index and byte
//! offset — recovery code decides whether a fault is a tolerable crash
//! artifact (torn tail of the active segment) or real corruption.
//! Only the current version replays; anything else is refused at the
//! header.

use bytes::{Buf, BufMut, BytesMut};
use orsp_types::{
    EntityId, Interaction, InteractionKind, OrspError, RecordId, SimDuration, Timestamp,
};

const MAGIC: u32 = 0x4F57_414C; // "OWAL"
const VERSION: u8 = 2;
/// History payload: tag byte + history body.
const HISTORY_PAYLOAD_LEN: usize = 1 + 32 + 8 + 1 + 8 + 8 + 8 + 2;
/// Token-spend payload: tag byte + 32-byte ledger key.
const TOKEN_PAYLOAD_LEN: usize = 1 + 32;
const TAG_HISTORY: u8 = 0;
const TAG_TOKEN_SPEND: u8 = 1;

/// Bytes of the segment header (magic + version).
pub const WAL_HEADER_LEN: usize = 5;
/// On-disk bytes of one encoded history record (length + CRC + payload).
pub const WAL_RECORD_LEN: usize = 8 + HISTORY_PAYLOAD_LEN;
/// On-disk bytes of one encoded token-spend record.
pub const WAL_TOKEN_RECORD_LEN: usize = 8 + TOKEN_PAYLOAD_LEN;

const CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Build the 16 slicing-by-16 CRC-32 (IEEE 802.3) lookup tables at
/// compile time. `tables[0]` is the classic byte-at-a-time table;
/// `tables[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so 16 independent lookups advance the CRC by 16 bytes.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) by slicing-by-16: 16 table lookups per 16-byte
/// block, independent of one another, then one lookup per byte for the
/// tail. This is the one CRC behind every wire frame, WAL record,
/// manifest and checkpoint, so it runs over every byte a read or write
/// moves. Identical outputs to the bitwise form (kept as the oracle in
/// the tests below).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let a = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One logged entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalEntry {
    /// The anonymous history id.
    pub record_id: RecordId,
    /// The entity the record concerns.
    pub entity: EntityId,
    /// The interaction.
    pub interaction: Interaction,
}

/// One accepted upload bound for the log: the history entry plus,
/// optionally, the spent-token ledger key that admitted it. Group
/// commit logs the pair adjacently so a single fsync covers both —
/// an acked upload's token can never be replayed after a crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalBatchItem {
    /// Ledger key of the token this upload spent, if the caller wants
    /// the spend durable alongside the history record.
    pub spend: Option<[u8; 32]>,
    /// The history entry.
    pub entry: WalEntry,
}

/// A sink for accepted appends: the durability hook the ingest tier
/// calls with every upload it admits, in admission order per record.
/// `orsp-storage`'s engine implements this over segmented on-disk logs;
/// tests implement it over plain vectors.
pub trait WalSink: Send + Sync {
    /// Durably log one accepted entry. An error means the entry may not
    /// survive a restart — callers surface it rather than swallow it.
    fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()>;

    /// Durably log one spent-token ledger key. The default is a no-op
    /// so vector-backed test sinks that only watch history records keep
    /// working; the storage engine overrides it with a real append.
    fn log_token_spend(&self, _key: &[u8; 32]) -> orsp_types::Result<()> {
        Ok(())
    }

    /// Durably log a whole commit group with (at most) one sync. The
    /// default preserves the single-entry path — it degrades to one
    /// `log_token_spend` + `log_append` per item in order, which is
    /// exactly what test sinks observing individual appends expect.
    /// The storage engine overrides this with one buffered write and
    /// one fsync per group.
    fn log_upload_batch(&self, items: &[WalBatchItem]) -> orsp_types::Result<()> {
        for item in items {
            if let Some(key) = &item.spend {
                self.log_token_spend(key)?;
            }
            self.log_append(&item.entry)?;
        }
        Ok(())
    }
}

fn kind_to_u8(kind: InteractionKind) -> u8 {
    match kind {
        InteractionKind::Visit => 0,
        InteractionKind::PhoneCall => 1,
        InteractionKind::Payment => 2,
        InteractionKind::OnlineUse => 3,
    }
}

fn kind_from_u8(v: u8) -> Option<InteractionKind> {
    Some(match v {
        0 => InteractionKind::Visit,
        1 => InteractionKind::PhoneCall,
        2 => InteractionKind::Payment,
        3 => InteractionKind::OnlineUse,
        _ => return None,
    })
}

/// The 5-byte segment header every WAL buffer starts with.
pub fn wal_header() -> [u8; WAL_HEADER_LEN] {
    let m = MAGIC.to_le_bytes();
    [m[0], m[1], m[2], m[3], VERSION]
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode one history record: `len | crc | tag | body`.
pub fn encode_record(entry: &WalEntry) -> Vec<u8> {
    let mut payload = BytesMut::with_capacity(HISTORY_PAYLOAD_LEN);
    payload.put_u8(TAG_HISTORY);
    payload.put_slice(entry.record_id.as_bytes());
    payload.put_u64_le(entry.entity.raw());
    payload.put_u8(kind_to_u8(entry.interaction.kind));
    payload.put_i64_le(entry.interaction.start.as_seconds());
    payload.put_i64_le(entry.interaction.duration.as_seconds());
    payload.put_f64_le(entry.interaction.distance_travelled_m);
    payload.put_u16_le(entry.interaction.group_size);
    frame(&payload)
}

/// Encode one token-spend record: `len | crc | tag | ledger_key`.
pub fn encode_token_spend(key: &[u8; 32]) -> Vec<u8> {
    let mut payload = BytesMut::with_capacity(TOKEN_PAYLOAD_LEN);
    payload.put_u8(TAG_TOKEN_SPEND);
    payload.put_slice(key);
    frame(&payload)
}

/// Encode one batch item: its token-spend record (if any) followed by
/// its history record — the exact bytes group commit appends.
pub fn encode_batch_item(item: &WalBatchItem) -> Vec<u8> {
    let mut out = match &item.spend {
        Some(key) => encode_token_spend(key),
        None => Vec::with_capacity(WAL_RECORD_LEN),
    };
    out.extend_from_slice(&encode_record(&item.entry));
    out
}

/// Why replay stopped before the end of the buffer. Every variant names
/// the index of the record that failed (0-based, in append order) and
/// the byte offset of that record's length field within the buffer —
/// enough for an operator to find the damage with a hex dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFault {
    /// The log ended mid-record: a crash during the final append. The
    /// tolerable fault — everything before the tear was recovered.
    TornTail {
        /// Index of the truncated record.
        index: u64,
        /// Byte offset where the truncated record starts.
        offset: u64,
    },
    /// A record's payload failed its CRC: bit rot or a torn overwrite.
    BadCrc {
        /// Index of the corrupt record.
        index: u64,
        /// Byte offset where the corrupt record starts.
        offset: u64,
    },
    /// A record announced an impossible length.
    BadLength {
        /// Index of the bad record.
        index: u64,
        /// Byte offset where the bad record starts.
        offset: u64,
        /// The length it claimed.
        len: u32,
    },
    /// A record decoded but named an unknown interaction kind.
    BadKind {
        /// Index of the bad record.
        index: u64,
        /// Byte offset where the bad record starts.
        offset: u64,
    },
    /// A record's tag byte disagrees with its length, or names an
    /// unknown record type.
    BadTag {
        /// Index of the bad record.
        index: u64,
        /// Byte offset where the bad record starts.
        offset: u64,
    },
}

impl WalFault {
    /// Index of the record where replay stopped.
    pub fn index(&self) -> u64 {
        match *self {
            WalFault::TornTail { index, .. }
            | WalFault::BadCrc { index, .. }
            | WalFault::BadLength { index, .. }
            | WalFault::BadKind { index, .. }
            | WalFault::BadTag { index, .. } => index,
        }
    }

    /// Byte offset of the faulty record within the replayed buffer.
    pub fn offset(&self) -> u64 {
        match *self {
            WalFault::TornTail { offset, .. }
            | WalFault::BadCrc { offset, .. }
            | WalFault::BadLength { offset, .. }
            | WalFault::BadKind { offset, .. }
            | WalFault::BadTag { offset, .. } => offset,
        }
    }

    /// True for the one fault a crash legitimately produces.
    pub fn is_torn_tail(&self) -> bool {
        matches!(self, WalFault::TornTail { .. })
    }

    fn obs_name(&self) -> &'static str {
        match self {
            WalFault::TornTail { .. } => "wal_fault_torn_tail_total",
            WalFault::BadCrc { .. } => "wal_fault_bad_crc_total",
            WalFault::BadLength { .. } => "wal_fault_bad_length_total",
            WalFault::BadKind { .. } => "wal_fault_bad_kind_total",
            WalFault::BadTag { .. } => "wal_fault_bad_tag_total",
        }
    }
}

impl std::fmt::Display for WalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalFault::TornTail { index, offset } => {
                write!(f, "torn tail at record {index} (byte offset {offset})")
            }
            WalFault::BadCrc { index, offset } => {
                write!(f, "CRC mismatch at record {index} (byte offset {offset})")
            }
            WalFault::BadLength { index, offset, len } => {
                write!(f, "bad length {len} at record {index} (byte offset {offset})")
            }
            WalFault::BadKind { index, offset } => {
                write!(f, "unknown interaction kind at record {index} (byte offset {offset})")
            }
            WalFault::BadTag { index, offset } => {
                write!(f, "bad record tag at record {index} (byte offset {offset})")
            }
        }
    }
}

/// Replay result.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Entries recovered, in append order.
    pub entries: Vec<WalEntry>,
    /// Spent-token ledger keys recovered, in append order.
    pub spent_tokens: Vec<[u8; 32]>,
    /// Why replay stopped early, if it did. `None` means the buffer
    /// ended exactly on a record boundary (a clean log).
    pub fault: Option<WalFault>,
}

impl Replay {
    /// True when the log ended mid-record (crash during the last append).
    pub fn torn_tail(&self) -> bool {
        self.fault.map(|f| f.is_torn_tail()).unwrap_or(false)
    }

    /// True when every byte replayed cleanly.
    pub fn is_clean(&self) -> bool {
        self.fault.is_none()
    }
}

/// Replay a WAL buffer.
///
/// Header problems (too short, bad magic, unsupported version) are hard
/// errors — nothing can be recovered. Record-level problems stop the
/// replay and are reported as a typed [`WalFault`] with the failing
/// record's index and byte offset; everything before the fault is
/// recovered. Each fault increments a per-kind counter in the global
/// obs registry (`wal_fault_*_total`).
pub fn replay(data: &[u8]) -> orsp_types::Result<Replay> {
    let total = data.len();
    let mut data = data;
    if data.len() < WAL_HEADER_LEN {
        return Err(OrspError::InvalidConfig("WAL too short for header".into()));
    }
    let magic = data.get_u32_le();
    if magic != MAGIC {
        return Err(OrspError::InvalidConfig(format!("bad WAL magic {magic:#010x}")));
    }
    let version = data.get_u8();
    if version != VERSION {
        return Err(OrspError::InvalidConfig(format!("unsupported WAL version {version}")));
    }

    let mut entries = Vec::new();
    let mut spent_tokens = Vec::new();
    let mut fault = None;
    let mut index = 0u64;
    while !data.is_empty() {
        let offset = (total - data.len()) as u64;
        if data.len() < 8 {
            fault = Some(WalFault::TornTail { index, offset });
            break;
        }
        let len = data.get_u32_le() as usize;
        let crc = data.get_u32_le();
        if len != HISTORY_PAYLOAD_LEN && len != TOKEN_PAYLOAD_LEN {
            fault = Some(WalFault::BadLength { index, offset, len: len as u32 });
            break;
        }
        if data.len() < len {
            fault = Some(WalFault::TornTail { index, offset });
            break;
        }
        let payload = &data[..len];
        if crc32(payload) != crc {
            fault = Some(WalFault::BadCrc { index, offset });
            break;
        }
        let mut p = payload;
        // The leading tag byte must agree with the framed length.
        let tag = p.get_u8();
        let expected = match tag {
            TAG_HISTORY => HISTORY_PAYLOAD_LEN,
            TAG_TOKEN_SPEND => TOKEN_PAYLOAD_LEN,
            _ => {
                fault = Some(WalFault::BadTag { index, offset });
                break;
            }
        };
        if len != expected {
            fault = Some(WalFault::BadTag { index, offset });
            break;
        }
        if tag == TAG_TOKEN_SPEND {
            let mut key = [0u8; 32];
            p.copy_to_slice(&mut key);
            spent_tokens.push(key);
            data.advance(len);
            index += 1;
            continue;
        }
        let mut record_id = [0u8; 32];
        p.copy_to_slice(&mut record_id);
        let entity = EntityId::new(p.get_u64_le());
        let Some(kind) = kind_from_u8(p.get_u8()) else {
            fault = Some(WalFault::BadKind { index, offset });
            break;
        };
        let start = Timestamp::from_seconds(p.get_i64_le());
        let duration = SimDuration::seconds(p.get_i64_le());
        let distance = p.get_f64_le();
        let group_size = p.get_u16_le();
        entries.push(WalEntry {
            record_id: RecordId::from_bytes(record_id),
            entity,
            interaction: Interaction {
                kind,
                start,
                duration,
                distance_travelled_m: distance,
                group_size,
            },
        });
        data.advance(len);
        index += 1;
    }
    if let Some(f) = fault {
        orsp_obs::global().counter(f.obs_name()).inc();
    }
    Ok(Replay { entries, spent_tokens, fault })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original bitwise CRC-32: the oracle the table-driven
    /// implementation must match bit for bit on every input.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    fn entry(n: u8, t: i64) -> WalEntry {
        WalEntry {
            record_id: RecordId::from_bytes([n; 32]),
            entity: EntityId::new(n as u64),
            interaction: Interaction::solo(
                InteractionKind::Visit,
                Timestamp::from_seconds(t),
                SimDuration::minutes(30),
                123.5,
            ),
        }
    }

    /// A log buffer as the storage engine lays one out: the header, then
    /// each record's encoding in order.
    fn log_of(records: impl IntoIterator<Item = Vec<u8>>) -> Vec<u8> {
        let mut bytes = wal_header().to_vec();
        bytes.extend(records.into_iter().flatten());
        bytes
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn crc32_matches_bitwise_oracle_on_fixed_inputs() {
        for input in [
            &b""[..],
            b"a",
            b"123456789",
            b"The quick brown fox jumps over the lazy dog",
            &[0u8; 257],
            &[0xFFu8; 64],
        ] {
            assert_eq!(crc32(input), crc32_bitwise(input));
        }
    }

    /// `len` bytes from a fixed-seed splitmix64 stream.
    fn seeded_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x5EED_C0FF_EE00_0027u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bitwise_oracle_at_every_length_and_alignment() {
        // Every split of a 16-byte block into head, whole blocks and tail,
        // from every start offset: the slicing loop and the byte tail
        // must hand over the running CRC exactly.
        let buf = seeded_bytes(16 + 256);
        for start in 0..16 {
            for len in 0..=256 {
                let input = &buf[start..start + len];
                assert_eq!(crc32(input), crc32_bitwise(input), "start {start}, len {len}");
            }
        }
        let mib = seeded_bytes(1 << 20);
        assert_eq!(crc32(&mib), crc32_bitwise(&mib));
    }

    #[test]
    fn round_trip() {
        let entries: Vec<WalEntry> = (0..10).map(|i| entry(i, i as i64 * 1_000)).collect();
        let bytes = log_of(entries.iter().map(encode_record));
        assert_eq!(bytes.len(), WAL_HEADER_LEN + 10 * WAL_RECORD_LEN);
        let r = replay(&bytes).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.entries.len(), 10);
        assert_eq!(r.entries[3], entry(3, 3_000));
    }

    #[test]
    fn empty_log_replays_empty() {
        let r = replay(&wal_header()).unwrap();
        assert!(r.entries.is_empty());
        assert!(r.is_clean());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(replay(&[0u8; 16]).is_err());
        assert!(replay(&[]).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = wal_header().to_vec();
        bytes[4] = 99;
        assert!(matches!(replay(&bytes), Err(OrspError::InvalidConfig(_))));
    }

    #[test]
    fn corruption_reported_with_index_and_offset() {
        let mut bytes = log_of([entry(1, 0), entry(2, 1_000)].iter().map(encode_record));
        // Flip a bit in the *second* record's payload.
        let second_start = WAL_HEADER_LEN + WAL_RECORD_LEN;
        bytes[second_start + 20] ^= 0x40;
        let r = replay(&bytes).unwrap();
        assert_eq!(r.entries.len(), 1, "prefix before the corruption is recovered");
        assert_eq!(r.fault, Some(WalFault::BadCrc { index: 1, offset: second_start as u64 }));
        assert!(!r.torn_tail());
    }

    #[test]
    fn bad_length_reported() {
        let mut bytes = log_of([entry(1, 0)].iter().map(encode_record));
        bytes[WAL_HEADER_LEN] = 0xEE; // clobber the length field
        let r = replay(&bytes).unwrap();
        assert!(r.entries.is_empty());
        assert!(matches!(r.fault, Some(WalFault::BadLength { index: 0, .. })));
    }

    #[test]
    fn bad_kind_reported() {
        let mut bytes = log_of([entry(1, 0)].iter().map(encode_record));
        // Kind byte lives after len(4) + crc(4) + tag(1) + id(32) +
        // entity(8); refresh the CRC so only the kind check can fire.
        let kind_at = WAL_HEADER_LEN + 8 + 1 + 32 + 8;
        bytes[kind_at] = 200;
        let payload_start = WAL_HEADER_LEN + 8;
        let crc = crc32(&bytes[payload_start..payload_start + HISTORY_PAYLOAD_LEN]);
        bytes[WAL_HEADER_LEN + 4..WAL_HEADER_LEN + 8].copy_from_slice(&crc.to_le_bytes());
        let r = replay(&bytes).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.fault, Some(WalFault::BadKind { index: 0, offset: WAL_HEADER_LEN as u64 }));
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let bytes = log_of([entry(1, 0), entry(2, 1_000)].iter().map(encode_record));
        // Crash mid-way through the second record.
        let torn = &bytes[..bytes.len() - 10];
        let r = replay(torn).unwrap();
        assert!(r.torn_tail());
        assert_eq!(r.fault.unwrap().index(), 1);
        assert_eq!(r.fault.unwrap().offset(), (WAL_HEADER_LEN + WAL_RECORD_LEN) as u64);
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0], entry(1, 0));
    }

    #[test]
    fn token_spends_round_trip_interleaved_with_histories() {
        let bytes = log_of([
            encode_token_spend(&[7u8; 32]),
            encode_record(&entry(1, 0)),
            encode_token_spend(&[9u8; 32]),
            encode_record(&entry(2, 1_000)),
        ]);
        assert_eq!(bytes.len(), WAL_HEADER_LEN + 2 * WAL_RECORD_LEN + 2 * WAL_TOKEN_RECORD_LEN);
        let r = replay(&bytes).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.entries, vec![entry(1, 0), entry(2, 1_000)]);
        assert_eq!(r.spent_tokens, vec![[7u8; 32], [9u8; 32]]);
    }

    #[test]
    fn batch_item_encoding_is_spend_then_history() {
        let item = WalBatchItem { spend: Some([3u8; 32]), entry: entry(4, 0) };
        let mut expect = encode_token_spend(&[3u8; 32]);
        expect.extend_from_slice(&encode_record(&entry(4, 0)));
        assert_eq!(encode_batch_item(&item), expect);
        let bare = WalBatchItem { spend: None, entry: entry(4, 0) };
        assert_eq!(encode_batch_item(&bare), encode_record(&entry(4, 0)));
    }

    #[test]
    fn version_1_logs_are_refused_at_the_header() {
        // A tagless version-1 segment (the format before spends became
        // durable): nothing writes one any more, so replay refuses it by
        // version instead of guessing at its records.
        let mut bytes = log_of([entry(5, 2_000)].iter().map(encode_record));
        bytes[4] = 1;
        match replay(&bytes) {
            Err(OrspError::InvalidConfig(why)) => {
                assert_eq!(why, "unsupported WAL version 1")
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn tag_length_mismatch_reported() {
        // A token-spend length with a history tag: valid frame length,
        // valid CRC, contradictory tag.
        let mut payload = vec![TAG_HISTORY];
        payload.extend_from_slice(&[0u8; 32]);
        assert_eq!(payload.len(), TOKEN_PAYLOAD_LEN);
        let r = replay(&log_of([frame(&payload)])).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.fault, Some(WalFault::BadTag { index: 0, offset: WAL_HEADER_LEN as u64 }));
        // An unknown tag with a plausible length fails the same way.
        let mut payload = vec![9u8];
        payload.extend_from_slice(&[0u8; 32]);
        let r = replay(&log_of([frame(&payload)])).unwrap();
        assert!(matches!(r.fault, Some(WalFault::BadTag { .. })));
    }

    proptest! {
        #[test]
        fn crc32_table_matches_bitwise_oracle(
            data in proptest::collection::vec(0u8..=255, 0..300),
        ) {
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }

        #[test]
        fn round_trip_prop(
            ids in proptest::collection::vec(0u8..=255, 1..40),
            starts in proptest::collection::vec(0i64..1_000_000_000, 1..40),
        ) {
            let originals: Vec<WalEntry> =
                ids.iter().zip(&starts).map(|(&id, &start)| entry(id, start)).collect();
            let r = replay(&log_of(originals.iter().map(encode_record))).unwrap();
            prop_assert_eq!(r.entries, originals);
            prop_assert!(r.is_clean());
        }

        /// The crash matrix in miniature: cut a random batch's encoding
        /// at *every* byte boundary. Below the header nothing recovers
        /// (hard error); past it, exactly the complete records before
        /// the cut come back, a torn tail is reported iff the cut is
        /// mid-record, and nothing ever panics.
        #[test]
        fn crash_cut_at_every_byte_recovers_prefix(
            ids in proptest::collection::vec(0u8..=255, 1..12),
        ) {
            let originals: Vec<WalEntry> =
                ids.iter().enumerate().map(|(i, &id)| entry(id, i as i64 * 500)).collect();
            let bytes = log_of(originals.iter().map(encode_record));
            for cut in 0..=bytes.len() {
                let r = replay(&bytes[..cut]);
                if cut < WAL_HEADER_LEN {
                    prop_assert!(r.is_err(), "cut {cut}: header fragment must error");
                    continue;
                }
                let r = r.unwrap();
                let body = cut - WAL_HEADER_LEN;
                let whole = body / WAL_RECORD_LEN;
                let on_boundary = body % WAL_RECORD_LEN == 0;
                prop_assert_eq!(r.entries.len(), whole, "cut {}", cut);
                prop_assert_eq!(&r.entries[..], &originals[..whole]);
                if on_boundary {
                    prop_assert!(r.is_clean(), "cut {} is a record boundary", cut);
                } else {
                    let fault = r.fault.expect("mid-record cut must report a fault");
                    prop_assert!(fault.is_torn_tail());
                    prop_assert_eq!(fault.index(), whole as u64);
                    prop_assert_eq!(
                        fault.offset(),
                        (WAL_HEADER_LEN + whole * WAL_RECORD_LEN) as u64
                    );
                }
            }
        }
    }
}
