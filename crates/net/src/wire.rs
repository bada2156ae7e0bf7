//! The RSP wire protocol: length-prefixed, CRC-checked binary frames.
//!
//! One frame carries one message:
//!
//! ```text
//! magic "ORSP" (4) | version (1) | flags (1) | payload len (4, LE) | crc32 (4, LE)
//!   | trace context (25, iff flags & 1) | payload
//! ```
//!
//! The CRC covers the payload (same polynomial as the server WAL). The
//! payload's first byte is the message tag; all integers are little
//! endian; `BigUint`s travel as `u16` length + big-endian magnitude;
//! strings as `u16` length + UTF-8. Decoding a hostile buffer returns a
//! typed [`WireError`] — it never panics, never over-allocates beyond the
//! frame cap, and never reads past the declared length.
//!
//! The four RPCs mirror the paper's API surface: blind-token issue,
//! anonymous record upload (update-only — there is deliberately no
//! "fetch record" request), aggregate fetch, and search. `Busy` is the
//! server's explicit load-shed response.

use crate::error::WireError;
use bytes::{BufMut, BytesMut};
use orsp_client::UploadRequest;
use orsp_crypto::{BigUint, BlindSignature, BlindedMessage, Token};
use orsp_obs::{
    EventSnapshot, HistogramSnapshot, SpanRecord, StatsSnapshot, TraceContext, TraceRecord,
};
use orsp_search::SearchQuery;
use orsp_server::{
    crc32, AggregateParts, EntityAggregate, RejectReason, SupportParts, WalBatchItem, WalEntry,
};
use orsp_types::{
    Category, DeviceId, EntityId, Interaction, InteractionKind, RecordId, SimDuration,
    StarHistogram, Timestamp,
};

/// Frame magic: "ORSP".
pub const MAGIC: [u8; 4] = *b"ORSP";
/// The one protocol version this endpoint speaks and accepts.
pub const VERSION: u8 = 2;
/// Header bytes: magic, version, flags, length, CRC.
pub const HEADER_LEN: usize = 14;
/// Magic + version — validated before the rest of the header is read.
pub const PREFIX_LEN: usize = 5;
/// The optional trace-context block: trace id (16) + span id (8) +
/// sampled flag (1).
pub const TRACE_CTX_LEN: usize = 25;
/// Flags bit: a trace-context block follows the header.
pub const FLAG_TRACE: u8 = 0x01;
/// Hard cap on payload size. Anything larger is rejected before any
/// allocation happens — a hostile length prefix cannot balloon memory.
pub const MAX_PAYLOAD: usize = 1 << 20;

// ---------------------------------------------------------------- frames

/// Wrap a payload in a frame (no trace context).
///
/// Payloads built by this crate are far below [`MAX_PAYLOAD`]; this is
/// debug-asserted rather than returned as an error because an oversized
/// *outgoing* frame is a bug in the encoder, not a runtime condition.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    frame_traced(payload, None)
}

/// Wrap a payload in a frame, stamping a trace context between the
/// header and the payload when one is given. The CRC covers the payload
/// only — the context is routing metadata, corruption there cannot
/// corrupt a request.
pub fn frame_traced(payload: &[u8], ctx: Option<&TraceContext>) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let extra = if ctx.is_some() { TRACE_CTX_LEN } else { 0 };
    let mut buf = BytesMut::with_capacity(HEADER_LEN + extra + payload.len());
    buf.put_slice(&MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(if ctx.is_some() { FLAG_TRACE } else { 0 });
    buf.put_u32_le(payload.len() as u32);
    buf.put_u32_le(crc32(payload));
    if let Some(ctx) = ctx {
        buf.put_slice(&ctx.trace_id.to_le_bytes());
        buf.put_u64_le(ctx.span_id);
        buf.put_u8(ctx.sampled as u8);
    }
    buf.put_slice(payload);
    buf.freeze().to_vec()
}

/// Validate the 5-byte magic + version prefix. Any version but
/// [`VERSION`] — the retired version 1 included — is refused here, before
/// a single header byte past the prefix is interpreted.
pub fn parse_prefix(prefix: &[u8; PREFIX_LEN]) -> Result<(), WireError> {
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&prefix[0..4]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if prefix[4] != VERSION {
        return Err(WireError::BadVersion(prefix[4]));
    }
    Ok(())
}

/// Parse the rest of the header (after the prefix):
/// `(trace_context_follows, len, crc)`. Unknown flag bits are a typed
/// error — a v3 sender must not be half-understood.
pub fn parse_header_rest(
    rest: &[u8; HEADER_LEN - PREFIX_LEN],
) -> Result<(bool, usize, u32), WireError> {
    let flags = rest[0];
    if flags & !FLAG_TRACE != 0 {
        return Err(WireError::Malformed("unknown frame flags"));
    }
    let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    let crc = u32::from_le_bytes([rest[5], rest[6], rest[7], rest[8]]);
    Ok((flags & FLAG_TRACE != 0, len, crc))
}

/// Decode a trace-context block.
pub fn parse_trace_ctx(block: &[u8; TRACE_CTX_LEN]) -> Result<TraceContext, WireError> {
    let mut id = [0u8; 16];
    id.copy_from_slice(&block[0..16]);
    let trace_id = u128::from_le_bytes(id);
    let mut span = [0u8; 8];
    span.copy_from_slice(&block[16..24]);
    let span_id = u64::from_le_bytes(span);
    let sampled = match block[24] {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("bad sampled flag")),
    };
    Ok(TraceContext { trace_id, span_id, sampled })
}

/// Verify a received payload against the CRC from its header.
pub fn check_crc(payload: &[u8], stored: u32) -> Result<(), WireError> {
    let computed = crc32(payload);
    if computed != stored {
        return Err(WireError::BadCrc { stored, computed });
    }
    Ok(())
}

/// Decode one frame from a complete buffer: returns the payload slice,
/// the trace context if the sender stamped one, and the total bytes
/// consumed. Typed errors for every malformation.
pub fn decode_frame_traced(
    buf: &[u8],
) -> Result<(&[u8], Option<TraceContext>, usize), WireError> {
    if buf.len() < PREFIX_LEN {
        return Err(WireError::Truncated { have: buf.len(), need: PREFIX_LEN });
    }
    let mut prefix = [0u8; PREFIX_LEN];
    prefix.copy_from_slice(&buf[..PREFIX_LEN]);
    parse_prefix(&prefix)?;
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated { have: buf.len(), need: HEADER_LEN });
    }
    let mut rest = [0u8; HEADER_LEN - PREFIX_LEN];
    rest.copy_from_slice(&buf[PREFIX_LEN..HEADER_LEN]);
    let (traced, len, crc) = parse_header_rest(&rest)?;
    let mut at = HEADER_LEN;
    let ctx = if traced {
        if buf.len() < at + TRACE_CTX_LEN {
            return Err(WireError::Truncated { have: buf.len(), need: at + TRACE_CTX_LEN });
        }
        let mut block = [0u8; TRACE_CTX_LEN];
        block.copy_from_slice(&buf[at..at + TRACE_CTX_LEN]);
        at += TRACE_CTX_LEN;
        Some(parse_trace_ctx(&block)?)
    } else {
        None
    };
    let need = at + len;
    if buf.len() < need {
        return Err(WireError::Truncated { have: buf.len(), need });
    }
    let payload = &buf[at..need];
    check_crc(payload, crc)?;
    Ok((payload, ctx, need))
}

/// [`decode_frame_traced`], discarding the trace context — for readers
/// (responses, tests) that don't care who traced what.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), WireError> {
    let (payload, _ctx, consumed) = decode_frame_traced(buf)?;
    Ok((payload, consumed))
}

// ------------------------------------------------------------- messages

/// A client-to-server request: the RSP's four RPCs plus a liveness probe.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Authenticated blind-token issuance (§4.2 rate limiting): the mint
    /// sees the device and a blinded message, never the token itself.
    IssueToken {
        /// The requesting device (issuance is authenticated).
        device: DeviceId,
        /// The blinded token digest to sign.
        blinded: BlindedMessage,
        /// Simulated request time (drives the rate window).
        now: Timestamp,
    },
    /// Anonymous history upload. Update-only by design: no RPC retrieves
    /// an individual record back out.
    Upload {
        /// The anonymous upload (record id, interaction, spend token).
        upload: UploadRequest,
        /// Simulated delivery time (mix exit).
        now: Timestamp,
    },
    /// Fetch the published aggregate for one entity (the §4.2 egress).
    FetchAggregate {
        /// The entity.
        entity: EntityId,
    },
    /// Ranked search over a zipcode + category.
    Search {
        /// The query.
        query: SearchQuery,
    },
    /// Fetch the server's live metric snapshot (counters, gauges, and
    /// latency percentiles from the service registry).
    Stats,
    /// Cluster-internal: fetch the *floor-unfiltered* mergeable partial
    /// aggregate for one entity. A front-door proxy scatter-gathers this
    /// across backends and applies the k-anonymity floor to the merged
    /// whole — applying it per-backend would suppress entities whose
    /// support only clears the floor in total. Unfloored partials must
    /// never reach the public: backends are firewalled to the proxy
    /// tier, and the proxy itself refuses this RPC unless explicitly
    /// configured as a cluster-internal tier.
    AggregateParts {
        /// The entity.
        entity: EntityId,
    },
    /// Cluster-internal: [`Request::AggregateParts`] for many entities
    /// in one exchange. The proxy's search support refill asks for every
    /// hit at once — one fan-out round instead of one per hit. Same
    /// exposure rules as the single-entity form.
    AggregatePartsBatch {
        /// The entities, in the order the answers must come back.
        entities: Vec<EntityId>,
    },
    /// Drain completed sampled traces from the peer's span collector.
    /// Against a proxy, the answer merges the proxy's own spans with
    /// every backend's into stitched cross-process trees.
    Traces,
    /// Cluster-internal: one leg of a proxied [`Request::Search`]. The
    /// backend answers the same ranked, truncated hit list `Search`
    /// would, plus each hit's *floor-unfiltered* integer support, both
    /// read from one snapshot — so the proxy sums support across legs
    /// and floors the total in a single fan-out round. Same exposure
    /// rules as [`Request::AggregateParts`].
    SearchParts {
        /// The query.
        query: SearchQuery,
    },
    /// Cluster-internal: a range primary forwarding a batch of accepted
    /// writes (history entries plus their spent-token keys) to a
    /// follower of `range` at `epoch`. The follower appends the batch
    /// through its group-commit path (one fsync) and answers
    /// [`Response::ReplicateAck`] — or [`Response::StaleEpoch`] if it
    /// has already adopted a higher epoch for the range, which tells a
    /// rejoining stale primary to demote itself. With `promote` set the
    /// sender is the proxy electing this node primary for `range` at
    /// the (bumped) `epoch`; `items` is empty in that case.
    Replicate {
        /// The hash range the batch belongs to.
        range: u32,
        /// The sender's replication epoch for the range.
        epoch: u64,
        /// Promotion marker: adopt `epoch` and start serving `range`.
        promote: bool,
        /// The accepted writes, in admission order.
        items: Vec<WalBatchItem>,
    },
    /// Cluster-internal: pull one chunk of `range`'s authoritative
    /// state from its primary, for anti-entropy catch-up. `cursor` is
    /// an opaque resume position (0 starts a scan); the reply is a
    /// [`Response::CatchUpChunk`] whose final chunk carries the
    /// primary's `state_digest` so the follower can prove its rebuilt
    /// state bit-identical.
    CatchUp {
        /// The hash range to stream.
        range: u32,
        /// Resume position from the previous chunk (0 = start).
        cursor: u64,
    },
}

/// A server-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// The blind signature over the requested message.
    TokenIssued {
        /// Signature to unblind client-side.
        signature: BlindSignature,
    },
    /// Issuance refused (per-device rate limit exhausted).
    TokenDenied {
        /// Human-readable refusal.
        reason: String,
    },
    /// Upload accepted and stored.
    UploadAccepted,
    /// Upload refused by admission checks.
    UploadRejected {
        /// Which check failed.
        reason: RejectReason,
    },
    /// The entity's aggregate, or `None` below the k-anonymity floor.
    Aggregate {
        /// The aggregate, if published.
        aggregate: Option<EntityAggregate>,
    },
    /// Ranked search results.
    SearchResults {
        /// Hits, best first.
        hits: Vec<SearchHit>,
    },
    /// The server's metric snapshot at the instant the request was
    /// handled.
    Stats {
        /// Sorted counters, gauges, and histogram summaries.
        snapshot: StatsSnapshot,
    },
    /// Explicit load shed: every connection slot (or the inflight bound)
    /// is taken. Never silent — a shed connection always receives this
    /// frame before close.
    Busy,
    /// The server could not process the request (decode failure or
    /// internal error), reported rather than dropped.
    Error {
        /// What went wrong.
        detail: String,
    },
    /// Cluster-internal: the entity's floor-unfiltered partial aggregate
    /// from this backend's published snapshot, or `None` if the entity
    /// has no published histories here.
    AggregateParts {
        /// The mergeable accumulators.
        parts: Option<AggregateParts>,
    },
    /// Cluster-internal: one partial aggregate (or `None`) per entity of
    /// an [`Request::AggregatePartsBatch`], in request order, all read
    /// from a single published snapshot.
    AggregatePartsBatch {
        /// Per requested entity, in request order.
        parts: Vec<Option<AggregateParts>>,
    },
    /// Cluster-internal: the answer to a [`Request::SearchParts`].
    SearchParts {
        /// The ranked hits, best first, exactly as `Search` would return
        /// them except that `histories` and `repeat_fraction` are left at
        /// zero (they do not travel; `support` carries their source).
        hits: Vec<SearchHit>,
        /// Per hit, in hit order: this backend's unfloored support
        /// counts (zero when the entity has no published histories
        /// here).
        support: Vec<SupportParts>,
    },
    /// Completed traces drained by a [`Request::Traces`]. Each drain
    /// returns a trace at most once — polling moves data, it does not
    /// re-read it.
    Traces {
        /// The drained traces, spans sorted by start time.
        traces: Vec<TraceRecord>,
    },
    /// Cluster-internal: a follower durably applied a
    /// [`Request::Replicate`] batch.
    ReplicateAck {
        /// The follower's (possibly just-adopted) epoch for the range.
        epoch: u64,
        /// Entries applied from this batch.
        applied: u64,
    },
    /// Cluster-internal: a [`Request::Replicate`] was refused because
    /// the receiver has adopted a higher epoch for the range. The
    /// fencing signal — a stale primary receiving this demotes itself.
    StaleEpoch {
        /// The range the refused batch was for.
        range: u32,
        /// The epoch the receiver holds; strictly greater than the
        /// sender's.
        current: u64,
    },
    /// Cluster-internal: one chunk of a [`Request::CatchUp`] stream.
    CatchUpChunk {
        /// The primary's replication epoch for the range.
        epoch: u64,
        /// Whether the answering node currently serves the range as
        /// primary — lets a restarting node probe its peers' roles.
        primary: bool,
        /// Final chunk: the stream is complete and `digest` is valid.
        done: bool,
        /// On the final chunk, the primary's `state_digest` over the
        /// range (epoch-free, so replicas at different fencing epochs
        /// still compare equal). Zero on non-final chunks.
        digest: u32,
        /// Cursor to pass in the next [`Request::CatchUp`].
        next_cursor: u64,
        /// Full histories, in sorted record-id order.
        records: Vec<CatchRecord>,
        /// Spent-token ledger keys, in sorted order, streamed after all
        /// records.
        tokens: Vec<[u8; 32]>,
    },
    /// The peer cannot serve this request at all right now — a dead or
    /// demoted backend, not transient load. Unlike [`Response::Busy`],
    /// clients fail fast instead of burning retry/backoff budget.
    Unavailable {
        /// What is unavailable.
        detail: String,
    },
}

/// One full history in a [`Response::CatchUpChunk`]: the checkpoint's
/// record layout (id, entity, interactions in append order) so the
/// follower can replay it through the normal engine append path.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchRecord {
    /// The anonymous record id.
    pub record_id: RecordId,
    /// The entity the record concerns.
    pub entity: EntityId,
    /// The record's interactions, in append order.
    pub interactions: Vec<Interaction>,
}

/// One search result on the wire: the ranked entity with both opinion
/// summaries flattened.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The entity.
    pub entity: EntityId,
    /// Blended ranking score.
    pub score: f64,
    /// Histogram of explicit review stars.
    pub explicit: StarHistogram,
    /// Histogram of inferred opinion stars.
    pub inferred: StarHistogram,
    /// Anonymous histories behind the inferences.
    pub histories: u64,
    /// Fraction of histories with repeat interactions.
    pub repeat_fraction: f64,
}

// Request tags.
const T_PING: u8 = 0x01;
const T_ISSUE: u8 = 0x02;
const T_UPLOAD: u8 = 0x03;
const T_AGGREGATE: u8 = 0x04;
const T_SEARCH: u8 = 0x05;
const T_STATS: u8 = 0x06;
const T_AGG_PARTS: u8 = 0x07;
const T_AGG_PARTS_BATCH: u8 = 0x08;
const T_TRACES: u8 = 0x09;
const T_REPLICATE: u8 = 0x0A;
const T_CATCH_UP: u8 = 0x0B;
const T_SEARCH_PARTS: u8 = 0x0C;
// Response tags (high bit set).
const T_PONG: u8 = 0x81;
const T_ISSUED: u8 = 0x82;
const T_DENIED: u8 = 0x83;
const T_UP_OK: u8 = 0x84;
const T_UP_REJ: u8 = 0x85;
const T_AGG: u8 = 0x86;
const T_RESULTS: u8 = 0x87;
const T_BUSY: u8 = 0x88;
const T_ERROR: u8 = 0x89;
const T_STATS_RESP: u8 = 0x8A;
const T_AGG_PARTS_RESP: u8 = 0x8B;
const T_AGG_PARTS_BATCH_RESP: u8 = 0x8C;
const T_TRACES_RESP: u8 = 0x8D;
const T_REPL_ACK: u8 = 0x8E;
const T_STALE_EPOCH: u8 = 0x8F;
const T_CATCH_CHUNK: u8 = 0x90;
const T_UNAVAILABLE: u8 = 0x91;
const T_SEARCH_PARTS_RESP: u8 = 0x92;

/// Encoded size of one search hit, in `SearchResults` and `SearchParts`
/// alike: entity + score + two star histograms + two support words.
const HIT_LEN: usize = 8 + 8 + 48 + 48 + 8 + 8;

impl Request {
    /// Encode into a complete frame.
    pub fn encode(&self) -> Vec<u8> {
        frame(&self.encode_payload())
    }

    /// Encode into a complete frame, stamping a trace context when one
    /// is active.
    pub fn encode_traced(&self, ctx: Option<&TraceContext>) -> Vec<u8> {
        frame_traced(&self.encode_payload(), ctx)
    }

    /// Decode from a buffer holding exactly one frame.
    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        let (payload, consumed) = decode_frame(buf)?;
        if consumed != buf.len() {
            return Err(WireError::Malformed("trailing bytes after frame"));
        }
        Request::decode_payload(payload)
    }

    /// Encode the payload (tag + body), unframed.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(96);
        match self {
            Request::Ping => buf.put_u8(T_PING),
            Request::IssueToken { device, blinded, now } => {
                buf.put_u8(T_ISSUE);
                buf.put_u64_le(device.raw());
                put_biguint(&mut buf, &blinded.0);
                buf.put_i64_le(now.as_seconds());
            }
            Request::Upload { upload, now } => {
                buf.put_u8(T_UPLOAD);
                put_upload(&mut buf, upload);
                buf.put_i64_le(now.as_seconds());
            }
            Request::FetchAggregate { entity } => {
                buf.put_u8(T_AGGREGATE);
                buf.put_u64_le(entity.raw());
            }
            Request::Search { query } => {
                buf.put_u8(T_SEARCH);
                put_query(&mut buf, query);
            }
            Request::SearchParts { query } => {
                buf.put_u8(T_SEARCH_PARTS);
                put_query(&mut buf, query);
            }
            Request::Stats => buf.put_u8(T_STATS),
            Request::AggregateParts { entity } => {
                buf.put_u8(T_AGG_PARTS);
                buf.put_u64_le(entity.raw());
            }
            Request::AggregatePartsBatch { entities } => {
                buf.put_u8(T_AGG_PARTS_BATCH);
                debug_assert!(entities.len() <= u16::MAX as usize);
                buf.put_u16_le(entities.len() as u16);
                for entity in entities {
                    buf.put_u64_le(entity.raw());
                }
            }
            Request::Traces => buf.put_u8(T_TRACES),
            Request::Replicate { range, epoch, promote, items } => {
                buf.put_u8(T_REPLICATE);
                buf.put_u32_le(*range);
                buf.put_u64_le(*epoch);
                buf.put_u8(*promote as u8);
                debug_assert!(items.len() <= u32::MAX as usize);
                buf.put_u32_le(items.len() as u32);
                for item in items {
                    match &item.spend {
                        None => buf.put_u8(0),
                        Some(key) => {
                            buf.put_u8(1);
                            buf.put_slice(key);
                        }
                    }
                    buf.put_slice(item.entry.record_id.as_bytes());
                    buf.put_u64_le(item.entry.entity.raw());
                    put_interaction(&mut buf, &item.entry.interaction);
                }
            }
            Request::CatchUp { range, cursor } => {
                buf.put_u8(T_CATCH_UP);
                buf.put_u32_le(*range);
                buf.put_u64_le(*cursor);
            }
        }
        buf.freeze().to_vec()
    }

    /// Decode a payload (tag + body). Consumes the whole buffer.
    pub fn decode_payload(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let request = match r.u8()? {
            T_PING => Request::Ping,
            T_ISSUE => Request::IssueToken {
                device: DeviceId::new(r.u64()?),
                blinded: BlindedMessage(r.biguint()?),
                now: Timestamp::from_seconds(r.i64()?),
            },
            T_UPLOAD => Request::Upload {
                upload: r.upload()?,
                now: Timestamp::from_seconds(r.i64()?),
            },
            T_AGGREGATE => Request::FetchAggregate { entity: EntityId::new(r.u64()?) },
            T_SEARCH => Request::Search { query: r.query()? },
            T_SEARCH_PARTS => Request::SearchParts { query: r.query()? },
            T_STATS => Request::Stats,
            T_AGG_PARTS => Request::AggregateParts { entity: EntityId::new(r.u64()?) },
            T_AGG_PARTS_BATCH => {
                let n = r.u16()? as usize;
                if n * 8 > r.remaining() {
                    return Err(WireError::Malformed("entity list exceeds payload"));
                }
                let mut entities = Vec::with_capacity(n);
                for _ in 0..n {
                    entities.push(EntityId::new(r.u64()?));
                }
                Request::AggregatePartsBatch { entities }
            }
            T_TRACES => Request::Traces,
            T_REPLICATE => {
                let range = r.u32()?;
                let epoch = r.u64()?;
                let promote = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("bad promote flag")),
                };
                // Each item needs at least flag + id + entity + interaction.
                let n = r.u32()? as usize;
                if n.saturating_mul(1 + 32 + 8 + 27) > r.remaining() {
                    return Err(WireError::Malformed("item list exceeds payload"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let spend = match r.u8()? {
                        0 => None,
                        1 => Some(r.key32()?),
                        _ => return Err(WireError::Malformed("bad spend flag")),
                    };
                    let entry = WalEntry {
                        record_id: r.record_id()?,
                        entity: EntityId::new(r.u64()?),
                        interaction: r.interaction()?,
                    };
                    items.push(WalBatchItem { spend, entry });
                }
                Request::Replicate { range, epoch, promote, items }
            }
            T_CATCH_UP => Request::CatchUp { range: r.u32()?, cursor: r.u64()? },
            tag => return Err(WireError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encode into a complete frame.
    pub fn encode(&self) -> Vec<u8> {
        frame(&self.encode_payload())
    }

    /// Decode from a buffer holding exactly one frame.
    pub fn decode(buf: &[u8]) -> Result<Response, WireError> {
        let (payload, consumed) = decode_frame(buf)?;
        if consumed != buf.len() {
            return Err(WireError::Malformed("trailing bytes after frame"));
        }
        Response::decode_payload(payload)
    }

    /// Encode the payload (tag + body), unframed.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(96);
        match self {
            Response::Pong => buf.put_u8(T_PONG),
            Response::TokenIssued { signature } => {
                buf.put_u8(T_ISSUED);
                put_biguint(&mut buf, &signature.0);
            }
            Response::TokenDenied { reason } => {
                buf.put_u8(T_DENIED);
                put_string(&mut buf, reason);
            }
            Response::UploadAccepted => buf.put_u8(T_UP_OK),
            Response::UploadRejected { reason } => {
                buf.put_u8(T_UP_REJ);
                buf.put_u8(reject_to_u8(*reason));
            }
            Response::Aggregate { aggregate } => {
                buf.put_u8(T_AGG);
                match aggregate {
                    None => buf.put_u8(0),
                    Some(agg) => {
                        buf.put_u8(1);
                        put_aggregate(&mut buf, agg);
                    }
                }
            }
            Response::SearchResults { hits } => {
                buf.put_u8(T_RESULTS);
                buf.put_u16_le(hits.len() as u16);
                for hit in hits {
                    put_ranked(&mut buf, hit);
                    buf.put_u64_le(hit.histories);
                    buf.put_f64_le(hit.repeat_fraction);
                }
            }
            Response::SearchParts { hits, support } => {
                buf.put_u8(T_SEARCH_PARTS_RESP);
                debug_assert_eq!(hits.len(), support.len(), "one support entry per hit");
                debug_assert!(hits.len() <= u16::MAX as usize);
                buf.put_u16_le(hits.len() as u16);
                for (hit, support) in hits.iter().zip(support) {
                    put_ranked(&mut buf, hit);
                    buf.put_u64_le(support.histories);
                    buf.put_u64_le(support.repeats);
                }
            }
            Response::Stats { snapshot } => {
                buf.put_u8(T_STATS_RESP);
                put_snapshot(&mut buf, snapshot);
            }
            Response::Busy => buf.put_u8(T_BUSY),
            Response::Error { detail } => {
                buf.put_u8(T_ERROR);
                put_string(&mut buf, detail);
            }
            Response::AggregateParts { parts } => {
                buf.put_u8(T_AGG_PARTS_RESP);
                match parts {
                    None => buf.put_u8(0),
                    Some(parts) => {
                        buf.put_u8(1);
                        put_parts(&mut buf, parts);
                    }
                }
            }
            Response::AggregatePartsBatch { parts } => {
                buf.put_u8(T_AGG_PARTS_BATCH_RESP);
                debug_assert!(parts.len() <= u16::MAX as usize);
                buf.put_u16_le(parts.len() as u16);
                for entry in parts {
                    match entry {
                        None => buf.put_u8(0),
                        Some(parts) => {
                            buf.put_u8(1);
                            put_parts(&mut buf, parts);
                        }
                    }
                }
            }
            Response::Traces { traces } => {
                buf.put_u8(T_TRACES_RESP);
                put_traces(&mut buf, traces);
            }
            Response::ReplicateAck { epoch, applied } => {
                buf.put_u8(T_REPL_ACK);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*applied);
            }
            Response::StaleEpoch { range, current } => {
                buf.put_u8(T_STALE_EPOCH);
                buf.put_u32_le(*range);
                buf.put_u64_le(*current);
            }
            Response::CatchUpChunk {
                epoch,
                primary,
                done,
                digest,
                next_cursor,
                records,
                tokens,
            } => {
                buf.put_u8(T_CATCH_CHUNK);
                buf.put_u64_le(*epoch);
                buf.put_u8(*primary as u8);
                buf.put_u8(*done as u8);
                buf.put_u32_le(*digest);
                buf.put_u64_le(*next_cursor);
                debug_assert!(records.len() <= u32::MAX as usize);
                buf.put_u32_le(records.len() as u32);
                for rec in records {
                    buf.put_slice(rec.record_id.as_bytes());
                    buf.put_u64_le(rec.entity.raw());
                    buf.put_u32_le(rec.interactions.len() as u32);
                    for i in &rec.interactions {
                        put_interaction(&mut buf, i);
                    }
                }
                buf.put_u32_le(tokens.len() as u32);
                for key in tokens {
                    buf.put_slice(key);
                }
            }
            Response::Unavailable { detail } => {
                buf.put_u8(T_UNAVAILABLE);
                put_string(&mut buf, detail);
            }
        }
        buf.freeze().to_vec()
    }

    /// Decode a payload (tag + body). Consumes the whole buffer.
    pub fn decode_payload(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let response = match r.u8()? {
            T_PONG => Response::Pong,
            T_ISSUED => Response::TokenIssued { signature: BlindSignature(r.biguint()?) },
            T_DENIED => Response::TokenDenied { reason: r.string()? },
            T_UP_OK => Response::UploadAccepted,
            T_UP_REJ => Response::UploadRejected { reason: reject_from_u8(r.u8()?)? },
            T_AGG => {
                let aggregate = match r.u8()? {
                    0 => None,
                    1 => Some(r.aggregate()?),
                    _ => return Err(WireError::Malformed("bad option flag")),
                };
                Response::Aggregate { aggregate }
            }
            T_RESULTS => {
                let n = r.u16()? as usize;
                let mut hits = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
                for _ in 0..n {
                    let mut hit = r.ranked()?;
                    hit.histories = r.u64()?;
                    hit.repeat_fraction = r.f64()?;
                    hits.push(hit);
                }
                Response::SearchResults { hits }
            }
            T_SEARCH_PARTS_RESP => {
                let n = r.u16()? as usize;
                if n * HIT_LEN > r.remaining() {
                    return Err(WireError::Malformed("hit list exceeds payload"));
                }
                let mut hits = Vec::with_capacity(n);
                let mut support = Vec::with_capacity(n);
                for _ in 0..n {
                    hits.push(r.ranked()?);
                    support.push(SupportParts { histories: r.u64()?, repeats: r.u64()? });
                }
                Response::SearchParts { hits, support }
            }
            T_STATS_RESP => Response::Stats { snapshot: r.snapshot()? },
            T_BUSY => Response::Busy,
            T_ERROR => Response::Error { detail: r.string()? },
            T_AGG_PARTS_RESP => {
                let parts = match r.u8()? {
                    0 => None,
                    1 => Some(r.parts()?),
                    _ => return Err(WireError::Malformed("bad option flag")),
                };
                Response::AggregateParts { parts }
            }
            T_AGG_PARTS_BATCH_RESP => {
                // Each entry needs at least its one-byte presence flag,
                // so a hostile count cannot drive a large allocation.
                let n = r.u16()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed("parts list exceeds payload"));
                }
                let mut parts = Vec::with_capacity(n);
                for _ in 0..n {
                    parts.push(match r.u8()? {
                        0 => None,
                        1 => Some(r.parts()?),
                        _ => return Err(WireError::Malformed("bad option flag")),
                    });
                }
                Response::AggregatePartsBatch { parts }
            }
            T_TRACES_RESP => Response::Traces { traces: r.traces()? },
            T_REPL_ACK => Response::ReplicateAck { epoch: r.u64()?, applied: r.u64()? },
            T_STALE_EPOCH => Response::StaleEpoch { range: r.u32()?, current: r.u64()? },
            T_CATCH_CHUNK => {
                let epoch = r.u64()?;
                let primary = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("bad primary flag")),
                };
                let done = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("bad done flag")),
                };
                let digest = r.u32()?;
                let next_cursor = r.u64()?;
                // Each record needs at least id + entity + its own count.
                let n = r.u32()? as usize;
                if n.saturating_mul(32 + 8 + 4) > r.remaining() {
                    return Err(WireError::Malformed("record list exceeds payload"));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let record_id = r.record_id()?;
                    let entity = EntityId::new(r.u64()?);
                    let m = r.u32()? as usize;
                    if m.saturating_mul(27) > r.remaining() {
                        return Err(WireError::Malformed(
                            "interaction list exceeds payload",
                        ));
                    }
                    let mut interactions = Vec::with_capacity(m);
                    for _ in 0..m {
                        interactions.push(r.interaction()?);
                    }
                    records.push(CatchRecord { record_id, entity, interactions });
                }
                let n = r.u32()? as usize;
                if n.saturating_mul(32) > r.remaining() {
                    return Err(WireError::Malformed("token list exceeds payload"));
                }
                let mut tokens = Vec::with_capacity(n);
                for _ in 0..n {
                    tokens.push(r.key32()?);
                }
                Response::CatchUpChunk {
                    epoch,
                    primary,
                    done,
                    digest,
                    next_cursor,
                    records,
                    tokens,
                }
            }
            T_UNAVAILABLE => Response::Unavailable { detail: r.string()? },
            tag => return Err(WireError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok(response)
    }
}

// --------------------------------------------------- composite encoders

fn put_biguint(buf: &mut BytesMut, v: &BigUint) {
    let bytes = v.to_bytes_be();
    debug_assert!(bytes.len() <= u16::MAX as usize);
    buf.put_u16_le(bytes.len() as u16);
    buf.put_slice(&bytes);
}

fn put_string(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    buf.put_u16_le(len as u16);
    buf.put_slice(&bytes[..len]);
}

fn put_upload(buf: &mut BytesMut, upload: &UploadRequest) {
    buf.put_slice(upload.record_id.as_bytes());
    buf.put_u64_le(upload.entity.raw());
    put_interaction(buf, &upload.interaction);
    buf.put_slice(&upload.token.message);
    put_biguint(buf, &upload.token.signature);
    buf.put_i64_le(upload.release_at.as_seconds());
}

// Same field layout as the server WAL's interaction payload.
fn put_interaction(buf: &mut BytesMut, i: &Interaction) {
    buf.put_u8(kind_to_u8(i.kind));
    buf.put_i64_le(i.start.as_seconds());
    buf.put_i64_le(i.duration.as_seconds());
    buf.put_f64_le(i.distance_travelled_m);
    buf.put_u16_le(i.group_size);
}

fn put_query(buf: &mut BytesMut, query: &SearchQuery) {
    buf.put_u32_le(query.zipcode);
    buf.put_u16_le(query.category.stable_index() as u16);
}

/// The world-determined part of a hit — everything but its support.
fn put_ranked(buf: &mut BytesMut, hit: &SearchHit) {
    buf.put_u64_le(hit.entity.raw());
    buf.put_f64_le(hit.score);
    put_histogram(buf, &hit.explicit);
    put_histogram(buf, &hit.inferred);
}

fn put_histogram(buf: &mut BytesMut, h: &StarHistogram) {
    for count in h.counts() {
        buf.put_u64_le(count);
    }
}

fn put_aggregate(buf: &mut BytesMut, agg: &EntityAggregate) {
    buf.put_u64_le(agg.entity.raw());
    buf.put_u64_le(agg.histories as u64);
    buf.put_u64_le(agg.interactions as u64);
    buf.put_f64_le(agg.mean_dwell_min);
    buf.put_f64_le(agg.repeat_fraction);
    buf.put_u16_le(agg.visits_per_user.len() as u16);
    for &v in &agg.visits_per_user {
        buf.put_u64_le(v as u64);
    }
    buf.put_u32_le(agg.effort_points.len() as u32);
    for &(count, dist) in &agg.effort_points {
        buf.put_u64_le(count as u64);
        buf.put_f64_le(dist);
    }
}

fn put_parts(buf: &mut BytesMut, parts: &AggregateParts) {
    buf.put_u64_le(parts.entity.raw());
    buf.put_u64_le(parts.histories);
    buf.put_u64_le(parts.interactions);
    buf.put_u64_le(parts.repeats);
    buf.put_i64_le(parts.dwell_secs);
    buf.put_u64_le(parts.dwell_n);
    buf.put_u16_le(parts.visits_per_user.len() as u16);
    for &v in &parts.visits_per_user {
        buf.put_u64_le(v);
    }
    buf.put_u32_le(parts.effort_points.len() as u32);
    for &(count, dist) in &parts.effort_points {
        buf.put_u64_le(count);
        buf.put_f64_le(dist);
    }
}

// A snapshot is four length-prefixed tables. Entry counts use u32 with
// a minimum-size guard on decode (a name is at least 2 bytes, a value 8)
// so a hostile count cannot drive a large allocation.
fn put_snapshot(buf: &mut BytesMut, snap: &StatsSnapshot) {
    buf.put_u32_le(snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        put_string(buf, name);
        buf.put_u64_le(*v);
    }
    buf.put_u32_le(snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        put_string(buf, name);
        buf.put_i64_le(*v);
    }
    buf.put_u32_le(snap.histograms.len() as u32);
    for h in &snap.histograms {
        put_string(buf, &h.name);
        buf.put_u64_le(h.count);
        buf.put_u64_le(h.sum);
        buf.put_u64_le(h.max);
        buf.put_u64_le(h.p50);
        buf.put_u64_le(h.p90);
        buf.put_u64_le(h.p99);
    }
    buf.put_u32_le(snap.events.len() as u32);
    for e in &snap.events {
        buf.put_u64_le(e.at_micros);
        put_string(buf, &e.kind);
        put_string(buf, &e.detail);
    }
}

// Traces travel as a length-prefixed table of traces, each a table of
// spans — the same hostile-length guards as the snapshot tables.
fn put_traces(buf: &mut BytesMut, traces: &[TraceRecord]) {
    buf.put_u32_le(traces.len() as u32);
    for t in traces {
        buf.put_slice(&t.trace_id.to_le_bytes());
        buf.put_u32_le(t.spans.len() as u32);
        for s in &t.spans {
            buf.put_u64_le(s.span_id);
            buf.put_u64_le(s.parent_span_id);
            put_string(buf, &s.name);
            buf.put_u64_le(s.start_us);
            buf.put_u64_le(s.end_us);
            put_string(buf, &s.process);
        }
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

fn reject_to_u8(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::BadToken => 0,
        RejectReason::DoubleSpend => 1,
        RejectReason::BadRecord => 2,
        RejectReason::EntityMismatch => 3,
    }
}

fn reject_from_u8(v: u8) -> Result<RejectReason, WireError> {
    Ok(match v {
        0 => RejectReason::BadToken,
        1 => RejectReason::DoubleSpend,
        2 => RejectReason::BadRecord,
        3 => RejectReason::EntityMismatch,
        _ => return Err(WireError::Malformed("unknown reject reason")),
    })
}

// ------------------------------------------------------ checked decoder

/// Bounds-checked cursor over a payload. Every read that would run past
/// the end returns a typed error; the `bytes` shim's `Buf` panics on
/// short input, so hostile payloads go through this instead.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed("payload too short"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in payload"))
        }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn u128(&mut self) -> Result<u128, WireError> {
        let b = self.take(16)?;
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(b);
        Ok(u128::from_le_bytes(bytes))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn biguint(&mut self) -> Result<BigUint, WireError> {
        let len = self.u16()? as usize;
        Ok(BigUint::from_bytes_be(self.take(len)?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("invalid utf-8"))
    }

    fn record_id(&mut self) -> Result<RecordId, WireError> {
        Ok(RecordId::from_bytes(self.key32()?))
    }

    fn key32(&mut self) -> Result<[u8; 32], WireError> {
        let b = self.take(32)?;
        let mut key = [0u8; 32];
        key.copy_from_slice(b);
        Ok(key)
    }

    fn category(&mut self) -> Result<Category, WireError> {
        let index = self.u16()? as usize;
        Category::from_stable_index(index).ok_or(WireError::Malformed("unknown category"))
    }

    fn interaction(&mut self) -> Result<Interaction, WireError> {
        let kind = kind_from_u8(self.u8()?)
            .ok_or(WireError::Malformed("unknown interaction kind"))?;
        Ok(Interaction {
            kind,
            start: Timestamp::from_seconds(self.i64()?),
            duration: SimDuration::seconds(self.i64()?),
            distance_travelled_m: self.f64()?,
            group_size: self.u16()?,
        })
    }

    fn upload(&mut self) -> Result<UploadRequest, WireError> {
        let record_id = self.record_id()?;
        let entity = EntityId::new(self.u64()?);
        let interaction = self.interaction()?;
        let message_bytes = self.take(32)?;
        let mut message = [0u8; 32];
        message.copy_from_slice(message_bytes);
        let signature = self.biguint()?;
        let release_at = Timestamp::from_seconds(self.i64()?);
        Ok(UploadRequest {
            record_id,
            entity,
            interaction,
            token: Token { message, signature },
            release_at,
        })
    }

    fn query(&mut self) -> Result<SearchQuery, WireError> {
        Ok(SearchQuery { zipcode: self.u32()?, category: self.category()? })
    }

    /// A hit's world-determined fields, support left at zero.
    fn ranked(&mut self) -> Result<SearchHit, WireError> {
        Ok(SearchHit {
            entity: EntityId::new(self.u64()?),
            score: self.f64()?,
            explicit: self.histogram()?,
            inferred: self.histogram()?,
            histories: 0,
            repeat_fraction: 0.0,
        })
    }

    fn histogram(&mut self) -> Result<StarHistogram, WireError> {
        let mut counts = [0u64; 6];
        for slot in &mut counts {
            *slot = self.u64()?;
        }
        Ok(StarHistogram::from_counts(counts))
    }

    /// Guarded length prefix: each of `n` entries needs at least
    /// `min_entry` bytes, so a count implying more than the remaining
    /// payload is hostile and rejected before any allocation.
    fn table_len(&mut self, min_entry: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_entry) > self.remaining() {
            return Err(WireError::Malformed("table length exceeds payload"));
        }
        Ok(n)
    }

    fn snapshot(&mut self) -> Result<StatsSnapshot, WireError> {
        let n = self.table_len(10)?; // u16 name len + u64 value
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.string()?;
            counters.push((name, self.u64()?));
        }
        let n = self.table_len(10)?;
        let mut gauges = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.string()?;
            gauges.push((name, self.i64()?));
        }
        let n = self.table_len(50)?; // u16 name len + six u64 fields
        let mut histograms = Vec::with_capacity(n);
        for _ in 0..n {
            histograms.push(HistogramSnapshot {
                name: self.string()?,
                count: self.u64()?,
                sum: self.u64()?,
                max: self.u64()?,
                p50: self.u64()?,
                p90: self.u64()?,
                p99: self.u64()?,
            });
        }
        let n = self.table_len(12)?; // u64 timestamp + two u16 string lens
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(EventSnapshot {
                at_micros: self.u64()?,
                kind: self.string()?,
                detail: self.string()?,
            });
        }
        Ok(StatsSnapshot { counters, gauges, histograms, events })
    }

    fn traces(&mut self) -> Result<Vec<TraceRecord>, WireError> {
        let n = self.table_len(20)?; // u128 trace id + u32 span count
        let mut traces = Vec::with_capacity(n);
        for _ in 0..n {
            let trace_id = self.u128()?;
            // Each span: two u64 ids, two u64 timestamps, two string lens.
            let m = self.table_len(36)?;
            let mut spans = Vec::with_capacity(m);
            for _ in 0..m {
                spans.push(SpanRecord {
                    span_id: self.u64()?,
                    parent_span_id: self.u64()?,
                    name: self.string()?,
                    start_us: self.u64()?,
                    end_us: self.u64()?,
                    process: self.string()?,
                });
            }
            traces.push(TraceRecord { trace_id, spans });
        }
        Ok(traces)
    }

    fn parts(&mut self) -> Result<AggregateParts, WireError> {
        let entity = EntityId::new(self.u64()?);
        let histories = self.u64()?;
        let interactions = self.u64()?;
        let repeats = self.u64()?;
        let dwell_secs = self.i64()?;
        let dwell_n = self.u64()?;
        let visits_len = self.u16()? as usize;
        if visits_len * 8 > self.remaining() {
            return Err(WireError::Malformed("visits length exceeds payload"));
        }
        let mut visits_per_user = Vec::with_capacity(visits_len);
        for _ in 0..visits_len {
            visits_per_user.push(self.u64()?);
        }
        let points_len = self.u32()? as usize;
        if points_len.saturating_mul(16) > self.remaining() {
            return Err(WireError::Malformed("effort length exceeds payload"));
        }
        let mut effort_points = Vec::with_capacity(points_len);
        for _ in 0..points_len {
            let count = self.u64()?;
            let dist = self.f64()?;
            effort_points.push((count, dist));
        }
        Ok(AggregateParts {
            entity,
            histories,
            interactions,
            visits_per_user,
            repeats,
            dwell_secs,
            dwell_n,
            effort_points,
        })
    }

    fn aggregate(&mut self) -> Result<EntityAggregate, WireError> {
        let entity = EntityId::new(self.u64()?);
        let histories = self.u64()? as usize;
        let interactions = self.u64()? as usize;
        let mean_dwell_min = self.f64()?;
        let repeat_fraction = self.f64()?;
        let visits_len = self.u16()? as usize;
        if visits_len * 8 > self.remaining() {
            return Err(WireError::Malformed("visits length exceeds payload"));
        }
        let mut visits_per_user = Vec::with_capacity(visits_len);
        for _ in 0..visits_len {
            visits_per_user.push(self.u64()? as usize);
        }
        let points_len = self.u32()? as usize;
        if points_len.saturating_mul(16) > self.remaining() {
            return Err(WireError::Malformed("effort length exceeds payload"));
        }
        let mut effort_points = Vec::with_capacity(points_len);
        for _ in 0..points_len {
            let count = self.u64()? as usize;
            let dist = self.f64()?;
            effort_points.push((count, dist));
        }
        Ok(EntityAggregate {
            entity,
            histories,
            interactions,
            visits_per_user,
            effort_points,
            mean_dwell_min,
            repeat_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TraceContext {
        TraceContext { trace_id: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233, span_id: 77, sampled: true }
    }

    #[test]
    fn frame_round_trip() {
        let framed = frame(b"payload");
        assert_eq!(framed.len(), HEADER_LEN + b"payload".len());
        let (payload, ctx, consumed) = decode_frame_traced(&framed).unwrap();
        assert_eq!(payload, b"payload");
        assert_eq!(ctx, None);
        assert_eq!(consumed, framed.len());
    }

    #[test]
    fn traced_frame_round_trip() {
        let framed = frame_traced(b"payload", Some(&ctx()));
        assert_eq!(framed.len(), HEADER_LEN + TRACE_CTX_LEN + b"payload".len());
        let (payload, got, consumed) = decode_frame_traced(&framed).unwrap();
        assert_eq!(payload, b"payload");
        assert_eq!(got, Some(ctx()));
        assert_eq!(consumed, framed.len());
    }

    #[test]
    fn truncated_header_is_typed() {
        for framed in [frame(b"hello"), frame_traced(b"hello", Some(&ctx()))] {
            let payload_start = framed.len() - b"hello".len();
            for cut in 0..payload_start {
                assert!(matches!(
                    decode_frame(&framed[..cut]),
                    Err(WireError::Truncated { .. })
                ));
            }
        }
    }

    #[test]
    fn bad_sampled_flag_is_typed() {
        let mut framed = frame_traced(b"hello", Some(&ctx()));
        framed[HEADER_LEN + TRACE_CTX_LEN - 1] = 7;
        assert!(matches!(decode_frame(&framed), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_frame_flags_are_typed() {
        let mut framed = frame(b"hello");
        framed[5] = 0x80;
        assert!(matches!(decode_frame(&framed), Err(WireError::Malformed(_))));
    }

    #[test]
    fn truncated_payload_is_typed() {
        let framed = frame(b"hello");
        assert!(matches!(
            decode_frame(&framed[..framed.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupted_crc_is_typed() {
        let mut framed = frame(b"hello");
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        assert!(matches!(decode_frame(&framed), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        // The length sits after magic(4) + version(1) + flags(1).
        let mut framed = frame(b"x");
        framed[6..10].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode_frame(&framed), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut framed = frame(b"x");
        framed[0] = b'X';
        assert!(matches!(decode_frame(&framed), Err(WireError::BadMagic(_))));
        let mut framed = frame(b"x");
        framed[4] = 99;
        assert!(matches!(decode_frame(&framed), Err(WireError::BadVersion(99))));
    }

    #[test]
    fn golden_frames_pin_the_wire_bytes() {
        // Exact frames, header and CRC included, as the byte-at-a-time
        // CRC produced them: a faster CRC (or codec) must not move a byte.
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(hex(&Response::Pong.encode()), "4f5253500200010000003b5cbd4881");
        let aggregate = Response::Aggregate {
            aggregate: Some(EntityAggregate {
                entity: EntityId::new(7),
                histories: 5,
                interactions: 9,
                visits_per_user: vec![0, 3, 2],
                effort_points: vec![(1, 250.0), (2, 1234.5)],
                mean_dwell_min: 42.5,
                repeat_fraction: 0.4,
            }),
        };
        assert_eq!(
            hex(&aggregate.encode()),
            concat!(
                "4f5253500200680000003dc8ae13860107000000000000000500000000000000",
                "090000000000000000000000004045409a9999999999d93f0300000000000000",
                "0000030000000000000002000000000000000200000001000000000000000000",
                "000000406f40020000000000000000000000004a9340",
            )
        );
    }

    #[test]
    fn simple_messages_round_trip() {
        for req in [
            Request::Ping,
            Request::FetchAggregate { entity: EntityId::new(42) },
            Request::Search {
                query: SearchQuery {
                    zipcode: 30332,
                    category: Category::from_stable_index(2).unwrap(),
                },
            },
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        for resp in [
            Response::Pong,
            Response::UploadAccepted,
            Response::Busy,
            Response::TokenDenied { reason: "rate limited".into() },
            Response::UploadRejected { reason: RejectReason::DoubleSpend },
            Response::Aggregate { aggregate: None },
            Response::Error { detail: "bad".into() },
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn aggregate_parts_round_trip() {
        let req = Request::AggregateParts { entity: EntityId::new(9) };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let none = Response::AggregateParts { parts: None };
        assert_eq!(Response::decode(&none.encode()).unwrap(), none);
        let some = Response::AggregateParts {
            parts: Some(AggregateParts {
                entity: EntityId::new(9),
                histories: 3,
                interactions: 7,
                visits_per_user: vec![0, 1, 2],
                repeats: 2,
                dwell_secs: -5,
                dwell_n: 4,
                effort_points: vec![(2, 10.5), (1, 0.0)],
            }),
        };
        assert_eq!(Response::decode(&some.encode()).unwrap(), some);
    }

    #[test]
    fn aggregate_parts_batch_round_trip() {
        let req = Request::AggregatePartsBatch {
            entities: vec![EntityId::new(3), EntityId::new(9), EntityId::new(3)],
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let empty = Request::AggregatePartsBatch { entities: vec![] };
        assert_eq!(Request::decode(&empty.encode()).unwrap(), empty);
        let resp = Response::AggregatePartsBatch {
            parts: vec![
                None,
                Some(AggregateParts {
                    entity: EntityId::new(9),
                    histories: 3,
                    interactions: 7,
                    visits_per_user: vec![0, 1, 2],
                    repeats: 2,
                    dwell_secs: -5,
                    dwell_n: 4,
                    effort_points: vec![(2, 10.5), (1, 0.0)],
                }),
                None,
            ],
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn hostile_batch_lengths_do_not_allocate() {
        // A batch request claiming 65535 entities in an empty payload.
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u8(T_AGG_PARTS_BATCH);
        buf.put_u16_le(u16::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Request::decode(&framed),
            Err(WireError::Malformed("entity list exceeds payload"))
        );
        // A batch response claiming 65535 entries in an empty payload.
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u8(T_AGG_PARTS_BATCH_RESP);
        buf.put_u16_le(u16::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("parts list exceeds payload"))
        );
    }

    #[test]
    fn hostile_parts_lengths_do_not_allocate() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(T_AGG_PARTS_RESP);
        buf.put_u8(1);
        for _ in 0..5 {
            buf.put_u64_le(0); // entity..dwell_secs
        }
        buf.put_u64_le(0); // dwell_n
        buf.put_u16_le(u16::MAX); // visits: hostile
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("visits length exceeds payload"))
        );
    }

    #[test]
    fn unknown_tag_is_typed() {
        let framed = frame(&[0x7F]);
        assert_eq!(Request::decode(&framed), Err(WireError::UnknownTag(0x7F)));
        assert_eq!(Response::decode(&framed), Err(WireError::UnknownTag(0x7F)));
    }

    #[test]
    fn stats_messages_round_trip() {
        assert_eq!(Request::decode(&Request::Stats.encode()).unwrap(), Request::Stats);
        let snapshot = StatsSnapshot {
            counters: vec![("requests_total".into(), 7), ("shed_total".into(), 0)],
            gauges: vec![("world_users".into(), -5)],
            histograms: vec![HistogramSnapshot {
                name: "rpc_ping_us".into(),
                count: 3,
                sum: 30,
                max: 15,
                p50: 7,
                p90: 15,
                p99: 15,
            }],
            events: vec![EventSnapshot {
                at_micros: 12,
                kind: "shed".into(),
                detail: "peer 10.0.0.1:9".into(),
            }],
        };
        let resp = Response::Stats { snapshot };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let empty = Response::Stats { snapshot: StatsSnapshot::default() };
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn traces_messages_round_trip() {
        assert_eq!(Request::decode(&Request::Traces.encode()).unwrap(), Request::Traces);
        let resp = Response::Traces {
            traces: vec![
                TraceRecord { trace_id: 5, spans: vec![] },
                TraceRecord {
                    trace_id: u128::MAX,
                    spans: vec![SpanRecord {
                        span_id: 9,
                        parent_span_id: 0,
                        name: "proxy/upload".into(),
                        start_us: 10,
                        end_us: 40,
                        process: "proxy".into(),
                    }],
                },
            ],
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let empty = Response::Traces { traces: vec![] };
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn hostile_trace_lengths_do_not_allocate() {
        // 4 billion traces claimed in a 5-byte payload.
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(T_TRACES_RESP);
        buf.put_u32_le(u32::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("table length exceeds payload"))
        );
        // One trace claiming 4 billion spans.
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(T_TRACES_RESP);
        buf.put_u32_le(1);
        buf.put_slice(&7u128.to_le_bytes());
        buf.put_u32_le(u32::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("table length exceeds payload"))
        );
    }

    #[test]
    fn hostile_event_lengths_do_not_allocate() {
        // Empty metric tables, then an event table claiming 4 billion
        // entries in a near-empty payload.
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(T_STATS_RESP);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(u32::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("table length exceeds payload"))
        );
    }

    #[test]
    fn hostile_snapshot_lengths_do_not_allocate() {
        // A snapshot claiming 4 billion counters in a near-empty payload
        // must fail the length guard before any allocation.
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(T_STATS_RESP);
        buf.put_u32_le(u32::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("table length exceeds payload"))
        );
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = Request::Ping.encode_payload();
        payload.push(0);
        assert_eq!(
            Request::decode_payload(&payload),
            Err(WireError::Malformed("trailing bytes in payload"))
        );
    }

    fn sample_interaction(seed: i64) -> Interaction {
        Interaction {
            kind: InteractionKind::Visit,
            start: Timestamp::from_seconds(seed),
            duration: SimDuration::seconds(60 + seed),
            distance_travelled_m: 12.5,
            group_size: 2,
        }
    }

    #[test]
    fn replicate_round_trips() {
        let items = vec![
            WalBatchItem {
                spend: Some([7u8; 32]),
                entry: WalEntry {
                    record_id: RecordId::from_bytes([1u8; 32]),
                    entity: EntityId::new(42),
                    interaction: sample_interaction(100),
                },
            },
            WalBatchItem {
                spend: None,
                entry: WalEntry {
                    record_id: RecordId::from_bytes([2u8; 32]),
                    entity: EntityId::new(43),
                    interaction: sample_interaction(-5),
                },
            },
        ];
        let req = Request::Replicate { range: 3, epoch: 9, promote: false, items };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let promote =
            Request::Replicate { range: 0, epoch: u64::MAX, promote: true, items: vec![] };
        assert_eq!(Request::decode(&promote.encode()).unwrap(), promote);
    }

    #[test]
    fn catch_up_round_trips() {
        let req = Request::CatchUp { range: 2, cursor: 4096 };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn replication_responses_round_trip() {
        for resp in [
            Response::ReplicateAck { epoch: 5, applied: 128 },
            Response::StaleEpoch { range: 1, current: 6 },
            Response::Unavailable { detail: "backend 2 range 1 demoted".into() },
            Response::CatchUpChunk {
                epoch: 3,
                primary: true,
                done: false,
                digest: 0,
                next_cursor: 512,
                records: vec![
                    CatchRecord {
                        record_id: RecordId::from_bytes([9u8; 32]),
                        entity: EntityId::new(7),
                        interactions: vec![sample_interaction(1), sample_interaction(2)],
                    },
                    CatchRecord {
                        record_id: RecordId::from_bytes([10u8; 32]),
                        entity: EntityId::new(8),
                        interactions: vec![],
                    },
                ],
                tokens: vec![[3u8; 32], [4u8; 32]],
            },
            Response::CatchUpChunk {
                epoch: 4,
                primary: false,
                done: true,
                digest: 0xDEAD_BEEF,
                next_cursor: 0,
                records: vec![],
                tokens: vec![],
            },
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn hostile_replicate_lengths_do_not_allocate() {
        // A replicate batch claiming 4 billion items in an empty payload.
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(T_REPLICATE);
        buf.put_u32_le(0); // range
        buf.put_u64_le(1); // epoch
        buf.put_u8(0); // promote
        buf.put_u32_le(u32::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Request::decode(&framed),
            Err(WireError::Malformed("item list exceeds payload"))
        );
    }

    #[test]
    fn hostile_catch_up_chunk_lengths_do_not_allocate() {
        fn chunk_header() -> BytesMut {
            let mut buf = BytesMut::with_capacity(64);
            buf.put_u8(T_CATCH_CHUNK);
            buf.put_u64_le(1); // epoch
            buf.put_u8(1); // primary
            buf.put_u8(1); // done
            buf.put_u32_le(0); // digest
            buf.put_u64_le(0); // next_cursor
            buf
        }
        // 4 billion records claimed in an empty payload.
        let mut buf = chunk_header();
        buf.put_u32_le(u32::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("record list exceeds payload"))
        );
        // One record claiming 4 billion interactions.
        let mut buf = chunk_header();
        buf.put_u32_le(1);
        buf.put_slice(&[0u8; 32]); // record id
        buf.put_u64_le(7); // entity
        buf.put_u32_le(u32::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("interaction list exceeds payload"))
        );
        // No records, then 4 billion tokens claimed.
        let mut buf = chunk_header();
        buf.put_u32_le(0);
        buf.put_u32_le(u32::MAX);
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("token list exceeds payload"))
        );
    }

    #[test]
    fn hostile_aggregate_lengths_do_not_allocate() {
        // An aggregate claiming 4 billion effort points in a tiny payload
        // must fail cleanly instead of allocating.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(T_AGG);
        buf.put_u8(1);
        buf.put_u64_le(1); // entity
        buf.put_u64_le(0); // histories
        buf.put_u64_le(0); // interactions
        buf.put_f64_le(0.0);
        buf.put_f64_le(0.0);
        buf.put_u16_le(0); // visits
        buf.put_u32_le(u32::MAX); // effort points: hostile
        let framed = frame(&buf.freeze().to_vec());
        assert_eq!(
            Response::decode(&framed),
            Err(WireError::Malformed("effort length exceeds payload"))
        );
    }
}
