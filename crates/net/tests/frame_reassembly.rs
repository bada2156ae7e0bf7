//! Property tests for the incremental frame reassembly state machine
//! ([`FrameAssembler`]) that backs both the blocking reader and the
//! reactor's non-blocking connections.
//!
//! The invariant under test: however the transport chunks the bytes —
//! every possible prefix split, one byte at a time, random fragmentings —
//! the assembler yields exactly the frames the one-shot
//! [`decode_frame_traced`] decodes from the same stream, in the same
//! order, with the same payloads and trace contexts. Hostile inputs must
//! fail with the same typed error the one-shot decoder reports, at a
//! point where no payload allocation has happened.

use orsp_net::wire::{
    decode_frame_traced, frame, frame_traced, HEADER_LEN, MAGIC, MAX_PAYLOAD, PREFIX_LEN,
};
use orsp_net::{AssembledFrame, FrameAssembler, WireError};
use orsp_obs::TraceContext;
use proptest::prelude::*;

/// Encode one frame: `kind` selects untraced / traced.
fn encode_kind(kind: u8, payload: &[u8], trace_id: u64, span_id: u64, sampled: bool) -> Vec<u8> {
    match kind % 2 {
        0 => frame(payload),
        _ => frame_traced(
            payload,
            Some(&TraceContext { trace_id: trace_id.into(), span_id, sampled }),
        ),
    }
}

/// One-shot reference decode of a whole stream of concatenated frames.
fn oneshot_all(mut buf: &[u8]) -> Vec<AssembledFrame> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        let (payload, ctx, consumed) = decode_frame_traced(buf).expect("valid stream");
        out.push(AssembledFrame { payload: payload.to_vec(), ctx });
        buf = &buf[consumed..];
    }
    out
}

/// Feed a stream through the assembler split at the given cut points.
fn assemble_chunked(stream: &[u8], cuts: &[usize]) -> Vec<AssembledFrame> {
    let mut asm = FrameAssembler::new();
    let mut out = Vec::new();
    let mut start = 0usize;
    let bounds: Vec<usize> = cuts.iter().copied().chain(std::iter::once(stream.len())).collect();
    for end in bounds {
        let mut chunk = &stream[start..end];
        while !chunk.is_empty() {
            let (consumed, msg) = asm.feed(chunk).expect("valid stream");
            if let Some(m) = msg {
                out.push(m);
            }
            chunk = &chunk[consumed..];
        }
        start = end;
    }
    // A trailing zero-length payload completes on empty input.
    if let (_, Some(m)) = asm.feed(&[]).expect("flush") {
        out.push(m);
    }
    assert!(asm.at_boundary(), "stream ends on a frame boundary");
    out
}

/// Zip the generated ingredient vectors into an encoded frame stream.
fn encode_stream(kinds: &[u8], payloads: &[Vec<u8>], ids: &[u64]) -> Vec<u8> {
    let n = kinds.len().min(payloads.len());
    let mut stream = Vec::new();
    for i in 0..n {
        let payload = payloads.get(i).map(Vec::as_slice).unwrap_or(b"fallback");
        let tid = ids.get(i).copied().unwrap_or(1);
        stream.extend_from_slice(&encode_kind(
            kinds[i],
            payload,
            tid,
            tid.rotate_left(17) | 1,
            tid & 1 == 1,
        ));
    }
    stream
}

proptest! {
    /// Every prefix split of a single frame: feed `stream[..cut]`, then
    /// `stream[cut..]` — equals the one-shot decode, for every cut point.
    /// (Exhaustive over cuts, not sampled: the loop walks all of them.)
    #[test]
    fn every_prefix_split_equals_one_shot(
        kind in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        trace_id in any::<u64>(),
        span_id in any::<u64>(),
        sampled in any::<bool>(),
    ) {
        let stream = encode_kind(kind, &payload, trace_id, span_id, sampled);
        let expected = oneshot_all(&stream);
        prop_assert_eq!(expected.len(), 1);
        for cut in 0..=stream.len() {
            let got = assemble_chunked(&stream, &[cut]);
            prop_assert_eq!(&got, &expected, "split at {}", cut);
        }
    }

    /// Multi-frame streams, one byte at a time.
    #[test]
    fn byte_at_a_time_equals_one_shot(
        kinds in proptest::collection::vec(any::<u8>(), 1..5),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 1..5),
        ids in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let stream = encode_stream(&kinds, &payloads, &ids);
        let expected = oneshot_all(&stream);
        let cuts: Vec<usize> = (1..stream.len()).collect();
        let got = assemble_chunked(&stream, &cuts);
        prop_assert_eq!(got, expected);
    }

    /// Multi-frame streams in random chunkings.
    #[test]
    fn random_chunkings_equal_one_shot(
        kinds in proptest::collection::vec(any::<u8>(), 1..5),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 1..5),
        ids in proptest::collection::vec(any::<u64>(), 1..5),
        raw_cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let stream = encode_stream(&kinds, &payloads, &ids);
        let expected = oneshot_all(&stream);
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.sort_unstable();
        let got = assemble_chunked(&stream, &cuts);
        prop_assert_eq!(got, expected);
    }

    /// A hostile declared length fails as `Oversized` the moment the
    /// header's last byte arrives — before one payload byte exists, so
    /// before anything could have been allocated for it — no matter
    /// where the header is split.
    #[test]
    fn hostile_lengths_are_typed_without_allocation(
        declared in (MAX_PAYLOAD as u32 + 1)..=u32::MAX,
        cut in 0usize..HEADER_LEN,
    ) {
        let mut framed = frame(b"x");
        framed[6..10].copy_from_slice(&declared.to_le_bytes());
        let header = &framed[..HEADER_LEN];
        let mut asm = FrameAssembler::new();
        let (consumed, msg) = asm.feed(&header[..cut]).expect("incomplete header is fine");
        prop_assert_eq!(consumed, cut);
        prop_assert!(msg.is_none());
        let err = asm.feed(&header[cut..]).expect_err("oversized length");
        prop_assert!(matches!(err, WireError::Oversized { .. }), "got {:?}", err);
        // Matches the one-shot decoder's verdict on the same bytes.
        prop_assert!(matches!(
            decode_frame_traced(&framed), Err(WireError::Oversized { .. })
        ));
        // And the stream is poisoned for good.
        prop_assert!(asm.feed(b"anything").is_err());
    }

    /// The retired frame version 1 (13-byte header, no flags byte) is
    /// refused by version the moment the prefix completes, wherever the
    /// stream is split and whatever its header goes on to claim: the
    /// assembler never asks for that header (`need()` is poisoned, not
    /// hungry), so no declared length is ever read, let alone allocated
    /// for. The one-shot decoder gives the same verdict.
    #[test]
    fn version_1_frames_are_refused_at_the_prefix(
        declared in any::<u32>(),
        crc in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..PREFIX_LEN,
    ) {
        let mut stream = MAGIC.to_vec();
        stream.push(1);
        stream.extend_from_slice(&declared.to_le_bytes());
        stream.extend_from_slice(&crc.to_le_bytes());
        stream.extend_from_slice(&payload);

        let mut asm = FrameAssembler::new();
        prop_assert_eq!(asm.feed(&stream[..cut]).expect("incomplete prefix is fine"), (cut, None));
        let err = asm.feed(&stream[cut..]).expect_err("version 1");
        prop_assert!(matches!(err, WireError::BadVersion(1)), "got {:?}", err);
        prop_assert!(asm.feed(b"anything").is_err(), "poisoned for good");
        for have in PREFIX_LEN..=stream.len() {
            prop_assert!(matches!(
                decode_frame_traced(&stream[..have]), Err(WireError::BadVersion(1))
            ));
        }
    }

    /// Corrupting any single byte of a one-frame stream: the assembler
    /// and the one-shot decoder reach the same verdict — both accept
    /// with identical payload/context, or both reject.
    #[test]
    fn corruption_agrees_with_one_shot(
        kind in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        trace_id in any::<u64>(),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut stream =
            encode_kind(kind, &payload, trace_id, trace_id ^ 0x5a5a, trace_id & 1 == 0);
        let pos = pos_seed % stream.len();
        stream[pos] ^= flip;
        let oneshot: Result<_, WireError> =
            decode_frame_traced(&stream).map(|(p, ctx, used)| (p.to_vec(), ctx, used));
        let mut asm = FrameAssembler::new();
        let mut rest: &[u8] = &stream;
        let mut got: Result<Option<AssembledFrame>, WireError> = Ok(None);
        while !rest.is_empty() {
            match asm.feed(rest) {
                Ok((_, Some(m))) => {
                    got = Ok(Some(m));
                    break;
                }
                Ok((consumed, None)) => {
                    prop_assert!(consumed > 0, "no progress on non-empty input");
                    rest = &rest[consumed..];
                }
                Err(e) => {
                    got = Err(e);
                    break;
                }
            }
        }
        if let Ok(None) = got {
            got = asm.feed(&[]).map(|(_, m)| m);
        }
        match (oneshot, got) {
            (Ok((p, ctx, _used)), Ok(Some(m))) => {
                prop_assert_eq!(m.payload, p);
                prop_assert_eq!(m.ctx, ctx);
            }
            // A flip that grew the declared length leaves both sides
            // seeing an incomplete frame — the one-shot decoder (whole
            // buffer in hand) calls it `Truncated`, the incremental one
            // (a stream that could still grow) just stays hungry. Same
            // verdict, different vantage.
            (Err(WireError::Truncated { .. }), Ok(None)) => {}
            (Ok(_), Ok(None)) => {
                prop_assert!(false, "one-shot accepted but assembler still hungry");
            }
            (Err(_), Err(_)) => {} // both reject: agreement
            (Err(e), Ok(m)) => {
                prop_assert!(false, "one-shot said {:?} but assembler said {:?}", e, m);
            }
            (Ok(_), Err(e)) => {
                prop_assert!(false, "one-shot accepted but assembler rejected ({:?})", e);
            }
        }
    }
}
