//! Incremental frame reassembly: the partial-read state machine behind
//! both the blocking [`crate::stream::read_message`] and the reactor's
//! non-blocking connections.
//!
//! A [`FrameAssembler`] is fed bytes in whatever chunking the transport
//! produces — one byte at a time, a kernel buffer at a time, or a whole
//! frame — and yields exactly the messages the one-shot
//! [`crate::wire::decode_frame_traced`] would have decoded from the
//! concatenation (`tests/frame_reassembly.rs` pins that equality over
//! every prefix split and random chunkings). Validation happens at the
//! earliest byte that can fail it: bad magic at byte 4, a hostile length
//! the moment the header completes — *before* any payload allocation —
//! and a CRC mismatch when the payload's last byte lands.

use crate::error::WireError;
use crate::wire::{
    check_crc, parse_header_rest, parse_prefix, parse_trace_ctx, HEADER_LEN, PREFIX_LEN,
    TRACE_CTX_LEN,
};
use orsp_obs::TraceContext;

/// Header remainder (after the magic + version prefix).
const HEADER_REST: usize = HEADER_LEN - PREFIX_LEN;

/// One fully reassembled message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembledFrame {
    /// The frame payload (CRC already verified).
    pub payload: Vec<u8>,
    /// The trace context, if the sender stamped one.
    pub ctx: Option<TraceContext>,
}

enum State {
    /// Collecting the 5-byte magic+version prefix.
    Prefix { have: usize, buf: [u8; PREFIX_LEN] },
    /// Collecting the fixed header remainder.
    HeaderRest { have: usize, buf: [u8; HEADER_REST] },
    /// Collecting the optional trace-context block.
    TraceCtx { len: usize, crc: u32, have: usize, buf: [u8; TRACE_CTX_LEN] },
    /// Collecting the payload (allocated only after the length passed
    /// the [`crate::wire::MAX_PAYLOAD`] check).
    Payload { crc: u32, ctx: Option<TraceContext>, buf: Vec<u8>, len: usize },
    /// A framing error was returned; the stream is unrecoverable.
    Poisoned,
}

/// The reassembly state machine. One per connection; reusable across
/// frames (completing a frame resets it to expect the next prefix).
pub struct FrameAssembler {
    state: State,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameAssembler {
    /// An assembler at a frame boundary.
    pub fn new() -> FrameAssembler {
        FrameAssembler { state: State::Prefix { have: 0, buf: [0; PREFIX_LEN] } }
    }

    /// True when not a single byte of the next frame has arrived — the
    /// position where a peer close is a clean end of conversation rather
    /// than a truncated frame.
    pub fn at_boundary(&self) -> bool {
        matches!(self.state, State::Prefix { have: 0, .. })
    }

    /// Bytes that would complete the current stage (≥ 1 except on a
    /// zero-length payload, where the frame completes without further
    /// input — `feed(&[])` yields it). Blocking readers use this to read
    /// exactly what the frame needs and never consume past its end.
    pub fn need(&self) -> usize {
        match &self.state {
            State::Prefix { have, .. } => PREFIX_LEN - have,
            State::HeaderRest { have, .. } => HEADER_REST - have,
            State::TraceCtx { have, .. } => TRACE_CTX_LEN - have,
            State::Payload { buf, len, .. } => len - buf.len(),
            State::Poisoned => 1,
        }
    }

    /// Consume bytes from `input` — at most up to the end of the current
    /// frame — and return `(consumed, Some(frame))` when one completes.
    /// The caller re-feeds the remainder (it belongs to the next frame);
    /// stopping at the boundary is what lets a server keep at most one
    /// request in flight per connection.
    ///
    /// Framing errors are terminal for the stream: after an `Err` the
    /// assembler stays poisoned and every further feed returns
    /// [`WireError::Malformed`].
    pub fn feed(&mut self, input: &[u8]) -> Result<(usize, Option<AssembledFrame>), WireError> {
        let mut at = 0usize;
        loop {
            match &mut self.state {
                State::Prefix { have, buf } => {
                    let take = (PREFIX_LEN - *have).min(input.len() - at);
                    buf[*have..*have + take].copy_from_slice(&input[at..at + take]);
                    *have += take;
                    at += take;
                    if *have < PREFIX_LEN {
                        return Ok((at, None));
                    }
                    if let Err(e) = parse_prefix(buf) {
                        return self.poison(e);
                    }
                    self.state = State::HeaderRest { have: 0, buf: [0; HEADER_REST] };
                }
                State::HeaderRest { have, buf } => {
                    let take = (HEADER_REST - *have).min(input.len() - at);
                    buf[*have..*have + take].copy_from_slice(&input[at..at + take]);
                    *have += take;
                    at += take;
                    if *have < HEADER_REST {
                        return Ok((at, None));
                    }
                    let (traced, len, crc) = match parse_header_rest(buf) {
                        Ok(parsed) => parsed,
                        Err(e) => return self.poison(e),
                    };
                    // `len` is now proven ≤ MAX_PAYLOAD: the payload
                    // buffer below is the first allocation this frame
                    // causes, so a hostile length never allocates.
                    self.state = if traced {
                        State::TraceCtx { len, crc, have: 0, buf: [0; TRACE_CTX_LEN] }
                    } else {
                        State::Payload { crc, ctx: None, buf: Vec::with_capacity(len), len }
                    };
                }
                State::TraceCtx { len, crc, have, buf } => {
                    let take = (TRACE_CTX_LEN - *have).min(input.len() - at);
                    buf[*have..*have + take].copy_from_slice(&input[at..at + take]);
                    *have += take;
                    at += take;
                    if *have < TRACE_CTX_LEN {
                        return Ok((at, None));
                    }
                    let ctx = match parse_trace_ctx(buf) {
                        Ok(ctx) => ctx,
                        Err(e) => return self.poison(e),
                    };
                    let (len, crc) = (*len, *crc);
                    self.state =
                        State::Payload { crc, ctx: Some(ctx), buf: Vec::with_capacity(len), len };
                }
                State::Payload { crc, ctx, buf, len } => {
                    let take = (*len - buf.len()).min(input.len() - at);
                    buf.extend_from_slice(&input[at..at + take]);
                    at += take;
                    if buf.len() < *len {
                        return Ok((at, None));
                    }
                    if let Err(e) = check_crc(buf, *crc) {
                        return self.poison(e);
                    }
                    let frame = AssembledFrame { payload: std::mem::take(buf), ctx: ctx.take() };
                    self.state = State::Prefix { have: 0, buf: [0; PREFIX_LEN] };
                    return Ok((at, Some(frame)));
                }
                State::Poisoned => {
                    return Err(WireError::Malformed("stream poisoned by earlier framing error"))
                }
            }
        }
    }

    fn poison<T>(&mut self, e: WireError) -> Result<T, WireError> {
        self.state = State::Poisoned;
        Err(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame, frame_traced, MAX_PAYLOAD};

    fn feed_all(asm: &mut FrameAssembler, mut bytes: &[u8]) -> Vec<AssembledFrame> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (consumed, msg) = asm.feed(bytes).expect("feed");
            assert!(consumed > 0 || msg.is_some(), "progress");
            if let Some(m) = msg {
                out.push(m);
            }
            bytes = &bytes[consumed..];
        }
        // A zero-length payload can complete with no bytes left.
        if let (_, Some(m)) = asm.feed(&[]).expect("flush") {
            out.push(m);
        }
        out
    }

    #[test]
    fn byte_at_a_time_equals_one_shot() {
        let ctx = TraceContext { trace_id: 99, span_id: 3, sampled: true };
        let frames = [frame(b"hello"), frame_traced(b"traced", Some(&ctx)), frame(b"")];
        let stream: Vec<u8> = frames.concat();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &stream {
            let (consumed, msg) = asm.feed(std::slice::from_ref(b)).expect("feed");
            assert_eq!(consumed, 1);
            if let Some(m) = msg {
                got.push(m);
            }
        }
        // The trailing empty-payload frame completes at its final header
        // byte, so all three are out already.
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].payload, b"hello");
        assert_eq!(got[0].ctx, None);
        assert_eq!(got[1].payload, b"traced");
        assert_eq!(got[1].ctx, Some(ctx));
        assert_eq!(got[2].payload, b"");
        assert!(asm.at_boundary());
    }

    #[test]
    fn feed_stops_at_the_frame_boundary() {
        let mut bytes = frame(b"one");
        bytes.extend_from_slice(&frame(b"two"));
        let mut asm = FrameAssembler::new();
        let (consumed, msg) = asm.feed(&bytes).expect("feed");
        assert_eq!(msg.expect("first frame").payload, b"one");
        assert!(consumed < bytes.len(), "second frame untouched");
        let got = feed_all(&mut asm, &bytes[consumed..]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"two");
    }

    #[test]
    fn hostile_length_rejected_at_the_header_without_allocation() {
        let mut framed = frame(b"x");
        framed[6..10].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let mut asm = FrameAssembler::new();
        // Feed exactly through the header: the error must land there,
        // before any payload byte exists to allocate for.
        let err = asm.feed(&framed[..HEADER_LEN]).expect_err("oversized");
        assert!(matches!(err, WireError::Oversized { .. }));
        // Poisoned thereafter.
        assert!(asm.feed(b"more").is_err());
    }

    #[test]
    fn bad_magic_rejected_at_the_prefix() {
        let mut asm = FrameAssembler::new();
        assert!(matches!(asm.feed(b"XXXX!").expect_err("magic"), WireError::BadMagic(_)));
    }

    #[test]
    fn crc_mismatch_rejected_at_the_last_payload_byte() {
        let mut framed = frame(b"abcdef");
        let n = framed.len();
        framed[n - 1] ^= 0x01;
        let mut asm = FrameAssembler::new();
        let (_, msg) =
            asm.feed(&framed[..n - 1]).expect("everything before the corrupt byte is plausible");
        assert!(msg.is_none());
        assert!(matches!(asm.feed(&framed[n - 1..]).expect_err("crc"), WireError::BadCrc { .. }));
    }

    #[test]
    fn boundary_tracking() {
        let framed = frame(b"abc");
        let mut asm = FrameAssembler::new();
        assert!(asm.at_boundary());
        asm.feed(&framed[..1]).expect("feed");
        assert!(!asm.at_boundary(), "mid-frame after one byte");
        asm.feed(&framed[1..]).expect("feed");
        assert!(asm.at_boundary(), "back at the boundary after completion");
    }
}
