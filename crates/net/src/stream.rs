//! Frame I/O over blocking byte streams (`std::io::Read`/`Write`).
//!
//! What the TCP client reads responses with (and the reactor writes its
//! shed frame with). The staging lives in
//! [`crate::assembler::FrameAssembler`] — the same state machine the
//! reactor drives with non-blocking reads, so both ends enforce the same
//! header validation, CRC check, and payload cap — here driven with
//! exact-size blocking reads ([`FrameAssembler::need`]
//! bytes at a time), so this reader never consumes past the end of a
//! frame. That is one `read` per frame stage; the client hands it a
//! `BufReader` its connection owns, which turns a response of ordinary
//! size into one `read` on the socket and keeps any bytes past the frame
//! with the connection. Deadlines are the socket's read/write timeouts —
//! a peer that stalls mid-frame surfaces as [`NetError::Timeout`], never
//! as a hang.

use crate::assembler::FrameAssembler;
use crate::error::NetError;
use orsp_obs::TraceContext;
use std::io::{Read, Write};

/// Write one already-framed message.
pub fn write_message<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), NetError> {
    w.write_all(frame).map_err(NetError::from_io)?;
    w.flush().map_err(NetError::from_io)
}

/// Read one message: the payload plus the trace context, if the sender
/// stamped one. `Ok(None)` means the peer closed *between* frames — not
/// one message byte arrived; EOF or a dropped connection mid-frame is a
/// typed error.
pub fn read_message<R: Read>(
    r: &mut R,
) -> Result<Option<(Vec<u8>, Option<TraceContext>)>, NetError> {
    // First byte separately: a close before any header byte is a normal
    // end of conversation, not an error. That covers both the clean FIN
    // and the reset a keep-alive race produces (peer closes while our
    // request is in flight; whether the read sees the buffered EOF or
    // the answering RST first is kernel timing) — in either shape the
    // peer sent nothing, which is what `Ok(None)` asserts.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if reset_kind(&e) => return Ok(None),
            Err(e) => return Err(NetError::from_io(e)),
        }
    }
    let mut asm = FrameAssembler::new();
    let mut done = asm.feed(&first)?.1;
    // Drive the shared state machine with exact-size reads: at most
    // `need()` bytes per read, so nothing past this frame's boundary is
    // ever consumed from the stream.
    let mut chunk = [0u8; 4096];
    while done.is_none() {
        let take = asm.need().min(chunk.len());
        if take == 0 {
            // A zero-length payload: the frame completes on no input.
            done = asm.feed(&[])?.1;
            continue;
        }
        r.read_exact(&mut chunk[..take]).map_err(NetError::from_io)?;
        done = asm.feed(&chunk[..take])?.1;
    }
    let frame = done.expect("loop exits with a frame");
    Ok(Some((frame.payload, frame.ctx)))
}

/// Errors a dead peer's teardown produces at the *first* byte of a
/// message boundary.
fn reset_kind(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;
    use crate::wire::{frame, frame_traced, HEADER_LEN, TRACE_CTX_LEN};

    #[test]
    fn round_trip_over_cursor() {
        let mut buf = Vec::new();
        write_message(&mut buf, &frame(b"abc")).unwrap();
        write_message(&mut buf, &frame(b"defg")).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_message(&mut r).unwrap(), Some((b"abc".to_vec(), None)));
        assert_eq!(read_message(&mut r).unwrap(), Some((b"defg".to_vec(), None)));
        assert_eq!(read_message(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn trace_context_rides_the_frame() {
        let ctx = TraceContext { trace_id: 42, span_id: 7, sampled: true };
        let mut buf = Vec::new();
        write_message(&mut buf, &frame_traced(b"abc", Some(&ctx))).unwrap();
        write_message(&mut buf, &frame(b"plain")).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_message(&mut r).unwrap(), Some((b"abc".to_vec(), Some(ctx))));
        assert_eq!(
            read_message(&mut r).unwrap(),
            Some((b"plain".to_vec(), None)),
            "an unstamped frame interleaves cleanly"
        );
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let framed = frame(b"abcdef");
        let mut r = &framed[..framed.len() - 2];
        assert!(matches!(read_message(&mut r), Err(NetError::Closed)));
    }

    #[test]
    fn eof_mid_trace_context_is_an_error() {
        let ctx = TraceContext { trace_id: 42, span_id: 7, sampled: false };
        let framed = frame_traced(b"abcdef", Some(&ctx));
        let mut r = &framed[..HEADER_LEN + TRACE_CTX_LEN / 2];
        assert!(matches!(read_message(&mut r), Err(NetError::Closed)));
    }

    #[test]
    fn corrupt_crc_is_a_wire_error() {
        let mut framed = frame(b"abcdef");
        let n = framed.len();
        framed[n - 1] ^= 0x01;
        let mut r = &framed[..];
        assert!(matches!(read_message(&mut r), Err(NetError::Wire(WireError::BadCrc { .. }))));
    }

    /// A reader that counts the `read` calls made on it.
    struct Counting<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_buffered_frame_costs_one_read() {
        for ctx in [None, Some(TraceContext { trace_id: 42, span_id: 7, sampled: true })] {
            let framed = frame_traced(&[7u8; 300], ctx.as_ref());
            // Unbuffered, each frame stage is a read of its own: first
            // byte, prefix, header, trace context (if any), payload.
            let mut bare = Counting { bytes: &framed, reads: 0 };
            assert_eq!(read_message(&mut bare).unwrap(), Some((vec![7u8; 300], ctx)));
            assert_eq!(bare.reads, 4 + usize::from(ctx.is_some()));
            // Through the client's connection buffer: one read.
            let mut counted = Counting { bytes: &framed, reads: 0 };
            let mut buffered = std::io::BufReader::with_capacity(4096, &mut counted);
            assert_eq!(read_message(&mut buffered).unwrap(), Some((vec![7u8; 300], ctx)));
            drop(buffered);
            assert_eq!(counted.reads, 1);
        }
    }

    #[test]
    fn hostile_length_is_capped() {
        let mut framed = frame(b"x");
        framed[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &framed[..];
        assert!(matches!(read_message(&mut r), Err(NetError::Wire(WireError::Oversized { .. }))));
    }
}
