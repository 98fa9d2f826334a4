//! Length-prefixed framing and the socket envelope format.
//!
//! Every TCP segment boundary is invisible to the protocol: a stream is
//! deframed by a [`FrameBuffer`] that accumulates whatever chunk sizes
//! the kernel hands us and yields complete frames. A frame is a `u32`
//! big-endian length prefix followed by that many bytes of **envelope**:
//!
//! ```text
//! [len: u32]                         outer frame prefix (≤ max_frame)
//!   [kind: u8]                       0 = data, 1 = shutdown
//!   [from: u8 tag + u32 index]       sender party
//!   [to:   u8 tag + u32 index]       recipient party
//!   [payload: raw bytes]             FrameCodec message (data frames)
//! ```
//!
//! The length prefix is untrusted input off a socket: it is checked
//! against the configured ceiling *before* any allocation, so a hostile
//! or corrupted prefix cannot force a multi-GiB buffer.

use crate::codec::{CodecError, Reader, Writer};
use crate::party::Party;
use bytes::Bytes;
use std::io::Write;

/// Messages that can travel as socket frame payloads.
///
/// `pisa-core` implements this for `SessionMsg`, keeping the socket
/// layer free of protocol knowledge.
pub trait FrameCodec: Sized {
    /// Serializes to the payload bytes of a data frame.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] — well-formed messages never fail.
    fn encode_frame(&self) -> Result<Bytes, CodecError>;

    /// Parses the payload bytes of a data frame.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on truncated, oversized or malformed frames.
    fn decode_frame(frame: &[u8]) -> Result<Self, CodecError>;
}

/// Byte width of the envelope header (kind + from + to).
pub const ENVELOPE_HEADER_BYTES: usize = 11;

const KIND_DATA: u8 = 0;
const KIND_SHUTDOWN: u8 = 1;

const PARTY_SDC: u8 = 1;
const PARTY_STP: u8 = 2;
const PARTY_PU: u8 = 3;
const PARTY_SU: u8 = 4;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A protocol message for the session engine.
    Data,
    /// An in-band graceful-shutdown request.
    Shutdown,
}

/// A decoded socket envelope; the payload is still raw bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEnvelope {
    /// Data or shutdown.
    pub kind: FrameKind,
    /// Sender address.
    pub from: Party,
    /// Recipient address.
    pub to: Party,
    /// Raw payload bytes (empty for shutdown frames).
    pub payload: Vec<u8>,
}

fn put_party(w: &mut Writer, p: Party) {
    match p {
        Party::Sdc => {
            w.put_u8(PARTY_SDC);
            w.put_u32(0);
        }
        Party::Stp => {
            w.put_u8(PARTY_STP);
            w.put_u32(0);
        }
        Party::Pu(i) => {
            w.put_u8(PARTY_PU);
            w.put_u32(i);
        }
        Party::Su(i) => {
            w.put_u8(PARTY_SU);
            w.put_u32(i);
        }
    }
}

fn get_party(r: &mut Reader<'_>) -> Result<Party, CodecError> {
    let tag = r.get_u8()?;
    let idx = r.get_u32()?;
    match tag {
        PARTY_SDC => Ok(Party::Sdc),
        PARTY_STP => Ok(Party::Stp),
        PARTY_PU => Ok(Party::Pu(idx)),
        PARTY_SU => Ok(Party::Su(idx)),
        other => Err(CodecError::BadTag(other)),
    }
}

/// Encodes an envelope (header + raw payload), without the length prefix.
pub fn encode_envelope(kind: FrameKind, from: Party, to: Party, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(ENVELOPE_HEADER_BYTES + payload.len());
    w.put_u8(match kind {
        FrameKind::Data => KIND_DATA,
        FrameKind::Shutdown => KIND_SHUTDOWN,
    });
    put_party(&mut w, from);
    put_party(&mut w, to);
    w.put_raw(payload);
    w.finish().to_vec()
}

/// Decodes an envelope produced by [`encode_envelope`].
///
/// # Errors
///
/// Any [`CodecError`] on a truncated header or unknown kind/party tag.
pub fn decode_envelope(bytes: &[u8]) -> Result<WireEnvelope, CodecError> {
    let mut r = Reader::new(bytes);
    let kind = match r.get_u8()? {
        KIND_DATA => FrameKind::Data,
        KIND_SHUTDOWN => FrameKind::Shutdown,
        other => return Err(CodecError::BadTag(other)),
    };
    let from = get_party(&mut r)?;
    let to = get_party(&mut r)?;
    let payload = r.get_raw(r.remaining())?.to_vec();
    r.finish()?;
    Ok(WireEnvelope {
        kind,
        from,
        to,
        payload,
    })
}

/// Incremental deframer for a byte stream.
///
/// Feed it arbitrary chunks with [`extend`](Self::extend) and drain
/// complete frames with [`next_frame`](Self::next_frame); partial
/// frames stay buffered until their bytes arrive. The length prefix is
/// validated against the ceiling before the frame body is awaited, so
/// an adversarial prefix fails fast instead of stalling or allocating.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameBuffer {
    /// An empty buffer enforcing `max_frame` on every length prefix.
    pub fn new(max_frame: usize) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Appends a received chunk.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame, or `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Oversized`] if the pending length prefix exceeds
    /// the ceiling — the stream is poisoned and must be closed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        let Some(prefix) = self.buf.get(..4) else {
            return Ok(None);
        };
        let Ok(prefix) = <[u8; 4]>::try_from(prefix) else {
            return Ok(None);
        };
        let len = u64::from(u32::from_be_bytes(prefix));
        if len > self.max_frame as u64 {
            return Err(CodecError::Oversized(len, self.max_frame as u64));
        }
        let Ok(len) = usize::try_from(len) else {
            return Err(CodecError::BadLength(len));
        };
        let total = len.saturating_add(4);
        if self.buf.len() < total {
            return Ok(None);
        }
        // total ≥ 4 and total ≤ buf.len(), so both splits are in range.
        let rest = self.buf.split_off(total);
        let mut frame = std::mem::replace(&mut self.buf, rest);
        frame.drain(..4);
        Ok(Some(frame))
    }
}

/// Writes one length-prefixed frame to `w` as a single `write_all`.
///
/// # Errors
///
/// [`CodecError::Oversized`] (wrapped) if `frame` exceeds `max_frame`,
/// or the underlying I/O error.
pub fn write_frame<W: Write>(
    w: &mut W,
    frame: &[u8],
    max_frame: usize,
) -> Result<(), super::SocketError> {
    if frame.len() > max_frame {
        return Err(super::SocketError::Codec(CodecError::Oversized(
            frame.len() as u64,
            max_frame as u64,
        )));
    }
    let Ok(len) = u32::try_from(frame.len()) else {
        return Err(super::SocketError::Codec(CodecError::BadLength(
            frame.len() as u64,
        )));
    };
    // One buffer, one write_all: a frame is never interleaved with
    // another thread's frame as long as callers hold the stream lock.
    let mut out = Vec::with_capacity(4 + frame.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(frame);
    w.write_all(&out).map_err(super::SocketError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip_all_parties() {
        for party in [Party::Sdc, Party::Stp, Party::Pu(7), Party::Su(u32::MAX)] {
            let env = encode_envelope(FrameKind::Data, party, Party::Sdc, b"payload");
            let back = decode_envelope(&env).unwrap();
            assert_eq!(back.kind, FrameKind::Data);
            assert_eq!(back.from, party);
            assert_eq!(back.to, Party::Sdc);
            assert_eq!(back.payload, b"payload");
        }
        let env = encode_envelope(FrameKind::Shutdown, Party::Su(0), Party::Sdc, b"");
        assert_eq!(decode_envelope(&env).unwrap().kind, FrameKind::Shutdown);
    }

    #[test]
    fn envelope_header_width_is_declared() {
        let env = encode_envelope(FrameKind::Data, Party::Su(1), Party::Sdc, b"xyz");
        assert_eq!(env.len(), ENVELOPE_HEADER_BYTES + 3);
    }

    #[test]
    fn bad_envelope_tags_rejected() {
        let mut env = encode_envelope(FrameKind::Data, Party::Su(1), Party::Sdc, b"");
        env[0] = 9; // unknown kind
        assert!(matches!(
            decode_envelope(&env).unwrap_err(),
            CodecError::BadTag(9)
        ));
        let mut env = encode_envelope(FrameKind::Data, Party::Su(1), Party::Sdc, b"");
        env[1] = 0; // unknown party tag
        assert!(decode_envelope(&env).is_err());
        assert!(decode_envelope(&[]).is_err());
    }

    #[test]
    fn frame_buffer_reassembles_split_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello", 1024).unwrap();
        write_frame(&mut wire, b"", 1024).unwrap();
        write_frame(&mut wire, &[7u8; 300], 1024).unwrap();

        // Feed one byte at a time: frames must come out intact, in order.
        let mut fb = FrameBuffer::new(1024);
        let mut out = Vec::new();
        for b in &wire {
            fb.extend(std::slice::from_ref(b));
            while let Some(frame) = fb.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], b"hello");
        assert_eq!(out[1], b"");
        assert_eq!(out[2], vec![7u8; 300]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn oversized_prefix_poisons_stream_before_body_arrives() {
        let mut fb = FrameBuffer::new(16);
        // Claim a 1 MiB frame; only the prefix has arrived.
        fb.extend(&1_048_576u32.to_be_bytes());
        assert!(matches!(
            fb.next_frame().unwrap_err(),
            CodecError::Oversized(1_048_576, 16)
        ));
    }

    #[test]
    fn truncated_frame_stays_pending() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef", 64).unwrap();
        let mut fb = FrameBuffer::new(64);
        fb.extend(&wire[..wire.len() - 1]);
        assert_eq!(fb.next_frame().unwrap(), None);
        fb.extend(&wire[wire.len() - 1..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"abcdef");
    }

    #[test]
    fn write_frame_refuses_oversized() {
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &[0u8; 32], 16).is_err());
        assert!(sink.is_empty());
    }
}
