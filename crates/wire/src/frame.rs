//! The wire frame codec: length-prefixed, CRC-guarded, versioned.
//!
//! Same discipline as the crash-safe log segments
//! ([`harvest_log::segment`]): every frame carries an explicit length and a
//! CRC32 over its contents, so a reader can always classify the bytes in
//! front of it as *complete*, *incomplete*, or *corrupt* — never guess. The
//! layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x48 0x57 ("HW")
//! 2       1     version (currently 2: binary bodies)
//! 3       1     kind: 0 = request, 1 = response, 2 = ops
//! 4       8     seq — caller correlation id, echoed in the response
//! 12      4     len — payload length in bytes
//! 16      4     crc32 over bytes 2..16 and the payload
//! 20      len   payload (message body; see below)
//! ```
//!
//! The CRC covers everything after the magic except itself — including
//! `seq` and `len` — so *any* single corrupted byte is detected: a damaged
//! magic fails the magic check, a damaged header or payload byte fails the
//! CRC, and a `len` inflated past the available bytes parks the stream at
//! [`Decoded::Incomplete`] until the CRC can be checked. Unlike segment
//! recovery (which scans for the longest valid prefix of an at-rest file),
//! a corrupt byte on a TCP stream leaves no resynchronization point — the
//! connection is counted and closed.
//!
//! `seq` lives in the header rather than the payload so a client can match
//! a response to its request without decoding the body. The TCP transport
//! answers one connection's requests in order, but the duplex transport
//! answers pings and sheds at the door while earlier admitted jobs still
//! wait in its queue; a client that pipelines matches by echoed `seq`.
//!
//! Request and response bodies use the binary layout of
//! [`harvest_log::codec`], the same primitives the log segments use
//! ([`crate::proto`] has the message layouts). Ops-plane bodies stay JSON:
//! they carry text scrapes, not records.

pub use harvest_log::segment::crc32;
use harvest_log::segment::crc32_update;

/// The two magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 2] = [0x48, 0x57]; // "HW"

/// The protocol version this build speaks.
pub const WIRE_VERSION: u8 = 2;

/// Fixed header size in bytes.
pub const WIRE_HEADER_LEN: usize = 20;

/// Maximum payload size (4 MiB): a length prefix claiming more is corrupt,
/// not a request to buffer unboundedly.
pub const MAX_WIRE_PAYLOAD: usize = 1 << 22;

/// Whether a frame carries a request, a response, or an ops-plane
/// message (scrape query client→server, report server→client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
    /// Ops-plane scrape traffic, both directions: the payload is an
    /// [`OpsQuery`](crate::ops::OpsQuery) going in and an
    /// [`OpsResponse`](crate::ops::OpsResponse) coming back.
    Ops,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
            FrameKind::Ops => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameKind::Request),
            1 => Some(FrameKind::Response),
            2 => Some(FrameKind::Ops),
            _ => None,
        }
    }
}

/// Why a frame was rejected as corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The first two bytes are not the wire magic.
    BadMagic,
    /// The version byte names a protocol this build does not speak.
    BadVersion,
    /// The kind byte is neither request nor response.
    UnknownKind,
    /// The length prefix exceeds [`MAX_WIRE_PAYLOAD`].
    Oversized,
    /// The CRC over header and payload does not match.
    BadCrc,
    /// The payload bytes are not a valid message body.
    BadPayload,
}

impl std::fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CorruptKind::BadMagic => "bad_magic",
            CorruptKind::BadVersion => "bad_version",
            CorruptKind::UnknownKind => "unknown_kind",
            CorruptKind::Oversized => "oversized",
            CorruptKind::BadCrc => "bad_crc",
            CorruptKind::BadPayload => "bad_payload",
        };
        f.write_str(name)
    }
}

/// One classified decode attempt over a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// Not enough bytes for a whole frame yet; read more and retry.
    Incomplete,
    /// The bytes at the front cannot be a valid frame. A stream has no
    /// resync point past this — close and count the connection.
    Corrupt(CorruptKind),
    /// One whole valid frame.
    Frame {
        /// Request or response.
        kind: FrameKind,
        /// The caller's correlation id.
        seq: u64,
        /// The message body bytes.
        payload: Vec<u8>,
        /// Total bytes consumed from the buffer (header + payload).
        consumed: usize,
    },
}

/// Encodes one frame whose payload `body` appends straight into the frame
/// buffer; the length and CRC are patched in afterwards, so the body is
/// never staged in a buffer of its own.
pub(crate) fn encode_frame_with(
    kind: FrameKind,
    seq: u64,
    body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    // Room for a 32-feature decide without regrowing.
    let mut frame = Vec::with_capacity(512);
    frame.extend_from_slice(&WIRE_MAGIC);
    frame.push(WIRE_VERSION);
    frame.push(kind.to_byte());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&[0; 8]); // len and crc, patched below
    body(&mut frame);
    let len = frame.len() - WIRE_HEADER_LEN;
    assert!(
        len <= MAX_WIRE_PAYLOAD,
        "payload of {len} bytes exceeds the {MAX_WIRE_PAYLOAD} byte wire maximum"
    );
    frame[12..16].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc_over(&frame[2..16], &frame[WIRE_HEADER_LEN..]);
    frame[16..20].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// The frame CRC: bytes 2..16 of the header (version, kind, seq, len)
/// followed by the payload. One pass, no intermediate buffer.
fn crc_over(header_mid: &[u8], payload: &[u8]) -> u32 {
    crc32_update(crc32(header_mid), payload)
}

/// Classifies the bytes at the front of `buf`.
pub fn decode_frame(buf: &[u8]) -> Decoded {
    if buf.len() < WIRE_HEADER_LEN {
        // Classify what we can before waiting for more bytes: a bad magic
        // or version is already fatal at two or three bytes.
        if !buf.is_empty() && buf[0] != WIRE_MAGIC[0] {
            return Decoded::Corrupt(CorruptKind::BadMagic);
        }
        if buf.len() >= 2 && buf[..2] != WIRE_MAGIC {
            return Decoded::Corrupt(CorruptKind::BadMagic);
        }
        if buf.len() >= 3 && buf[2] != WIRE_VERSION {
            return Decoded::Corrupt(CorruptKind::BadVersion);
        }
        return Decoded::Incomplete;
    }
    if buf[..2] != WIRE_MAGIC {
        return Decoded::Corrupt(CorruptKind::BadMagic);
    }
    if buf[2] != WIRE_VERSION {
        return Decoded::Corrupt(CorruptKind::BadVersion);
    }
    let Some(kind) = FrameKind::from_byte(buf[3]) else {
        return Decoded::Corrupt(CorruptKind::UnknownKind);
    };
    let seq = u64::from_le_bytes(buf[4..12].try_into().expect("8 header bytes"));
    let len = u32::from_le_bytes(buf[12..16].try_into().expect("4 header bytes")) as usize;
    if len > MAX_WIRE_PAYLOAD {
        return Decoded::Corrupt(CorruptKind::Oversized);
    }
    if buf.len() < WIRE_HEADER_LEN + len {
        return Decoded::Incomplete;
    }
    let stored_crc = u32::from_le_bytes(buf[16..20].try_into().expect("4 header bytes"));
    let payload = &buf[WIRE_HEADER_LEN..WIRE_HEADER_LEN + len];
    if crc_over(&buf[2..16], payload) != stored_crc {
        return Decoded::Corrupt(CorruptKind::BadCrc);
    }
    Decoded::Frame {
        kind,
        seq,
        payload: payload.to_vec(),
        consumed: WIRE_HEADER_LEN + len,
    }
}

/// A streaming decoder: feed it reads as they arrive, pop whole frames.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next whole frame: `Ok(Some(_))` on a frame, `Ok(None)` when
    /// more bytes are needed, `Err(_)` on corruption (the stream is dead —
    /// no resync is attempted).
    pub fn next_frame(&mut self) -> Result<Option<(FrameKind, u64, Vec<u8>)>, CorruptKind> {
        match decode_frame(&self.buf) {
            Decoded::Incomplete => Ok(None),
            Decoded::Corrupt(kind) => Err(kind),
            Decoded::Frame {
                kind,
                seq,
                payload,
                consumed,
            } => {
                self.buf.drain(..consumed);
                Ok(Some((kind, seq, payload)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_frame(kind: FrameKind, seq: u64, payload: &[u8]) -> Vec<u8> {
        encode_frame_with(kind, seq, |out| out.extend_from_slice(payload))
    }

    #[test]
    fn round_trip_one_frame() {
        let frame = encode_frame(FrameKind::Request, 42, b"{\"x\":1}");
        match decode_frame(&frame) {
            Decoded::Frame {
                kind,
                seq,
                payload,
                consumed,
            } => {
                assert_eq!(kind, FrameKind::Request);
                assert_eq!(seq, 42);
                assert_eq!(payload, b"{\"x\":1}");
                assert_eq!(consumed, frame.len());
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_incomplete() {
        let frame = encode_frame(FrameKind::Response, 7, b"payload bytes");
        for cut in 0..frame.len() {
            assert_eq!(
                decode_frame(&frame[..cut]),
                Decoded::Incomplete,
                "cut at {cut} must be incomplete"
            );
        }
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let frame = encode_frame(FrameKind::Request, 99, b"abcdef");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            match decode_frame(&bad) {
                Decoded::Frame { .. } => {
                    panic!("flip at byte {i} decoded as a valid frame")
                }
                // A flipped length byte can inflate `len` past the buffer
                // (Incomplete); everything else lands on a Corrupt kind.
                Decoded::Incomplete | Decoded::Corrupt(_) => {}
            }
        }
    }

    #[test]
    fn streaming_decoder_pops_frames_across_split_reads() {
        let a = encode_frame(FrameKind::Request, 1, b"first");
        let b = encode_frame(FrameKind::Request, 2, b"second");
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        // Feed one byte at a time: frames must pop exactly when complete.
        for byte in stream {
            dec.extend(&[byte]);
            while let Some((_, seq, payload)) = dec.next_frame().expect("no corruption") {
                got.push((seq, payload));
            }
        }
        assert_eq!(got, vec![(1, b"first".to_vec()), (2, b"second".to_vec())]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_corrupt_not_a_buffer_request() {
        let mut frame = encode_frame(FrameKind::Request, 1, b"x");
        let huge = (MAX_WIRE_PAYLOAD as u32 + 1).to_le_bytes();
        frame[12..16].copy_from_slice(&huge);
        assert_eq!(
            decode_frame(&frame),
            Decoded::Corrupt(CorruptKind::Oversized)
        );
    }

    #[test]
    fn wrong_version_is_rejected_early() {
        let mut frame = encode_frame(FrameKind::Request, 1, b"x");
        frame[2] = 9;
        assert_eq!(
            decode_frame(&frame[..3]),
            Decoded::Corrupt(CorruptKind::BadVersion),
            "three bytes are enough to reject a wrong version"
        );
        assert_eq!(
            decode_frame(&frame),
            Decoded::Corrupt(CorruptKind::BadVersion)
        );
    }
}
