//! Length-prefixed framing.
//!
//! Every message on the wire is one frame. Version 2 (this build):
//!
//! ```text
//! +---------+---------+-------------------+-------------------+----------------+
//! | version | type    | frame id          | payload length    | payload        |
//! | 1 byte  | 1 byte  | 4 bytes, BE u32   | 4 bytes, BE u32   | `length` bytes |
//! +---------+---------+-------------------+-------------------+----------------+
//! ```
//!
//! The `frame id` is what makes request pipelining possible: a client may
//! put many `Query` frames in flight on one connection and match each
//! `Answer`/`Err`/`Throttled` reply back to its request by id, regardless
//! of the order the server completes them in. Id `0` is reserved for
//! *connection-scope* frames — faults that concern the whole session
//! (connection-cap refusals, protocol desync reports) rather than any one
//! request — so request ids always start at 1.
//!
//! Version 1 (PR 3 through PR 6) had no frame id — a 6-byte header of
//! `[version][type][len]` — and therefore required strict one-in one-out
//! request/reply alternation. The version byte is checked on *every*
//! frame (it costs nothing and a mid-stream desync then fails loudly
//! instead of misparsing), the length is capped at [`MAX_PAYLOAD`] so a
//! corrupt or hostile peer cannot make the reader allocate gigabytes, and
//! payloads are UTF-8 (enforced one layer up, in [`crate::msg`]).
//!
//! Version-bump policy: the byte is bumped only for changes that alter
//! the *shape* of a frame (v1→v2 inserted the frame id). Adding a message
//! type is additive — peers that predate it answer with a `protocol`
//! fault (unknown type) rather than desyncing. When versions disagree,
//! each side detects the foreign version byte on the first frame it
//! reads; a v2 server answers a v1 peer with a v1-encoded
//! `Err { kind: "incompatible" }` (see [`write_frame_v1`]) so old clients
//! get a clean, breaker-neutral `Incompatible` fault instead of garbage.

use crate::error::NetError;
use std::io::{Read, Write};

/// Protocol version spoken by this build. Version 2 added the 4-byte
/// frame id to the header (request pipelining); see the module docs for
/// the bump policy.
pub const FRAME_VERSION: u8 = 2;

/// The previous wire version (no frame id, 6-byte header). Kept so a v2
/// server can *reply* to a v1 peer in the peer's own framing when
/// refusing the connection as incompatible.
pub const LEGACY_FRAME_VERSION: u8 = 1;

/// Size of the v2 frame header in bytes.
pub const HEADER_LEN: usize = 10;

/// Size of the legacy v1 frame header in bytes.
pub const LEGACY_HEADER_LEN: usize = 6;

/// Frame id reserved for connection-scope frames (refusals, protocol
/// faults not tied to any single request). Request ids start at 1.
pub const CONNECTION_FRAME_ID: u32 = 0;

/// Hard cap on a single frame's payload (16 MiB) — far above any DTD or
/// document this system ships, low enough to bound a reader's allocation.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// The message type byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Handshake, both directions. Empty payload.
    Hello = 0,
    /// Request (client → server, empty payload) and response
    /// (server → client, payload = the DTD in compact notation).
    ExportDtd = 1,
    /// Client → server. Payload = an XMAS query in the paper's syntax;
    /// an *empty* payload requests the full exported document (the
    /// wrapper `fetch` operation).
    Query = 2,
    /// Server → client. Payload = the answer document as XML text.
    Answer = 3,
    /// Server → client. Payload = `kind '\n' detail`: a remote fault
    /// using the mediator's stable `SourceError::kind()` labels.
    Err = 4,
    /// Request (client → server, empty payload) and response
    /// (server → client, payload = a `mix-obs/1` JSON snapshot of the
    /// peer's observability registry). Services that export no
    /// statistics answer with an `Err { kind: "unsupported" }`.
    Stats = 5,
    /// Server → client. Payload = the suggested minimum backoff in
    /// decimal milliseconds: the per-client admission token bucket shed
    /// this request. Backpressure, not a fault — the request was never
    /// dispatched. (Additive: no version bump was needed.)
    Throttled = 6,
}

impl MsgType {
    pub(crate) fn from_byte(b: u8) -> Option<MsgType> {
        match b {
            0 => Some(MsgType::Hello),
            1 => Some(MsgType::ExportDtd),
            2 => Some(MsgType::Query),
            3 => Some(MsgType::Answer),
            4 => Some(MsgType::Err),
            5 => Some(MsgType::Stats),
            6 => Some(MsgType::Throttled),
            _ => None,
        }
    }
}

/// What [`decode_header`] learned from 10 buffered header bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The message type byte, already validated.
    pub ty: MsgType,
    /// The frame id ([`CONNECTION_FRAME_ID`] for connection-scope).
    pub frame_id: u32,
    /// Announced payload length, already checked against [`MAX_PAYLOAD`].
    pub len: u32,
}

/// Encodes the v2 header for one frame into a fixed array. The reactor
/// uses this to build frames directly into a ring buffer without an
/// intermediate `Vec`.
pub fn encode_header(ty: MsgType, frame_id: u32, len: u32) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0] = FRAME_VERSION;
    header[1] = ty as u8;
    header[2..6].copy_from_slice(&frame_id.to_be_bytes());
    header[6..10].copy_from_slice(&len.to_be_bytes());
    header
}

/// Decodes and validates a buffered v2 header. The caller (reactor or
/// blocking reader) has already read exactly [`HEADER_LEN`] bytes.
pub fn decode_header(header: &[u8; HEADER_LEN]) -> Result<FrameHeader, NetError> {
    if header[0] != FRAME_VERSION {
        // distinct from Protocol: a version mismatch is a *deployment*
        // incompatibility, and the resilience layer must not treat it as
        // a retryable source fault
        return Err(NetError::VersionMismatch {
            theirs: header[0],
            ours: FRAME_VERSION,
        });
    }
    let ty = MsgType::from_byte(header[1])
        .ok_or_else(|| NetError::protocol(format!("unknown message type {}", header[1])))?;
    let frame_id = u32::from_be_bytes([header[2], header[3], header[4], header[5]]);
    let len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_PAYLOAD {
        return Err(NetError::protocol(format!(
            "frame announces a {len} byte payload (cap is {MAX_PAYLOAD})"
        )));
    }
    Ok(FrameHeader { ty, frame_id, len })
}

/// Writes one frame and flushes it.
pub fn write_frame(
    w: &mut impl Write,
    ty: MsgType,
    frame_id: u32,
    payload: &[u8],
) -> Result<(), NetError> {
    write_frame_buffered(w, ty, frame_id, payload)?;
    w.flush()?;
    Ok(())
}

/// Writes one frame into `w` **without flushing** — the pipelined batch
/// path stacks several frames into one buffered writer and flushes once,
/// so a window of requests costs one syscall instead of one each. The
/// caller owns the flush; an unflushed frame is invisible to the peer.
pub fn write_frame_buffered(
    w: &mut impl Write,
    ty: MsgType,
    frame_id: u32,
    payload: &[u8],
) -> Result<(), NetError> {
    if payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(NetError::protocol(format!(
            "refusing to send a {} byte payload (cap is {MAX_PAYLOAD})",
            payload.len()
        )));
    }
    w.write_all(&encode_header(ty, frame_id, payload.len() as u32))?;
    w.write_all(payload)?;
    Ok(())
}

/// Writes one frame in the *legacy v1* encoding (6-byte header, no frame
/// id). Only used to tell a v1 peer, in its own framing, that this build
/// is incompatible — never for regular traffic.
pub fn write_frame_v1(w: &mut impl Write, ty: MsgType, payload: &[u8]) -> Result<(), NetError> {
    if payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(NetError::protocol(format!(
            "refusing to send a {} byte payload (cap is {MAX_PAYLOAD})",
            payload.len()
        )));
    }
    let mut header = [0u8; LEGACY_HEADER_LEN];
    header[0] = LEGACY_FRAME_VERSION;
    header[1] = ty as u8;
    header[2..6].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Transport errors (including clean EOF before a full
/// header, which surfaces as `UnexpectedEof`) come back as
/// [`NetError::Io`]; anything structurally wrong with the bytes as
/// [`NetError::Protocol`]; a foreign version byte as
/// [`NetError::VersionMismatch`].
pub fn read_frame(r: &mut impl Read) -> Result<(MsgType, u32, Vec<u8>), NetError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let h = decode_header(&header)?;
    let mut payload = vec![0u8; h.len as usize];
    r.read_exact(&mut payload)?;
    Ok((h.ty, h.frame_id, payload))
}

/// Reads the *first* frame of a connection, sniffing the version byte
/// before committing to a header size. A v1 peer's frames are only 6
/// bytes — blindly reading a v2 header would misreport the mismatch as a
/// truncated transport error (or worse, block on bytes that never come),
/// so the foreign version byte is diagnosed the moment it arrives.
pub fn read_first_frame(r: &mut impl Read) -> Result<(MsgType, u32, Vec<u8>), NetError> {
    let mut first = [0u8; 1];
    r.read_exact(&mut first)?;
    if first[0] != FRAME_VERSION {
        return Err(NetError::VersionMismatch {
            theirs: first[0],
            ours: FRAME_VERSION,
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = first[0];
    r.read_exact(&mut header[1..])?;
    let h = decode_header(&header)?;
    let mut payload = vec![0u8; h.len as usize];
    r.read_exact(&mut payload)?;
    Ok((h.ty, h.frame_id, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Query, 7, b"q = SELECT X WHERE X:<a/>").unwrap();
        write_frame(&mut buf, MsgType::Hello, 1, b"").unwrap();
        let mut r = Cursor::new(buf);
        let (ty, id, p) = read_frame(&mut r).unwrap();
        assert_eq!(ty, MsgType::Query);
        assert_eq!(id, 7);
        assert_eq!(p, b"q = SELECT X WHERE X:<a/>");
        let (ty, id, p) = read_frame(&mut r).unwrap();
        assert_eq!(ty, MsgType::Hello);
        assert_eq!(id, 1);
        assert!(p.is_empty());
    }

    #[test]
    fn frame_ids_survive_the_full_u32_range() {
        for id in [0, 1, 0x1234_5678, u32::MAX] {
            let mut buf = Vec::new();
            write_frame(&mut buf, MsgType::Answer, id, b"x").unwrap();
            let (_, got, _) = read_frame(&mut Cursor::new(buf)).unwrap();
            assert_eq!(got, id);
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Hello, 1, b"").unwrap();
        buf[0] = 9;
        match read_frame(&mut Cursor::new(buf)) {
            Err(NetError::VersionMismatch { theirs: 9, ours }) => {
                assert_eq!(ours, FRAME_VERSION)
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn legacy_v1_frame_is_a_version_mismatch_not_garbage() {
        // a v1 peer's Hello is only 6 bytes: [1, 0, 0,0,0,0] — the
        // sniffing first-frame reader must flag the version byte instead
        // of blocking for (or misreading) a 10-byte v2 header that will
        // never arrive
        let mut buf = Vec::new();
        write_frame_v1(&mut buf, MsgType::Hello, b"").unwrap();
        match read_first_frame(&mut Cursor::new(buf)) {
            Err(NetError::VersionMismatch { theirs: 1, ours: 2 }) => {}
            other => panic!("expected v1-vs-v2 mismatch, got {other:?}"),
        }
    }

    #[test]
    fn first_frame_reader_accepts_a_v2_frame_whole() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Answer, 42, b"<r/>").unwrap();
        let (ty, id, payload) = read_first_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(
            (ty, id, payload.as_slice()),
            (MsgType::Answer, 42, &b"<r/>"[..])
        );
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Hello, 1, b"").unwrap();
        buf[1] = 77;
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_announcement_rejected_without_allocating() {
        let mut buf = vec![FRAME_VERSION, MsgType::Answer as u8];
        buf.extend_from_slice(&1u32.to_be_bytes()); // frame id
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_frame_is_a_transport_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Answer, 3, b"<r><a>1</a></r>").unwrap();
        buf.truncate(buf.len() - 4); // disconnect mid-payload
        match read_frame(&mut Cursor::new(buf)) {
            Err(NetError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected io error, got {other:?}"),
        }
    }

    /// A tiny deterministic xorshift64 stream, so the decoding fuzz tests
    /// below need no dependency and replay identically on every run.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Runs every reader over `bytes`. Each must return `Ok` or a wire
    /// error the transport itself produces (never `Remote`/`Throttled`,
    /// which only a decoded message can carry); a panic fails the test.
    /// Returns whether `read_frame` succeeded.
    fn decode_all_ways(bytes: &[u8]) -> bool {
        let transport = |e: &NetError| {
            matches!(
                e,
                NetError::Io(_) | NetError::Protocol(_) | NetError::VersionMismatch { .. }
            )
        };
        if let Some(header) = bytes.first_chunk::<HEADER_LEN>() {
            match decode_header(header) {
                Ok(h) => {
                    assert_eq!(h.ty as u8, bytes[1]);
                    assert!(h.len <= MAX_PAYLOAD);
                }
                Err(e) => assert!(transport(&e), "{e:?}"),
            }
        }
        let framed = match read_frame(&mut Cursor::new(bytes)) {
            Ok((ty, _, payload)) => {
                assert_eq!(ty as u8, bytes[1]);
                assert_eq!(payload, &bytes[HEADER_LEN..HEADER_LEN + payload.len()]);
                true
            }
            Err(e) => {
                assert!(transport(&e), "{e:?}");
                false
            }
        };
        match read_first_frame(&mut Cursor::new(bytes)) {
            Ok(_) => assert!(
                framed,
                "first-frame reader accepted what read_frame refused"
            ),
            Err(e) => assert!(transport(&e), "{e:?}"),
        }
        match crate::msg::Msg::read_from(&mut Cursor::new(bytes)) {
            Ok((_, m)) => assert_eq!(m.msg_type() as u8, bytes[1]),
            Err(e) => assert!(transport(&e), "{e:?}"),
        }
        framed
    }

    #[test]
    fn random_bytes_decode_to_a_frame_or_a_net_error() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut decoded = 0;
        // the type byte walks all 256 values several times: the seven
        // MsgType bytes (0..=6) and every unassigned byte (7..=255)
        for case in 0..4096u32 {
            let len = (rng.next() % 64) as usize;
            let mut bytes: Vec<u8> = (0..len.max(2)).map(|_| rng.next() as u8).collect();
            // most cases carry a valid version byte and a small announced
            // length, so they get past the header checks into the payload
            if !rng.next().is_multiple_of(4) {
                bytes[0] = FRAME_VERSION;
            }
            bytes[1] = case as u8;
            if bytes.len() >= HEADER_LEN && !rng.next().is_multiple_of(4) {
                let announced = (rng.next() % 64) as u32;
                bytes[6..10].copy_from_slice(&announced.to_be_bytes());
            }
            if decode_all_ways(&bytes) {
                decoded += 1;
            }
        }
        // the generator must reach the success path, not only errors
        assert!(decoded > 0);
    }

    #[test]
    fn every_truncation_of_a_valid_frame_is_a_transport_error() {
        use crate::msg::Msg;
        let msgs = [
            Msg::Hello,
            Msg::ExportDtd("{<r : a*> <a : PCDATA>}".into()),
            Msg::Query("q = SELECT X WHERE X:<a/>".into()),
            Msg::Query(String::new()),
            Msg::Answer("<r><a>1</a></r>".into()),
            Msg::Err {
                kind: "dtd-invalid".into(),
                msg: "line 1\nline 2".into(),
            },
            Msg::Stats("{}".into()),
            Msg::Throttled {
                retry_after_ms: 250,
            },
        ];
        let eof = |r: Result<(), NetError>| match r {
            Err(NetError::Io(e)) => e.kind() == std::io::ErrorKind::UnexpectedEof,
            _ => false,
        };
        for m in msgs {
            let mut frame = Vec::new();
            m.write_to(&mut frame, 7).unwrap();
            assert!(decode_all_ways(&frame), "{m:?} does not decode whole");
            assert_eq!(
                Msg::read_from(&mut Cursor::new(&frame)).unwrap(),
                (7, m.clone())
            );
            for cut in 0..frame.len() {
                let prefix = &frame[..cut];
                assert!(!decode_all_ways(prefix), "{m:?} cut at {cut} decoded");
                assert!(eof(read_frame(&mut Cursor::new(prefix)).map(drop)));
                assert!(eof(read_first_frame(&mut Cursor::new(prefix)).map(drop)));
                assert!(eof(Msg::read_from(&mut Cursor::new(prefix)).map(drop)));
            }
        }
    }

    #[test]
    fn decode_header_matches_encode_header() {
        let raw = encode_header(MsgType::Stats, 42, 17);
        let h = decode_header(&raw).unwrap();
        assert_eq!(
            h,
            FrameHeader {
                ty: MsgType::Stats,
                frame_id: 42,
                len: 17
            }
        );
    }
}
