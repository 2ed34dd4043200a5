//! The length-prefixed frame codec of the `cqd2-serve` wire protocol.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! +---------+---------+-------------------+-------------------+
//! | version |  type   |  payload length   |      payload      |
//! | 1 byte  | 1 byte  |  4 bytes (BE u32) |  `length` bytes   |
//! +---------+---------+-------------------+-------------------+
//! ```
//!
//! The version byte is [`PROTOCOL_VERSION`]; a peer speaking a different
//! version is rejected before its payload is read. Payloads are UTF-8
//! text: the workload-file query syntax on the way in ([`FrameType::Bind`],
//! [`FrameType::Query`]) and JSON ([`crate::server::wire`]) on the way
//! out. The full protocol is documented in `docs/PROTOCOL.md`.
//!
//! Two readers are provided: [`FrameReader`], an incremental accumulator
//! for server connections whose sockets use read timeouts (a timeout
//! mid-frame must not lose the bytes already consumed), and
//! [`read_frame`], a simple blocking reader for clients.

use std::io::{self, IoSlice, Read, Write};

/// The protocol version this build speaks (the first byte of every
/// frame). Version 2 added the catalog admin frames ([`FrameType::Reload`],
/// [`FrameType::CatalogInfo`] and their responses); version-1 peers get
/// a typed `Version` error frame, never undefined behavior.
pub const PROTOCOL_VERSION: u8 = 2;

/// Frame header length: version byte + type byte + u32 payload length.
pub const HEADER_LEN: usize = 6;

/// What a frame is. Client→server types sit below `0x80`, server→client
/// types at or above it (`Error` is deliberately in neither range — only
/// servers send it today, but the split keeps the space readable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: bind this connection to a named database.
    /// Payload: the database name (UTF-8).
    Bind = 0x01,
    /// Client → server: evaluate a query batch against the bound
    /// database. Payload: `Q:` lines and `@…` directives
    /// ([`crate::textio::parse_queries`] syntax).
    Query = 0x02,
    /// Client → server (admin, v2): hot-reload a named database. The
    /// payload's first line is the database name; the remaining lines
    /// are the new facts ([`crate::textio::parse_database`] syntax).
    /// Requires the server to run with reloads enabled
    /// (`--allow-reload`); rejected with an `Unauthorized` error frame
    /// otherwise.
    Reload = 0x03,
    /// Client → server (admin, v2): describe the server's catalog.
    /// Payload: empty.
    CatalogInfo = 0x04,
    /// Client → server (admin, v2): report the server's observability
    /// snapshot — counters, queue depth/high-water, per-database
    /// latency histograms. Payload: empty.
    Stats = 0x05,
    /// Client → server (admin, v2): apply a delta batch to a named
    /// database. The payload's first line is the database name; the
    /// remaining lines are a delta script — `@insert` / `@delete`
    /// section directives followed by fact lines
    /// ([`crate::textio::parse_delta`] syntax). The merge is
    /// incremental: untouched relations are structurally shared into
    /// the new epoch, and warm prepared-query cache entries are
    /// refreshed in place rather than purged. Requires reloads enabled
    /// (`--allow-reload`); rejected with an `Unauthorized` error frame
    /// otherwise.
    Delta = 0x06,
    /// Server → client: the connection is bound. Payload: JSON
    /// [`crate::server::wire::WireBound`].
    Bound = 0x81,
    /// Server → client: one query's answer. Payload: JSON
    /// [`crate::server::wire::WireResult`].
    Result = 0x82,
    /// Server → client: a query batch is fully answered. Payload: JSON
    /// [`crate::server::wire::WireDone`].
    Done = 0x83,
    /// Server → client (v2): a reload was published. Payload: JSON
    /// [`crate::server::wire::WireReloaded`].
    Reloaded = 0x84,
    /// Server → client (v2): the catalog description. Payload: JSON
    /// [`crate::server::wire::WireCatalog`].
    Catalog = 0x85,
    /// Server → client (v2): the observability snapshot. Payload: JSON
    /// [`crate::server::wire::WireStats`].
    StatsReport = 0x86,
    /// Server → client (v2): a delta batch was applied and the next
    /// epoch published. Payload: JSON
    /// [`crate::server::wire::WireDeltaApplied`].
    DeltaApplied = 0x87,
    /// Server → client: a typed error frame. Payload: JSON
    /// [`crate::server::wire::WireError`].
    Error = 0x7F,
}

impl FrameType {
    /// Decode a frame-type byte.
    pub fn from_byte(b: u8) -> Option<FrameType> {
        match b {
            0x01 => Some(FrameType::Bind),
            0x02 => Some(FrameType::Query),
            0x03 => Some(FrameType::Reload),
            0x04 => Some(FrameType::CatalogInfo),
            0x05 => Some(FrameType::Stats),
            0x06 => Some(FrameType::Delta),
            0x81 => Some(FrameType::Bound),
            0x82 => Some(FrameType::Result),
            0x83 => Some(FrameType::Done),
            0x84 => Some(FrameType::Reloaded),
            0x85 => Some(FrameType::Catalog),
            0x86 => Some(FrameType::StatsReport),
            0x87 => Some(FrameType::DeltaApplied),
            0x7F => Some(FrameType::Error),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What kind of frame this is.
    pub frame_type: FrameType,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// The payload as UTF-8 text.
    pub fn text(&self) -> Result<&str, FrameError> {
        std::str::from_utf8(&self.payload).map_err(|_| FrameError::Utf8)
    }
}

/// Why a frame could not be decoded. These are *protocol* errors — the
/// peer sent bytes this codec rejects — as opposed to the transport
/// errors `std::io::Error` covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The version byte did not match [`PROTOCOL_VERSION`].
    Version(u8),
    /// The type byte is not a known [`FrameType`].
    UnknownType(u8),
    /// The declared payload length exceeds the reader's cap.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The reader's configured maximum.
        max: u32,
    },
    /// The payload is not valid UTF-8 (all payloads are text).
    Utf8,
    /// The peer closed the connection mid-frame.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Version(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02X}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Utf8 => f.write_str("frame payload is not valid UTF-8"),
            FrameError::Truncated => f.write_str("connection closed mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame (header + payload) and flush. Header and payload
/// leave in a single `write_vectored` — on an unbuffered `TcpStream`
/// that is one syscall per frame, which matters at per-query-result
/// frame rates, and no byte of the payload is copied on the way (an
/// enumeration's `Result` payload runs to hundreds of kilobytes). A
/// short write resumes where the writer stopped.
pub fn write_frame(w: &mut impl Write, frame_type: FrameType, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    let mut header = [PROTOCOL_VERSION, frame_type as u8, 0, 0, 0, 0];
    header[2..].copy_from_slice(&len.to_be_bytes());
    let mut sent = 0;
    while sent < HEADER_LEN + payload.len() {
        let wrote = match header.get(sent..) {
            Some(rest) => w.write_vectored(&[IoSlice::new(rest), IoSlice::new(payload)]),
            None => w.write(&payload[sent - HEADER_LEN..]),
        };
        match wrote {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Validate a frame header — the one check both readers put between
/// untrusted bytes and a payload allocation: the version byte, the type
/// byte, and the declared payload length against `max`.
fn decode_header(header: &[u8; HEADER_LEN], max: u32) -> Result<(FrameType, u32), FrameError> {
    let [version, frame_type, len @ ..] = *header;
    if version != PROTOCOL_VERSION {
        return Err(FrameError::Version(version));
    }
    let frame_type = FrameType::from_byte(frame_type).ok_or(FrameError::UnknownType(frame_type))?;
    let len = u32::from_be_bytes(len);
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    Ok((frame_type, len))
}

/// What [`FrameReader::poll`] can report besides a frame.
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete frame arrived.
    Frame(Frame),
    /// The read timed out (or would block) with no complete frame;
    /// callers poll their shutdown flag and try again.
    Idle,
    /// The peer closed the connection cleanly (EOF on a frame boundary).
    Closed,
}

/// An incremental frame reader for sockets with read timeouts.
///
/// A blocking `read_exact` would lose already-consumed bytes when the
/// socket's read timeout fires mid-frame; this reader accumulates into
/// an internal buffer instead, so a frame interrupted by any number of
/// timeouts is still decoded intact once its bytes are all in.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max_payload: u32,
}

impl FrameReader {
    /// A reader rejecting payloads longer than `max_payload` bytes.
    pub fn new(max_payload: u32) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            max_payload,
        }
    }

    /// Pump the reader once: decode a buffered frame if one is already
    /// complete, otherwise read from `r` and retry. Timeouts surface as
    /// [`ReadEvent::Idle`]; a clean EOF between frames as
    /// [`ReadEvent::Closed`]; EOF mid-frame as [`FrameError::Truncated`].
    pub fn poll(&mut self, r: &mut impl Read) -> Result<ReadEvent, PollError> {
        if let Some(frame) = self.try_decode()? {
            return Ok(ReadEvent::Frame(frame));
        }
        let mut chunk = [0u8; 4096];
        match r.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() {
                    Ok(ReadEvent::Closed)
                } else {
                    Err(PollError::Frame(FrameError::Truncated))
                }
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                match self.try_decode()? {
                    Some(frame) => Ok(ReadEvent::Frame(frame)),
                    None => Ok(ReadEvent::Idle),
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                Ok(ReadEvent::Idle)
            }
            Err(e) => Err(PollError::Io(e)),
        }
    }

    /// Decode one frame from the buffer if it is complete.
    fn try_decode(&mut self) -> Result<Option<Frame>, FrameError> {
        let Some(header) = self.buf.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let (frame_type, len) = decode_header(header, self.max_payload)?;
        let total = HEADER_LEN + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[HEADER_LEN..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame {
            frame_type,
            payload,
        }))
    }
}

/// A [`FrameReader::poll`] failure: transport or protocol.
#[derive(Debug)]
pub enum PollError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer violated the frame protocol.
    Frame(FrameError),
}

impl From<FrameError> for PollError {
    fn from(e: FrameError) -> PollError {
        PollError::Frame(e)
    }
}

/// Blocking frame read for clients (no read timeout on the socket):
/// reads exactly one frame or fails.
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Frame, PollError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or_truncated(r, &mut header)?;
    let (frame_type, len) = decode_header(&header, max_payload)?;
    let mut payload = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut payload)?;
    Ok(Frame {
        frame_type,
        payload,
    })
}

fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8]) -> Result<(), PollError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            PollError::Frame(FrameError::Truncated)
        } else {
            PollError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn encode(frame_type: FrameType, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, frame_type, payload).unwrap();
        out
    }

    #[test]
    fn frames_round_trip_through_both_readers() {
        let bytes = [
            encode(FrameType::Bind, b"main"),
            encode(FrameType::Query, "Q: R(?x)\n".as_bytes()),
        ]
        .concat();
        // Blocking reader.
        let mut cur = Cursor::new(bytes.clone());
        let a = read_frame(&mut cur, 1024).unwrap();
        let b = read_frame(&mut cur, 1024).unwrap();
        assert_eq!((a.frame_type, a.text().unwrap()), (FrameType::Bind, "main"));
        assert_eq!(b.frame_type, FrameType::Query);
        // Incremental reader, fed one byte at a time: no byte loss.
        let mut reader = FrameReader::new(1024);
        let mut decoded = Vec::new();
        for byte in &bytes {
            match reader.poll(&mut Cursor::new(vec![*byte])).unwrap() {
                ReadEvent::Frame(f) => decoded.push(f),
                ReadEvent::Idle => {}
                ReadEvent::Closed => panic!("not closed"),
            }
        }
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].text().unwrap(), "main");
        // The stats admin pair occupies its reserved bytes.
        assert_eq!(FrameType::from_byte(0x05), Some(FrameType::Stats));
        assert_eq!(FrameType::from_byte(0x86), Some(FrameType::StatsReport));
        // The delta admin pair too.
        assert_eq!(FrameType::from_byte(0x06), Some(FrameType::Delta));
        assert_eq!(FrameType::from_byte(0x87), Some(FrameType::DeltaApplied));
        let f = read_frame(&mut Cursor::new(encode(FrameType::Stats, b"")), 16).unwrap();
        assert_eq!((f.frame_type, f.payload.len()), (FrameType::Stats, 0));
    }

    /// Accepts at most `cap` bytes per call, across the slices it is
    /// offered, and counts the calls.
    struct Trickle {
        cap: usize,
        calls: usize,
        got: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.got.len();
            for buf in bufs {
                let room = self.cap - (self.got.len() - before);
                self.got.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.got.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_a_short_write_resumes() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut expected = vec![PROTOCOL_VERSION, FrameType::Result as u8];
        expected.extend_from_slice(&1000u32.to_be_bytes());
        expected.extend_from_slice(&payload);
        // Header and payload leave together.
        for (cap, calls) in [
            (usize::MAX, 1),
            (1006, 1),
            (1005, 2),
            (6, 168),
            (4, 252),
            (1, 1006),
        ] {
            let mut w = Trickle {
                cap,
                calls: 0,
                got: Vec::new(),
            };
            write_frame(&mut w, FrameType::Result, &payload).unwrap();
            assert_eq!(w.got, expected, "cap {cap}");
            assert_eq!(w.calls, calls, "cap {cap}");
        }
        assert_eq!(encode(FrameType::Result, &payload), expected);
        assert_eq!(encode(FrameType::Stats, b"").len(), HEADER_LEN);
        // A writer that stops accepting bytes is an error, not a spin.
        let mut stuck = Trickle {
            cap: 0,
            calls: 0,
            got: Vec::new(),
        };
        let e = write_frame(&mut stuck, FrameType::Bind, b"x").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn bad_version_type_and_size_are_typed_errors() {
        let mut wrong_version = encode(FrameType::Bind, b"x");
        wrong_version[0] = 9;
        match read_frame(&mut Cursor::new(wrong_version), 1024) {
            Err(PollError::Frame(FrameError::Version(9))) => {}
            other => panic!("{other:?}"),
        }
        // A protocol-1 peer against this protocol-2 build is the
        // canonical version mismatch: typed, and the message names both
        // versions.
        let mut v1 = encode(FrameType::Bind, b"x");
        v1[0] = 1;
        match read_frame(&mut Cursor::new(v1), 1024) {
            Err(PollError::Frame(e @ FrameError::Version(1))) => {
                let msg = e.to_string();
                assert!(msg.contains("version 1") && msg.contains('2'), "{msg}");
            }
            other => panic!("{other:?}"),
        }
        let mut wrong_type = encode(FrameType::Bind, b"x");
        wrong_type[1] = 0x55;
        match read_frame(&mut Cursor::new(wrong_type), 1024) {
            Err(PollError::Frame(FrameError::UnknownType(0x55))) => {}
            other => panic!("{other:?}"),
        }
        let big = encode(FrameType::Query, &[b'x'; 100]);
        match read_frame(&mut Cursor::new(big), 10) {
            Err(PollError::Frame(FrameError::Oversized { len: 100, max: 10 })) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_truncated_and_on_boundary_is_closed() {
        let bytes = encode(FrameType::Bind, b"main");
        let mut reader = FrameReader::new(64);
        match reader.poll(&mut Cursor::new(bytes[..3].to_vec())) {
            Ok(ReadEvent::Idle) => {}
            other => panic!("{other:?}"),
        }
        // The source is now exhausted mid-frame.
        match reader.poll(&mut Cursor::new(Vec::new())) {
            Err(PollError::Frame(FrameError::Truncated)) => {}
            other => panic!("{other:?}"),
        }
        let mut fresh = FrameReader::new(64);
        match fresh.poll(&mut Cursor::new(Vec::new())) {
            Ok(ReadEvent::Closed) => {}
            other => panic!("{other:?}"),
        }
    }
}
