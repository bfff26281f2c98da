//! Length-prefixed framing for the wire protocol.
//!
//! Every message on a connection — request or response — is one *frame*:
//!
//! ```text
//! length  4 bytes   little-endian u32, byte length of the payload
//! payload length bytes, UTF-8 JSON (see [`crate::protocol`]) or a
//!         BIN1 binary payload (see [`crate::bin1`]) whose first byte
//!         is [`BIN1_MAGIC`]
//! ```
//!
//! The two payload encodings are distinguished by the first payload
//! byte: `0xB1` can never begin well-formed UTF-8 (it is a continuation
//! byte), so a JSON payload can never be mistaken for BIN1 and — by the
//! same argument — a server that predates BIN1 rejects a binary frame
//! cleanly as "not UTF-8" instead of misparsing it. Which encoding an op
//! travels in is decided by [`crate::bin1`] and enforced by the session
//! layer, not here; the framing layer is encoding-neutral.
//!
//! Frames are capped at [`MAX_FRAME`] bytes so a corrupt or hostile length
//! prefix cannot make the server allocate unbounded memory. Decoding is
//! total: truncated, oversized, or garbage input yields an error, never a
//! panic, and the connection is closed in response.
//!
//! AUDIT: total — every byte here is attacker-controlled; enforced by
//! `cargo xtask audit` (lint-totality).

use std::io::{self, Read, Write};

/// Maximum payload size in bytes (16 MiB). A 16 Ki-key ingest batch
/// encodes to well under 400 KiB of JSON (and an eighth of that as
/// BIN1), so this leaves two orders of magnitude of headroom while
/// still bounding per-connection memory.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// The room one [`FrameAssembler::fill_from`] offers a read: 64 KiB.
/// A read that returns less has drained the socket.
pub const READ_CHUNK: usize = 64 * 1024;

/// First byte of every BIN1 payload. `0xB1` is a UTF-8 continuation
/// byte, so no JSON payload can start with it and pre-BIN1 peers reject
/// it as malformed rather than misreading it.
pub const BIN1_MAGIC: u8 = 0xB1;

/// One frame's payload: UTF-8 JSON text, or a BIN1 binary message.
///
/// `Bin` payloads always start with [`BIN1_MAGIC`] (the decode side
/// classifies on that byte; the encode side asserts it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// UTF-8 JSON text (control, query and error ops).
    Json(String),
    /// BIN1 binary bytes, first byte [`BIN1_MAGIC`] (the bulk ops).
    Bin(Vec<u8>),
}

impl Payload {
    /// The raw payload bytes as they travel on the wire.
    pub fn bytes(&self) -> &[u8] {
        match self {
            Payload::Json(s) => s.as_bytes(),
            Payload::Bin(b) => b.as_slice(),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the payload is empty (only possible for `Json`).
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Whether this is a BIN1 payload.
    pub fn is_bin(&self) -> bool {
        matches!(self, Payload::Bin(_))
    }
}

impl From<String> for Payload {
    fn from(s: String) -> Self {
        Payload::Json(s)
    }
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the announced payload (streaming decoders
    /// treat this as "wait for more bytes"; blocking readers as EOF).
    Incomplete,
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// The payload is neither valid UTF-8 nor BIN1.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Incomplete => write!(f, "frame truncated"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode a JSON payload into a self-contained frame.
///
/// Panics if the payload exceeds [`MAX_FRAME`]; callers produce payloads
/// they sized themselves.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    // PANIC-OK: the *encode* side frames payloads the server itself
    // produced; exceeding MAX_FRAME is a caller bug, documented above,
    // and must not be silently truncated. Decode stays total.
    assert!(payload.len() <= MAX_FRAME, "payload exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Encode either payload kind into a self-contained frame.
///
/// Panics on the same caller bugs as [`encode_frame`]: an oversized
/// payload, or a `Bin` payload not starting with [`BIN1_MAGIC`] (which
/// the receiver would misclassify as JSON).
pub fn encode_payload(payload: &Payload) -> Vec<u8> {
    let bytes = payload.bytes();
    // PANIC-OK: encode-side caller bugs, as in `encode_frame`.
    assert!(bytes.len() <= MAX_FRAME, "payload exceeds MAX_FRAME");
    if payload.is_bin() {
        // PANIC-OK: a Bin payload without the magic is a caller bug —
        // the peer would decode it as JSON.
        assert!(
            bytes.first() == Some(&BIN1_MAGIC),
            "BIN1 payload missing magic"
        );
    }
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Classify raw payload bytes as JSON or BIN1.
///
/// Total: BIN1 when the first byte is [`BIN1_MAGIC`], otherwise the
/// bytes must be valid UTF-8.
fn classify(body: &[u8]) -> Result<Payload, FrameError> {
    if body.first() == Some(&BIN1_MAGIC) {
        return Ok(Payload::Bin(body.to_vec()));
    }
    let text = std::str::from_utf8(body)
        .map_err(|e| FrameError::Malformed(format!("payload is not UTF-8: {e}")))?;
    Ok(Payload::Json(text.to_string()))
}

/// Decode one frame from the front of `buf`.
///
/// Returns the payload and the number of bytes consumed. Errors are total:
/// any byte sequence either decodes, reports [`FrameError::Incomplete`]
/// (more bytes needed), or is rejected.
pub fn decode_frame(buf: &[u8]) -> Result<(Payload, usize), FrameError> {
    let prefix = buf.get(..4).ok_or(FrameError::Incomplete)?;
    let len = u32::from_le_bytes(prefix.try_into().map_err(|_| FrameError::Incomplete)?) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let body = buf.get(4..4 + len).ok_or(FrameError::Incomplete)?;
    Ok((classify(body)?, 4 + len))
}

/// Write one JSON frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            FrameError::TooLarge(payload.len()).to_string(),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Write one frame of either encoding to a blocking stream.
pub fn write_payload(w: &mut impl Write, payload: &Payload) -> io::Result<()> {
    let bytes = payload.bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            FrameError::TooLarge(bytes.len()).to_string(),
        ));
    }
    if payload.is_bin() && bytes.first() != Some(&BIN1_MAGIC) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "BIN1 payload missing magic",
        ));
    }
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Incremental frame assembly over arbitrarily split byte deliveries.
///
/// The reactor feeds whatever the socket produced — one byte, half a
/// header, three frames and a prefix — into [`FrameAssembler::extend`]
/// and pulls complete payloads out of [`FrameAssembler::next_frame`].
/// Decoding delegates to [`decode_frame`], so the accepted language is
/// byte-for-byte identical to the blocking [`read_frame`] path (the
/// proptests in `tests/wire_props.rs` pin this equivalence down).
///
/// Errors are terminal for the stream: once the front of the buffer is
/// not a valid frame, resynchronization is impossible and the caller
/// must drop the connection.
///
/// The buffer is zeroed once, as it grows, and reused after that: bytes
/// past `filled` are spare read room, not data.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// `..filled` is received bytes, the region before `consumed` of it
    /// handed out already and reclaimed lazily; `filled..` is zeroed room
    /// for the next read.
    buf: Vec<u8>,
    /// Received bytes at the front of `buf`.
    filled: usize,
    /// Decoded-and-returned prefix length of `buf`.
    consumed: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        let room = self.room(bytes.len());
        let n = bytes.len().min(room.len());
        if let (Some(dst), Some(src)) = (room.get_mut(..n), bytes.get(..n)) {
            dst.copy_from_slice(src);
        }
        self.filled += n;
    }

    /// Read once from `r` directly into the assembly buffer — the
    /// reactor's hot path. The read lands in place, with no scratch
    /// buffer and no copy, and its [`READ_CHUNK`] of room is zeroed
    /// only the first time the buffer grows that far, not per read.
    ///
    /// Returns the byte count from the underlying `read` (0 = EOF); a
    /// count below [`READ_CHUNK`] is a short read. `WouldBlock` and
    /// friends propagate unchanged and leave the buffered bytes intact.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let n = r.read(self.room(READ_CHUNK))?;
        // A reader reporting more than it was offered is not trusted.
        self.filled += n.min(READ_CHUNK);
        Ok(n)
    }

    /// `want` bytes of room after the received bytes, reclaiming the
    /// consumed prefix first and zeroing only the part of the buffer
    /// never used before.
    fn room(&mut self, want: usize) -> &mut [u8] {
        self.reclaim();
        let end = self.filled.saturating_add(want);
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        self.buf.get_mut(self.filled..end).unwrap_or_default()
    }

    /// Move the unread tail to the front, so the buffer's high-water
    /// mark tracks the largest *single* frame rather than the
    /// connection's lifetime traffic.
    fn reclaim(&mut self) {
        if self.consumed > 0 {
            self.buf.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.consumed = 0;
        }
    }

    /// Bytes buffered but not yet decoded into frames.
    pub fn pending(&self) -> usize {
        self.filled - self.consumed
    }

    /// Decode the next complete frame, if one is fully buffered.
    ///
    /// `Ok(None)` means "wait for more bytes". Any error means the
    /// stream is unrecoverable at this point.
    pub fn next_frame(&mut self) -> Result<Option<Payload>, FrameError> {
        let tail = self.buf.get(self.consumed..self.filled).unwrap_or(&[]);
        match decode_frame(tail) {
            Ok((payload, used)) => {
                self.consumed += used;
                Ok(Some(payload))
            }
            Err(FrameError::Incomplete) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// True for the error kinds a read timeout surfaces as (platform
/// dependent: `WouldBlock` on Unix, `TimedOut` on Windows).
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fill `buf` completely, retrying on read timeouts once the frame has
/// started (a frame, once started, is finished). Returns how many bytes
/// were read before a clean EOF or a permitted initial timeout.
fn read_full(r: &mut impl Read, buf: &mut [u8], allow_initial_timeout: bool) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        // PANIC-OK: `filled < buf.len()` is the loop condition, so the
        // range start is always in bounds.
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            // A timeout before the frame's first byte belongs to the
            // caller (idle-poll); mid-frame we keep waiting so a slow
            // sender cannot desynchronize the framing.
            Err(e) if is_timeout(&e) && allow_initial_timeout && filled == 0 => return Err(e),
            Err(e) if is_timeout(&e) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Read one frame from a blocking stream.
///
/// Returns `Ok(None)` on clean EOF (connection closed between frames);
/// EOF mid-frame and protocol violations surface as `InvalidData` errors.
/// A read timeout before the frame's first byte propagates as-is (check
/// with [`is_timeout`]); a timeout mid-frame keeps waiting.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Payload>> {
    let mut len_buf = [0u8; 4];
    // Distinguish "closed between frames" from "closed mid-prefix".
    let filled = read_full(r, &mut len_buf, true)?;
    if filled == 0 {
        return Ok(None);
    }
    if filled < 4 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Incomplete.to_string(),
        ));
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::TooLarge(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    if read_full(r, &mut payload, false)? < len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Incomplete.to_string(),
        ));
    }
    let payload = classify(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(s: &str) -> Payload {
        Payload::Json(s.to_string())
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = encode_frame("{\"Stats\":null}");
        let (payload, used) = decode_frame(&frame).unwrap();
        assert_eq!(payload, json("{\"Stats\":null}"));
        assert_eq!(used, frame.len());
    }

    #[test]
    fn empty_payload_is_valid() {
        let frame = encode_frame("");
        let (payload, used) = decode_frame(&frame).unwrap();
        assert_eq!(payload, json(""));
        assert_eq!(used, 4);
    }

    #[test]
    fn bin_payload_round_trips() {
        let body = vec![BIN1_MAGIC, 0x01, 0x00, 0x00, 0x00, 0x00];
        let frame = encode_payload(&Payload::Bin(body.clone()));
        let (payload, used) = decode_frame(&frame).unwrap();
        assert_eq!(payload, Payload::Bin(body));
        assert_eq!(used, frame.len());
        assert!(payload.is_bin());
    }

    #[test]
    fn truncated_inputs_are_incomplete() {
        let frame = encode_frame("hello");
        for cut in 0..frame.len() {
            assert_eq!(
                decode_frame(&frame[..cut]).unwrap_err(),
                FrameError::Incomplete,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(b"junk");
        assert!(matches!(
            decode_frame(&frame).unwrap_err(),
            FrameError::TooLarge(_)
        ));
    }

    #[test]
    fn non_utf8_payload_without_magic_is_malformed() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&2u32.to_le_bytes());
        frame.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            decode_frame(&frame).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn magic_first_byte_classifies_as_bin_even_with_garbage_tail() {
        // Framing accepts any BIN1-tagged bytes; op-level validation
        // (and rejection) happens in `bin1::decode_*`, not here.
        let mut frame = Vec::new();
        frame.extend_from_slice(&3u32.to_le_bytes());
        frame.extend_from_slice(&[BIN1_MAGIC, 0xff, 0xfe]);
        let (payload, _) = decode_frame(&frame).unwrap();
        assert_eq!(payload, Payload::Bin(vec![BIN1_MAGIC, 0xff, 0xfe]));
    }

    #[test]
    fn stream_round_trip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "one").unwrap();
        write_payload(&mut buf, &Payload::Bin(vec![BIN1_MAGIC, 0x03])).unwrap();
        write_frame(&mut buf, "two").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(json("one")));
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some(Payload::Bin(vec![BIN1_MAGIC, 0x03]))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(json("two")));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn write_payload_rejects_bin_without_magic() {
        let mut buf = Vec::new();
        let err = write_payload(&mut buf, &Payload::Bin(vec![0x00])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing written on rejection");
    }

    #[test]
    fn assembler_handles_byte_at_a_time_delivery() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame("first"));
        bytes.extend_from_slice(&encode_frame(""));
        bytes.extend_from_slice(&encode_payload(&Payload::Bin(vec![BIN1_MAGIC, 0x02])));
        bytes.extend_from_slice(&encode_frame("third"));
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        for b in &bytes {
            asm.extend(std::slice::from_ref(b));
            while let Some(p) = asm.next_frame().unwrap() {
                out.push(p);
            }
        }
        assert_eq!(
            out,
            vec![
                json("first"),
                json(""),
                Payload::Bin(vec![BIN1_MAGIC, 0x02]),
                json("third")
            ]
        );
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn fill_from_assembles_across_dribbled_reads() {
        // A reader that yields at most 3 bytes per call: frames straddle
        // reads every way, and the result must match the extend path.
        struct Dribble<R>(R);
        impl<R: Read> Read for Dribble<R> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                // PANIC-OK: `n <= buf.len()` by construction.
                self.0.read(&mut buf[..n])
            }
        }

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame("alpha"));
        bytes.extend_from_slice(&encode_frame(""));
        bytes.extend_from_slice(&encode_frame("gamma"));
        let mut reader = Dribble(std::io::Cursor::new(bytes));
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        while asm.fill_from(&mut reader).unwrap() > 0 {
            while let Some(p) = asm.next_frame().unwrap() {
                out.push(p);
            }
        }
        assert_eq!(out, vec![json("alpha"), json(""), json("gamma")]);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn fill_from_read_error_preserves_buffered_bytes() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::WouldBlock))
            }
        }
        let mut asm = FrameAssembler::new();
        asm.extend(&encode_frame("kept")[..6]); // partial frame buffered
        let pending = asm.pending();
        let err = asm.fill_from(&mut Failing).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(asm.pending(), pending, "no phantom bytes on error");
    }

    #[test]
    fn fill_from_reuses_its_room_across_many_small_reads() {
        // Frames of 1 to 300 bytes of payload, delivered 1 to 7 bytes per
        // read: the buffer never grows past one read's room plus the
        // largest frame, and `pending` is exact after every step.
        struct Pieces {
            bytes: Vec<u8>,
            at: usize,
            step: usize,
        }
        impl Read for Pieces {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.step += 1;
                let n = (self.step % 7 + 1)
                    .min(buf.len())
                    .min(self.bytes.len() - self.at);
                buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            }
        }

        let mut bytes = Vec::new();
        let mut largest = 0;
        let mut sent = Vec::new();
        for i in 0..400usize {
            let body = "x".repeat(1 + i * 37 % 300);
            let frame = encode_frame(&body);
            largest = largest.max(frame.len());
            bytes.extend_from_slice(&frame);
            sent.push(json(&body));
        }
        let total = bytes.len();
        let mut reader = Pieces {
            bytes,
            at: 0,
            step: 0,
        };
        let mut asm = FrameAssembler::new();
        let (mut got, mut decoded_bytes, mut calls) = (Vec::new(), 0, 0);
        while reader.at < total {
            let n = asm.fill_from(&mut reader).unwrap();
            calls += 1;
            assert!(n < READ_CHUNK, "every read here is short");
            assert_eq!(asm.pending(), reader.at - decoded_bytes);
            while let Some(p) = asm.next_frame().unwrap() {
                decoded_bytes += 4 + p.len();
                got.push(p);
                assert_eq!(asm.pending(), reader.at - decoded_bytes);
            }
            assert!(
                asm.buf.len() <= READ_CHUNK + largest,
                "buffer grew to {} after {calls} reads",
                asm.buf.len()
            );
        }
        assert!(calls >= 10_000, "only {calls} reads");
        assert_eq!(got, sent);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assembler_rejects_oversized_and_non_utf8() {
        let mut asm = FrameAssembler::new();
        asm.extend(&u32::MAX.to_le_bytes());
        assert!(matches!(asm.next_frame(), Err(FrameError::TooLarge(_))));

        let mut asm = FrameAssembler::new();
        asm.extend(&2u32.to_le_bytes());
        asm.extend(&[0xff, 0xfe]);
        assert!(matches!(asm.next_frame(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn stream_eof_mid_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
