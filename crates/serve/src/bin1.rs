//! BIN1: the one encoding of the bulk frames, and the rule that picks
//! each op's encoding.
//!
//! In protocol v5 the op decides its encoding, and this module is where
//! that decision lives ([`request_payload`], [`response_payload`],
//! [`binary_only`]). The bulk ops — `INGEST`/`IngestAck`/`Overloaded`,
//! `REPL_BATCH`/`REPL_ACK`, and `SNAPSHOT_PAGE` with its response —
//! travel only as BIN1, where keys are fixed-width little-endian `u64`
//! runs instead of per-key decimal text. Every other op, and every
//! `Error`, travels only as JSON (see [`crate::protocol`]). No HELLO
//! feature negotiates this: a peer that speaks v5 speaks both.
//!
//! Payload layout (after the 4-byte frame length prefix):
//!
//! ```text
//! magic   1 byte   0xB1 ([`crate::frame::BIN1_MAGIC`])
//! tag     1 byte   operation tag (`TAG_*` below)
//! body    ...      fixed little-endian fields, tag-specific
//! ```
//!
//! Bodies (all integers little-endian; `count`-prefixed runs must
//! consume the rest of the payload exactly):
//!
//! ```text
//! INGEST             count u32, keys u64 × count
//! INGEST_ACK         enqueued u64
//! OVERLOADED         (empty)
//! REPL_BATCH         lineage u64, nbatches u32,
//!                    then per batch: seq u64, nkeys u32, keys u64 × nkeys
//! REPL_ACK           ack_seq u64
//! PAGE_REQ           since_epoch u64, offset u64, limit u64
//! PAGE_RESP          flags u8 (bit0 done, bit1 unchanged, bit2 rotations
//!                    present), offset u64, total_entries u64, total u64,
//!                    epoch u64, captured_total u64, staleness u64,
//!                    [rotations u64 iff flags bit2], nentries u32,
//!                    then per entry: item u64, count u64, error u64
//! ```
//!
//! Decoding is **total** and cap-checked: counts are validated against
//! the bytes actually present (and [`MAX_FRAME`]) before any
//! allocation, so a hostile count can neither panic nor amplify memory.
//! Trailing bytes after a complete body are rejected — one payload is
//! exactly one message.
//!
//! AUDIT: total — every byte here is attacker-controlled; enforced by
//! `cargo xtask audit` (lint-totality).

use crate::frame::{Payload, BIN1_MAGIC, MAX_FRAME};
use crate::protocol::{encode, encode_within, QueryStamp, ReplFrame, Request, Response};
use cots_core::CounterEntry;

/// Operation tag: `Request::Ingest`.
pub const TAG_INGEST: u8 = 0x01;
/// Operation tag: `Response::IngestAck`.
pub const TAG_INGEST_ACK: u8 = 0x02;
/// Operation tag: `Response::Overloaded`.
pub const TAG_OVERLOADED: u8 = 0x03;
/// Operation tag: `Request::ReplBatch`.
pub const TAG_REPL_BATCH: u8 = 0x04;
/// Operation tag: `Response::ReplAck`.
pub const TAG_REPL_ACK: u8 = 0x05;
/// Operation tag: `Request::SnapshotPage`.
pub const TAG_PAGE_REQ: u8 = 0x06;
/// Operation tag: `Response::SnapshotPage`.
pub const TAG_PAGE_RESP: u8 = 0x07;

/// The largest `PAGE_RESP` before its entries: magic, tag, flags, six
/// `u64` fields, `rotations` and the `u32` entry count.
pub const PAGE_RESP_HEADER: usize = 3 + 7 * 8 + 4;
/// Bytes per `PAGE_RESP` entry: `item`, `count` and `error` as `u64`.
pub const PAGE_ENTRY_BYTES: usize = 3 * 8;

/// Why a BIN1 payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bin1Error {
    /// The payload ends before its announced body does.
    Truncated,
    /// The first byte is not [`BIN1_MAGIC`].
    BadMagic,
    /// The operation tag is unknown, or known but not valid in this
    /// position (a response tag in a request, or vice versa).
    BadTag(u8),
    /// The body violates the layout (bad count, trailing bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for Bin1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bin1Error::Truncated => write!(f, "BIN1 payload truncated"),
            Bin1Error::BadMagic => write!(f, "BIN1 magic byte missing"),
            Bin1Error::BadTag(t) => write!(f, "BIN1 tag {t:#04x} not valid here"),
            Bin1Error::Malformed(m) => write!(f, "malformed BIN1 payload: {m}"),
        }
    }
}

impl std::error::Error for Bin1Error {}

/// Sequential little-endian reader over one payload. All accessors are
/// total: running past the end yields [`Bin1Error::Truncated`].
struct Cur<'a> {
    // PANIC-OK: `&'a [u8]` is a type position, not indexing — the
    // lifetime's trailing letter trips the lexical heuristic.
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    // PANIC-OK: type position again (see the field above).
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, off: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.off)
    }

    fn u8(&mut self) -> Result<u8, Bin1Error> {
        let b = *self.buf.get(self.off).ok_or(Bin1Error::Truncated)?;
        self.off += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, Bin1Error> {
        let end = self.off.checked_add(4).ok_or(Bin1Error::Truncated)?;
        let bytes = self.buf.get(self.off..end).ok_or(Bin1Error::Truncated)?;
        self.off = end;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap_or([0; 4])))
    }

    fn u64(&mut self) -> Result<u64, Bin1Error> {
        let end = self.off.checked_add(8).ok_or(Bin1Error::Truncated)?;
        let bytes = self.buf.get(self.off..end).ok_or(Bin1Error::Truncated)?;
        self.off = end;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap_or([0; 8])))
    }

    /// A `u64` that must fit a `usize` (offsets and limits).
    fn u64_usize(&mut self) -> Result<usize, Bin1Error> {
        usize::try_from(self.u64()?).map_err(|_| Bin1Error::Malformed("value exceeds usize"))
    }

    /// Read `count` little-endian `u64` keys. The count is validated
    /// against the bytes actually remaining before allocating.
    fn keys(&mut self, count: usize) -> Result<Vec<u64>, Bin1Error> {
        let bytes = count
            .checked_mul(8)
            .ok_or(Bin1Error::Malformed("key count overflow"))?;
        if bytes > MAX_FRAME {
            return Err(Bin1Error::Malformed("key run exceeds frame cap"));
        }
        let end = self.off.checked_add(bytes).ok_or(Bin1Error::Truncated)?;
        let run = self.buf.get(self.off..end).ok_or(Bin1Error::Truncated)?;
        self.off = end;
        Ok(run
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8])))
            .collect())
    }

    /// One payload is exactly one message: trailing bytes are an error.
    fn done(&self) -> Result<(), Bin1Error> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Bin1Error::Malformed("trailing bytes after body"))
        }
    }
}

/// Consume the magic + tag header, returning the tag.
fn header(cur: &mut Cur<'_>) -> Result<u8, Bin1Error> {
    if cur.u8()? != BIN1_MAGIC {
        return Err(Bin1Error::BadMagic);
    }
    cur.u8()
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode an `INGEST` request: the hot-path encoder, one `memcpy`-like
/// pass over the keys with no per-key formatting.
pub fn encode_ingest(keys: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + keys.len() * 8);
    out.push(BIN1_MAGIC);
    out.push(TAG_INGEST);
    push_u32(&mut out, keys.len() as u32);
    for k in keys {
        push_u64(&mut out, *k);
    }
    out
}

/// Encode an `IngestAck` response.
pub fn encode_ingest_ack(enqueued: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    out.push(BIN1_MAGIC);
    out.push(TAG_INGEST_ACK);
    push_u64(&mut out, enqueued);
    out
}

/// Encode an `Overloaded` response.
pub fn encode_overloaded() -> Vec<u8> {
    vec![BIN1_MAGIC, TAG_OVERLOADED]
}

/// Encode a `REPL_BATCH` request from protocol frames.
pub fn encode_repl_batch(lineage: u64, batches: &[ReplFrame]) -> Vec<u8> {
    let runs: Vec<(u64, &[u64])> = batches.iter().map(|b| (b.seq, b.keys.as_slice())).collect();
    encode_repl_batch_runs(lineage, &runs)
}

/// Encode a `REPL_BATCH` request straight from `(seq, keys)` runs —
/// the shipper's path, no intermediate [`ReplFrame`] clones needed.
pub fn encode_repl_batch_runs(lineage: u64, batches: &[(u64, &[u64])]) -> Vec<u8> {
    let keys: usize = batches.iter().map(|(_, k)| k.len()).sum();
    let mut out = Vec::with_capacity(14 + batches.len() * 12 + keys * 8);
    out.push(BIN1_MAGIC);
    out.push(TAG_REPL_BATCH);
    push_u64(&mut out, lineage);
    push_u32(&mut out, batches.len() as u32);
    for (seq, run) in batches {
        push_u64(&mut out, *seq);
        push_u32(&mut out, run.len() as u32);
        for k in *run {
            push_u64(&mut out, *k);
        }
    }
    out
}

/// Encode a `REPL_ACK` response.
pub fn encode_repl_ack(ack_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    out.push(BIN1_MAGIC);
    out.push(TAG_REPL_ACK);
    push_u64(&mut out, ack_seq);
    out
}

/// Encode a `SNAPSHOT_PAGE` request.
pub fn encode_page_req(since_epoch: u64, offset: usize, limit: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(26);
    out.push(BIN1_MAGIC);
    out.push(TAG_PAGE_REQ);
    push_u64(&mut out, since_epoch);
    push_u64(&mut out, offset as u64);
    push_u64(&mut out, limit as u64);
    out
}

/// Encode a `SNAPSHOT_PAGE` response: entries travel as bare
/// `(item, count, error)` `u64` triples.
#[allow(clippy::too_many_arguments)]
pub fn encode_page_resp(
    entries: &[CounterEntry<u64>],
    offset: usize,
    total_entries: usize,
    total: u64,
    done: bool,
    unchanged: bool,
    stamp: QueryStamp,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAGE_RESP_HEADER + entries.len() * PAGE_ENTRY_BYTES);
    out.push(BIN1_MAGIC);
    out.push(TAG_PAGE_RESP);
    let mut flags = 0u8;
    if done {
        flags |= 1;
    }
    if unchanged {
        flags |= 2;
    }
    if stamp.rotations.is_some() {
        flags |= 4;
    }
    out.push(flags);
    push_u64(&mut out, offset as u64);
    push_u64(&mut out, total_entries as u64);
    push_u64(&mut out, total);
    push_u64(&mut out, stamp.epoch);
    push_u64(&mut out, stamp.captured_total);
    push_u64(&mut out, stamp.staleness);
    if let Some(r) = stamp.rotations {
        push_u64(&mut out, r);
    }
    push_u32(&mut out, entries.len() as u32);
    for e in entries {
        push_u64(&mut out, e.item);
        push_u64(&mut out, e.count);
        push_u64(&mut out, e.error);
    }
    out
}

/// Encode a request as BIN1, if it is a bulk op. Control and query
/// operations return `None` (JSON is their only encoding).
pub fn encode_request(req: &Request) -> Option<Vec<u8>> {
    match req {
        Request::Ingest { keys } => Some(encode_ingest(keys)),
        Request::ReplBatch { lineage, batches } => Some(encode_repl_batch(*lineage, batches)),
        Request::SnapshotPage {
            since_epoch,
            offset,
            limit,
        } => Some(encode_page_req(*since_epoch, *offset, *limit)),
        _ => None,
    }
}

/// Encode a response as BIN1, if it answers a bulk op.
pub fn encode_response(resp: &Response) -> Option<Vec<u8>> {
    match resp {
        Response::IngestAck { enqueued } => Some(encode_ingest_ack(*enqueued)),
        Response::Overloaded => Some(encode_overloaded()),
        Response::ReplAck { ack_seq } => Some(encode_repl_ack(*ack_seq)),
        Response::SnapshotPage {
            entries,
            offset,
            total_entries,
            total,
            done,
            unchanged,
            stamp,
        } => Some(encode_page_resp(
            entries,
            *offset,
            *total_entries,
            *total,
            *done,
            *unchanged,
            *stamp,
        )),
        _ => None,
    }
}

/// A request in its one wire form: BIN1 for a bulk op, JSON otherwise.
pub fn request_payload(req: &Request) -> Payload {
    match encode_request(req) {
        Some(bytes) => Payload::Bin(bytes),
        None => Payload::Json(encode(req)),
    }
}

/// A response in its one wire form: BIN1 for a bulk answer, JSON
/// otherwise (`Error` included). `Err` if the payload would pass `cap`
/// bytes, with the length written when the JSON writer stopped (see
/// [`encode_within`]).
pub fn response_payload(resp: &Response, cap: usize) -> Result<Payload, usize> {
    match encode_response(resp) {
        Some(bytes) if bytes.len() > cap => Err(bytes.len()),
        Some(bytes) => Ok(Payload::Bin(bytes)),
        None => encode_within(resp, cap).map(Payload::Json),
    }
}

/// The wire name of a bulk request, which travels only as BIN1; `None`
/// for an op whose one form is JSON. A JSON frame naming a bulk op is
/// refused with this name.
pub fn binary_only(req: &Request) -> Option<&'static str> {
    match req {
        Request::Ingest { .. } => Some("INGEST"),
        Request::ReplBatch { .. } => Some("REPL_BATCH"),
        Request::SnapshotPage { .. } => Some("SNAPSHOT_PAGE"),
        _ => None,
    }
}

/// Decode a BIN1 request payload. Total: any byte sequence either
/// decodes or reports a [`Bin1Error`], never a panic.
pub fn decode_request(buf: &[u8]) -> Result<Request, Bin1Error> {
    let mut cur = Cur::new(buf);
    match header(&mut cur)? {
        TAG_INGEST => {
            let count = cur.u32()? as usize;
            let keys = cur.keys(count)?;
            cur.done()?;
            Ok(Request::Ingest { keys })
        }
        TAG_REPL_BATCH => {
            let lineage = cur.u64()?;
            let nbatches = cur.u32()? as usize;
            // Each batch needs ≥ 12 bytes: bound the count by the bytes
            // actually present before allocating.
            if nbatches > cur.remaining() / 12 {
                return Err(Bin1Error::Malformed("batch count exceeds payload"));
            }
            let mut batches = Vec::with_capacity(nbatches);
            for _ in 0..nbatches {
                let seq = cur.u64()?;
                let nkeys = cur.u32()? as usize;
                let keys = cur.keys(nkeys)?;
                batches.push(ReplFrame { seq, keys });
            }
            cur.done()?;
            Ok(Request::ReplBatch { lineage, batches })
        }
        TAG_PAGE_REQ => {
            let since_epoch = cur.u64()?;
            let offset = cur.u64_usize()?;
            let limit = cur.u64_usize()?;
            cur.done()?;
            Ok(Request::SnapshotPage {
                since_epoch,
                offset,
                limit,
            })
        }
        t => Err(Bin1Error::BadTag(t)),
    }
}

/// Decode a BIN1 response payload. Total; see [`decode_request`].
pub fn decode_response(buf: &[u8]) -> Result<Response, Bin1Error> {
    let mut cur = Cur::new(buf);
    match header(&mut cur)? {
        TAG_INGEST_ACK => {
            let enqueued = cur.u64()?;
            cur.done()?;
            Ok(Response::IngestAck { enqueued })
        }
        TAG_OVERLOADED => {
            cur.done()?;
            Ok(Response::Overloaded)
        }
        TAG_REPL_ACK => {
            let ack_seq = cur.u64()?;
            cur.done()?;
            Ok(Response::ReplAck { ack_seq })
        }
        TAG_PAGE_RESP => {
            let flags = cur.u8()?;
            if flags & !0b111 != 0 {
                return Err(Bin1Error::Malformed("unknown page flags"));
            }
            let offset = cur.u64_usize()?;
            let total_entries = cur.u64_usize()?;
            let total = cur.u64()?;
            let epoch = cur.u64()?;
            let captured_total = cur.u64()?;
            let staleness = cur.u64()?;
            let rotations = if flags & 4 != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            let nentries = cur.u32()? as usize;
            let need = nentries
                .checked_mul(PAGE_ENTRY_BYTES)
                .ok_or(Bin1Error::Malformed("entry count overflow"))?;
            if need != cur.remaining() {
                return Err(Bin1Error::Malformed("entry run length mismatch"));
            }
            let mut entries = Vec::with_capacity(nentries);
            for _ in 0..nentries {
                let item = cur.u64()?;
                let count = cur.u64()?;
                let error = cur.u64()?;
                // Struct literal, not `CounterEntry::new`: its
                // `error <= count` debug assertion must not be reachable
                // from wire bytes (the JSON decoder is literal too).
                entries.push(CounterEntry { item, count, error });
            }
            cur.done()?;
            Ok(Response::SnapshotPage {
                entries,
                offset,
                total_entries,
                total,
                done: flags & 1 != 0,
                unchanged: flags & 2 != 0,
                stamp: QueryStamp {
                    epoch,
                    captured_total,
                    staleness,
                    rotations,
                },
            })
        }
        t => Err(Bin1Error::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp() -> QueryStamp {
        QueryStamp {
            epoch: 9,
            captured_total: 1_000,
            staleness: 17,
            rotations: Some(3),
        }
    }

    #[test]
    fn ingest_round_trips() {
        for keys in [vec![], vec![42], vec![0, 1, u64::MAX, 7]] {
            let req = Request::Ingest { keys };
            let bytes = encode_request(&req).unwrap();
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn repl_batch_round_trips() {
        let req = Request::ReplBatch {
            lineage: 5,
            batches: vec![
                ReplFrame {
                    seq: 10,
                    keys: vec![1, 2, 3],
                },
                ReplFrame {
                    seq: 11,
                    keys: vec![],
                },
                ReplFrame {
                    seq: 12,
                    keys: vec![u64::MAX],
                },
            ],
        };
        let bytes = encode_request(&req).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), req);
        // The zero-copy run encoder produces identical bytes.
        let runs: Vec<(u64, &[u64])> = match &req {
            Request::ReplBatch { batches, .. } => {
                batches.iter().map(|b| (b.seq, b.keys.as_slice())).collect()
            }
            _ => unreachable!(),
        };
        assert_eq!(encode_repl_batch_runs(5, &runs), bytes);
    }

    #[test]
    fn a_full_page_is_derived_from_the_frame_cap() {
        use crate::protocol::MAX_PAGE_ENTRIES;
        // The header constant is the encoder's largest header.
        let header = encode_page_resp(&[], 0, 0, 0, true, false, stamp());
        assert_eq!(header.len(), PAGE_RESP_HEADER);
        // (16 MiB − 63) / 24: a full page fills the frame to within one
        // entry.
        assert_eq!(MAX_PAGE_ENTRIES, 699_048);
        let full = PAGE_RESP_HEADER + MAX_PAGE_ENTRIES * PAGE_ENTRY_BYTES;
        assert!(full <= MAX_FRAME && full + PAGE_ENTRY_BYTES > MAX_FRAME);
    }

    #[test]
    fn page_round_trips() {
        let req = Request::SnapshotPage {
            since_epoch: 4,
            offset: 128,
            limit: 1_024,
        };
        let bytes = encode_request(&req).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), req);

        for rotations in [None, Some(6)] {
            let resp = Response::SnapshotPage {
                entries: vec![
                    CounterEntry::new(1u64, 100, 3),
                    CounterEntry::new(u64::MAX, 50, 0),
                ],
                offset: 128,
                total_entries: 130,
                total: 5_000,
                done: true,
                unchanged: false,
                stamp: QueryStamp {
                    rotations,
                    ..stamp()
                },
            };
            let bytes = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn acks_round_trip() {
        for resp in [
            Response::IngestAck { enqueued: 4096 },
            Response::Overloaded,
            Response::ReplAck { ack_seq: u64::MAX },
        ] {
            let bytes = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn json_only_ops_have_no_binary_form() {
        assert!(encode_request(&Request::Stats).is_none());
        assert!(encode_request(&Request::Shutdown).is_none());
        assert!(encode_response(&Response::ShuttingDown).is_none());
        assert!(encode_response(&Response::Error {
            message: "no".into()
        })
        .is_none());
    }

    #[test]
    fn the_op_picks_its_one_encoding() {
        let ingest = Request::Ingest { keys: vec![1] };
        assert!(request_payload(&ingest).is_bin());
        assert_eq!(binary_only(&ingest), Some("INGEST"));
        assert!(!request_payload(&Request::Stats).is_bin());
        assert_eq!(binary_only(&Request::Stats), None);
        // REPL_ACK is BIN1 whatever it answers, REPL_SUBSCRIBE included.
        let payload = |r| response_payload(r, MAX_FRAME).unwrap();
        assert!(payload(&Response::ReplAck { ack_seq: 1 }).is_bin());
        assert!(!payload(&Response::ShuttingDown).is_bin());
        // Every op with a BIN1 encoder is refused as JSON, and no other.
        for req in [
            ingest,
            Request::ReplBatch {
                lineage: 0,
                batches: vec![],
            },
            Request::SnapshotPage {
                since_epoch: 0,
                offset: 0,
                limit: 1,
            },
            Request::Stats,
            Request::ReplPromote,
        ] {
            assert_eq!(binary_only(&req).is_some(), encode_request(&req).is_some());
        }
    }

    #[test]
    fn truncations_never_panic() {
        let bytes = encode_ingest(&[1, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let bytes = encode_repl_batch(
            7,
            &[ReplFrame {
                seq: 1,
                keys: vec![9, 8],
            }],
        );
        for cut in 0..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocating() {
        // An INGEST claiming u32::MAX keys with a 2-byte body.
        let mut bytes = vec![BIN1_MAGIC, TAG_INGEST];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        assert!(decode_request(&bytes).is_err());

        // A REPL_BATCH claiming u32::MAX batches.
        let mut bytes = vec![BIN1_MAGIC, TAG_REPL_BATCH];
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bytes).is_err());

        // A page response claiming more entries than bytes.
        let mut bytes = encode_page_resp(&[], 0, 0, 0, true, false, QueryStamp::default());
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_ingest(&[1]);
        bytes.push(0);
        assert_eq!(
            decode_request(&bytes),
            Err(Bin1Error::Malformed("trailing bytes after body"))
        );
    }

    #[test]
    fn wrong_position_tags_are_rejected() {
        let ack = encode_ingest_ack(1);
        assert_eq!(decode_request(&ack), Err(Bin1Error::BadTag(TAG_INGEST_ACK)));
        let ingest = encode_ingest(&[1]);
        assert_eq!(decode_response(&ingest), Err(Bin1Error::BadTag(TAG_INGEST)));
    }

    #[test]
    fn bad_magic_and_empty_are_rejected() {
        assert_eq!(decode_request(&[]), Err(Bin1Error::Truncated));
        assert_eq!(
            decode_request(&[0x00, TAG_INGEST]),
            Err(Bin1Error::BadMagic)
        );
        assert_eq!(decode_request(&[BIN1_MAGIC]), Err(Bin1Error::Truncated));
    }
}
