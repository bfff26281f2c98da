//! The request/response vocabulary of the wire protocol.
//!
//! Payloads are externally-tagged JSON, following the convention of
//! `cots_core::json`: a unit variant serializes as its bare name
//! (`"Stats"`), a data variant as a one-entry object
//! (`{"Ingest": {"keys": [1, 2]}}`). Every query answer carries a
//! [`QueryStamp`] so the client knows which published snapshot epoch it
//! was served from and how many items the backend had applied beyond it.
//!
//! AUDIT: total — decode runs on attacker-controlled payloads; enforced
//! by `cargo xtask audit` (lint-totality).

use cots_core::json::{FromJson, ToJson};
use cots_core::json_record;
use cots_core::{ClusterReport, CotsError, CounterEntry, ServiceReport, Snapshot, Threshold};

use crate::bin1;
use crate::frame::MAX_FRAME;

/// The protocol version this build speaks. Version 5 adds no
/// operations and drops the one-shot `SNAPSHOT`: each op has one
/// encoding, BIN1 for the bulk ops and JSON for the rest, with no HELLO
/// feature to negotiate (see [`crate::bin1`]). Version 4 introduced BIN1
/// behind a HELLO feature flag; version 3 the replication operations
/// (`REPL_SUBSCRIBE`, `REPL_BATCH`, `REPL_SNAPSHOT`, `REPL_PROMOTE`);
/// version 2 the mandatory `HELLO` handshake plus the `SNAPSHOT_PAGE`
/// and `CLUSTER_STATS` operations; see the version-compatibility table
/// in `docs/PROTOCOL.md` (machine-checked by `cargo xtask lint-protocol`).
pub const PROTO_VERSION: u32 = 5;

/// The oldest peer version this build still accepts in `HELLO`: the
/// current one. Versions 2 to 4 are answered `UNSUPPORTED_VERSION` like
/// any other mismatch (no in-repo client sends them once v5 ships);
/// version 1 had no handshake at all, so a v1 client's first frame is an
/// operation, which gets the same answer with `requested = 0`.
pub const MIN_PROTO_VERSION: u32 = PROTO_VERSION;

/// Server-side clamp on entries per `SNAPSHOT_PAGE` response: the most
/// a BIN1 `PAGE_RESP` (its largest header, then 24 bytes per entry)
/// fits in one [`MAX_FRAME`], whatever `limit` the client asks for.
pub const MAX_PAGE_ENTRIES: usize = (MAX_FRAME - bin1::PAGE_RESP_HEADER) / bin1::PAGE_ENTRY_BYTES;

json_record! {
    /// A query against the live summary.
    #[derive(Debug, Clone, PartialEq)]
    pub enum QueryReq {
        /// Estimated frequency of one key.
        Point {
            /// The key to look up.
            key: u64,
        },
        /// All keys with estimated frequency ≥ `phi` × total (Query 1/3 of
        /// the paper, as a set).
        Frequent {
            /// Support fraction in (0, 1).
            phi: f64,
        },
        /// The `k` heaviest keys.
        TopK {
            /// How many entries to return.
            k: usize,
        },
    }
}

json_record! {
    /// One client→server message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Mandatory first exchange on every connection: the client
        /// announces its protocol version and optional feature flags.
        /// Any other first request is answered with
        /// [`Response::UnsupportedVersion`] and the connection closes.
        Hello {
            /// Protocol version the client speaks (see [`PROTO_VERSION`]).
            proto_version: u32,
            /// Free-form feature flags the client understands.
            features: Vec<String>,
        },
        /// Feed a batch of keys into the stream.
        Ingest {
            /// The keys, in stream order.
            keys: Vec<u64>,
        },
        /// Ask a question of the published snapshot.
        Query(QueryReq),
        /// Service statistics (ingest/query counters, staleness, shards).
        Stats,
        /// One page of the published snapshot (delta-aware streaming
        /// transfer: large summaries never approach the 16 MiB frame cap).
        /// `offset == 0` pins the current snapshot to the connection and
        /// compares its epoch against `since_epoch` (an `unchanged` page
        /// short-circuits the transfer); later offsets page through the
        /// pinned snapshot, so a multi-frame transfer is internally
        /// consistent even while new snapshots publish.
        SnapshotPage {
            /// Epoch the requester already holds (0 = none).
            since_epoch: u64,
            /// Entry offset into the snapshot's sorted entry list.
            offset: usize,
            /// Maximum entries wanted (server clamps to
            /// [`MAX_PAGE_ENTRIES`]).
            limit: usize,
        },
        /// Cluster-wide statistics (answered by `cots-coord`; members
        /// answer with an error pointing at the coordinator).
        ClusterStats,
        /// Force an immediate durable checkpoint (requires `--data-dir`).
        Checkpoint,
        /// Begin graceful shutdown: stop accepting, drain queues, exit.
        Shutdown,
        /// Open a replication stream: a primary's WAL shipper announces its
        /// replication lineage, its own next WAL sequence, and the oldest
        /// sequence it can still serve from its log. A standby answers with
        /// [`Response::ReplAck`] naming the next sequence it expects, which
        /// is where the shipper starts (or restarts) the stream. The standby
        /// refuses (with an error) a primary whose lineage is behind its
        /// own, a divergent-lineage primary when the standby already holds
        /// state, or an equal-lineage primary whose `next_seq` is behind the
        /// standby's watermark — all three mean the histories have diverged
        /// and acking would be silent data loss. Non-standby servers refuse
        /// with an error.
        ReplSubscribe {
            /// Oldest WAL sequence the shipper's log still holds.
            start_seq: u64,
            /// The primary's replication lineage (promotion generation,
            /// bumped on every standby → primary promotion).
            lineage: u64,
            /// The primary's own next WAL sequence (its durable watermark).
            next_seq: u64,
        },
        /// A run of replicated WAL batches in sequence order. The standby
        /// logs each batch to its own WAL, applies it, and answers with a
        /// cumulative [`Response::ReplAck`]. Batches at already-applied
        /// sequences are acknowledged but not re-applied (duplicates);
        /// a gap re-acks the current watermark so the shipper rewinds.
        /// A `lineage` that does not match the standby's own is refused
        /// with an error — never acked — so a stale or divergent primary
        /// can't record unseen data as replicated.
        ReplBatch {
            /// The primary's replication lineage (must match the standby's).
            lineage: u64,
            /// The batches, oldest first.
            batches: Vec<ReplFrame>,
        },
        /// Catch-up transfer: a consistent snapshot of the primary's
        /// summary cut at `watermark`, installed by an *empty* standby in
        /// place of replaying the (already-pruned) WAL prefix. The standby
        /// persists it as its own checkpoint, seeds its summaries from it,
        /// adopts the primary's `lineage`, and acks `watermark`. A
        /// non-empty standby refuses
        /// (resync requires an explicit fresh data directory), as does any
        /// standby whose lineage is ahead of the primary's.
        ReplSnapshot {
            /// The primary's replication lineage, adopted on install.
            lineage: u64,
            /// WAL sequence the snapshot accounts for (exclusive upper
            /// bound: the stream resumes at `watermark`).
            watermark: u64,
            /// The primary's summary at the cut.
            snapshot: Snapshot<u64>,
        },
        /// Coordinator order: stop being a standby, accept ingest, and
        /// start publishing. Idempotent — promoting a primary is a no-op
        /// acknowledged with its current watermark.
        ReplPromote,
    }
}

json_record! {
    /// One replicated WAL batch on the wire: the primary's log sequence
    /// number and the keys the batch applied, in stream order. Mirrors
    /// `cots_persist::WalBatch` but lives in the protocol vocabulary so the
    /// wire format is self-contained.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ReplFrame {
        /// The primary's WAL sequence number for this batch.
        pub seq: u64,
        /// The keys the batch carries, in stream order.
        pub keys: Vec<u64>,
    }
}

json_record! {
    /// Provenance stamp on every answer: which snapshot it came from and how
    /// stale that snapshot was at answer time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct QueryStamp {
        /// Publisher epoch of the snapshot the answer was computed from.
        pub epoch: u64,
        /// Items applied when the snapshot was captured.
        pub captured_total: u64,
        /// Items applied after capture (staleness bound: the answer may miss
        /// at most this many most-recent items).
        pub staleness: u64,
        /// Always `None` from `cots-serve` and `cots-coord`: no server
        /// counts over a window. Kept so the stamp's bytes stay unchanged.
        pub rotations: Option<u64>,
    }
}

json_record! {
    /// One server→client message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// The handshake succeeded; the connection may proceed.
        HelloAck {
            /// Protocol version the server speaks.
            proto_version: u32,
            /// Feature flags the server supports.
            features: Vec<String>,
        },
        /// The handshake failed: the client's version is outside the
        /// server's supported range, or the first frame was not `HELLO` at
        /// all (`requested` is 0 in that case). The connection closes after
        /// this response.
        UnsupportedVersion {
            /// Newest protocol version the server speaks.
            supported: u32,
            /// Version the client announced (0 = no `HELLO` was sent).
            requested: u32,
        },
        /// The ingest batch was accepted into the shard queues (not yet
        /// necessarily applied; see `Stats` for applied counts).
        IngestAck {
            /// Keys enqueued.
            enqueued: u64,
        },
        /// The shard queues are full; the client should back off and resend.
        Overloaded,
        /// Entries answering a [`QueryReq`], heaviest first.
        Answer {
            /// Matching entries (singleton or empty for `Point`).
            entries: Vec<CounterEntry<u64>>,
            /// Stream total the answer was computed against.
            total: u64,
            /// Snapshot provenance.
            stamp: QueryStamp,
        },
        /// Service statistics.
        Stats(ServiceReport),
        /// One page of the pinned snapshot (see [`Request::SnapshotPage`]).
        SnapshotPage {
            /// Entries `offset..offset+len` of the sorted entry list
            /// (empty when `unchanged`).
            entries: Vec<CounterEntry<u64>>,
            /// Offset this page actually starts at.
            offset: usize,
            /// Total entries in the pinned snapshot.
            total_entries: usize,
            /// Total stream mass the pinned snapshot accounts for.
            total: u64,
            /// No entries remain after this page.
            done: bool,
            /// The requester's `since_epoch` is still current: the transfer
            /// is a no-op and no entries were shipped.
            unchanged: bool,
            /// Provenance of the pinned snapshot.
            stamp: QueryStamp,
        },
        /// Cluster-wide statistics from a coordinator.
        ClusterStats(ClusterReport),
        /// A durable checkpoint was committed.
        Checkpointed {
            /// WAL sequence watermark the checkpoint cuts at.
            watermark: u64,
            /// Total stream mass the checkpoint accounts for.
            total: u64,
            /// Size of the committed checkpoint file.
            bytes: u64,
        },
        /// Graceful shutdown has begun.
        ShuttingDown,
        /// Cumulative replication acknowledgement: everything below
        /// `ack_seq` is durable in the standby's own WAL. Answers
        /// `REPL_SUBSCRIBE`, `REPL_BATCH`, `REPL_SNAPSHOT`, and
        /// `REPL_PROMOTE`.
        ReplAck {
            /// Next WAL sequence the standby expects (= durable watermark).
            ack_seq: u64,
        },
        /// The request could not be served.
        Error {
            /// Human-readable reason.
            message: String,
        },
    }
}

/// The fewest bytes a JSON [`Response::Answer`] takes besides its
/// entries: zero `total` and stamp fields, `rotations` null.
const ANSWER_JSON_ENVELOPE: usize = 105;

/// The fewest bytes one entry adds to a JSON answer, its separating
/// comma included: `{"item":0,"count":0,"error":0},` is 31.
const ANSWER_JSON_ENTRY: usize = 31;

/// A lower bound on the JSON size of an answer holding `n` entries (the
/// last entry has no comma).
fn answer_json_floor(n: usize) -> usize {
    n.saturating_mul(ANSWER_JSON_ENTRY)
        .saturating_add(ANSWER_JSON_ENVELOPE)
        .saturating_sub(usize::from(n > 0))
}

/// The refusal of a response that does not fit one frame; `size` says
/// how large it would be.
pub(crate) fn over_the_cap(size: &str) -> Response {
    Response::Error {
        message: format!(
            "response would be {size}, over the {MAX_FRAME}-byte frame cap; ask for fewer \
             entries or page the summary with SNAPSHOT_PAGE"
        ),
    }
}

/// Answer one query from a published snapshot — the one answer shape of
/// every endpoint (a member's own summary, a coordinator's federated
/// one), so every client works unchanged against either.
///
/// The entries an answer would hold are counted first, on the sorted
/// snapshot and without copying any. When even their smallest JSON form
/// passes [`MAX_FRAME`] the query is refused before anything is copied
/// or formatted.
pub fn answer(snapshot: &Snapshot<u64>, q: QueryReq, stamp: QueryStamp) -> Response {
    let sorted = snapshot.entries();
    let n = match q {
        QueryReq::Point { key } => {
            return Response::Answer {
                entries: snapshot.get(&key).into_iter().copied().collect(),
                total: snapshot.total(),
                stamp,
            };
        }
        QueryReq::Frequent { phi } => {
            if !(phi > 0.0 && phi < 1.0) {
                return Response::Error {
                    message: format!("phi must be in (0, 1), got {phi}"),
                };
            }
            // Sorted by decreasing count: the answer is a prefix.
            let min = snapshot.resolve_threshold(Threshold::Fraction(phi));
            sorted.partition_point(|e| e.count >= min)
        }
        QueryReq::TopK { k } => k.min(sorted.len()),
    };
    let floor = answer_json_floor(n);
    if floor > MAX_FRAME {
        return over_the_cap(&format!("at least {floor} bytes ({n} entries)"));
    }
    Response::Answer {
        entries: sorted.get(..n).unwrap_or_default().to_vec(),
        total: snapshot.total(),
        stamp,
    }
}

/// Build the `SNAPSHOT_PAGE` response for one page of a pinned
/// snapshot. Pure slicing over the sorted entry list: the caller pins
/// the snapshot per connection (at `offset == 0`) and recomputes the
/// stamp; this function never allocates more than one clamped page.
pub fn snapshot_page_response(
    snapshot: &Snapshot<u64>,
    stamp: QueryStamp,
    since_epoch: u64,
    offset: usize,
    limit: usize,
) -> Response {
    let total_entries = snapshot.len();
    if offset == 0 && since_epoch != 0 && since_epoch == stamp.epoch {
        return Response::SnapshotPage {
            entries: Vec::new(),
            offset: 0,
            total_entries,
            total: snapshot.total(),
            done: true,
            unchanged: true,
            stamp,
        };
    }
    let limit = limit.clamp(1, MAX_PAGE_ENTRIES);
    let start = offset.min(total_entries);
    let end = start.saturating_add(limit).min(total_entries);
    let entries = snapshot.entries().get(start..end).unwrap_or(&[]).to_vec();
    Response::SnapshotPage {
        entries,
        offset: start,
        total_entries,
        total: snapshot.total(),
        done: end >= total_entries,
        unchanged: false,
        stamp,
    }
}

/// Encode a message for the wire.
pub fn encode<T: ToJson>(msg: &T) -> String {
    cots_core::json::to_string(msg)
}

/// [`encode`] a response unless its text passes `cap` bytes; then `Err`
/// with the length written so far. An [`Response::Answer`] is written
/// entry by entry and stops at the first entry past `cap`, so a refusal
/// formats at most `cap` bytes and one entry.
pub fn encode_within(resp: &Response, cap: usize) -> Result<String, usize> {
    let text = match resp {
        Response::Answer {
            entries,
            total,
            stamp,
        } => {
            // The bytes `encode` writes for this variant: fields in
            // declaration order (pinned by `tests/json_writer_props.rs`).
            let mut out = String::with_capacity(ANSWER_JSON_ENVELOPE + 48 * entries.len());
            out.push_str("{\"Answer\":{\"entries\":[");
            for (i, e) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                e.write_json(&mut out);
                if out.len() > cap {
                    return Err(out.len());
                }
            }
            out.push_str("],\"total\":");
            total.write_json(&mut out);
            out.push_str(",\"stamp\":");
            stamp.write_json(&mut out);
            out.push_str("}}");
            out
        }
        other => encode(other),
    };
    if text.len() > cap {
        return Err(text.len());
    }
    Ok(text)
}

/// Decode a message from a frame payload, mapping parse failures into
/// [`CotsError::Protocol`].
pub fn decode<T: FromJson>(payload: &str) -> Result<T, CotsError> {
    cots_core::json::from_str(payload).map_err(|e| CotsError::Protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(r: Request) {
        let back: Request = decode(&encode(&r)).unwrap();
        assert_eq!(back, r);
    }

    fn round_trip_response(r: Response) {
        let back: Response = decode(&encode(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello {
            proto_version: PROTO_VERSION,
            features: vec!["cluster".into()],
        });
        round_trip_request(Request::Hello {
            proto_version: 1,
            features: vec![],
        });
        round_trip_request(Request::Ingest {
            keys: vec![1, 2, 3, u64::MAX],
        });
        round_trip_request(Request::Ingest { keys: vec![] });
        round_trip_request(Request::Query(QueryReq::Point { key: 9 }));
        round_trip_request(Request::Query(QueryReq::Frequent { phi: 0.01 }));
        round_trip_request(Request::Query(QueryReq::TopK { k: 25 }));
        round_trip_request(Request::Stats);
        round_trip_request(Request::SnapshotPage {
            since_epoch: 41,
            offset: 65_536,
            limit: 4_096,
        });
        round_trip_request(Request::ClusterStats);
        round_trip_request(Request::Checkpoint);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::ReplSubscribe {
            start_seq: 17,
            lineage: 2,
            next_seq: 40,
        });
        round_trip_request(Request::ReplBatch {
            lineage: 2,
            batches: vec![
                ReplFrame {
                    seq: 17,
                    keys: vec![1, 2, u64::MAX],
                },
                ReplFrame {
                    seq: 18,
                    keys: vec![],
                },
            ],
        });
        round_trip_request(Request::ReplBatch {
            lineage: 0,
            batches: vec![],
        });
        round_trip_request(Request::ReplSnapshot {
            lineage: u64::MAX,
            watermark: 42,
            snapshot: Snapshot::new(vec![CounterEntry::new(7u64, 9, 2)], 11),
        });
        round_trip_request(Request::ReplPromote);
    }

    #[test]
    fn responses_round_trip() {
        let stamp = QueryStamp {
            epoch: 3,
            captured_total: 100,
            staleness: 7,
            rotations: Some(2),
        };
        round_trip_response(Response::HelloAck {
            proto_version: PROTO_VERSION,
            features: vec!["cluster".into()],
        });
        round_trip_response(Response::UnsupportedVersion {
            supported: PROTO_VERSION,
            requested: 0,
        });
        round_trip_response(Response::IngestAck { enqueued: 4096 });
        round_trip_response(Response::Overloaded);
        round_trip_response(Response::Answer {
            entries: vec![CounterEntry::new(5u64, 10, 1)],
            total: 100,
            stamp,
        });
        round_trip_response(Response::Stats(ServiceReport::default()));
        round_trip_response(Response::SnapshotPage {
            entries: vec![CounterEntry::new(5u64, 10, 1)],
            offset: 128,
            total_entries: 129,
            total: 500,
            done: true,
            unchanged: false,
            stamp,
        });
        round_trip_response(Response::ClusterStats(ClusterReport::default()));
        round_trip_response(Response::Checkpointed {
            watermark: 99,
            total: 1_000,
            bytes: 4_096,
        });
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::ReplAck { ack_seq: 99 });
        round_trip_response(Response::Error {
            message: "no".into(),
        });
    }

    fn page(resp: Response) -> (Vec<CounterEntry<u64>>, usize, usize, u64, bool, bool) {
        match resp {
            Response::SnapshotPage {
                entries,
                offset,
                total_entries,
                total,
                done,
                unchanged,
                ..
            } => (entries, offset, total_entries, total, done, unchanged),
            other => panic!("expected SnapshotPage, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_pages_cover_the_summary_exactly() {
        let entries: Vec<CounterEntry<u64>> = (0..10u64)
            .map(|i| CounterEntry::new(i, 100 - i, 1))
            .collect();
        let snap = Snapshot::new(entries.clone(), 955);
        let stamp = QueryStamp {
            epoch: 7,
            ..QueryStamp::default()
        };

        // Paging in chunks of 4 reassembles the exact entry list.
        let mut got = Vec::new();
        let mut offset = 0;
        loop {
            let (page_entries, off, total_entries, total, done, unchanged) =
                page(snapshot_page_response(&snap, stamp, 0, offset, 4));
            assert_eq!(off, offset);
            assert_eq!(total_entries, 10);
            assert_eq!(total, 955);
            assert!(!unchanged);
            got.extend(page_entries);
            offset = got.len();
            if done {
                break;
            }
        }
        assert_eq!(got, entries);

        // A requester already holding the current epoch short-circuits.
        let (e, _, _, _, done, unchanged) = page(snapshot_page_response(&snap, stamp, 7, 0, 4));
        assert!(unchanged && done && e.is_empty());
        // ...but only at offset 0 (mid-transfer pages always ship).
        let (e, _, _, _, _, unchanged) = page(snapshot_page_response(&snap, stamp, 7, 8, 4));
        assert!(!unchanged);
        assert_eq!(e.len(), 2);

        // Out-of-range offsets and degenerate limits are total.
        let (e, off, _, _, done, _) = page(snapshot_page_response(&snap, stamp, 0, 10_000, 0));
        assert!(e.is_empty() && done);
        assert_eq!(off, 10);
        let (e, _, _, _, _, _) = page(snapshot_page_response(&snap, stamp, 0, 0, usize::MAX));
        assert_eq!(e.len(), 10);
    }

    #[test]
    fn answers_have_one_shape_for_every_endpoint() {
        let s = Snapshot::new(
            vec![
                CounterEntry::new(7u64, 90, 0),
                CounterEntry::new(8u64, 10, 0),
            ],
            100,
        );
        let stamp = QueryStamp {
            epoch: 3,
            captured_total: 100,
            staleness: 2,
            rotations: None,
        };
        match answer(&s, QueryReq::Point { key: 7 }, stamp) {
            Response::Answer {
                entries,
                total,
                stamp,
            } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].count, 90);
                assert_eq!(total, 100);
                assert_eq!(stamp.staleness, 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let stamp = QueryStamp {
            epoch: 3,
            captured_total: 100,
            staleness: 2,
            rotations: None,
        };
        match answer(&s, QueryReq::Frequent { phi: 0.5 }, stamp) {
            Response::Answer { entries, .. } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].item, 7);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let stamp = QueryStamp {
            epoch: 3,
            captured_total: 100,
            staleness: 2,
            rotations: None,
        };
        match answer(&s, QueryReq::Frequent { phi: 1.5 }, stamp) {
            Response::Error { .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
        let stamp = QueryStamp {
            epoch: 3,
            captured_total: 100,
            staleness: 2,
            rotations: None,
        };
        match answer(&s, QueryReq::TopK { k: 1 }, stamp) {
            Response::Answer { entries, .. } => assert_eq!(entries[0].item, 7),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn the_answer_floor_is_the_smallest_answer() {
        let zero = QueryStamp::default();
        let answer = |n: u64| Response::Answer {
            entries: (0..n).map(|_| CounterEntry::new(0u64, 0, 0)).collect(),
            total: 0,
            stamp: zero,
        };
        for n in [0, 1, 2, 100] {
            assert_eq!(encode(&answer(n)).len(), answer_json_floor(n as usize));
        }
        assert_eq!(answer_json_floor(usize::MAX), usize::MAX - 1);
    }

    #[test]
    fn refused_answers_name_the_cap_and_the_paged_op() {
        let n = (MAX_FRAME - ANSWER_JSON_ENVELOPE) / ANSWER_JSON_ENTRY + 1;
        let entries = (0..n as u64).map(|i| CounterEntry::new(i, 1, 0)).collect();
        let s = Snapshot::from_sorted(entries, n as u64);
        for q in [
            QueryReq::TopK { k: usize::MAX },
            QueryReq::Frequent { phi: 1e-9 },
        ] {
            match answer(&s, q, QueryStamp::default()) {
                Response::Error { message } => {
                    assert!(message.contains("SNAPSHOT_PAGE"), "{message}");
                    assert!(message.contains(&MAX_FRAME.to_string()), "{message}");
                }
                other => panic!("expected a refusal, got {:?}", encode(&other).len()),
            }
        }
        // One entry fewer fits the floor and is answered.
        assert!(matches!(
            answer(&s, QueryReq::TopK { k: n - 1 }, QueryStamp::default()),
            Response::Answer { .. }
        ));
    }

    #[test]
    fn the_capped_writer_stops_past_the_cap() {
        let wide = CounterEntry::new(u64::MAX, u64::MAX, u64::MAX);
        let resp = Response::Answer {
            entries: vec![wide; 1_000],
            total: 5,
            stamp: QueryStamp::default(),
        };
        let full = encode(&resp);
        assert_eq!(encode_within(&resp, full.len()).unwrap(), full);
        let written = encode_within(&resp, 1_000).unwrap_err();
        assert!(written > 1_000 && written < 1_100, "wrote {written}");
    }

    #[test]
    fn garbage_decodes_to_protocol_error() {
        for garbage in ["", "{", "42", "\"NoSuchVariant\"", "{\"Ingest\":{}}"] {
            let err = decode::<Request>(garbage).unwrap_err();
            assert!(matches!(err, CotsError::Protocol(_)), "input: {garbage}");
        }
    }
}
