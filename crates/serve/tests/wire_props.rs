//! Property tests for the wire layer: framing and protocol codecs must
//! be total — any input either round-trips or errors, never panics —
//! and every bulk op round-trips through BIN1, its one encoding.

use proptest::prelude::*;
use proptest::strategy::Strategy;

use cots_core::CounterEntry;
use cots_serve::bin1;
use cots_serve::frame::{
    decode_frame, encode_frame, FrameAssembler, FrameError, Payload, MAX_FRAME,
};
use cots_serve::protocol::{
    decode, encode, QueryReq, QueryStamp, ReplFrame, Request, Response, MAX_PAGE_ENTRIES,
};

/// Feed `bytes` into an assembler cut at `cuts` (interpreted as split
/// offsets), collecting every decoded frame and the first error.
fn assemble_in_pieces(bytes: &[u8], cuts: &[usize]) -> (Vec<Payload>, Option<FrameError>) {
    let mut splits: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    splits.sort_unstable();
    let mut asm = FrameAssembler::new();
    let mut frames = Vec::new();
    let mut prev = 0;
    for cut in splits.into_iter().chain(std::iter::once(bytes.len())) {
        asm.extend(&bytes[prev..cut]);
        prev = cut;
        loop {
            match asm.next_frame() {
                Ok(Some(p)) => frames.push(p),
                Ok(None) => break,
                Err(e) => return (frames, Some(e)),
            }
        }
    }
    (frames, None)
}

/// Arbitrary (possibly multi-byte, possibly empty) UTF-8 payloads.
fn utf8_payload(max_bytes: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..max_bytes)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Key batches biased toward the edges: empty, single-key, and bulky.
fn key_batch() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(any::<u64>(), 1..=1),
        proptest::collection::vec(any::<u64>(), 2..512),
    ]
}

/// Requests that have a BIN1 form.
fn bulk_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        key_batch().prop_map(|keys| Request::Ingest { keys }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), key_batch()), 0..8)
        )
            .prop_map(|(lineage, batches)| Request::ReplBatch {
                lineage,
                batches: batches
                    .into_iter()
                    .map(|(seq, keys)| ReplFrame { seq, keys })
                    .collect(),
            }),
        (any::<u64>(), any::<usize>(), any::<usize>()).prop_map(|(since_epoch, offset, limit)| {
            Request::SnapshotPage {
                since_epoch,
                offset,
                limit,
            }
        }),
    ]
}

/// Responses that have a BIN1 form.
fn bulk_response() -> impl Strategy<Value = Response> {
    let stamp = (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(epoch, captured_total, staleness, has_rot, rot)| QueryStamp {
                epoch,
                captured_total,
                staleness,
                rotations: has_rot.then_some(rot),
            },
        );
    prop_oneof![
        any::<u64>().prop_map(|enqueued| Response::IngestAck { enqueued }),
        Just(Response::Overloaded),
        any::<u64>().prop_map(|ack_seq| Response::ReplAck { ack_seq }),
        (
            proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..64),
            (any::<usize>(), any::<usize>(), any::<u64>()),
            (any::<bool>(), any::<bool>()),
            stamp,
        )
            .prop_map(
                |(entries, (offset, total_entries, total), (done, unchanged), stamp)| {
                    Response::SnapshotPage {
                        // Struct literal: the wire admits `error > count`
                        // (BIN1 decodes it literally), so the round trip
                        // must cover it.
                        entries: entries
                            .into_iter()
                            .map(|(item, count, error)| CounterEntry { item, count, error })
                            .collect(),
                        offset,
                        total_entries,
                        total,
                        done,
                        unchanged,
                        stamp,
                    }
                }
            ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_round_trips(payload in utf8_payload(512)) {
        let frame = encode_frame(&payload);
        let (back, used) = decode_frame(&frame).unwrap();
        prop_assert_eq!(back, Payload::Json(payload));
        prop_assert_eq!(used, frame.len());
    }

    #[test]
    fn truncated_frames_are_incomplete(payload in utf8_payload(256), keep in any::<usize>()) {
        let frame = encode_frame(&payload);
        let keep = keep % frame.len(); // strictly shorter than the frame
        prop_assert_eq!(
            decode_frame(&frame[..keep]).unwrap_err(),
            FrameError::Incomplete
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        // Decoding must be total: Ok or a typed error, never a panic or
        // an allocation driven by the (attacker-controlled) prefix.
        match decode_frame(&bytes) {
            Ok((payload, used)) => {
                prop_assert!(used <= bytes.len());
                prop_assert!(payload.len() <= used - 4);
            }
            Err(FrameError::Incomplete | FrameError::Malformed(_)) => {}
            Err(FrameError::TooLarge(n)) => prop_assert!(n > MAX_FRAME),
        }
    }

    #[test]
    fn oversized_lengths_are_rejected(extra in 1u64..(u32::MAX as u64 - MAX_FRAME as u64)) {
        let len = (MAX_FRAME as u64 + extra) as u32;
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"body");
        prop_assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            FrameError::TooLarge(len as usize)
        );
    }

    #[test]
    fn requests_round_trip(keys in proptest::collection::vec(any::<u64>(), 0..64),
                           phi_millis in 1u64..999,
                           k in 0usize..100,
                           key in any::<u64>(),
                           pick in 0usize..6) {
        let request = match pick % 6 {
            0 => Request::Ingest { keys },
            1 => Request::Query(QueryReq::Point { key }),
            2 => Request::Query(QueryReq::Frequent { phi: phi_millis as f64 / 1000.0 }),
            3 => Request::Query(QueryReq::TopK { k }),
            4 => Request::Stats,
            _ => Request::Shutdown,
        };
        // Through the full stack: protocol encode → frame → decode.
        let frame = encode_frame(&encode(&request));
        let (payload, _) = decode_frame(&frame).unwrap();
        let Payload::Json(text) = payload else {
            prop_assert!(false, "JSON payload classified as binary");
            unreachable!();
        };
        let back: Request = decode(&text).unwrap();
        prop_assert_eq!(back, request);
    }

    #[test]
    fn garbage_payloads_error_not_panic(payload in utf8_payload(256)) {
        // Any text payload must yield Ok or CotsError::Protocol — never
        // a panic. (Most lossy-decoded byte soup is not valid JSON.)
        let _ = decode::<Request>(&payload);
        let _ = decode::<Response>(&payload);
    }

    #[test]
    fn truncated_length_prefix_is_incomplete(bytes in proptest::collection::vec(any::<u8>(), 0..4)) {
        // Fewer than 4 bytes can never yield a length, whatever they are.
        prop_assert_eq!(decode_frame(&bytes).unwrap_err(), FrameError::Incomplete);
    }

    #[test]
    fn assembler_matches_one_shot_at_arbitrary_splits(
        payloads in proptest::collection::vec(utf8_payload(128), 1..8),
        cuts in proptest::collection::vec(any::<usize>(), 0..32),
    ) {
        // A frame sequence delivered at arbitrary split points — 1-byte
        // reads, header straddles, several frames per read — must decode
        // to exactly what the one-shot path yields, in order.
        let mut bytes = Vec::new();
        for p in &payloads {
            bytes.extend_from_slice(&encode_frame(p));
        }
        let (frames, err) = assemble_in_pieces(&bytes, &cuts);
        prop_assert_eq!(err, None);
        let expect: Vec<Payload> = payloads.into_iter().map(Payload::Json).collect();
        prop_assert_eq!(frames, expect);
    }

    #[test]
    fn assembler_byte_at_a_time_equals_one_shot(payload in utf8_payload(256)) {
        // The pathological 1-byte-read case, exhaustively split.
        let bytes = encode_frame(&payload);
        let every_byte: Vec<usize> = (0..bytes.len()).collect();
        let (frames, err) = assemble_in_pieces(&bytes, &every_byte);
        prop_assert_eq!(err, None);
        prop_assert_eq!(frames, vec![Payload::Json(payload)]);
    }

    #[test]
    fn assembler_garbage_prefix_errors_cleanly(
        extra in 1u64..(u32::MAX as u64 - MAX_FRAME as u64),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        // A length prefix past the cap must surface as a clean typed
        // error at whatever split point completes the header — never a
        // panic, never an allocation of the claimed size.
        let len = (MAX_FRAME as u64 + extra) as u32;
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"garbage body");
        let (frames, err) = assemble_in_pieces(&bytes, &cuts);
        prop_assert_eq!(frames, Vec::<Payload>::new());
        prop_assert_eq!(err, Some(FrameError::TooLarge(len as usize)));
    }

    #[test]
    fn assembler_non_utf8_body_is_malformed_not_panic(
        body in proptest::collection::vec(any::<u8>(), 1..64),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        // Arbitrary byte bodies: a leading BIN1 magic classifies as a
        // binary payload, other valid UTF-8 as JSON, and everything else
        // is Malformed; nothing panics in any case.
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let (frames, err) = assemble_in_pieces(&bytes, &cuts);
        match err {
            None => {
                prop_assert_eq!(frames.len(), 1);
                if body[0] == cots_serve::BIN1_MAGIC {
                    prop_assert_eq!(&frames[0], &Payload::Bin(body));
                } else {
                    prop_assert!(String::from_utf8(body).is_ok());
                }
            }
            Some(FrameError::Malformed(_)) => {
                prop_assert!(body[0] != cots_serve::BIN1_MAGIC);
                prop_assert!(String::from_utf8(body).is_err());
            }
            Some(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    #[test]
    fn at_cap_prefix_waits_for_body(body_len in 0usize..64) {
        // A prefix of exactly MAX_FRAME is legal: with a short body the
        // decoder asks for more bytes instead of rejecting or panicking.
        let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(b'a', body_len));
        prop_assert_eq!(decode_frame(&bytes).unwrap_err(), FrameError::Incomplete);
    }

    // ---- BIN1 round-trip properties ----

    #[test]
    fn bin1_requests_round_trip(request in bulk_request()) {
        let bin = bin1::encode_request(&request)
            .expect("every bulk request has a BIN1 form");
        prop_assert_eq!(bin1::decode_request(&bin).unwrap(), request);
    }

    #[test]
    fn bin1_responses_round_trip(response in bulk_response()) {
        let bin = bin1::encode_response(&response)
            .expect("every bulk response has a BIN1 form");
        prop_assert_eq!(bin1::decode_response(&bin).unwrap(), response);
    }

    #[test]
    fn bin1_garbage_errors_never_panic(mut bytes in proptest::collection::vec(any::<u8>(), 0..512),
                                       force_magic in any::<bool>()) {
        // Arbitrary byte soup — with and without a valid leading magic —
        // must produce Ok or a typed error on both decoders.
        if force_magic && !bytes.is_empty() {
            bytes[0] = cots_serve::BIN1_MAGIC;
        }
        let _ = bin1::decode_request(&bytes);
        let _ = bin1::decode_response(&bytes);
    }

    #[test]
    fn bin1_truncations_error_never_panic(request in bulk_request(), keep in any::<usize>()) {
        let bin = bin1::encode_request(&request).expect("bulk request");
        let keep = keep % bin.len(); // strictly shorter
        prop_assert!(bin1::decode_request(&bin[..keep]).is_err());
    }

    #[test]
    fn bin1_bit_flips_error_or_decode_never_panic(response in bulk_response(),
                                                  bit in any::<usize>()) {
        let mut bin = bin1::encode_response(&response).expect("bulk response");
        let nbits = bin.len() * 8;
        let bit = bit % nbits;
        bin[bit / 8] ^= 1 << (bit % 8);
        // A flipped count or length byte must not drive allocation or
        // indexing; a flipped value byte simply decodes to other values.
        let _ = bin1::decode_response(&bin);
        let _ = bin1::decode_request(&bin);
    }
}

#[test]
fn zero_length_frame_decodes_to_empty_payload() {
    let (payload, used) = decode_frame(&0u32.to_le_bytes()).unwrap();
    assert_eq!(payload, Payload::Json(String::new()));
    assert_eq!(used, 4);
}

#[test]
fn exactly_at_cap_frame_decodes() {
    let body = "a".repeat(MAX_FRAME);
    let frame = encode_frame(&body);
    let (payload, used) = decode_frame(&frame).unwrap();
    assert_eq!(payload.len(), MAX_FRAME);
    assert_eq!(used, 4 + MAX_FRAME);
}

#[test]
fn assembler_handles_cap_sized_payload_across_splits() {
    // A maximum-size frame delivered with a straddled header, a mid-body
    // split, and a held-back final byte still decodes exactly once.
    let body = "z".repeat(MAX_FRAME);
    let bytes = encode_frame(&body);
    let cuts = [2, 4 + MAX_FRAME / 2, bytes.len() - 1];
    let (frames, err) = assemble_in_pieces(&bytes, &cuts);
    assert_eq!(err, None);
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].len(), MAX_FRAME);
}

#[test]
fn one_past_cap_is_rejected_before_any_body_arrives() {
    let bytes = ((MAX_FRAME + 1) as u32).to_le_bytes();
    assert_eq!(
        decode_frame(&bytes).unwrap_err(),
        FrameError::TooLarge(MAX_FRAME + 1)
    );
}

/// The largest INGEST batch a BIN1 frame can carry:
/// `MAX_FRAME = 6 + 8·n` solved for n.
const CAP_KEYS: usize = (MAX_FRAME - 6) / 8;

#[test]
fn bin1_ingest_at_frame_cap_round_trips_and_one_past_overflows() {
    let keys: Vec<u64> = (0..CAP_KEYS as u64).collect();
    let bin = bin1::encode_ingest(&keys);
    assert!(bin.len() <= MAX_FRAME, "cap-sized batch must fit a frame");
    match bin1::decode_request(&bin).unwrap() {
        Request::Ingest { keys: back } => assert_eq!(back, keys),
        other => panic!("unexpected decode: {other:?}"),
    }
    // One more key crosses MAX_FRAME: the frame writer refuses it
    // cleanly rather than emitting an unreadable frame.
    let over: Vec<u64> = (0..=CAP_KEYS as u64).collect();
    let payload = Payload::Bin(bin1::encode_ingest(&over));
    assert!(payload.len() > MAX_FRAME);
    let mut sink = Vec::new();
    assert!(cots_serve::frame::write_payload(&mut sink, &payload).is_err());
    assert!(sink.is_empty(), "no partial frame may reach the wire");
}

#[test]
fn bin1_page_response_at_entry_cap_round_trips() {
    let entries: Vec<CounterEntry<u64>> = (0..MAX_PAGE_ENTRIES as u64)
        .map(|i| CounterEntry::new(i, i * 2, i / 2))
        .collect();
    let stamp = QueryStamp {
        epoch: 7,
        captured_total: 9,
        staleness: 3,
        rotations: Some(1),
    };
    let bin = bin1::encode_page_resp(&entries, 0, entries.len(), 9, true, false, stamp);
    assert!(bin.len() <= MAX_FRAME, "a full page must fit a frame");
    match bin1::decode_response(&bin).unwrap() {
        Response::SnapshotPage {
            entries: back,
            total_entries,
            done,
            stamp: back_stamp,
            ..
        } => {
            assert_eq!(back, entries);
            assert_eq!(total_entries, entries.len());
            assert!(done);
            assert_eq!(back_stamp.rotations, Some(1));
        }
        other => panic!("unexpected decode: {other:?}"),
    }
}
