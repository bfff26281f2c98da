//! Interop end-to-end tests for the negotiated BIN1 encoding: a
//! JSON-only client (v4, no `"bin"` feature) keeps working against a
//! binary-capable server (same answers, byte-for-byte JSON frames), BIN1
//! frames are
//! refused on connections that did not negotiate `"bin"`, and malformed
//! binary frames produce clean errors on a live connection.

use std::time::Duration;

use cots_serve::frame::Payload;
use cots_serve::protocol::QueryReq;
use cots_serve::{Client, Request, Response, Server, ServiceConfig, BIN1_MAGIC, PROTO_VERSION};

fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            shards: 2,
            capacity: 64,
            refresh: Duration::from_millis(2),
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// Wait until queries converge on `total` observed mass.
fn settle(client: &mut Client, total: u64) {
    for _ in 0..1_000 {
        let (_, seen, _) = client.query(QueryReq::TopK { k: 64 }).expect("query");
        if seen == total {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("ingested mass never became visible");
}

/// A client that never advertises `"bin"` gets pure JSON frames back —
/// and sees exactly the same answers as a binary client on the same
/// server.
#[test]
fn json_only_client_interoperates_with_binary_server() {
    let (addr, handle) = spawn_server();

    // The modern client: negotiates BIN1 and ingests binary.
    let mut modern = Client::connect(&addr).expect("modern connect");
    modern.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(modern.is_binary(), "server must offer bin");

    // The JSON-only client: current version, no feature flags at all.
    let mut legacy = Client::connect_raw(&addr).expect("json-only connect");
    legacy.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match legacy.call(&Request::Hello {
        proto_version: PROTO_VERSION,
        features: vec![],
    }) {
        Ok(Response::HelloAck { proto_version, .. }) => {
            assert_eq!(proto_version, PROTO_VERSION)
        }
        other => panic!("featureless HELLO failed: {other:?}"),
    }
    assert!(!legacy.is_binary(), "no `bin` advertised, stays JSON");

    // Both ingest; the binary ack must actually be binary and the
    // JSON-only client's ack actually JSON.
    modern
        .send(&Request::Ingest {
            keys: vec![1, 1, 2, 3],
        })
        .expect("modern send");
    let payload = modern.recv_payload().expect("modern ack");
    assert!(payload.is_bin(), "negotiated ack is BIN1");
    match Client::decode_response(&payload).expect("decode") {
        Response::IngestAck { enqueued } => assert_eq!(enqueued, 4),
        other => panic!("unexpected ack {other:?}"),
    }
    legacy
        .send(&Request::Ingest { keys: vec![1, 4] })
        .expect("legacy send");
    let payload = legacy.recv_payload().expect("legacy ack");
    assert!(!payload.is_bin(), "JSON conn gets JSON ack");
    match Client::decode_response(&payload).expect("decode") {
        Response::IngestAck { enqueued } => assert_eq!(enqueued, 2),
        other => panic!("unexpected ack {other:?}"),
    }

    // Same question, both encodings of client: byte-identical JSON
    // answers (queries are JSON on every connection). The publisher
    // keeps republishing, and ties may order differently from one
    // published snapshot to the next, so only answers served from the
    // same epoch are comparable.
    settle(&mut modern, 6);
    let ask = |client: &mut Client| {
        client
            .send(&Request::Query(QueryReq::TopK { k: 64 }))
            .unwrap();
        let raw = client.recv_payload().expect("answer");
        assert!(!raw.is_bin(), "queries are answered in JSON");
        match Client::decode_response(&raw).expect("decode") {
            Response::Answer { stamp, .. } => (stamp.epoch, raw),
            other => panic!("unexpected answer {other:?}"),
        }
    };
    let same_epoch = (0..100).find_map(|_| {
        let (modern_epoch, modern_raw) = ask(&mut modern);
        let (legacy_epoch, legacy_raw) = ask(&mut legacy);
        (modern_epoch == legacy_epoch).then_some((modern_raw, legacy_raw))
    });
    let (modern_raw, legacy_raw) = same_epoch.expect("two queries never hit one epoch");
    assert_eq!(
        modern_raw.bytes(),
        legacy_raw.bytes(),
        "answers must be byte-identical across client encodings"
    );

    shutdown(&addr, handle);
}

/// A BIN1 frame on a connection that never negotiated `"bin"` is an
/// error and the connection closes — same contract as a failed
/// handshake.
#[test]
fn bin1_without_negotiation_is_refused_and_closed() {
    let (addr, handle) = spawn_server();

    let mut raw = Client::connect_raw(&addr).expect("raw connect");
    raw.set_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.call(&Request::Hello {
        proto_version: PROTO_VERSION,
        features: vec![], // deliberately not advertising bin
    })
    .expect("hello");
    raw.send_payload(&Payload::Bin(cots_serve::bin1::encode_ingest(&[1, 2])))
        .expect("send binary frame");
    match raw.recv() {
        Ok(Response::Error { message }) => {
            assert!(message.contains("bin"), "{message}")
        }
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(raw.recv().is_err(), "closed after violation");

    shutdown(&addr, handle);
}

/// Malformed BIN1 bytes on a *negotiated* connection answer with a JSON
/// error and the connection survives — mirroring garbage-JSON handling.
#[test]
fn malformed_bin1_errors_cleanly_and_connection_survives() {
    let (addr, handle) = spawn_server();

    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(client.is_binary());

    for garbage in [
        vec![BIN1_MAGIC],                      // no tag
        vec![BIN1_MAGIC, 0x7F],                // unknown tag
        vec![BIN1_MAGIC, 0x01, 9, 0, 0, 0],    // claims 9 keys, has none
        vec![BIN1_MAGIC, 0x01, 0, 0, 0, 0, 1], // trailing byte
    ] {
        client
            .send_payload(&Payload::Bin(garbage))
            .expect("send garbage");
        match client.recv() {
            Ok(Response::Error { .. }) => {}
            other => panic!("expected Error, got {other:?}"),
        }
    }
    // Still alive and fully functional, still binary.
    client.ingest(&[5, 6, 7]).expect("ingest after garbage");
    client.stats().expect("stats after garbage");

    shutdown(&addr, handle);
}

/// `set_binary(false)` drops a negotiated connection back to JSON and
/// `set_binary(true)` restores it — the one differential-testing switch;
/// both encodings of a bulk request decode to the same operation.
#[test]
fn set_binary_toggles_wire_encoding_per_connection() {
    let (addr, handle) = spawn_server();

    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(client.is_binary());

    assert!(!client.set_binary(false));
    let runs: [(u64, &[u64]); 2] = [(7, &[1, 2]), (8, &[])];
    let json_batch = client.encode_repl_batch(3, &runs);
    client.send(&Request::Ingest { keys: vec![1] }).unwrap();
    let ack = client.recv_payload().expect("ack");
    assert!(!ack.is_bin(), "forced-JSON ingest must be answered in JSON");

    assert!(client.set_binary(true), "re-enable after negotiation");
    let (Payload::Json(text), Payload::Bin(bytes)) =
        (json_batch, client.encode_repl_batch(3, &runs))
    else {
        panic!("REPL_BATCH must follow the connection's encoding");
    };
    assert_eq!(
        cots_serve::protocol::decode::<Request>(&text).expect("json form"),
        cots_serve::bin1::decode_request(&bytes).expect("bin1 form"),
    );
    client.send(&Request::Ingest { keys: vec![2] }).unwrap();
    let ack = client.recv_payload().expect("ack");
    assert!(ack.is_bin(), "binary ingest answered in BIN1");

    shutdown(&addr, handle);
}
