//! End-to-end tests for protocol v5's one encoding per op over a real
//! socket: a v4 `HELLO` is refused and the connection closes; after a
//! featureless v5 `HELLO` a JSON `INGEST` is refused with an error naming
//! its BIN1 form and never reaches the shards, while the same connection
//! serves a BIN1 `INGEST` in BIN1 and queries in JSON; malformed BIN1
//! frames produce clean errors on a live connection.

use std::time::Duration;

use cots_serve::frame::Payload;
use cots_serve::protocol::{encode, QueryReq};
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

/// A v4 peer is refused at the handshake, named in the answer, and the
/// connection closes.
#[test]
fn v4_hello_is_refused_and_closed() {
    let (addr, handle) = spawn_server();

    let mut raw = Client::connect_raw(&addr).expect("raw connect");
    raw.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match raw.call(&Request::Hello {
        proto_version: 4,
        features: vec![],
    }) {
        Ok(Response::UnsupportedVersion {
            supported,
            requested,
        }) => assert_eq!((supported, requested), (5, 4)),
        other => panic!("a v4 HELLO must be refused, got {other:?}"),
    }
    assert!(raw.recv().is_err(), "closed after the refusal");

    shutdown(&addr, handle);
}

/// A JSON `INGEST` is refused and never dispatched — `STATS` does not
/// count it — and the connection stays open: it then serves a BIN1
/// `INGEST` in BIN1 and a query in JSON.
#[test]
fn json_ingest_is_refused_and_the_connection_serves_bin1() {
    let (addr, handle) = spawn_server();

    let mut client = Client::connect_raw(&addr).expect("raw connect");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match client.call(&Request::Hello {
        proto_version: PROTO_VERSION,
        features: vec![],
    }) {
        Ok(Response::HelloAck { features, .. }) => assert!(features.is_empty()),
        other => panic!("featureless HELLO failed: {other:?}"),
    }

    let json_ingest = encode(&Request::Ingest { keys: vec![1, 2] });
    client
        .send_payload(&Payload::Json(json_ingest))
        .expect("send JSON ingest");
    match client.recv() {
        Ok(Response::Error { message }) => {
            assert!(
                message.contains("INGEST") && message.contains("BIN1"),
                "{message}"
            )
        }
        other => panic!("a JSON INGEST must be refused, got {other:?}"),
    }
    assert_eq!(client.stats().expect("stats").ingested_keys, 0);

    client
        .send_payload(&client.encode_ingest(&[1, 1, 2]))
        .expect("send BIN1 ingest");
    let ack = client.recv_payload().expect("ack");
    assert!(ack.is_bin(), "a BIN1 INGEST is acked in BIN1");
    match Client::decode_response(&ack).expect("decode") {
        Response::IngestAck { enqueued } => assert_eq!(enqueued, 3),
        other => panic!("unexpected ack {other:?}"),
    }
    assert_eq!(client.stats().expect("stats").ingested_keys, 3);

    client
        .send(&Request::Query(QueryReq::TopK { k: 4 }))
        .expect("send query");
    let answer = client.recv_payload().expect("answer");
    assert!(!answer.is_bin(), "queries are answered in JSON");
    assert!(matches!(
        Client::decode_response(&answer),
        Ok(Response::Answer { .. })
    ));

    shutdown(&addr, handle);
}

/// Malformed BIN1 bytes answer with a JSON error and the connection
/// survives — mirroring garbage-JSON handling.
#[test]
fn malformed_bin1_errors_cleanly_and_connection_survives() {
    let (addr, handle) = spawn_server();

    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();

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
    // Still alive and fully functional.
    client.ingest(&[5, 6, 7]).expect("ingest after garbage");
    client.stats().expect("stats after garbage");

    shutdown(&addr, handle);
}
