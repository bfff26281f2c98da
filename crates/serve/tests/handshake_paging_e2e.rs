//! End-to-end tests for the `HELLO` handshake and `SNAPSHOT_PAGE`
//! streaming: version gating over a real socket, paged reassembly equal
//! to the exact summary, the `unchanged` delta short-circuit, and a
//! summary too large for any single frame.

use std::time::Duration;

use cots_core::CounterEntry;
use cots_serve::{
    Client, QueryReq, Request, Response, Server, ServiceConfig, MAX_FRAME, MAX_PAGE_ENTRIES,
    PROTO_VERSION,
};

fn spawn_server(capacity: usize) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            shards: 2,
            capacity,
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

/// Wait until the server's publisher epoch holds still — the
/// refresher's confirming publish after quiescence has landed, so the
/// epoch read here stays valid for `since_epoch` comparisons.
fn settled_epoch(client: &mut Client) -> u64 {
    for _ in 0..1_000 {
        let epoch = client.stats().expect("stats").snapshot_epoch;
        std::thread::sleep(Duration::from_millis(25));
        if client.stats().expect("stats").snapshot_epoch == epoch {
            return epoch;
        }
    }
    panic!("publisher epoch never settled");
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A client that skips HELLO gets `UNSUPPORTED_VERSION` (requested = 0)
/// and the server closes the connection; a wrong version is echoed
/// back; the proper handshake works.
#[test]
fn handshake_is_mandatory_on_the_wire() {
    let (addr, handle) = spawn_server(64);

    // Op before HELLO: rejected, then closed.
    let mut raw = Client::connect_raw(&addr).expect("raw connect");
    raw.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match raw.call(&Request::Stats) {
        Ok(Response::UnsupportedVersion {
            supported,
            requested,
        }) => {
            assert_eq!(supported, PROTO_VERSION);
            assert_eq!(requested, 0);
        }
        other => panic!("unexpected pre-HELLO answer: {other:?}"),
    }
    assert!(
        raw.recv().is_err(),
        "connection should be closed after the rejection"
    );

    // Wrong version: named in the rejection, then closed.
    let mut raw = Client::connect_raw(&addr).expect("raw connect");
    raw.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match raw.call(&Request::Hello {
        proto_version: 999,
        features: vec![],
    }) {
        Ok(Response::UnsupportedVersion {
            supported,
            requested,
        }) => {
            assert_eq!(supported, PROTO_VERSION);
            assert_eq!(requested, 999);
        }
        other => panic!("unexpected bad-HELLO answer: {other:?}"),
    }
    assert!(raw.recv().is_err(), "closed after rejection");

    // The blessed path: Client::connect performs HELLO and the
    // connection is fully usable afterwards.
    let mut client = Client::connect(&addr).expect("handshake connect");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let (version, features) = client.hello().expect("re-HELLO is idempotent");
    assert_eq!(version, PROTO_VERSION);
    assert!(features.is_empty(), "a member advertises no feature");
    client.ingest(&[1, 2, 3]).expect("ingest after handshake");

    shutdown(&addr, handle);
}

/// Page through a snapshot over the wire and check the reassembly is
/// exactly the summary of what was ingested, then exercise the
/// `unchanged` delta short-circuit.
#[test]
fn paged_snapshot_reassembles_the_exact_summary_over_the_wire() {
    let (addr, handle) = spawn_server(32);
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let keys: Vec<u64> = (0..5_000u64).map(|i| i % 20).collect();
    for chunk in keys.chunks(512) {
        client.ingest(chunk).expect("ingest");
    }
    cots_serve::loadgen::await_quiescence(&mut client, keys.len() as u64).expect("quiesce");
    let stable = settled_epoch(&mut client);

    // 20 distinct keys under a capacity of 32: the summary is exact.
    let full_total = keys.len() as u64;
    let full_epoch = stable;

    // Pull the same summary in pages of 7.
    let mut paged: Vec<CounterEntry<u64>> = Vec::new();
    let mut offset = 0usize;
    loop {
        let resp = client
            .call(&Request::SnapshotPage {
                since_epoch: 0,
                offset,
                limit: 7,
            })
            .expect("page");
        match resp {
            Response::SnapshotPage {
                entries,
                offset: at,
                total_entries,
                total,
                done,
                unchanged,
                stamp,
            } => {
                assert!(!unchanged);
                assert_eq!(at, offset);
                assert_eq!(total_entries, 20);
                assert_eq!(total, full_total);
                assert_eq!(stamp.epoch, full_epoch, "quiesced: same epoch throughout");
                offset += entries.len();
                paged.extend(entries);
                if done {
                    break;
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    let mut seen: Vec<(u64, u64, u64)> = paged.iter().map(|e| (e.item, e.count, e.error)).collect();
    seen.sort_unstable();
    let expected: Vec<(u64, u64, u64)> = (0..20).map(|k| (k, 250, 0)).collect();
    assert_eq!(seen, expected, "paged reassembly is the exact summary");

    // A puller that already holds this epoch gets a tiny `unchanged`
    // answer instead of the data again.
    match client
        .call(&Request::SnapshotPage {
            since_epoch: full_epoch,
            offset: 0,
            limit: MAX_PAGE_ENTRIES,
        })
        .expect("delta page")
    {
        Response::SnapshotPage {
            entries,
            unchanged,
            done,
            stamp,
            ..
        } => {
            assert!(unchanged && done && entries.is_empty());
            assert_eq!(stamp.epoch, full_epoch);
        }
        other => panic!("unexpected: {other:?}"),
    }

    shutdown(&addr, handle);
}

/// A summary whose entries exceed the 16 MiB frame cap can only move via
/// `SNAPSHOT_PAGE`. Over a real socket: a `TopK` asking for every entry
/// is answered with an error naming the cap and the paged op (not a
/// dropped connection), the same connection then pages the whole
/// summary, every page fits a frame and reads one pinned epoch, and the
/// reassembly is exact.
#[test]
fn oversized_summary_is_refused_then_streams_in_pages() {
    let capacity = 500_000usize;
    let (addr, handle) = spawn_server(capacity);
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // Large key values inflate the JSON encoding well past the frame
    // cap at this entry count; every key is distinct and the summary
    // never fills, so the expected content is known exactly.
    let base = 1_000_000_000_000_000u64;
    let items = capacity as u64;
    let keys: Vec<u64> = (0..items).map(|i| base + i).collect();
    for chunk in keys.chunks(4_096) {
        client.ingest(chunk).expect("ingest");
    }
    cots_serve::loadgen::await_quiescence(&mut client, items).expect("quiesce");

    // An answer holding every entry physically cannot fit one frame:
    // the server says so and keeps the connection.
    match client
        .call(&Request::Query(QueryReq::TopK { k: capacity }))
        .expect("connection must survive an oversized answer")
    {
        Response::Error { message } => {
            assert!(
                message.contains("SNAPSHOT_PAGE"),
                "unhelpful refusal: {message}"
            );
            assert!(
                message.contains(&MAX_FRAME.to_string()),
                "cap not named: {message}"
            );
        }
        other => panic!("a >16 MiB answer must be refused, got {other:?}"),
    }

    // The same connection streams it in pages.
    let mut paged: Vec<CounterEntry<u64>> = Vec::new();
    let mut pages = 0usize;
    let mut pinned_epoch = None;
    loop {
        client
            .send(&Request::SnapshotPage {
                since_epoch: 0,
                offset: paged.len(),
                limit: MAX_PAGE_ENTRIES,
            })
            .expect("send page request");
        let framed = client.recv_payload().expect("page");
        assert!(framed.len() <= MAX_FRAME, "page {pages} overflows a frame");
        match Client::decode_response(&framed).expect("decode page") {
            Response::SnapshotPage {
                entries,
                total_entries,
                total,
                done,
                unchanged,
                stamp,
                ..
            } => {
                assert!(!unchanged);
                assert_eq!(total_entries, capacity);
                assert_eq!(total, items);
                // The transfer is pinned: every page reads the same
                // epoch, no matter what publishes underneath it.
                let epoch = *pinned_epoch.get_or_insert(stamp.epoch);
                assert_eq!(stamp.epoch, epoch);
                paged.extend(entries);
                pages += 1;
                if done {
                    break;
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(pages > 1, "a >16 MiB summary must take multiple pages");
    let mut seen: Vec<(u64, u64, u64)> = paged.iter().map(|e| (e.item, e.count, e.error)).collect();
    seen.sort_unstable();
    let expected: Vec<(u64, u64, u64)> = keys.iter().map(|&k| (k, 1, 0)).collect();
    assert_eq!(seen, expected, "paged reassembly is the exact summary");

    shutdown(&addr, handle);
}
