//! End-to-end loopback test: a real TCP server, the real load generator,
//! and answers checked against both exact truth and a sequential
//! `SpaceSaving` oracle run over the very same stream.

use std::time::Duration;

use cots_core::{FrequencyCounter, QueryableSummary, SummaryConfig, Threshold};
use cots_datagen::{ExactCounter, StreamSpec};
use cots_sequential::SpaceSaving;
use cots_serve::loadgen::{self, LoadConfig};
use cots_serve::protocol::QueryReq;
use cots_serve::{Client, Server, ServiceConfig};

const CAPACITY: usize = 1_000;
const ITEMS: u64 = 200_000;
const ALPHABET: usize = 20_000;
const ALPHA: f64 = 1.5;
const SEED: u64 = 7;
const PHI: f64 = 0.01;

#[test]
fn served_answers_match_sequential_oracle() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            shards: 4,
            capacity: CAPACITY,
            refresh: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // Replay the stream over the wire with concurrent queries in flight,
    // letting the load generator's own truth check run too.
    let report = loadgen::run(&LoadConfig {
        addr: addr.clone(),
        items: ITEMS,
        alphabet: ALPHABET,
        alpha: ALPHA,
        seed: SEED,
        batch: 4_096,
        connections: 2,
        qps: 50,
        phi: PHI,
        check: true,
        ..Default::default()
    })
    .unwrap();
    assert_eq!(report.items, ITEMS);
    assert!(report.queries_issued > 0, "concurrent queries exercised");
    let check = report.check.expect("check requested");
    assert!(check.passed, "load generator check failed: {check:?}");
    assert_eq!(check.missed, 0, "Space Saving recall must be 1.0");
    assert_eq!(check.bound_violations, 0);

    // Independent oracle: sequential Space Saving with the same counter
    // budget over the identical stream.
    let stream = StreamSpec::zipf(ITEMS as usize, ALPHABET, ALPHA, SEED).generate();
    let mut oracle = SpaceSaving::<u64>::new(SummaryConfig::with_capacity(CAPACITY).unwrap());
    oracle.process_slice(&stream);
    let oracle_snap = oracle.snapshot();
    let truth = ExactCounter::from_stream(&stream);
    let threshold = Threshold::Fraction(PHI).resolve(ITEMS);

    let mut client = Client::connect(&addr).unwrap();
    let (entries, total, stamp) = client.query(QueryReq::Frequent { phi: PHI }).unwrap();
    assert_eq!(total, ITEMS);
    assert_eq!(stamp.staleness, 0, "post-quiescence answers are exact");
    assert!(stamp.epoch > 0);

    // (1) Everything the oracle *guarantees* frequent, the server reports.
    // (2) Everything the server *guarantees* frequent is truly frequent,
    //     and therefore also in the oracle's answer (oracle estimates
    //     dominate true counts).
    let oracle_frequent = oracle_snap.frequent(Threshold::Count(threshold));
    for e in &oracle_frequent {
        if e.guaranteed() >= threshold {
            assert!(
                entries.iter().any(|s| s.item == e.item),
                "server answer misses oracle-guaranteed item {}",
                e.item
            );
        }
    }
    for s in &entries {
        let true_count = truth.count(&s.item);
        assert!(
            s.count >= true_count && s.count - s.error <= true_count,
            "entry {} outside the Space Saving envelope: count={} error={} true={}",
            s.item,
            s.count,
            s.error,
            true_count
        );
        if s.count - s.error >= threshold {
            assert!(
                oracle_frequent.iter().any(|o| o.item == s.item),
                "server-guaranteed item {} absent from the oracle answer",
                s.item
            );
        }
    }

    // Point queries agree with truth within the envelope too.
    let hottest = oracle_snap.top_k(1)[0].item;
    let (point, _, _) = client.query(QueryReq::Point { key: hottest }).unwrap();
    let e = &point[0];
    let t = truth.count(&hottest);
    assert!(e.count >= t && e.count - e.error <= t);

    // Top-k comes back heaviest-first.
    let (top, _, _) = client.query(QueryReq::TopK { k: 10 }).unwrap();
    assert_eq!(top.len(), 10);
    assert!(top.windows(2).all(|w| w[0].count >= w[1].count));

    client.shutdown().unwrap();
    drop(client);
    server_thread.join().unwrap().unwrap();
}

#[test]
fn malformed_traffic_cannot_kill_the_server() {
    use std::io::{Read, Write};

    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    // Garbage bytes: server answers with an error frame or just closes.
    {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        s.write_all(b"not a frame at all").unwrap();
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink); // server closes on violation
    }
    // Valid frame, garbage JSON: connection survives with an Error reply.
    {
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let report = client.stats().unwrap();
        assert_eq!(report.ingested_keys, 0);
    }
    // A healthy client still works afterwards.
    let mut client = Client::connect(&addr.to_string()).unwrap();
    client.ingest(&[1, 2, 3]).unwrap();
    client.shutdown().unwrap();
    drop(client);
    server_thread.join().unwrap().unwrap();
}
