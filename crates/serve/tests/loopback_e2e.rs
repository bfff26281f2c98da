//! End-to-end loopback test: a real TCP server fed over real client
//! connections, with answers checked against both exact truth and a
//! sequential `SpaceSaving` oracle run over the very same stream — while
//! the stream is still arriving, and again once it has landed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use cots_core::{FrequencyCounter, QueryableSummary, SummaryConfig, Threshold};
use cots_datagen::{ExactCounter, StreamSpec};
use cots_sequential::SpaceSaving;
use cots_serve::loadgen::await_quiescence;
use cots_serve::protocol::QueryReq;
use cots_serve::{Client, Server, ServiceConfig};

const CAPACITY: usize = 1_000;
const ITEMS: u64 = 200_000;
const ALPHABET: usize = 20_000;
const ALPHA: f64 = 1.5;
const SEED: u64 = 7;
const PHI: f64 = 0.01;

/// One server lifecycle at `shards` shard workers: bind, let `load`
/// deliver the whole stream (every frame acked), wait until it is
/// applied, check every kind of answer against the oracle and exact
/// truth, shut down cleanly.
fn serve_and_check(shards: usize, load: impl FnOnce(&str, &[u64])) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            shards,
            capacity: CAPACITY,
            refresh: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let stream = StreamSpec::zipf(ITEMS as usize, ALPHABET, ALPHA, SEED).generate();
    load(&addr, &stream);
    let mut client = Client::connect(&addr).unwrap();
    await_quiescence(&mut client, ITEMS).unwrap();

    // Independent oracle: sequential Space Saving with the same counter
    // budget over the identical stream.
    let mut oracle = SpaceSaving::<u64>::new(SummaryConfig::with_capacity(CAPACITY).unwrap());
    oracle.process_slice(&stream);
    let oracle_snap = oracle.snapshot();
    let truth = ExactCounter::from_stream(&stream);
    let threshold = Threshold::Fraction(PHI).resolve(ITEMS);

    let (entries, total, stamp) = client.query(QueryReq::Frequent { phi: PHI }).unwrap();
    assert_eq!(total, ITEMS, "{shards} shards applied every item");
    assert_eq!(stamp.staleness, 0, "post-quiescence answers are exact");
    assert!(stamp.epoch > 0);

    // (0) Recall 1.0 against exact truth: every truly frequent key is
    //     reported.
    // (1) Everything the oracle *guarantees* frequent, the server reports.
    // (2) Everything the server *guarantees* frequent is truly frequent,
    //     and therefore also in the oracle's answer (oracle estimates
    //     dominate true counts).
    for (key, true_count) in truth.frequent(Threshold::Count(threshold)) {
        assert!(
            entries.iter().any(|s| s.item == key),
            "server answer misses truly frequent item {key} (true count {true_count})"
        );
    }
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
fn served_answers_match_sequential_oracle() {
    for shards in [1, 2, 4, 8] {
        serve_and_check(shards, |addr, stream| {
            let truth = ExactCounter::from_stream(stream);
            let ingesting = AtomicBool::new(true);
            // Connected before ingest starts, so its first question is
            // already on the wire when the first frame is.
            let asker = Client::connect(addr).unwrap();
            let answered_during_ingest = std::thread::scope(|s| {
                let queries = s.spawn(|| query_while_ingesting(asker, &truth, &ingesting));
                ingest_over_open_connections(addr, stream, 2);
                ingesting.store(false, Ordering::Release);
                queries.join().unwrap()
            });
            assert!(
                answered_during_ingest > 0,
                "{shards} shards: no answer arrived before ingest ended"
            );
        });
    }
}

/// Ask `frequent(PHI)` about every 10 ms until `ingesting` clears and
/// check each answer against what *any* prefix of the stream allows: a
/// prefix's true count never exceeds the full stream's, so
/// `count − error ≤ truth_full` holds at every instant, the total never
/// exceeds the stream, and epochs never go backwards on one connection.
/// Returns how many answers arrived while ingest was still running.
fn query_while_ingesting(
    mut client: Client,
    truth: &ExactCounter<u64>,
    ingesting: &AtomicBool,
) -> usize {
    let mut last_epoch = 0;
    let mut during = 0;
    loop {
        let (entries, total, stamp) = client.query(QueryReq::Frequent { phi: PHI }).unwrap();
        let live = ingesting.load(Ordering::Acquire);
        assert!(
            total <= ITEMS,
            "mid-stream total {total} exceeds the stream"
        );
        assert!(
            stamp.epoch >= last_epoch,
            "epoch went backwards: {} after {last_epoch}",
            stamp.epoch
        );
        last_epoch = stamp.epoch;
        for e in &entries {
            let t = truth.count(&e.item);
            assert!(
                e.count - e.error <= t,
                "mid-stream over-report at epoch {}: item {} count {} error {} > full-stream truth {t}",
                stamp.epoch,
                e.item,
                e.count,
                e.error
            );
        }
        if !live {
            return during;
        }
        during += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Deliver `stream` over `c` connections that are all open at once and
/// all stay open until the last batch is acked (acked, not yet applied):
/// connection `j` sends batches `j, j+c, j+2c, …`. A pool of 8 threads
/// multiplexes them, so the client needs no thread per connection —
/// which is the ceiling the server under test must not have either.
fn ingest_over_open_connections(addr: &str, stream: &[u64], c: usize) {
    // Every connection sends at least ~2 frames.
    let batch = (stream.len() / (c * 2)).clamp(64, 8_192);
    let batches: Vec<&[u64]> = stream.chunks(batch).collect();
    // Pace the connects so the storm never overflows the listener's
    // accept backlog (dropped SYNs cost seconds of retransmit).
    let mut workers: Vec<Vec<(usize, Client)>> = (0..c.min(8)).map(|_| Vec::new()).collect();
    let pool = workers.len();
    for j in 0..c {
        if j > 0 && j % 64 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let client = Client::connect(addr).unwrap_or_else(|e| panic!("connect {j} of {c}: {e}"));
        workers[j % pool].push((j, client));
    }
    std::thread::scope(|s| {
        for mut own in workers {
            let batches = &batches;
            s.spawn(move || {
                for round in 0.. {
                    let mut any = false;
                    for (j, client) in own.iter_mut() {
                        if let Some(b) = batches.get(*j + round * c) {
                            any = true;
                            client
                                .ingest(b)
                                .unwrap_or_else(|e| panic!("connection {j}: {e}"));
                        }
                    }
                    if !any {
                        break;
                    }
                }
            });
        }
    });
}

/// 256 simultaneously open connections (3 descriptors each in this one
/// process: two client-side, one server-side) fit a 1024-descriptor
/// soft limit.
#[test]
fn answers_stay_exact_with_256_open_connections() {
    serve_and_check(4, |addr, stream| {
        ingest_over_open_connections(addr, stream, 256)
    });
}

/// The connection count the serving stack is required to sustain. Needs
/// ~1600 descriptors: run with `ulimit -n 16384` and `--ignored`.
#[test]
#[ignore = "needs a raised descriptor limit (ulimit -n 16384)"]
fn answers_stay_exact_with_512_open_connections() {
    serve_and_check(4, |addr, stream| {
        ingest_over_open_connections(addr, stream, 512)
    });
}

/// A closed loop that keeps more frames in flight than two-batch rings
/// hold: every full ring parks the connection instead of refusing the
/// frame, so every answer is an `IngestAck`, none is `OVERLOADED`, and
/// every key is applied exactly (the summary holds the whole alphabet).
#[test]
fn a_closed_loop_flood_on_tiny_rings_is_only_acked_and_exact() {
    const IN_FLIGHT: usize = 16;
    const FRAME: usize = 512;
    let server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            shards: 2,
            capacity: CAPACITY,
            queue_batches: 2,
            refresh: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let stream = StreamSpec::zipf(ITEMS as usize, CAPACITY / 2, ALPHA, SEED).generate();
    let mut client = Client::connect(&addr).unwrap();
    let frames: Vec<&[u64]> = stream.chunks(FRAME).collect();
    let ack = |client: &mut Client, i: usize| match client.recv().unwrap() {
        cots_serve::Response::IngestAck { enqueued } => {
            assert_eq!(enqueued, frames[i].len() as u64, "frame {i}")
        }
        other => panic!("frame {i}: {other:?} instead of an ack"),
    };
    for (i, keys) in frames.iter().enumerate() {
        if i >= IN_FLIGHT {
            ack(&mut client, i - IN_FLIGHT);
        }
        let payload = client.encode_ingest(keys);
        client.send_payload(&payload).unwrap();
    }
    for i in frames.len().saturating_sub(IN_FLIGHT)..frames.len() {
        ack(&mut client, i);
    }
    await_quiescence(&mut client, ITEMS).unwrap();
    assert_eq!(client.stats().unwrap().rejected_frames, 0);

    let truth = ExactCounter::from_stream(&stream);
    let (entries, total, _) = client.query(QueryReq::TopK { k: CAPACITY }).unwrap();
    assert_eq!(total, ITEMS);
    assert_eq!(entries.len(), truth.distinct());
    for e in &entries {
        assert_eq!(
            (e.count, e.error),
            (truth.count(&e.item), 0),
            "key {}",
            e.item
        );
    }
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

/// Inbound connections are the client's to open, so running out of
/// descriptors for them must not take the server down: it keeps
/// listening and serves again as soon as sockets are released.
#[cfg(unix)]
#[test]
fn descriptor_exhaustion_cannot_stop_the_server() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    // A real process, because the descriptor limit is per process.
    let mut child = Command::new("sh")
        .args(["-c", r#"ulimit -n 40; exec "$0" "$@""#])
        .arg(env!("CARGO_BIN_EXE_cots-serve"))
        .args(["--addr", "127.0.0.1:0", "--shards", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn cots-serve under sh");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = lines
        .by_ref()
        .map_while(Result::ok)
        .find_map(|l| l.strip_prefix("listening on ").map(str::to_string))
        .expect("server never printed its listening line");

    // Twice the limit; all of them connect (the backlog holds what the
    // server cannot accept), and stay open long enough for the acceptor
    // to hit the limit.
    let flood: Vec<_> = (0..80)
        .map(|i| std::net::TcpStream::connect(&addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    drop(flood);

    let mut client = Client::connect(&addr).expect("server still accepts after the flood");
    client.ingest(&[1, 2, 3]).unwrap();
    assert!(
        child.try_wait().unwrap().is_none(),
        "server is still running"
    );
    client.shutdown().unwrap();
    drop(client);
    assert!(child.wait().unwrap().success(), "clean exit after SHUTDOWN");
}
