//! End-to-end replication: a real primary and a real standby on
//! loopback TCP, the real shipper in between, promotion flipping the
//! standby into a serving primary.

use std::time::{Duration, Instant};

use cots_core::Threshold;
use cots_datagen::{ExactCounter, StreamSpec};
use cots_serve::protocol::QueryReq;
use cots_serve::repl::{spawn, ShipperConfig};
use cots_serve::{Client, PersistOptions, Request, Response, Server, ServiceConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "cots-ship-e2e-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn persist(dir: &std::path::Path) -> PersistOptions {
    let mut opts = PersistOptions::new(dir.to_path_buf());
    opts.checkpoint_every = Duration::ZERO;
    // Small segments force rotation, so checkpoints actually prune and
    // the shipping floor moves — exercising the catch-up snapshot path.
    opts.segment_bytes = 16 * 1024;
    opts
}

fn bind(dir: &std::path::Path, standby: bool, peer: Option<String>) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            shards: 2,
            capacity: 256,
            refresh: Duration::from_millis(2),
            persist: Some(persist(dir)),
            standby,
            repl_peer: peer,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn primary_ships_standby_catches_up_and_promotes() {
    let primary_dir = temp_dir("primary");
    let standby_dir = temp_dir("standby");

    let standby = bind(&standby_dir, true, None);
    let standby_addr = standby.local_addr().to_string();
    let standby_service = standby.service().clone();
    let standby_thread = std::thread::spawn(move || standby.run());

    let primary = bind(&primary_dir, false, Some(standby_addr.clone()));
    let primary_addr = primary.local_addr().to_string();
    let primary_service = primary.service().clone();
    let primary_thread = std::thread::spawn(move || primary.run());

    // Some data lands on the primary *before* the shipper even starts,
    // so the stream begins with a real backlog.
    let keys = StreamSpec::zipf(30_000, 500, 1.5, 11).generate();
    let total_items = keys.len() as u64;
    let exact = ExactCounter::from_stream(&keys);
    let mut client = Client::connect(&primary_addr).unwrap();
    for chunk in keys.chunks(1_024).take(10) {
        client.ingest(chunk).unwrap();
    }

    let mut shipper_cfg = ShipperConfig::new(standby_addr.clone());
    shipper_cfg.poll_interval = Duration::from_millis(2);
    let shipper = spawn(primary_service.clone(), shipper_cfg).unwrap();

    // The rest of the stream flows while the shipper runs.
    for chunk in keys.chunks(1_024).skip(10) {
        client.ingest(chunk).unwrap();
    }

    // Wait until the standby acked everything the primary logged. The
    // shipper's report is as of its last publish, so its acks are held
    // against the log itself, not against the report's own `next_seq`.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = primary_service.stats();
        let logged = stats.persist.as_ref().map_or(0, |p| p.wal_records);
        if let Some(repl) = &stats.repl {
            if repl.connected
                && repl.unacked_batches == 0
                && stats.applied_keys() == total_items
                && repl.acked_seq == logged
            {
                break;
            }
        }
        assert!(Instant::now() < deadline, "standby never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }
    let repl = primary_service.stats().repl.unwrap();
    assert_eq!(repl.role, "primary");
    assert!(repl.streamed_keys >= total_items, "whole stream shipped");

    // The standby's replication report mirrors the stream.
    let mut sclient = Client::connect(&standby_addr).unwrap();
    let sstats = sclient.stats().unwrap();
    let srepl = sstats.repl.expect("standby reports repl state");
    assert_eq!(srepl.role, "standby");
    assert_eq!(srepl.next_seq, repl.acked_seq, "durable watermarks agree");

    // The primary goes away first, the way `cots-serve --peer` does: a
    // clean SHUTDOWN while the shipper still holds its handle to the
    // service. The drain must not depend on being the last owner — a
    // restart finds the final checkpoint and an empty WAL tail.
    client.shutdown().unwrap();
    drop(client);
    primary_thread.join().unwrap().unwrap();
    shipper.stop();
    let restart = cots_persist::recover(&primary_dir).unwrap().report;
    assert!(
        restart.checkpoint_watermark.is_some() && restart.replayed_batches == 0,
        "a shared handle kept the primary from draining: {restart:?}"
    );
    assert_eq!(restart.recovered_items, total_items);

    // Promote the standby: from REPL_PROMOTE to the first answer that
    // holds the whole shipped stream with staleness 0 is the recovery
    // time of a warm standby (measured well under a millisecond; the
    // bound only has to catch a promotion that replays or resyncs).
    let promoted_at = Instant::now();
    match sclient.call(&Request::ReplPromote).unwrap() {
        Response::ReplAck { ack_seq } => assert_eq!(ack_seq, repl.acked_seq),
        other => panic!("unexpected: {other:?}"),
    }
    assert!(!standby_service.is_standby());
    let rto = loop {
        let (_, total, stamp) = sclient.query(QueryReq::TopK { k: 1 }).unwrap();
        if total == total_items && stamp.staleness == 0 {
            break promoted_at.elapsed();
        }
        assert!(
            promoted_at.elapsed() < Duration::from_secs(10),
            "promoted node never quiesced: total {total}/{total_items}, staleness {}",
            stamp.staleness
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        rto < Duration::from_secs(2),
        "REPL_PROMOTE to first correct answer took {rto:?}"
    );

    // The promoted node answers inside the count ± error envelope over
    // the acked stream, and misses no key that truly holds 1% of it.
    let (entries, total, _) = sclient.query(QueryReq::Frequent { phi: 0.01 }).unwrap();
    assert_eq!(total, total_items);
    for e in &entries {
        let truth = exact.count(&e.item);
        assert!(
            e.count >= truth && truth >= e.count - e.error,
            "envelope violated for {}: count={} error={} truth={truth}",
            e.item,
            e.count,
            e.error
        );
    }
    let hitters = exact.frequent(Threshold::Fraction(0.01));
    assert!(!hitters.is_empty(), "the stream has 1% hitters to recall");
    for (key, truth) in hitters {
        assert!(
            entries.iter().any(|e| e.item == key),
            "heavy key {key} (exact {truth}) is missing from the promoted node's answer"
        );
    }

    // The promoted node accepts writes now.
    sclient
        .ingest(&[42, 42, 42])
        .expect("promoted node accepts INGEST");

    sclient.shutdown().unwrap();
    drop(sclient);
    standby_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}

#[test]
fn diverged_standby_is_refused_and_flagged_for_resync() {
    let primary_dir = temp_dir("div-primary");
    let standby_dir = temp_dir("div-standby");

    // Seed the standby's data dir by running it as a primary first: its
    // WAL ends up *ahead* of the fresh primary below — the shape of a
    // dead ex-primary restarted with --standby on its old directory.
    {
        let seed = bind(&standby_dir, false, None);
        let seed_addr = seed.local_addr().to_string();
        let seed_service = seed.service().clone();
        let seed_thread = std::thread::spawn(move || seed.run());
        let mut client = Client::connect(&seed_addr).unwrap();
        for chunk in (0..5_000u64).collect::<Vec<_>>().chunks(100) {
            client.ingest(chunk).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while seed_service.stats().applied_keys() < 5_000 {
            assert!(Instant::now() < deadline, "seed never applied the stream");
            std::thread::sleep(Duration::from_millis(5));
        }
        client.shutdown().unwrap();
        drop(client);
        seed_thread.join().unwrap().unwrap();
    }

    let standby = bind(&standby_dir, true, None);
    let standby_addr = standby.local_addr().to_string();
    let standby_thread = std::thread::spawn(move || standby.run());

    let primary = bind(&primary_dir, false, Some(standby_addr.clone()));
    let primary_addr = primary.local_addr().to_string();
    let primary_service = primary.service().clone();
    let primary_thread = std::thread::spawn(move || primary.run());

    // One small batch: the primary's watermark stays far below the
    // standby's divergent one.
    let mut client = Client::connect(&primary_addr).unwrap();
    client.ingest(&[1, 2, 3]).unwrap();

    let mut cfg = ShipperConfig::new(standby_addr.clone());
    cfg.poll_interval = Duration::from_millis(2);
    cfg.max_backoff = Duration::from_millis(200);
    let shipper = spawn(primary_service.clone(), cfg).unwrap();

    // The standby must refuse the stream (never ack unseen batches) and
    // the primary's STATS must escalate the divergence to the operator.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(repl) = &primary_service.stats().repl {
            if repl.resync_required {
                assert!(!repl.connected, "a refused session is not a live stream");
                assert_eq!(repl.streamed_batches, 0, "nothing was falsely recorded");
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "divergence never surfaced in STATS"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The standby kept its divergent state intact and acked nothing.
    let mut sclient = Client::connect(&standby_addr).unwrap();
    let srepl = sclient.stats().unwrap().repl.expect("standby repl report");
    assert!(srepl.resync_required, "standby flags the divergence too");
    assert_eq!(srepl.streamed_batches, 0, "no replicated batch applied");

    shipper.stop();
    client.shutdown().unwrap();
    drop(client);
    primary_thread.join().unwrap().unwrap();
    sclient.shutdown().unwrap();
    drop(sclient);
    standby_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}

#[test]
fn late_standby_catches_up_via_snapshot() {
    let primary_dir = temp_dir("snap-primary");
    let standby_dir = temp_dir("snap-standby");

    let primary = bind(&primary_dir, false, None);
    let primary_addr = primary.local_addr().to_string();
    let primary_service = primary.service().clone();
    let primary_thread = std::thread::spawn(move || primary.run());

    // Ingest, checkpoint, and let pruning advance the floor past 0: a
    // fresh standby can then only catch up via REPL_SNAPSHOT.
    let mut client = Client::connect(&primary_addr).unwrap();
    let keys: Vec<u64> = (0..20_000u64).map(|i| i % 100).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    for (i, chunk) in keys.chunks(1_000).enumerate() {
        client.ingest(chunk).unwrap();
        // Each chunk is logged before it is applied, so waiting for it
        // puts every chunk in a group commit of its own: the log crosses
        // `segment_bytes` between commits and rotates, however fast the
        // acks come back.
        while primary_service.stats().applied_keys() < (i as u64 + 1) * 1_000 {
            assert!(
                Instant::now() < deadline,
                "primary never applied the stream"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let (watermark, _, _) = client.checkpoint().unwrap();
    assert!(watermark > 0);
    assert!(
        primary_service.repl_floor() > 0,
        "checkpoint + prune moved the shipping floor"
    );

    let standby = bind(&standby_dir, true, None);
    let standby_addr = standby.local_addr().to_string();
    let standby_thread = std::thread::spawn(move || standby.run());

    let mut cfg = ShipperConfig::new(standby_addr.clone());
    cfg.poll_interval = Duration::from_millis(2);
    let shipper = spawn(primary_service.clone(), cfg).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(repl) = &primary_service.stats().repl {
            if repl.connected && repl.unacked_batches == 0 && repl.snapshots >= 1 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "late standby never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The standby holds the full mass: snapshot base + shipped tail.
    let mut sclient = Client::connect(&standby_addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, total, stamp) = sclient.query(QueryReq::TopK { k: 1 }).unwrap();
        if total == 20_000 && stamp.staleness == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "standby never published the base"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let (entries, _, _) = sclient.query(QueryReq::Point { key: 7 }).unwrap();
    let e = &entries[0];
    assert!(
        e.count >= 200 && e.count - e.error <= 200,
        "7 appears exactly 200 times"
    );

    shipper.stop();
    client.shutdown().unwrap();
    drop(client);
    primary_thread.join().unwrap().unwrap();
    sclient.shutdown().unwrap();
    drop(sclient);
    standby_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}
