//! Cluster end-to-end: a real `cots-coord` process fronting two real
//! `cots-serve` members over loopback. One member runs with a
//! durable WAL (`--fsync always`) and is SIGKILLed mid-stream:
//!
//! * the coordinator must keep answering (degraded mode, no panic),
//!   report the member as degraded in `CLUSTER_STATS`, and keep
//!   accepting ingest by spilling the dead member's keys to the
//!   survivor;
//! * the killed member must rejoin on the same port after recovering
//!   its checkpoint + WAL tail, after which the cluster converges to a
//!   *stable* staleness floor (never zero after a crash — the floor is
//!   the acked-but-lost tail) with every answer inside the envelope
//!   `count − error ≤ sent(k)` and `acked(k) ≤ count + staleness`.
//!
//! Batches the coordinator answered with an error (delivery uncertain:
//! the wire died after part of the batch was forwarded) are tracked
//! separately — their keys count toward the upper truth (they may have
//! been partially delivered) but not toward the acked lower bound.

#![cfg(unix)]

mod common;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use common::{await_cluster, cluster_report, reserve_port, spawn, Proc};
use cots_datagen::{ExactCounter, StreamSpec};
use cots_serve::cluster::fetch::{fetch_snapshot, Fetched};
use cots_serve::protocol::QueryReq;
use cots_serve::Client;

const PHASE1: usize = 30_000;
const PHASE2: usize = 20_000;
const KILL_AFTER: usize = 8_000; // into phase 2
const PHASE3: usize = 10_000;
const TOTAL: usize = PHASE1 + PHASE2 + PHASE3;
const ALPHABET: usize = 2_000;
const ALPHA: f64 = 1.2;
const SEED: u64 = 42;
const BATCH: usize = 500;
const PHI: f64 = 0.01;
const COALESCE_KEYS: u64 = 1_024;

fn spawn_member(addr: &str, data_dir: Option<&Path>) -> Proc {
    let mut args: Vec<String> = [
        "--addr",
        addr,
        "--shards",
        "2",
        "--capacity",
        "512",
        "--refresh-ms",
        "10",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(dir) = data_dir {
        args.push("--data-dir".into());
        args.push(dir.display().to_string());
        args.push("--fsync".into());
        args.push("always".into());
        args.push("--checkpoint-ms".into());
        args.push("300".into());
    }
    spawn(env!("CARGO_BIN_EXE_cots-serve"), &args)
}

fn spawn_coord(members: &[&str]) -> Proc {
    let args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--members",
        &members.join(","),
        "--capacity",
        "1024",
        "--pull-ms",
        "20",
        // Coalescing on (`failover_e2e` runs with it off): BATCH-key
        // frames split over two members cross both the threshold flush
        // and the read/stats barrier flush.
        "--coalesce-keys",
        &COALESCE_KEYS.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    spawn(env!("CARGO_BIN_EXE_cots-coord"), &args)
}

#[test]
fn member_sigkill_degrades_then_rejoins_and_converges() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("cots-cluster-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let full = StreamSpec::zipf(TOTAL, ALPHABET, ALPHA, SEED).generate();

    // Member A is ephemeral; member B is durable and will be killed.
    let member_a = spawn_member("127.0.0.1:0", None);
    let b_port = reserve_port();
    let b_addr = format!("127.0.0.1:{b_port}");
    let member_b = spawn_member(&b_addr, Some(&dir));
    let coord = spawn_coord(&[&member_a.addr, &member_b.addr]);
    let mut client = Client::connect(&coord.addr).unwrap();

    // ---- Phase 1: healthy cluster quiesces to staleness 0. ----
    let mut acked: Vec<u64> = Vec::with_capacity(TOTAL);
    for batch in full[..PHASE1].chunks(BATCH) {
        client.ingest(batch).unwrap();
        acked.extend_from_slice(batch);
    }
    // No read has crossed the coordinator connection yet, so only the
    // threshold flush has delivered anything: in frames of at least
    // `--coalesce-keys` keys, with the remainder acked but still
    // buffered until the first barrier (the CLUSTER_STATS below).
    let (mut delivered, mut frames) = (0, 0);
    for member in [&member_a, &member_b] {
        let stats = Client::connect(&member.addr).unwrap().stats().unwrap();
        delivered += stats.ingested_keys;
        frames += stats.ingest_frames;
    }
    assert!(
        frames > 0 && delivered >= frames * COALESCE_KEYS && delivered < PHASE1 as u64,
        "threshold flush: {delivered} keys in {frames} frames"
    );
    await_cluster(
        &mut client,
        Duration::from_secs(30),
        "phase-1 quiescence",
        |r| r.captured_total == PHASE1 as u64 && r.staleness == 0,
    );
    let healthy = cluster_report(&mut client);
    assert_eq!(healthy.members.len(), 2);
    assert_eq!(healthy.degraded_members, 0);
    assert_eq!(healthy.forwarded_keys, PHASE1 as u64);

    // The streamed federated snapshot matches the one-shot answer path.
    let mut pager = Client::connect(&coord.addr).unwrap();
    match fetch_snapshot(&mut pager, 0).unwrap() {
        Fetched::Changed(fetched) => {
            assert_eq!(fetched.captured_total, PHASE1 as u64);
            assert_eq!(fetched.snapshot.total(), PHASE1 as u64);
        }
        Fetched::Unchanged { stamp } => panic!("fresh pull short-circuited: {stamp:?}"),
    }
    drop(pager);

    // ---- Phase 2: SIGKILL the durable member mid-stream. ----
    let mut uncertain: Vec<u64> = Vec::new();
    let mut member_b = member_b;
    let mut offset = PHASE1;
    for (i, batch) in full[PHASE1..PHASE1 + PHASE2].chunks(BATCH).enumerate() {
        if i * BATCH == KILL_AFTER {
            member_b.child.kill().unwrap();
            member_b.child.wait().unwrap();
        }
        match client.ingest(batch) {
            // Fully acked: every partition was delivered exactly once.
            Ok(_) => acked.extend_from_slice(batch),
            // Delivery uncertain: the wire to a member died after part
            // of the batch went out. The coordinator must NOT re-send
            // (that would double-count), so the client treats the whole
            // batch as slack: maybe-delivered, never acked.
            Err(_) => uncertain.extend_from_slice(batch),
        }
        offset += batch.len();
    }
    assert_eq!(offset, PHASE1 + PHASE2);
    // Whether any batch lands in the uncertain window depends on which
    // side notices the death first (the in-flight forward, or the
    // puller marking the member down so later batches spill cleanly) —
    // but it must stay a window, not a flood.
    assert!(
        uncertain.len() <= 3 * BATCH,
        "expected at most a few uncertain batches around the kill, got {} keys",
        uncertain.len()
    );

    // Degraded mode: the dead member is reported, answers keep coming.
    await_cluster(
        &mut client,
        Duration::from_secs(10),
        "degraded detection",
        |r| r.degraded_members == 1,
    );
    let degraded = cluster_report(&mut client);
    let dead: Vec<_> = degraded.members.iter().filter(|m| !m.healthy).collect();
    assert_eq!(dead.len(), 1);
    assert_eq!(
        dead[0].addr, b_addr,
        "the killed member is the degraded one"
    );
    for _ in 0..3 {
        let (entries, total, stamp) = client.query(QueryReq::TopK { k: 10 }).unwrap();
        assert!(!entries.is_empty(), "degraded cluster still answers");
        assert!(total > 0);
        assert!(
            stamp.captured_total + stamp.staleness >= acked.len() as u64,
            "degraded envelope accounts for every acked key"
        );
    }

    // ---- Rejoin: restart member B on the same port and directory. ----
    let member_b = spawn_member(&b_addr, Some(&dir));
    let line = member_b
        .recovery_line
        .clone()
        .expect("restarted member reports recovery");
    assert!(line.starts_with("recovered "), "recovery line: {line}");
    await_cluster(&mut client, Duration::from_secs(30), "member rejoin", |r| {
        r.degraded_members == 0
    });

    // ---- Phase 3: keep streaming, then converge to a stable floor. ----
    for batch in full[PHASE1 + PHASE2..].chunks(BATCH) {
        match client.ingest(batch) {
            Ok(_) => acked.extend_from_slice(batch),
            Err(_) => uncertain.extend_from_slice(batch),
        }
    }
    // Convergence: the (captured, staleness) pair stops moving. The
    // floor is whatever mass died in B's queues — with `--fsync always`
    // it is small, but it is NOT required to be zero.
    let mut floor = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stable = 0;
    while stable < 10 {
        let r = cluster_report(&mut client);
        let pair = (r.captured_total, r.staleness);
        if floor == Some(pair) {
            stable += 1;
        } else {
            floor = Some(pair);
            stable = 0;
        }
        assert!(
            Instant::now() < deadline,
            "cluster never converged to a stable floor: {r:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let (captured, staleness) = floor.unwrap();
    let report = cluster_report(&mut client);
    assert_eq!(report.degraded_members, 0, "converged cluster is healthy");
    assert!(
        captured + staleness >= acked.len() as u64,
        "acked mass escaped the envelope: captured {captured} + staleness {staleness} \
         < acked {}",
        acked.len()
    );
    assert!(
        captured <= (acked.len() + uncertain.len()) as u64,
        "cluster captured {captured} keys but only {} were even sent",
        acked.len() + uncertain.len()
    );

    // ---- Final envelope vs exact truth. ----
    let sent_truth = ExactCounter::from_stream(&full[..PHASE1 + PHASE2 + PHASE3]);
    let acked_truth = ExactCounter::from_stream(&acked);
    let (entries, total, stamp) = client.query(QueryReq::Frequent { phi: PHI }).unwrap();
    assert_eq!(total, captured);
    assert_eq!(stamp.staleness, staleness);
    assert!(!entries.is_empty());
    for e in &entries {
        let sent_k = sent_truth.count(&e.item);
        assert!(
            e.count - e.error <= sent_k,
            "over-report: key {} guaranteed {} but at most {} sent",
            e.item,
            e.count - e.error,
            sent_k
        );
        let acked_k = acked_truth.count(&e.item);
        assert!(
            acked_k <= e.count + stamp.staleness,
            "under-report: key {} acked {} but count {} + staleness {} cannot cover it",
            e.item,
            acked_k,
            e.count,
            stamp.staleness
        );
    }

    // ---- Teardown. ----
    client.shutdown().unwrap();
    drop(client);
    let mut coord_child = coord.child;
    coord_child.wait().unwrap();
    for proc_ in [member_a, member_b] {
        let mut child = proc_.child;
        if let Ok(mut down) = Client::connect(&proc_.addr) {
            let _ = down.shutdown();
        }
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A member is `cots-serve`, the removals included: the removed values
/// exit 2 naming the removal, and `--peer` without `--data-dir` is a
/// usage error. The coordinator refuses a zero member timeout the same
/// way: it would turn member timeouts off.
#[test]
fn member_and_coordinator_refuse_bad_command_lines() {
    let run = |bin: &str, args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("run the binary");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let serve = env!("CARGO_BIN_EXE_cots-serve");
    for removed in [["--io-model", "threads"], ["--wal-records", "per-batch"]] {
        let (code, stderr) = run(serve, &removed);
        assert_eq!(code, Some(2), "{removed:?}");
        assert!(stderr.contains("removed in PR 13"), "{removed:?}: {stderr}");
    }
    let (code, stderr) = run(
        serve,
        &[
            "--queue-batches",
            "8",
            "--io-model",
            "reactor",
            "--peer",
            "127.0.0.1:1",
        ],
    );
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--peer needs --data-dir"), "{stderr}");
    let coord = env!("CARGO_BIN_EXE_cots-coord");
    let (code, stderr) = run(coord, &["--members", "127.0.0.1:1", "--timeout-ms", "0"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--timeout-ms must be positive"), "{stderr}");
}
