//! Failover end-to-end: a real `cots-coord` fronting a replica pair
//! (primary shipping its WAL to a standby via `--peer`) plus one plain
//! member. The primary is SIGKILLed mid-stream:
//!
//! * the coordinator's health checks must promote the standby — no
//!   process restarts anywhere — and flip the slot's routing to it;
//! * ingest and queries keep flowing throughout (spillover covers the
//!   promotion window);
//! * after quiescence the federated answers sit inside the
//!   `count ± error` envelope against exact truth, with the loss
//!   bounded by the un-acked WAL tail the standby never received —
//!   visible in `CLUSTER_STATS` as the stable staleness floor and the
//!   slot's `repl_unacked_keys` attribution.

#![cfg(unix)]

mod common;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use common::{await_cluster, cluster_report, reserve_port, spawn, Proc};
use cots_datagen::{ExactCounter, StreamSpec};
use cots_serve::protocol::QueryReq;
use cots_serve::Client;

const PHASE1: usize = 30_000;
const PHASE2: usize = 20_000;
const KILL_AFTER: usize = 8_000; // into phase 2
const PHASE3: usize = 10_000;
const TOTAL: usize = PHASE1 + PHASE2 + PHASE3;
const ALPHABET: usize = 2_000;
const ALPHA: f64 = 1.2;
const SEED: u64 = 7;
const BATCH: usize = 500;

fn spawn_member(addr: &str, data_dir: Option<&Path>, standby: bool, peer: Option<&str>) -> Proc {
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
    if standby {
        args.push("--standby".into());
    }
    if let Some(p) = peer {
        args.push("--peer".into());
        args.push(p.into());
    }
    spawn(env!("CARGO_BIN_EXE_cots-serve"), &args)
}

#[test]
fn primary_sigkill_promotes_standby_without_restarts() {
    let base: PathBuf =
        std::env::temp_dir().join(format!("cots-failover-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let primary_dir = base.join("primary");
    let standby_dir = base.join("standby");
    let full = StreamSpec::zipf(TOTAL, ALPHABET, ALPHA, SEED).generate();

    // The pair needs fixed ports: the primary ships to the standby's
    // address, and the coordinator knows both through its member spec.
    let primary_addr = format!("127.0.0.1:{}", reserve_port());
    let standby_addr = format!("127.0.0.1:{}", reserve_port());
    let standby = spawn_member(&standby_addr, Some(&standby_dir), true, None);
    let mut primary = spawn_member(
        &primary_addr,
        Some(&primary_dir),
        false,
        Some(&standby_addr),
    );
    let plain = spawn_member("127.0.0.1:0", None, false, None);

    let pair_spec = format!("{primary_addr}/{standby_addr}");
    let coord_args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--members",
        &format!("{},{pair_spec}", plain.addr),
        "--capacity",
        "1024",
        "--pull-ms",
        "20",
        "--timeout-ms",
        "500",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let coord = spawn(env!("CARGO_BIN_EXE_cots-coord"), &coord_args);
    let mut client = Client::connect(&coord.addr).unwrap();

    // ---- Phase 1: healthy pair, cluster quiesces to staleness 0. ----
    let mut acked: Vec<u64> = Vec::with_capacity(TOTAL);
    for batch in full[..PHASE1].chunks(BATCH) {
        client.ingest(batch).unwrap();
        acked.extend_from_slice(batch);
    }
    await_cluster(
        &mut client,
        Duration::from_secs(30),
        "phase-1 quiescence",
        |r| r.captured_total == PHASE1 as u64 && r.staleness == 0,
    );
    let healthy = cluster_report(&mut client);
    assert_eq!(healthy.promotions, 0);
    let pair = healthy
        .members
        .iter()
        .find(|m| m.addr == primary_addr)
        .expect("pair slot is reported");
    assert_eq!(pair.standby.as_deref(), Some(standby_addr.as_str()));

    // Let the shipper drain so the pre-kill backlog is fully replicated
    // (the lost tail is then only what the kill itself cuts off).
    let mut pclient = Client::connect(&primary_addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = pclient.stats().unwrap();
        if stats
            .repl
            .as_ref()
            .is_some_and(|r| r.connected && r.unacked_batches == 0)
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shipper never drained: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(pclient);

    // ---- Phase 2: SIGKILL the primary mid-stream. ----
    let mut uncertain: Vec<u64> = Vec::new();
    for (i, batch) in full[PHASE1..PHASE1 + PHASE2].chunks(BATCH).enumerate() {
        if i * BATCH == KILL_AFTER {
            primary.child.kill().unwrap();
            primary.child.wait().unwrap();
        }
        match client.ingest(batch) {
            Ok(_) => acked.extend_from_slice(batch),
            // Delivery uncertain (wire died mid-request): never re-sent,
            // the keys stay inside the staleness bound.
            Err(_) => uncertain.extend_from_slice(batch),
        }
    }
    assert!(
        uncertain.len() <= 3 * BATCH,
        "expected at most a few uncertain batches around the kill, got {} keys",
        uncertain.len()
    );

    // ---- Failover: the standby is promoted, routing flips, and the
    // cluster reports itself healthy again — all without restarting
    // any process. ----
    await_cluster(
        &mut client,
        Duration::from_secs(30),
        "standby promotion",
        |r| r.promotions == 1 && r.degraded_members == 0,
    );
    let promoted = cluster_report(&mut client);
    let slot = promoted
        .members
        .iter()
        .find(|m| m.promotions == 1)
        .expect("promoted slot is reported");
    assert_eq!(slot.addr, standby_addr, "routing flipped to the standby");
    assert_eq!(slot.standby, None, "promoted slot has no standby left");

    // ---- Phase 3: keep streaming into the promoted topology. ----
    for batch in full[PHASE1 + PHASE2..].chunks(BATCH) {
        match client.ingest(batch) {
            Ok(_) => acked.extend_from_slice(batch),
            Err(_) => uncertain.extend_from_slice(batch),
        }
    }

    // Converge to a stable (captured, staleness) floor.
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

    // Loss accounting: every acked key is either captured or inside the
    // staleness bound, nothing was invented, and the permanent floor is
    // a bounded window around the kill (the un-acked WAL tail plus the
    // uncertain batches) — phase 1's replicated mass must have survived
    // wholesale, not be part of the loss.
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
    assert!(
        (staleness as usize) <= uncertain.len() + 12_000,
        "loss is not a bounded window around the kill: staleness {staleness}, \
         uncertain {}",
        uncertain.len()
    );

    // ---- Final envelope vs exact truth. ----
    let sent_truth = ExactCounter::from_stream(&full);
    let acked_truth = ExactCounter::from_stream(&acked);
    let (entries, total, stamp) = client.query(QueryReq::TopK { k: 20 }).unwrap();
    assert_eq!(total, captured);
    assert_eq!(stamp.staleness, staleness);
    assert!(!entries.is_empty());
    for e in &entries {
        let sent_k = sent_truth.count(&e.item);
        assert!(
            e.count - e.error <= sent_k,
            "over-report: key {} guaranteed {} but at most {sent_k} sent",
            e.item,
            e.count - e.error
        );
        let acked_k = acked_truth.count(&e.item);
        assert!(
            acked_k <= e.count + stamp.staleness,
            "under-report: key {} acked {acked_k} but count {} + staleness {} \
             cannot cover it",
            e.item,
            e.count,
            stamp.staleness
        );
    }

    // ---- Teardown. ----
    client.shutdown().unwrap();
    drop(client);
    let mut coord_child = coord.child;
    coord_child.wait().unwrap();
    for proc_ in [plain, standby] {
        let mut child = proc_.child;
        if let Ok(mut down) = Client::connect(&proc_.addr) {
            let _ = down.shutdown();
        }
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&base);
}
