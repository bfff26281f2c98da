//! Kill-and-recover end-to-end: a real `cots-serve` process with
//! `--data-dir` is fed a deterministic Zipf stream, SIGKILLed mid-stream,
//! and restarted on the same directory. The restarted server must come
//! back with everything explicitly checkpointed, report how much tail it
//! lost, and keep every answer inside the envelope implied by that loss:
//!
//! * never over-report: `count − error ≤ sent(k)` for every entry;
//! * bounded loss: `count + lost ≥ sent(k)`, with
//!   `lost = |sent| − recovered_items`;
//! * recall: keys whose sent count clears the threshold even after
//!   deducting the whole lost mass must appear in `frequent(φ)`.
//!
//! Finally the client sends the suffix it owns (`full[KILL_AFTER..]`),
//! proving the recovered server is live and that ingest continues on top
//! of the recovered base.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use cots_core::Threshold;
use cots_datagen::{ExactCounter, StreamSpec};
use cots_serve::loadgen::await_quiescence;
use cots_serve::protocol::QueryReq;
use cots_serve::Client;

const ITEMS_TOTAL: usize = 100_000;
const PHASE1: usize = 60_000;
const KILL_AFTER: usize = 80_000; // acked before SIGKILL
const ALPHABET: usize = 5_000;
const ALPHA: f64 = 1.2;
const SEED: u64 = 77;
const BATCH: usize = 1_000;
const CAPACITY: usize = 512;
const PHI: f64 = 0.01;

struct ServerProc {
    child: Child,
    addr: String,
    recovery_line: Option<String>,
}

fn spawn_server(dir: &Path) -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cots-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--capacity",
            &CAPACITY.to_string(),
            "--checkpoint-ms",
            "300",
            "--fsync",
            "grouped",
        ])
        .arg("--data-dir")
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn cots-serve");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut recovery_line = None;
    let mut addr = None;
    for _ in 0..16 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let line = line.trim().to_string();
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.to_string());
            break;
        }
        if line.starts_with("recovered ") {
            recovery_line = Some(line);
        }
    }
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            if reader.read_line(&mut sink).unwrap_or(0) == 0 {
                break;
            }
        }
    });
    ServerProc {
        child,
        addr: addr.expect("server never printed its listening line"),
        recovery_line,
    }
}

fn temp_data_dir() -> PathBuf {
    std::env::temp_dir().join(format!("cots-kill-recover-{}", std::process::id()))
}

#[test]
fn sigkill_mid_stream_recovers_within_reported_envelope() {
    let dir = temp_data_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let full = StreamSpec::zipf(ITEMS_TOTAL, ALPHABET, ALPHA, SEED).generate();

    // ---- Life 1: ingest, checkpoint, ingest more, die by SIGKILL. ----
    let mut server = spawn_server(&dir);
    assert!(
        server.recovery_line.is_some(),
        "persistent server reports recovery even on an empty directory"
    );
    let mut client = Client::connect(&server.addr).unwrap();
    for batch in full[..PHASE1].chunks(BATCH) {
        client.ingest(batch).unwrap();
    }
    await_quiescence(&mut client, PHASE1 as u64).unwrap();
    let (watermark, total, bytes) = client.checkpoint().unwrap();
    assert!(watermark > 0);
    assert_eq!(
        total, PHASE1 as u64,
        "checkpoint covers the quiesced stream"
    );
    assert!(bytes > 0);

    for batch in full[PHASE1..KILL_AFTER].chunks(BATCH) {
        client.ingest(batch).unwrap();
    }
    // Every batch above was acked (enqueued), but acked ≠ logged: whatever
    // the workers had not drained to the WAL dies with the process here.
    server.child.kill().unwrap();
    server.child.wait().unwrap();
    drop(client);

    // ---- Life 2: recover, quantify the loss, verify the envelope. ----
    let server = spawn_server(&dir);
    let line = server
        .recovery_line
        .clone()
        .expect("recovery summary printed");
    let mut client = Client::connect(&server.addr).unwrap();
    let stats = client.stats().unwrap();
    let rec = stats
        .recovery
        .clone()
        .expect("stats carry the recovery report");
    assert!(
        rec.checkpoint_watermark.is_some(),
        "a checkpoint was durable: {line}"
    );

    let sent = KILL_AFTER as u64;
    let recovered = rec.recovered_items;
    assert!(
        recovered >= PHASE1 as u64,
        "explicitly checkpointed items must survive SIGKILL: {rec:?}"
    );
    assert!(
        recovered <= sent,
        "recovery invented {} items: {rec:?}",
        recovered - sent
    );
    let lost = sent - recovered;

    // The freshly recovered state is published before the listener opens.
    let truth = ExactCounter::from_stream(&full[..KILL_AFTER]);
    let (entries, answer_total, stamp) = client.query(QueryReq::Frequent { phi: PHI }).unwrap();
    assert_eq!(answer_total, recovered);
    assert_eq!(
        stamp.staleness, 0,
        "recovered state publishes synchronously"
    );
    for e in &entries {
        let sent_k = truth.count(&e.item);
        assert!(
            e.count - e.error <= sent_k,
            "over-report after crash: key {} guaranteed {} but only {} sent",
            e.item,
            e.count - e.error,
            sent_k
        );
        assert!(
            e.count + lost >= sent_k,
            "loss exceeds the reported bound: key {} count {} + lost {} < sent {}",
            e.item,
            e.count,
            lost,
            sent_k
        );
    }
    // Recall: deducting the *entire* lost mass from a key still clearing
    // the threshold means it was durably frequent — it must be reported.
    let threshold = Threshold::Fraction(PHI).resolve(recovered);
    for (key, sent_k) in truth.frequent(Threshold::Count(threshold + lost)) {
        assert!(
            entries.iter().any(|e| e.item == key),
            "durably frequent key {key} (sent {sent_k}, lost ≤ {lost}) missing from frequent(φ)"
        );
    }

    // ---- Life 2 continued: the client resumes with the suffix it owns. ----
    let tail = (ITEMS_TOTAL - KILL_AFTER) as u64;
    for batch in full[KILL_AFTER..].chunks(BATCH) {
        client.ingest(batch).unwrap();
    }
    await_quiescence(&mut client, tail).unwrap();

    let (_, final_total, stamp) = client.query(QueryReq::TopK { k: 1 }).unwrap();
    assert_eq!(
        final_total,
        recovered + tail,
        "resumed ingest lands on top of the recovered base"
    );
    assert_eq!(stamp.staleness, 0);

    client.shutdown().unwrap();
    drop(client);
    let mut child = server.child;
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The thread-per-connection front-end and the per-batch WAL writer are
/// gone: asking for them is a usage error (exit 2) that says so, while
/// the surviving spellings are still accepted (the server above starts
/// without them; `cli`'s unit tests cover the no-op spellings).
#[test]
fn removed_flag_values_exit_2_naming_the_removal() {
    for removed in [["--io-model", "threads"], ["--wal-records", "per-batch"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_cots-serve"))
            .args(removed)
            .output()
            .expect("run cots-serve");
        assert_eq!(out.status.code(), Some(2), "{removed:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("removed in PR 13"), "{removed:?}: {stderr}");
    }
}
