//! `repl-bench` — replication cost and failover benchmark for
//! `cots-repl`.
//!
//! Measures what a replica pair costs and what it buys: ingest
//! throughput through a primary that is simultaneously shipping its
//! WAL to a live standby, versus an identical unreplicated server at
//! the same fsync policy; and the failover recovery time from "primary
//! gone" to the *first correct answer* out of the promoted standby.
//! Writes `BENCH_repl.json` at the repo root.
//!
//! ```text
//! repl-bench [--items N] [--batch B] [--alphabet A] [--alpha Z] [--seed S]
//!            [--capacity C] [--connections K] [--shards S] [--queue-batches Q]
//!            [--fsync always|grouped|off] [--repeats R]
//!            [--parity-floor 0.7] [--rto-secs 2.0]
//! ```
//!
//! Three gates, all fatal:
//! * **parity** — pair ingest ≥ `--parity-floor` (default 0.7×) of the
//!   unreplicated baseline. Shipping rides the already-committed WAL,
//!   so its cost is one tailer read plus one socket write per batch —
//!   it must not halve the primary.
//! * **RTO** — after the primary is gone, `REPL_PROMOTE` to first
//!   *correct* answer (all shipped mass applied, staleness 0, answers
//!   inside the envelope) within `--rto-secs` (default 2 s).
//! * **accuracy** — the promoted standby's answers sit inside
//!   `count ≥ true ≥ count − error` against exact ground truth over
//!   the acked stream, and every sufficiently heavy exact hitter is
//!   monitored.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cots_core::json::{Json, ToJson};
use cots_core::Threshold;
use cots_datagen::{ExactCounter, StreamSpec};
use cots_persist::FsyncPolicy;
use cots_repl::{spawn as spawn_shipper, ShipperConfig};
use cots_serve::loadgen::{self, LoadConfig};
use cots_serve::persistence::PersistOptions;
use cots_serve::protocol::QueryReq;
use cots_serve::{Client, LoadReport, Request, Response, Server, ServiceConfig};

struct BenchArgs {
    items: u64,
    batch: usize,
    alphabet: usize,
    alpha: f64,
    seed: u64,
    capacity: usize,
    connections: usize,
    shards: usize,
    queue_batches: usize,
    fsync: FsyncPolicy,
    repeats: usize,
    parity_floor: f64,
    rto_secs: f64,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            items: 800_000,
            batch: 4_096,
            alphabet: 50_000,
            alpha: 1.5,
            seed: 42,
            capacity: 1_000,
            connections: 4,
            shards: 1,
            queue_batches: 2,
            fsync: FsyncPolicy::Always,
            repeats: 3,
            parity_floor: 0.7,
            rto_secs: 2.0,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: repl-bench [--items N] [--batch B] [--alphabet A] [--alpha Z] [--seed S] \
         [--capacity C] [--connections K] [--shards S] [--queue-batches Q] \
         [--fsync always|grouped|off] [--repeats R] [--parity-floor F] [--rto-secs S]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(raw) = value else {
        eprintln!("{flag} needs a value");
        usage();
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse `{raw}`");
        usage();
    })
}

fn bench_args() -> BenchArgs {
    let mut a = BenchArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--items" => a.items = parse("--items", args.next()),
            "--batch" => a.batch = parse("--batch", args.next()),
            "--alphabet" => a.alphabet = parse("--alphabet", args.next()),
            "--alpha" => a.alpha = parse("--alpha", args.next()),
            "--seed" => a.seed = parse("--seed", args.next()),
            "--capacity" => a.capacity = parse("--capacity", args.next()),
            "--connections" => a.connections = parse("--connections", args.next()),
            "--shards" => a.shards = parse("--shards", args.next()),
            "--queue-batches" => a.queue_batches = parse("--queue-batches", args.next()),
            "--fsync" => a.fsync = parse("--fsync", args.next()),
            "--repeats" => a.repeats = parse("--repeats", args.next()),
            "--parity-floor" => a.parity_floor = parse("--parity-floor", args.next()),
            "--rto-secs" => a.rto_secs = parse("--rto-secs", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    if a.items == 0 || a.batch == 0 || a.capacity == 0 || a.connections == 0 || a.repeats == 0 {
        eprintln!("--items, --batch, --capacity, --connections and --repeats must be positive");
        usage();
    }
    a
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the repo root")
        .to_path_buf()
}

fn bind_node(a: &BenchArgs, dir: PathBuf, standby: bool, peer: Option<String>) -> Result<Server, String> {
    let mut persist = PersistOptions::new(dir);
    persist.fsync = a.fsync;
    // Keep checkpoints out of the measured window.
    persist.checkpoint_every = Duration::from_secs(120);
    Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            shards: a.shards,
            capacity: a.capacity,
            refresh: Duration::from_millis(5),
            queue_batches: a.queue_batches,
            persist: Some(persist),
            standby,
            repl_peer: peer,
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind node: {e}"))
}

struct Node {
    addr: String,
    service: Arc<cots_serve::Service>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

fn start_node(a: &BenchArgs, tag: &str, standby: bool, peer: Option<String>) -> Result<Node, String> {
    let dir = std::env::temp_dir()
        .join(format!("cots-repl-bench-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let server = bind_node(a, dir.clone(), standby, peer)?;
    let addr = server.local_addr().to_string();
    let service = server.service().clone();
    Ok(Node {
        addr,
        service,
        thread: std::thread::spawn(move || server.run()),
        dir,
    })
}

fn stop_node(node: Node) -> Result<(), String> {
    Client::connect(&node.addr)
        .map_err(cots_core::CotsError::from)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("node shutdown: {e}"))?;
    match node.thread.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("node: {e}")),
        Err(_) => return Err("node thread panicked".into()),
    }
    let _ = std::fs::remove_dir_all(&node.dir);
    Ok(())
}

fn drive(a: &BenchArgs, addr: &str, check: bool) -> Result<LoadReport, String> {
    loadgen::run(&LoadConfig {
        addr: addr.to_string(),
        items: a.items,
        alphabet: a.alphabet,
        alpha: a.alpha,
        seed: a.seed,
        resume_from: 0,
        batch: a.batch,
        connections: a.connections,
        qps: 0,
        phi: 0.01,
        check,
    })
    .map_err(|e| format!("load: {e}"))
}

/// The unreplicated baseline: one durable server, no shipping.
fn direct_pass(a: &BenchArgs, rep: usize, check: bool) -> Result<LoadReport, String> {
    let node = start_node(a, &format!("direct-{rep}"), false, None)?;
    let result = drive(a, &node.addr, check);
    let stopped = stop_node(node);
    let report = result?;
    stopped?;
    Ok(report)
}

/// Failover measurement: primary is gone, `REPL_PROMOTE` fires, and
/// the clock runs until the promoted standby's answer is *correct* —
/// all `expected` items applied, staleness 0.
fn measure_rto(standby_addr: &str, expected: u64, deadline: Duration) -> Result<f64, String> {
    let mut client = Client::connect(standby_addr).map_err(|e| format!("connect standby: {e}"))?;
    let t0 = Instant::now();
    match client
        .call(&Request::ReplPromote)
        .map_err(|e| format!("promote: {e}"))?
    {
        Response::ReplAck { .. } => {}
        other => return Err(format!("promote refused: {other:?}")),
    }
    loop {
        let (_, total, stamp) = client
            .query(QueryReq::TopK { k: 1 })
            .map_err(|e| format!("standby query: {e}"))?;
        if total == expected && stamp.staleness == 0 {
            return Ok(t0.elapsed().as_secs_f64());
        }
        if t0.elapsed() > deadline {
            return Err(format!(
                "promoted standby never served a correct answer: total {total}/{expected}, \
                 staleness {}",
                stamp.staleness
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Envelope + coverage check of the promoted standby against exact
/// ground truth over the acked stream.
fn check_accuracy(a: &BenchArgs, standby_addr: &str) -> Result<(), String> {
    let stream = StreamSpec::zipf(a.items as usize, a.alphabet, a.alpha, a.seed).generate();
    let exact = ExactCounter::from_stream(&stream);
    let mut client = Client::connect(standby_addr).map_err(|e| format!("connect standby: {e}"))?;
    let (entries, total, _) = client
        .query(QueryReq::TopK { k: 50 })
        .map_err(|e| format!("standby query: {e}"))?;
    if total != a.items {
        return Err(format!("standby total {total} != streamed {}", a.items));
    }
    for e in &entries {
        let truth = exact.count(&e.item);
        if !(e.count >= truth && truth >= e.count - e.error) {
            return Err(format!(
                "envelope violated for {}: count={} error={} truth={truth}",
                e.item, e.count, e.error
            ));
        }
    }
    // Every exact hitter above 1% of the mass must be monitored and
    // inside the envelope (the summary holds `capacity` counters; a
    // 1%-heavy key cannot have been evicted).
    let hitters = exact.frequent(Threshold::Fraction(0.01));
    if hitters.is_empty() {
        return Err("no exact hitter crossed 1% — accuracy check checked nothing".into());
    }
    for (key, truth) in hitters {
        let (point, _, _) = client
            .query(QueryReq::Point { key })
            .map_err(|e| format!("standby point: {e}"))?;
        let Some(e) = point.first() else {
            return Err(format!("heavy key {key} (exact {truth}) is not monitored"));
        };
        if !(e.count >= truth && truth >= e.count - e.error) {
            return Err(format!(
                "envelope violated for heavy key {key}: count={} error={} truth={truth}",
                e.count, e.error
            ));
        }
    }
    Ok(())
}

struct PairOutcome {
    report: LoadReport,
    rto_secs: Option<f64>,
    accuracy_ok: Option<bool>,
}

/// One pair pass: standby + primary + live WAL shipper, one measured
/// load run; on the failover repeat the primary is then torn down and
/// the promotion clock runs.
fn pair_pass(a: &BenchArgs, rep: usize, failover: bool) -> Result<PairOutcome, String> {
    let standby = start_node(a, &format!("pair-{rep}-standby"), true, None)?;
    let primary = start_node(
        a,
        &format!("pair-{rep}-primary"),
        false,
        Some(standby.addr.clone()),
    )?;
    let mut cfg = ShipperConfig::new(standby.addr.clone());
    cfg.poll_interval = Duration::from_millis(2);
    let shipper =
        spawn_shipper(primary.service.clone(), cfg).map_err(|e| format!("shipper: {e}"))?;

    let result = drive(a, &primary.addr, failover);

    // Let the shipper drain so the standby holds the full stream; the
    // drain window is honest replication lag, but the RTO measured
    // below starts at "primary gone", not "stream sent".
    let drained = (|| -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let stats = primary.service.stats();
            if stats
                .repl
                .as_ref()
                .is_some_and(|r| r.connected && r.unacked_batches == 0)
                && stats.applied_keys() == a.items
            {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("shipper never drained: {:?}", stats.repl));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    })();

    shipper.stop();
    let report = result?;
    drained?;

    if !failover {
        stop_node(primary)?;
        stop_node(standby)?;
        return Ok(PairOutcome {
            report,
            rto_secs: None,
            accuracy_ok: None,
        });
    }

    // Failover: the primary goes away first, then the standby is
    // promoted and must serve a correct, accurate answer.
    stop_node(primary)?;
    let rto = measure_rto(
        &standby.addr,
        a.items,
        Duration::from_secs_f64(a.rto_secs.max(1.0) * 10.0),
    )?;
    let accuracy = check_accuracy(a, &standby.addr);
    stop_node(standby)?;
    let accuracy_ok = match accuracy {
        Ok(()) => true,
        Err(e) => {
            eprintln!("repl-bench: accuracy check failed: {e}");
            false
        }
    };
    Ok(PairOutcome {
        report,
        rto_secs: Some(rto),
        accuracy_ok: Some(accuracy_ok),
    })
}

fn main() {
    let a = bench_args();
    println!(
        "repl-bench: items={} batch={} alphabet={} alpha={} capacity={} connections={} \
         fsync={:?} repeats={}",
        a.items, a.batch, a.alphabet, a.alpha, a.capacity, a.connections, a.fsync, a.repeats
    );

    println!("unreplicated baseline:");
    let mut direct_best: Option<LoadReport> = None;
    let mut checks_passed = true;
    for rep in 0..a.repeats {
        let check = rep + 1 == a.repeats;
        let mut report = match direct_pass(&a, rep, check) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("repl-bench: baseline failed: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "  direct repeat {}/{}: {:.3} M items/s ({:.2}s)",
            rep + 1,
            a.repeats,
            report.meps,
            report.elapsed_secs
        );
        if let Some(c) = report.check.take() {
            checks_passed &= c.passed;
        }
        if direct_best.as_ref().map_or(true, |b| report.meps > b.meps) {
            direct_best = Some(report);
        }
    }
    let direct = direct_best.expect("repeats >= 1");

    println!("replicated pair (primary shipping to a live standby):");
    let mut pair_best: Option<LoadReport> = None;
    let mut rto_secs = None;
    let mut accuracy_ok = None;
    for rep in 0..a.repeats {
        let failover = rep + 1 == a.repeats;
        let outcome = match pair_pass(&a, rep, failover) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("repl-bench: pair pass failed: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "  pair repeat {}/{}: {:.3} M items/s ({:.2}s){}",
            rep + 1,
            a.repeats,
            outcome.report.meps,
            outcome.report.elapsed_secs,
            outcome
                .rto_secs
                .map_or(String::new(), |r| format!(", failover RTO {:.3}s", r))
        );
        let mut report = outcome.report;
        if let Some(c) = report.check.take() {
            checks_passed &= c.passed;
        }
        if pair_best.as_ref().map_or(true, |b| report.meps > b.meps) {
            pair_best = Some(report);
        }
        rto_secs = rto_secs.or(outcome.rto_secs);
        accuracy_ok = accuracy_ok.or(outcome.accuracy_ok);
    }
    let pair = pair_best.expect("repeats >= 1");
    let rto = rto_secs.expect("failover repeat ran");
    let accuracy = accuracy_ok.expect("failover repeat ran");

    let parity_ratio = if direct.meps > 0.0 {
        pair.meps / direct.meps
    } else {
        0.0
    };
    let parity_ok = parity_ratio >= a.parity_floor;
    let rto_ok = rto <= a.rto_secs;
    let passed = parity_ok && rto_ok && accuracy && checks_passed;

    let fsync_name = match a.fsync {
        FsyncPolicy::Always => "always",
        FsyncPolicy::Grouped => "grouped",
        FsyncPolicy::Off => "off",
    };
    let report = Json::obj(vec![
        ("items", a.items.to_json()),
        ("batch", a.batch.to_json()),
        ("alphabet", a.alphabet.to_json()),
        ("alpha", a.alpha.to_json()),
        ("seed", a.seed.to_json()),
        ("capacity", a.capacity.to_json()),
        ("connections", a.connections.to_json()),
        ("shards", a.shards.to_json()),
        ("queue_batches", a.queue_batches.to_json()),
        ("fsync", fsync_name.to_json()),
        ("repeats", a.repeats.to_json()),
        ("direct", direct.to_json()),
        ("pair", pair.to_json()),
        (
            "gate",
            Json::obj(vec![
                ("parity_ratio", parity_ratio.to_json()),
                ("parity_floor", a.parity_floor.to_json()),
                ("rto_secs", rto.to_json()),
                ("rto_bound_secs", a.rto_secs.to_json()),
                ("accuracy_ok", accuracy.to_json()),
                ("checks_passed", checks_passed.to_json()),
                ("passed", passed.to_json()),
            ]),
        ),
    ]);
    let out_path = repo_root().join("BENCH_repl.json");
    if let Err(e) = std::fs::write(&out_path, report.pretty()) {
        eprintln!("repl-bench: cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", out_path.display());
    println!(
        "direct {:.3} M items/s | pair {:.3} | parity {parity_ratio:.3} (floor {}) {} | \
         RTO {rto:.3}s (bound {}s) {} | accuracy {} => {}",
        direct.meps,
        pair.meps,
        a.parity_floor,
        if parity_ok { "OK" } else { "FAIL" },
        a.rto_secs,
        if rto_ok { "OK" } else { "FAIL" },
        if accuracy { "PASS" } else { "FAIL" },
        if passed { "PASS" } else { "FAIL" }
    );
    if !passed {
        eprintln!("repl-bench: gate failed");
        std::process::exit(1);
    }
}
