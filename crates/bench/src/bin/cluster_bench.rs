//! `cluster-bench` — federation scaling benchmark for `cots-cluster`.
//!
//! Measures end-to-end ingest throughput (first frame to *all items
//! applied on every member*) through one in-process `cots-coord`
//! coordinator fronting 1, 2, and 4 in-process members over loopback,
//! and writes `BENCH_cluster.json` at the repo root.
//!
//! ```text
//! cluster-bench [--items N] [--batch B] [--alphabet A] [--alpha Z]
//!               [--capacity C] [--connections K] [--shards S] [--queue-batches Q]
//!               [--coalesce K] [--repeats R] [--scaling-floor F] [--parity-floor F]
//! ```
//!
//! Every member runs with a durable WAL at `--fsync always`, which is
//! the deployment the cluster exists for: each member's worker blocks
//! on an fsync per drain group, and those stalls overlap *across*
//! members while a single member must eat them serially. That overlap
//! is measurable even on a single-core host — the paper's thesis
//! (parallelism hides per-partition stalls) applied to durability
//! instead of CPU.
//!
//! Two gates, both fatal:
//! * **scaling** — 2-member throughput ≥ `--scaling-floor` (default
//!   1.5×) the 1-member coordinator throughput;
//! * **parity** — the coordinator fronting a single member must reach
//!   `--parity-floor` (default 0.7×) of a *direct* single server with
//!   identical durability, and the final federated answer check
//!   against exact ground truth must pass at every point.
//!
//! The 4-member point is recorded but not gating: on small hosts the
//! extra wire hops eventually outweigh additional overlap, which is
//! honest data worth keeping, not a regression.

use std::path::{Path, PathBuf};
use std::time::Duration;

use cots_core::json::{Json, ToJson};
use cots_serve::loadgen::{self, LoadConfig};
use cots_serve::persistence::PersistOptions;
use cots_serve::{Client, IoConfig, LoadReport, Server, ServiceConfig};

use cots_cluster::{CoordConfig, CoordServer};
use cots_persist::FsyncPolicy;

/// Member counts visited, in order. 1 doubles as the scaling baseline.
const MEMBER_POINTS: [usize; 3] = [1, 2, 4];

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
    coalesce: usize,
    repeats: usize,
    scaling_floor: f64,
    parity_floor: f64,
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
            coalesce: 8_192,
            repeats: 3,
            scaling_floor: 1.5,
            parity_floor: 0.7,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cluster-bench [--items N] [--batch B] [--alphabet A] [--alpha Z] \
         [--seed S] [--capacity C] [--connections K] [--shards S] [--queue-batches Q] \
         [--coalesce K] [--repeats R] [--scaling-floor F] [--parity-floor F]"
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
            "--coalesce" => a.coalesce = parse("--coalesce", args.next()),
            "--repeats" => a.repeats = parse("--repeats", args.next()),
            "--scaling-floor" => a.scaling_floor = parse("--scaling-floor", args.next()),
            "--parity-floor" => a.parity_floor = parse("--parity-floor", args.next()),
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

/// The repo root: two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the repo root")
        .to_path_buf()
}

/// Bind one durable member on an ephemeral loopback port.
fn bind_member(a: &BenchArgs, dir: PathBuf) -> Result<Server, String> {
    let mut persist = PersistOptions::new(dir);
    persist.fsync = FsyncPolicy::Always;
    // Keep checkpoints out of the measured window; the WAL alone
    // carries durability for a run this short.
    persist.checkpoint_every = Duration::from_secs(120);
    Server::bind_with(
        "127.0.0.1:0",
        ServiceConfig {
            shards: a.shards,
            capacity: a.capacity,
            refresh: Duration::from_millis(10),
            queue_batches: a.queue_batches,
            persist: Some(persist),
            ..Default::default()
        },
        IoConfig::default(),
    )
    .map_err(|e| format!("bind member: {e}"))
}

/// A started member: its server thread and its scratch directory.
struct MemberProc {
    addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

fn start_members(a: &BenchArgs, n: usize, pass: &str) -> Result<Vec<MemberProc>, String> {
    let scratch = std::env::temp_dir().join(format!("cots-cluster-bench-{}", std::process::id()));
    let mut members = Vec::with_capacity(n);
    for i in 0..n {
        let dir = scratch.join(format!("{pass}-m{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let server = bind_member(a, dir.clone())?;
        let addr = server.local_addr().to_string();
        members.push(MemberProc {
            addr,
            thread: std::thread::spawn(move || server.run()),
            dir,
        });
    }
    Ok(members)
}

/// Shut down and join a set of members, removing their scratch dirs.
fn stop_members(members: Vec<MemberProc>) -> Result<(), String> {
    for m in members {
        Client::connect(&m.addr)
            .map_err(cots_core::CotsError::from)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("member shutdown: {e}"))?;
        match m.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("member: {e}")),
            Err(_) => return Err("member thread panicked".into()),
        }
        let _ = std::fs::remove_dir_all(&m.dir);
    }
    Ok(())
}

/// Drive one load run against `addr` and return the report.
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

/// One coordinator pass at `n` members: fresh members, fresh
/// coordinator, one measured load run, clean teardown.
fn coord_pass(a: &BenchArgs, n: usize, rep: usize, check: bool) -> Result<LoadReport, String> {
    let members = start_members(a, n, &format!("c{n}r{rep}"))?;
    let config = CoordConfig {
        members: members.iter().map(|m| m.addr.clone()).collect(),
        capacity: a.capacity,
        pull_interval: Duration::from_millis(20),
        coalesce_keys: a.coalesce,
        ..Default::default()
    };
    let coord = CoordServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind coord: {e}"))?;
    let addr = coord.local_addr().to_string();
    let coord_thread = std::thread::spawn(move || coord.run());

    let result = drive(a, &addr, check);

    let stop = Client::connect(&addr)
        .map_err(cots_core::CotsError::from)
        .and_then(|mut c| c.shutdown());
    let joined = coord_thread.join();
    let stopped = stop_members(members);
    let report = result?;
    stop.map_err(|e| format!("coord shutdown: {e}"))?;
    match joined {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("coord: {e}")),
        Err(_) => return Err("coord thread panicked".into()),
    }
    stopped?;
    Ok(report)
}

/// The no-coordinator baseline: the same durable member driven directly.
fn direct_pass(a: &BenchArgs, rep: usize, check: bool) -> Result<LoadReport, String> {
    let mut members = start_members(a, 1, &format!("d{rep}"))?;
    let addr = members[0].addr.clone();
    let result = drive(a, &addr, check);
    let stopped = stop_members(std::mem::take(&mut members));
    let report = result?;
    stopped?;
    Ok(report)
}

/// Best-of-`repeats` by throughput; the exact-truth check runs on the
/// last repeat only (it replays the stream into an exact counter).
fn best_of<F>(a: &BenchArgs, label: &str, mut pass: F) -> Result<LoadReport, String>
where
    F: FnMut(usize, bool) -> Result<LoadReport, String>,
{
    let mut best: Option<LoadReport> = None;
    let mut checked = None;
    for rep in 0..a.repeats {
        let mut report = pass(rep, rep + 1 == a.repeats)?;
        println!(
            "  {label} repeat {}/{}: {:.3} M items/s ({:.2}s, {} retries)",
            rep + 1,
            a.repeats,
            report.meps,
            report.elapsed_secs,
            report.overload_retries
        );
        if let Some(c) = report.check.take() {
            if !c.passed {
                println!(
                    "  {label} CHECK FAILED: {} truly frequent, {} reported, {} missed, \
                     {} bound violations",
                    c.truly_frequent, c.reported, c.missed, c.bound_violations
                );
            }
            checked = Some(c);
        }
        if best.as_ref().map_or(true, |b| report.meps > b.meps) {
            best = Some(report);
        }
    }
    let mut best = best.ok_or_else(|| String::from("repeats >= 1"))?;
    best.check = checked;
    Ok(best)
}

fn main() {
    let a = bench_args();
    println!(
        "cluster-bench: items={} batch={} alphabet={} alpha={} capacity={} connections={} \
         queue-batches={} repeats={} (members at --fsync always)",
        a.items, a.batch, a.alphabet, a.alpha, a.capacity, a.connections, a.queue_batches, a.repeats
    );

    println!("direct baseline (no coordinator):");
    let direct = match best_of(&a, "direct", |rep, check| direct_pass(&a, rep, check)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cluster-bench: direct baseline failed: {e}");
            std::process::exit(1);
        }
    };

    let mut points = Vec::new();
    let mut by_members = std::collections::BTreeMap::new();
    let mut checks_passed = direct.check.as_ref().is_some_and(|c| c.passed);
    for n in MEMBER_POINTS {
        println!("coordinator fronting {n} member(s):");
        let report = match best_of(&a, &format!("{n}m"), |rep, check| {
            coord_pass(&a, n, rep, check)
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cluster-bench: {n}-member pass failed: {e}");
                std::process::exit(1);
            }
        };
        checks_passed &= report.check.as_ref().is_some_and(|c| c.passed);
        by_members.insert(n, report.meps);
        points.push(Json::obj(vec![
            ("members", n.to_json()),
            ("report", report.to_json()),
        ]));
    }

    let one = by_members.get(&1).copied().unwrap_or(0.0);
    let two = by_members.get(&2).copied().unwrap_or(0.0);
    let scaling_ratio = if one > 0.0 { two / one } else { 0.0 };
    let parity_ratio = if direct.meps > 0.0 {
        one / direct.meps
    } else {
        0.0
    };
    let scaling_ok = scaling_ratio >= a.scaling_floor;
    let parity_ok = parity_ratio >= a.parity_floor;
    let passed = scaling_ok && parity_ok && checks_passed;

    let report = Json::obj(vec![
        ("items", a.items.to_json()),
        ("batch", a.batch.to_json()),
        ("alphabet", a.alphabet.to_json()),
        ("alpha", a.alpha.to_json()),
        ("seed", a.seed.to_json()),
        ("capacity", a.capacity.to_json()),
        ("connections", a.connections.to_json()),
        ("shards", a.shards.to_json()),
        ("coalesce", a.coalesce.to_json()),
        ("queue_batches", a.queue_batches.to_json()),
        ("repeats", a.repeats.to_json()),
        ("fsync", "always".to_json()),
        ("direct", direct.to_json()),
        ("points", Json::Arr(points)),
        (
            "gate",
            Json::obj(vec![
                ("scaling_ratio", scaling_ratio.to_json()),
                ("scaling_floor", a.scaling_floor.to_json()),
                ("parity_ratio", parity_ratio.to_json()),
                ("parity_floor", a.parity_floor.to_json()),
                ("checks_passed", checks_passed.to_json()),
                ("passed", passed.to_json()),
            ]),
        ),
    ]);
    let out_path = repo_root().join("BENCH_cluster.json");
    if let Err(e) = std::fs::write(&out_path, report.pretty()) {
        eprintln!("cluster-bench: cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", out_path.display());
    println!(
        "direct {:.3} M items/s | 1m {:.3} | 2m {:.3} | 4m {:.3}",
        direct.meps,
        one,
        two,
        by_members.get(&4).copied().unwrap_or(0.0)
    );
    println!(
        "gates: scaling {scaling_ratio:.3} (floor {}) {} | parity {parity_ratio:.3} (floor {}) {} \
         | checks {} => {}",
        a.scaling_floor,
        if scaling_ok { "OK" } else { "FAIL" },
        a.parity_floor,
        if parity_ok { "OK" } else { "FAIL" },
        if checks_passed { "PASS" } else { "FAIL" },
        if passed { "PASS" } else { "FAIL" }
    );
    if !passed {
        eprintln!("cluster-bench: gate failed");
        std::process::exit(1);
    }
}
