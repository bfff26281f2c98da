//! `cots-load` — replay a deterministic Zipf stream against `cots-serve`
//! and optionally verify answers against exact ground truth.
//!
//! ```text
//! cots-load --addr 127.0.0.1:4040 --items 10000000 [--alphabet 100000]
//!           [--alpha 1.5] [--seed 42] [--resume R] [--batch 8192]
//!           [--connections 2] [--qps 0] [--phi 0.01] [--check]
//!           [--json PATH] [--shutdown]
//! ```
//!
//! `INGEST` frames go out as BIN1 whenever the server advertises the
//! `bin` feature (every in-repo server does) and as JSON otherwise.
//!
//! `--resume R` skips the first `R` items of the seeded stream and sends
//! the next `--items` after them — the deterministic way to continue a
//! replay against a server that recovered from a crash. Incompatible
//! with `--check`, which needs the full stream for ground truth.
//!
//! Exits non-zero on any protocol error or (with `--check`) any answer
//! outside the Space Saving guarantee.

use cots_serve::{Client, LoadConfig};

fn usage() -> ! {
    eprintln!(
        "usage: cots-load [--addr HOST:PORT] [--items N] [--alphabet A] [--alpha Z] \
         [--seed S] [--resume R] [--batch B] [--connections C] [--qps Q] [--phi PHI] \
         [--check] [--json PATH] [--shutdown]"
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

fn main() {
    let mut config = LoadConfig::default();
    let mut json_path: Option<String> = None;
    let mut shutdown = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = parse("--addr", args.next()),
            "--items" => config.items = parse("--items", args.next()),
            "--alphabet" => config.alphabet = parse("--alphabet", args.next()),
            "--alpha" => config.alpha = parse("--alpha", args.next()),
            "--seed" => config.seed = parse("--seed", args.next()),
            "--resume" => config.resume_from = parse("--resume", args.next()),
            "--batch" => config.batch = parse("--batch", args.next()),
            "--connections" => config.connections = parse("--connections", args.next()),
            "--qps" => config.qps = parse("--qps", args.next()),
            "--phi" => config.phi = parse("--phi", args.next()),
            "--check" => config.check = true,
            "--json" => json_path = Some(parse("--json", args.next())),
            "--shutdown" => shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }

    let report = match cots_serve::loadgen::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cots-load: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "streamed {} items in {:.2}s ({:.2} M items/s), {} overload retries, {} queries",
        report.items, report.elapsed_secs, report.meps, report.overload_retries,
        report.queries_issued
    );
    if let Some(lat) = &report.latency {
        println!(
            "latency: {} round trips, p50={}us p99={}us max={}us (worst connection p99={}us)",
            lat.samples, lat.p50_us, lat.p99_us, lat.max_us, lat.worst_connection_p99_us
        );
    }
    let mut failed = false;
    if let Some(check) = &report.check {
        println!(
            "check: phi={} threshold={} truly_frequent={} reported={} missed={} \
             bound_violations={} => {}",
            check.phi,
            check.threshold,
            check.truly_frequent,
            check.reported,
            check.missed,
            check.bound_violations,
            if check.passed { "PASS" } else { "FAIL" }
        );
        failed = !check.passed;
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, cots_core::json::to_string(&report)) {
            eprintln!("cots-load: cannot write {path}: {e}");
            failed = true;
        }
    }
    if shutdown {
        let stop = Client::connect(&config.addr)
            .map_err(cots_core::CotsError::from)
            .and_then(|mut c| c.shutdown());
        if let Err(e) = stop {
            eprintln!("cots-load: shutdown failed: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
