//! `cots-coord` — the CoTS cluster coordinator.
//!
//! ```text
//! cots-coord --members MEMBER,MEMBER[,...]
//!            [--addr 127.0.0.1:4060] [--capacity 1000]
//!            [--pull-ms 50] [--timeout-ms 2000] [--forward-deadline-ms 10000]
//!            [--coalesce-keys 0]
//! ```
//!
//! Each `MEMBER` is an address (`host:port`) or a replica pair
//! (`PRIMARY/STANDBY`, e.g. `127.0.0.1:7001/127.0.0.1:8001` — the
//! standby runs `cots-serve --standby`, the primary ships its WAL to
//! it with `cots-serve --peer`). Each side is taken verbatim, so IPv6
//! members (`[::1]:7001`) need no special spelling.
//!
//! Key-routes `INGEST` batches across the members, pulls their
//! summaries as streamed `SNAPSHOT_PAGE` deltas, merges them into one
//! federated snapshot, and answers `QUERY`/`STATS`/`CLUSTER_STATS` with
//! a cluster-wide staleness + error envelope. Members that die keep
//! contributing their last good snapshot (degraded mode, widened
//! bound); members that restart are re-pulled automatically. A dead
//! primary with a standby is failed over: the coordinator sends
//! `REPL_PROMOTE` and flips the slot's routing to the standby.
//!
//! `--timeout-ms` bounds every member round-trip and must be positive.
//! Prints `listening on <addr>` once ready (scripts wait for this
//! line), serves until a `SHUTDOWN` request arrives, and exits 0. As
//! with `cots-serve`, usage errors exit 2 and startup and runtime
//! failures exit 1.

use std::time::Duration;

use cots_serve::cli::value;
use cots_serve::cluster::{CoordConfig, CoordServer};

/// Print `problem` and the usage line, then exit 2.
fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("cots-coord: {problem}");
    }
    eprintln!(
        "usage: cots-coord --members MEMBER[,MEMBER...] [--addr HOST:PORT] \
         [--capacity M] [--pull-ms MS] [--timeout-ms MS] [--forward-deadline-ms MS] \
         [--coalesce-keys K]\n\
         MEMBER = HOST:PORT | PRIMARY/STANDBY (replica pair, coordinator \
         promotes the standby on primary death)"
    );
    std::process::exit(2);
}

/// The listen address and coordinator settings `args` spell, or the
/// usage error they make.
fn parse_from(args: impl IntoIterator<Item = String>) -> Result<(String, CoordConfig), String> {
    let mut addr = "127.0.0.1:4060".to_string();
    let mut config = CoordConfig::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut next = || args.next();
        match flag {
            "--addr" => addr = value(flag, next())?,
            "--members" => {
                let raw: String = value(flag, next())?;
                config.members = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--capacity" => config.capacity = value(flag, next())?,
            "--pull-ms" => config.pull_interval = Duration::from_millis(value(flag, next())?),
            "--timeout-ms" => config.io_timeout = Duration::from_millis(value(flag, next())?),
            "--forward-deadline-ms" => {
                config.forward_deadline = Duration::from_millis(value(flag, next())?)
            }
            "--coalesce-keys" => config.coalesce_keys = value(flag, next())?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.members.is_empty() {
        return Err("--members is required (comma-separated ADDR or PRIMARY/STANDBY list)".into());
    }
    if config.capacity == 0 {
        return Err("--capacity must be positive".into());
    }
    // A socket refuses a zero timeout, which would leave a hung member
    // blocking its puller or forwarder for good.
    if config.io_timeout.is_zero() {
        return Err("--timeout-ms must be positive".into());
    }
    Ok((addr, config))
}

fn main() {
    let (addr, config) =
        parse_from(std::env::args().skip(1)).unwrap_or_else(|problem| usage(&problem));
    let server = CoordServer::bind(&addr, config.clone()).unwrap_or_else(|e| {
        eprintln!("cots-coord: cannot start on {addr}: {e}");
        std::process::exit(1);
    });
    println!(
        "coordinating {} members: {}",
        config.members.len(),
        config.members.join(", ")
    );
    println!("listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("cots-coord: {e}");
        std::process::exit(1);
    }
}
