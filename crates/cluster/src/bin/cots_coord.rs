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
//! standby runs `cots-member --standby`, the primary ships its WAL to
//! it with `--peer`). Each side is taken verbatim, so IPv6 members
//! (`[::1]:7001`) need no special spelling.
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
//! Prints `listening on <addr>` once ready (scripts wait for this
//! line), serves until a `SHUTDOWN` request arrives, and exits 0.

use std::time::Duration;

use cots_cluster::{CoordConfig, CoordServer};

fn usage() -> ! {
    eprintln!(
        "usage: cots-coord --members MEMBER[,MEMBER...] [--addr HOST:PORT] \
         [--capacity M] [--pull-ms MS] [--timeout-ms MS] [--forward-deadline-ms MS] \
         [--coalesce-keys K]\n\
         MEMBER = HOST:PORT | PRIMARY/STANDBY (replica pair, coordinator \
         promotes the standby on primary death)"
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
    let mut addr = "127.0.0.1:4060".to_string();
    let mut config = CoordConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse("--addr", args.next()),
            "--members" => {
                let raw: String = parse("--members", args.next());
                config.members = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--capacity" => config.capacity = parse("--capacity", args.next()),
            "--pull-ms" => {
                config.pull_interval = Duration::from_millis(parse("--pull-ms", args.next()))
            }
            "--timeout-ms" => {
                config.io_timeout = Duration::from_millis(parse("--timeout-ms", args.next()))
            }
            "--forward-deadline-ms" => {
                config.forward_deadline =
                    Duration::from_millis(parse("--forward-deadline-ms", args.next()))
            }
            "--coalesce-keys" => config.coalesce_keys = parse("--coalesce-keys", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    if config.members.is_empty() {
        eprintln!("--members is required (comma-separated ADDR or PRIMARY/STANDBY list)");
        usage();
    }
    if config.capacity == 0 {
        eprintln!("--capacity must be positive");
        usage();
    }
    let server = match CoordServer::bind(&addr, config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cots-coord: cannot start on {addr}: {e}");
            std::process::exit(1);
        }
    };
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
