//! The `cots-serve` command line.
//!
//! ```text
//! cots-serve [--addr 127.0.0.1:4040] [--shards 4] [--capacity 1000]
//!            [--refresh-ms 20] [--queue-batches 64] [--reactor-threads R]
//!            [--data-dir DIR] [--fsync always|grouped|off]
//!            [--checkpoint-ms 5000] [--wal-segment-mb 8] [--standby]
//!            [--peer HOST:PORT]
//! ```
//!
//! `--refresh-ms` is the longest interval between publishes: ingest
//! publishes sooner, every `16 × shards × capacity` applied keys.
//! `--standby` and `--peer` both need `--data-dir`: replication ships
//! the WAL.
//!
//! Parsing, validation, the recovery summary and the `listening on
//! <addr>` line scripts wait for are here once. Usage errors exit 2,
//! startup and runtime failures exit 1, a drained `SHUTDOWN` exits 0.
//!
//! `--io-model reactor` and `--wal-records run` are still accepted and
//! do nothing: they spell the only behaviour left since the
//! thread-per-connection front-end and the per-batch WAL writer were
//! removed. Their other values (`threads`, `per-batch`) are usage
//! errors that say so.

use std::path::PathBuf;
use std::time::Duration;

use cots_core::SummaryConfig;
use cots_persist::FsyncPolicy;

use crate::persistence::PersistOptions;
use crate::server::{IoConfig, Server};
use crate::service::ServiceConfig;
use crate::shard::MAX_SHARDS;

/// Everything the command line configures.
#[derive(Debug, Clone)]
pub struct ServerArgs {
    /// Listen address.
    pub addr: String,
    /// Service deployment knobs (persistence options included).
    pub config: ServiceConfig,
    /// Reactor sizing.
    pub io: IoConfig,
}

/// Print `problem` and the usage line, then exit 2.
fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("cots-serve: {problem}");
    }
    eprintln!(
        "usage: cots-serve [--addr HOST:PORT] [--shards N] [--capacity M] \
         [--refresh-ms MS] [--queue-batches Q] [--reactor-threads R] \
         [--data-dir DIR] [--fsync always|grouped|off] [--checkpoint-ms MS] \
         [--wal-segment-mb MB] [--standby] [--peer HOST:PORT]"
    );
    std::process::exit(2);
}

/// Parse the process arguments, exiting 2 on any usage error.
pub fn parse() -> ServerArgs {
    parse_from(std::env::args().skip(1)).unwrap_or_else(|problem| usage(&problem))
}

/// [`parse`] over explicit arguments, reporting a usage error instead of
/// exiting.
pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<ServerArgs, String> {
    let mut addr = "127.0.0.1:4040".to_string();
    let mut config = ServiceConfig::default();
    let mut io = IoConfig::default();
    let mut data_dir: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::default();
    let mut checkpoint_ms: u64 = 5_000;
    let mut wal_segment_mb: u64 = 8;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut next = || args.next();
        match flag {
            "--addr" => addr = value(flag, next())?,
            "--shards" => config.shards = value(flag, next())?,
            "--capacity" => config.capacity = value(flag, next())?,
            "--refresh-ms" => config.refresh = Duration::from_millis(value(flag, next())?),
            "--queue-batches" => config.queue_batches = value(flag, next())?,
            "--reactor-threads" => io.reactor_threads = value(flag, next())?,
            "--data-dir" => data_dir = Some(value(flag, next())?),
            "--fsync" => fsync = value(flag, next())?,
            "--checkpoint-ms" => checkpoint_ms = value(flag, next())?,
            "--wal-segment-mb" => wal_segment_mb = value(flag, next())?,
            "--standby" => config.standby = true,
            "--peer" => config.repl_peer = Some(value(flag, next())?),
            "--io-model" => only_spelling(
                flag,
                next(),
                "reactor",
                "threads",
                "the reactor is the only connection front-end",
            )?,
            "--wal-records" => only_spelling(
                flag,
                next(),
                "run",
                "per-batch",
                "the WAL writer always emits run records (per-batch records still replay)",
            )?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.shards == 0 || config.capacity == 0 || config.queue_batches == 0 {
        return Err("--shards, --capacity and --queue-batches must be positive".into());
    }
    if config.shards > MAX_SHARDS {
        return Err(format!(
            "--shards {} is more than {MAX_SHARDS}: each shard is a worker thread",
            config.shards
        ));
    }
    SummaryConfig::with_capacity(config.capacity).map_err(|e| format!("--capacity: {e}"))?;
    if io.reactor_threads == 0 {
        return Err("--reactor-threads must be positive".into());
    }
    if config.standby && data_dir.is_none() {
        return Err("--standby needs --data-dir (replication ships the WAL)".into());
    }
    if config.repl_peer.is_some() && data_dir.is_none() {
        return Err("--peer needs --data-dir (replication ships the WAL)".into());
    }
    if let Some(dir) = data_dir {
        let mut opts = PersistOptions::new(dir);
        opts.fsync = fsync;
        opts.checkpoint_every = Duration::from_millis(checkpoint_ms);
        opts.segment_bytes = wal_segment_mb.saturating_mul(1024 * 1024).max(1);
        config.persist = Some(opts);
    }
    Ok(ServerArgs { addr, config, io })
}

/// Recover and bind, printing the reactor sizing and (with a data
/// directory) the one-line recovery summary; exits 1 if the server
/// cannot start.
pub fn bind(args: ServerArgs) -> Server {
    let threads = args.io.reactor_threads;
    let server = Server::bind_with(&args.addr, args.config, args.io).unwrap_or_else(|e| {
        eprintln!("cots-serve: cannot start on {}: {e}", args.addr);
        std::process::exit(1);
    });
    println!("{threads} reactor threads");
    if let Some(rec) = server.service().recovery_report() {
        println!(
            "recovered {} items (checkpoint {:?}, {} wal batches over {} segments, \
             {} torn frames, {} bytes dropped) in {:.3}s",
            rec.recovered_items,
            rec.checkpoint_watermark,
            rec.replayed_batches,
            rec.segments_scanned,
            rec.torn_frames,
            rec.dropped_bytes,
            rec.elapsed_secs
        );
    }
    server
}

/// Print `listening on <addr>` and serve until a `SHUTDOWN` request
/// drains the server; exits 1 if serving fails.
pub fn run(server: Server) {
    println!("listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("cots-serve: {e}");
        std::process::exit(1);
    }
}

/// Parse the value following `flag`: a usage error if it is missing or
/// does not parse.
pub fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

/// Accept `kept`, the one remaining spelling of a former choice flag;
/// name the removal for `removed`; reject anything else.
fn only_spelling(
    flag: &str,
    raw: Option<String>,
    kept: &str,
    removed: &str,
    now: &str,
) -> Result<(), String> {
    let raw: String = value(flag, raw)?;
    if raw == kept {
        Ok(())
    } else if raw == removed {
        Err(format!(
            "{flag} {removed} was removed in PR 13: {now}; drop the flag or pass `{kept}`"
        ))
    } else {
        Err(format!("{flag}: expected `{kept}`, got `{raw}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServerArgs, String> {
        parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn removed_choices_are_named_and_their_survivors_are_no_ops() {
        let args = parse(&[
            "--io-model",
            "reactor",
            "--wal-records",
            "run",
            "--data-dir",
            "/tmp/x",
        ])
        .unwrap();
        assert!(args.config.persist.is_some());
        assert!(args.config.repl_peer.is_none());

        let threads = parse(&["--io-model", "threads"]).unwrap_err();
        assert!(threads.contains("removed in PR 13"), "{threads}");
        let per_batch = parse(&["--wal-records", "per-batch"]).unwrap_err();
        assert!(per_batch.contains("removed in PR 13"), "{per_batch}");
        assert!(parse(&["--io-model", "fibers"]).is_err());
    }

    #[test]
    fn peer_sets_the_replication_peer() {
        let args = parse(&["--data-dir", "/tmp/x", "--peer", "127.0.0.1:1"]).unwrap();
        assert_eq!(args.config.repl_peer.as_deref(), Some("127.0.0.1:1"));
        assert!(!args.config.standby);
    }

    #[test]
    fn peer_needs_a_value() {
        let err = parse(&["--data-dir", "/tmp/x", "--peer"]).unwrap_err();
        assert!(err.contains("--peer needs a value"), "{err}");
    }

    #[test]
    fn peer_needs_a_data_dir() {
        let err = parse(&["--peer", "127.0.0.1:1"]).unwrap_err();
        assert!(err.contains("--peer needs --data-dir"), "{err}");
    }

    /// The shape a rejoining ex-primary restarts with: a standby whose
    /// shipper stays idle unless it is promoted again.
    #[test]
    fn standby_and_peer_parse_together() {
        let args = parse(&[
            "--shards",
            "2",
            "--data-dir",
            "/tmp/x",
            "--standby",
            "--peer",
            "127.0.0.1:1",
        ])
        .unwrap();
        assert_eq!(args.config.shards, 2);
        assert!(args.config.standby);
        assert_eq!(args.config.repl_peer.as_deref(), Some("127.0.0.1:1"));
    }

    #[test]
    fn invalid_command_lines_are_refused() {
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--reactor-threads", "0"]).is_err());
        assert!(parse(&["--standby"]).is_err(), "standby needs a data dir");
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--window", "1000"]).is_err());
        let args = parse(&[]).unwrap();
        assert_eq!(args.addr, "127.0.0.1:4040");
        assert!(args.config.persist.is_none());
    }

    /// Parsing only: nothing here spawns a shard.
    #[test]
    fn shard_count_is_bounded() {
        let most = MAX_SHARDS.to_string();
        assert_eq!(
            parse(&["--shards", &most]).unwrap().config.shards,
            MAX_SHARDS
        );
        let over = (MAX_SHARDS + 1).to_string();
        let err = parse(&["--shards", &over]).unwrap_err();
        assert!(err.contains(&most), "{err}");
        assert!(parse(&["--shards", "18446744073709551615"]).is_err());
    }

    /// Parsing only: nothing here allocates a summary.
    #[test]
    fn capacity_is_bounded() {
        let most = SummaryConfig::MAX_CAPACITY.to_string();
        assert_eq!(
            parse(&["--capacity", &most]).unwrap().config.capacity,
            SummaryConfig::MAX_CAPACITY
        );
        for over in ["4294967296", "1000000000000", "18446744073709551615"] {
            let err = parse(&["--capacity", over]).unwrap_err();
            assert!(
                err.starts_with("--capacity") && err.contains(&most),
                "{err}"
            );
        }
    }
}
