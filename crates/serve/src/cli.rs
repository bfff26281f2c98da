//! The server command line, shared by `cots-serve` and `cots-member`.
//!
//! ```text
//! cots-serve [--addr 127.0.0.1:4040] [--shards 4] [--capacity 1000]
//!            [--refresh-ms 20] [--queue-batches 64] [--reactor-threads R]
//!            [--data-dir DIR] [--fsync always|grouped|off]
//!            [--checkpoint-ms 5000] [--wal-segment-mb 8] [--standby]
//! ```
//!
//! `--refresh-ms` is the longest interval between publishes: ingest
//! publishes sooner, every `16 × shards × capacity` applied keys.
//!
//! A binary names itself and any value-taking flags it adds on top
//! (`cots-member` adds `--peer`); everything else — parsing, validation,
//! the recovery summary, the `listening on <addr>` line scripts wait
//! for, exit codes — is here once. Usage errors exit 2, startup and
//! runtime failures exit 1, a drained `SHUTDOWN` exits 0.
//!
//! `--io-model reactor` and `--wal-records run` are still accepted and
//! do nothing: they spell the only behaviour left since the
//! thread-per-connection front-end and the per-batch WAL writer were
//! removed. Their other values (`threads`, `per-batch`) are usage
//! errors that say so.

use std::path::PathBuf;
use std::time::Duration;

use cots_persist::FsyncPolicy;

use crate::persistence::PersistOptions;
use crate::server::{IoConfig, Server};
use crate::service::ServiceConfig;
use crate::shard::MAX_SHARDS;

/// Everything the shared flags configure.
#[derive(Debug, Clone)]
pub struct ServerArgs {
    /// Listen address.
    pub addr: String,
    /// Service deployment knobs (persistence options included).
    pub config: ServiceConfig,
    /// Reactor sizing.
    pub io: IoConfig,
}

/// One server binary's command line: its name plus the value-taking
/// flags it accepts beyond the shared set, as `(flag, value name)`.
pub struct Cli {
    program: &'static str,
    extra: &'static [(&'static str, &'static str)],
}

impl Cli {
    /// A command line for `program` accepting `extra` on top of the
    /// shared flags.
    pub const fn new(
        program: &'static str,
        extra: &'static [(&'static str, &'static str)],
    ) -> Self {
        Self { program, extra }
    }

    /// Print `problem` and the usage line, then exit 2.
    pub fn usage(&self, problem: &str) -> ! {
        if !problem.is_empty() {
            eprintln!("{}: {problem}", self.program);
        }
        let extra: String = self
            .extra
            .iter()
            .map(|(flag, value)| format!(" [{flag} {value}]"))
            .collect();
        eprintln!(
            "usage: {} [--addr HOST:PORT] [--shards N] [--capacity M] \
             [--refresh-ms MS] [--queue-batches Q] [--reactor-threads R] \
             [--data-dir DIR] [--fsync always|grouped|off] [--checkpoint-ms MS] \
             [--wal-segment-mb MB] [--standby]{extra}",
            self.program
        );
        std::process::exit(2);
    }

    /// Parse the process arguments, exiting 2 on any usage error.
    /// Returns the shared configuration and the `(flag, value)` pairs of
    /// this binary's extra flags, in command-line order.
    pub fn parse(&self) -> (ServerArgs, Vec<(String, String)>) {
        self.parse_from(std::env::args().skip(1))
            .unwrap_or_else(|problem| self.usage(&problem))
    }

    /// [`Self::parse`] over explicit arguments, reporting a usage error
    /// instead of exiting.
    pub fn parse_from(
        &self,
        args: impl IntoIterator<Item = String>,
    ) -> Result<(ServerArgs, Vec<(String, String)>), String> {
        let mut addr = "127.0.0.1:4040".to_string();
        let mut config = ServiceConfig::default();
        let mut io = IoConfig::default();
        let mut data_dir: Option<PathBuf> = None;
        let mut fsync = FsyncPolicy::default();
        let mut checkpoint_ms: u64 = 5_000;
        let mut wal_segment_mb: u64 = 8;
        let mut extras = Vec::new();
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
                _ if self.extra.iter().any(|(f, _)| *f == flag) => {
                    extras.push((arg.clone(), value(flag, next())?));
                }
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
        if io.reactor_threads == 0 {
            return Err("--reactor-threads must be positive".into());
        }
        if config.standby && data_dir.is_none() {
            return Err("--standby needs --data-dir (replication ships the WAL)".into());
        }
        if let Some(dir) = data_dir {
            let mut opts = PersistOptions::new(dir);
            opts.fsync = fsync;
            opts.checkpoint_every = Duration::from_millis(checkpoint_ms);
            opts.segment_bytes = wal_segment_mb.saturating_mul(1024 * 1024).max(1);
            config.persist = Some(opts);
        }
        Ok((ServerArgs { addr, config, io }, extras))
    }

    /// Recover and bind, printing the reactor sizing and (with a data
    /// directory) the one-line recovery summary; exits 1 if the server
    /// cannot start.
    pub fn bind(&self, args: ServerArgs) -> Server {
        let threads = args.io.reactor_threads;
        let server = Server::bind_with(&args.addr, args.config, args.io).unwrap_or_else(|e| {
            eprintln!("{}: cannot start on {}: {e}", self.program, args.addr);
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
    pub fn run(&self, server: Server) {
        println!("listening on {}", server.local_addr());
        if let Err(e) = server.run() {
            eprintln!("{}: {e}", self.program);
            std::process::exit(1);
        }
    }
}

/// Parse the value following `flag`.
fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
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

    fn parse(cli: &Cli, args: &[&str]) -> Result<(ServerArgs, Vec<(String, String)>), String> {
        cli.parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn removed_choices_are_named_and_their_survivors_are_no_ops() {
        let serve = Cli::new("cots-serve", &[]);
        let (args, extras) = parse(
            &serve,
            &[
                "--io-model",
                "reactor",
                "--wal-records",
                "run",
                "--data-dir",
                "/tmp/x",
            ],
        )
        .unwrap();
        assert!(extras.is_empty());
        assert!(args.config.persist.is_some());

        let threads = parse(&serve, &["--io-model", "threads"]).unwrap_err();
        assert!(threads.contains("removed in PR 13"), "{threads}");
        let per_batch = parse(&serve, &["--wal-records", "per-batch"]).unwrap_err();
        assert!(per_batch.contains("removed in PR 13"), "{per_batch}");
        assert!(parse(&serve, &["--io-model", "fibers"]).is_err());
    }

    #[test]
    fn extra_flags_belong_to_the_binary_that_declares_them() {
        let serve = Cli::new("cots-serve", &[]);
        assert!(parse(&serve, &["--peer", "127.0.0.1:1"]).is_err());

        let member = Cli::new("cots-member", &[("--peer", "HOST:PORT")]);
        let (args, extras) = parse(
            &member,
            &[
                "--shards",
                "2",
                "--data-dir",
                "/tmp/x",
                "--standby",
                "--peer",
                "127.0.0.1:1",
            ],
        )
        .unwrap();
        assert_eq!(args.config.shards, 2);
        assert!(args.config.standby);
        assert_eq!(
            extras,
            vec![("--peer".to_string(), "127.0.0.1:1".to_string())]
        );
        assert!(
            parse(&member, &["--peer"]).is_err(),
            "extra flags take a value"
        );
    }

    #[test]
    fn shared_validation_runs_for_every_binary() {
        let serve = Cli::new("cots-serve", &[]);
        assert!(parse(&serve, &["--shards", "0"]).is_err());
        assert!(parse(&serve, &["--reactor-threads", "0"]).is_err());
        assert!(
            parse(&serve, &["--standby"]).is_err(),
            "standby needs a data dir"
        );
        assert!(parse(&serve, &["--bogus"]).is_err());
        let member = Cli::new("cots-member", &[("--peer", "HOST:PORT")]);
        for cli in [&serve, &member] {
            assert!(parse(cli, &["--window", "1000"]).is_err());
        }
        let (args, _) = parse(&serve, &[]).unwrap();
        assert_eq!(args.addr, "127.0.0.1:4040");
        assert!(args.config.persist.is_none());
    }

    /// Parsing only: nothing here spawns a shard.
    #[test]
    fn shard_count_is_bounded() {
        let serve = Cli::new("cots-serve", &[]);
        let most = MAX_SHARDS.to_string();
        assert_eq!(
            parse(&serve, &["--shards", &most]).unwrap().0.config.shards,
            MAX_SHARDS
        );
        let over = (MAX_SHARDS + 1).to_string();
        let err = parse(&serve, &["--shards", &over]).unwrap_err();
        assert!(err.contains(&most), "{err}");
        assert!(parse(&serve, &["--shards", "18446744073709551615"]).is_err());
    }
}
