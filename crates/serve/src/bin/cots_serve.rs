//! `cots-serve` — the CoTS frequency-counting service.
//!
//! Flags, output and exit codes are those of [`cots_serve::cli`].
//!
//! With `--data-dir`, startup recovers the newest valid checkpoint plus
//! the WAL tail *before* binding the listener, prints a one-line recovery
//! summary, then logs every ingested batch and checkpoints on the
//! `--checkpoint-ms` cadence (0 disables the background checkpointer; the
//! `CHECKPOINT` wire op always works).
//!
//! `--standby` (requires `--data-dir`) starts the node as a replication
//! standby: it refuses ordinary `INGEST` and instead applies
//! `REPL_BATCH` / `REPL_SNAPSHOT` streams from a primary's WAL shipper
//! (see `docs/replication.md`), staying warm until `REPL_PROMOTE` flips
//! it to primary in place. The shipper itself rides the *primary*
//! process (`cots-member --peer`, or embed `cots_repl::spawn`).
//!
//! Prints `listening on <addr>` once ready (scripts wait for this line),
//! serves until a `SHUTDOWN` request arrives, drains (taking a final
//! checkpoint when persistent), and exits 0.

use cots_serve::cli::Cli;

fn main() {
    let cli = Cli::new("cots-serve", &[]);
    let (args, _) = cli.parse();
    cli.run(cli.bind(args));
}
