//! `cots-serve` — the CoTS frequency-counting service.
//!
//! Flags, output and exit codes are those of [`cots_serve::cli`].
//!
//! With `--data-dir`, startup recovers the newest valid checkpoint plus
//! the WAL tail *before* binding the listener, prints a one-line recovery
//! summary, then logs every ingested batch and checkpoints on the
//! `--checkpoint-ms` cadence (0 disables the background checkpointer; the
//! `CHECKPOINT` wire op always works). A restarted node rejoins its
//! coordinator (`cots-coord`) with its acknowledged state intact.
//!
//! Replication (both flags need `--data-dir`, see `docs/replication.md`):
//! `--standby` starts the node refusing ordinary `INGEST` and applying
//! `REPL_BATCH` / `REPL_SNAPSHOT` streams from a primary until
//! `REPL_PROMOTE` flips it to primary in place; `--peer HOST:PORT` starts
//! a WAL shipper ([`cots_serve::repl::spawn`]) streaming this node's
//! committed log to the standby there. A rejoining ex-primary runs with
//! *both*: it parks as a standby and its shipper stays idle unless it is
//! promoted again.
//!
//! Prints `listening on <addr>` once ready (scripts wait for this line),
//! serves until a `SHUTDOWN` request arrives, drains (taking a final
//! checkpoint when persistent), and exits 0.

use cots_serve::cli;
use cots_serve::repl::{spawn, ShipperConfig};

fn main() {
    let args = cli::parse();
    let peer = args.config.repl_peer.clone();
    let server = cli::bind(args);
    // The shipper parks while this node is a standby, so a rejoining
    // ex-primary can carry `--standby --peer OLD_SELF` and the pair
    // stays symmetric across promotions.
    let _shipper = peer.map(|peer| {
        spawn(server.service().clone(), ShipperConfig::new(peer)).unwrap_or_else(|e| {
            eprintln!("cots-serve: cannot start WAL shipper: {e}");
            std::process::exit(1);
        })
    });
    cli::run(server);
}
