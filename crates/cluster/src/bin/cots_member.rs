//! `cots-member` — a cluster member node.
//!
//! A member *is* a `cots-serve` instance (same wire protocol, same
//! engine, same durability, same flags — see [`cots_serve::cli`]) plus
//! one flag of its own:
//!
//! ```text
//! cots-member [cots-serve flags] [--peer HOST:PORT]
//! ```
//!
//! With `--data-dir`, startup recovers checkpoint + WAL tail before the
//! listener opens — which is exactly what lets a crashed member rejoin
//! its coordinator with its acknowledged state intact. Prints
//! `listening on <addr>` once ready.
//!
//! Replication (both flags need `--data-dir`): `--standby` starts the
//! node refusing `INGEST` and applying `REPL_*` frames until it is
//! promoted; `--peer` starts a WAL shipper streaming this node's
//! committed log to the peer standby. A rejoining ex-primary runs with
//! *both*: it parks as a standby and its shipper stays idle unless it
//! is promoted again.

use cots_serve::cli::Cli;

fn main() {
    let cli = Cli::new("cots-member", &[("--peer", "HOST:PORT")]);
    let (mut args, extra) = cli.parse();
    let peer = extra.into_iter().next_back().map(|(_, addr)| addr);
    if peer.is_some() && args.config.persist.is_none() {
        cli.usage("--peer needs --data-dir (replication ships the WAL)");
    }
    args.config.repl_peer = peer.clone();
    let server = cli.bind(args);
    // The shipper parks while this node is a standby, so a rejoining
    // ex-primary can carry `--standby --peer OLD_SELF` and the pair
    // stays symmetric across promotions.
    let _shipper = peer.map(|p| {
        cots_repl::spawn(server.service().clone(), cots_repl::ShipperConfig::new(p)).unwrap_or_else(
            |e| {
                eprintln!("cots-member: cannot start WAL shipper: {e}");
                std::process::exit(1);
            },
        )
    });
    cli.run(server);
}
