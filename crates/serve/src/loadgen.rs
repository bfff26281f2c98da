//! Waiting for a served stream to land: acks mean "enqueued", so callers
//! that go on to check answers against exact truth first poll until the
//! shard workers applied everything and the publisher has seen it.

use std::time::{Duration, Instant};

use cots_core::{CotsError, Result};

use crate::client::Client;

/// Poll STATS until `items` are applied and the published snapshot has
/// zero staleness.
pub fn await_quiescence(client: &mut Client, items: u64) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = client.stats()?;
        if stats.applied_keys() >= items && stats.staleness == 0 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(CotsError::Protocol(format!(
                "server did not quiesce: {} of {items} applied, staleness {}",
                stats.applied_keys(),
                stats.staleness
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
