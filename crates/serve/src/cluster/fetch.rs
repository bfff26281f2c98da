//! Streamed snapshot pulls: reassemble a member's summary from
//! `SNAPSHOT_PAGE` frames.
//!
//! A member summary can exceed the 16 MiB frame cap, so the coordinator
//! pulls it in pages: the member pins its current published snapshot
//! at `offset 0` and serves every later page from that pin, so the
//! reassembly here is a *consistent* cut no matter how many epochs
//! publish mid-transfer. Passing the epoch of the previous pull as
//! `since_epoch` turns an idle member's answer into a tiny `unchanged`
//! frame instead of megabytes of entries.
//!
//! Everything a member sends is untrusted input to the coordinator: a
//! buggy or malicious member must produce a typed error here, never a
//! panic or an unbounded loop.
//!
//! AUDIT: total — enforced by `cargo xtask audit` (lint-totality).

use cots_core::{CotsError, CounterEntry, Result, Snapshot};

use crate::{Client, QueryStamp, Request, Response, MAX_PAGE_ENTRIES};

/// One reassembled member snapshot plus its provenance.
#[derive(Debug, Clone)]
pub struct FetchedSnapshot {
    /// The member's summary, rebuilt from pages.
    pub snapshot: Snapshot<u64>,
    /// Member publisher epoch the pages were pinned to.
    pub epoch: u64,
    /// Items the member had applied when the snapshot was captured —
    /// the term this member contributes to cluster staleness math.
    pub captured_total: u64,
}

/// Outcome of one pull.
#[derive(Debug, Clone)]
pub enum Fetched {
    /// The member's epoch still equals `since_epoch`; nothing moved.
    Unchanged {
        /// The stamp of the unchanged answer (same epoch, fresh
        /// staleness reading).
        stamp: QueryStamp,
    },
    /// A full snapshot was reassembled.
    Changed(FetchedSnapshot),
}

/// Pull one consistent snapshot from `client`, paging as needed.
///
/// `since_epoch` is the epoch of the previous successful pull (0 for
/// "never pulled"): a member whose published epoch still matches
/// answers `unchanged` and the transfer is skipped.
pub fn fetch_snapshot(client: &mut Client, since_epoch: u64) -> Result<Fetched> {
    let mut entries: Vec<CounterEntry<u64>> = Vec::new();
    let mut offset = 0usize;
    // (epoch, captured_total, mass, entry count) — all four must hold
    // still across pages, or the pin was broken.
    let mut pinned: Option<(u64, u64, u64, usize)> = None;
    loop {
        let response = client.call(&Request::SnapshotPage {
            since_epoch,
            offset,
            limit: MAX_PAGE_ENTRIES,
        })?;
        let (page, at, total_entries, total, done, unchanged, stamp) = match response {
            Response::SnapshotPage {
                entries,
                offset,
                total_entries,
                total,
                done,
                unchanged,
                stamp,
            } => (
                entries,
                offset,
                total_entries,
                total,
                done,
                unchanged,
                stamp,
            ),
            Response::Error { message } => {
                return Err(CotsError::Protocol(format!(
                    "member refused page: {message}"
                )))
            }
            other => {
                return Err(CotsError::Protocol(format!(
                    "unexpected page response: {other:?}"
                )))
            }
        };
        if unchanged {
            if offset == 0 {
                return Ok(Fetched::Unchanged { stamp });
            }
            return Err(CotsError::Protocol(
                "member answered `unchanged` mid-transfer".into(),
            ));
        }
        match pinned {
            None => pinned = Some((stamp.epoch, stamp.captured_total, total, total_entries)),
            Some((epoch, _, mass, count))
                if epoch != stamp.epoch || mass != total || count != total_entries =>
            {
                return Err(CotsError::Protocol(format!(
                    "pin broken mid-transfer: page at {at} reads epoch {}/total \
                     {total}/{total_entries} entries but the transfer started at \
                     epoch {epoch}/total {mass}/{count} entries (member restarted?)",
                    stamp.epoch
                )));
            }
            Some(_) => {}
        }
        if at != offset {
            return Err(CotsError::Protocol(format!(
                "page offset mismatch: asked for {offset}, got {at}"
            )));
        }
        if !done && page.is_empty() {
            return Err(CotsError::Protocol(
                "member made no progress: empty page without `done`".into(),
            ));
        }
        offset = offset.saturating_add(page.len());
        entries.extend(page);
        if entries.len() > total_entries {
            return Err(CotsError::Protocol(format!(
                "member over-delivered: {} entries for a {total_entries}-entry summary",
                entries.len()
            )));
        }
        if done {
            let (epoch, captured_total, mass, _) = match pinned {
                Some(p) => p,
                None => {
                    return Err(CotsError::Protocol(
                        "transfer finished without any page".into(),
                    ))
                }
            };
            if entries.len() != total_entries {
                return Err(CotsError::Protocol(format!(
                    "short transfer: {} of {total_entries} entries",
                    entries.len()
                )));
            }
            // `Snapshot::new` re-sorts: pages arrive in the member's
            // order already, but a hostile member could shuffle.
            return Ok(Fetched::Changed(FetchedSnapshot {
                snapshot: Snapshot::new(entries, mass),
                epoch,
                captured_total,
            }));
        }
    }
}
