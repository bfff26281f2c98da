//! The primary-side WAL shipper: a background thread that tails this
//! instance's committed WAL segments and streams them to a standby.
//!
//! One shipper per replica pair. The loop is: connect (framed `HELLO`),
//! `REPL_SUBSCRIBE` to learn the standby's durable watermark, send a
//! catch-up `REPL_SNAPSHOT` if that watermark has already been pruned
//! here, then tail the live WAL and push `REPL_BATCH` chunks, persisting
//! every ack (`repl-ack` file) and pinning the local prune floor so a
//! slow standby never loses its place. Disconnects retry with
//! exponential backoff; while disconnected the shipper keeps the
//! `STATS` replication report honest by counting the un-acked tail
//! directly from the log.
//!
//! AUDIT: locks — the shipper publishes progress into the service's
//! report slot but must never hold any lock across its network or disk
//! I/O; enforced by `cargo xtask audit` (lint-locks).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cots_core::{CotsError, ReplReport, Result};
use cots_persist::{load_ack, store_ack, WalTailer};

use crate::frame::Payload;
use crate::{Client, Persistence, Request, Response, Service};

use super::plan::{expected_ack, is_contiguous, plan_chunks, runs_for};

/// Key budget per `REPL_BATCH` frame (batches are never split).
const MAX_KEYS_PER_FRAME: usize = 8_192;

/// First reconnect delay after a connection failure; doubles up to
/// [`ShipperConfig::max_backoff`].
const RECONNECT_BACKOFF: Duration = Duration::from_millis(100);

/// Tuning knobs for one shipper thread.
#[derive(Debug, Clone)]
pub struct ShipperConfig {
    /// Standby address (`host:port`).
    pub peer: String,
    /// How long to sleep when the tail is dry.
    pub poll_interval: Duration,
    /// Cap on the exponential reconnect delay.
    pub max_backoff: Duration,
}

impl ShipperConfig {
    /// Defaults for a pair on one LAN: 10ms poll, reconnect backoff
    /// capped at 5s.
    pub fn new(peer: impl Into<String>) -> Self {
        Self {
            peer: peer.into(),
            poll_interval: Duration::from_millis(10),
            max_backoff: Duration::from_secs(5),
        }
    }
}

/// A running shipper thread; dropping the handle leaves it running,
/// [`ShipperHandle::stop`] joins it.
pub struct ShipperHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ShipperHandle {
    /// Signal the shipper to stop and wait for it to exit. Idempotent
    /// under repeated handles; safe to call while disconnected (the
    /// backoff sleep polls the stop flag).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Monotone shipping counters, folded into every published report.
#[derive(Default)]
struct ShipCounters {
    streamed_batches: u64,
    streamed_keys: u64,
    snapshots: u64,
}

/// Why a connected session ended. The distinction drives the retry
/// policy: a transport failure is transient (exponential backoff,
/// reconnect soon), but a standby's explicit refusal is a state the
/// shipper cannot fix by retrying — it parks at the maximum backoff and
/// flags `resync_required` in `STATS` so an operator sees it.
enum SessionEnd {
    /// The standby answered with a protocol refusal (divergent lineage,
    /// watermark ahead of ours, non-empty standby needing a snapshot).
    Refused(String),
    /// The link or the local tail failed; reconnect and resume. The
    /// underlying error is dropped: transport failures are routine
    /// during failover and the retry loop is the handling.
    Io,
}

impl From<CotsError> for SessionEnd {
    fn from(_: CotsError) -> Self {
        SessionEnd::Io
    }
}

/// Spawn the shipper thread for `service`, streaming toward
/// `config.peer`. The service must run with a data directory (the
/// shipper tails its WAL); standby instances hold the thread idle until
/// they are promoted, so a symmetric pair can start shippers on both
/// sides unconditionally.
pub fn spawn(service: Arc<Service>, config: ShipperConfig) -> Result<ShipperHandle> {
    if service.persistence().is_none() {
        return Err(CotsError::InvalidConfig(
            "replication requires --data-dir: the shipper tails the WAL".into(),
        ));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let thread = std::thread::Builder::new()
        .name("cots-shipper".into())
        .spawn(move || run(&service, &config, &flag))
        .map_err(|e| CotsError::Report(format!("spawn shipper: {e}")))?;
    Ok(ShipperHandle {
        stop,
        thread: Some(thread),
    })
}

/// Outer connection loop: connect, stream until the link breaks, back
/// off, repeat. Standby role parks the loop (promotion un-parks it).
fn run(service: &Service, config: &ShipperConfig, stop: &AtomicBool) {
    let Some(p) = service.persistence().cloned() else {
        return;
    };
    let mut counters = ShipCounters::default();
    let mut backoff = RECONNECT_BACKOFF;
    while !stop.load(Ordering::Acquire) {
        if service.is_standby() {
            // Only a primary ships. A rejoined ex-primary (or a fresh
            // standby of a symmetric pair) waits here until promoted.
            sleep_unless_stopped(stop, config.poll_interval);
            continue;
        }
        let mut refused = None;
        if let Ok(mut client) = Client::connect(&config.peer) {
            backoff = RECONNECT_BACKOFF;
            let _ = client.set_timeout(Some(Duration::from_secs(10)));
            match stream(service, &p, &mut client, config, stop, &mut counters) {
                // Clean exit: the stop flag is set.
                Ok(()) => continue,
                Err(SessionEnd::Refused(msg)) => refused = Some(msg),
                Err(SessionEnd::Io) => {}
            }
        }
        // Disconnected (or never connected): report the honest un-acked
        // tail, then retry. A transport failure backs off exponentially;
        // an explicit refusal parks at the maximum backoff — retrying
        // faster cannot fix divergent state, only an operator can.
        let acked = load_ack(p.dir());
        let unacked_keys = count_unacked_keys(&p, acked);
        let link = Link {
            connected: false,
            acked,
            unacked_keys,
            resync_required: refused.is_some(),
        };
        publish(service, &p, config, &counters, link);
        if let Some(msg) = refused {
            eprintln!("cots-serve: standby refused the stream (resync required): {msg}");
            sleep_unless_stopped(stop, config.max_backoff);
            backoff = RECONNECT_BACKOFF;
        } else {
            sleep_unless_stopped(stop, backoff);
            backoff = backoff.saturating_mul(2).min(config.max_backoff);
        }
    }
}

/// One connected session: subscribe, catch up via snapshot if the
/// standby is behind the local prune floor, then tail and push until
/// the link breaks or the stop flag is set. `Ok(())` means stop.
fn stream(
    service: &Service,
    p: &Arc<Persistence>,
    client: &mut Client,
    config: &ShipperConfig,
    stop: &AtomicBool,
    counters: &mut ShipCounters,
) -> std::result::Result<(), SessionEnd> {
    let acked = load_ack(p.dir());
    let lineage = service.lineage();
    let mut ack = call_acked(
        client,
        &Request::ReplSubscribe {
            start_seq: acked,
            lineage,
            next_seq: p.next_seq(),
        },
    )?;
    if ack < service.repl_floor() {
        // The standby's watermark predates what the local log can
        // replay batch-by-batch: install a full catch-up base first.
        let (watermark, snapshot) = service.repl_cut()?;
        ack = call_acked(
            client,
            &Request::ReplSnapshot {
                lineage,
                watermark,
                snapshot,
            },
        )?;
        counters.snapshots = counters.snapshots.saturating_add(1);
        if ack < watermark {
            return Err(SessionEnd::Refused(format!(
                "catch-up snapshot not installed: acked {ack} < watermark {watermark}"
            )));
        }
    }
    note_ack(service, p, config, ack, counters);
    let mut tailer = WalTailer::new(p.dir(), ack);
    while !stop.load(Ordering::Acquire) {
        let batches = tailer.poll(MAX_KEYS_PER_FRAME)?;
        if batches.is_empty() {
            publish(service, p, config, counters, Link::up(ack));
            sleep_unless_stopped(stop, config.poll_interval);
            continue;
        }
        for chunk in plan_chunks(&batches, MAX_KEYS_PER_FRAME) {
            if !is_contiguous(chunk) {
                // Shipping plan lost contiguity: resubscribe.
                return Err(SessionEnd::Io);
            }
            let expected = expected_ack(chunk);
            let chunk_batches = chunk.len() as u64;
            let chunk_keys: u64 = chunk.iter().map(|b| b.keys.len() as u64).sum();
            let payload = client.encode_repl_batch(lineage, &runs_for(chunk));
            let got = call_acked_payload(client, &payload)?;
            if Some(got) != expected {
                // The standby applied a prefix (or none): rewind the
                // tail cursor to its watermark and try again from there.
                ack = got;
                note_ack(service, p, config, ack, counters);
                tailer = WalTailer::new(p.dir(), ack);
                break;
            }
            counters.streamed_batches = counters.streamed_batches.saturating_add(chunk_batches);
            counters.streamed_keys = counters.streamed_keys.saturating_add(chunk_keys);
            ack = got;
            note_ack(service, p, config, ack, counters);
        }
    }
    Ok(())
}

/// Send one request and extract the `REPL_ACK` watermark; any other
/// response tears the session down — an explicit `Error` as a refusal
/// (parked retry), anything else as a transport-level failure.
fn call_acked(client: &mut Client, request: &Request) -> std::result::Result<u64, SessionEnd> {
    let payload = client.encode_request(request);
    call_acked_payload(client, &payload)
}

/// [`call_acked`] for an already-encoded payload (`REPL_BATCH` frames
/// are encoded straight from borrowed WAL buffers).
fn call_acked_payload(
    client: &mut Client,
    payload: &Payload,
) -> std::result::Result<u64, SessionEnd> {
    client.send_payload(payload)?;
    match client.recv()? {
        Response::ReplAck { ack_seq } => Ok(ack_seq),
        Response::Error { message } => Err(SessionEnd::Refused(message)),
        // Anything else is a protocol surprise: tear down and reconnect.
        _ => Err(SessionEnd::Io),
    }
}

/// Persist a new ack watermark: durable `repl-ack` file, local prune
/// floor, and the published `STATS` report. I/O failures here only
/// delay pruning, so they are absorbed.
fn note_ack(
    service: &Service,
    p: &Arc<Persistence>,
    config: &ShipperConfig,
    ack: u64,
    counters: &ShipCounters,
) {
    let _ = store_ack(p.dir(), ack);
    p.set_repl_retain(ack);
    publish(service, p, config, counters, Link::up(ack));
}

/// The state of the link at one [`publish`].
struct Link {
    connected: bool,
    acked: u64,
    /// Exact when disconnected; zero while the connected tail is being
    /// pushed (in-flight chunks are acked within the same call).
    unacked_keys: u64,
    resync_required: bool,
}

impl Link {
    /// Connected and pushing, acked through `acked`.
    fn up(acked: u64) -> Self {
        Self {
            connected: true,
            acked,
            unacked_keys: 0,
            resync_required: false,
        }
    }
}

/// Push the current shipping state into the service's `STATS` report.
/// The service stamps role/promotions itself; `unacked_batches` is
/// exact (`next_seq − ack`).
fn publish(
    service: &Service,
    p: &Arc<Persistence>,
    config: &ShipperConfig,
    counters: &ShipCounters,
    link: Link,
) {
    let next = p.next_seq();
    service.set_repl_report(ReplReport {
        role: String::new(),
        peer: config.peer.clone(),
        connected: link.connected,
        streamed_batches: counters.streamed_batches,
        streamed_keys: counters.streamed_keys,
        acked_seq: link.acked,
        next_seq: next,
        unacked_batches: next.saturating_sub(link.acked),
        unacked_keys: link.unacked_keys,
        snapshots: counters.snapshots,
        duplicates: 0,
        promotions: 0,
        lineage: service.lineage(),
        resync_required: link.resync_required,
    });
}

/// Exact size of the un-acked WAL tail, by reading it: a throwaway
/// tailer from `ack` to the newest committed record. Used only while
/// disconnected (once per backoff round), where its cost is idle time.
fn count_unacked_keys(p: &Arc<Persistence>, ack: u64) -> u64 {
    let mut tailer = WalTailer::new(p.dir(), ack);
    let mut keys = 0u64;
    loop {
        match tailer.poll(usize::MAX) {
            Ok(batches) if batches.is_empty() => break,
            Ok(batches) => {
                keys = keys.saturating_add(batches.iter().map(|b| b.keys.len() as u64).sum())
            }
            Err(_) => break,
        }
    }
    keys
}

/// Sleep `total` in small steps, returning early when `stop` is set.
fn sleep_unless_stopped(stop: &AtomicBool, total: Duration) {
    let step = Duration::from_millis(10);
    let mut slept = Duration::ZERO;
    while slept < total {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let next = step.min(total - slept);
        std::thread::sleep(next);
        slept += next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_requires_persistence() {
        let service = Arc::new(
            Service::start(crate::ServiceConfig {
                shards: 1,
                capacity: 16,
                ..Default::default()
            })
            .unwrap(),
        );
        let err = spawn(service.clone(), ShipperConfig::new("127.0.0.1:0"));
        assert!(err.is_err(), "no --data-dir, nothing to tail");
        service.drain();
    }

    #[test]
    fn stop_is_prompt_even_while_backing_off() {
        let dir = std::env::temp_dir().join(format!("cots-shipper-stop-{}", std::process::id()));
        let mut opts = crate::PersistOptions::new(dir.clone());
        opts.checkpoint_every = Duration::ZERO;
        let service = Arc::new(
            Service::start(crate::ServiceConfig {
                shards: 1,
                capacity: 16,
                persist: Some(opts),
                ..Default::default()
            })
            .unwrap(),
        );
        // Nothing listens on the peer address: the shipper cycles
        // connect-fail → report → backoff. Stop must still return fast.
        let handle = spawn(service.clone(), ShipperConfig::new("127.0.0.1:1")).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        handle.stop();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "stop took {:?}",
            started.elapsed()
        );
        let report = service.stats().repl.expect("shipper published a report");
        assert!(!report.connected);
        assert_eq!(report.peer, "127.0.0.1:1");
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
