//! The load generator behind `cots-load` and the loopback e2e tests:
//! replays a deterministic Zipf stream over the wire, optionally fires
//! concurrent queries, and checks answers against exact ground truth.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cots_core::json_record;
use cots_core::{CotsError, Result, Threshold};
use cots_datagen::{ExactCounter, StreamSpec};

use crate::client::Client;
use crate::protocol::QueryReq;

/// What to replay and how hard.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:4040`.
    pub addr: String,
    /// Stream length.
    pub items: u64,
    /// Distinct-key alphabet size.
    pub alphabet: usize,
    /// Zipf skew.
    pub alpha: f64,
    /// Stream seed (byte-for-byte reproducible).
    pub seed: u64,
    /// Skip this many leading items of the seeded stream and replay the
    /// next `items` after them. A crashed-and-recovered server can be
    /// driven forward deterministically: re-run with the same seed and
    /// `resume_from` = items already delivered, and the generator sends
    /// exactly the unsent suffix.
    pub resume_from: u64,
    /// Keys per `INGEST` frame.
    pub batch: usize,
    /// Parallel ingest connections.
    pub connections: usize,
    /// Background `frequent(phi)` queries per second (0 = none).
    pub qps: u64,
    /// Support fraction for queries and `--check`.
    pub phi: f64,
    /// Verify answers against exact ground truth after quiescence.
    pub check: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4040".into(),
            items: 1_000_000,
            alphabet: 100_000,
            alpha: 1.5,
            seed: 42,
            resume_from: 0,
            batch: 8_192,
            connections: 2,
            qps: 0,
            phi: 0.01,
            check: false,
        }
    }
}

json_record! {
    /// Result of the answer check against exact truth.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CheckReport {
        /// Support fraction checked.
        pub phi: f64,
        /// Resolved count threshold (`ceil(phi × items)`).
        pub threshold: u64,
        /// Keys whose true count meets the threshold.
        pub truly_frequent: usize,
        /// Entries the server reported for `frequent(phi)`.
        pub reported: usize,
        /// Truly frequent keys missing from the answer (must be 0: Space
        /// Saving guarantees recall 1.0 at quiescence).
        pub missed: usize,
        /// Reported entries violating `count ≥ true ≥ count − error`.
        pub bound_violations: usize,
        /// All of the above held.
        pub passed: bool,
    }
}

json_record! {
    /// Ingest-frame round-trip latency over one load run, aggregated from
    /// per-connection samples (one sample per `INGEST` frame: send to ack,
    /// retries included).
    #[derive(Debug, Clone, PartialEq)]
    pub struct LatencySummary {
        /// Round trips measured.
        pub samples: u64,
        /// Median round trip, microseconds.
        pub p50_us: u64,
        /// 99th-percentile round trip, microseconds.
        pub p99_us: u64,
        /// Slowest round trip, microseconds.
        pub max_us: u64,
        /// Largest per-connection p99 — a fairness signal: when one
        /// connection's tail is far above the pooled p99, the front-end is
        /// starving it.
        pub worst_connection_p99_us: u64,
    }
}

json_record! {
    /// Everything one load run observed.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LoadReport {
        /// Items streamed.
        pub items: u64,
        /// Wall-clock seconds from first frame to all items applied.
        pub elapsed_secs: f64,
        /// Million items per second over the wire path.
        pub meps: f64,
        /// `OVERLOADED` responses absorbed by retry (backpressure working).
        pub overload_retries: u64,
        /// Background queries answered during ingest.
        pub queries_issued: u64,
        /// Ingest round-trip latency (absent only for zero-frame runs).
        pub latency: Option<LatencySummary>,
        /// Answer verification, when requested.
        pub check: Option<CheckReport>,
    }
}

/// Replay the configured stream against the server and report.
///
/// Drives `connections` persistent ingest connections; the stream's
/// `INGEST` batches are dealt round-robin across them (connection `c`
/// sends batches `c, c+connections, c+2·connections, …`), so every
/// connection stays busy for the whole run even when there are fewer
/// batches than a contiguous split would have produced per connection.
/// With `qps > 0` one extra query connection fires `frequent(phi)` at
/// the requested rate. Returns once every item is *applied* (not merely
/// acked) and, if `check` is set, after verifying the frequent-set
/// answer against exact truth.
pub fn run(config: &LoadConfig) -> Result<LoadReport> {
    if config.items == 0 || config.batch == 0 || config.connections == 0 {
        return Err(CotsError::InvalidRun(
            "items, batch and connections must be positive".into(),
        ));
    }
    if config.check && config.resume_from > 0 {
        return Err(CotsError::InvalidRun(
            "--check needs the full stream; it cannot be combined with --resume \
             (the server holds recovered state the checker did not generate)"
                .into(),
        ));
    }
    // Deterministic resume: materialize the prefix too, then drop it, so
    // the suffix is byte-for-byte what a full run would have sent next.
    let full = StreamSpec::zipf(
        (config.resume_from + config.items) as usize,
        config.alphabet,
        config.alpha,
        config.seed,
    )
    .generate();
    let stream = &full[config.resume_from as usize..];

    let start = Instant::now();
    let ingest_done = Arc::new(AtomicBool::new(false));
    let retries = AtomicU64::new(0);
    let queries = AtomicU64::new(0);

    let batches: Vec<&[u64]> = stream.chunks(config.batch).collect();
    let rtts: Vec<Vec<u64>> = std::thread::scope(|s| -> Result<Vec<Vec<u64>>> {
        let batches = &batches;
        let mut handles = Vec::new();
        for c in 0..config.connections {
            let retries = &retries;
            handles.push(s.spawn(move || -> Result<Vec<u64>> {
                let mut client = Client::connect(&config.addr)?;
                // Per-frame round trips (send to ack, retries included), µs.
                let mut rtts = Vec::new();
                for batch in batches.iter().skip(c).step_by(config.connections) {
                    let sent = Instant::now();
                    let r = client.ingest(batch)?;
                    rtts.push(sent.elapsed().as_micros() as u64);
                    retries.fetch_add(r, Ordering::Relaxed);
                }
                Ok(rtts)
            }));
        }
        let query_handle = (config.qps > 0).then(|| {
            let ingest_done = ingest_done.clone();
            let queries = &queries;
            let gap = Duration::from_nanos(1_000_000_000 / config.qps);
            s.spawn(move || -> Result<()> {
                let mut client = Client::connect(&config.addr)?;
                while !ingest_done.load(Ordering::Acquire) {
                    client.query(QueryReq::Frequent { phi: config.phi })?;
                    queries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(gap);
                }
                Ok(())
            })
        });
        let mut first_err = None;
        let mut lats = Vec::new();
        for h in handles {
            match h.join().expect("ingest thread panicked") {
                Ok(rtts) => lats.push(rtts),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        ingest_done.store(true, Ordering::Release);
        if let Some(h) = query_handle {
            if let Err(e) = h.join().expect("query thread panicked") {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(lats),
        }
    })?;

    // Acks mean "enqueued"; wait until the shard workers applied
    // everything and the publisher has seen the quiescent state.
    let mut client = Client::connect(&config.addr)?;
    await_quiescence(&mut client, config.items)?;
    let elapsed = start.elapsed();

    let check = if config.check {
        Some(check_answers(&mut client, config, stream)?)
    } else {
        None
    };

    let elapsed_secs = elapsed.as_secs_f64();
    let rtts: Vec<&[u64]> = rtts.iter().map(Vec::as_slice).collect();
    Ok(LoadReport {
        items: config.items,
        elapsed_secs,
        meps: config.items as f64 / elapsed_secs.max(1e-9) / 1e6,
        overload_retries: retries.into_inner(),
        queries_issued: queries.into_inner(),
        latency: summarize_latency(&rtts),
        check,
    })
}

/// Aggregate per-connection RTT samples into a [`LatencySummary`].
fn summarize_latency(per_conn: &[&[u64]]) -> Option<LatencySummary> {
    let worst_connection_p99_us = per_conn
        .iter()
        .filter_map(|rtts| percentile(rtts, 99))
        .max()?;
    let all: Vec<u64> = per_conn.iter().flat_map(|r| r.iter()).copied().collect();
    Some(LatencySummary {
        samples: all.len() as u64,
        p50_us: percentile(&all, 50)?,
        p99_us: percentile(&all, 99)?,
        max_us: all.iter().copied().max()?,
        worst_connection_p99_us,
    })
}

/// Nearest-rank percentile (`p` in 0..=100); `None` on an empty set.
fn percentile(samples: &[u64], p: u64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = (p as usize * sorted.len()).div_ceil(100).saturating_sub(1);
    sorted.get(idx.min(sorted.len() - 1)).copied()
}

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

/// Verify the server's `frequent(phi)` answer against exact truth: full
/// recall of the truly frequent set and the Space Saving bound
/// `count ≥ true ≥ count − error` for every reported entry.
fn check_answers(client: &mut Client, config: &LoadConfig, stream: &[u64]) -> Result<CheckReport> {
    let truth = ExactCounter::from_stream(stream);
    let threshold = Threshold::Fraction(config.phi).resolve(config.items);
    let truly: Vec<(u64, u64)> = truth.frequent(Threshold::Count(threshold));

    let (entries, total, stamp) = client.query(QueryReq::Frequent { phi: config.phi })?;
    if total != config.items || stamp.staleness != 0 {
        return Err(CotsError::Protocol(format!(
            "check ran against a stale snapshot: total {total}, staleness {}",
            stamp.staleness
        )));
    }
    let missed = truly
        .iter()
        .filter(|(k, _)| !entries.iter().any(|e| e.item == *k))
        .count();
    let bound_violations = entries
        .iter()
        .filter(|e| {
            let t = truth.count(&e.item);
            let ok = e.count >= t && e.count - e.error <= t;
            if !ok {
                eprintln!(
                    "loadgen: bound violation: item {} count {} error {} true {}",
                    e.item, e.count, e.error, t
                );
            }
            !ok
        })
        .count();
    Ok(CheckReport {
        phi: config.phi,
        threshold,
        truly_frequent: truly.len(),
        reported: entries.len(),
        missed,
        bound_violations,
        passed: missed == 0 && bound_violations == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_json() {
        let r = LoadReport {
            items: 10,
            elapsed_secs: 0.5,
            meps: 0.02,
            overload_retries: 3,
            queries_issued: 8,
            latency: Some(LatencySummary {
                samples: 12,
                p50_us: 180,
                p99_us: 950,
                max_us: 1400,
                worst_connection_p99_us: 1100,
            }),
            check: Some(CheckReport {
                phi: 0.01,
                threshold: 1,
                truly_frequent: 4,
                reported: 5,
                missed: 0,
                bound_violations: 0,
                passed: true,
            }),
        };
        let back: LoadReport =
            cots_core::json::from_str(&cots_core::json::to_string(&r)).unwrap();
        assert_eq!(back, r);
        let none = LoadReport {
            latency: None,
            check: None,
            ..r
        };
        let back: LoadReport =
            cots_core::json::from_str(&cots_core::json::to_string(&none)).unwrap();
        assert_eq!(back.check, None);
        assert_eq!(back.latency, None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[7], 50), Some(7));
        assert_eq!(percentile(&[7], 99), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), Some(50));
        assert_eq!(percentile(&v, 99), Some(99));
        assert_eq!(percentile(&v, 100), Some(100));
        // Round-robin fairness summary picks the worst tail.
        let s = summarize_latency(&[&[10, 10, 10], &[10, 10, 500]]).unwrap();
        assert_eq!(s.samples, 6);
        assert_eq!(s.worst_connection_p99_us, 500);
        assert_eq!(s.max_us, 500);
    }
}
