//! One workload run, untraced (end-to-end metrics) or traced (per-layer
//! metrics).

use std::fs;
use std::time::{Duration, Instant};

use cots_core::ServiceReport;
use cots_serve::QueryReq;

use crate::block::{Block, CheckOutcome};
use crate::layers::{self, StageCosts};
use crate::reduce::{median, percentile, reduce_slices, Slice};
use crate::report::{Metric, WorkloadResult};
use crate::restart;
use crate::server::{msg, DataDir, Env, ProcSample, Result, Server};
use crate::span;
use crate::spec::{self, Workload};
use crate::window::{self, Session, Stop, WindowLog};

/// Completed checkpoints the `ingest_durable` window must contain.
const MIN_CHECKPOINTS: u64 = 10;

fn describe(c: &CheckOutcome) -> String {
    format!(
        "frequent({}) truly={} missed={} bound_violations={} total_mismatch={} => {}",
        spec::CHECK_PHI,
        c.truly_frequent,
        c.missed,
        c.bound_violations,
        c.total_mismatch,
        if c.passed() { "PASS" } else { "FAIL" }
    )
}

/// The window's latency and staleness distributions, for `results.json`
/// and the README's record of how the limits were derived.
fn distributions(logs: &[&WindowLog]) -> Vec<(String, String)> {
    let show = |mut v: Vec<u64>| {
        v.sort_unstable();
        let p = |q| percentile(&v, q);
        format!(
            "p50={} p90={} p95={} p99={} n={}",
            p(50.0),
            p(90.0),
            p(95.0),
            p(99.0),
            v.len()
        )
    };
    let frames = || logs.iter().flat_map(|l| l.frames.iter());
    let queries = || logs.iter().flat_map(|l| l.queries.iter());
    let rejected = frames().filter(|f| f.rejected).count();
    vec![
        (
            "ingest_latency_us".into(),
            format!(
                "{} rejected_once={rejected}",
                show(frames().map(|f| f.latency_ns / 1000).collect())
            ),
        ),
        (
            "ingest_latency_us_accepted_first_time".into(),
            show(
                frames()
                    .filter(|f| !f.rejected)
                    .map(|f| f.latency_ns / 1000)
                    .collect(),
            ),
        ),
        (
            "query_latency_us".into(),
            show(queries().map(|q| q.latency_ns / 1000).collect()),
        ),
        (
            "query_staleness_keys".into(),
            show(queries().map(|q| q.staleness).collect()),
        ),
        (
            "generator_lateness_us".into(),
            show(
                queries()
                    .map(|q| q.late_ns / 1000)
                    .chain(frames().map(|f| f.late_ns / 1000))
                    .collect(),
            ),
        ),
    ]
}

/// The per-slice values behind the medians, for `results.json`.
fn slice_values(slices: &[Slice]) -> Vec<(String, String)> {
    let row = |f: &dyn Fn(&Slice) -> f64| {
        slices
            .iter()
            .map(|s| format!("{:.4}", f(s)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    vec![
        // Demoted from the end-to-end metrics (too noisy to bound on a
        // 2-vCPU sandbox); the traced run reports it per layer as
        // `serve.client.query_rtt_p50_us`.
        (
            "query_p50_ms".into(),
            format!("{}", reduce_slices(slices).query_p50_ms),
        ),
        (
            "slices_throughput_meps".into(),
            row(&|s| s.keys as f64 / s.secs / 1e6),
        ),
        (
            "slices_cpu_s_per_mkeys".into(),
            row(&|s| s.cpu_secs / (s.keys as f64 / 1e6)),
        ),
        (
            "slices_ingest_slo_frac".into(),
            row(&|s| s.frames_ok as f64 / s.frames as f64),
        ),
        (
            "slices_query_slo_frac".into(),
            row(&|s| s.queries_ok as f64 / s.queries as f64),
        ),
    ]
}

fn end_to_end(setup_secs: &[f64], slices: &[Slice]) -> Vec<Metric> {
    let e = reduce_slices(slices);
    vec![
        Metric::new("setup_s", median(setup_secs), "s"),
        Metric::new("throughput_meps", e.throughput_meps, "Mkeys/s"),
        Metric::new("cpu_s_per_mkeys", e.cpu_s_per_mkeys, "s/Mkeys"),
        Metric::new("ingest_slo_frac", e.ingest_slo_frac, "frac"),
        Metric::new("query_slo_frac", e.query_slo_frac, "frac"),
    ]
}

/// The untraced run of a serving workload: [`spec::ROUNDS`] rounds, each
/// a fresh server set up from nothing, its share of the window's slices,
/// and the exact-truth check. How fast one server process runs is partly
/// settled when it starts (slices of one process agree far better than
/// processes do), so the slices are spread over several processes.
fn measure_serving(
    env: &Env,
    wl: &'static Workload,
    block: &Block,
    seed: u64,
    window: Duration,
) -> Result<WorkloadResult> {
    let warm_truth = block.frequent(spec::CHECK_PHI, wl.warmup_keys as u64);
    let rounds = spec::ROUNDS as u32;
    let mut setup_secs = Vec::new();
    let mut logs = Vec::new();
    let mut slices = Vec::new();
    let mut oracle = Vec::new();
    let (mut correct, mut checkpoints, mut io_errors) = (true, 0, 0);
    for round in 0..rounds {
        let (mut sess, secs) = window::setup(env, wl, block, &warm_truth, window)?;
        setup_secs.push(secs);
        let persist = |r: &ServiceReport| r.persist.clone().unwrap_or_default();
        let before = persist(&sess.query.stats().map_err(msg("STATS"))?);
        let log = sess.run_window(
            block,
            wl,
            Stop::After(window / rounds),
            spec::SLICES as u32 / rounds,
            seed.wrapping_add(round as u64),
            false,
        )?;
        let check = sess.check(block)?;
        let after = persist(&sess.query.stats().map_err(msg("STATS"))?);
        drop(sess); // kill this round's server before the next one starts
        correct &= check.passed() && log.insane() == 0;
        checkpoints += after.checkpoints - before.checkpoints;
        io_errors += after.io_errors;
        oracle.push(describe(&check));
        slices.extend(window::slices(&log, &wl.limits));
        logs.push(log);
    }
    let logs: Vec<&WindowLog> = logs.iter().collect();
    let insane: u64 = logs.iter().map(|l| l.insane()).sum();
    let queries: usize = logs.iter().map(|l| l.queries.len()).sum();
    let mut checks = vec![
        ("oracle".to_string(), oracle.join("; ")),
        (
            "query_sanity".into(),
            format!("{insane} of {queries} answers insane"),
        ),
    ];
    checks.extend(distributions(&logs));
    if wl.durable {
        checks.push((
            "checkpoints_in_window".into(),
            format!("{checkpoints} (need {MIN_CHECKPOINTS}), io_errors {io_errors}"),
        ));
        correct &= checkpoints >= MIN_CHECKPOINTS && io_errors == 0;
    }
    checks.extend(slice_values(&slices));
    checks.push(("setup_rounds_s".into(), format!("{setup_secs:.3?}")));
    Ok(WorkloadResult {
        workload: wl.name,
        correct,
        attempted: logs.iter().map(|l| l.attempted()).sum(),
        failed: logs.iter().map(|l| l.failed()).sum(),
        metrics: end_to_end(&setup_secs, &slices),
        checks,
    })
}

/// Build the restart data directory [`spec::ROUNDS`] times; keep the
/// last.
fn builds(env: &Env, wl: &Workload, block: &Block) -> Result<(restart::DataDirState, Vec<f64>)> {
    let mut secs = Vec::new();
    let mut kept = None;
    for n in 0..spec::ROUNDS {
        drop(kept.take());
        let (state, s) = restart::build(env, wl, block, n)?;
        secs.push(s);
        kept = Some(state);
    }
    Ok((kept.expect("at least one build"), secs))
}

/// The untraced run of `recover_restart`.
fn measure_restart(
    env: &Env,
    wl: &'static Workload,
    block: &Block,
    seed: u64,
    window: Duration,
) -> Result<WorkloadResult> {
    let (mut state, setup_secs) = builds(env, wl, block)?;
    let budget = window / spec::SLICES as u32;
    let mut cycles = Vec::new();
    for c in 0..spec::SLICES as u64 {
        cycles.push(restart::cycle(
            env,
            wl,
            block,
            &mut state,
            budget,
            seed.wrapping_add(c),
            false,
        )?);
    }
    let check = restart::reopen(env, &state)?.check(block)?;
    let probes: Vec<&WindowLog> = cycles.iter().map(|c| &c.probe).collect();
    let insane: u64 = probes.iter().map(|p| p.insane()).sum();
    let mut checks = vec![
        ("oracle_after_last_kill".into(), describe(&check)),
        (
            "acked_keys_surviving".into(),
            format!("{} (every restart's total matched exactly)", state.sent),
        ),
        ("query_sanity".into(), format!("{insane} answers insane")),
        (
            "recover_secs".into(),
            cycles
                .iter()
                .map(|c| format!("{:.3}", c.slice.secs))
                .collect::<Vec<_>>()
                .join(" "),
        ),
    ];
    checks.extend(distributions(&probes));
    let slices: Vec<Slice> = cycles.iter().map(|c| c.slice.clone()).collect();
    checks.extend(slice_values(&slices));
    checks.push(("setup_rounds_s".into(), format!("{setup_secs:.3?}")));
    Ok(WorkloadResult {
        workload: wl.name,
        correct: check.passed() && insane == 0,
        // Each restart is an operation too.
        attempted: probes.iter().map(|p| p.attempted() + 1).sum(),
        failed: probes.iter().map(|p| p.failed()).sum(),
        metrics: end_to_end(&setup_secs, &slices),
        checks,
    })
}

/// The `p`-th percentile of `samples` (scaled down by `per_unit`) as a
/// metric, with the sample count as its note.
fn pct(
    name: &'static str,
    samples: &mut [u64],
    p: f64,
    per_unit: f64,
    unit: &'static str,
) -> Metric {
    samples.sort_unstable();
    let mut m = Metric::new(name, percentile(samples, p) as f64 / per_unit, unit);
    m.note = format!("n={}", samples.len());
    m
}

/// Per-layer metrics read from the client's records of the traced window.
fn client_metrics(log: &WindowLog, idle_rtt: Metric) -> Vec<Metric> {
    let mut frames: Vec<u64> = log.frames.iter().map(|f| f.latency_ns).collect();
    let mut queries: Vec<u64> = log.queries.iter().map(|q| q.latency_ns).collect();
    let mut late: Vec<u64> = log
        .queries
        .iter()
        .map(|q| q.late_ns)
        .chain(log.frames.iter().map(|f| f.late_ns))
        .collect();
    let mut stale: Vec<u64> = log.queries.iter().map(|q| q.staleness).collect();
    let epochs = match (log.queries.first(), log.queries.last()) {
        (Some(a), Some(b)) if b.done_ns > a.done_ns => {
            (b.epoch - a.epoch) as f64 / ((b.done_ns - a.done_ns) as f64 / 1e9)
        }
        _ => 0.0,
    };
    let mut out = vec![
        pct(
            "serve.client.ingest_rtt_p50_us",
            &mut frames,
            50.0,
            1e3,
            "us",
        ),
        pct(
            "serve.client.ingest_rtt_p99_us",
            &mut frames,
            99.0,
            1e3,
            "us",
        ),
        pct(
            "serve.client.query_rtt_p50_us",
            &mut queries,
            50.0,
            1e3,
            "us",
        ),
        pct(
            "serve.client.query_rtt_p99_us",
            &mut queries,
            99.0,
            1e3,
            "us",
        ),
        idle_rtt,
        pct("serve.client.late_p99_us", &mut late, 99.0, 1e3, "us"),
        pct(
            "serve.service.staleness_p50_keys",
            &mut stale,
            50.0,
            1.0,
            "keys",
        ),
        pct(
            "serve.service.staleness_p99_keys",
            &mut stale,
            99.0,
            1.0,
            "keys",
        ),
        Metric::new("cots.publish.per_s", epochs, "1/s"),
    ];
    // Where a frame's time goes, from the span tree: each child's span,
    // and the frame's self time (in flight behind other frames).
    for (name, child) in [
        ("serve.client.frame_encode_us", "encode"),
        ("serve.client.frame_send_us", "send"),
        ("serve.client.frame_wait_ack_us", "wait_ack"),
        ("serve.client.frame_decode_ack_us", "decode_ack"),
    ] {
        let mut ns = span::durations(&log.spans, "frame", child);
        out.push(Metric::timing(name, &mut ns, 1e3, "us"));
    }
    let mut self_ns = span::self_times(&log.spans, "frame");
    out.push(Metric::timing(
        "serve.client.frame_self_us",
        &mut self_ns,
        1e3,
        "us",
    ));
    out
}

/// Per-layer metrics read from STATS and `/proc` over the traced part.
fn server_metrics(
    before: Option<&ServiceReport>,
    after: &ServiceReport,
    edges: &[(u64, ProcSample)],
) -> Vec<Metric> {
    let zero = ServiceReport::default();
    let before = before.unwrap_or(&zero);
    let keys = (after.applied_keys() - before.applied_keys()).max(1) as f64;
    let shard_keys: Vec<f64> = after
        .shards
        .iter()
        .map(|s| {
            let was = before
                .shards
                .iter()
                .find(|b| b.shard == s.shard)
                .map_or(0, |b| b.keys);
            (s.keys - was) as f64
        })
        .collect();
    let mean = shard_keys.iter().sum::<f64>() / shard_keys.len().max(1) as f64;
    let parks: u64 = after.shards.iter().map(|s| s.idle_parks).sum::<u64>()
        - before.shards.iter().map(|s| s.idle_parks).sum::<u64>();
    let frames = (after.ingest_frames - before.ingest_frames) as f64;
    let rejected = (after.rejected_frames - before.rejected_frames) as f64;
    let persist = |r: &ServiceReport| r.persist.clone().unwrap_or_default();
    let (p0, p1) = (persist(before), persist(after));
    let syncs = (p1.wal_syncs - p0.wal_syncs) as f64;
    let (first, last) = (edges[0].1, edges[edges.len() - 1].1);
    let cpu = (last.cpu_secs() - first.cpu_secs()).max(f64::MIN_POSITIVE);
    vec![
        Metric::new(
            "serve.shard.max_queue_depth",
            after
                .shards
                .iter()
                .map(|s| s.max_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            "batches",
        ),
        Metric::new(
            "serve.shard.idle_parks_per_mkeys",
            parks as f64 / (keys / 1e6),
            "1/Mkeys",
        ),
        Metric::new(
            "serve.shard.key_skew",
            shard_keys.iter().cloned().fold(0.0, f64::max) / mean.max(1.0),
            "x",
        ),
        Metric::new(
            "serve.service.rejected_frame_frac",
            rejected / (frames + rejected).max(1.0),
            "frac",
        ),
        Metric::new(
            "persist.wal.keys_per_sync",
            if syncs > 0.0 {
                (p1.wal_keys - p0.wal_keys) as f64 / syncs
            } else {
                0.0
            },
            "keys",
        ),
        Metric::new(
            "persist.checkpoint.count",
            (p1.checkpoints - p0.checkpoints) as f64,
            "count",
        ),
        Metric::new(
            "persist.io_errors",
            (p1.io_errors - p0.io_errors) as f64,
            "count",
        ),
        Metric::new("serve.process.peak_rss_mb", last.peak_rss_mb, "MiB"),
        Metric::new(
            "serve.process.ctx_switches_per_mkeys",
            (last.ctx_switches - first.ctx_switches) as f64 / (keys / 1e6),
            "1/Mkeys",
        ),
        Metric::new(
            "serve.process.sys_cpu_frac",
            (last.sys_secs - first.sys_secs) / cpu,
            "frac",
        ),
    ]
}

/// `Point` round trips on an idle server: the reactor + syscall floor.
fn idle_rtt(sess: &mut Session, block: &Block) -> Result<Metric> {
    let mut samples = Vec::with_capacity(200);
    for i in 0..200 {
        let t = Instant::now();
        sess.query
            .query(QueryReq::Point {
                key: block.keys()[i],
            })
            .map_err(msg("idle QUERY"))?;
        samples.push(t.elapsed().as_nanos() as u64);
    }
    Ok(Metric::timing(
        "serve.client.idle_rtt_us",
        &mut samples,
        1e3,
        "us",
    ))
}

/// Spawn → `listening on` against an empty data directory, three times.
fn boot_ms(env: &Env) -> Result<Metric> {
    let mut samples = Vec::new();
    for _ in 0..3 {
        let server = Server::spawn(env, DataDir::Fresh, 0)?;
        samples.push((server.boot_secs * 1e9) as u64);
    }
    Ok(Metric::timing(
        "persist.recover.boot_ms",
        &mut samples,
        1e6,
        "ms",
    ))
}

/// The in-process half of a traced run, plus `datagen.gen_s` and
/// `persist.recover.boot_ms`.
fn replay_layers(env: &Env, wl: &Workload, block: &Block) -> Result<(Vec<Metric>, StageCosts)> {
    let scratch = env.run_dir.join("layers");
    fs::create_dir_all(&scratch).map_err(msg("create scratch dir"))?;
    let replayed = layers::replay(block, wl, &scratch);
    let _ = fs::remove_dir_all(&scratch);
    let (mut metrics, costs) = replayed?;
    metrics.insert(0, Metric::new("datagen.gen_s", block.gen_secs, "s"));
    metrics.push(boot_ms(env)?);
    Ok((metrics, costs))
}

fn write_spans(env: &Env, wl: &Workload, log: &WindowLog) -> Result<()> {
    let path = env.out_dir.join(format!("trace-{}.json", wl.name));
    fs::write(&path, span::to_json(wl.name, &log.spans).dump()).map_err(msg("write span file"))
}

fn trace_metrics(
    costs_ns_per_key: f64,
    wall_ns_per_key: f64,
    untraced_rate: f64,
    traced_rate: f64,
) -> Vec<Metric> {
    vec![
        Metric::new(
            "trace.coverage_frac",
            costs_ns_per_key / wall_ns_per_key,
            "frac",
        ),
        Metric::new(
            "trace.overhead_frac",
            1.0 - traced_rate / untraced_rate,
            "frac",
        ),
    ]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The traced run of a serving workload: in-process replay, then the
/// same fixed work against a server, once untraced and once traced.
fn trace_serving(
    env: &Env,
    wl: &'static Workload,
    block: &Block,
    seed: u64,
) -> Result<WorkloadResult> {
    let (mut metrics, costs) = replay_layers(env, wl, block)?;
    let warm_truth = block.frequent(spec::CHECK_PHI, wl.warmup_keys as u64);
    // Long enough that a durable server checkpoints during the fixed work.
    let (mut sess, _) = window::setup(env, wl, block, &warm_truth, Duration::from_secs(4))?;
    let idle = idle_rtt(&mut sess, block)?;
    let stop = Stop::Keys(wl.trace_server_keys());
    let untraced = sess.run_window(block, wl, stop, 1, seed, false)?;
    sess.quiesce()?;
    let before = sess.query.stats().map_err(msg("STATS"))?;
    let traced = sess.run_window(block, wl, stop, 1, seed, true)?;
    let check = sess.check(block)?;
    let after = sess.query.stats().map_err(msg("STATS"))?;
    drop(sess);
    write_spans(env, wl, &traced)?;

    let rate = |l: &WindowLog| l.keys() as f64 / l.ingest_wall_ns.max(1) as f64;
    metrics.extend(client_metrics(&traced, idle));
    metrics.extend(server_metrics(Some(&before), &after, &traced.edges));
    metrics.extend(trace_metrics(
        costs.blocking_path(nproc()),
        1.0 / rate(&untraced),
        rate(&untraced),
        rate(&traced),
    ));
    let insane = untraced.insane() + traced.insane();
    Ok(WorkloadResult {
        workload: wl.name,
        correct: check.passed() && insane == 0,
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed() + traced.failed(),
        metrics,
        checks: vec![("oracle".into(), describe(&check))],
    })
}

/// The traced run of `recover_restart`: in-process replay, then one
/// untraced and one traced restart cycle.
fn trace_restart(
    env: &Env,
    wl: &'static Workload,
    block: &Block,
    seed: u64,
) -> Result<WorkloadResult> {
    let (mut metrics, _) = replay_layers(env, wl, block)?;
    let (mut state, _) = restart::build(env, wl, block, 0)?;
    let budget = Duration::from_secs(2);
    let untraced = restart::cycle(env, wl, block, &mut state, budget, seed, false)?;
    let traced = restart::cycle(
        env,
        wl,
        block,
        &mut state,
        budget,
        seed.wrapping_add(1),
        true,
    )?;

    let mut sess = restart::reopen(env, &state)?;
    let check = sess.check(block)?;
    let idle = idle_rtt(&mut sess, block)?;
    drop(sess);
    write_spans(env, wl, &traced.probe)?;

    metrics.extend(client_metrics(&traced.probe, idle));
    metrics.extend(server_metrics(None, &traced.stats, &traced.probe.edges));
    // Here the blocking step is recovery itself: scan the log, replay it.
    let stage = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let predicted =
        stage("persist.recover.scan_ns_per_key") + stage("persist.recover.replay_ns_per_key");
    let wall = |c: &restart::Cycle| c.slice.secs * 1e9 / c.slice.keys.max(1) as f64;
    metrics.extend(trace_metrics(
        predicted,
        wall(&traced),
        1.0 / wall(&untraced),
        1.0 / wall(&traced),
    ));
    let insane = untraced.probe.insane() + traced.probe.insane();
    Ok(WorkloadResult {
        workload: wl.name,
        correct: check.passed() && insane == 0,
        attempted: untraced.probe.attempted() + traced.probe.attempted() + 2,
        failed: untraced.probe.failed() + traced.probe.failed(),
        metrics,
        checks: vec![("oracle_after_last_kill".into(), describe(&check))],
    })
}

/// Run one workload and return its metrics: end-to-end ones with
/// tracing off, per-layer ones with it on.
pub fn run(
    env: &Env,
    wl: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<WorkloadResult> {
    let block = Block::generate(spec::BLOCK_KEYS, wl.alphabet, wl.alpha, seed);
    let window = Duration::from_secs(seconds);
    match (trace, wl.restart) {
        (false, false) => measure_serving(env, wl, &block, seed, window),
        (false, true) => measure_restart(env, wl, &block, seed, window),
        (true, false) => trace_serving(env, wl, &block, seed),
        (true, true) => trace_restart(env, wl, &block, seed),
    }
}
