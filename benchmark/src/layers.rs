//! In-process replay of the layers, one thread, pipeline order.
//!
//! The traced run's first part: the first [`spec::TRACE_KEYS`] keys of
//! the workload's block, framed as the workload frames them, pushed
//! through each layer's public functions with a clock around every call.
//! The work is fixed, so the counts (`bytes_per_key`, the engine's work
//! counters) repeat exactly from run to run; the timings say what each
//! layer costs when nothing else contends.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cots::{CotsEngine, SnapshotPublisher};
use cots_core::merge::merge_snapshots;
use cots_core::{CotsConfig, Snapshot, SummaryConfig, Threshold};
use cots_persist::{
    load_checkpoint, recover, write_checkpoint, Checkpoint, FsyncPolicy, WalWriter,
    DEFAULT_SEGMENT_BYTES,
};
use cots_sequential::SpaceSaving;
use cots_serve::frame::encode_payload;
use cots_serve::protocol::encode;
use cots_serve::spsc::{ring, Pop};
use cots_serve::{
    bin1, Backend, FrameAssembler, Payload, QueryStamp, Request, Response, ShardSender,
};

use crate::block::Block;
use crate::report::Metric;
use crate::server::{msg, Result};
use crate::spec::{self, Workload};

/// Batches a shard worker logs and applies as one group (mirrors
/// `cots_serve::shard`'s drain burst).
const DRAIN_BURST: usize = 32;

/// Per-key cost of each stage, for the budget that should add up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageCosts {
    /// Client-side encode, ns/key.
    pub encode: f64,
    /// Server-side assemble + decode, ns/key.
    pub decode: f64,
    /// Shard partition, ns/key.
    pub partition: f64,
    /// Ring hand-off, ns/key (per batch ÷ keys per batch).
    pub handoff: f64,
    /// WAL append + commit at the workload's policy (0 when volatile).
    pub wal: f64,
    /// Engine apply, one thread.
    pub apply: f64,
    /// Engine apply, two threads sharing one engine, wall ns/key.
    pub apply_shared2: f64,
}

impl StageCosts {
    /// Wall nanoseconds per key the stages predict for a saturated
    /// closed loop: either the shard workers' own path (log, then apply,
    /// two workers side by side) or, when the host has fewer cores than
    /// busy threads, all the CPU work spread over the cores it has.
    pub fn blocking_path(&self, nproc: usize) -> f64 {
        let worker_path = self.wal + self.apply_shared2;
        let all_cpu =
            self.encode + self.decode + self.partition + self.handoff + self.wal + self.apply;
        worker_path.max(all_cpu / nproc.max(1) as f64)
    }
}

fn engine() -> Result<Arc<CotsEngine<u64>>> {
    let config = CotsConfig::for_capacity(spec::CAPACITY).map_err(msg("engine config"))?;
    Ok(Arc::new(CotsEngine::new(config).map_err(msg("engine"))?))
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Median duration of `rounds` calls of `f`, in nanosecond samples.
fn sample_ns<T>(rounds: usize, mut f: impl FnMut() -> T) -> Vec<u64> {
    (0..rounds)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Replay the fixed work through every layer. `scratch` is an empty
/// directory for the WAL and checkpoint files.
pub fn replay(block: &Block, wl: &Workload, scratch: &Path) -> Result<(Vec<Metric>, StageCosts)> {
    let keys = &block.keys()[..spec::TRACE_KEYS];
    let n_keys = keys.len() as f64;
    let mut metrics = Vec::new();
    let mut costs = StageCosts::default();

    // --- wire, partition, engine: one pass in pipeline order -----------
    let eng = engine()?;
    let mut asm = FrameAssembler::new();
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); spec::SHARDS];
    let mut batches: Vec<Vec<u64>> = Vec::new(); // what the shard workers see
    let (mut t_enc, mut t_dec, mut t_part, mut t_apply) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut wire_bytes = 0usize;
    for frame_keys in keys.chunks(wl.frame_keys) {
        let t = Instant::now();
        let wire = encode_payload(&Payload::Bin(bin1::encode_ingest(frame_keys)));
        t_enc += t.elapsed();
        wire_bytes += wire.len();

        let t = Instant::now();
        asm.extend(&wire);
        let payload = asm
            .next_frame()
            .map_err(msg("assemble frame"))?
            .ok_or("a whole frame did not assemble")?;
        let decoded = match bin1::decode_request(payload.bytes()).map_err(msg("decode frame"))? {
            Request::Ingest { keys } => keys,
            other => return Err(format!("decoded {other:?} from an INGEST frame")),
        };
        t_dec += t.elapsed();

        let t = Instant::now();
        for b in &mut buckets {
            b.clear();
        }
        for &k in &decoded {
            buckets[ShardSender::shard_of(k, spec::SHARDS)].push(k);
        }
        t_part += t.elapsed();

        let t = Instant::now();
        for b in &buckets {
            eng.delegate_batch(b);
        }
        t_apply += t.elapsed();
        batches.extend(buckets.iter().filter(|b| !b.is_empty()).cloned());
    }
    eng.finalize();
    costs.encode = ns(t_enc) / n_keys;
    costs.decode = ns(t_dec) / n_keys;
    costs.partition = ns(t_part) / n_keys;
    costs.apply = ns(t_apply) / n_keys;
    metrics.push(Metric::new(
        "serve.bin1.encode_ns_per_key",
        costs.encode,
        "ns/key",
    ));
    metrics.push(Metric::new(
        "serve.bin1.decode_ns_per_key",
        costs.decode,
        "ns/key",
    ));
    metrics.push(Metric::new(
        "serve.bin1.bytes_per_key",
        wire_bytes as f64 / n_keys,
        "B/key",
    ));
    metrics.push(Metric::new(
        "serve.shard.partition_ns_per_key",
        costs.partition,
        "ns/key",
    ));
    metrics.push(Metric::new(
        "cots.engine.apply_ns_per_key",
        costs.apply,
        "ns/key",
    ));

    let work = eng.work();
    let elements = work.elements.max(1) as f64;
    metrics.push(Metric::new(
        "cots.engine.combining_factor",
        work.combining_factor(),
        "x",
    ));
    metrics.push(Metric::new(
        "cots.engine.crossings_per_key",
        work.crossings_per_element(),
        "1/key",
    ));
    metrics.push(Metric::new(
        "cots.engine.overwrites_per_key",
        work.overwrites as f64 / elements,
        "1/key",
    ));
    metrics.push(Metric::new(
        "cots.engine.read_restarts_per_mkeys",
        work.read_restarts as f64 / (elements / 1e6),
        "1/Mkeys",
    ));

    // --- one small frame: encode → assemble → decode --------------------
    let mut small = sample_ns(4096, {
        let mut i = 0;
        let mut asm = FrameAssembler::new();
        move || {
            let frame = &keys[i * 256..(i + 1) * 256];
            i += 1;
            let wire = encode_payload(&Payload::Bin(bin1::encode_ingest(frame)));
            asm.extend(&wire);
            let payload = asm.next_frame().ok().flatten().expect("whole frame");
            bin1::decode_request(payload.bytes()).expect("valid frame")
        }
    });
    metrics.push(Metric::timing(
        "serve.frame.small_frame_ns",
        &mut small,
        1.0,
        "ns",
    ));

    // --- ring hand-off across two threads --------------------------------
    let handoffs = 200_000u64;
    let (mut tx, mut rx) = ring::<Vec<u64>>(spec::QUEUE_BATCHES);
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut got = 0;
            while got < handoffs {
                match rx.pop() {
                    Pop::Item(b) => {
                        std::hint::black_box(b);
                        got += 1;
                    }
                    Pop::Empty => std::thread::yield_now(),
                    Pop::Closed => break,
                }
            }
        });
        for _ in 0..handoffs {
            let mut item = Vec::new();
            while let Err(back) = tx.try_push(item) {
                item = back;
                std::thread::yield_now();
            }
        }
    });
    let handoff_ns = ns(t.elapsed()) / handoffs as f64;
    costs.handoff = handoff_ns * batches.len() as f64 / n_keys;
    metrics.push(Metric::new(
        "serve.spsc.handoff_ns_per_batch",
        handoff_ns,
        "ns/batch",
    ));

    // --- engine, two threads on hash-partitioned halves of one engine ----
    let shared = engine()?;
    let halves: Vec<Vec<&[u64]>> = (0..spec::SHARDS)
        .map(|s| {
            batches
                .iter()
                .filter(|b| ShardSender::shard_of(b[0], spec::SHARDS) == s)
                .map(Vec::as_slice)
                .collect()
        })
        .collect();
    let barrier = Barrier::new(spec::SHARDS + 1);
    let t = std::thread::scope(|s| {
        for half in &halves {
            let (shared, barrier) = (&shared, &barrier);
            s.spawn(move || {
                barrier.wait();
                for b in half {
                    shared.delegate_batch(b);
                }
            });
        }
        barrier.wait();
        Instant::now()
    });
    costs.apply_shared2 = ns(t.elapsed()) / n_keys;
    shared.finalize();
    metrics.push(Metric::new(
        "cots.engine.apply_shared2_ns_per_key",
        costs.apply_shared2,
        "ns/key",
    ));

    // --- the single-threaded baseline beside every engine number --------
    let mut ss = SpaceSaving::new(
        SummaryConfig::with_capacity(spec::CAPACITY).map_err(msg("summary config"))?,
    );
    let t = Instant::now();
    for &k in keys {
        ss.process_weighted(k, 1);
    }
    metrics.push(Metric::new(
        "sequential.space_saving.apply_ns_per_key",
        ns(t.elapsed()) / n_keys,
        "ns/key",
    ));
    std::hint::black_box(&ss);

    // --- capture, merge, publish, answer ---------------------------------
    let backend = Backend::Engine(eng.clone());
    let mut capture = sample_ns(50, || backend.capture());
    metrics.push(Metric::timing(
        "serve.shard.capture_us",
        &mut capture,
        1e3,
        "us",
    ));
    let (live, total, _) = backend.capture();
    let mut merge = sample_ns(50, || {
        merge_snapshots(&[live.clone(), live.clone()], spec::CAPACITY)
    });
    metrics.push(Metric::timing("core.merge.merge_us", &mut merge, 1e3, "us"));
    let publisher: SnapshotPublisher<u64> = SnapshotPublisher::new();
    let mut copies: Vec<Snapshot<u64>> = vec![live.clone(); 200];
    let mut publish = sample_ns(200, || {
        publisher.publish(copies.pop().expect("one copy per round"), total, None);
        publisher.current()
    });
    metrics.push(Metric::timing(
        "cots.publish.publish_us",
        &mut publish,
        1e3,
        "us",
    ));

    let snap = publisher.current();
    let stamp = QueryStamp {
        epoch: snap.epoch,
        captured_total: snap.captured_total,
        staleness: 0,
        rotations: None,
    };
    let answer = |entries| {
        encode(&Response::Answer {
            entries,
            total: snap.total(),
            stamp,
        })
    };
    let mut i = 0;
    let mut point = sample_ns(1000, || {
        i += 1;
        answer(snap.get(&keys[i]).into_iter().copied().collect())
    });
    metrics.push(Metric::timing("core.query.point_us", &mut point, 1e3, "us"));
    let mut topk = sample_ns(200, || answer(snap.top_k(100)));
    metrics.push(Metric::timing(
        "core.query.topk100_us",
        &mut topk,
        1e3,
        "us",
    ));
    let mut frequent = sample_ns(200, || {
        answer(snap.frequent(Threshold::Fraction(spec::CHECK_PHI)))
    });
    metrics.push(Metric::timing(
        "core.query.frequent_us",
        &mut frequent,
        1e3,
        "us",
    ));

    // --- WAL: append + commit at Off and at Always -----------------------
    let wal_dir = |policy: &str| scratch.join(format!("wal-{policy}"));
    let mut wal_bytes = 0u64;
    let mut log_all = |policy: FsyncPolicy, name: &str| -> Result<(Duration, Vec<u64>)> {
        let dir = wal_dir(name);
        std::fs::create_dir_all(&dir).map_err(msg("create wal dir"))?;
        let mut wal =
            WalWriter::open(&dir, 0, policy, DEFAULT_SEGMENT_BYTES).map_err(msg("open wal"))?;
        let mut commits = Vec::new();
        let mut seq = 0u64;
        let mut bytes = 0;
        let started = Instant::now();
        for burst in batches.chunks(DRAIN_BURST) {
            wal.append_run(seq, burst);
            seq += burst.len() as u64;
            let t = Instant::now();
            bytes += wal.commit().map_err(msg("wal commit"))?.bytes;
            commits.push(t.elapsed().as_nanos() as u64);
        }
        wal_bytes = bytes;
        Ok((started.elapsed(), commits))
    };
    let (off, _) = log_all(FsyncPolicy::Off, "off")?;
    let (always, mut syncs) = log_all(FsyncPolicy::Always, "always")?;
    metrics.push(Metric::new(
        "persist.wal.append_ns_per_key",
        ns(off) / n_keys,
        "ns/key",
    ));
    metrics.push(Metric::timing(
        "persist.wal.commit_sync_us",
        &mut syncs,
        1e3,
        "us",
    ));
    metrics.push(Metric::new(
        "persist.wal.bytes_per_key",
        wal_bytes as f64 / n_keys,
        "B/key",
    ));
    if wl.durable {
        costs.wal = ns(always) / n_keys;
    }

    // --- checkpoint write and load ---------------------------------------
    let ckpt_dir = scratch.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).map_err(msg("create checkpoint dir"))?;
    let mut paths = Vec::new();
    let mut watermark = 0;
    let mut write = Vec::new();
    for _ in 0..10 {
        watermark += 1;
        let ckpt = Checkpoint::from_snapshot(watermark, watermark, spec::CAPACITY, &live);
        let t = Instant::now();
        paths.push(
            write_checkpoint(&ckpt_dir, &ckpt)
                .map_err(msg("write checkpoint"))?
                .0,
        );
        write.push(t.elapsed().as_nanos() as u64);
    }
    metrics.push(Metric::timing(
        "persist.checkpoint.write_ms",
        &mut write,
        1e6,
        "ms",
    ));
    let mut load = Vec::new();
    for p in &paths {
        let t = Instant::now();
        std::hint::black_box(load_checkpoint(p).map_err(msg("load checkpoint"))?);
        load.push(t.elapsed().as_nanos() as u64);
    }
    metrics.push(Metric::timing(
        "persist.checkpoint.load_ms",
        &mut load,
        1e6,
        "ms",
    ));

    // --- recovery: scan the log, replay the tail into a fresh engine -----
    let t = Instant::now();
    let rec = recover(&wal_dir("off")).map_err(msg("recover"))?;
    let scan = t.elapsed();
    let recovered: usize = rec.batches.iter().map(|b| b.keys.len()).sum();
    if recovered != keys.len() {
        return Err(format!(
            "recovery found {recovered} of {} logged keys",
            keys.len()
        ));
    }
    let fresh = engine()?;
    let mut replayed_keys = 0;
    let t = Instant::now();
    for b in &rec.batches {
        if replayed_keys >= spec::TRACE_REPLAY_KEYS {
            break;
        }
        fresh.delegate_batch(&b.keys);
        replayed_keys += b.keys.len();
    }
    fresh.finalize();
    let replayed = t.elapsed();
    metrics.push(Metric::new(
        "persist.recover.scan_ns_per_key",
        ns(scan) / n_keys,
        "ns/key",
    ));
    metrics.push(Metric::new(
        "persist.recover.replay_ns_per_key",
        ns(replayed) / replayed_keys as f64,
        "ns/key",
    ));

    Ok((metrics, costs))
}
