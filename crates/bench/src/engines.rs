//! Uniform engine runners used by every experiment of [`crate::repro`]
//! and by `perf-gate`.

use std::sync::Arc;
use std::time::Instant;

use cots::{CotsEngine, RuntimeOptions};
use cots_core::{
    ConcurrentCounter, CotsConfig, FrequencyCounter, QueryableSummary, RunStats, SummaryConfig,
};
use cots_datagen::partition::chunked;
use cots_naive::independent::{IndependentSpaceSaving, MergeStrategy};
use cots_naive::runner::{run_concurrent, run_concurrent_batched};
use cots_naive::{HybridSpaceSaving, LockKind, SharedSpaceSaving};
use cots_profiling::PhaseTimes;
use cots_sequential::SpaceSaving;

use crate::harness::CAPACITY;

/// Sequential Space Saving over the stream; the baseline of Table 2 and
/// the 1-thread reference elsewhere.
pub fn run_sequential(stream: &[u64]) -> RunStats {
    let mut engine = SpaceSaving::<u64>::new(SummaryConfig::with_capacity(CAPACITY).unwrap());
    let start = Instant::now();
    engine.process_slice(stream);
    let elapsed = start.elapsed();
    // Consume the snapshot so the work cannot be optimized away and the
    // result is sanity-checked.
    let sum: u64 = engine.snapshot().entries().iter().map(|e| e.count).sum();
    assert_eq!(sum, stream.len() as u64);
    RunStats {
        engine: "sequential".into(),
        threads: 1,
        elements: stream.len() as u64,
        elapsed,
        work: Default::default(),
    }
}

/// The shared locked design (§4.2) with the chosen lock flavour.
pub fn run_shared(
    stream: &[u64],
    threads: usize,
    kind: LockKind,
    profile: bool,
) -> (RunStats, Vec<PhaseTimes>) {
    let engine =
        SharedSpaceSaving::<u64>::new(SummaryConfig::with_capacity(CAPACITY).unwrap(), kind)
            .unwrap();
    let out = run_concurrent(&engine, stream, threads, profile).unwrap();
    let sum: u64 = engine.snapshot().entries().iter().map(|e| e.count).sum();
    assert_eq!(sum, stream.len() as u64, "shared engine lost counts");
    (out.stats, out.phase_times)
}

/// The independent shared-nothing design (§4.1).
pub fn run_independent(
    stream: &[u64],
    threads: usize,
    strategy: MergeStrategy,
    merge_every: Option<u64>,
    profile: bool,
) -> (RunStats, Vec<PhaseTimes>) {
    let engine = IndependentSpaceSaving {
        config: SummaryConfig::with_capacity(CAPACITY).unwrap(),
        strategy,
        merge_every,
    };
    let out = engine.run(stream, threads, profile).unwrap();
    assert_eq!(out.snapshot.total(), stream.len() as u64);
    (out.stats, out.phase_times)
}

/// The shared locked design driven through `ingest_batch` — the
/// batch-for-batch counterpart of [`run_shared`], used wherever CoTS's
/// batched ingest is on the other side of the comparison.
pub fn run_shared_batched(
    stream: &[u64],
    threads: usize,
    kind: LockKind,
    batch: usize,
) -> RunStats {
    let engine =
        SharedSpaceSaving::<u64>::new(SummaryConfig::with_capacity(CAPACITY).unwrap(), kind)
            .unwrap();
    let stats = run_concurrent_batched(&engine, stream, threads, batch).unwrap();
    let sum: u64 = engine.snapshot().entries().iter().map(|e| e.count).sum();
    assert_eq!(sum, stream.len() as u64, "shared engine lost counts");
    stats
}

/// The hybrid of §4.4: per-thread caches of 64 keys, flushed every 4 096
/// elements into the shared locked design. The work counters are the shared
/// structure's, so `lock_acquisitions` is the traffic the caches let through.
pub fn run_hybrid(stream: &[u64], threads: usize) -> RunStats {
    let engine = HybridSpaceSaving::<u64>::new(
        SummaryConfig::with_capacity(CAPACITY).unwrap(),
        LockKind::Mutex,
        64,
        4_096,
    )
    .unwrap();
    let chunks = chunked(stream, threads);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for chunk in &chunks {
            let engine = &engine;
            scope.spawn(move || {
                let mut cache = engine.new_cache();
                for &item in *chunk {
                    engine.process_cached(&mut cache, item);
                }
                engine.flush(&mut cache);
            });
        }
    });
    let elapsed = start.elapsed();
    let sum: u64 = engine.snapshot().entries().iter().map(|e| e.count).sum();
    assert_eq!(sum, stream.len() as u64, "hybrid lost counts");
    RunStats {
        engine: "hybrid".into(),
        threads,
        elements: stream.len() as u64,
        elapsed,
        work: engine.shared().work(),
    }
}

/// The CoTS framework with explicit control over the combining front-end
/// and counter budget (perf-gate ablations). Returns the run stats and the
/// engine itself so callers can compare finalize-time estimates.
pub fn run_cots_frontend(
    stream: &[u64],
    threads: usize,
    capacity: usize,
    combiner: bool,
    batch: usize,
) -> (RunStats, Arc<CotsEngine<u64>>) {
    let mut cfg = CotsConfig::for_capacity(capacity).unwrap();
    if !combiner {
        cfg = cfg.without_combiner();
    }
    let engine = Arc::new(CotsEngine::<u64>::new(cfg).unwrap());
    let stats = cots::run(
        &engine,
        stream,
        RuntimeOptions {
            threads,
            batch,
            adaptive: false,
        },
    )
    .unwrap();
    let sum: u64 = engine.snapshot().entries().iter().map(|e| e.count).sum();
    assert_eq!(sum, stream.len() as u64, "cots engine lost counts");
    assert_eq!(
        engine.processed(),
        stream.len() as u64,
        "cots engine miscounted"
    );
    (stats, engine)
}

/// The CoTS framework (§5); with `adaptive`, under the §5.2.3 σ/ρ thread
/// gate at σ = 256, ρ = 32.
pub fn run_cots(stream: &[u64], threads: usize, adaptive: bool) -> RunStats {
    let mut config = CotsConfig::for_capacity(CAPACITY).unwrap();
    if adaptive {
        config = config.with_adaptive(256, 32);
    }
    let engine = Arc::new(CotsEngine::<u64>::new(config).unwrap());
    let stats = cots::run(
        &engine,
        stream,
        RuntimeOptions {
            threads,
            batch: 2048,
            adaptive,
        },
    )
    .unwrap();
    let sum: u64 = engine.snapshot().entries().iter().map(|e| e.count).sum();
    assert_eq!(sum, stream.len() as u64, "cots engine lost counts");
    assert_eq!(
        engine.processed(),
        stream.len() as u64,
        "cots engine miscounted"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::paper_stream;

    #[test]
    fn all_engines_agree_on_totals() {
        let stream = paper_stream(20_000, 2.0, 3);
        let seq = run_sequential(&stream);
        assert_eq!(seq.elements, 20_000);
        let (sh, _) = run_shared(&stream, 2, LockKind::Mutex, false);
        assert_eq!(sh.elements, 20_000);
        let (ind, _) = run_independent(&stream, 2, MergeStrategy::Serial, Some(5_000), false);
        assert_eq!(ind.elements, 20_000);
        let cots = run_cots(&stream, 2, false);
        assert_eq!(cots.elements, 20_000);
        let adaptive = run_cots(&stream, 2, true);
        assert_eq!(adaptive.elements, 20_000);
        let shb = run_shared_batched(&stream, 2, LockKind::Mutex, 512);
        assert_eq!(shb.elements, 20_000);
        let hy = run_hybrid(&stream, 2);
        assert_eq!(hy.elements, 20_000);
        assert!(hy.work.lock_acquisitions > 0);
        let (on, e_on) = run_cots_frontend(&stream, 2, CAPACITY, true, 512);
        let (off, e_off) = run_cots_frontend(&stream, 2, CAPACITY, false, 512);
        assert_eq!(on.elements, 20_000);
        assert_eq!(off.elements, 20_000);
        assert!(on.work.combiner_flushes > 0);
        assert_eq!(off.work.combiner_flushes, 0);
        drop((e_on, e_off));
    }
}
