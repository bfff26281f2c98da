//! Compare every frequency-counting engine in the suite on one stream:
//! throughput, accuracy against exact ground truth, and the work counters
//! that explain the differences.
//!
//! ```text
//! cargo run --release --example compare_backends [alpha]
//! ```

use std::sync::Arc;
use std::time::Instant;

use cots::{CotsEngine, RuntimeOptions};
use cots_core::{
    CotsConfig, FrequencyCounter, QueryableSummary, Snapshot, SummaryConfig, Threshold,
};
use cots_datagen::{AccuracyReport, ExactCounter, StreamSpec};
use cots_naive::{IndependentSpaceSaving, LockKind, MergeStrategy, SharedSpaceSaving};
use cots_sequential::{LossyCounting, SpaceSaving};

const N: usize = 1_000_000;
const ALPHABET: usize = 50_000;
const CAPACITY: usize = 1_000;
const THREADS: usize = 4;

fn main() {
    let alpha: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2.0);
    println!("stream: {N} elements, alphabet {ALPHABET}, zipf alpha = {alpha}\n");
    let stream = StreamSpec::zipf(N, ALPHABET, alpha, 7).generate();
    let truth = ExactCounter::from_stream(&stream);
    let threshold = Threshold::Fraction(0.001);

    println!(
        "{:<22} {:>10} {:>9} {:>9} {:>10} {:>12}",
        "engine", "M elem/s", "recall", "precision", "avg relerr", "top-25 hits"
    );

    let report = |name: &str, secs: f64, snap: Snapshot<u64>| {
        let acc = AccuracyReport::for_frequent(&snap, &truth, threshold);
        let topk = AccuracyReport::for_top_k(&snap, &truth, 25);
        println!(
            "{:<22} {:>10.2} {:>9.3} {:>9.3} {:>10.4} {:>11.0}%",
            name,
            N as f64 / secs / 1e6,
            acc.recall,
            acc.precision,
            acc.avg_relative_error,
            topk.recall * 100.0
        );
    };

    let cfg = SummaryConfig::with_capacity(CAPACITY).unwrap();

    // Sequential counter-based engines.
    let t = Instant::now();
    let mut e = SpaceSaving::<u64>::new(cfg);
    e.process_slice(&stream);
    report(
        "space-saving (seq)",
        t.elapsed().as_secs_f64(),
        e.snapshot(),
    );

    let t = Instant::now();
    let mut e = LossyCounting::<u64>::new(cfg);
    e.process_slice(&stream);
    report(
        "lossy-counting (seq)",
        t.elapsed().as_secs_f64(),
        e.snapshot(),
    );

    // Naive parallelizations.
    let t = Instant::now();
    let engine = SharedSpaceSaving::<u64>::new(cfg, LockKind::Mutex).unwrap();
    cots_naive::runner::run_concurrent(&engine, &stream, THREADS, false).unwrap();
    report(
        &format!("shared-mutex x{THREADS}"),
        t.elapsed().as_secs_f64(),
        engine.snapshot(),
    );

    let t = Instant::now();
    let ind = IndependentSpaceSaving {
        config: cfg,
        strategy: MergeStrategy::Serial,
        merge_every: Some(50_000),
    };
    let out = ind.run(&stream, THREADS, false).unwrap();
    report(
        &format!("independent x{THREADS}"),
        t.elapsed().as_secs_f64(),
        out.snapshot,
    );

    // CoTS.
    for threads in [THREADS, 16] {
        let engine =
            Arc::new(CotsEngine::<u64>::new(CotsConfig::for_capacity(CAPACITY).unwrap()).unwrap());
        let t = Instant::now();
        cots::run(
            &engine,
            &stream,
            RuntimeOptions {
                threads,
                batch: 2048,
                adaptive: false,
            },
        )
        .unwrap();
        let secs = t.elapsed().as_secs_f64();
        let w = engine.work();
        report(&format!("cots x{threads}"), secs, engine.snapshot());
        println!(
            "{:<22} {:>10} combining {:>5.1}, {:.3} summary ops/element",
            "",
            "",
            w.combining_factor(),
            w.summary_ops_per_element()
        );
    }

    println!("\nrecall/precision at threshold = 0.1% of the stream; top-25 hits = tie-tolerant top-k recall");
}
