//! Ablation microbenchmarks for the design choices called out in
//! DESIGN.md: epoch-pin batching, adaptive scheduling, serial vs
//! hierarchical merge, the request queue, the delegation hash table, and
//! the zipf samplers.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use cots::{CotsEngine, RuntimeOptions};
use cots_core::merge::merge_snapshots;
use cots_core::report::WorkTally;
use cots_core::{ConcurrentCounter, CotsConfig, FrequencyCounter, QueryableSummary, SummaryConfig};
use cots_datagen::{AliasTable, StreamSpec, Zipf};
use cots_naive::MergeStrategy;
use cots_sequential::SpaceSaving;

const N: usize = 200_000;

fn stream(alpha: f64) -> Vec<u64> {
    StreamSpec::zipf(N, 10_000, alpha, 42).generate()
}

/// Epoch-pin batching: delegate() per element vs delegate_batch().
fn ablate_batch(c: &mut Criterion) {
    let data = stream(2.0);
    let mut g = c.benchmark_group("ablate_batch");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    for &batch in &[1usize, 64, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                let e = CotsEngine::<u64>::new(CotsConfig::for_capacity(1000).unwrap()).unwrap();
                for chunk in data.chunks(batch) {
                    e.delegate_batch(chunk);
                }
                e.finalize();
                e.processed()
            });
        });
    }
    g.finish();
}

/// Adaptive σ/ρ scheduling on/off under 16 threads.
fn ablate_adaptive(c: &mut Criterion) {
    let data = stream(2.5);
    let mut g = c.benchmark_group("ablate_adaptive");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    for &adaptive in &[false, true] {
        g.bench_with_input(
            BenchmarkId::from_parameter(if adaptive { "adaptive" } else { "fixed" }),
            &adaptive,
            |b, &adaptive| {
                b.iter(|| {
                    let config = if adaptive {
                        CotsConfig::for_capacity(1000)
                            .unwrap()
                            .with_adaptive(256, 32)
                    } else {
                        CotsConfig::for_capacity(1000).unwrap()
                    };
                    let e = Arc::new(CotsEngine::<u64>::new(config).unwrap());
                    cots::run(
                        &e,
                        &data,
                        RuntimeOptions {
                            threads: 16,
                            batch: 1024,
                            adaptive,
                        },
                    )
                    .unwrap()
                    .elements
                });
            },
        );
    }
    g.finish();
}

/// Serial vs hierarchical merge of 8 local summaries.
fn ablate_merge(c: &mut Criterion) {
    let data = stream(2.0);
    let mut g = c.benchmark_group("ablate_merge");
    g.sample_size(10);
    for (name, strategy) in [
        ("serial", MergeStrategy::Serial),
        ("hierarchical", MergeStrategy::Hierarchical),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let engine = cots_naive::IndependentSpaceSaving {
                    config: SummaryConfig::with_capacity(1000).unwrap(),
                    strategy,
                    merge_every: Some(20_000),
                };
                engine.run(&data, 8, false).unwrap().merges
            });
        });
    }
    // The merge primitive itself, over 8 pre-built snapshots.
    let snapshots: Vec<_> = (0..8u64)
        .map(|seed| {
            let mut ss = SpaceSaving::<u64>::new(SummaryConfig::with_capacity(1000).unwrap());
            ss.process_slice(&StreamSpec::zipf(50_000, 5_000, 2.0, seed).generate());
            ss.snapshot()
        })
        .collect();
    g.bench_function("merge_snapshots_8x1000", |b| {
        b.iter(|| merge_snapshots(&snapshots, 1000).len());
    });
    g.finish();
}

/// Request-queue choice: lock-free SegQueue vs a mutexed VecDeque.
fn ablate_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_queue");
    g.throughput(Throughput::Elements(100_000));
    g.sample_size(10);
    g.bench_function("segqueue", |b| {
        b.iter(|| {
            let q = crossbeam::queue::SegQueue::new();
            for i in 0..100_000u64 {
                q.push(i);
            }
            let mut sum = 0u64;
            while let Some(v) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        });
    });
    g.bench_function("mutex_vecdeque", |b| {
        b.iter(|| {
            let q = Mutex::new(VecDeque::new());
            for i in 0..100_000u64 {
                q.lock().push_back(i);
            }
            let mut sum = 0u64;
            while let Some(v) = q.lock().pop_front() {
                sum = sum.wrapping_add(v);
            }
            sum
        });
    });
    g.finish();
}

/// Delegation hash table vs a mutexed std HashMap (single-thread probe
/// cost; the concurrency benefits are covered by the figure experiments).
fn ablate_hash(c: &mut Criterion) {
    let data = stream(1.5);
    let mut g = c.benchmark_group("ablate_hash");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    g.bench_function("cots_table", |b| {
        b.iter(|| {
            let table = cots::hashtable::HashTable::<u64>::new(14, Arc::new(WorkTally::new()));
            let guard = crossbeam::epoch::pin();
            let mut hits = 0u64;
            for &k in &data {
                let n = table.lookup_or_insert(k, &guard);
                // SAFETY: returned under the live `guard` above; nothing is
                // reclaimed while that pin is held.
                hits = hits.wrapping_add(unsafe { n.deref() }.key);
            }
            hits
        });
    });
    g.bench_function("mutex_hashmap", |b| {
        b.iter(|| {
            let table: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::with_capacity(1 << 14));
            let mut hits = 0u64;
            for &k in &data {
                let mut t = table.lock();
                let v = t.entry(k).or_insert(k);
                hits = hits.wrapping_add(*v);
            }
            hits
        });
    });
    g.finish();
}

/// Zipf sampler: exact inverse-CDF vs alias method.
fn zipf_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("zipf_gen");
    g.throughput(Throughput::Elements(100_000));
    g.sample_size(10);
    let n = 100_000;
    let alpha = 2.0;
    g.bench_function("exact_cdf", |b| {
        let z = Zipf::new(n, alpha);
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(z.sample(&mut rng));
            }
            acc
        });
    });
    g.bench_function("alias", |b| {
        let a = AliasTable::zipf(n, alpha);
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(a.sample_rank(&mut rng));
            }
            acc
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    ablate_batch,
    ablate_adaptive,
    ablate_merge,
    ablate_queue,
    ablate_hash,
    zipf_gen
);
criterion_main!(benches);
