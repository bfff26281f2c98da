//! Concurrency stress tests for the CoTS engine: each one hammers a
//! specific race the design must survive — tombstone vs increment, minimum
//! advancement storms, GC-forwarding of bucket queues, and mixed
//! adversarial churn — and then verifies full structural invariants and
//! exact count conservation at quiescence.

use std::sync::{Arc, Barrier};

use cots::{CotsEngine, RuntimeOptions};
use cots_core::{CheckInvariants, ConcurrentCounter, CotsConfig, QueryableSummary};

fn engine(capacity: usize) -> Arc<CotsEngine<u64>> {
    Arc::new(CotsEngine::new(CotsConfig::for_capacity(capacity).unwrap()).unwrap())
}

fn mass(e: &CotsEngine<u64>) -> u64 {
    e.snapshot().entries().iter().map(|x| x.count).sum()
}

fn verify(e: &CotsEngine<u64>, n: u64) {
    // The producers are gone, so nobody is bound to a queued request any
    // more and no drain helps another bucket: none may be left, even
    // before `finalize` sweeps the queues.
    assert_eq!(mass(e), n, "mass stranded in a queue:\n{}", e.debug_dump());
    e.finalize();
    // The full structural audit (collects every violation; see
    // cots_core::invariants), superset of check_quiescent_invariants.
    e.validate();
    assert_eq!(e.processed(), n);
    assert_eq!(mass(e), n, "count conservation");
}

/// Tombstone storm: tiny capacity, all-distinct keys from every thread —
/// every element triggers an overwrite, so `try_remove`/retry races and
/// chain GC run constantly.
#[test]
fn tombstone_storm() {
    let e = engine(4);
    let threads = 8;
    let per = 5_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let e = e.clone();
            s.spawn(move || {
                for i in 0..per {
                    // Unique key per (thread, i): pure eviction churn.
                    e.delegate((t as u64) << 32 | i);
                }
            });
        }
    });
    verify(&e, threads as u64 * per);
    let w = e.work();
    assert!(w.overwrites > 0);
}

/// Minimum-advance storm: two alternating hot keys with capacity 2 — the
/// minimum bucket empties and is retired constantly, exercising the
/// sentinel-anchored bucket turnover and queue forwarding. (This is the
/// workload that exposed the historical min-pointer races; see
/// docs/PROTOCOL.md §7.)
#[test]
fn min_advance_storm() {
    let e = engine(2);
    let threads = 6;
    let per = 8_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let e = e.clone();
            s.spawn(move || {
                for i in 0..per {
                    e.delegate((t as u64 + i) % 2);
                }
            });
        }
    });
    verify(&e, threads as u64 * per);
    assert!(
        e.work().gc_buckets > 0,
        "min buckets must have been collected"
    );
    // Both keys survive with exact totals (alphabet == capacity).
    let snap = e.snapshot();
    assert_eq!(snap.len(), 2);
    assert!(snap.entries().iter().all(|x| x.error == 0));
}

/// Delegation pile-up: one hot key and many threads with deliberately long
/// descheduling (oversubscription) so `pending` accumulates large logged
/// masses before each relinquish.
#[test]
fn bulk_increment_pileup() {
    let e = engine(8);
    let threads = 16;
    let per = 10_000u64;
    // Start together: a thread gets through its share in well under a
    // millisecond, less than it takes to spawn the rest.
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (e, start) = (e.clone(), &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..per {
                    e.delegate(99);
                }
            });
        }
    });
    verify(&e, threads as u64 * per);
    let (count, error) = e.estimate(&99).unwrap();
    assert_eq!(count, threads as u64 * per);
    assert_eq!(error, 0);
    let w = e.work();
    assert!(
        w.delegated_increments > 0,
        "16 threads on one key must delegate"
    );
}

/// Mixed adversarial churn through the public runtime, with interleaved
/// lock-free readers.
#[test]
fn mixed_churn_with_readers() {
    let e = engine(64);
    let n = 120_000usize;
    // Half hot keys, half one-shot keys, deterministic. Each of the 16 hot
    // keys occurs n/32 = 3750 times, well above the eviction floor
    // N/m = 1875 of a 64-counter summary.
    let stream: Vec<u64> = (0..n as u64)
        .map(|i| {
            if i % 2 == 0 {
                (i / 2) % 16
            } else {
                1_000_000 + i
            }
        })
        .collect();
    std::thread::scope(|s| {
        let we = e.clone();
        let ws = &stream;
        s.spawn(move || {
            cots::run(
                &we,
                ws,
                RuntimeOptions {
                    threads: 6,
                    batch: 256,
                    adaptive: false,
                },
            )
            .unwrap();
        });
        for _ in 0..2 {
            let e = e.clone();
            s.spawn(move || {
                for _ in 0..500 {
                    let snap = e.snapshot();
                    for entry in snap.entries() {
                        assert!(entry.error <= entry.count);
                    }
                    let _ = e.estimate(&4);
                    let _ = e.kth_frequency(7);
                }
            });
        }
    });
    verify(&e, n as u64);
    // The 16 hot keys (each ≈ n/32 ≈ 3750 ≫ eviction floor) must all be
    // monitored with exact counts.
    let snap = e.snapshot();
    for k in 0..16u64 {
        let entry = snap.get(&k).expect("hot key monitored");
        assert!(entry.guaranteed() >= 3_000, "hot key {k}: {entry:?}");
    }
}

/// Capacity-1 pathologies: a single counter with mixed keys — the minimum
/// bucket is *always* the only bucket and every new key must defer or
/// overwrite.
#[test]
fn capacity_one_survives_concurrency() {
    let e = engine(1);
    let threads = 4;
    let per = 3_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let e = e.clone();
            s.spawn(move || {
                for i in 0..per {
                    e.delegate(if i % 3 == 0 { 7 } else { (t as u64) << 32 | i });
                }
            });
        }
    });
    verify(&e, threads as u64 * per);
    assert_eq!(e.snapshot().len(), 1);
}

/// Deferred overwrites with nobody to help them: capacity 4, four threads,
/// every other element one of four shared keys and the rest all distinct.
/// The shared keys hover around the eviction floor, so the minimum bucket
/// keeps holding candidates that are busy with another thread's increment,
/// and overwrites are restashed behind them (all-distinct keys alone never
/// defer one). How often depends on the interleaving, so rounds repeat
/// until one has deferred. A reader freshens and takes snapshots the way
/// `cots-serve` does for the first half of each round; the second half
/// runs with producers only, so what `verify` finds in the summary before
/// its `finalize` got there with no reader's `drain_pending`.
///
/// `Σ counts ≤ applied()` is not asserted per snapshot: a lock-free walk
/// under churn can meet an evictee and the entry that replaced it, so a
/// live snapshot's sum may overshoot. What holds entry by entry is checked.
#[test]
fn deferred_overwrites_are_never_stranded() {
    let e = engine(4);
    let threads = 4u64;
    let per = 4_000u64;
    let mut n = 0;
    for round in 0..10u64 {
        let reader_until = n + threads * per / 2;
        n += threads * per;
        let start = Barrier::new(threads as usize + 1);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (e, start) = (e.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..per {
                        let fresh = (round * threads + t) << 32 | i;
                        e.delegate(if i % 2 == 0 { i / 2 % 4 } else { fresh });
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                while e.applied() < reader_until {
                    e.drain_pending();
                    let snap = e.snapshot();
                    let total = e.processed();
                    for x in snap.entries() {
                        assert!(x.error <= x.count && x.count <= total, "{x:?} of {total}");
                    }
                }
            });
        });
        assert_eq!(e.applied(), n);
        if e.work().overwrite_deferrals > 0 {
            break;
        }
    }
    assert!(
        e.work().overwrite_deferrals > 0,
        "no overwrite was deferred"
    );
    verify(&e, n);
    assert_eq!(e.snapshot().len(), 4);
}

/// Repeated runs on one engine instance (windowed interval-query usage
/// pattern): state must stay consistent across run boundaries.
#[test]
fn multiple_runs_accumulate() {
    let e = engine(64);
    let mut total = 0u64;
    for window in 0..5u64 {
        let stream: Vec<u64> = (0..10_000u64).map(|i| (i + window) % 100).collect();
        cots::run(
            &e,
            &stream,
            RuntimeOptions {
                threads: 3,
                batch: 512,
                adaptive: false,
            },
        )
        .unwrap();
        total += stream.len() as u64;
        assert_eq!(e.processed(), total);
    }
    verify(&e, total);
}

/// Batched ingestion with the combining front-end enabled (the default
/// config) under eviction churn: aggregated multi-unit flushes race
/// tombstones, overwrite deferrals and bucket retirement, and the whole
/// aggregate must bounce to a fresh entry when its node dies mid-flush.
#[test]
fn combined_batches_survive_eviction_churn() {
    let e = engine(16);
    let threads = 8;
    let per = 6_000usize;
    std::thread::scope(|s| {
        for t in 0..threads {
            let e = e.clone();
            s.spawn(move || {
                let mut x = 0x243F_6A88_85A3_08D3u64 ^ t as u64;
                let mut buf = Vec::with_capacity(64);
                for i in 0..per {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // Hot head (combines) + wide cold tail (churns
                    // overwrites against the 16-counter budget).
                    buf.push(if x & 3 != 0 {
                        x % 8
                    } else {
                        (1 << 40) | (x % 50_000)
                    });
                    if buf.len() == 64 || i + 1 == per {
                        e.ingest_batch(&buf);
                        buf.clear();
                    }
                }
            });
        }
    });
    verify(&e, (threads * per) as u64);
    let w = e.work();
    assert!(w.combiner_flushes > 0, "front-end never engaged");
    assert!(w.combined_increments > 0);
    assert!(w.overwrites > 0, "no eviction churn exercised");
    // The hot keys absorb most of the stream; combining must show up as
    // fewer crossings than elements.
    assert!(w.boundary_crossings < w.elements);
}
