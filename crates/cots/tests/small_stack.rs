//! Regression test for the hot-key stack overflow: draining must run in
//! constant stack no matter how far one element climbs.
//!
//! Kept in a test binary of its own. The owner of the hot element stays
//! pinned for the whole climb, which holds the process-wide epoch back;
//! sharing a process with suites that flush the epoch per element (the
//! engine's unit tests) would make *them* crawl through the backlog.

use std::sync::{Arc, Barrier};

use cots::CotsEngine;
use cots_core::CotsConfig;

#[test]
fn hot_element_drains_in_constant_stack() {
    // Spawned threads (a shard worker is one) get a bounded stack, not the
    // main thread's. One hot element climbs a bucket per bulk increment
    // while the other threads keep logging mass for it, so a drain that
    // nests a frame per climbed bucket overflows — here on every run, on a
    // default 2 MiB stack a few runs in twenty.
    const STACK: usize = 32 * 1024;
    static HOT: [u64; 256] = [7; 256];
    // Batches without the combiner: per-element delegation, but one epoch
    // pin per batch, so the hammer is cheap to run.
    let config = CotsConfig::for_capacity(4).unwrap().without_combiner();
    let e = Arc::new(CotsEngine::<u64>::new(config).unwrap());
    let threads = 8;
    let batches = 800;
    let barrier = Arc::new(Barrier::new(threads));
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let e = e.clone();
            let barrier = barrier.clone();
            std::thread::Builder::new()
                .stack_size(STACK)
                .spawn(move || {
                    barrier.wait();
                    for _ in 0..batches {
                        e.delegate_batch(&HOT);
                    }
                })
                .expect("spawn small-stack worker")
        })
        .collect();
    for w in workers {
        w.join()
            .expect("worker finished without overflowing its stack");
    }
    e.finalize();
    let total = (threads * batches * HOT.len()) as u64;
    assert_eq!(e.estimate_point(&7), Some((total, 0)));
    e.check_quiescent_invariants();
}
