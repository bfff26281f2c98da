//! Model checks for the riskiest delegation protocols, written against
//! [`cots::sync_shim`] so the same code runs two ways:
//!
//! * plain `cargo test` — each model executes once with real threads (a
//!   smoke run that keeps the models compiling);
//! * `RUSTFLAGS="--cfg loom" cargo test --test loom_models` — the shim
//!   re-exports `loom`'s atomics and the models are schedule-explored by
//!   the checker (the vendored stand-in randomizes schedules over
//!   `LOOM_ITERS` iterations; the registry loom crate makes the same models
//!   exhaustive).
//!
//! The models deliberately re-state the protocols against shim atomics
//! instead of instantiating `CotsEngine` — loom-style checking needs a
//! bounded handful of atomic operations, and restating them keeps the
//! production hot path free of shim indirection. Each model's step function
//! mirrors one engine routine and says which.

use std::sync::Arc;

use cots::node::TOMB;
use cots::sync_shim::{fence, model, thread, AtomicBool, AtomicU64, AtomicUsize, Ordering};

// =====================================================================
// Model 1: the element-level `pending` protocol — delegation (Algorithm
// 2), relinquish (CAS 1→0 else swap(1)), and the `0 → TOMB` tombstone CAS
// with lazy unlink. Mirrors `CotsEngine::delegate_batch` +
// `HashTable::try_remove`.
// =====================================================================

/// One hash-table entry generation: tombstoning forces contenders onto the
/// next generation, exactly like re-running `lookup_or_insert` after the
/// TOMB-retry in `delegate_batch`.
#[derive(Default)]
struct Entry {
    pending: AtomicU64,
    dead: AtomicBool,
}

/// The increment side of Algorithm 2 for one unit: log on the current
/// generation; on `r == 1` become owner and relinquish; on a tombstoned
/// entry undo and retry on the successor generation. Returns the mass this
/// call applied to the shared count.
fn delegate_unit(generations: &[Entry]) -> u64 {
    for entry in generations {
        let r = entry.pending.fetch_add(1, Ordering::AcqRel) + 1;
        if r >= TOMB {
            // Tombstoned under us: undo, move to the next generation.
            entry.pending.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        if r > 1 {
            // Delegated: the current owner will apply our unit.
            return 0;
        }
        // Owner: consume our unit plus everything logged while we worked
        // (the relinquish protocol: CAS 1→0, else swap(1) and re-apply).
        let mut consumed = 1u64;
        loop {
            if entry
                .pending
                .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return consumed;
            }
            let s = entry.pending.swap(1, Ordering::AcqRel);
            consumed += s - 1;
        }
    }
    panic!("all generations tombstoned — model sized too small");
}

/// The eviction side: `HashTable::try_remove`'s non-blocking `0 → TOMB`
/// CAS plus the dead flag (physical unlink is lazy and irrelevant to the
/// counting protocol). Returns whether the tombstone landed.
fn try_remove(entry: &Entry) -> bool {
    if entry
        .pending
        .compare_exchange(0, TOMB, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        entry.dead.store(true, Ordering::Release);
        true
    } else {
        false
    }
}

/// Two incrementers race one evictor on a single key. Checked invariants:
///
/// * **conservation** — every delegated unit is applied exactly once,
///   whichever generation it lands on and however the tombstone interleaves;
/// * **tombstone finality** — a dead generation holds `pending == TOMB`
///   exactly: transient `fetch_add`s were all undone, no owner appeared
///   after the CAS.
#[test]
fn pending_tombstone_protocol_conserves_mass() {
    model(|| {
        let generations: Arc<[Entry; 2]> = Arc::new([Entry::default(), Entry::default()]);
        let applied = Arc::new(AtomicU64::new(0));
        const UNITS_PER_THREAD: u64 = 2;

        let mut handles = Vec::new();
        for _ in 0..2 {
            let generations = generations.clone();
            let applied = applied.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..UNITS_PER_THREAD {
                    let mass = delegate_unit(&generations[..]);
                    if mass > 0 {
                        applied.fetch_add(mass, Ordering::AcqRel);
                    }
                }
            }));
        }
        let evictor = {
            let generations = generations.clone();
            thread::spawn(move || try_remove(&generations[0]))
        };
        for h in handles {
            h.join().unwrap();
        }
        let tombstoned = evictor.join().unwrap();

        assert_eq!(
            applied.load(Ordering::Acquire),
            2 * UNITS_PER_THREAD,
            "delegated mass lost or duplicated"
        );
        let gen0 = generations[0].pending.load(Ordering::Acquire);
        if tombstoned {
            assert!(generations[0].dead.load(Ordering::Acquire));
            assert_eq!(gen0, TOMB, "tombstoned entry must drain to exactly TOMB");
        } else {
            assert_eq!(gen0, 0, "live entry must drain to zero");
        }
        assert_eq!(generations[1].pending.load(Ordering::Acquire), 0);
    });
}

// =====================================================================
// Model 1b: the combined-flush variant of the `pending` protocol — the
// combining front-end's `fetch_add(count)` with the owner keeping exactly
// one pending unit (the aggregate rides in the request), racing the
// `0 → TOMB` tombstone CAS. Mirrors `CotsEngine::flush_mass`.
// =====================================================================

/// `CotsEngine::flush_mass` for an aggregated `count`: log the whole mass
/// with one `fetch_add(count)`; on a tombstoned entry undo and retry on
/// the successor generation; on winning ownership (`prev == 0`) drop back
/// to exactly one held unit — the aggregate is applied via the request —
/// and run the relinquish loop. Returns the mass this call applied.
fn flush_mass(generations: &[Entry], count: u64) -> u64 {
    for entry in generations {
        let prev = entry.pending.fetch_add(count, Ordering::AcqRel);
        if prev >= TOMB {
            // Tombstoned under us: undo the whole aggregate, next
            // generation.
            entry.pending.fetch_sub(count, Ordering::AcqRel);
            continue;
        }
        if prev > 0 {
            // Delegated: all `count` units are logged mass for the owner.
            return 0;
        }
        // Owner. Keep ONE unit of `pending`; the other `count - 1` would
        // otherwise be re-applied by relinquish as logged mass
        // (double-count). `pending >= 1` throughout, so the tombstone CAS
        // cannot land in between.
        if count > 1 {
            entry.pending.fetch_sub(count - 1, Ordering::AcqRel);
        }
        let mut consumed = count;
        loop {
            if entry
                .pending
                .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return consumed;
            }
            let s = entry.pending.swap(1, Ordering::AcqRel);
            consumed += s - 1;
        }
    }
    panic!("all generations tombstoned — model sized too small");
}

/// Two combined flushers (different aggregate sizes) race one evictor.
/// Checked invariants:
///
/// * **mass conservation** — every aggregated occurrence is applied
///   exactly once: no `count - 1` double-count when a flusher wins
///   ownership, no loss when its mass is absorbed as logged units or
///   bounced off a tombstone onto the next generation;
/// * **tombstone finality** — a dead generation drains to exactly `TOMB`.
#[test]
fn combined_flush_tombstone_conserves_mass() {
    model(|| {
        let generations: Arc<[Entry; 2]> = Arc::new([Entry::default(), Entry::default()]);
        let applied = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for counts in [[3u64, 1], [2, 2]] {
            let generations = generations.clone();
            let applied = applied.clone();
            handles.push(thread::spawn(move || {
                for count in counts {
                    let mass = flush_mass(&generations[..], count);
                    if mass > 0 {
                        applied.fetch_add(mass, Ordering::AcqRel);
                    }
                }
            }));
        }
        let evictor = {
            let generations = generations.clone();
            thread::spawn(move || try_remove(&generations[0]))
        };
        for h in handles {
            h.join().unwrap();
        }
        let tombstoned = evictor.join().unwrap();

        assert_eq!(
            applied.load(Ordering::Acquire),
            3 + 1 + 2 + 2,
            "aggregated mass lost or duplicated"
        );
        let gen0 = generations[0].pending.load(Ordering::Acquire);
        if tombstoned {
            assert!(generations[0].dead.load(Ordering::Acquire));
            assert_eq!(gen0, TOMB, "tombstoned entry must drain to exactly TOMB");
        } else {
            assert_eq!(gen0, 0, "live entry must drain to zero");
        }
        assert_eq!(generations[1].pending.load(Ordering::Acquire), 0);
    });
}

// =====================================================================
// Model 2: bucket-level delegation during minimum-bucket advancement —
// enqueue + owner-CAS drain rights with the release-recheck pattern, and
// the `is_gc` rescue when the minimum bucket is retired under a logged
// request. Mirrors `CotsEngine::{enqueue, try_drain, forward_gc_queue}`.
// =====================================================================

/// A bucket reduced to the protocol-relevant state: a count of logged
/// requests stands in for the SegQueue (the protocol only moves counts).
#[derive(Default)]
struct ModelBucket {
    queued: AtomicU64,
    owner: AtomicBool,
    gc: AtomicBool,
    drained: AtomicU64,
}

/// `CotsEngine::forward_gc_queue`: move everything logged on a retired
/// bucket to its successor and kick the successor's drain.
fn forward(from: &ModelBucket, to: &ModelBucket) {
    let n = from.queued.swap(0, Ordering::AcqRel);
    if n > 0 {
        to.queued.fetch_add(n, Ordering::AcqRel);
        try_drain(to, None);
    }
}

/// `CotsEngine::try_drain`: acquire-and-drain with the release-recheck
/// pattern. `next` is the forwarding target while `b` can still be retired
/// (None for the terminal bucket of the model, which is never retired).
fn try_drain(b: &ModelBucket, next: Option<&ModelBucket>) {
    loop {
        if b.gc.load(Ordering::Acquire) {
            if let Some(n) = next {
                forward(b, n);
            }
            return;
        }
        if b.owner
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Someone else holds drain rights; their release-recheck covers
            // anything we logged.
            return;
        }
        // Re-check under ownership: retirement may have won the race.
        if b.gc.load(Ordering::Acquire) {
            b.owner.store(false, Ordering::Release);
            if let Some(n) = next {
                forward(b, n);
            }
            return;
        }
        let n = b.queued.swap(0, Ordering::AcqRel);
        b.drained.fetch_add(n, Ordering::AcqRel);
        b.owner.store(false, Ordering::Release);
        // Release-recheck: a request logged between our swap and the
        // release would otherwise strand (its thread saw us as owner).
        if b.queued.load(Ordering::Acquire) == 0 {
            return;
        }
    }
}

/// `CotsEngine::enqueue`: log the request, then rescue it if the bucket
/// turned out to be retired, else try for drain rights.
fn enqueue(b: &ModelBucket, next: &ModelBucket) {
    b.queued.fetch_add(1, Ordering::AcqRel);
    if b.gc.load(Ordering::Acquire) {
        forward(b, next);
        return;
    }
    try_drain(b, Some(next));
}

/// The drain-exit retirement of an emptied minimum bucket: take ownership,
/// retire only if still empty, then rescue anything that raced in.
fn retire_if_empty(b: &ModelBucket, next: &ModelBucket) -> bool {
    if b.owner
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return false;
    }
    let retired = if b.queued.load(Ordering::Acquire) == 0 && !b.gc.load(Ordering::Acquire) {
        b.gc.store(true, Ordering::Release);
        true
    } else {
        false
    };
    b.owner.store(false, Ordering::Release);
    if retired {
        // Rescue the race window between the emptiness check and the gc
        // store: requests logged there saw gc == false.
        forward(b, next);
    } else if b.queued.load(Ordering::Acquire) > 0 {
        // Release-recheck, as after every ownership release: an enqueuer
        // that lost the owner CAS to us relies on it.
        try_drain(b, Some(next));
    }
    retired
}

/// Two enqueuers race a retirer on the minimum bucket. Checked invariant:
/// **no logged request is ever lost** — everything enqueued is drained on
/// the minimum bucket or its successor, and nothing is left queued once
/// all threads (whose exits all pass through a recheck) have quiesced.
#[test]
fn min_bucket_retirement_never_loses_requests() {
    model(|| {
        let min = Arc::new(ModelBucket::default());
        let succ = Arc::new(ModelBucket::default());
        const REQS_PER_THREAD: u64 = 2;

        let mut handles = Vec::new();
        for _ in 0..2 {
            let min = min.clone();
            let succ = succ.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..REQS_PER_THREAD {
                    enqueue(&min, &succ);
                }
            }));
        }
        let retirer = {
            let min = min.clone();
            let succ = succ.clone();
            thread::spawn(move || retire_if_empty(&min, &succ))
        };
        for h in handles {
            h.join().unwrap();
        }
        let _ = retirer.join().unwrap();

        // Quiescent sweep, as finalize() would: residue left because a
        // late enqueuer lost the owner CAS to a thread that then observed
        // an empty queue is picked up here through the same entry points.
        try_drain(&min, Some(&succ));
        try_drain(&succ, None);

        let total = 2 * REQS_PER_THREAD;
        let drained = min.drained.load(Ordering::Acquire) + succ.drained.load(Ordering::Acquire);
        assert_eq!(drained, total, "logged requests lost or duplicated");
        assert_eq!(min.queued.load(Ordering::Acquire), 0);
        assert_eq!(succ.queued.load(Ordering::Acquire), 0);
        if min.gc.load(Ordering::Acquire) {
            assert_eq!(
                min.drained.load(Ordering::Acquire) + succ.drained.load(Ordering::Acquire),
                total,
                "retired minimum bucket must have forwarded everything"
            );
        }
    });
}

// =====================================================================
// Model 3: the parked drain with nobody to help — push + `try_own`
// against release + recheck, with the owner parking mid-drain (still the
// owner) while the follow-up it logged is settled. This is all the engine
// has: no third party ever looks at a queue. Mirrors
// `CotsEngine::{enqueue, settle, try_drain}` with its `Debt::Parked`
// frame and `Bucket::{try_own, release}`, orderings as they are there.
//
// The queue is the vendored `SegQueue`, a locked `VecDeque`: `push`, `pop`
// and `len` each take the lock, so all three are modelled as
// read-modify-writes of one counter. That is what lets the owner flag stay
// `Relaxed`/`Acquire`/`Release`: the recheck after a release either reads
// the push, or precedes it in the lock's order and so publishes the
// release to the pusher. The vendored loom stand-in explores schedules
// over real atomics, not memory orderings; on hardware the guard for this
// pairing is `stress.rs::verify`'s mass check before `finalize`.
// =====================================================================

/// `SegQueue::push`.
fn push(b: &ModelBucket) {
    b.queued.fetch_add(1, Ordering::AcqRel);
}

/// `SegQueue::pop`: take one logged request, if any.
fn pop(b: &ModelBucket) -> bool {
    b.queued
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |q| q.checked_sub(1))
        .is_ok()
}

/// `SegQueue::is_empty`: under the lock, hence a read-modify-write.
fn is_empty(b: &ModelBucket) -> bool {
    b.queued.fetch_add(0, Ordering::AcqRel) == 0
}

/// `CotsEngine::try_drain` as `settle` pays a `Debt::Attempt` with it, on
/// a bucket that is never retired. With a `follow_up` bucket, the first
/// request of every ownership logs a request there (an increment landing
/// its element one bucket up) and the drain parks beneath it: the
/// follow-up is settled first, then the drain resumes where it stopped,
/// having owned `b` throughout. Returns how many times it parked.
fn drain_parking(b: &ModelBucket, follow_up: Option<&ModelBucket>) -> u64 {
    let mut parks = 0;
    loop {
        // `Bucket::try_own`.
        if b.owner.load(Ordering::Relaxed)
            || b.owner
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            // Delegated: the owner's release-recheck covers our request.
            return parks;
        }
        let mut fresh = true;
        while pop(b) {
            b.drained.fetch_add(1, Ordering::AcqRel);
            if let (true, Some(up)) = (fresh, follow_up) {
                fresh = false;
                parks += 1;
                push(up);
                drain_parking(up, None);
                assert!(
                    b.owner.load(Ordering::Relaxed),
                    "a parked drain lost its bucket"
                );
            }
        }
        // `Bucket::release`, then the recheck nothing else stands in for.
        b.owner.store(false, Ordering::Release);
        if is_empty(b) {
            return parks;
        }
    }
}

/// Two threads enqueue on one bucket; whoever wins `try_own` parks after
/// its first request, resumes, releases and rechecks. There is no
/// quiescent sweep and no scanning third party. Checked invariants:
///
/// * **no request is stranded or duplicated** — everything pushed on the
///   bucket, and every follow-up pushed one bucket up, is processed
///   exactly once by the time both threads have returned;
/// * **a parked drain keeps its bucket** (asserted where it resumes);
/// * both buckets end unowned with empty queues.
#[test]
fn parked_drain_needs_no_helper() {
    model(|| {
        let bucket = Arc::new(ModelBucket::default());
        let up = Arc::new(ModelBucket::default());
        const REQS_PER_THREAD: u64 = 2;

        let handles: Vec<_> = (0..2)
            .map(|_| {
                let bucket = bucket.clone();
                let up = up.clone();
                thread::spawn(move || {
                    let mut parks = 0;
                    for _ in 0..REQS_PER_THREAD {
                        // `CotsEngine::enqueue`, then `settle`.
                        push(&bucket);
                        parks += drain_parking(&bucket, Some(&up));
                    }
                    parks
                })
            })
            .collect();
        let parks: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

        assert_eq!(
            bucket.drained.load(Ordering::Acquire),
            2 * REQS_PER_THREAD,
            "logged requests stranded or duplicated"
        );
        assert_eq!(
            up.drained.load(Ordering::Acquire),
            parks,
            "follow-ups stranded or duplicated"
        );
        for b in [&bucket, &up] {
            assert_eq!(b.queued.load(Ordering::Acquire), 0);
            assert!(!b.owner.load(Ordering::Acquire));
        }
    });
}

// =====================================================================
// Model 4: waiting for ring room — the serving stack's backpressure. A
// producer whose SPSC ring is full announces `want_room`, fences and
// looks at the ring once more; the consumer pops, fences, reads the
// announcement and wakes the producer once `WAKE_ROOM` slots are free.
// Mirrors `cots_serve::spsc::{Producer::wait_for_room,
// Consumer::room_wanted}` as the reactor's `ShardSender::send` and the
// shard worker's `Feed::pop` use them, orderings as they are there. The
// ring is restated as its two counters; a parked producer waits for
// nothing but the wake.
// =====================================================================

/// A ring reduced to its positions, the announcement, and a wake count.
#[derive(Default)]
struct ModelRing {
    head: AtomicUsize,
    tail: AtomicUsize,
    want_room: AtomicBool,
    wakes: AtomicUsize,
}

const RING_CAP: usize = 4;
/// Below the capacity, so a pop can find the announcement too early.
const RING_WAKE_ROOM: usize = 2;

impl ModelRing {
    /// `Producer::free`, from the producer's side.
    fn free(&self) -> usize {
        RING_CAP - (self.tail.load(Ordering::Relaxed) - self.head.load(Ordering::Acquire))
    }

    /// `Producer::wait_for_room`: `true` when the last look found room.
    fn wait_for_room(&self) -> bool {
        self.want_room.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        self.free() > 0
    }

    /// `Consumer::pop` followed by `Consumer::room_wanted` and the wake.
    fn pop(&self) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return false;
        }
        self.head.store(head + 1, Ordering::Release);
        fence(Ordering::SeqCst);
        if self.want_room.load(Ordering::Relaxed) {
            let free = RING_CAP - (self.tail.load(Ordering::Acquire) - (head + 1));
            if free >= RING_WAKE_ROOM && self.want_room.swap(false, Ordering::Acquire) {
                self.wakes.fetch_add(1, Ordering::AcqRel);
            }
        }
        true
    }
}

/// The ring starts full; the producer pushes what it can of two more
/// items, and parks (stops) the first time its last look finds the ring
/// full. The consumer drains until the producer has stopped and the ring
/// is empty. Checked invariants:
///
/// * **a parked producer is woken** — its last announcement was cleared
///   by a wake, so it is never left parked once the ring has room;
/// * no more wakes than announcements (one that found room itself may
///   still get one, stale);
/// * every item pushed is popped exactly once.
#[test]
fn waiting_producer_is_woken_once_room_returns() {
    model(|| {
        let ring = Arc::new(ModelRing::default());
        ring.tail.store(RING_CAP, Ordering::Release);
        let stopped = Arc::new(AtomicBool::new(false));

        let producer = {
            let ring = ring.clone();
            let stopped = stopped.clone();
            thread::spawn(move || {
                let (mut pushed, mut announced) = (0, 0);
                let mut parked = false;
                while pushed < 2 {
                    if ring.free() > 0 {
                        ring.tail.fetch_add(1, Ordering::Release);
                        pushed += 1;
                        continue;
                    }
                    announced += 1;
                    if !ring.wait_for_room() {
                        parked = true;
                        break;
                    }
                }
                stopped.store(true, Ordering::Release);
                (pushed, announced, parked)
            })
        };
        let consumer = {
            let ring = ring.clone();
            let stopped = stopped.clone();
            thread::spawn(move || {
                let mut popped = 0;
                loop {
                    if ring.pop() {
                        popped += 1;
                    } else if stopped.load(Ordering::Acquire)
                        && ring.head.load(Ordering::Acquire) == ring.tail.load(Ordering::Acquire)
                    {
                        return popped;
                    } else {
                        thread::yield_now();
                    }
                }
            })
        };
        let (pushed, announced, parked) = producer.join().unwrap();
        let popped = consumer.join().unwrap();

        assert_eq!(popped, RING_CAP + pushed, "items lost or duplicated");
        if parked {
            assert!(
                !ring.want_room.load(Ordering::Acquire),
                "a parked producer was left parked with room"
            );
        }
        let wakes = ring.wakes.load(Ordering::Acquire);
        assert!(
            wakes <= announced,
            "{wakes} wakes for {announced} announcements"
        );
    });
}
