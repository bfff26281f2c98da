//! The CoTS engine: delegation, boundary crossing, bucket draining, and the
//! request state machine of Algorithms 2–6.
//!
//! ## Protocol summary
//!
//! * **Delegate (Algorithm 2)** — look the element up (inserting if new),
//!   `fetch_add(1)` its `pending`. Result 1 ⇒ this thread has exclusive
//!   rights and *crosses the boundary*; anything higher ⇒ the increment is
//!   logged and the thread moves on; ≥ `TOMB` ⇒ the node is dying, undo and
//!   retry.
//! * **Crossing the boundary** — produce a request (`Add`/`Overwrite` for
//!   unadmitted elements, `Increment` otherwise), push it on the target
//!   bucket's queue, and try to acquire the bucket. Whoever owns the bucket
//!   drains *all* queued requests before releasing (bucket-level
//!   delegation).
//! * **Relinquish** — after a node's request completes: CAS `pending`
//!   `1 → 0`; on failure, `swap(1)` collects the logged mass `s - 1` and an
//!   `Increment(node, s-1)` *bulk* request is queued on the node's (new)
//!   bucket. This is where skewed streams win: one summary operation
//!   absorbs the whole logged mass.
//!
//! ## Why draining is a loop, not a recursion
//!
//! Processing a request usually ends by logging a follow-up request on
//! another bucket (an increment lands its element one bucket up, a
//! relinquish turns logged mass into a bulk increment, a retired bucket's
//! queue is re-routed), and the follow-up has to complete before the
//! drain it came from pops its next request — otherwise a backlog of
//! overwrites empties the minimum bucket while the elements they admit
//! are still in flight, and every later overwrite bounces off it. Done by
//! recursion, one hot element climbing the frequency list while other
//! threads keep logging mass for it nests a stack frame per bucket
//! climbed: unbounded, and a stack overflow on a small-stack worker
//! thread. So the call stack is explicit. `CotsEngine::enqueue` only
//! pushes the request and records a `Debt` in the caller's list; a
//! drain that finds it has incurred debts *parks* itself — still owning
//! its bucket — beneath them; and the outermost caller
//! `CotsEngine::settle`s the list newest-first until it is empty. The
//! order of operations and the span of every ownership are those of the
//! recursion; only the frames live on the heap.
//!
//! ## No drain helps another bucket
//!
//! The paper's §5.2.3 has idle pool threads check the buckets after the
//! one they drained. This engine does not: a finished drain returns to
//! the stream. The walk (up to 64 successors per drain, three drains per
//! overwrite crossing) found nothing on the serving path and cost four
//! fifths of the time per key; under [`crate::run`]'s scheduler workers
//! park between batches, holding no queued request a helper could rescue.
//! No request is stranded, because every queued request already has
//! someone bound to it:
//!
//! * **A pusher that loses `try_own`** leaves its request to the owner,
//!   who rechecks the queue after every release. The queue's lock orders
//!   the two: the owner's recheck either sees the push, or its release
//!   happened before the push and the pusher finds the bucket free.
//! * **Restashed deferred overwrites** (every eviction candidate busy) are
//!   the one thing an owner leaves queued behind it. A busy candidate's
//!   element owner holds an increment routed to *this* bucket — the
//!   candidate cannot move until it is processed — and has either pushed
//!   it (the recheck's `len > restashed` keeps the drain going) or is
//!   about to, and its drain attempt retries the overwrites first.
//! * **Readers and quiescence**: [`CotsEngine::drain_pending`] and
//!   [`CotsEngine::finalize`] attempt every bucket with a non-empty queue.
//!
//! `tests/stress.rs` checks `Σ counts == N` *before* `finalize` after
//! every hammer, and the parked-drain loom model has no helper.
//!
//! Measured on the same streams and *rejected*, so nobody re-runs them:
//! thread-local garbage bags in the epoch stand-in, and folding the
//! per-request tallies once per batch (both inside the host's ±15 % drift
//! at one and two threads); routing `Overwrite` straight to the minimum
//! bucket (exactly −0.42 summary ops per key and ≈ −15 % at one thread,
//! nothing at two — but it redefines a counter `perf-gate` gates on); a
//! lock-free `len` on the vendored queue (nothing measurable once the walk
//! is gone, and it trades the lock's ordering above for a store-buffering
//! race). Numbers in EXPERIMENTS.md §"Help only where help is owed".
//!
//! ## Why the raw-pointer requests are sound
//!
//! See [`crate::node`]: a queued request holds a unit of `pending`, and
//! nodes are only retired (`try_remove`) from `pending == 0`.
//!
//! ## Who mutates what
//!
//! * `bucket.next`, `bucket.elems`, node list links, `bucket.len` — only
//!   the bucket's owner.
//! * `node.freq`, `node.error`, `node.bucket` — only the thread currently
//!   processing that node's request (element ownership).
//! * `min` — only the owner of the current minimum bucket (plus the
//!   one-time CAS that installs the first bucket).
//!
//! Everything else is read lock-free under an epoch guard, with restarts on
//! observed inconsistency, as §5.2.2 prescribes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::epoch::{self, Atomic, Guard, Owned, Shared};

use cots_core::report::WorkTally;
use cots_core::{
    ConcurrentCounter, CotsConfig, CotsError, CounterEntry, Element, MulHash, QueryableSummary,
    Result, Snapshot, WorkCounters,
};

use crate::bucket::{Bucket, Request};
use crate::combiner::BatchCombiner;
use crate::hashtable::HashTable;
use crate::node::{Node, NodePtr, TOMB};
use crate::policy::Policy;
use crate::scheduler::SchedulerHook;

#[cfg(debug_assertions)]
mod destroy_registry {
    //! Debug-build tripwire: catches a bucket being retired twice or
    //! mutated after retirement.
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::sync::OnceLock;

    fn set() -> &'static Mutex<HashMap<usize, String>> {
        static SET: OnceLock<Mutex<HashMap<usize, String>>> = OnceLock::new();
        SET.get_or_init(|| Mutex::new(HashMap::new()))
    }

    pub fn record_destroy(ptr: usize, context: String) {
        let mut s = set().lock().unwrap();
        if let Some(prev) = s.insert(ptr, context.clone()) {
            panic!("bucket {ptr:#x} defer_destroyed twice:\n  first: {prev}\n  second: {context}");
        }
    }

    pub fn assert_alive(ptr: usize, context: &str) {
        let s = set().lock().unwrap();
        if let Some(prev) = s.get(&ptr) {
            panic!("use of retired bucket {ptr:#x} in {context} (destroyed by: {prev})");
        }
    }

    pub fn forget(ptr: usize) {
        set().lock().unwrap().remove(&ptr);
    }
}

/// Per-batch work-counter accumulators, folded into the shared
/// [`WorkTally`] once per batch.
#[derive(Default)]
struct BatchCounters {
    crossings: u64,
    delegated: u64,
    combined: u64,
    flushes: u64,
}

/// One unit of drain work a thread has taken on and not yet done. Valid
/// for the lifetime of the epoch pin the bucket was loaded under.
enum Debt<'g, K> {
    /// The thread pushed a request onto this bucket and has not yet tried
    /// to become its owner.
    Attempt(Shared<'g, Bucket<K>>),
    /// The thread owns this bucket and parked its drain while the debts
    /// above it are settled: the suspended frame of `try_drain`.
    Parked {
        bucket: Shared<'g, Bucket<K>>,
        stash: Vec<Request<K>>,
        progressed: bool,
    },
}

/// A thread's outstanding `Debt`s, newest last.
type Owed<'g, K> = Vec<Debt<'g, K>>;

/// Outcome of processing one request.
enum Outcome<K> {
    /// Request fully handled (possibly by delegating onward).
    Done,
    /// Overwrite could not find an evictable candidate; retry later.
    Deferred(Request<K>),
}

/// The CoTS frequency-counting engine (Space Saving or Lossy Counting
/// policy) over the concurrent stream summary.
///
/// # Example
///
/// ```
/// use cots::CotsEngine;
/// use cots_core::{ConcurrentCounter, CotsConfig, QueryableSummary};
///
/// let engine = CotsEngine::<u64>::new(CotsConfig::for_capacity(100)?)?;
/// for item in [3u64, 1, 3, 3, 2, 1] {
///     engine.delegate(item);
/// }
/// engine.finalize();
/// assert_eq!(engine.estimate(&3), Some((3, 0)));
/// assert_eq!(engine.snapshot().top_k(1)[0].item, 3);
/// # Ok::<(), cots_core::CotsError>(())
/// ```
pub struct CotsEngine<K: Element> {
    table: HashTable<K>,
    /// Permanent sentinel bucket (frequency 0, never holds elements, never
    /// garbage-collected). The ascending-frequency list hangs off its
    /// `next`; the first live successor *is* the minimum bucket, so there
    /// is no separate minimum pointer to keep consistent — the class of
    /// min-pointer CAS races is designed out.
    head: Atomic<Bucket<K>>,
    capacity: usize,
    policy: Policy,
    monitored: AtomicUsize,
    total: AtomicU64,
    /// Elements whose `delegate`/`delegate_batch` call has *returned*.
    /// Unlike `total` (counted up front, before any mass reaches the
    /// summary), this trails application: every element it counts has
    /// been flushed into the summary — either applied directly or
    /// enqueued on a bucket queue — so a reader that takes this counter
    /// *before* draining and snapshotting never claims mass the snapshot
    /// cannot contain. `cots_serve::Backend::capture` stamps its
    /// snapshots with it.
    applied: AtomicU64,
    tally: Arc<WorkTally>,
    adaptive: Option<cots_core::config::AdaptiveConfig>,
    /// Capacity of the batch-scoped combining front-end (0 = disabled).
    combiner_slots: usize,
    hook: OnceLock<Arc<dyn SchedulerHook>>,
}

impl<K: Element> CotsEngine<K> {
    /// Build from a validated configuration with the Space Saving policy.
    pub fn new(config: CotsConfig) -> Result<Self> {
        Self::with_policy(config, Policy::SpaceSaving)
    }

    /// Build with an explicit counting policy (§5.3 generalization).
    pub fn with_policy(config: CotsConfig, policy: Policy) -> Result<Self> {
        config.validate()?;
        if let Policy::LossyRounds { width } = policy {
            if width == 0 {
                return Err(CotsError::InvalidConfig(
                    "lossy round width must be positive".into(),
                ));
            }
        }
        let tally = Arc::new(WorkTally::new());
        let head = Atomic::new(Bucket::new(0));
        #[cfg(debug_assertions)]
        {
            let guard = epoch::pin();
            destroy_registry::forget(head.load(Ordering::Relaxed, &guard).as_raw() as usize);
        }
        Ok(Self {
            table: HashTable::new(config.hash_bits, tally.clone()),
            head,
            capacity: config.summary.capacity,
            policy,
            monitored: AtomicUsize::new(0),
            total: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            tally,
            adaptive: config.adaptive,
            combiner_slots: config.combiner_slots,
            hook: OnceLock::new(),
        })
    }

    /// Install the scheduler hook for dynamic auto configuration.
    pub fn set_scheduler_hook(&self, hook: Arc<dyn SchedulerHook>) {
        let _ = self.hook.set(hook);
    }

    /// Counter budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of monitored elements.
    pub fn monitored(&self) -> usize {
        self.monitored.load(Ordering::Acquire)
    }

    /// Accumulated work counters.
    pub fn work(&self) -> WorkCounters {
        self.tally.snapshot()
    }

    /// The counting policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Elements whose `delegate`/`delegate_batch` call has returned.
    ///
    /// Trails `processed()` (which counts a batch up front, before any of
    /// its mass reaches the summary) by exactly the in-flight batches.
    /// Reading this *before* a drain + snapshot yields a `captured_total`
    /// the snapshot provably covers, so `processed() − captured_total`
    /// stays an upper bound on the mass the snapshot is missing.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    // ==================================================================
    // Algorithm 2: Delegate
    // ==================================================================

    /// Process one stream element (callable from any number of threads).
    pub fn delegate(&self, item: K) {
        self.delegate_batch(std::slice::from_ref(&item));
    }

    /// Process a batch of stream elements under a single epoch pin.
    ///
    /// Semantically identical to calling [`CotsEngine::delegate`] per
    /// element; amortizing the guard and the shared counters over the batch
    /// removes most of the fixed per-element overhead (the engine's hot
    /// path is then lookup + one `fetch_add`).
    pub fn delegate_batch(&self, items: &[K]) {
        if items.is_empty() {
            return;
        }
        let before = self.total.fetch_add(items.len() as u64, Ordering::AcqRel);
        let after = before + items.len() as u64;
        self.tally.elements(items.len() as u64);
        let guard = epoch::pin();
        let mut c = BatchCounters::default();
        let mut owed = Owed::new();
        if self.combiner_slots != 0 && items.len() > 1 {
            self.delegate_batch_combined(items, before, &mut c, &mut owed, &guard);
        } else {
            for &item in items {
                self.flush_mass(item, MulHash::hash(&item), 1, &mut c, &mut owed, &guard);
            }
            // Lossy Counting round boundaries crossed by this batch (§5.3):
            // replace Overwrite with a minimum-bucket prune.
            if let Policy::LossyRounds { width } = self.policy {
                let first_round = before / width;
                let last_round = after / width;
                for round in (first_round + 1)..=last_round {
                    self.enqueue_head(Request::PruneMin { threshold: round }, &mut owed, &guard);
                    self.settle(&mut owed, &guard);
                }
            }
        }
        self.tally.boundary_crossings(c.crossings);
        self.tally.delegated_increments(c.delegated);
        self.tally.combined_increments(c.combined);
        self.tally.combiner_flushes(c.flushes);
        // Migrate this thread's deferred-destruction bag to the global
        // epoch queue and help collect it. Bucket churn retires roughly one
        // bucket (and its ~1 KiB queue block) per summary operation;
        // without active collection the garbage backlog grows far faster
        // than crossbeam's lazy pin-count heuristic reclaims it (observed:
        // >1 GiB peak per 2M-element run). Each flush advances the epoch
        // and steals a bounded number of garbage bags, so several rounds
        // per batch keep reclamation paced with production.
        drop(guard);
        // Only now — with every element of the batch flushed into the
        // summary — does the batch count as applied.
        self.applied.fetch_add(items.len() as u64, Ordering::AcqRel);
        for _ in 0..4 {
            epoch::pin().flush();
        }
    }

    /// The combining front-end path of [`CotsEngine::delegate_batch`]: a
    /// batch-scoped open-addressing buffer pre-aggregates occurrences, and
    /// every aggregated `(key, count)` pair reaches the delegation
    /// protocol as one `pending.fetch_add(count)` — one table operation
    /// and at most one boundary crossing per distinct hot key per batch.
    ///
    /// Under the Lossy policy the batch is processed in round-sized
    /// segments: the buffer is drained *before* each round-boundary prune
    /// is enqueued, so no pre-boundary mass hides in private state when
    /// the prune inspects the summary (same visibility a per-element run
    /// would give the prune).
    fn delegate_batch_combined<'g>(
        &self,
        items: &[K],
        before: u64,
        c: &mut BatchCounters,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        let mut combiner = BatchCombiner::new(self.combiner_slots);
        match self.policy {
            Policy::SpaceSaving => {
                self.combine_segment(items, &mut combiner, c, owed, guard);
                self.flush_combiner(&mut combiner, c, owed, guard);
            }
            Policy::LossyRounds { width } => {
                let mut offset = 0usize;
                let mut pos = before;
                while offset < items.len() {
                    let until_boundary = (width - pos % width) as usize;
                    let take = until_boundary.min(items.len() - offset);
                    self.combine_segment(
                        &items[offset..offset + take],
                        &mut combiner,
                        c,
                        owed,
                        guard,
                    );
                    offset += take;
                    pos += take as u64;
                    if pos.is_multiple_of(width) {
                        self.flush_combiner(&mut combiner, c, owed, guard);
                        self.enqueue_head(
                            Request::PruneMin {
                                threshold: pos / width,
                            },
                            owed,
                            guard,
                        );
                        self.settle(owed, guard);
                    }
                }
                self.flush_combiner(&mut combiner, c, owed, guard);
            }
        }
    }

    /// Feed a segment through the combiner, flushing evicted victims
    /// immediately so no occurrence is ever dropped.
    fn combine_segment<'g>(
        &self,
        seg: &[K],
        combiner: &mut BatchCombiner<K>,
        c: &mut BatchCounters,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        for &item in seg {
            let hash = MulHash::hash(&item);
            if let Some((key, key_hash, count)) = combiner.add(item, hash) {
                self.flush_mass(key, key_hash, count, c, owed, guard);
            }
        }
    }

    /// Drain the combiner through the delegation protocol.
    fn flush_combiner<'g>(
        &self,
        combiner: &mut BatchCombiner<K>,
        c: &mut BatchCounters,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        combiner.drain(|key, hash, count| self.flush_mass(key, hash, count, c, owed, guard));
    }

    /// Algorithm 2's delegate step for `count` occurrences of `key` at
    /// once: one `fetch_add(count)` on the element's `pending`. A prior
    /// value of 0 makes this thread the element owner (boundary crossing
    /// with the whole aggregated amount); otherwise the mass is logged for
    /// the current owner's relinquish to fold into a bulk increment.
    fn flush_mass<'g>(
        &self,
        key: K,
        hash: u64,
        count: u64,
        c: &mut BatchCounters,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        debug_assert!(count > 0);
        loop {
            let node_sh = self.table.lookup_or_insert_hashed(key, hash, guard);
            // SAFETY: `lookup_or_insert_hashed` returned this pointer under
            // `guard`; tombstoned nodes are retired with `defer_destroy`,
            // never freed while pinned.
            let node = unsafe { node_sh.deref() };
            let prev = node.pending.fetch_add(count, Ordering::AcqRel);
            if prev >= TOMB {
                // The node was tombstoned under us; undo and retry with a
                // fresh entry.
                node.pending.fetch_sub(count, Ordering::AcqRel);
                continue;
            }
            // Tally partition: every occurrence is accounted exactly once
            // — the flush's own delegation action (one crossing or one
            // logged increment) plus `count - 1` front-end absorptions.
            if count > 1 {
                c.combined += count - 1;
                c.flushes += 1;
            }
            if prev == 0 {
                if count > 1 {
                    // This thread owns the element and carries the whole
                    // aggregated mass in its request, so it must hold
                    // exactly ONE unit of `pending` (units beyond the
                    // owner's are the *logged* mass relinquish converts to
                    // a bulk increment — leaving ours in would double-count
                    // it). `pending >= 1` throughout, so no tombstone can
                    // sneak in; concurrent logs just stack on top.
                    node.pending.fetch_sub(count - 1, Ordering::AcqRel);
                }
                c.crossings += 1;
                self.cross_boundary(node, count, owed, guard);
                // Everything the crossing set in motion completes before
                // the next stream element is looked at.
                self.settle(owed, guard);
            } else {
                // Logged: the current owner folds this mass into a bulk
                // request at relinquish time.
                c.delegated += 1;
            }
            return;
        }
    }

    /// The element-owner produces the request for `node` carrying `amount`
    /// stream occurrences and routes it (the "crossing the boundary" step
    /// of §5.2.1).
    fn cross_boundary<'g>(
        &self,
        node: &Node<K>,
        amount: u64,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        if node.freq.load(Ordering::Acquire) == 0 {
            // Admission of a new element.
            let admit = match self.policy {
                Policy::LossyRounds { width } => {
                    // Lossy Counting admits unconditionally; Δ is the
                    // current round minus one.
                    let round = self.total.load(Ordering::Acquire) / width + 1;
                    node.error.store(round - 1, Ordering::Release);
                    self.monitored.fetch_add(1, Ordering::AcqRel);
                    true
                }
                Policy::SpaceSaving => self
                    .monitored
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                        (c < self.capacity).then_some(c + 1)
                    })
                    .is_ok(),
            };
            if admit {
                node.freq.store(amount, Ordering::Release);
                self.enqueue_head(Request::Add(NodePtr::new(node)), owed, guard);
            } else {
                self.enqueue_head(Request::Overwrite(NodePtr::new(node), amount), owed, guard);
            }
        } else {
            // The node sits in a bucket and is stationary (we exclusively
            // own its processing), so routing to `node.bucket` is safe.
            let b = node.bucket.load(Ordering::Acquire, guard);
            debug_assert!(!b.is_null(), "admitted node must have a bucket");
            self.enqueue(b, Request::Increment(NodePtr::new(node), amount), owed);
        }
    }

    /// Release exclusive rights on `node`, converting any logged mass into
    /// a bulk increment (the CAS/swap protocol of §5.2.1).
    fn relinquish<'g>(&self, node: &Node<K>, owed: &mut Owed<'g, K>, guard: &'g Guard) {
        if node
            .pending
            .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return;
        }
        let s = node.pending.swap(1, Ordering::AcqRel);
        debug_assert!((2..TOMB).contains(&s), "relinquish saw pending={s}");
        let extra = s - 1;
        // Ownership continues through this bulk request; whoever processes
        // it relinquishes again.
        let b = node.bucket.load(Ordering::Acquire, guard);
        debug_assert!(!b.is_null());
        self.enqueue(b, Request::Increment(NodePtr::new(node), extra), owed);
    }

    // ==================================================================
    // Bucket-level delegation: enqueue + drain
    // ==================================================================

    /// Log a request on `b`'s queue and owe the bucket a drain attempt;
    /// the outermost caller pays with [`CotsEngine::settle`]. Nothing is
    /// drained here, so logging never nests (see the module docs).
    fn enqueue<'g>(&self, b: Shared<'g, Bucket<K>>, req: Request<K>, owed: &mut Owed<'g, K>) {
        // NB: `b` may be retired (unlinked + deferred) — the epoch pin
        // keeps it valid and the drain attempt's leading `is_gc` check
        // rescues the request.
        // SAFETY: the caller loaded `b` under the guard `'g` borrows; even
        // if concurrently retired, reclamation is deferred past that pin.
        let bucket = unsafe { b.deref() };
        bucket.queue.push(req);
        if let Some(a) = self.adaptive.filter(|_| !bucket.is_gc()) {
            let len = bucket.queue.len();
            if len > a.sigma {
                if let Some(h) = self.hook.get() {
                    h.on_congestion();
                }
            } else if len > a.rho && !bucket.owner.load(Ordering::Relaxed) {
                if let Some(h) = self.hook.get() {
                    h.on_starvation();
                }
            }
        }
        if !matches!(owed.last(), Some(Debt::Attempt(last)) if *last == b) {
            owed.push(Debt::Attempt(b));
        }
    }

    /// Pay every debt on the list, including the ones paying them incurs,
    /// newest first — a follow-up completes before the drain that caused
    /// it resumes.
    fn settle<'g>(&self, owed: &mut Owed<'g, K>, guard: &'g Guard) {
        while let Some(debt) = owed.pop() {
            match debt {
                Debt::Attempt(b) => self.try_drain(b, None, owed, guard),
                Debt::Parked {
                    bucket,
                    stash,
                    progressed,
                } => self.try_drain(bucket, Some((stash, progressed)), owed, guard),
            }
        }
    }

    /// Route a request to the head sentinel, whose owner dispatches it to
    /// the (current) minimum bucket. The sentinel always exists and is
    /// never garbage-collected, so the paper's "delegate to the minimum
    /// frequency bucket" has a stable, race-free target.
    fn enqueue_head<'g>(&self, req: Request<K>, owed: &mut Owed<'g, K>, guard: &'g Guard) {
        let head = self.head.load(Ordering::Acquire, guard);
        debug_assert!(!head.is_null(), "sentinel installed at construction");
        self.enqueue(head, req, owed);
    }

    /// First live (non-GC) bucket after the sentinel — the minimum bucket —
    /// or null when the summary is empty. Lock-free read.
    fn first_alive<'g>(&self, guard: &'g Guard) -> Shared<'g, Bucket<K>> {
        let head = self.head.load(Ordering::Acquire, guard);
        // SAFETY: the sentinel head is never retired; it is freed only by
        // `Drop`, which has exclusive access.
        let mut cur = unsafe { head.deref() }.next.load(Ordering::Acquire, guard);
        // SAFETY: chain pointers are loaded under `guard`; retired buckets
        // are reclaimed via `defer_destroy` only after every pin is released.
        while let Some(b) = unsafe { cur.as_ref() } {
            if !b.is_gc() {
                return cur;
            }
            cur = b.next.load(Ordering::Acquire, guard);
        }
        Shared::null()
    }

    /// Acquire-and-drain loop (bucket-level delegation with the
    /// release-recheck pattern, so no logged request is ever lost).
    ///
    /// `parked` is `Some` when [`CotsEngine::settle`] resumes a drain this
    /// thread parked: it still owns the bucket and continues mid-loop.
    fn try_drain<'g>(
        &self,
        b: Shared<'g, Bucket<K>>,
        mut parked: Option<(Vec<Request<K>>, bool)>,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        // NB: `b` may be retired — handled by the leading `is_gc` check.
        // SAFETY: the caller loaded `b` under `guard`; even if concurrently
        // retired, reclamation is deferred past this pin.
        let bucket = unsafe { b.deref() };
        // Debts above this mark were incurred by this drain.
        let floor = owed.len();
        loop {
            let (mut stash, mut progressed) = match parked.take() {
                Some(frame) => frame,
                None => {
                    if bucket.is_gc() {
                        self.forward_gc_queue(bucket, owed, guard);
                        return;
                    }
                    if !bucket.try_own() {
                        // Delegated: the current owner is bound to process
                        // our request before releasing.
                        self.tally.delegated_requests(1);
                        return;
                    }
                    if bucket.is_gc() {
                        // TOCTOU: the previous owner retired the bucket
                        // between our entry check and the ownership CAS. A
                        // retired bucket must never be treated as owned
                        // (its links are frozen and its successors may
                        // belong to someone else now) — rescue the queue
                        // and leave.
                        bucket.release();
                        self.forward_gc_queue(bucket, owed, guard);
                        return;
                    }
                    // Owners keep the list tidy: unlink retired successors
                    // so traversals (and the dead prefix after the
                    // sentinel) stay short.
                    self.gc_successors(b, owed, guard);
                    (Vec::new(), false)
                }
            };
            loop {
                if owed.len() > floor && !bucket.is_gc() {
                    // The last step logged follow-up work. Park — still
                    // the owner, so arrivals keep queueing behind us —
                    // beneath it; `settle` resumes here once it is done.
                    owed.insert(
                        floor,
                        Debt::Parked {
                            bucket: b,
                            stash,
                            progressed,
                        },
                    );
                    return;
                }
                let Some(req) = bucket.queue.pop() else {
                    break;
                };
                if bucket.is_gc() {
                    // We GC'd the bucket ourselves mid-drain (minimum
                    // advanced); everything left re-routes.
                    self.redispatch(req, owed, guard);
                    continue;
                }
                match self.process_request(b, req, owed, guard) {
                    Outcome::Done => progressed = true,
                    Outcome::Deferred(r) => {
                        self.tally.overwrite_deferrals(1);
                        stash.push(r);
                    }
                }
            }
            if bucket.is_gc() {
                for r in stash {
                    self.redispatch(r, owed, guard);
                }
                self.forward_gc_queue(bucket, owed, guard);
                return;
            }
            let restashed = stash.len();
            for r in stash {
                bucket.queue.push(r);
            }
            // Empty buckets are retired here (Algorithm 5's empty-bucket
            // marking). The sentinel (freq 0) is permanent; everything
            // else, including an emptied minimum bucket, is collected
            // uniformly — the next live successor simply becomes the new
            // minimum, with no pointer to update.
            if restashed == 0
                && bucket.freq != 0
                && bucket.len.load(Ordering::Acquire) == 0
                && bucket.queue.is_empty()
            {
                if bucket.mark_gc() {
                    self.tally.gc_buckets(1);
                }
                bucket.release();
                self.forward_gc_queue(bucket, owed, guard);
                // Trim the dead prefix promptly — an emptied minimum
                // bucket would otherwise linger linked after the sentinel
                // until the next admission.
                let head = self.head.load(Ordering::Acquire, guard);
                if head != b {
                    self.try_drain(head, None, owed, guard);
                }
                return;
            }
            bucket.release();
            // Release-recheck: requests pushed after our last pop whose
            // enqueuers failed the ownership CAS would otherwise strand.
            if bucket.queue.is_empty() {
                break;
            }
            if !progressed && bucket.queue.len() <= restashed {
                // Only deferred overwrites remain; they become processable
                // when new work (increments on the blocking elements)
                // arrives, which re-enters this loop.
                break;
            }
        }
    }

    /// Rescue all requests logged on a garbage-collected bucket.
    fn forward_gc_queue<'g>(&self, bucket: &Bucket<K>, owed: &mut Owed<'g, K>, guard: &'g Guard) {
        while let Some(req) = bucket.queue.pop() {
            self.redispatch(req, owed, guard);
        }
    }

    /// Re-route a request whose target bucket disappeared.
    fn redispatch<'g>(&self, req: Request<K>, owed: &mut Owed<'g, K>, guard: &'g Guard) {
        match req {
            Request::Increment(node, by) => {
                let b = node.get().bucket.load(Ordering::Acquire, guard);
                debug_assert!(!b.is_null());
                self.enqueue(b, Request::Increment(node, by), owed);
            }
            other => self.enqueue_head(other, owed, guard),
        }
    }

    // ==================================================================
    // Request processing (Algorithms 3, 5, 6 + §5.3 prune)
    // ==================================================================

    fn process_request<'g>(
        &self,
        b: Shared<'g, Bucket<K>>,
        req: Request<K>,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) -> Outcome<K> {
        self.tally.summary_ops(1);
        // SAFETY: requests are only dispatched to buckets loaded under
        // `guard`; deferred reclamation keeps `b` valid.
        if unsafe { b.deref() }.freq == 0 {
            // Sentinel dispatch: Adds fall through the normal destination
            // search (the sentinel's frequency 0 is below every real
            // count); minimum-bucket requests are delegated to the first
            // live successor.
            return self.process_at_sentinel(b, req, owed, guard);
        }
        match req {
            Request::Add(node) => {
                self.process_add(b, node, owed, guard);
                Outcome::Done
            }
            Request::Increment(node, by) => {
                self.process_increment(b, node, by, owed, guard);
                Outcome::Done
            }
            Request::Overwrite(node, by) => self.process_overwrite(b, node, by, owed, guard),
            Request::PruneMin { threshold } => {
                self.process_prune(b, threshold, guard);
                Outcome::Done
            }
        }
    }

    /// Request processing at the head sentinel: Adds run the ordinary
    /// destination search (the sentinel's frequency 0 is below every real
    /// count, so sorted insertion just works — including into an empty
    /// summary); minimum-bucket requests are delegated to the first live
    /// successor.
    fn process_at_sentinel<'g>(
        &self,
        b: Shared<'g, Bucket<K>>,
        req: Request<K>,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) -> Outcome<K> {
        match req {
            Request::Add(node_ptr) => {
                self.find_dest(b, node_ptr, owed, guard);
                Outcome::Done
            }
            Request::Overwrite(node_ptr, by) => {
                self.gc_successors(b, owed, guard);
                // SAFETY: we hold `b`'s drain rights and `guard` is pinned;
                // the bucket stays allocated even if concurrently retired.
                let first = unsafe { b.deref() }.next.load(Ordering::Acquire, guard);
                if first.is_null() {
                    // Empty summary. Unreachable for a correctly sized
                    // Space Saving instance (a full structure is never
                    // empty), but handled for robustness: admit directly.
                    debug_assert!(false, "overwrite against an empty summary");
                    self.monitored.fetch_add(1, Ordering::AcqRel);
                    let node = node_ptr.get();
                    node.freq.store(by, Ordering::Release);
                    self.find_dest(b, node_ptr, owed, guard);
                } else {
                    self.enqueue(first, Request::Overwrite(node_ptr, by), owed);
                }
                Outcome::Done
            }
            Request::PruneMin { threshold } => {
                self.gc_successors(b, owed, guard);
                // SAFETY: we hold `b`'s drain rights and `guard` is pinned;
                // the bucket stays allocated even if concurrently retired.
                let first = unsafe { b.deref() }.next.load(Ordering::Acquire, guard);
                if !first.is_null() {
                    self.enqueue(first, Request::PruneMin { threshold }, owed);
                }
                Outcome::Done
            }
            Request::Increment(..) => unreachable!("increments route to the node's bucket"),
        }
    }

    /// Algorithm 3: AddElementToBucket.
    fn process_add<'g>(
        &self,
        b: Shared<'g, Bucket<K>>,
        node_ptr: NodePtr<K>,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        // SAFETY: we hold `b`'s drain rights and `guard` is pinned; the
        // bucket stays allocated even if concurrently retired.
        let bucket = unsafe { b.deref() };
        let node = node_ptr.get();
        let freq = node.freq.load(Ordering::Acquire);
        if freq == bucket.freq {
            self.link(b, node, guard);
            self.relinquish(node, owed, guard);
        } else if freq < bucket.freq {
            // This bucket is no longer the right landing spot (a lower
            // bucket must exist or be created); route through the sentinel,
            // whose destination search inserts in sorted position.
            self.enqueue_head(Request::Add(node_ptr), owed, guard);
        } else {
            self.find_dest(b, node_ptr, owed, guard);
        }
    }

    /// Algorithm 5: IncrementCounter.
    fn process_increment<'g>(
        &self,
        b: Shared<'g, Bucket<K>>,
        node_ptr: NodePtr<K>,
        by: u64,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        // SAFETY: we hold `b`'s drain rights and `guard` is pinned; the
        // bucket stays allocated even if concurrently retired.
        let bucket = unsafe { b.deref() };
        let node = node_ptr.get();
        debug_assert!(
            node.bucket.load(Ordering::Acquire, guard) == b,
            "increment routed to a stale bucket"
        );
        self.unlink(b, node, guard);
        let new_freq = bucket.freq + by;
        node.freq.store(new_freq, Ordering::Release);
        self.find_dest(b, node_ptr, owed, guard);
        // If this emptied the bucket, the drain-exit garbage collection of
        // `try_drain` retires it once its queue runs dry.
    }

    /// Algorithm 4: FindDestBucket. `node` is unlinked, its `freq` holds
    /// the target; we own `b` and `node.freq > b.freq`.
    fn find_dest<'g>(
        &self,
        b: Shared<'g, Bucket<K>>,
        node_ptr: NodePtr<K>,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        // SAFETY: we hold `b`'s drain rights and `guard` is pinned; the
        // bucket stays allocated even if concurrently retired.
        let bucket = unsafe { b.deref() };
        let node = node_ptr.get();
        let target = node.freq.load(Ordering::Acquire);
        debug_assert!(target > bucket.freq);
        // Garbage-collect retired buckets immediately after us (we own the
        // predecessor, so the unlink is safe).
        self.gc_successors(b, owed, guard);
        let next = bucket.next.load(Ordering::Acquire, guard);
        // SAFETY: successor pointer loaded under `guard`; retired buckets are
        // reclaimed only after every pin is released.
        let next_ref = unsafe { next.as_ref() };
        match next_ref {
            None => self.insert_bucket_after(b, next, node, owed, guard),
            Some(nb) if nb.freq > target => self.insert_bucket_after(b, next, node, owed, guard),
            Some(nb) if nb.freq == target => {
                // Delegate the linking to the destination bucket.
                self.enqueue(next, Request::Add(node_ptr), owed);
            }
            Some(_) => {
                // Bulk increment: walk forward to the last bucket whose
                // frequency does not exceed the target and delegate there
                // (it will either link us or insert a fresh bucket next to
                // itself).
                let mut prev = next;
                // SAFETY: `next` was observed non-null above and remains
                // valid under `guard`.
                let mut cur = unsafe { next.deref() }.next.load(Ordering::Acquire, guard);
                let mut steps = 0usize;
                // SAFETY: chain pointers are loaded under `guard`; retired
                // buckets are reclaimed via `defer_destroy` only after every
                // pin is released.
                while let Some(cb) = unsafe { cur.as_ref() } {
                    if cb.freq > target {
                        break;
                    }
                    if !cb.is_gc() {
                        prev = cur;
                    }
                    cur = cb.next.load(Ordering::Acquire, guard);
                    steps += 1;
                    if steps > self.capacity * 4 + 4096 {
                        // Excessive walk: a long chain of retired buckets
                        // (e.g. after a bulk-increment storm) that only
                        // their predecessors' owners may unlink. Break the
                        // walk by delegating to the furthest *live* bucket
                        // reached — its owner garbage-collects the dead
                        // chain right behind it and continues from there,
                        // guaranteeing progress. (Restarting from the head
                        // instead would repeat this exact walk and
                        // livelock.)
                        self.tally.read_restarts(1);
                        break;
                    }
                }
                self.enqueue(prev, Request::Add(node_ptr), owed);
            }
        }
    }

    /// Insert a new bucket holding `node` between owned bucket `b` and its
    /// successor `next`.
    fn insert_bucket_after<'g>(
        &self,
        b: Shared<'g, Bucket<K>>,
        next: Shared<'g, Bucket<K>>,
        node: &Node<K>,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        #[cfg(debug_assertions)]
        destroy_registry::assert_alive(b.as_raw() as usize, "insert_bucket_after");
        // SAFETY: we hold `b`'s drain rights and `guard` is pinned; the
        // bucket stays allocated even if concurrently retired.
        let bucket = unsafe { b.deref() };
        let target = node.freq.load(Ordering::Acquire);
        let new_bucket = Owned::new(Bucket::new(target));
        new_bucket.next.store(next, Ordering::Relaxed);
        let node_sh = Shared::from(node as *const Node<K>);
        new_bucket.elems.store(node_sh, Ordering::Relaxed);
        new_bucket.len.store(1, Ordering::Relaxed);
        node.list_prev.store(Shared::null(), Ordering::Relaxed);
        node.list_next.store(Shared::null(), Ordering::Relaxed);
        let installed = new_bucket.into_shared(guard);
        #[cfg(debug_assertions)]
        destroy_registry::forget(installed.as_raw() as usize);
        bucket.next.store(installed, Ordering::Release);
        node.bucket.store(installed, Ordering::Release);
        self.relinquish(node, owed, guard);
    }

    /// Algorithm 6: OverwriteElement. We own `b`; `node` is a new element
    /// that must replace a minimum-frequency victim.
    fn process_overwrite<'g>(
        &self,
        b: Shared<'g, Bucket<K>>,
        node_ptr: NodePtr<K>,
        by: u64,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) -> Outcome<K> {
        // SAFETY: we hold `b`'s drain rights and `guard` is pinned; the
        // bucket stays allocated even if concurrently retired.
        let bucket = unsafe { b.deref() };
        // Overwrites apply to the *minimum* bucket; if a lower bucket has
        // appeared (or this one was retired), chase the real minimum
        // through the sentinel.
        if self.first_alive(guard) != b {
            self.enqueue_head(Request::Overwrite(node_ptr, by), owed, guard);
            return Outcome::Done;
        }
        let node = node_ptr.get();
        // Hunt for a victim with no pending requests (non-blocking
        // `try_remove`; busy candidates are skipped, never waited on —
        // Minimal Existence).
        let mut cur = bucket.elems.load(Ordering::Acquire, guard);
        // SAFETY: element-list nodes are unlinked before retirement and
        // reclaimed via `defer_destroy`; `guard` keeps them valid.
        while let Some(cand) = unsafe { cur.as_ref() } {
            if !std::ptr::eq(cand as *const _, node as *const _) && self.table.try_remove(cand) {
                // Victim secured: inherit its count as the error bound.
                self.unlink(b, cand, guard);
                node.error.store(bucket.freq, Ordering::Release);
                node.freq.store(bucket.freq + by, Ordering::Release);
                self.tally.overwrites(1);
                self.find_dest(b, node_ptr, owed, guard);
                return Outcome::Done;
            }
            cur = cand.list_next.load(Ordering::Acquire, guard);
        }
        if bucket.len.load(Ordering::Acquire) == 0 {
            // The minimum bucket emptied under us. If nothing else is
            // queued, retire it ourselves and retry at the new minimum;
            // otherwise the queued work (Adds that will repopulate it)
            // goes first.
            if bucket.queue.is_empty() {
                if bucket.mark_gc() {
                    self.tally.gc_buckets(1);
                }
                self.enqueue_head(Request::Overwrite(node_ptr, by), owed, guard);
                return Outcome::Done;
            }
            return Outcome::Deferred(Request::Overwrite(node_ptr, by));
        }
        // Every candidate has pending increments; defer until those are
        // processed (they are queued on this same bucket).
        Outcome::Deferred(Request::Overwrite(node_ptr, by))
    }

    /// §5.3 Lossy Counting maintenance: evict idle minimum-bucket elements
    /// whose upper bound does not exceed the round id.
    fn process_prune(&self, b: Shared<'_, Bucket<K>>, threshold: u64, guard: &Guard) {
        // SAFETY: we hold `b`'s drain rights and `guard` is pinned; the
        // bucket stays allocated even if concurrently retired.
        let bucket = unsafe { b.deref() };
        let mut cur = bucket.elems.load(Ordering::Acquire, guard);
        // SAFETY: element-list nodes are unlinked before retirement and
        // reclaimed via `defer_destroy`; `guard` keeps them valid.
        while let Some(cand) = unsafe { cur.as_ref() } {
            let next = cand.list_next.load(Ordering::Acquire, guard);
            let bound = cand.freq.load(Ordering::Acquire) + cand.error.load(Ordering::Acquire);
            if bound <= threshold && self.table.try_remove(cand) {
                self.unlink(b, cand, guard);
                self.monitored.fetch_sub(1, Ordering::AcqRel);
            }
            cur = next;
        }
        // An emptied bucket is retired by the drain-exit garbage
        // collection once its queue runs dry.
    }

    // ==================================================================
    // Bucket-list maintenance (owner-side)
    // ==================================================================

    /// Link `node` at the head of owned bucket `b`'s element list.
    fn link(&self, b: Shared<'_, Bucket<K>>, node: &Node<K>, guard: &Guard) {
        #[cfg(debug_assertions)]
        destroy_registry::assert_alive(b.as_raw() as usize, "link");
        // SAFETY: we hold `b`'s drain rights and `guard` is pinned; the
        // bucket stays allocated even if concurrently retired.
        let bucket = unsafe { b.deref() };
        let head = bucket.elems.load(Ordering::Acquire, guard);
        let node_sh = Shared::from(node as *const Node<K>);
        node.list_prev.store(Shared::null(), Ordering::Relaxed);
        node.list_next.store(head, Ordering::Relaxed);
        // SAFETY: `head` was loaded from the owned bucket under `guard`.
        if let Some(h) = unsafe { head.as_ref() } {
            h.list_prev.store(node_sh, Ordering::Release);
        }
        bucket.elems.store(node_sh, Ordering::Release);
        bucket.len.fetch_add(1, Ordering::AcqRel);
        node.bucket.store(b, Ordering::Release);
    }

    /// Unlink `node` from owned bucket `b`'s element list.
    fn unlink(&self, b: Shared<'_, Bucket<K>>, node: &Node<K>, guard: &Guard) {
        // SAFETY: we hold `b`'s drain rights and `guard` is pinned; the
        // bucket stays allocated even if concurrently retired.
        let bucket = unsafe { b.deref() };
        let prev = node.list_prev.load(Ordering::Acquire, guard);
        let next = node.list_next.load(Ordering::Acquire, guard);
        // SAFETY: list neighbours of a node in an owned bucket, loaded under
        // `guard`.
        match unsafe { prev.as_ref() } {
            Some(p) => p.list_next.store(next, Ordering::Release),
            None => bucket.elems.store(next, Ordering::Release),
        }
        // SAFETY: list neighbours of a node in an owned bucket, loaded under
        // `guard`.
        if let Some(n) = unsafe { next.as_ref() } {
            n.list_prev.store(prev, Ordering::Release);
        }
        bucket.len.fetch_sub(1, Ordering::AcqRel);
    }

    /// Unlink (and retire) garbage-collected buckets directly after owned
    /// bucket `b`.
    fn gc_successors<'g>(
        &self,
        b: Shared<'g, Bucket<K>>,
        owed: &mut Owed<'g, K>,
        guard: &'g Guard,
    ) {
        // SAFETY: the caller owns `b` and holds `guard`; the bucket stays
        // allocated.
        let bucket = unsafe { b.deref() };
        loop {
            let next = bucket.next.load(Ordering::Acquire, guard);
            // SAFETY: successor loaded under `guard`; reclamation is deferred
            // past all pins.
            match unsafe { next.as_ref() } {
                Some(nb) if nb.is_gc() => {
                    let after = nb.next.load(Ordering::Acquire, guard);
                    bucket.next.store(after, Ordering::Release);
                    // Rescue any late-logged requests, then retire.
                    self.forward_gc_queue(nb, owed, guard);
                    #[cfg(debug_assertions)]
                    destroy_registry::record_destroy(
                        next.as_raw() as usize,
                        format!(
                            "gc_successors: owner of freq={} (gc={}, owner_flag={}) unlinked freq={} on {:?}",
                            bucket.freq,
                            bucket.is_gc(),
                            bucket.owner.load(Ordering::Relaxed),
                            nb.freq,
                            std::thread::current().id()
                        ),
                    );
                    // SAFETY: unreachable from the list now; late holders
                    // are protected by their epoch pins.
                    unsafe { guard.defer_destroy(next) };
                }
                _ => return,
            }
        }
    }

    // ==================================================================
    // Quiescence and queries
    // ==================================================================

    /// Drain every queue to quiescence. Call after all producer threads
    /// have finished; afterwards every logged request has been applied and
    /// `Σ counts == N` holds exactly (Space Saving policy).
    pub fn finalize(&self) {
        let guard = epoch::pin();
        let mut owed = Owed::new();
        for round in 0..1_000_000 {
            let mut any = false;
            let mut cur = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: chain pointers are loaded under `guard`; retired
            // buckets are reclaimed via `defer_destroy` only after every pin
            // is released.
            while let Some(bucket) = unsafe { cur.as_ref() } {
                if !bucket.queue.is_empty() {
                    any = true;
                    self.try_drain(cur, None, &mut owed, &guard);
                } else if round == 0
                    && bucket.freq != 0
                    && !bucket.is_gc()
                    && bucket.len.load(Ordering::Acquire) == 0
                {
                    // Quiet empty bucket: drain once so the exit GC
                    // retires it.
                    self.try_drain(cur, None, &mut owed, &guard);
                }
                self.settle(&mut owed, &guard);
                cur = bucket.next.load(Ordering::Acquire, &guard);
            }
            if !any && round > 0 {
                return;
            }
        }
        panic!("finalize failed to reach quiescence");
    }

    /// Exhaustively verify structural invariants. Only meaningful at
    /// quiescence (after [`CotsEngine::finalize`] with no concurrent
    /// producers); test support.
    ///
    /// # Panics
    /// On any violation.
    pub fn check_quiescent_invariants(&self) {
        let violations = self.collect_violations();
        assert!(
            violations.is_empty(),
            "CotsEngine invariants violated: {}",
            violations
                .iter()
                .map(|(name, detail)| format!("[{name}] {detail}"))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    /// Walk the whole structure and collect every violated invariant as a
    /// `(name, detail)` pair. Only meaningful at quiescence. Backs both
    /// [`CotsEngine::check_quiescent_invariants`] and the feature-gated
    /// `CheckInvariants` impl.
    ///
    /// Runs a hash-table GC pass first (tombstoned entries are collected
    /// lazily, so freshly evicted nodes may linger in the chains until the
    /// next insert) and then requires that *no* dead node remains
    /// reachable.
    fn collect_violations(&self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        let guard = epoch::pin();
        // Tombstones are unlinked lazily; force the pass so the
        // no-dead-reachable invariant below is exact, not eventual.
        self.table.gc_all_chains(&guard);
        let dead = self.table.dead_reachable(&guard);
        if dead != 0 {
            out.push((
                "tombstone-gc",
                format!("{dead} tombstoned node(s) reachable after a GC pass"),
            ));
        }
        let mut prev_freq = 0u64;
        let mut reachable = 0usize;
        let mut total_mass = 0u64;
        let mut idx = 0usize;
        let mut cur = self.head.load(Ordering::Acquire, &guard);
        // SAFETY: chain pointers are loaded under `guard`; retired buckets
        // are reclaimed via `defer_destroy` only after every pin is released.
        while let Some(bucket) = unsafe { cur.as_ref() } {
            if !bucket.queue.is_empty() {
                out.push((
                    "queue-drained",
                    format!("bucket {idx} (freq {}) has queued requests", bucket.freq),
                ));
            }
            if !bucket.is_gc() && bucket.freq != 0 {
                if bucket.freq <= prev_freq {
                    out.push((
                        "bucket-order",
                        format!("bucket {idx}: freq {} after {prev_freq}", bucket.freq),
                    ));
                }
                prev_freq = bucket.freq;
                let mut n = bucket.elems.load(Ordering::Acquire, &guard);
                let mut count = 0usize;
                let mut prev_node: Shared<'_, Node<K>> = Shared::null();
                // SAFETY: element-list nodes are unlinked before retirement
                // and reclaimed via `defer_destroy`; `guard` keeps them
                // valid.
                while let Some(node) = unsafe { n.as_ref() } {
                    if node.is_dead() {
                        out.push((
                            "no-dead-linked",
                            format!("bucket {idx}: tombstoned node still linked"),
                        ));
                    }
                    let pending = node.pending.load(Ordering::Acquire);
                    if pending != 0 && pending < TOMB {
                        out.push((
                            "pending-drained",
                            format!("bucket {idx}: node with pending {pending}"),
                        ));
                    }
                    let freq = node.freq.load(Ordering::Acquire);
                    if freq != bucket.freq {
                        out.push((
                            "freq-match",
                            format!("bucket {idx} (freq {}): node freq {freq}", bucket.freq),
                        ));
                    }
                    if node.bucket.load(Ordering::Acquire, &guard) != cur {
                        out.push((
                            "node-backpointer",
                            format!("bucket {idx}: node bucket back-pointer astray"),
                        ));
                    }
                    if node.list_prev.load(Ordering::Acquire, &guard) != prev_node {
                        out.push((
                            "node-backlink",
                            format!("bucket {idx}: doubly-linked prev astray"),
                        ));
                    }
                    let error = node.error.load(Ordering::Acquire);
                    if error > bucket.freq {
                        out.push((
                            "error-bound",
                            format!("bucket {idx}: error {error} > count {}", bucket.freq),
                        ));
                    }
                    prev_node = n;
                    n = node.list_next.load(Ordering::Acquire, &guard);
                    count += 1;
                    total_mass += bucket.freq;
                }
                let len = bucket.len.load(Ordering::Acquire);
                if count != len {
                    out.push((
                        "len-field",
                        format!("bucket {idx}: len {len} but {count} reachable"),
                    ));
                }
                if count == 0 {
                    out.push((
                        "bucket-nonempty",
                        format!("bucket {idx} (freq {}) is live but empty", bucket.freq),
                    ));
                }
                reachable += count;
            } else if bucket.freq != 0 && bucket.len.load(Ordering::Acquire) != 0 {
                out.push((
                    "gc-empty",
                    format!("retired bucket {idx} still holds elements"),
                ));
            }
            cur = bucket.next.load(Ordering::Acquire, &guard);
            idx += 1;
        }
        if reachable != self.monitored() {
            out.push((
                "monitored-count",
                format!("{reachable} reachable but monitored() = {}", self.monitored()),
            ));
        }
        let live = self.table.live_count(&guard);
        if reachable != live {
            out.push((
                "table-agreement",
                format!("{reachable} reachable but hash table holds {live}"),
            ));
        }
        if matches!(self.policy, Policy::SpaceSaving) {
            let total = self.total.load(Ordering::Acquire);
            if total_mass != total {
                out.push((
                    "count-conservation",
                    format!("Σ counts = {total_mass} ≠ N = {total}"),
                ));
            }
        }
        out
    }

    /// Best-effort single pass over the bucket list draining whatever is
    /// currently queued. Unlike [`CotsEngine::finalize`] this never loops
    /// to full quiescence, so it is safe to call while producers are still
    /// running (used by windowed readers to freshen a snapshot).
    pub fn drain_pending(&self) {
        let guard = epoch::pin();
        let mut owed = Owed::new();
        for _ in 0..8 {
            let mut any = false;
            let mut cur = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: chain pointers are loaded under `guard`; retired
            // buckets are reclaimed via `defer_destroy` only after every pin
            // is released.
            while let Some(bucket) = unsafe { cur.as_ref() } {
                if !bucket.queue.is_empty() {
                    any = true;
                    self.try_drain(cur, None, &mut owed, &guard);
                    self.settle(&mut owed, &guard);
                }
                cur = bucket.next.load(Ordering::Acquire, &guard);
            }
            if !any {
                return;
            }
        }
    }

    /// Render the live bucket chain for diagnostics: frequency, state,
    /// owner flag, element count and queue length per bucket.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let guard = epoch::pin();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "total={} monitored={} capacity={}",
            self.total.load(Ordering::Acquire),
            self.monitored(),
            self.capacity
        );
        let mut cur = self.head.load(Ordering::Acquire, &guard);
        let mut i = 0;
        // SAFETY: chain pointers are loaded under `guard`; retired buckets
        // are reclaimed via `defer_destroy` only after every pin is released.
        while let Some(bucket) = unsafe { cur.as_ref() } {
            let _ = writeln!(
                out,
                "  [{}] freq={} gc={} owner={} len={} queue={}",
                i,
                bucket.freq,
                bucket.is_gc(),
                bucket.owner.load(Ordering::Relaxed),
                bucket.len.load(Ordering::Relaxed),
                bucket.queue.len()
            );
            cur = bucket.next.load(Ordering::Acquire, &guard);
            i += 1;
            if i > 64 {
                let _ = writeln!(out, "  ... (truncated)");
                break;
            }
        }
        out
    }

    /// Point estimate `(count, error)` via the search structure (§5.2.4:
    /// "answered directly from the Search Structure").
    pub fn estimate_point(&self, item: &K) -> Option<(u64, u64)> {
        let guard = epoch::pin();
        let node_sh = self.table.lookup(item, &guard)?;
        // SAFETY: `lookup` returned this pointer under `guard`; node
        // reclamation is deferred past the pin.
        let node = unsafe { node_sh.deref() };
        let freq = node.freq.load(Ordering::Acquire);
        if freq == 0 || node.is_dead() {
            return None;
        }
        Some((freq, node.error.load(Ordering::Acquire).min(freq)))
    }

    /// The frequency of the k-th most frequent element, from a lock-free
    /// traversal of the bucket list (used by `IsElementInTopk`).
    pub fn kth_frequency(&self, k: usize) -> Option<u64> {
        if k == 0 {
            return None;
        }
        let guard = epoch::pin();
        // Collect (freq, len) ascending, then walk from the top.
        let mut counts: Vec<(u64, usize)> = Vec::new();
        let mut cur = self.head.load(Ordering::Acquire, &guard);
        let mut steps = 0usize;
        // SAFETY: chain pointers are loaded under `guard`; retired buckets
        // are reclaimed via `defer_destroy` only after every pin is released.
        while let Some(bucket) = unsafe { cur.as_ref() } {
            if !bucket.is_gc() && bucket.freq != 0 {
                counts.push((bucket.freq, bucket.len.load(Ordering::Acquire)));
            }
            if !bucket.is_gc() {
                steps += 1;
                if steps > self.capacity * 4 + 1024 {
                    break; // torn read; report best effort
                }
            }
            cur = bucket.next.load(Ordering::Acquire, &guard);
        }
        let mut remaining = k;
        for &(freq, len) in counts.iter().rev() {
            if len >= remaining {
                return Some(freq);
            }
            remaining -= len;
        }
        None
    }

    /// A best-effort consistent snapshot (exact at quiescence).
    fn snapshot_inner(&self) -> Snapshot<K> {
        let guard = epoch::pin();
        let cap = self.monitored().max(self.capacity) * 2 + 1024;
        let mut best: HashMap<K, CounterEntry<K>> = HashMap::new();
        let mut cur = self.head.load(Ordering::Acquire, &guard);
        let mut steps = 0usize;
        // SAFETY: chain pointers are loaded under `guard`; retired buckets
        // are reclaimed via `defer_destroy` only after every pin is released.
        'walk: while let Some(bucket) = unsafe { cur.as_ref() } {
            if !bucket.is_gc() && bucket.freq != 0 {
                let mut n = bucket.elems.load(Ordering::Acquire, &guard);
                let mut in_bucket = 0usize;
                // SAFETY: element-list nodes are unlinked before retirement
                // and reclaimed via `defer_destroy`; `guard` keeps them
                // valid.
                while let Some(node) = unsafe { n.as_ref() } {
                    let freq = node.freq.load(Ordering::Acquire);
                    if !node.is_dead() && freq > 0 {
                        let entry = CounterEntry::new(
                            node.key,
                            freq,
                            node.error.load(Ordering::Acquire).min(freq),
                        );
                        best.entry(node.key)
                            .and_modify(|e| {
                                if entry.count > e.count {
                                    *e = entry;
                                }
                            })
                            .or_insert(entry);
                    }
                    n = node.list_next.load(Ordering::Acquire, &guard);
                    in_bucket += 1;
                    if in_bucket > cap {
                        self.tally.read_restarts(1);
                        break 'walk; // torn list; report what we have
                    }
                }
            }
            if !bucket.is_gc() {
                steps += 1;
                if steps > cap {
                    self.tally.read_restarts(1);
                    break;
                }
            }
            cur = bucket.next.load(Ordering::Acquire, &guard);
        }
        Snapshot::new(
            best.into_values().collect(),
            self.total.load(Ordering::Acquire),
        )
    }
}

impl<K: Element> ConcurrentCounter<K> for CotsEngine<K> {
    fn process(&self, item: K) {
        self.delegate(item);
    }

    fn process_slice(&self, items: &[K]) {
        self.delegate_batch(items);
    }

    fn ingest_batch(&self, items: &[K]) {
        self.delegate_batch(items);
    }

    fn processed(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }
}

impl<K: Element> QueryableSummary<K> for CotsEngine<K> {
    fn snapshot(&self) -> Snapshot<K> {
        self.snapshot_inner()
    }

    fn estimate(&self, item: &K) -> Option<(u64, u64)> {
        self.estimate_point(item)
    }
}

#[cfg(feature = "invariants")]
impl<K: Element> cots_core::CheckInvariants for CotsEngine<K> {
    /// Audit the full structure. Only meaningful at quiescence (after
    /// [`CotsEngine::finalize`] with no concurrent producers): a mid-run
    /// audit observes in-flight delegations as violations by design.
    fn violations(&self) -> Vec<cots_core::Violation> {
        self.collect_violations()
            .into_iter()
            .map(|(name, detail)| cots_core::Violation::new(name, detail))
            .collect()
    }
}

impl<K: Element> Drop for CotsEngine<K> {
    fn drop(&mut self) {
        // Exclusive access: free the bucket list (nodes are owned and freed
        // by the hash table's Drop).
        // SAFETY: `&mut self` proves no concurrent accessors or live pins
        // remain.
        let guard = unsafe { epoch::unprotected() };
        let mut cur = self.head.load(Ordering::Relaxed, guard);
        while !cur.is_null() {
            #[cfg(debug_assertions)]
            destroy_registry::assert_alive(cur.as_raw() as usize, "Drop");
            #[cfg(debug_assertions)]
            destroy_registry::forget(cur.as_raw() as usize);
            // SAFETY: `cur` is non-null (loop condition) and `&mut self`
            // excludes concurrent mutation.
            let next = unsafe { cur.deref() }.next.load(Ordering::Relaxed, guard);
            // SAFETY: each bucket appears exactly once in the chain, so this
            // is the unique owner.
            drop(unsafe { cur.into_owned() });
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cots_core::CotsConfig;
    use std::sync::Barrier;

    fn engine(capacity: usize) -> CotsEngine<u64> {
        CotsEngine::new(CotsConfig::for_capacity(capacity).unwrap()).unwrap()
    }

    fn checked_sum(e: &CotsEngine<u64>) -> u64 {
        e.finalize();
        e.check_quiescent_invariants();
        e.snapshot().entries().iter().map(|x| x.count).sum()
    }

    #[test]
    fn sequential_exact_counting() {
        let e = engine(16);
        for item in [1u64, 2, 2, 3, 3, 3, 1] {
            e.delegate(item);
        }
        e.finalize();
        assert_eq!(e.estimate_point(&1), Some((2, 0)));
        assert_eq!(e.estimate_point(&2), Some((2, 0)));
        assert_eq!(e.estimate_point(&3), Some((3, 0)));
        assert_eq!(e.estimate_point(&9), None);
        assert_eq!(e.processed(), 7);
        assert_eq!(checked_sum(&e), 7);
    }

    #[test]
    fn sequential_overwrite_semantics() {
        let e = engine(2);
        for item in [1u64, 1, 2, 3] {
            e.delegate(item);
        }
        e.finalize();
        // {1:2, 2:1}; 3 overwrites 2 -> {1:2, 3:2 (err 1)}.
        assert_eq!(e.estimate_point(&2), None);
        assert_eq!(e.estimate_point(&3), Some((2, 1)));
        assert_eq!(e.monitored(), 2);
        assert_eq!(checked_sum(&e), 4);
        assert!(e.work().overwrites >= 1);
    }

    #[test]
    fn bucket_reuse_and_min_advance() {
        let e = engine(8);
        // Push counts up so the min bucket empties repeatedly.
        for round in 0..5 {
            for item in 0..4u64 {
                e.delegate(item);
            }
            let _ = round;
        }
        e.finalize();
        for item in 0..4u64 {
            assert_eq!(e.estimate_point(&item), Some((5, 0)));
        }
        assert_eq!(checked_sum(&e), 20);
        assert!(e.work().gc_buckets > 0, "empty buckets must be collected");
    }

    #[test]
    fn concurrent_count_conservation_small_alphabet() {
        let e = Arc::new(engine(64));
        let threads = 8;
        let per = 10_000u64;
        let barrier = Arc::new(Barrier::new(threads));
        std::thread::scope(|s| {
            for t in 0..threads {
                let e = e.clone();
                let b = barrier.clone();
                s.spawn(move || {
                    b.wait();
                    for i in 0..per {
                        e.delegate((t as u64 + i) % 32);
                    }
                });
            }
        });
        let n = threads as u64 * per;
        assert_eq!(e.processed(), n);
        assert_eq!(checked_sum(&e), n);
        let snap = e.snapshot();
        assert!(snap.len() <= 32);
        // Exact counts: alphabet fits the budget, so every count must
        // equal the ground truth regardless of interleaving.
        let mut truth = std::collections::HashMap::new();
        for t in 0..threads as u64 {
            for i in 0..per {
                *truth.entry((t + i) % 32).or_insert(0u64) += 1;
            }
        }
        for entry in snap.entries() {
            assert_eq!(entry.count, truth[&entry.item], "item {:?}", entry.item);
            assert_eq!(entry.error, 0);
        }
    }

    #[test]
    fn concurrent_hot_element_combining() {
        // All threads hammer one element: delegation must combine.
        let e = Arc::new(engine(4));
        let threads = 8;
        let per = 20_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        e.delegate(7u64);
                    }
                });
            }
        });
        e.finalize();
        assert_eq!(e.estimate_point(&7), Some((threads as u64 * per, 0)));
        let w = e.work();
        assert_eq!(w.elements, threads as u64 * per);
        // Combining must have happened: far fewer crossings than elements.
        assert!(
            w.boundary_crossings < w.elements,
            "no combining: {} crossings for {} elements",
            w.boundary_crossings,
            w.elements
        );
        assert!(w.delegated_increments > 0);
    }

    #[test]
    fn concurrent_churn_with_overwrites() {
        let e = Arc::new(engine(16));
        let threads = 6;
        let per = 8_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let e = e.clone();
                s.spawn(move || {
                    let mut x = 0x9E3779B97F4A7C15u64 ^ t as u64;
                    for _ in 0..per {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let item = if x & 1 == 0 { x % 8 } else { 1000 + (x % 4000) };
                        e.delegate(item);
                    }
                });
            }
        });
        let n = threads as u64 * per;
        assert_eq!(e.processed(), n);
        assert_eq!(
            checked_sum(&e),
            n,
            "count conservation under eviction churn"
        );
        let snap = e.snapshot();
        assert_eq!(snap.len(), 16);
        for entry in snap.entries() {
            assert!(entry.error <= entry.count);
        }
        assert!(e.work().overwrites > 0);
    }

    #[test]
    fn estimates_visible_during_concurrent_updates() {
        let e = Arc::new(engine(32));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let e = e.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        e.delegate(i % 16);
                        i += 1;
                    }
                });
            }
            // Reader thread: estimates and snapshots must never panic or
            // violate basic sanity.
            let e2 = e.clone();
            let stop2 = stop.clone();
            s.spawn(move || {
                for _ in 0..2_000 {
                    if let Some((c, err)) = e2.estimate_point(&3) {
                        assert!(err <= c);
                    }
                    let snap = e2.snapshot();
                    assert!(snap.len() <= 64);
                    let _ = e2.kth_frequency(5);
                }
                stop2.store(true, Ordering::Relaxed);
            });
        });
        e.finalize();
        let sum: u64 = e.snapshot().entries().iter().map(|x| x.count).sum();
        assert_eq!(sum, e.processed());
    }

    #[test]
    fn kth_frequency_matches_snapshot() {
        let e = engine(32);
        for (item, reps) in [(1u64, 10), (2, 7), (3, 7), (4, 2)] {
            for _ in 0..reps {
                e.delegate(item);
            }
        }
        e.finalize();
        assert_eq!(e.kth_frequency(1), Some(10));
        assert_eq!(e.kth_frequency(2), Some(7));
        assert_eq!(e.kth_frequency(3), Some(7));
        assert_eq!(e.kth_frequency(4), Some(2));
        assert_eq!(e.kth_frequency(5), None);
        assert_eq!(e.kth_frequency(0), None);
    }

    #[test]
    fn combined_batches_match_per_element_no_eviction() {
        // Alphabet fits the budget, so nothing is ever evicted and the
        // front-end must reproduce the per-element run exactly.
        let cfg = CotsConfig::for_capacity(64).unwrap();
        let on = CotsEngine::<u64>::new(cfg).unwrap();
        let off = CotsEngine::<u64>::new(cfg.without_combiner()).unwrap();
        let mut x = 3u64;
        let stream: Vec<u64> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x % 48
            })
            .collect();
        for chunk in stream.chunks(512) {
            on.delegate_batch(chunk);
            off.delegate_batch(chunk);
        }
        on.finalize();
        off.finalize();
        on.check_quiescent_invariants();
        off.check_quiescent_invariants();
        assert_eq!(on.processed(), off.processed());
        for k in 0..48u64 {
            assert_eq!(on.estimate_point(&k), off.estimate_point(&k), "key {k}");
        }
        let (w_on, w_off) = (on.work(), off.work());
        assert!(w_on.combiner_flushes > 0, "front-end never engaged");
        assert!(w_on.combined_increments > 0);
        assert_eq!(w_off.combined_increments, 0);
        assert!(
            w_on.boundary_crossings < w_off.boundary_crossings,
            "combining must reduce crossings: {} vs {}",
            w_on.boundary_crossings,
            w_off.boundary_crossings
        );
        // Every occurrence is accounted for exactly once.
        assert_eq!(w_on.elements, 10_000);
        assert_eq!(w_off.boundary_crossings + w_off.delegated_increments, 10_000);
    }

    #[test]
    fn combined_lossy_matches_per_element() {
        // Single-threaded Lossy runs are deterministic: segment-wise
        // flushing before each round prune must reproduce the per-element
        // run exactly, evictions included.
        let cfg = CotsConfig::for_capacity(512).unwrap();
        let width = 16u64;
        let on =
            CotsEngine::<u64>::with_policy(cfg, Policy::LossyRounds { width }).unwrap();
        let off = CotsEngine::<u64>::with_policy(
            cfg.without_combiner(),
            Policy::LossyRounds { width },
        )
        .unwrap();
        let mut x = 11u64;
        let stream: Vec<u64> = (0..4_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x % 64).min(x % 8)
            })
            .collect();
        for chunk in stream.chunks(100) {
            // Odd chunk size: segments straddle round boundaries.
            on.delegate_batch(chunk);
            off.delegate_batch(chunk);
        }
        on.finalize();
        off.finalize();
        assert_eq!(on.monitored(), off.monitored());
        for k in 0..64u64 {
            assert_eq!(on.estimate_point(&k), off.estimate_point(&k), "key {k}");
        }
    }

    #[test]
    fn work_counters_sane() {
        let e = engine(8);
        for i in 0..1000u64 {
            e.delegate(i % 4);
        }
        e.finalize();
        let w = e.work();
        assert_eq!(w.elements, 1000);
        assert_eq!(w.boundary_crossings, 1000); // single-threaded: no combining
        assert!(w.summary_ops >= 1000);
        assert!((w.combining_factor() - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod lossy_tests {
    use super::*;
    use crate::policy::Policy;
    use cots_core::CotsConfig;

    fn lossy(width: u64) -> CotsEngine<u64> {
        CotsEngine::with_policy(
            CotsConfig::for_capacity(1024).unwrap(),
            Policy::LossyRounds { width },
        )
        .unwrap()
    }

    #[test]
    fn rejects_zero_width() {
        assert!(CotsEngine::<u64>::with_policy(
            CotsConfig::for_capacity(8).unwrap(),
            Policy::LossyRounds { width: 0 },
        )
        .is_err());
    }

    #[test]
    fn prunes_infrequent_at_round_boundaries() {
        let e = lossy(8);
        // Round 1: eight distinct singletons. At the boundary the prune
        // evicts idle elements with freq + delta <= 1.
        for item in 0..8u64 {
            e.delegate(item);
        }
        e.finalize();
        assert!(
            e.monitored() < 8,
            "round-boundary prune must evict singletons, still monitoring {}",
            e.monitored()
        );
        // A heavy element survives rounds.
        for _ in 0..20 {
            e.delegate(100);
        }
        for item in 200..204u64 {
            e.delegate(item);
        }
        e.finalize();
        let (count, _) = e.estimate_point(&100).expect("heavy element kept");
        assert_eq!(count, 20);
    }

    #[test]
    fn lossy_bounds_hold_like_sequential() {
        // Compare against the sequential Lossy Counting bounds: count
        // upper-bounds truth; count - error lower-bounds it.
        let e = lossy(16);
        let mut truth = std::collections::HashMap::new();
        let mut x = 5u64;
        for _ in 0..4_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let item = (x % 64).min(x % 8);
            e.delegate(item);
            *truth.entry(item).or_insert(0u64) += 1;
        }
        e.finalize();
        let snap = e.snapshot();
        for entry in snap.entries() {
            let t = truth[&entry.item];
            // The CoTS adaptation prunes only the minimum bucket per
            // boundary (the paper's simplification), so counts can lag the
            // sequential algorithm's but bounds must stay sound.
            assert!(entry.count >= entry.error);
            assert!(entry.count - entry.error <= t, "guarantee exceeded truth");
            assert!(entry.count <= t + entry.error, "upper bound violated");
        }
        // Heavy elements (> N/16 = 250) must be monitored.
        let n = e.processed();
        for (&item, &t) in &truth {
            if t > n / 16 {
                assert!(snap.get(&item).is_some(), "{item} ({t}) missing");
            }
        }
    }

    #[test]
    fn concurrent_lossy_does_not_lose_heavy_elements() {
        let e = std::sync::Arc::new(lossy(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let e = e.clone();
                s.spawn(move || {
                    let mut x = 7u64 ^ (t as u64) << 32;
                    for i in 0..5_000u64 {
                        // Half the stream is the hot element 42.
                        let item = if i % 2 == 0 {
                            42
                        } else {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            1_000 + (x % 2_000)
                        };
                        e.delegate(item);
                    }
                });
            }
        });
        e.finalize();
        let (count, error) = e.estimate_point(&42).expect("hot element kept");
        assert!(count >= 10_000, "hot element count {count} too low");
        assert!(count - error <= 10_000);
    }
}
