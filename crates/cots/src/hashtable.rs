//! The thread-safe search structure (paper §5.2.1).
//!
//! A fixed-size chained hash table (the paper sizes it so that "the hash
//! table will not require a resize", leveraging the bounded counter budget):
//!
//! * **Readers need no locks** — chains are traversed lock-free under an
//!   epoch guard.
//! * **Deletions are lazy** — `try_remove` only tombstones (the `pending`
//!   `0 → TOMB` CAS) and flags the node; physical unlinking happens during
//!   later insertions ("once a thread has acquired a lock on a bucket, it
//!   will Garbage Collect all deleted entries in the bucket").
//! * **Locks serialize only insertions** to the same hash bucket; with
//!   multiplicative hashing two concurrent writers rarely collide, making
//!   the design "mostly wait free".
//!
//! ## Cache-conscious layout
//!
//! Each hash bucket's chain head and insert lock live together in one
//! 64-byte-aligned `Stripe`, so (a) a lookup that misses in the chain
//! head and an insert that takes the lock touch the same cache line, and
//! (b) writers hammering *different* buckets never false-share a line the
//! way the previous parallel `Vec<Atomic>`/`Vec<Mutex>` layout invited.
//! Every [`Node`] additionally caches its key's 64-bit hash, so chain
//! walks reject colliding neighbours on one integer compare and chain
//! maintenance (`collect_chain`, `gc_all_chains`) never rehashes a key.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam::epoch::{Guard, Owned, Shared};
use parking_lot::Mutex;

use cots_core::report::WorkTally;
use cots_core::{Element, MulHash};

use crate::node::{Node, TOMB};

/// One hash bucket: chain head + insert lock, padded to a cache line so
/// neighbouring buckets never false-share.
#[repr(align(64))]
struct Stripe<K> {
    head: crossbeam::epoch::Atomic<Node<K>>,
    /// Serializes insertions (and lazy chain GC) for this bucket only.
    lock: Mutex<()>,
}

impl<K> Default for Stripe<K> {
    fn default() -> Self {
        Self {
            head: crossbeam::epoch::Atomic::null(),
            lock: Mutex::new(()),
        }
    }
}

/// The delegation hash table.
pub struct HashTable<K> {
    /// `1 << hash_bits` cache-line stripes, pre-sized at construction (the
    /// paper sizes the table so it never resizes).
    stripes: Box<[Stripe<K>]>,
    hash_bits: u32,
    tally: Arc<WorkTally>,
}

impl<K: Element> HashTable<K> {
    /// Build a table with `1 << hash_bits` buckets.
    pub fn new(hash_bits: u32, tally: Arc<WorkTally>) -> Self {
        let n = 1usize << hash_bits;
        Self {
            stripes: (0..n).map(|_| Stripe::default()).collect(),
            hash_bits,
            tally,
        }
    }

    #[inline]
    fn index_of(&self, hash: u64) -> usize {
        MulHash::index(hash, self.hash_bits)
    }

    /// Lock-free lookup of the live node for `key`.
    pub fn lookup<'g>(&self, key: &K, guard: &'g Guard) -> Option<Shared<'g, Node<K>>> {
        self.lookup_hashed(key, MulHash::hash(key), guard)
    }

    /// [`HashTable::lookup`] with the key's hash already computed (the
    /// combining front-end caches hashes across its buffer).
    pub fn lookup_hashed<'g>(
        &self,
        key: &K,
        hash: u64,
        guard: &'g Guard,
    ) -> Option<Shared<'g, Node<K>>> {
        let mut cur = self.stripes[self.index_of(hash)]
            .head
            .load(Ordering::Acquire, guard);
        // SAFETY: hash-chain entries are loaded under `guard`; dead nodes are
        // retired with `defer_destroy`, never freed while pinned.
        while let Some(node) = unsafe { cur.as_ref() } {
            if node.hash == hash && !node.is_dead() && node.key == *key {
                return Some(cur);
            }
            cur = node.chain_next.load(Ordering::Acquire, guard);
        }
        None
    }

    /// Find the live node for `key`, inserting a fresh (unadmitted,
    /// `pending == 0`, `freq == 0`) node if absent.
    ///
    /// The returned node may be tombstoned by a concurrent overwrite at any
    /// moment; callers detect this through the `pending` protocol and retry.
    pub fn lookup_or_insert<'g>(&self, key: K, guard: &'g Guard) -> Shared<'g, Node<K>> {
        self.lookup_or_insert_hashed(key, MulHash::hash(&key), guard)
    }

    /// [`HashTable::lookup_or_insert`] with the key's hash already computed.
    pub fn lookup_or_insert_hashed<'g>(
        &self,
        key: K,
        hash: u64,
        guard: &'g Guard,
    ) -> Shared<'g, Node<K>> {
        // Fast path: lock-free hit.
        if let Some(found) = self.lookup_hashed(&key, hash, guard) {
            return found;
        }
        // Slow path: serialize inserts to this bucket.
        let idx = self.index_of(hash);
        self.tally.lock_acquisitions(1);
        let lock = match self.stripes[idx].lock.try_lock() {
            Some(g) => g,
            None => {
                self.tally.lock_contentions(1);
                self.stripes[idx].lock.lock()
            }
        };
        // Garbage-collect tombstoned entries while we hold the insert lock.
        self.collect_chain(idx, guard);
        // Re-scan: the key may have been inserted while we waited.
        let head = &self.stripes[idx].head;
        let mut cur = head.load(Ordering::Acquire, guard);
        // SAFETY: hash-chain entries are loaded under `guard`; dead nodes are
        // retired with `defer_destroy`, never freed while pinned.
        while let Some(node) = unsafe { cur.as_ref() } {
            if node.hash == hash && !node.is_dead() && node.key == key {
                return cur;
            }
            cur = node.chain_next.load(Ordering::Acquire, guard);
        }
        // Publish a fresh node at the chain head.
        let new = Owned::new(Node::with_hash(key, hash));
        new.chain_next
            .store(head.load(Ordering::Acquire, guard), Ordering::Relaxed);
        let shared = new.into_shared(guard);
        head.store(shared, Ordering::Release);
        drop(lock);
        shared
    }

    /// Non-blocking removal: succeed only when nobody is operating on (or
    /// has logged requests for) the element — the `pending` `0 → TOMB` CAS
    /// of Algorithm 6. On success the node is flagged dead; the chain link
    /// is collected lazily.
    pub fn try_remove(&self, node: &Node<K>) -> bool {
        if node
            .pending
            .compare_exchange(0, TOMB, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            node.dead.store(true, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Unlink dead entries from a chain and retire them. Caller holds the
    /// bucket's insert lock. Walks links only — cached hashes mean no key
    /// is ever rehashed here.
    fn collect_chain(&self, idx: usize, guard: &Guard) {
        let head = &self.stripes[idx].head;
        // Unlink dead prefix.
        loop {
            let first = head.load(Ordering::Acquire, guard);
            // SAFETY: `first` was loaded under `guard`; reclamation of dead
            // nodes is deferred past all pins.
            match unsafe { first.as_ref() } {
                Some(node) if node.is_dead() => {
                    let next = node.chain_next.load(Ordering::Acquire, guard);
                    head.store(next, Ordering::Release);
                    // SAFETY: tombstoned (no new references via pending),
                    // now unlinked from the chain; its bucket-list removal
                    // was completed by the evicting thread inside its own
                    // pinned section. Epoch delays the free past all pins.
                    unsafe { guard.defer_destroy(first) };
                }
                _ => break,
            }
        }
        // Unlink interior dead nodes.
        let mut prev = head.load(Ordering::Acquire, guard);
        // SAFETY: chain entries loaded under `guard`; unlinked nodes are
        // reclaimed only after every pin is released.
        while let Some(prev_node) = unsafe { prev.as_ref() } {
            let cur = prev_node.chain_next.load(Ordering::Acquire, guard);
            // SAFETY: chain entries loaded under `guard`; unlinked nodes are
            // reclaimed only after every pin is released.
            match unsafe { cur.as_ref() } {
                Some(cur_node) if cur_node.is_dead() => {
                    let next = cur_node.chain_next.load(Ordering::Acquire, guard);
                    prev_node.chain_next.store(next, Ordering::Release);
                    // SAFETY: as above.
                    unsafe { guard.defer_destroy(cur) };
                }
                Some(_) => prev = cur,
                None => break,
            }
        }
    }

    /// Run the lazy tombstone collection over *every* chain (each under its
    /// insert lock), as an insertion into each bucket would. After this
    /// pass no dead node is reachable from any chain head; used by the
    /// invariant audit and quiescent teardown.
    pub fn gc_all_chains(&self, guard: &Guard) {
        for idx in 0..self.stripes.len() {
            let _lock = self.stripes[idx].lock.lock();
            self.collect_chain(idx, guard);
        }
    }

    /// Number of tombstoned entries still reachable from a chain head
    /// (diagnostics/tests; zero right after [`HashTable::gc_all_chains`]).
    pub fn dead_reachable(&self, guard: &Guard) -> usize {
        let mut n = 0;
        for stripe in &self.stripes {
            let mut cur = stripe.head.load(Ordering::Acquire, guard);
            // SAFETY: hash-chain entries are loaded under `guard`; dead nodes
            // are retired with `defer_destroy`, never freed while pinned.
            while let Some(node) = unsafe { cur.as_ref() } {
                if node.is_dead() {
                    n += 1;
                }
                cur = node.chain_next.load(Ordering::Acquire, guard);
            }
        }
        n
    }

    /// Number of live entries (O(buckets + entries); diagnostics/tests).
    pub fn live_count(&self, guard: &Guard) -> usize {
        let mut n = 0;
        for stripe in &self.stripes {
            let mut cur = stripe.head.load(Ordering::Acquire, guard);
            // SAFETY: hash-chain entries are loaded under `guard`; dead nodes
            // are retired with `defer_destroy`, never freed while pinned.
            while let Some(node) = unsafe { cur.as_ref() } {
                if !node.is_dead() {
                    n += 1;
                }
                cur = node.chain_next.load(Ordering::Acquire, guard);
            }
        }
        n
    }
}

impl<K> Drop for HashTable<K> {
    fn drop(&mut self) {
        // Exclusive access: reclaim every remaining node directly.
        // SAFETY: `&mut self` proves no concurrent accessors or live pins
        // remain.
        let guard = unsafe { crossbeam::epoch::unprotected() };
        for stripe in &self.stripes {
            let mut cur = stripe.head.load(Ordering::Relaxed, guard);
            while !cur.is_null() {
                // SAFETY: `cur` is non-null and `&mut self` excludes
                // concurrent mutation.
                let next = unsafe { cur.deref() }
                    .chain_next
                    .load(Ordering::Relaxed, guard);
                // SAFETY: `&mut self` means no concurrent accessors remain.
                drop(unsafe { cur.into_owned() });
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::epoch;

    fn table(bits: u32) -> HashTable<u64> {
        HashTable::new(bits, Arc::new(WorkTally::new()))
    }

    #[test]
    fn insert_then_lookup() {
        let t = table(8);
        let guard = epoch::pin();
        let n = t.lookup_or_insert(42, &guard);
        // SAFETY: returned under the live `guard` above; nothing is reclaimed
        // while that pin is held.
        assert_eq!(unsafe { n.deref() }.key, 42);
        let found = t.lookup(&42, &guard).expect("present");
        assert!(found == n, "same node returned");
        assert!(t.lookup(&43, &guard).is_none());
    }

    #[test]
    fn duplicate_insert_returns_existing() {
        let t = table(4);
        let guard = epoch::pin();
        let a = t.lookup_or_insert(7, &guard);
        let b = t.lookup_or_insert(7, &guard);
        assert!(a == b);
        assert_eq!(t.live_count(&guard), 1);
    }

    #[test]
    fn try_remove_only_idle_nodes() {
        let t = table(4);
        let guard = epoch::pin();
        let n = t.lookup_or_insert(5, &guard);
        // SAFETY: returned under the live `guard` above; nothing is reclaimed
        // while that pin is held.
        let node = unsafe { n.deref() };
        // Busy node cannot be removed.
        node.pending.store(2, Ordering::Release);
        assert!(!t.try_remove(node));
        node.pending.store(0, Ordering::Release);
        assert!(t.try_remove(node));
        assert!(node.is_dead());
        // Dead node invisible to lookup; second removal fails (already TOMB).
        assert!(t.lookup(&5, &guard).is_none());
        assert!(!t.try_remove(node));
    }

    #[test]
    fn dead_nodes_are_collected_on_insert() {
        let t = table(0); // single bucket: everything chains together
        let guard = epoch::pin();
        for k in 0..16u64 {
            let n = t.lookup_or_insert(k, &guard);
            // immediately tombstone half of them
            if k % 2 == 0 {
                // SAFETY: returned under the live `guard` above; nothing is
                // reclaimed while that pin is held.
                assert!(t.try_remove(unsafe { n.deref() }));
            }
        }
        assert_eq!(t.live_count(&guard), 8);
        // Next insert GCs the chain under the lock.
        let _ = t.lookup_or_insert(100, &guard);
        assert_eq!(t.live_count(&guard), 9);
        // All live keys still reachable.
        for k in (1..16u64).step_by(2) {
            assert!(t.lookup(&k, &guard).is_some(), "key {k}");
        }
    }

    #[test]
    fn reinsert_after_remove_creates_new_node() {
        let t = table(4);
        let guard = epoch::pin();
        let a = t.lookup_or_insert(9, &guard);
        // SAFETY: returned under the live `guard` above; nothing is reclaimed
        // while that pin is held.
        assert!(t.try_remove(unsafe { a.deref() }));
        let b = t.lookup_or_insert(9, &guard);
        assert!(a != b, "tombstoned node must not be resurrected");
        // SAFETY: returned under the live `guard` above; nothing is reclaimed
        // while that pin is held.
        assert_eq!(unsafe { b.deref() }.freq.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_insert_no_duplicates_no_losses() {
        let t = Arc::new(table(6));
        let threads = 8;
        let keys = 512u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let guard = epoch::pin();
                    for k in 0..keys {
                        let n = t.lookup_or_insert(k, &guard);
                        // SAFETY: returned under the live `guard` above;
                        // nothing is reclaimed while that pin is held.
                        assert_eq!(unsafe { n.deref() }.key, k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let guard = epoch::pin();
        assert_eq!(t.live_count(&guard), keys as usize);
    }

    #[test]
    fn concurrent_remove_insert_churn() {
        // Hammer tombstone + reinsert races on a small key space.
        let t = Arc::new(table(3));
        let handles: Vec<_> = (0..6)
            .map(|tid| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let guard = epoch::pin();
                        let k = (tid as u64 + i) % 16;
                        let n = t.lookup_or_insert(k, &guard);
                        // SAFETY: returned under the live `guard` above;
                        // nothing is reclaimed while that pin is held.
                        let node = unsafe { n.deref() };
                        // Try the overwrite dance: tombstone if idle.
                        if i % 3 == 0 {
                            t.try_remove(node);
                        } else {
                            // Simulate a logged request and its release.
                            // Log an increment and immediately release it;
                            // both live and dying nodes take the same undo.
                            let _r = node.pending.fetch_add(1, Ordering::AcqRel) + 1;
                            node.pending.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Table still structurally sound: lookups terminate, live nodes
        // respond, and inserting every key again yields exactly 16 live.
        let guard = epoch::pin();
        for k in 0..16u64 {
            let _ = t.lookup_or_insert(k, &guard);
        }
        assert_eq!(t.live_count(&guard), 16);
    }
}
