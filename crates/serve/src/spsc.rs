//! A bounded single-producer / single-consumer ring buffer.
//!
//! This is the backpressure primitive of the ingest pipeline: each
//! (connection, shard) pair gets its own ring, so every ring has exactly
//! one producer (the connection thread) and one consumer (the shard
//! worker). Strict SPSC keeps the fast path to two atomic loads and one
//! atomic store per side, with no CAS loops and no locks — the connection
//! thread can never be blocked by a slow shard, only told "full".
//!
//! The ring is all-or-nothing friendly: because the producer is the only
//! thread that ever *adds* items, the free space it observes can only
//! grow, so a capacity check followed by pushes cannot fail spuriously.
//!
//! Closing: dropping the [`Producer`] closes the ring; the consumer
//! drains whatever is left and then sees [`Pop::Closed`]. Dropping the
//! consumer lets remaining items be reclaimed when the last half drops.
//!
//! Waiting for room: a producer that found the ring full can announce it
//! ([`Producer::wait_for_room`]) and stop producing; the consumer asks
//! after each pop whether to wake it ([`Consumer::room_wanted`]), which
//! says yes once [`WAKE_ROOM`] slots are free. The handshake is Dekker's:
//! the producer stores the flag, fences and reads `head`; the consumer
//! stores `head` (the pop), fences and reads the flag. With both fences
//! `SeqCst` at least one side sees the other's store, so either the
//! producer finds the room itself or the consumer sees the announcement.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Free slots (or the whole ring, if smaller) a consumer waits for before
/// it wakes a producer that announced a wait: the producer then refills
/// several slots per wake instead of one.
pub const WAKE_ROOM: usize = 4;

struct Inner<T> {
    /// Power-of-two slot array; slot `i & (cap-1)` holds position `i`.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next position the consumer will read. Monotonically increasing;
    /// written only by the consumer.
    head: AtomicUsize,
    /// Next position the producer will write. Monotonically increasing;
    /// written only by the producer.
    tail: AtomicUsize,
    /// Set when the producer half drops.
    closed: AtomicBool,
    /// Set by a producer that found the ring full and waits for room;
    /// cleared by the consumer that tells it room has returned.
    want_room: AtomicBool,
}

// SAFETY: Inner is shared between exactly one producer and one consumer
// thread. All slot accesses are mediated by the head/tail protocol below
// (a slot is written only while tail reserves it and read only after the
// Release store of tail makes the write visible), so sending the halves
// to other threads is sound whenever T itself can be sent.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: see the Send impl; &Inner only exposes the atomic fields plus
// slot accesses guarded by the SPSC protocol.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Reclaim items that were pushed but never popped. Both halves
        // are gone (we are the last owner), so plain loads suffice.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mask = self.buf.len() - 1;
        for pos in head..tail {
            // SAFETY: positions in [head, tail) were fully written by the
            // producer and not yet consumed, so each slot holds an
            // initialized T that no other code will touch again.
            unsafe { self.buf[pos & mask].get().cast::<T>().drop_in_place() };
        }
    }
}

/// Producer half; dropping it closes the ring.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Cached copy of `head` so the fast path skips the atomic load until
    /// the ring looks full.
    cached_head: usize,
}

/// Consumer half.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Cached copy of `tail`, mirror of `Producer::cached_head`.
    cached_tail: usize,
}

/// Outcome of a [`Consumer::pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item.
    Item(T),
    /// Nothing available right now, but the producer is still alive.
    Empty,
    /// The producer is gone and the ring is drained; no item will ever
    /// arrive again.
    Closed,
}

/// Build a ring with room for `capacity` items (rounded up to a power of
/// two, minimum 2).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(Inner {
        buf,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        want_room: AtomicBool::new(false),
    });
    (
        Producer {
            inner: inner.clone(),
            cached_head: 0,
        },
        Consumer {
            inner,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Slots currently free from the producer's point of view. Because
    /// only this thread pushes, the true free count can only be larger.
    pub fn free(&mut self) -> usize {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        self.cached_head = self.inner.head.load(Ordering::Acquire);
        self.inner.buf.len() - (tail - self.cached_head)
    }

    /// Try to push one item; returns it back if the ring is full.
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        if tail - self.cached_head == self.inner.buf.len() {
            // Looks full through the cache; refresh from the consumer.
            self.cached_head = self.inner.head.load(Ordering::Acquire);
            if tail - self.cached_head == self.inner.buf.len() {
                return Err(item);
            }
        }
        let mask = self.inner.buf.len() - 1;
        // SAFETY: position `tail` is not yet published (tail is stored
        // below) and `tail - head < cap` was just checked, so the slot is
        // vacant and no other thread can access it: the consumer stops at
        // the published tail and we are the only producer.
        unsafe { self.inner.buf[tail & mask].get().cast::<T>().write(item) };
        // Release-publish the write; the consumer's Acquire load of tail
        // makes the slot contents visible.
        self.inner.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Announce that this producer waits for room, then look once more
    /// (the producer's half of the handshake in the module docs). `true`
    /// when the ring has room after all; the announcement then stays set
    /// and costs at most one needless wake. `false` means the consumer
    /// will see the announcement and report it from
    /// [`Consumer::room_wanted`] once room returns.
    pub fn wait_for_room(&mut self) -> bool {
        self.inner.want_room.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        self.free() > 0
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Pop one item, or report empty / closed.
    pub fn pop(&mut self) -> Pop<T> {
        let head = self.inner.head.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = self.inner.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                // Check `closed` *after* the tail re-read: the producer
                // stores tail before its Drop stores closed, so seeing
                // closed here means no more items were (or will be)
                // published past cached_tail.
                if self.inner.closed.load(Ordering::Acquire) {
                    // One final tail re-read closes the race where the
                    // last push lands between our tail load and the
                    // producer's drop.
                    self.cached_tail = self.inner.tail.load(Ordering::Acquire);
                    if head == self.cached_tail {
                        return Pop::Closed;
                    }
                } else {
                    return Pop::Empty;
                }
            }
        }
        let mask = self.inner.buf.len() - 1;
        // SAFETY: `head < cached_tail` and tail was Acquire-loaded, so
        // position `head` was fully written and Release-published by the
        // producer; we are the only consumer, and storing head below is
        // what allows the producer to reuse the slot.
        let item = unsafe { self.inner.buf[head & mask].get().cast::<T>().read() };
        self.inner.head.store(head + 1, Ordering::Release);
        Pop::Item(item)
    }

    /// Items currently queued (racy; for statistics).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Acquire);
        let head = self.inner.head.load(Ordering::Relaxed);
        tail - head
    }

    /// True when no items are queued (racy; for statistics).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether to wake a producer waiting for room, asked after a pop (the
    /// consumer's half of the handshake in the module docs): it announced
    /// the wait and at least `min(WAKE_ROOM, capacity)` slots are free.
    /// Clears the announcement when it says yes, so one wait gets one
    /// wake. A consumer that keeps popping asks again, so a wait that came
    /// too early for this pop's room is answered by a later one.
    pub fn room_wanted(&self) -> bool {
        fence(Ordering::SeqCst);
        if !self.inner.want_room.load(Ordering::Relaxed) {
            return false;
        }
        let cap = self.inner.buf.len();
        cap - self.len() >= WAKE_ROOM.min(cap)
            && self.inner.want_room.swap(false, Ordering::Acquire)
    }

    /// True once the producer half has dropped. Items may still be
    /// queued; [`Consumer::pop`] reports [`Pop::Closed`] only when the
    /// ring is also drained.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let (mut tx, mut rx) = ring::<u32>(4);
        assert_eq!(tx.free(), 4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(99).unwrap_err(), 99, "full ring rejects");
        assert_eq!(tx.free(), 0);
        for i in 0..4 {
            assert_eq!(rx.pop(), Pop::Item(i));
        }
        assert_eq!(rx.pop(), Pop::Empty);
        // Space freed by the consumer becomes visible to the producer.
        assert_eq!(tx.free(), 4);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let (mut tx, mut rx) = ring::<String>(8);
        tx.try_push("a".into()).unwrap();
        tx.try_push("b".into()).unwrap();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.pop(), Pop::Item("a".into()));
        assert_eq!(rx.pop(), Pop::Item("b".into()));
        assert_eq!(rx.pop(), Pop::Closed);
        assert_eq!(rx.pop(), Pop::Closed);
    }

    #[test]
    fn capacity_rounds_up() {
        let (mut tx, _rx) = ring::<u8>(3);
        assert_eq!(tx.free(), 4);
        let (mut tx1, _rx1) = ring::<u8>(0);
        assert_eq!(tx1.free(), 2);
    }

    #[test]
    fn unconsumed_items_are_dropped_with_the_ring() {
        let item = Arc::new(());
        let (mut tx, rx) = ring::<Arc<()>>(4);
        tx.try_push(item.clone()).unwrap();
        tx.try_push(item.clone()).unwrap();
        assert_eq!(Arc::strong_count(&item), 3);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&item), 1, "ring drop reclaimed items");
    }

    /// A full ring's waiting producer is woken once `min(WAKE_ROOM, cap)`
    /// slots are free, not before, and once per announcement.
    #[test]
    fn waiting_producer_is_woken_at_the_threshold() {
        for cap in [2usize, 4, 8, 16] {
            let (mut tx, mut rx) = ring::<usize>(cap);
            for i in 0..cap {
                tx.try_push(i).unwrap();
            }
            assert!(!rx.room_wanted(), "cap {cap}: nobody waits yet");
            assert!(!tx.wait_for_room(), "cap {cap}: the ring is full");
            let threshold = WAKE_ROOM.min(cap);
            for popped in 1..=cap {
                assert_eq!(rx.pop(), Pop::Item(popped - 1));
                let woken = rx.room_wanted();
                assert_eq!(
                    woken,
                    popped == threshold,
                    "cap {cap}: woken after {popped} pops"
                );
            }
            assert!(!rx.room_wanted(), "cap {cap}: one wake per announcement");
            assert_eq!(tx.free(), cap);
        }
    }

    /// A producer whose last look finds room proceeds without a wake; the
    /// announcement it left behind costs at most one.
    #[test]
    fn waiting_producer_that_finds_room_needs_no_wake() {
        let (mut tx, mut rx) = ring::<u8>(8);
        assert!(tx.wait_for_room(), "an empty ring has room");
        tx.try_push(1).unwrap();
        assert_eq!(rx.pop(), Pop::Item(1));
        assert!(rx.room_wanted(), "the stale announcement wakes once");
        assert!(!rx.room_wanted());
    }

    /// A producer parks only on a full ring and a consumer wakes it: the
    /// producer thread never proceeds past a failed push until it was
    /// woken or found room itself, and every item arrives in order.
    #[test]
    fn park_and_wake_across_threads_loses_no_wake() {
        use std::sync::atomic::AtomicBool;
        const N: u64 = 50_000;
        let (mut tx, mut rx) = ring::<u64>(4);
        let woken = Arc::new(AtomicBool::new(false));
        let producer = {
            let woken = woken.clone();
            std::thread::spawn(move || {
                let mut i = 0;
                while i < N {
                    match tx.try_push(i) {
                        Ok(()) => i += 1,
                        Err(_) => {
                            if tx.wait_for_room() {
                                continue;
                            }
                            let deadline =
                                std::time::Instant::now() + std::time::Duration::from_secs(5);
                            while !woken.swap(false, Ordering::Acquire) {
                                assert!(std::time::Instant::now() < deadline, "lost wake at {i}");
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        };
        let mut expected = 0;
        loop {
            match rx.pop() {
                Pop::Item(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                    if rx.room_wanted() {
                        woken.store(true, Ordering::Release);
                    }
                }
                Pop::Empty => std::thread::yield_now(),
                Pop::Closed => break,
            }
        }
        assert_eq!(expected, N);
        producer.join().unwrap();
    }

    #[test]
    fn two_thread_stress_preserves_sequence() {
        let (mut tx, mut rx) = ring::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut i = 0;
            while i < N {
                match tx.try_push(i) {
                    Ok(()) => i += 1,
                    Err(_) => std::hint::spin_loop(),
                }
            }
        });
        let mut expected = 0;
        loop {
            match rx.pop() {
                Pop::Item(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                Pop::Empty => std::hint::spin_loop(),
                Pop::Closed => break,
            }
        }
        assert_eq!(expected, N);
        producer.join().unwrap();
    }
}
