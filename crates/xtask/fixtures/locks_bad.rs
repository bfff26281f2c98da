//! Fixture: lock-discipline violations. Each `EXPECT` marker names the
//! finding the analyzer must produce on that exact line — and nothing
//! else in this file may be flagged.
//!
//! AUDIT: locks

/// Nested acquisition while a guard is live.
pub fn nested(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    let g = a.lock();
    let h = b.lock(); //~ EXPECT: locks nested-lock
    *g + *h
}

/// Blocking I/O while a named guard is live.
pub fn blocking(m: &Mutex<File>) {
    let f = m.lock();
    f.sync_all(); //~ EXPECT: locks blocking-under-lock
}

/// A transient guard in a call chain still covers the blocking call.
pub fn transient(m: &Mutex<File>) {
    m.lock().sync_all(); //~ EXPECT: locks blocking-under-lock
}

/// Parking while a guard is live stalls every thread that needs it.
pub fn park_under_lock(m: &Mutex<Vec<u32>>) {
    let inbox = m.lock();
    if inbox.is_empty() {
        std::thread::park(); //~ EXPECT: locks blocking-under-lock
    }
}

/// RwLock read guards count as live locks too.
pub fn read_guard(l: &RwLock<u32>, m: &Mutex<u32>) -> u32 {
    let g = l.read();
    let h = m.lock(); //~ EXPECT: locks nested-lock
    *g + *h
}

/// Dropping the guard before the I/O is clean.
pub fn sequenced(a: &Mutex<u32>, f: &File) {
    let g = a.lock();
    drop(g);
    let _ = f.sync_all();
}

/// A guard confined to an inner scope is dead outside it.
pub fn scoped(a: &Mutex<u32>, f: &File) {
    {
        let _g = a.lock();
    }
    let _ = f.sync_all();
}

/// Justified: the adjacent proof discharges the finding.
pub fn justified(m: &Mutex<File>) {
    let f = m.lock();
    // LOCK-OK: fixture — the hold is bounded and single-purpose.
    f.sync_all();
}
