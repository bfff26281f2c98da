//! An answer too large for one frame is refused before it is built: the
//! thread serving the query allocates well under 1 MiB, however many
//! entries the query names. A counting global allocator measures the
//! serving thread's peak; this binary holds only this test so nothing
//! else allocates on that thread meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use cots_serve::protocol::{encode, QueryReq, Request, Response};
use cots_serve::session::{self, ConnState};
use cots_serve::{Client, Payload, Service, ServiceConfig, MAX_FRAME};

/// Counts the bytes the current thread holds and their peak.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method hands its arguments unchanged to `System`, so
// the contract holds as it does for `System`; the bookkeeping touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `GlobalAlloc::alloc` contract passes on to
    // `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes the current thread allocated at its peak while running `f`,
/// above what it held when `f` started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base).max(0) as usize)
}

#[test]
fn oversize_answers_are_refused_without_building_them() {
    // More entries than the smallest JSON answer fits in one frame.
    let entries = MAX_FRAME / 31 + 10_000;
    let service = Service::start(ServiceConfig {
        shards: 1,
        capacity: entries,
        refresh: Duration::from_millis(5),
        ..Default::default()
    })
    .unwrap();
    let mut sender = service.connect();
    let keys: Vec<u64> = (0..entries as u64).collect();
    for chunk in keys.chunks(4_096) {
        loop {
            let ingest = Request::Ingest {
                keys: chunk.to_vec(),
            };
            match service.handle(ingest, &mut sender) {
                Response::IngestAck { .. } => break,
                Response::Overloaded => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("ingest: {other:?}"),
            }
        }
    }
    drop(keys);
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let stats = service.stats();
        if stats.applied_keys() == entries as u64 && stats.staleness == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "never quiesced");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut conn = ConnState::pre_greeted();
    for q in [
        QueryReq::TopK {
            k: u32::MAX as usize,
        },
        QueryReq::Frequent { phi: 1e-9 },
    ] {
        let frame = Payload::Json(encode(&Request::Query(q.clone())));
        let ((answer, close), peak) =
            peak_during(|| session::serve_frame(&service, &mut conn, &frame, &mut sender));
        assert!(!close, "{q:?}: the connection stays open");
        match Client::decode_response(&answer).unwrap() {
            Response::Error { message } => {
                assert!(message.contains("SNAPSHOT_PAGE"), "{q:?}: {message}");
                assert!(message.contains(&MAX_FRAME.to_string()), "{q:?}: {message}");
            }
            other => panic!("{q:?}: expected a refusal, got {other:?}"),
        }
        assert!(
            peak < 1 << 20,
            "{q:?}: refusing allocated {peak} bytes at its peak"
        );
    }
    drop(sender);
    service.begin_shutdown();
    service.drain();
}
