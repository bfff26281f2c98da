//! Open-loop pacing: requests are due on a fixed schedule that does not
//! slow down when the server does, and every latency is timed from the
//! instant the request was *due*, not from when it was finally sent.
//!
//! One connection sends one request at a time, so a stall delays the
//! requests behind it; because their clocks started at their due times
//! the delay is charged to each of them instead of disappearing into a
//! later send time (coordinated omission).

use std::time::{Duration, Instant};

/// One completed open-loop request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Paced {
    /// When the request was due, nanoseconds after the schedule's start.
    pub due_ns: u64,
    /// How late the generator sent it (oversleep plus waiting behind
    /// earlier requests), nanoseconds.
    pub late_ns: u64,
    /// Completion minus due time, nanoseconds.
    pub latency_ns: u64,
}

/// A fixed-rate schedule starting at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    gap_ns: f64,
}

impl Schedule {
    /// `per_second` requests per second from `start` on.
    pub fn new(start: Instant, per_second: f64) -> Self {
        assert!(per_second > 0.0, "an open loop needs a positive rate");
        Self {
            start,
            gap_ns: 1e9 / per_second,
        }
    }

    /// Offset of request `i`'s due time from the start, nanoseconds.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * self.gap_ns) as u64
    }

    /// Requests due strictly before `elapsed` has passed.
    pub fn due_before(&self, elapsed: Duration) -> u64 {
        (elapsed.as_nanos() as f64 / self.gap_ns).ceil() as u64
    }

    /// Run request `i`: sleep until it is due (never spin — the load
    /// generator shares two cores with the server), call `op`, and time
    /// the completion from the due instant.
    pub fn run<T>(&self, i: u64, op: impl FnOnce() -> T) -> (Paced, T) {
        let due_ns = self.due_ns(i);
        let due = self.start + Duration::from_nanos(due_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late_ns = Instant::now().saturating_duration_since(due).as_nanos() as u64;
        let out = op();
        let latency_ns = Instant::now().saturating_duration_since(due).as_nanos() as u64;
        (
            Paced {
                due_ns,
                late_ns,
                latency_ns,
            },
            out,
        )
    }
}
