//! Span self-time arithmetic: a span's self time is its length minus the
//! part of it its children cover — each covered instant subtracted once.

use std::time::Instant;

use cots_benchmark::span::{durations, self_time, self_times, to_json, Span, SpanLog};

#[test]
fn child_intervals_are_subtracted_once() {
    // Parent [100, 200); children cover [110,130) and [150,160): 30 ns.
    assert_eq!(self_time(100, 200, &[(110, 130), (150, 160)]), 70);
    // No children: all of it is self time.
    assert_eq!(self_time(100, 200, &[]), 100);
    // Children covering everything leave nothing.
    assert_eq!(self_time(100, 200, &[(100, 150), (150, 200)]), 0);
}

#[test]
fn overlapping_children_are_not_double_counted() {
    // [110,150) and [130,170) overlap on [130,150): union is 60 ns.
    assert_eq!(self_time(100, 200, &[(110, 150), (130, 170)]), 40);
    // A child nested inside another adds nothing.
    assert_eq!(self_time(100, 200, &[(110, 170), (120, 130)]), 40);
    // Order of the children does not matter.
    assert_eq!(self_time(100, 200, &[(130, 170), (110, 150)]), 40);
    // Three-way overlap.
    assert_eq!(self_time(0, 100, &[(10, 50), (20, 60), (30, 70)]), 40);
}

#[test]
fn children_are_clipped_to_the_parent() {
    // A child that starts before and one that ends after the parent only
    // count for the part inside it.
    assert_eq!(self_time(100, 200, &[(50, 120), (190, 400)]), 70);
    // A child wholly outside covers nothing; a degenerate one neither.
    assert_eq!(
        self_time(100, 200, &[(10, 20), (300, 400), (150, 150)]),
        100
    );
    // A child that swallows the parent leaves zero, never a negative.
    assert_eq!(self_time(100, 200, &[(0, 1000)]), 0);
}

fn span(
    id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
) -> Span {
    Span {
        id,
        parent,
        request,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_times_follow_the_recorded_tree() {
    let spans = vec![
        // Request 0: frame [0,1000) = encode [0,100) + send [100,150)
        // + wait_ack [600,990) + decode_ack [990,1000); 450 ns in flight.
        span(1, 0, 0, "frame", 0, 1000),
        span(2, 1, 0, "encode", 0, 100),
        span(3, 1, 0, "send", 100, 150),
        span(4, 1, 0, "wait_ack", 600, 990),
        span(5, 1, 0, "decode_ack", 990, 1000),
        // Request 1: a frame resent once, its two sends overlapping nothing.
        span(6, 0, 1, "frame", 200, 700),
        span(7, 6, 1, "send", 200, 250),
        span(8, 6, 1, "send", 400, 450),
        // A query has a `send` child too; it is not a frame's.
        span(9, 0, 2, "query", 300, 500),
        span(10, 9, 2, "send", 300, 320),
    ];
    assert_eq!(self_times(&spans, "frame"), vec![450, 400]);
    assert_eq!(durations(&spans, "frame", "send"), vec![50, 50, 50]);
    assert_eq!(durations(&spans, "query", "send"), vec![20]);
    // Leaves have no children: self time is the whole span.
    assert_eq!(self_times(&spans, "wait_ack"), vec![390]);
    assert!(self_times(&spans, "no_such_span").is_empty());
}

#[test]
fn the_log_shares_a_request_id_and_records_the_parent() {
    let mut log = SpanLog::new(Instant::now(), 1000);
    let frame = log.begin("frame", 0, 42);
    let answer = log.child("encode", frame, 42, || 7);
    let wait = log.begin("wait_ack", frame, 42);
    log.end(wait);
    log.end(frame);
    assert_eq!(answer, 7);

    let spans = log.spans();
    assert_eq!(spans.len(), 3);
    assert!(spans.iter().all(|s| s.request == 42 && s.id > 1000));
    assert_eq!((spans[0].name, spans[0].parent), ("frame", 0));
    assert_eq!((spans[1].name, spans[1].parent), ("encode", frame));
    assert_eq!((spans[2].name, spans[2].parent), ("wait_ack", frame));
    // The frame was opened first and closed last.
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[0].end_ns >= spans[2].end_ns);
    assert!(self_times(spans, "frame")[0] <= spans[0].end_ns - spans[0].start_ns);

    // The span file keeps ids, parents and the request id.
    let file = to_json("ingest_volatile", spans).dump();
    assert!(file.contains("\"workload\":\"ingest_volatile\""));
    assert!(file.contains(&format!("\"parent\":{frame}")));
    assert!(file.contains("\"request\":42"));
}
