//! The open-loop scheduler times every request from the instant it was
//! due: a stalled server must inflate the latency of the requests queued
//! behind the stall, not hide it in a later send time.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use cots_benchmark::schedule::{Paced, Schedule};

const STALL: Duration = Duration::from_millis(60);
const STALLED_REQUEST: usize = 5;

/// An echo server that answers every one-byte request at once, except
/// that it sits on request number `STALLED_REQUEST` for `STALL`.
fn fake_server(listener: TcpListener) {
    let (mut conn, _) = listener.accept().expect("accept");
    let mut byte = [0u8; 1];
    let mut seen = 0;
    while conn.read_exact(&mut byte).is_ok() {
        if seen == STALLED_REQUEST {
            std::thread::sleep(STALL);
        }
        conn.write_all(&byte).expect("echo");
        seen += 1;
    }
}

#[test]
fn a_stall_is_charged_to_the_requests_behind_it() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || fake_server(listener));
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");

    // One request per millisecond, one at a time on the connection.
    let schedule = Schedule::new(Instant::now(), 1000.0);
    let recs: Vec<Paced> = (0..200u64)
        .map(|i| {
            schedule
                .run(i, || {
                    let mut byte = [7u8; 1];
                    conn.write_all(&byte).expect("send");
                    conn.read_exact(&mut byte).expect("receive");
                })
                .0
        })
        .collect();
    drop(conn);
    server.join().expect("fake server");

    let ms = |ns: u64| ns as f64 / 1e6;
    // Due times follow the schedule whatever the server does.
    assert_eq!(recs[10].due_ns, 10_000_000);
    assert_eq!(recs[199].due_ns, 199_000_000);
    // The stalled request itself took the whole stall.
    assert!(
        ms(recs[STALLED_REQUEST].latency_ns) >= 55.0,
        "{:?}",
        recs[STALLED_REQUEST]
    );
    // Request 10 was due 5 ms into the stall. Its own round trip was
    // instant once it was sent, but it was sent ~55 ms late, and that
    // wait is in its latency and in the generator lateness.
    assert!(ms(recs[10].latency_ns) >= 45.0, "{:?}", recs[10]);
    assert!(ms(recs[10].late_ns) >= 45.0, "{:?}", recs[10]);
    // Request 30 was due 25 ms into the stall: still charged ~35 ms.
    assert!(ms(recs[30].latency_ns) >= 25.0, "{:?}", recs[30]);
    // Requests before the stall, and those due long after the backlog
    // drained, are fast and on time.
    assert!(ms(recs[2].latency_ns) < 20.0, "{:?}", recs[2]);
    assert!(ms(recs[199].latency_ns) < 20.0, "{:?}", recs[199]);
    assert!(ms(recs[199].late_ns) < 20.0, "{:?}", recs[199]);
    // Latency never undercuts lateness: the clock started at the due time.
    assert!(recs.iter().all(|r| r.latency_ns >= r.late_ns));
}

#[test]
fn the_schedule_counts_the_requests_due_in_a_window() {
    let schedule = Schedule::new(Instant::now(), 3906.25); // 256-key frames at 1 Mkeys/s
    assert_eq!(schedule.due_ns(0), 0);
    assert_eq!(schedule.due_ns(1), 256_000);
    // Requests 0..=3906 are due before one second has passed.
    assert_eq!(schedule.due_before(Duration::from_secs(1)), 3907);
    assert_eq!(schedule.due_before(Duration::ZERO), 0);
}
