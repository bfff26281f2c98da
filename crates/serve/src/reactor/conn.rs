//! Per-connection readiness state machine for the reactor.
//!
//! Each connection owns a nonblocking stream, an incremental
//! [`FrameAssembler`] for partial reads, and a pending write buffer for
//! partial writes. The reactor drives it with two entry points —
//! [`Connection::drive_readable`] and [`Connection::drive_writable`] —
//! and the connection reports back whether it wants to keep living:
//!
//! ```text
//!            ┌──────── readable ─────────┐
//!            ▼                           │
//!   ┌─────────────────┐  frame   ┌───────┴───────┐
//!   │ READING         │ ───────▶ │ RESPONDING    │──┐ wbuf drained
//!   │ bytes → asm     │          │ handle+encode │  │ and !closing
//!   └─────────────────┘ ◀─────── └───────┬───────┘◀─┘
//!        │        ▲        more          │ malformed / Shutdown
//!        │ EOF /  │ input                ▼
//!        │ error  │             ┌─────────────────┐
//!        ▼        │             │ FLUSH-CLOSING   │
//!   ┌──────────┐  │             │ drain wbuf,     │
//!   │ CLOSED   │◀─┴─────────────│ ignore input    │
//!   └──────────┘    wbuf empty  └─────────────────┘
//! ```
//!
//! Every byte that arrives here is attacker-controlled; the machine is
//! total — malformed framing or garbage JSON produce an error response
//! and a graceful close, never a panic — and nothing here blocks: all
//! I/O is nonblocking, `WouldBlock` simply parks the state until the
//! next readiness event.
//!
//! Backpressure is by not reading. An `INGEST` the shard rings have no
//! room for is not answered: the connection *holds* it and reports
//! [`Drive::Parked`], then reads and decodes nothing more — its memory
//! stays one held frame plus at most one drive's read budget — until the
//! reactor resumes it ([`Connection::resume`]) because a shard worker
//! made room. An `IngestAck` still means "enqueued". A frame held for
//! [`HOLD`] is answered `OVERLOADED` after all, so a client behind a
//! stalled disk still backs off and a coordinator still spills.
//!
//! AUDIT: total — enforced by `cargo xtask audit` (lint-totality).

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::frame::{FrameAssembler, Payload, MAX_FRAME};
use crate::protocol::Response;
use crate::service::Service;
use crate::session::{self, ConnState};
use crate::shard::ShardSender;

/// How long an `INGEST` the shard rings have no room for is held before
/// it is answered `OVERLOADED` after all: long enough to ride out a full
/// ring, well under a coordinator's 2 s I/O timeout.
pub const HOLD: Duration = Duration::from_millis(500);

/// Pending-write cap: a peer that stops reading while responses pile up
/// past this bound is dropped instead of buffering without limit. Four
/// maximum-size frames — far beyond anything a working client leaves
/// unread.
const WBUF_CAP: usize = 4 * (MAX_FRAME + 4);

/// Upper bound on bytes read in one `drive_readable` call. A connection
/// that still has input after this much is rescheduled (see
/// [`Drive::Again`]) so one firehose client cannot starve the rest of
/// the reactor's connections.
const MAX_READ_PER_DRIVE: usize = 256 * 1024;

/// What the reactor should do with the connection after a drive call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Keep the connection registered and wait for the next event.
    Continue,
    /// The read budget was exhausted with input still pending; drive
    /// again soon (edge-triggered polling will not re-report it).
    Again,
    /// The connection now holds an `INGEST` the shard rings had no room
    /// for and reads nothing more until [`Connection::resume`]d.
    Parked,
    /// Drop the connection (clean EOF, protocol violation, I/O error,
    /// or a completed shutdown handshake).
    Close,
}

/// One live connection's buffers and flags.
pub struct Connection {
    stream: TcpStream,
    /// Incremental frame assembly over partial reads.
    asm: FrameAssembler,
    /// Encoded responses not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written.
    wpos: usize,
    /// Set after a framing violation or shutdown handshake: stop
    /// consuming input, flush what is queued, then close.
    closing: bool,
    /// Protocol state: `HELLO` handshake progress plus any snapshot
    /// pinned by a paged transfer. Lives here (not with the
    /// `ShardSender`) because one sender is shared by every connection
    /// on a reactor thread.
    state: ConnState,
    /// The `INGEST` the shard rings had no room for; while set, nothing
    /// more is read or decoded.
    held: Option<Held>,
}

/// An `INGEST` frame waiting for ring room.
struct Held {
    payload: Payload,
    /// When the rings first refused it.
    since: Instant,
}

impl Held {
    fn expired(&self, now: Instant) -> bool {
        now.saturating_duration_since(self.since) >= HOLD
    }
}

impl Connection {
    /// Wrap an accepted stream (already set nonblocking by the reactor).
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            asm: FrameAssembler::new(),
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            state: ConnState::new(),
            held: None,
        }
    }

    /// The underlying stream (for readiness registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether the connection holds an `INGEST` (see [`Drive::Parked`]).
    pub fn is_parked(&self) -> bool {
        self.held.is_some()
    }

    /// Whether the connection has held its `INGEST` for [`HOLD`] by `now`.
    pub fn hold_expired(&self, now: Instant) -> bool {
        self.held.as_ref().is_some_and(|h| h.expired(now))
    }

    /// Read everything available (up to the fairness budget), decode
    /// and handle complete frames, and flush responses. A parked
    /// connection only flushes: the reactor resumes it.
    pub fn drive_readable(
        &mut self,
        service: &Service,
        sender: &mut ShardSender,
        now: Instant,
    ) -> Drive {
        if self.closing || self.held.is_some() {
            return self.flush();
        }
        // Frames a hold left buffered go first: reading waits until they
        // are served, so the buffer stays within one drive's budget.
        if !self.serve_buffered(service, sender, now) {
            return Drive::Close;
        }
        let mut consumed = 0usize;
        let mut saw_eof = false;
        while consumed < MAX_READ_PER_DRIVE && self.held.is_none() && !self.closing {
            // Bytes land directly in the assembler's buffer — no
            // intermediate scratch copy on the hot path.
            match self.asm.fill_from(&mut self.stream) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => consumed += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Drive::Close,
            }
        }
        let budget_spent = consumed >= MAX_READ_PER_DRIVE;
        if !self.serve_buffered(service, sender, now) {
            return Drive::Close;
        }

        match self.flush() {
            Drive::Close => Drive::Close,
            // An EOF behind a held frame is read again once resumed.
            _ if self.held.is_some() => Drive::Parked,
            _ if saw_eof => Drive::Close,
            _ if budget_spent && !self.closing => Drive::Again,
            d => d,
        }
    }

    /// Re-drive a parked connection: enqueue its held `INGEST` and go on
    /// as a readable drive, stay [`Drive::Parked`] while the rings are
    /// still full, or answer `OVERLOADED` once the frame has been held for
    /// [`HOLD`].
    pub fn resume(&mut self, service: &Service, sender: &mut ShardSender, now: Instant) -> Drive {
        if let Some(held) = self.held.take() {
            if !self.serve(service, sender, held.payload, held.since, now) {
                return Drive::Close;
            }
            if self.held.is_some() {
                return match self.flush() {
                    Drive::Close => Drive::Close,
                    _ => Drive::Parked,
                };
            }
        }
        self.drive_readable(service, sender, now)
    }

    /// Decode and serve every complete buffered frame, stopping at a held
    /// one or a close; `false` if the connection must close now.
    fn serve_buffered(&mut self, service: &Service, sender: &mut ShardSender, now: Instant) -> bool {
        while self.held.is_none() && !self.closing {
            match self.asm.next_frame() {
                Ok(Some(payload)) => {
                    if !self.serve(service, sender, payload, now, now) {
                        return false;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Framing violation: resync is impossible. Answer if
                    // the socket still drains, then close.
                    let _ = self.queue_payload(&session::malformed_frame());
                    self.closing = true;
                }
            }
        }
        true
    }

    /// Serve one frame and queue its answer; `false` if the connection
    /// must close now. An `INGEST` the rings have no room for is held
    /// instead — `since` is when they first refused it — until it has
    /// waited [`HOLD`]; then it is answered `OVERLOADED`.
    fn serve(
        &mut self,
        service: &Service,
        sender: &mut ShardSender,
        payload: Payload,
        since: Instant,
        now: Instant,
    ) -> bool {
        let reply = session::serve_payload(service, &mut self.state, &payload, sender);
        if matches!(reply.response, Response::Overloaded) {
            let held = Held { payload, since };
            if !held.expired(now) {
                self.held = Some(held);
                return true;
            }
            service.rejected();
        }
        let (response, close) = session::encode_reply(reply);
        if !self.queue_payload(&response) {
            return false;
        }
        self.closing |= close;
        true
    }

    /// The socket became writable again: flush pending responses.
    pub fn drive_writable(&mut self) -> Drive {
        self.flush()
    }

    /// Frame and queue one already-encoded response payload (JSON or
    /// BIN1); `false` if it exceeds the frame cap (which
    /// [`session::serve_frame`] never lets a response do) or the peer
    /// has fallen pathologically behind.
    fn queue_payload(&mut self, payload: &Payload) -> bool {
        let bytes = payload.bytes();
        if bytes.len() > MAX_FRAME {
            return false;
        }
        if self.wbuf.len() - self.wpos + 4 + bytes.len() > WBUF_CAP {
            return false;
        }
        self.wbuf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(bytes);
        true
    }

    /// Write as much of `wbuf` as the socket accepts.
    fn flush(&mut self) -> Drive {
        while self.wpos < self.wbuf.len() {
            let pending = self.wbuf.get(self.wpos..).unwrap_or(&[]);
            match self.stream.write(pending) {
                Ok(0) => return Drive::Close,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Drive::Close,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.closing {
                return Drive::Close;
            }
        }
        Drive::Continue
    }
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    use cots::SnapshotPublisher;

    use super::*;
    use crate::bin1;
    use crate::frame::{encode_payload, read_frame};
    use crate::protocol::{Request, PROTO_VERSION};
    use crate::shard::{Partitioned, Refresher, ShardPool};
    use crate::{Client, ServiceConfig};

    /// A server-side connection and the client end of its socket.
    fn socket_pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        (Connection::new(server), client)
    }

    fn send(client: &mut TcpStream, request: &Request) {
        client
            .write_all(&encode_payload(&bin1::request_payload(request)))
            .unwrap();
    }

    fn recv(client: &mut TcpStream) -> Response {
        let payload = read_frame(client).unwrap().expect("an answer");
        Client::decode_response(&payload).unwrap()
    }

    /// Rings that fill and never drain (no worker yet): the third INGEST
    /// is held, unanswered, while the hold runs, is answered `OVERLOADED`
    /// once it has run out, and was never enqueued — workers started
    /// afterwards count only the two acked frames.
    #[test]
    fn a_frame_held_past_the_hold_is_overloaded_and_never_enqueued() {
        let service = Service::start(ServiceConfig {
            shards: 1,
            ..Default::default()
        })
        .unwrap();
        let pool = ShardPool::new(1, 2);
        let mut sender = pool.connect(None);
        let (mut conn, mut client) = socket_pair();
        send(
            &mut client,
            &Request::Hello {
                proto_version: PROTO_VERSION,
                features: vec![],
            },
        );
        for keys in [vec![1, 2, 3], vec![4], vec![5]] {
            send(&mut client, &Request::Ingest { keys });
        }
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs(5);
        while conn.drive_readable(&service, &mut sender, t0) != Drive::Parked {
            assert!(Instant::now() < deadline, "the third frame was never held");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(conn.is_parked());
        assert!(matches!(recv(&mut client), Response::HelloAck { .. }));
        assert!(matches!(recv(&mut client), Response::IngestAck { enqueued: 3 }));
        assert!(matches!(recv(&mut client), Response::IngestAck { enqueued: 1 }));

        // A readable drive of a parked connection reads nothing.
        send(&mut client, &Request::Stats);
        assert_eq!(conn.drive_readable(&service, &mut sender, t0), Drive::Continue);
        assert_eq!(conn.resume(&service, &mut sender, t0 + HOLD / 2), Drive::Parked);
        assert_eq!(service.stats().rejected_frames, 0, "a held frame is not rejected");

        assert_ne!(conn.resume(&service, &mut sender, t0 + HOLD), Drive::Parked);
        assert!(!conn.is_parked());
        assert!(matches!(recv(&mut client), Response::Overloaded));
        assert!(matches!(recv(&mut client), Response::Stats(_)), "reading resumed");
        assert_eq!(service.stats().rejected_frames, 1);

        let summaries = Arc::new(Partitioned::new(1, 64).unwrap());
        let refresher = Refresher::new(summaries.clone(), Arc::new(SnapshotPublisher::new()), u64::MAX);
        let workers = pool.spawn_workers(&summaries, None, &Arc::new(refresher));
        drop(sender);
        pool.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(summaries.processed(), 4, "only the acked frames were enqueued");
        service.drain();
    }

    /// A frame that was held is enqueued and acked by the resume that
    /// finds room, and the frames buffered behind it follow in order.
    #[test]
    fn a_resumed_frame_is_acked_in_order() {
        let service = Service::start(ServiceConfig {
            shards: 1,
            ..Default::default()
        })
        .unwrap();
        let pool = ShardPool::new(1, 2);
        let mut sender = pool.connect(None);
        let (mut conn, mut client) = socket_pair();
        send(
            &mut client,
            &Request::Hello {
                proto_version: PROTO_VERSION,
                features: vec![],
            },
        );
        for key in 0..4u64 {
            send(&mut client, &Request::Ingest { keys: vec![key] });
        }
        let now = Instant::now();
        let deadline = now + Duration::from_secs(5);
        while conn.drive_readable(&service, &mut sender, now) != Drive::Parked {
            assert!(Instant::now() < deadline, "the third frame was never held");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Room for both held-back frames, one at a time.
        let summaries = Arc::new(Partitioned::new(1, 64).unwrap());
        let refresher = Refresher::new(summaries.clone(), Arc::new(SnapshotPublisher::new()), u64::MAX);
        let workers = pool.spawn_workers(&summaries, None, &Arc::new(refresher));
        while conn.is_parked() {
            assert!(Instant::now() < deadline, "held frames never acked");
            conn.resume(&service, &mut sender, now);
            std::thread::sleep(Duration::from_millis(1));
        }
        let acked: Vec<Response> = (0..5).map(|_| recv(&mut client)).collect();
        assert!(matches!(acked[0], Response::HelloAck { .. }));
        assert!(acked[1..].iter().all(|r| matches!(r, Response::IngestAck { enqueued: 1 })));
        drop(sender);
        pool.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(summaries.processed(), 4);
        service.drain();
    }
}
