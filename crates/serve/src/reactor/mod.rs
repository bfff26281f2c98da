//! The event-driven reactor: tens of thousands of connections on a
//! small fixed thread pool.
//!
//! A thread-per-connection server costs one OS thread and one set of shard
//! rings per connection — fine for hundreds of connections, fatal for
//! tens of thousands. The reactor inverts that: a fixed pool of
//! reactor threads each owns one readiness [`Poller`]
//! (epoll on Linux, `poll(2)` elsewhere), one [`ShardSender`] feeding
//! the per-shard SPSC rings, and a slab of nonblocking
//! [`Connection`] state machines. N connections cost
//! N small buffers, not N threads or N×shards rings.
//!
//! Topology:
//!
//! ```text
//! acceptor ──round robin──▶ inbox[r] ──adopt──▶ reactor thread r
//!                                                │  epoll_wait
//!                                                ▼
//!                                       connection state machines
//!                                                │  one ShardSender
//!                                                ▼
//!                                        per-shard SPSC rings
//! ```
//!
//! The acceptor (the listener loop in [`crate::server`]) hands each
//! accepted stream to the next inbox and writes one byte down that
//! reactor's wakeup channel (a `UnixStream` pair registered read-only
//! in the poller), popping it out of its wait immediately — without
//! this, every connection's first frames would idle for up to one wait
//! timeout before adoption. The reactor adopts new streams at the top
//! of every loop iteration, registers them edge-triggered, and from
//! then on only touches them when the kernel reports readiness. Sharing one `ShardSender` per reactor thread is
//! sound because the SPSC rings require a single producer *thread*,
//! not a single producer connection — all of this reactor's
//! connections enqueue from this thread.
//!
//! Backpressure: when a shard ring is full, the connection whose
//! `INGEST` found it full parks ([`conn::Drive::Parked`]) and joins the
//! reactor's FIFO of parked connections; the reactor keeps serving every
//! other connection. The sender waits on the full rings, and a shard
//! worker that makes room writes one byte down the same wakeup channel.
//! A pass of the loop that finds that byte resumes the parked connections
//! oldest first, before it serves other events; one still parked after
//! [`conn::HOLD`] answers `OVERLOADED`, which the loop's wait timeout
//! ([`WAIT_MS`]) keeps on time.
//!
//! Shutdown: the service flag flips, the reactor notices at its next
//! wakeup (immediate when the acceptor joins the pool — it taps every
//! wakeup channel first), drops every connection and its `ShardSender`
//! — closing the rings — and exits; the shard workers drain and the
//! service quiesces.
//!
//! AUDIT: locks — the inbox mutex is the only lock here and must never
//! wrap I/O; enforced by `cargo xtask audit` (lint-locks).

pub mod conn;
pub mod sys;

#[cfg(unix)]
use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;
#[cfg(unix)]
use std::time::Instant;

use parking_lot::Mutex;

use crate::service::Service;
use crate::shard::ShardSender;
use conn::{Connection, Drive};
use sys::{Event, Poller, PollerKind};

/// How long one `wait` blocks before re-checking shutdown and inboxes
/// (the acceptor's wait on its listener too).
pub const WAIT_MS: i32 = 25;

/// Reserved token for the per-reactor wakeup channel. Never collides
/// with a slab token: the slab would have to hold `usize::MAX + 1`
/// connections first.
const WAKE_TOKEN: usize = usize::MAX;

/// Hand-off queue from the acceptor to one reactor thread.
struct Inbox {
    streams: Mutex<Vec<TcpStream>>,
}

/// A running pool of reactor threads.
pub struct ReactorPool {
    inboxes: Vec<Arc<Inbox>>,
    /// Write ends of each reactor's wakeup channel: one byte here pops
    /// the reactor out of its poll wait so adoption is immediate
    /// instead of costing up to one wait timeout of dead air.
    #[cfg(unix)]
    wakers: Vec<UnixStream>,
    handles: Vec<JoinHandle<()>>,
    backend: PollerKind,
    next: usize,
}

impl ReactorPool {
    /// Spawn `threads` reactor threads over `service`.
    ///
    /// Fails fast if the platform has no readiness backend (see
    /// [`sys::Poller::new`]) or a thread cannot be spawned.
    pub fn spawn(service: &Arc<Service>, threads: usize) -> io::Result<Self> {
        let threads = threads.max(1);
        let mut inboxes = Vec::with_capacity(threads);
        #[cfg(unix)]
        let mut wakers = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        let mut backend = PollerKind::Poll;
        for r in 0..threads {
            // Construct the poller on the caller's thread so setup
            // errors surface from `spawn`, not asynchronously.
            let poller = Poller::new()?;
            backend = poller.kind();
            let inbox = Arc::new(Inbox {
                streams: Mutex::new(Vec::new()),
            });
            inboxes.push(inbox.clone());
            let service = service.clone();
            #[cfg(unix)]
            let (wake_rx, room_tx) = {
                let (rx, tx) = UnixStream::pair()?;
                rx.set_nonblocking(true)?;
                tx.set_nonblocking(true)?;
                let room_tx = tx.try_clone()?;
                wakers.push(tx);
                (rx, room_tx)
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cots-reactor-{r}"))
                    .spawn(move || {
                        #[cfg(unix)]
                        run_reactor(poller, inbox, wake_rx, room_tx, service);
                        #[cfg(not(unix))]
                        run_reactor(poller, inbox, service);
                    })
                    .map_err(|e| io::Error::other(format!("spawn reactor: {e}")))?,
            );
        }
        Ok(Self {
            inboxes,
            #[cfg(unix)]
            wakers,
            handles,
            backend,
            next: 0,
        })
    }

    /// The readiness backend the pool runs on.
    pub fn backend(&self) -> PollerKind {
        self.backend
    }

    /// Number of reactor threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Hand an accepted stream to the next reactor (round robin). A
    /// wakeup byte pops that reactor out of its wait, so adoption is
    /// immediate rather than bounded by the wait timeout.
    pub fn dispatch(&mut self, stream: TcpStream) {
        let idx = self.next % self.inboxes.len();
        self.inboxes[idx].streams.lock().push(stream);
        #[cfg(unix)]
        {
            use std::io::Write;
            // WouldBlock means wakeup bytes are already pending — the
            // reactor is guaranteed to wake and sweep its inbox anyway.
            let _ = (&self.wakers[idx]).write(&[1]);
        }
        self.next = self.next.wrapping_add(1);
    }

    /// Wait for every reactor thread to exit (they exit when the
    /// service's shutdown flag flips). Wakes each reactor first so exit
    /// does not wait out a poll timeout.
    pub fn join(self) {
        #[cfg(unix)]
        {
            use std::io::Write;
            for w in &self.wakers {
                let _ = (&*w).write(&[1]);
            }
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// One reactor thread: adopt, wait, resume the parked, drive, repeat
/// until shutdown. `room` is the write end of `wake`, handed to the shard
/// workers to call when a ring this reactor waits on has room.
#[cfg(unix)]
fn run_reactor(
    mut poller: Poller,
    inbox: Arc<Inbox>,
    wake: UnixStream,
    room: UnixStream,
    service: Arc<Service>,
) {
    use std::io::Write;
    // WouldBlock means wakeup bytes are already pending: the reactor
    // wakes anyway.
    let sender = service.connect_woken(Arc::new(move || {
        let _ = (&room).write(&[1]);
    }));
    // The wakeup channel keeps dispatch latency off the wait timeout.
    // If registration fails the reactor still works — adoption and
    // resumes just degrade to WAIT_MS-bounded latency.
    let _ = poller.register_read(wake.as_raw_fd(), WAKE_TOKEN);
    let mut r = Reactor {
        poller,
        service,
        sender,
        slab: Vec::new(),
        free: Vec::new(),
        again: Vec::new(),
        parked: VecDeque::new(),
    };
    let mut events: Vec<Event> = Vec::new();

    loop {
        // Adopt newly accepted streams (lock held only for the take).
        let adopted = std::mem::take(&mut *inbox.streams.lock());
        for stream in adopted {
            r.adopt(stream);
        }

        if r.service.shutdown_requested() {
            break;
        }

        events.clear();
        // Pending re-drives must not wait behind the poll timeout.
        let timeout = if r.again.is_empty() { WAIT_MS } else { 0 };
        if r.poller.wait(&mut events, timeout).is_err() {
            break; // poller broken beyond EINTR: drop all connections
        }

        let now = Instant::now();
        // Drained before anything parks in this pass, so a worker's wake
        // for a park announced below stays in the channel for the next.
        let woken = events.iter().any(|ev| ev.token == WAKE_TOKEN);
        if woken {
            drain_wake(&wake);
        }
        // A wake means some ring has room: every parked connection is
        // retried, oldest first. Without one only a hold that ran out is
        // (to answer it); the rest go back in order.
        for _ in 0..r.parked.len() {
            if let Some(token) = r.parked.pop_front() {
                if woken || r.hold_expired(token, now) {
                    r.drive(token, Step::Resume, now);
                } else {
                    r.parked.push_back(token);
                }
            }
        }
        for token in std::mem::take(&mut r.again) {
            r.drive(token, Step::Read { hangup: false }, now);
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            let step = if ev.readable || ev.hangup {
                Step::Read { hangup: ev.hangup }
            } else if ev.writable {
                Step::Write
            } else {
                continue;
            };
            r.drive(ev.token, step, now);
        }
    }

    // Teardown: deregister and drop every connection, then the sender
    // (closing this thread's rings lets the shard workers drain).
    for slot in r.slab.iter_mut() {
        if let Some(c) = slot.take() {
            r.poller.deregister(c.stream().as_raw_fd());
        }
    }
}

/// What one reactor thread owns.
#[cfg(unix)]
struct Reactor {
    poller: Poller,
    service: Arc<Service>,
    /// The one sender all of this thread's connections enqueue through.
    sender: ShardSender,
    /// Token-indexed slab: `None` slots are free and recorded in `free`.
    slab: Vec<Option<Connection>>,
    free: Vec<usize>,
    /// Connections whose read budget ran out mid-drive; edge-triggered
    /// polling will not re-report them, so we re-drive explicitly.
    again: Vec<usize>,
    /// Parked connections, oldest first, each once.
    parked: VecDeque<usize>,
}

/// Why a connection is driven.
#[cfg(unix)]
#[derive(Clone, Copy)]
enum Step {
    /// Read, on past a short read to the EOF once `hangup` was reported.
    Read {
        hangup: bool,
    },
    Write,
    /// Retry a parked connection's held frame.
    Resume,
}

#[cfg(unix)]
impl Reactor {
    /// Register an accepted stream and give it a slab slot; a stream that
    /// cannot be set up is dropped (the peer sees a closed connection).
    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = match self.free.pop() {
            Some(t) => t,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        if self.poller.register(stream.as_raw_fd(), token).is_err() {
            self.free.push(token);
            return;
        }
        if let Some(slot) = self.slab.get_mut(token) {
            *slot = Some(Connection::new(stream));
        }
    }

    /// Whether the connection at `token` holds a frame past its hold.
    fn hold_expired(&self, token: usize, now: Instant) -> bool {
        self.slab
            .get(token)
            .and_then(Option::as_ref)
            .is_some_and(|c| c.hold_expired(now))
    }

    /// Drive one connection one step and file it by the outcome: re-drive
    /// soon, parked, or retired.
    fn drive(&mut self, token: usize, step: Step, now: Instant) {
        let Some(c) = self.slab.get_mut(token).and_then(Option::as_mut) else {
            return; // already closed earlier in this batch
        };
        if let Step::Read { hangup: true } = step {
            c.hang_up();
        }
        let outcome = match step {
            Step::Read { .. } => c.drive_readable(&self.service, &mut self.sender, now),
            Step::Write => c.drive_writable(),
            Step::Resume => c.resume(&self.service, &mut self.sender, now),
        };
        match outcome {
            Drive::Continue => {}
            Drive::Again => self.again.push(token),
            Drive::Parked => self.parked.push_back(token),
            Drive::Close => {
                if let Some(c) = self.slab.get_mut(token).and_then(Option::take) {
                    if c.is_parked() {
                        self.parked.retain(|&t| t != token);
                    }
                    self.poller.deregister(c.stream().as_raw_fd());
                }
                self.free.push(token);
            }
        }
    }
}

/// Drain all pending wakeup bytes so the channel edge re-arms (and the
/// level-triggered backend stops reporting it).
#[cfg(unix)]
fn drain_wake(wake: &UnixStream) {
    use std::io::Read;
    let mut sink = [0u8; 1024];
    loop {
        match (&*wake).read(&mut sink) {
            Ok(0) => break, // all writers gone: nothing more to drain
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // WouldBlock (drained) or a real error
        }
    }
}

/// Non-Unix stub: the pool cannot be constructed on these platforms
/// (`Poller::new` errors first), so this is unreachable but keeps the
/// crate compiling.
#[cfg(not(unix))]
fn run_reactor(_poller: Poller, _inbox: Arc<Inbox>, _service: Arc<Service>) {}

#[cfg(all(test, unix))]
mod tests {
    use std::io::Write;
    use std::net::{Shutdown, TcpListener};
    use std::time::Duration;

    use super::*;
    use crate::bin1;
    use crate::frame::{encode_payload, read_frame};
    use crate::protocol::{QueryReq, Request, Response, PROTO_VERSION};
    use crate::{Client, ServiceConfig};

    /// A service with one reactor thread, and a client socket that
    /// thread serves.
    fn served() -> (Arc<Service>, ReactorPool, TcpStream) {
        served_after(|_| {})
    }

    /// [`served`], with `before` run on the client before the reactor
    /// adopts the server side.
    fn served_after(before: impl FnOnce(&mut TcpStream)) -> (Arc<Service>, ReactorPool, TcpStream) {
        let service = Arc::new(
            Service::start(ServiceConfig {
                shards: 1,
                ..Default::default()
            })
            .unwrap(),
        );
        let mut pool = ReactorPool::spawn(&service, 1).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let server = listener.accept().unwrap().0;
        before(&mut client);
        pool.dispatch(server);
        (service, pool, client)
    }

    fn stop(service: Arc<Service>, pool: ReactorPool) {
        service.begin_shutdown();
        pool.join();
        service.drain();
    }

    fn frame(request: &Request) -> Vec<u8> {
        encode_payload(&bin1::request_payload(request))
    }

    fn hello() -> Vec<u8> {
        frame(&Request::Hello {
            proto_version: PROTO_VERSION,
            features: vec![],
        })
    }

    fn recv(client: &mut TcpStream) -> Response {
        let payload = read_frame(client).unwrap().expect("an answer");
        Client::decode_response(&payload).unwrap()
    }

    /// Each piece is a short read; the next piece's edge resumes reading.
    #[test]
    fn a_frame_dribbled_in_small_pieces_is_answered() {
        let (service, pool, mut client) = served();
        client.write_all(&hello()).unwrap();
        assert!(matches!(recv(&mut client), Response::HelloAck { .. }));
        for piece in [1, 3] {
            let bytes = frame(&Request::Query(QueryReq::TopK { k: 3 }));
            for chunk in bytes.chunks(piece) {
                client.write_all(chunk).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(
                matches!(recv(&mut client), Response::Answer { .. }),
                "{piece}-byte pieces"
            );
        }
        stop(service, pool);
    }

    #[test]
    fn fifty_frames_in_one_write_are_answered_in_order() {
        let (service, pool, mut client) = served();
        let mut bytes = hello();
        for k in 0..50u64 {
            bytes.extend(frame(&Request::Ingest {
                keys: vec![k; k as usize + 1],
            }));
        }
        client.write_all(&bytes).unwrap();
        assert!(matches!(recv(&mut client), Response::HelloAck { .. }));
        for k in 0..50u64 {
            match recv(&mut client) {
                Response::IngestAck { enqueued } => assert_eq!(enqueued, k + 1),
                other => panic!("frame {k}: {other:?}"),
            }
        }
        stop(service, pool);
    }

    /// An EOF after a short read closes the connection, whether it comes
    /// later, with an edge of its own, or is already behind the frames
    /// when the reactor first looks: then the frames' read is short and
    /// no later edge reports the EOF.
    #[test]
    fn an_eof_behind_a_short_read_closes_the_connection() {
        let (service, pool, mut client) = served();
        client.write_all(&hello()).unwrap();
        assert!(matches!(recv(&mut client), Response::HelloAck { .. }));
        client.write_all(&frame(&Request::Stats)).unwrap();
        assert!(matches!(recv(&mut client), Response::Stats(_)));
        client.shutdown(Shutdown::Write).unwrap();
        assert_eq!(read_frame(&mut client).unwrap(), None, "closed after");
        stop(service, pool);

        let (service, pool, mut client) = served_after(|client| {
            let mut bytes = hello();
            bytes.extend(frame(&Request::Stats));
            client.write_all(&bytes).unwrap();
            client.shutdown(Shutdown::Write).unwrap();
        });
        assert!(matches!(recv(&mut client), Response::HelloAck { .. }));
        assert!(matches!(recv(&mut client), Response::Stats(_)));
        assert_eq!(read_frame(&mut client).unwrap(), None, "closed behind");
        stop(service, pool);
    }
}
