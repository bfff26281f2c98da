//! The event-driven reactor: tens of thousands of connections on a
//! small fixed thread pool.
//!
//! A thread-per-connection server costs one OS thread and one set of shard
//! rings per connection — fine for hundreds of connections, fatal for
//! tens of thousands. The reactor inverts that: a fixed pool of
//! reactor threads each owns one readiness [`Poller`](sys::Poller)
//! (epoll on Linux, `poll(2)` elsewhere), one [`ShardSender`] feeding
//! the per-shard SPSC rings, and a slab of nonblocking
//! [`Connection`](conn::Connection) state machines. N connections cost
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

use std::io;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;

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
            let wake_rx = {
                let (rx, tx) = UnixStream::pair()?;
                rx.set_nonblocking(true)?;
                tx.set_nonblocking(true)?;
                wakers.push(tx);
                rx
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cots-reactor-{r}"))
                    .spawn(move || {
                        #[cfg(unix)]
                        run_reactor(poller, inbox, wake_rx, service);
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

/// One reactor thread: adopt, wait, drive, repeat until shutdown.
#[cfg(unix)]
fn run_reactor(mut poller: Poller, inbox: Arc<Inbox>, wake: UnixStream, service: Arc<Service>) {
    let mut sender: ShardSender = service.connect();
    // The wakeup channel keeps dispatch latency off the wait timeout.
    // If registration fails the reactor still works — adoption just
    // degrades to WAIT_MS-bounded latency.
    let _ = poller.register_read(wake.as_raw_fd(), WAKE_TOKEN);
    // Token-indexed slab: `None` slots are free and recorded in `free`.
    let mut slab: Vec<Option<Connection>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    // Connections whose read budget ran out mid-drive; edge-triggered
    // polling will not re-report them, so we re-drive explicitly.
    let mut again: Vec<usize> = Vec::new();

    loop {
        // Adopt newly accepted streams (lock held only for the take).
        let adopted = std::mem::take(&mut *inbox.streams.lock());
        for stream in adopted {
            if stream.set_nonblocking(true).is_err() {
                continue; // dropped: the peer sees a closed connection
            }
            let _ = stream.set_nodelay(true);
            let token = match free.pop() {
                Some(t) => t,
                None => {
                    slab.push(None);
                    slab.len() - 1
                }
            };
            let fd = stream.as_raw_fd();
            if poller.register(fd, token).is_err() {
                free.push(token);
                continue; // dropped likewise
            }
            if let Some(slot) = slab.get_mut(token) {
                *slot = Some(Connection::new(stream));
            }
        }

        if service.shutdown_requested() {
            break;
        }

        events.clear();
        // Pending re-drives must not wait behind the poll timeout.
        let timeout = if again.is_empty() { WAIT_MS } else { 0 };
        if poller.wait(&mut events, timeout).is_err() {
            break; // poller broken beyond EINTR: drop all connections
        }

        for token in std::mem::take(&mut again) {
            drive(
                &mut poller, &mut slab, &mut free, token, true, false, &service, &mut sender,
                &mut again,
            );
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                drain_wake(&wake);
                continue;
            }
            drive(
                &mut poller,
                &mut slab,
                &mut free,
                ev.token,
                ev.readable || ev.hangup,
                ev.writable,
                &service,
                &mut sender,
                &mut again,
            );
        }
    }

    // Teardown: deregister and drop every connection, then the sender
    // (closing this thread's rings lets the shard workers drain).
    for slot in slab.iter_mut() {
        if let Some(c) = slot.take() {
            poller.deregister(c.stream().as_raw_fd());
        }
    }
    drop(sender);
}

/// Drive one connection for one readiness report and retire it if done.
#[cfg(unix)]
#[allow(clippy::too_many_arguments)] // internal plumbing, not API
fn drive(
    poller: &mut Poller,
    slab: &mut [Option<Connection>],
    free: &mut Vec<usize>,
    token: usize,
    readable: bool,
    writable: bool,
    service: &Service,
    sender: &mut ShardSender,
    again: &mut Vec<usize>,
) {
    let Some(slot) = slab.get_mut(token) else {
        return;
    };
    let Some(c) = slot.as_mut() else {
        return; // already closed earlier in this batch
    };
    let outcome = if readable {
        c.drive_readable(service, sender)
    } else if writable {
        c.drive_writable()
    } else {
        Drive::Continue
    };
    match outcome {
        Drive::Continue => {}
        Drive::Again => again.push(token),
        Drive::Close => {
            if let Some(c) = slot.take() {
                poller.deregister(c.stream().as_raw_fd());
            }
            free.push(token);
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
