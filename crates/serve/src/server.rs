//! The TCP front-end: an accept loop feeding the reactor pool.
//!
//! Connections speak the framed protocol of [`crate::frame`] /
//! [`crate::protocol`] under the rules of [`crate::session`]. Sockets
//! are nonblocking and driven by a small fixed pool of
//! readiness-polling reactor threads (epoll on Linux, `poll(2)` on
//! other Unix; see [`crate::reactor`]): N connections cost N buffers,
//! not N threads. Unix is the supported platform — elsewhere
//! [`Server::run`] fails at startup with the poller's error.
//!
//! The acceptor waits on the listener's readiness in a poller of its
//! own, accepts until the backlog is empty, and waits again.
//!
//! Shutdown: a `SHUTDOWN` request flips the service flag. The acceptor
//! (whose wait times out every `WAIT_MS`) stops accepting; reactor threads
//! notice the flag within one poll interval, close their connections,
//! and thereby close their rings; shard workers drain and exit; the
//! server returns.
//!
//! An `accept` that fails for want of descriptors or socket memory is
//! retried, not fatal: the listener is intact and the shortage is
//! something any client can cause (see `is_transient_accept_error`).

use std::io;
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use crate::frame::is_timeout;
use crate::reactor::sys::{Event, Poller};
use crate::reactor::{ReactorPool, WAIT_MS};
use crate::service::{Service, ServiceConfig};

/// How long the acceptor backs off after a transient `accept` failure.
/// The listener stays readable while descriptors are short, so waiting
/// on its readiness there would spin; the backoff stays short because
/// the listen backlog is small (128 by default) and a connect storm that
/// overflows it suffers seconds-long SYN retransmits.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Front-end I/O sizing.
#[derive(Debug, Clone, Copy)]
pub struct IoConfig {
    /// Reactor thread count. Defaults to `available_parallelism`
    /// clamped to `2..=4`: the reactor is I/O-bound bookkeeping (the
    /// shard workers do the heavy lifting), but a *single* reactor
    /// thread serializes every connection's frame handling behind one
    /// scheduler entity, which measurably inflates round-trip latency
    /// even on one core — two threads restore pipelining at negligible
    /// cost.
    pub reactor_threads: usize,
}

impl Default for IoConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            reactor_threads: cores.clamp(2, 4),
        }
    }
}

/// A bound server, ready to run.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    addr: SocketAddr,
    io: IoConfig,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the service behind it, with the default reactor sizing.
    pub fn bind(addr: &str, config: ServiceConfig) -> io::Result<Self> {
        Self::bind_with(addr, config, IoConfig::default())
    }

    /// Bind with an explicit I/O configuration.
    pub fn bind_with(addr: &str, config: ServiceConfig, io: IoConfig) -> io::Result<Self> {
        let service = Service::start(config)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            service: Arc::new(service),
            addr,
            io,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle to the service, e.g. for in-process inspection in tests.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Accept and serve until a `SHUTDOWN` request arrives, then drain
    /// and return. Consumes the server. The acceptor hands streams to
    /// the pool; a fixed number of reactor threads drive all
    /// connections.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        // Read interest only, edge-triggered under epoll: every new
        // connection reports once, and the loop accepts until
        // `WouldBlock` before it waits again.
        let mut listening = Poller::new()?;
        #[cfg(unix)]
        listening.register_read(self.listener.as_raw_fd(), 0)?;
        let mut events: Vec<Event> = Vec::new();
        let mut pool = ReactorPool::spawn(&self.service, self.io.reactor_threads)?;
        let mut fatal = None;
        // One line per burst of transient failures, not one per poll;
        // a burst lasts until the backlog has been accepted empty.
        let mut in_burst = false;
        while !self.service.shutdown_requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => pool.dispatch(stream),
                Err(e) if is_timeout(&e) => {
                    in_burst = false;
                    events.clear();
                    #[cfg(unix)]
                    if let Err(e) = listening.wait(&mut events, WAIT_MS) {
                        self.service.begin_shutdown();
                        fatal = Some(e);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_transient_accept_error(&e) => {
                    if !in_burst {
                        eprintln!("cots-serve: accept failed, still listening: {e}");
                        in_burst = true;
                    }
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
                Err(e) => {
                    // Surface the accept error, but unwind the pool and
                    // service first so shard workers don't leak.
                    self.service.begin_shutdown();
                    fatal = Some(e);
                }
            }
        }
        drop(self.listener);
        // All reactor threads (and their rings) are gone after the
        // join; drain the shard workers and quiesce.
        pool.join();
        self.service.drain();
        fatal.map_or(Ok(()), Err)
    }
}

// The `errno`s below have no stable `io::ErrorKind`.
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;
const ENOBUFS: i32 = if cfg!(target_os = "linux") { 105 } else { 55 };

/// Whether a failed `accept` says "not now" rather than "never": the
/// process or the host is out of descriptors or socket memory, or the
/// peer gave up while it sat in the backlog. Any client can cause all
/// of these by opening sockets, so none of them may stop the server;
/// the listener itself is still good.
pub fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted | io::ErrorKind::OutOfMemory
    ) || matches!(e.raw_os_error(), Some(ENFILE | EMFILE | ENOBUFS))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn resource_exhaustion_on_accept_is_transient_and_the_rest_is_fatal() {
        const ENOMEM: i32 = 12;
        const ECONNABORTED: i32 = if cfg!(target_os = "linux") { 103 } else { 53 };
        for errno in [EMFILE, ENFILE, ENOBUFS, ENOMEM, ECONNABORTED] {
            let e = io::Error::from_raw_os_error(errno);
            assert!(is_transient_accept_error(&e), "errno {errno}: {e}");
        }
        // EBADF, EINVAL: the listener itself is broken.
        for errno in [9, 22] {
            let e = io::Error::from_raw_os_error(errno);
            assert!(!is_transient_accept_error(&e), "errno {errno}: {e}");
        }
    }
}
