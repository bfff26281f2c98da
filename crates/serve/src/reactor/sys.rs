//! The one `unsafe` module of the reactor: raw readiness syscalls, and
//! the priority call the shard workers make when they start.
//!
//! Everything FFI lives here, behind the safe [`Poller`] facade and
//! `lower_thread_priority` — the rest of the reactor (and the rest of
//! the crate) contains no `unsafe` at all, which is enforced by
//! `cargo xtask lint-unsafe` plus review.
//! The declarations link directly against the platform C library that
//! every Rust binary on these targets already links; no new crate is
//! vendored or added.
//!
//! Two backends implement the same interface:
//!
//! * **epoll** (Linux): one `epoll` instance per reactor thread,
//!   edge-triggered (`EPOLLET`) registration with both `IN` and `OUT`
//!   interest. Edge-triggered is what makes tens of thousands of mostly
//!   idle connections cheap: the kernel reports each readiness
//!   *transition* once instead of re-reporting every ready socket on
//!   every wait.
//! * **poll** (portable fallback, any Unix): a level-triggered
//!   `poll(2)` sweep over the registered set. Used on non-Linux Unix
//!   hosts; on Linux only the unit tests below build it, next to epoll,
//!   so both backends run the same cases. O(n) per wait, so it is the
//!   compatibility path, not the scalability path.
//!
//! The connection driver is written to be correct under either
//! semantics: it always reads until `WouldBlock` and always tries to
//! flush pending writes when told the socket is writable, so missing
//! *extra* level-triggered wakeups (epoll) or receiving them (poll)
//! changes performance only.
//!
//! On non-Unix targets a stub backend compiles and reports
//! `Unsupported` at construction; the server then refuses to start
//! with a clear error instead of failing to build.

use std::io;
#[cfg(unix)]
use std::os::unix::io::RawFd;

/// Readiness reported for one registered connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen token the fd was registered under.
    pub token: usize,
    /// Bytes may be readable (or the peer closed — reads then return 0).
    pub readable: bool,
    /// The socket may accept writes again.
    pub writable: bool,
    /// Error/hangup condition; the connection should be driven once more
    /// (the read will surface the exact condition) and then closed.
    pub hangup: bool,
}

/// Which backend a [`Poller`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollerKind {
    /// Linux `epoll`, edge-triggered.
    Epoll,
    /// Portable `poll(2)`, level-triggered.
    Poll,
}

impl std::fmt::Display for PollerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PollerKind::Epoll => write!(f, "epoll"),
            PollerKind::Poll => write!(f, "poll"),
        }
    }
}

/// A readiness poller over raw socket fds.
///
/// The caller keeps owning the sockets; `Poller` never closes them. On
/// the epoll backend the kernel drops a registration automatically when
/// the last descriptor for the socket is closed, and on the poll
/// backend [`Poller::deregister`] removes it from the sweep set — the
/// reactor calls `deregister` before dropping a stream either way.
pub enum Poller {
    /// Linux epoll instance.
    #[cfg(target_os = "linux")]
    Epoll(epoll::EpollPoller),
    /// Portable poll(2) sweep set.
    #[cfg(unix)]
    Poll(poll::PollPoller),
    /// Unsupported platform marker (never constructed; see [`Poller::new`]).
    #[cfg(not(unix))]
    Unsupported,
}

impl Poller {
    /// Open a poller on the best backend for this platform.
    ///
    /// Linux uses epoll; other Unixes use `poll(2)`; elsewhere this
    /// returns `Unsupported` and the server refuses to start.
    #[cfg(target_os = "linux")]
    pub fn new() -> io::Result<Self> {
        Ok(Poller::Epoll(epoll::EpollPoller::new()?))
    }

    /// Open a poller on the portable `poll(2)` backend.
    #[cfg(all(unix, not(target_os = "linux")))]
    pub fn new() -> io::Result<Self> {
        Ok(Poller::Poll(poll::PollPoller::new()))
    }

    /// No readiness backend exists on this platform.
    #[cfg(not(unix))]
    pub fn new() -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "no readiness backend on this platform (cots-serve needs epoll or poll(2))",
        ))
    }

    /// Which backend this poller runs on.
    pub fn kind(&self) -> PollerKind {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => PollerKind::Epoll,
            #[cfg(unix)]
            Poller::Poll(_) => PollerKind::Poll,
            #[cfg(not(unix))]
            Poller::Unsupported => PollerKind::Poll,
        }
    }

    /// Register a socket under `token` with read+write interest.
    #[cfg(unix)]
    pub fn register(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.register(fd, token),
            Poller::Poll(p) => {
                p.register(fd, token);
                Ok(())
            }
        }
    }

    /// Register with *read-only* interest — for wakeup channels, whose
    /// write side is always ready and would otherwise turn every
    /// level-triggered sweep into a busy loop.
    #[cfg(unix)]
    pub fn register_read(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.register_read(fd, token),
            Poller::Poll(p) => {
                p.register_read(fd, token);
                Ok(())
            }
        }
    }

    /// Remove a socket from the interest set. Call before closing it.
    #[cfg(unix)]
    pub fn deregister(&mut self, fd: RawFd) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.deregister(fd),
            Poller::Poll(p) => p.deregister(fd),
        }
    }

    /// Block for up to `timeout_ms` and append readiness to `events`.
    ///
    /// Returns with an empty append on timeout or `EINTR`; the caller's
    /// loop re-checks its shutdown flag either way.
    #[cfg(unix)]
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(events, timeout_ms),
            Poller::Poll(p) => p.wait(events, timeout_ms),
        }
    }
}

/// Lower the calling thread's scheduling priority by `by` nice levels.
///
/// Linux only: there the nice value belongs to the thread, and
/// `setpriority(PRIO_PROCESS, 0, ..)` renices just the caller. POSIX
/// makes it per process, so elsewhere this is a no-op rather than a
/// renice of the whole server. A failure is ignored — raising one's own
/// nice value needs no privilege, and the server must start regardless.
#[cfg(target_os = "linux")]
pub(crate) fn lower_thread_priority(by: i32) {
    use std::os::raw::{c_int, c_uint};

    const PRIO_PROCESS: c_int = 0;
    extern "C" {
        fn getpriority(which: c_int, who: c_uint) -> c_int;
        fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
    }
    // SAFETY: both calls take integers only and touch no memory of ours.
    // With `who` 0 they read and set the calling thread's nice value,
    // which cannot fail with ESRCH; a refused `setpriority` leaves the
    // priority as it was.
    unsafe {
        let nice = getpriority(PRIO_PROCESS, 0);
        let _ = setpriority(PRIO_PROCESS, 0, nice.saturating_add(by));
    }
}

/// No-op off Linux: see the Linux version.
#[cfg(not(target_os = "linux"))]
pub(crate) fn lower_thread_priority(_by: i32) {}

#[cfg(target_os = "linux")]
pub(crate) mod epoll {
    //! The edge-triggered epoll backend.

    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    use super::Event;

    // Stable Linux UAPI constants (include/uapi/linux/eventpoll.h).
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;

    /// `struct epoll_event`. The kernel ABI packs it on x86-64 (the
    /// 12-byte layout every other architecture gets via natural u32
    /// alignment there requires `packed`); other architectures use the
    /// naturally aligned 16-byte layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// Events fetched per `epoll_wait` call.
    const WAIT_BATCH: usize = 1024;

    /// One epoll instance; owns its epoll fd (closed on drop).
    pub struct EpollPoller {
        epfd: RawFd,
        /// Reused kernel-filled buffer for `epoll_wait`.
        buf: Vec<EpollEvent>,
    }

    impl EpollPoller {
        /// Create an epoll instance (close-on-exec).
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes no pointers; it either returns
            // a fresh fd we now own or -1 with errno set.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; WAIT_BATCH],
            })
        }

        /// Register `fd` edge-triggered for read+write+peer-hangup.
        pub fn register(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
            self.add(fd, token, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET)
        }

        /// Register `fd` edge-triggered for read interest only (wakeup
        /// channels).
        pub fn register_read(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
            self.add(fd, token, EPOLLIN | EPOLLET)
        }

        fn add(&mut self, fd: RawFd, token: usize, interest: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest,
                data: token as u64,
            };
            // SAFETY: `self.epfd` is a live epoll fd we own, `fd` is a
            // caller-owned open socket, and `ev` outlives the call (the
            // kernel copies it before returning).
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Drop `fd` from the interest set (no-op if already gone).
        pub fn deregister(&mut self, fd: RawFd) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: same fd validity argument as `register`; DEL
            // ignores the event argument (passed non-null for pre-2.6.9
            // kernel compatibility, per the man page). Failure (ENOENT
            // after the fd was closed elsewhere) is harmless: the
            // registration is gone either way.
            let _ = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// Wait for readiness; appends to `events`.
        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            // SAFETY: `buf` is a live allocation of WAIT_BATCH
            // `EpollEvent`s and we pass exactly that capacity, so the
            // kernel writes only within bounds; `self.epfd` is owned.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // EINTR: treat as an empty wakeup
                }
                return Err(e);
            }
            for raw in self.buf.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct first;
                // field reads copy by value, so alignment is fine.
                let bits = raw.events;
                let token = raw.data as usize;
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: `epfd` was returned by epoll_create1 and is closed
            // exactly once, here.
            let _ = unsafe { close(self.epfd) };
        }
    }
}

#[cfg(unix)]
pub(crate) mod poll {
    //! The portable level-triggered `poll(2)` backend.

    use std::io;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::os::unix::io::RawFd;

    use super::Event;

    // POSIX poll constants (identical across Linux/macOS/BSDs).
    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    /// `struct pollfd`, identical layout on every supported Unix.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Level-triggered sweep over the registered set.
    pub struct PollPoller {
        /// Registered `(fd, token, interest)` triples, swept in order.
        /// Interest matters: a wakeup channel registered with `POLLOUT`
        /// would be permanently ready and turn the sweep into a spin.
        registered: Vec<(RawFd, usize, c_short)>,
        /// Reused pollfd array mirroring `registered`.
        fds: Vec<PollFd>,
    }

    impl PollPoller {
        /// An empty sweep set.
        pub fn new() -> Self {
            Self {
                registered: Vec::new(),
                fds: Vec::new(),
            }
        }

        /// Add `fd` under `token` with read+write interest.
        pub fn register(&mut self, fd: RawFd, token: usize) {
            self.registered.push((fd, token, POLLIN | POLLOUT));
        }

        /// Add `fd` under `token` with read-only interest.
        pub fn register_read(&mut self, fd: RawFd, token: usize) {
            self.registered.push((fd, token, POLLIN));
        }

        /// Remove `fd` from the sweep set.
        pub fn deregister(&mut self, fd: RawFd) {
            self.registered.retain(|&(f, _, _)| f != fd);
        }

        /// Sweep once; appends readiness to `events`.
        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            self.fds.clear();
            self.fds
                .extend(self.registered.iter().map(|&(fd, _, interest)| PollFd {
                    fd,
                    events: interest,
                    revents: 0,
                }));
            if self.fds.is_empty() {
                // Nothing registered: plain sleep keeps the contract
                // (poll(NULL, 0, t) would too, but this avoids the call).
                std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(0) as u64));
                return Ok(());
            }
            // SAFETY: `fds` is a live allocation of exactly `len`
            // `PollFd`s (layout-identical to the C struct) and the
            // kernel only writes the `revents` field of those entries.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (slot, &(_, token, _)) in self.fds.iter().zip(self.registered.iter()) {
                let r = slot.revents;
                if r == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: r & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: r & POLLOUT != 0,
                    hangup: r & (POLLHUP | POLLERR) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn backends() -> Vec<Poller> {
        let mut v = vec![Poller::Poll(poll::PollPoller::new())];
        #[cfg(target_os = "linux")]
        v.push(Poller::Epoll(epoll::EpollPoller::new().unwrap()));
        v
    }

    #[test]
    fn readiness_round_trip_on_every_backend() {
        for mut poller in backends() {
            let (mut a, b) = pair();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 7).unwrap();

            // Freshly registered socket: writable, not readable.
            let mut events = Vec::new();
            poller.wait(&mut events, 100).unwrap();
            assert!(
                events.iter().any(|e| e.token == 7 && e.writable),
                "{}: new socket should report writable",
                poller.kind()
            );
            assert!(events.iter().all(|e| !e.readable));

            // Data arrives: readable edge.
            a.write_all(b"ping").unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, 1000).unwrap();
            assert!(
                events.iter().any(|e| e.token == 7 && e.readable),
                "{}: pending data should report readable",
                poller.kind()
            );
            let mut buf = [0u8; 8];
            let n = (&b).read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"ping");

            // Peer hangup surfaces as readable (read returns 0) and/or hangup.
            drop(a);
            let mut events = Vec::new();
            poller.wait(&mut events, 1000).unwrap();
            assert!(
                events
                    .iter()
                    .any(|e| e.token == 7 && (e.readable || e.hangup)),
                "{}: hangup must wake the connection",
                poller.kind()
            );
            poller.deregister(b.as_raw_fd());
        }
    }

    #[test]
    fn empty_poller_times_out_quietly() {
        for mut poller in backends() {
            let mut events = Vec::new();
            let t0 = std::time::Instant::now();
            poller.wait(&mut events, 20).unwrap();
            assert!(events.is_empty());
            assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        }
    }

    /// The nice value of the calling thread, from `/proc/thread-self/stat`
    /// (field 19; the fields after the parenthesised name start at 3).
    #[cfg(target_os = "linux")]
    fn thread_nice() -> i32 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        let (_, fields) = stat.rsplit_once(')').unwrap();
        fields
            .split_whitespace()
            .nth(19 - 3)
            .unwrap()
            .parse()
            .unwrap()
    }

    /// Only the calling thread is reniced, by exactly the levels asked
    /// (capped at 19, the lowest priority).
    #[cfg(target_os = "linux")]
    #[test]
    fn lower_thread_priority_renices_only_the_caller() {
        let main = thread_nice();
        let (before, after) = std::thread::spawn(|| {
            let before = thread_nice();
            lower_thread_priority(5);
            (before, thread_nice())
        })
        .join()
        .unwrap();
        assert_eq!(after, (before + 5).min(19));
        assert_eq!(
            thread_nice(),
            main,
            "the caller's siblings keep their priority"
        );
    }
}
