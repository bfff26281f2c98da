//! The coordinator's TCP front-end.
//!
//! Speaks the same framed protocol as `cots-serve` under the same
//! connection rules — handshake, BIN1 admission, snapshot paging, frame
//! cap all come from [`crate::session`], which the coordinator
//! plugs into as an [`Endpoint`] — so every existing client
//! ([`crate::Client`], the benchmark driver) works against a
//! coordinator unchanged. Blocking thread-per-connection is
//! deliberate: a request here blocks on member round-trips, so it cannot
//! share a reactor thread with other connections, and a coordinator
//! fronts a handful of ingest pipes and dashboards, not the
//! ten-thousand-connection fan-in the member reactor exists for. The
//! acceptor waits on the listener's readiness, as a member's does.
//!
//! Differences from a member, all answered here:
//! * `INGEST` key-routes to members (with spillover) instead of
//!   enqueuing locally;
//! * `QUERY`/`SNAPSHOT`/`SNAPSHOT_PAGE` serve the *federated* snapshot
//!   with cluster-wide staleness;
//! * `CLUSTER_STATS` reports the per-member breakdown;
//! * `CHECKPOINT` is refused — durable state lives on members.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use cots::publish::StampedSnapshot;

use crate::frame::{is_timeout, read_frame, write_payload};
use crate::reactor::sys::{Event, Poller};
use crate::reactor::WAIT_MS;
use crate::server::is_transient_accept_error;
use crate::session::{self, ConnState, Endpoint};
use crate::{QueryStamp, Request, Response};

use super::coord::{CoordConfig, Coordinator, Router};

/// Read-poll interval for shutdown checks.
const POLL: Duration = Duration::from_millis(25);
/// How long the acceptor backs off after a transient `accept` failure
/// (the listener stays readable then, so waiting on it would spin).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Feature flags the coordinator advertises in `HELLO_ACK`.
const COORD_FEATURES: &[&str] = &["cluster", "snapshot-page", "bin"];

/// A bound coordinator server.
pub struct CoordServer {
    listener: TcpListener,
    coord: Arc<Coordinator>,
    addr: SocketAddr,
    /// Connection handles the accept loop held on its last pass.
    #[cfg(test)]
    tracked: Arc<std::sync::atomic::AtomicUsize>,
}

impl CoordServer {
    /// Start the coordinator (pullers and all) and bind the listener.
    pub fn bind(addr: &str, config: CoordConfig) -> io::Result<Self> {
        let coord = Coordinator::start(config)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            coord,
            addr,
            #[cfg(test)]
            tracked: Arc::default(),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator, e.g. for in-process inspection in tests.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coord
    }

    /// Accept and serve until a `SHUTDOWN` request arrives, then join
    /// the pullers and return. Between accepts the loop waits on the
    /// listener's readiness (at most `WAIT_MS`, so shutdown is seen
    /// promptly). An `accept` that fails for want of descriptors or
    /// socket memory is retried, not fatal, exactly as in
    /// [`crate::Server::run`].
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        // Read interest only: a new connection reports once, and the
        // loop accepts until `WouldBlock` before it waits again.
        let mut listening = Poller::new()?;
        #[cfg(unix)]
        listening.register_read(self.listener.as_raw_fd(), 0)?;
        let mut events: Vec<Event> = Vec::new();
        let mut connections = Vec::new();
        // One line per burst of transient failures, not one per poll.
        let mut in_burst = false;
        while !self.coord.shutdown_requested() {
            // Handles of connections that have ended are dropped each
            // pass, so churn cannot grow the list without bound.
            connections.retain(|c: &std::thread::JoinHandle<()>| !c.is_finished());
            #[cfg(test)]
            self.tracked
                .store(connections.len(), std::sync::atomic::Ordering::Relaxed);
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let coord = self.coord.clone();
                    connections.push(
                        std::thread::Builder::new()
                            .name("cots-coord-conn".into())
                            .spawn(move || serve_conn(stream, &coord))?,
                    );
                }
                Err(e) if is_timeout(&e) => {
                    in_burst = false;
                    events.clear();
                    #[cfg(unix)]
                    if let Err(e) = listening.wait(&mut events, WAIT_MS) {
                        self.coord.drain();
                        return Err(e);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_transient_accept_error(&e) => {
                    if !in_burst {
                        eprintln!("cots-coord: accept failed, still listening: {e}");
                        in_burst = true;
                    }
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
                Err(e) => {
                    self.coord.drain();
                    return Err(e);
                }
            }
        }
        drop(self.listener);
        for c in connections {
            let _ = c.join();
        }
        self.coord.drain();
        Ok(())
    }
}

/// Serve one client connection until EOF, violation, or shutdown,
/// then deliver whatever the router still has buffered — a client that
/// drops its socket after a final `INGEST` ack must not strand keys.
fn serve_conn(stream: TcpStream, coord: &Coordinator) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = match stream.try_clone() {
        Ok(s) => io::BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = io::BufWriter::new(stream);
    let mut router = coord.router();
    conn_loop(coord, &mut reader, &mut writer, &mut router);
    let _ = coord.flush(&mut router);
}

/// The blocking read → [`session::serve_frame`] → write loop for one
/// connection.
fn conn_loop(
    coord: &Coordinator,
    reader: &mut io::BufReader<TcpStream>,
    writer: &mut io::BufWriter<TcpStream>,
    router: &mut Router,
) {
    let mut conn = ConnState::new();
    loop {
        let payload = match read_frame(reader) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) if is_timeout(&e) => {
                if coord.shutdown_requested() {
                    return;
                }
                continue;
            }
            Err(_) => {
                let _ = write_payload(writer, &session::malformed_frame());
                return;
            }
        };
        let (response, close) = session::serve_frame(coord, &mut conn, &payload, router);
        if write_payload(writer, &response).is_err() || close {
            return;
        }
    }
}

impl Endpoint for Coordinator {
    type Link = Router;

    fn features(&self) -> &'static [&'static str] {
        COORD_FEATURES
    }

    /// The federated snapshot, behind the same read barrier as
    /// [`Self::dispatch`].
    fn current(&self, router: &mut Router) -> Arc<StampedSnapshot<u64>> {
        let _ = self.flush(router);
        self.published()
    }

    fn stamp(&self, snapshot: &StampedSnapshot<u64>) -> QueryStamp {
        self.stamp_for(snapshot.epoch, snapshot.captured_total)
    }

    fn dispatch(&self, request: Request, router: &mut Router) -> Response {
        if !matches!(request, Request::Ingest { .. }) {
            // Read barrier: anything that is not an INGEST observes (or
            // ends) the stream, so deliver this connection's buffered keys
            // first. A failure is absorbed — those keys stay inside the
            // staleness bound the answer is stamped with.
            let _ = self.flush(router);
        }
        match request {
            Request::Ingest { keys } => self.forward(router, &keys),
            Request::Query(q) => self.answer(q),
            Request::Stats => Response::Stats(self.stats()),
            Request::ClusterStats => Response::ClusterStats(self.cluster_report()),
            Request::Checkpoint => Response::Error {
                message: "coordinator holds no durable state; checkpoint members directly".into(),
            },
            Request::ReplSubscribe { .. }
            | Request::ReplBatch { .. }
            | Request::ReplSnapshot { .. }
            | Request::ReplPromote => Response::Error {
                message: "coordinator is not a replica; REPL ops go to members \
                          (the coordinator promotes standbys itself)"
                    .into(),
            },
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            // The handshake and the snapshot ops never get here: the
            // connection layer answers them before dispatch.
            _ => session::not_dispatched(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use std::sync::atomic::Ordering;

    /// Connection churn must not grow the accept loop's handle list: a
    /// coordinator lives for months, its clients for one request.
    #[test]
    fn connection_churn_leaves_the_handle_list_bounded() {
        // The member is never contacted beyond refused pulls.
        let config = CoordConfig {
            members: vec!["127.0.0.1:1".into()],
            ..CoordConfig::default()
        };
        let server = CoordServer::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();
        let tracked = server.tracked.clone();
        let running = std::thread::spawn(move || server.run());

        // 20 bursts of 100. The accept queue is FIFO, so once the last
        // connection of a burst has been greeted the 99 before it are
        // accepted and the listen backlog (128) never overflows into SYN
        // retransmits.
        for _ in 0..20 {
            let burst: Vec<TcpStream> =
                (0..99).map(|_| TcpStream::connect(addr).unwrap()).collect();
            let last = Client::connect(&addr.to_string()).unwrap();
            drop((burst, last));
        }
        let mut client = Client::connect(&addr.to_string()).unwrap();
        client.stats().expect("a fresh connection is answered");
        let settled = (0..1_000).any(|_| {
            std::thread::sleep(Duration::from_millis(5));
            tracked.load(Ordering::Relaxed) <= 8
        });
        assert!(
            settled,
            "{} handles still tracked after 2000 closed connections",
            tracked.load(Ordering::Relaxed)
        );
        client.shutdown().unwrap();
        running.join().unwrap().unwrap();
    }
}
