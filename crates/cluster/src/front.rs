//! The coordinator's TCP front-end.
//!
//! Speaks the same framed protocol as `cots-serve` under the same
//! connection rules — handshake, BIN1 admission, snapshot paging, frame
//! cap all come from [`cots_serve::session`], which the coordinator
//! plugs into as an [`Endpoint`] — so every existing client
//! (`cots-load`, [`cots_serve::Client`], the load generator) works
//! against a coordinator unchanged. Blocking thread-per-connection is
//! deliberate: a request here blocks on member round-trips, so it cannot
//! share a reactor thread with other connections, and a coordinator
//! fronts a handful of ingest pipes and dashboards, not the
//! ten-thousand-connection fan-in the member reactor exists for.
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
use std::sync::Arc;
use std::time::Duration;

use cots::publish::StampedSnapshot;
use cots_serve::frame::{is_timeout, read_frame, write_payload};
use cots_serve::session::{self, ConnState, Endpoint};
use cots_serve::{QueryStamp, Request, Response};

use crate::coord::{CoordConfig, Coordinator, Router};

/// Read-poll interval for shutdown checks.
const POLL: Duration = Duration::from_millis(25);
/// Accept-poll interval.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Feature flags the coordinator advertises in `HELLO_ACK`.
const COORD_FEATURES: &[&str] = &["cluster", "snapshot-page", "bin"];

/// A bound coordinator server.
pub struct CoordServer {
    listener: TcpListener,
    coord: Arc<Coordinator>,
    addr: SocketAddr,
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
    /// the pullers and return.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut connections = Vec::new();
        while !self.coord.shutdown_requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let coord = self.coord.clone();
                    connections.push(
                        std::thread::Builder::new()
                            .name("cots-coord-conn".into())
                            .spawn(move || serve_conn(stream, &coord))?,
                    );
                }
                Err(e) if is_timeout(&e) => std::thread::sleep(ACCEPT_POLL),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
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
