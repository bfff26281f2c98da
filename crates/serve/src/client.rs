//! A blocking client for the framed protocol.
//!
//! Every op goes out in the one encoding [`crate::bin1`] assigns it: the
//! bulk operations (`INGEST`, `REPL_BATCH`, `SNAPSHOT_PAGE`) as BIN1,
//! control and query operations as JSON. Responses of either encoding
//! are accepted, so a JSON `Error` answering a BIN1 request never
//! desynchronizes the conversation.

use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

use cots_core::{CotsError, CounterEntry, Result, ServiceReport};

use crate::bin1;
use crate::frame::{read_frame, write_payload, Payload};
use crate::protocol::{decode, QueryReq, QueryStamp, Request, Response, PROTO_VERSION};

/// One connection to a `cots-serve` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:4040`) and complete the
    /// mandatory `HELLO` handshake. A version rejection surfaces as an
    /// [`io::Error`] naming both versions.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let mut client = Self::connect_raw(addr)?;
        client.hello().map_err(io::Error::other)?;
        Ok(client)
    }

    /// Open the TCP connection *without* sending `HELLO` — for tests of
    /// the handshake itself and for legacy-client simulations. Any
    /// operation sent before [`Client::hello`] succeeds is answered
    /// with `UNSUPPORTED_VERSION` and the server closes the connection.
    pub fn connect_raw(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Perform the `HELLO` handshake, returning the server's protocol
    /// version and feature flags. The client asks for no feature.
    pub fn hello(&mut self) -> Result<(u32, Vec<String>)> {
        match self.call(&Request::Hello {
            proto_version: PROTO_VERSION,
            features: Vec::new(),
        })? {
            Response::HelloAck {
                proto_version,
                features,
            } => Ok((proto_version, features)),
            Response::UnsupportedVersion {
                supported,
                requested,
            } => Err(CotsError::Protocol(format!(
                "server rejected protocol version {requested} (it supports up to {supported})"
            ))),
            other => Err(CotsError::Protocol(format!(
                "unexpected handshake response: {other:?}"
            ))),
        }
    }

    /// Does nothing and returns `true`: the bulk operations are always
    /// BIN1. Kept only because the benchmark driver asks for BIN1 this
    /// way; it goes when the driver stops calling it (ROADMAP 2-I).
    pub fn set_binary(&mut self, _on: bool) -> bool {
        true
    }

    /// Set the read timeout for responses (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Encode `request` in its one wire form (see
    /// [`bin1::request_payload`]).
    pub fn encode_request(&self, request: &Request) -> Payload {
        bin1::request_payload(request)
    }

    /// Encode one `INGEST` straight from the key slice to BIN1 bytes — no
    /// `Request` clone. The payload can be resent verbatim on
    /// `OVERLOADED`.
    pub fn encode_ingest(&self, keys: &[u64]) -> Payload {
        Payload::Bin(bin1::encode_ingest(keys))
    }

    /// Encode one `REPL_BATCH` of borrowed `(seq, keys)` runs, framed
    /// straight from the caller's buffers.
    pub fn encode_repl_batch(&self, lineage: u64, runs: &[(u64, &[u64])]) -> Payload {
        Payload::Bin(bin1::encode_repl_batch_runs(lineage, runs))
    }

    /// Send one request without waiting for its response (pipelining).
    pub fn send(&mut self, request: &Request) -> Result<()> {
        let payload = self.encode_request(request);
        self.send_payload(&payload)
    }

    /// Send one already-encoded payload ([`Client::ingest`] resends one
    /// verbatim on `OVERLOADED`; the WAL shipper sends `REPL_BATCH`
    /// frames encoded straight from borrowed buffers).
    pub fn send_payload(&mut self, payload: &Payload) -> Result<()> {
        write_payload(&mut self.writer, payload)?;
        Ok(())
    }

    /// Receive the next raw response payload in FIFO order.
    pub fn recv_payload(&mut self) -> Result<Payload> {
        match read_frame(&mut self.reader)? {
            Some(payload) => Ok(payload),
            None => Err(CotsError::Protocol(
                "connection closed mid-conversation".into(),
            )),
        }
    }

    /// Decode a response payload of either encoding.
    pub fn decode_response(payload: &Payload) -> Result<Response> {
        match payload {
            Payload::Json(text) => decode(text),
            Payload::Bin(bytes) => {
                bin1::decode_response(bytes).map_err(|e| CotsError::Protocol(e.to_string()))
            }
        }
    }

    /// Receive the next response in FIFO order (either encoding).
    pub fn recv(&mut self) -> Result<Response> {
        let payload = self.recv_payload()?;
        Self::decode_response(&payload)
    }

    /// Send a request and wait for its response.
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Ingest a batch, retrying with backoff while the server reports
    /// `OVERLOADED`. Returns the number of retries taken.
    pub fn ingest(&mut self, keys: &[u64]) -> Result<u64> {
        // Encode once, up front; overload retries resend the same
        // buffer without re-encoding.
        let payload = self.encode_ingest(keys);
        let mut retries = 0;
        loop {
            self.send_payload(&payload)?;
            match self.recv()? {
                Response::IngestAck { enqueued } => {
                    if enqueued != keys.len() as u64 {
                        return Err(CotsError::Protocol(format!(
                            "acked {enqueued} of {} keys",
                            keys.len()
                        )));
                    }
                    return Ok(retries);
                }
                Response::Overloaded => {
                    retries += 1;
                    // Linear backoff capped at 5 ms.
                    std::thread::sleep(Duration::from_micros((50 * retries).min(5_000)));
                }
                other => {
                    return Err(CotsError::Protocol(format!(
                        "unexpected ingest response: {other:?}"
                    )))
                }
            }
        }
    }

    /// Service statistics.
    pub fn stats(&mut self) -> Result<ServiceReport> {
        match self.call(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            other => Err(CotsError::Protocol(format!(
                "unexpected stats response: {other:?}"
            ))),
        }
    }

    /// One query, unwrapped to `(entries, total, stamp)`.
    pub fn query(&mut self, q: QueryReq) -> Result<(Vec<CounterEntry<u64>>, u64, QueryStamp)> {
        match self.call(&Request::Query(q))? {
            Response::Answer {
                entries,
                total,
                stamp,
            } => Ok((entries, total, stamp)),
            Response::Error { message } => Err(CotsError::Protocol(message)),
            other => Err(CotsError::Protocol(format!(
                "unexpected query response: {other:?}"
            ))),
        }
    }

    /// Force a durable checkpoint now; returns `(watermark, total,
    /// bytes)` of the committed checkpoint file. Errors if the server
    /// runs without a data directory.
    pub fn checkpoint(&mut self) -> Result<(u64, u64, u64)> {
        match self.call(&Request::Checkpoint)? {
            Response::Checkpointed {
                watermark,
                total,
                bytes,
            } => Ok((watermark, total, bytes)),
            Response::Error { message } => Err(CotsError::Protocol(message)),
            other => Err(CotsError::Protocol(format!(
                "unexpected checkpoint response: {other:?}"
            ))),
        }
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(CotsError::Protocol(format!(
                "unexpected shutdown response: {other:?}"
            ))),
        }
    }
}
