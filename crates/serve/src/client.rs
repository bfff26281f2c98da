//! A blocking client for the framed protocol.
//!
//! The client always speaks JSON for control and query operations. At
//! `HELLO` time it advertises the `"bin"` feature; when the server
//! advertises it back, the bulk operations (`INGEST`, `REPL_BATCH`,
//! `SNAPSHOT_PAGE`) switch to the BIN1 binary encoding automatically
//! (see [`crate::bin1`]). This is the one place the bulk encoding is
//! chosen; [`Client::set_binary`] forces JSON back on for one connection
//! (differential testing). Responses of either encoding are always
//! accepted, so a JSON `Error` answering a binary request never
//! desynchronizes the conversation.

use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

use cots_core::{CotsError, CounterEntry, Result, ServiceReport};

use crate::bin1;
use crate::frame::{read_frame, write_payload, Payload};
use crate::protocol::{
    decode, encode, QueryReq, QueryStamp, ReplFrame, Request, Response, PROTO_VERSION,
};

/// One connection to a `cots-serve` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The server advertised `"bin"` in its `HELLO_ACK`.
    bin_negotiated: bool,
    /// BIN1 is negotiated *and* enabled (see [`Client::set_binary`]).
    bin: bool,
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
            bin_negotiated: false,
            bin: false,
        })
    }

    /// Perform the `HELLO` handshake, returning the server's protocol
    /// version and feature flags. Advertises the `"bin"` feature and
    /// switches the bulk operations to BIN1 when the server advertises
    /// it back.
    pub fn hello(&mut self) -> Result<(u32, Vec<String>)> {
        match self.call(&Request::Hello {
            proto_version: PROTO_VERSION,
            features: vec!["bin".to_string()],
        })? {
            Response::HelloAck {
                proto_version,
                features,
            } => {
                self.bin_negotiated = features.iter().any(|f| f == "bin");
                self.bin = self.bin_negotiated;
                Ok((proto_version, features))
            }
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

    /// Whether the bulk operations currently go out as BIN1.
    pub fn is_binary(&self) -> bool {
        self.bin
    }

    /// Force the wire encoding for bulk operations: `false` always
    /// falls back to JSON; `true` takes effect only if the server
    /// negotiated `"bin"`. Returns the effective state.
    pub fn set_binary(&mut self, on: bool) -> bool {
        self.bin = on && self.bin_negotiated;
        self.bin
    }

    /// Set the read timeout for responses (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Encode `request` for this connection: BIN1 when negotiated and
    /// the operation has a binary form, JSON otherwise.
    pub fn encode_request(&self, request: &Request) -> Payload {
        if self.bin {
            if let Some(bytes) = bin1::encode_request(request) {
                return Payload::Bin(bytes);
            }
        }
        Payload::Json(encode(request))
    }

    /// Encode one `INGEST` for this connection. The BIN1 path goes
    /// straight from the key slice to wire bytes — no `Request` clone —
    /// and either payload can be resent verbatim on `OVERLOADED`.
    pub fn encode_ingest(&self, keys: &[u64]) -> Payload {
        if self.bin {
            Payload::Bin(bin1::encode_ingest(keys))
        } else {
            Payload::Json(encode(&Request::Ingest {
                keys: keys.to_vec(),
            }))
        }
    }

    /// Encode one `REPL_BATCH` of borrowed `(seq, keys)` runs for this
    /// connection. The BIN1 path frames the runs straight from the
    /// caller's buffers; only the JSON form materializes owned frames.
    pub fn encode_repl_batch(&self, lineage: u64, runs: &[(u64, &[u64])]) -> Payload {
        if self.bin {
            Payload::Bin(bin1::encode_repl_batch_runs(lineage, runs))
        } else {
            let batches = runs
                .iter()
                .map(|&(seq, keys)| ReplFrame {
                    seq,
                    keys: keys.to_vec(),
                })
                .collect();
            Payload::Json(encode(&Request::ReplBatch { lineage, batches }))
        }
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
