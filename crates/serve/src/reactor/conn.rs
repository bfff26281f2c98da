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
//! AUDIT: total — enforced by `cargo xtask audit` (lint-totality).

use std::io::{self, Write};
use std::net::TcpStream;

use crate::frame::{FrameAssembler, Payload, MAX_FRAME};
use crate::service::Service;
use crate::session::{self, ConnState};
use crate::shard::ShardSender;

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
        }
    }

    /// The underlying stream (for readiness registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Read everything available (up to the fairness budget), decode
    /// and handle complete frames, and flush responses.
    pub fn drive_readable(&mut self, service: &Service, sender: &mut ShardSender) -> Drive {
        if self.closing {
            return self.flush();
        }
        let mut consumed = 0usize;
        let mut saw_eof = false;
        while consumed < MAX_READ_PER_DRIVE {
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

        // Decode and answer every complete frame buffered so far.
        loop {
            match self.asm.next_frame() {
                Ok(Some(payload)) => {
                    let (response, close) =
                        session::serve_frame(service, &mut self.state, &payload, sender);
                    if !self.queue_payload(&response) {
                        return Drive::Close;
                    }
                    if close {
                        self.closing = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Framing violation: resync is impossible. Answer if
                    // the socket still drains, then close.
                    let _ = self.queue_payload(&session::malformed_frame());
                    self.closing = true;
                    break;
                }
            }
        }

        match self.flush() {
            Drive::Close => Drive::Close,
            _ if saw_eof => Drive::Close,
            _ if budget_spent && !self.closing => Drive::Again,
            d => d,
        }
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
