//! One serving session: set-up, the timed window (one ingest thread and
//! one query thread on one connection each), and the post-window check.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cots_core::ServiceReport;
use cots_serve::loadgen::await_quiescence;
use cots_serve::{Client, Payload, QueryReq, QueryStamp, Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::block::{Block, CheckOutcome};
use crate::reduce::Slice;
use crate::schedule::Schedule;
use crate::server::{msg, DataDir, Env, ProcSample, Result, Server};
use crate::span::{traced, Span, SpanLog};
use crate::spec::{self, Ingest, Limits, QueryMix, Workload};

/// Frame shape of the warm-up, whatever the workload: the warm-up only
/// has to get keys applied quickly.
const WARMUP_FRAME_KEYS: usize = 4096;
const WARMUP_IN_FLIGHT: usize = 4;

/// A server with its two client connections and the stream position.
pub struct Session {
    /// The server process.
    pub server: Server,
    /// The ingest thread's connection.
    pub ingest: Client,
    /// The query thread's connection (also used for STATS between
    /// windows).
    pub query: Client,
    /// Keys acked so far: the next frame starts at this position of the
    /// cycled stream, and exact truth is taken over this prefix.
    pub sent: u64,
    /// Keys acked before this server process started (restart cycles);
    /// `STATS` counts applied keys per process.
    pub sent_before_boot: u64,
}

/// When a window ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// After this long (the measured runs).
    After(Duration),
    /// After this many keys (warm-up and the fixed-work traced runs).
    Keys(u64),
}

/// One INGEST frame as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRec {
    /// Final ack, nanoseconds after the window's origin.
    pub done_ns: u64,
    /// Ack minus first send (closed loop) or minus due time (open loop).
    pub latency_ns: u64,
    /// How late the generator sent it (open loop; 0 in a closed loop).
    pub late_ns: u64,
    /// Keys in the frame.
    pub keys: u32,
    /// The server answered `OVERLOADED` at least once before accepting.
    pub rejected: bool,
}

/// One query as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRec {
    /// Answer received, nanoseconds after the window's origin.
    pub done_ns: u64,
    /// Answer minus due time.
    pub latency_ns: u64,
    /// How late the generator sent it.
    pub late_ns: u64,
    /// `QueryStamp.staleness` of the answer.
    pub staleness: u64,
    /// `QueryStamp.epoch` of the answer.
    pub epoch: u64,
    /// Epoch monotone and `captured_total + staleness ≤ keys sent`.
    pub sane: bool,
    /// The server answered with an error or something unexpected.
    pub failed: bool,
}

/// Everything one window recorded.
#[derive(Debug)]
pub struct WindowLog {
    /// Every frame, in completion order.
    pub frames: Vec<FrameRec>,
    /// Every query, in completion order.
    pub queries: Vec<QueryRec>,
    /// Server process samples at the slice edges: `(ns after origin,
    /// sample)`.
    pub edges: Vec<(u64, ProcSample)>,
    /// Origin to the last frame's ack, nanoseconds.
    pub ingest_wall_ns: u64,
    /// Client spans (traced runs only).
    pub spans: Vec<Span>,
}

impl WindowLog {
    /// Operations attempted: frames plus queries.
    pub fn attempted(&self) -> u64 {
        (self.frames.len() + self.queries.len()) as u64
    }

    /// Operations that failed outright. A frame answered with anything
    /// but an ack or `OVERLOADED` aborts the run, so only queries can
    /// fail and leave a window standing.
    pub fn failed(&self) -> u64 {
        self.queries.iter().filter(|q| q.failed).count() as u64
    }

    /// Queries that failed the in-run sanity check.
    pub fn insane(&self) -> u64 {
        self.queries.iter().filter(|q| !q.failed && !q.sane).count() as u64
    }

    /// Keys acked during the window.
    pub fn keys(&self) -> u64 {
        self.frames.iter().map(|f| f.keys as u64).sum()
    }
}

/// A frame that has been sent and not yet acked (closed loop).
struct Pending {
    payload: Payload,
    first_sent: Instant,
    keys: u32,
    rejected: bool,
    request: u64,
    span: u32,
}

fn proto<T>(r: cots_core::Result<T>, what: &str) -> Result<T> {
    r.map_err(msg(what))
}

/// Span names of a request's two receive-side steps (the send side is
/// `send` for both kinds).
struct Steps {
    wait: &'static str,
    decode: &'static str,
}

const FRAME_STEPS: Steps = Steps {
    wait: "wait_ack",
    decode: "decode_ack",
};
const QUERY_STEPS: Steps = Steps {
    wait: "wait",
    decode: "decode",
};

/// One connection with its span log: the calls into `Client`, each
/// inside a span when tracing is on.
struct Wire<'a> {
    client: &'a mut Client,
    log: Option<SpanLog>,
}

impl Wire<'_> {
    /// Open a request's root span (0 when tracing is off).
    fn begin(&mut self, name: &'static str, request: u64) -> u32 {
        self.log.as_mut().map_or(0, |l| l.begin(name, 0, request))
    }

    /// Close a request's root span.
    fn end(&mut self, span: u32) {
        if let Some(l) = self.log.as_mut() {
            l.end(span);
        }
    }

    fn send(&mut self, payload: &Payload, span: u32, request: u64) -> Result<()> {
        let Wire { client, log } = self;
        proto(
            traced(log, "send", span, request, || client.send_payload(payload)),
            "send request",
        )
    }

    /// Wait for the next response in FIFO order and decode it.
    fn recv(&mut self, steps: &Steps, span: u32, request: u64) -> Result<Response> {
        let Wire { client, log } = self;
        let raw = proto(
            traced(log, steps.wait, span, request, || client.recv_payload()),
            "receive response",
        )?;
        proto(
            traced(log, steps.decode, span, request, || {
                Client::decode_response(&raw)
            }),
            "decode response",
        )
    }

    fn into_spans(self) -> Vec<Span> {
        self.log.map(SpanLog::into_spans).unwrap_or_default()
    }
}

/// The ingest side of one window: which keys to send, when to stop,
/// and where the records go.
struct Feed<'a> {
    wire: Wire<'a>,
    block: &'a Block,
    frame_keys: usize,
    start_pos: u64,
    origin: Instant,
    stop: Stop,
    /// Keys sent so far (first sends only), read by the query thread's
    /// sanity check.
    sent: &'a AtomicU64,
    frames: Vec<FrameRec>,
}

impl Feed<'_> {
    /// Encode frame number `request` inside its root span and count its
    /// keys as sent. Encoding is part of the timed loop on purpose.
    fn encode(&mut self, request: u64) -> (u32, Payload, u32) {
        let pos = self.start_pos + request * self.frame_keys as u64;
        let keys = self.block.frame(pos, self.frame_keys);
        let span = self.wire.begin("frame", request);
        let Wire { client, log } = &mut self.wire;
        let payload = traced(log, "encode", span, request, || client.encode_ingest(keys));
        self.sent.fetch_add(keys.len() as u64, Ordering::SeqCst);
        (span, payload, keys.len() as u32)
    }

    /// Whether frame number `request` is still part of this window.
    fn more(&self, request: u64) -> bool {
        match self.stop {
            Stop::After(d) => self.origin.elapsed() < d,
            Stop::Keys(k) => request * (self.frame_keys as u64) < k,
        }
    }

    /// Closed loop: keep `in_flight` frames outstanding; resend a frame
    /// the server rejects after a short pause. Returns once every frame
    /// sent has been acked, so the keys acked are a prefix of the cycled
    /// stream.
    fn closed(&mut self, in_flight: usize) -> Result<()> {
        let mut next = 0u64;
        let mut queue: VecDeque<Pending> = VecDeque::with_capacity(in_flight);
        loop {
            while queue.len() < in_flight && self.more(next) {
                let (span, payload, keys) = self.encode(next);
                let first_sent = Instant::now();
                self.wire.send(&payload, span, next)?;
                queue.push_back(Pending {
                    payload,
                    first_sent,
                    keys,
                    rejected: false,
                    request: next,
                    span,
                });
                next += 1;
            }
            let Some(mut p) = queue.pop_front() else {
                return Ok(());
            };
            match self.wire.recv(&FRAME_STEPS, p.span, p.request)? {
                Response::IngestAck { enqueued } if enqueued == p.keys as u64 => {
                    self.wire.end(p.span);
                    let now = Instant::now();
                    self.frames.push(FrameRec {
                        done_ns: (now - self.origin).as_nanos() as u64,
                        latency_ns: (now - p.first_sent).as_nanos() as u64,
                        late_ns: 0,
                        keys: p.keys,
                        rejected: p.rejected,
                    });
                }
                Response::Overloaded => {
                    p.rejected = true;
                    std::thread::sleep(Duration::from_micros(spec::OVERLOAD_BACKOFF_US));
                    self.wire.send(&p.payload, p.span, p.request)?;
                    queue.push_back(p);
                }
                other => return Err(format!("unexpected INGEST response: {other:?}")),
            }
        }
    }

    /// Open loop: one frame per schedule slot, one at a time on the
    /// connection, each timed from its due instant.
    fn open(&mut self, keys_per_s: f64) -> Result<()> {
        let schedule = Schedule::new(self.origin, keys_per_s / self.frame_keys as f64);
        let frames = match self.stop {
            Stop::After(d) => schedule.due_before(d),
            Stop::Keys(k) => k / self.frame_keys as u64,
        };
        for i in 0..frames {
            let (paced, outcome) = schedule.run(i, || -> Result<(u32, bool)> {
                let (span, payload, keys) = self.encode(i);
                let mut rejected = false;
                loop {
                    self.wire.send(&payload, span, i)?;
                    match self.wire.recv(&FRAME_STEPS, span, i)? {
                        Response::IngestAck { enqueued } if enqueued == keys as u64 => {
                            self.wire.end(span);
                            return Ok((keys, rejected));
                        }
                        Response::Overloaded => {
                            rejected = true;
                            std::thread::sleep(Duration::from_micros(spec::OVERLOAD_BACKOFF_US));
                        }
                        other => return Err(format!("unexpected INGEST response: {other:?}")),
                    }
                }
            });
            let (keys, rejected) = outcome?;
            self.frames.push(FrameRec {
                done_ns: paced.due_ns + paced.latency_ns,
                latency_ns: paced.latency_ns,
                late_ns: paced.late_ns,
                keys,
                rejected,
            });
        }
        Ok(())
    }

    /// Offer the load the way `ingest` says.
    fn run(&mut self, ingest: Ingest) -> Result<()> {
        match ingest {
            Ingest::Closed { in_flight } => self.closed(in_flight),
            Ingest::Open { keys_per_s } => self.open(keys_per_s),
        }
    }
}

/// The query thread: open loop at `wl.query_rate` until the window ends
/// or the ingest thread reports it is done.
#[allow(clippy::too_many_arguments)]
fn query_thread(
    mut wire: Wire<'_>,
    block: &Block,
    wl: &Workload,
    origin: Instant,
    stop: Stop,
    ingest_done: &AtomicBool,
    sent: &AtomicU64,
    seed: u64,
) -> Result<(Vec<QueryRec>, Vec<Span>)> {
    let schedule = Schedule::new(origin, wl.query_rate);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut recs = Vec::new();
    let mut last_epoch = 0u64;
    for i in 0u64.. {
        if ingest_done.load(Ordering::Acquire) {
            break;
        }
        if let Stop::After(d) = stop {
            if schedule.due_ns(i) >= d.as_nanos() as u64 {
                break;
            }
        }
        let point = QueryReq::Point {
            key: block.keys()[rng.gen_range(0..block.len())],
        };
        let q = match wl.mix {
            QueryMix::Alternate if i % 2 == 0 => point,
            QueryMix::Alternate => QueryReq::TopK { k: 100 },
            QueryMix::Mixed => match rng.gen_range(0..10u32) {
                0..=4 => point,
                5..=8 => QueryReq::TopK { k: 100 },
                _ => QueryReq::Frequent {
                    phi: spec::CHECK_PHI,
                },
            },
        };
        let (paced, answer) = schedule.run(i, || -> Result<Option<QueryStamp>> {
            let span = wire.begin("query", i);
            let payload = {
                let Wire { client, log } = &mut wire;
                traced(log, "encode", span, i, || {
                    client.encode_request(&Request::Query(q))
                })
            };
            wire.send(&payload, span, i)?;
            let response = wire.recv(&QUERY_STEPS, span, i)?;
            wire.end(span);
            Ok(match response {
                Response::Answer { stamp, .. } => Some(stamp),
                _ => None,
            })
        });
        let stamp = answer?;
        let sent_now = sent.load(Ordering::SeqCst);
        let s = stamp.unwrap_or_default();
        recs.push(QueryRec {
            done_ns: paced.due_ns + paced.latency_ns,
            latency_ns: paced.latency_ns,
            late_ns: paced.late_ns,
            staleness: s.staleness,
            epoch: s.epoch,
            sane: s.epoch >= last_epoch && s.captured_total + s.staleness <= sent_now,
            failed: stamp.is_none(),
        });
        last_epoch = last_epoch.max(s.epoch);
    }
    Ok((recs, wire.into_spans()))
}

impl Session {
    /// Run one window of `wl` against this session. The calling thread
    /// samples the server process at the `slices` slice edges (a
    /// fixed-work window has one slice); the two load threads are the
    /// only ones that talk to the server.
    pub fn run_window(
        &mut self,
        block: &Block,
        wl: &Workload,
        stop: Stop,
        slices: u32,
        seed: u64,
        trace: bool,
    ) -> Result<WindowLog> {
        let sent = AtomicU64::new(self.sent);
        let ingest_done = AtomicBool::new(false);
        let start_pos = self.sent;
        let origin = Instant::now();
        // Two logs, two id ranges: the threads never share a span id.
        let log = |id_base| trace.then(|| SpanLog::new(origin, id_base));
        let Session {
            server,
            ingest,
            query,
            ..
        } = self;
        let mut feed = Feed {
            wire: Wire {
                client: ingest,
                log: log(0),
            },
            block,
            frame_keys: wl.frame_keys,
            start_pos,
            origin,
            stop,
            sent: &sent,
            frames: Vec::new(),
        };
        let query_wire = Wire {
            client: query,
            log: log(1 << 30),
        };
        let mut edges = vec![(0u64, server.sample().map_err(msg("sample server"))?)];
        let (ingested, queried, sampled) = std::thread::scope(|s| {
            let (sent, ingest_done) = (&sent, &ingest_done);
            let ingest_handle = s.spawn(move || {
                let r = feed.run(wl.ingest);
                ingest_done.store(true, Ordering::Release);
                r.map(|()| (feed.frames, feed.wire.into_spans()))
            });
            let query_handle = s.spawn(move || {
                query_thread(query_wire, block, wl, origin, stop, ingest_done, sent, seed)
            });
            let mut sampled = Ok(());
            if let Stop::After(window) = stop {
                for k in 1..=slices {
                    let edge = window * k / slices;
                    std::thread::sleep(edge.saturating_sub(origin.elapsed()));
                    match server.sample() {
                        Ok(sample) => edges.push((origin.elapsed().as_nanos() as u64, sample)),
                        // A missed edge would merge two slices: fail the
                        // run, once the load threads are joined.
                        Err(e) => sampled = Err(e),
                    }
                }
            }
            (
                ingest_handle.join().expect("ingest thread panicked"),
                query_handle.join().expect("query thread panicked"),
                sampled,
            )
        });
        let (frames, mut spans) = ingested?;
        let (queries, query_spans) = queried?;
        sampled.map_err(msg("sample server at a slice edge"))?;
        if let Stop::Keys(_) = stop {
            edges.push((
                origin.elapsed().as_nanos() as u64,
                server.sample().map_err(msg("sample server"))?,
            ));
        }
        spans.extend(query_spans);
        self.sent = sent.into_inner();
        Ok(WindowLog {
            ingest_wall_ns: frames.last().map_or(0, |f| f.done_ns),
            frames,
            queries,
            edges,
            spans,
        })
    }

    /// Wait until every key acked to this server process is applied and
    /// the published snapshot has caught up; returns the settled STATS.
    pub fn quiesce(&mut self) -> Result<ServiceReport> {
        let target = self.sent - self.sent_before_boot;
        proto(await_quiescence(&mut self.query, target), "quiesce")?;
        proto(self.query.stats(), "STATS")
    }

    /// Quiesce, then check `Frequent(CHECK_PHI)` against exact truth for
    /// exactly the keys acked.
    pub fn check(&mut self, block: &Block) -> Result<CheckOutcome> {
        self.quiesce()?;
        let (entries, total, stamp) = proto(
            self.query.query(QueryReq::Frequent {
                phi: spec::CHECK_PHI,
            }),
            "post-window QUERY",
        )?;
        if stamp.staleness != 0 {
            return Err(format!(
                "post-window answer is stale by {} keys after quiescence",
                stamp.staleness
            ));
        }
        Ok(block.check_frequent(&entries, total, spec::CHECK_PHI, self.sent))
    }

    /// One `TopK(10)` answer checked against `truth` (exact counts of
    /// the frequent keys at this stream position): total exact, not
    /// stale, every entry inside the Space Saving envelope.
    pub fn checked_query(&mut self, block: &Block, truth: &HashMap<u64, u64>) -> Result<()> {
        let (entries, total, stamp) =
            proto(self.query.query(QueryReq::TopK { k: 10 }), "checked QUERY")?;
        if total != self.sent || stamp.staleness != 0 || entries.is_empty() {
            return Err(format!(
                "checked query: total {total} (expected {}), staleness {}, {} entries",
                self.sent,
                stamp.staleness,
                entries.len()
            ));
        }
        for e in &entries {
            let t = match truth.get(&e.item) {
                Some(t) => *t,
                // Not a frequent key: count it the slow way.
                None => block.counts(&[e.item], self.sent)[&e.item],
            };
            if !crate::block::inside_envelope(e, t) {
                return Err(format!(
                    "checked query: key {} count {} error {} but truth {t}",
                    e.item, e.count, e.error
                ));
            }
        }
        Ok(())
    }
}

/// Connect the two client connections to a freshly spawned server.
pub fn connect(server: Server, sent: u64) -> Result<Session> {
    let mut ingest = Client::connect(&server.addr).map_err(msg("connect ingest"))?;
    let query = Client::connect(&server.addr).map_err(msg("connect query"))?;
    if !ingest.set_binary(true) {
        return Err("the server did not negotiate BIN1 at HELLO".into());
    }
    Ok(Session {
        server,
        ingest,
        query,
        sent,
        sent_before_boot: sent,
    })
}

/// Send `keys` warm-up keys through the ingest connection as fast as the
/// closed loop goes, and wait until they are applied.
pub fn warm_up(sess: &mut Session, block: &Block, keys: u64) -> Result<()> {
    let sent = AtomicU64::new(sess.sent);
    Feed {
        wire: Wire {
            client: &mut sess.ingest,
            log: None,
        },
        block,
        frame_keys: WARMUP_FRAME_KEYS,
        start_pos: sess.sent,
        origin: Instant::now(),
        stop: Stop::Keys(keys),
        sent: &sent,
        frames: Vec::new(),
    }
    .closed(WARMUP_IN_FLIGHT)?;
    sess.sent = sent.into_inner();
    sess.quiesce()?;
    Ok(())
}

/// Checkpoint cadence that puts [`spec::CHECKPOINTS_PER_WINDOW`]
/// checkpoints into a window of `window` length.
pub fn checkpoint_ms(window: Duration) -> u64 {
    (window.as_millis() as u64 / spec::CHECKPOINTS_PER_WINDOW).max(1)
}

/// One set-up of a serving workload, timed: spawn → `listening` → HELLO
/// → warm-up keys acked and applied → one checked query. Returns the
/// session and the set-up time in seconds.
pub fn setup(
    env: &Env,
    wl: &Workload,
    block: &Block,
    warm_truth: &HashMap<u64, u64>,
    window: Duration,
) -> Result<(Session, f64)> {
    let started = Instant::now();
    let data = if wl.durable {
        DataDir::Fresh
    } else {
        DataDir::None
    };
    let server = Server::spawn(env, data, checkpoint_ms(window))?;
    let mut sess = connect(server, 0)?;
    warm_up(&mut sess, block, wl.warmup_keys as u64)?;
    sess.checked_query(block, warm_truth)?;
    Ok((sess, started.elapsed().as_secs_f64()))
}

/// Cut a window's log into the slices its edge samples delimit. A frame
/// or query belongs to the slice it completed in; whatever completed
/// after the last edge (the in-flight tail) is charged to the last
/// slice's SLO counts, and its keys to no slice's throughput.
pub fn slices(log: &WindowLog, limits: &Limits) -> Vec<Slice> {
    let n = log.edges.len() - 1;
    let mut out = vec![Slice::default(); n];
    for (k, s) in out.iter_mut().enumerate() {
        let (t0, a) = log.edges[k];
        let (t1, b) = log.edges[k + 1];
        s.secs = (t1 - t0) as f64 / 1e9;
        s.cpu_secs = b.cpu_secs() - a.cpu_secs();
    }
    // `(slice, completed before the last edge)`.
    let slice_of = |done_ns: u64| match (1..=n).find(|k| done_ns < log.edges[*k].0) {
        Some(k) => (k - 1, true),
        None => (n - 1, false),
    };
    for f in &log.frames {
        let (k, inside) = slice_of(f.done_ns);
        let s = &mut out[k];
        if inside {
            s.keys += f.keys as u64;
        }
        s.frames += 1;
        if !f.rejected && f.latency_ns <= limits.ingest_us * 1000 {
            s.frames_ok += 1;
        }
    }
    for q in &log.queries {
        let s = &mut out[slice_of(q.done_ns).0];
        s.queries += 1;
        if q.failed {
            continue;
        }
        s.query_ns.push(q.latency_ns);
        if q.sane && q.latency_ns <= limits.query_us * 1000 && q.staleness <= limits.staleness_keys
        {
            s.queries_ok += 1;
        }
    }
    out
}
