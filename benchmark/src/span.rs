//! Client-side spans: one tree per request, kept in memory and written
//! out when the benchmark ends.
//!
//! The spans are recorded from the benchmark's own files, around the
//! calls into `cots_serve::Client`; spans inside the server are a later
//! change. A layer's self time is its span minus the part of that
//! interval its children cover.

use std::time::Instant;

use cots_core::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within one [`SpanLog`]; 0 is "no span".
    pub id: u32,
    /// The span that caused this one (0 for a request's root).
    pub parent: u32,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    /// Layer boundary name (`frame`, `encode`, `wait_ack`, …).
    pub name: &'static str,
    /// Start, nanoseconds after the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the log's origin.
    pub end_ns: u64,
}

/// An in-memory span recorder owned by one thread.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Added to every id so the logs of two threads do not collide.
    id_base: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose ids start above `id_base` and whose clock starts at
    /// `origin`.
    pub fn new(origin: Instant, id_base: u32) -> Self {
        Self {
            origin,
            id_base,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id. Close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let id = self.id_base + self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close the span `id`.
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        let idx = (id - self.id_base - 1) as usize;
        self.spans[idx].end_ns = now;
    }

    /// Record a child span around `f`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Give up the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Run `f` inside a child span when tracing is on, bare when it is off.
pub fn traced<T>(
    log: &mut Option<SpanLog>,
    name: &'static str,
    parent: u32,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        Some(log) => log.child(name, parent, request, f),
        None => f(),
    }
}

/// Self time of the interval `[start, end)`: its length minus the part
/// the `children` intervals cover. Children are clipped to the parent,
/// and where they overlap each other the overlap is subtracted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end.saturating_sub(start)).saturating_sub(covered)
}

/// Durations of every span called `name` whose parent is called
/// `parent`, nanoseconds. (A `frame` and a `query` both have an `encode`
/// and a `send` child.)
pub fn durations(spans: &[Span], parent: &str, name: &str) -> Vec<u64> {
    let parents: std::collections::HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == name && parents.contains(&s.parent))
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

/// Self times of every span called `name`, nanoseconds.
pub fn self_times(spans: &[Span], name: &str) -> Vec<u64> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            self_time(s.start_ns, s.end_ns, kids)
        })
        .collect()
}

/// The span file: every span with its parent and request id.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("id", Json::UInt(s.id as u64)),
                ("parent", Json::UInt(s.parent as u64)),
                ("request", Json::UInt(s.request)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(workload.to_string())),
        ("clock", Json::Str("ns since the traced run began".into())),
        ("spans", Json::Arr(rows)),
    ])
}
