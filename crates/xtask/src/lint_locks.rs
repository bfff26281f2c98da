//! The `locks` pass: no blocking I/O and no nested acquisition while a
//! `Mutex`/`RwLock` guard is live.
//!
//! Files opt in with `//! AUDIT: locks` in their leading doc block (the
//! service's hot-path modules: `serve::service`, `serve::persistence`,
//! `serve::shard`). The pass tracks guard liveness lexically:
//!
//! * a guard is **born** at `.lock()`, `.read()`, or `.write()`
//!   (zero-argument forms only — `.read(buf)` is I/O, not `RwLock`);
//!   if the statement binds it (`let g = m.lock();`) it lives until its
//!   enclosing brace scope closes or an explicit `drop(g)`; an unbound
//!   (transient) guard dies at the end of its statement;
//! * while any guard is live, a further acquisition is a `nested-lock`
//!   finding and a blocking call (`sync_all`, `sync_data`, `write_all`,
//!   `flush`, `read_exact`, `read_to_end`, `accept`, `connect`,
//!   `commit`, `sync`, `rename`, `remove_file`, `park`, `park_timeout`,
//!   `sleep`, or a `TcpStream::` call) is a `blocking-under-lock`
//!   finding — a thread that parks or sleeps holding a guard stalls
//!   every thread that needs it until it wakes;
//! * condvar `.wait(..)` is *not* flagged — it releases the mutex it is
//!   handed, which is the whole point.
//!
//! Intentional violations (the WAL writer fsyncs under its own mutex by
//! design) are discharged with an adjacent `// LOCK-OK:` comment stating
//! why the hold is safe — same window mechanics as `// SAFETY:`.
//!
//! Limitations, deliberately accepted for a zero-dependency lexer: the
//! binding must start on the same line as the acquisition, and guards
//! returned from helper functions are not tracked. Both patterns are
//! absent from the annotated modules; keep it that way.

use std::path::{Path, PathBuf};

use crate::lexer::{file_marker, find_word, has_marker_near, lex, test_lines, LexedLine};
use crate::report::Finding;

/// The file-level opt-in marker.
pub const MARKER: &str = "AUDIT: locks";

/// Calls that can block on the OS while a guard is held.
const BLOCKING_CALLS: &[&str] = &[
    "sync_all",
    "sync_data",
    "write_all",
    "flush",
    "read_exact",
    "read_to_end",
    "accept",
    "connect",
    "commit",
    "sync",
    "rename",
    "remove_file",
    "park",
    "park_timeout",
    "sleep",
];

/// Run the locks pass. Returns findings and the number of files that
/// carried the marker.
pub fn pass(root: &Path, files: &[PathBuf]) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut annotated = 0usize;
    for file in files {
        let Ok(source) = std::fs::read_to_string(file) else {
            continue;
        };
        let lines = lex(&source);
        if !file_marker(&lines, MARKER) {
            continue;
        }
        annotated += 1;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .display()
            .to_string();
        findings.extend(scan(&lines, &rel));
    }
    (findings, annotated)
}

/// A live guard.
struct Guard {
    /// Binding name; `None` for a transient (statement-scoped) guard.
    name: Option<String>,
    /// Brace depth at birth — death when the scope closes.
    depth: i64,
    /// 1-based birth line, for diagnostics.
    line: usize,
}

/// What happens at one column of one line.
enum Event {
    /// `.lock()` / `.read()` / `.write()`.
    Acquire,
    /// `drop(name)`.
    Release(String),
    /// A call from [`BLOCKING_CALLS`] or a `TcpStream::` call.
    Blocking(String),
}

/// Scan one annotated file's lexed lines.
fn scan(lines: &[LexedLine], rel: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_test = test_lines(lines);
    let mut depth: i64 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        let mut events = if in_test[i] {
            Vec::new()
        } else {
            events_on(code)
        };
        events.sort_by_key(|(col, _)| *col);
        let mut next_event = 0usize;
        for (col, c) in code.char_indices() {
            while next_event < events.len() && events[next_event].0 == col {
                let (_, event) = &events[next_event];
                next_event += 1;
                match event {
                    Event::Acquire => {
                        if let Some(holder) = guards.last() {
                            if !has_marker_near(lines, i, "LOCK-OK:") {
                                findings.push(Finding {
                                    pass: "locks",
                                    rule: "nested-lock",
                                    file: rel.to_string(),
                                    line: i + 1,
                                    message: format!(
                                        "lock acquired while guard {} (line {}) is \
                                         live; narrow the critical section or \
                                         justify with `// LOCK-OK: <why>`",
                                        describe(holder),
                                        holder.line
                                    ),
                                });
                            }
                        }
                        guards.push(Guard {
                            name: binding_name(&code[..col]),
                            depth,
                            line: i + 1,
                        });
                    }
                    Event::Release(name) => {
                        if let Some(pos) =
                            guards.iter().rposition(|g| g.name.as_deref() == Some(name))
                        {
                            guards.remove(pos);
                        }
                    }
                    Event::Blocking(what) => {
                        if let Some(holder) = guards.last() {
                            if !has_marker_near(lines, i, "LOCK-OK:") {
                                findings.push(Finding {
                                    pass: "locks",
                                    rule: "blocking-under-lock",
                                    file: rel.to_string(),
                                    line: i + 1,
                                    message: format!(
                                        "blocking call `{what}` while guard {} \
                                         (line {}) is live; move the I/O out of \
                                         the critical section or justify with \
                                         `// LOCK-OK: <why>`",
                                        describe(holder),
                                        holder.line
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                ';' => guards.retain(|g| !(g.name.is_none() && g.depth == depth)),
                _ => {}
            }
        }
    }
    findings
}

fn describe(g: &Guard) -> String {
    match &g.name {
        Some(n) => format!("`{n}`"),
        None => "<unbound>".to_string(),
    }
}

/// Extract the (column, event) pairs on one stripped code line.
fn events_on(code: &str) -> Vec<(usize, Event)> {
    let mut events = Vec::new();
    // Acquisitions: `.lock()` always; `.read()`/`.write()` only zero-arg.
    for method in ["lock", "read", "write"] {
        let mut from = 0;
        while let Some(pos) = find_word(code, method, from) {
            from = pos + method.len();
            let is_method = code[..pos].ends_with('.');
            let zero_arg = code[from..]
                .strip_prefix('(')
                .map(|rest| rest.trim_start().starts_with(')'))
                .unwrap_or(false);
            if is_method && (zero_arg || (method == "lock" && code[from..].starts_with('('))) {
                events.push((pos, Event::Acquire));
            }
        }
    }
    // Explicit early release.
    let mut from = 0;
    while let Some(pos) = find_word(code, "drop", from) {
        from = pos + "drop".len();
        if let Some(rest) = code[from..].strip_prefix('(') {
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                events.push((pos, Event::Release(name)));
            }
        }
    }
    // Blocking calls.
    for call in BLOCKING_CALLS {
        let mut from = 0;
        while let Some(pos) = find_word(code, call, from) {
            from = pos + call.len();
            if code[from..].starts_with('(') {
                events.push((pos, Event::Blocking(call.to_string())));
            }
        }
    }
    let mut from = 0;
    while let Some(pos) = find_word(code, "TcpStream", from) {
        from = pos + "TcpStream".len();
        if code[from..].starts_with("::") {
            events.push((pos, Event::Blocking("TcpStream::".to_string())));
        }
    }
    events
}

/// The binding name for an acquisition, if its statement opens with
/// `let [mut] <name> =` on the same line. `let _ = ...` is transient (it
/// drops immediately in Rust, so tracking it as live would be wrong).
fn binding_name(code_before: &str) -> Option<String> {
    let stmt_start = code_before
        .rfind([';', '{', '}'])
        .map(|p| p + 1)
        .unwrap_or(0);
    let stmt = &code_before[stmt_start..];
    let let_pos = find_word(stmt, "let", 0)?;
    let rest = stmt[let_pos + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "_" {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_in(body: &str) -> Vec<(usize, &'static str)> {
        let src = format!("//! Module.\n//! AUDIT: locks\n\n{body}");
        let lines = lex(&src);
        assert!(file_marker(&lines, MARKER));
        scan(&lines, "x.rs")
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn independent_sections_are_fine() {
        let f = findings_in(
            "fn f(&self) {\n    {\n        let g = self.a.lock();\n        *g += 1;\n    }\n    let h = self.b.lock();\n    drop(h);\n    self.file.sync_all();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn nested_lock_is_flagged() {
        let f = findings_in(
            "fn f(&self) {\n    let g = self.a.lock();\n    let h = self.b.lock();\n}\n",
        );
        assert_eq!(f, vec![(6, "nested-lock")]);
    }

    #[test]
    fn blocking_under_guard_is_flagged() {
        let f = findings_in(
            "fn f(&self) {\n    let g = self.a.lock();\n    self.file.sync_all();\n}\n",
        );
        assert_eq!(f, vec![(6, "blocking-under-lock")]);
    }

    #[test]
    fn parking_or_sleeping_under_guard_is_flagged() {
        let f = findings_in(
            "fn f(&self) {\n    let g = self.a.lock();\n    std::thread::park();\n    std::thread::sleep(d);\n    t.unpark();\n}\n",
        );
        assert_eq!(
            f,
            vec![(6, "blocking-under-lock"), (7, "blocking-under-lock")]
        );
    }

    #[test]
    fn transient_guard_chains_flag_their_own_io() {
        // `self.wal.lock().sync()` — the fsync runs with the transient
        // guard live.
        let f = findings_in("fn f(&self) {\n    self.wal.lock().sync();\n}\n");
        assert_eq!(f, vec![(5, "blocking-under-lock")]);
    }

    #[test]
    fn transient_guard_dies_at_statement_end() {
        let f = findings_in(
            "fn f(&self) {\n    self.reg.lock().push(1);\n    self.file.sync_all();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn drop_releases_early() {
        let f = findings_in(
            "fn f(&self) {\n    let g = self.a.lock();\n    drop(g);\n    self.file.sync_all();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scope_exit_releases() {
        let f = findings_in(
            "fn f(&self) {\n    if x {\n        let g = self.a.lock();\n    }\n    self.b.lock();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lock_ok_discharges() {
        let f = findings_in(
            "fn f(&self) {\n    let g = self.a.lock();\n    // LOCK-OK: group-commit by design.\n    self.file.sync_all();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rwlock_read_write_zero_arg_are_acquisitions() {
        let f = findings_in(
            "fn f(&self) {\n    let g = self.map.read();\n    let h = self.map.write();\n}\n",
        );
        assert_eq!(f, vec![(6, "nested-lock")]);
        // But buffered I/O forms are not acquisitions:
        let f2 = findings_in("fn f(&self) {\n    self.sock.read(&mut buf);\n}\n");
        assert!(f2.is_empty(), "{f2:?}");
    }

    #[test]
    fn condvar_wait_is_not_flagged() {
        let f = findings_in(
            "fn f(&self) {\n    let mut g = self.gate.lock();\n    g = self.cv.wait(g);\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = findings_in(
            "#[cfg(test)]\nmod tests {\n    fn t(&self) {\n        let g = a.lock();\n        let h = b.lock();\n    }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn tcp_connect_under_lock_is_flagged() {
        let f = findings_in(
            "fn f(&self) {\n    let g = self.a.lock();\n    let s = TcpStream::connect(addr);\n}\n",
        );
        // Both the TcpStream:: call and `connect(` fire; one finding each.
        assert!(f.iter().all(|(_, r)| *r == "blocking-under-lock"));
        assert!(!f.is_empty());
    }
}
