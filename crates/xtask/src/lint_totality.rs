//! The `totality` pass: panic-free decode paths, statically enforced.
//!
//! Modules that promise total decode — every byte sequence yields a value
//! or a typed error, never a panic — opt in with a `//! AUDIT: total`
//! line in their leading doc block. In those files, non-test code may not
//! use panic-capable constructs:
//!
//! * `.unwrap()` / `.expect(..)` (`unwrap_or*` and friends are fine —
//!   identifier boundaries exclude them);
//! * `panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`,
//!   `assert_eq!`, `assert_ne!` (the `debug_assert*` family is allowed:
//!   it compiles out of release builds, which is what ships);
//! * slice/array indexing and index ranges — `buf[i]`, `&buf[4..]`,
//!   `buf[..n]` — the lexical heuristic: a `[` whose previous
//!   non-space character ends a value expression (alphanumeric, `_`,
//!   `)`, `]`, or `?`). Type positions (`: [u8; 4]`, `&[u8]`),
//!   attributes (`#[..]`), and macro brackets (`vec![..]`) all fail
//!   that test and are ignored.
//!
//! Any construct the author can prove safe is discharged with an
//! adjacent `// PANIC-OK:` comment stating the proof — same window
//! mechanics as `// SAFETY:`. Test code (`#[cfg(test)]` regions) is
//! exempt: tests *should* assert.

use std::path::{Path, PathBuf};

use crate::lexer::{file_marker, find_word, has_marker_near, lex, test_lines, LexedLine};
use crate::report::Finding;

/// The file-level opt-in marker.
pub const MARKER: &str = "AUDIT: total";

/// Macros that abort the thread when reached.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Run the totality pass. Returns findings and the number of files that
/// carried the marker (for the report header).
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

/// Scan one annotated file's lexed lines.
fn scan(lines: &[LexedLine], rel: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_test = test_lines(lines);
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let code = &line.code;
        let mut flag = |rule: &'static str, what: &str| {
            if !has_marker_near(lines, i, "PANIC-OK:") {
                findings.push(Finding {
                    pass: "totality",
                    rule,
                    file: rel.to_string(),
                    line: i + 1,
                    message: format!(
                        "{what} in a total-decode module; return an error or \
                         justify with `// PANIC-OK: <proof it cannot fire>`"
                    ),
                });
            }
        };
        for method in ["unwrap", "expect"] {
            let mut from = 0;
            while let Some(pos) = find_word(code, method, from) {
                from = pos + method.len();
                // Only the panicking *method* forms: `.unwrap()` / `.expect(`.
                let is_call = code[from..].trim_start().starts_with('(');
                let is_method = code[..pos].trim_end().ends_with('.');
                if is_call && is_method {
                    let rule = if method == "unwrap" {
                        "unwrap"
                    } else {
                        "expect"
                    };
                    flag(rule, &format!("`.{method}(..)`"));
                }
            }
        }
        for mac in PANIC_MACROS {
            let mut from = 0;
            while let Some(pos) = find_word(code, mac, from) {
                from = pos + mac.len();
                if code[from..].starts_with('!') {
                    flag("panic-macro", &format!("`{mac}!`"));
                }
            }
        }
        // One finding per line is enough for indexing — a single
        // PANIC-OK discharges the whole expression anyway.
        if let Some(pos) = index_sites(code).first() {
            flag(
                "index",
                &format!("slice/array indexing at column {}", pos + 1),
            );
        }
    }
    findings
}

/// Keywords that can directly precede a `[` that is a type or pattern,
/// not an indexing expression (`&mut [u8]`, `if let [a, b] = ...`,
/// `impl Trait for [T]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "let", "in", "as", "return", "else", "match", "dyn", "impl", "ref", "move", "box",
    "const", "static", "break", "continue", "where", "for",
];

/// Columns of `[` tokens that look like value indexing.
fn index_sites(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut sites = Vec::new();
    for (pos, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let before = code[..pos].trim_end();
        let prev = before.as_bytes().last().copied();
        let indexes_a_value = matches!(
            prev,
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b')' || c == b']' || c == b'?'
        );
        if indexes_a_value && !ends_with_keyword(before) {
            sites.push(pos);
        }
    }
    sites
}

/// True when `before` ends in one of [`NON_INDEX_KEYWORDS`] as a whole
/// word, or in a lifetime (`&'a [u8]` is a type).
fn ends_with_keyword(before: &str) -> bool {
    let word_start = before
        .rfind(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .map_or(0, |i| i + 1);
    NON_INDEX_KEYWORDS.contains(&&before[word_start..]) || before[..word_start].ends_with('\'')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_in(body: &str) -> Vec<(usize, &'static str)> {
        let src = format!("//! Module.\n//! AUDIT: total\n\n{body}");
        let lines = lex(&src);
        assert!(file_marker(&lines, MARKER));
        scan(&lines, "x.rs")
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn unannotated_files_are_skipped() {
        let lines = lex("fn f(v: Vec<u32>) -> u32 { v[0] }\n");
        assert!(!file_marker(&lines, MARKER));
    }

    #[test]
    fn flags_unwrap_and_expect_calls_only() {
        let f = findings_in(
            "fn f(o: Option<u8>) -> u8 {\n    let a = o.unwrap();\n    let b = o.expect(\"x\");\n    o.unwrap_or(0)\n}\n",
        );
        assert_eq!(f, vec![(5, "unwrap"), (6, "expect")]);
    }

    #[test]
    fn flags_panic_macros_but_not_debug_asserts() {
        let f = findings_in(
            "fn f(x: bool) {\n    debug_assert!(x);\n    assert!(x);\n    if !x { panic!(\"no\") }\n}\n",
        );
        assert_eq!(f, vec![(6, "panic-macro"), (7, "panic-macro")]);
    }

    #[test]
    fn flags_value_indexing_not_types_or_macros() {
        let f = findings_in(
            "fn f(buf: &[u8], arr: [u8; 4]) -> u8 {\n    #[allow(dead_code)]\n    let v = vec![1u8];\n    let x: [u8; 2] = [0, 1];\n    buf[0] + arr[1] + x[..1][0]\n}\n",
        );
        assert_eq!(f, vec![(8, "index")]);
    }

    #[test]
    fn keywords_before_bracket_are_not_indexing() {
        let f = findings_in(
            "fn f(buf: &mut [u8], pair: &[u8]) -> u8 {\n    if let [a, _b] = pair {\n        return *a;\n    }\n    buf[0]\n}\n",
        );
        assert_eq!(f, vec![(8, "index")]);
    }

    #[test]
    fn impl_targets_and_lifetimes_are_types() {
        let f = findings_in(
            "struct P<'a> {\n    b: &'a [u8],\n}\nimpl<T> Tr for [T] {}\nfn f(v: &[u8]) -> u8 {\n    v[0]\n}\n",
        );
        assert_eq!(f, vec![(9, "index")]);
    }

    #[test]
    fn panic_ok_discharges() {
        let f = findings_in(
            "fn f(buf: &[u8]) -> u8 {\n    // PANIC-OK: caller checked len >= 1.\n    buf[0]\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let f = findings_in(
            "fn prod() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert_eq!(1, Some(1).unwrap());\n    }\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn question_mark_then_index_is_flagged() {
        let f = findings_in("fn f(v: Vec<u8>) -> Option<u8> {\n    Some(g(&v)?[0])\n}\n");
        assert_eq!(f, vec![(5, "index")]);
    }
}
