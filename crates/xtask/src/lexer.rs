//! Shared lexical front-end for every audit pass.
//!
//! All the analyzers in this crate are *lexical*: they strip comments,
//! string literals, and char literals from each source line, then match
//! tokens in what remains. That keeps the whole suite dependency-free
//! (no syn, no proc-macro) and fast, at the cost of being a
//! token-stream approximation of the language — the passes are written
//! so that approximation errs on the side of flagging, and every flag
//! can be discharged with a written justification comment.
//!
//! This module owns:
//!
//! * [`lex`] — the line-by-line comment/string stripper (the one piece
//!   of state that must survive across lines: block comments and raw
//!   strings);
//! * [`find_word`] — identifier-boundary token search;
//! * [`has_marker_near`] — the shared "justification comment within a
//!   bounded window above" rule used by `SAFETY:`, `PANIC-OK:`, and
//!   `LOCK-OK:` alike;
//! * [`file_marker`] — file-level audit annotations (`//! AUDIT: total`,
//!   `//! AUDIT: locks`);
//! * [`test_lines`] — which lines sit inside `#[cfg(test)]` items, so
//!   test code is exempt from the production-code gates.

/// How many non-comment lines above a flagged token a justification
/// comment may sit. Comment-only lines do not consume the window, so a
/// multi-line justification block counts in full however long it is.
pub const JUSTIFY_WINDOW: usize = 5;

/// A source line split into its code part and its comment part.
pub struct LexedLine {
    /// The line with comments, strings and char literals blanked out.
    pub code: String,
    /// Concatenated comment text on the line (line, block, and doc).
    pub comment: String,
    /// Whether the comment is a doc comment (`///` or `//!` or `/** */`).
    pub is_doc: bool,
}

/// First occurrence of `word` in `code` at or after `from`, with
/// identifier boundaries on both sides.
pub fn find_word(code: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = from;
    while let Some(rel) = code.get(start..)?.find(word) {
        let pos = start + rel;
        let before_ok =
            pos == 0 || !(bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_');
        let end = pos + word.len();
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

/// A `marker` comment (e.g. `SAFETY:`, `PANIC-OK:`, `LOCK-OK:`) on the
/// same line or within the [`JUSTIFY_WINDOW`] lines above `line_idx`.
///
/// Pure comment lines do not consume the window, so a multi-line
/// justification block counts in full however long it is; only code and
/// blank lines burn the budget.
pub fn has_marker_near(lines: &[LexedLine], line_idx: usize, marker: &str) -> bool {
    if lines[line_idx].comment.contains(marker) {
        return true;
    }
    let mut budget = JUSTIFY_WINDOW;
    let mut idx = line_idx;
    while idx > 0 && budget > 0 {
        idx -= 1;
        let l = &lines[idx];
        if l.comment.contains(marker) {
            return true;
        }
        // A comment-only line extends the window upward for free.
        if !l.code.trim().is_empty() || l.comment.is_empty() {
            budget -= 1;
        }
    }
    false
}

/// Whether the file carries a module-level audit annotation, e.g.
/// `//! AUDIT: total`. Only inner doc comments (`//!`) in the leading
/// doc block are consulted, so a pass can't be enabled from deep inside
/// a function by accident.
pub fn file_marker(lines: &[LexedLine], marker: &str) -> bool {
    for l in lines {
        let has_code = !l.code.trim().is_empty();
        if has_code {
            // The leading doc block ends at the first code line
            // (attributes like `#![deny(..)]` included — they follow
            // the doc block in the conventional layout, so stopping
            // here keeps the rule "top-of-file only").
            return false;
        }
        if l.is_doc && is_marker_line(&l.comment, marker) {
            return true;
        }
    }
    false
}

/// A doc line *is* the annotation only if the marker opens it (after the
/// `//!` sigil) — prose that merely mentions `AUDIT: total` (backticked
/// examples, this very file's docs) must not opt a file in.
fn is_marker_line(comment: &str, marker: &str) -> bool {
    let t = comment.trim();
    let t = t.strip_prefix("//!").unwrap_or(t).trim();
    t.starts_with(marker)
}

/// Mark every line that sits inside a `#[cfg(test)]`-gated item (almost
/// always `mod tests { .. }`). Production-code gates skip those lines.
///
/// The detector is lexical: when a line's code contains `#[cfg(test)]`
/// (or the multi-attr `#[cfg(all(test` form), everything from there to
/// the close of the next brace-balanced region is test code.
pub fn test_lines(lines: &[LexedLine]) -> Vec<bool> {
    let mut is_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = &lines[i].code;
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            // Find the opening brace of the gated item, then skip to its
            // matching close, marking every line on the way.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                is_test[j] = true;
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    is_test
}

/// Strip comments, strings and char literals, keeping per-line comment
/// text.
pub fn lex(source: &str) -> Vec<LexedLine> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Normal,
        Block { depth: u32, doc: bool },
        Str,
        RawStr { hashes: u32 },
    }

    let mut out = Vec::new();
    let mut state = State::Normal;
    for raw in source.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut is_doc = false;
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match state {
                State::Normal => match c {
                    '/' if chars.get(i + 1) == Some(&'/') => {
                        let text: String = chars[i..].iter().collect();
                        if text.starts_with("///") || text.starts_with("//!") {
                            is_doc = true;
                        }
                        comment.push_str(&text);
                        i = chars.len();
                    }
                    '/' if chars.get(i + 1) == Some(&'*') => {
                        let doc = chars.get(i + 2) == Some(&'*') || chars.get(i + 2) == Some(&'!');
                        state = State::Block { depth: 1, doc };
                        if doc {
                            is_doc = true;
                        }
                        code.push(' ');
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        code.push('"');
                        i += 1;
                    }
                    'r' if matches!(chars.get(i + 1), Some('"' | '#'))
                        && raw_string_hashes(&chars[i + 1..]).is_some() =>
                    {
                        let hashes = raw_string_hashes(&chars[i + 1..]).unwrap_or_default();
                        state = State::RawStr { hashes };
                        code.push(' ');
                        i += 2 + hashes as usize; // r, hashes, opening quote
                    }
                    'b' if chars.get(i + 1) == Some(&'"') => {
                        state = State::Str;
                        code.push(' ');
                        i += 2;
                    }
                    '\'' => {
                        // Char literal vs lifetime.
                        if chars.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: skip to closing quote.
                            let mut j = i + 2;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            code.push(' ');
                            i = (j + 1).min(chars.len());
                        } else if chars.get(i + 2) == Some(&'\'') {
                            code.push(' ');
                            i += 3;
                        } else {
                            // Lifetime: keep going.
                            code.push('\'');
                            i += 1;
                        }
                    }
                    c => {
                        code.push(c);
                        i += 1;
                    }
                },
                State::Block { depth, doc } => {
                    if c == '*' && chars.get(i + 1) == Some(&'/') {
                        if depth == 1 {
                            state = State::Normal;
                        } else {
                            state = State::Block {
                                depth: depth - 1,
                                doc,
                            };
                        }
                        i += 2;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::Block {
                            depth: depth + 1,
                            doc,
                        };
                        i += 2;
                    } else {
                        comment.push(c);
                        if doc {
                            is_doc = true;
                        }
                        i += 1;
                    }
                }
                State::Str => match c {
                    '\\' => i += 2,
                    '"' => {
                        state = State::Normal;
                        code.push('"');
                        i += 1;
                    }
                    _ => i += 1,
                },
                State::RawStr { hashes } => {
                    if c == '"' && closes_raw(&chars[i + 1..], hashes) {
                        state = State::Normal;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        if let State::Block { doc, .. } = state {
            // Block comment continues onto the next line.
            if doc {
                is_doc = true;
            }
        }
        out.push(LexedLine {
            code,
            comment,
            is_doc,
        });
    }
    out
}

/// For text after a leading `r`, return `Some(hash_count)` if it opens a
/// raw string (`#*"` prefix).
fn raw_string_hashes(after_r: &[char]) -> Option<u32> {
    let mut hashes = 0u32;
    for &c in after_r {
        match c {
            '#' => hashes += 1,
            '"' => return Some(hashes),
            _ => return None,
        }
    }
    None
}

/// Whether the chars after a `"` close a raw string with `hashes` hashes.
fn closes_raw(after_quote: &[char], hashes: u32) -> bool {
    (0..hashes as usize).all(|k| after_quote.get(k) == Some(&'#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let lines = lex("let s = \"unsafe { }\"; // trailing unsafe\n");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("trailing unsafe"));
    }

    #[test]
    fn file_marker_only_in_leading_doc_block() {
        let top = lex("//! Module.\n//! AUDIT: total\n\nfn f() {}\n");
        assert!(file_marker(&top, "AUDIT: total"));
        let buried = lex("fn f() {}\n//! AUDIT: total\n");
        assert!(!file_marker(&buried, "AUDIT: total"));
        let plain = lex("// AUDIT: total\nfn f() {}\n");
        assert!(
            !file_marker(&plain, "AUDIT: total"),
            "non-doc comments don't count"
        );
        let mention = lex("//! Opt in with a `//! AUDIT: total` line.\n\nfn f() {}\n");
        assert!(
            !file_marker(&mention, "AUDIT: total"),
            "prose mentions don't count"
        );
    }

    #[test]
    fn marker_window_is_bounded() {
        let src = format!(
            "// PANIC-OK: too far.\n{}let x = v.unwrap();\n",
            "let a = 1;\n".repeat(JUSTIFY_WINDOW + 1)
        );
        let lines = lex(&src);
        assert!(!has_marker_near(&lines, lines.len() - 1, "PANIC-OK:"));
        let near = lex("// PANIC-OK: fine.\nlet x = v.unwrap();\n");
        assert!(has_marker_near(&near, 1, "PANIC-OK:"));
    }

    #[test]
    fn test_region_detection_covers_mod_tests() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod2() {}\n";
        let lines = lex(src);
        let mask = test_lines(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn raw_strings_do_not_leak_code() {
        let lines = lex("let r = r#\"x.unwrap() [0]\"#; let y = 1;\n");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("let y"));
    }
}
