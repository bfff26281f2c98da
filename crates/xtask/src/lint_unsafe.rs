//! The `unsafe` pass: every `unsafe` site must carry a justification.
//!
//! Policy (matching `docs/correctness.md`):
//!
//! * an `unsafe` **block**, `unsafe impl`, or `unsafe trait` needs a comment
//!   containing `SAFETY:` on the same line or within the five preceding
//!   lines;
//! * an `unsafe fn` declaration may alternatively carry a doc comment with a
//!   `# Safety` section (the rustdoc convention), searched in the directly
//!   attached doc block.
//!
//! The scanner is lexical (see [`crate::lexer`]): comments, strings, and
//! char literals are stripped before looking for the `unsafe` keyword, so
//! occurrences inside text never trip it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::lexer::{find_word, has_marker_near, lex, LexedLine};
use crate::report::Finding;

/// Run the unsafe pass over the given files, returning findings.
pub fn pass(root: &Path, files: &[PathBuf]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let Ok(source) = std::fs::read_to_string(file) else {
            eprintln!("warning: unreadable file {}", file.display());
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(file);
        for site in scan(&source) {
            if !site.justified {
                findings.push(Finding {
                    pass: "unsafe",
                    rule: site.kind.rule(),
                    file: rel.display().to_string(),
                    line: site.line,
                    message: format!(
                        "`{}` without an adjacent SAFETY justification",
                        site.kind.describe()
                    ),
                });
            }
        }
    }
    findings
}

/// Standalone `cargo xtask lint-unsafe` entry point.
pub fn run(root: &Path) -> ExitCode {
    let files = crate::audit::collect_rs_files(root);
    let mut sites = 0usize;
    for file in &files {
        if let Ok(source) = std::fs::read_to_string(file) {
            sites += scan(&source).len();
        }
    }
    let findings = pass(root, &files);
    if findings.is_empty() {
        println!(
            "lint-unsafe: OK ({} files, {} unsafe sites, all justified)",
            files.len(),
            sites
        );
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("error: {}", f.display());
        }
        eprintln!(
            "\nlint-unsafe: {} unjustified unsafe site(s). Add a `// SAFETY: ...` \
             comment explaining why the invariants hold (or a `# Safety` doc \
             section for an unsafe fn).",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

/// What kind of unsafe site was found (affects accepted justifications).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `unsafe { ... }`.
    Block,
    /// `unsafe fn ...`.
    Fn,
    /// `unsafe impl ...` / `unsafe trait ...`.
    ImplOrTrait,
}

impl SiteKind {
    fn describe(self) -> &'static str {
        match self {
            SiteKind::Block => "unsafe block",
            SiteKind::Fn => "unsafe fn",
            SiteKind::ImplOrTrait => "unsafe impl/trait",
        }
    }

    fn rule(self) -> &'static str {
        match self {
            SiteKind::Block => "unsafe-block",
            SiteKind::Fn => "unsafe-fn",
            SiteKind::ImplOrTrait => "unsafe-impl",
        }
    }
}

/// One `unsafe` occurrence in real code.
#[derive(Debug)]
pub struct Site {
    /// 1-based line number.
    pub line: usize,
    /// Site classification.
    pub kind: SiteKind,
    /// Whether an accepted justification is present.
    pub justified: bool,
}

/// Scan source text for unsafe sites and their justifications.
pub fn scan(source: &str) -> Vec<Site> {
    let lines = lex(source);
    let mut sites = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        let mut from = 0;
        while let Some(pos) = find_word(code, "unsafe", from) {
            from = pos + "unsafe".len();
            // Classify by the next code token, looking ahead across lines.
            let kind = classify(&lines, i, from);
            // `unsafe fn` after `:`/`(`/`,`/`<`/`&` is a function-pointer
            // *type* (e.g. `destroy: unsafe fn(*mut ())`), not an unsafe
            // operation — a real declaration never follows those tokens.
            if kind == SiteKind::Fn {
                let before = code[..pos].trim_end();
                if before.ends_with([':', '(', ',', '<', '&', '=']) {
                    continue;
                }
            }
            let justified = match kind {
                SiteKind::Fn => {
                    has_marker_near(&lines, i, "SAFETY:") || has_safety_doc_section(&lines, i)
                }
                _ => has_marker_near(&lines, i, "SAFETY:"),
            };
            sites.push(Site {
                line: i + 1,
                kind,
                justified,
            });
        }
    }
    sites
}

/// Determine what follows the `unsafe` keyword (skipping whitespace across
/// lines): `fn` ⇒ Fn, `impl`/`trait` ⇒ ImplOrTrait, else a block.
fn classify(lines: &[LexedLine], line_idx: usize, col: usize) -> SiteKind {
    let mut idx = line_idx;
    let mut rest = lines[idx].code[col..].to_string();
    loop {
        let trimmed = rest.trim_start();
        if !trimmed.is_empty() {
            return if trimmed.starts_with("fn")
                || trimmed.starts_with("extern") && trimmed.contains("fn")
            {
                SiteKind::Fn
            } else if trimmed.starts_with("impl") || trimmed.starts_with("trait") {
                SiteKind::ImplOrTrait
            } else {
                SiteKind::Block
            };
        }
        idx += 1;
        match lines.get(idx) {
            Some(l) => rest = l.code.clone(),
            None => return SiteKind::Block,
        }
    }
}

/// A doc block directly above the declaration containing `# Safety`.
///
/// Walks upward through attached doc comments and attributes only.
fn has_safety_doc_section(lines: &[LexedLine], line_idx: usize) -> bool {
    let mut idx = line_idx;
    while idx > 0 {
        idx -= 1;
        let l = &lines[idx];
        let code_trimmed = l.code.trim();
        let is_attr = code_trimmed.starts_with('#');
        let is_attached = l.is_doc || is_attr || (code_trimmed.is_empty() && !l.comment.is_empty());
        if !is_attached {
            // Also allow the `pub`/`pub(crate)` qualifier split across lines.
            if code_trimmed.is_empty() {
                continue;
            }
            return false;
        }
        if l.is_doc && l.comment.contains("# Safety") {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::JUSTIFY_WINDOW;

    fn unjustified(source: &str) -> Vec<usize> {
        scan(source)
            .into_iter()
            .filter(|s| !s.justified)
            .map(|s| s.line)
            .collect()
    }

    #[test]
    fn flags_bare_unsafe_block() {
        let src = "fn f() {\n    let x = unsafe { *p };\n}\n";
        assert_eq!(unjustified(src), vec![2]);
    }

    #[test]
    fn accepts_safety_comment_above() {
        let src = "fn f() {\n    // SAFETY: p is valid.\n    let x = unsafe { *p };\n}\n";
        assert!(unjustified(src).is_empty());
    }

    #[test]
    fn accepts_same_line_safety() {
        let src = "let x = unsafe { *p }; // SAFETY: p is valid.\n";
        assert!(unjustified(src).is_empty());
    }

    #[test]
    fn window_is_bounded() {
        let filler = "let a = 1;\n".repeat(JUSTIFY_WINDOW + 1);
        let src = format!("// SAFETY: too far away.\n{filler}let x = unsafe {{ *p }};\n");
        assert_eq!(unjustified(&src).len(), 1);
    }

    #[test]
    fn ignores_unsafe_in_strings_and_comments() {
        let src = "// this mentions unsafe code\nlet s = \"unsafe\";\nlet r = r#\"unsafe { }\"#;\nlet c = '\"'; let u = \"x\"; // unsafe\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn unsafe_fn_accepts_safety_doc() {
        let src = "/// Does a thing.\n///\n/// # Safety\n///\n/// Caller must own it.\npub unsafe fn f() {}\n";
        assert!(unjustified(src).is_empty());
        assert_eq!(scan(src)[0].kind, SiteKind::Fn);
    }

    #[test]
    fn unsafe_fn_without_docs_flagged() {
        let src = "pub unsafe fn f() {}\n";
        assert_eq!(unjustified(src), vec![1]);
    }

    #[test]
    fn unsafe_impl_needs_comment() {
        let src = "unsafe impl Send for X {}\n";
        assert_eq!(unjustified(src), vec![1]);
        assert_eq!(scan(src)[0].kind, SiteKind::ImplOrTrait);
        let ok = "// SAFETY: all fields are Send.\nunsafe impl Send for X {}\n";
        assert!(unjustified(ok).is_empty());
    }

    #[test]
    fn doc_section_does_not_justify_blocks() {
        // `# Safety` docs justify the *declaration* of an unsafe fn, not
        // unsafe blocks in its body.
        let src = "/// # Safety\n/// Caller beware.\nfn f() {\n    unsafe { *p }\n}\n";
        // Within the window the doc comment still matches nothing: it lacks
        // `SAFETY:` and doc sections only apply to Fn sites.
        assert_eq!(unjustified(src), vec![4]);
    }

    #[test]
    fn lifetimes_do_not_break_lexer() {
        let src = "fn f<'g>(x: &'g str) -> &'g str { x }\nlet y = unsafe { g() };\n";
        assert_eq!(unjustified(src), vec![2]);
    }

    #[test]
    fn block_comments_strip() {
        let src = "/* unsafe here */ let x = 1;\nlet y = /* SAFETY: fine */ unsafe { g() };\n";
        assert!(unjustified(src).is_empty());
        assert_eq!(scan(src).len(), 1);
    }

    #[test]
    fn long_safety_comment_block_counts() {
        let src = "// SAFETY: a justification that runs on\n// and on and on and on\n// and on and on and on\n// and on and on and on\n// and on and on and on\n// and on and on and on\n// before finally ending.\nlet x = unsafe { g() };\n";
        assert!(unjustified(src).is_empty());
    }

    #[test]
    fn fn_pointer_type_is_not_a_site() {
        let src = "struct D {\n    destroy: unsafe fn(*mut ()),\n}\ntype F = unsafe fn(u32) -> u32;\nfn apply(f: unsafe fn()) {}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn multiline_block_comment_with_unsafe_text() {
        let src = "/*\n * unsafe unsafe unsafe\n */\nlet x = 1;\n";
        assert!(scan(src).is_empty());
    }
}
