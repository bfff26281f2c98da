//! The `audit` task: run every pass, emit the report, gate CI.
//!
//! * `cargo xtask audit` — human-readable findings, exit 1 on any.
//! * `cargo xtask audit --json > AUDIT.json` — the machine-readable
//!   report on stdout (diagnostics go to stderr), same exit semantics.
//! * `cargo xtask audit --fixtures` — self-test: run the passes over
//!   `crates/xtask/fixtures/` and require that the findings match the
//!   `EXPECT:` markers in the fixture files exactly (same file, same
//!   line, same pass, same rule). This proves the analyzers still catch
//!   what they claim to catch; it runs in CI next to the real audit.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::report::{to_json, Finding, PassSummary};
use crate::{lint_locks, lint_protocol, lint_totality, lint_unsafe};

/// Directories never scanned for Rust sources.
///
/// `fixtures` holds files with *deliberate* violations for
/// `audit --fixtures`; they must not fail the real audit.
pub const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "docs", "fixtures"];

/// Every `.rs` file under `root`, skipping [`SKIP_DIRS`], sorted.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk(root, &mut files, |name| name.ends_with(".rs"));
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>, keep: fn(&str) -> bool) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                walk(&path, out, keep);
            }
        } else if keep(&name) {
            out.push(path);
        }
    }
}

/// Run all passes over the workspace.
pub fn run(root: &Path, json: bool) -> ExitCode {
    let files = collect_rs_files(root);
    let (passes, mut findings) = run_passes(root, &files);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    if json {
        print!("{}", to_json(&passes, &findings));
    }
    for f in &findings {
        eprintln!("error: {}", f.display());
    }
    if !json {
        for p in &passes {
            println!(
                "audit/{}: {} ({} file(s), {} finding(s))",
                p.pass,
                if p.findings == 0 { "OK" } else { "FAIL" },
                p.files,
                p.findings
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\naudit: {} finding(s). Fix them, or justify with the marker the \
             message names (see docs/correctness.md for the annotation grammar).",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

fn run_passes(root: &Path, files: &[PathBuf]) -> (Vec<PassSummary>, Vec<Finding>) {
    let unsafe_findings = lint_unsafe::pass(root, files);
    let (totality_findings, totality_files) = lint_totality::pass(root, files);
    let (locks_findings, locks_files) = lint_locks::pass(root, files);
    let protocol_findings = lint_protocol::pass(root);

    let passes = vec![
        PassSummary {
            pass: "unsafe",
            files: files.len(),
            findings: unsafe_findings.len(),
        },
        PassSummary {
            pass: "totality",
            files: totality_files,
            findings: totality_findings.len(),
        },
        PassSummary {
            pass: "locks",
            files: locks_files,
            findings: locks_findings.len(),
        },
        PassSummary {
            pass: "protocol",
            files: 4,
            findings: protocol_findings.len(),
        },
    ];
    let mut findings = unsafe_findings;
    findings.extend(totality_findings);
    findings.extend(locks_findings);
    findings.extend(protocol_findings);
    (passes, findings)
}

/// Self-test the analyzers against the fixture corpus.
pub fn run_fixtures(root: &Path) -> ExitCode {
    let fixture_root = root.join("crates/xtask/fixtures");
    if !fixture_root.is_dir() {
        eprintln!("audit --fixtures: missing {}", fixture_root.display());
        return ExitCode::FAILURE;
    }

    // Collect fixture sources directly (the normal walker skips
    // `fixtures/` on purpose).
    let mut rs_files = Vec::new();
    walk_all(&fixture_root, &mut rs_files);
    let rs_only: Vec<PathBuf> = rs_files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .cloned()
        .collect();

    let mut actual = lint_unsafe::pass(&fixture_root, &rs_only);
    actual.extend(lint_totality::pass(&fixture_root, &rs_only).0);
    actual.extend(lint_locks::pass(&fixture_root, &rs_only).0);
    let proto = lint_protocol::ProtocolPaths {
        protocol_rs: fixture_root.join("protocol/protocol.rs"),
        report_rs: fixture_root.join("protocol/report.rs"),
        protocol_md: fixture_root.join("protocol/PROTOCOL.md"),
        service_md: None,
    };
    actual.extend(lint_protocol::check(&fixture_root, &proto));

    // Expected findings: `EXPECT: <pass> <rule>` markers, line-anchored.
    let mut expected: Vec<(String, usize, String, String)> = Vec::new();
    for file in &rs_files {
        let Ok(src) = fs::read_to_string(file) else {
            continue;
        };
        let rel = file
            .strip_prefix(&fixture_root)
            .unwrap_or(file)
            .display()
            .to_string();
        for (i, line) in src.lines().enumerate() {
            if let Some(rest) = line.split("EXPECT:").nth(1) {
                let mut words = rest.split_whitespace();
                if let (Some(pass), Some(rule)) = (words.next(), words.next()) {
                    let rule = rule.trim_end_matches("-->").to_string();
                    expected.push((rel.clone(), i + 1, pass.to_string(), rule));
                }
            }
        }
    }

    let mut got: Vec<(String, usize, String, String)> = actual
        .iter()
        .map(|f| {
            (
                f.file.clone(),
                f.line,
                f.pass.to_string(),
                f.rule.to_string(),
            )
        })
        .collect();
    got.sort();
    expected.sort();

    let missing: Vec<_> = expected.iter().filter(|e| !got.contains(e)).collect();
    let surplus: Vec<_> = got.iter().filter(|g| !expected.contains(g)).collect();
    for (file, line, pass, rule) in &missing {
        eprintln!("fixture mismatch: expected {file}:{line} [{pass}/{rule}] — not reported");
    }
    for (file, line, pass, rule) in &surplus {
        eprintln!("fixture mismatch: unexpected {file}:{line} [{pass}/{rule}]");
    }
    if expected.is_empty() {
        eprintln!("audit --fixtures: no EXPECT markers found — fixture corpus is broken");
        return ExitCode::FAILURE;
    }
    if missing.is_empty() && surplus.is_empty() {
        println!(
            "audit --fixtures: OK ({} expected finding(s) all reproduced, no extras)",
            expected.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\naudit --fixtures: {} missing, {} unexpected",
            missing.len(),
            surplus.len()
        );
        ExitCode::FAILURE
    }
}

/// Recursive collection of *all* files (fixture corpus: .rs and .md).
fn walk_all(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_all(&path, out);
        } else {
            out.push(path);
        }
    }
}
