//! The `protocol` pass: the wire-protocol docs cannot drift from the code.
//!
//! `docs/PROTOCOL.md` carries a machine-checked **"Wire protocol
//! reference"** section whose grammar this pass parses:
//!
//! ```markdown
//! ## N. Wire protocol reference (machine-checked)
//! ### Request
//! - `Ingest` — prose...
//! ### ServiceReport
//! - `ingested_keys` — prose...
//! ```
//!
//! Each `### TypeName` group is cross-checked against the corresponding
//! Rust item — enum variants from `crates/serve/src/protocol.rs`
//! (`Request`, `QueryReq`, `Response`), public struct fields from
//! `crates/core/src/report.rs` (`ServiceReport`, `ShardReport`,
//! `RecoveryReport`, `PersistReport`) — in both directions: an
//! undocumented variant/field is `doc-missing`, a documented name the
//! code no longer has is `doc-stale`. As a weaker prose check, every
//! request/query op name must also appear somewhere in
//! `docs/service.md` (`service-doc`).
//!
//! The section also carries a **`### Version compatibility`** table
//! mapping protocol versions to the request ops they introduced:
//!
//! ```markdown
//! ### Version compatibility
//!
//! | version | status | ops |
//! |---|---|---|
//! | 1 | unsupported | `Ingest`, `Query`, ... |
//! | 2 | current | `Hello`, `SnapshotPage`, ... |
//! ```
//!
//! It is cross-checked against `pub const PROTO_VERSION` in both
//! directions: the single `current` row must carry the code's version
//! number (`version-table`), every `Request` variant must be attributed
//! to some version row (`version-missing`, anchored at the variant),
//! and every op a row lists must still exist in the code
//! (`version-stale`, anchored at the row).

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{find_word, lex, LexedLine};
use crate::report::Finding;

/// Enums in `serve::protocol` whose variants are wire op names.
const ENUMS: &[&str] = &["Request", "QueryReq", "Response"];

/// Structs in `core::report` whose public fields are STATS report keys.
const STRUCTS: &[&str] = &[
    "ServiceReport",
    "ShardReport",
    "RecoveryReport",
    "PersistReport",
    "MemberReport",
    "ClusterReport",
    "ReplReport",
];

/// The heading that opens the machine-checked section.
const SECTION: &str = "Wire protocol reference";

/// Which files one protocol check reads (parameterized for fixtures).
pub struct ProtocolPaths {
    /// The enum source (`serve::protocol`).
    pub protocol_rs: PathBuf,
    /// The report-struct source (`core::report`).
    pub report_rs: PathBuf,
    /// The markdown carrying the wire reference section.
    pub protocol_md: PathBuf,
    /// Optional prose doc that must mention every request op.
    pub service_md: Option<PathBuf>,
}

impl ProtocolPaths {
    /// The real workspace layout.
    pub fn workspace(root: &Path) -> Self {
        ProtocolPaths {
            protocol_rs: root.join("crates/serve/src/protocol.rs"),
            report_rs: root.join("crates/core/src/report.rs"),
            protocol_md: root.join("docs/PROTOCOL.md"),
            service_md: Some(root.join("docs/service.md")),
        }
    }
}

/// Run the protocol pass against the workspace layout.
pub fn pass(root: &Path) -> Vec<Finding> {
    check(root, &ProtocolPaths::workspace(root))
}

/// Run the protocol pass against explicit paths.
pub fn check(root: &Path, paths: &ProtocolPaths) -> Vec<Finding> {
    let mut findings = Vec::new();
    let rel = |p: &Path| p.strip_prefix(root).unwrap_or(p).display().to_string();

    let Some(protocol_src) = read(&paths.protocol_rs, &mut findings, root) else {
        return findings;
    };
    let Some(report_src) = read(&paths.report_rs, &mut findings, root) else {
        return findings;
    };
    let Some(md_src) = read(&paths.protocol_md, &mut findings, root) else {
        return findings;
    };

    let protocol_lines = lex(&protocol_src);
    let report_lines = lex(&report_src);

    // Gather what the code declares: (type, name, line, source-file).
    let mut code: Vec<(String, String, usize, String)> = Vec::new();
    for (src_lines, kinds, file, is_enum) in [
        (&protocol_lines, ENUMS, rel(&paths.protocol_rs), true),
        (&report_lines, STRUCTS, rel(&paths.report_rs), false),
    ] {
        for ty in kinds {
            match item_members(src_lines, ty, is_enum) {
                Some(members) => {
                    for (name, line) in members {
                        code.push((ty.to_string(), name, line, file.clone()));
                    }
                }
                None => findings.push(Finding {
                    pass: "protocol",
                    rule: "doc-stale",
                    file: file.clone(),
                    line: 0,
                    message: format!(
                        "expected `{}` `{ty}` not found — update the protocol \
                         pass target list in crates/xtask/src/lint_protocol.rs",
                        if is_enum { "enum" } else { "struct" }
                    ),
                }),
            }
        }
    }

    // Gather what the doc declares: (type, name, md line).
    let md_file = rel(&paths.protocol_md);
    let wire_doc = parse_wire_reference(&md_src);
    let (doc, documented_types) = (&wire_doc.entries, &wire_doc.types);
    if documented_types.is_empty() {
        findings.push(Finding {
            pass: "protocol",
            rule: "doc-missing",
            file: md_file,
            line: 0,
            message: format!(
                "no `## ... {SECTION}` section found; add the machine-checked \
                 wire reference (see docs/correctness.md)"
            ),
        });
        return findings;
    }

    // Code → doc: every variant/field must be documented.
    for (ty, name, line, file) in &code {
        if !doc.iter().any(|(t, n, _)| t == ty && n == name) {
            findings.push(Finding {
                pass: "protocol",
                rule: "doc-missing",
                file: file.clone(),
                line: *line,
                message: format!(
                    "`{ty}::{name}` is not documented under `### {ty}` in the \
                     {SECTION} section of {md_file}"
                ),
            });
        }
    }

    // Doc → code: every documented name must still exist.
    for (ty, name, md_line) in doc {
        let known_type = ENUMS.contains(&ty.as_str()) || STRUCTS.contains(&ty.as_str());
        if !known_type {
            findings.push(Finding {
                pass: "protocol",
                rule: "doc-stale",
                file: md_file.clone(),
                line: *md_line,
                message: format!("documented group `### {ty}` matches no checked enum/struct"),
            });
            continue;
        }
        if !code.iter().any(|(t, n, _, _)| t == ty && n == name) {
            findings.push(Finding {
                pass: "protocol",
                rule: "doc-stale",
                file: md_file.clone(),
                line: *md_line,
                message: format!("documented `{ty}::{name}` no longer exists in the code"),
            });
        }
    }

    // Version compatibility: PROTO_VERSION and the version table cannot
    // drift from each other or from the Request op set.
    let proto_file = rel(&paths.protocol_rs);
    match (&wire_doc.version_table, proto_version(&protocol_lines)) {
        (None, _) => findings.push(Finding {
            pass: "protocol",
            rule: "version-table",
            file: md_file.clone(),
            line: 0,
            message: format!(
                "no `### {VERSION_HEADING}` table in the {SECTION} section; \
                 add one mapping protocol versions to the ops they introduced"
            ),
        }),
        (Some(_), None) => findings.push(Finding {
            pass: "protocol",
            rule: "version-table",
            file: proto_file.clone(),
            line: 0,
            message: format!(
                "a `### {VERSION_HEADING}` table is documented but the code \
                 declares no `pub const PROTO_VERSION`"
            ),
        }),
        (Some(table), Some((version, version_line))) => {
            let current: Vec<&VersionRow> = table
                .rows
                .iter()
                .filter(|r| r.status == "current")
                .collect();
            match current.as_slice() {
                [row] if row.version != version => findings.push(Finding {
                    pass: "protocol",
                    rule: "version-table",
                    file: md_file.clone(),
                    line: row.line,
                    message: format!(
                        "the `current` row declares version {} but the code's \
                         PROTO_VERSION is {version}",
                        row.version
                    ),
                }),
                [_] => {}
                _ => findings.push(Finding {
                    pass: "protocol",
                    rule: "version-table",
                    file: md_file.clone(),
                    line: table.line,
                    message: format!(
                        "the `### {VERSION_HEADING}` table must have exactly one \
                         `current` row (found {}); code PROTO_VERSION is {version} \
                         (declared at line {version_line})",
                        current.len()
                    ),
                }),
            }
            // Code → table: every request op belongs to some version.
            for (ty, name, line, file) in &code {
                if ty != "Request" {
                    continue;
                }
                if !table.rows.iter().any(|r| r.ops.iter().any(|op| op == name)) {
                    findings.push(Finding {
                        pass: "protocol",
                        rule: "version-missing",
                        file: file.clone(),
                        line: *line,
                        message: format!(
                            "`Request::{name}` appears in no row of the \
                             `### {VERSION_HEADING}` table in {md_file}"
                        ),
                    });
                }
            }
            // Table → code: every listed op must still be a request op.
            for row in &table.rows {
                for op in &row.ops {
                    if !code.iter().any(|(t, n, _, _)| t == "Request" && n == op) {
                        findings.push(Finding {
                            pass: "protocol",
                            rule: "version-stale",
                            file: md_file.clone(),
                            line: row.line,
                            message: format!(
                                "version {} attributes op `{op}`, which is not a \
                                 `Request` variant",
                                row.version
                            ),
                        });
                    }
                }
            }
        }
    }

    // Prose containment: every request/query op appears in service.md.
    if let Some(service_md) = &paths.service_md {
        if let Some(service_src) = read(service_md, &mut findings, root) {
            for (ty, name, line, file) in &code {
                let is_op = ty == "Request" || ty == "QueryReq";
                if is_op && !service_src.contains(name) {
                    findings.push(Finding {
                        pass: "protocol",
                        rule: "service-doc",
                        file: file.clone(),
                        line: *line,
                        message: format!(
                            "op `{ty}::{name}` is never mentioned in {}",
                            rel(service_md)
                        ),
                    });
                }
            }
        }
    }

    findings
}

fn read(path: &Path, findings: &mut Vec<Finding>, root: &Path) -> Option<String> {
    match fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            findings.push(Finding {
                pass: "protocol",
                rule: "doc-missing",
                file: path
                    .strip_prefix(root)
                    .unwrap_or(path)
                    .display()
                    .to_string(),
                line: 0,
                message: format!("cannot read: {e}"),
            });
            None
        }
    }
}

/// Variants of `pub enum <name>` / public fields of `pub struct <name>`,
/// with their 1-based lines. `None` if the item is missing.
fn item_members(lines: &[LexedLine], name: &str, is_enum: bool) -> Option<Vec<(String, usize)>> {
    let keyword = if is_enum { "enum" } else { "struct" };
    let decl = lines.iter().position(|l| {
        find_word(&l.code, keyword, 0).is_some() && find_word(&l.code, name, 0).is_some()
    })?;
    let mut members = Vec::new();
    let mut depth: i64 = 0;
    let mut opened = false;
    for (j, line) in lines.iter().enumerate().skip(decl) {
        let depth_at_start = depth;
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth_at_start == 1 {
            if let Some(member) = member_on(&line.code, is_enum) {
                members.push((member, j + 1));
            }
        }
        if opened && depth <= 0 {
            break;
        }
    }
    Some(members)
}

/// The member an item-body line declares, if any.
fn member_on(code: &str, is_enum: bool) -> Option<String> {
    let trimmed = code.trim();
    if is_enum {
        // A variant line starts with an uppercase identifier.
        let first = trimmed.chars().next()?;
        if !first.is_ascii_uppercase() {
            return None;
        }
        let name: String = trimmed
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        (!name.is_empty()).then_some(name)
    } else {
        // A public field line: `pub <name>: <type>,`.
        let rest = trimmed.strip_prefix("pub ")?;
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        (!name.is_empty() && rest[name.len()..].trim_start().starts_with(':')).then_some(name)
    }
}

/// One row of the `### Version compatibility` table.
struct VersionRow {
    /// The literal version cell (digits expected).
    version: String,
    /// The status cell, e.g. `current`, `unsupported`, `frozen`.
    status: String,
    /// Op names the row attributes to this version (backticks stripped).
    ops: Vec<String>,
    /// 1-based markdown line of the row.
    line: usize,
}

/// The parsed `### Version compatibility` subsection.
struct VersionTable {
    /// 1-based markdown line of the heading.
    line: usize,
    /// Data rows (header and separator rows excluded).
    rows: Vec<VersionRow>,
}

/// Everything the wire reference section of the markdown declares.
struct WireDoc {
    /// `(type, name, line)` triples from the `### TypeName` groups.
    entries: Vec<(String, String, usize)>,
    /// The `### TypeName` group headings seen, in order.
    types: Vec<String>,
    /// The version compatibility table, if present.
    version_table: Option<VersionTable>,
}

/// The subsection heading that opens the version table.
const VERSION_HEADING: &str = "Version compatibility";

/// Parse the wire reference section: type groups plus the version table.
fn parse_wire_reference(md: &str) -> WireDoc {
    let mut doc = WireDoc {
        entries: Vec::new(),
        types: Vec::new(),
        version_table: None,
    };
    let mut in_section = false;
    let mut group: Option<String> = None;
    let mut in_version_table = false;
    for (i, line) in md.lines().enumerate() {
        if line.starts_with("## ") {
            in_section = line.contains(SECTION);
            group = None;
            in_version_table = false;
            continue;
        }
        if !in_section {
            continue;
        }
        if let Some(heading) = line.strip_prefix("### ") {
            group = None;
            in_version_table = heading.trim().starts_with(VERSION_HEADING);
            if in_version_table {
                doc.version_table = Some(VersionTable {
                    line: i + 1,
                    rows: Vec::new(),
                });
                continue;
            }
            let ty: String = heading
                .trim()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !ty.is_empty() {
                doc.types.push(ty.clone());
                group = Some(ty);
            }
            continue;
        }
        if in_version_table {
            if let (Some(table), Some(row)) = (&mut doc.version_table, version_row(line, i + 1)) {
                table.rows.push(row);
            }
            continue;
        }
        if let (Some(ty), Some(rest)) = (&group, line.trim_start().strip_prefix("- `")) {
            if let Some(end) = rest.find('`') {
                doc.entries
                    .push((ty.clone(), rest[..end].to_string(), i + 1));
            }
        }
    }
    doc
}

/// Parse one version-table data row; `None` for non-table, header, and
/// separator lines.
fn version_row(line: &str, line_no: usize) -> Option<VersionRow> {
    let trimmed = line.trim_start();
    if !trimmed.starts_with('|') {
        return None;
    }
    let cells: Vec<&str> = trimmed.split('|').map(str::trim).collect();
    // `| a | b | c |` splits into ["", a, b, c, ""] (tail cells ignored).
    if cells.len() < 5 {
        return None;
    }
    let version = cells[1].to_string();
    if version.is_empty() || version == "version" || version.chars().all(|c| c == '-' || c == ':') {
        return None;
    }
    let ops = cells[3]
        .split(',')
        .map(|op| op.trim().trim_matches('`').to_string())
        .filter(|op| !op.is_empty())
        .collect();
    Some(VersionRow {
        version,
        status: cells[2].to_string(),
        ops,
        line: line_no,
    })
}

/// The value of `pub const PROTO_VERSION` with its 1-based line.
fn proto_version(lines: &[LexedLine]) -> Option<(String, usize)> {
    for (i, line) in lines.iter().enumerate() {
        if find_word(&line.code, "PROTO_VERSION", 0).is_none()
            || find_word(&line.code, "const", 0).is_none()
        {
            continue;
        }
        let rest = line.code.split('=').nth(1)?;
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '_')
            .collect();
        if !digits.is_empty() {
            return Some((digits.replace('_', ""), i + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODE: &str = "pub enum Request {\n    Ingest(IngestReq),\n    Stats,\n}\n";

    #[test]
    fn enum_variants_are_extracted() {
        let lines = lex(CODE);
        let members = item_members(&lines, "Request", true).unwrap();
        let names: Vec<&str> = members.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Ingest", "Stats"]);
    }

    #[test]
    fn struct_fields_are_extracted() {
        let src = "pub struct ServiceReport {\n    /// Doc.\n    pub ingested_keys: u64,\n    pub shards: Vec<ShardReport>,\n    hidden: u8,\n}\n";
        let lines = lex(src);
        let members = item_members(&lines, "ServiceReport", false).unwrap();
        let names: Vec<&str> = members.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["ingested_keys", "shards"]);
    }

    #[test]
    fn wire_reference_parses_groups_and_entries() {
        let md = "# Title\n\n## 1. Other\n- `NotParsed`\n\n## 2. Wire protocol reference (machine-checked)\n\n### Request\n\n- `Ingest` — enqueue keys.\n- `Stats` — report.\n\n### ServiceReport\n\n- `ingested_keys` — total.\n\n## 3. After\n- `AlsoNotParsed`\n";
        let doc = parse_wire_reference(md);
        assert_eq!(doc.types, vec!["Request", "ServiceReport"]);
        let names: Vec<(&str, &str)> = doc
            .entries
            .iter()
            .map(|(t, n, _)| (t.as_str(), n.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("Request", "Ingest"),
                ("Request", "Stats"),
                ("ServiceReport", "ingested_keys")
            ]
        );
        assert!(doc.version_table.is_none());
    }

    #[test]
    fn version_table_rows_are_parsed_and_do_not_leak_into_groups() {
        let md = "## 1. Wire protocol reference (machine-checked)\n\n### Request\n\n- `Ingest` — enqueue keys.\n\n### Version compatibility\n\n| version | status | ops |\n|---|---|---|\n| 1 | unsupported | `Ingest`, `Stats` |\n| 2 | current | `Hello` |\n";
        let doc = parse_wire_reference(md);
        assert_eq!(doc.types, vec!["Request"], "the table is not a type group");
        let table = doc.version_table.expect("table parsed");
        assert_eq!(table.rows.len(), 2, "header and separator are skipped");
        assert_eq!(table.rows[0].version, "1");
        assert_eq!(table.rows[0].status, "unsupported");
        assert_eq!(table.rows[0].ops, vec!["Ingest", "Stats"]);
        assert_eq!(table.rows[1].version, "2");
        assert_eq!(table.rows[1].status, "current");
        assert_eq!(table.rows[1].ops, vec!["Hello"]);
    }

    #[test]
    fn proto_version_const_is_extracted() {
        let src = "/// Doc.\npub const MIN_PROTO_VERSION: u32 = 1;\n/// Doc.\npub const PROTO_VERSION: u32 = 2;\n";
        let lines = lex(src);
        let (version, line) = proto_version(&lines).unwrap();
        assert_eq!(version, "2");
        assert_eq!(line, 4, "MIN_PROTO_VERSION must not match by substring");
    }

    #[test]
    fn nested_enum_payload_braces_do_not_leak_variants() {
        let src = "pub enum Response {\n    Answer {\n        entries: Vec<Entry>,\n        total: u64,\n    },\n    Error(String),\n}\n";
        let lines = lex(src);
        let members = item_members(&lines, "Response", true).unwrap();
        let names: Vec<&str> = members.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Answer", "Error"]);
    }
}
