//! `marea-lint`: a repo-aware static analysis pass.
//!
//! The MAREA codebase carries guarantees that `rustc` cannot see:
//! bit-identical replay requires every wire-send sweep to walk in a stable
//! order, the sim must never read the wall clock, and protocol/container
//! hot paths must not panic. This crate turns those conventions into machine
//! checks: a dependency-free lexer (no `syn`) scrubs each `.rs` file,
//! tokenizes it, and runs the rule set in [`rules`] with span-accurate
//! diagnostics.
//!
//! Violations can be waived inline —
//!
//! ```text
//! // marea-lint: allow(D2): SystemClock is the explicit real-time boundary
//! ```
//!
//! — the reason is mandatory, waivers apply to their own line or the
//! line below, and every waiver is reported in a summary table (unused
//! waivers are warnings, and errors under `--deny-warnings`). Fixture
//! files opt into path-scoped rules with `// marea-lint: scope(d1, r1)`.

pub mod rules;
pub mod scrub;
pub mod tokens;

use rules::{collect_hash_idents, detect, rule_hint, test_regions, FileCx};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Analyzer configuration.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Rule ids (uppercase) to skip entirely.
    pub disabled: BTreeSet<String>,
    /// Treat warnings (unused waivers) as errors.
    pub deny_warnings: bool,
}

/// One diagnostic that survived waiver matching.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub rule: String,
    pub message: String,
    pub hint: String,
}

/// One `allow(...)` waiver, used or not.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    pub file: String,
    pub line: usize,
    pub rules: Vec<String>,
    pub reason: String,
    pub used: bool,
}

/// The full result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub waivers: Vec<WaiverRecord>,
    pub files_scanned: usize,
}

impl Report {
    pub fn unused_waivers(&self) -> usize {
        self.waivers.iter().filter(|w| !w.used).count()
    }

    /// `0` clean, `1` findings (or unused waivers under deny).
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        if !self.findings.is_empty() || (deny_warnings && self.unused_waivers() > 0) {
            1
        } else {
            0
        }
    }

    /// Findings for one rule id (test helper).
    pub fn of_rule(&self, rule: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            let _ = writeln!(s, "{}:{}:{}: {}: {}", f.file, f.line, f.col, f.rule, f.message);
            if !f.hint.is_empty() {
                let _ = writeln!(s, "  hint: {}", f.hint);
            }
        }
        if !self.waivers.is_empty() {
            let _ = writeln!(
                s,
                "== waivers ({} used, {} unused)",
                self.waivers.iter().filter(|w| w.used).count(),
                self.unused_waivers()
            );
            for w in &self.waivers {
                let _ = writeln!(
                    s,
                    "  {}:{} {} [{}] {}",
                    w.file,
                    w.line,
                    if w.used { "used  " } else { "UNUSED" },
                    w.rules.join(","),
                    w.reason
                );
            }
        }
        let _ = writeln!(
            s,
            "== {} file(s) scanned, {} finding(s), {} waiver(s)",
            self.files_scanned,
            self.findings.len(),
            self.waivers.len()
        );
        s
    }

    /// Machine-readable report.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \
                 \"message\": {}, \"hint\": {}}}",
                if i > 0 { "," } else { "" },
                json_str(&f.file),
                f.line,
                f.col,
                json_str(&f.rule),
                json_str(&f.message),
                json_str(&f.hint),
            );
        }
        s.push_str("\n  ],\n  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            let rules: Vec<String> = w.rules.iter().map(|r| json_str(r)).collect();
            let _ = write!(
                s,
                "{}\n    {{\"file\": {}, \"line\": {}, \"rules\": [{}], \"reason\": {}, \
                 \"used\": {}}}",
                if i > 0 { "," } else { "" },
                json_str(&w.file),
                w.line,
                rules.join(", "),
                json_str(&w.reason),
                w.used,
            );
        }
        let _ = write!(
            s,
            "\n  ],\n  \"summary\": {{\"files\": {}, \"findings\": {}, \"waivers_used\": {}, \
             \"waivers_unused\": {}}}\n}}\n",
            self.files_scanned,
            self.findings.len(),
            self.waivers.iter().filter(|w| w.used).count(),
            self.unused_waivers(),
        );
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---- waiver / pragma parsing -------------------------------------------

const VALID_RULES: &[&str] = &["D1", "D2", "R1", "O1"];

enum Directive {
    Allow { rules: Vec<String>, reason: String },
    Scope { rules: Vec<String> },
    Malformed { why: String },
}

/// Parses a `marea-lint:` directive out of a comment, if present.
fn parse_directive(comment: &str) -> Option<Directive> {
    let at = comment.find("marea-lint:")?;
    let rest = comment[at + "marea-lint:".len()..].trim_start();
    let parse_ids = |inner: &str| -> Result<Vec<String>, String> {
        let mut ids = Vec::new();
        for raw in inner.split(',') {
            let id = raw.trim().to_ascii_uppercase();
            if id.is_empty() {
                continue;
            }
            if !VALID_RULES.contains(&id.as_str()) {
                return Err(format!("unknown rule id `{}`", raw.trim()));
            }
            ids.push(id);
        }
        if ids.is_empty() {
            Err("empty rule list".to_string())
        } else {
            Ok(ids)
        }
    };
    if let Some(body) = rest.strip_prefix("allow(") {
        let Some(close) = body.find(')') else {
            return Some(Directive::Malformed { why: "unclosed `allow(`".into() });
        };
        let rules = match parse_ids(&body[..close]) {
            Ok(r) => r,
            Err(why) => return Some(Directive::Malformed { why }),
        };
        let after = body[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':') else {
            return Some(Directive::Malformed {
                why: "missing `: <reason>` — waiver reasons are mandatory".into(),
            });
        };
        let reason = reason.trim();
        if reason.is_empty() {
            return Some(Directive::Malformed {
                why: "empty reason — waiver reasons are mandatory".into(),
            });
        }
        Some(Directive::Allow { rules, reason: reason.to_string() })
    } else if let Some(body) = rest.strip_prefix("scope(") {
        let Some(close) = body.find(')') else {
            return Some(Directive::Malformed { why: "unclosed `scope(`".into() });
        };
        match parse_ids(&body[..close]) {
            Ok(rules) => Some(Directive::Scope { rules }),
            Err(why) => Some(Directive::Malformed { why }),
        }
    } else {
        Some(Directive::Malformed {
            why: "expected `allow(<rules>): <reason>` or `scope(<rules>)`".into(),
        })
    }
}

// ---- file discovery -----------------------------------------------------

/// Directory names never descended into.
const ALWAYS_SKIP: &[&str] = &["target", ".git", ".github"];

/// Extra skips for whole-workspace runs: vendored stand-ins are
/// third-party mimicry (they may use the wall clock by design) and the
/// lint's own fixture corpus is violations on purpose.
const WORKSPACE_SKIP: &[&str] = &["support", "fixtures"];

fn walk_into(dir: &Path, skip_vendored: bool, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> =
        fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if ALWAYS_SKIP.contains(&name) || (skip_vendored && WORKSPACE_SKIP.contains(&name)) {
                continue;
            }
            walk_into(&path, skip_vendored, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every analyzable `.rs` file under a workspace root.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk_into(root, true, &mut out)?;
    Ok(out)
}

/// `.rs` files under explicitly requested paths (fixtures included).
pub fn explicit_files(paths: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for p in paths {
        if p.is_dir() {
            walk_into(p, false, &mut out)?;
        } else {
            out.push(p.clone());
        }
    }
    Ok(out)
}

// ---- the engine ---------------------------------------------------------

struct FilePrep {
    rel: String,
    toks: Vec<tokens::Tok>,
    comments: Vec<scrub::Comment>,
}

fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.to_string_lossy().replace('\\', "/")
}

/// Lints an explicit file set. `root` only shortens reported paths.
pub fn lint_files(root: &Path, files: &[PathBuf], opts: &Options) -> io::Result<Report> {
    // Pass 1: lex everything and build the repo-wide map-identifier
    // set (fields used in `container.rs` are declared in the engine
    // modules, so D1 needs cross-file knowledge).
    let mut preps = Vec::new();
    let mut hash_idents = BTreeSet::new();
    for file in files {
        let src = fs::read_to_string(file)?;
        let scrubbed = scrub::scrub(&src);
        let toks = tokens::tokenize(&scrubbed.code);
        collect_hash_idents(&toks, &mut hash_idents);
        preps.push(FilePrep { rel: rel_path(root, file), toks, comments: scrubbed.comments });
    }

    // Pass 2: run the rules per file and match waivers.
    let mut report = Report { files_scanned: preps.len(), ..Report::default() };
    for prep in &preps {
        let mut pragma_scopes = BTreeSet::new();
        let mut waivers: Vec<WaiverRecord> = Vec::new();
        for c in &prep.comments {
            // Directives live in plain `//` comments only: doc comments
            // are documentation and may legitimately *quote* the waiver
            // syntax (as this crate's own docs do).
            if c.text.starts_with("///")
                || c.text.starts_with("//!")
                || c.text.starts_with("/**")
                || c.text.starts_with("/*!")
            {
                continue;
            }
            match parse_directive(&c.text) {
                None => {}
                Some(Directive::Allow { rules, reason }) => waivers.push(WaiverRecord {
                    file: prep.rel.clone(),
                    line: c.line,
                    rules,
                    reason,
                    used: false,
                }),
                Some(Directive::Scope { rules }) => {
                    pragma_scopes.extend(rules.into_iter().map(|r| r.to_ascii_lowercase()));
                }
                Some(Directive::Malformed { why }) => report.findings.push(Finding {
                    file: prep.rel.clone(),
                    line: c.line,
                    col: c.col,
                    rule: "W0".to_string(),
                    message: format!("malformed marea-lint directive: {why}"),
                    hint: "syntax: // marea-lint: allow(D1[, R1]): <reason>".to_string(),
                }),
            }
        }

        let cx = FileCx {
            path: &prep.rel,
            toks: &prep.toks,
            hash_idents: &hash_idents,
            test_lines: test_regions(&prep.toks),
            pragma_scopes,
            is_test_file: prep.rel.contains("/tests/") || prep.rel.starts_with("tests/"),
        };
        for raw in detect(&cx, &opts.disabled) {
            // A waiver covers its own line and the line directly below.
            let waived = waivers.iter_mut().find(|w| {
                (w.line == raw.line || w.line + 1 == raw.line)
                    && w.rules.iter().any(|r| r == raw.rule)
            });
            if let Some(w) = waived {
                w.used = true;
                continue;
            }
            report.findings.push(Finding {
                file: prep.rel.clone(),
                line: raw.line,
                col: raw.col,
                rule: raw.rule.to_string(),
                message: raw.message,
                hint: rule_hint(raw.rule).to_string(),
            });
        }
        report.waivers.extend(waivers);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Ok(report)
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path, opts: &Options) -> io::Result<Report> {
    let files = workspace_files(root)?;
    lint_files(root, &files, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_parsing_accepts_good_waivers() {
        match parse_directive("// marea-lint: allow(D1, r1): order-free count") {
            Some(Directive::Allow { rules, reason }) => {
                assert_eq!(rules, vec!["D1".to_string(), "R1".to_string()]);
                assert_eq!(reason, "order-free count");
            }
            _ => unreachable!("expected Allow"),
        }
    }

    #[test]
    fn directive_parsing_rejects_missing_reason() {
        assert!(matches!(
            parse_directive("// marea-lint: allow(D1)"),
            Some(Directive::Malformed { .. })
        ));
        assert!(matches!(
            parse_directive("// marea-lint: allow(D1):   "),
            Some(Directive::Malformed { .. })
        ));
        // Unknown ids — never defined (Z9) or retired (Q1) — are malformed,
        // not silent waivers.
        for unknown in ["// marea-lint: allow(Z9): nope", "// marea-lint: allow(Q1): nope"] {
            assert!(matches!(parse_directive(unknown), Some(Directive::Malformed { .. })));
        }
    }

    #[test]
    fn non_directives_are_ignored() {
        assert!(parse_directive("// plain comment about sorting").is_none());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
