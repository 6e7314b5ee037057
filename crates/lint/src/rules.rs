//! The rule set and its token-level matchers.
//!
//! Four rules, each scoped to the paths where its property is
//! load-bearing (fixtures opt in via a `// marea-lint: scope(...)`
//! pragma so the corpus can live outside the real trees):
//!
//! * **D1** — no raw `HashMap`/`HashSet` iteration on wire-send paths.
//!   Send order decides how the deterministic netsim RNG stream maps
//!   onto datagrams, so hash-order iteration silently breaks
//!   bit-identical replay. Keep swept state in an ordered map; a walk
//!   whose order provably cannot reach the wire takes a waiver that
//!   says why.
//! * **D2** — no ambient nondeterminism (`Instant::now`,
//!   `SystemTime::now`, `thread::sleep`, `thread_rng`) outside the
//!   real-time transport boundary.
//! * **R1** — no `unwrap`/`expect`/`panic!` in `crates/protocol` or the
//!   container hot paths.
//! * **O1** — no string allocation (`format!`, `.to_string()`,
//!   `String::from`/`new`, `.to_owned()`) inside `TraceEvent`,
//!   `MetricsFrame` or `LinkFrame` construction, `.record(…)` argument
//!   lists, or `fn sample_*` bodies (the metrics sampler's per-period
//!   path). The flight recorder runs on every publish/deliver and the
//!   sampler on every period; record/sample time must only move
//!   interned `Name`s and Copy scalars — rendering happens lazily at
//!   query time.
//!
//! Matchers run over the scrubbed token stream (comments and literal
//! contents already removed), so text inside strings or docs can never
//! fire a rule.

use crate::tokens::{matching_brace, Tok, TokKind};
use std::collections::BTreeSet;

/// Static description of one rule, for `--list-rules` and reports.
pub struct RuleInfo {
    pub id: &'static str,
    pub title: &'static str,
    pub hint: &'static str,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        title: "raw hash-map iteration on a wire-send path",
        hint: "keep the swept state in a `BTreeMap`/`BTreeSet`, or waive with why iteration \
               order cannot reach the wire",
    },
    RuleInfo {
        id: "D2",
        title: "ambient nondeterminism outside the real-time boundary",
        hint: "use the sim clock (`Micros` timestamps threaded from the harness); only the \
               real-time transport layer may touch the wall clock",
    },
    RuleInfo {
        id: "R1",
        title: "panic path (`unwrap`/`expect`/`panic!`) in protocol/container hot paths",
        hint: "handle the None/Err arm (let-else, match) or return a protocol error; hot \
               paths must stay panic-free",
    },
    RuleInfo {
        id: "O1",
        title: "string allocation on a flight-recorder record or metrics sample path",
        hint: "TraceEvent/MetricsFrame/LinkFrame fields carry interned `Name`s and Copy \
               scalars only; render lazily at query time (render_event/to_jsonl), never \
               allocate at record or sample time",
    },
];

pub fn rule_hint(id: &str) -> &'static str {
    RULES.iter().find(|r| r.id == id).map(|r| r.hint).unwrap_or("")
}

/// Everything the matchers need to know about one file.
pub struct FileCx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    pub toks: &'a [Tok],
    /// Union of identifiers declared as `HashMap`/`HashSet` anywhere in
    /// the analyzed set (fields cross module boundaries: `self.vars
    /// .subscribed` in `container.rs` is declared in `engines/vars.rs`).
    pub hash_idents: &'a BTreeSet<String>,
    /// Inclusive line ranges of `#[cfg(test)] mod … { … }` regions.
    pub test_lines: Vec<(usize, usize)>,
    /// Lowercased rule ids force-scoped in via a file pragma.
    pub pragma_scopes: BTreeSet<String>,
    /// True for files under `tests/` directories.
    pub is_test_file: bool,
}

/// A finding before waiver matching.
#[derive(Debug, Clone)]
pub struct RawFinding {
    pub rule: &'static str,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl<'a> FileCx<'a> {
    fn in_test_region(&self, line: usize) -> bool {
        self.test_lines.iter().any(|(a, b)| (*a..=*b).contains(&line))
    }

    fn has_pragma(&self, rule: &str) -> bool {
        self.pragma_scopes.contains(&rule.to_ascii_lowercase())
    }
}

// ---- scoping ------------------------------------------------------------

/// The core tick path: the container and every component it wires —
/// the link table, the four engines, the gossip and timer components,
/// the directory. Whatever a tick sends, decides or records lives in one
/// of these, so D1, R1 and O1 all cover them.
const CORE_TICK_PATH: &[&str] = &[
    "crates/core/src/container.rs",
    "crates/core/src/link.rs",
    "crates/core/src/engines/",
    "crates/core/src/gossip.rs",
    "crates/core/src/timers.rs",
    "crates/core/src/directory.rs",
];

fn on_core_tick_path(path: &str) -> bool {
    CORE_TICK_PATH
        .iter()
        .any(|p| if p.ends_with('/') { path.contains(p) } else { path.ends_with(p) })
}

/// Wire-send paths: the core tick path and the whole netsim + protocol
/// crates.
fn d1_in_scope(cx: &FileCx) -> bool {
    if cx.has_pragma("d1") {
        return true;
    }
    if cx.is_test_file {
        return false;
    }
    let p = cx.path;
    on_core_tick_path(p) || p.contains("crates/netsim/src/") || p.contains("crates/protocol/src/")
}

/// Everywhere except the real-time transport layer and the vendored
/// stand-in crates (which implement the timing primitives themselves).
fn d2_in_scope(cx: &FileCx) -> bool {
    if cx.has_pragma("d2") {
        return true;
    }
    let p = cx.path;
    !(p.contains("crates/transport/src/") || p.contains("support/"))
}

/// Protocol crate + the core tick path.
fn r1_in_scope(cx: &FileCx) -> bool {
    if cx.has_pragma("r1") {
        return true;
    }
    if cx.is_test_file {
        return false;
    }
    let p = cx.path;
    p.contains("crates/protocol/src/") || on_core_tick_path(p)
}

/// The flight-recorder record path — the trace module itself plus what
/// constructs [`TraceEvent`]s or calls `.record(…)` per message (the
/// core tick path and the harness crash/restart markers) — and the
/// metrics sampler, whose `sample_*` fns run on every sampling period.
fn o1_in_scope(cx: &FileCx) -> bool {
    if cx.has_pragma("o1") {
        return true;
    }
    if cx.is_test_file {
        return false;
    }
    let p = cx.path;
    p.ends_with("crates/core/src/trace.rs")
        || on_core_tick_path(p)
        || p.ends_with("crates/core/src/harness.rs")
        || p.ends_with("crates/core/src/metrics.rs")
}

// ---- file structure -----------------------------------------------------

/// Finds `#[cfg(test)] mod … { … }` line ranges.
pub fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let hit = toks[i].is('#')
            && toks[i + 1].is('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is(')')
            && toks[i + 6].is(']');
        if !hit {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip further attributes and visibility between the cfg and
        // the item keyword.
        loop {
            if j < toks.len() && toks[j].is('#') {
                while j < toks.len() && !toks[j].is(']') {
                    j += 1;
                }
                j += 1;
            } else if j < toks.len() && toks[j].is_ident("pub") {
                j += 1;
                if j < toks.len() && toks[j].is('(') {
                    while j < toks.len() && !toks[j].is(')') {
                        j += 1;
                    }
                    j += 1;
                }
            } else {
                break;
            }
        }
        if j < toks.len() && toks[j].is_ident("mod") {
            if let Some(open) = toks[j..].iter().position(|t| t.is('{')) {
                let close = matching_brace(toks, j + open);
                out.push((toks[i].line, toks[close].line));
                i = close;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type or
/// initializer: `name: HashMap<..>`, `name: &HashSet<..>`,
/// `let [mut] name = HashMap::new()` / `::with_capacity(..)` /
/// `::from(..)`.
pub fn collect_hash_idents(toks: &[Tok], into: &mut BTreeSet<String>) {
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over path/reference noise to the `:` or `=` that
        // binds this type to a name.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            if p.is(':') || p.is_ident("std") || p.is_ident("collections") || p.is('&') || p.is('<')
            {
                j -= 1;
            } else {
                break;
            }
        }
        // `j` now points at the first token of the type path; the token
        // before it is `:` (consumed above) — recompute: find the
        // binder immediately before the type path.
        let mut k = j;
        // Skip any consumed `:`/`<`/`&` run to find the binder token.
        while k > 0 && (toks[k - 1].is(':') || toks[k - 1].is('<') || toks[k - 1].is('&')) {
            k -= 1;
        }
        if k == 0 {
            continue;
        }
        let binder = &toks[k - 1];
        if binder.kind == TokKind::Ident
            && !matches!(binder.text.as_str(), "use" | "mut" | "pub" | "in" | "as")
        {
            // `name : HashMap<..>` — field, param or ascribed let.
            into.insert(binder.text.clone());
        } else if binder.is('=') {
            // `let [mut] name = HashMap::new()`.
            let mut m = k - 1;
            if m > 0 {
                m -= 1;
                if m > 0 && toks[m].is_ident("mut") {
                    m -= 1;
                }
                if toks[m].kind == TokKind::Ident && !toks[m].is_ident("let") {
                    into.insert(toks[m].text.clone());
                }
            }
        }
    }
}

// ---- matchers -----------------------------------------------------------

const ITER_METHODS: &[&str] = &["iter", "iter_mut", "keys", "values", "values_mut", "drain"];

/// Runs every enabled rule over one file.
pub fn detect(cx: &FileCx, disabled: &BTreeSet<String>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let on = |id: &str| !disabled.contains(id);
    if on("D1") && d1_in_scope(cx) {
        detect_d1(cx, &mut out);
    }
    if on("D2") && d2_in_scope(cx) {
        detect_d2(cx, &mut out);
    }
    if on("R1") && r1_in_scope(cx) {
        detect_r1(cx, &mut out);
    }
    if on("O1") && o1_in_scope(cx) {
        detect_o1(cx, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.col));
    out
}

fn detect_d1(cx: &FileCx, out: &mut Vec<RawFinding>) {
    let toks = cx.toks;
    // `map.iter()` / `.keys()` / … method form.
    for i in 2..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !ITER_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if !(i + 1 < toks.len() && toks[i + 1].is('(') && toks[i - 1].is('.')) {
            continue;
        }
        let recv = &toks[i - 2];
        if recv.kind == TokKind::Ident
            && cx.hash_idents.contains(&recv.text)
            && !cx.in_test_region(t.line)
        {
            out.push(RawFinding {
                rule: "D1",
                line: t.line,
                col: t.col,
                message: format!(
                    "hash-order iteration `{}.{}()` on a wire-send path",
                    recv.text, t.text
                ),
            });
        }
    }
    // `for … in &map` form (method form is caught above).
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("for") || (i + 1 < toks.len() && toks[i + 1].is('<')) {
            i += 1;
            continue;
        }
        // Find the `in` of this loop header (bounded scan; give up at
        // `{`, `;` or unbalanced pattern syntax).
        let mut depth = 0i32;
        let mut in_idx = None;
        for (j, t) in toks.iter().enumerate().take(toks.len().min(i + 48)).skip(i + 1) {
            if t.is('(') || t.is('[') {
                depth += 1;
            } else if t.is(')') || t.is(']') {
                depth -= 1;
            } else if depth == 0 && (t.is('{') || t.is(';')) {
                break;
            } else if depth == 0 && t.is_ident("in") {
                in_idx = Some(j);
                break;
            }
        }
        let Some(j) = in_idx else {
            i += 1;
            continue;
        };
        // Expression tokens until the body `{`.
        let mut expr = Vec::new();
        let mut depth = 0i32;
        for t in &toks[j + 1..] {
            if depth == 0 && t.is('{') {
                break;
            }
            if t.is('(') || t.is('[') {
                depth += 1;
            } else if t.is(')') || t.is(']') {
                depth -= 1;
            }
            expr.push(t);
        }
        // Shape: `&` [`mut`] ident (`.` ident)* ending in a hash ident.
        let flagged = match expr.split_first() {
            Some((amp, rest)) if amp.is('&') => {
                let rest: Vec<_> = rest.iter().filter(|t| !t.is_ident("mut")).copied().collect();
                let path_ok = !rest.is_empty()
                    && rest.iter().enumerate().all(|(k, t)| {
                        if k % 2 == 0 {
                            t.kind == TokKind::Ident
                        } else {
                            t.is('.')
                        }
                    });
                path_ok && rest.last().map(|t| cx.hash_idents.contains(&t.text)).unwrap_or(false)
            }
            _ => false,
        };
        if flagged && !cx.in_test_region(toks[i].line) {
            let last = expr.last().unwrap();
            out.push(RawFinding {
                rule: "D1",
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "hash-order iteration `for … in &{}` on a wire-send path",
                    last.text
                ),
            });
        }
        i = j;
    }
}

fn detect_d2(cx: &FileCx, out: &mut Vec<RawFinding>) {
    let toks = cx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // Previous identifier, skipping the `::` path separator.
        let prev_ident = {
            let mut j = i;
            loop {
                if j == 0 {
                    break None;
                }
                j -= 1;
                match toks[j].kind {
                    TokKind::Punct if toks[j].is(':') => continue,
                    TokKind::Ident => break Some(&toks[j]),
                    _ => break None,
                }
            }
        };
        let finding = match t.text.as_str() {
            "now" => match prev_ident {
                Some(p) if p.is_ident("Instant") || p.is_ident("SystemTime") => {
                    Some((p.line, p.col, format!("wall-clock read `{}::now`", p.text)))
                }
                _ => None,
            },
            "sleep" => match prev_ident {
                Some(p) if p.is_ident("thread") => {
                    Some((p.line, p.col, "real-time stall `thread::sleep`".to_string()))
                }
                _ => None,
            },
            "thread_rng" => {
                Some((t.line, t.col, "ambient RNG `thread_rng` (seedless)".to_string()))
            }
            _ => None,
        };
        if let Some((line, col, message)) = finding {
            out.push(RawFinding { rule: "D2", line, col, message });
        }
    }
}

/// Token-index ranges of flight-recorder record-time and metrics
/// sample-time constructions: `TraceEvent { … }` / `MetricsFrame { … }`
/// / `LinkFrame { … }` literals, `.record( … )` argument lists, and
/// `fn sample_*` bodies (the sampler's whole per-period path).
fn o1_record_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if (t.is_ident("TraceEvent") || t.is_ident("MetricsFrame") || t.is_ident("LinkFrame"))
            && i + 1 < toks.len()
            && toks[i + 1].is('{')
        {
            out.push((i + 1, matching_brace(toks, i + 1)));
        }
        if t.is_ident("fn") && i + 1 < toks.len() && toks[i + 1].text.starts_with("sample_") {
            if let Some(open) = toks[i..].iter().position(|u| u.is('{')) {
                out.push((i + open, matching_brace(toks, i + open)));
            }
        }
        if t.is_ident("record")
            && i >= 1
            && toks[i - 1].is('.')
            && i + 1 < toks.len()
            && toks[i + 1].is('(')
        {
            // Matching close paren by depth scan.
            let mut depth = 0i32;
            for (j, u) in toks.iter().enumerate().skip(i + 1) {
                if u.is('(') {
                    depth += 1;
                } else if u.is(')') {
                    depth -= 1;
                    if depth == 0 {
                        out.push((i + 1, j));
                        break;
                    }
                }
            }
        }
    }
    out
}

fn detect_o1(cx: &FileCx, out: &mut Vec<RawFinding>) {
    let toks = cx.toks;
    // Ranges can nest (a `MetricsFrame { … }` literal inside a
    // `fn sample_*` body); dedup by position so each allocation is
    // reported once.
    let mut found = Vec::new();
    for (open, close) in o1_record_ranges(toks) {
        for i in open..close {
            let t = &toks[i];
            if t.kind != TokKind::Ident || cx.in_test_region(t.line) {
                continue;
            }
            let alloc = match t.text.as_str() {
                "format" if i + 1 < toks.len() && toks[i + 1].is('!') => {
                    Some("`format!` allocates".to_string())
                }
                "to_string" | "to_owned"
                    if toks[i - 1].is('.') && i + 1 < toks.len() && toks[i + 1].is('(') =>
                {
                    Some(format!("`.{}()` allocates", t.text))
                }
                "String" => {
                    // `String::from(..)` / `String::new()`.
                    let mut j = i + 1;
                    while j < toks.len() && toks[j].is(':') {
                        j += 1;
                    }
                    match toks.get(j) {
                        Some(n) if n.is_ident("from") || n.is_ident("new") => {
                            Some(format!("`String::{}` allocates", n.text))
                        }
                        _ => None,
                    }
                }
                _ => None,
            };
            if let Some(what) = alloc {
                found.push(RawFinding {
                    rule: "O1",
                    line: t.line,
                    col: t.col,
                    message: format!("{what} at record/sample time"),
                });
            }
        }
    }
    found.sort_by_key(|f| (f.line, f.col));
    found.dedup_by_key(|f| (f.line, f.col));
    out.append(&mut found);
}

fn detect_r1(cx: &FileCx, out: &mut Vec<RawFinding>) {
    let toks = cx.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || cx.in_test_region(t.line) {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect"
                if i >= 1 && toks[i - 1].is('.') && i + 1 < toks.len() && toks[i + 1].is('(') =>
            {
                out.push(RawFinding {
                    rule: "R1",
                    line: t.line,
                    col: t.col,
                    message: format!("panic path `.{}()` in a hot path", t.text),
                });
            }
            "panic" if i + 1 < toks.len() && toks[i + 1].is('!') => {
                out.push(RawFinding {
                    rule: "R1",
                    line: t.line,
                    col: t.col,
                    message: "explicit `panic!` in a hot path".to_string(),
                });
            }
            _ => {}
        }
    }
}
