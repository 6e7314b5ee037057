//! Fixture-driven end-to-end tests.
//!
//! Each rule is proven *live* three ways: it fires on its violation
//! fixture at exact lines, it goes silent when disabled (so a fixture
//! test failure means the rule itself regressed, not the corpus), and
//! the clean counterparts stay quiet. A final test lints the real
//! workspace so `cargo test` gates the same invariant CI does.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use marea_lint::{explicit_files, lint_files, lint_workspace, Options, Report};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint_fixture(name: &str, disabled: &[&str]) -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    let files = explicit_files(&[fixture(name)]).expect("fixture exists");
    let opts = Options {
        disabled: disabled.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>(),
        deny_warnings: true,
    };
    lint_files(&root, &files, &opts).expect("lint runs")
}

fn lines_of(report: &Report, rule: &str) -> Vec<usize> {
    report.of_rule(rule).iter().map(|f| f.line).collect()
}

#[test]
fn d1_fires_on_exact_lines_and_dies_when_disabled() {
    let on = lint_fixture("violations/d1.rs", &[]);
    assert_eq!(lines_of(&on, "D1"), vec![14, 17, 20, 27], "findings: {:?}", on.findings);
    assert_eq!(on.findings.len(), 4, "only D1 should fire: {:?}", on.findings);
    let off = lint_fixture("violations/d1.rs", &["D1"]);
    assert!(off.findings.is_empty(), "disabled rule must go silent: {:?}", off.findings);
}

#[test]
fn d2_fires_on_exact_lines_and_dies_when_disabled() {
    let on = lint_fixture("violations/d2.rs", &[]);
    assert_eq!(lines_of(&on, "D2"), vec![6, 7, 8, 9], "findings: {:?}", on.findings);
    assert_eq!(on.findings.len(), 4, "only D2 should fire: {:?}", on.findings);
    let off = lint_fixture("violations/d2.rs", &["D2"]);
    assert!(off.findings.is_empty(), "disabled rule must go silent: {:?}", off.findings);
}

#[test]
fn r1_fires_on_exact_lines_and_dies_when_disabled() {
    let on = lint_fixture("violations/r1.rs", &[]);
    assert_eq!(lines_of(&on, "R1"), vec![5, 6, 8], "findings: {:?}", on.findings);
    assert_eq!(on.findings.len(), 3, "only R1 should fire: {:?}", on.findings);
    let off = lint_fixture("violations/r1.rs", &["R1"]);
    assert!(off.findings.is_empty(), "disabled rule must go silent: {:?}", off.findings);
}

#[test]
fn o1_fires_on_exact_lines_and_dies_when_disabled() {
    let on = lint_fixture("violations/o1.rs", &[]);
    assert_eq!(lines_of(&on, "O1"), vec![12, 14, 15, 16], "findings: {:?}", on.findings);
    assert_eq!(on.findings.len(), 4, "only O1 should fire: {:?}", on.findings);
    let off = lint_fixture("violations/o1.rs", &["O1"]);
    assert!(off.findings.is_empty(), "disabled rule must go silent: {:?}", off.findings);
}

#[test]
fn o1_ignores_allocation_outside_the_record_path() {
    let report = lint_fixture("clean/o1.rs", &[]);
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
}

#[test]
fn o1_fires_on_metrics_shaped_sample_paths() {
    // The sampler extension: frame literals and `fn sample_*` bodies
    // are record-time just like `TraceEvent`/`.record(…)`.
    let on = lint_fixture("violations/metrics_o1.rs", &[]);
    assert_eq!(lines_of(&on, "O1"), vec![10, 12, 17, 18], "findings: {:?}", on.findings);
    assert_eq!(on.findings.len(), 4, "only O1 should fire: {:?}", on.findings);
    let off = lint_fixture("violations/metrics_o1.rs", &["O1"]);
    assert!(off.findings.is_empty(), "disabled rule must go silent: {:?}", off.findings);
}

#[test]
fn o1_ignores_query_time_rendering_of_the_metrics_timeline() {
    let report = lint_fixture("clean/metrics_o1.rs", &[]);
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
}

#[test]
fn d1_fires_on_fec_shaped_shard_fanout() {
    // The fec module sits on `crates/protocol/src/` and is therefore
    // inside D1's scope automatically; this fixture proves the rule
    // recognises the module's characteristic shape (per-group repair
    // shard fan-out driven by a hash map).
    let on = lint_fixture("violations/fec_d1.rs", &[]);
    assert_eq!(lines_of(&on, "D1"), vec![15, 20], "findings: {:?}", on.findings);
    assert_eq!(on.findings.len(), 2, "only D1 should fire: {:?}", on.findings);
    let off = lint_fixture("violations/fec_d1.rs", &["D1"]);
    assert!(off.findings.is_empty(), "disabled rule must go silent: {:?}", off.findings);
}

#[test]
fn r1_fires_on_fec_shaped_decode_panics() {
    let on = lint_fixture("violations/fec_r1.rs", &[]);
    assert_eq!(lines_of(&on, "R1"), vec![6, 7, 9], "findings: {:?}", on.findings);
    assert_eq!(on.findings.len(), 3, "only R1 should fire: {:?}", on.findings);
    let off = lint_fixture("violations/fec_r1.rs", &["R1"]);
    assert!(off.findings.is_empty(), "disabled rule must go silent: {:?}", off.findings);
}

#[test]
fn fec_module_is_inside_the_hot_path_scopes() {
    // Scope is path-derived, so linting the real fec sources exercises
    // the same `crates/protocol/src/` prefix the rules key on: a module
    // moved out of the hot-path set would silently lose both rules.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root");
    let fec = root.join("crates/protocol/src/fec");
    let files = explicit_files(&[
        fec.join("mod.rs"),
        fec.join("block.rs"),
        fec.join("rate.rs"),
        fec.join("adapt.rs"),
    ])
    .expect("fec sources exist");
    let report = lint_files(root, &files, &Options::default()).expect("lint runs");
    assert!(report.findings.is_empty(), "fec must lint clean:\n{}", report.render_text());
}

#[test]
fn malformed_waiver_reports_w0_and_does_not_suppress() {
    let report = lint_fixture("violations/w0.rs", &[]);
    assert_eq!(lines_of(&report, "W0"), vec![7], "findings: {:?}", report.findings);
    assert_eq!(lines_of(&report, "D1"), vec![8], "the broken waiver must not hide the D1");
}

#[test]
fn every_finding_carries_a_span_and_a_hint() {
    for name in [
        "violations/d1.rs",
        "violations/d2.rs",
        "violations/r1.rs",
        "violations/o1.rs",
        "violations/metrics_o1.rs",
        "violations/fec_d1.rs",
        "violations/fec_r1.rs",
    ] {
        for f in &lint_fixture(name, &[]).findings {
            assert!(f.line > 0 && f.col > 0, "zero span in {name}: {f:?}");
            assert!(!f.hint.is_empty(), "missing hint in {name}: {f:?}");
        }
    }
}

#[test]
fn violation_text_in_strings_and_comments_is_ignored() {
    let report = lint_fixture("clean/tricky.rs", &[]);
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
}

#[test]
fn waiver_with_reason_suppresses_and_is_recorded_as_used() {
    let report = lint_fixture("clean/waived.rs", &[]);
    assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
    assert_eq!(report.waivers.len(), 1);
    assert!(report.waivers[0].used);
    assert_eq!(report.waivers[0].reason, "order-free cardinality count");
    assert_eq!(report.exit_code(true), 0);
}

#[test]
fn workspace_is_clean() {
    // Mirror of the CI gate: the repo itself must lint clean, with no
    // unused waivers, under the default rule set.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root");
    let report = lint_workspace(root, &Options::default()).expect("lint runs");
    assert!(report.findings.is_empty(), "workspace must lint clean:\n{}", report.render_text());
    assert_eq!(report.unused_waivers(), 0, "stale waivers:\n{}", report.render_text());
}
