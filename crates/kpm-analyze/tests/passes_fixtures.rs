//! Seeded-bug fixtures for `panic_path` and the unused-suppression
//! audit: a planted cross-crate panic it must catch, a vetted site it
//! must not propagate, and stale / used / vetted markers. These drive
//! [`kpm_analyze::analyze_sources`] end to end — lexer, parser, call
//! graph, suppression filtering, and the audit.

use kpm_analyze::lints::{FileClass, FileInput};
use kpm_analyze::workspace::Report;
use kpm_analyze::Diagnostic;

fn input(crate_name: &str, path: &str) -> FileInput {
    FileInput {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        class: FileClass::Lib,
    }
}

fn scan_files(files: &[(&str, &str, &str)]) -> Report {
    kpm_analyze::analyze_sources(
        files
            .iter()
            .map(|(krate, path, src)| (input(krate, path), src.to_string()))
            .collect(),
    )
}

fn with_rule<'a>(report: &'a Report, rule: &str) -> Vec<&'a Diagnostic> {
    report.diags.iter().filter(|d| d.rule == rule).collect()
}

// ------------------------------------------------------------ panic_path

#[test]
fn panic_path_catches_cross_crate_unwrap() {
    let helper = r#"
/// Doc.
pub fn risky_read(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    let kernel = r#"
/// Doc.
pub fn eval(v: Option<u32>) -> u32 {
    risky_read(v)
}
"#;
    let report = scan_files(&[
        (
            "kpm-perfmodel",
            "crates/kpm-perfmodel/src/helper.rs",
            helper,
        ),
        ("kpm-core", "crates/kpm-core/src/eval.rs", kernel),
    ]);
    let hits = with_rule(&report, "panic_path");
    assert_eq!(hits.len(), 1, "{:?}", report.diags);
    assert_eq!(hits[0].file, "crates/kpm-core/src/eval.rs");
    assert_eq!(hits[0].line, 4);
    assert!(hits[0].message.contains("risky_read"));
    assert!(
        hits[0].message.contains("helper.rs:4"),
        "{}",
        hits[0].message
    );
}

#[test]
fn panic_path_vetted_source_site_does_not_propagate() {
    let helper = r#"
/// Doc.
pub fn risky_read(x: Option<u32>) -> u32 {
    // kpm::allow(panic_path): caller guarantees Some; checked at construction
    x.unwrap()
}
"#;
    let kernel = r#"
/// Doc.
pub fn eval(v: Option<u32>) -> u32 {
    risky_read(v)
}
"#;
    let report = scan_files(&[
        (
            "kpm-perfmodel",
            "crates/kpm-perfmodel/src/helper.rs",
            helper,
        ),
        ("kpm-core", "crates/kpm-core/src/eval.rs", kernel),
    ]);
    assert!(
        with_rule(&report, "panic_path").is_empty(),
        "{:?}",
        report.diags
    );
    // The vetting marker counted as used — the audit stays quiet.
    assert!(
        with_rule(&report, "unused_suppression").is_empty(),
        "{:?}",
        report.diags
    );
}

// ------------------------------------------------- unused_suppression

#[test]
fn unused_suppression_flags_stale_marker() {
    let src = r#"
/// Doc.
pub fn fine() -> u32 {
    // kpm::allow(no_panic): nothing here panics any more
    7
}
"#;
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/lib.rs", src)]);
    let hits = with_rule(&report, "unused_suppression");
    assert_eq!(hits.len(), 1, "{:?}", report.diags);
    assert_eq!(hits[0].line, 4);
    assert!(hits[0].message.contains("no_panic"));
}

#[test]
fn unused_suppression_respects_its_own_allow_and_real_uses() {
    // A used marker is not stale.
    let used = r#"
/// Doc.
pub fn f(x: Option<u32>) -> u32 {
    // kpm::allow(no_panic): validated at parse time
    x.unwrap()
}
"#;
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/lib.rs", used)]);
    assert!(
        with_rule(&report, "unused_suppression").is_empty(),
        "{:?}",
        report.diags
    );
    assert!(with_rule(&report, "no_panic").is_empty());

    // A deliberately kept stale marker can be vetted by the audit's
    // own allow directly above it.
    let vetted = r#"
/// Doc.
pub fn fine() -> u32 {
    // kpm::allow(unused_suppression): documents the historical hazard below
    // kpm::allow(no_panic): nothing here panics any more
    7
}
"#;
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/lib.rs", vetted)]);
    assert!(
        with_rule(&report, "unused_suppression").is_empty(),
        "{:?}",
        report.diags
    );
}
