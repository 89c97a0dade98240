//! Tier-1 static-analysis gate.
//!
//! Two hard guarantees ride in this suite:
//!
//! 1. **The workspace is lint-clean**: `kpm-analyze` finds zero
//!    diagnostics over every crate — `no_panic`, `safety_comment`,
//!    `hot_loop_alloc`, the interprocedural `panic_path` and the two
//!    `kpm::allow` marker audits — and every crate and file those
//!    rules name still exists, so no rule runs on nothing.
//! 2. **The thread pool keeps its `unsafe` budget**: `shims/rayon`,
//!    which the workspace scan skips, has at most three `unsafe` sites,
//!    each under an adjacent `// SAFETY:` comment.

use std::path::Path;

use kpm_analyze::lexer::{lex, TokKind};
use kpm_analyze::lints::{
    analyze_source, is_hot_kernel_file, FileClass, FileInput, HOT_KERNEL_FILES, KERNEL_CRATES,
};
use kpm_analyze::{analyze_workspace, Report};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scan() -> Report {
    analyze_workspace(workspace_root()).expect("workspace scan")
}

#[test]
fn workspace_is_lint_clean() {
    let report = scan();
    assert!(
        report.files.len() > 50,
        "suspiciously few files scanned ({}); did the walker break?",
        report.files.len()
    );
    let rendered: Vec<String> = report.diags.iter().map(|d| d.render()).collect();
    assert!(
        report.diags.is_empty(),
        "kpm-analyze found {} diagnostic(s):\n{}",
        report.diags.len(),
        rendered.join("\n")
    );
}

#[test]
fn every_rule_subject_is_a_scanned_crate_or_file() {
    // A rule scoped to a crate or file that no longer exists runs on
    // nothing and stays silent: `simd_scalar_tail` did so for seven
    // PRs after its subject left, and renaming `sweep.rs` would
    // silence `hot_loop_alloc` the same way.
    let report = scan();
    for krate in KERNEL_CRATES {
        assert!(
            report.files.iter().any(|f| f.crate_name == *krate),
            "KERNEL_CRATES names `{krate}`, which the scan never visited"
        );
    }
    for name in HOT_KERNEL_FILES {
        assert!(
            report
                .files
                .iter()
                .any(|f| is_hot_kernel_file(f) && f.path.ends_with(&format!("/{name}"))),
            "HOT_KERNEL_FILES names `{name}`, which matches no scanned kpm-sparse library file"
        );
    }
}

/// Most `unsafe` sites `shims/rayon` may hold: the pool's one
/// `transmute` plus two more.
const POOL_UNSAFE_BUDGET: usize = 3;

#[test]
fn the_thread_pool_keeps_its_unsafe_budget_and_documents_every_site() {
    // The workspace scan skips `shims/`, so nothing else checks the one
    // crate every parallel kernel stands on.
    let dir = workspace_root().join("shims/rayon/src");
    let mut sites = Vec::new();
    let mut undocumented = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("shims/rayon/src") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("shim source");
        let name = format!(
            "shims/rayon/src/{}",
            path.file_name().unwrap().to_string_lossy()
        );
        sites.extend(
            lex(&src)
                .iter()
                .filter(|t| t.kind == TokKind::Ident("unsafe".to_string()))
                .map(|t| format!("{name}:{}", t.line)),
        );
        let input = FileInput {
            path: name,
            crate_name: "rayon".to_string(),
            class: FileClass::Lib,
        };
        undocumented.extend(
            analyze_source(&input, &src)
                .into_iter()
                .filter(|d| d.rule == "safety_comment")
                .map(|d| d.render()),
        );
    }
    assert!(
        !sites.is_empty(),
        "no `unsafe` found: did the lexer or the path break?"
    );
    assert!(
        sites.len() <= POOL_UNSAFE_BUDGET,
        "{} `unsafe` sites in shims/rayon, at most {POOL_UNSAFE_BUDGET} allowed: {sites:?}",
        sites.len()
    );
    assert!(
        undocumented.is_empty(),
        "`unsafe` without an adjacent `// SAFETY:`:\n{}",
        undocumented.join("\n")
    );
}
