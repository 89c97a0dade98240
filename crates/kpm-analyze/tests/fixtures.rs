//! Fixture tests for the token rules: each is exercised on a violating
//! fixture (hit), a conforming fixture (miss), and a suppressed
//! fixture, plus the explorer's schedule count and budget.
//! `passes_fixtures.rs` covers `panic_path` and the marker audit.

use kpm_analyze::lints::{analyze_source, FileClass, FileInput};
use kpm_analyze::sched::{self, Config, Op};
use kpm_analyze::Diagnostic;

fn scan(crate_name: &str, class: FileClass, path: &str, src: &str) -> Vec<Diagnostic> {
    let input = FileInput {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        class,
    };
    analyze_source(&input, src)
}

fn kernel_lib(src: &str) -> Vec<Diagnostic> {
    scan(
        "kpm-sparse",
        FileClass::Lib,
        "crates/kpm-sparse/src/lib.rs",
        src,
    )
}

fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ------------------------------------------------------------- no_panic

#[test]
fn no_panic_hit_unwrap_and_macros() {
    let src = r#"
/// Doc.
pub fn f(x: Option<u32>) -> u32 {
    let y = x.unwrap();
    if y > 3 { panic!("boom"); }
    y
}
"#;
    let diags = kernel_lib(src);
    assert_eq!(rules(&diags), vec!["no_panic", "no_panic"]);
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains(".unwrap()"));
    assert_eq!(diags[1].line, 5);
}

#[test]
fn no_panic_miss_in_test_code_and_non_kernel_crates() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Option<u32> = Some(1);
        v.unwrap();
        panic!("fine in tests");
    }
}
"#;
    assert!(kernel_lib(src).is_empty());
    // Same panicking code outside a kernel crate is not flagged.
    let src = "/// D.\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(scan(
        "kpm-perfmodel",
        FileClass::Lib,
        "crates/kpm-perfmodel/src/lib.rs",
        src
    )
    .is_empty());
    // ... nor in a kernel crate's integration tests.
    assert!(scan(
        "kpm-sparse",
        FileClass::Test,
        "crates/kpm-sparse/tests/t.rs",
        src
    )
    .is_empty());
}

#[test]
fn no_panic_ident_without_call_is_not_flagged() {
    let src = "/// D.\npub fn unwrap() {}\n";
    assert!(kernel_lib(src).is_empty());
}

#[test]
fn no_panic_suppressed_with_justification() {
    let src = r#"
/// Doc.
pub fn f(x: Option<u32>) -> u32 {
    // kpm::allow(no_panic): documented panicking wrapper
    x.unwrap()
}
"#;
    assert!(kernel_lib(src).is_empty());
}

// ------------------------------------------------------- safety_comment

#[test]
fn safety_comment_hit_block_and_impl() {
    let src = r#"
/// Doc.
pub fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
/// Doc.
pub struct W(*mut u8);
unsafe impl Send for W {}
"#;
    let diags = kernel_lib(src);
    assert_eq!(rules(&diags), vec!["safety_comment", "safety_comment"]);
    assert!(diags[0].message.contains("unsafe block"));
    assert!(diags[1].message.contains("unsafe impl"));
}

#[test]
fn safety_comment_miss_when_adjacent() {
    let src = r#"
/// Doc.
pub fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}
/// Doc.
pub struct W(*mut u8);
// SAFETY: W owns its allocation exclusively.
unsafe impl Send for W {}
"#;
    assert!(kernel_lib(src).is_empty());
}

#[test]
fn safety_comment_not_adjacent_across_code_line() {
    let src = r#"
/// Doc.
pub fn f(p: *const u8) -> u8 {
    // SAFETY: stale comment, separated by a code line.
    let _x = 1;
    unsafe { *p }
}
"#;
    let diags = kernel_lib(src);
    assert_eq!(rules(&diags), vec!["safety_comment"]);
}

#[test]
fn safety_comment_suppressed() {
    let src = r#"
/// Doc.
pub fn f(p: *const u8) -> u8 {
    // kpm::allow(safety_comment): invariant documented on the module
    unsafe { *p }
}
"#;
    assert!(kernel_lib(src).is_empty());
}

// ------------------------------------------------------- hot_loop_alloc

fn hot_file(src: &str) -> Vec<Diagnostic> {
    scan(
        "kpm-sparse",
        FileClass::Lib,
        "crates/kpm-sparse/src/sweep.rs",
        src,
    )
}

#[test]
fn hot_loop_alloc_hit_in_loop() {
    let src = r#"
/// Doc.
pub fn f(xs: &[Vec<f64>]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        let copy = x.to_vec();
        let tmp = vec![0.0; 4];
        acc += copy[0] + tmp[0];
    }
    acc
}
"#;
    let diags = hot_file(src);
    assert_eq!(rules(&diags), vec!["hot_loop_alloc", "hot_loop_alloc"]);
    assert!(diags[0].message.contains(".to_vec()"));
    assert!(diags[1].message.contains("`vec!`"));
}

#[test]
fn hot_loop_alloc_miss_outside_loop_and_outside_hot_files() {
    let src = r#"
/// Doc.
pub fn f(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    for x in &mut out {
        *x += 1.0;
    }
    out
}
"#;
    assert!(hot_file(src).is_empty());
    // The same in-loop allocation in a non-hot file is allowed.
    let src = "/// D.\npub fn f(xs: &[Vec<f64>]) { for x in xs { let _c = x.to_vec(); } }\n";
    assert!(scan(
        "kpm-sparse",
        FileClass::Lib,
        "crates/kpm-sparse/src/crs.rs",
        src
    )
    .is_empty());
}

#[test]
fn hot_loop_alloc_impl_trait_for_is_not_a_loop() {
    let src = r#"
/// Doc.
pub struct S;
impl Clone for S {
    fn clone(&self) -> S {
        let v = Vec::<u8>::new();
        drop(v);
        S
    }
}
"#;
    assert!(hot_file(src).is_empty());
}

#[test]
fn hot_loop_alloc_suppressed() {
    let src = r#"
/// Doc.
pub fn f(xs: &[Vec<f64>]) {
    for x in xs {
        // kpm::allow(hot_loop_alloc): cold setup loop, not the kernel
        let _c = x.to_vec();
    }
}
"#;
    assert!(hot_file(src).is_empty());
}

// -------------------------------------------------- unknown_suppression

#[test]
fn unknown_suppression_gets_did_you_mean() {
    let src = "// kpm::allow(no_pancake): typo\n/// D.\npub fn f() {}\n";
    let diags = kernel_lib(src);
    assert_eq!(rules(&diags), vec!["unknown_suppression"]);
    assert!(diags[0].message.contains("no_pancake"));
    assert!(
        diags[0].hint.contains("kpm::allow(no_panic)"),
        "hint: {}",
        diags[0].hint
    );
}

#[test]
fn diagnostics_render_file_line_and_hint() {
    let src = "/// D.\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let diags = kernel_lib(src);
    assert_eq!(diags.len(), 1);
    let text = diags[0].render();
    assert!(
        text.starts_with("crates/kpm-sparse/src/lib.rs:2:"),
        "{text}"
    );
    assert!(text.contains("kpm::allow(no_panic)"));
}

// ------------------------------------------------------------ explorer

/// Thread 0 sends `n` messages to thread 1, which receives all `n`.
fn producer_consumer(n: usize) -> Vec<Vec<Op>> {
    vec![
        vec![Op::Send { to: 1, tag: 1 }; n],
        vec![Op::Recv { tag: 1 }; n],
    ]
}

#[test]
fn explorer_interleaving_count_is_seed_independent() {
    // Thread 1's receives stay behind thread 0's sends: Catalan(4) = 14
    // schedules, whatever order the seed walks them in.
    let threads = producer_consumer(4);
    let a = sched::explore(
        &threads,
        &Config {
            seed: 1,
            ..Config::default()
        },
    );
    let b = sched::explore(
        &threads,
        &Config {
            seed: 99,
            ..Config::default()
        },
    );
    assert_eq!((a.interleavings, b.interleavings), (14, 14));
    assert!(a.clean() && b.clean());
}

#[test]
fn explorer_budget_truncates() {
    let report = sched::explore(
        &producer_consumer(8),
        &Config {
            max_interleavings: 10,
            ..Config::default()
        },
    );
    assert!(report.truncated);
    assert_eq!(report.interleavings, 10);
}
