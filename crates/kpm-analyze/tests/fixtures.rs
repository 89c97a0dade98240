//! Fixture tests for every lint rule: each rule is exercised on a
//! violating fixture (hit), a conforming fixture (miss), and a
//! suppressed fixture, plus the explorer's own positive and negative
//! models.

use kpm_analyze::lints::{analyze_source, FileClass, FileInput};
use kpm_analyze::sched::{self, Config, Op, Violation};
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

// ---------------------------------------------------- simd_scalar_tail

fn simd_file(src: &str) -> Vec<Diagnostic> {
    scan(
        "kpm-sparse",
        FileClass::Lib,
        "crates/kpm-sparse/src/sweep.rs",
        src,
    )
}

#[test]
fn simd_scalar_tail_hit_when_remainder_is_dropped() {
    let src = r#"
/// Doc.
pub fn f(a: &mut [f64]) {
    for g in a.chunks_exact_mut(4) {
        g[0] += 1.0;
    }
}
"#;
    let diags = simd_file(src);
    assert_eq!(rules(&diags), vec!["simd_scalar_tail"]);
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains("remainder"));
}

#[test]
fn simd_scalar_tail_miss_when_tail_is_handled_or_file_is_cold() {
    // The canonical shape: full groups vectorized, leftover elements
    // consumed from the same iterator's remainder in the same fn.
    let src = r#"
/// Doc.
pub fn f(a: &mut [f64]) {
    let mut groups = a.chunks_exact_mut(4);
    for g in groups.by_ref() {
        g[0] += 1.0;
    }
    for x in groups.into_remainder() {
        *x += 1.0;
    }
}
"#;
    assert!(simd_file(src).is_empty());
    // A handler in one fn does not vet a dropped tail in another.
    let src = r#"
/// Doc.
pub fn good(a: &mut [f64]) {
    let mut groups = a.chunks_exact_mut(4);
    for g in groups.by_ref() { g[0] += 1.0; }
    for x in groups.into_remainder() { *x += 1.0; }
}
/// Doc.
pub fn bad(a: &[f64]) -> f64 {
    let mut s = 0.0;
    for g in a.chunks_exact(4) { s += g[0]; }
    s
}
"#;
    assert_eq!(rules(&simd_file(src)), vec!["simd_scalar_tail"]);
    // The same dropped tail outside the hot kernel files is allowed.
    let src = "/// D.\npub fn f(a: &[f64]) -> f64 { a.chunks_exact(4).map(|g| g[0]).sum() }\n";
    assert!(scan(
        "kpm-sparse",
        FileClass::Lib,
        "crates/kpm-sparse/src/crs.rs",
        src
    )
    .is_empty());
    // Test code is exempt: exactness is often the point of a test.
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let a = [1.0f64; 7];
        for g in a.chunks_exact(4) { let _ = g[0]; }
    }
}
"#;
    assert!(simd_file(src).is_empty());
}

#[test]
fn simd_scalar_tail_suppressed() {
    let src = r#"
/// Doc.
pub fn f(a: &mut [f64]) {
    // kpm::allow(simd_scalar_tail): caller pads `a` to a lane multiple
    for g in a.chunks_exact_mut(4) {
        g[0] += 1.0;
    }
}
"#;
    assert!(simd_file(src).is_empty());
}

// ------------------------------------------------------------- par_lock

#[test]
fn par_lock_hit_lock_and_mutex_in_par_statement() {
    let src = r#"
/// Doc.
pub fn bad(xs: &[f64], out: &std::sync::Mutex<Vec<f64>>) {
    xs.par_iter().for_each(|x| {
        out.lock().unwrap().push(*x);
    });
}
"#;
    let diags = scan(
        "kpm-num",
        FileClass::Lib,
        "crates/kpm-num/src/vector.rs",
        src,
    );
    assert!(rules(&diags).contains(&"par_lock"), "{diags:?}");
    assert!(diags
        .iter()
        .any(|d| d.rule == "par_lock" && d.message.contains("serializes")));
}

#[test]
fn par_lock_miss_outside_par_and_outside_kernel_crates() {
    // A lock in plain serial code is fine.
    let serial = r#"
/// Doc.
pub fn ok(out: &std::sync::Mutex<Vec<f64>>) {
    if let Ok(mut g) = out.lock() {
        g.push(1.0);
    }
}
"#;
    assert!(kernel_lib(serial).is_empty());
    // Per-chunk partials with a post-region reduction: the shape the
    // rule exists to steer people toward.
    let partials = r#"
/// Doc.
pub fn good(xs: &[f64]) -> f64 {
    let partials: Vec<f64> = xs.par_chunks(1024).map(|c| c.iter().sum()).collect();
    partials.iter().sum()
}
"#;
    assert!(kernel_lib(partials).is_empty());
    // The same locked pattern outside the kernel crates is not flagged.
    let src = r#"
/// Doc.
pub fn bad(xs: &[f64], out: &std::sync::Mutex<Vec<f64>>) {
    xs.par_iter().for_each(|x| { out.lock().unwrap().push(*x); });
}
"#;
    assert!(scan(
        "kpm-bench",
        FileClass::Lib,
        "crates/kpm-bench/src/lib.rs",
        src
    )
    .is_empty());
}

#[test]
fn par_lock_suppressed() {
    let src = r#"
/// Doc.
pub fn gather(xs: &[f64], out: &std::sync::Mutex<Vec<f64>>) {
    xs.par_chunks(4096).for_each(|c| {
        // kpm::allow(par_lock): one lock per 4096-element chunk, not per element
        out.lock().unwrap().extend_from_slice(c);
    });
}
"#;
    let diags = kernel_lib(src);
    assert!(
        diags.iter().all(|d| d.rule != "par_lock"),
        "suppression must silence the in-closure lock: {diags:?}"
    );
}

// -------------------------------------------------------- relaxed_store

#[test]
fn relaxed_store_hit() {
    let src = r#"
/// Doc.
pub fn publish(flag: &std::sync::atomic::AtomicBool) {
    flag.store(true, std::sync::atomic::Ordering::Relaxed);
}
"#;
    let diags = kernel_lib(src);
    assert_eq!(rules(&diags), vec!["relaxed_store"]);
    assert!(diags[0].message.contains("Relaxed"));
}

#[test]
fn relaxed_store_miss_for_loads_seqcst_and_obs_crate() {
    let src = r#"
/// Doc.
pub fn ok(flag: &std::sync::atomic::AtomicBool, n: &std::sync::atomic::AtomicU64) -> bool {
    n.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    flag.load(std::sync::atomic::Ordering::Relaxed)
}
"#;
    // `relaxed_store` must stay quiet here; the SeqCst store is now
    // `atomic_order`'s business (gratuitous SeqCst outside the Ledger).
    let diags = kernel_lib(src);
    assert!(diags.iter().all(|d| d.rule != "relaxed_store"));
    assert!(diags
        .iter()
        .any(|d| d.rule == "atomic_order" && d.line == 5));
    let relaxed = "/// D.\npub fn f(flag: &std::sync::atomic::AtomicBool) {\n    flag.store(true, std::sync::atomic::Ordering::Relaxed);\n}\n";
    assert!(scan(
        "kpm-obs",
        FileClass::Lib,
        "crates/kpm-obs/src/lib.rs",
        relaxed
    )
    .is_empty());
}

#[test]
fn relaxed_store_suppressed() {
    let src = r#"
/// Doc.
pub fn f(flag: &std::sync::atomic::AtomicBool) {
    // kpm::allow(relaxed_store): flag is advisory, no data is published
    flag.store(true, std::sync::atomic::Ordering::Relaxed);
}
"#;
    assert!(kernel_lib(src).is_empty());
}

// --------------------------------------------------------- doc_coverage

#[test]
fn doc_coverage_hit_fn_struct_enum_trait() {
    let src = "pub fn f() {}\npub struct S;\npub enum E { A }\npub trait T {}\n";
    let diags = scan(
        "kpm-topo",
        FileClass::Lib,
        "crates/kpm-topo/src/lib.rs",
        src,
    );
    assert_eq!(
        rules(&diags),
        vec![
            "doc_coverage",
            "doc_coverage",
            "doc_coverage",
            "doc_coverage"
        ]
    );
    assert!(diags[0].message.contains("`f`"));
    assert!(diags[1].message.contains("`S`"));
}

#[test]
fn doc_coverage_miss_documented_crate_private_and_tests() {
    let src = r#"
/// Documented.
pub fn f() {}

/// Documented, attribute between doc and item.
#[inline]
pub fn g() {}

pub(crate) fn h() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
"#;
    assert!(scan(
        "kpm-topo",
        FileClass::Lib,
        "crates/kpm-topo/src/lib.rs",
        src
    )
    .is_empty());
}

#[test]
fn doc_coverage_suppressed() {
    let src = "// kpm::allow(doc_coverage): internal trampoline\npub fn f() {}\n";
    assert!(scan(
        "kpm-topo",
        FileClass::Lib,
        "crates/kpm-topo/src/lib.rs",
        src
    )
    .is_empty());
}

// ------------------------------------------------------------- obs_gate

fn obs_lib(src: &str) -> Vec<Diagnostic> {
    scan(
        "kpm-obs",
        FileClass::Lib,
        "crates/kpm-obs/src/metrics.rs",
        src,
    )
}

#[test]
fn obs_gate_hit_ungated_lock_and_clock() {
    let src = r#"
/// Doc.
pub fn counter_add(reg: &std::sync::Mutex<u64>, delta: u64) {
    let mut g = reg.lock().unwrap_or_else(|e| e.into_inner());
    *g += delta;
}
"#;
    let diags = obs_lib(src);
    assert_eq!(rules(&diags), vec!["obs_gate"]);
    assert!(diags[0].message.contains("counter_add"));
}

#[test]
fn obs_gate_miss_gated_or_value_returning() {
    let src = r#"
/// Gated recorder.
pub fn counter_add(reg: &std::sync::Mutex<u64>, delta: u64) {
    if !enabled() {
        return;
    }
    let mut g = reg.lock().unwrap_or_else(|e| e.into_inner());
    *g += delta;
}

/// Query APIs return values and may lock unconditionally.
pub fn counter_value(reg: &std::sync::Mutex<u64>) -> u64 {
    *reg.lock().unwrap_or_else(|e| e.into_inner())
}

fn enabled() -> bool {
    true
}
"#;
    assert!(obs_lib(src).is_empty());
}

#[test]
fn obs_gate_suppressed() {
    let src = r#"
/// Doc.
// kpm::allow(obs_gate): shutdown path, called once
pub fn flush(reg: &std::sync::Mutex<u64>) {
    let _g = reg.lock().unwrap_or_else(|e| e.into_inner());
}
"#;
    assert!(obs_lib(src).is_empty());
}

// ------------------------------------------------------------ obs_label

#[test]
fn obs_label_hit_undotted_uppercase_and_trailing_dot() {
    let src = r#"
/// Doc.
pub fn f() {
    kpm_obs::metrics::counter_add("admitted", 1);
    kpm_obs::metrics::gauge_set("Svc.Queue", 1.0);
    kpm_obs::hist::record("svc.latency.", 3);
}
"#;
    let diags = scan(
        "kpm-service",
        FileClass::Lib,
        "crates/kpm-service/src/service.rs",
        src,
    );
    assert_eq!(rules(&diags), vec!["obs_label", "obs_label", "obs_label"]);
    assert!(diags[0].message.contains("admitted"));
    assert!(diags[0].message.contains("dot-separated"));
}

#[test]
fn obs_label_miss_dotted_names_tests_and_method_calls() {
    let src = r#"
/// Doc.
pub fn f(h: &mut Hist) {
    kpm_obs::metrics::counter_add("svc.admitted", 1);
    let _s = kpm_obs::span::span("svc.stage.queue", "service");
    kpm_obs::recorder::note("chaos.crash", 7, "detail");
    // A method call never names a registry entry:
    h.record(12);
    let _ = format!("plain string, not a name");
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _s = kpm_obs::span::span("outer", "test");
    }
}
"#;
    assert!(scan(
        "kpm-service",
        FileClass::Lib,
        "crates/kpm-service/src/service.rs",
        src,
    )
    .is_empty());
}

#[test]
fn obs_label_suppressed() {
    let src = r#"
/// Doc.
pub fn f() {
    // kpm::allow(obs_label): legacy dashboard expects the flat name
    kpm_obs::metrics::counter_add("admitted", 1);
}
"#;
    assert!(scan(
        "kpm-service",
        FileClass::Lib,
        "crates/kpm-service/src/service.rs",
        src,
    )
    .is_empty());
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

#[test]
fn explorer_two_rank_model_is_exactly_once_and_deadlock_free() {
    let threads = sched::two_rank_dedup_model(8, Some(3));
    let report = sched::explore(&threads, &Config::default());
    assert!(report.clean(), "violations: {:?}", report.counterexamples);
    assert!(!report.truncated);
    assert!(
        report.interleavings >= 1000,
        "only {} interleavings",
        report.interleavings
    );
}

#[test]
fn explorer_interleaving_count_is_seed_independent() {
    let threads = sched::two_rank_dedup_model(4, None);
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
    assert_eq!(a.interleavings, b.interleavings);
    assert!(a.clean() && b.clean());
}

#[test]
fn explorer_preemption_bound_prunes_schedules() {
    let threads = sched::two_rank_dedup_model(6, None);
    let full = sched::explore(&threads, &Config::default());
    let bounded = sched::explore(
        &threads,
        &Config {
            preemption_bound: Some(1),
            ..Config::default()
        },
    );
    assert!(bounded.clean());
    assert!(bounded.interleavings < full.interleavings);
    assert!(bounded.interleavings > 1);
}

#[test]
fn explorer_catches_deadlock_with_trace() {
    let report = sched::explore(&sched::deadlock_model(), &Config::default());
    assert!(report.deadlocks > 0);
    assert!(matches!(
        report.counterexamples[0].violation,
        Violation::Deadlock
    ));
}

#[test]
fn explorer_catches_double_delivery_without_dedup() {
    let threads = sched::two_rank_dedup_model(3, Some(1));
    let report = sched::explore(
        &threads,
        &Config {
            model_dedup: false,
            ..Config::default()
        },
    );
    assert!(report.double_deliveries > 0);
    assert!(report
        .counterexamples
        .iter()
        .any(|c| matches!(c.violation, Violation::DoubleDelivery { from: 0, seq: 1 })));
}

#[test]
fn explorer_catches_lost_message_on_timeout_path() {
    let report = sched::explore(&sched::lost_message_model(), &Config::default());
    assert!(report.lost_messages > 0);
    assert!(report
        .counterexamples
        .iter()
        .any(|c| matches!(c.violation, Violation::LostMessage { from: 0, seq: 0 })));
    // Schedules where the message IS consumed also exist.
    assert!(report.interleavings > report.lost_messages);
}

#[test]
fn explorer_catches_checkpoint_version_regression() {
    let report = sched::explore(&sched::racing_checkpoint_model(), &Config::default());
    assert!(report.version_regressions > 0);
    assert!(report.counterexamples.iter().any(|c| matches!(
        c.violation,
        Violation::VersionRegression { prev: 3, next: 1 }
    )));
}

#[test]
fn explorer_stash_roundtrip_is_exactly_once() {
    use sched::TAG_MOMENTS;
    let r0 = vec![
        Op::StashPush {
            tag: TAG_MOMENTS,
            seq: 0,
        },
        Op::StashPush {
            tag: TAG_MOMENTS,
            seq: 1,
        },
    ];
    let r1 = vec![Op::StashPop, Op::StashPop];
    let report = sched::explore(&[r0, r1], &Config::default());
    assert!(report.clean(), "violations: {:?}", report.counterexamples);
}

#[test]
fn explorer_budget_truncates() {
    let threads = sched::two_rank_dedup_model(8, None);
    let report = sched::explore(
        &threads,
        &Config {
            max_interleavings: 10,
            ..Config::default()
        },
    );
    assert!(report.truncated);
    assert_eq!(report.interleavings, 10);
}
