//! Seeded-bug fixtures for the AST/call-graph dataflow passes: each
//! pass gets a fixture with a planted bug it must catch, a conforming
//! fixture it must stay quiet on, and (where the mechanism differs
//! from the token rules) a suppression/vetting fixture. These drive
//! [`kpm_analyze::analyze_sources`] end to end — lexer, parser, call
//! graph, CFG dataflow, suppression filtering, and the
//! unused-suppression audit.

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

// ------------------------------------------------------------ lock_order

#[test]
fn lock_order_catches_seeded_ab_ba_deadlock() {
    let src = r#"
/// Two locks taken in both orders: the classic AB-BA deadlock.
pub struct Pair {
    a: std::sync::Mutex<u32>,
    b: std::sync::Mutex<u32>,
}

impl Pair {
    /// Doc.
    pub fn forward(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }

    /// Doc.
    pub fn backward(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        drop(ga);
        drop(gb);
    }
}
"#;
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/pair.rs", src)]);
    let hits = with_rule(&report, "lock_order");
    assert!(
        !hits.is_empty(),
        "AB-BA deadlock not caught: {:?}",
        report.diags
    );
    assert!(hits[0].message.contains("a") && hits[0].message.contains("b"));
}

#[test]
fn lock_order_quiet_on_consistent_order_and_early_drop() {
    let src = r#"
/// Same two locks, always in the same order — no cycle.
pub struct Pair {
    a: std::sync::Mutex<u32>,
    b: std::sync::Mutex<u32>,
}

impl Pair {
    /// Doc.
    pub fn one(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }

    /// Doc.
    pub fn two(&self) {
        let ga = self.a.lock();
        drop(ga);
        let gb = self.b.lock();
        let ga2 = self.a.lock();
        drop(ga2);
        drop(gb);
    }
}
"#;
    // `two` re-acquires `a` under `b`, but only after releasing the
    // first `a` guard — still b->a only... which closes the a->b / b->a
    // cycle with `one`. That IS a deadlock; assert the pass sees it.
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/pair.rs", src)]);
    assert!(!with_rule(&report, "lock_order").is_empty());

    // Truly consistent ordering scans clean.
    let clean = r#"
/// Consistent order.
pub struct Pair {
    a: std::sync::Mutex<u32>,
    b: std::sync::Mutex<u32>,
}

impl Pair {
    /// Doc.
    pub fn one(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }

    /// Doc.
    pub fn two(&self) {
        let ga = self.a.lock();
        drop(ga);
        let gb = self.b.lock();
        drop(gb);
    }
}
"#;
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/pair.rs", clean)]);
    assert!(
        with_rule(&report, "lock_order").is_empty(),
        "{:?}",
        report.diags
    );
}

#[test]
fn lock_order_sees_cycle_through_call_graph() {
    // `forward` holds `a` and calls a helper that takes `b`; `backward`
    // does the reverse through its own helper. No single function shows
    // both orders — only the transitive closure does.
    let src = r#"
/// Doc.
pub struct Pair {
    a: std::sync::Mutex<u32>,
    b: std::sync::Mutex<u32>,
}

impl Pair {
    fn touch_b(&self) {
        let gb = self.b.lock();
        drop(gb);
    }

    fn touch_a(&self) {
        let ga = self.a.lock();
        drop(ga);
    }

    /// Doc.
    pub fn forward(&self) {
        let ga = self.a.lock();
        self.touch_b();
        drop(ga);
    }

    /// Doc.
    pub fn backward(&self) {
        let gb = self.b.lock();
        self.touch_a();
        drop(gb);
    }
}
"#;
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/pair.rs", src)]);
    assert!(
        !with_rule(&report, "lock_order").is_empty(),
        "transitive AB-BA not caught: {:?}",
        report.diags
    );
}

// ---------------------------------------------------------- atomic_order

#[test]
fn atomic_order_catches_relaxed_store_acquire_load_mismatch() {
    let src = r#"
/// Doc.
pub struct Flag {
    ready: std::sync::atomic::AtomicBool,
}

impl Flag {
    /// Doc.
    pub fn publish(&self) {
        self.ready.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Doc.
    pub fn consume(&self) -> bool {
        self.ready.load(std::sync::atomic::Ordering::Acquire)
    }
}
"#;
    let report = scan_files(&[("kpm-num", "crates/kpm-num/src/flag.rs", src)]);
    let hits = with_rule(&report, "atomic_order");
    assert!(
        !hits.is_empty(),
        "store/load mismatch not caught: {:?}",
        report.diags
    );
    assert!(hits.iter().any(|d| d.message.contains("ready")));
}

#[test]
fn atomic_order_quiet_on_release_acquire_pair_and_ledger_seqcst() {
    let paired = r#"
/// Doc.
pub struct Flag {
    ready: std::sync::atomic::AtomicBool,
}

impl Flag {
    /// Doc.
    pub fn publish(&self) {
        self.ready.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Doc.
    pub fn consume(&self) -> bool {
        self.ready.load(std::sync::atomic::Ordering::Acquire)
    }
}
"#;
    let report = scan_files(&[("kpm-num", "crates/kpm-num/src/flag.rs", paired)]);
    assert!(
        with_rule(&report, "atomic_order").is_empty(),
        "{:?}",
        report.diags
    );

    // The service Ledger's cross-variable protocol keeps SeqCst.
    let ledger = r#"
/// Doc.
pub struct Svc {
    ledger: Ledger,
}

impl Svc {
    /// Doc.
    pub fn admit(&self) {
        self.ledger.admitted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}
"#;
    let report = scan_files(&[("kpm-service", "crates/kpm-service/src/svc.rs", ledger)]);
    assert!(
        with_rule(&report, "atomic_order").is_empty(),
        "{:?}",
        report.diags
    );
}

#[test]
fn atomic_order_flags_gratuitous_seqcst_outside_service_ledger() {
    let src = r#"
/// Doc.
pub fn bump(n: &std::sync::atomic::AtomicU64) {
    n.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
}
"#;
    let report = scan_files(&[("kpm-core", "crates/kpm-core/src/stats.rs", src)]);
    let hits = with_rule(&report, "atomic_order");
    assert_eq!(hits.len(), 1, "{:?}", report.diags);
    assert_eq!(hits[0].line, 4);
    assert!(hits[0].message.contains("SeqCst"));
}

// ------------------------------------------------------------ det_reduce

#[test]
fn det_reduce_catches_seeded_par_sum() {
    let src = r#"
/// Doc.
pub fn norm_sq(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x * x).sum()
}
"#;
    let report = scan_files(&[("kpm-num", "crates/kpm-num/src/norm.rs", src)]);
    let hits = with_rule(&report, "det_reduce");
    assert_eq!(hits.len(), 1, "{:?}", report.diags);
    assert_eq!(hits[0].line, 4);
    assert!(hits[0].message.contains("pairwise_sum"));
}

#[test]
fn det_reduce_quiet_on_serial_sum_and_suppressed_par_fold() {
    let serial = r#"
/// Doc.
pub fn norm_sq(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum()
}
"#;
    let report = scan_files(&[("kpm-num", "crates/kpm-num/src/norm.rs", serial)]);
    assert!(
        with_rule(&report, "det_reduce").is_empty(),
        "{:?}",
        report.diags
    );

    let vetted = r#"
/// Doc.
pub fn histogram_mass(xs: &[f64]) -> f64 {
    // kpm::allow(det_reduce): integer-valued bin counts; fp addition is exact here
    xs.par_iter().map(|x| x.floor()).sum()
}
"#;
    let report = scan_files(&[("kpm-num", "crates/kpm-num/src/hist.rs", vetted)]);
    assert!(
        with_rule(&report, "det_reduce").is_empty(),
        "{:?}",
        report.diags
    );
    assert!(with_rule(&report, "unused_suppression").is_empty());
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

// ------------------------------------------------------- blocking_in_hot

#[test]
fn blocking_in_hot_catches_lock_behind_helper_in_kernel_loop() {
    let src = r#"
/// Doc.
pub fn spmv_sweep(y: &mut [f64], m: &std::sync::Mutex<f64>) {
    for v in y.iter_mut() {
        scaled(v, m);
    }
}

fn scaled(v: &mut f64, m: &std::sync::Mutex<f64>) {
    let g = m.lock();
    drop(g);
}
"#;
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/sweep.rs", src)]);
    let hits = with_rule(&report, "blocking_in_hot");
    assert!(
        !hits.is_empty(),
        "lock behind helper not caught: {:?}",
        report.diags
    );
    assert!(hits[0].message.contains(".lock()"), "{}", hits[0].message);
}

#[test]
fn blocking_in_hot_quiet_outside_hot_files_and_without_blocking() {
    // The same shape in a non-hot file of the same crate is fine.
    let src = r#"
/// Doc.
pub fn assemble(y: &mut [f64], m: &std::sync::Mutex<f64>) {
    for v in y.iter_mut() {
        let g = m.lock();
        drop(g);
    }
}
"#;
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/build_mat.rs", src)]);
    assert!(
        with_rule(&report, "blocking_in_hot").is_empty(),
        "{:?}",
        report.diags
    );

    // A hot file whose loops stay lock-free scans clean.
    let clean = r#"
/// Doc.
pub fn spmv_sweep(y: &mut [f64], x: &[f64]) {
    for (v, xi) in y.iter_mut().zip(x) {
        *v += xi * 2.0;
    }
}
"#;
    let report = scan_files(&[("kpm-sparse", "crates/kpm-sparse/src/sweep.rs", clean)]);
    assert!(
        with_rule(&report, "blocking_in_hot").is_empty(),
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

// ------------------------------------------------------- report plumbing

#[test]
fn report_carries_rule_counts_and_pass_timings() {
    let src = r#"
/// Doc.
pub fn norm_sq(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x * x).sum()
}
"#;
    let report = scan_files(&[("kpm-num", "crates/kpm-num/src/norm.rs", src)]);
    let det = report
        .rule_counts
        .iter()
        .find(|(r, _)| *r == "det_reduce")
        .expect("det_reduce registered");
    assert_eq!(det.1, 1);
    // Every registered rule appears, zeros included.
    assert!(report
        .rule_counts
        .iter()
        .any(|(r, n)| *r == "lock_order" && *n == 0));
    let names: Vec<&str> = report.passes.iter().map(|(n, _)| *n).collect();
    for expected in [
        "token_rules",
        "callgraph",
        "lock_order",
        "atomic_order",
        "det_reduce",
        "panic_path",
        "blocking_in_hot",
        "suppression_audit",
    ] {
        assert!(
            names.contains(&expected),
            "missing pass {expected}: {names:?}"
        );
    }
    // JSON rendering carries both blocks.
    let json = kpm_analyze::render_json_report(&report);
    assert!(json.contains("\"rule_counts\""));
    assert!(json.contains("\"det_reduce\": 1"));
    assert!(json.contains("\"passes\""));
    // SARIF rendering locates the finding.
    let sarif = kpm_analyze::render_sarif(&report);
    assert!(sarif.contains("\"ruleId\": \"det_reduce\""));
    assert!(sarif.contains("\"uri\": \"crates/kpm-num/src/norm.rs\""));
}
