//! Tier-1 static-analysis gate.
//!
//! Two hard guarantees ride in this suite:
//!
//! 1. **The workspace is lint-clean**: `kpm-analyze` finds zero
//!    diagnostics over every crate — `no_panic`, `safety_comment`,
//!    `hot_loop_alloc`, the interprocedural `panic_path` and the two
//!    `kpm::allow` marker audits — and every crate and file those
//!    rules name still exists, so no rule runs on nothing.
//! 2. **The schedule explorer's core works**: it exhausts ≥1000
//!    distinct interleavings of a clean two-thread send/recv program
//!    without truncation, a preemption bound cuts that count and the
//!    bounded search still finishes clean, and a recv-before-send
//!    program is reported as a deadlock with its schedule.

use std::path::Path;

use kpm_analyze::lints::{is_hot_kernel_file, HOT_KERNEL_FILES, KERNEL_CRATES};
use kpm_analyze::sched::{self, Config, Op, Violation};
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

/// Thread 0 sends `n` messages to thread 1, which receives all `n`:
/// every schedule keeps thread 1's receives behind thread 0's sends,
/// so there are Catalan(n) interleavings (1,430 at n = 8).
fn producer_consumer(n: usize) -> Vec<Vec<Op>> {
    vec![
        vec![Op::Send { to: 1, tag: 1 }; n],
        vec![Op::Recv { tag: 1 }; n],
    ]
}

#[test]
fn clean_two_thread_program_explores_every_interleaving() {
    let report = sched::explore(&producer_consumer(8), &Config::default());
    assert!(report.clean(), "violation: {:?}", report.counterexamples);
    assert!(!report.truncated, "interleaving budget too small");
    assert!(
        report.interleavings >= 1000,
        "only {} distinct interleavings explored; acceptance floor is 1000",
        report.interleavings
    );
}

#[test]
fn preemption_bound_cuts_the_count_and_stays_clean() {
    let threads = producer_consumer(8);
    let all = sched::explore(&threads, &Config::default());
    let bounded = sched::explore(
        &threads,
        &Config {
            preemption_bound: Some(2),
            ..Config::default()
        },
    );
    assert!(bounded.clean(), "violation: {:?}", bounded.counterexamples);
    assert!(!bounded.truncated);
    assert!(
        bounded.interleavings > 0 && bounded.interleavings < all.interleavings,
        "bound 2 explored {} of {} interleavings",
        bounded.interleavings,
        all.interleavings
    );
}

#[test]
fn recv_before_send_is_reported_as_deadlock() {
    // Thread 1 receives tag 2 before it sends it, and thread 0 waits
    // for that send: after thread 0's one send, no thread can run.
    let threads = vec![
        vec![Op::Send { to: 1, tag: 1 }, Op::Recv { tag: 2 }],
        vec![Op::Recv { tag: 2 }, Op::Send { to: 0, tag: 2 }],
    ];
    let report = sched::explore(&threads, &Config::default());
    assert!(!report.clean());
    assert_eq!((report.interleavings, report.deadlocks), (1, 1));
    let cx = &report.counterexamples[0];
    assert_eq!(cx.violation, Violation::Deadlock);
    assert_eq!(cx.trace, ["thread0: send(to=1, tag=1)"]);
}
