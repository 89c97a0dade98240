//! Tier-1 static-analysis gate.
//!
//! Two hard guarantees ride in this suite:
//!
//! 1. **The workspace is lint-clean**: `kpm-analyze` finds zero
//!    diagnostics over every crate — `no_panic`, `safety_comment`,
//!    `hot_loop_alloc`, the interprocedural `panic_path` and the two
//!    `kpm::allow` marker audits — and every crate and file those
//!    rules name still exists, so no rule runs on nothing.
//! 2. **The hetsim runtime protocol model is verified**: the schedule
//!    explorer exhausts ≥1000 distinct interleavings of the 2-rank
//!    send/recv/dedup model (and a 3-rank pipeline under a preemption
//!    bound), proving deadlock-freedom and exactly-once delivery, and
//!    demonstrably *catches* seeded protocol bugs (deadlock, dedup
//!    removal, message loss, checkpoint regression).

use std::path::Path;

use kpm_analyze::lints::{is_hot_kernel_file, HOT_KERNEL_FILES, KERNEL_CRATES};
use kpm_analyze::sched::{self, Config, Violation};
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

#[test]
fn two_rank_protocol_exactly_once_and_deadlock_free() {
    // 8 logical messages plus one fault-injected duplicate of seq 3:
    // the dedup filter must make delivery exactly-once on EVERY
    // schedule, and some thread must always be runnable.
    let threads = sched::two_rank_dedup_model(8, Some(3));
    let report = sched::explore(&threads, &Config::default());
    assert!(
        report.clean(),
        "protocol violation: {:?}",
        report.counterexamples
    );
    assert!(!report.truncated, "interleaving budget too small");
    assert!(
        report.interleavings >= 1000,
        "only {} distinct interleavings explored; acceptance floor is 1000",
        report.interleavings
    );
}

#[test]
fn three_rank_pipeline_holds_under_preemption_bound() {
    let threads = sched::three_rank_pipeline_model();
    let report = sched::explore(
        &threads,
        &Config {
            preemption_bound: Some(3),
            ..Config::default()
        },
    );
    assert!(
        report.clean(),
        "protocol violation: {:?}",
        report.counterexamples
    );
    assert!(!report.truncated);
    assert!(report.interleavings >= 100, "only {}", report.interleavings);
}

#[test]
fn explorer_detects_seeded_protocol_bugs() {
    // Deadlock: both ranks recv before sending.
    let report = sched::explore(&sched::deadlock_model(), &Config::default());
    assert!(report.deadlocks > 0, "deadlock not detected");
    assert!(matches!(
        report.counterexamples[0].violation,
        Violation::Deadlock
    ));
    assert!(
        !report.counterexamples[0].trace.is_empty() || report.interleavings == 1,
        "deadlock counterexample should carry a schedule trace"
    );

    // Dedup removed: the duplicated send is delivered twice on every
    // schedule.
    let threads = sched::two_rank_dedup_model(3, Some(1));
    let report = sched::explore(
        &threads,
        &Config {
            model_dedup: false,
            ..Config::default()
        },
    );
    assert!(report.double_deliveries > 0, "double delivery not detected");

    // Lossy receive: timeout schedules strand the message.
    let report = sched::explore(&sched::lost_message_model(), &Config::default());
    assert!(report.lost_messages > 0, "lost message not detected");

    // Unguarded checkpoint writers: the version can regress.
    let report = sched::explore(&sched::racing_checkpoint_model(), &Config::default());
    assert!(
        report.version_regressions > 0,
        "version regression not detected"
    );
}
