//! Regression test for the `noop` build: with the feature on, the
//! whole instrumentation layer must stay dark — `enabled()` is
//! constant `false` even after `set_enabled(true)` or an
//! `EnabledGuard`, and no recording entry point leaves a trace in any
//! registry. Compiled (and run by `scripts/verify.sh`) only under
//! `--features noop`; without the feature this file is empty.

#![cfg(feature = "noop")]

use kpm_obs::probe::{KernelKind, ProbeFormat};

#[test]
fn enabled_is_constant_false_under_noop() {
    assert!(!kpm_obs::enabled());
    kpm_obs::set_enabled(true);
    assert!(!kpm_obs::enabled(), "set_enabled must not defeat noop");
    let _guard = kpm_obs::EnabledGuard::new();
    assert!(!kpm_obs::enabled(), "EnabledGuard must not defeat noop");
}

#[test]
fn recording_leaves_no_trace_under_noop() {
    let _guard = kpm_obs::EnabledGuard::new();

    kpm_obs::metrics::counter_add("noop.counter", 3);
    kpm_obs::metrics::counter_inc("noop.counter");
    kpm_obs::metrics::gauge_set("noop.gauge", 1.5);
    kpm_obs::metrics::gauge_max("noop.gauge", 2.5);
    kpm_obs::metrics::hist_record("noop.hist", 0.5);
    assert_eq!(kpm_obs::metrics::counter_value("noop.counter"), 0);
    assert_eq!(kpm_obs::metrics::gauge_value("noop.gauge"), None);
    assert!(kpm_obs::metrics::snapshot().is_empty());

    {
        let span = kpm_obs::span::span("noop.span", "test").arg("k", 1);
        assert!(!span.is_recording());
    }
    assert!(kpm_obs::span::snapshot().is_empty());
    assert_eq!(kpm_obs::span::count("noop.span"), 0);

    let timer =
        kpm_obs::probe::kernel_timer(KernelKind::AugSpmmv, ProbeFormat::Crs, 8, 32, 4, || (1, 1));
    assert!(timer.is_none(), "kernel_timer must not arm under noop");
    assert!(kpm_obs::probe::snapshot().is_empty());
}

#[test]
fn tracing_layer_stays_dark_under_noop() {
    let _guard = kpm_obs::EnabledGuard::new();

    // Trace ids and the Lamport clock are compile-time zeros.
    assert_eq!(kpm_obs::span::mint_trace(), 0);
    assert_eq!(kpm_obs::clock::tick(), 0);
    assert_eq!(kpm_obs::clock::observe(41), 0);
    assert_eq!(kpm_obs::clock::current(), 0);

    // Exact histograms, SLOs, and the flight recorder record nothing.
    kpm_obs::hist::record("noop.hist_ns", 7);
    assert!(kpm_obs::hist::snapshot().is_empty());
    assert!(kpm_obs::hist::get("noop.hist_ns").is_none());
    kpm_obs::slo::objective("dos", 1_000_000, 0.99);
    kpm_obs::slo::observe("dos", 5_000_000);
    assert!(kpm_obs::slo::snapshot().is_empty());
    kpm_obs::recorder::note("noop.event", 1, "detail");
    assert_eq!(kpm_obs::recorder::len(), 0);
    assert!(kpm_obs::recorder::trigger_dump("reason").is_none());
    assert_eq!(kpm_obs::recorder::dumps_triggered(), 0);

    // Retroactive span recording refuses too.
    assert_eq!(
        kpm_obs::span::record_manual("noop.span", "test", 1, None, 0.0, 1.0, vec![]),
        None
    );
    assert!(kpm_obs::span::snapshot().is_empty());
}
