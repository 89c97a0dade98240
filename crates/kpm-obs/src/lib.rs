//! `kpm-obs` — zero-dependency observability for the KPM workspace.
//!
//! The paper's methodology is a *measurement discipline*: achieved
//! bandwidth, code balance, and the excess-traffic factor Ω (Eq. 8)
//! are continuously compared against the roofline model to locate the
//! bottleneck. `kpm-perfmodel` predicts; this crate measures live runs
//! so the two can be juxtaposed (`kpm report`).
//!
//! Its facilities, all behind one global switch:
//!
//! * [`span`](mod@span) — hierarchical spans with monotonic timing and a
//!   thread-safe registry, exportable as Chrome trace events.
//! * [`metrics`] — typed counters and gauges keyed by name (message
//!   counts, retry/backoff events, stash depth, bytes moved).
//! * [`hist`] — the one histogram type: log-linear, exact counts,
//!   bounded-error quantiles, each with a sliding window (checkpoint
//!   write/restore latency, service queue wait, solve and reply
//!   latency).
//! * [`slo`] — per-route latency objectives and their burn rates, over
//!   the same sliding window.
//! * [`probe`] — fixed-slot per-kernel performance probes (`spmv`,
//!   `aug_spmv`, `aug_spmmv`) accumulating elapsed time, modeled flops
//!   and minimum data volume, from which achieved GF/s and effective
//!   B/F are derived.
//! * [`clock`] and [`recorder`] — a Lamport clock for cross-thread
//!   ordering and a flight recorder dumped on a crash or a missed
//!   deadline.
//! * [`export`] — the JSONL metrics snapshot and the Chrome trace,
//!   written and parsed with [`json`].
//!
//! # Overhead discipline
//!
//! Instrumentation is **off by default**. Every entry point first loads
//! one relaxed [`AtomicBool`]; the disabled path takes no lock, reads no
//! clock, allocates nothing. Building with the `noop` feature turns
//! [`enabled`] into a constant `false` so the compiler removes the
//! calls entirely (the compile-time fast path).
//!
//! The crate deliberately depends on nothing — not even other workspace
//! crates — so every layer (kernels, solver, distributed runtime) can
//! depend on it without cycles, and it stays compatible with the
//! offline shim policy.

#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod recorder;
pub mod slo;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when instrumentation is globally enabled (and the crate was not
/// built with the `noop` feature).
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(not(feature = "noop")) && ENABLED.load(Ordering::Relaxed)
}

/// Turns instrumentation on or off globally. A no-op under the `noop`
/// feature.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears every registry (spans, metrics, kernel probes, exact
/// histograms, SLOs, Lamport clock, flight recorder). Intended for
/// tests and for the CLI between measurement phases; does not change
/// the enabled flag.
pub fn reset() {
    span::reset();
    metrics::reset();
    probe::reset();
    hist::reset();
    slo::reset();
    clock::reset();
    recorder::reset();
}

/// RAII guard that enables instrumentation on construction and restores
/// the previous state on drop. Keeps test code exception-safe.
pub struct EnabledGuard {
    prev: bool,
}

impl EnabledGuard {
    /// Enables instrumentation until the guard is dropped.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let prev = ENABLED.swap(true, Ordering::Relaxed);
        EnabledGuard { prev }
    }
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        ENABLED.store(self.prev, Ordering::Relaxed);
    }
}

/// Serializes unit tests that toggle or inspect the global registries.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
