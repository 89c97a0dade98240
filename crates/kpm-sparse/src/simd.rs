//! Which copy of the sweep body runs.
//!
//! The one sweep of `sweep.rs` is compiled twice from one source — for
//! the baseline target and under `#[target_feature(enable = "avx2")]`
//! — and [`wide`] picks the AVX2 copy when the CPU has it and the
//! runtime switch ([`set_enabled`]) is on. No cargo feature, build flag
//! or nightly toolchain is involved.
//!
//! Both copies replay the exact scalar operation order per lane (no
//! fused multiply-add anywhere), so the choice is purely a performance
//! knob — results are bitwise-identical either way, which is also why
//! a *runtime* toggle is safe to expose: one binary can bench
//! baseline-vs-AVX2 back to back.
//!
//! [`active_lanes`] is the `f64` lane count of what actually runs: the
//! `kpm report` banner reads it instead of hardcoding a width, so it
//! describes the host that executes.

use std::sync::atomic::{AtomicBool, Ordering};

/// Master switch for the AVX2 copy; on by default.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables the AVX2 copy at runtime. Purely a performance
/// knob: the two copies are bitwise-identical, so flipping this mid-run
/// can never change a result.
///
/// `Release` store pairing with the `Acquire` load in [`enabled`]: a
/// thread observing the new value also observes everything the setter
/// did before flipping the switch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Current state of the runtime switch (regardless of what the CPU
/// supports).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Proof that the running CPU executes AVX2: only [`wide`] makes one,
/// after detecting the feature, and the sweep dispatch demands one
/// before it enters the AVX2 copy.
#[derive(Debug, Clone, Copy)]
pub struct Avx2(());

/// The token for the AVX2 copy of the sweep when that is the copy to
/// run: the runtime switch is on and the CPU reports AVX2. `None`
/// selects the baseline copy (always, off x86-64). Kernels read this
/// once per call, outside their chunk loops.
pub fn wide() -> Option<Avx2> {
    #[cfg(target_arch = "x86_64")]
    if enabled() && std::arch::is_x86_feature_detected!("avx2") {
        return Some(Avx2(()));
    }
    None
}

/// Name of the sweep copy [`wide`] selects right now.
pub fn body_name() -> &'static str {
    match wide() {
        Some(_) => "avx2",
        None => "baseline",
    }
}

/// Lane count the kernels use right now: 4 (one 256-bit register of
/// doubles) when the AVX2 copy runs, else 1. This is what performance
/// models should read — a disabled runtime switch makes any host behave
/// like a scalar one.
pub fn active_lanes() -> usize {
    match wide() {
        Some(_) => 4,
        None => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_toggle_gates_the_wide_copy() {
        set_enabled(false);
        assert!(!enabled());
        assert!(wide().is_none());
        assert_eq!((body_name(), active_lanes()), ("baseline", 1));
        set_enabled(true);
        assert!(enabled());
        assert_eq!(wide().is_some(), body_name() == "avx2");
        assert_eq!(active_lanes(), if wide().is_some() { 4 } else { 1 });
    }
}
