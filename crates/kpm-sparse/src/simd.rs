//! Build-time and runtime configuration of the vector kernel bodies.
//!
//! Two mechanisms share one runtime switch ([`set_enabled`]):
//!
//! * **Stable builds** compile the blocked CRS and stencil sweep
//!   (`sweep.rs`) twice from one source — for the baseline target
//!   and under `#[target_feature(enable = "avx2")]` — and [`wide`]
//!   picks the AVX2 copy when the CPU has it. No cargo feature, build
//!   flag or nightly toolchain is involved.
//! * The `simd` cargo feature (nightly `portable_simd`) adds explicit
//!   lanes to the SELL-C-σ kernels ([`crate::aug_sell_simd`]), whose
//!   lane dimension is the chunk height rather than the block width;
//!   without it those entry points compile to their scalar bodies.
//!
//! Every vector body replays the exact scalar operation order per lane
//! (no fused multiply-add anywhere), so the choice is purely a
//! performance knob — results are bitwise-identical either way, which
//! is also why a *runtime* toggle is safe to expose: one binary can
//! bench baseline-vs-vector back to back.
//!
//! [`active_lanes`] is the `f64` lane count of what actually runs: the
//! autotuner's machine envelope and the `kpm report` roofline table
//! read it instead of hardcoding a width, so the model describes the
//! build and host that execute.

use std::sync::atomic::{AtomicBool, Ordering};

/// Master switch for the vector kernel paths; defaults to on so a
/// `--features simd` build vectorizes out of the box.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// True when this crate was compiled with the `simd` cargo feature
/// (portable `std::simd`, nightly toolchains only).
pub fn compiled() -> bool {
    cfg!(feature = "simd")
}

/// `f64` lane count of the compiled kernel variant: 8 under AVX-512,
/// 4 otherwise, 1 for scalar builds.
pub fn lanes() -> usize {
    crate::aug_sell_simd::LANES
}

/// Enables or disables the vector paths at runtime. Purely a
/// performance knob: scalar and SIMD bodies are bitwise-identical, so
/// flipping this mid-run can never change a result.
///
/// `Release` store pairing with the `Acquire` load in [`active`]: a
/// thread observing the new value also observes everything the setter
/// did before flipping the switch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Current state of the runtime switch (regardless of whether the
/// vector paths were compiled at all).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// True when the kernels will actually take the vector paths: compiled
/// with the `simd` feature *and* the runtime switch is on. Kernels
/// hoist this once per call, so a sweep never mixes paths mid-matrix.
pub fn active() -> bool {
    compiled() && enabled()
}

/// Proof that the running CPU executes AVX2: only [`wide`] makes one,
/// after detecting the feature, and the sweep dispatch demands one
/// before it enters the AVX2 copy.
#[derive(Debug, Clone, Copy)]
pub struct Avx2(());

/// The token for the AVX2 copy of the blocked sweeps when that is the
/// copy to run: the runtime switch is on and the CPU reports AVX2.
/// `None` selects the baseline copy (always, off x86-64). Kernels read
/// this once per call, outside their tile loops.
pub fn wide() -> Option<Avx2> {
    #[cfg(target_arch = "x86_64")]
    if enabled() && std::arch::is_x86_feature_detected!("avx2") {
        return Some(Avx2(()));
    }
    None
}

/// Name of the blocked-sweep copy [`wide`] selects right now.
pub fn body_name() -> &'static str {
    match wide() {
        Some(_) => "avx2",
        None => "baseline",
    }
}

/// Lane count the kernels will actually use right now: the compiled
/// width when the `simd`-feature paths are [`active`], else 4 (one
/// 256-bit register of doubles) when the AVX2 sweep copy runs, else 1.
/// This is what performance models should read — a disabled runtime
/// switch makes any build behave like a scalar one.
pub fn active_lanes() -> usize {
    if active() {
        lanes()
    } else if wide().is_some() {
        4
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_match_the_build() {
        if compiled() {
            assert!(lanes() == 4 || lanes() == 8, "lanes = {}", lanes());
        } else {
            assert_eq!(lanes(), 1);
        }
    }

    #[test]
    fn runtime_toggle_gates_active() {
        set_enabled(false);
        assert!(!active());
        assert!(!enabled());
        assert!(wide().is_none());
        assert_eq!((body_name(), active_lanes()), ("baseline", 1));
        set_enabled(true);
        assert!(enabled());
        assert_eq!(active(), compiled());
        assert_eq!(wide().is_some(), body_name() == "avx2");
        if !compiled() {
            assert_eq!(active_lanes(), if wide().is_some() { 4 } else { 1 });
        }
    }
}
