//! Which copy of the sweep body runs.
//!
//! The one sweep of `sweep.rs` is compiled three times from one source
//! — for the baseline target, under `#[target_feature(enable =
//! "avx2")]` and under `#[target_feature(enable = "avx512f")]` — and
//! [`wide`] picks the widest copy ([`Body`]) the CPU executes that the
//! cap ([`set_cap`]) allows. No cargo feature, build flag or nightly
//! toolchain is involved.
//!
//! All copies replay the exact scalar operation order per lane (no
//! fused multiply-add anywhere), so the choice is purely a performance
//! knob — results are bitwise-identical whichever runs, which is also
//! why a *runtime* cap is safe to expose: one binary can bench and test
//! the copies back to back.
//!
//! [`active_lanes`] is the `f64` lane count of what actually runs: the
//! `kpm report` banner reads it instead of hardcoding a width, so it
//! describes the host that executes.

use std::sync::atomic::{AtomicU8, Ordering};

/// A compiled copy of the sweep body, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Body {
    /// The baseline x86-64 (SSE2) copy; the only one off x86-64.
    Baseline,
    /// The AVX2 copy: 256-bit registers.
    Avx2,
    /// The AVX-512 copy: 512-bit registers, two layout panels per pass.
    Avx512,
}

impl Body {
    /// Every copy, narrowest first.
    pub const ALL: [Body; 3] = [Body::Baseline, Body::Avx2, Body::Avx512];

    /// The name `kpm report` prints.
    pub fn name(self) -> &'static str {
        ["baseline", "avx2", "avx512"][self as usize]
    }

    /// `f64` lanes of one register of this copy (1 for the baseline:
    /// what performance models should treat as scalar).
    pub fn lanes(self) -> usize {
        [1, 4, 8][self as usize]
    }

    /// Whether the running CPU executes this copy.
    pub fn supported(self) -> bool {
        match self {
            Body::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The widest copy [`wide`] may pick; [`Body::Avx512`] (no cap) by
/// default.
static CAP: AtomicU8 = AtomicU8::new(Body::Avx512 as u8);

/// Caps the copy [`wide`] picks (`--no-simd` caps at
/// [`Body::Baseline`]). Purely a performance knob: the copies are
/// bitwise-identical, so moving the cap mid-run can never change a
/// result.
///
/// `Release` store pairing with the `Acquire` load in [`cap`]: a thread
/// observing the new value also observes everything the setter did
/// before moving the cap.
pub fn set_cap(body: Body) {
    CAP.store(body as u8, Ordering::Release);
}

/// The current cap (regardless of what the CPU supports).
pub fn cap() -> Body {
    let cap = CAP.load(Ordering::Acquire);
    Body::ALL[usize::from(cap).min(Body::ALL.len() - 1)]
}

/// Proof that the running CPU executes the [`Body`] it names: only
/// [`wide`] makes one, after detecting the feature, and the sweep
/// dispatch demands one before it enters a `#[target_feature]` copy.
#[derive(Debug, Clone, Copy)]
pub struct Wide(Body);

impl Wide {
    /// The copy this token admits to.
    pub fn body(self) -> Body {
        self.0
    }
}

/// The token for the copy of the sweep to run: the widest one under the
/// cap that the CPU reports (the baseline always qualifies). Kernels
/// read this once per call, outside their chunk loops.
pub fn wide() -> Wide {
    let cap = cap();
    let mut bodies = Body::ALL.into_iter().rev();
    let admitted = bodies.find(|b| *b <= cap && b.supported());
    Wide(admitted.unwrap_or(Body::Baseline))
}

/// Name of the sweep copy [`wide`] selects right now.
pub fn body_name() -> &'static str {
    wide().body().name()
}

/// Lane count the kernels use right now ([`Body::lanes`] of the copy
/// that runs). This is what performance models should read — a cap at
/// the baseline makes any host behave like a scalar one.
pub fn active_lanes() -> usize {
    wide().body().lanes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cap_bounds_the_copy_that_runs() {
        for cap_at in Body::ALL {
            set_cap(cap_at);
            assert_eq!(cap(), cap_at);
            let body = wide().body();
            assert!(body <= cap_at && body.supported());
            // Nothing wider was available under the cap.
            let wider = |b: &Body| *b > body && *b <= cap_at;
            assert!(Body::ALL
                .iter()
                .filter(|b| wider(b))
                .all(|b| !b.supported()));
            assert_eq!((body_name(), active_lanes()), (body.name(), body.lanes()));
        }
        set_cap(Body::Baseline);
        assert_eq!((body_name(), active_lanes()), ("baseline", 1));
        set_cap(Body::Avx512);
        assert_eq!(Body::Avx512.lanes(), 8);
        assert_eq!(Body::Avx512.name(), "avx512");
    }
}
