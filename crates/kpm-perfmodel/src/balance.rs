//! Code balance (paper Eqs. 5–8).
//!
//! The minimum code balance of the fully optimized solver,
//!
//! ```text
//! B_min(R) = [Nnzr/R (Sd+Si) + 3 Sd] / [Nnzr(Fa+Fm) + 7Fa/2 + 9Fm/2]
//! ```
//!
//! evaluates for the topological-insulator workload (`Nnzr = 13`,
//! double complex, 4-byte indices) to `(260/R + 48)/138` bytes/flop:
//! 2.23 B/F at `R = 1`, asymptotically 0.35 B/F — which is what decouples
//! the kernel from main-memory bandwidth.

use kpm_num::accounting::Sweep;

/// Minimum code balance `B_min(R)` in bytes/flop for average row
/// occupancy `nnzr` and block width `r` (paper Eq. 5).
pub fn min_code_balance(nnzr: f64, r: usize) -> f64 {
    assert!(r >= 1, "block width must be at least 1");
    Sweep::Aug.min_bytes_per_row(nnzr, r) / Sweep::Aug.flops_per_row(nnzr)
}

/// The asymptotic balance `lim_{R→∞} B_min` (paper Eq. 7).
pub fn asymptotic_balance(nnzr: f64) -> f64 {
    // The vector transfers alone: the matrix share vanishes with R.
    Sweep::Aug.min_bytes_per_row(0.0, 1) / Sweep::Aug.flops_per_row(nnzr)
}

/// The *actual* balance `B = Ω · B_min` (paper Eq. 8), with
/// `Ω = V_meas / V_KPM ≥ 1` the excess-traffic factor measured by the
/// cache simulator.
pub fn actual_balance(nnzr: f64, r: usize, omega: f64) -> f64 {
    assert!(omega >= 1.0 - 1e-9, "omega must be >= 1");
    omega * min_code_balance(nnzr, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_formula_matches_eq5_closed_form() {
        // (260/R + 48)/138 for Nnzr = 13.
        for r in [1usize, 2, 4, 8, 16, 32, 64] {
            let closed = (260.0 / r as f64 + 48.0) / 138.0;
            assert!((min_code_balance(13.0, r) - closed).abs() < 1e-12, "R={r}");
        }
    }

    #[test]
    fn r1_balance_is_2_23() {
        // Paper Eq. (6).
        assert!((min_code_balance(13.0, 1) - 2.23).abs() < 0.01);
    }

    #[test]
    fn asymptotic_balance_is_0_35() {
        // Paper Eq. (7).
        assert!((asymptotic_balance(13.0) - 0.35).abs() < 0.01);
        // B_min(R) approaches it monotonically from above.
        let b64 = min_code_balance(13.0, 64);
        let b1024 = min_code_balance(13.0, 1024);
        assert!(b1024 < b64);
        assert!(b1024 > asymptotic_balance(13.0));
    }

    #[test]
    fn balance_decreases_monotonically_in_r() {
        let mut prev = f64::INFINITY;
        for r in 1..=128 {
            let b = min_code_balance(13.0, r);
            assert!(b < prev);
            prev = b;
        }
    }

    #[test]
    fn omega_scales_balance_linearly() {
        let b = min_code_balance(13.0, 8);
        assert!((actual_balance(13.0, 8, 1.0) - b).abs() < 1e-15);
        assert!((actual_balance(13.0, 8, 1.54) - 1.54 * b).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "omega must be >= 1")]
    fn omega_below_one_rejected() {
        actual_balance(13.0, 4, 0.5);
    }
}
