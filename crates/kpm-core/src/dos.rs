//! Density-of-states reconstruction from Chebyshev moments.
//!
//! With normalized moments `μ_m = tr[T_m(H̃)]/N` the per-site DOS in
//! Chebyshev coordinates is
//!
//! ```text
//! ρ̃(x) = [ g₀μ₀ + 2 Σ_{m≥1} g_m μ_m T_m(x) ] / (π √(1-x²))
//! ```
//!
//! and transforms back to energy as `ρ(E) = a·ρ̃(a(E-b))` (Jacobian of
//! the rescaling `x = a(E-b)`). The curve integrates to `μ₀ = 1`
//! (states per site); multiply by `N` for the absolute eigenvalue count
//! of paper Eq. (2).

use kpm_topo::ScaleFactors;

use crate::chebyshev::{chebyshev_nodes, damped_series};
use crate::kernels::Kernel;
use crate::moments::MomentSet;

/// A reconstructed spectral density sampled on an energy grid.
#[derive(Debug, Clone, PartialEq)]
pub struct DosCurve {
    /// Sample energies (ascending).
    pub energies: Vec<f64>,
    /// Density values (per site, per unit energy).
    pub values: Vec<f64>,
}

impl DosCurve {
    /// Integral over the whole curve by the trapezoid rule.
    pub fn integral(&self) -> f64 {
        trapezoid(&self.energies, &self.values)
    }

    /// Integral over the window `[e_lo, e_hi]` (trapezoid on the
    /// covered samples; window borders snap to the grid).
    pub fn integral_window(&self, e_lo: f64, e_hi: f64) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .energies
            .iter()
            .copied()
            .zip(self.values.iter().copied())
            .filter(|(e, _)| *e >= e_lo && *e <= e_hi)
            .collect();
        if pts.len() < 2 {
            return 0.0;
        }
        let (es, vs): (Vec<f64>, Vec<f64>) = pts.into_iter().unzip();
        trapezoid(&es, &vs)
    }

    /// The energy of the maximum density value.
    pub fn peak_energy(&self) -> f64 {
        let mut best = 0;
        for i in 1..self.values.len() {
            if self.values[i] > self.values[best] {
                best = i;
            }
        }
        self.energies[best]
    }

    /// Value at the grid point closest to `e`.
    pub fn value_at(&self, e: f64) -> f64 {
        let mut best = 0;
        let mut dist = f64::INFINITY;
        for (i, &ei) in self.energies.iter().enumerate() {
            let d = (ei - e).abs();
            if d < dist {
                dist = d;
                best = i;
            }
        }
        self.values[best]
    }
}

fn trapezoid(x: &[f64], y: &[f64]) -> f64 {
    x.windows(2)
        .zip(y.windows(2))
        .map(|(xs, ys)| 0.5 * (ys[0] + ys[1]) * (xs[1] - xs[0]))
        .sum()
}

/// Reconstructs the DOS on `n_points` Chebyshev nodes mapped back to
/// energy. Using Chebyshev nodes avoids the diverging `1/√(1-x²)`
/// endpoint weight and makes Gauss–Chebyshev quadrature exact.
pub fn reconstruct(
    moments: &MomentSet,
    kernel: Kernel,
    sf: ScaleFactors,
    n_points: usize,
) -> DosCurve {
    assert!(n_points >= 2, "need at least two sample points");
    let g = kernel.coefficients(moments.len());
    let mu = moments.as_slice();
    let nodes = chebyshev_nodes(n_points);
    let mut energies = Vec::with_capacity(n_points);
    let mut values = Vec::with_capacity(n_points);
    for &x in &nodes {
        let series = damped_series(mu, &g, x);
        let rho_x = series / (std::f64::consts::PI * (1.0 - x * x).sqrt());
        energies.push(sf.to_energy(x));
        values.push(sf.a * rho_x);
    }
    DosCurve { energies, values }
}

/// Gauss–Chebyshev estimate of `∫ ρ(E) dE` directly from the moments —
/// exact up to rounding (`= g₀ μ₀`), independent of the grid. Used as a
/// normalization check.
pub fn moment_integral(moments: &MomentSet, kernel: Kernel) -> f64 {
    let g = kernel.coefficients(moments.len());
    if g.is_empty() {
        0.0
    } else {
        g[0] * moments.as_slice()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{kpm_moments, moments_from_start, KpmParams, KpmVariant};
    use kpm_num::{Complex64, Vector};
    use kpm_topo::model::{chain_1d, exact_eigenvalues, random_hermitian};

    #[test]
    fn dos_of_single_eigenstate_peaks_at_its_energy() {
        let n = 60;
        let h = chain_1d(n, 1.0);
        let sf = ScaleFactors::from_bounds(-2.0, 2.0, 0.05);
        let k = 11usize;
        let kq = (k as f64 + 1.0) * std::f64::consts::PI / (n as f64 + 1.0);
        let e_mode = 2.0 * kq.cos();
        let mut v = Vector::from_vec(
            (0..n)
                .map(|i| Complex64::real(((i + 1) as f64 * kq).sin()))
                .collect(),
        );
        v.normalize();
        let set = moments_from_start(&h, sf, &v, 128).unwrap();
        let curve = reconstruct(&set, Kernel::Jackson, sf, 400);
        assert!(
            (curve.peak_energy() - e_mode).abs() < 0.05,
            "peak {} vs mode {}",
            curve.peak_energy(),
            e_mode
        );
    }

    #[test]
    fn dos_integrates_to_one_per_site() {
        let h = random_hermitian(120, 4, 3);
        let sf = kpm_topo::ScaleFactors::from_gershgorin(&h, 0.01);
        let p = KpmParams {
            num_moments: 64,
            num_random: 4,
            seed: 5,
            parallel: false,
            threads: 0,
            power: 1,
            first_touch: false,
        };
        let set = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let curve = reconstruct(&set, Kernel::Jackson, sf, 1024);
        assert!((moment_integral(&set, Kernel::Jackson) - 1.0).abs() < 1e-10);
        assert!(
            (curve.integral() - 1.0).abs() < 0.02,
            "{}",
            curve.integral()
        );
    }

    #[test]
    fn jackson_dos_is_nonnegative() {
        let h = random_hermitian(80, 3, 9);
        let sf = kpm_topo::ScaleFactors::from_gershgorin(&h, 0.01);
        let p = KpmParams {
            num_moments: 96,
            num_random: 8,
            seed: 6,
            parallel: false,
            threads: 0,
            power: 1,
            first_touch: false,
        };
        let set = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let curve = reconstruct(&set, Kernel::Jackson, sf, 600);
        for (e, v) in curve.energies.iter().zip(&curve.values) {
            assert!(*v > -1e-6, "negative DOS {v} at E={e}");
        }
    }

    #[test]
    fn window_counts_match_exact_eigenvalue_counts() {
        // The headline application of KPM-DOS: predicting eigenvalue
        // counts in an interval (paper refs. [8], [22]).
        let n = 150;
        let h = random_hermitian(n, 3, 17);
        let sf = kpm_topo::ScaleFactors::from_gershgorin(&h, 0.01);
        let p = KpmParams {
            num_moments: 128,
            num_random: 48,
            seed: 7,
            parallel: false,
            threads: 0,
            power: 1,
            first_touch: false,
        };
        let set = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let curve = reconstruct(&set, Kernel::Jackson, sf, 2048);
        let evs = exact_eigenvalues(&h);
        let (e_lo, e_hi) = (-1.0, 1.0);
        let exact_count = evs.iter().filter(|e| **e >= e_lo && **e <= e_hi).count();
        let kpm_count = curve.integral_window(e_lo, e_hi) * n as f64;
        let rel_err = (kpm_count - exact_count as f64).abs() / exact_count as f64;
        assert!(
            rel_err < 0.15,
            "KPM count {kpm_count:.1} vs exact {exact_count} (rel err {rel_err:.3})"
        );
    }

    #[test]
    fn value_at_and_peak_are_consistent() {
        let curve = DosCurve {
            energies: vec![0.0, 1.0, 2.0, 3.0],
            values: vec![0.1, 0.9, 0.4, 0.2],
        };
        assert_eq!(curve.peak_energy(), 1.0);
        assert_eq!(curve.value_at(1.2), 0.9);
        assert_eq!(curve.value_at(2.6), 0.2);
    }

    #[test]
    fn integral_window_subset() {
        let curve = DosCurve {
            energies: (0..=10).map(|i| i as f64).collect(),
            values: vec![1.0; 11],
        };
        assert!((curve.integral() - 10.0).abs() < 1e-12);
        assert!((curve.integral_window(2.0, 5.0) - 3.0).abs() < 1e-12);
        assert_eq!(curve.integral_window(20.0, 30.0), 0.0);
    }
}
