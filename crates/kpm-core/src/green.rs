//! Retarded Green function reconstruction.
//!
//! KPM moments determine not only the spectral density but the full
//! retarded Green function (Weiße et al., Rev. Mod. Phys. 78, 275 —
//! paper ref. [7]): with `x = cos θ`,
//!
//! ```text
//! G(x + i0) = -(1/√(1-x²)) [ g₀μ₀·(-i) + 2 Σ_{m≥1} g_m μ_m e^{-imθ}·(-i)·… ]
//! ```
//!
//! which splits into `Im G(x) = -π ρ(x)` (the DOS) and
//!
//! `Re G(x) = -(2/√(1-x²)) Σ_{m≥1} g_m μ_m sin(mθ)`,
//!
//! i.e. the Hilbert transform of the density comes for free from the
//! same moments — no extra matrix work. Used for self-energies,
//! embedding, and transport kernels downstream of KPM.

use kpm_num::Complex64;
use kpm_topo::ScaleFactors;

use crate::kernels::Kernel;
use crate::moments::MomentSet;

/// The retarded Green function `G(E + i0)` sampled on an energy grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GreenCurve {
    /// Sample energies.
    pub energies: Vec<f64>,
    /// `G(E + i0)` values.
    pub values: Vec<Complex64>,
}

/// Evaluates `G(x + i0)` at one Chebyshev coordinate `x ∈ (-1, 1)`.
///
/// With `x = cos θ`: `cos mθ = T_m(x)` and `sin mθ / sin θ = U_{m−1}(x)`,
/// both polynomials stepped by their three-term recurrences, so no term
/// calls into libm and the real part needs no division by `√(1−x²)`.
pub fn green_at(moments: &MomentSet, g: &[f64], x: f64) -> Complex64 {
    assert!((-1.0..=1.0).contains(&x), "x must be inside [-1, 1]");
    let mu = moments.as_slice();
    assert_eq!(mu.len(), g.len(), "moments/kernel length mismatch");
    let root = (1.0 - x * x).sqrt().max(f64::MIN_POSITIVE);
    let mut re = 0.0;
    let mut im = if mu.is_empty() { 0.0 } else { g[0] * mu[0] };
    // (T_{m−1}, T_m) and (U_{m−2}, U_{m−1}) at m = 1.
    let (mut t_prev, mut t) = (1.0, x);
    let (mut u_prev, mut u) = (0.0, 1.0);
    for m in 1..mu.len() {
        let c = 2.0 * g[m] * mu[m];
        re -= c * u;
        im += c * t;
        (t_prev, t) = (t, 2.0 * x * t - t_prev);
        (u_prev, u) = (u, 2.0 * x * u - u_prev);
    }
    Complex64::new(re, -im / root)
}

/// Reconstructs `G(E + i0)` on `n_points` Chebyshev nodes mapped back
/// to energy. The rescaling Jacobian multiplies by `a`, matching the
/// DOS convention (`Im G(E) = -π ρ(E)` per site).
pub fn reconstruct_green(
    moments: &MomentSet,
    kernel: Kernel,
    sf: ScaleFactors,
    n_points: usize,
) -> GreenCurve {
    let g = kernel.coefficients(moments.len());
    let nodes = crate::chebyshev::chebyshev_nodes(n_points);
    let mut energies = Vec::with_capacity(n_points);
    let mut values = Vec::with_capacity(n_points);
    for &x in &nodes {
        energies.push(sf.to_energy(x));
        values.push(green_at(moments, &g, x).scale(sf.a));
    }
    GreenCurve { energies, values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chebyshev::t;
    use crate::dos::reconstruct;
    use crate::solver::{kpm_moments, KpmParams, KpmVariant};
    use kpm_topo::model::random_hermitian;

    /// Moments of a single pole at `x0`: μ_m = T_m(x0), constructed via
    /// the inverse of the product identities: the η pairs that the
    /// solver would produce for this measure are
    /// `η_{2m} = (T_{2m}(x0)+μ₀)/2`, `η_{2m+1} = (T_{2m+1}(x0)+μ₁)/2`.
    fn pole_moments(x0: f64, m_count: usize) -> MomentSet {
        let iters = (m_count - 2) / 2;
        let eta: Vec<(f64, Complex64)> = (1..=iters)
            .map(|m| {
                (
                    (t(2 * m, x0) + 1.0) / 2.0,
                    Complex64::real((t(2 * m + 1, x0) + t(1, x0)) / 2.0),
                )
            })
            .collect();
        MomentSet::from_eta(1.0, t(1, x0), &eta)
    }

    #[test]
    fn imaginary_part_is_minus_pi_dos() {
        let h = random_hermitian(100, 3, 4);
        let sf = kpm_topo::ScaleFactors::from_gershgorin(&h, 0.01);
        let p = KpmParams {
            num_moments: 64,
            num_random: 8,
            seed: 11,
            parallel: false,
            threads: 0,
            power: 1,
            first_touch: false,
        };
        let set = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let dos = reconstruct(&set, Kernel::Jackson, sf, 257);
        let green = reconstruct_green(&set, Kernel::Jackson, sf, 257);
        for ((e, rho), gv) in dos.energies.iter().zip(&dos.values).zip(&green.values) {
            assert!(
                (gv.im + std::f64::consts::PI * rho).abs() < 1e-9 * (1.0 + rho.abs()),
                "at E={e}: Im G = {}, -pi rho = {}",
                gv.im,
                -std::f64::consts::PI * rho
            );
        }
    }

    #[test]
    fn single_pole_real_part_matches_resolvent() {
        // mu_m = T_m(x0) is the spectral measure delta(x - x0), whose
        // resolvent is 1/(x - x0). Away from the pole the damped
        // reconstruction must approach it.
        let x0 = -0.2;
        let m_count = 512;
        let set = pole_moments(x0, m_count);
        let g = Kernel::Jackson.coefficients(m_count);
        for &x in &[0.35f64, 0.6, -0.7] {
            let got = green_at(&set, &g, x).re;
            let want = 1.0 / (x - x0);
            assert!(
                (got - want).abs() < 0.05 * want.abs(),
                "x={x}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn kramers_kronig_consistency() {
        // Re G at x must equal the principal-value integral of the
        // density: P∫ rho(x')/(x - x') dx'. Evaluate the PV integral by
        // Gauss-Chebyshev quadrature with the singular point excluded
        // symmetrically.
        let h = random_hermitian(80, 3, 6);
        let sf = kpm_topo::ScaleFactors::from_gershgorin(&h, 0.01);
        let p = KpmParams {
            num_moments: 128,
            num_random: 16,
            seed: 12,
            parallel: false,
            threads: 0,
            power: 1,
            first_touch: false,
        };
        let set = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let g = Kernel::Jackson.coefficients(set.len());

        let k = 20_001; // odd, fine grid for the PV integral
        let nodes = crate::chebyshev::chebyshev_nodes(k);
        // Density in Chebyshev coordinates (without the 1/sqrt weight
        // so Gauss-Chebyshev quadrature absorbs it).
        let series: Vec<f64> = nodes
            .iter()
            .map(|&xp| {
                crate::chebyshev::damped_series(set.as_slice(), &g, xp) / std::f64::consts::PI
            })
            .collect();
        let x = 0.27;
        let pv: f64 = nodes
            .iter()
            .zip(&series)
            .filter(|(&xp, _)| (xp - x).abs() > 5e-4)
            .map(|(&xp, &s)| s / (x - xp))
            .sum::<f64>()
            * std::f64::consts::PI
            / k as f64;
        let re_g = green_at(&set, &g, x).re;
        assert!(
            (re_g - pv).abs() < 0.05 * (1.0 + re_g.abs()),
            "Re G = {re_g} vs PV integral = {pv}"
        );
    }

    #[test]
    fn the_recurrences_agree_with_sin_and_cos_per_term() {
        // The per-term form the recurrences replaced, on single-pole
        // moments (each |μ_m| up to 1) under the Jackson kernel, at 256
        // Chebyshev nodes: the largest difference relative to the
        // curve's largest value. Measured: 6.5e-14, 1.5e-13 and 7.3e-12
        // at M = 128, 1024 and 4096 — the per-term form's own error, an
        // `acos` rounding times m, grows the same way.
        fn per_term(mu: &[f64], g: &[f64], x: f64) -> Complex64 {
            let theta = x.acos();
            let root = (1.0 - x * x).sqrt().max(f64::MIN_POSITIVE);
            let (mut re, mut im) = (0.0, g[0] * mu[0]);
            for m in 1..mu.len() {
                let mf = m as f64;
                re -= 2.0 * g[m] * mu[m] * (mf * theta).sin();
                im += 2.0 * g[m] * mu[m] * (mf * theta).cos();
            }
            Complex64::new(re / root, -im / root)
        }
        for (m_count, tolerance) in [(128, 2.5e-13), (1024, 6e-13), (4096, 3e-11)] {
            let set = pole_moments(0.3, m_count);
            let g = Kernel::Jackson.coefficients(m_count);
            let nodes = crate::chebyshev::chebyshev_nodes(256);
            let want: Vec<_> = nodes
                .iter()
                .map(|&x| per_term(set.as_slice(), &g, x))
                .collect();
            let scale = want.iter().map(|z| z.abs()).fold(0.0, f64::max);
            let worst = nodes
                .iter()
                .zip(&want)
                .map(|(&x, w)| (green_at(&set, &g, x) - *w).abs() / scale)
                .fold(0.0, f64::max);
            assert!(worst < tolerance, "M = {m_count}: {worst:e}");
        }
    }

    #[test]
    #[should_panic(expected = "inside [-1, 1]")]
    fn outside_interval_panics() {
        let set = MomentSet::zeros(4);
        let g = Kernel::Dirichlet.coefficients(4);
        green_at(&set, &g, 1.5);
    }
}
