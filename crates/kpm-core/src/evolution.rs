//! Chebyshev time evolution.
//!
//! The same machinery that powers KPM-DOS — the Chebyshev recurrence on
//! `H̃` — also yields numerically exact quantum time evolution (see the
//! KPM review, paper ref. [7]): with `H = H̃/a + b` and `τ = t/a`,
//!
//! ```text
//! e^{-iHt} |ψ⟩ = e^{-ibt} Σ_m (2 - δ_m0) (-i)^m J_m(τ) T_m(H̃) |ψ⟩ ,
//! ```
//!
//! where `J_m` are Bessel functions of the first kind. The expansion
//! converges superexponentially once `m > τ`, so the loop runs the same
//! `aug`-style vector recurrence as the DOS solver with a known, small
//! number of terms. This is the standard wave-packet propagation
//! technique for topological-insulator surface-state dynamics.

use kpm_num::vector::{axpy, dot, scal};
use kpm_num::{Complex64, Vector};
use kpm_sparse::{CrsMatrix, SparseKernels};
use kpm_topo::ScaleFactors;

/// Bessel functions `J_0(x) .. J_{n_max}(x)` by Miller's downward
/// recurrence, normalized with `J_0 + 2 Σ_{k≥1} J_{2k} = 1`. Accurate
/// to near machine precision for the argument ranges used here.
pub fn bessel_j_sequence(n_max: usize, x: f64) -> Vec<f64> {
    assert!(x >= 0.0, "argument must be non-negative");
    if x == 0.0 {
        let mut out = vec![0.0; n_max + 1];
        out[0] = 1.0;
        return out;
    }
    // Start the downward recurrence well above both n_max and x.
    let start = (n_max + (x as usize) + 20 + 2 * (x.sqrt() as usize)).next_multiple_of(2);
    let mut jp1 = 0.0f64; // J_{k+1}
    let mut j = f64::MIN_POSITIVE * 1e10; // J_k (arbitrary tiny seed)
    let mut out = vec![0.0; n_max + 1];
    let mut norm = 0.0; // J_0 + 2*sum J_{2k}
    for k in (0..start).rev() {
        let jm1 = 2.0 * (k as f64 + 1.0) / x * j - jp1;
        jp1 = j;
        j = jm1;
        // j now holds J_k (unnormalized).
        if k <= n_max {
            out[k] = j;
        }
        if k % 2 == 0 {
            norm += if k == 0 { j } else { 2.0 * j };
        }
        // Rescale to avoid overflow during the downward sweep.
        if j.abs() > 1e250 {
            j *= 1e-250;
            jp1 *= 1e-250;
            norm *= 1e-250;
            for o in &mut out {
                *o *= 1e-250;
            }
        }
    }
    for o in &mut out {
        *o /= norm;
    }
    out
}

/// Number of expansion terms for time step `tau = t/a` at roughly
/// machine-precision truncation (superexponential tail after `m ≈ τ`).
pub fn evolution_order(tau: f64) -> usize {
    (tau.abs() + 20.0 + 10.0 * tau.abs().sqrt()) as usize
}

/// Propagates `psi` by `e^{-iHt}` using the Chebyshev expansion.
/// `sf` must rescale the spectrum of `h` into `[-1, 1]`.
pub fn evolve(h: &CrsMatrix, sf: ScaleFactors, psi: &Vector, t: f64) -> Vector {
    assert_eq!(h.nrows(), h.ncols(), "square matrices only");
    assert_eq!(psi.len(), h.nrows(), "state dimension mismatch");
    let n = h.nrows();
    // τ = t / a: H = H̃/a + b, so e^{-iHt} = e^{-ibt} e^{-iH̃ (t/a)}.
    let tau = t / sf.a;
    let order = evolution_order(tau);
    let bessel = bessel_j_sequence(order, tau.abs());
    let sign = if tau >= 0.0 { 1.0 } else { -1.0 };

    // Vector recurrence: v0 = psi, v1 = H̃ psi, v_{m+1} = 2 H̃ v_m - v_{m-1}.
    let mut v_prev = psi.as_slice().to_vec();
    let mut v_cur = vec![Complex64::default(); n];
    apply_scaled(h, sf, &v_prev, &mut v_cur);

    // acc = c_0 v0 + c_1 v1 + ...; c_m = (2-δ)(−i·sign)^m J_m(|τ|).
    let mut acc: Vec<Complex64> = v_prev.iter().map(|z| z.scale(bessel[0])).collect();
    let phase_step = Complex64::new(0.0, -sign); // (-i)^m generator
    let mut phase = phase_step;
    axpy(phase.scale(2.0 * bessel[1]), &v_cur, &mut acc);

    let mut tmp = vec![Complex64::default(); n];
    #[allow(clippy::needless_range_loop)] // m is the expansion order index
    for m in 2..=order {
        // v_next = 2 H̃ v_cur - v_prev (reusing v_prev as output).
        apply_scaled(h, sf, &v_cur, &mut tmp);
        for i in 0..n {
            let next = tmp[i].scale(2.0) - v_prev[i];
            v_prev[i] = next;
        }
        std::mem::swap(&mut v_prev, &mut v_cur);
        phase *= phase_step;
        axpy(phase.scale(2.0 * bessel[m]), &v_cur, &mut acc);
    }

    // Global phase from the spectrum centre shift.
    let global = Complex64::new(0.0, -sf.b * t).exp();
    scal(global, &mut acc);
    Vector::from_vec(acc)
}

/// `out = H̃ x = a (H x - b x)`.
fn apply_scaled(h: &CrsMatrix, sf: ScaleFactors, x: &[Complex64], out: &mut [Complex64]) {
    h.spmv(x, out);
    for (o, xi) in out.iter_mut().zip(x) {
        *o = (*o - xi.scale(sf.b)).scale(sf.a);
    }
}

/// Survival amplitude `⟨ψ(0)|ψ(t)⟩` — the overlap whose Fourier
/// transform is the local spectral function.
pub fn survival_amplitude(h: &CrsMatrix, sf: ScaleFactors, psi: &Vector, t: f64) -> Complex64 {
    let evolved = evolve(h, sf, psi, t);
    dot(psi.as_slice(), evolved.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_topo::model::{chain_1d, random_hermitian};
    use kpm_topo::TopoHamiltonian;

    #[test]
    fn bessel_reference_values() {
        let j = bessel_j_sequence(5, 1.0);
        assert!((j[0] - 0.7651976865579666).abs() < 1e-12);
        assert!((j[1] - 0.44005058574493355).abs() < 1e-12);
        assert!((j[2] - 0.11490348493190048).abs() < 1e-12);
        let j0 = bessel_j_sequence(3, 0.0);
        assert_eq!(j0, vec![1.0, 0.0, 0.0, 0.0]);
        // J_0(10) = -0.2459357645...
        let j10 = bessel_j_sequence(12, 10.0);
        assert!((j10[0] + 0.2459357644513483).abs() < 1e-11);
    }

    #[test]
    fn bessel_sum_rule() {
        // J_0^2 + 2 sum J_k^2 = 1.
        for &x in &[0.5f64, 3.0, 12.0] {
            let n = evolution_order(x);
            let j = bessel_j_sequence(n, x);
            let s: f64 = j[0] * j[0] + 2.0 * j[1..].iter().map(|v| v * v).sum::<f64>();
            assert!((s - 1.0).abs() < 1e-10, "x={x}: {s}");
        }
    }

    #[test]
    fn zero_time_is_identity() {
        let h = random_hermitian(50, 3, 30);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x9E3779B97F4A7C15);
        use rand::Rng;
        let psi = Vector::from_vec(
            (0..50)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect(),
        );
        let out = evolve(&h, sf, &psi, 0.0);
        for (a, b) in out.as_slice().iter().zip(psi.as_slice()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn evolution_is_unitary() {
        let h = TopoHamiltonian::clean(3, 3, 2).assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let mut rng = rand::rngs::mock::StepRng::new(3, 0x9E3779B97F4A7C15);
        use rand::Rng;
        let mut psi = Vector::from_vec(
            (0..h.nrows())
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect(),
        );
        psi.normalize();
        for &t in &[0.3f64, 2.0, 7.5, -4.0] {
            let out = evolve(&h, sf, &psi, t);
            assert!(
                (out.norm() - 1.0).abs() < 1e-10,
                "t={t}: norm {}",
                out.norm()
            );
        }
    }

    #[test]
    fn eigenstate_acquires_exact_phase() {
        // Chain eigenvector: psi(t) = e^{-iEt} psi(0); the survival
        // amplitude is the pure phase.
        let n = 40;
        let h = chain_1d(n, 1.0);
        let sf = ScaleFactors::from_bounds(-2.0, 2.0, 0.05);
        let kq = 5.0 * std::f64::consts::PI / (n as f64 + 1.0);
        let e = 2.0 * kq.cos();
        let mut psi = Vector::from_vec(
            (0..n)
                .map(|i| Complex64::real(((i + 1) as f64 * kq).sin()))
                .collect(),
        );
        psi.normalize();
        for &t in &[0.7f64, 3.1, -2.2] {
            let amp = survival_amplitude(&h, sf, &psi, t);
            let expect = Complex64::new(0.0, -e * t).exp();
            assert!(amp.approx_eq(expect, 1e-9), "t={t}: {amp} vs {expect}");
        }
    }

    #[test]
    fn composition_property() {
        // U(t1+t2) = U(t2) U(t1).
        let h = random_hermitian(60, 3, 31);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let mut rng = rand::rngs::mock::StepRng::new(9, 0x9E3779B97F4A7C15);
        use rand::Rng;
        let psi = Vector::from_vec(
            (0..60)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect(),
        );
        let (t1, t2) = (1.3, 2.4);
        let once = evolve(&h, sf, &psi, t1 + t2);
        let twice = evolve(&h, sf, &evolve(&h, sf, &psi, t1), t2);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!(a.approx_eq(*b, 1e-9));
        }
    }
}
