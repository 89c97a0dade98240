//! Lanczos sweeps for spectral bounds.
//!
//! The paper determines the rescaling interval "with Gershgorin's circle
//! theorem or a few Lanczos sweeps" (Section II). Gershgorin is cheap
//! but loose; a short Lanczos run gives much tighter Ritz bounds, which
//! buys KPM resolution (the effective broadening is proportional to the
//! rescaled spectral width).

use kpm_num::eigen::DenseHermitian;
use kpm_num::vector::{axpy, dot};
use kpm_num::{Complex64, Vector};
use kpm_sparse::{CrsMatrix, SparseKernels};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Estimated spectral bounds `[lo, hi]` from `steps` Lanczos iterations
/// started from a seeded random vector, padded by the final residual
/// norm so the true spectrum is (with overwhelming probability)
/// contained.
pub fn lanczos_bounds(h: &CrsMatrix, steps: usize, seed: u64) -> (f64, f64) {
    assert_eq!(h.nrows(), h.ncols(), "matrix must be square");
    let n = h.nrows();
    let steps = steps.min(n).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = Vector::random(n, &mut rng);
    q.normalize();

    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps);
    let mut q_prev = vec![Complex64::default(); n];
    let mut q_cur = q.into_vec();
    let mut w = vec![Complex64::default(); n];
    let mut beta_last = 0.0;

    for step in 0..steps {
        h.spmv(&q_cur, &mut w);
        if step > 0 {
            axpy(Complex64::real(-betas[step - 1]), &q_prev, &mut w);
        }
        let alpha = dot(&q_cur, &w).re;
        axpy(Complex64::real(-alpha), &q_cur, &mut w);
        // One step of full reorthogonalization against q_cur keeps the
        // Ritz values clean for the short runs used here.
        let corr = dot(&q_cur, &w);
        axpy(-corr, &q_cur, &mut w);
        alphas.push(alpha);
        let beta = dot(&w, &w).re.sqrt();
        beta_last = beta;
        if step + 1 < steps {
            if beta < 1e-14 {
                break; // invariant subspace found; bounds are exact
            }
            betas.push(beta);
            q_prev.copy_from_slice(&q_cur);
            for (qc, wi) in q_cur.iter_mut().zip(&w) {
                *qc = wi.scale(1.0 / beta);
            }
        }
    }

    // Eigenvalues of the tridiagonal Ritz matrix.
    let k = alphas.len();
    let mut dense = vec![Complex64::default(); k * k];
    for i in 0..k {
        dense[i * k + i] = Complex64::real(alphas[i]);
        if i + 1 < k && i < betas.len() {
            dense[i * k + i + 1] = Complex64::real(betas[i]);
        }
    }
    let ritz = DenseHermitian::from_row_major(k, dense).eigenvalues(1e-12);
    let lo = ritz.first().copied().unwrap_or(0.0) - beta_last;
    let hi = ritz.last().copied().unwrap_or(0.0) + beta_last;
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_topo::model::{chain_1d, random_hermitian};
    use kpm_topo::TopoHamiltonian;

    #[test]
    fn chain_bounds_converge_to_band_edges() {
        let h = chain_1d(300, 1.0);
        let (lo, hi) = lanczos_bounds(&h, 60, 3);
        // True spectrum is within (-2, 2); Ritz values converge to the
        // edges quickly. The residual padding is conservative (it uses
        // the full ||r|| instead of the last Ritz-vector component), so
        // allow some slack on the outside.
        assert!(lo <= -1.9 && lo > -3.5, "lo = {lo}");
        assert!((1.9..3.5).contains(&hi), "hi = {hi}");
    }

    #[test]
    fn bounds_contain_all_exact_eigenvalues() {
        let h = random_hermitian(100, 4, 23);
        let (lo, hi) = lanczos_bounds(&h, 40, 5);
        let evs = kpm_topo::model::exact_eigenvalues(&h);
        assert!(*evs.first().unwrap() >= lo - 1e-9, "min ev vs lo");
        assert!(*evs.last().unwrap() <= hi + 1e-9, "max ev vs hi");
    }

    #[test]
    fn lanczos_tighter_than_gershgorin() {
        let h = TopoHamiltonian::clean(6, 6, 4).assemble();
        let (glo, ghi) = h.gershgorin_bounds();
        let (llo, lhi) = lanczos_bounds(&h, 50, 9);
        assert!(lhi - llo <= ghi - glo + 1e-9);
    }

    #[test]
    fn identity_matrix_is_exact() {
        let h = CrsMatrix::identity(50);
        let (lo, hi) = lanczos_bounds(&h, 5, 1);
        assert!((lo - 1.0).abs() < 1e-10);
        assert!((hi - 1.0).abs() < 1e-10);
    }
}
