//! The results of the augmented KPM kernels (paper Figs. 4, 5 and
//! Section IV).
//!
//! The KPM inner iteration
//!
//! ```text
//! swap(|w>, |v>)
//! |w>    = 2a(H - b·1)|v> - |w>
//! eta_2m   = <v|v>
//! eta_2m+1 = <w|v>
//! ```
//!
//! is fused into a single sweep over the matrix: for each row the kernel
//! performs the sparse dot product `(Hv)_i`, applies the shift `-b v_i`,
//! the scale `2a`, the Chebyshev recurrence `- w_i`, and accumulates both
//! scalar products on the fly. Compared with the naive chain of BLAS-1
//! calls this saves 10 vector transfers per iteration (paper Eq. 4).
//!
//! The kernels themselves are the provided methods of
//! [`crate::SparseKernels`] — `aug_spmv` for one vector, `aug_spmmv` for
//! block vectors of width `R` (the matrix streamed once for
//! all `R` Chebyshev runs), the `*_nodot` forms of paper Fig. 10(b)
//! without the fused scalar products (the caller computes the dots
//! separately, e.g. with `BlockVector::columnwise_dot`; the ablation
//! quantifies what the extra two block sweeps cost) — and every one of
//! them is the register-panel sweep of `sweep.rs` under some row
//! schedule. What lives here is what they return.
//!
//! The `*_rect` forms are the building block of distributed execution.
//! Under the 1-D row distribution a rank owns rows `0..n_local` of a
//! remapped matrix whose column space is `local rows ++ halo rows`
//! (`ncols >= nrows`), with the convention that column `i < nrows` is
//! local row `i` — so the diagonal shift `-b·v_i` and the scalar
//! products use row `i` of `v` exactly as in the square kernel. Both blocks
//! span the extended column space (`v`, `w` have `ncols` rows); only
//! the first `nrows` rows of `w` are written, the halo rows are
//! refreshed by communication between iterations.

use kpm_num::Complex64;

/// Result of one augmented sweep over a single vector pair:
/// `eta_even = <v|v>` and `eta_odd = <w_new|v>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugDots {
    /// `eta_{2m} = <v|v>` (real by construction).
    pub eta_even: f64,
    /// `eta_{2m+1} = <w|v>` with the updated `w`.
    pub eta_odd: Complex64,
}

/// Per-column dot products of one blocked augmented sweep (empty from
/// a sweep that computes none).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AugDotsBlock {
    /// `eta_{2m}[j] = <v_j|v_j>` for each of the `R` columns.
    pub eta_even: Vec<f64>,
    /// `eta_{2m+1}[j] = <w_j|v_j>` with the updated `w`.
    pub eta_odd: Vec<Complex64>,
}

/// The one column of a width-1 sweep.
impl From<AugDotsBlock> for AugDots {
    fn from(d: AugDotsBlock) -> Self {
        AugDots {
            eta_even: d.eta_even[0],
            eta_odd: d.eta_odd[0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::{CrsMatrix, SparseKernels};
    use kpm_num::vector::{axpy, dot, nrm2, scal};
    use kpm_num::{BlockVector, Vector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_hermitian(n: usize, seed: u64) -> CrsMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, Complex64::real(rng.gen_range(-1.0..1.0)));
            for _ in 0..3 {
                let c = rng.gen_range(0..n);
                if c != r {
                    let v = Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    coo.push(r, c, v);
                    coo.push(c, r, v.conj());
                }
            }
        }
        coo.to_crs().unwrap()
    }

    /// Reference implementation via the naive BLAS-1 chain (paper Fig. 3).
    fn naive_step(
        h: &CrsMatrix,
        a: f64,
        b: f64,
        v: &[Complex64],
        w: &mut [Complex64],
    ) -> (f64, Complex64) {
        let n = v.len();
        let mut u = vec![Complex64::default(); n];
        h.spmv(v, &mut u); // u = H v
        axpy(Complex64::real(-b), v, &mut u); // u = u - b v
        scal(Complex64::real(-1.0), w); // w = -w
        axpy(Complex64::real(2.0 * a), &u, w); // w = w + 2a u
        (nrm2(v), dot(w, v))
    }

    #[test]
    fn aug_spmv_matches_naive_chain() {
        let n = 120;
        let h = random_hermitian(n, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let v = Vector::random(n, &mut rng).into_vec();
        let w0 = Vector::random(n, &mut rng).into_vec();
        let (a, b) = (0.37, -0.12);

        let mut w_naive = w0.clone();
        let (even_ref, odd_ref) = naive_step(&h, a, b, &v, &mut w_naive);

        let mut w_aug = w0;
        let dots = h.aug_spmv(a, b, &v, &mut w_aug);

        for (x, y) in w_aug.iter().zip(&w_naive) {
            assert!(x.approx_eq(*y, 1e-12));
        }
        assert!((dots.eta_even - even_ref).abs() < 1e-9);
        assert!(dots.eta_odd.approx_eq(odd_ref, 1e-9));
    }

    #[test]
    fn aug_spmv_par_matches_serial() {
        let n = 2000;
        let h = random_hermitian(n, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let v = Vector::random(n, &mut rng).into_vec();
        let w0 = Vector::random(n, &mut rng).into_vec();
        let mut w1 = w0.clone();
        let mut w2 = w0;
        let d1 = h.aug_spmv(0.5, 0.25, &v, &mut w1);
        let d2 = h.aug_spmv_par(0.5, 0.25, &v, &mut w2);
        assert_eq!(w1, w2);
        assert!((d1.eta_even - d2.eta_even).abs() < 1e-9);
        assert!(d1.eta_odd.approx_eq(d2.eta_odd, 1e-9));
    }

    #[test]
    fn aug_spmmv_matches_per_column_aug_spmv() {
        let n = 90;
        let r_width = 6;
        let h = random_hermitian(n, 41);
        let mut rng = StdRng::seed_from_u64(42);
        let v = BlockVector::random(n, r_width, &mut rng);
        let w0 = BlockVector::random(n, r_width, &mut rng);
        let (a, b) = (0.9, 0.1);

        let mut w_block = w0.clone();
        let dots = h.aug_spmmv(a, b, &v, &mut w_block);

        for j in 0..r_width {
            let vc = v.column(j).into_vec();
            let mut wc = w0.column(j).into_vec();
            let d = h.aug_spmv(a, b, &vc, &mut wc);
            let got = w_block.column(j).into_vec();
            for (x, y) in got.iter().zip(&wc) {
                assert!(x.approx_eq(*y, 1e-12), "col {j}");
            }
            assert!((dots.eta_even[j] - d.eta_even).abs() < 1e-9, "col {j}");
            assert!(dots.eta_odd[j].approx_eq(d.eta_odd, 1e-9), "col {j}");
        }
    }

    #[test]
    fn aug_spmmv_par_matches_serial() {
        let n = 1500;
        let r_width = 4;
        let h = random_hermitian(n, 51);
        let mut rng = StdRng::seed_from_u64(52);
        let v = BlockVector::random(n, r_width, &mut rng);
        let w0 = BlockVector::random(n, r_width, &mut rng);
        let mut w1 = w0.clone();
        let mut w2 = w0;
        let d1 = h.aug_spmmv(0.4, -0.3, &v, &mut w1);
        let d2 = h.aug_spmmv_par(0.4, -0.3, &v, &mut w2);
        assert_eq!(w1, w2);
        for j in 0..r_width {
            assert!((d1.eta_even[j] - d2.eta_even[j]).abs() < 1e-9);
            assert!(d1.eta_odd[j].approx_eq(d2.eta_odd[j], 1e-9));
        }
    }

    #[test]
    fn nodot_variant_updates_identically() {
        let n = 70;
        let r_width = 3;
        let h = random_hermitian(n, 61);
        let mut rng = StdRng::seed_from_u64(62);
        let v = BlockVector::random(n, r_width, &mut rng);
        let w0 = BlockVector::random(n, r_width, &mut rng);

        let mut w_fused = w0.clone();
        let dots = h.aug_spmmv(0.7, 0.0, &v, &mut w_fused);

        let mut w_nodot = w0;
        h.aug_spmmv_nodot(0.7, 0.0, &v, &mut w_nodot);
        assert!(w_fused.max_abs_diff(&w_nodot) < 1e-14);

        // Separate dot computation reproduces the fused results.
        let even: Vec<f64> = v.columnwise_nrm2();
        let odd = w_nodot.columnwise_dot(&v);
        for j in 0..r_width {
            assert!((dots.eta_even[j] - even[j]).abs() < 1e-9);
            assert!(dots.eta_odd[j].approx_eq(odd[j], 1e-9));
        }
    }

    #[test]
    fn nodot_par_matches_nodot() {
        let n = 1200;
        let r_width = 8;
        let h = random_hermitian(n, 71);
        let mut rng = StdRng::seed_from_u64(72);
        let v = BlockVector::random(n, r_width, &mut rng);
        let w0 = BlockVector::random(n, r_width, &mut rng);
        let mut w1 = w0.clone();
        let mut w2 = w0;
        h.aug_spmmv_nodot(1.1, 0.2, &v, &mut w1);
        h.aug_spmmv_nodot_par(1.1, 0.2, &v, &mut w2);
        assert_eq!(w1, w2);
    }

    #[test]
    fn rect_kernel_on_square_matrix_matches_square_kernel() {
        let n = 80;
        let r_width = 4;
        let h = random_hermitian(n, 91);
        let mut rng = StdRng::seed_from_u64(92);
        let v = BlockVector::random(n, r_width, &mut rng);
        let w0 = BlockVector::random(n, r_width, &mut rng);
        let mut w1 = w0.clone();
        let mut w2 = w0;
        let d1 = h.aug_spmmv(0.6, -0.1, &v, &mut w1);
        let d2 = h.aug_spmmv_rect(0.6, -0.1, &v, &mut w2);
        assert_eq!(w1, w2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn rect_kernel_computes_row_block() {
        // Split a square system into two row blocks with identity
        // column remap (local cols == global cols) and check the pieces
        // reassemble the square result.
        let n = 60;
        let r_width = 3;
        let h = random_hermitian(n, 93);
        let mut rng = StdRng::seed_from_u64(94);
        let v = BlockVector::random(n, r_width, &mut rng);
        let w0 = BlockVector::random(n, r_width, &mut rng);
        let mut w_ref = w0.clone();
        let dots_ref = h.aug_spmmv(0.8, 0.05, &v, &mut w_ref);

        let half = n / 2;
        let top = h.row_block(0, half);
        let bottom = h.row_block(half, n);
        // Top block: columns are global, local row i == global row i.
        let mut w_top = w0.clone();
        let d_top = top.aug_spmmv_rect(0.8, 0.05, &v, &mut w_top);
        for i in 0..half {
            for j in 0..r_width {
                assert!(w_top.get(i, j).approx_eq(w_ref.get(i, j), 1e-12));
            }
        }
        // Bottom block violates the "column i == local row i" shift
        // convention, so apply it through a square-extended view: embed
        // as rows half..n of a full-size kernel by checking only the
        // plain SpMMV part.
        let mut y = BlockVector::zeros(n, r_width);
        bottom.spmmv_rect(&v, &mut y);
        let mut y_ref = BlockVector::zeros(n, r_width);
        h.spmmv(&v, &mut y_ref);
        for i in 0..(n - half) {
            for j in 0..r_width {
                assert!(y.get(i, j).approx_eq(y_ref.get(half + i, j), 1e-12));
            }
        }
        // Dots of the top block are partial sums over its rows only.
        assert!(d_top.eta_even[0] <= dots_ref.eta_even[0] + 1e-12);
    }

    #[test]
    fn eta_even_is_positive_for_nonzero_v() {
        let n = 50;
        let h = random_hermitian(n, 81);
        let mut rng = StdRng::seed_from_u64(82);
        let v = Vector::random(n, &mut rng).into_vec();
        let mut w = vec![Complex64::default(); n];
        let dots = h.aug_spmv(1.0, 0.0, &v, &mut w);
        assert!(dots.eta_even > 0.0);
    }
}
