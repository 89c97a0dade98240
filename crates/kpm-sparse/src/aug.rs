//! The augmented KPM kernels (paper Figs. 4, 5 and Section IV).
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
//! `aug_spmmv` is the stage-2 blocked version operating on row-major
//! block vectors of width `R`; the matrix is streamed once for all `R`
//! Chebyshev runs. The `*_nodot` variants perform the same update without
//! the fused scalar products — they are the kernels of panel (b) of paper
//! Fig. 10 and the baseline of the fused-dot ablation. All blocked forms
//! are the one register-panel sweep of `sweep.rs` and differ only
//! in row range, epilogue and reduction; the width-1 kernels (a single
//! dependent chain on a memory-bound stream) keep their own loops.

use kpm_num::summation::{pairwise_sum, pairwise_sum_complex};
use kpm_num::{BlockVector, Complex64};
use kpm_obs::probe::{kernel_timer, KernelKind};
use rayon::prelude::*;

use crate::crs::CrsMatrix;
use crate::sweep::{aug_par, aug_serial, plain_serial};

/// Result of one augmented sweep over a single vector pair:
/// `eta_even = <v|v>` and `eta_odd = <w_new|v>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugDots {
    /// `eta_{2m} = <v|v>` (real by construction).
    pub eta_even: f64,
    /// `eta_{2m+1} = <w|v>` with the updated `w`.
    pub eta_odd: Complex64,
}

/// Per-column dot products of one blocked augmented sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AugDotsBlock {
    /// `eta_{2m}[j] = <v_j|v_j>` for each of the `R` columns.
    pub eta_even: Vec<f64>,
    /// `eta_{2m+1}[j] = <w_j|v_j>` with the updated `w`.
    pub eta_odd: Vec<Complex64>,
}

/// Fixed row-chunk height of the parallel single-vector dot reduction:
/// partial `eta` sums sit on `ROWS_PER_CHUNK` boundaries regardless of
/// thread count, and the SELL kernels replay the identical boundaries.
pub(crate) const ROWS_PER_CHUNK: usize = 1024;

/// Augmented SpMV (paper Fig. 4): `w <- 2a(H - b·1) v - w`, returning
/// both Chebyshev scalar products computed on the fly.
pub fn aug_spmv(h: &CrsMatrix, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
    assert_eq!(v.len(), h.ncols(), "aug_spmv: v dimension mismatch");
    assert_eq!(w.len(), h.nrows(), "aug_spmv: w dimension mismatch");
    assert_eq!(h.nrows(), h.ncols(), "aug_spmv: matrix must be square");
    let _probe = kernel_timer(KernelKind::AugSpmv, h.nrows(), h.nnz(), 1);
    aug_spmv_core(h, a, b, v, w)
}

/// The unprobed serial single-vector kernel; shared by [`aug_spmv`] and
/// the width-1 dispatch of the blocked entry points (which open their
/// own probe under their own kernel kind).
pub(crate) fn aug_spmv_core(
    h: &CrsMatrix,
    a: f64,
    b: f64,
    v: &[Complex64],
    w: &mut [Complex64],
) -> AugDots {
    let mut eta_even = 0.0;
    let mut eta_odd = Complex64::default();
    for r in 0..h.nrows() {
        let cols = h.row_cols(r);
        let vals = h.row_vals(r);
        let mut acc = Complex64::default();
        for (hv, &c) in vals.iter().zip(cols) {
            acc = hv.mul_add(v[c as usize], acc);
        }
        let vr = v[r];
        let wr = (acc - vr.scale(b)).scale(2.0 * a) - w[r];
        w[r] = wr;
        eta_even += vr.norm_sqr();
        eta_odd = wr.conj().mul_add(vr, eta_odd);
    }
    AugDots { eta_even, eta_odd }
}

/// Row-parallel augmented SpMV. Partial dot products are reduced
/// chunk-wise and combined pairwise, so results match the serial kernel
/// to reduction-order accuracy.
pub fn aug_spmv_par(
    h: &CrsMatrix,
    a: f64,
    b: f64,
    v: &[Complex64],
    w: &mut [Complex64],
) -> AugDots {
    assert_eq!(v.len(), h.ncols(), "aug_spmv_par: v dimension mismatch");
    assert_eq!(w.len(), h.nrows(), "aug_spmv_par: w dimension mismatch");
    assert_eq!(h.nrows(), h.ncols(), "aug_spmv_par: matrix must be square");
    let _probe = kernel_timer(KernelKind::AugSpmv, h.nrows(), h.nnz(), 1);
    aug_spmv_par_core(h, a, b, v, w)
}

/// The unprobed parallel single-vector kernel (see [`aug_spmv_core`]).
pub(crate) fn aug_spmv_par_core(
    h: &CrsMatrix,
    a: f64,
    b: f64,
    v: &[Complex64],
    w: &mut [Complex64],
) -> AugDots {
    let partials: Vec<(f64, Complex64)> = w
        .par_chunks_mut(ROWS_PER_CHUNK)
        .enumerate()
        .map(|(ci, wc)| {
            let row0 = ci * ROWS_PER_CHUNK;
            let mut even = 0.0;
            let mut odd = Complex64::default();
            for (i, wr_slot) in wc.iter_mut().enumerate() {
                let r = row0 + i;
                let cols = h.row_cols(r);
                let vals = h.row_vals(r);
                let mut acc = Complex64::default();
                for (hv, &c) in vals.iter().zip(cols) {
                    acc = hv.mul_add(v[c as usize], acc);
                }
                let vr = v[r];
                let wr = (acc - vr.scale(b)).scale(2.0 * a) - *wr_slot;
                *wr_slot = wr;
                even += vr.norm_sqr();
                odd = wr.conj().mul_add(vr, odd);
            }
            (even, odd)
        })
        .collect();
    let eta_even = pairwise_sum(&partials.iter().map(|p| p.0).collect::<Vec<_>>());
    let eta_odd = pairwise_sum_complex(&partials.iter().map(|p| p.1).collect::<Vec<_>>());
    AugDots { eta_even, eta_odd }
}

/// A single-column [`AugDots`] result widened to the blocked form, for
/// the width-1 dispatch of the blocked kernels.
pub(crate) fn widen(d: AugDots) -> AugDotsBlock {
    AugDotsBlock {
        eta_even: vec![d.eta_even],
        eta_odd: vec![d.eta_odd],
    }
}

/// Augmented SpMMV (paper Fig. 5): the blocked form of [`aug_spmv`] over
/// row-major block vectors of width `R`, with all `2R` scalar products
/// accumulated on the fly — the register-panel sweep of
/// `sweep.rs` as one range over all rows.
pub fn aug_spmmv(
    h: &CrsMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
) -> AugDotsBlock {
    let r_width = check_block_dims(h, v, w);
    let _probe = kernel_timer(KernelKind::AugSpmmv, h.nrows(), h.nnz(), r_width);
    if r_width == 1 {
        // A width-1 row-major block vector is a plain contiguous vector;
        // the fused single-vector kernel runs the identical flop chain
        // without the per-row block bookkeeping (the measured R=1
        // regression of BENCH_stages.json).
        return widen(aug_spmv_core(h, a, b, v.as_slice(), w.as_mut_slice()));
    }
    aug_serial::<_, true>(h, a, b, v.as_slice(), r_width, w.as_mut_slice())
}

/// Row-parallel augmented SpMMV, tiled so each row block's `V`/`W`
/// working set stays resident in the per-thread cache budget (see
/// [`crate::tile`]; this is the fix for the measured `R = 32`
/// throughput regression). The tile size depends only on `r_width` and
/// the configured budget — never on the thread count — so the partial
/// dot products sit on fixed boundaries and the reduced `eta` values
/// are bitwise-identical for any number of threads.
pub fn aug_spmmv_par(
    h: &CrsMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
) -> AugDotsBlock {
    aug_spmmv_par_budget(h, a, b, v, w, crate::tile::DEFAULT_CACHE_BYTES)
}

/// [`aug_spmmv_par`] against an explicit per-thread cache budget
/// (bytes), which scopes the tile sizing to this call — concurrent
/// solvers tuned for different machines cannot interfere. The budget
/// fixes the reduction-tree boundaries, so results are
/// bitwise-reproducible for a fixed budget and any thread count.
pub fn aug_spmmv_par_budget(
    h: &CrsMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
    cache_bytes: usize,
) -> AugDotsBlock {
    let r_width = check_block_dims(h, v, w);
    let _probe = kernel_timer(KernelKind::AugSpmmv, h.nrows(), h.nnz(), r_width);
    if r_width == 1 {
        // Width-1 dispatch to the fused single-vector kernel (identical
        // update chain and the same 1024-row pairwise eta reduction).
        return widen(aug_spmv_par_core(h, a, b, v.as_slice(), w.as_mut_slice()));
    }
    let (vs, ws) = (v.as_slice(), w.as_mut_slice());
    aug_par::<_, true>(h, a, b, vs, r_width, ws, cache_bytes)
}

/// Augmented SpMMV *without* the fused scalar products: the kernel of
/// paper Fig. 10(b). The caller computes the dots separately (e.g. with
/// [`BlockVector::columnwise_dot`]) — the ablation quantifies what the
/// extra two block sweeps cost.
pub fn aug_spmmv_nodot(h: &CrsMatrix, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
    let r_width = check_block_dims(h, v, w);
    let _probe = kernel_timer(KernelKind::AugSpmmv, h.nrows(), h.nnz(), r_width);
    aug_serial::<_, false>(h, a, b, v.as_slice(), r_width, w.as_mut_slice());
}

/// Parallel variant of [`aug_spmmv_nodot`], tiled like
/// [`aug_spmmv_par`].
pub fn aug_spmmv_nodot_par(h: &CrsMatrix, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
    aug_spmmv_nodot_par_budget(h, a, b, v, w, crate::tile::DEFAULT_CACHE_BYTES)
}

/// [`aug_spmmv_nodot_par`] against an explicit per-thread cache budget
/// (bytes); see [`aug_spmmv_par_budget`].
pub fn aug_spmmv_nodot_par_budget(
    h: &CrsMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
    cache_bytes: usize,
) {
    let r_width = check_block_dims(h, v, w);
    let _probe = kernel_timer(KernelKind::AugSpmmv, h.nrows(), h.nnz(), r_width);
    let (vs, ws) = (v.as_slice(), w.as_mut_slice());
    aug_par::<_, false>(h, a, b, vs, r_width, ws, cache_bytes);
}

fn check_block_dims(h: &CrsMatrix, v: &BlockVector, w: &BlockVector) -> usize {
    assert_eq!(
        h.nrows(),
        h.ncols(),
        "augmented kernels need a square matrix"
    );
    assert_eq!(v.rows(), h.ncols(), "block v dimension mismatch");
    assert_eq!(w.rows(), h.nrows(), "block w dimension mismatch");
    assert_eq!(v.width(), w.width(), "block width mismatch");
    v.width()
}

/// The rect kernels' shape check; returns the block width.
fn check_rect_dims(h: &CrsMatrix, v: &BlockVector, w: &BlockVector) -> usize {
    assert!(
        h.ncols() >= h.nrows(),
        "local matrix must have ncols >= nrows"
    );
    assert_eq!(v.rows(), h.ncols(), "block v dimension mismatch");
    assert!(w.rows() >= h.nrows(), "block w too small");
    assert_eq!(v.width(), w.width(), "block width mismatch");
    v.width()
}

/// Augmented SpMMV over a *local* (rectangular) matrix block, the
/// building block of distributed execution.
///
/// Under the 1-D row distribution a rank owns rows `0..n_local` of a
/// remapped matrix whose column space is `local rows ++ halo rows`
/// (`ncols >= nrows`), with the convention that column `i < nrows` is
/// local row `i` — so the diagonal shift `-b·v_i` and the scalar
/// products use `v.row(i)` exactly as in the square kernel. Both blocks
/// span the extended column space (`v`, `w` have `ncols` rows); only the
/// first `nrows` rows of `w` are written, the halo rows are refreshed by
/// communication between iterations.
pub fn aug_spmmv_rect(
    h: &CrsMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
) -> AugDotsBlock {
    let r_width = check_rect_dims(h, v, w);
    let _probe = kernel_timer(KernelKind::AugSpmmv, h.nrows(), h.nnz(), r_width);
    let w = &mut w.as_mut_slice()[..h.nrows() * r_width];
    aug_serial::<_, true>(h, a, b, v.as_slice(), r_width, w)
}

/// Plain rectangular SpMMV `W[0..nrows] = H V` on the extended column
/// space (used by the distributed initialization step).
pub fn spmmv_rect(h: &CrsMatrix, v: &BlockVector, w: &mut BlockVector) {
    let r_width = check_rect_dims(h, v, w);
    let w = &mut w.as_mut_slice()[..h.nrows() * r_width];
    plain_serial(h, v.as_slice(), r_width, w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::spmv::spmv;
    use kpm_num::vector::{axpy, dot, nrm2, scal};
    use kpm_num::Vector;
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
        coo.to_crs()
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
        spmv(h, v, &mut u); // u = H v
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
        let dots = aug_spmv(&h, a, b, &v, &mut w_aug);

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
        let d1 = aug_spmv(&h, 0.5, 0.25, &v, &mut w1);
        let d2 = aug_spmv_par(&h, 0.5, 0.25, &v, &mut w2);
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
        let dots = aug_spmmv(&h, a, b, &v, &mut w_block);

        for j in 0..r_width {
            let vc = v.column(j).into_vec();
            let mut wc = w0.column(j).into_vec();
            let d = aug_spmv(&h, a, b, &vc, &mut wc);
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
        let d1 = aug_spmmv(&h, 0.4, -0.3, &v, &mut w1);
        let d2 = aug_spmmv_par(&h, 0.4, -0.3, &v, &mut w2);
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
        let dots = aug_spmmv(&h, 0.7, 0.0, &v, &mut w_fused);

        let mut w_nodot = w0;
        aug_spmmv_nodot(&h, 0.7, 0.0, &v, &mut w_nodot);
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
        aug_spmmv_nodot(&h, 1.1, 0.2, &v, &mut w1);
        aug_spmmv_nodot_par(&h, 1.1, 0.2, &v, &mut w2);
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
        let d1 = aug_spmmv(&h, 0.6, -0.1, &v, &mut w1);
        let d2 = aug_spmmv_rect(&h, 0.6, -0.1, &v, &mut w2);
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
        let dots_ref = aug_spmmv(&h, 0.8, 0.05, &v, &mut w_ref);

        let half = n / 2;
        let top = h.row_block(0, half);
        let bottom = h.row_block(half, n);
        // Top block: columns are global, local row i == global row i.
        let mut w_top = w0.clone();
        let d_top = aug_spmmv_rect(&top, 0.8, 0.05, &v, &mut w_top);
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
        spmmv_rect(&bottom, &v, &mut y);
        let mut y_ref = BlockVector::zeros(n, r_width);
        crate::spmv::spmmv(&h, &v, &mut y_ref);
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
        let dots = aug_spmv(&h, 1.0, 0.0, &v, &mut w);
        assert!(dots.eta_even > 0.0);
    }
}
