//! Plain sparse matrix-vector and matrix-multiple-vector kernels.
//!
//! `spmv` is the naive algorithm's matrix kernel (paper Fig. 3);
//! `spmmv` applies the matrix to a row-major block of `R` vectors at
//! once, reading the matrix once instead of `R` times — the traffic
//! reduction that drives the whole paper. The column-major variant
//! exists only for the layout ablation; its strided right-hand-side
//! access is the pattern the paper's Section IV-A warns about.

use kpm_num::{BlockVector, Complex64};
use kpm_obs::probe::{kernel_timer, KernelKind};

use crate::crs::CrsMatrix;
use crate::sweep::{plain_par, plain_serial};

/// `y = A x` (serial CRS SpMV).
pub fn spmv(a: &CrsMatrix, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), a.ncols(), "spmv: x dimension mismatch");
    assert_eq!(y.len(), a.nrows(), "spmv: y dimension mismatch");
    let _probe = kernel_timer(KernelKind::Spmv, a.nrows(), a.nnz(), 1);
    #[allow(clippy::needless_range_loop)] // row index drives matrix and y
    for r in 0..a.nrows() {
        let cols = a.row_cols(r);
        let vals = a.row_vals(r);
        let mut acc = Complex64::default();
        for (v, &c) in vals.iter().zip(cols) {
            acc = v.mul_add(x[c as usize], acc);
        }
        y[r] = acc;
    }
}

/// `y = A x` (row-parallel CRS SpMV over fixed 1024-row chunks).
pub fn spmv_par(a: &CrsMatrix, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), a.ncols(), "spmv_par: x dimension mismatch");
    assert_eq!(y.len(), a.nrows(), "spmv_par: y dimension mismatch");
    let _probe = kernel_timer(KernelKind::Spmv, a.nrows(), a.nnz(), 1);
    plain_par(a, x, 1, y);
}

/// `Y = A X` for row-major block vectors (serial SpMMV).
///
/// The inner loop runs over the block width, so for each matrix element
/// the `R` right-hand-side values are loaded contiguously — the access
/// pattern that makes SpMMV SIMD-friendly regardless of the sparsity
/// pattern. This is the register-panel sweep of `sweep.rs` with
/// the plain epilogue.
pub fn spmmv(a: &CrsMatrix, x: &BlockVector, y: &mut BlockVector) {
    let r_width = check_block_dims(a, x, y, "spmmv");
    let _probe = kernel_timer(KernelKind::Spmv, a.nrows(), a.nnz(), r_width);
    plain_serial(a, x.as_slice(), r_width, y.as_mut_slice());
}

/// `Y = A X` (row-parallel SpMMV over the cache-budget tiles of the
/// augmented kernels).
pub fn spmmv_par(a: &CrsMatrix, x: &BlockVector, y: &mut BlockVector) {
    let r_width = check_block_dims(a, x, y, "spmmv_par");
    let _probe = kernel_timer(KernelKind::Spmv, a.nrows(), a.nnz(), r_width);
    plain_par(a, x.as_slice(), r_width, y.as_mut_slice());
}

fn check_block_dims(a: &CrsMatrix, x: &BlockVector, y: &BlockVector, what: &str) -> usize {
    assert_eq!(x.rows(), a.ncols(), "{what}: x dimension mismatch");
    assert_eq!(y.rows(), a.nrows(), "{what}: y dimension mismatch");
    assert_eq!(x.width(), y.width(), "{what}: block width mismatch");
    x.width()
}

/// `Y = A X` where both blocks are column-major (ablation variant).
///
/// Equivalent arithmetic, but every matrix element is re-read `R` times
/// (one pass per column) — this is "R independent SpMVs" and shows the
/// traffic penalty the interleaved layout avoids.
pub fn spmmv_colmajor(
    a: &CrsMatrix,
    x: &kpm_num::block::ColMajorBlock,
    y: &mut kpm_num::block::ColMajorBlock,
) {
    assert_eq!(x.rows(), a.ncols(), "spmmv_colmajor: x dimension mismatch");
    assert_eq!(y.rows(), a.nrows(), "spmmv_colmajor: y dimension mismatch");
    assert_eq!(x.width(), y.width(), "spmmv_colmajor: width mismatch");
    for j in 0..x.width() {
        // x and y are distinct blocks, so borrowing x's column shared
        // and y's exclusive needs no copy.
        spmv(a, x.col(j), y.col_mut(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use kpm_num::block::ColMajorBlock;
    use kpm_num::Vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, seed: u64) -> CrsMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for _ in 0..rng.gen_range(1..8) {
                coo.push(
                    r,
                    rng.gen_range(0..n),
                    Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                );
            }
        }
        coo.to_crs()
    }

    fn dense_apply(a: &CrsMatrix, x: &[Complex64]) -> Vec<Complex64> {
        let d = a.to_dense();
        d.iter()
            .map(|row| {
                row.iter()
                    .zip(x)
                    .fold(Complex64::default(), |acc, (aij, xj)| acc + *aij * *xj)
            })
            .collect()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = random_matrix(50, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Vector::random(50, &mut rng).into_vec();
        let mut y = vec![Complex64::default(); 50];
        spmv(&a, &x, &mut y);
        let want = dense_apply(&a, &x);
        for (g, w) in y.iter().zip(&want) {
            assert!(g.approx_eq(*w, 1e-12));
        }
    }

    #[test]
    fn spmv_par_matches_serial() {
        let a = random_matrix(500, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let x = Vector::random(500, &mut rng).into_vec();
        let mut y1 = vec![Complex64::default(); 500];
        let mut y2 = y1.clone();
        spmv(&a, &x, &mut y1);
        spmv_par(&a, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn spmmv_matches_per_column_spmv() {
        let a = random_matrix(80, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let x = BlockVector::random(80, 5, &mut rng);
        let mut y = BlockVector::zeros(80, 5);
        spmmv(&a, &x, &mut y);
        for j in 0..5 {
            let xc = x.column(j);
            let mut yc = vec![Complex64::default(); 80];
            spmv(&a, xc.as_slice(), &mut yc);
            let got = y.column(j);
            for (g, w) in got.as_slice().iter().zip(&yc) {
                assert!(g.approx_eq(*w, 1e-12), "col {j}");
            }
        }
    }

    #[test]
    fn spmmv_par_matches_serial_bitwise() {
        let a = random_matrix(300, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let x = BlockVector::random(300, 8, &mut rng);
        let mut y1 = BlockVector::zeros(300, 8);
        let mut y2 = BlockVector::zeros(300, 8);
        spmmv(&a, &x, &mut y1);
        spmmv_par(&a, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn blocked_kernels_take_tall_and_wide_matrices() {
        // nrows != ncols: the plain epilogue must never look at x's
        // "own" row, which a tall matrix does not have.
        for (nrows, ncols) in [(40usize, 7usize), (9, 50)] {
            let mut coo = CooMatrix::new(nrows, ncols);
            for r in 0..nrows {
                coo.push(r, r % ncols, Complex64::new(1.0 + r as f64, -0.5));
                coo.push(r, (3 * r + 1) % ncols, Complex64::new(0.25, r as f64));
            }
            let a = coo.to_crs();
            let mut rng = StdRng::seed_from_u64(16);
            let x = BlockVector::random(ncols, 11, &mut rng);
            let mut y = BlockVector::zeros(nrows, 11);
            let mut y_par = BlockVector::zeros(nrows, 11);
            spmmv(&a, &x, &mut y);
            spmmv_par(&a, &x, &mut y_par);
            assert_eq!(y, y_par);
            for j in 0..11 {
                let mut yc = vec![Complex64::default(); nrows];
                spmv(&a, x.column(j).as_slice(), &mut yc);
                assert_eq!(y.column(j).into_vec(), yc, "{nrows}x{ncols} col {j}");
            }
        }
    }

    #[test]
    fn colmajor_matches_rowmajor() {
        let a = random_matrix(64, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let x = BlockVector::random(64, 4, &mut rng);
        let mut y = BlockVector::zeros(64, 4);
        spmmv(&a, &x, &mut y);
        let cx = ColMajorBlock::from_row_major(&x);
        let mut cy = ColMajorBlock::zeros(64, 4);
        spmmv_colmajor(&a, &cx, &mut cy);
        let back = cy.to_row_major();
        assert!(y.max_abs_diff(&back) < 1e-12);
    }

    #[test]
    fn spmv_on_identity_is_copy() {
        let id = CrsMatrix::identity(33);
        let mut rng = StdRng::seed_from_u64(13);
        let x = Vector::random(33, &mut rng).into_vec();
        let mut y = vec![Complex64::default(); 33];
        spmv(&id, &x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn width_one_block_equals_vector_spmv() {
        let a = random_matrix(40, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let xv = Vector::random(40, &mut rng);
        let x = BlockVector::from_columns(std::slice::from_ref(&xv));
        let mut y = BlockVector::zeros(40, 1);
        spmmv(&a, &x, &mut y);
        let mut yv = vec![Complex64::default(); 40];
        spmv(&a, xv.as_slice(), &mut yv);
        assert_eq!(y.column(0).into_vec(), yv);
    }
}
