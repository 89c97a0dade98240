//! Block vectors of width `R`.
//!
//! The stage-2 optimization of the paper (Fig. 5) interprets the `R`
//! independent KPM starting vectors as one *block vector* so the sparse
//! matrix is streamed once per iteration instead of `R` times. For the
//! augmented SpMMV kernel to access the right-hand sides contiguously,
//! the block must be stored in **row-major (interleaved)** order: element
//! `(row, col)` lives at `row * R + col` (paper Section IV-A). That is
//! the layout of [`BlockVector`].

use rand::Rng;
use rayon::prelude::*;

use crate::aligned::AlignedVec;
use crate::complex::{Complex64, ZERO};
use crate::summation::pairwise_sum_complex;
use crate::vector::{random_entry, Vector, DOT_BASE, PAR_CHUNK};

/// A dense `rows x width` block of complex numbers in row-major
/// (interleaved) storage: entry `(i, j)` is at index `i * width + j`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVector {
    rows: usize,
    width: usize,
    /// 64-byte-aligned interleaved storage (the paper's AVX kernels
    /// require aligned block-vector loads).
    data: AlignedVec,
}

impl BlockVector {
    /// Creates a zero block of `rows` rows and `width` columns.
    pub fn zeros(rows: usize, width: usize) -> Self {
        assert!(width > 0, "block width must be positive");
        Self {
            rows,
            width,
            data: AlignedVec::zeroed(rows * width),
        }
    }

    /// Builds a block from `width` equal-length column vectors.
    pub fn from_columns(columns: &[Vector]) -> Self {
        assert!(!columns.is_empty(), "need at least one column");
        let rows = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "all columns must have equal length"
        );
        let width = columns.len();
        // Row by row, so the block is written once, front to back (a
        // column at a time would stride through all of it `width` times).
        let mut b = Self::zeros(rows, width);
        for (i, row) in b.data.chunks_exact_mut(width).enumerate() {
            for (z, col) in row.iter_mut().zip(columns) {
                *z = col.as_slice()[i];
            }
        }
        b
    }

    /// Splits the block back into column vectors.
    pub fn to_columns(&self) -> Vec<Vector> {
        (0..self.width).map(|j| self.column(j)).collect()
    }

    /// Extracts column `j` as an owned vector.
    pub fn column(&self, j: usize) -> Vector {
        assert!(j < self.width, "column index out of range");
        Vector::from_vec(
            (0..self.rows)
                .map(|i| self.data[i * self.width + j])
                .collect(),
        )
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Block width `R`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Entry `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.data[i * self.width + j]
    }

    /// Sets entry `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, z: Complex64) {
        self.data[i * self.width + j] = z;
    }

    /// Borrows row `i` (contiguous, length `width`).
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[Complex64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Mutably borrows row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [Complex64] {
        &mut self.data[i * self.width..(i + 1) * self.width]
    }

    /// Borrows the whole interleaved storage.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutably borrows the whole interleaved storage.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Fills all entries with uniform random values in `[-1,1]^2`.
    pub fn fill_random<R: Rng>(&mut self, rng: &mut R) {
        for z in self.data.as_mut_slice() {
            *z = random_entry(rng);
        }
    }

    /// A random block.
    pub fn random<R: Rng>(rows: usize, width: usize, rng: &mut R) -> Self {
        let mut b = Self::zeros(rows, width);
        b.fill_random(rng);
        b
    }

    /// Column-wise sesquilinear dot products `<x_j | y_j>` for all `j`.
    ///
    /// This is the blocked form of the paper's `eta` computation: each
    /// entry of the result corresponds to one of the `R` independent KPM
    /// runs.
    pub fn columnwise_dot(&self, other: &Self) -> Vec<Complex64> {
        assert_eq!(self.rows, other.rows, "row count mismatch");
        assert_eq!(self.width, other.width, "width mismatch");
        let mut acc = vec![Complex64::default(); self.width];
        // Row-major traversal: streams both blocks once, accumulating all
        // R dot products on the fly — the same access pattern the fused
        // kernels use.
        for i in 0..self.rows {
            let xr = self.row(i);
            let yr = other.row(i);
            for j in 0..self.width {
                acc[j] = xr[j].conj().mul_add(yr[j], acc[j]);
            }
        }
        acc
    }

    /// Column-wise squared norms `<x_j | x_j>`.
    pub fn columnwise_nrm2(&self) -> Vec<f64> {
        self.columnwise_dot(self).iter().map(|z| z.re).collect()
    }

    /// Swaps the contents of two blocks (the `swap(|W>, |V>)` step of the
    /// blocked algorithm, paper Fig. 5). O(1): only pointers move.
    pub fn swap(&mut self, other: &mut Self) {
        assert_eq!(self.rows, other.rows, "row count mismatch");
        assert_eq!(self.width, other.width, "width mismatch");
        std::mem::swap(&mut self.data, &mut other.data);
    }

    /// Maximum absolute difference to another block.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.data.len(), other.data.len());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

/// The rows of `v`/`w` (interleaved, width `r`) on columns
/// `j0 .. j0 + W`: applies `w ← a·(w + (−b)·v)` — the `axpy` then the
/// `scal` of the per-column chain, operation for operation — and returns
/// the partials of `dot(v, v)` and `dot(w, v)` over these rows on
/// [`dot`](crate::vector::dot)'s own tree (halves down to [`DOT_BASE`]-row leaves).
fn shift_scale_panel<const W: usize>(
    a: Complex64,
    minus_b: Complex64,
    v: &[Complex64],
    w: &mut [Complex64],
    r: usize,
    j0: usize,
) -> ([Complex64; W], [Complex64; W]) {
    let rows = v.len() / r;
    if rows <= DOT_BASE {
        let (mut vv, mut wv) = ([ZERO; W], [ZERO; W]);
        for (vrow, wrow) in v.chunks_exact(r).zip(w.chunks_exact_mut(r)) {
            let (vp, wp) = (&vrow[j0..][..W], &mut wrow[j0..][..W]);
            for k in 0..W {
                wp[k] = a * minus_b.mul_add(vp[k], wp[k]);
                vv[k] = vp[k].conj().mul_add(vp[k], vv[k]);
                wv[k] = wp[k].conj().mul_add(vp[k], wv[k]);
            }
        }
        return (vv, wv);
    }
    let (vlo, vhi) = v.split_at(rows / 2 * r);
    let (wlo, whi) = w.split_at_mut(rows / 2 * r);
    let lo = shift_scale_panel::<W>(a, minus_b, vlo, wlo, r, j0);
    let hi = shift_scale_panel::<W>(a, minus_b, vhi, whi, r, j0);
    (
        std::array::from_fn(|k| lo.0[k] + hi.0[k]),
        std::array::from_fn(|k| lo.1[k] + hi.1[k]),
    )
}

/// [`shift_scale_panel`] on every column, in panels of 8/4/2/1; the
/// partials land in `vv[j]`, `wv[j]`.
fn shift_scale_rows(
    a: f64,
    b: f64,
    v: &[Complex64],
    w: &mut [Complex64],
    r: usize,
    vv: &mut [Complex64],
    wv: &mut [Complex64],
) {
    let (a, minus_b) = (Complex64::real(a), Complex64::real(-b));
    let mut j0 = 0;
    macro_rules! panel {
        ($width:literal) => {{
            let (pv, pw) = shift_scale_panel::<$width>(a, minus_b, v, w, r, j0);
            vv[j0..][..$width].copy_from_slice(&pv);
            wv[j0..][..$width].copy_from_slice(&pw);
            j0 += $width;
        }};
    }
    while j0 < r {
        match r - j0 {
            8.. => panel!(8),
            4.. => panel!(4),
            2.. => panel!(2),
            _ => panel!(1),
        }
    }
}

/// The BLAS-1 tail of the blocked KPM initialisation in one pass:
/// `w ← a·(w − b·v)` and, per column `j`, `(⟨v_j|v_j⟩, Re⟨w_j|v_j⟩)`.
/// Column `j` gets the bits of `axpy(-b, v_j, w_j)`, `scal(a, w_j)`,
/// `nrm2(v_j)`, `dot(w_j, v_j).re` on its extracted column vectors.
pub fn shift_scale_dots(
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
) -> (Vec<f64>, Vec<f64>) {
    let r = check_same_shape(v, w);
    let (mut vv, mut wv) = (vec![ZERO; r], vec![ZERO; r]);
    shift_scale_rows(a, b, &v.data, &mut w.data, r, &mut vv, &mut wv);
    let re = |z: &Complex64| z.re;
    (vv.iter().map(re).collect(), wv.iter().map(re).collect())
}

/// Parallel [`shift_scale_dots`]: column `j` gets the bits of the
/// `_par` chain (`axpy_par`, `scal_par`, `nrm2_par`, `dot_par`) — the
/// same 4,096-row chunks, each reduced on [`dot`](crate::vector::dot)'s tree, the chunk
/// partials summed pairwise — at any thread count.
pub fn shift_scale_dots_par(
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
) -> (Vec<f64>, Vec<f64>) {
    let r = check_same_shape(v, w);
    let chunks = v.rows.div_ceil(PAR_CHUNK);
    // Per chunk: r partials of <v|v>, then r of <w|v>.
    let mut partials = vec![ZERO; chunks * 2 * r];
    w.data
        .par_chunks_mut(PAR_CHUNK * r)
        .zip(v.data.par_chunks(PAR_CHUNK * r))
        .zip(partials.par_chunks_mut(2 * r))
        .for_each(|((wc, vc), pc)| {
            let (vv, wv) = pc.split_at_mut(r);
            shift_scale_rows(a, b, vc, wc, r, vv, wv);
        });
    let mut column = vec![ZERO; chunks];
    let mut reduce = |at: usize| {
        for (z, pc) in column.iter_mut().zip(partials.chunks_exact(2 * r)) {
            *z = pc[at];
        }
        pairwise_sum_complex(&column).re
    };
    let mu0 = (0..r).map(&mut reduce).collect();
    (mu0, (r..2 * r).map(&mut reduce).collect())
}

fn check_same_shape(v: &BlockVector, w: &BlockVector) -> usize {
    assert_eq!(v.rows, w.rows, "row count mismatch");
    assert_eq!(v.width, w.width, "width mismatch");
    v.width
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::dot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn from_columns_roundtrip() {
        let mut r = rng();
        let cols: Vec<Vector> = (0..4).map(|_| Vector::random(17, &mut r)).collect();
        let b = BlockVector::from_columns(&cols);
        assert_eq!(b.rows(), 17);
        assert_eq!(b.width(), 4);
        let back = b.to_columns();
        assert_eq!(cols, back);
    }

    #[test]
    fn interleaved_layout_is_row_major() {
        let mut b = BlockVector::zeros(3, 2);
        b.set(1, 0, Complex64::real(5.0));
        b.set(1, 1, Complex64::real(7.0));
        // Row 1 occupies indices 2 and 3 of the flat storage.
        assert_eq!(b.as_slice()[2], Complex64::real(5.0));
        assert_eq!(b.as_slice()[3], Complex64::real(7.0));
        assert_eq!(b.row(1), &[Complex64::real(5.0), Complex64::real(7.0)]);
    }

    #[test]
    fn columnwise_dot_matches_per_column_dot() {
        let mut r = rng();
        let x = BlockVector::random(211, 8, &mut r);
        let y = BlockVector::random(211, 8, &mut r);
        let blocked = x.columnwise_dot(&y);
        for (j, got) in blocked.iter().enumerate() {
            let xc = x.column(j);
            let yc = y.column(j);
            let want = dot(xc.as_slice(), yc.as_slice());
            assert!(got.approx_eq(want, 1e-10), "column {j}");
        }
    }

    #[test]
    fn columnwise_nrm2_nonnegative() {
        let b = BlockVector::random(100, 5, &mut rng());
        for n in b.columnwise_nrm2() {
            assert!(n > 0.0);
        }
    }

    #[test]
    fn shift_scale_dots_is_the_per_column_blas1_chain_bitwise() {
        use crate::vector::{axpy, axpy_par, dot_par, nrm2, nrm2_par, scal, scal_par};
        // 9,001 rows: three ragged 4,096-row chunks, ragged 256-row leaves.
        let (rows, a, b) = (9_001, 0.37, -0.21);
        let mut rg = rng();
        for width in [1, 2, 3, 8, 24, 32, 33] {
            let v = BlockVector::random(rows, width, &mut rg);
            let w0 = BlockVector::random(rows, width, &mut rg);
            let mut w = w0.clone();
            let (mu0, mu1) = shift_scale_dots(a, b, &v, &mut w);
            for j in 0..width {
                let (vj, mut wj) = (v.column(j).into_vec(), w0.column(j).into_vec());
                axpy(Complex64::real(-b), &vj, &mut wj);
                scal(Complex64::real(a), &mut wj);
                assert_eq!(w.column(j).as_slice(), &wj[..], "width {width} column {j}");
                assert_eq!((mu0[j], mu1[j]), (nrm2(&vj), dot(&wj, &vj).re));
            }
            for threads in [1, 2, 4, 8] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
                let mut w = w0.clone();
                let dots = pool
                    .build()
                    .unwrap()
                    .install(|| shift_scale_dots_par(a, b, &v, &mut w));
                for j in 0..width {
                    let (vj, mut wj) = (v.column(j).into_vec(), w0.column(j).into_vec());
                    axpy_par(Complex64::real(-b), &vj, &mut wj);
                    scal_par(Complex64::real(a), &mut wj);
                    assert_eq!(w.column(j).as_slice(), &wj[..], "width {width} column {j}");
                    let want = (nrm2_par(&vj), dot_par(&wj, &vj).re);
                    assert_eq!((dots.0[j], dots.1[j]), want, "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn swap_exchanges_contents() {
        let mut r = rng();
        let mut a = BlockVector::random(10, 3, &mut r);
        let mut b = BlockVector::random(10, 3, &mut r);
        let (a0, b0) = (a.clone(), b.clone());
        a.swap(&mut b);
        assert_eq!(a, b0);
        assert_eq!(b, a0);
    }

    #[test]
    fn max_abs_diff_detects_perturbation() {
        let mut r = rng();
        let a = BlockVector::random(50, 2, &mut r);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let z = b.get(20, 1);
        b.set(20, 1, z + Complex64::real(1e-3));
        assert!((a.max_abs_diff(&b) - 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        BlockVector::zeros(4, 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_columns_panic() {
        let cols = vec![Vector::zeros(3), Vector::zeros(4)];
        BlockVector::from_columns(&cols);
    }
}
