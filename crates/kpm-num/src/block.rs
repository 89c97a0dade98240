//! Block vectors of width `R`.
//!
//! The stage-2 optimization of the paper (Fig. 5) interprets the `R`
//! independent KPM starting vectors as one *block vector* so the sparse
//! matrix is streamed once per iteration instead of `R` times. For the
//! augmented SpMMV kernel to access the right-hand sides contiguously
//! the block is stored row by row (paper Section IV-A): row `i` owns the
//! `R` slots `i * R .. (i + 1) * R`.
//!
//! Inside a row the columns are cut into the **panels** the sweep keeps
//! in registers — 8 columns while 8 remain, then 4, 2, 1
//! ([`for_panels!`](crate::for_panels)) — and a panel of `W` columns
//! stores its `2W` doubles *split*, `[re; W][im; W]`, so a kernel
//! vectorised along the block row (paper Section IV-B) reads real and
//! imaginary lanes with plain vector loads and no shuffle
//! ([`load_panel`], [`store_panel`]). A panel of one is a [`Complex64`]:
//! a width-1 block is a plain vector.
//!
//! The split is private to [`BlockVector`] and the kernels that borrow
//! its [`panel_slots`](BlockVector::panel_slots); everything else goes
//! through the accessors, and what leaves the process (checkpoint
//! records) is row-major ([`BlockVector::to_interleaved`]).

use rand::Rng;
use rayon::prelude::*;

use crate::aligned::AlignedVec;
use crate::complex::{Complex64, ZERO};
use crate::summation::pairwise_sum_complex;
use crate::vector::{random_entry, Vector, DOT_BASE, PAR_CHUNK};

/// Cuts the columns `$j0..$r` of a block row into its layout panels and
/// evaluates `$body` once per panel, `$j0` at the panel's first column
/// and the const `$w` its width. The one place the cut is written down
/// ([`lanes_of`] inverts it); `$j0` is the caller's variable, so a
/// kernel may take wider passes first and hand over the rest.
#[macro_export]
macro_rules! for_panels {
    ($r:expr, $j0:ident, $w:ident => $body:expr) => {
        while $j0 < $r {
            match $r - $j0 {
                8.. => $crate::for_panels!(@panel 8, $j0, $w, $body),
                4.. => $crate::for_panels!(@panel 4, $j0, $w, $body),
                2.. => $crate::for_panels!(@panel 2, $j0, $w, $body),
                _ => $crate::for_panels!(@panel 1, $j0, $w, $body),
            }
        }
    };
    (@panel $width:literal, $j0:ident, $w:ident, $body:expr) => {{
        const $w: usize = $width;
        $body;
        $j0 += $width;
    }};
}

/// Where column `j` of a width-`r` row keeps its real and imaginary
/// parts, as offsets into the row's `2r` doubles.
#[inline]
pub fn lanes_of(r: usize, j: usize) -> (usize, usize) {
    debug_assert!(j < r, "column index out of range");
    // `j`'s panel: the widest aligned group around it that fits the row.
    let fits = |w: &usize| j - j % w + w <= r;
    let w = [8, 4, 2].into_iter().find(fits).unwrap_or(1);
    let j0 = j - j % w;
    (2 * j0 + (j - j0), 2 * j0 + w + (j - j0))
}

/// [`lanes_of`] every column of a width-`r` row.
fn row_lanes(r: usize) -> Vec<(usize, usize)> {
    (0..r).map(|j| lanes_of(r, j)).collect()
}

/// Double `d` of `slots` seen as `2 * slots.len()` consecutive doubles.
#[inline(always)]
fn lane(slots: &[Complex64], d: usize) -> f64 {
    let z = slots[d / 2];
    [z.re, z.im][d % 2]
}

/// Mutable [`lane`].
#[inline(always)]
fn lane_mut(slots: &mut [Complex64], d: usize) -> &mut f64 {
    let z = &mut slots[d / 2];
    if d.is_multiple_of(2) {
        &mut z.re
    } else {
        &mut z.im
    }
}

/// The entry whose parts sit at doubles `at` of `row` ([`lanes_of`]).
#[inline(always)]
pub fn entry_at(row: &[Complex64], at: (usize, usize)) -> Complex64 {
    Complex64::new(lane(row, at.0), lane(row, at.1))
}

/// Writes `z` to doubles `at` of `row` ([`lanes_of`]).
#[inline(always)]
pub fn set_entry_at(row: &mut [Complex64], at: (usize, usize), z: Complex64) {
    *lane_mut(row, at.0) = z.re;
    *lane_mut(row, at.1) = z.im;
}

/// The real and imaginary lanes of the `W`-column panel stored in
/// `slots[..W]`. Indexing the slots as `2W` consecutive doubles is what
/// the compiler folds into plain vector loads.
#[inline(always)]
pub fn load_panel<const W: usize>(slots: &[Complex64]) -> ([f64; W], [f64; W]) {
    let slots = &slots[..W];
    (
        std::array::from_fn(|k| lane(slots, k)),
        std::array::from_fn(|k| lane(slots, W + k)),
    )
}

/// Writes the lanes of a `W`-column panel to `slots[..W]`.
#[inline(always)]
pub fn store_panel<const W: usize>(re: &[f64; W], im: &[f64; W], slots: &mut [Complex64]) {
    let slots = &mut slots[..W];
    for k in 0..W {
        *lane_mut(slots, k) = re[k];
        *lane_mut(slots, W + k) = im[k];
    }
}

/// A dense `rows x width` block of complex numbers, stored row by row
/// in split panels (see the [module docs](self)). Entry `(i, j)` is
/// [`BlockVector::get`]`(i, j)`; where it sits in memory is the
/// kernels' business.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVector {
    rows: usize,
    width: usize,
    /// Leading columns that carry data ([`BlockVector::live_columns`]).
    live: usize,
    /// 64-byte-aligned split-panel storage (the paper's AVX kernels
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
            live: width,
            data: AlignedVec::zeroed(rows * width),
        }
    }

    /// Builds a block from `width` equal-length column vectors.
    pub fn from_columns(columns: &[Vector]) -> Self {
        Self::from_columns_padded(columns, columns.len())
    }

    /// [`BlockVector::from_columns`] at block width `width >=
    /// columns.len()`, the lanes behind the columns zero: fills a
    /// register panel (3 columns as 2 + 1 sweep slower than 4 as one).
    /// A zero column stays zero under every kernel, its dots exactly 0.
    pub fn from_columns_padded(columns: &[Vector], width: usize) -> Self {
        assert!(!columns.is_empty(), "need at least one column");
        assert!(columns.len() <= width, "more columns than block width");
        let rows = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "all columns must have equal length"
        );
        let lanes = row_lanes(width);
        // Row by row, so the block is written once, front to back (a
        // column at a time would stride through all of it `width` times).
        let mut b = Self::zeros(rows, width);
        b.live = columns.len();
        for (i, row) in b.data.chunks_exact_mut(width).enumerate() {
            for (col, &at) in columns.iter().zip(&lanes) {
                set_entry_at(row, at, col.as_slice()[i]);
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
        let at = lanes_of(self.width, j);
        let rows = self.data.chunks_exact(self.width);
        Vector::from_vec(rows.map(|row| entry_at(row, at)).collect())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Block width `R`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `width()` minus the zero lanes of
    /// [`BlockVector::from_columns_padded`], kept through `swap`:
    /// kernels sweep every lane, the kpm-obs probes count these.
    pub fn live_columns(&self) -> usize {
        self.live
    }

    /// Entry `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        assert!(j < self.width, "column index out of range");
        entry_at(&self.data[i * self.width..], lanes_of(self.width, j))
    }

    /// Sets entry `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, z: Complex64) {
        assert!(j < self.width, "column index out of range");
        let at = lanes_of(self.width, j);
        set_entry_at(&mut self.data[i * self.width..], at, z);
    }

    /// The block as one row-major (interleaved) array: entry `(i, j)`
    /// at `i * width + j` — the form checkpoint records carry.
    pub fn to_interleaved(&self) -> Vec<Complex64> {
        let lanes = row_lanes(self.width);
        let rows = self.data.chunks_exact(self.width);
        rows.flat_map(|row| lanes.iter().map(move |&at| entry_at(row, at)))
            .collect()
    }

    /// The inverse of [`BlockVector::to_interleaved`].
    pub fn from_interleaved(data: &[Complex64], rows: usize, width: usize) -> Self {
        assert_eq!(data.len(), rows * width, "interleaved length mismatch");
        let (lanes, mut b) = (row_lanes(width), Self::zeros(rows, width));
        for (row, src) in b.data.chunks_exact_mut(width).zip(data.chunks_exact(width)) {
            for (&at, &z) in lanes.iter().zip(src) {
                set_entry_at(row, at, z);
            }
        }
        b
    }

    /// The storage as the kernels walk it: `width` slots per row, each
    /// row in split panels (see the [module docs](self)). Not an array
    /// of entries unless `width == 1`.
    pub fn panel_slots(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable [`BlockVector::panel_slots`].
    pub fn panel_slots_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Fills all entries with uniform random values in `[-1,1]^2`,
    /// drawn in row-major `(i, j)` order.
    pub fn fill_random<R: Rng>(&mut self, rng: &mut R) {
        let lanes = row_lanes(self.width);
        for row in self.data.chunks_exact_mut(self.width) {
            for &at in &lanes {
                set_entry_at(row, at, random_entry(rng));
            }
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
        let r = check_same_shape(self, other);
        let lanes = row_lanes(r);
        let mut acc = vec![Complex64::default(); r];
        // Row by row: streams both blocks once, accumulating all R dot
        // products on the fly — the same access pattern the fused
        // kernels use.
        for (xr, yr) in self.data.chunks_exact(r).zip(other.data.chunks_exact(r)) {
            for (a, &at) in acc.iter_mut().zip(&lanes) {
                *a = entry_at(xr, at).conj().mul_add(entry_at(yr, at), *a);
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
        check_same_shape(self, other);
        std::mem::swap(&mut self.data, &mut other.data);
    }

    /// Maximum absolute difference to another block.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        check_same_shape(self, other);
        let pairs = self
            .to_interleaved()
            .into_iter()
            .zip(other.to_interleaved());
        pairs.map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

/// The rows of `v`/`w` (panel slots, width `r`) on the layout panel of
/// columns `j0 .. j0 + W`: applies `w ← a·(w + (−b)·v)` — the `axpy`
/// then the `scal` of the per-column chain, operation for operation in
/// every lane — and returns the partials of `dot(v, v)` and `dot(w, v)`
/// over these rows on [`dot`](crate::vector::dot)'s own tree (halves
/// down to [`DOT_BASE`]-row leaves).
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
            let (vre, vim) = load_panel::<W>(&vrow[j0..]);
            let (mut wre, mut wim) = load_panel::<W>(&wrow[j0..]);
            for k in 0..W {
                let vk = Complex64::new(vre[k], vim[k]);
                let wk = a * minus_b.mul_add(vk, Complex64::new(wre[k], wim[k]));
                (wre[k], wim[k]) = (wk.re, wk.im);
                vv[k] = vk.conj().mul_add(vk, vv[k]);
                wv[k] = wk.conj().mul_add(vk, wv[k]);
            }
            store_panel(&wre, &wim, &mut wrow[j0..]);
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

/// [`shift_scale_panel`] on every layout panel of the row; the partials
/// land in `vv[j]`, `wv[j]`.
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
    for_panels!(r, j0, W => {
        let (pv, pw) = shift_scale_panel::<W>(a, minus_b, v, w, r, j0);
        vv[j0..][..W].copy_from_slice(&pv);
        wv[j0..][..W].copy_from_slice(&pw);
    });
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
    fn padded_blocks_keep_their_columns_first_and_the_rest_zero() {
        let mut rg = rng();
        let cols: Vec<Vector> = (0..40).map(|_| Vector::random(5, &mut rg)).collect();
        for width in 1..=40 {
            let exact = BlockVector::from_columns(&cols[..width]);
            assert_eq!(
                exact,
                BlockVector::from_columns_padded(&cols[..width], width)
            );
            assert_eq!(exact.live_columns(), width);
            for k in [1, width / 2, width - 1] {
                if k == 0 {
                    continue;
                }
                let b = BlockVector::from_columns_padded(&cols[..k], width);
                assert_eq!((b.width(), b.live_columns()), (width, k));
                for j in 0..width {
                    let want = cols[..k].get(j).cloned().unwrap_or(Vector::zeros(5));
                    assert_eq!(b.column(j), want, "width {width}, {k} columns, lane {j}");
                }
            }
        }
    }

    #[test]
    fn accessors_agree_on_every_panel_cut() {
        // Widths 1..=40 cover every 8/4/2/1 cut; the contract is among
        // the accessors, never about where an entry sits in storage.
        let mut rg = rng();
        for width in 1..=40 {
            let cols: Vec<Vector> = (0..width).map(|_| Vector::random(5, &mut rg)).collect();
            let mut b = BlockVector::from_columns(&cols);
            let flat = b.to_interleaved();
            for (j, col) in cols.iter().enumerate() {
                assert_eq!(&b.column(j), col, "width {width} column {j}");
                for i in 0..5 {
                    assert_eq!(b.get(i, j), col.as_slice()[i]);
                    assert_eq!(flat[i * width + j], col.as_slice()[i]);
                }
            }
            assert_eq!(BlockVector::from_interleaved(&flat, 5, width), b);
            // `set` reaches exactly the entry `get` reads.
            let before = b.clone();
            for j in 0..width {
                b.set(3, j, Complex64::new(j as f64, -1.0));
            }
            for (i, j) in (0..5).flat_map(|i| (0..width).map(move |j| (i, j))) {
                let want = match i {
                    3 => Complex64::new(j as f64, -1.0),
                    _ => before.get(i, j),
                };
                assert_eq!(b.get(i, j), want, "width {width} entry ({i}, {j})");
            }
            assert!(b != before && b.max_abs_diff(&before) > 0.5);
        }
    }

    #[test]
    fn panels_tile_the_row_and_split_their_lanes() {
        for r in 1..=40 {
            let (mut j0, mut seen) = (0, Vec::new());
            for_panels!(r, j0, W => {
                for j in j0..j0 + W {
                    let split = (2 * j0 + j - j0, 2 * j0 + W + j - j0);
                    assert_eq!(lanes_of(r, j), split, "r = {r}, column {j}");
                }
                seen.push(W);
            });
            assert_eq!(seen.iter().sum::<usize>(), r);
            assert!(
                seen.windows(2).all(|p| p[0] == 8 || p[0] > p[1]),
                "{seen:?}"
            );
        }
        // The panel helpers and the accessors see the same entries.
        let b = BlockVector::random(2, 13, &mut rng());
        let row = &b.panel_slots()[13..];
        let (re, im) = load_panel::<4>(&row[8..]);
        for k in 0..4 {
            assert_eq!(b.get(1, 8 + k), Complex64::new(re[k], im[k]));
        }
        let mut back = [ZERO; 4];
        store_panel(&re, &im, &mut back);
        assert_eq!(back, row[8..12]);
        assert_eq!(row[12], b.get(1, 12));
    }

    #[test]
    fn fill_random_draws_in_row_major_order() {
        let b = BlockVector::random(7, 13, &mut rng());
        let mut rg = rng();
        for (i, j) in (0..7).flat_map(|i| (0..13).map(move |j| (i, j))) {
            assert_eq!(b.get(i, j), random_entry(&mut rg), "entry ({i}, {j})");
        }
    }

    #[test]
    fn columnwise_dot_matches_per_column_dot() {
        let mut r = rng();
        for width in [1, 8, 15] {
            let x = BlockVector::random(211, width, &mut r);
            let y = BlockVector::random(211, width, &mut r);
            let blocked = x.columnwise_dot(&y);
            for (j, got) in blocked.iter().enumerate() {
                let xc = x.column(j);
                let yc = y.column(j);
                let want = dot(xc.as_slice(), yc.as_slice());
                assert!(got.approx_eq(want, 1e-10), "width {width} column {j}");
            }
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
