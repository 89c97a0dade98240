//! The one blocked sweep: a row-range body on register panels.
//!
//! Paper Section IV-B gets stage 2's speed from a blocked kernel whose
//! `R`-wide inner loop is fully unrolled and vectorised. Here that
//! kernel is written once. Per row, the block-vector columns are cut
//! into const-width panels of 8/4/2/1 ([`for_panels`], so any `R` is
//! "specialised"), a panel's accumulators sit in fixed-size `re`/`im`
//! arrays the compiler keeps in registers ([`axpy_panel`]), the row's
//! `(col, val)` pairs are re-walked per panel from L1, and an
//! [`Epilogue`] — `y = A x` ([`Plain`]) or the augmented update with
//! or without the fused dots ([`Aug`]) — finishes the panel and, after
//! the last one, the row.
//!
//! A [`RowSweep`] is where a row's entries come from: the CRS arrays
//! (here) or the stencil's tabulated site classes
//! ([`crate::stencil`]). Every CRS and stencil kernel, at every width,
//! is [`run`]: a [`SweepOp`] (which epilogue) under a [`Schedule`] —
//! one range over all rows, or fixed chunks ([`chunk_rows`]) whose
//! partial dots are combined in chunk order, so results never depend
//! on the thread count. Width 1 is a column of the same body: CRS
//! walks it as the plain `mul_add` chain it is, inside the same two
//! compiled copies.
//!
//! The body is compiled **twice from the same source**: once for the
//! baseline target and once under `#[target_feature(enable = "avx2")]`
//! ([`sweep`]); [`crate::simd::wide`] picks per kernel call. Neither
//! copy uses a fused multiply-add, so every lane performs the IEEE
//! multiplies and adds of [`Complex64::mul_add`] in the same order and
//! the two copies — and the scalar chain — agree bit for bit.

use kpm_num::summation::{pairwise_sum, pairwise_sum_complex};
use kpm_num::Complex64;
use rayon::prelude::*;

use crate::aug::AugDotsBlock;
use crate::crs::CrsMatrix;
use crate::kernels::{FormatSpec, SparseKernels};
use crate::simd::Avx2;
use crate::tile::{tile_rows_for_budget, DEFAULT_CACHE_BYTES};

/// What a sweep does with each row's `(Hx)[row]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepOp {
    /// `w = H x`.
    Plain,
    /// The augmented update `w ← 2a(H − b)x − w` (paper Figs. 4, 5),
    /// with the fused `(η_even, η_odd)` per block column when `dots`.
    Aug {
        /// The spectral scale `a`.
        a: f64,
        /// The spectral shift `b`.
        b: f64,
        /// Accumulate both scalar products on the fly.
        dots: bool,
    },
}

/// How a sweep's rows are scheduled — which also fixes the order the
/// dot products are summed in, and nothing else about the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One range over all rows on the calling thread: every dot product
    /// is a single chain in row order.
    Serial,
    /// Fixed row chunks on the ambient pool, sized for the operator's
    /// per-thread cache budget ([`crate::tile`]); the chunks' partial
    /// dots are combined in chunk order, so the result is the same for
    /// any thread count.
    Chunked,
}

/// Fixed chunk height of the width-1 parallel reduction: partial `η`
/// sums sit on these boundaries regardless of the thread count.
const ROWS_PER_CHUNK: usize = 1024;

/// What a sweep does with a row's accumulators `(Hx)[row]`. Rows
/// arrive in ascending order, each as its panels followed by one
/// [`Epilogue::row_done`].
pub(crate) trait Epilogue {
    /// The finished panel `acc` on block-vector columns `j0 .. j0 + W`:
    /// `x[at..]` is the matching slice of `x`'s row (not touched by
    /// [`Plain`], so `y = A x` works on any shape), `wrow` that of
    /// `w`'s.
    fn finish<const W: usize>(
        &mut self,
        acc: &[Complex64; W],
        x: &[Complex64],
        at: usize,
        wrow: &mut [Complex64],
    );

    /// All panels of the row are finished: `x[at..]` and `wrow` are
    /// the row's full-width slices.
    fn row_done(&mut self, x: &[Complex64], at: usize, wrow: &[Complex64]);
}

/// `y = A x`.
struct Plain;

impl Epilogue for Plain {
    #[inline(always)]
    fn finish<const W: usize>(
        &mut self,
        acc: &[Complex64; W],
        _: &[Complex64],
        _: usize,
        yrow: &mut [Complex64],
    ) {
        yrow[..W].copy_from_slice(acc);
    }

    #[inline(always)]
    fn row_done(&mut self, _: &[Complex64], _: usize, _: &[Complex64]) {}
}

/// The augmented update `w ← 2a(H − b)v − w` panel by panel and, when
/// `DOTS`, the `(η_even, η_odd)` dot products per block column once the
/// row is complete: one run-time-width loop over split `re`/`im`
/// accumulators, which the compiler vectorises across the columns.
struct Aug<const DOTS: bool> {
    a: f64,
    b: f64,
    even: Vec<f64>,
    odd_re: Vec<f64>,
    odd_im: Vec<f64>,
}

impl<const DOTS: bool> Aug<DOTS> {
    fn new(a: f64, b: f64, r: usize) -> Self {
        let zeros = || vec![0.0; if DOTS { r } else { 0 }];
        let (even, odd_re, odd_im) = (zeros(), zeros(), zeros());
        Self {
            a,
            b,
            even,
            odd_re,
            odd_im,
        }
    }

    fn into_dots(self) -> AugDotsBlock {
        let odd = self.odd_re.iter().zip(&self.odd_im);
        AugDotsBlock {
            eta_odd: odd.map(|(&re, &im)| Complex64::new(re, im)).collect(),
            eta_even: self.even,
        }
    }
}

impl<const DOTS: bool> Epilogue for Aug<DOTS> {
    #[inline(always)]
    fn finish<const W: usize>(
        &mut self,
        acc: &[Complex64; W],
        v: &[Complex64],
        at: usize,
        wrow: &mut [Complex64],
    ) {
        let (vrow, wrow) = (&v[at..][..W], &mut wrow[..W]);
        for k in 0..W {
            wrow[k] = (acc[k] - vrow[k].scale(self.b)).scale(2.0 * self.a) - wrow[k];
        }
    }

    #[inline(always)]
    fn row_done(&mut self, v: &[Complex64], at: usize, wrow: &[Complex64]) {
        if DOTS {
            let r = wrow.len();
            let (vrow, even) = (&v[at..][..r], &mut self.even[..r]);
            let (odd_re, odd_im) = (&mut self.odd_re[..r], &mut self.odd_im[..r]);
            for k in 0..r {
                even[k] += vrow[k].norm_sqr();
                let odd = Complex64::new(odd_re[k], odd_im[k]);
                let odd = wrow[k].conj().mul_add(vrow[k], odd);
                (odd_re[k], odd_im[k]) = (odd.re, odd.im);
            }
        }
    }
}

/// `acc[k] = val.mul_add(x[k], acc[k])` on a register panel. The real
/// lane is `mul_add`'s own `re·re − im·im`; the imaginary lane
/// subtracts the exactly negated product `(−val.im)·x.re` instead of
/// adding `val.im·x.re` — the same bits. `neg_im` is `-val.im`: read
/// from a table (the stencil) it keeps both lanes multiply, multiply,
/// subtract, add in one operand order, which packs into `[re, im]`
/// registers with a single shuffle per register (measured 2–7 % on the
/// stencil sweep); computed in the compiler's sight (CRS) it folds
/// back into the add.
#[inline(always)]
pub(crate) fn axpy_panel<const W: usize>(
    val: Complex64,
    neg_im: f64,
    x: &[Complex64],
    re: &mut [f64; W],
    im: &mut [f64; W],
) {
    for k in 0..W {
        re[k] += val.re * x[k].re - val.im * x[k].im;
        im[k] += val.re * x[k].im - neg_im * x[k].re;
    }
}

/// Cuts block-vector columns `0..$r` into register panels of 8/4/2/1
/// and runs `$panel::<W, _>($args)` on each, `$j0` naming the panel's
/// first column inside the argument list.
macro_rules! for_panels {
    ($r:expr, |$j0:ident| $panel:ident($($arg:expr),* $(,)?)) => {{
        let mut $j0 = 0;
        while $j0 + 8 <= $r {
            $panel::<8, _>($($arg),*);
            $j0 += 8;
        }
        if $j0 + 4 <= $r {
            $panel::<4, _>($($arg),*);
            $j0 += 4;
        }
        if $j0 + 2 <= $r {
            $panel::<2, _>($($arg),*);
            $j0 += 2;
        }
        if $j0 < $r {
            $panel::<1, _>($($arg),*);
        }
    }};
}
pub(crate) use for_panels;

/// A row source the blocked sweep can run on.
pub(crate) trait RowSweep: Sync {
    /// One sweep over the rows of `w` (`w.len() / r` rows of width `r`
    /// starting at `row0`): for each row, in order, the accumulator
    /// chain `acc = Σ_c H[row, c] · x[c]` in ascending column order,
    /// panel by panel, handed to `epi`.
    ///
    /// Implementations are `#[inline(always)]`: [`sweep`] instantiates
    /// the body once per target-feature set.
    fn sweep_body<E: Epilogue>(
        &self,
        x: &[Complex64],
        r: usize,
        row0: usize,
        w: &mut [Complex64],
        epi: &mut E,
    );
}

impl RowSweep for CrsMatrix {
    #[inline(always)]
    fn sweep_body<E: Epilogue>(
        &self,
        x: &[Complex64],
        r: usize,
        row0: usize,
        w: &mut [Complex64],
        epi: &mut E,
    ) {
        if r == 1 {
            // One column: the row is a single dependent `mul_add` chain
            // with nothing to hold in a panel, handed to the shared
            // epilogue as a panel of one.
            for (i, wrow) in w.chunks_mut(1).enumerate() {
                let row = row0 + i;
                let mut acc = Complex64::default();
                for (hv, &c) in self.row_vals(row).iter().zip(self.row_cols(row)) {
                    acc = hv.mul_add(x[c as usize], acc);
                }
                epi.finish::<1>(&[acc], x, row, wrow);
                epi.row_done(x, row, wrow);
            }
            return;
        }
        for (i, wrow) in w.chunks_mut(r).enumerate() {
            let row = row0 + i;
            let (cols, vals) = (self.row_cols(row), self.row_vals(row));
            for_panels!(r, |j0| row_panel(cols, vals, x, r, row, j0, wrow, epi));
            epi.row_done(x, row * r, wrow);
        }
    }
}

/// CRS as a format: its dimensions and [`run`] at the default budget.
impl SparseKernels for CrsMatrix {
    fn nrows(&self) -> usize {
        CrsMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        CrsMatrix::ncols(self)
    }
    fn nnz(&self) -> usize {
        CrsMatrix::nnz(self)
    }
    fn format(&self) -> FormatSpec {
        FormatSpec::Crs
    }
    fn sweep(
        &self,
        op: SweepOp,
        schedule: Schedule,
        x: &[Complex64],
        r: usize,
        w: &mut [Complex64],
    ) -> AugDotsBlock {
        run(self, op, schedule, DEFAULT_CACHE_BYTES, x, r, w)
    }
}

/// One row, given as its CRS `(cols, vals)` pairs, on block-vector
/// columns `j0 .. j0 + W`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the sweep state, passed flat
pub(crate) fn row_panel<const W: usize, E: Epilogue>(
    cols: &[u32],
    vals: &[Complex64],
    x: &[Complex64],
    r: usize,
    row: usize,
    j0: usize,
    wrow: &mut [Complex64],
    epi: &mut E,
) {
    let (mut re, mut im) = ([0.0; W], [0.0; W]);
    for (hv, &c) in vals.iter().zip(cols) {
        let xrow = &x[c as usize * r + j0..][..W];
        axpy_panel(*hv, -hv.im, xrow, &mut re, &mut im);
    }
    let acc: [Complex64; W] = std::array::from_fn(|k| Complex64::new(re[k], im[k]));
    epi.finish(&acc, x, row * r + j0, &mut wrow[j0..]);
}

/// The AVX2 copy of a sweep body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2<S: RowSweep, E: Epilogue>(
    s: &S,
    x: &[Complex64],
    r: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    s.sweep_body(x, r, row0, w, epi);
}

/// Runs `s`'s sweep body over the rows of `w` starting at `row0`: the
/// AVX2 copy when the caller holds the [`Avx2`] token
/// ([`crate::simd::wide`], read once per kernel call), the baseline
/// copy otherwise and on every other architecture.
#[inline]
fn sweep<S: RowSweep, E: Epilogue>(
    s: &S,
    wide: Option<Avx2>,
    x: &[Complex64],
    r: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    #[cfg(target_arch = "x86_64")]
    if wide.is_some() {
        // SAFETY: an `Avx2` token is only ever made by `simd::wide`
        // after `is_x86_feature_detected!("avx2")` returned true, so
        // this CPU executes the instructions the copy was compiled to.
        return unsafe { sweep_avx2(s, x, r, row0, w, epi) };
    }
    let _ = wide;
    s.sweep_body(x, r, row0, w, epi);
}

/// Rows per parallel chunk — the one reduction grid of every format:
/// 1024-row chunks at width 1, cache-budget tiles beyond. It depends
/// on nothing scheduling-related, so neither do the reduced dots.
fn chunk_rows(r: usize, cache_bytes: usize) -> usize {
    match r {
        1 => ROWS_PER_CHUNK,
        _ => tile_rows_for_budget(r, cache_bytes),
    }
}

/// One sweep of `s` over all rows of `w` (width `r`, `cache_bytes` the
/// per-thread budget the chunks are sized for): every named kernel of
/// [`crate::SparseKernels`] on CRS and stencil is this call. Returns
/// the dot products of [`SweepOp::Aug`] with `dots`, empty otherwise.
pub(crate) fn run<S: RowSweep>(
    s: &S,
    op: SweepOp,
    schedule: Schedule,
    cache_bytes: usize,
    x: &[Complex64],
    r: usize,
    w: &mut [Complex64],
) -> AugDotsBlock {
    let rows = chunk_rows(r, cache_bytes);
    match op {
        SweepOp::Plain => {
            scheduled(s, schedule, rows, x, r, w, || Plain);
            AugDotsBlock::default()
        }
        SweepOp::Aug { a, b, dots: false } => {
            scheduled(s, schedule, rows, x, r, w, || Aug::<false>::new(a, b, r));
            AugDotsBlock::default()
        }
        SweepOp::Aug { a, b, dots: true } => {
            let ranges = scheduled(s, schedule, rows, x, r, w, || Aug::<true>::new(a, b, r));
            let mut partials: Vec<AugDotsBlock> = ranges.into_iter().map(Aug::into_dots).collect();
            match schedule {
                Schedule::Serial => partials.remove(0),
                Schedule::Chunked => reduce(&partials, r),
            }
        }
    }
}

/// Runs the body under `schedule` with a fresh epilogue per range —
/// one range, or `rows`-row chunks on the pool — and returns the
/// epilogues in row order. The copy to run is picked once, here.
fn scheduled<S: RowSweep, E: Epilogue + Send>(
    s: &S,
    schedule: Schedule,
    rows: usize,
    x: &[Complex64],
    r: usize,
    w: &mut [Complex64],
    epilogue: impl Fn() -> E + Sync,
) -> Vec<E> {
    let wide = crate::simd::wide();
    let range = |row0: usize, wc: &mut [Complex64]| {
        let mut epi = epilogue();
        sweep(s, wide, x, r, row0, wc, &mut epi);
        epi
    };
    match schedule {
        Schedule::Serial => vec![range(0, w)],
        Schedule::Chunked => w
            .par_chunks_mut(rows * r)
            .enumerate()
            .map(|(ci, wc)| range(ci * rows, wc))
            .collect(),
    }
}

/// Combines the chunks' partial dots: pairwise at width 1, in chunk
/// order beyond.
fn reduce(partials: &[AugDotsBlock], r: usize) -> AugDotsBlock {
    if r == 1 {
        let even: Vec<f64> = partials.iter().map(|p| p.eta_even[0]).collect();
        let odd: Vec<Complex64> = partials.iter().map(|p| p.eta_odd[0]).collect();
        return AugDotsBlock {
            eta_even: vec![pairwise_sum(&even)],
            eta_odd: vec![pairwise_sum_complex(&odd)],
        };
    }
    let mut total = AugDotsBlock {
        eta_even: vec![0.0; r],
        eta_odd: vec![Complex64::default(); r],
    };
    for part in partials {
        for j in 0..r {
            total.eta_even[j] += part.eta_even[j];
            total.eta_odd[j] += part.eta_odd[j];
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use kpm_num::{BlockVector, Vector};
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
        a.spmv(&x, &mut y);
        let want = dense_apply(&a, &x);
        for (g, w) in y.iter().zip(&want) {
            assert!(g.approx_eq(*w, 1e-12));
        }
    }

    #[test]
    fn spmv_par_matches_serial() {
        let a = random_matrix(2500, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let x = Vector::random(2500, &mut rng).into_vec();
        let mut y1 = vec![Complex64::default(); 2500];
        let mut y2 = y1.clone();
        a.spmv(&x, &mut y1);
        a.spmv_par(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn spmmv_matches_per_column_spmv() {
        let a = random_matrix(80, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let x = BlockVector::random(80, 5, &mut rng);
        let mut y = BlockVector::zeros(80, 5);
        a.spmmv(&x, &mut y);
        for j in 0..5 {
            let xc = x.column(j);
            let mut yc = vec![Complex64::default(); 80];
            a.spmv(xc.as_slice(), &mut yc);
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
        a.spmmv(&x, &mut y1);
        a.spmmv_par(&x, &mut y2);
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
            a.spmmv(&x, &mut y);
            a.spmmv_par(&x, &mut y_par);
            assert_eq!(y, y_par);
            for j in 0..11 {
                let mut yc = vec![Complex64::default(); nrows];
                a.spmv(x.column(j).as_slice(), &mut yc);
                assert_eq!(y.column(j).into_vec(), yc, "{nrows}x{ncols} col {j}");
            }
        }
    }

    #[test]
    fn spmv_on_identity_is_copy() {
        let id = CrsMatrix::identity(33);
        let mut rng = StdRng::seed_from_u64(13);
        let x = Vector::random(33, &mut rng).into_vec();
        let mut y = vec![Complex64::default(); 33];
        id.spmv(&x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn width_one_block_equals_vector_spmv() {
        let a = random_matrix(40, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let xv = Vector::random(40, &mut rng);
        let x = BlockVector::from_columns(std::slice::from_ref(&xv));
        let mut y = BlockVector::zeros(40, 1);
        a.spmmv(&x, &mut y);
        let mut yv = vec![Complex64::default(); 40];
        a.spmv(xv.as_slice(), &mut yv);
        assert_eq!(y.column(0).into_vec(), yv);
    }
}
