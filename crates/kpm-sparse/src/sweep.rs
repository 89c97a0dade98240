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
//! ([`crate::stencil`]). Every blocked CRS and stencil kernel is
//! [`sweep`] over some row range: serial = one range over all rows
//! ([`aug_serial`], [`plain_serial`]), parallel = fixed tiles
//! ([`chunk_rows`]) whose partial dots are combined in tile order
//! ([`aug_par`], [`plain_par`]), so results never depend on the thread
//! count.
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

use crate::aug::{AugDotsBlock, ROWS_PER_CHUNK};
use crate::crs::CrsMatrix;
use crate::simd::Avx2;
use crate::tile::{tile_rows_for_budget, DEFAULT_CACHE_BYTES};

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
        for (i, wrow) in w.chunks_mut(r).enumerate() {
            let row = row0 + i;
            let (cols, vals) = (self.row_cols(row), self.row_vals(row));
            for_panels!(r, |j0| row_panel(cols, vals, x, r, row, j0, wrow, epi));
            epi.row_done(x, row * r, wrow);
        }
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

/// The augmented update over the rows of `w` starting at `row0`,
/// returning the range's partial dot products (empty without `DOTS`).
#[allow(clippy::too_many_arguments)] // the kernel signature plus range and body
fn aug_rows<S: RowSweep, const DOTS: bool>(
    s: &S,
    wide: Option<Avx2>,
    a: f64,
    b: f64,
    v: &[Complex64],
    r: usize,
    row0: usize,
    w: &mut [Complex64],
) -> AugDotsBlock {
    let mut epi = Aug::<DOTS>::new(a, b, r);
    sweep(s, wide, v, r, row0, w, &mut epi);
    epi.into_dots()
}

/// The serial augmented kernel: one range over all rows of `w`, so
/// each dot product is a single chain in row order.
pub(crate) fn aug_serial<S: RowSweep, const DOTS: bool>(
    s: &S,
    a: f64,
    b: f64,
    v: &[Complex64],
    r: usize,
    w: &mut [Complex64],
) -> AugDotsBlock {
    aug_rows::<S, DOTS>(s, crate::simd::wide(), a, b, v, r, 0, w)
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

/// The parallel augmented kernel: fixed row chunks, the partial dots
/// combined pairwise at width 1 (the grid of
/// [`crate::aug::aug_spmv_par`]) and in chunk order beyond.
pub(crate) fn aug_par<S: RowSweep, const DOTS: bool>(
    s: &S,
    a: f64,
    b: f64,
    v: &[Complex64],
    r: usize,
    w: &mut [Complex64],
    cache_bytes: usize,
) -> AugDotsBlock {
    let (wide, rows) = (crate::simd::wide(), chunk_rows(r, cache_bytes));
    let partials: Vec<AugDotsBlock> = w
        .par_chunks_mut(rows * r)
        .enumerate()
        .map(|(ci, wc)| aug_rows::<S, DOTS>(s, wide, a, b, v, r, ci * rows, wc))
        .collect();
    if DOTS && r == 1 {
        let even: Vec<f64> = partials.iter().map(|p| p.eta_even[0]).collect();
        let odd: Vec<Complex64> = partials.iter().map(|p| p.eta_odd[0]).collect();
        return AugDotsBlock {
            eta_even: vec![pairwise_sum(&even)],
            eta_odd: vec![pairwise_sum_complex(&odd)],
        };
    }
    let width = if DOTS { r } else { 0 };
    let mut total = AugDotsBlock {
        eta_even: vec![0.0; width],
        eta_odd: vec![Complex64::default(); width],
    };
    for part in &partials {
        for j in 0..width {
            total.eta_even[j] += part.eta_even[j];
            total.eta_odd[j] += part.eta_odd[j];
        }
    }
    total
}

/// `y = A x` over all rows of `y` (serial).
pub(crate) fn plain_serial<S: RowSweep>(s: &S, x: &[Complex64], r: usize, y: &mut [Complex64]) {
    sweep(s, crate::simd::wide(), x, r, 0, y, &mut Plain);
}

/// `y = A x` over the fixed row chunks in parallel (per-row writes, no
/// reduction, trivially bitwise).
pub(crate) fn plain_par<S: RowSweep>(s: &S, x: &[Complex64], r: usize, y: &mut [Complex64]) {
    let (wide, rows) = (crate::simd::wide(), chunk_rows(r, DEFAULT_CACHE_BYTES));
    y.par_chunks_mut(rows * r)
        .enumerate()
        .for_each(|(ci, yc)| sweep(s, wide, x, r, ci * rows, yc, &mut Plain));
}
