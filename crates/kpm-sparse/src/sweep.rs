//! The one blocked sweep: a row-range body on register panels.
//!
//! Paper Section IV-B gets stage 2's speed from a blocked kernel whose
//! `R`-wide inner loop is fully unrolled and vectorised along the block
//! row. Here that kernel is written once. Per row, the block-vector
//! columns are walked in the layout panels of 8/4/2/1 they are stored
//! in ([`kpm_num::for_panels`], so any `R` is "specialised"; a panel of
//! `W` columns is `[re; W][im; W]`, see [`kpm_num::block`]), a pass's
//! accumulators sit in fixed-size `re`/`im` arrays the compiler keeps
//! in registers ([`Pass`]: one panel, or two adjacent 8-column panels
//! walked together), the row's `(col, val)` pairs are re-walked per
//! pass from L1, and an [`Epilogue`] — `y = A x` ([`Plain`]) or the
//! augmented update with or without the fused dots ([`Aug`]) —
//! finishes each panel. Lanes are loaded, combined and stored with no
//! shuffle.
//!
//! A [`RowSweep`] is where a row's entries come from: the CRS arrays
//! (here) or the stencil's tabulated site classes
//! ([`crate::stencil`]). Every CRS and stencil kernel, at every width,
//! is [`run`]: a [`SweepOp`] (which epilogue) under a [`Schedule`] —
//! one range over all rows, or fixed chunks ([`chunk_rows`]) whose
//! partial dots are combined in chunk order, so results never depend
//! on the thread count. Width 1 is a column of the same body: CRS
//! walks it as the plain `mul_add` chain on `Complex64` scalars it is,
//! inside the same compiled copies.
//!
//! The body is compiled **three times from the same source**: for the
//! baseline target, under `#[target_feature(enable = "avx2")]` and
//! under `#[target_feature(enable = "avx512f")]` ([`sweep`]) — each time
//! with and without its zero-skip arms ([`sweep_body_for`]);
//! [`crate::simd::wide`] picks per kernel call. The copies differ in
//! one const, the columns of their widest pass: one layout panel for
//! the first two, two panels (four 512-bit accumulators) for the
//! third. No copy uses a fused multiply-add, and every lane ends up with
//! the bits of the scalar chain of [`Complex64::mul_add`]s — so the
//! copies agree with it and with each other bit for bit. The
//! four-product arm gets there by performing `mul_add`'s IEEE multiplies
//! and adds in its order. From [`AXIAL_MIN_WIDTH`] columns on, a row
//! whose values all have an exactly-zero part (every row of the paper's
//! Eq. 1 lattice, every row of a `real` file) instead runs the arms that
//! leave the products with that zero out, which cannot change a bit
//! because an accumulator that starts at `+0.0` is never `−0`
//! ([`Pass::axpy`] has the argument).

use kpm_num::block::{load_panel, store_panel};
use kpm_num::summation::{pairwise_sum, pairwise_sum_complex};
use kpm_num::Complex64;
use rayon::prelude::*;

use crate::aug::AugDotsBlock;
use crate::crs::CrsMatrix;
use crate::kernels::{FormatSpec, SparseKernels};
use crate::simd::{Body, Wide};
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
/// arrive in ascending order, each as its panels in column order.
pub(crate) trait Epilogue {
    /// The finished layout panel of columns `j0 .. j0 + W`, as lanes:
    /// `x[at..]` are the matching slots of `x`'s row (not touched by
    /// [`Plain`], so `y = A x` works on any shape), `w` those of `w`'s.
    fn finish<const W: usize>(
        &mut self,
        re: &[f64; W],
        im: &[f64; W],
        x: &[Complex64],
        at: usize,
        j0: usize,
        w: &mut [Complex64],
    );

    /// [`Epilogue::finish`] for the width-1 chain, on scalars: `x[at]`
    /// and `w` are the row's entries.
    fn finish_one(&mut self, acc: Complex64, x: &[Complex64], at: usize, w: &mut Complex64);
}

/// `y = A x`.
struct Plain;

impl Epilogue for Plain {
    #[inline(always)]
    fn finish<const W: usize>(
        &mut self,
        re: &[f64; W],
        im: &[f64; W],
        _: &[Complex64],
        _: usize,
        _: usize,
        y: &mut [Complex64],
    ) {
        store_panel(re, im, y);
    }

    #[inline(always)]
    fn finish_one(&mut self, acc: Complex64, _: &[Complex64], _: usize, y: &mut Complex64) {
        *y = acc;
    }
}

/// The augmented update `w ← 2a(H − b)v − w` panel by panel and, when
/// `DOTS`, the `(η_even, η_odd)` dot products per block column: split
/// `re`/`im` accumulators, a panel's copied into locals, updated and
/// copied back (updated in place behind `&mut self` they stay scalar).
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

    /// One entry of the update: the new `w`.
    #[inline(always)]
    fn update(&self, acc: Complex64, v: Complex64, w: Complex64) -> Complex64 {
        (acc - v.scale(self.b)).scale(2.0 * self.a) - w
    }
}

impl<const DOTS: bool> Epilogue for Aug<DOTS> {
    #[inline(always)]
    fn finish<const W: usize>(
        &mut self,
        re: &[f64; W],
        im: &[f64; W],
        v: &[Complex64],
        at: usize,
        j0: usize,
        w: &mut [Complex64],
    ) {
        let (vre, vim) = load_panel::<W>(&v[at..]);
        let (mut wre, mut wim) = load_panel::<W>(w);
        let v_at = |k: usize| Complex64::new(vre[k], vim[k]);
        for k in 0..W {
            let wk = self.update(
                Complex64::new(re[k], im[k]),
                v_at(k),
                Complex64::new(wre[k], wim[k]),
            );
            (wre[k], wim[k]) = (wk.re, wk.im);
        }
        store_panel(&wre, &wim, w);
        if DOTS {
            let (mut even, mut odd_re, mut odd_im) = ([0.0; W], [0.0; W], [0.0; W]);
            even.copy_from_slice(&self.even[j0..][..W]);
            odd_re.copy_from_slice(&self.odd_re[j0..][..W]);
            odd_im.copy_from_slice(&self.odd_im[j0..][..W]);
            for k in 0..W {
                even[k] += v_at(k).norm_sqr();
                let odd = Complex64::new(odd_re[k], odd_im[k]);
                let odd = Complex64::new(wre[k], wim[k]).conj().mul_add(v_at(k), odd);
                (odd_re[k], odd_im[k]) = (odd.re, odd.im);
            }
            self.even[j0..][..W].copy_from_slice(&even);
            self.odd_re[j0..][..W].copy_from_slice(&odd_re);
            self.odd_im[j0..][..W].copy_from_slice(&odd_im);
        }
    }

    #[inline(always)]
    fn finish_one(&mut self, acc: Complex64, v: &[Complex64], at: usize, w: &mut Complex64) {
        *w = self.update(acc, v[at], *w);
        if DOTS {
            self.even[0] += v[at].norm_sqr();
            let odd = Complex64::new(self.odd_re[0], self.odd_im[0]);
            let odd = w.conj().mul_add(v[at], odd);
            (self.odd_re[0], self.odd_im[0]) = (odd.re, odd.im);
        }
    }
}

/// `re[k] += $dre; im[k] += $dim` on every lane of the pass `$pass`,
/// both expressions in terms of `$xre` and `$xim`, lane `k` of the `x`
/// slots `$x` — one of [`Pass::axpy`]'s three forms of `val · x[k]`.
/// Each panel is written out (see [`Pass`]); a macro rather than a
/// closure per form, so that unoptimised builds do not make two calls
/// per lane.
macro_rules! add_lanes {
    ($pass:ident, $x:ident, |$xre:ident, $xim:ident| ($dre:expr, $dim:expr)) => {{
        let x = &$x[..Self::COLS];
        add_lanes!(@panel x, $pass.re, $pass.im, $xre, $xim, $dre, $dim);
        if TWO {
            add_lanes!(@panel &x[W..], $pass.re2, $pass.im2, $xre, $xim, $dre, $dim);
        }
    }};
    (@panel $x:expr, $re:expr, $im:expr, $xre:ident, $xim:ident, $dre:expr, $dim:expr) => {{
        let (xre, xim) = load_panel::<W>($x);
        for k in 0..W {
            let ($xre, $xim) = (xre[k], xim[k]);
            $re[k] += $dre;
            $im[k] += $dim;
        }
    }};
}

/// Narrowest block the zero-skip arms of [`Pass::axpy`] are taken at.
/// Below 16 columns the body is bound by neither its multiplies nor its
/// instruction count — the arms measured no gain there and CRS's
/// per-row [`all_axial`] cost ×1.19 at 8 columns (EXPERIMENTS.md,
/// "Zero-skip arms") — so narrower sweeps run the four-product arm only.
const AXIAL_MIN_WIDTH: usize = 16;

/// Whether a part of `val` is exactly zero, of either sign.
#[inline(always)]
pub(crate) fn is_axial(val: Complex64) -> bool {
    (val.re == 0.0) | (val.im == 0.0)
}

/// Whether a row with these values takes the zero-skip arms:
/// [`is_axial`] for every one of them. A fold without an early exit,
/// evaluated once per row for all its passes: on a matrix whose entry
/// kinds follow no pattern neither it nor the loop it picks has a branch
/// to mispredict (tested per entry, such a matrix ran ×2–4 slower; same
/// section).
#[inline(always)]
pub(crate) fn all_axial(vals: &[Complex64]) -> bool {
    vals.iter().fold(true, |all, &val| all & is_axial(val))
}

/// The register accumulators of one compute pass over a row: the
/// `W`-column layout panel at `j0` of `(Hx)[row]` as `re`/`im` lanes
/// and, when `TWO`, the next panel beside it. Four named arrays, not an
/// array of panels: a loop over sub-panels gets vectorised across the
/// wrong axis.
pub(crate) struct Pass<const W: usize, const TWO: bool> {
    re: [f64; W],
    im: [f64; W],
    re2: [f64; W],
    im2: [f64; W],
}

impl<const W: usize, const TWO: bool> Pass<W, TWO> {
    /// Block-vector columns the pass covers.
    pub(crate) const COLS: usize = if TWO { 2 * W } else { W };

    pub(crate) const ZERO: Self = Self {
        re: [0.0; W],
        im: [0.0; W],
        re2: [0.0; W],
        im2: [0.0; W],
    };

    /// `acc[k] = val.mul_add(x[k], acc[k])` on every lane, in the bits
    /// of that four-product chain: `x` are the slots of an `x` row from
    /// column `j0`, `neg_im` is `-val.im`, and `AXIAL` promises that
    /// [`is_axial`]`(val)` — the caller tested the whole row
    /// ([`all_axial`]) and runs one loop or the other.
    ///
    /// The general arm is `mul_add`'s own `re·re − im·im` on the real
    /// lane and `re·im − (−val.im)·x.re` on the imaginary one:
    /// subtracting the exactly negated product is adding `val.im·x.re`.
    /// (`neg_im` read from a table — the stencil — keeps both lanes
    /// multiply, multiply, subtract, add in one operand order; computed
    /// in the compiler's sight — CRS — it folds back into the add.)
    ///
    /// Every hop of paper Eq. 1 is `±t/2` or `±i·t/2` and every on-site
    /// term, like every entry of a `real` MatrixMarket file, is real: on
    /// such rows half of the general arm's products multiply by an exact
    /// zero. The axial arms leave them out. An entry with `val.im == ±0`
    /// adds `val.re·x.re` and `val.re·x.im`; any other has
    /// `val.re == ±0` and adds `(−val.im)·x.im` and `val.im·x.re`. For
    /// every finite `x` that is the general arm's result bit for bit:
    ///
    /// * a dropped product is `±0`, and `p − (±0)` is `p` unless `p` is
    ///   itself a zero, so an addend changes at most in the sign of a
    ///   zero;
    /// * an accumulator is never `−0` — it starts at `+0.0`, and an IEEE
    ///   sum is `−0` only when both addends are — so a zero addend of
    ///   either sign leaves it as it was;
    /// * `(±0) − q` is `−q`, and `(−v)·x` is `−(v·x)` in bits: the
    ///   pure-imaginary arm.
    ///
    /// Only a non-finite `x` tells the arms apart (`0 · ∞` was NaN), and
    /// the solver never sweeps one: its divergence guardrail ends the
    /// run when `‖x‖²` passes 10³·µ₀, long before an entry overflows.
    #[inline(always)]
    pub(crate) fn axpy<const AXIAL: bool>(&mut self, val: Complex64, neg_im: f64, x: &[Complex64]) {
        // The kind is tested once per entry and pass, ahead of the
        // panels.
        if !AXIAL {
            add_lanes!(self, x, |xre, xim| (
                val.re * xre - val.im * xim,
                val.re * xim - neg_im * xre
            ));
        } else if val.im == 0.0 {
            add_lanes!(self, x, |xre, xim| (val.re * xre, val.re * xim));
        } else {
            add_lanes!(self, x, |xre, xim| (neg_im * xim, val.im * xre));
        }
    }

    /// Hands each finished panel to `epi`: `x[at..]` and `w` are the
    /// slots of the `x` and `w` rows from column `j0`.
    #[inline(always)]
    pub(crate) fn finish<E: Epilogue>(
        &self,
        epi: &mut E,
        x: &[Complex64],
        at: usize,
        j0: usize,
        w: &mut [Complex64],
    ) {
        epi.finish(&self.re, &self.im, x, at, j0, w);
        if TWO {
            epi.finish(&self.re2, &self.im2, x, at + W, j0 + W, &mut w[W..]);
        }
    }
}

/// Walks block-vector columns `0..$r` in compute passes and calls
/// `$pass::<W, TWO, _>($args)` for each, `$j0` naming its first column:
/// two adjacent 8-column panels together (`TWO`) while 16 columns remain
/// when the copy's widest pass (`$cols`) is 16, then the layout panels
/// one by one.
macro_rules! for_passes {
    ($cols:expr, $r:expr, |$j0:ident| $pass:ident($($arg:expr),*)) => {{
        let mut $j0 = 0;
        while $cols == 16 && $j0 + 16 <= $r {
            $pass::<8, true, _>($($arg),*);
            $j0 += 16;
        }
        kpm_num::for_panels!($r, $j0, W => $pass::<W, false, _>($($arg),*));
    }};
}
pub(crate) use for_passes;

/// A row source the blocked sweep can run on.
pub(crate) trait RowSweep: Sync {
    /// One sweep over the rows of `w` (`w.len() / r` rows of width `r`
    /// starting at `row0`): for each row, in order, the accumulator
    /// chain `acc = Σ_c H[row, c] · x[c]` in ascending column order,
    /// pass by pass — at most `COLS` (8 or 16) columns each — handed to
    /// `epi`.
    ///
    /// `ARMS` compiles in the loop that skips products with an
    /// exactly-zero part of the entry ([`Pass::axpy`]) for the rows that
    /// qualify; without it every row runs the four-product loop.
    ///
    /// Implementations are `#[inline(always)]`: [`sweep`] instantiates
    /// the body once per target-feature set, [`sweep_body_for`] with and
    /// without the arms.
    fn sweep_body<E: Epilogue, const COLS: usize, const ARMS: bool>(
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
    fn sweep_body<E: Epilogue, const COLS: usize, const ARMS: bool>(
        &self,
        x: &[Complex64],
        r: usize,
        row0: usize,
        w: &mut [Complex64],
        epi: &mut E,
    ) {
        if r == 1 {
            // One column: the row is a single dependent `mul_add` chain
            // with nothing to hold in a panel, finished on scalars.
            for (i, wrow) in w.iter_mut().enumerate() {
                let row = row0 + i;
                let mut acc = Complex64::default();
                for (hv, &c) in self.row_vals(row).iter().zip(self.row_cols(row)) {
                    acc = hv.mul_add(x[c as usize], acc);
                }
                epi.finish_one(acc, x, row, wrow);
            }
            return;
        }
        for (i, wrow) in w.chunks_mut(r).enumerate() {
            let row = row0 + i;
            let (cols, vals) = (self.row_cols(row), self.row_vals(row));
            let axial = ARMS && all_axial(vals);
            for_passes!(COLS, r, |j0| row_pass(
                cols, vals, axial, x, r, row, j0, wrow, epi
            ));
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

/// One row, given as its CRS `(cols, vals)` pairs, on the block-vector
/// columns of one [`Pass`] from `j0`; `axial` is the row's
/// [`all_axial`].
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the sweep state, passed flat
pub(crate) fn row_pass<const W: usize, const TWO: bool, E: Epilogue>(
    cols: &[u32],
    vals: &[Complex64],
    axial: bool,
    x: &[Complex64],
    r: usize,
    row: usize,
    j0: usize,
    wrow: &mut [Complex64],
    epi: &mut E,
) {
    let mut acc = Pass::<W, TWO>::ZERO;
    let entries = vals.iter().zip(cols);
    if axial {
        for (hv, &c) in entries {
            acc.axpy::<true>(*hv, -hv.im, &x[c as usize * r + j0..]);
        }
    } else {
        for (hv, &c) in entries {
            acc.axpy::<false>(*hv, -hv.im, &x[c as usize * r + j0..]);
        }
    }
    acc.finish(epi, x, row * r + j0, j0, &mut wrow[j0..]);
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
    sweep_body_for::<S, E, 8>(s, x, r, row0, w, epi);
}

/// The AVX-512 copy of a sweep body: two layout panels per pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sweep_avx512<S: RowSweep, E: Epilogue>(
    s: &S,
    x: &[Complex64],
    r: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    sweep_body_for::<S, E, 16>(s, x, r, row0, w, epi);
}

/// `s`'s sweep body for a width-`r` block: with the zero-skip arms from
/// [`AXIAL_MIN_WIDTH`] columns on, without them below — as two
/// instantiations, because one loop shared by both cost the
/// cache-resident R = 2, 4, 8 sweeps 2–3 % (up to 10 % on the stencil at
/// R = 2) for arms they never take.
#[inline(always)]
fn sweep_body_for<S: RowSweep, E: Epilogue, const COLS: usize>(
    s: &S,
    x: &[Complex64],
    r: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    if r >= AXIAL_MIN_WIDTH {
        s.sweep_body::<E, COLS, true>(x, r, row0, w, epi);
    } else {
        s.sweep_body::<E, COLS, false>(x, r, row0, w, epi);
    }
}

/// Runs `s`'s sweep body over the rows of `w` starting at `row0`: the
/// copy the caller's [`Wide`] token names ([`crate::simd::wide`], read
/// once per kernel call) — always the baseline one off x86-64.
#[inline]
fn sweep<S: RowSweep, E: Epilogue>(
    s: &S,
    wide: Wide,
    x: &[Complex64],
    r: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    match wide.body() {
        // SAFETY: a `Wide` token naming `Avx512` is only ever made by
        // `simd::wide` after `is_x86_feature_detected!("avx512f")`
        // returned true, so this CPU executes the instructions the copy
        // was compiled to.
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => unsafe { sweep_avx512(s, x, r, row0, w, epi) },
        // SAFETY: likewise, a token naming `Avx2` exists only after
        // `is_x86_feature_detected!("avx2")` returned true.
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 => unsafe { sweep_avx2(s, x, r, row0, w, epi) },
        _ => sweep_body_for::<S, E, 8>(s, x, r, row0, w, epi),
    }
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
