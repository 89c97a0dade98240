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
//! walked together), the row's entries are re-walked per pass from
//! L1, and an [`Epilogue`] — `y = A x` ([`Plain`]) or the
//! augmented update with or without the fused dots ([`Aug`]) —
//! finishes each panel. Lanes are loaded, combined and stored with no
//! shuffle.
//!
//! A [`RowSweep`] is where a row's entries come from: a lattice
//! operator's site view ([`SiteView`]) — the one sweep of the paper's
//! Eq. 1 lattice, on its coded CRS build and on the stencil alike — a
//! plain CRS's arrays ([`Entries`]), or the rows a stencil with no view
//! regenerates ([`crate::stencil`]). Every CRS and stencil kernel, at
//! every width, is [`run`]: a [`SweepOp`] (which epilogue) under a
//! [`Schedule`] — one range over all rows, or fixed chunks
//! ([`chunk_rows`], whole lattice sites) whose partial dots are combined
//! in chunk order, so results never depend on the thread count. The site
//! view multiplies only the stored entries of its 4×4 site blocks: at
//! width 1 four lattice sites at a time, each site's four rows in eight
//! lanes ([`site_group`]), finished by [`Epilogue::finish_rows`]; wider,
//! site by site on register passes, each slot one factor times one half
//! of a neighbour row's panel ([`site_panels`]). A plain CRS at width 1
//! is the dependent `mul_add` chain of each row's entries
//! ([`entry_chain`]).
//!
//! The body is compiled **three times from the same source**: for the
//! baseline target, under `#[target_feature(enable = "avx2")]` and
//! under `#[target_feature(enable = "avx512f")]` ([`sweep`]) — each time
//! with and without its zero-skip arms ([`sweep_body_for`]);
//! [`crate::simd::wide`] picks per kernel call. The copies differ in
//! what [`Isa`] gives them: the columns of their widest pass — one
//! layout panel for the first two, two panels (four 512-bit
//! accumulators) for the third — and the one primitive the width-1 site
//! walk needs that the auto-vectoriser does not produce, its lane gather.
//! No copy uses a fused multiply-add, and every lane ends up with
//! the bits of the scalar chain of [`Complex64::mul_add`]s — so the
//! copies agree with it and with each other bit for bit. The
//! four-product arm gets there by performing `mul_add`'s IEEE multiplies
//! and adds in its order. From [`AXIAL_MIN_WIDTH`] columns on, a row
//! whose values all have an exactly-zero part (every row of the paper's
//! Eq. 1 lattice, every row of a `real` file) instead runs the arms that
//! leave the products with that zero out, which cannot change a bit
//! because an accumulator that starts at `+0.0` is never `−0`
//! ([`Pass::axpy`] has the argument).

use std::ops::Range;

use kpm_num::block::{load_panel, store_panel};
use kpm_num::summation::{pairwise_sum, pairwise_sum_complex};
use kpm_num::Complex64;
use rayon::prelude::*;

use crate::aug::AugDotsBlock;
use crate::crs::{CrsMatrix, SiteView, Values};
use crate::kernels::{FormatSpec, SparseKernels};
use crate::simd::{Body, Wide};
use crate::tile::{tile_rows_for_budget, DEFAULT_CACHE_BYTES, SITE_ROWS};

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

/// What a sweep does with a row's accumulators `(Hx)[row]`. Each
/// column sees the rows in ascending order.
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

    /// [`Epilogue::finish`] for `L / 2` consecutive rows of a width-1
    /// sweep: `acc` holds their `(Hx)[row]` as `(re, im)` lane pairs —
    /// the layout of `w` itself — and `x[at..]` and `w` are the rows'
    /// entries.
    fn finish_rows<const L: usize>(
        &mut self,
        acc: &[f64; L],
        x: &[Complex64],
        at: usize,
        w: &mut [Complex64],
    );
}

/// The row `k` of [`Epilogue::finish_rows`]'s lanes.
#[inline(always)]
fn lane_pair<const L: usize>(acc: &[f64; L], k: usize) -> Complex64 {
    Complex64::new(acc[2 * k], acc[2 * k + 1])
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
    fn finish_rows<const L: usize>(
        &mut self,
        acc: &[f64; L],
        _: &[Complex64],
        _: usize,
        y: &mut [Complex64],
    ) {
        for (k, y) in y[..L / 2].iter_mut().enumerate() {
            *y = lane_pair(acc, k);
        }
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

    /// Row by row the update and the two dot chains of
    /// [`Epilogue::finish`]'s column 0, the chains held in registers
    /// across the rows rather than stored per row.
    #[inline(always)]
    fn finish_rows<const L: usize>(
        &mut self,
        acc: &[f64; L],
        v: &[Complex64],
        at: usize,
        w: &mut [Complex64],
    ) {
        let (v, w) = (&v[at..at + L / 2], &mut w[..L / 2]);
        for (k, (w, &v)) in w.iter_mut().zip(v).enumerate() {
            *w = self.update(lane_pair(acc, k), v, *w);
        }
        if DOTS {
            let mut even = self.even[0];
            let mut odd = Complex64::new(self.odd_re[0], self.odd_im[0]);
            for (w, &v) in w.iter().zip(v) {
                even += v.norm_sqr();
                odd = w.conj().mul_add(v, odd);
            }
            self.even[0] = even;
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
    /// column `j0`, and `AXIAL` promises that [`is_axial`]`(val)` — the
    /// caller tested the whole row ([`all_axial`]) and runs one loop or
    /// the other.
    ///
    /// The general arm is `mul_add`'s own `re·re − im·im` on the real
    /// lane and `re·im − (−val.im)·x.re` on the imaginary one:
    /// subtracting the exactly negated product is adding `val.im·x.re`.
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
    pub(crate) fn axpy<const AXIAL: bool>(&mut self, val: Complex64, x: &[Complex64]) {
        let neg_im = -val.im;
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

    /// One slot step of the site walk ([`site_panels`]): `re[k] += c.0 ·
    /// x[s + k]` and `im[k] += c.1 · x[W − s + k]` on every panel of the
    /// pass, where `x` are the doubles of the neighbour row a slot's lane
    /// names, from the pass's first column, and `s = W` when `lane` is
    /// odd, 0 otherwise. A real slot entry (even lane) is
    /// [`Pass::axpy`]'s real arm, an imaginary one its imaginary arm.
    #[inline(always)]
    pub(crate) fn slot_axpy(&mut self, c: (f64, f64), lane: usize, x: &[f64]) {
        let x = &x[..2 * Self::COLS];
        let ore = (lane & 1) * W;
        let (xre, xim) = (&x[ore..], &x[W - ore..]);
        for k in 0..W {
            self.re[k] += c.0 * xre[k];
            self.im[k] += c.1 * xim[k];
        }
        if TWO {
            for k in 0..W {
                self.re2[k] += c.0 * xre[2 * W + k];
                self.im2[k] += c.1 * xim[2 * W + k];
            }
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
    /// pass by pass — at most `I::COLS` (8 or 16) columns each — handed
    /// to `epi`.
    ///
    /// `ARMS` compiles in the loop that skips products with an
    /// exactly-zero part of the entry ([`Pass::axpy`]) for the rows that
    /// qualify; without it every row runs the four-product loop.
    ///
    /// Implementations are `#[inline(always)]`: [`sweep`] instantiates
    /// the body once per target-feature set, [`sweep_body_for`] with and
    /// without the arms.
    fn sweep_body<E: Epilogue, I: Isa, const ARMS: bool>(
        &self,
        x: &[Complex64],
        r: usize,
        row0: usize,
        w: &mut [Complex64],
        epi: &mut E,
    );
}

/// The rows of a CRS matrix stored plain: its entries' columns and
/// values.
struct Entries<'a> {
    m: &'a CrsMatrix,
    cols: &'a [u32],
    vals: &'a [Complex64],
}

impl RowSweep for Entries<'_> {
    #[inline(always)]
    fn sweep_body<E: Epilogue, I: Isa, const ARMS: bool>(
        &self,
        x: &[Complex64],
        r: usize,
        row0: usize,
        w: &mut [Complex64],
        epi: &mut E,
    ) {
        match r {
            1 => entry_chain(self, x, row0, w, epi),
            _ => crs_rows::<E, I, ARMS>(self, x, r, row0, w, epi),
        }
    }
}

/// The width-1 entry chain over the rows of `w` from `row0`: each row
/// is one dependent `mul_add` chain over its entries, with nothing to
/// hold in a panel.
#[inline(always)]
fn entry_chain<E: Epilogue>(
    entries: &Entries,
    x: &[Complex64],
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    let Entries {
        m,
        cols: all_cols,
        vals,
    } = *entries;
    for (row, wrow) in (row0..).zip(w) {
        let Range { start, end } = m.row_range(row);
        let mut acc = Complex64::default();
        for (hv, &c) in vals[start..end].iter().zip(&all_cols[start..end]) {
            acc = hv.mul_add(x[c as usize], acc);
        }
        epi.finish_rows(&[acc.re, acc.im], x, row, std::slice::from_mut(wrow));
    }
}

/// The one lattice sweep: a lattice operator's site view, the CRS
/// build's and the stencil's alike, over the rows of `w` from `row0` —
/// whole lattice sites, as every sweep range is ([`chunk_rows`]). Width
/// 1 walks four sites at a time and the last few one by one
/// ([`site_group`]); wider blocks walk site by site ([`site_panels`]):
/// two of the copy's widest passes side by side while their columns
/// remain, then the widest pass and the layout panels one by one.
impl RowSweep for SiteView {
    #[inline(always)]
    fn sweep_body<E: Epilogue, I: Isa, const ARMS: bool>(
        &self,
        x: &[Complex64],
        r: usize,
        row0: usize,
        w: &mut [Complex64],
        epi: &mut E,
    ) {
        let rows = w.len() / r;
        debug_assert!(
            row0.is_multiple_of(SITE_ROWS) && rows.is_multiple_of(SITE_ROWS),
            "a sweep range cuts a site"
        );
        let (s0, s1) = (row0 / 4, (row0 + rows) / 4);
        if r == 1 {
            let mut site = s0;
            while site + 4 <= s1 {
                site_group::<32, E, I>(self, x, site, row0, w, epi);
                site += 4;
            }
            while site < s1 {
                site_group::<8, E, I>(self, x, site, row0, w, epi);
                site += 1;
            }
            return;
        }
        for (site, wsite) in (s0..s1).zip(w.chunks_exact_mut(4 * r)) {
            let mut j0 = 0;
            while j0 + 2 * I::COLS <= r {
                match I::COLS {
                    16 => site_panels::<8, true, 2, E>(self, site, x, r, j0, wsite, epi),
                    _ => site_panels::<8, false, 2, E>(self, site, x, r, j0, wsite, epi),
                }
                j0 += 2 * I::COLS;
            }
            if I::COLS == 16 && j0 + 16 <= r {
                site_panels::<8, true, 1, E>(self, site, x, r, j0, wsite, epi);
                j0 += 16;
            }
            kpm_num::for_panels!(r, j0, W => site_panels::<W, false, 1, E>(
                self, site, x, r, j0, wsite, epi
            ));
        }
    }
}

/// `L / 8` consecutive lattice sites from `site` on the site view, each
/// site's four rows in eight accumulator lanes: per block in the sites'
/// code lists, the neighbour's four `x` entries (64 contiguous bytes)
/// and, per slot of the block ([`Slot`](crate::crs::Slot)), `acc +=
/// gather(x, slot.lane) · slot.coef` on every lane, the gather being the
/// copy's [`Isa::gather`] — the sites' blocks interleaved, so `L / 8`
/// independent accumulator chains are in flight — then
/// [`Epilogue::finish_rows`] on the rows in order.
///
/// A row's stored entries are added in ascending column order, as the
/// entry chain adds them, and each with the bits of the chain's
/// [`Complex64::mul_add`] by the argument of [`Pass::axpy`]'s zero-skip
/// arms: a real entry `v` adds `x.re·v` and `x.im·v`, an imaginary one
/// `i·u` adds `x.im·(−u)` and `x.re·u`, and the partner products the
/// chain also forms multiply an exact zero. Such a product is `±0`, as is
/// a zero factor's — a row with fewer entries than its block's slots —
/// and an accumulator that starts at `+0.0` is never `−0`, so adding it
/// leaves the accumulator as it was. Only a non-finite `x` would tell the
/// walk from the chain, and the solver's divergence guardrail stops a
/// run long before one.
#[inline(always)]
fn site_group<const L: usize, E: Epilogue, I: Isa>(
    sites: &SiteView,
    x: &[Complex64],
    site: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    let stride = sites.stride;
    let codes = &sites.codes[site * stride..][..L / 8 * stride];
    let mut acc = [0.0; L];
    for k in 0..stride {
        for s in 0..L / 8 {
            let block = &sites.blocks[codes[s * stride + k] as usize];
            let xs = &x[(4 * (site + s)).wrapping_add_signed(block.offset)..][..4];
            for slot in &block.slots[..block.len] {
                let lanes = I::gather(xs, &slot.lane);
                for l in 0..8 {
                    acc[8 * s + l] += lanes[l] * slot.coef[l];
                }
            }
        }
    }
    let at = 4 * site;
    epi.finish_rows(&acc, x, at, &mut w[at - row0..]);
}

/// The four rows of `site` on `SPAN` compute passes side by side from
/// column `j0` (`wsite` their rows of `w`): the width-`r` form of
/// [`site_group`], with no lane gather. Four accumulators are in flight
/// — four rows on one pass, or two rows on two, which decode each slot
/// once for twice the columns — and each block of the site is read once
/// for them. For row `o` and a slot, lane `2o` names the neighbour's row
/// (`lane >> 1`) and, by its parity, the half of that row's split
/// `[re; W][im; W]` panels the real accumulators read; the imaginary
/// ones read the other half. So a slot step is one factor times one
/// contiguous half on each accumulator set ([`Pass::slot_axpy`]), the
/// products and their order those of [`site_group`], and so are the
/// bits. (Trial of the loop orders: EXPERIMENTS.md, "One lattice sweep:
/// the site view at every width".)
#[inline(always)]
fn site_panels<const W: usize, const TWO: bool, const SPAN: usize, E: Epilogue>(
    sites: &SiteView,
    site: usize,
    x: &[Complex64],
    r: usize,
    j0: usize,
    wsite: &mut [Complex64],
    epi: &mut E,
) {
    let cols = Pass::<W, TWO>::COLS;
    let codes = &sites.codes[site * sites.stride..][..sites.stride];
    let xd = doubles(x);
    let len = 2 * SPAN * cols;
    for o in (0..4).step_by(4 / SPAN) {
        let [mut a0, mut a1, mut a2, mut a3] = [Pass::<W, TWO>::ZERO; 4];
        for &code in codes {
            let block = &sites.blocks[code as usize];
            let base = (4 * site).wrapping_add_signed(block.offset);
            let xs = &xd[2 * (base * r + j0)..];
            for slot in &block.slots[..block.len] {
                if SPAN == 1 {
                    let (lane, c) = slot.row(o);
                    a0.slot_axpy(c, lane, lane_row(xs, lane, r, len));
                    let (lane, c) = slot.row(o + 1);
                    a1.slot_axpy(c, lane, lane_row(xs, lane, r, len));
                    let (lane, c) = slot.row(o + 2);
                    a2.slot_axpy(c, lane, lane_row(xs, lane, r, len));
                    let (lane, c) = slot.row(o + 3);
                    a3.slot_axpy(c, lane, lane_row(xs, lane, r, len));
                } else {
                    let (lane, c) = slot.row(o);
                    let x = lane_row(xs, lane, r, len);
                    a0.slot_axpy(c, lane, x);
                    a1.slot_axpy(c, lane, &x[2 * cols..]);
                    let (lane, c) = slot.row(o + 1);
                    let x = lane_row(xs, lane, r, len);
                    a2.slot_axpy(c, lane, x);
                    a3.slot_axpy(c, lane, &x[2 * cols..]);
                }
            }
        }
        // Accumulator `k` holds row `o + k / SPAN` from column `col(k)`,
        // which is at `at(k)` in the site's rows.
        let col = |k: usize| j0 + k % SPAN * cols;
        let at = |k: usize| (o + k / SPAN) * r + col(k);
        let row0 = 4 * site * r;
        a0.finish(epi, x, row0 + at(0), col(0), &mut wsite[at(0)..]);
        a1.finish(epi, x, row0 + at(1), col(1), &mut wsite[at(1)..]);
        a2.finish(epi, x, row0 + at(2), col(2), &mut wsite[at(2)..]);
        a3.finish(epi, x, row0 + at(3), col(3), &mut wsite[at(3)..]);
    }
}

/// The `len` doubles of the neighbour row a slot's `lane` names, from
/// `xs`, those of the neighbour's first row in a width-`r` block.
#[inline(always)]
fn lane_row(xs: &[f64], lane: usize, r: usize, len: usize) -> &[f64] {
    &xs[2 * (lane >> 1) * r..][..len]
}

/// `x` as its `2 · x.len()` doubles, `(re, im)` per entry.
#[inline(always)]
fn doubles(x: &[Complex64]) -> &[f64] {
    // SAFETY: `Complex64` is `repr(C)` over two `f64`s, so `x` is
    // `2 · x.len()` `f64`s in order, aligned as `f64`, borrowed for as
    // long as `x` is.
    unsafe { std::slice::from_raw_parts(x.as_ptr().cast::<f64>(), 2 * x.len()) }
}

/// The CRS row loop of [`RowSweep::sweep_body`] at widths beyond 1,
/// on a plain matrix's entries.
#[inline(always)]
fn crs_rows<E: Epilogue, I: Isa, const ARMS: bool>(
    entries: &Entries,
    x: &[Complex64],
    r: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    let Entries {
        m,
        cols: all_cols,
        vals,
    } = *entries;
    for (row, wrow) in (row0..).zip(w.chunks_mut(r)) {
        let Range { start, end } = m.row_range(row);
        let (cols, vals) = (&all_cols[start..end], &vals[start..end]);
        let axial = ARMS && all_axial(vals);
        for_passes!(I::COLS, r, |j0| row_pass(
            cols, vals, axial, x, r, row, j0, wrow, epi
        ));
    }
}

/// A CRS matrix's sweep at the per-thread cache budget `cache_bytes`:
/// its site view when it has one, its entries otherwise.
pub(crate) fn run_crs(
    m: &CrsMatrix,
    op: SweepOp,
    schedule: Schedule,
    cache_bytes: usize,
    x: &[Complex64],
    r: usize,
    w: &mut [Complex64],
) -> AugDotsBlock {
    match m.values() {
        Values::Lattice(_, sites) => run(sites, op, schedule, cache_bytes, x, r, w),
        Values::Plain { cols, vals } => {
            let entries = Entries { m, cols, vals };
            run(&entries, op, schedule, cache_bytes, x, r, w)
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
    fn matrix_bytes(&self) -> usize {
        CrsMatrix::matrix_bytes(self)
    }
    fn sweep(
        &self,
        op: SweepOp,
        schedule: Schedule,
        x: &[Complex64],
        r: usize,
        w: &mut [Complex64],
    ) -> AugDotsBlock {
        run_crs(self, op, schedule, DEFAULT_CACHE_BYTES, x, r, w)
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
        for (&hv, &c) in entries {
            acc.axpy::<true>(hv, &x[c as usize * r + j0..]);
        }
    } else {
        for (&hv, &c) in entries {
            acc.axpy::<false>(hv, &x[c as usize * r + j0..]);
        }
    }
    acc.finish(epi, x, row * r + j0, j0, &mut wrow[j0..]);
}

/// What differs between the three compiled copies of the sweep body
/// ([`sweep`]): the columns of the widest compute pass, and the lane
/// gather of the width-1 site walk ([`site_group`]). The types that
/// implement it are private to this module and each is named by one
/// copy only — what makes the AVX2 and AVX-512 gathers' `unsafe` sound.
pub(crate) trait Isa {
    /// Columns of the widest pass: two layout panels under AVX-512, one
    /// otherwise.
    const COLS: usize;

    /// The eight lanes of a [`Slot`](crate::crs::Slot): lane `l` is lane
    /// `lane[l]` of `xs`, a neighbour's four `x` entries read as eight
    /// `f64`s. Written as indexing into a copy of those lanes, the copy
    /// goes through the stack and each lane is reloaded from it, so each
    /// compiled copy has its own gather (DESIGN.md §16).
    fn gather(xs: &[Complex64], lane: &[u64; 8]) -> [f64; 8];
}

/// The baseline copy: each lane one scalar load from `xs` in place,
/// through the eight `f64`s of its four entries.
struct BaselineIsa;

impl Isa for BaselineIsa {
    const COLS: usize = 8;

    #[inline(always)]
    fn gather(xs: &[Complex64], lane: &[u64; 8]) -> [f64; 8] {
        let xs = &xs[..4];
        let mut out = [0.0; 8];
        // SAFETY: `xs` holds four `Complex64`s (sliced above), each
        // `repr(C)` over two `f64`s: eight `f64`s in lane order, aligned
        // as `f64`, borrowed for as long as `xs` is.
        let lanes = unsafe { &*xs.as_ptr().cast::<[f64; 8]>() };
        for (out, &l) in out.iter_mut().zip(lane) {
            *out = lanes[l as usize & 7];
        }
        out
    }
}

/// The AVX2 copy: per two rows, their entries of `xs` as two 16-byte
/// loads into one register and `vpermilpd` on the lanes' low index bits.
#[cfg(target_arch = "x86_64")]
struct Avx2Isa;

#[cfg(target_arch = "x86_64")]
impl Isa for Avx2Isa {
    const COLS: usize = 8;

    #[inline(always)]
    fn gather(xs: &[Complex64], lane: &[u64; 8]) -> [f64; 8] {
        use std::arch::x86_64::*;
        let xs = &xs[..4];
        let mut out = [0.0; 8];
        for (half, out) in out.chunks_exact_mut(4).enumerate() {
            let lane = &lane[4 * half..][..4];
            let (lo, hi) = (
                &xs[(lane[0] >> 1) as usize & 3],
                &xs[(lane[2] >> 1) as usize & 3],
            );
            // SAFETY: `Avx2Isa` is named only by `sweep_avx2`, which
            // `sweep` enters only with a `Wide` token naming `Body::Avx2`
            // — made by `simd::wide` after `is_x86_feature_detected!("avx2")`
            // — so the CPU executes these instructions. `lo` and `hi` are
            // 16-byte `Complex64`s, `lane` and `out` four 8-byte lanes.
            unsafe {
                let pair = _mm256_loadu2_m128d(&hi.re, &lo.re);
                let index = _mm256_loadu_si256(lane.as_ptr().cast());
                // `vpermilpd` selects by bit 1 of each index.
                let picked = _mm256_permutevar_pd(pair, _mm256_slli_epi64::<1>(index));
                _mm256_storeu_pd(out.as_mut_ptr(), picked);
            }
        }
        out
    }
}

/// The AVX-512 copy: one `vpermpd` of the neighbour's 64 bytes.
#[cfg(target_arch = "x86_64")]
struct Avx512Isa;

#[cfg(target_arch = "x86_64")]
impl Isa for Avx512Isa {
    const COLS: usize = 16;

    #[inline(always)]
    fn gather(xs: &[Complex64], lane: &[u64; 8]) -> [f64; 8] {
        use std::arch::x86_64::*;
        let xs = &xs[..4];
        let mut out = [0.0; 8];
        // SAFETY: `Avx512Isa` is named only by `sweep_avx512`, which
        // `sweep` enters only with a `Wide` token naming `Body::Avx512` —
        // made by `simd::wide` after `is_x86_feature_detected!("avx512f")`
        // — so the CPU executes these instructions. `xs` is four 16-byte
        // `Complex64`s, `lane` and `out` eight 8-byte lanes: 64 bytes each.
        unsafe {
            let x = _mm512_loadu_pd(xs.as_ptr().cast());
            let index = _mm512_loadu_si512(lane.as_ptr().cast());
            _mm512_storeu_pd(out.as_mut_ptr(), _mm512_permutexvar_pd(index, x));
        }
        out
    }
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
    sweep_body_for::<S, E, Avx2Isa>(s, x, r, row0, w, epi);
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
    sweep_body_for::<S, E, Avx512Isa>(s, x, r, row0, w, epi);
}

/// `s`'s sweep body for a width-`r` block: with the zero-skip arms from
/// [`AXIAL_MIN_WIDTH`] columns on, without them below — as two
/// instantiations, because one loop shared by both cost the
/// cache-resident R = 2, 4, 8 sweeps 2–3 % (up to 10 % on the stencil at
/// R = 2) for arms they never take.
#[inline(always)]
fn sweep_body_for<S: RowSweep, E: Epilogue, I: Isa>(
    s: &S,
    x: &[Complex64],
    r: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    if r >= AXIAL_MIN_WIDTH {
        s.sweep_body::<E, I, true>(x, r, row0, w, epi);
    } else {
        s.sweep_body::<E, I, false>(x, r, row0, w, epi);
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
        _ => sweep_body_for::<S, E, BaselineIsa>(s, x, r, row0, w, epi),
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
        coo.to_crs().unwrap()
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
            let a = coo.to_crs().unwrap();
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
