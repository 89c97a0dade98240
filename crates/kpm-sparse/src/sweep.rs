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
//! A [`RowSweep`] is where a row's entries come from: a coded CRS's site
//! view ([`SiteView`]) — the one sweep of the paper's Eq. 1 lattice —
//! or a plain CRS's arrays ([`Entries`]).
//! Every kernel, at every width, is [`run`]: a
//! [`SweepOp`] (which epilogue) under a [`Schedule`] — one range over
//! all rows, or fixed chunks
//! ([`chunk_rows`], whole lattice sites) whose partial dots are combined
//! in chunk order, so results never depend on the thread count. The site
//! view multiplies only the stored entries of its 4×4 site blocks. A
//! panel narrower than 8 columns — a whole block of 1, 2 or 4, or the
//! tail beside wider passes — takes the lane walk ([`lane_walk`]):
//! several lattice sites at a time, each site's four rows as eight units
//! of `U` lanes, each slot decoded once for all four rows and applied as
//! one gather of the neighbour's units ([`Isa::unit_steps`]; at width 1
//! both slots of every block, so a visit reads no slot count; at 2 and 4
//! lanes the AVX-512 copy reads each block's slots as decoded once per
//! view, [`PairSlot`](crate::crs::PairSlot), so a visit builds nothing
//! that depends on the block alone), finished by
//! [`Epilogue::finish_sites`] — on a whole block the products of the
//! fused dots of all the group's rows first, then only the chains' adds
//! in row order, so the products no longer wait behind the adds (same
//! bits: the same operations in the same order). An 8-column panel walks site
//! by site on register passes, each slot one factor times one half of a
//! neighbour row's panel ([`site_panels`]). A plain CRS at width 1 is
//! the dependent `mul_add` chain of each row's entries ([`entry_chain`]).
//!
//! The body is compiled **three times from the same source**: for the
//! baseline target, under `#[target_feature(enable = "avx2")]` and
//! under `#[target_feature(enable = "avx512f")]` ([`sweep`]) — each time
//! with and without its zero-skip arms, where the row source has them
//! ([`sweep_body_for`]);
//! [`crate::simd::wide`] picks per kernel call. The copies differ in
//! what [`Isa`] gives them: the columns of their widest pass — one
//! layout panel for the first two, two panels (four 512-bit
//! accumulators) for the third — and the one primitive the lane walk
//! needs that the auto-vectoriser does not produce well, its unit step.
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

use crate::aug::AugDotsBlock;
use crate::crs::{CrsMatrix, SiteView, Values, MAX_SLOTS};
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
trait Epilogue {
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

    /// [`Epilogue::finish`] for the `U`-column panel from column `j0` of
    /// the `4·S` rows of `S` consecutive lattice sites in a width-`r`
    /// block, row by row: `acc[s][2o]` and `acc[s][2o + 1]` are the `re`
    /// and `im` lanes of row `4s + o`, `x[at..]` the slots of the first
    /// row and `w` those of its row of `w`, each from column 0.
    #[inline(always)]
    fn finish_sites<const U: usize, const S: usize>(
        &mut self,
        acc: &[[[f64; U]; 8]; S],
        x: &[Complex64],
        at: usize,
        r: usize,
        j0: usize,
        w: &mut [Complex64],
    ) {
        let rows = acc.iter().flat_map(|site| site.chunks_exact(2));
        for (k, lanes) in (0..).zip(rows) {
            let off = k * r + j0;
            self.finish(&lanes[0], &lanes[1], x, at + off, j0, &mut w[off..]);
        }
    }
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

    /// [`Epilogue::finish_sites`] on `U`-column panels: per row the
    /// update and, when `DOTS`, the two dot chains of each column.
    #[inline(always)]
    fn finish_panels<const U: usize, const S: usize>(
        &mut self,
        acc: &[[[f64; U]; 8]; S],
        v: &[Complex64],
        at: usize,
        r: usize,
        j0: usize,
        w: &mut [Complex64],
    ) {
        let (mut even, mut odd_re, mut odd_im) = ([0.0; U], [0.0; U], [0.0; U]);
        if DOTS {
            even.copy_from_slice(&self.even[j0..][..U]);
            odd_re.copy_from_slice(&self.odd_re[j0..][..U]);
            odd_im.copy_from_slice(&self.odd_im[j0..][..U]);
        }
        let lanes = acc.as_flattened();
        let (v, w) = (&v[at..][..4 * S * r], &mut w[..4 * S * r]);
        for k in 0..4 * S {
            let off = k * r + j0;
            let (vre, vim) = load_panel::<U>(&v[off..]);
            let (mut wre, mut wim) = load_panel::<U>(&w[off..]);
            for i in 0..U {
                let v = Complex64::new(vre[i], vim[i]);
                let acc = Complex64::new(lanes[2 * k][i], lanes[2 * k + 1][i]);
                let wi = self.update(acc, v, Complex64::new(wre[i], wim[i]));
                (wre[i], wim[i]) = (wi.re, wi.im);
                if DOTS {
                    even[i] += v.norm_sqr();
                    let odd = wi.conj().mul_add(v, Complex64::new(odd_re[i], odd_im[i]));
                    (odd_re[i], odd_im[i]) = (odd.re, odd.im);
                }
            }
            store_panel(&wre, &wim, &mut w[off..]);
        }
        if DOTS {
            self.even[j0..][..U].copy_from_slice(&even);
            self.odd_re[j0..][..U].copy_from_slice(&odd_re);
            self.odd_im[j0..][..U].copy_from_slice(&odd_im);
        }
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

    /// [`Epilogue::finish`] on the group's rows, the dot chains held in
    /// registers across them rather than stored per row (per row, R = 2
    /// ran ×1.2). A width-1 block's lanes are `(re, im)` pairs, the
    /// layout of `v` and `w`: the update runs on all its rows, then every
    /// row's products — `|v|²` and `conj(w)·v` — with nothing chaining
    /// them, so every compiled copy computes them in SIMD, then the
    /// three chains' adds alone, in row order. The bits are those of the
    /// per-row chain: each product and each difference or sum of two is
    /// the IEEE operation [`Complex64::norm_sqr`] or
    /// [`Complex64::mul_add`] performs on the same operands, and each
    /// chain adds the same addends in the same order (`ore += p` is
    /// `mul_add`'s `p + ore`: IEEE addition commutes). Only when the
    /// products are computed moves: inside the chains they queued behind
    /// the dependent adds, and the fused dots cost the width-1 sweep
    /// +77–80 % instead of +37–39 % (EXPERIMENTS.md, "Width-1 dots off
    /// the chains"). A whole 2-column block takes the same form on its
    /// panels ([`Aug::finish_whole`]); a 4-column one and a panel of a
    /// wider block the per-row one ([`Aug::finish_panels`]).
    #[inline(always)]
    fn finish_sites<const U: usize, const S: usize>(
        &mut self,
        acc: &[[[f64; U]; 8]; S],
        v: &[Complex64],
        at: usize,
        r: usize,
        j0: usize,
        w: &mut [Complex64],
    ) {
        if U == 2 && r == 2 {
            return self.finish_whole(acc, v, at, w);
        }
        if U != 1 || r != 1 {
            return self.finish_panels(acc, v, at, r, j0, w);
        }
        let lanes = acc.as_flattened().as_flattened();
        let (v, w) = (&v[at..at + 4 * S], &mut w[..4 * S]);
        for (k, (w, &v)) in w.iter_mut().zip(v).enumerate() {
            *w = self.update(Complex64::new(lanes[2 * k], lanes[2 * k + 1]), v, *w);
        }
        if DOTS {
            // The products of every row first, none waiting on another:
            // lane by lane on the rows' doubles (at most four sites, 32
            // lanes), then each row's sums of two in a pass of their own
            // ... (Written into `[[f64; 8]; S]`, or summed inside the
            // chain loop, the products stayed scalar.)
            let (vd, wd) = (doubles(v), doubles(w));
            let [mut vv, mut cv, mut cx] = [[0.0; 32]; 3];
            for i in (0..8 * S).step_by(2) {
                let (vre, vim, cre, cim) = (vd[i], vd[i + 1], wd[i], -wd[i + 1]);
                (vv[i], vv[i + 1]) = (vre * vre, vim * vim);
                (cv[i], cv[i + 1]) = (cre * vre, cim * vim);
                (cx[i], cx[i + 1]) = (cre * vim, cim * vre);
            }
            let (mut n2, mut p) = ([0.0; 16], [0.0; 32]);
            for i in (0..8 * S).step_by(2) {
                n2[i / 2] = vv[i] + vv[i + 1];
                (p[i], p[i + 1]) = (cv[i] - cv[i + 1], cx[i] + cx[i + 1]);
            }
            // ... then only the three chains' adds, in row order.
            let (mut even, mut ore, mut oim) = (self.even[0], self.odd_re[0], self.odd_im[0]);
            for k in 0..4 * S {
                even += n2[k];
                ore += p[2 * k];
                oim += p[2 * k + 1];
            }
            self.even[0] = even;
            (self.odd_re[0], self.odd_im[0]) = (ore, oim);
        }
    }
}

impl<const DOTS: bool> Aug<DOTS> {
    /// [`Epilogue::finish_sites`] on a whole block of `U` columns (`r ==
    /// U`, taken at `U` = 2): the group's rows of `v` and `w` are then
    /// `8·S·U` contiguous doubles laid out as `acc`, `[re; U][im; U]` per
    /// row, and the update, the same on both parts, runs on them as
    /// slots. Then every row's products of the dots, with nothing
    /// chaining them, then the chains' adds alone in row order — the
    /// width-1 form and its argument, so the bits of
    /// [`Aug::finish_panels`]. At R = 2 the fused dots cost +33 % over
    /// the sweep without them where the per-row form cost +58 % (6×6×6,
    /// one thread); at `U` = 4 the compiler vectorised the products
    /// across rows with gathers, and the sweep ran ×1.2–1.3 slower
    /// (EXPERIMENTS.md, "Narrow panels at width 1's price").
    #[inline(always)]
    fn finish_whole<const U: usize, const S: usize>(
        &mut self,
        acc: &[[[f64; U]; 8]; S],
        v: &[Complex64],
        at: usize,
        w: &mut [Complex64],
    ) {
        let lanes = acc.as_flattened().as_flattened();
        let (v, w) = (&v[at..at + 4 * S * U], &mut w[..4 * S * U]);
        for (k, (w, &v)) in w.iter_mut().zip(v).enumerate() {
            *w = self.update(Complex64::new(lanes[2 * k], lanes[2 * k + 1]), v, *w);
        }
        if !DOTS {
            return;
        }
        let (vd, wd) = (doubles(v), doubles(w));
        let [mut n2, mut pre, mut pim] = [[[0.0; U]; 16]; 3];
        for k in 0..4 * S {
            let (v, w) = (&vd[2 * k * U..][..2 * U], &wd[2 * k * U..][..2 * U]);
            for j in 0..U {
                let (vre, vim, cre, cim) = (v[j], v[U + j], w[j], -w[U + j]);
                n2[k][j] = vre * vre + vim * vim;
                pre[k][j] = cre * vre - cim * vim;
                pim[k][j] = cre * vim + cim * vre;
            }
        }
        let (mut even, mut ore, mut oim) = ([0.0; U], [0.0; U], [0.0; U]);
        even.copy_from_slice(&self.even[..U]);
        ore.copy_from_slice(&self.odd_re[..U]);
        oim.copy_from_slice(&self.odd_im[..U]);
        for k in 0..4 * S {
            for j in 0..U {
                even[j] += n2[k][j];
                ore[j] += pre[k][j];
                oim[j] += pim[k][j];
            }
        }
        self.even[..U].copy_from_slice(&even);
        self.odd_re[..U].copy_from_slice(&ore);
        self.odd_im[..U].copy_from_slice(&oim);
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
fn all_axial(vals: &[Complex64]) -> bool {
    vals.iter().fold(true, |all, &val| all & is_axial(val))
}

/// The register accumulators of one compute pass over a row: the
/// `W`-column layout panel at `j0` of `(Hx)[row]` as `re`/`im` lanes
/// and, when `TWO`, the next panel beside it. Four named arrays, not an
/// array of panels: a loop over sub-panels gets vectorised across the
/// wrong axis.
struct Pass<const W: usize, const TWO: bool> {
    re: [f64; W],
    im: [f64; W],
    re2: [f64; W],
    im2: [f64; W],
}

impl<const W: usize, const TWO: bool> Pass<W, TWO> {
    /// Block-vector columns the pass covers.
    const COLS: usize = if TWO { 2 * W } else { W };

    const ZERO: Self = Self {
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
    fn axpy<const AXIAL: bool>(&mut self, val: Complex64, x: &[Complex64]) {
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
    fn slot_axpy(&mut self, c: (f64, f64), lane: usize, x: &[f64]) {
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
    fn finish<E: Epilogue>(
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

/// A row source the blocked sweep can run on.
trait RowSweep: Sync {
    /// Whether the body reads `ARMS`. A row source whose sweep has no
    /// zero-skip arms says no, and is compiled once per copy and
    /// epilogue instead of twice.
    const READS_ARMS: bool = true;

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
    /// without the arms when [`RowSweep::READS_ARMS`].
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
        epi.finish(&[acc.re], &[acc.im], x, row, 0, std::slice::from_mut(wrow));
    }
}

/// The one lattice sweep: a coded CRS's site view, over the rows of `w`
/// from `row0` —
/// whole lattice sites, as every sweep range is ([`chunk_rows`]). The
/// block's 8-column panels walk site by site on register passes
/// ([`site_panels`]): two of the copy's widest passes side by side while
/// their columns remain, then the widest pass and the 8-column one. The
/// panels narrower than 8 columns — a whole block of 1, 2 or 4, or the
/// 4-, 2- and 1-column tail beside the 8-column panels — each take the
/// lane walk ([`lane_walk`]).
impl RowSweep for SiteView {
    // Its slots hold one factor per lane: nothing to skip.
    const READS_ARMS: bool = false;

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
            // The width a constant: with it a variable, the rows' offsets
            // cost the width-1 sweep ×1.15.
            return lane_walk::<1, 4, E, I>(self, x, 1, 0, s0..s1, row0, w, epi);
        }
        let wide = r / 8 * 8;
        let one_width = wide == r || r.is_power_of_two();
        let step = if one_width { s1 - s0 } else { SITE_GROUP };
        let mut g0 = s0;
        while g0 < s1 {
            let g1 = (g0 + step).min(s1);
            let wsites = &mut w[4 * (g0 - s0) * r..4 * (g1 - s0) * r];
            for (site, wsite) in (g0..g1).zip(wsites.chunks_exact_mut(4 * r)) {
                let mut j0 = 0;
                while j0 + 2 * I::COLS <= wide {
                    match I::COLS {
                        16 => site_panels::<true, 2, E>(self, site, x, r, j0, wsite, epi),
                        _ => site_panels::<false, 2, E>(self, site, x, r, j0, wsite, epi),
                    }
                    j0 += 2 * I::COLS;
                }
                if I::COLS == 16 && j0 + 16 <= wide {
                    site_panels::<true, 1, E>(self, site, x, r, j0, wsite, epi);
                    j0 += 16;
                }
                if j0 < wide {
                    site_panels::<false, 1, E>(self, site, x, r, j0, wsite, epi);
                }
            }
            let mut j0 = wide;
            if j0 + 4 <= r {
                match I::sites(4, r == 4) {
                    2 => lane_walk::<4, 2, E, I>(self, x, r, j0, g0..g1, row0, w, epi),
                    _ => lane_walk::<4, 1, E, I>(self, x, r, j0, g0..g1, row0, w, epi),
                }
                j0 += 4;
            }
            if j0 + 2 <= r {
                match I::sites(2, r == 2) {
                    4 => lane_walk::<2, 4, E, I>(self, x, r, j0, g0..g1, row0, w, epi),
                    _ => lane_walk::<2, 1, E, I>(self, x, r, j0, g0..g1, row0, w, epi),
                }
                j0 += 2;
            }
            if j0 < r {
                match I::sites(1, false) {
                    4 => lane_walk::<1, 4, E, I>(self, x, r, j0, g0..g1, row0, w, epi),
                    _ => lane_walk::<1, 1, E, I>(self, x, r, j0, g0..g1, row0, w, epi),
                }
            }
            g0 = g1;
        }
    }
}

/// Sites a block of more than one panel width walks at a time, all its
/// panels before the next group, so that the neighbours' rows are read
/// from L1 for every panel of a site: a multiple of every [`Isa::sites`].
/// A block of one panel width walks its range in one group: in groups of
/// four, the baseline copy's R = 8 and 32 sweeps ran ×1.05 and the
/// AVX-512 copy's R = 4 on 48×48×24 ×1.2.
const SITE_GROUP: usize = 4;

/// The `U`-column panel from column `j0` of the lattice sites `sites`:
/// `S` sites at a time ([`lane_group`]), the last few one by one.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the sweep state, passed flat
fn lane_walk<const U: usize, const S: usize, E: Epilogue, I: Isa>(
    view: &SiteView,
    x: &[Complex64],
    r: usize,
    j0: usize,
    sites: Range<usize>,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    let mut site = sites.start;
    while site + S <= sites.end {
        lane_group::<U, S, E, I>(view, x, r, j0, site, row0, w, epi);
        site += S;
    }
    while site < sites.end {
        lane_group::<U, 1, E, I>(view, x, r, j0, site, row0, w, epi);
        site += 1;
    }
}

/// `S` consecutive lattice sites from `site` on the `U`-column panel from
/// column `j0` of a width-`r` block: each site's four rows as eight units
/// of `U` lanes — unit `l` is row `l / 2`'s real part when `l` is even,
/// its imaginary part when odd, the layout of the panel in `w` — and per
/// block in the sites' code lists, the neighbour's four rows as eight
/// such units ([`Units`]) and, per slot of the block
/// ([`Slot`](crate::crs::Slot)), `acc[l] += unit[slot.lane[l]] ·
/// slot.coef[l]` on every unit, the copy's [`Isa::unit_steps`]. The
/// sites' blocks are interleaved, so `S` independent accumulator chains
/// are in flight, and each slot is read once for all four rows of a
/// site; then [`Epilogue::finish_sites`] on the rows in order. At width 1
/// a unit is one lane and the neighbour's four rows are its four `x`
/// entries, 64 contiguous bytes.
///
/// A visit's decode is kept short: the sites' code lists are sliced once
/// per group, a `u8` code indexes the 256-block table with no check, the
/// neighbour's rows are one checked index into `x` taken as whole sites
/// (in a wider block, one slice of exactly the rows' span), and at width
/// 1 both slots of every block are stepped, so no slot count is read;
/// other widths step the block's `len` slots (EXPERIMENTS.md, "A lean
/// lane walk", counts what is left of a visit).
///
/// A row's stored entries are added in ascending column order, as the
/// entry chain adds them, and each with the bits of the chain's
/// [`Complex64::mul_add`] by the argument of [`Pass::axpy`]'s zero-skip
/// arms: a real entry `v` adds `x.re·v` and `x.im·v`, an imaginary one
/// `i·u` adds `x.im·(−u)` and `x.re·u`, and the partner products the
/// chain also forms multiply an exact zero. Such a product is `±0`, as is
/// a zero factor's — a row with fewer entries than its block's slots, or
/// a slot from `len` on — and an accumulator that starts at `+0.0` is
/// never `−0`, so adding it leaves the accumulator as it was. Only a
/// non-finite `x` would tell the walk from the chain, and the solver's
/// divergence guardrail stops a run long before one. The products and their order are those of
/// [`site_panels`] too, so every panel width gives the same bits.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the sweep state, passed flat
fn lane_group<const U: usize, const S: usize, E: Epilogue, I: Isa>(
    view: &SiteView,
    x: &[Complex64],
    r: usize,
    j0: usize,
    site: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    let stride = view.stride;
    let lists: [&[u8]; S] = std::array::from_fn(|s| &view.codes[(site + s) * stride..][..stride]);
    let xd = doubles(x);
    // In a block of width `U`, each site's four rows as one array.
    let xsites = xd.as_chunks::<U>().0.as_chunks::<8>().0;
    let mut acc = [[[0.0; U]; 8]; S];
    for k in 0..stride {
        let codes = lists.map(|list| list[k]);
        for (s, (acc, code)) in acc.iter_mut().zip(codes).enumerate() {
            let block = &view.blocks[code as usize];
            let neighbour = (site + s).wrapping_add_signed(block.neighbour);
            let len = if U == 1 { MAX_SLOTS } else { block.len };
            if r == U {
                I::unit_steps(acc, &xsites[neighbour], view, code, len);
            } else {
                let xd = &xd[2 * (4 * neighbour * r + j0)..][..6 * r + 2 * U];
                I::unit_steps(acc, Strided::new(xd, 2 * r), view, code, len);
            }
        }
    }
    for acc in &mut acc {
        I::unit_order(acc);
    }
    let at = 4 * site * r;
    epi.finish_sites(&acc, x, at, r, j0, &mut w[at - row0 * r..]);
}

/// A neighbour's four rows on a `U`-column panel as the lane walk reads
/// them: eight units of `U` lanes, unit `q` part `q % 2` of row `q / 2`.
/// The rows of a block of width `U` are `8·U` contiguous doubles, an
/// array of the eight units; those of a panel in a wider block are
/// [`Strided`].
///
/// # Safety
///
/// `unit(q)` must point at `U` doubles and `row(p)` at `2·U`, readable
/// for as long as the implementor's borrow lives, and at `8·U` from
/// `row(0)` when `whole()`: the steps read them without a check.
unsafe trait Units<const U: usize>: Copy {
    /// Unit `q % 8`.
    fn unit(self, q: usize) -> *const [f64; U];

    /// The first of row `p % 4`'s `2·U` doubles.
    fn row(self, p: usize) -> *const f64;

    /// Whether the four rows are contiguous, `8·U` doubles from `row(0)`.
    fn whole(self) -> bool;
}

// SAFETY: the array is the eight units, borrowed: unit `q % 8` is in it,
// row `p % 4` is units `2p, 2p + 1`, and all of it is `8·U` doubles from
// its first, the pointer `row(0)` is derived from.
unsafe impl<const U: usize> Units<U> for &[[f64; U]; 8] {
    #[inline(always)]
    fn unit(self, q: usize) -> *const [f64; U] {
        &self[q & 7]
    }

    #[inline(always)]
    fn row(self, p: usize) -> *const f64 {
        self[2 * (p & 3)..].as_ptr().cast()
    }

    #[inline(always)]
    fn whole(self) -> bool {
        true
    }
}

/// The four rows of a panel in a wider block: the units at `q / 2 ·
/// stride + q % 2 · U` of `xd`.
#[derive(Clone, Copy)]
struct Strided<'a, const U: usize> {
    /// The four rows: `3·stride + 2·U` doubles.
    xd: &'a [f64],
    /// Doubles from one row to the next.
    stride: usize,
}

impl<'a, const U: usize> Strided<'a, U> {
    /// The rows at `xd`, `stride` doubles apart.
    #[inline(always)]
    fn new(xd: &'a [f64], stride: usize) -> Self {
        Self {
            xd: &xd[..3 * stride + 2 * U],
            stride,
        }
    }
}

// SAFETY: row `p % 4` starts `(p % 4)·stride` doubles into `xd` and
// ends at most `3·stride + 2·U` in, the doubles `new` sliced; unit `q` is
// the `U` doubles from `(q % 2)·U` in row `q % 8 / 2`; `whole()` is
// false.
unsafe impl<const U: usize> Units<U> for Strided<'_, U> {
    #[inline(always)]
    fn unit(self, q: usize) -> *const [f64; U] {
        self.row(q >> 1).wrapping_add((q & 1) * U).cast()
    }

    #[inline(always)]
    fn row(self, p: usize) -> *const f64 {
        self.xd.as_ptr().wrapping_add((p & 3) * self.stride)
    }

    #[inline(always)]
    fn whole(self) -> bool {
        false
    }
}

/// The four rows of `site` on `SPAN` compute passes side by side from
/// column `j0` (`wsite` their rows of `w`), each pass one 8-column panel
/// or, when `TWO`, two: the register-pass form of [`lane_group`], with
/// no gather. Four accumulators are in flight — four rows on one pass,
/// or two rows on two, which decode each slot once for twice the columns
/// — and each block of the site is read once for them. For row `o` and
/// a slot, lane `2o` names the neighbour's row (`lane >> 1`) and, by its
/// parity, the half of that row's split `[re; 8][im; 8]` panels the real
/// accumulators read; the imaginary ones read the other half. So a slot
/// step is one factor times one contiguous half on each accumulator set
/// ([`Pass::slot_axpy`]), the products and their order those of
/// [`lane_group`], and so are the bits. (Trial of the loop orders:
/// EXPERIMENTS.md, "One lattice sweep: the site view at every width".)
#[inline(always)]
fn site_panels<const TWO: bool, const SPAN: usize, E: Epilogue>(
    sites: &SiteView,
    site: usize,
    x: &[Complex64],
    r: usize,
    j0: usize,
    wsite: &mut [Complex64],
    epi: &mut E,
) {
    let cols = Pass::<8, TWO>::COLS;
    let codes = &sites.codes[site * sites.stride..][..sites.stride];
    let xd = doubles(x);
    let len = 2 * SPAN * cols;
    for o in (0..4).step_by(4 / SPAN) {
        let [mut a0, mut a1, mut a2, mut a3] = [Pass::<8, TWO>::ZERO; 4];
        for &code in codes {
            let block = &sites.blocks[code as usize];
            let base = 4 * site.wrapping_add_signed(block.neighbour);
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

impl CrsMatrix {
    /// One sweep over the rows of `w` — `w.len() / r` of them, from row
    /// 0, at block width `r` — reading the block `x`, both as
    /// [`BlockVector::panel_slots`](kpm_num::BlockVector::panel_slots)
    /// (plain vectors at `r == 1`): the one kernel behind every named
    /// kernel of [`crate::kernels`]. It walks the site view when the
    /// matrix has one, its entries otherwise. Returns the fused dot
    /// products of [`SweepOp::Aug`] with `dots`, empty vectors otherwise.
    pub fn sweep(
        &self,
        op: SweepOp,
        schedule: Schedule,
        x: &[Complex64],
        r: usize,
        w: &mut [Complex64],
    ) -> AugDotsBlock {
        match self.values() {
            Values::Lattice(_, sites) => run(sites, op, schedule, x, r, w),
            Values::Plain { cols, vals } => {
                let entries = Entries {
                    m: self,
                    cols,
                    vals,
                };
                run(&entries, op, schedule, x, r, w)
            }
        }
    }
}

/// One row, given as its CRS `(cols, vals)` pairs, on the block-vector
/// columns of one [`Pass`] from `j0`; `axial` is the row's
/// [`all_axial`].
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the sweep state, passed flat
fn row_pass<const W: usize, const TWO: bool, E: Epilogue>(
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
/// ([`sweep`]): the columns of the widest compute pass, and the unit step
/// of the lane walk ([`lane_group`]). The types that implement it are
/// private to this module and each is named by one copy only — what
/// makes the AVX2 and AVX-512 steps' `unsafe` sound.
trait Isa {
    /// Columns of the widest pass: two layout panels under AVX-512, one
    /// otherwise.
    const COLS: usize;

    /// Sites the lane walk keeps in flight on a `u`-column panel of a
    /// block of width `u` (`whole`) or wider: as many as the copy's
    /// registers hold the accumulators of. (In a tail, one site at a time
    /// ran the baseline and AVX2 copies faster.)
    #[inline(always)]
    fn sites(u: usize, whole: bool) -> usize {
        if whole && u < 4 {
            4
        } else {
            1
        }
    }

    /// The first `len` slots of the block `view.blocks[code]` on `U`-lane
    /// units, in order: `acc[l] += units.unit(slot.lane[l]) ·
    /// slot.coef[l]` on every lane of every unit `l`, a multiply and then
    /// an add. Row `m`'s two
    /// units read the two parts of one neighbour row (`lane[2m + 1] ==
    /// lane[2m] ^ 1`, [`Slot`](crate::crs::Slot)), so the portable form
    /// reads each row once per slot, and at 4 lanes walks the block row by
    /// row — under SSE2 the slot-major order spilled the 16 accumulator
    /// registers (×1.3). Written as indexing into the units, a width-1
    /// unit goes through the stack and each lane is reloaded from it, so
    /// each compiled copy has its own width-1 step (DESIGN.md §16), and
    /// the AVX-512 copy its own 2- and 4-lane ones, which read the block's
    /// slots as decoded once per view (`view.pairs[code]`).
    #[inline(always)]
    fn unit_steps<const U: usize>(
        acc: &mut [[f64; U]; 8],
        units: impl Units<U>,
        view: &SiteView,
        code: u8,
        len: usize,
    ) {
        let slots = &view.blocks[code as usize].slots;
        if U == 4 {
            for (m, acc) in acc.chunks_exact_mut(2).enumerate() {
                let (mut re, mut im) = (acc[0], acc[1]);
                for slot in slots.iter().take(len) {
                    let q = slot.lane[2 * m] as usize;
                    // SAFETY: a unit is `U` readable doubles ([`Units`]).
                    let (xre, xim) = unsafe { (&*units.unit(q), &*units.unit(q ^ 1)) };
                    for k in 0..U {
                        re[k] += xre[k] * slot.coef[2 * m];
                        im[k] += xim[k] * slot.coef[2 * m + 1];
                    }
                }
                (acc[0], acc[1]) = (re, im);
            }
            return;
        }
        for slot in slots.iter().take(len) {
            for (m, acc) in acc.chunks_exact_mut(2).enumerate() {
                let q = slot.lane[2 * m] as usize;
                // SAFETY: a unit is `U` readable doubles ([`Units`]).
                let (re, im) = unsafe { (&*units.unit(q), &*units.unit(q ^ 1)) };
                let (cre, cim) = (slot.coef[2 * m], slot.coef[2 * m + 1]);
                for k in 0..U {
                    acc[0][k] += re[k] * cre;
                    acc[1][k] += im[k] * cim;
                }
            }
        }
    }

    /// Puts a site's accumulators, as this copy's [`Isa::unit_steps`]
    /// left them after its last block, in unit order: `acc[l][k]` lane
    /// `k` of unit `l`. The steps of every copy but the AVX-512 one at 4
    /// lanes keep them in that order throughout.
    #[inline(always)]
    fn unit_order<const U: usize>(_acc: &mut [[f64; U]; 8]) {}
}

/// The baseline copy: each lane of a step one scalar load from the
/// neighbour's rows in place.
struct BaselineIsa;

impl Isa for BaselineIsa {
    const COLS: usize = 8;
}

/// The AVX2 copy: at width 1, per two rows, their entries of the
/// neighbour as two 16-byte loads into one register and `vpermilpd` on
/// the lanes' low index bits.
#[cfg(target_arch = "x86_64")]
struct Avx2Isa;

#[cfg(target_arch = "x86_64")]
impl Isa for Avx2Isa {
    const COLS: usize = 8;

    #[inline(always)]
    fn unit_steps<const U: usize>(
        acc: &mut [[f64; U]; 8],
        units: impl Units<U>,
        view: &SiteView,
        code: u8,
        len: usize,
    ) {
        use std::arch::x86_64::*;
        if U != 1 {
            return BaselineIsa::unit_steps(acc, units, view, code, len);
        }
        for slot in view.blocks[code as usize].slots.iter().take(len) {
            let mut out = [0.0; 8];
            for (half, out) in out.chunks_exact_mut(4).enumerate() {
                let lane = &slot.lane[4 * half..][..4];
                let lo = units.row(lane[0] as usize / 2);
                let hi = units.row(lane[2] as usize / 2);
                // SAFETY: `Avx2Isa` is named only by `sweep_avx2`, which
                // `sweep` enters only with a `Wide` token naming
                // `Body::Avx2` — made by `simd::wide` after
                // `is_x86_feature_detected!("avx2")` — so the CPU executes
                // these instructions. `lo` and `hi` are rows of two
                // `f64`s (`U` is 1), `lane` and `out` four 8-byte lanes.
                unsafe {
                    let pair = _mm256_loadu2_m128d(hi, lo);
                    let index = _mm256_loadu_si256(lane.as_ptr().cast());
                    // `vpermilpd` selects by bit 1 of each index.
                    let picked = _mm256_permutevar_pd(pair, _mm256_slli_epi64::<1>(index));
                    _mm256_storeu_pd(out.as_mut_ptr(), picked);
                }
            }
            for (l, acc) in acc.iter_mut().enumerate() {
                acc[0] += out[l] * slot.coef[l];
            }
        }
    }
}

/// The AVX-512 copy: the neighbour's rows in registers once per block,
/// then per slot one `vpermpd` of them at width 1, and at widths 2 and 4
/// the block's [`PairSlot`](crate::crs::PairSlot)s — indices and factors
/// decoded once per view, so that a slot step is one `vpermt2pd`,
/// `vmulpd` (its factors from memory) and `vaddpd` per eight lanes, on
/// accumulators held in registers across the block's slots.
#[cfg(target_arch = "x86_64")]
struct Avx512Isa;

#[cfg(target_arch = "x86_64")]
impl Isa for Avx512Isa {
    const COLS: usize = 16;

    #[inline(always)]
    fn sites(u: usize, _: bool) -> usize {
        if u == 4 {
            2
        } else {
            4
        }
    }

    /// At 4 lanes the step works on the two halves of the columns, each
    /// as a 2-lane panel (the neighbour's rows re-cut into two tables of
    /// sixteen doubles per visit), and keeps `acc` in half order — eight
    /// doubles per (half, unit group) — until [`Isa::unit_order`].
    #[inline(always)]
    fn unit_steps<const U: usize>(
        acc: &mut [[f64; U]; 8],
        units: impl Units<U>,
        view: &SiteView,
        code: u8,
        len: usize,
    ) {
        use std::arch::x86_64::*;
        let row = [0, 1, 2, 3].map(|p| units.row(p));
        if U == 1 {
            // The slot's lanes at `picked`, stored and added in portable
            // code, so that `acc` stays in registers. (No closure here:
            // one is not compiled for AVX-512, and each intrinsic in it
            // becomes a call.)
            let mut picked = [[0.0; U]; 8];
            let out = picked.as_mut_ptr().cast::<f64>();
            // SAFETY: `Avx512Isa` is named only by `sweep_avx512`, which
            // `sweep` enters only with a `Wide` token naming
            // `Body::Avx512` — made by `simd::wide` after
            // `is_x86_feature_detected!("avx512f")` — so the CPU executes
            // these instructions. `U` is 1: each of `units`' rows is two
            // readable `f64`s, all four eight when they are whole
            // ([`Units`]); `picked` is eight `f64`s and a slot's `lane`
            // eight 8-byte lanes.
            unsafe {
                let x = if units.whole() {
                    _mm512_loadu_pd(row[0])
                } else {
                    let lo = _mm512_castpd256_pd512(_mm256_loadu2_m128d(row[1], row[0]));
                    _mm512_insertf64x4::<1>(lo, _mm256_loadu2_m128d(row[3], row[2]))
                };
                for slot in view.blocks[code as usize].slots.iter().take(len) {
                    let lane = _mm512_loadu_si512(slot.lane.as_ptr().cast());
                    _mm512_storeu_pd(out, _mm512_permutexvar_pd(lane, x));
                    for l in 0..8 {
                        for k in 0..U {
                            acc[l][k] += picked[l][k] * slot.coef[l];
                        }
                    }
                }
            }
            return;
        }
        let pairs = &view.pairs[code as usize];
        let a = acc.as_mut_ptr().cast::<f64>();
        // SAFETY: as above, the CPU executes these instructions. `U` is 2
        // or 4: each of `units`' rows is `2·U` readable `f64`s, all four
        // `8·U` when they are whole ([`Units`]); `acc` is `8·U` `f64`s,
        // read and written in 64-byte parts, and a pair slot's `index`
        // and `factor` rows eight 8-byte lanes each.
        unsafe {
            if U == 2 {
                // Rows 0 and 1, and rows 2 and 3: the sixteen doubles the
                // indices name.
                let (x0, x1) = if units.whole() {
                    (_mm512_loadu_pd(row[0]), _mm512_loadu_pd(row[0].add(8)))
                } else {
                    let lo = _mm512_castpd256_pd512(_mm256_loadu_pd(row[0]));
                    let hi = _mm512_castpd256_pd512(_mm256_loadu_pd(row[2]));
                    (
                        _mm512_insertf64x4::<1>(lo, _mm256_loadu_pd(row[1])),
                        _mm512_insertf64x4::<1>(hi, _mm256_loadu_pd(row[3])),
                    )
                };
                let (mut a0, mut a1) = (_mm512_loadu_pd(a), _mm512_loadu_pd(a.add(8)));
                for pair in pairs.iter().take(len) {
                    let index = _mm512_loadu_si512(pair.index[0].as_ptr().cast());
                    let x = _mm512_permutex2var_pd(x0, index, x1);
                    a0 = _mm512_add_pd(
                        a0,
                        _mm512_mul_pd(x, _mm512_loadu_pd(pair.factor[0].as_ptr())),
                    );
                    let index = _mm512_loadu_si512(pair.index[1].as_ptr().cast());
                    let x = _mm512_permutex2var_pd(x0, index, x1);
                    a1 = _mm512_add_pd(
                        a1,
                        _mm512_mul_pd(x, _mm512_loadu_pd(pair.factor[1].as_ptr())),
                    );
                }
                _mm512_storeu_pd(a, a0);
                _mm512_storeu_pd(a.add(8), a1);
                return;
            }
            // Each row is `[re; 4][im; 4]`, four 16-byte parts: parts 0
            // and 2 of two rows are their columns 0 and 1 as a 2-lane
            // panel, parts 1 and 3 their columns 2 and 3.
            let (x0, x1) = (_mm512_loadu_pd(row[0]), _mm512_loadu_pd(row[1]));
            let (x2, x3) = (_mm512_loadu_pd(row[2]), _mm512_loadu_pd(row[3]));
            let lo = (
                _mm512_shuffle_f64x2::<0b10_00_10_00>(x0, x1),
                _mm512_shuffle_f64x2::<0b10_00_10_00>(x2, x3),
            );
            let hi = (
                _mm512_shuffle_f64x2::<0b11_01_11_01>(x0, x1),
                _mm512_shuffle_f64x2::<0b11_01_11_01>(x2, x3),
            );
            // Accumulator `2h + g`: units `4g .. 4g + 4` on half `h`.
            let (mut lo0, mut lo1) = (_mm512_loadu_pd(a), _mm512_loadu_pd(a.add(8)));
            let (mut hi0, mut hi1) = (_mm512_loadu_pd(a.add(16)), _mm512_loadu_pd(a.add(24)));
            for pair in pairs.iter().take(len) {
                let index = _mm512_loadu_si512(pair.index[0].as_ptr().cast());
                let factor = _mm512_loadu_pd(pair.factor[0].as_ptr());
                let x = _mm512_permutex2var_pd(lo.0, index, lo.1);
                lo0 = _mm512_add_pd(lo0, _mm512_mul_pd(x, factor));
                let x = _mm512_permutex2var_pd(hi.0, index, hi.1);
                hi0 = _mm512_add_pd(hi0, _mm512_mul_pd(x, factor));
                let index = _mm512_loadu_si512(pair.index[1].as_ptr().cast());
                let factor = _mm512_loadu_pd(pair.factor[1].as_ptr());
                let x = _mm512_permutex2var_pd(lo.0, index, lo.1);
                lo1 = _mm512_add_pd(lo1, _mm512_mul_pd(x, factor));
                let x = _mm512_permutex2var_pd(hi.0, index, hi.1);
                hi1 = _mm512_add_pd(hi1, _mm512_mul_pd(x, factor));
            }
            _mm512_storeu_pd(a, lo0);
            _mm512_storeu_pd(a.add(8), lo1);
            _mm512_storeu_pd(a.add(16), hi0);
            _mm512_storeu_pd(a.add(24), hi1);
        }
    }

    /// At 4 lanes, from half order: lane `k` of unit `l` is lane `2·(l %
    /// 4) + k % 2` of accumulator `2·(k / 2) + l / 4`. A fixed shuffle,
    /// once per site and panel, in portable code.
    #[inline(always)]
    fn unit_order<const U: usize>(acc: &mut [[f64; U]; 8]) {
        if U != 4 {
            return;
        }
        let held: [f64; 32] = std::array::from_fn(|i| acc[i / U][i % U]);
        for (l, unit) in acc.iter_mut().enumerate() {
            for (k, lane) in unit.iter_mut().enumerate() {
                *lane = held[8 * (2 * (k / 2) + l / 4) + 2 * (l % 4) + k % 2];
            }
        }
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
/// R = 2) for arms they never take. A row source that does not read
/// them ([`RowSweep::READS_ARMS`]) is instantiated once.
#[inline(always)]
fn sweep_body_for<S: RowSweep, E: Epilogue, I: Isa>(
    s: &S,
    x: &[Complex64],
    r: usize,
    row0: usize,
    w: &mut [Complex64],
    epi: &mut E,
) {
    if S::READS_ARMS && r >= AXIAL_MIN_WIDTH {
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

/// Rows per parallel chunk — the one reduction grid: 1024-row chunks at
/// width 1, tiles sized for [`DEFAULT_CACHE_BYTES`] beyond. It depends
/// on nothing scheduling-related, so neither do the reduced dots.
fn chunk_rows(r: usize) -> usize {
    match r {
        1 => ROWS_PER_CHUNK,
        _ => tile_rows_for_budget(r, DEFAULT_CACHE_BYTES),
    }
}

/// One sweep of `s` over all rows of `w` (width `r`): every named
/// kernel of [`crate::kernels`] is this call. Returns
/// the dot products of [`SweepOp::Aug`] with `dots`, empty otherwise.
fn run<S: RowSweep>(
    s: &S,
    op: SweepOp,
    schedule: Schedule,
    x: &[Complex64],
    r: usize,
    w: &mut [Complex64],
) -> AugDotsBlock {
    let rows = chunk_rows(r);
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
        Schedule::Chunked => {
            rayon::map_chunks(w.chunks_mut(rows * r), |ci, wc| range(ci * rows, wc))
        }
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
    use std::ops::RangeInclusive;

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

    /// `±0` one time in six, otherwise `±m·10^e` with `m` in `[1, 10)`
    /// and `e` in `exps`.
    fn extreme(rng: &mut StdRng, exps: RangeInclusive<i32>) -> f64 {
        let sign = [1.0, -1.0][rng.gen_range(0..2usize)];
        if rng.gen_range(0..6usize) == 0 {
            return sign * 0.0;
        }
        sign * rng.gen_range(1.0..10.0) * 10f64.powi(rng.gen_range(exps))
    }

    /// Bitwise equality, two NaNs of any payload counted equal: the
    /// solver never sweeps a NaN (its divergence guardrail stops first),
    /// so which NaN a product makes is no part of the contract.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan()
    }

    /// One width-1 site group through [`Epilogue::finish_sites`] against
    /// its `4·S` rows through [`Epilogue::finish`] one by one, from the
    /// same seeded chains: the same `w` and the same three chain values.
    fn group_against_rows<const DOTS: bool, const S: usize>(
        rng: &mut StdRng,
        exps: RangeInclusive<i32>,
    ) {
        let mut draw = || extreme(rng, exps.clone());
        let acc: [[[f64; 1]; 8]; S] = std::array::from_fn(|_| std::array::from_fn(|_| [draw()]));
        // The group's rows start at row 3 of `v` and at row 0 of `w`.
        let at = 3;
        let v: Vec<Complex64> = (0..at + 4 * S)
            .map(|_| Complex64::new(draw(), draw()))
            .collect();
        let w0: Vec<Complex64> = (0..4 * S).map(|_| Complex64::new(draw(), draw())).collect();
        let start = [draw(), draw(), draw()];
        let seeded = || {
            let mut epi = Aug::<DOTS>::new(0.37, -0.21, 1);
            if DOTS {
                (epi.even[0], epi.odd_re[0], epi.odd_im[0]) = (start[0], start[1], start[2]);
            }
            epi
        };
        let (mut group, mut rows) = (seeded(), seeded());
        let mut w_group = w0.clone();
        group.finish_sites(&acc, &v, at, 1, 0, &mut w_group);
        let mut w_rows = w0;
        for k in 0..4 * S {
            let lanes = &acc[k / 4][2 * (k % 4)..];
            rows.finish(&lanes[0], &lanes[1], &v, at + k, 0, &mut w_rows[k..]);
        }
        let parts = |w: &[Complex64]| w.iter().flat_map(|z| [z.re, z.im]).collect::<Vec<_>>();
        let chains = |e: &Aug<DOTS>| [&e.even, &e.odd_re, &e.odd_im].map(|c| c.clone());
        let (got, want) = (parts(&w_group), parts(&w_rows));
        assert!(
            got.iter().zip(&want).all(|(&g, &w)| same_bits(g, w)),
            "w: {got:?} vs {want:?}"
        );
        let (got, want) = (chains(&group).concat(), chains(&rows).concat());
        assert!(
            got.iter().zip(&want).all(|(&g, &w)| same_bits(g, w)),
            "dots: {got:?} vs {want:?}"
        );
    }

    #[test]
    fn width_one_group_epilogue_is_bitwise_the_per_row_chain() {
        // The lane walk's four-site group and its one-site tail, with and
        // without the dots: magnitudes within a decade or two, where the
        // order of the adds shows in the bits; from 1e-300 to 1e150, every
        // product finite and the smallest underflowing to zeros of either
        // sign; and up to 1e300, where products overflow.
        let mut rng = StdRng::seed_from_u64(38);
        for exps in [-1..=1, -300..=150, -300..=300] {
            for _ in 0..200 {
                group_against_rows::<true, 4>(&mut rng, exps.clone());
                group_against_rows::<true, 1>(&mut rng, exps.clone());
                group_against_rows::<false, 4>(&mut rng, exps.clone());
                group_against_rows::<false, 1>(&mut rng, exps.clone());
            }
        }
    }

    /// A 16×4×4 open lattice in coded form whose on-site diagonals are
    /// `diagonals` distinct combinations of eight values, one per site in
    /// turn, and whose hopping blocks store per row a real and an
    /// imaginary entry: seven other blocks (six hops and the zero block
    /// that pads the boundary sites) beside the diagonals'.
    fn lattice_of_blocks(diagonals: usize) -> CrsMatrix {
        use crate::StencilMatrix;
        let vals = [0.5, -0.25, 1.5, -2.0, 0.75, 3.0, -1.25, 0.375];
        let onsite = (0..diagonals)
            .map(|d| [vals[d % 8], vals[d / 8 % 8], vals[d / 64 % 8], 0.125].map(Complex64::real));
        let site_diag = (0..256).map(|s| (s % diagonals) as u32);
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for (b, block) in hop.iter_mut().enumerate() {
            for (o, row) in block.iter_mut().enumerate() {
                row[o] = Complex64::real(-0.5 - 0.125 * b as f64);
                row[3 - o] = Complex64::new(0.0, 0.25 + 0.0625 * b as f64);
            }
        }
        let (onsite, site_diag) = (onsite.collect(), site_diag.collect());
        StencilMatrix::new(16, 4, 4, [false; 3], onsite, site_diag, &hop).to_crs()
    }

    #[test]
    fn a_full_block_table_sweeps_like_its_entries() {
        use crate::crs::SiteBlock;
        use crate::simd::{self, Body};
        let view = |m: &CrsMatrix| match m.values() {
            Values::Lattice(_, view) => Some(view.clone()),
            Values::Plain { .. } => None,
        };
        // The table past a view's distinct blocks holds the empty block,
        // bit for bit: lanes, factors, slot count and neighbour.
        let block_bits = |b: &SiteBlock| -> Vec<u64> {
            let slots = b.slots.iter();
            let slots = slots.flat_map(|s| s.lane.into_iter().chain(s.coef.map(f64::to_bits)));
            slots.chain([b.len as u64, b.neighbour as u64]).collect()
        };
        let empty = block_bits(&SiteBlock::EMPTY);
        let some = lattice_of_blocks(3);
        let small = view(&some).expect("a coded lattice");
        assert_eq!(small.distinct(), 10);
        for (code, block) in small.blocks.iter().enumerate().skip(small.distinct()) {
            assert!(block_bits(block) == empty, "table slot {code}");
        }
        // 249 diagonals fill the table, so code 255 is in use; a 257th
        // distinct block leaves the lattice plain.
        let full = lattice_of_blocks(249);
        let table = view(&full).expect("256 blocks are coded");
        assert_eq!((table.distinct(), full.site_blocks()), (256, Some(256)));
        assert!(table.codes.contains(&255));
        let over = lattice_of_blocks(250);
        assert!(view(&over).is_none() && over.site_blocks().is_none());

        let n = full.nrows();
        let (mut row_ptr, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
        full.for_each_row(|_, c, v| {
            cols.extend_from_slice(c);
            vals.extend_from_slice(v);
            row_ptr.push(cols.len() as u64);
        });
        let plain = CrsMatrix::from_raw(n, n, row_ptr, cols, vals);
        assert!(plain.site_blocks().is_none() && plain == full);
        let bits = |z: &[Complex64]| -> Vec<u64> {
            z.iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect()
        };
        let pools = [1, 2].map(|t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("pool")
        });
        let mut rng = StdRng::seed_from_u64(255);
        // Whole blocks of 1, 2 and 4 columns, and tails: 3 is 2 + 1, 6 is
        // 4 + 2, and 12 and 17 put a 4- and a 1-column panel beside
        // 8-column ones, so the lane walk reads strided units.
        for r in [1, 2, 3, 4, 6, 12, 17] {
            let v = BlockVector::random(n, r, &mut rng);
            let w0 = BlockVector::random(n, r, &mut rng);
            for body in Body::ALL.into_iter().filter(|b| b.supported()) {
                simd::set_cap(body);
                for (threads, pool) in [1, 2].iter().zip(&pools) {
                    let sweep = |m: &CrsMatrix, par: bool| {
                        let mut w = w0.clone();
                        let dots = pool.install(|| match par {
                            true => m.aug_spmmv_par(0.3, -0.1, &v, &mut w),
                            false => m.aug_spmmv(0.3, -0.1, &v, &mut w),
                        });
                        let odd = bits(&dots.eta_odd);
                        let even = dots.eta_even.iter().map(|e| e.to_bits());
                        (bits(&w.to_interleaved()), odd, even.collect::<Vec<_>>())
                    };
                    for par in [false, true] {
                        assert!(
                            sweep(&full, par) == sweep(&plain, par),
                            "R = {r}, {body:?} body, {threads} threads, chunked: {par}"
                        );
                    }
                }
            }
        }
        simd::set_cap(Body::Avx512);
    }

    /// What the AVX-512 copy's `U`-lane step adds to lane `k` of unit `l`
    /// for `pair` (`U` is 2 or 4), on the neighbour units `x`: the double
    /// its index names in the sixteen of the columns' half, times its
    /// factor. At 4 lanes the half of column `k` is columns `k / 2 · 2`
    /// and the next, laid out as a 2-lane panel.
    fn pair_step<const U: usize>(
        pair: &crate::crs::PairSlot,
        x: &[[f64; U]; 8],
        l: usize,
        k: usize,
    ) -> f64 {
        let (g, i) = (l / 4, 2 * (l % 4) + k % 2);
        let table: Vec<f64> = x
            .iter()
            .flat_map(|unit| unit[k / 2 * 2 % U..][..2].to_vec())
            .collect();
        table[pair.index[g][i] as usize] * pair.factor[g][i]
    }

    #[test]
    fn pair_slots_decode_like_their_slots() {
        use crate::crs::{PairSlot, SiteBlock};
        let full = lattice_of_blocks(249);
        let Values::Lattice(_, view) = full.values() else {
            panic!("a coded lattice")
        };
        assert_eq!(view.pairs.len(), 256);
        let decoded = view.pairs.iter().zip(view.blocks.iter());
        let empty = SiteBlock::EMPTY.slots.map(|slot| PairSlot::new(&slot));
        let every = decoded.chain([(&empty, &SiteBlock::EMPTY)]);
        // Distinct units, so a wrong index or factor shows.
        let x2: [[f64; 2]; 8] =
            std::array::from_fn(|q| std::array::from_fn(|k| (8 * q + k + 1) as f64));
        let x4: [[f64; 4]; 8] =
            std::array::from_fn(|q| std::array::from_fn(|k| (8 * q + k + 1) as f64));
        let mut blocks = 0;
        for (pairs, block) in every {
            for (pair, slot) in pairs.iter().zip(&block.slots) {
                for l in 0..8 {
                    let (q, c) = (slot.lane[l] as usize, slot.coef[l]);
                    for k in 0..2 {
                        let want = (x2[q][k] * c).to_bits();
                        assert_eq!(pair_step(pair, &x2, l, k).to_bits(), want, "U = 2");
                    }
                    for k in 0..4 {
                        let want = (x4[q][k] * c).to_bits();
                        assert_eq!(pair_step(pair, &x4, l, k).to_bits(), want, "U = 4");
                    }
                }
            }
            blocks += 1;
        }
        // Every distinct block — code 255 the last — and the empty one.
        assert_eq!(blocks, 257);
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
