//! Explicit SIMD lane mapping for the SELL-C-σ kernels (nightly
//! `simd` feature). The blocked CRS and stencil kernels do not come
//! through here: their register-panel sweep (`sweep.rs`) is compiled
//! for AVX2 on stable and picked at run time.
//!
//! Two inner-loop shapes carry essentially all the flops of the hot
//! kernels, and both vectorize here:
//!
//! * **Lane dimension = chunk height `C`** ([`accum_chunk`]): a SELL
//!   chunk stores element `j` of lane `lane` at `base + j·C + lane`, so
//!   the `C` per-row accumulator chains advance in lockstep over
//!   *contiguous* value loads — exactly the layout SELL-C-σ exists for
//!   (Kreutzer et al., ref. [13]). Lanes are processed in groups of
//!   [`LANES`]; the `C mod LANES` leftover lanes run the scalar body.
//! * **Lane dimension = block width `r`** ([`axpy_row`]): the blocked SELL
//!   kernels apply one matrix entry to a whole row of the block vector
//!   (`arow[k] += val·xrow[k]`); the `k` loop is elementwise-independent
//!   and vectorizes directly, with a scalar tail for `r mod LANES`.
//!
//! # Why this is bitwise-identical to the scalar kernels
//!
//! [`kpm_num::Complex64::mul_add`] is *not* fused: it computes
//! `re = a.re·b.re − a.im·b.im + c.re` (and the mirror image for `im`)
//! as plain IEEE-754 multiplies, subtract and add. The vector bodies
//! below deinterleave `re`/`im` into separate `f64` vectors and issue
//! the *same three-operation sequence elementwise* — never a fused
//! `Simd::mul_add` — so every lane computes the exact scalar bit
//! pattern. Per-lane accumulator chains are mutually independent, so
//! regrouping lanes into SIMD registers (and looping lane-groups outer,
//! `j` inner instead of `j` outer, lanes inner) permutes only
//! *independent* chains, never the order of operations *within* a
//! chain. Horizontal reductions never happen here at all: the fused
//! dot products stay in the callers' scalar replay loops, on the same
//! original-row-order CRS boundaries as before.
//!
//! Every vector loop is written with `chunks_exact` /
//! `remainder`-style tails; the `simd_scalar_tail` lint in kpm-analyze
//! keeps it that way.
//!
//! Without the `simd` cargo feature the vector bodies are compiled out
//! and the entry points run the scalar bodies only.

use kpm_num::Complex64;

#[cfg(feature = "simd")]
use std::simd::Simd;

/// `f64` lanes per SIMD register of the compiled variant: 8 with
/// AVX-512F, 4 otherwise (AVX/AVX2/NEON-class doubles), 1 for scalar
/// builds.
#[cfg(all(feature = "simd", target_feature = "avx512f"))]
pub const LANES: usize = 8;
/// `f64` lanes per SIMD register of the compiled variant: 8 with
/// AVX-512F, 4 otherwise (AVX/AVX2/NEON-class doubles), 1 for scalar
/// builds.
#[cfg(all(feature = "simd", not(target_feature = "avx512f")))]
pub const LANES: usize = 4;
/// `f64` lanes per SIMD register of the compiled variant: 8 with
/// AVX-512F, 4 otherwise (AVX/AVX2/NEON-class doubles), 1 for scalar
/// builds.
#[cfg(not(feature = "simd"))]
pub const LANES: usize = 1;

/// A `&[Complex64]` viewed as interleaved `re, im, re, im, …` doubles.
#[cfg(feature = "simd")]
#[inline(always)]
fn complex_as_f64(zs: &[Complex64]) -> &[f64] {
    // SAFETY: `Complex64` is `repr(C)` with exactly two `f64` fields
    // (`re`, `im`), so a slice of N complex values is layout- and
    // alignment-identical to a slice of 2N doubles at the same address.
    unsafe { std::slice::from_raw_parts(zs.as_ptr().cast::<f64>(), zs.len() * 2) }
}

/// Mutable twin of [`complex_as_f64`].
#[cfg(feature = "simd")]
#[inline(always)]
fn complex_as_f64_mut(zs: &mut [Complex64]) -> &mut [f64] {
    let n = zs.len() * 2;
    // SAFETY: same layout argument as `complex_as_f64`; the `&mut`
    // borrow of `zs` is consumed, so the views never alias.
    unsafe { std::slice::from_raw_parts_mut(zs.as_mut_ptr().cast::<f64>(), n) }
}

/// Accumulates one SELL chunk into its per-lane accumulators:
/// `acc[lane] = Σ_j vals[base + j·C + lane] · v[cols[base + j·C + lane]]`,
/// each lane running the exact CRS `mul_add` chain of its row (padding
/// entries are zero, so their plain multiply-adds are bitwise no-ops).
///
/// `use_simd` is hoisted by the caller (one [`crate::simd::active`]
/// read per kernel call); scalar builds ignore it.
#[inline]
#[allow(clippy::too_many_arguments)] // the SELL chunk layout tuple, passed flat
pub(crate) fn accum_chunk(
    cols: &[u32],
    vals: &[Complex64],
    base: usize,
    len: usize,
    c: usize,
    v: &[Complex64],
    acc: &mut [Complex64],
    use_simd: bool,
) {
    acc[..c].fill(Complex64::default());
    #[cfg(feature = "simd")]
    if use_simd {
        accum_chunk_vec(cols, vals, base, len, c, v, &mut acc[..c]);
        return;
    }
    let _ = use_simd;
    accum_chunk_scalar(cols, vals, base, len, c, v, acc);
}

/// Scalar body of [`accum_chunk`]: the original lockstep `j` outer /
/// lane inner loop of the SELL kernels, byte for byte.
#[inline]
fn accum_chunk_scalar(
    cols: &[u32],
    vals: &[Complex64],
    base: usize,
    len: usize,
    c: usize,
    v: &[Complex64],
    acc: &mut [Complex64],
) {
    for j in 0..len {
        let off = base + j * c;
        #[allow(clippy::needless_range_loop)] // lockstep lane loop
        for lane in 0..c {
            let col = cols[off + lane] as usize;
            let val = vals[off + lane];
            // Padding entries have val == 0, so the FMA is a no-op.
            acc[lane] = val.mul_add(v[col], acc[lane]);
        }
    }
}

/// Vector body of [`accum_chunk`]: lane groups of [`LANES`] rows advance
/// together, `j` innermost, accumulators living in registers for the
/// whole chunk. Matrix values load contiguously (column-major chunk);
/// the `x` operands gather through the column indices.
#[cfg(feature = "simd")]
fn accum_chunk_vec(
    cols: &[u32],
    vals: &[Complex64],
    base: usize,
    len: usize,
    c: usize,
    v: &[Complex64],
    acc: &mut [Complex64],
) {
    let mut lane0 = 0;
    let mut groups = acc.chunks_exact_mut(LANES);
    for group in groups.by_ref() {
        let mut a_re = Simd::<f64, LANES>::splat(0.0);
        let mut a_im = Simd::<f64, LANES>::splat(0.0);
        for j in 0..len {
            let off = base + j * c + lane0;
            let hf = complex_as_f64(&vals[off..off + LANES]);
            let lo = Simd::<f64, LANES>::from_slice(&hf[..LANES]);
            let hi = Simd::<f64, LANES>::from_slice(&hf[LANES..]);
            let (v_re, v_im) = lo.deinterleave(hi);
            let mut xr = [0.0; LANES];
            let mut xi = [0.0; LANES];
            #[allow(clippy::needless_range_loop)] // lane gather
            for k in 0..LANES {
                let x = v[cols[off + k] as usize];
                xr[k] = x.re;
                xi[k] = x.im;
            }
            let x_re = Simd::from_array(xr);
            let x_im = Simd::from_array(xi);
            // Elementwise (non-fused) replay of Complex64::mul_add:
            // re = v.re·x.re − v.im·x.im + a.re, im mirrored.
            a_re = v_re * x_re - v_im * x_im + a_re;
            a_im = v_re * x_im + v_im * x_re + a_im;
        }
        let (lo, hi) = a_re.interleave(a_im);
        let gf = complex_as_f64_mut(group);
        lo.copy_to_slice(&mut gf[..LANES]);
        hi.copy_to_slice(&mut gf[LANES..]);
        lane0 += LANES;
    }
    // Scalar tail: the C mod LANES lanes past the last full group run
    // the identical per-row chain one lane at a time.
    for (k, slot) in groups.into_remainder().iter_mut().enumerate() {
        let lane = lane0 + k;
        let mut a = Complex64::default();
        for j in 0..len {
            let off = base + j * c + lane;
            a = vals[off].mul_add(v[cols[off] as usize], a);
        }
        *slot = a;
    }
}

/// `arow[k] = val.mul_add(xrow[k], arow[k])` over one block-vector row —
/// the `r_width` inner loop of the blocked SELL kernels,
/// vectorized across the block width (elementwise-independent, so any
/// grouping is bitwise-safe). `use_simd` is hoisted by the caller.
#[inline]
pub(crate) fn axpy_row(val: Complex64, xrow: &[Complex64], arow: &mut [Complex64], use_simd: bool) {
    #[cfg(feature = "simd")]
    if use_simd {
        axpy_row_vec(val, xrow, arow);
        return;
    }
    let _ = use_simd;
    for (a, x) in arow.iter_mut().zip(xrow) {
        *a = val.mul_add(*x, *a);
    }
}

/// Vector body of [`axpy_row`]: broadcast `val`, deinterleave the row
/// into `re`/`im` vectors, issue the non-fused three-op sequence,
/// re-interleave. Scalar tail for the `r mod LANES` leftover columns.
#[cfg(feature = "simd")]
fn axpy_row_vec(val: Complex64, xrow: &[Complex64], arow: &mut [Complex64]) {
    let v_re = Simd::<f64, LANES>::splat(val.re);
    let v_im = Simd::<f64, LANES>::splat(val.im);
    let mut a_groups = arow.chunks_exact_mut(LANES);
    let mut x_groups = xrow.chunks_exact(LANES);
    for (ag, xg) in (&mut a_groups).zip(&mut x_groups) {
        let xf = complex_as_f64(xg);
        let xlo = Simd::<f64, LANES>::from_slice(&xf[..LANES]);
        let xhi = Simd::<f64, LANES>::from_slice(&xf[LANES..]);
        let (x_re, x_im) = xlo.deinterleave(xhi);
        let af = complex_as_f64_mut(ag);
        let alo = Simd::<f64, LANES>::from_slice(&af[..LANES]);
        let ahi = Simd::<f64, LANES>::from_slice(&af[LANES..]);
        let (a_re, a_im) = alo.deinterleave(ahi);
        let r_re = v_re * x_re - v_im * x_im + a_re;
        let r_im = v_re * x_im + v_im * x_re + a_im;
        let (lo, hi) = r_re.interleave(r_im);
        lo.copy_to_slice(&mut af[..LANES]);
        hi.copy_to_slice(&mut af[LANES..]);
    }
    for (a, x) in a_groups
        .into_remainder()
        .iter_mut()
        .zip(x_groups.remainder())
    {
        *a = val.mul_add(*x, *a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cvec(n: usize, seed: u64) -> Vec<Complex64> {
        // Deterministic pseudo-random values without an RNG dependency.
        (0..n)
            .map(|i| {
                let t = (i as f64 + 1.0) * (seed as f64 + 0.5);
                Complex64::new((t * 0.7371).sin(), (t * 0.2931).cos())
            })
            .collect()
    }

    /// Builds a fake chunk: `c` lanes of `len` entries, column-major,
    /// with a few zero (padding-like) values sprinkled in.
    fn fake_chunk(c: usize, len: usize, n: usize) -> (Vec<u32>, Vec<Complex64>) {
        let mut cols = vec![0u32; c * len];
        let mut vals = vec![Complex64::default(); c * len];
        let zs = cvec(c * len, 3);
        for j in 0..len {
            for lane in 0..c {
                let idx = j * c + lane;
                cols[idx] = ((j * 31 + lane * 7) % n) as u32;
                if (j + lane) % 5 != 4 {
                    vals[idx] = zs[idx];
                }
            }
        }
        (cols, vals)
    }

    #[test]
    fn accum_chunk_simd_matches_scalar_bitwise() {
        let n = 64;
        let v = cvec(n, 9);
        for c in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 32] {
            for len in [0usize, 1, 3, 11] {
                let (cols, vals) = fake_chunk(c, len, n);
                let mut a_scalar = vec![Complex64::default(); c];
                let mut a_simd = vec![Complex64::default(); c];
                accum_chunk(&cols, &vals, 0, len, c, &v, &mut a_scalar, false);
                accum_chunk(&cols, &vals, 0, len, c, &v, &mut a_simd, true);
                assert_eq!(a_scalar, a_simd, "C={c} len={len}");
            }
        }
    }

    #[test]
    fn axpy_row_simd_matches_scalar_bitwise() {
        let val = Complex64::new(0.37, -1.21);
        for r in [1usize, 2, 3, 4, 5, 7, 8, 11, 16, 33] {
            let x = cvec(r, 21);
            let a0 = cvec(r, 22);
            let mut a_scalar = a0.clone();
            let mut a_simd = a0.clone();
            axpy_row(val, &x, &mut a_scalar, false);
            axpy_row(val, &x, &mut a_simd, true);
            assert_eq!(a_scalar, a_simd, "r={r}");
        }
    }

    #[test]
    fn padding_values_are_bitwise_noops() {
        // A zero matrix value must leave the accumulator untouched in
        // both bodies (the unblocked kernels rely on this).
        let v = cvec(8, 5);
        let cols = vec![0u32; 8];
        let vals = vec![Complex64::default(); 8];
        for use_simd in [false, true] {
            let mut acc = vec![Complex64::new(0.5, -0.25); 4];
            accum_chunk(&cols, &vals, 0, 2, 4, &v, &mut acc, use_simd);
            assert!(acc.iter().all(|z| *z == Complex64::default()));
        }
    }
}
