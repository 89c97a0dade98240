//! The augmented KPM kernels on SELL-C-σ matrices.
//!
//! Same fused iteration as [`crate::aug`] (paper Figs. 4, 5), executed
//! in SELL chunk order: `C` rows advance in lockstep through the
//! column-major chunk, which is what vectorizes single-vector SpMV on
//! SIMD/SIMT hardware (Kreutzer et al., ref. [13]).
//!
//! # Bitwise equivalence to the CRS kernels
//!
//! Every kernel here produces results **bitwise-identical** to its CRS
//! counterpart for any chunk height `C`, sorting window `σ`, task
//! granularity, and thread count. Two properties make that work:
//!
//! 1. **The per-row update chain is the CRS chain.** Within a chunk,
//!    element `j` of a lane is that row's `j`-th stored non-zero, so the
//!    lockstep accumulation applies the row's multiply-adds in exactly
//!    CRS column order. Padding entries append `0 · x[0]` terms at the
//!    *end* of the chain; with `Complex64::mul_add` being plain
//!    multiplies and adds, a zero value contributes `±0` products that
//!    leave the accumulator bitwise unchanged (a component that is zero
//!    is always `+0` here: the chain starts at `+0` and IEEE-754
//!    round-to-nearest addition never produces `-0` from `+0` inputs or
//!    exact cancellation). The blocked kernels skip padding instead —
//!    skipping a no-op is trivially bitwise-neutral.
//! 2. **Dot products are replayed in original row order.** The `η`
//!    accumulations only involve each row's *final* `v`/`w` values, so
//!    they are decoupled from the matrix sweep: after a σ-window's
//!    chunks complete (a window spans the contiguous original rows
//!    `[kσ, (k+1)σ)`; for `σ = 1` the permutation is the identity and a
//!    chunk spans `[kC, kC+C)`), the serial kernels walk that row range
//!    in ascending original order — producing the exact accumulation
//!    chain of the serial CRS kernel. The parallel kernels replay the
//!    dots in a second pass over the same fixed reduction boundaries as
//!    CRS ([`crate::aug::ROWS_PER_CHUNK`]-row chunks combined pairwise
//!    for SpMV; cache-budget row tiles combined in index order for
//!    SpMMV), so `SELL par ≡ CRS par` as well.
//!
//! The scattered parallel writes are sound for the same reason as in
//! [`crate::sell`]: `perm` is a permutation partitioned disjointly
//! across tasks.

use kpm_num::summation::{pairwise_sum, pairwise_sum_complex};
use kpm_num::{BlockVector, Complex64};
use kpm_obs::probe::{kernel_timer_fmt, KernelKind, ProbeFormat};
use rayon::prelude::*;

use crate::aug::{widen, AugDots, AugDotsBlock, ROWS_PER_CHUNK};
use crate::aug_sell_simd::{accum_chunk, axpy_row};
use crate::sell::{ScatterPtr, SellMatrix};

/// Chunks per σ-window: the serial kernels accumulate the fused dot
/// products after each window, once all its (permuted) rows hold final
/// values.
fn window_chunks(m: &SellMatrix) -> usize {
    if m.sigma() > 1 {
        m.sigma() / m.chunk_height()
    } else {
        1
    }
}

/// Augmented SpMV on SELL-C-σ: `w <- 2a(H - b·1) v - w` with both
/// Chebyshev scalar products accumulated on the fly;
/// bitwise-identical to [`crate::aug::aug_spmv`] on the source matrix.
pub fn aug_spmv(m: &SellMatrix, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
    assert_eq!(v.len(), m.ncols(), "aug_spmv: v dimension mismatch");
    assert_eq!(w.len(), m.nrows(), "aug_spmv: w dimension mismatch");
    assert_eq!(m.nrows(), m.ncols(), "aug_spmv: matrix must be square");
    let _probe = kernel_timer_fmt(
        KernelKind::AugSpmv,
        m.nrows(),
        m.nnz(),
        1,
        m.stored_elements(),
        ProbeFormat::Sell,
    );
    aug_spmv_core_sell(m, a, b, v, w)
}

/// One chunk of the fused single-vector update (serial path).
#[inline]
#[allow(clippy::too_many_arguments)] // internal kernel body
fn scatter_chunk(
    m: &SellMatrix,
    ci: usize,
    a: f64,
    b: f64,
    v: &[Complex64],
    w: &mut [Complex64],
    acc: &mut [Complex64],
    use_simd: bool,
) {
    let c = m.chunk_height();
    let base = m.chunk_ptr[ci] as usize;
    let len = m.chunk_len[ci] as usize;
    accum_chunk(&m.cols, &m.vals, base, len, c, v, acc, use_simd);
    let lo = ci * c;
    #[allow(clippy::needless_range_loop)] // lockstep lane loop
    for lane in 0..c {
        let sell_row = lo + lane;
        if sell_row < m.nrows() {
            let orig = m.perm[sell_row] as usize;
            let vr = v[orig];
            w[orig] = (acc[lane] - vr.scale(b)).scale(2.0 * a) - w[orig];
        }
    }
}

/// Chunk-parallel augmented SELL SpMV; bitwise-identical to
/// [`crate::aug::aug_spmv_par`] on the source matrix (parallel scatter
/// pass, then the dot products replayed over the same fixed
/// [`ROWS_PER_CHUNK`] boundaries and combined pairwise).
pub fn aug_spmv_par(
    m: &SellMatrix,
    a: f64,
    b: f64,
    v: &[Complex64],
    w: &mut [Complex64],
) -> AugDots {
    assert_eq!(v.len(), m.ncols(), "aug_spmv_par: v dimension mismatch");
    assert_eq!(w.len(), m.nrows(), "aug_spmv_par: w dimension mismatch");
    assert_eq!(m.nrows(), m.ncols(), "aug_spmv_par: matrix must be square");
    let _probe = kernel_timer_fmt(
        KernelKind::AugSpmv,
        m.nrows(),
        m.nnz(),
        1,
        m.stored_elements(),
        ProbeFormat::Sell,
    );
    aug_spmv_par_unprobed(m, a, b, v, w)
}

/// Augmented SpMMV on SELL-C-σ over row-major block vectors;
/// bitwise-identical to [`crate::aug::aug_spmmv`] on the source
/// matrix.
pub fn aug_spmmv(
    m: &SellMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
) -> AugDotsBlock {
    let r_width = check_block_dims(m, v, w);
    let _probe = kernel_timer_fmt(
        KernelKind::AugSpmmv,
        m.nrows(),
        m.nnz(),
        r_width,
        m.stored_elements(),
        ProbeFormat::Sell,
    );
    if r_width == 1 {
        // Same width-1 dispatch as the CRS blocked kernels.
        return widen(aug_spmv_core_sell(m, a, b, v.as_slice(), w.as_mut_slice()));
    }
    let c = m.chunk_height();
    let nrows = m.nrows();
    let n_chunks = m.chunk_ptr.len() - 1;
    let win = window_chunks(m);
    let use_simd = crate::simd::active();
    let mut acc = vec![Complex64::default(); c * r_width];
    let mut eta_even = vec![0.0; r_width];
    let mut eta_odd = vec![Complex64::default(); r_width];
    let mut ci = 0;
    while ci < n_chunks {
        let w_end = (ci + win).min(n_chunks);
        for cj in ci..w_end {
            scatter_chunk_block(m, cj, a, b, v, w, &mut acc, use_simd);
        }
        for r in (ci * c)..(w_end * c).min(nrows) {
            let vrow = v.row(r);
            let wrow = w.row(r);
            for j in 0..r_width {
                let vr = vrow[j];
                eta_even[j] += vr.norm_sqr();
                eta_odd[j] = wrow[j].conj().mul_add(vr, eta_odd[j]);
            }
        }
        ci = w_end;
    }
    AugDotsBlock { eta_even, eta_odd }
}

/// The serial fused single-vector sweep without a probe, for the
/// width-1 dispatch (the caller opened an `AugSpmmv` probe).
fn aug_spmv_core_sell(
    m: &SellMatrix,
    a: f64,
    b: f64,
    v: &[Complex64],
    w: &mut [Complex64],
) -> AugDots {
    let c = m.chunk_height();
    let nrows = m.nrows();
    let n_chunks = m.chunk_ptr.len() - 1;
    let win = window_chunks(m);
    let use_simd = crate::simd::active();
    let mut acc = vec![Complex64::default(); c];
    let mut eta_even = 0.0;
    let mut eta_odd = Complex64::default();
    let mut ci = 0;
    while ci < n_chunks {
        let w_end = (ci + win).min(n_chunks);
        for cj in ci..w_end {
            scatter_chunk(m, cj, a, b, v, w, &mut acc, use_simd);
        }
        for r in (ci * c)..(w_end * c).min(nrows) {
            let vr = v[r];
            eta_even += vr.norm_sqr();
            eta_odd = w[r].conj().mul_add(vr, eta_odd);
        }
        ci = w_end;
    }
    AugDots { eta_even, eta_odd }
}

/// One chunk of the fused blocked update (serial path). Writes the
/// updated `w` rows; dot accumulation happens in the caller's window
/// replay.
#[inline]
#[allow(clippy::too_many_arguments)] // internal kernel body
fn scatter_chunk_block(
    m: &SellMatrix,
    ci: usize,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
    acc: &mut [Complex64],
    use_simd: bool,
) {
    let c = m.chunk_height();
    let r_width = v.width();
    let base = m.chunk_ptr[ci] as usize;
    let len = m.chunk_len[ci] as usize;
    acc.fill(Complex64::default());
    for j in 0..len {
        let off = base + j * c;
        for lane in 0..c {
            let val = m.vals[off + lane];
            if val == Complex64::default() {
                continue; // padding
            }
            let col = m.cols[off + lane] as usize;
            let xrow = v.row(col);
            let arow = &mut acc[lane * r_width..(lane + 1) * r_width];
            axpy_row(val, xrow, arow, use_simd);
        }
    }
    let lo = ci * c;
    #[allow(clippy::needless_range_loop)] // lockstep lane loop
    for lane in 0..c {
        let sell_row = lo + lane;
        if sell_row < m.nrows() {
            let orig = m.perm[sell_row] as usize;
            let vrow = v.row(orig);
            let arow = &acc[lane * r_width..(lane + 1) * r_width];
            let wrow = w.row_mut(orig);
            for j in 0..r_width {
                let vr = vrow[j];
                wrow[j] = (arow[j] - vr.scale(b)).scale(2.0 * a) - wrow[j];
            }
        }
    }
}

/// Chunk-parallel augmented SELL SpMMV at the default per-thread cache
/// budget; bitwise-identical to [`crate::aug::aug_spmmv_par`].
pub fn aug_spmmv_par(
    m: &SellMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
) -> AugDotsBlock {
    aug_spmmv_par_budget(m, a, b, v, w, crate::tile::DEFAULT_CACHE_BYTES)
}

/// [`aug_spmmv_par`] against an explicit per-thread cache budget;
/// bitwise-identical to [`crate::aug::aug_spmmv_par_budget`] at the
/// same budget (the dot replay tiles on the identical
/// [`crate::tile::tile_rows_for_budget`] boundaries, combined in index
/// order).
pub fn aug_spmmv_par_budget(
    m: &SellMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
    cache_bytes: usize,
) -> AugDotsBlock {
    let r_width = check_block_dims(m, v, w);
    let _probe = kernel_timer_fmt(
        KernelKind::AugSpmmv,
        m.nrows(),
        m.nnz(),
        r_width,
        m.stored_elements(),
        ProbeFormat::Sell,
    );
    if r_width == 1 {
        return widen(aug_spmv_par_unprobed(
            m,
            a,
            b,
            v.as_slice(),
            w.as_mut_slice(),
        ));
    }
    // Pass 1: parallel scatter of the recurrence update.
    scatter_par_block(m, a, b, v, w);
    // Pass 2: dot replay on the CRS tile boundaries, combined in index
    // order exactly as the CRS kernel combines its per-tile partials.
    let rows_per_tile = crate::tile::tile_rows_for_budget(r_width, cache_bytes);
    let partials: Vec<(Vec<f64>, Vec<Complex64>)> = w
        .as_slice()
        .par_chunks(rows_per_tile * r_width)
        .enumerate()
        .map(|(ti, wc)| {
            let row0 = ti * rows_per_tile;
            let mut even = vec![0.0; r_width];
            let mut odd = vec![Complex64::default(); r_width];
            for (i, wrow) in wc.chunks(r_width).enumerate() {
                let vrow = v.row(row0 + i);
                for j in 0..r_width {
                    let vr = vrow[j];
                    even[j] += vr.norm_sqr();
                    odd[j] = wrow[j].conj().mul_add(vr, odd[j]);
                }
            }
            (even, odd)
        })
        .collect();
    let mut eta_even = vec![0.0; r_width];
    let mut eta_odd = vec![Complex64::default(); r_width];
    for (even, odd) in &partials {
        for j in 0..r_width {
            eta_even[j] += even[j];
            eta_odd[j] += odd[j];
        }
    }
    AugDotsBlock { eta_even, eta_odd }
}

/// Shared unprobed body of [`aug_spmv_par`] / its width-1 dispatch:
/// parallel scatter pass, then the dot products replayed over the fixed
/// [`ROWS_PER_CHUNK`] boundaries and combined pairwise.
fn aug_spmv_par_unprobed(
    m: &SellMatrix,
    a: f64,
    b: f64,
    v: &[Complex64],
    w: &mut [Complex64],
) -> AugDots {
    let c = m.chunk_height();
    let cpt = m.chunks_per_task();
    let nrows = m.nrows();
    let use_simd = crate::simd::active();
    {
        let w_out = ScatterPtr(w.as_mut_ptr());
        let w_out = &w_out;
        m.chunk_len
            .par_chunks(cpt)
            .enumerate()
            .for_each(|(group, lens)| {
                let mut acc = vec![Complex64::default(); c];
                for (k, &len) in lens.iter().enumerate() {
                    let ci = group * cpt + k;
                    let base = m.chunk_ptr[ci] as usize;
                    let len = len as usize;
                    accum_chunk(&m.cols, &m.vals, base, len, c, v, &mut acc, use_simd);
                    let lo = ci * c;
                    #[allow(clippy::needless_range_loop)] // lockstep lane loop
                    for lane in 0..c {
                        let sell_row = lo + lane;
                        if sell_row < nrows {
                            let orig = m.perm[sell_row] as usize;
                            // SAFETY: exclusive row per task (perm is a
                            // permutation partitioned across tasks).
                            let old = unsafe { *w_out.0.add(orig) };
                            let vr = v[orig];
                            let wr = (acc[lane] - vr.scale(b)).scale(2.0 * a) - old;
                            // SAFETY: see above — same exclusive row.
                            unsafe { *w_out.0.add(orig) = wr };
                        }
                    }
                }
            });
    }
    let partials: Vec<(f64, Complex64)> = w
        .par_chunks(ROWS_PER_CHUNK)
        .enumerate()
        .map(|(ci, wc)| {
            let row0 = ci * ROWS_PER_CHUNK;
            let mut even = 0.0;
            let mut odd = Complex64::default();
            for (i, wr) in wc.iter().enumerate() {
                let vr = v[row0 + i];
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

/// The parallel scatter pass of the blocked kernels: applies the
/// recurrence update to every `w` row, chunk groups in parallel, no dot
/// accumulation.
fn scatter_par_block(m: &SellMatrix, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
    let c = m.chunk_height();
    let r_width = v.width();
    let cpt = m.chunks_per_task();
    let nrows = m.nrows();
    let use_simd = crate::simd::active();
    let w_out = ScatterPtr(w.as_mut_slice().as_mut_ptr());
    let w_out = &w_out;
    m.chunk_len
        .par_chunks(cpt)
        .enumerate()
        .for_each(|(group, lens)| {
            let mut acc = vec![Complex64::default(); c * r_width];
            for (k, &len) in lens.iter().enumerate() {
                let ci = group * cpt + k;
                let base = m.chunk_ptr[ci] as usize;
                let len = len as usize;
                acc.fill(Complex64::default());
                for j in 0..len {
                    let off = base + j * c;
                    for lane in 0..c {
                        let val = m.vals[off + lane];
                        if val == Complex64::default() {
                            continue; // padding
                        }
                        let col = m.cols[off + lane] as usize;
                        let xrow = v.row(col);
                        let arow = &mut acc[lane * r_width..(lane + 1) * r_width];
                        axpy_row(val, xrow, arow, use_simd);
                    }
                }
                let lo = ci * c;
                #[allow(clippy::needless_range_loop)] // lockstep lane loop
                for lane in 0..c {
                    let sell_row = lo + lane;
                    if sell_row < nrows {
                        let orig = m.perm[sell_row] as usize;
                        let vrow = v.row(orig);
                        let arow = &acc[lane * r_width..(lane + 1) * r_width];
                        // SAFETY: row `orig` spans elements
                        // `orig*r_width..(orig+1)*r_width`; rows are
                        // read+written by exactly one chunk of one task
                        // (perm is a permutation; chunks partitioned
                        // disjointly).
                        let wrow = unsafe {
                            std::slice::from_raw_parts_mut(w_out.0.add(orig * r_width), r_width)
                        };
                        for j in 0..r_width {
                            let vr = vrow[j];
                            wrow[j] = (arow[j] - vr.scale(b)).scale(2.0 * a) - wrow[j];
                        }
                    }
                }
            }
        });
}

/// Augmented SELL SpMMV *without* the fused scalar products (the
/// paper's Fig. 10(b) kernel); bitwise-identical to
/// [`crate::aug::aug_spmmv_nodot`].
pub fn aug_spmmv_nodot(m: &SellMatrix, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
    let r_width = check_block_dims(m, v, w);
    let _probe = kernel_timer_fmt(
        KernelKind::AugSpmmv,
        m.nrows(),
        m.nnz(),
        r_width,
        m.stored_elements(),
        ProbeFormat::Sell,
    );
    let n_chunks = m.chunk_ptr.len() - 1;
    let use_simd = crate::simd::active();
    if r_width == 1 {
        let mut acc = vec![Complex64::default(); m.chunk_height()];
        let (vs, ws) = (v.as_slice(), w.as_mut_slice());
        for ci in 0..n_chunks {
            scatter_chunk(m, ci, a, b, vs, ws, &mut acc, use_simd);
        }
        return;
    }
    let mut acc = vec![Complex64::default(); m.chunk_height() * r_width];
    for ci in 0..n_chunks {
        scatter_chunk_block(m, ci, a, b, v, w, &mut acc, use_simd);
    }
}

/// Parallel variant of [`aug_spmmv_nodot`]; bitwise-identical to
/// [`crate::aug::aug_spmmv_nodot_par`].
pub fn aug_spmmv_nodot_par(m: &SellMatrix, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
    let r_width = check_block_dims(m, v, w);
    let _probe = kernel_timer_fmt(
        KernelKind::AugSpmmv,
        m.nrows(),
        m.nnz(),
        r_width,
        m.stored_elements(),
        ProbeFormat::Sell,
    );
    scatter_par_block(m, a, b, v, w);
}

fn check_block_dims(m: &SellMatrix, v: &BlockVector, w: &BlockVector) -> usize {
    assert_eq!(
        m.nrows(),
        m.ncols(),
        "augmented kernels need a square matrix"
    );
    assert_eq!(v.rows(), m.ncols(), "block v dimension mismatch");
    assert_eq!(w.rows(), m.nrows(), "block w dimension mismatch");
    assert_eq!(v.width(), w.width(), "block width mismatch");
    v.width()
}

/// Augmented SELL SpMMV over a *local* (rectangular, `ncols >= nrows`)
/// matrix block, the distributed building block; bitwise-identical to
/// [`crate::aug::aug_spmmv_rect`]. Serial, like its CRS counterpart
/// (ranks parallelize across each other, not within).
pub fn aug_spmmv_rect(
    m: &SellMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
) -> AugDotsBlock {
    assert!(
        m.ncols() >= m.nrows(),
        "local matrix must have ncols >= nrows"
    );
    assert_eq!(v.rows(), m.ncols(), "block v dimension mismatch");
    assert!(w.rows() >= m.nrows(), "block w too small");
    assert_eq!(v.width(), w.width(), "block width mismatch");
    let r_width = v.width();
    let _probe = kernel_timer_fmt(
        KernelKind::AugSpmmv,
        m.nrows(),
        m.nnz(),
        r_width,
        m.stored_elements(),
        ProbeFormat::Sell,
    );
    let n_chunks = m.chunk_ptr.len() - 1;
    let use_simd = crate::simd::active();
    let mut acc = vec![Complex64::default(); m.chunk_height() * r_width];
    for ci in 0..n_chunks {
        scatter_chunk_block(m, ci, a, b, v, w, &mut acc, use_simd);
    }
    // Dot replay over all local rows in original order (one "window":
    // the rect kernel is serial, so no boundary constraints apply).
    let mut eta_even = vec![0.0; r_width];
    let mut eta_odd = vec![Complex64::default(); r_width];
    for r in 0..m.nrows() {
        let vrow = v.row(r);
        let wrow = w.row(r);
        for j in 0..r_width {
            let vr = vrow[j];
            eta_even[j] += vr.norm_sqr();
            eta_odd[j] = wrow[j].conj().mul_add(vr, eta_odd[j]);
        }
    }
    AugDotsBlock { eta_even, eta_odd }
}

/// Plain rectangular SELL SpMMV `W[0..nrows] = H V` on the extended
/// column space (distributed initialization); value-identical to
/// [`crate::aug::spmmv_rect`].
pub fn spmmv_rect(m: &SellMatrix, v: &BlockVector, w: &mut BlockVector) {
    assert!(
        m.ncols() >= m.nrows(),
        "local matrix must have ncols >= nrows"
    );
    assert_eq!(v.rows(), m.ncols(), "block v dimension mismatch");
    assert!(w.rows() >= m.nrows(), "block w too small");
    assert_eq!(v.width(), w.width(), "block width mismatch");
    let c = m.chunk_height();
    let r_width = v.width();
    let n_chunks = m.chunk_ptr.len() - 1;
    let use_simd = crate::simd::active();
    let mut acc = vec![Complex64::default(); c * r_width];
    for ci in 0..n_chunks {
        let base = m.chunk_ptr[ci] as usize;
        let len = m.chunk_len[ci] as usize;
        acc.fill(Complex64::default());
        for j in 0..len {
            let off = base + j * c;
            for lane in 0..c {
                let val = m.vals[off + lane];
                if val == Complex64::default() {
                    continue; // padding
                }
                let col = m.cols[off + lane] as usize;
                let xrow = v.row(col);
                let arow = &mut acc[lane * r_width..(lane + 1) * r_width];
                axpy_row(val, xrow, arow, use_simd);
            }
        }
        let lo = ci * c;
        #[allow(clippy::needless_range_loop)] // lockstep lane loop
        for lane in 0..c {
            let sell_row = lo + lane;
            if sell_row < m.nrows() {
                let orig = m.perm[sell_row] as usize;
                w.row_mut(orig)
                    .copy_from_slice(&acc[lane * r_width..(lane + 1) * r_width]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aug;
    use crate::coo::CooMatrix;
    use crate::crs::CrsMatrix;
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
                    let z = Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    coo.push(r, c, z);
                    coo.push(c, r, z.conj());
                }
            }
        }
        coo.to_crs()
    }

    fn cvec(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    const CONFIGS: [(usize, usize); 6] = [(1, 1), (4, 1), (4, 16), (8, 8), (8, 32), (32, 64)];

    #[test]
    fn aug_spmv_is_bitwise_equal_to_crs() {
        let n = 157;
        let h = random_hermitian(n, 7);
        let v = cvec(n, 8);
        let w0 = cvec(n, 9);
        let mut w_ref = w0.clone();
        let d_ref = aug::aug_spmv(&h, 0.47, -0.21, &v, &mut w_ref);
        for (c, sigma) in CONFIGS {
            let sell = SellMatrix::from_crs(&h, c, sigma);
            let mut w = w0.clone();
            let d = aug_spmv(&sell, 0.47, -0.21, &v, &mut w);
            assert_eq!(w, w_ref, "C={c} sigma={sigma}");
            assert_eq!(d.eta_even.to_bits(), d_ref.eta_even.to_bits());
            assert_eq!(d.eta_odd, d_ref.eta_odd, "C={c} sigma={sigma}");
        }
    }

    #[test]
    fn aug_spmv_par_is_bitwise_equal_to_crs_par() {
        let n = 2100; // > ROWS_PER_CHUNK: several dot partials
        let h = random_hermitian(n, 17);
        let v = cvec(n, 18);
        let w0 = cvec(n, 19);
        let mut w_ref = w0.clone();
        let d_ref = aug::aug_spmv_par(&h, 0.33, 0.11, &v, &mut w_ref);
        for (c, sigma) in CONFIGS {
            let sell = SellMatrix::from_crs(&h, c, sigma);
            for threads in [1usize, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut w = w0.clone();
                let d = pool.install(|| aug_spmv_par(&sell, 0.33, 0.11, &v, &mut w));
                assert_eq!(w, w_ref, "C={c} sigma={sigma} threads={threads}");
                assert_eq!(d.eta_even.to_bits(), d_ref.eta_even.to_bits());
                assert_eq!(d.eta_odd, d_ref.eta_odd);
            }
        }
    }

    #[test]
    fn aug_spmmv_is_bitwise_equal_to_crs() {
        let n = 143;
        let h = random_hermitian(n, 27);
        for r_width in [1usize, 3, 8] {
            let mut rng = StdRng::seed_from_u64(28 + r_width as u64);
            let v = BlockVector::random(n, r_width, &mut rng);
            let w0 = BlockVector::random(n, r_width, &mut rng);
            let mut w_ref = w0.clone();
            let d_ref = aug::aug_spmmv(&h, 0.6, -0.05, &v, &mut w_ref);
            for (c, sigma) in CONFIGS {
                let sell = SellMatrix::from_crs(&h, c, sigma);
                let mut w = w0.clone();
                let d = aug_spmmv(&sell, 0.6, -0.05, &v, &mut w);
                assert_eq!(w.max_abs_diff(&w_ref), 0.0, "R={r_width} C={c} s={sigma}");
                assert_eq!(d, d_ref, "R={r_width} C={c} sigma={sigma}");
            }
        }
    }

    #[test]
    fn aug_spmmv_par_is_bitwise_equal_to_crs_par() {
        let n = 1300; // > 2 tiles at R=8
        let h = random_hermitian(n, 37);
        for r_width in [1usize, 8] {
            let mut rng = StdRng::seed_from_u64(38 + r_width as u64);
            let v = BlockVector::random(n, r_width, &mut rng);
            let w0 = BlockVector::random(n, r_width, &mut rng);
            let mut w_ref = w0.clone();
            let d_ref = aug::aug_spmmv_par(&h, 0.4, -0.3, &v, &mut w_ref);
            for (c, sigma) in [(4usize, 16usize), (8, 8), (32, 64)] {
                let sell = SellMatrix::from_crs(&h, c, sigma).with_chunks_per_task(3);
                for threads in [1usize, 4] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let mut w = w0.clone();
                    let d = pool.install(|| aug_spmmv_par(&sell, 0.4, -0.3, &v, &mut w));
                    assert_eq!(w.max_abs_diff(&w_ref), 0.0, "R={r_width} C={c}");
                    assert_eq!(d, d_ref, "R={r_width} C={c} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn nodot_variants_match_crs() {
        let n = 120;
        let h = random_hermitian(n, 47);
        for r_width in [1usize, 4] {
            let mut rng = StdRng::seed_from_u64(48 + r_width as u64);
            let v = BlockVector::random(n, r_width, &mut rng);
            let w0 = BlockVector::random(n, r_width, &mut rng);
            let mut w_ref = w0.clone();
            aug::aug_spmmv_nodot(&h, 0.8, 0.15, &v, &mut w_ref);
            for (c, sigma) in [(4usize, 8usize), (8, 32)] {
                let sell = SellMatrix::from_crs(&h, c, sigma);
                let mut w = w0.clone();
                aug_spmmv_nodot(&sell, 0.8, 0.15, &v, &mut w);
                assert_eq!(w.max_abs_diff(&w_ref), 0.0, "serial R={r_width} C={c}");
                let mut w = w0.clone();
                aug_spmmv_nodot_par(&sell, 0.8, 0.15, &v, &mut w);
                assert_eq!(w.max_abs_diff(&w_ref), 0.0, "par R={r_width} C={c}");
            }
        }
    }

    #[test]
    fn rect_kernels_match_crs_rect() {
        // Local block: 40 rows over a 40+15 extended column space.
        let n = 55;
        let h_full = random_hermitian(n, 57);
        let local = h_full.row_block(0, 40);
        let mut rng = StdRng::seed_from_u64(58);
        let v = BlockVector::random(local.ncols().max(n), 3, &mut rng);
        let w0 = BlockVector::random(local.ncols().max(n), 3, &mut rng);
        let mut w_ref = w0.clone();
        let d_ref = aug::aug_spmmv_rect(&local, 0.7, 0.02, &v, &mut w_ref);
        for (c, sigma) in [(1usize, 1usize), (8, 16)] {
            let sell = SellMatrix::from_crs(&local, c, sigma);
            let mut w = w0.clone();
            let d = aug_spmmv_rect(&sell, 0.7, 0.02, &v, &mut w);
            assert_eq!(w.max_abs_diff(&w_ref), 0.0, "C={c} sigma={sigma}");
            assert_eq!(d, d_ref);
            let mut y = BlockVector::zeros(v.rows(), 3);
            let mut y_ref = BlockVector::zeros(v.rows(), 3);
            aug::spmmv_rect(&local, &v, &mut y_ref);
            spmmv_rect(&sell, &v, &mut y);
            assert_eq!(y.max_abs_diff(&y_ref), 0.0, "C={c} sigma={sigma}");
        }
    }
}
