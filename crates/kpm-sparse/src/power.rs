//! Level-blocked Chebyshev matrix-power kernels.
//!
//! The KPM sweep streams the matrix once per Chebyshev iteration; for
//! the memory-bound regimes of the paper that stream *is* the runtime.
//! Matrix-power kernels (Alappat et al., arXiv:2205.01598; the blocking
//! outlook of Kreutzer et al., arXiv:1410.5242) execute `p` consecutive
//! iterations per pass: the row space is split into *levels* such that
//! every row's columns stay within the neighbouring levels, and a
//! skewed wavefront walks the levels once while applying all `p`
//! updates to a cache-resident window — the matrix (or, for the stencil
//! format, the regeneration work) is traversed once per `p` iterations.
//!
//! ## Level construction
//!
//! Levels are contiguous row ranges `[b_ℓ, b_{ℓ+1})` built greedily:
//! `b_{ℓ+1} = max(b_ℓ + 1, 1 + max{hi(r) : r < b_ℓ})` where `hi(r)` is
//! the largest column of row `r`. By construction the columns of level
//! `ℓ` stay below `b_{ℓ+2}`; the matching *lower* bound (columns of
//! level `ℓ` at or above `b_{ℓ-1}`) follows from structural Hermitian
//! symmetry and is verified during the build — matrices that violate it
//! get no level set and fall back to plain sweeps.
//!
//! ## Why the wavefront is bitwise-deterministic
//!
//! The schedule runs outer steps `s`; step `s` executes iteration `t`
//! on level `ℓ = s − t` for every admissible `t` in *increasing* order,
//! serially. Iteration `t` reads the buffer written by `t−1` on levels
//! `ℓ−1..ℓ+1` — all complete, because `t−1` finished level `ℓ+1`
//! earlier in the same step — and overwrites level `ℓ` of the buffer
//! holding iteration `t−2`'s values, which `t−1` (the only remaining
//! reader of that buffer) has already consumed up to level `ℓ+1`.
//! Hence, per iteration `t`, rows are processed exactly once and in
//! globally ascending row order — the same order as `p` plain sweeps —
//! and every per-row update applies the identical floating-point chain
//! of [`crate::aug`]. The dot products accumulate on the *same* fixed
//! grids as the plain kernels (running scalars serially; 1024-row
//! chunks with pairwise combine at width 1 in parallel; cache-budget
//! tiles with linear combine at width > 1 in parallel), with each grid
//! slot filled in ascending row order across wavefront steps. Within a
//! level, parallelism only spans whole grid-aligned chunks, so slot
//! boundaries never depend on the thread count. Moments are therefore
//! bitwise-identical to `p` applications of the plain kernels at any
//! thread count — the property the power determinism tests pin down.

use kpm_num::summation::{pairwise_sum, pairwise_sum_complex};
use kpm_num::{BlockVector, Complex64};
use kpm_obs::probe::{kernel_timer_fmt, KernelKind, ProbeFormat};
use rayon::prelude::*;

use crate::aug::AugDotsBlock;
use crate::crs::CrsMatrix;
use crate::stencil::StencilMatrix;
use crate::sweep::ROWS_PER_CHUNK;

pub use crate::stencil::MAX_ROW_ENTRIES;

/// Default budget (bytes) for the wavefront's vector window; roughly
/// an LLC share. Callers with a machine model should override it from
/// `Machine::tile_budget_bytes()` × thread count (see `KpmMatrix`).
pub const DEFAULT_POWER_BUDGET_BYTES: usize = 8 * 1024 * 1024;

/// Scratch a [`PowerRows`] implementation may use to materialize one
/// row: stack arrays for the entries plus the stencil generator's
/// per-site geometry cache. One per worker; never shared.
pub struct RowBuf {
    pub(crate) cols: [u32; MAX_ROW_ENTRIES],
    pub(crate) vals: [Complex64; MAX_ROW_ENTRIES],
    pub(crate) site: usize,
    pub(crate) neigh: [Option<u32>; 6],
}

impl RowBuf {
    /// A fresh scratch buffer.
    pub fn new() -> Self {
        Self {
            cols: [0; MAX_ROW_ENTRIES],
            vals: [Complex64::default(); MAX_ROW_ENTRIES],
            site: usize::MAX,
            neigh: [None; 6],
        }
    }
}

impl Default for RowBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// Row access the power kernels need: a way to visit row `r`'s
/// `(columns, values)` in ascending column order, either borrowed from
/// storage (CRS) or regenerated into the scratch (stencil).
pub trait PowerRows: Sync {
    /// Number of rows (the operator is square).
    fn nrows(&self) -> usize;
    /// Number of logical non-zeros.
    fn nnz(&self) -> usize;
    /// Storage format tag for probe accounting.
    fn probe_format(&self) -> ProbeFormat;
    /// Row `r` as `(cols, vals)` slices, valid until the next call.
    fn row<'a>(&'a self, r: usize, buf: &'a mut RowBuf) -> (&'a [u32], &'a [Complex64]);
}

impl PowerRows for CrsMatrix {
    fn nrows(&self) -> usize {
        CrsMatrix::nrows(self)
    }
    fn nnz(&self) -> usize {
        CrsMatrix::nnz(self)
    }
    fn probe_format(&self) -> ProbeFormat {
        ProbeFormat::Crs
    }
    fn row<'a>(&'a self, r: usize, _buf: &'a mut RowBuf) -> (&'a [u32], &'a [Complex64]) {
        (self.row_cols(r), self.row_vals(r))
    }
}

impl PowerRows for StencilMatrix {
    fn nrows(&self) -> usize {
        StencilMatrix::nrows(self)
    }
    fn nnz(&self) -> usize {
        StencilMatrix::nnz(self)
    }
    fn probe_format(&self) -> ProbeFormat {
        ProbeFormat::Stencil
    }
    fn row<'a>(&'a self, r: usize, buf: &'a mut RowBuf) -> (&'a [u32], &'a [Complex64]) {
        let RowBuf {
            cols,
            vals,
            site,
            neigh,
        } = buf;
        let len = self.regen_row(r, site, neigh, cols, vals);
        (&buf.cols[..len], &buf.vals[..len])
    }
}

/// A partition of the row space into contiguous levels whose columns
/// stay within the adjacent levels — the structure the wavefront
/// schedule relies on.
#[derive(Debug, Clone)]
pub struct LevelSet {
    /// Level boundaries `b_0 = 0 < b_1 < … < b_L = nrows`.
    bounds: Vec<usize>,
}

impl LevelSet {
    /// Builds the level set for a structurally (near-)symmetric
    /// operator, or `None` when the lower-bound property does not hold
    /// (callers then fall back to plain sweeps; correctness never
    /// depends on a level set existing).
    pub fn build<M: PowerRows + ?Sized>(m: &M) -> Option<LevelSet> {
        let n = m.nrows();
        if n == 0 {
            return None;
        }
        let mut buf = RowBuf::new();
        let mut hi = vec![0usize; n];
        let mut lo = vec![0usize; n];
        for r in 0..n {
            let (cols, _) = m.row(r, &mut buf);
            let mut h = r;
            let mut l = r;
            for &c in cols {
                h = h.max(c as usize);
                l = l.min(c as usize);
            }
            hi[r] = h;
            lo[r] = l;
        }
        // prefix_hi[e] = 1 + max{hi[r] : r < e}: the least bound that
        // covers every column referenced by the first `e` rows.
        let mut prefix_hi = vec![0usize; n + 1];
        let mut running = 0usize;
        for r in 0..n {
            running = running.max(hi[r] + 1);
            prefix_hi[r + 1] = running;
        }
        let mut bounds = vec![0usize];
        let mut prev = 0usize;
        while prev < n {
            let next = prefix_hi[prev.max(1)].max(prev + 1).min(n);
            bounds.push(next);
            prev = next;
        }
        let levels = LevelSet { bounds };
        // Verify the symmetric lower bound the 2-buffer wavefront needs:
        // rows of level ℓ reference no column below b_{ℓ-1}.
        for i in 1..levels.n_levels() {
            let floor = levels.bounds[i - 1];
            let (r0, r1) = levels.level(i);
            if lo[r0..r1].iter().any(|&c| c < floor) {
                return None;
            }
        }
        // The matching upper bound holds by construction.
        if cfg!(debug_assertions) {
            for i in 0..levels.n_levels() {
                let ceil = levels.bounds[(i + 2).min(levels.n_levels())];
                let (r0, r1) = levels.level(i);
                for (off, &h) in hi[r0..r1].iter().enumerate() {
                    let r = r0 + off;
                    debug_assert!(h < ceil, "level upper bound violated at row {r}");
                }
            }
        }
        Some(levels)
    }

    /// Number of levels `L`.
    pub fn n_levels(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Row range `[lo, hi)` of level `i`.
    pub fn level(&self, i: usize) -> (usize, usize) {
        (self.bounds[i], self.bounds[i + 1])
    }

    /// Widest run of `p + 2` consecutive levels (rows): the vector
    /// window the wavefront keeps live for a depth-`p` pass.
    pub fn window_rows(&self, p: usize) -> usize {
        let l = self.n_levels();
        let span = (p + 2).min(l);
        (0..=(l - span))
            .map(|i| self.bounds[i + span] - self.bounds[i])
            .max()
            .unwrap_or(0)
    }
}

/// Whether a depth-`p` wavefront pass is worthwhile: enough levels to
/// pipeline and a live vector window (two buffers of `window_rows`
/// rows × `r_width`) that fits the budget. Purely a performance
/// decision — both paths produce identical bits.
pub fn power_feasible(
    levels: &LevelSet,
    p: usize,
    r_width: usize,
    window_budget_bytes: usize,
) -> bool {
    p >= 2
        && levels.n_levels() >= p + 2
        && 2 * levels.window_rows(p) * r_width.max(1) * 16 <= window_budget_bytes
}

fn check_dims<M: PowerRows + ?Sized>(m: &M, v: &BlockVector, w: &BlockVector) -> usize {
    assert_eq!(v.rows(), m.nrows(), "power: block v dimension mismatch");
    assert_eq!(w.rows(), m.nrows(), "power: block w dimension mismatch");
    assert_eq!(v.width(), w.width(), "power: block width mismatch");
    v.width()
}

/// Applies the augmented update chain to rows `[r0, r1)` for one
/// iteration, reading `read` and writing `write`, accumulating the dot
/// products into the caller's running `even`/`odd` (serial form:
/// identical op sequence to the serial plain kernels).
#[allow(clippy::too_many_arguments)]
fn sweep_rows_serial<M: PowerRows + ?Sized>(
    m: &M,
    a: f64,
    b: f64,
    read: &BlockVector,
    write: &mut BlockVector,
    r0: usize,
    r1: usize,
    buf: &mut RowBuf,
    acc: &mut [Complex64],
    even: &mut [f64],
    odd: &mut [Complex64],
) {
    let rw = acc.len();
    for r in r0..r1 {
        let (rcols, rvals) = m.row(r, buf);
        acc.fill(Complex64::default());
        for (hv, &c) in rvals.iter().zip(rcols) {
            let xrow = read.row(c as usize);
            for j in 0..rw {
                acc[j] = hv.mul_add(xrow[j], acc[j]);
            }
        }
        let vrow = read.row(r);
        let wrow = write.row_mut(r);
        for j in 0..rw {
            let vr = vrow[j];
            let wr = (acc[j] - vr.scale(b)).scale(2.0 * a) - wrow[j];
            wrow[j] = wr;
            even[j] += vr.norm_sqr();
            odd[j] = wr.conj().mul_add(vr, odd[j]);
        }
    }
}

/// Serial level-blocked matrix-power pass: executes `p` Chebyshev
/// iterations in one wavefront traversal. On entry `(v, w)` hold
/// `(x_{k−1}, x_k)`; on exit they hold `(x_{k+p−1}, x_{k+p})`, and the
/// returned dots are those of the `p` plain sweeps, bit for bit.
pub fn aug_spmmv_power<M: PowerRows + ?Sized>(
    m: &M,
    levels: &LevelSet,
    p: usize,
    a: f64,
    b: f64,
    v: &mut BlockVector,
    w: &mut BlockVector,
) -> Vec<AugDotsBlock> {
    let rw = check_dims(m, v, w);
    assert!(p >= 1, "power depth must be at least 1");
    let _probe = kernel_timer_fmt(
        KernelKind::AugSpmmv,
        p * m.nrows(),
        p * m.nnz(),
        rw,
        m.probe_format(),
    );
    let l = levels.n_levels();
    let mut even = vec![vec![0.0; rw]; p];
    let mut odd = vec![vec![Complex64::default(); rw]; p];
    let mut buf = RowBuf::new();
    let mut acc = vec![Complex64::default(); rw];
    for s in 0..(l + p - 1) {
        let t_lo = (s + 1).saturating_sub(l);
        let t_hi = s.min(p - 1);
        for t in t_lo..=t_hi {
            let (r0, r1) = levels.level(s - t);
            // Iteration parity: t even reads w and overwrites v
            // (x_{k+t−1}), t odd the reverse — two buffers suffice.
            let (read, write): (&BlockVector, &mut BlockVector) = if t % 2 == 0 {
                (&*w, &mut *v)
            } else {
                (&*v, &mut *w)
            };
            sweep_rows_serial(
                m,
                a,
                b,
                read,
                write,
                r0,
                r1,
                &mut buf,
                &mut acc,
                &mut even[t],
                &mut odd[t],
            );
        }
    }
    if p % 2 == 1 {
        // Odd depth leaves the newest iterate in v; restore the
        // (previous, current) = (v, w) calling convention.
        v.swap(w);
    }
    even.into_iter()
        .zip(odd)
        .map(|(eta_even, eta_odd)| AugDotsBlock { eta_even, eta_odd })
        .collect()
}

/// One iteration's dot-product grid: a partial `(even, odd)` pair per
/// fixed-size row chunk, filled in ascending row order.
type DotGrid = Vec<(Vec<f64>, Vec<Complex64>)>;

/// Processes rows `[r0, r1)` serially, accumulating dots *in place*
/// into the grid slots the rows belong to — the edge fragments of a
/// level that share a chunk with neighbouring levels. Continuing the
/// slot's running sums in ascending row order reproduces the plain
/// kernel's per-chunk accumulation exactly.
#[allow(clippy::too_many_arguments)]
fn sweep_fragment<M: PowerRows + ?Sized>(
    m: &M,
    a: f64,
    b: f64,
    read: &BlockVector,
    write: &mut BlockVector,
    r0: usize,
    r1: usize,
    chunk_rows: usize,
    grid: &mut DotGrid,
    buf: &mut RowBuf,
    acc: &mut [Complex64],
) {
    let rw = acc.len();
    for r in r0..r1 {
        let (rcols, rvals) = m.row(r, buf);
        acc.fill(Complex64::default());
        for (hv, &c) in rvals.iter().zip(rcols) {
            let xrow = read.row(c as usize);
            for j in 0..rw {
                acc[j] = hv.mul_add(xrow[j], acc[j]);
            }
        }
        let vrow = read.row(r);
        let wrow = write.row_mut(r);
        let (even, odd) = &mut grid[r / chunk_rows];
        for j in 0..rw {
            let vr = vrow[j];
            let wr = (acc[j] - vr.scale(b)).scale(2.0 * a) - wrow[j];
            wrow[j] = wr;
            even[j] += vr.norm_sqr();
            odd[j] = wr.conj().mul_add(vr, odd[j]);
        }
    }
}

/// Parallel level-blocked matrix-power pass; same contract as
/// [`aug_spmmv_power`], bitwise-identical to `p` applications of the
/// parallel plain kernels at the same cache budget for any thread
/// count.
#[allow(clippy::too_many_arguments)]
pub fn aug_spmmv_power_par<M: PowerRows + ?Sized>(
    m: &M,
    levels: &LevelSet,
    p: usize,
    a: f64,
    b: f64,
    v: &mut BlockVector,
    w: &mut BlockVector,
    cache_bytes: usize,
) -> Vec<AugDotsBlock> {
    let rw = check_dims(m, v, w);
    assert!(p >= 1, "power depth must be at least 1");
    let _probe = kernel_timer_fmt(
        KernelKind::AugSpmmv,
        p * m.nrows(),
        p * m.nnz(),
        rw,
        m.probe_format(),
    );
    // The plain parallel kernels' reduction grids: fixed 1024-row
    // chunks at width 1, cache-budget tiles otherwise. Chunk
    // boundaries are global (multiples from row 0), never per-level.
    let chunk_rows = if rw == 1 {
        ROWS_PER_CHUNK
    } else {
        crate::tile::tile_rows_for_budget(rw, cache_bytes)
    };
    let n = m.nrows();
    let n_chunks = n.div_ceil(chunk_rows);
    let mut grids: Vec<DotGrid> = (0..p)
        .map(|_| {
            (0..n_chunks)
                .map(|_| (vec![0.0; rw], vec![Complex64::default(); rw]))
                .collect()
        })
        .collect();
    let l = levels.n_levels();
    let mut buf = RowBuf::new();
    let mut acc = vec![Complex64::default(); rw];
    for s in 0..(l + p - 1) {
        let t_lo = (s + 1).saturating_sub(l);
        let t_hi = s.min(p - 1);
        for (t, grid) in grids.iter_mut().enumerate().take(t_hi + 1).skip(t_lo) {
            let (lo, hi) = levels.level(s - t);
            let (read, write): (&BlockVector, &mut BlockVector) = if t % 2 == 0 {
                (&*w, &mut *v)
            } else {
                (&*v, &mut *w)
            };
            // Split the level at global chunk boundaries: serial edge
            // fragments, parallel whole chunks.
            let fs = lo.div_ceil(chunk_rows) * chunk_rows;
            let fe = (hi / chunk_rows) * chunk_rows;
            if fs >= fe {
                sweep_fragment(
                    m, a, b, read, write, lo, hi, chunk_rows, grid, &mut buf, &mut acc,
                );
            } else {
                sweep_fragment(
                    m, a, b, read, write, lo, fs, chunk_rows, grid, &mut buf, &mut acc,
                );
                let mids: Vec<(Vec<f64>, Vec<Complex64>)> = write.as_mut_slice()[fs * rw..fe * rw]
                    .par_chunks_mut(chunk_rows * rw)
                    .enumerate()
                    .map(|(ci, wc)| {
                        let row0 = fs + ci * chunk_rows;
                        let mut cbuf = RowBuf::new();
                        // kpm::allow(hot_loop_alloc): per-task scratch, one allocation per parallel chunk, amortized over chunk_rows * rw row updates.
                        let mut cacc = vec![Complex64::default(); rw];
                        // kpm::allow(hot_loop_alloc): per-task scratch (see above).
                        let mut even = vec![0.0; rw];
                        // kpm::allow(hot_loop_alloc): per-task scratch (see above).
                        let mut odd = vec![Complex64::default(); rw];
                        for (i, wrow) in wc.chunks_mut(rw).enumerate() {
                            let r = row0 + i;
                            let (rcols, rvals) = m.row(r, &mut cbuf);
                            cacc.fill(Complex64::default());
                            for (hv, &c) in rvals.iter().zip(rcols) {
                                let xrow = read.row(c as usize);
                                for j in 0..rw {
                                    cacc[j] = hv.mul_add(xrow[j], cacc[j]);
                                }
                            }
                            let vrow = read.row(r);
                            for j in 0..rw {
                                let vr = vrow[j];
                                let wr = (cacc[j] - vr.scale(b)).scale(2.0 * a) - wrow[j];
                                wrow[j] = wr;
                                even[j] += vr.norm_sqr();
                                odd[j] = wr.conj().mul_add(vr, odd[j]);
                            }
                        }
                        (even, odd)
                    })
                    // kpm::allow(hot_loop_alloc): one partials vec per level fragment, amortized over the fragment's whole row range.
                    .collect();
                // A whole chunk inside one level is that chunk's entire
                // contribution for iteration t — assign, don't merge.
                for (ci, part) in mids.into_iter().enumerate() {
                    grid[fs / chunk_rows + ci] = part;
                }
                sweep_fragment(
                    m, a, b, read, write, fe, hi, chunk_rows, grid, &mut buf, &mut acc,
                );
            }
        }
    }
    if p % 2 == 1 {
        v.swap(w);
    }
    grids
        .into_iter()
        .map(|grid| {
            if rw == 1 {
                let even: Vec<f64> = grid.iter().map(|g| g.0[0]).collect();
                let odd: Vec<Complex64> = grid.iter().map(|g| g.1[0]).collect();
                AugDotsBlock {
                    eta_even: vec![pairwise_sum(&even)],
                    eta_odd: vec![pairwise_sum_complex(&odd)],
                }
            } else {
                let mut eta_even = vec![0.0; rw];
                let mut eta_odd = vec![Complex64::default(); rw];
                for (even, odd) in &grid {
                    for j in 0..rw {
                        eta_even[j] += even[j];
                        eta_odd[j] += odd[j];
                    }
                }
                AugDotsBlock { eta_even, eta_odd }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KpmMatrix, SparseKernels};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 1-D nearest-neighbour Hermitian chain: trivially symmetric,
    /// many levels.
    fn chain(n: usize) -> CrsMatrix {
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, Complex64::real(0.1 * r as f64 - 1.0));
            if r + 1 < n {
                let t = Complex64::new(-0.5, 0.25);
                coo.push(r, r + 1, t);
                coo.push(r + 1, r, t.conj());
            }
        }
        coo.to_crs()
    }

    fn reference_power(
        h: &CrsMatrix,
        p: usize,
        a: f64,
        b: f64,
        v: &mut BlockVector,
        w: &mut BlockVector,
    ) -> Vec<AugDotsBlock> {
        let mut out = Vec::with_capacity(p);
        for _ in 0..p {
            v.swap(w);
            out.push(h.aug_spmmv(a, b, v, w));
        }
        out
    }

    #[test]
    fn levels_cover_rows_and_bound_columns() {
        let h = chain(500);
        let ls = LevelSet::build(&h).expect("symmetric chain must level");
        assert_eq!(ls.bounds.first(), Some(&0));
        assert_eq!(ls.bounds.last(), Some(&500));
        assert!(ls.n_levels() > 10, "chain should produce many levels");
        assert!(ls.window_rows(2) >= ls.window_rows(0));
    }

    #[test]
    fn asymmetric_structure_is_rejected() {
        // The last row reaches back to column 0 with no forward
        // partner: the chain's levels stay narrow, so the lower-bound
        // property fails on the final level and build must refuse.
        let n = 64;
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, Complex64::real(1.0));
            if r + 1 < n {
                coo.push(r, r + 1, Complex64::real(0.5));
                coo.push(r + 1, r, Complex64::real(0.5));
            }
        }
        coo.push(n - 1, 0, Complex64::real(0.25));
        assert!(LevelSet::build(&coo.to_crs()).is_none());
    }

    #[test]
    fn serial_power_matches_plain_sweeps_bitwise() {
        let n = 700;
        let h = chain(n);
        let ls = LevelSet::build(&h).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for p in [1, 2, 3, 4] {
            for rw in [1, 3] {
                let v0 = BlockVector::random(n, rw, &mut rng);
                let w0 = BlockVector::random(n, rw, &mut rng);
                let (mut v1, mut w1) = (v0.clone(), w0.clone());
                let (mut v2, mut w2) = (v0, w0);
                let d_ref = reference_power(&h, p, 0.4, -0.1, &mut v1, &mut w1);
                let d_pow = aug_spmmv_power(&h, &ls, p, 0.4, -0.1, &mut v2, &mut w2);
                assert_eq!(v1.max_abs_diff(&v2), 0.0, "p={p} rw={rw}");
                assert_eq!(w1.max_abs_diff(&w2), 0.0, "p={p} rw={rw}");
                assert_eq!(d_ref, d_pow, "p={p} rw={rw}");
            }
        }
    }

    #[test]
    fn parallel_power_matches_plain_parallel_sweeps_bitwise() {
        let n = 2600; // several 1024-chunks and tiles
        let h = chain(n);
        let ls = LevelSet::build(&h).unwrap();
        let budget = 64 * 1024;
        let plain = KpmMatrix::crs(h.clone()).with_cache_bytes(budget);
        let mut rng = StdRng::seed_from_u64(13);
        for p in [2, 4] {
            for rw in [1, 4] {
                let v0 = BlockVector::random(n, rw, &mut rng);
                let w0 = BlockVector::random(n, rw, &mut rng);
                let (mut v1, mut w1) = (v0.clone(), w0.clone());
                let (mut v2, mut w2) = (v0, w0);
                let mut d_ref = Vec::new();
                for _ in 0..p {
                    v1.swap(&mut w1);
                    d_ref.push(plain.aug_spmmv_par(0.7, 0.2, &v1, &mut w1));
                }
                let d_pow = aug_spmmv_power_par(&h, &ls, p, 0.7, 0.2, &mut v2, &mut w2, budget);
                assert_eq!(v1.max_abs_diff(&v2), 0.0, "p={p} rw={rw}");
                assert_eq!(w1.max_abs_diff(&w2), 0.0, "p={p} rw={rw}");
                assert_eq!(d_ref, d_pow, "p={p} rw={rw}");
            }
        }
    }

    #[test]
    fn feasibility_gates_on_levels_and_window() {
        let h = chain(300);
        let ls = LevelSet::build(&h).unwrap();
        assert!(!power_feasible(&ls, 1, 4, usize::MAX), "p=1 never blocks");
        assert!(power_feasible(&ls, 2, 4, usize::MAX));
        assert!(!power_feasible(&ls, 2, 4, 1), "tiny budget must refuse");
    }
}
