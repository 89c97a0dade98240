//! The C/σ autotuner for the SELL-C-σ kernels.
//!
//! Picks the storage format (CRS or SELL with a concrete chunk height
//! `C` and sorting window `σ`), the parallel task granularity, and the
//! per-thread cache budget from three inputs:
//!
//! 1. the **row-length distribution** of the assembled matrix, from
//!    which the padding overhead `β` of every SELL shape is computed
//!    *analytically* (the window sort is simulated on the length list —
//!    no conversion is performed),
//! 2. the **machine envelope** ([`AutotuneEnv`]): thread count, memory
//!    bandwidth, peak compute and SIMD width, typically filled from the
//!    kpm-perfmodel machine catalog,
//! 3. optionally a short **empirical probe** that times the top
//!    analytic candidates on the real matrix to break model ties.
//!
//! The analytic score folds the fill-in penalty into the paper's
//! traffic terms (Eqs. 5–8 with `nnz` replaced by `nnz/β`) and models
//! the compute side as latency-limited for short dependency chains:
//! CRS processes one row at a time (a serial multiply–add chain), while
//! SELL-C advances `C` independent chains in lockstep, approaching the
//! machine's SIMD throughput as `C` reaches the SIMD width. The
//! crossover — padding traffic versus chain parallelism — is exactly
//! what the tuner resolves per matrix.
//!
//! Correctness is never at stake: every candidate computes bitwise-
//! identical moments (see [`crate::aug_sell`]), so the tuner is free to
//! pick aggressively.

use std::time::Instant;

use kpm_num::{BlockVector, Complex64, KpmError};

use crate::crs::CrsMatrix;
use crate::kernels::{FormatSpec, KpmMatrix, SparseKernels};
use crate::sell::SellMatrix;
use crate::stencil::StencilMatrix;

/// Chunk heights the tuner considers (powers of two up to a GPU warp).
pub const CANDIDATE_CHUNK_HEIGHTS: [usize; 5] = [1, 4, 8, 16, 32];

/// The machine envelope the tuner scores candidates against.
///
/// Plain numbers — typically filled from the kpm-perfmodel machine
/// catalog (`MachineModel::mem_bw_gbs` etc.), but kept free of that
/// dependency so the tuner can run standalone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneEnv {
    /// Worker threads the solver will run with.
    pub threads: usize,
    /// Per-thread cache budget in bytes for the blocked tilings.
    pub cache_bytes_per_thread: usize,
    /// Achievable memory bandwidth in GB/s (all threads combined).
    pub mem_bw_gbs: f64,
    /// Peak double-precision rate in GF/s (all threads combined).
    pub peak_gflops: f64,
    /// SIMD lanes per double-precision operation (4 for AVX).
    pub simd_lanes: usize,
    /// Empirical probe sweeps per finalist (0 disables the probe).
    pub probe_reps: usize,
}

impl AutotuneEnv {
    /// A conservative single-socket default (IVB-class numbers) for
    /// callers without a machine model at hand. The SIMD width is the
    /// one quantity *this* binary knows better than any catalog: it is
    /// taken from [`crate::simd::lanes`] — the lane count the kernels
    /// were actually compiled with — instead of a hardcoded guess.
    pub fn generic(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            cache_bytes_per_thread: crate::tile::DEFAULT_CACHE_BYTES,
            mem_bw_gbs: 40.0,
            peak_gflops: 100.0,
            simd_lanes: crate::simd::lanes(),
            probe_reps: 0,
        }
    }

    /// Builder-style probe enablement.
    pub fn with_probe_reps(mut self, reps: usize) -> Self {
        self.probe_reps = reps;
        self
    }
}

/// The tuner's decision, with the model quantities that justified it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneChoice {
    /// The selected storage format.
    pub format: FormatSpec,
    /// Parallel task granularity for the SELL kernels (chunks per work
    /// item; ignored for CRS).
    pub chunks_per_task: usize,
    /// Per-thread cache budget (bytes) for the blocked tilings.
    pub cache_bytes: usize,
    /// Analytically predicted occupancy `β = nnz / stored`.
    pub predicted_beta: f64,
    /// Modeled seconds per augmented SpMV sweep (the score minimized).
    pub predicted_seconds: f64,
    /// True if an empirical probe confirmed or overrode the analytic
    /// ranking.
    pub probed: bool,
}

impl AutotuneChoice {
    /// Materializes the choice: converts `m` into the selected format
    /// and attaches the tuned scheduling knobs.
    pub fn build(&self, m: CrsMatrix) -> Result<KpmMatrix, KpmError> {
        let mut h = KpmMatrix::try_with_format(m, &self.format)?.with_cache_bytes(self.cache_bytes);
        h.set_chunks_per_task(self.chunks_per_task);
        Ok(h)
    }
}

/// One empirical probe measurement next to the model's view of the
/// same point — the validation record behind the bench JSON
/// `chain_gap` fields.
///
/// The chain fractions compare the model's FMA-chain term against what
/// the probe actually sustained: `chain_frac_model` is the analytic
/// `min(C / (lanes · latency), 1)`, `chain_frac_measured` is the
/// fraction of peak implied by the measured time under the same flop
/// count, and `chain_gap` is their difference — positive when the
/// model promised more chain parallelism than the run delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePoint {
    /// The format this point timed.
    pub format: FormatSpec,
    /// Modeled seconds per sweep iteration.
    pub modeled_seconds: f64,
    /// Fastest measured seconds per sweep iteration.
    pub measured_seconds: f64,
    /// The model's chain fraction for this shape.
    pub chain_frac_model: f64,
    /// Fraction of peak the probe sustained (`flops / (peak · t)`,
    /// capped at 1).
    pub chain_frac_measured: f64,
    /// `chain_frac_model − chain_frac_measured`.
    pub chain_gap: f64,
}

/// Predicted stored-element count of SELL-C-σ for the given row-length
/// list: simulates the per-window descending sort and sums the chunk
/// maxima — exact, without building the matrix.
fn predicted_stored(row_lens: &[usize], c: usize, sigma: usize) -> usize {
    let mut lens = row_lens.to_vec();
    if sigma > 1 {
        for window in lens.chunks_mut(sigma) {
            window.sort_unstable_by(|a, b| b.cmp(a));
        }
    }
    lens.chunks(c)
        .map(|chunk| chunk.iter().copied().max().unwrap_or(0) * c)
        .sum()
}

/// FMA result latency in issue slots: how many independent
/// accumulation chains one lane needs in flight to saturate its
/// pipeline. A row's multiply–add chain is fully dependent, so CRS
/// (one chain) runs at `1/(lanes · latency)` of peak while SELL-C
/// interleaves `C` chains.
const FMA_LATENCY: f64 = 4.0;

/// Modeled seconds of one augmented sweep *iteration* for a candidate.
///
/// Memory side: the Eq. 5-style traffic with the matrix term streaming
/// `stored` elements (padding included, 20 bytes each) once per
/// `power` iterations — the level-blocked matrix-power divisor; the
/// matrix-free stencil passes `stored = 0` and the term vanishes
/// outright. The three vector streams are paid every iteration.
/// Compute side: 8 flops per processed element (`flop_elems`) issued
/// on `C` independent chains; the effective rate is
/// `peak · min(C / (L · latency), 1)` for `L` SIMD lanes — the
/// latency-bound single-chain CRS/stencil limit versus SELL's lockstep
/// chains. The site-blocked stencil sweep applies pre-sorted block
/// templates, so its per-entry instruction stream is CRS's minus the
/// index and value loads and it is charged the same flops. The FMA
/// chain term is unchanged by power blocking: the wavefront reorders
/// iterations, not the per-row dependency chain.
pub fn model_seconds_fmt(
    nrows: usize,
    flop_elems: usize,
    stored: usize,
    env: &AutotuneEnv,
    c: usize,
    power: usize,
) -> f64 {
    const S_ELEM: f64 = 20.0; // value (16) + column index (4)
    const S_D: f64 = 16.0;
    let bytes = stored as f64 * S_ELEM / power.max(1) as f64 + 3.0 * nrows as f64 * S_D;
    let t_mem = bytes / (env.mem_bw_gbs.max(1e-9) * 1e9);
    let flops = 8.0 * flop_elems as f64 + 16.0 * nrows as f64;
    let lanes = env.simd_lanes.max(1) as f64;
    let chain_frac = (c as f64 / (lanes * FMA_LATENCY)).min(1.0);
    let t_comp = flops / (env.peak_gflops.max(1e-9) * 1e9 * chain_frac);
    t_mem.max(t_comp)
}

/// Modeled seconds of one augmented SpMV sweep for a CRS/SELL shape
/// (no power blocking).
fn model_seconds(nrows: usize, stored: usize, env: &AutotuneEnv, c: usize) -> f64 {
    model_seconds_fmt(nrows, stored, stored, env, c, 1)
}

/// Task granularity for a SELL shape: enough work items to balance
/// `threads` workers (≥ 4 per worker) without over-fragmenting.
fn pick_chunks_per_task(n_chunks: usize, threads: usize) -> usize {
    (n_chunks / (4 * threads.max(1)).max(1)).clamp(1, 64)
}

/// Picks the storage format and scheduling knobs for `m` under `env`.
///
/// Never fails: degenerate inputs (empty matrix, more lanes than rows)
/// fall back to CRS. With `env.probe_reps > 0` the top analytic
/// finalists are additionally timed on the real matrix and the fastest
/// wins; otherwise the analytic ranking decides.
///
/// Shorthand for [`autotune_formats`] with no stencil source and no
/// power blocking.
pub fn autotune(m: &CrsMatrix, env: &AutotuneEnv) -> AutotuneChoice {
    autotune_formats(m, env, None, 1)
}

/// Picks among all three storage formats for `m` under `env`, at
/// matrix-power depth `power`.
///
/// `stencil` supplies the matrix-free representation when the operator
/// is a known lattice stencil; without one only CRS/SELL compete.
/// `power ≥ 2` divides the matrix-traffic term of the formats the
/// level-blocked kernels support (CRS and stencil) — SELL has no row
/// view and always streams per iteration. The empirical probe (when
/// enabled) still always times the CRS baseline, so a probed choice is
/// never slower than not tuning at all.
pub fn autotune_formats(
    m: &CrsMatrix,
    env: &AutotuneEnv,
    stencil: Option<&StencilMatrix>,
    power: usize,
) -> AutotuneChoice {
    autotune_formats_report(m, env, stencil, power).0
}

/// [`autotune_formats`] plus the per-finalist [`ProbePoint`] report:
/// one point per format the empirical probe timed (empty when
/// `env.probe_reps == 0`), so callers can compare the model's
/// chain-fraction prediction against the measurement it was validated
/// by. The choice itself is identical to [`autotune_formats`].
pub fn autotune_formats_report(
    m: &CrsMatrix,
    env: &AutotuneEnv,
    stencil: Option<&StencilMatrix>,
    power: usize,
) -> (AutotuneChoice, Vec<ProbePoint>) {
    let nrows = m.nrows();
    let nnz = m.nnz();
    let power = power.max(1);
    let row_lens: Vec<usize> = (0..nrows).map(|r| m.row_len(r)).collect();

    let mut candidates: Vec<(FormatSpec, usize, f64)> = Vec::new(); // (spec, stored, seconds)
    if stencil.is_some() {
        // Matrix-free: no stored elements, pure vector traffic; the
        // per-row chain is as serial as CRS. Scored first, so it wins
        // the compute-bound tie with CRS (it is CRS's flop stream with
        // fewer loads).
        let secs = model_seconds_fmt(nrows, nnz, 0, env, 1, power);
        candidates.push((FormatSpec::Stencil, 0, secs));
    }
    for &c in &CANDIDATE_CHUNK_HEIGHTS {
        if c > nrows.max(1) {
            continue;
        }
        if c == 1 {
            // SELL-1-1 is CRS; score it as the CRS baseline (with the
            // power divisor — CRS supports the level-blocked kernels).
            let secs = model_seconds_fmt(nrows, nnz, nnz, env, 1, power);
            candidates.push((FormatSpec::Crs, nnz, secs));
            continue;
        }
        let mut seen_stored = usize::MAX;
        for sigma in [1, c, 4 * c, 16 * c] {
            if sigma > 1 && sigma.div_ceil(c) * c > nrows.next_multiple_of(c) {
                continue; // window larger than the matrix: no new info
            }
            let stored = predicted_stored(&row_lens, c, sigma);
            if stored >= seen_stored {
                continue; // a smaller window already achieved this fill
            }
            seen_stored = stored;
            let secs = model_seconds(nrows, stored, env, c);
            candidates.push((
                FormatSpec::Sell {
                    chunk_height: c,
                    sigma,
                },
                stored,
                secs,
            ));
        }
    }
    if candidates.is_empty() {
        candidates.push((FormatSpec::Crs, nnz, 0.0));
    }
    // Stable sort: on model ties the earlier (simpler: smaller C, then
    // smaller σ) candidate wins.
    candidates.sort_by(|a, b| a.2.total_cmp(&b.2));

    let mut best = candidates[0];
    let mut probed = false;
    let mut report = Vec::new();
    if env.probe_reps > 0 && nrows > 0 {
        let mut finalists: Vec<(FormatSpec, usize, f64)> =
            candidates.iter().copied().take(3).collect();
        // The probe measures the CRS baseline almost for free; always
        // include it so an empirical pick is never slower than not
        // tuning at all, even when the analytic model ranks CRS last.
        if !finalists.iter().any(|(f, _, _)| *f == FormatSpec::Crs) {
            if let Some(crs) = candidates.iter().find(|(f, _, _)| *f == FormatSpec::Crs) {
                finalists.push(*crs);
            }
        }
        let (win, points) = probe_finalists(m, &finalists, env, stencil, power);
        report = points;
        if let Some(win) = win {
            best = win;
            probed = true;
        }
    }

    let (format, stored, seconds) = best;
    let chunks_per_task = match format {
        FormatSpec::Crs | FormatSpec::Stencil => 1,
        FormatSpec::Sell { chunk_height, .. } => {
            pick_chunks_per_task(nrows.div_ceil(chunk_height), env.threads)
        }
    };
    let choice = AutotuneChoice {
        format,
        chunks_per_task,
        cache_bytes: env.cache_bytes_per_thread.max(1),
        predicted_beta: if stored == 0 {
            1.0
        } else {
            nnz as f64 / stored as f64
        },
        predicted_seconds: seconds,
        probed,
    };
    (choice, report)
}

/// Block width of the matrix-power probe: small enough to build
/// cheaply, wide enough that the wavefront's window reuse shows.
const PROBE_POWER_WIDTH: usize = 2;

/// Times the finalists on the real matrix and returns the fastest
/// (with its measured seconds substituted for the model's) plus one
/// [`ProbePoint`] per finalist actually timed.
///
/// At `power == 1` this times the single-vector augmented SpMV on the
/// bare format. At `power ≥ 2` it times the *actual* solver kernel —
/// [`SparseKernels::aug_spmmv_power`] on a [`KpmMatrix`] handle,
/// normalized per iteration — because the level-blocked wavefront only
/// exists behind the handle; probing the bare formats would always
/// miss the very effect the depth is meant to buy.
fn probe_finalists(
    m: &CrsMatrix,
    finalists: &[(FormatSpec, usize, f64)],
    env: &AutotuneEnv,
    stencil: Option<&StencilMatrix>,
    power: usize,
) -> (Option<(FormatSpec, usize, f64)>, Vec<ProbePoint>) {
    let n = m.nrows();
    // Deterministic, structureless probe vectors (no RNG dependency).
    let v: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new(1.0 / (i + 1) as f64, 0.25 - (i % 7) as f64 * 0.05))
        .collect();
    let mut w = vec![Complex64::default(); n];
    let (mut vb, mut wb) = if power >= 2 {
        let mut vb = BlockVector::zeros(n, PROBE_POWER_WIDTH);
        let mut wb = BlockVector::zeros(n, PROBE_POWER_WIDTH);
        for (i, z) in v.iter().enumerate() {
            for j in 0..PROBE_POWER_WIDTH {
                vb.set(i, j, z.scale(1.0 + j as f64));
                wb.set(i, j, z.conj());
            }
        }
        (vb, wb)
    } else {
        (BlockVector::zeros(0, 1), BlockVector::zeros(0, 1))
    };
    let mut best: Option<(FormatSpec, usize, f64)> = None;
    let mut points = Vec::with_capacity(finalists.len());
    let width = if power >= 2 { PROBE_POWER_WIDTH } else { 1 } as f64;
    for &(spec, stored, modeled) in finalists {
        let handle = match spec {
            FormatSpec::Sell {
                chunk_height,
                sigma,
                // kpm::allow(hot_loop_convert): the probe intentionally builds each finalist once to time it.
            } => match SellMatrix::try_from_crs(m, chunk_height, sigma) {
                Ok(s) => KpmMatrix::sell(s),
                Err(_) => continue,
            },
            FormatSpec::Stencil => match stencil {
                Some(st) => KpmMatrix::stencil(st.clone()),
                None => continue,
            },
            FormatSpec::Crs => KpmMatrix::crs(m.clone()),
        };
        let handle = handle.with_cache_bytes(env.cache_bytes_per_thread.max(1));
        let mut fastest = f64::INFINITY;
        for _ in 0..env.probe_reps {
            let t0 = Instant::now();
            if power >= 2 {
                if env.threads > 1 {
                    handle.aug_spmmv_power_par(power, 0.5, 0.0, &mut vb, &mut wb);
                } else {
                    handle.aug_spmmv_power(power, 0.5, 0.0, &mut vb, &mut wb);
                }
            } else if env.threads > 1 {
                handle.aug_spmv_par(0.5, 0.0, &v, &mut w);
            } else {
                handle.aug_spmv(0.5, 0.0, &v, &mut w);
            }
            let per_iter = t0.elapsed().as_secs_f64() / power.max(1) as f64;
            fastest = fastest.min(per_iter);
        }
        let chunk_height = match spec {
            FormatSpec::Sell { chunk_height, .. } => chunk_height,
            _ => 1,
        };
        let flops = (8.0 * m.nnz() as f64 + 16.0 * m.nrows() as f64) * width;
        let lanes = env.simd_lanes.max(1) as f64;
        let chain_frac_model = (chunk_height as f64 / (lanes * FMA_LATENCY)).min(1.0);
        let chain_frac_measured = if fastest.is_finite() && fastest > 0.0 {
            (flops / (env.peak_gflops.max(1e-9) * 1e9 * fastest)).min(1.0)
        } else {
            0.0
        };
        points.push(ProbePoint {
            format: spec,
            modeled_seconds: modeled,
            measured_seconds: fastest,
            chain_frac_model,
            chain_frac_measured,
            chain_gap: chain_frac_model - chain_frac_measured,
        });
        if best.is_none_or(|(_, _, t)| fastest < t) {
            best = Some((spec, stored, fastest));
        }
    }
    (best, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// A matrix with uniform row lengths: SELL pads nothing.
    fn uniform_matrix(n: usize, len: usize) -> CrsMatrix {
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for k in 0..len {
                coo.push(r, (r + k) % n, Complex64::real(1.0 + k as f64));
            }
        }
        coo.to_crs()
    }

    /// Alternating short/long rows: unsorted SELL pads heavily, a σ
    /// window ≥ the alternation period recovers most of it.
    fn ragged_matrix(n: usize) -> CrsMatrix {
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            let len = if r % 2 == 0 { 1 } else { 9 };
            for k in 0..len {
                coo.push(r, (r + k) % n, Complex64::real(1.0));
            }
        }
        coo.to_crs()
    }

    #[test]
    fn predicted_stored_matches_real_conversion() {
        for m in [uniform_matrix(100, 5), ragged_matrix(96)] {
            let lens: Vec<usize> = (0..m.nrows()).map(|r| m.row_len(r)).collect();
            for (c, sigma) in [(4usize, 1usize), (4, 16), (8, 8), (8, 32), (32, 32)] {
                let sell = SellMatrix::from_crs(&m, c, sigma);
                assert_eq!(
                    predicted_stored(&lens, c, sigma),
                    sell.stored_elements(),
                    "C={c} sigma={sigma}"
                );
            }
        }
    }

    #[test]
    fn sorting_window_improves_predicted_beta_on_ragged_rows() {
        let m = ragged_matrix(128);
        let lens: Vec<usize> = (0..m.nrows()).map(|r| m.row_len(r)).collect();
        let unsorted = predicted_stored(&lens, 8, 1);
        let sorted = predicted_stored(&lens, 8, 32);
        assert!(sorted < unsorted);
    }

    #[test]
    fn tuner_prefers_sell_when_compute_is_chain_limited() {
        // Uniform rows: no padding penalty, so the chain-parallelism
        // term makes any C > 1 strictly better than CRS in the model.
        let m = uniform_matrix(256, 7);
        let mut env = AutotuneEnv::generic(1);
        env.simd_lanes = 4; // pin: `generic` reports the build's real lanes
        let choice = autotune(&m, &env);
        assert_eq!(choice.format.name(), "sell");
        assert!((choice.predicted_beta - 1.0).abs() < 1e-12);
        assert!(choice.predicted_seconds > 0.0);
        assert!(!choice.probed);
    }

    #[test]
    fn tuner_falls_back_to_crs_on_hostile_padding() {
        // One very long row per 4-row group, lanes = 1: SELL buys no
        // chain parallelism but pays the padding traffic.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            let len = if r % 4 == 0 { 32 } else { 1 };
            for k in 0..len {
                coo.push(r, (r + k) % n, Complex64::real(1.0));
            }
        }
        let m = coo.to_crs();
        let mut env = AutotuneEnv::generic(1);
        env.simd_lanes = 1; // no chain-parallelism reward
        let choice = autotune(&m, &env);
        assert_eq!(choice.format, FormatSpec::Crs);
        assert_eq!(choice.chunks_per_task, 1);
    }

    #[test]
    fn choice_builds_a_working_matrix() {
        let m = uniform_matrix(90, 5);
        let choice = autotune(&m, &AutotuneEnv::generic(2));
        let h = choice.build(m.clone()).unwrap();
        assert_eq!(SparseKernels::nrows(&h), 90);
        assert_eq!(SparseKernels::format(&h), choice.format);
        assert_eq!(h.cache_bytes(), choice.cache_bytes);
        // Moments stay bitwise-identical to CRS regardless of choice.
        let v: Vec<Complex64> = (0..90).map(|i| Complex64::real(0.01 * i as f64)).collect();
        let mut w1 = vec![Complex64::default(); 90];
        let mut w2 = w1.clone();
        let d1 = SparseKernels::aug_spmv(&m, 0.4, 0.1, &v, &mut w1);
        let d2 = SparseKernels::aug_spmv(&h, 0.4, 0.1, &v, &mut w2);
        assert_eq!(w1, w2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn empirical_probe_runs_and_reports() {
        let m = uniform_matrix(200, 6);
        let env = AutotuneEnv::generic(1).with_probe_reps(2);
        let choice = autotune(&m, &env);
        assert!(choice.probed);
        assert!(choice.predicted_seconds.is_finite());
        // The probed winner must still build and agree with CRS.
        let h = choice.build(m.clone()).unwrap();
        let v: Vec<Complex64> = (0..200)
            .map(|i| Complex64::real(1.0 / (i + 1) as f64))
            .collect();
        let mut w1 = vec![Complex64::default(); 200];
        let mut w2 = w1.clone();
        assert_eq!(
            SparseKernels::aug_spmv(&m, 1.0, 0.0, &v, &mut w1),
            SparseKernels::aug_spmv(&h, 1.0, 0.0, &v, &mut w2)
        );
        assert_eq!(w1, w2);
    }

    #[test]
    fn probe_report_carries_chain_gap_per_point() {
        let m = uniform_matrix(200, 6);
        let env = AutotuneEnv::generic(1).with_probe_reps(2);
        let (choice, report) = autotune_formats_report(&m, &env, None, 1);
        assert!(choice.probed);
        assert!(!report.is_empty());
        // The CRS baseline is always in the probed set.
        assert!(report.iter().any(|p| p.format == FormatSpec::Crs));
        for p in &report {
            assert!(p.measured_seconds.is_finite() && p.measured_seconds > 0.0);
            assert!(p.modeled_seconds > 0.0);
            assert!((0.0..=1.0).contains(&p.chain_frac_model));
            assert!((0.0..=1.0).contains(&p.chain_frac_measured));
            let gap = p.chain_frac_model - p.chain_frac_measured;
            assert!((p.chain_gap - gap).abs() < 1e-15);
        }
        // Without the probe the report is empty and the choice agrees
        // with the plain entry point.
        let (analytic, empty) = autotune_formats_report(&m, &AutotuneEnv::generic(1), None, 1);
        assert!(empty.is_empty());
        assert_eq!(analytic, autotune(&m, &AutotuneEnv::generic(1)));
    }

    #[test]
    fn chunks_per_task_balances_threads() {
        assert_eq!(pick_chunks_per_task(1000, 4), 62);
        assert_eq!(pick_chunks_per_task(8, 4), 1);
        assert_eq!(pick_chunks_per_task(100_000, 1), 64);
    }

    /// A small TI-shaped stencil (diagonal hop blocks) plus its
    /// explicit CRS twin, for the format-grid tests.
    fn toy_stencil(nx: usize, ny: usize, nz: usize) -> (StencilMatrix, CrsMatrix) {
        let sites = nx * ny * nz;
        let onsite: Vec<[Complex64; 4]> = (0..sites)
            .map(|s| {
                let v = s as f64 * 0.125 - 1.0;
                [
                    Complex64::real(v + 2.0),
                    Complex64::real(v + 2.0),
                    Complex64::real(v - 2.0),
                    Complex64::real(v - 2.0),
                ]
            })
            .collect();
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for (b, block) in hop.iter_mut().enumerate() {
            for (o, row) in block.iter_mut().enumerate() {
                row[o] = Complex64::new(-0.5, 0.05 * b as f64);
            }
        }
        let st = StencilMatrix::new(nx, ny, nz, [true, true, false], onsite, &hop);
        let crs = st.to_crs();
        (st, crs)
    }

    #[test]
    fn stencil_wins_when_memory_bound() {
        // Starved bandwidth, ample compute: the matrix-traffic term
        // dominates and the matrix-free candidate (which pays none)
        // must win.
        let (st, m) = toy_stencil(4, 4, 6);
        let mut env = AutotuneEnv::generic(1);
        env.mem_bw_gbs = 1.0;
        env.peak_gflops = 10_000.0;
        let choice = autotune_formats(&m, &env, Some(&st), 1);
        assert_eq!(choice.format, FormatSpec::Stencil);
        assert_eq!(choice.chunks_per_task, 1);
        assert!((choice.predicted_beta - 1.0).abs() < 1e-12);
        // Without the stencil source the same envelope settles on CRS.
        let no_st = autotune_formats(&m, &env, None, 1);
        assert_ne!(no_st.format, FormatSpec::Stencil);
        assert!(choice.predicted_seconds < no_st.predicted_seconds);
    }

    #[test]
    fn power_blocking_divides_the_crs_matrix_traffic() {
        // Memory-bound envelope: the p-deep matrix-power divisor cuts
        // the modeled CRS score, and SELL (which has no level-blocked
        // kernels) gets no such discount — so deeper p keeps CRS ahead.
        let (_, m) = toy_stencil(4, 4, 6);
        let mut env = AutotuneEnv::generic(1);
        env.mem_bw_gbs = 1.0;
        env.peak_gflops = 10_000.0;
        let p1 = autotune_formats(&m, &env, None, 1);
        let p4 = autotune_formats(&m, &env, None, 4);
        assert_eq!(p1.format, FormatSpec::Crs);
        assert_eq!(p4.format, FormatSpec::Crs);
        assert!(
            p4.predicted_seconds < p1.predicted_seconds,
            "p=4 {} !< p=1 {}",
            p4.predicted_seconds,
            p1.predicted_seconds
        );
        // The discount is bounded by the vector streams, which are paid
        // every iteration: the score cannot drop below that floor.
        let vector_floor = 3.0 * m.nrows() as f64 * 16.0 / (env.mem_bw_gbs * 1e9);
        assert!(p4.predicted_seconds >= vector_floor);
    }

    #[test]
    fn probe_with_stencil_candidate_stays_sound() {
        // The empirical probe must time the matrix-free finalist
        // without crashing, keep the CRS baseline in the heat, and
        // return a choice the caller can act on (Stencil is built by
        // the caller from the lattice; everything else via build()).
        let (st, m) = toy_stencil(4, 4, 4);
        let mut env = AutotuneEnv::generic(1).with_probe_reps(2);
        env.mem_bw_gbs = 1.0;
        env.peak_gflops = 10_000.0; // analytic ranking puts stencil first
        let choice = autotune_formats(&m, &env, Some(&st), 2);
        assert!(choice.probed);
        assert!(choice.predicted_seconds.is_finite());
        match choice.format {
            FormatSpec::Stencil => assert!((choice.predicted_beta - 1.0).abs() < 1e-12),
            _ => {
                let h = choice.build(m.clone()).unwrap();
                assert_eq!(SparseKernels::nrows(&h), m.nrows());
            }
        }
    }

    #[test]
    fn build_rejects_the_matrix_free_format() {
        // A Stencil choice cannot be materialized from a bare CRS
        // matrix — the lattice is gone. The caller (the CLI) holds the
        // TopoHamiltonian and constructs the handle itself.
        let (st, m) = toy_stencil(3, 3, 3);
        let mut env = AutotuneEnv::generic(1);
        env.mem_bw_gbs = 1.0;
        env.peak_gflops = 10_000.0;
        let choice = autotune_formats(&m, &env, Some(&st), 1);
        assert_eq!(choice.format, FormatSpec::Stencil);
        assert!(choice.build(m).is_err());
    }
}
