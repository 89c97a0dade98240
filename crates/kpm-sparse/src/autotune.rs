//! The format tuner: CRS or the matrix-free stencil, at a matrix-power
//! depth.
//!
//! Scores the formats an operator can run in against a **machine
//! envelope** ([`AutotuneEnv`]: thread count, memory bandwidth, peak
//! compute, typically filled from the kpm-perfmodel machine catalog)
//! with the paper's traffic terms (Eqs. 5–8), and optionally breaks the
//! model's verdict with a short **empirical probe** that times each
//! candidate on the real operator.
//!
//! Correctness is never at stake: every candidate computes bitwise-
//! identical moments, so the tuner is free to pick aggressively.

use std::time::Instant;

use kpm_num::{BlockVector, Complex64};

use crate::crs::CrsMatrix;
use crate::kernels::{FormatSpec, KpmMatrix, SparseKernels};
use crate::stencil::StencilMatrix;

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
    /// Empirical probe sweeps per candidate (0 disables the probe).
    pub probe_reps: usize,
}

impl AutotuneEnv {
    /// A conservative single-socket default (IVB-class numbers) for
    /// callers without a machine model at hand, charging the per-row
    /// chain as scalar; callers with a model set the lanes that run
    /// ([`crate::simd::active_lanes`]).
    pub fn generic(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            cache_bytes_per_thread: crate::tile::DEFAULT_CACHE_BYTES,
            mem_bw_gbs: 40.0,
            peak_gflops: 100.0,
            simd_lanes: 1,
            probe_reps: 0,
        }
    }
}

/// The tuner's decision, with the model quantity that justified it.
/// The caller wraps what it holds — the CRS matrix, or the stencil it
/// gave the tuner — at `cache_bytes` ([`KpmMatrix::with_cache_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneChoice {
    /// The selected storage format.
    pub format: FormatSpec,
    /// Per-thread cache budget (bytes) for the blocked tilings.
    pub cache_bytes: usize,
    /// Modeled seconds per augmented SpMV sweep (the score minimized),
    /// or the measured ones when `probed`.
    pub predicted_seconds: f64,
    /// True if an empirical probe confirmed or overrode the analytic
    /// ranking.
    pub probed: bool,
}

/// One empirical probe measurement next to the model's view of the
/// same format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePoint {
    /// The format this point timed.
    pub format: FormatSpec,
    /// Modeled seconds per sweep iteration.
    pub modeled_seconds: f64,
    /// Fastest measured seconds per sweep iteration.
    pub measured_seconds: f64,
}

/// FMA result latency in issue slots: how many independent
/// accumulation chains one lane needs in flight to saturate its
/// pipeline. A row's multiply–add chain is fully dependent, so a sweep
/// that walks one row at a time runs at `1/(lanes · latency)` of peak.
const FMA_LATENCY: f64 = 4.0;

/// Modeled seconds of one augmented sweep *iteration* for a candidate.
///
/// Memory side: the Eq. 5-style traffic with the matrix term streaming
/// `stored` elements (20 bytes each) once per `power` iterations — the
/// level-blocked matrix-power divisor; the matrix-free stencil passes
/// `stored = 0` and the term vanishes outright. The three vector
/// streams are paid every iteration. Compute side: 8 flops per
/// processed element (`flop_elems`) on one dependent chain per row, at
/// `peak / (L · latency)` for `L` SIMD lanes. The site-blocked stencil
/// sweep applies pre-sorted block templates, so its per-entry
/// instruction stream is CRS's minus the index and value loads and it
/// is charged the same flops. The chain term is unchanged by power
/// blocking: the wavefront reorders iterations, not the per-row
/// dependency chain.
pub fn model_seconds_fmt(
    nrows: usize,
    flop_elems: usize,
    stored: usize,
    env: &AutotuneEnv,
    power: usize,
) -> f64 {
    const S_ELEM: f64 = 20.0; // value (16) + column index (4)
    const S_D: f64 = 16.0;
    let bytes = stored as f64 * S_ELEM / power.max(1) as f64 + 3.0 * nrows as f64 * S_D;
    let t_mem = bytes / (env.mem_bw_gbs.max(1e-9) * 1e9);
    let flops = 8.0 * flop_elems as f64 + 16.0 * nrows as f64;
    let lanes = env.simd_lanes.max(1) as f64;
    let chain_frac = 1.0 / (lanes * FMA_LATENCY);
    let t_comp = flops / (env.peak_gflops.max(1e-9) * 1e9 * chain_frac);
    t_mem.max(t_comp)
}

/// Picks the storage format for `m` under `env`, at matrix-power depth
/// `power`.
///
/// `stencil` supplies the matrix-free representation when the operator
/// is a known lattice stencil; without one CRS is the only candidate.
/// `power ≥ 2` divides the matrix-traffic term (both formats run the
/// level-blocked kernels). With `env.probe_reps > 0` the candidates are
/// additionally timed on the real operator and the fastest wins — CRS
/// always among them, so a probed choice is never slower than not
/// tuning at all. Never fails.
pub fn autotune_formats(
    m: &CrsMatrix,
    env: &AutotuneEnv,
    stencil: Option<&StencilMatrix>,
    power: usize,
) -> AutotuneChoice {
    autotune_formats_report(m, env, stencil, power).0
}

/// [`autotune_formats`] plus one [`ProbePoint`] per format the
/// empirical probe timed (empty when `env.probe_reps == 0`): the
/// model's prediction next to the measurement that validated it.
pub fn autotune_formats_report(
    m: &CrsMatrix,
    env: &AutotuneEnv,
    stencil: Option<&StencilMatrix>,
    power: usize,
) -> (AutotuneChoice, Vec<ProbePoint>) {
    let (nrows, nnz, power) = (m.nrows(), m.nnz(), power.max(1));
    // The stencil is scored first, so the stable sort hands it the
    // compute-bound tie with CRS (it is CRS's flop stream with fewer
    // loads).
    let mut candidates: Vec<(FormatSpec, f64)> = Vec::new();
    if stencil.is_some() {
        let secs = model_seconds_fmt(nrows, nnz, 0, env, power);
        candidates.push((FormatSpec::Stencil, secs));
    }
    let secs = model_seconds_fmt(nrows, nnz, nnz, env, power);
    candidates.push((FormatSpec::Crs, secs));
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1));

    let (mut best, mut report) = (candidates[0], Vec::new());
    if env.probe_reps > 0 && nrows > 0 {
        report = probe_candidates(m, &candidates, env, stencil, power);
        let seconds = |p: &&ProbePoint| p.measured_seconds;
        if let Some(win) = report
            .iter()
            .min_by(|a, b| seconds(a).total_cmp(&seconds(b)))
        {
            best = (win.format, win.measured_seconds);
        }
    }
    let choice = AutotuneChoice {
        format: best.0,
        cache_bytes: env.cache_bytes_per_thread.max(1),
        predicted_seconds: best.1,
        probed: !report.is_empty(),
    };
    (choice, report)
}

/// Times the candidates on the real operator: one [`ProbePoint`] per
/// candidate, fastest of `env.probe_reps` runs. At `power == 1` this
/// times the single-vector augmented SpMV; at `power ≥ 2` the *actual*
/// solver kernel — [`SparseKernels::aug_spmmv_power`], normalized per
/// iteration — because the level-blocked wavefront is the very effect
/// the depth is meant to buy.
fn probe_candidates(
    m: &CrsMatrix,
    candidates: &[(FormatSpec, f64)],
    env: &AutotuneEnv,
    stencil: Option<&StencilMatrix>,
    power: usize,
) -> Vec<ProbePoint> {
    let n = m.nrows();
    // Deterministic, structureless probe vectors (no RNG dependency).
    let v: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new(1.0 / (i + 1) as f64, 0.25 - (i % 7) as f64 * 0.05))
        .collect();
    let mut w = vec![Complex64::default(); n];
    // The power probe's block: two columns are cheap to build and
    // wide enough that the wavefront's window reuse shows.
    let width = if power >= 2 { 2 } else { 1 };
    let mut vb = BlockVector::zeros(if power >= 2 { n } else { 0 }, width);
    let mut wb = vb.clone();
    for (i, z) in v.iter().enumerate().take(vb.rows()) {
        for j in 0..width {
            vb.set(i, j, z.scale(1.0 + j as f64));
            wb.set(i, j, z.conj());
        }
    }
    let mut points = Vec::with_capacity(candidates.len());
    for &(format, modeled_seconds) in candidates {
        let handle = match (format, stencil) {
            (FormatSpec::Stencil, Some(st)) => KpmMatrix::stencil(st.clone()),
            (FormatSpec::Stencil, None) => continue,
            (FormatSpec::Crs, _) => KpmMatrix::crs(m.clone()),
        };
        let handle = handle.with_cache_bytes(env.cache_bytes_per_thread.max(1));
        let mut measured_seconds = f64::INFINITY;
        for _ in 0..env.probe_reps {
            let t0 = Instant::now();
            if power >= 2 && env.threads > 1 {
                handle.aug_spmmv_power_par(power, 0.5, 0.0, &mut vb, &mut wb);
            } else if power >= 2 {
                handle.aug_spmmv_power(power, 0.5, 0.0, &mut vb, &mut wb);
            } else if env.threads > 1 {
                handle.aug_spmv_par(0.5, 0.0, &v, &mut w);
            } else {
                handle.aug_spmv(0.5, 0.0, &v, &mut w);
            }
            let per_iter = t0.elapsed().as_secs_f64() / power as f64;
            measured_seconds = measured_seconds.min(per_iter);
        }
        points.push(ProbePoint {
            format,
            modeled_seconds,
            measured_seconds,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small TI-shaped stencil (diagonal hop blocks) plus its
    /// explicit CRS twin.
    fn toy_stencil(nx: usize, ny: usize, nz: usize) -> (StencilMatrix, CrsMatrix) {
        let onsite = (0..nx * ny * nz).map(|s| s as f64 * 0.125 - 1.0);
        let onsite = onsite.map(|v| [v + 2.0, v + 2.0, v - 2.0, v - 2.0].map(Complex64::real));
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for (b, block) in hop.iter_mut().enumerate() {
            for (o, row) in block.iter_mut().enumerate() {
                row[o] = Complex64::new(-0.5, 0.05 * b as f64);
            }
        }
        let st = StencilMatrix::new(nx, ny, nz, [true, true, false], onsite.collect(), &hop);
        let crs = st.to_crs();
        (st, crs)
    }

    /// Starved bandwidth, ample compute: the matrix-traffic term
    /// decides.
    fn memory_bound(probe_reps: usize) -> AutotuneEnv {
        AutotuneEnv {
            mem_bw_gbs: 1.0,
            peak_gflops: 10_000.0,
            probe_reps,
            ..AutotuneEnv::generic(1)
        }
    }

    #[test]
    fn empirical_probe_reports_one_point_per_timed_format() {
        // CRS alone at p = 1, then with the matrix-free candidate at
        // p = 2: the probe must time every candidate without crashing
        // and keep the CRS baseline in the heat.
        let (st, m) = toy_stencil(4, 4, 4);
        let env = memory_bound(2);
        for (stencil, power, points) in [(None, 1, 1), (Some(&st), 2, 2)] {
            let (choice, report) = autotune_formats_report(&m, &env, stencil, power);
            assert!(choice.probed && choice.predicted_seconds.is_finite());
            assert_eq!(report.len(), points);
            assert!(report.iter().any(|p| p.format == FormatSpec::Crs));
            for p in &report {
                assert!(p.measured_seconds.is_finite() && p.measured_seconds > 0.0);
                assert!(p.modeled_seconds > 0.0);
            }
            assert!(report.iter().any(|p| p.format == choice.format));
        }
        // Without the probe the report is empty and the choice agrees
        // with the plain entry point.
        let analytic = memory_bound(0);
        let (choice, empty) = autotune_formats_report(&m, &analytic, None, 1);
        assert!(empty.is_empty() && !choice.probed);
        assert_eq!(choice, autotune_formats(&m, &analytic, None, 1));
    }

    #[test]
    fn stencil_wins_when_memory_bound() {
        // The matrix-traffic term dominates and the matrix-free
        // candidate (which pays none) must win.
        let (st, m) = toy_stencil(4, 4, 6);
        let env = memory_bound(0);
        let choice = autotune_formats(&m, &env, Some(&st), 1);
        assert_eq!(choice.format, FormatSpec::Stencil);
        // Without the stencil source the same envelope settles on CRS.
        let no_st = autotune_formats(&m, &env, None, 1);
        assert_eq!(no_st.format, FormatSpec::Crs);
        assert!(!no_st.probed && choice.predicted_seconds < no_st.predicted_seconds);
        assert_eq!(no_st.cache_bytes, env.cache_bytes_per_thread);
    }

    #[test]
    fn power_blocking_divides_the_crs_matrix_traffic() {
        // The p-deep matrix-power divisor cuts the modeled CRS score.
        let (_, m) = toy_stencil(4, 4, 6);
        let env = memory_bound(0);
        let p1 = autotune_formats(&m, &env, None, 1).predicted_seconds;
        let p4 = autotune_formats(&m, &env, None, 4).predicted_seconds;
        assert!(p4 < p1, "p=4 {p4} !< p=1 {p1}");
        // The discount is bounded by the vector streams, which are paid
        // every iteration: the score cannot drop below that floor.
        let vector_floor = 3.0 * m.nrows() as f64 * 16.0 / (env.mem_bw_gbs * 1e9);
        assert!(p4 >= vector_floor);
    }
}
