//! The format tuner: CRS or the matrix-free stencil.
//!
//! Scores the formats an operator can run in against a **machine
//! envelope** ([`AutotuneEnv`]: thread count, memory bandwidth, peak
//! compute, typically filled from the kpm-perfmodel machine catalog)
//! with the paper's traffic terms (Eqs. 5–8).
//!
//! Correctness is never at stake: every candidate computes bitwise-
//! identical moments, so the tuner is free to pick aggressively.

use crate::crs::CrsMatrix;
use crate::kernels::FormatSpec;
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
        }
    }
}

/// The tuner's decision, with the model quantity that justified it.
/// The caller wraps what it holds — the CRS matrix, or the stencil it
/// gave the tuner — at `cache_bytes`
/// ([`crate::KpmMatrix::with_cache_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneChoice {
    /// The selected storage format.
    pub format: FormatSpec,
    /// Per-thread cache budget (bytes) for the blocked tilings.
    pub cache_bytes: usize,
    /// Modeled seconds per augmented SpMV sweep (the score minimized).
    pub predicted_seconds: f64,
}

/// FMA result latency in issue slots: how many independent
/// accumulation chains one lane needs in flight to saturate its
/// pipeline. A row's multiply–add chain is fully dependent, so a sweep
/// that walks one row at a time runs at `1/(lanes · latency)` of peak.
const FMA_LATENCY: f64 = 4.0;

/// Modeled seconds of one augmented sweep for a candidate.
///
/// Memory side: the Eq. 5-style traffic with the matrix term streaming
/// `stored` elements (20 bytes each) — the matrix-free stencil passes
/// `stored = 0` and the term vanishes outright — plus the three vector
/// streams. Compute side: 8 flops per processed element
/// (`flop_elems`) on one dependent chain per row, at
/// `peak / (L · latency)` for `L` SIMD lanes. The site-blocked stencil
/// sweep applies pre-sorted block templates, so its per-entry
/// instruction stream is CRS's minus the index and value loads and it
/// is charged the same flops.
pub fn model_seconds_fmt(nrows: usize, flop_elems: usize, stored: usize, env: &AutotuneEnv) -> f64 {
    const S_ELEM: f64 = 20.0; // value (16) + column index (4)
    const S_D: f64 = 16.0;
    let bytes = stored as f64 * S_ELEM + 3.0 * nrows as f64 * S_D;
    let t_mem = bytes / (env.mem_bw_gbs.max(1e-9) * 1e9);
    let flops = 8.0 * flop_elems as f64 + 16.0 * nrows as f64;
    let lanes = env.simd_lanes.max(1) as f64;
    let chain_frac = 1.0 / (lanes * FMA_LATENCY);
    let t_comp = flops / (env.peak_gflops.max(1e-9) * 1e9 * chain_frac);
    t_mem.max(t_comp)
}

/// Picks the storage format for `m` under `env`.
///
/// `stencil` supplies the matrix-free representation when the operator
/// is a known lattice stencil; without one CRS is the only candidate.
/// Never fails.
pub fn autotune_formats(
    m: &CrsMatrix,
    env: &AutotuneEnv,
    stencil: Option<&StencilMatrix>,
) -> AutotuneChoice {
    let (nrows, nnz) = (m.nrows(), m.nnz());
    let crs = model_seconds_fmt(nrows, nnz, nnz, env);
    let matrix_free = stencil.map(|_| model_seconds_fmt(nrows, nnz, 0, env));
    // The stencil takes the compute-bound tie with CRS (it is CRS's
    // flop stream with fewer loads).
    let (format, predicted_seconds) = match matrix_free {
        Some(secs) if secs <= crs => (FormatSpec::Stencil, secs),
        _ => (FormatSpec::Crs, crs),
    };
    AutotuneChoice {
        format,
        cache_bytes: env.cache_bytes_per_thread.max(1),
        predicted_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_num::Complex64;

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
    fn memory_bound() -> AutotuneEnv {
        AutotuneEnv {
            mem_bw_gbs: 1.0,
            peak_gflops: 10_000.0,
            ..AutotuneEnv::generic(1)
        }
    }

    #[test]
    fn stencil_wins_when_memory_bound() {
        // The matrix-traffic term dominates and the matrix-free
        // candidate (which pays none) must win.
        let (st, m) = toy_stencil(4, 4, 6);
        let env = memory_bound();
        let choice = autotune_formats(&m, &env, Some(&st));
        assert_eq!(choice.format, FormatSpec::Stencil);
        // Without the stencil source the same envelope settles on CRS.
        let no_st = autotune_formats(&m, &env, None);
        assert_eq!(no_st.format, FormatSpec::Crs);
        assert!(choice.predicted_seconds < no_st.predicted_seconds);
        assert_eq!(no_st.cache_bytes, env.cache_bytes_per_thread);
    }
}
