#![cfg_attr(feature = "simd", feature(portable_simd))]

//! Sparse-matrix substrate for the KPM reproduction.
//!
//! Provides the matrix storage formats and multiplication kernels the
//! paper builds on:
//!
//! * [`coo`] — a coordinate-format builder used during matrix assembly,
//! * [`crs`] — Compressed Row Storage (CRS, a.k.a. CSR; identical to
//!   SELL-1 in the paper's terminology), the format used for all SpMMV
//!   kernels because vectorization happens across the block vector
//!   (paper Section IV-A),
//! * [`sell`] — the SELL-C-σ format of Kreutzer et al. (SIAM J. Sci.
//!   Comput. 2014), the SIMD-friendly unified CPU/GPU format used for
//!   single-vector SpMV,
//! * [`spmv`] — plain sparse matrix (multiple) vector multiplication,
//! * [`aug`] — the paper's *augmented* kernels: `aug_spmv()` (Fig. 4)
//!   and `aug_spmmv()` (Fig. 5), which fuse the shift, scale, recurrence
//!   update and both Chebyshev scalar products into the matrix sweep,
//! * [`blocked`] — cache-blocked SpMMV, the outlook optimization of
//!   paper Section VII (ref. [31]),
//! * [`stats`] — sparsity-structure analysis (diagonal detection,
//!   bandwidth, row-length histograms) matching the paper's discussion
//!   of the topological-insulator matrix structure,
//! * [`io`] — Matrix Market reading/writing (std-only),
//! * [`aug_sell`] — the augmented kernel family on SELL-C-σ matrices,
//!   bitwise-identical to the CRS kernels for any `C`/`σ`/thread count,
//! * `sweep` (private) — the one register-panel row-range sweep every blocked
//!   CRS and stencil kernel runs, compiled for the baseline target and
//!   for AVX2 from the same source (the paper's generated, unrolled
//!   kernels of Section IV-B for any block width),
//! * [`tile`] — cache-aware row-block tile sizing for the blocked
//!   kernels (per-thread cache budget → rows per tile),
//! * [`kernels`] — the format-pluggable [`SparseKernels`] trait and the
//!   [`KpmMatrix`] handle the solver runs on,
//! * [`stencil`] — the matrix-free topological-insulator stencil
//!   format: the kernels rebuild the operator site by site from block
//!   templates, so the matrix stream disappears from the traffic
//!   balance entirely,
//! * [`power`] — level-blocked Chebyshev matrix-power kernels that run
//!   `p` iterations per matrix traversal behind `aug_spmmv_power`,
//! * [`autotune`] — the `C`/`σ`/task-granularity autotuner driven by the
//!   row-length distribution and a machine model,
//! * [`simd`] — which vector bodies run: the run-time choice between
//!   the baseline and AVX2 copies of the blocked sweep, the build-time
//!   (`--features simd`) lane width of the SELL kernels, and the global
//!   toggle the benches flip,
//! * [`aug_sell_simd`] — the lane-mapped inner loops of the SELL-C-σ and
//!   blocked kernels (`C` is the lane dimension; scalar tails everywhere),
//!   bitwise-identical to the scalar bodies by construction,
//! * [`placement`] — NUMA-style first-touch placement: hot arrays are
//!   allocated untouched and each range is first written by the pool
//!   worker the stable part→worker assignment gives it.

pub mod aug;
pub mod aug_sell;
pub mod aug_sell_simd;
pub mod autotune;
pub mod blocked;
pub mod coo;
pub mod crs;
pub mod io;
pub mod kernels;
pub mod placement;
pub mod power;
pub mod sell;
pub mod simd;
pub mod spmv;
pub mod stats;
pub mod stencil;
mod sweep;
pub mod tile;

pub use autotune::{
    autotune, autotune_formats, autotune_formats_report, AutotuneChoice, AutotuneEnv, ProbePoint,
};
pub use coo::CooMatrix;
pub use crs::CrsMatrix;
pub use kernels::{FormatSpec, KpmMatrix, SparseKernels};
pub use placement::{fault_block_rows, Placement};
pub use power::{LevelSet, PowerRows, RowBuf};
pub use sell::SellMatrix;
pub use stencil::StencilMatrix;
