//! Sparse-matrix substrate for the KPM reproduction.
//!
//! Provides the matrix storage formats and multiplication kernels the
//! paper builds on:
//!
//! * [`coo`] — a coordinate-format builder used during matrix assembly,
//! * [`crs`] — Compressed Row Storage (CRS, a.k.a. CSR; identical to
//!   SELL-1 in the paper's terminology), the format used for all SpMMV
//!   kernels because vectorization happens across the block vector
//!   (paper Section IV-A); a lattice's is coded, its sweep walking the
//!   lattice's site blocks,
//! * [`stencil`] — the topological-insulator lattice's generator: its
//!   geometry, block templates and one on-site code per site, which
//!   build its CRS form (coded, or plain from regenerated rows), prove
//!   its Hermiticity and bound its spectrum over its distinct blocks,
//! * [`kernels`] — the [`SparseKernels`] trait — a format's dimensions
//!   and its one `sweep`, with every named kernel (`spmv`, `spmmv`, the
//!   paper's *augmented* `aug_spmv()` of Fig. 4 and `aug_spmmv()` of
//!   Fig. 5, which fuse the shift, scale, recurrence update and both
//!   Chebyshev scalar products into the matrix sweep) a provided method
//!   on top — and the [`KpmMatrix`] handle the solver runs on, one CRS
//!   and its cache budget,
//! * `sweep` (private) — the one register-panel row-range sweep every
//!   kernel runs at every width, on the split `re`/`im` lanes of the
//!   block vectors' panels, compiled for the baseline target, for AVX2
//!   and for AVX-512 from the same source (the paper's generated,
//!   unrolled kernels of Section IV-B for any block width),
//! * [`aug`] — the dot products the augmented kernels return,
//! * [`tile`] — cache-aware row-block tile sizing for the blocked
//!   kernels (per-thread cache budget → rows per tile),
//! * [`simd`] — which copy of the sweep runs: the run-time choice
//!   among the baseline, AVX2 and AVX-512 copies and the global cap the
//!   tests and benches move,
//! * [`stats`] — sparsity-structure analysis (diagonal detection,
//!   bandwidth, row-length histograms) matching the paper's discussion
//!   of the topological-insulator matrix structure,
//! * [`io`] — Matrix Market reading/writing (std-only).

#![warn(missing_docs)]

pub mod aug;
pub mod coo;
pub mod crs;
pub mod io;
pub mod kernels;
pub mod simd;
pub mod stats;
pub mod stencil;
mod sweep;
pub mod tile;

pub use coo::CooMatrix;
pub use crs::CrsMatrix;
pub use kernels::{KpmMatrix, SparseKernels};
pub use stencil::StencilMatrix;
pub use sweep::{Schedule, SweepOp};
