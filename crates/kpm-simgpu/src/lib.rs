//! SIMT GPU simulator for the augmented SpMMV kernels.
//!
//! The paper implements `aug_spmmv()` in CUDA on Kepler GPUs (paper
//! Section IV-C, Fig. 6) and characterizes it with nvprof (Figs. 9, 10).
//! No CUDA hardware or toolchain is available to this reproduction, so
//! this crate substitutes a *trace-driven simulator*:
//!
//! * [`device`] — the Kepler-class device model (warp size 32, SMX
//!   count, 48 KiB read-only/texture cache per SMX, shared L2, DRAM),
//!   with per-kernel achievable-bandwidth ceilings calibrated against
//!   the paper's measured saturation levels,
//! * [`memory`] — the two-path GPU memory system: `const __restrict__`
//!   loads travel TEX → L2 → DRAM, other global accesses L2 → DRAM;
//!   volumes are counted per level exactly where nvprof counts them,
//! * [`exec`] — replays the warp-level access stream of the three
//!   kernels of paper Fig. 10 (plain SpMMV, augmented without on-the-fly
//!   dots, fully augmented) over a real sparse matrix,
//! * [`timing`] — converts per-level volumes into run time, per-level
//!   bandwidths (Fig. 10), and Gflop/s (Fig. 11's GPU bars),
//! * [`occupancy`] — static warp-mapping analysis (lane utilization,
//!   coalescing, lockstep divergence) of the Fig. 6 thread layout,
//! * [`warp_exec`] — a *functional* SIMT executor: computes the kernel
//!   with real warp lockstep and shuffle-reduction semantics and is
//!   validated against the CPU kernels.
//!
//! What this simulator preserves from the real hardware: the per-level
//! data volumes (a property of the access stream and cache geometry,
//! not of the silicon), the bottleneck shift from DRAM to cache levels
//! with growing block width, and the latency penalty of the fused dot
//! products. What it replaces with calibration: absolute bandwidth
//! ceilings per kernel class.

#![warn(missing_docs)]

pub mod device;
pub mod exec;
pub mod memory;
pub mod occupancy;
pub mod timing;
pub mod warp_exec;

pub use device::{GpuDevice, GpuKernel};
pub use exec::{simulate, GpuRunReport};
pub use memory::GpuMemory;
