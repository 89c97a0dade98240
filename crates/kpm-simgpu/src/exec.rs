//! Warp-level execution trace of the SpMMV kernels (paper Fig. 6).
//!
//! The thread mapping follows the paper: warps are arranged along block
//! vector rows, so for each matrix element the value is broadcast to the
//! `R` threads covering that row's right-hand sides while the vector
//! data itself is loaded coalesced. The simulator replays this stream
//! row by row — the order in which thread blocks drain on the device.

use kpm_num::accounting::{Sweep, F_A, F_M, S_D, S_I};
use kpm_sparse::CrsMatrix;

use crate::device::{GpuDevice, GpuKernel};
use crate::memory::{GpuMemory, GpuTraffic};
use crate::timing::{evaluate, Timing};

/// Result of one simulated kernel launch (one blocked sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuRunReport {
    /// Block vector width.
    pub r: usize,
    /// Which kernel ran.
    pub kernel: GpuKernel,
    /// Per-level traffic.
    pub traffic: GpuTraffic,
    /// Flops of the sweep.
    pub flops: u64,
    /// Run time and per-level bandwidths.
    pub timing: Timing,
}

impl GpuRunReport {
    /// Sustained performance in Gflop/s.
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / self.timing.seconds / 1e9
    }
}

/// Flop count of one sweep of `kernel` at block width `r`.
///
/// The fully augmented kernel executes the paper's per-iteration count
/// `R·[Nnz(Fa+Fm) + N(7Fa/2 + 9Fm/2)]`; the no-dot variant drops the two
/// fused scalar products (2 complex FMAs per row and vector); the plain
/// kernel performs only the sparse inner products.
pub fn kernel_flops(kernel: GpuKernel, n: usize, nnz: usize, r: usize) -> u64 {
    let dots_term = r * n * 2 * (F_A + F_M); // eta_even + eta_odd FMAs
    let flops = match kernel {
        GpuKernel::PlainSpmmv => Sweep::Plain.flops(n, nnz, r),
        GpuKernel::AugNoDot => Sweep::Aug.flops(n, nnz, r) - dots_term,
        GpuKernel::AugFull => Sweep::Aug.flops(n, nnz, r),
    };
    flops as u64
}

/// Simulates one launch of `kernel` over `h` at block width `r` on
/// `device`, returning traffic, timing and performance.
pub fn simulate(device: &GpuDevice, h: &CrsMatrix, r: usize, kernel: GpuKernel) -> GpuRunReport {
    assert!(r >= 1, "block width must be >= 1");
    assert_eq!(h.nrows(), h.ncols(), "square matrices only");
    let n = h.nrows() as u64;
    let nnz = h.nnz() as u64;
    let sd = S_D as u64;
    let si = S_I as u64;
    let row_bytes = (r as u64) * sd;

    // Disjoint device-memory regions, as cudaMalloc would lay them out.
    let vals_base = 0u64;
    let cols_base = vals_base + nnz * sd;
    let v_base = cols_base + nnz * si;
    let w_base = v_base + n * row_bytes;

    let mut mem = GpuMemory::new(device.tex, device.l2);
    let fanout = device.threads_per_row(r);

    let mut k = 0u64;
    for row in 0..h.nrows() {
        for &c in h.row_cols(row) {
            // Matrix value and column index broadcast through the
            // read-only cache to all R threads of the row (paper
            // Section V-B item 2).
            mem.read_const(vals_base + k * sd, S_D, fanout);
            mem.read_const(cols_base + k * si, S_I, fanout);
            k += 1;
            // Coalesced load of the interleaved RHS row (each thread
            // reads its own column: fan-out 1).
            mem.read_const(v_base + c as u64 * row_bytes, row_bytes as usize, 1);
        }
        match kernel {
            GpuKernel::PlainSpmmv => {
                // y is write-only.
                mem.write_global(w_base + row as u64 * row_bytes, row_bytes as usize);
            }
            GpuKernel::AugNoDot | GpuKernel::AugFull => {
                // Shift re-reads the own V row (usually TEX-hot), then
                // the recurrence reads and overwrites the W row.
                mem.read_const(v_base + row as u64 * row_bytes, row_bytes as usize, 1);
                mem.read_global(w_base + row as u64 * row_bytes, row_bytes as usize);
                mem.write_global(w_base + row as u64 * row_bytes, row_bytes as usize);
                // The fused dot products (AugFull) use register data and
                // warp shuffles: no additional memory traffic.
            }
        }
    }

    let traffic = mem.finish();
    let flops = kernel_flops(kernel, h.nrows(), h.nnz(), r);
    let timing = evaluate(device, kernel, traffic);
    GpuRunReport {
        r,
        kernel,
        traffic,
        flops,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_topo::TopoHamiltonian;

    fn matrix() -> CrsMatrix {
        TopoHamiltonian::clean(16, 16, 8).assemble()
    }

    #[test]
    fn tex_delivered_bytes_scale_linearly_with_r() {
        // Paper Fig. 9: the texture-path volume grows linearly in R
        // because matrix data is broadcast to R threads per row.
        let d = GpuDevice::k20m();
        let h = matrix();
        let v8 = simulate(&d, &h, 8, GpuKernel::PlainSpmmv).traffic.tex_bytes;
        let v32 = simulate(&d, &h, 32, GpuKernel::PlainSpmmv)
            .traffic
            .tex_bytes;
        let ratio = v32 as f64 / v8 as f64;
        assert!((ratio - 4.0).abs() < 0.35, "ratio = {ratio}");
    }

    #[test]
    fn dram_volume_per_vector_decreases_with_r() {
        // Matrix traffic amortizes over the block: DRAM bytes / R falls.
        let d = GpuDevice::k20m();
        let h = matrix();
        let per_vec = |r: usize| {
            simulate(&d, &h, r, GpuKernel::AugFull).traffic.dram_bytes() as f64 / r as f64
        };
        assert!(per_vec(16) < per_vec(4));
        assert!(per_vec(4) < per_vec(1));
    }

    #[test]
    fn l2_volume_at_least_dram_volume() {
        let d = GpuDevice::k20m();
        let h = matrix();
        for r in [1, 8, 32] {
            let t = simulate(&d, &h, r, GpuKernel::AugNoDot).traffic;
            assert!(t.l2_bytes >= t.dram_read, "R={r}");
        }
    }

    #[test]
    fn bottleneck_shifts_from_dram_to_cache_with_growing_r() {
        // Paper Fig. 10 (a)/(b): memory bound at R = 1, cache bound at
        // large R.
        let d = GpuDevice::k20m();
        let h = matrix();
        let small = simulate(&d, &h, 1, GpuKernel::AugNoDot);
        let large = simulate(&d, &h, 32, GpuKernel::AugNoDot);
        use crate::timing::Bottleneck;
        assert_eq!(small.timing.bottleneck, Bottleneck::Dram, "{small:?}");
        assert_ne!(large.timing.bottleneck, Bottleneck::Dram, "{large:?}");
    }

    #[test]
    fn fused_kernel_is_slower_but_beats_separate_dots() {
        // Fig. 10 (c): all bandwidths lower for the fused kernel — but
        // the fused version still beats NoDot plus two extra block
        // sweeps for the dots (the alternative implementation).
        let d = GpuDevice::k20m();
        let h = matrix();
        let r = 32;
        let nodot = simulate(&d, &h, r, GpuKernel::AugNoDot);
        let full = simulate(&d, &h, r, GpuKernel::AugFull);
        assert!(full.timing.seconds > nodot.timing.seconds);
        // Separate dots: two more kernels, each streaming both blocks.
        // Those dot kernels pay the same shuffle-reduction latency as
        // the fused one, so they run at the latency-deflated DRAM
        // ceiling, not at streaming speed.
        let extra_bytes = 4.0 * (h.nrows() * r * 16) as f64;
        let separate = nodot.timing.seconds + extra_bytes / (d.fused_ceilings.dram_gbs * 1e9);
        assert!(
            full.timing.seconds < separate,
            "fused {} vs separate {}",
            full.timing.seconds,
            separate
        );
    }

    #[test]
    fn gflops_sane_range_at_r32() {
        // Calibration check: full aug_spmmv at R=32 on K20m should land
        // in the paper's ballpark (tens of Gflop/s, far below peak).
        let d = GpuDevice::k20m();
        let h = matrix();
        let rep = simulate(&d, &h, 32, GpuKernel::AugFull);
        let g = rep.gflops();
        assert!(g > 20.0 && g < 200.0, "gflops = {g}");
    }

    #[test]
    fn flop_accounting_matches_paper_for_full_kernel() {
        let n = 1000;
        let nnz = 13 * n;
        let r = 8;
        assert_eq!(
            kernel_flops(GpuKernel::AugFull, n, nnz, r) as usize,
            Sweep::Aug.flops(n, nnz, r)
        );
        // Plain < NoDot < Full.
        assert!(
            kernel_flops(GpuKernel::PlainSpmmv, n, nnz, r)
                < kernel_flops(GpuKernel::AugNoDot, n, nnz, r)
        );
        assert!(
            kernel_flops(GpuKernel::AugNoDot, n, nnz, r)
                < kernel_flops(GpuKernel::AugFull, n, nnz, r)
        );
    }
}
