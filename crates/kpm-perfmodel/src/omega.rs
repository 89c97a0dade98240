//! Measuring the excess-traffic factor Ω on the CPU memory hierarchy.
//!
//! Ω = V_meas / V_KPM (paper Eq. 8): the ratio of the memory traffic a
//! kernel actually generates to its theoretical minimum. Ω > 1 arises
//! when the right-hand-side block does not stay cache-resident between
//! uses — an unfavourable sparsity pattern or an undersized LLC forces
//! re-reads from DRAM, and growing block width R shrinks the number of
//! matrix rows whose working set fits (paper Section III-A, Fig. 8).
//!
//! This module replays the exact address stream of one `aug_spmmv`
//! sweep over a real [`CrsMatrix`] through the LLC simulator and reads
//! off the DRAM volume.

use kpm_num::accounting::{crs_bytes, Sweep, S_D, S_I};
use kpm_obs::probe::KernelKind;
use kpm_sparse::CrsMatrix;

use crate::cachesim::{CacheConfig, MemoryHierarchy};
use crate::machine::Machine;
use crate::traffic::stage2_solver_traffic;

/// Result of one Ω measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmegaReport {
    /// Block vector width.
    pub r: usize,
    /// Theoretical minimum traffic of one blocked sweep (bytes).
    pub v_min: u64,
    /// Simulated DRAM traffic of one blocked sweep (bytes).
    pub v_meas: u64,
    /// The excess factor `Ω = V_meas / V_min`.
    pub omega: f64,
}

/// The LLC of `machine` as a cache-simulator configuration (64-byte
/// lines, 20-way — the organization of the modelled Xeons).
pub fn llc_config(machine: &Machine) -> CacheConfig {
    CacheConfig {
        capacity_bytes: machine.llc_bytes(),
        line_bytes: 64,
        ways: 20,
    }
}

/// Replays one `aug_spmmv` sweep (block width `r`) over `h` through an
/// LLC of the given geometry and reports Ω.
///
/// Address-space layout (disjoint regions, as in the real kernel):
/// matrix values, matrix column indices, the input block `V`, the
/// output block `W`. Matrix data streams sequentially; each non-zero
/// triggers a read of the `R`-wide interleaved row of `V`; each row end
/// reads and writes the `R`-wide row of `W`.
pub fn measure_omega(h: &CrsMatrix, r: usize, llc: CacheConfig) -> OmegaReport {
    assert!(r >= 1, "block width must be >= 1");
    let n = h.nrows() as u64;
    let nnz = h.nnz() as u64;
    let (sd, si) = (S_D as u64, S_I as u64);
    let row_bytes = r as u64 * sd;

    // Disjoint address regions.
    let vals_base = 0u64;
    let cols_base = vals_base + nnz * sd;
    let v_base = cols_base + nnz * si;
    let w_base = v_base + n * row_bytes;

    let mut mem = MemoryHierarchy::new(&[llc]);
    let mut k = 0u64;
    for row in 0..h.nrows() {
        for &c in h.row(row).cols() {
            // Matrix value + index stream (sequential).
            mem.read(vals_base + k * sd, sd as usize);
            mem.read(cols_base + k * si, si as usize);
            k += 1;
            // Gather the interleaved R-row of V at the column index.
            mem.read(v_base + c as u64 * row_bytes, row_bytes as usize);
        }
        // Diagonal shift re-reads V's own row (cache-hot: just touched
        // if the diagonal is among the columns; charge it regardless).
        mem.read(v_base + row as u64 * row_bytes, row_bytes as usize);
        // Recurrence: read old W row, write new one.
        mem.read(w_base + row as u64 * row_bytes, row_bytes as usize);
        mem.write(w_base + row as u64 * row_bytes, row_bytes as usize);
    }
    let report = mem.finish();

    // Minimum traffic of ONE sweep = stage-2 traffic with M = 2.
    let v_min = stage2_solver_traffic(h.nrows(), h.nnz(), r, 2) as u64;
    OmegaReport {
        r,
        v_min,
        v_meas: report.memory_bytes,
        omega: report.memory_bytes as f64 / v_min as f64,
    }
}

/// Sweeps Ω over a list of block widths (the x-axis of paper Fig. 8).
pub fn omega_sweep(h: &CrsMatrix, rs: &[usize], llc: CacheConfig) -> Vec<OmegaReport> {
    rs.iter().map(|&r| measure_omega(h, r, llc)).collect()
}

/// Replays `sweeps` back-to-back sweeps of the given kernel through an
/// LLC and reports the *per-sweep* Ω — the live counterpart of
/// [`measure_omega`] used by the achieved-vs-predicted telemetry report.
///
/// Unlike the cold single-sweep measurement, the cache is NOT reset
/// between sweeps, so this captures the steady-state Ω an instrumented
/// solver iteration actually sees. For working sets well above the LLC
/// capacity the warm and cold values agree closely (only the first
/// sweep's compulsory misses differ); for LLC-resident problems warm Ω
/// drops below one, exactly as hardware counters would show.
///
/// Per-kernel address streams:
/// * [`KernelKind::Spmv`] — matrix values + indices sequential, a
///   gather of the `R`-row of `X` per non-zero, one write of the
///   `R`-row of `Y` per row (minimum: `Nnz(Sd+Si) + 2·R·N·Sd`).
/// * [`KernelKind::AugSpmv`] / [`KernelKind::AugSpmmv`] — the fused
///   stream of [`measure_omega`] with the extra diagonal-shift re-read
///   and the read-modify-write of `W` (minimum: `Nnz(Sd+Si) + 3·R·N·Sd`).
///
/// Both replay the paper's CRS layout, one value per entry, whichever
/// way `h` stores its values, so Ω is the paper's quantity for this
/// sparsity pattern.
pub fn measure_omega_kernel(
    h: &CrsMatrix,
    kind: KernelKind,
    r: usize,
    llc: CacheConfig,
    sweeps: usize,
) -> OmegaReport {
    assert!(r >= 1, "block width must be >= 1");
    assert!(sweeps >= 1, "need at least one sweep");
    let n = h.nrows() as u64;
    let nnz = h.nnz() as u64;
    let (sd, si) = (S_D as u64, S_I as u64);
    let row_bytes = r as u64 * sd;

    // Disjoint address regions: vals | cols | V (or X) | W (or Y).
    let vals_base = 0u64;
    let cols_base = vals_base + nnz * sd;
    let v_base = cols_base + nnz * si;
    let w_base = v_base + n * row_bytes;
    let augmented = !matches!(kind, KernelKind::Spmv);

    let mut mem = MemoryHierarchy::new(&[llc]);
    for _ in 0..sweeps {
        let mut k = 0u64;
        for row in 0..h.nrows() {
            for &c in h.row(row).cols() {
                mem.read(vals_base + k * sd, sd as usize);
                mem.read(cols_base + k * si, si as usize);
                k += 1;
                mem.read(v_base + c as u64 * row_bytes, row_bytes as usize);
            }
            if augmented {
                // Diagonal shift re-reads V's own row; the recurrence
                // reads the old W row before overwriting it.
                mem.read(v_base + row as u64 * row_bytes, row_bytes as usize);
                mem.read(w_base + row as u64 * row_bytes, row_bytes as usize);
            }
            mem.write(w_base + row as u64 * row_bytes, row_bytes as usize);
        }
    }
    let report = mem.finish();

    let sweep = if augmented { Sweep::Aug } else { Sweep::Plain };
    let v_min = sweep.min_bytes(h.nrows(), crs_bytes(h.nnz()), r) as u64;
    let v_meas = report.memory_bytes / sweeps as u64;
    OmegaReport {
        r,
        v_min,
        v_meas,
        omega: v_meas as f64 / v_min as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_topo::TopoHamiltonian;

    fn small_llc(kib: usize) -> CacheConfig {
        CacheConfig {
            capacity_bytes: kib * 1024,
            line_bytes: 64,
            ways: 16,
        }
    }

    #[test]
    fn omega_is_at_least_one_for_line_aligned_blocks() {
        // R = 4: one block row = 64 B = exactly one line, so no
        // partial-line overfetch; Ω >= 1 within rounding.
        let h = TopoHamiltonian::clean(8, 8, 4).assemble();
        let rep = measure_omega(&h, 4, small_llc(512));
        assert!(rep.omega >= 0.99, "omega = {}", rep.omega);
    }

    #[test]
    fn big_cache_keeps_omega_near_one() {
        // LLC larger than the whole working set: every vector line is
        // fetched exactly once.
        let h = TopoHamiltonian::clean(6, 6, 3).assemble();
        let r = 4;
        // Working set: ~ (13*20 + 3*64)*432 bytes << 4 MiB.
        let rep = measure_omega(&h, r, small_llc(4096));
        assert!(rep.omega < 1.1, "omega = {}", rep.omega);
    }

    #[test]
    fn tiny_cache_inflates_omega() {
        // Shrink the LLC far below the block working set: stencil
        // neighbours in y/z no longer stay resident between uses.
        let h = TopoHamiltonian::clean(16, 16, 4).assemble();
        let big = measure_omega(&h, 8, small_llc(2048));
        let tiny = measure_omega(&h, 8, small_llc(16));
        assert!(
            tiny.omega > big.omega + 0.2,
            "tiny {} vs big {}",
            tiny.omega,
            big.omega
        );
    }

    #[test]
    fn omega_grows_with_r_for_fixed_cache() {
        // Larger blocks enlarge the working set relative to the cache:
        // the paper's Fig. 8 annotations (Ω: ~1 -> 1.16 -> 1.54).
        let h = TopoHamiltonian::clean(16, 16, 4).assemble();
        let llc = small_llc(64);
        let o4 = measure_omega(&h, 4, llc).omega;
        let o32 = measure_omega(&h, 32, llc).omega;
        assert!(o32 > o4, "o4 = {o4}, o32 = {o32}");
    }

    #[test]
    fn sweep_returns_one_report_per_r() {
        let h = TopoHamiltonian::clean(4, 4, 2).assemble();
        let reps = omega_sweep(&h, &[1, 2, 4], small_llc(256));
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0].r, 1);
        assert_eq!(reps[2].r, 4);
        for rp in reps {
            assert!(rp.v_meas > 0 && rp.v_min > 0);
        }
    }
}
