//! Node-level performance model (paper Fig. 11).
//!
//! Predicts the sustained KPM performance of one heterogeneous node
//! (one CPU socket + one GPU, as on Piz Daint) for each optimization
//! stage, for CPU-only, GPU-only and combined execution. The CPU side
//! uses the roofline machinery of `kpm-perfmodel`; the GPU side uses the
//! trace-driven simulator of `kpm-simgpu`; the heterogeneous combination
//! adds the PCIe halo-exchange overhead and the sacrificed management
//! core (paper Section VI-B: one CPU core per GPU is "sacrificed" for
//! kernel launches and transfers).

use kpm_perfmodel::balance::min_code_balance;
use kpm_perfmodel::machine::Machine;
use kpm_perfmodel::roofline::memory_bound;
use kpm_simgpu::{simulate, GpuDevice, GpuKernel};
use kpm_sparse::CrsMatrix;

/// The three optimization stages of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Paper Fig. 3: SpMV + separate BLAS-1 kernels.
    Naive,
    /// Paper Fig. 4: fused augmented SpMV (R = 1 per sweep).
    Stage1,
    /// Paper Fig. 5: blocked augmented SpMMV.
    Stage2,
}

/// Code balance of a stage at block width `r` (minimum, Ω = 1).
fn stage_balance(stage: Stage, nnzr: f64, r: usize) -> f64 {
    use kpm_num::accounting::{Sweep, S_D};
    match stage {
        // Naive: matrix once + 13 vector transfers per iteration — the
        // plain sweep's 2 and the BLAS-1 chain's 11.
        Stage::Naive => {
            let bytes = Sweep::Plain.min_bytes_per_row(nnzr, 1) + (11 * S_D) as f64;
            bytes / Sweep::Aug.flops_per_row(nnzr)
        }
        // Stage 1: fused kernel at R = 1.
        Stage::Stage1 => min_code_balance(nnzr, 1),
        Stage::Stage2 => min_code_balance(nnzr, r),
    }
}

/// Empirical GPU efficiency of the naive chain, which pays kernel-launch
/// and separate-reduction overheads. Calibrated against the paper's
/// measured GPU-only speedup of 2.3x from naive to stage 2.
pub const GPU_NAIVE_EFFICIENCY: f64 = 0.70;
/// Empirical GPU efficiency of the single-vector augmented kernel,
/// latency-limited by its fused dot products at degenerate warp
/// occupancy.
pub const GPU_STAGE1_EFFICIENCY: f64 = 0.50;

/// The naive CPU chain of separate BLAS-1 kernels loses ~30% to loop
/// overheads and synchronization between kernels relative to its pure
/// bandwidth roofline (calibrated so the paper's "more than a factor of
/// 10" total node speedup holds).
pub const CPU_NAIVE_EFFICIENCY: f64 = 0.70;

/// PCIe bandwidth available for halo staging (page-locked memory, GB/s).
pub const PCIE_BW_GBS: f64 = 6.0;

/// Performance of one *CPU socket* at `stage`, using `cores` of its
/// cores (paper: the full socket when CPU-only, cores-1 when a GPU
/// must be managed).
pub fn cpu_performance(machine: &Machine, stage: Stage, r: usize, cores: usize, omega: f64) -> f64 {
    assert!(
        cores >= 1 && cores <= machine.cores,
        "core count out of range"
    );
    let nnzr = 13.0;
    let b = stage_balance(stage, nnzr, r) * omega;
    let p_mem = memory_bound(machine, b);
    match stage {
        // Memory-bound stages: bandwidth is shared, losing a core does
        // not matter once saturated.
        Stage::Naive => CPU_NAIVE_EFFICIENCY * p_mem.min(machine.peak_of_cores(cores)),
        Stage::Stage1 => p_mem.min(machine.peak_of_cores(cores)),
        // Stage 2 decouples from memory: in-core execution scales with
        // the cores actually computing (paper Section VI-B).
        Stage::Stage2 => {
            let p_llc_full = machine.llc_ceiling_gflops;
            let p_core = p_llc_full / machine.cores as f64;
            p_mem.min(p_core * cores as f64)
        }
    }
}

/// Performance of one GPU at `stage`. Stage 2 runs the trace-driven
/// simulator on `matrix`; the earlier stages use the balance model with
/// the calibrated efficiency factors.
pub fn gpu_performance(device: &GpuDevice, stage: Stage, r: usize, matrix: &CrsMatrix) -> f64 {
    let nnzr = 13.0;
    match stage {
        Stage::Naive => {
            GPU_NAIVE_EFFICIENCY * memory_bound(&device.machine, stage_balance(stage, nnzr, 1))
        }
        Stage::Stage1 => {
            GPU_STAGE1_EFFICIENCY * memory_bound(&device.machine, stage_balance(stage, nnzr, 1))
        }
        Stage::Stage2 => simulate(device, matrix, r, GpuKernel::AugFull).gflops(),
    }
}

/// Node-level prediction for one stage (one Fig. 11 bar group).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePerformance {
    /// Which stage.
    pub stage: Stage,
    /// CPU-only (full socket).
    pub cpu_gflops: f64,
    /// GPU-only.
    pub gpu_gflops: f64,
    /// Heterogeneous CPU+GPU.
    pub het_gflops: f64,
    /// Parallel efficiency of the heterogeneous run relative to the sum
    /// of the single-device numbers (the percentages atop Fig. 11).
    pub efficiency: f64,
}

/// Evaluates the Fig. 11 model for one stage.
///
/// `matrix` is the single-device benchmark matrix (the paper's
/// 200×100×40 domain — any matrix with the same row occupancy gives the
/// same rates); `r` is the block width of stage 2 (the paper uses 32);
/// `omega` the measured excess-traffic factor of the CPU kernel.
pub fn node_performance(
    cpu: &Machine,
    gpu: &GpuDevice,
    stage: Stage,
    r: usize,
    matrix: &CrsMatrix,
    omega: f64,
) -> NodePerformance {
    let cpu_only = cpu_performance(cpu, stage, r, cpu.cores, omega);
    let gpu_only = gpu_performance(gpu, stage, r, matrix);

    // Heterogeneous run: one management core sacrificed; each device
    // gets rows proportional to its speed; both then finish one sweep
    // in the same compute time. PCIe halo staging adds a serial phase.
    let cpu_part = cpu_performance(cpu, stage, r, cpu.cores - 1, omega);
    let combined = cpu_part + gpu_only;

    // Per-sweep accounting on the paper's heterogeneous node domain
    // (400×100×40, N = 6.4e6 rows — Fig. 11's workload): compute time
    // vs PCIe transfer of the device-boundary halo (both directions),
    // plus a fixed launch/synchronization cost per sweep. The passed
    // matrix only sets the kernel *rates*; the overhead ratio must be
    // evaluated at the real problem size.
    const NOMINAL_NODE_ROWS: f64 = 6_400_000.0;
    let n = NOMINAL_NODE_ROWS;
    let flops_per_sweep = (r as f64) * n * (13.0 * 8.0 + 34.0);
    let t_comp = flops_per_sweep / (combined * 1e9);
    // Boundary rows between the CPU and GPU row blocks: one lattice
    // plane of the stencil (the row block boundary cuts one x-y plane;
    // its halo is ~ N / Nz rows on each side, Nz = 40).
    let boundary_rows = n / 40.0;
    let halo_bytes = 2.0 * boundary_rows * (r as f64) * 16.0;
    let t_pcie = halo_bytes / (PCIE_BW_GBS * 1e9) + 50e-6;
    let het = flops_per_sweep / ((t_comp + t_pcie) * 1e9);
    NodePerformance {
        stage,
        cpu_gflops: cpu_only,
        gpu_gflops: gpu_only,
        het_gflops: het,
        efficiency: het / combined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_perfmodel::machine::SNB;
    use kpm_topo::TopoHamiltonian;

    fn bench_matrix() -> CrsMatrix {
        // Scaled-down stand-in for the paper's 200x100x40 single-device
        // domain; rates depend only on row occupancy and cache-to-block
        // ratios, both preserved.
        TopoHamiltonian::clean(32, 16, 8).assemble()
    }

    fn fig11(stage: Stage) -> NodePerformance {
        node_performance(&SNB, &GpuDevice::k20x(), stage, 32, &bench_matrix(), 1.3)
    }

    #[test]
    fn stages_improve_monotonically_on_every_target() {
        let naive = fig11(Stage::Naive);
        let s1 = fig11(Stage::Stage1);
        let s2 = fig11(Stage::Stage2);
        assert!(naive.cpu_gflops < s1.cpu_gflops && s1.cpu_gflops < s2.cpu_gflops);
        assert!(naive.gpu_gflops < s1.gpu_gflops && s1.gpu_gflops < s2.gpu_gflops);
        assert!(naive.het_gflops < s1.het_gflops && s1.het_gflops < s2.het_gflops);
    }

    #[test]
    fn gpu_speedup_naive_to_stage2_near_paper_2_3x() {
        let naive = fig11(Stage::Naive);
        let s2 = fig11(Stage::Stage2);
        let speedup = s2.gpu_gflops / naive.gpu_gflops;
        assert!(
            speedup > 1.9 && speedup < 2.8,
            "GPU naive->stage2 speedup = {speedup}"
        );
    }

    #[test]
    fn heterogeneous_gain_over_gpu_only_near_paper_36pct() {
        let s2 = fig11(Stage::Stage2);
        let gain = s2.het_gflops / s2.gpu_gflops;
        assert!(gain > 1.2 && gain < 1.6, "heterogeneous gain = {gain}");
    }

    #[test]
    fn parallel_efficiency_in_paper_band() {
        // Paper Fig. 11: 85-90% for the optimized stages.
        for stage in [Stage::Stage1, Stage::Stage2] {
            let p = fig11(stage);
            assert!(
                p.efficiency > 0.80 && p.efficiency < 0.97,
                "{stage:?}: efficiency = {}",
                p.efficiency
            );
        }
    }

    #[test]
    fn total_node_speedup_naive_cpu_to_het_stage2_exceeds_10x() {
        // Paper Section VI-B: "more than a factor of 10".
        let naive = fig11(Stage::Naive);
        let s2 = fig11(Stage::Stage2);
        let speedup = s2.het_gflops / naive.cpu_gflops;
        assert!(speedup > 9.0, "total speedup = {speedup}");
    }

    #[test]
    fn losing_a_core_hurts_stage2_but_not_stage1() {
        let full = cpu_performance(&SNB, Stage::Stage2, 32, 8, 1.3);
        let less = cpu_performance(&SNB, Stage::Stage2, 32, 7, 1.3);
        assert!(less < full);
        let full1 = cpu_performance(&SNB, Stage::Stage1, 1, 8, 1.0);
        let less1 = cpu_performance(&SNB, Stage::Stage1, 1, 7, 1.0);
        assert!((full1 - less1).abs() < 1e-9, "stage 1 is bandwidth-bound");
    }

    #[test]
    fn node_stage2_lands_near_100_gflops() {
        // Fig. 11 / Fig. 12 baseline: the heterogeneous node sustains
        // on the order of 100 Gflop/s.
        let s2 = fig11(Stage::Stage2);
        assert!(
            s2.het_gflops > 70.0 && s2.het_gflops < 140.0,
            "het = {}",
            s2.het_gflops
        );
    }
}
