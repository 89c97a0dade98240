//! Integration: the performance models reproduce the paper's published
//! numbers — code balance (Eqs. 5-7), the Fig. 8 roofline regimes, the
//! Fig. 10 bottleneck shift, the Fig. 11 node-level ratios, the Fig. 12
//! scaling shapes and the Table III resource comparison.

use kpm_repro::hetsim::cluster::ClusterModel;
use kpm_repro::hetsim::node::{node_performance, Stage};
use kpm_repro::perfmodel::balance::min_code_balance;
use kpm_repro::perfmodel::machine::{IVB, SNB};
use kpm_repro::perfmodel::omega::{llc_config, measure_omega};
use kpm_repro::perfmodel::roofline::{custom_roofline, roofline};
use kpm_repro::simgpu::{simulate, GpuDevice, GpuKernel};
use kpm_repro::topo::TopoHamiltonian;

fn bench_matrix() -> kpm_repro::sparse::CrsMatrix {
    TopoHamiltonian::clean(32, 16, 8).assemble()
}

#[test]
fn paper_eq6_and_eq7_balance_values() {
    assert!((min_code_balance(13.0, 1) - 2.23).abs() < 0.01);
    assert!((min_code_balance(13.0, 10_000) - 0.35).abs() < 0.01);
}

#[test]
fn fig8_regime_change_happens_between_r4_and_r8() {
    // On IVB with Omega = 1 the kernel leaves the memory-bound regime
    // once b/B exceeds P_LLC: between R = 4 and R = 8.
    let at = |r: usize| custom_roofline(&IVB, 13.0, r, 1.0);
    assert_eq!(at(4).p_star, at(4).p_mem, "R=4 memory bound");
    assert_eq!(at(8).p_star, at(8).p_llc, "R=8 LLC bound");
}

#[test]
fn fig8_omega_annotation_reproduced() {
    // Paper annotates Omega ~ 1.16 at R = 16 and 1.54 at R = 32 for the
    // 100x100x40 domain on the IVB LLC. A reduced domain with the same
    // planar structure reproduces the trend here; `report_all` holds
    // this lattice's Omega(32) to 1.54 +- 0.01.
    let h = TopoHamiltonian::clean(64, 64, 24).assemble();
    let llc = llc_config(&IVB);
    let o1 = measure_omega(&h, 1, llc).omega;
    let o32 = measure_omega(&h, 32, llc).omega;
    assert!(o1 < 1.1, "R=1 should be near minimal traffic: {o1}");
    assert!(o32 > 1.3 && o32 < 1.9, "R=32 Omega: {o32}");
}

#[test]
fn fig10_dram_bound_at_r1_cache_bound_at_r32() {
    use kpm_repro::simgpu::timing::Bottleneck;
    let d = GpuDevice::k20m();
    let h = bench_matrix();
    for kernel in [GpuKernel::PlainSpmmv, GpuKernel::AugNoDot] {
        let r1 = simulate(&d, &h, 1, kernel);
        assert_eq!(r1.timing.bottleneck, Bottleneck::Dram);
        assert!(
            (r1.timing.dram_gbs - 150.0).abs() < 1.0,
            "full DRAM bw at R=1"
        );
        let r32 = simulate(&d, &h, 32, kernel);
        assert_ne!(r32.timing.bottleneck, Bottleneck::Dram);
        assert!(r32.timing.dram_gbs < 150.0);
    }
}

#[test]
fn fig10_fused_kernel_runs_all_levels_lower() {
    let d = GpuDevice::k20m();
    let h = bench_matrix();
    let nodot = simulate(&d, &h, 32, GpuKernel::AugNoDot);
    let full = simulate(&d, &h, 32, GpuKernel::AugFull);
    assert!(full.timing.dram_gbs < nodot.timing.dram_gbs);
    assert!(full.timing.l2_gbs < nodot.timing.l2_gbs);
    assert!(full.timing.tex_gbs < nodot.timing.tex_gbs);
}

#[test]
fn fig11_headline_ratios() {
    let h = bench_matrix();
    let gpu = GpuDevice::k20x();
    let naive = node_performance(&SNB, &gpu, Stage::Naive, 32, &h, 1.3);
    let s2 = node_performance(&SNB, &gpu, Stage::Stage2, 32, &h, 1.3);
    // GPU-only algorithmic speedup ~2.3x.
    let gpu_speedup = s2.gpu_gflops / naive.gpu_gflops;
    assert!((gpu_speedup - 2.3).abs() < 0.5, "{gpu_speedup}");
    // Heterogeneous gain over GPU-only ~1.36x.
    let het_gain = s2.het_gflops / s2.gpu_gflops;
    assert!((het_gain - 1.36).abs() < 0.15, "{het_gain}");
    // Total node speedup > 10x.
    assert!(s2.het_gflops / naive.cpu_gflops > 10.0);
    // Parallel efficiency 85-90% band (plus small model slack).
    assert!(
        s2.efficiency > 0.83 && s2.efficiency < 0.95,
        "{}",
        s2.efficiency
    );
}

#[test]
fn fig12_reaches_100_tflops_at_1024_nodes() {
    let model = ClusterModel::piz_daint(&bench_matrix(), 32);
    let square = model.weak_scaling_square(1024).expect("optimized stage");
    let last = square.last().unwrap();
    assert_eq!(last.nodes, 1024);
    assert!(
        last.tflops > 100.0,
        "paper: >100 Tflop/s; got {}",
        last.tflops
    );
    // Largest Bar system: matrix with > 6.5e9 rows.
    let bar = model.weak_scaling_bar(1024).expect("optimized stage");
    assert!(bar.last().unwrap().domain.rows() > 6_500_000_000 - 100_000_000);
}

#[test]
fn fig12_square_dip_at_4_nodes_then_flat() {
    let model = ClusterModel::piz_daint(&bench_matrix(), 32);
    let pts = model.weak_scaling_square(1024).expect("optimized stage");
    assert!(
        pts[1].efficiency < pts[0].efficiency,
        "dip when y-cuts appear"
    );
    // After the dip the efficiency stays nearly constant.
    for w in pts[1..].windows(2) {
        assert!((w[0].efficiency - w[1].efficiency).abs() < 0.03);
    }
}

#[test]
fn table3_within_factor_1p5_of_paper() {
    let model = ClusterModel::piz_daint(&bench_matrix(), 32);
    let rows = model.table3().expect("optimized stage");
    let paper = [(14.9, 164.0), (107.0, 81.0), (116.0, 75.0)];
    for (row, (p_tflops, p_hours)) in rows.iter().zip(paper) {
        let tf_ratio = row.tflops / p_tflops;
        let nh_ratio = row.node_hours / p_hours;
        assert!(
            tf_ratio > 1.0 / 1.5 && tf_ratio < 1.5,
            "{}: {} Tflop/s vs paper {p_tflops}",
            row.version,
            row.tflops
        );
        assert!(
            nh_ratio > 1.0 / 1.5 && nh_ratio < 1.5,
            "{}: {} node-h vs paper {p_hours}",
            row.version,
            row.node_hours
        );
    }
}

#[test]
fn roofline_consistency_between_modules() {
    // Eq. 9 and Eq. 11 agree when the LLC ceiling is not binding.
    let b = min_code_balance(13.0, 1);
    let p9 = roofline(&IVB, b);
    let p11 = custom_roofline(&IVB, 13.0, 1, 1.0).p_star;
    assert!((p9 - p11).abs() < 1e-9);
}

// --- Cachesim/omega validation: measured traffic vs paper Eqs. 5-8 ---

mod traffic_validation {
    use kpm_repro::num::accounting::{crs_bytes, Sweep};
    use kpm_repro::obs::probe::KernelKind;
    use kpm_repro::perfmodel::cachesim::CacheConfig;
    use kpm_repro::perfmodel::omega::{measure_omega, measure_omega_kernel, omega_sweep};
    use kpm_repro::perfmodel::traffic::{stage1_solver_traffic, stage2_solver_traffic};
    use kpm_repro::topo::TopoHamiltonian;

    fn llc(kib: usize) -> CacheConfig {
        CacheConfig {
            capacity_bytes: kib * 1024,
            line_bytes: 64,
            ways: 16,
        }
    }

    /// With an LLC far larger than the working set, the simulator's DRAM
    /// traffic for one blocked sweep reproduces the analytic minimum
    /// `M/2·[Nnz(Sd+Si) + 3·R·N·Sd]` (Eq. 5 at M = 2) within line
    /// granularity.
    #[test]
    fn cold_measured_traffic_matches_minimum_formula() {
        let h = TopoHamiltonian::clean(8, 8, 4).assemble();
        for r in [4usize, 8, 16] {
            let rep = measure_omega(&h, r, llc(64 * 1024));
            let analytic = stage2_solver_traffic(h.nrows(), h.nnz(), r, 2) as u64;
            assert_eq!(rep.v_min, analytic, "v_min must BE the Eq. 5 value");
            let rel = (rep.v_meas as f64 / analytic as f64 - 1.0).abs();
            assert!(
                rel < 0.10,
                "R={r}: measured {} vs analytic {analytic} ({}% apart)",
                rep.v_meas,
                100.0 * rel
            );
        }
    }

    /// The per-kernel minimum volumes agree with the traffic-model
    /// stage formulas: aug kernels with Eq. 4's stage-1/stage-2 rows,
    /// spmv with the matrix stream plus one read + one write vector.
    #[test]
    fn kernel_minimums_match_stage_formulas() {
        let (n, nnz) = (16_000, 201_600);
        let matrix = crs_bytes(nnz);
        assert_eq!(
            Sweep::Aug.min_bytes(n, matrix, 1),
            stage1_solver_traffic(n, nnz, 1, 2)
        );
        for r in [1usize, 4, 16, 32] {
            assert_eq!(
                Sweep::Aug.min_bytes(n, matrix, r),
                stage2_solver_traffic(n, nnz, r, 2)
            );
            assert_eq!(
                Sweep::Aug.min_bytes(n, matrix, r),
                nnz * 20 + 3 * r * n * 16
            );
        }
        // spmv: Nnz(Sd+Si) + 2·R·N·Sd (x read + y write).
        assert_eq!(
            Sweep::Plain.min_bytes(n, matrix, 4),
            nnz * 20 + 2 * 4 * n * 16
        );
    }

    /// At width 1 a coded lattice CRS reads its site view instead of its
    /// entries: on the benchmark's 48×48×24 lattice a byte per block of
    /// each of the 55,296 sites (itself and six neighbours) plus twelve
    /// 320-byte blocks, so the R = 1 sweep's minimum traffic is the
    /// vectors and 0.4 MB — 0.36 B/F, where the coded entries read 0.82
    /// and the plain ones Eq. 6's 2.23.
    #[test]
    fn r1_sweep_of_a_coded_lattice_reads_its_site_view() {
        let h = TopoHamiltonian::clean(48, 48, 24).assemble();
        let (n, nnz) = (h.nrows(), h.nnz());
        let balance = |matrix: usize| {
            Sweep::Aug.min_bytes(n, matrix, 1) as f64 / Sweep::Aug.flops(n, nnz, 1) as f64
        };
        assert_eq!(h.site_blocks(), Some(12));
        assert_eq!(h.matrix_bytes(1), 55_296 * 7 + 12 * 320);
        assert_eq!(Sweep::Aug.min_bytes(n, h.matrix_bytes(1), 1), 11_007_744);
        assert!((balance(h.matrix_bytes(1)) - 0.364).abs() < 1e-3);
        assert!((balance(h.matrix_bytes(2)) - 0.820).abs() < 1e-3);
        assert!((balance(crs_bytes(nnz)) - 2.229).abs() < 1e-3);
    }

    /// Ω ≥ 1 across block widths whose rows are line-aligned (Eq. 8: the
    /// simulator can never beat the minimum-traffic model), swept over
    /// cache sizes from LLC-resident to far-too-small.
    #[test]
    fn omega_at_least_one_across_widths_and_cache_sizes() {
        let h = TopoHamiltonian::clean(12, 12, 4).assemble();
        for kib in [16usize, 128, 1024, 16 * 1024] {
            for rep in omega_sweep(&h, &[4, 8, 16, 32], llc(kib)) {
                assert!(
                    rep.omega >= 0.99,
                    "LLC {kib} KiB, R={}: omega {}",
                    rep.r,
                    rep.omega
                );
            }
        }
    }

    /// Warm multi-sweep replay converges to the cold prediction when the
    /// working set exceeds the LLC (nothing useful survives a sweep)...
    #[test]
    fn warm_replay_matches_cold_when_out_of_cache() {
        let h = TopoHamiltonian::clean(16, 16, 4).assemble();
        for kind in [KernelKind::Spmv, KernelKind::AugSpmmv] {
            let cold = measure_omega_kernel(&h, kind, 8, llc(64), 1);
            let warm = measure_omega_kernel(&h, kind, 8, llc(64), 3);
            let rel = (warm.omega / cold.omega - 1.0).abs();
            assert!(
                rel < 0.15,
                "{kind:?}: warm {} vs cold {} ({}% apart)",
                warm.omega,
                cold.omega,
                100.0 * rel
            );
        }
    }

    /// ... and drops well below one when everything is LLC-resident:
    /// after the compulsory first sweep the replay hits in cache, which
    /// is exactly what hardware counters would report.
    #[test]
    fn warm_replay_drops_below_one_when_cache_resident() {
        let h = TopoHamiltonian::clean(6, 6, 3).assemble();
        let warm = measure_omega_kernel(&h, KernelKind::AugSpmmv, 4, llc(64 * 1024), 4);
        assert!(warm.omega < 0.5, "omega = {}", warm.omega);
    }
}
