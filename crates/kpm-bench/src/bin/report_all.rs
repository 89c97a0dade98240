//! Every number of the paper's evaluation that this reproduction
//! reproduces, checked against the paper's.
//!
//! ```sh
//! cargo run --release --offline -p kpm-bench --bin report_all
//! ```
//!
//! Prints the model inputs (paper Table II and the calibrated constants
//! of DESIGN.md §4b) and the Fig. 9 volumes, then one line per check:
//! source, quantity, the paper's value, ours, the tolerance and `ok` or
//! `MISS`; then, unchecked, the paper claims the models do not
//! reproduce. Exits 1 if any check misses. Takes no arguments.

use kpm_bench::Claim::*;
use kpm_bench::{sig, Check};
use kpm_core::{ldos::site_ldos, Kernel};
use kpm_hetsim::cluster::{ClusterModel, ScalingPoint};
use kpm_hetsim::node::{
    node_performance, Stage, CPU_NAIVE_EFFICIENCY, GPU_NAIVE_EFFICIENCY, GPU_STAGE1_EFFICIENCY,
    PCIE_BW_GBS,
};
use kpm_perfmodel::balance::{asymptotic_balance, min_code_balance};
use kpm_perfmodel::machine::{CATALOG, IVB, SNB};
use kpm_perfmodel::omega::{llc_config, measure_omega};
use kpm_perfmodel::roofline::{custom_roofline, socket_scaling};
use kpm_perfmodel::traffic::{naive_solver_traffic, solver_flops, table1};
use kpm_simgpu::{occupancy::warp_mapping, simulate, GpuDevice, GpuKernel, GpuRunReport};
use kpm_topo::{Lattice3D, Potential, ScaleFactors, TopoHamiltonian};

/// Single-core `aug_spmv` / `aug_spmmv` rate on IVB, Gflop/s, read off
/// paper Fig. 7: where both model curves start.
const IVB_CORE_GFLOPS: f64 = 5.5;

/// Paper Eq. 1 has 13 entries per row.
const NNZR: f64 = 13.0;

fn main() {
    println!("paper numbers: Kreutzer et al., IPDPS 2015 (arXiv:1410.5242)");
    // The node and cluster models (Figs. 11, 12, Table III) take their
    // row shape from this lattice.
    let bench = TopoHamiltonian::clean(32, 16, 8).assemble();
    let model = ClusterModel::piz_daint(&bench, 32);
    print_inputs(&model);

    // Eqs. 5–7 and Fig. 7.
    let (b1, b32) = (min_code_balance(NNZR, 1), min_code_balance(NNZR, 32));
    let spmmv_10_cores = socket_scaling(&IVB, b32, IVB_CORE_GFLOPS, 10);

    // Table I on the paper's 100×100×40 domain, R = 32, M = 2000. Every
    // count is an integer below 2^53, so the differences are exact.
    let (n, r, m) = (4 * 100 * 100 * 40, 32, 2000);
    let rows = table1(n, 13 * n, r, m);
    let bytes: usize = rows.iter().map(|f| f.total_bytes()).sum();
    let flops: usize = rows.iter().map(|f| f.total_flops()).sum();
    let bytes_off = bytes as f64 - naive_solver_traffic(n, 13 * n, r, m) as f64;
    let flops_off = flops as f64 - solver_flops(n, 13 * n, r, m) as f64;

    // Figs. 8 to 10 run on one lattice, a reduced stand-in for the
    // paper's 100×100×40. Ω comes from the LLC simulator (IVB's L3).
    let h = TopoHamiltonian::clean(64, 64, 24).assemble();
    let omega = |r: usize| measure_omega(&h, r, llc_config(&IVB)).omega;
    let (o1, o4, o8, o16, o32) = (omega(1), omega(4), omega(8), omega(16), omega(32));
    let mem_over_llc = |r: usize, om: f64| {
        let p = custom_roofline(&IVB, NNZR, r, om.max(1.0));
        p.p_mem / p.p_llc
    };

    // The K20m simulator. Each (kernel, R) runs once: Fig. 9 and
    // Fig. 10 (a) are the same `PlainSpmmv` runs.
    let dev = GpuDevice::k20m();
    let run = |k, widths: &[usize]| -> Vec<GpuRunReport> {
        widths.iter().map(|&r| simulate(&dev, &h, r, k)).collect()
    };
    let plain = run(GpuKernel::PlainSpmmv, &[1, 8, 16, 32, 64]);
    let nodot = run(GpuKernel::AugNoDot, &[1, 32, 64]);
    let fused = simulate(&dev, &h, 32, GpuKernel::AugFull).timing;
    print_fig9(&plain);
    let tex = |i: usize| plain[i].traffic.tex_bytes as f64;
    let per_col = |i: usize| plain[i].traffic.dram_bytes() as f64 / plain[i].r as f64;
    let steepest = (1..4)
        .map(|i| per_col(i) / per_col(i - 1))
        .fold(f64::NAN, f64::max);
    // DRAM time over the slowest cache level's time: above 1 is DRAM-bound.
    let dram_over_cache = |p: &GpuRunReport| {
        let (c, t) = (dev.ceilings(p.kernel), p.traffic);
        let cache = (t.l2_bytes as f64 / c.l2_gbs).max(t.tex_bytes as f64 / c.tex_gbs);
        t.dram_bytes() as f64 / c.dram_gbs / cache
    };
    let b = nodot[1].timing;
    let fused_over_b = (fused.dram_gbs / b.dram_gbs)
        .max(fused.l2_gbs / b.l2_gbs)
        .max(fused.tex_gbs / b.tex_gbs);

    // Figs. 11 and 12 and Table III.
    let k20x = GpuDevice::k20x();
    let naive = node_performance(&SNB, &k20x, Stage::Naive, 32, &bench, 1.3);
    let s2 = node_performance(&SNB, &k20x, Stage::Stage2, 32, &bench, 1.3);
    let at_1024 = |pts: Vec<ScalingPoint>| pts.last().expect("1024 nodes").tflops;
    let square = at_1024(model.weak_scaling_square(1024).expect("optimized stage"));
    let bar = at_1024(model.weak_scaling_bar(1024).expect("optimized stage"));
    let t3 = model.table3().expect("optimized stage");

    #[rustfmt::skip]
    let checks = [
        ("Eq. 6", "B_min(R = 1), B/F", Near(2.23, 0.01), b1),
        ("Eq. 7", "B_min(R → ∞), B/F", Near(0.35, 0.01), asymptotic_balance(NNZR)),
        ("Table I", "five rows' bytes minus the aggregate row", Near(0.0, 0.0), bytes_off),
        ("Table I", "five rows' flops minus the aggregate row", Near(0.0, 0.0), flops_off),
        ("Fig. 2", "LDOS(E = 0), dot centre over far field", AtLeast(1.0), fig2_contrast()),
        ("Fig. 6", "coalescing efficiency at R = 1", Near(0.5, 0.0), warp_mapping(&dev, 1).coalescing_efficiency),
        ("Fig. 7", "aug_spmv roof b/B_min(1), Gflop/s", Band(20.0, 25.0), IVB.mem_bw_gbs / b1),
        ("Fig. 7", "aug_spmmv(R = 32) at 10 cores, Gflop/s", Pct(60.0, 10.0), spmmv_10_cores),
        ("Fig. 8", "Ω(1)", AtMost(1.1), o1),
        ("Fig. 8", "Ω(32)", Near(1.54, 0.01), o32),
        ("Fig. 8", "P_MEM / P_LLC at R = 4 (memory-bound)", AtMost(1.0), mem_over_llc(4, o4)),
        ("Fig. 8", "P_MEM / P_LLC at R = 8 (LLC-bound)", AtLeast(1.0), mem_over_llc(8, o8)),
        ("Fig. 9", "TEX volume R = 32 over R = 1", Pct(32.0, 10.0), tex(3) / tex(0)),
        ("Fig. 9", "DRAM/column, largest step ratio over R = 1..32", AtMost(1.0), steepest),
        ("Fig. 10a", "DRAM / cache time at R = 1 (DRAM-bound)", AtLeast(1.0), dram_over_cache(&plain[0])),
        ("Fig. 10a", "DRAM / cache time at R = 32 (cache-bound)", AtMost(1.0), dram_over_cache(&plain[3])),
        ("Fig. 10b", "DRAM / cache time at R = 1 (DRAM-bound)", AtLeast(1.0), dram_over_cache(&nodot[0])),
        ("Fig. 10b", "DRAM / cache time at R = 32 (cache-bound)", AtMost(1.0), dram_over_cache(&nodot[1])),
        ("Fig. 10c", "fused over (b) bandwidth, highest level, R = 32", AtMost(1.0), fused_over_b),
        ("Fig. 11", "GPU naive → stage 2 speed-up", Pct(2.3, 10.0), s2.gpu_gflops / naive.gpu_gflops),
        ("Fig. 11", "heterogeneous gain over GPU-only, stage 2", Pct(1.36, 10.0), s2.het_gflops / s2.gpu_gflops),
        ("Fig. 11", "parallel efficiency, stage 2", Band(0.85, 0.90), s2.efficiency),
        ("Fig. 11", "CPU naive → CPU+GPU stage 2 speed-up", AtLeast(10.0), s2.het_gflops / naive.cpu_gflops),
        ("Fig. 12", "Square weak scaling at 1024 nodes, Tflop/s", AtLeast(100.0), square),
        ("Fig. 12", "Bar over Square at 1024 nodes", AtLeast(1.0), bar / square),
        ("Table III", "aug_spmv() Tflop/s", Pct(14.9, 10.0), t3[0].tflops),
        ("Table III", "aug_spmv() node-hours", Pct(164.0, 10.0), t3[0].node_hours),
        ("Table III", "aug_spmmv()* Tflop/s", Pct(107.0, 10.0), t3[1].tflops),
        ("Table III", "aug_spmmv()* node-hours", Pct(81.0, 10.0), t3[1].node_hours),
        ("Table III", "aug_spmmv() Tflop/s", Pct(116.0, 10.0), t3[2].tflops),
        ("Table III", "aug_spmmv() node-hours", Pct(75.0, 10.0), t3[2].node_hours),
        ("Table III", "throughput-mode cost factor (node-hours)", Pct(2.2, 10.0), t3[0].node_hours / t3[2].node_hours),
        ("Table III", "one reduction over one per iteration, gain %", Pct(8.0, 10.0), 100.0 * (t3[2].tflops / t3[1].tflops - 1.0)),
    ]
    .map(|(source, quantity, claim, ours)| Check { source, quantity, claim, ours });
    #[rustfmt::skip]
    let unreproduced = [
        ("Fig. 8", "Ω(16)", "1.16", o16),
        ("Fig. 9", "DRAM/column, R = 64 over R = 32", "<= 1", per_col(4) / per_col(3)),
        ("Fig. 10a", "DRAM / cache time at R = 64", "<= 1", dram_over_cache(&plain[4])),
        ("Fig. 10b", "DRAM / cache time at R = 64", "<= 1", dram_over_cache(&nodot[2])),
    ];

    println!("\n=== checks ===");
    println!(
        "{:<9} {:<50} {:>12} {:>12} {:>7}  verdict",
        "source", "quantity", "paper", "ours", "tol"
    );
    for c in &checks {
        println!("{c}");
    }
    println!("\n=== not reproduced (EXPERIMENTS.md says why; not checked) ===");
    for (source, quantity, paper, ours) in unreproduced {
        println!("{source:<9} {quantity:<50} {paper:>12} {:>12}", sig(ours));
    }
    let missed: Vec<&Check> = checks.iter().filter(|c| !c.ok()).collect();
    println!(
        "\n{} of {} checks hold",
        checks.len() - missed.len(),
        checks.len()
    );
    for c in &missed {
        println!("MISS: {} {}", c.source, c.quantity);
    }
    if !missed.is_empty() {
        std::process::exit(1);
    }
}

/// Paper Table II and the calibrated constants: inputs, not checked.
fn print_inputs(cluster: &ClusterModel) {
    println!("\n=== inputs: Table II ===");
    println!("name\tMHz\tSIMD B\tcores\tb GB/s\tLLC MiB\tPpeak\tB/F");
    for m in CATALOG {
        let (name, mhz, simd, cores) = (m.name, m.clock_mhz, m.simd_bytes, m.cores);
        let (bw, llc, peak, balance) =
            (m.mem_bw_gbs, m.llc_mib, m.peak_gflops, m.machine_balance());
        println!("{name}\t{mhz}\t{simd}\t{cores}\t{bw}\t{llc}\t{peak}\t{balance:.3}");
    }
    let k20m = GpuDevice::k20m();
    let (s, f) = (k20m.streaming_ceilings, k20m.fused_ceilings);
    println!("\n=== inputs: calibrated constants (DESIGN.md §4b) ===");
    println!(
        "llc_ceiling_gflops IVB / SNB\t{} / {}",
        IVB.llc_ceiling_gflops, SNB.llc_ceiling_gflops
    );
    for (kind, c) in [("streaming", s), ("fused", f)] {
        let (dram, l2, tex) = (sig(c.dram_gbs), sig(c.l2_gbs), sig(c.tex_gbs));
        println!("K20m {kind} DRAM / L2 / TEX GB/s\t{dram} / {l2} / {tex}");
    }
    println!(
        "net_bw_gbs / sync_per_hop_s\t{} / {}",
        cluster.net_bw_gbs, cluster.sync_per_hop_s
    );
    println!(
        "efficiency GPU naive / GPU stage 1 / CPU naive\t{GPU_NAIVE_EFFICIENCY} / \
         {GPU_STAGE1_EFFICIENCY} / {CPU_NAIVE_EFFICIENCY}"
    );
    println!("PCIe staging GB/s\t{PCIE_BW_GBS}");
    println!("IVB single-core rate (Fig. 7) Gflop/s\t{IVB_CORE_GFLOPS}");
}

/// The per-level volumes of the simple SpMMV on the K20m (Fig. 9) and
/// its DRAM bandwidth and bottleneck (Fig. 10 a).
fn print_fig9(plain: &[GpuRunReport]) {
    println!("\n=== Figs. 9 / 10 (a): K20m, simple SpMMV, 64×64×24 ===");
    println!("R\tTEX MB\tL2 MB\tDRAM MB\tDRAM/col\tDRAM GB/s\tbottleneck");
    let mb = |bytes: u64| bytes as f64 / 1e6;
    for p in plain {
        let (t, r) = (p.traffic, p.r);
        let (tex, l2, dram) = (mb(t.tex_bytes), mb(t.l2_bytes), mb(t.dram_bytes()));
        let (gbs, neck) = (p.timing.dram_gbs, p.timing.bottleneck);
        println!(
            "{r}\t{tex:.1}\t{l2:.1}\t{dram:.1}\t{:.1}\t{gbs:.0}\t{neck:?}",
            dram / r as f64
        );
    }
}

/// Fig. 2 at reduced scale: a 16×16×8 slab with period-8 dots of the
/// paper's strength. The LDOS at E = 0 on the surface layer, at a dot
/// centre over the far field.
fn fig2_contrast() -> f64 {
    let ham = TopoHamiltonian {
        lattice: Lattice3D::paper_default(16, 16, 8),
        t: 1.0,
        potential: Potential::QuantumDots {
            strength: 0.153,
            period: 8,
            radius: 2.0,
            depth: 1,
        },
    };
    let h = ham.assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let ldos = |x: usize, y: usize| {
        let site = ham.lattice.site(x, y, 0);
        let curve = site_ldos(&h, sf, site, 256, Kernel::Jackson, 512).expect("a surface site");
        curve.value_at(0.0)
    };
    ldos(4, 4) / ldos(0, 0)
}
