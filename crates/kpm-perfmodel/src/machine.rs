//! The architecture catalog of paper Table II.
//!
//! | Name | Clock (MHz) | SIMD (B) | Cores/SMX | b (GB/s) | LLC (MiB) | P_peak (Gflop/s) |
//! |---|---|---|---|---|---|---|
//! | IVB  (Xeon E5-2660 v2) | 2200 | 32 | 10 | 50  | 25   | 176    |
//! | SNB  (Xeon E5-2670)    | 2600 | 32 | 8  | 48  | 20   | 166.4  |
//! | K20m (Tesla, ECC off)  | 706  | — | 13 | 150 | 1.25 | 1174   |
//! | K20X (Tesla, ECC on)   | 732  | — | 14 | 170 | 1.5  | 1311   |
//!
//! The LLC-limited performance ceilings `P_LLC` used in the custom
//! roofline (paper Eq. 11) are not in Table II; the paper obtains them
//! by benchmarking a cache-resident problem. We carry calibrated values
//! reproducing paper Fig. 8 (IVB tops out at ≈ 65–70 Gflop/s for the
//! augmented SpMMV at large R, ≈ 40% of peak).

/// Device category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Multi-core CPU socket.
    Cpu,
    /// Discrete GPU.
    Gpu,
}

/// One compute device (a CPU socket or a GPU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Short name as used in the paper.
    pub name: &'static str,
    /// CPU socket or GPU.
    pub kind: DeviceKind,
    /// Core clock in MHz.
    pub clock_mhz: f64,
    /// SIMD register width in bytes (CPU) or warp-equivalent width
    /// (GPU: 32 threads × 16 B double-complex lanes is not meaningful,
    /// so the paper lists 512 = warp × 16 B).
    pub simd_bytes: usize,
    /// Physical cores (CPU) or SMX units (GPU).
    pub cores: usize,
    /// Attainable memory bandwidth `b` in GB/s.
    pub mem_bw_gbs: f64,
    /// Last-level cache capacity in MiB.
    pub llc_mib: f64,
    /// Double-precision peak performance in Gflop/s.
    pub peak_gflops: f64,
    /// Calibrated LLC-limited ceiling for the augmented SpMMV kernel in
    /// Gflop/s (the `P*_LLC` of paper Eq. 11).
    pub llc_ceiling_gflops: f64,
}

/// Intel Xeon E5-2660 v2 ("IVB"), fixed clock.
pub const IVB: Machine = Machine {
    name: "IVB",
    kind: DeviceKind::Cpu,
    clock_mhz: 2200.0,
    simd_bytes: 32,
    cores: 10,
    mem_bw_gbs: 50.0,
    llc_mib: 25.0,
    peak_gflops: 176.0,
    llc_ceiling_gflops: 70.0,
};

/// Intel Xeon E5-2670 ("SNB"), turbo enabled.
pub const SNB: Machine = Machine {
    name: "SNB",
    kind: DeviceKind::Cpu,
    clock_mhz: 2600.0,
    simd_bytes: 32,
    cores: 8,
    mem_bw_gbs: 48.0,
    llc_mib: 20.0,
    peak_gflops: 166.4,
    // Sandy Bridge L3 sustains less kernel throughput than Ivy Bridge;
    // calibrated so the heterogeneous node lands at the paper's Fig. 11
    // levels (CPU contributes ~36% on top of the GPU).
    llc_ceiling_gflops: 46.0,
};

/// NVIDIA Tesla K20m, ECC disabled.
pub const K20M: Machine = Machine {
    name: "K20m",
    kind: DeviceKind::Gpu,
    clock_mhz: 706.0,
    simd_bytes: 512,
    cores: 13,
    mem_bw_gbs: 150.0,
    llc_mib: 1.25,
    peak_gflops: 1174.0,
    llc_ceiling_gflops: 300.0,
};

/// NVIDIA Tesla K20X, ECC enabled.
pub const K20X: Machine = Machine {
    name: "K20X",
    kind: DeviceKind::Gpu,
    clock_mhz: 732.0,
    simd_bytes: 512,
    cores: 14,
    mem_bw_gbs: 170.0,
    llc_mib: 1.5,
    peak_gflops: 1311.0,
    llc_ceiling_gflops: 330.0,
};

/// Intel Xeon Phi 5110P ("KNC") — not part of Table II, but paper
/// Section VII notes "the Intel Xeon Phi coprocessor is already
/// supported in our software"; this entry lets the roofline machinery
/// answer what the model predicts for it. 60 cores at 1053 MHz with
/// 512-bit SIMD, ~150 GB/s attainable stream bandwidth, 30 MiB of
/// distributed L2 acting as the LLC.
pub const PHI: Machine = Machine {
    name: "KNC",
    kind: DeviceKind::Cpu,
    clock_mhz: 1053.0,
    simd_bytes: 64,
    cores: 60,
    mem_bw_gbs: 150.0,
    llc_mib: 30.0,
    peak_gflops: 1010.9,
    llc_ceiling_gflops: 170.0,
};

/// All four catalog machines in the paper's Table II order.
pub const CATALOG: [Machine; 4] = [IVB, SNB, K20M, K20X];

impl Machine {
    /// Machine balance `B_m = b / P_peak` in bytes/flop. Paper Section I
    /// notes SpMV balance is "at least an order of magnitude" above this.
    pub fn machine_balance(&self) -> f64 {
        self.mem_bw_gbs / self.peak_gflops
    }

    /// Peak performance of `n` cores/SMX, assuming linear in-core
    /// scaling (clock fixed).
    pub fn peak_of_cores(&self, n: usize) -> f64 {
        assert!(n >= 1 && n <= self.cores, "core count out of range");
        self.peak_gflops * n as f64 / self.cores as f64
    }

    /// LLC capacity in bytes.
    pub fn llc_bytes(&self) -> usize {
        (self.llc_mib * 1024.0 * 1024.0) as usize
    }

    /// Looks a machine up by its paper name.
    pub fn by_name(name: &str) -> Option<Machine> {
        CATALOG.iter().copied().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_ii() {
        assert_eq!(IVB.clock_mhz, 2200.0);
        assert_eq!(IVB.cores, 10);
        assert_eq!(IVB.mem_bw_gbs, 50.0);
        assert_eq!(IVB.llc_mib, 25.0);
        assert_eq!(IVB.peak_gflops, 176.0);

        assert_eq!(SNB.clock_mhz, 2600.0);
        assert_eq!(SNB.cores, 8);
        assert_eq!(SNB.peak_gflops, 166.4);

        assert_eq!(K20M.mem_bw_gbs, 150.0);
        assert_eq!(K20M.llc_mib, 1.25);
        assert_eq!(K20M.peak_gflops, 1174.0);

        assert_eq!(K20X.mem_bw_gbs, 170.0);
        assert_eq!(K20X.peak_gflops, 1311.0);
    }

    #[test]
    fn peak_is_consistent_with_clock_and_width() {
        // IVB: 10 cores x 2.2 GHz x 8 flops/cycle (AVX DP) = 176 Gflop/s.
        assert!((IVB.clock_mhz / 1000.0 * IVB.cores as f64 * 8.0 - IVB.peak_gflops).abs() < 1e-9);
        // SNB: 8 x 2.6 x 8 = 166.4.
        assert!((SNB.clock_mhz / 1000.0 * SNB.cores as f64 * 8.0 - SNB.peak_gflops).abs() < 1e-9);
        // K20m: 13 SMX x 64 DP units x 2 (FMA) x 0.706 GHz = 1174.
        assert!(
            (K20M.clock_mhz / 1000.0 * K20M.cores as f64 * 128.0 - K20M.peak_gflops).abs() < 1.0
        );
    }

    #[test]
    fn machine_balance_far_below_spmv_balance() {
        // All machines: B_m well below even the best-case blocked KPM
        // balance of 0.35 B/F... and an order of magnitude below the
        // R=1 balance of 2.23 B/F.
        for m in CATALOG {
            assert!(m.machine_balance() < 0.35, "{}", m.name);
            assert!(m.machine_balance() > 0.05, "{}", m.name);
        }
    }

    #[test]
    fn core_scaling_and_lookup() {
        assert!((IVB.peak_of_cores(10) - 176.0).abs() < 1e-12);
        assert!((IVB.peak_of_cores(1) - 17.6).abs() < 1e-12);
        assert_eq!(Machine::by_name("K20X").unwrap().cores, 14);
        assert!(Machine::by_name("nonexistent").is_none());
    }

    #[test]
    fn llc_bytes_conversion() {
        assert_eq!(IVB.llc_bytes(), 25 * 1024 * 1024);
        assert_eq!(K20M.llc_bytes(), 5 * 1024 * 1024 / 4);
    }

    #[test]
    #[should_panic(expected = "core count out of range")]
    fn too_many_cores_panics() {
        IVB.peak_of_cores(11);
    }

    #[test]
    fn phi_outlook_entry_is_consistent() {
        // 60 cores x 1.053 GHz x 16 DP flops/cycle (512-bit FMA).
        assert!((PHI.clock_mhz / 1000.0 * PHI.cores as f64 * 16.0 - PHI.peak_gflops).abs() < 1.0);
        // Phi is NOT in the Table II catalog.
        assert!(CATALOG.iter().all(|m| m.name != PHI.name));
        // The model's prediction for the paper's open question: at
        // R = 32 the blocked kernel on KNC would be LLC-bound around
        // its calibrated ceiling, not memory-bound.
        use crate::balance::min_code_balance;
        use crate::roofline::memory_bound;
        let b32 = min_code_balance(13.0, 32);
        assert!(memory_bound(&PHI, b32) > PHI.llc_ceiling_gflops);
    }
}
