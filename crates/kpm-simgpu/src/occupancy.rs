//! Warp-mapping and occupancy analysis (paper Fig. 6 and Section IV-C).
//!
//! The augmented SpMMV kernel arranges warps *along block-vector rows*:
//! each thread owns one (row, column) pair of the output block. This
//! module computes the static efficiency properties of that mapping —
//! lane utilization, coalescing of the right-hand-side loads, and the
//! lockstep divergence caused by unequal row lengths — the quantities
//! behind the paper's statement that the implementation "is optimized
//! towards relatively large vector blocks (R ≳ 8)" and that "perfectly
//! coalesced access can only be achieved for block vector widths which
//! are at least as large as the warp size."

use kpm_sparse::CrsMatrix;

use crate::device::GpuDevice;

/// Static mapping properties of the Fig. 6 kernel at block width `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarpMapping {
    /// Block width R.
    pub r: usize,
    /// Matrix rows covered by one warp (≥ 1; 1 when R ≥ warpSize).
    pub rows_per_warp: usize,
    /// Warps needed per row (≥ 1; 1 when R ≤ warpSize).
    pub warps_per_row: usize,
    /// Fraction of warp lanes doing useful work.
    pub lane_utilization: f64,
    /// Fraction of the bytes moved by RHS gather transactions that the
    /// kernel actually uses (32-byte transaction granularity).
    pub coalescing_efficiency: f64,
    /// Matrix rows processed by one 1024-thread block.
    pub rows_per_block: usize,
}

/// Computes the warp mapping for block width `r` on `device`.
pub fn warp_mapping(device: &GpuDevice, r: usize) -> WarpMapping {
    assert!(r >= 1, "block width must be positive");
    let w = device.warp_size;
    let (rows_per_warp, warps_per_row, active_lanes) = if r >= w {
        // R >= 32: each row spans ceil(R/32) warps; the last warp of a
        // row may be partially filled.
        let wpr = r.div_ceil(w);
        let active = r; // lanes doing work across the wpr warps
        (1, wpr, active as f64 / (wpr * w) as f64)
    } else {
        // R < 32: one warp covers floor(32/R) rows; leftover lanes idle.
        let rpw = w / r;
        (rpw, 1, (rpw * r) as f64 / w as f64)
    };
    // RHS gather: each row's load touches a contiguous segment of
    // R * 16 bytes; transactions are 32-byte sectors.
    let seg = r * 16;
    let sectors = seg.div_ceil(32);
    let coalescing = seg as f64 / (sectors * 32) as f64;
    WarpMapping {
        r,
        rows_per_warp,
        warps_per_row,
        lane_utilization: active_lanes,
        coalescing_efficiency: coalescing,
        rows_per_block: (device.block_dim / w) * rows_per_warp / warps_per_row.max(1),
    }
}

/// Lockstep divergence of the SpMMV inner loop: rows sharing a warp
/// advance together over the *longest* row, so short rows idle. Returns
/// the average fraction of useful lockstep steps over the whole matrix
/// (1.0 = no divergence; equals SELL-C-β with C = rows_per_warp).
pub fn warp_divergence_efficiency(device: &GpuDevice, h: &CrsMatrix, r: usize) -> f64 {
    let mapping = warp_mapping(device, r);
    let c = mapping.rows_per_warp;
    if c <= 1 {
        return 1.0;
    }
    let mut useful = 0u64;
    let mut total = 0u64;
    let mut row = 0;
    while row < h.nrows() {
        let hi = (row + c).min(h.nrows());
        let max_len = (row..hi).map(|i| h.row_len(i)).max().unwrap_or(0) as u64;
        let sum_len: u64 = (row..hi).map(|i| h.row_len(i) as u64).sum();
        useful += sum_len;
        total += max_len * (hi - row) as u64;
        row = hi;
    }
    if total == 0 {
        1.0
    } else {
        useful as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuDevice;
    use kpm_num::Complex64;
    use kpm_sparse::CooMatrix;

    #[test]
    fn r32_is_the_sweet_spot() {
        let d = GpuDevice::k20m();
        let m = warp_mapping(&d, 32);
        assert_eq!(m.rows_per_warp, 1);
        assert_eq!(m.warps_per_row, 1);
        assert_eq!(m.lane_utilization, 1.0);
        assert_eq!(m.coalescing_efficiency, 1.0);
    }

    #[test]
    fn small_r_wastes_lanes_only_if_not_dividing_32() {
        let d = GpuDevice::k20m();
        for r in [1usize, 2, 4, 8, 16] {
            let m = warp_mapping(&d, r);
            assert_eq!(m.rows_per_warp, 32 / r);
            assert_eq!(m.lane_utilization, 1.0, "r={r} divides 32");
        }
        let m5 = warp_mapping(&d, 5);
        assert_eq!(m5.rows_per_warp, 6);
        assert!((m5.lane_utilization - 30.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn coalescing_imperfect_below_two_columns() {
        let d = GpuDevice::k20m();
        // R = 1: 16-byte segments in 32-byte sectors -> 50%.
        assert!((warp_mapping(&d, 1).coalescing_efficiency - 0.5).abs() < 1e-12);
        // R = 2: exactly one sector -> 100%.
        assert_eq!(warp_mapping(&d, 2).coalescing_efficiency, 1.0);
        // R = 3: 48 bytes in 2 sectors -> 75%.
        assert!((warp_mapping(&d, 3).coalescing_efficiency - 0.75).abs() < 1e-12);
    }

    #[test]
    fn r_above_warp_size_needs_multiple_warps() {
        let d = GpuDevice::k20m();
        let m = warp_mapping(&d, 64);
        assert_eq!(m.warps_per_row, 2);
        assert_eq!(m.lane_utilization, 1.0);
        let m48 = warp_mapping(&d, 48);
        assert_eq!(m48.warps_per_row, 2);
        assert!((m48.lane_utilization - 48.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_rows_have_no_divergence() {
        let d = GpuDevice::k20m();
        // All rows length 2.
        let mut coo = CooMatrix::new(64, 64);
        for i in 0..64usize {
            coo.push(i, i, Complex64::real(1.0));
            coo.push(i, (i + 1) % 64, Complex64::real(1.0));
        }
        let h = coo.to_crs().unwrap();
        for r in [1usize, 4, 16] {
            assert_eq!(warp_divergence_efficiency(&d, &h, r), 1.0, "r={r}");
        }
    }

    #[test]
    fn ragged_rows_diverge_at_small_r_only() {
        let d = GpuDevice::k20m();
        // Alternating row lengths 1 and 5.
        let mut coo = CooMatrix::new(64, 64);
        for i in 0..64usize {
            coo.push(i, i, Complex64::real(1.0));
            if i % 2 == 1 {
                for k in 1..5usize {
                    coo.push(i, (i + k) % 64, Complex64::real(1.0));
                }
            }
        }
        let h = coo.to_crs().unwrap();
        // R = 32: one row per warp, no lockstep partner -> no divergence.
        assert_eq!(warp_divergence_efficiency(&d, &h, 32), 1.0);
        // R = 1: 32 rows share a warp, lockstep over the longest -> 60%.
        let e = warp_divergence_efficiency(&d, &h, 1);
        assert!((e - 0.6).abs() < 1e-12, "e = {e}");
    }
}
