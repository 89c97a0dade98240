//! Functional SIMT execution of the augmented SpMMV kernel.
//!
//! The trace-driven simulator (`exec`) reproduces the *memory behaviour*
//! of the paper's CUDA kernel; this module reproduces its *computation*:
//! thread blocks of warps execute the three phases of paper Fig. 6 in
//! lockstep —
//!
//! 1. **SpMMV**: warps arranged along block-vector rows; every lane owns
//!    one (row, column) pair, the matrix element is broadcast to the
//!    lanes of its row;
//! 2. **warp re-indexing**: for the dot phase, lanes are re-associated
//!    so the values to combine live in the same warp (only the indexing
//!    changes, no data moves — exactly the paper's description);
//! 3. **dot products**: butterfly reductions with simulated
//!    `__shfl_down` exchanges, `log2(warpSize)` steps, the result read
//!    from the first lane of each segment; the final cross-block
//!    reduction (CUB in the paper) is a host-side sum.
//!
//! The executor returns bit-identical block updates and η values whose
//! reduction tree differs from the CPU kernel only in summation order —
//! the validation the paper could not print but certainly ran.

use kpm_num::{BlockVector, Complex64};
use kpm_sparse::aug::AugDotsBlock;
use kpm_sparse::CrsMatrix;

use crate::device::GpuDevice;

/// One simulated warp: `warp_size` lanes in lockstep.
struct Warp {
    /// Per-lane register holding the partial dot value being reduced.
    regs: Vec<Complex64>,
}

impl Warp {
    fn new(warp_size: usize) -> Self {
        Self {
            regs: vec![Complex64::default(); warp_size],
        }
    }

    /// Simulated `__shfl_down_sync`: lane `i` reads lane `i + delta`'s
    /// register (lanes past the end read zero — the CUDA kernel masks
    /// them). All lanes execute simultaneously: the read happens before
    /// any write, which the double buffer enforces. The segmented
    /// butterfly below composes this primitive; it is also exercised
    /// directly by the tests.
    #[cfg(test)]
    fn shfl_down_add(&mut self, delta: usize) {
        let old = self.regs.clone();
        for i in 0..self.regs.len() {
            let other = if i + delta < old.len() {
                old[i + delta]
            } else {
                Complex64::default()
            };
            self.regs[i] = old[i] + other;
        }
    }

    /// Butterfly reduction over segments of `seg` lanes (power of two):
    /// afterwards the first lane of each segment holds the segment sum.
    fn segmented_reduce(&mut self, seg: usize) {
        assert!(seg.is_power_of_two(), "segment must be a power of two");
        let mut delta = seg / 2;
        while delta >= 1 {
            // Mask the exchange to stay within segments: emulate by
            // zeroing contributions that cross a boundary.
            let old = self.regs.clone();
            for i in 0..self.regs.len() {
                let partner = i + delta;
                let same_segment = partner < old.len() && (i / seg == partner / seg);
                let other = if same_segment {
                    old[partner]
                } else {
                    Complex64::default()
                };
                self.regs[i] = old[i] + other;
            }
            delta /= 2;
        }
    }
}

/// Executes one augmented SpMMV sweep (`w <- 2a(H - b·1)v - w`, fused
/// dots) with warp-lockstep semantics on `device`. Supports any block
/// width; widths above `warp_size` use several warps per row with a
/// host-side combine of the per-warp partials (the CUB step).
pub fn aug_spmmv_warp_exec(
    device: &GpuDevice,
    h: &CrsMatrix,
    a: f64,
    b: f64,
    v: &BlockVector,
    w: &mut BlockVector,
) -> AugDotsBlock {
    assert_eq!(h.nrows(), h.ncols(), "square matrices only");
    assert_eq!(v.rows(), h.ncols(), "block v dimension mismatch");
    assert_eq!(w.rows(), h.nrows(), "block w dimension mismatch");
    assert_eq!(v.width(), w.width(), "block width mismatch");
    let r = v.width();
    let ws = device.warp_size;
    let n = h.nrows();

    let mut eta_even = vec![0.0; r];
    let mut eta_odd = vec![Complex64::default(); r];

    // Segment size for the in-warp reduction: the smallest power of two
    // holding one row's lanes (columns) — idle lanes carry zeros.
    let seg = r.min(ws).next_power_of_two();
    let rows_per_warp = (ws / seg).max(1);
    let warps_per_row = r.div_ceil(ws);

    let mut row = 0usize;
    while row < n {
        let rows_here = rows_per_warp.min(n - row);
        // Phase 1: SpMMV + recurrence, lanes in lockstep. Each lane
        // (wi, lane) owns (row + lane/seg, column chunk wi*ws + lane%seg).
        // acc[lane] per warp; several warps when R > warpSize.
        let mut warp_acc: Vec<Vec<Complex64>> = vec![vec![Complex64::default(); ws]; warps_per_row];
        // Lockstep over the *maximum* row length in the warp (the
        // divergence the occupancy module quantifies).
        let rows: Vec<_> = (row..row + rows_here).map(|i| h.row(i)).collect();
        let max_len = rows.iter().map(|hr| hr.cols().len()).max().unwrap_or(0);
        for k in 0..max_len {
            for (wi, acc) in warp_acc.iter_mut().enumerate() {
                #[allow(clippy::needless_range_loop)] // lockstep lane loop
                for lane in 0..ws {
                    let local_row = lane / seg;
                    let col_idx = wi * ws + lane % seg;
                    if local_row >= rows_here || col_idx >= r {
                        continue; // idle lane
                    }
                    let hr = &rows[local_row];
                    if k >= hr.cols().len() {
                        continue; // this row already done (divergent lane idles)
                    }
                    let (hv, c) = (hr.vals()[k], hr.cols()[k] as usize);
                    acc[lane] = hv.mul_add(v.get(c, col_idx), acc[lane]);
                }
            }
        }

        // Recurrence update + fused dot partials per lane.
        let mut even_warp = Warp::new(ws * warps_per_row);
        let mut odd_warp = Warp::new(ws * warps_per_row);
        for (wi, acc) in warp_acc.iter().enumerate() {
            #[allow(clippy::needless_range_loop)] // lockstep lane loop
            for lane in 0..ws {
                let local_row = lane / seg;
                let col_idx = wi * ws + lane % seg;
                if local_row >= rows_here || col_idx >= r {
                    continue;
                }
                let rr = row + local_row;
                let vr = v.get(rr, col_idx);
                let wr = (acc[lane] - vr.scale(b)).scale(2.0 * a) - w.get(rr, col_idx);
                w.set(rr, col_idx, wr);
                even_warp.regs[wi * ws + lane] = Complex64::real(vr.norm_sqr());
                odd_warp.regs[wi * ws + lane] = wr.conj() * vr;
            }
        }

        // Phase 2 + 3: re-indexed warps reduce per (row, column): here
        // each column's η contribution is a single lane value (the dot
        // runs over *rows*, accumulated across row groups on the host —
        // CUB's role). The in-warp butterfly combines lanes of the SAME
        // column across the rows_here rows by re-indexing: lane order
        // (col-major within the warp).
        if rows_here > 1 && seg >= 1 {
            // Re-index: regs[col * rows_here + local_row].
            let mut even_re = Warp::new(ws * warps_per_row);
            let mut odd_re = Warp::new(ws * warps_per_row);
            let stride = rows_here.next_power_of_two();
            for lane in 0..ws {
                let local_row = lane / seg;
                let col_idx = lane % seg;
                if local_row >= rows_here || col_idx >= r {
                    continue;
                }
                even_re.regs[col_idx * stride + local_row] = even_warp.regs[lane];
                odd_re.regs[col_idx * stride + local_row] = odd_warp.regs[lane];
            }
            even_re.segmented_reduce(stride);
            odd_re.segmented_reduce(stride);
            for col_idx in 0..seg.min(r) {
                eta_even[col_idx] += even_re.regs[col_idx * stride].re;
                eta_odd[col_idx] += odd_re.regs[col_idx * stride];
            }
        } else {
            // One row per warp (R >= warpSize): lanes ARE the columns;
            // no in-warp reduction over rows needed, host accumulates.
            for (wi, _) in warp_acc.iter().enumerate() {
                for lane in 0..ws {
                    let col_idx = wi * ws + lane;
                    if col_idx >= r {
                        continue;
                    }
                    eta_even[col_idx] += even_warp.regs[wi * ws + lane].re;
                    eta_odd[col_idx] += odd_warp.regs[wi * ws + lane];
                }
            }
        }
        row += rows_here;
    }

    AugDotsBlock { eta_even, eta_odd }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuDevice;
    use kpm_sparse::{CooMatrix, SparseKernels};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_hermitian(n: usize, seed: u64) -> CrsMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, Complex64::real(rng.gen_range(-1.0..1.0)));
            for _ in 0..4 {
                let c = rng.gen_range(0..n);
                if c != r {
                    let v = Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    coo.push(r, c, v);
                    coo.push(c, r, v.conj());
                }
            }
        }
        coo.to_crs().unwrap()
    }

    #[test]
    fn warp_executor_matches_cpu_kernel_for_all_widths() {
        let d = GpuDevice::k20m();
        let n = 97; // not a multiple of anything interesting
        let h = random_hermitian(n, 200);
        let mut rng = StdRng::seed_from_u64(201);
        for r in [1usize, 2, 4, 5, 8, 16, 32, 33, 64] {
            let v = BlockVector::random(n, r, &mut rng);
            let w0 = BlockVector::random(n, r, &mut rng);
            let mut w_cpu = w0.clone();
            let mut w_gpu = w0;
            let d_cpu = h.aug_spmmv(0.45, -0.08, &v, &mut w_cpu);
            let d_gpu = aug_spmmv_warp_exec(&d, &h, 0.45, -0.08, &v, &mut w_gpu);
            // Block updates are per-element: bit-identical.
            assert_eq!(w_cpu, w_gpu, "R={r}");
            // Dots differ only by reduction order.
            for j in 0..r {
                assert!(
                    (d_cpu.eta_even[j] - d_gpu.eta_even[j]).abs() < 1e-9,
                    "R={r} col {j}"
                );
                assert!(
                    d_cpu.eta_odd[j].approx_eq(d_gpu.eta_odd[j], 1e-9),
                    "R={r} col {j}"
                );
            }
        }
    }

    #[test]
    fn shfl_down_matches_manual_sum() {
        let mut w = Warp::new(8);
        for i in 0..8 {
            w.regs[i] = Complex64::real(i as f64 + 1.0);
        }
        w.segmented_reduce(8);
        assert!((w.regs[0].re - 36.0).abs() < 1e-12); // 1+..+8
    }

    #[test]
    fn segmented_reduce_respects_boundaries() {
        let mut w = Warp::new(8);
        for i in 0..8 {
            w.regs[i] = Complex64::real(1.0);
        }
        w.segmented_reduce(4);
        assert_eq!(w.regs[0].re, 4.0);
        assert_eq!(w.regs[4].re, 4.0);
    }

    #[test]
    fn shfl_down_add_reads_before_write() {
        let mut w = Warp::new(4);
        w.regs = vec![
            Complex64::real(1.0),
            Complex64::real(2.0),
            Complex64::real(3.0),
            Complex64::real(4.0),
        ];
        w.shfl_down_add(2);
        // Lane 0: 1+3, lane 1: 2+4, lane 2: 3+0, lane 3: 4+0.
        assert_eq!(w.regs[0].re, 4.0);
        assert_eq!(w.regs[1].re, 6.0);
        assert_eq!(w.regs[2].re, 3.0);
        assert_eq!(w.regs[3].re, 4.0);
    }

    #[test]
    fn divergent_row_lengths_handled() {
        // Rows of very different lengths sharing a warp (small R).
        let d = GpuDevice::k20m();
        let mut coo = CooMatrix::new(40, 40);
        for i in 0..40usize {
            coo.push(i, i, Complex64::real(1.0));
            if i % 3 == 0 {
                for k in 1..6usize {
                    let c = (i + k) % 40;
                    let v = Complex64::new(0.1, 0.2);
                    coo.push(i, c, v);
                    coo.push(c, i, v.conj());
                }
            }
        }
        let h = coo.to_crs().unwrap();
        let mut rng = StdRng::seed_from_u64(203);
        let v = BlockVector::random(40, 2, &mut rng);
        let w0 = BlockVector::random(40, 2, &mut rng);
        let mut w_cpu = w0.clone();
        let mut w_gpu = w0;
        let d_cpu = h.aug_spmmv(1.0, 0.0, &v, &mut w_cpu);
        let d_gpu = aug_spmmv_warp_exec(&d, &h, 1.0, 0.0, &v, &mut w_gpu);
        assert_eq!(w_cpu, w_gpu);
        for j in 0..2 {
            assert!((d_cpu.eta_even[j] - d_gpu.eta_even[j]).abs() < 1e-10);
        }
    }
}
