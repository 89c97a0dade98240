//! Minimum data traffic and flop counts (paper Table I and Eq. 4).
//!
//! All quantities are *minimum* values: every operand is charged exactly
//! once. The measured traffic exceeds these by the factor Ω (Eq. 8)
//! when the right-hand-side vector does not fit the cache.

use kpm_num::accounting::{crs_bytes, Sweep, F_A, F_M, S_D};

/// One row of paper Table I: a solver sub-routine with its call count,
/// minimum bytes per call, and flops per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionCost {
    /// Function name as in the paper ("spmv()", "axpy()", ...).
    pub name: &'static str,
    /// Number of calls over the whole solver run.
    pub calls: usize,
    /// Minimum bytes moved per call.
    pub bytes_per_call: usize,
    /// Flops executed per call.
    pub flops_per_call: usize,
}

impl FunctionCost {
    /// Total bytes over all calls.
    pub fn total_bytes(&self) -> usize {
        self.calls * self.bytes_per_call
    }

    /// Total flops over all calls.
    pub fn total_flops(&self) -> usize {
        self.calls * self.flops_per_call
    }
}

/// Reproduces paper Table I for problem size `n`, `nnz` non-zeros,
/// `r` random vectors and `m` moments. Returns the five function rows;
/// use [`naive_solver_traffic`] for the aggregate last row.
pub fn table1(n: usize, nnz: usize, r: usize, m: usize) -> Vec<FunctionCost> {
    vec![
        FunctionCost {
            name: "spmv()",
            calls: r * m / 2,
            // Matrix (data + index) once, input vector once, output
            // vector written once: Nnz(Sd+Si) + 2N·Sd.
            bytes_per_call: Sweep::Plain.min_bytes(n, crs_bytes(nnz), 1),
            flops_per_call: Sweep::Plain.flops(n, nnz, 1),
        },
        FunctionCost {
            name: "axpy()",
            calls: r * m, // two per iteration
            bytes_per_call: 3 * n * S_D,
            flops_per_call: n * (F_A + F_M),
        },
        FunctionCost {
            name: "scal()",
            calls: r * m / 2,
            bytes_per_call: 2 * n * S_D,
            flops_per_call: n * F_M,
        },
        FunctionCost {
            name: "nrm2()",
            calls: r * m / 2,
            bytes_per_call: n * S_D,
            // Complex nrm2: |z|^2 per element is one cmul-half and one
            // cadd-half in the paper's accounting: N(Fa/2 + Fm/2).
            flops_per_call: n * (F_A / 2 + F_M / 2),
        },
        FunctionCost {
            name: "dot()",
            calls: r * m / 2,
            bytes_per_call: 2 * n * S_D,
            flops_per_call: n * (F_A + F_M),
        },
    ]
}

/// Aggregate minimum traffic of the naive solver (paper Table I, last
/// row): `R·M/2 · [Nnz(Sd+Si) + 13·N·Sd]` bytes — the `spmv()` sweep
/// plus the 11 vector transfers of the BLAS-1 chain behind it.
pub fn naive_solver_traffic(n: usize, nnz: usize, r: usize, m: usize) -> usize {
    r * m / 2 * (Sweep::Plain.min_bytes(n, crs_bytes(nnz), 1) + 11 * n * S_D)
}

/// Aggregate flops of the solver (identical for all variants):
/// `R·M/2 · [Nnz(Fa+Fm) + N(7Fa/2 + 9Fm/2)]`.
pub fn solver_flops(n: usize, nnz: usize, r: usize, m: usize) -> usize {
    kpm_num::accounting::kpm_flops(n, nnz, r, m)
}

/// Minimum traffic after optimization stage 1 (Eq. 4, middle):
/// `R·M/2 · [Nnz(Sd+Si) + 3·N·Sd]` — the fused kernel touches each of
/// the two vectors once (v read, w read+write = 3 transfers).
pub fn stage1_solver_traffic(n: usize, nnz: usize, r: usize, m: usize) -> usize {
    r * m / 2 * Sweep::Aug.min_bytes(n, crs_bytes(nnz), 1)
}

/// Minimum traffic after optimization stage 2 (Eq. 4, bottom):
/// `M/2 · [Nnz(Sd+Si) + 3·R·N·Sd]` — the matrix is streamed once per
/// iteration for all R vectors.
pub fn stage2_solver_traffic(n: usize, nnz: usize, r: usize, m: usize) -> usize {
    m / 2 * Sweep::Aug.min_bytes(n, crs_bytes(nnz), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 1000;
    const NNZ: usize = 13 * N;
    const R: usize = 4;
    const M: usize = 100;

    #[test]
    fn naive_traffic_equals_sum_of_function_rows() {
        // Table I's last row counts each vector operand once per kernel;
        // summing the per-function rows gives
        // R*M/2 * [Nnz(Sd+Si) + 2N Sd] (spmv)
        //  + R*M * 3N Sd (axpy)  + R*M/2 * 2N Sd (scal)
        //  + R*M/2 * N Sd (nrm2) + R*M/2 * 2N Sd (dot)
        // = R*M/2 * [Nnz(Sd+Si) + 13 N Sd].
        let rows = table1(N, NNZ, R, M);
        let total_bytes: usize = rows.iter().map(|f| f.total_bytes()).sum();
        assert_eq!(total_bytes, naive_solver_traffic(N, NNZ, R, M));
    }

    #[test]
    fn flops_equal_sum_of_function_rows() {
        let rows = table1(N, NNZ, R, M);
        let total_flops: usize = rows.iter().map(|f| f.total_flops()).sum();
        assert_eq!(total_flops, solver_flops(N, NNZ, R, M));
    }

    #[test]
    fn optimization_strictly_reduces_traffic() {
        let v0 = naive_solver_traffic(N, NNZ, R, M);
        let v1 = stage1_solver_traffic(N, NNZ, R, M);
        let v2 = stage2_solver_traffic(N, NNZ, R, M);
        assert!(v1 < v0);
        assert!(v2 < v1);
    }

    #[test]
    fn stage1_saves_ten_vector_transfers() {
        let v0 = naive_solver_traffic(N, NNZ, R, M);
        let v1 = stage1_solver_traffic(N, NNZ, R, M);
        assert_eq!(v0 - v1, R * M / 2 * 10 * N * S_D);
    }

    #[test]
    fn stage2_reads_matrix_once_per_iteration() {
        let v2 = stage2_solver_traffic(N, NNZ, R, M);
        // Matrix term no longer multiplied by R.
        assert_eq!(v2, M / 2 * (NNZ * 20 + 3 * R * N * S_D));
        // For R = 1, stages 1 and 2 coincide.
        assert_eq!(
            stage1_solver_traffic(N, NNZ, 1, M),
            stage2_solver_traffic(N, NNZ, 1, M)
        );
    }

    #[test]
    fn call_counts_match_paper() {
        let rows = table1(N, NNZ, R, M);
        let by_name = |name: &str| rows.iter().find(|f| f.name == name).unwrap().calls;
        assert_eq!(by_name("spmv()"), R * M / 2);
        assert_eq!(by_name("axpy()"), R * M);
        assert_eq!(by_name("scal()"), R * M / 2);
        assert_eq!(by_name("nrm2()"), R * M / 2);
        assert_eq!(by_name("dot()"), R * M / 2);
    }
}
