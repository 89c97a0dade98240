//! The paper's flop and byte counts, written out here instead of being
//! imported from the crates under test, so a change to their cost
//! model cannot move the benchmark's rates. Everything derived from
//! these is labelled *computed*: bytes from array sizes ignore cache
//! misses.

/// Flops of one blocked sweep over `r` vectors (paper Table I): per row
/// `Nnzr` complex multiply-adds (8 flops each) plus 34 flops of fused
/// shift, scale, recurrence and the two dot products.
pub fn sweep_flops(n: f64, nnz: f64, r: f64) -> f64 {
    r * (8.0 * nnz + 34.0 * n)
}

/// Flops of a whole KPM-DOS solve: `M/2 − 1` sweeps.
pub fn solve_flops(n: f64, nnz: f64, r: f64, moments: usize) -> f64 {
    sweeps(moments) as f64 * sweep_flops(n, nnz, r)
}

pub fn sweeps(moments: usize) -> usize {
    moments / 2 - 1
}

/// Minimum bytes one blocked sweep must move (paper Eq. 5): the matrix
/// once (16-byte value + 4-byte column index per entry) and three
/// 16-byte vector streams per column.
pub fn sweep_min_bytes(n: f64, nnz: f64, r: f64) -> f64 {
    nnz * 20.0 + 3.0 * r * n * 16.0
}

/// Minimum code balance in bytes per flop.
pub fn bf_min(n: f64, nnz: f64, r: f64) -> f64 {
    sweep_min_bytes(n, nnz, r) / sweep_flops(n, nnz, r)
}

/// Storage of the matrix itself in MiB: CRS keeps values, 4-byte
/// column indices and 8-byte row pointers; the matrix-free stencil
/// keeps one complex on-site entry per row.
pub fn matrix_mib(n: f64, nnz: f64, stencil: bool) -> f64 {
    let bytes = if stencil {
        n * 16.0
    } else {
        nnz * 20.0 + (n + 1.0) * 8.0
    };
    bytes / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_flops_per_row_and_code_balance() {
        let n = 1000.0;
        let nnz = 13.0 * n;
        assert_eq!(sweep_flops(n, nnz, 1.0) / n, 138.0);
        assert!((bf_min(n, nnz, 1.0) - 2.23).abs() < 0.005);
        let wide = bf_min(n, nnz, 1e6);
        assert!(wide < 0.36 && wide > 0.34, "B/F at R=1e6 is {wide}");
    }

    #[test]
    fn solve_counts_m_half_minus_one_sweeps() {
        assert_eq!(sweeps(512), 255);
        assert_eq!(sweeps(2), 0);
        assert_eq!(
            solve_flops(10.0, 130.0, 8.0, 96),
            47.0 * sweep_flops(10.0, 130.0, 8.0)
        );
    }
}
