//! Sparsity-structure analysis.
//!
//! The paper characterizes its matrices structurally: "Characteristic
//! for these applications is the presence of several sub-diagonals in
//! the matrix. Periodic boundary conditions in the x and y directions
//! lead to outlying diagonals in the matrix corners. In the present
//! example, the matrix is a stencil but not a band matrix." This module
//! computes exactly those properties, so a user can verify what kind of
//! matrix a workload produces (and tests pin the topological-insulator
//! structure down).

use std::collections::HashMap;

use crate::crs::CrsMatrix;

/// One detected (sub-)diagonal of the sparsity pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagonalInfo {
    /// Column minus row offset of the diagonal.
    pub offset: i64,
    /// Number of stored entries on it.
    pub count: usize,
    /// Fraction of the maximum possible occupancy of this diagonal.
    pub occupancy: f64,
}

/// Structural summary of a sparse matrix.
#[derive(Debug, Clone)]
pub struct MatrixStats {
    /// Row count.
    pub nrows: usize,
    /// Column count.
    pub ncols: usize,
    /// Non-zeros.
    pub nnz: usize,
    /// Minimum row length.
    pub min_row_len: usize,
    /// Maximum row length.
    pub max_row_len: usize,
    /// Average row length (the paper's `N_nzr`).
    pub avg_row_len: f64,
    /// Matrix bandwidth `max |col - row|`.
    pub bandwidth: usize,
    /// Diagonals with occupancy above the detection threshold, sorted
    /// by descending count.
    pub diagonals: Vec<DiagonalInfo>,
    /// Histogram of row lengths: `histogram[len] = number of rows`.
    pub row_len_histogram: Vec<usize>,
}

impl MatrixStats {
    /// True if every stored entry lies on one of the detected
    /// diagonals — i.e. the matrix is a (generalized) stencil.
    pub fn is_stencil(&self) -> bool {
        let on_diagonals: usize = self.diagonals.iter().map(|d| d.count).sum();
        on_diagonals == self.nnz
    }

    /// True if the matrix is a band matrix of the given half width
    /// (everything within `|col - row| <= half_width`).
    pub fn is_band_matrix(&self, half_width: usize) -> bool {
        self.bandwidth <= half_width
    }

    /// Diagonal offsets carrying fewer than `threshold · nrows`
    /// entries — the short "outlying diagonals in the matrix corners"
    /// produced by periodic boundary wrap-arounds (each wrap touches
    /// only one lattice plane, so its diagonal is far shorter than the
    /// matrix dimension).
    pub fn corner_diagonals(&self, threshold: f64) -> Vec<i64> {
        self.diagonals
            .iter()
            .filter(|d| (d.count as f64) < threshold * self.nrows as f64)
            .map(|d| d.offset)
            .collect()
    }
}

/// Analyzes the sparsity structure of `m`. Diagonals with fewer than
/// `min_count` entries are not reported (they are scattered entries,
/// not structure).
pub fn analyze(m: &CrsMatrix, min_count: usize) -> MatrixStats {
    let mut diag_counts: HashMap<i64, usize> = HashMap::new();
    let mut min_row_len = usize::MAX;
    let mut max_row_len = 0usize;
    let mut bandwidth = 0usize;
    let mut row_len_histogram = Vec::new();
    m.for_each_row(|r, cols, _| {
        let len = cols.len();
        min_row_len = min_row_len.min(len);
        max_row_len = max_row_len.max(len);
        if row_len_histogram.len() <= len {
            row_len_histogram.resize(len + 1, 0);
        }
        row_len_histogram[len] += 1;
        for &c in cols {
            let off = c as i64 - r as i64;
            bandwidth = bandwidth.max(off.unsigned_abs() as usize);
            *diag_counts.entry(off).or_insert(0) += 1;
        }
    });
    if m.nrows() == 0 {
        min_row_len = 0;
    }

    let mut diagonals: Vec<DiagonalInfo> = diag_counts
        .into_iter()
        .filter(|&(_, count)| count >= min_count)
        .map(|(offset, count)| {
            // Maximum possible entries on this diagonal.
            let max_len = if offset >= 0 {
                m.nrows().min(m.ncols().saturating_sub(offset as usize))
            } else {
                m.ncols().min(m.nrows().saturating_sub((-offset) as usize))
            };
            DiagonalInfo {
                offset,
                count,
                occupancy: count as f64 / max_len.max(1) as f64,
            }
        })
        .collect();
    diagonals.sort_by(|a, b| b.count.cmp(&a.count).then(a.offset.cmp(&b.offset)));

    MatrixStats {
        nrows: m.nrows(),
        ncols: m.ncols(),
        nnz: m.nnz(),
        min_row_len,
        max_row_len,
        avg_row_len: m.avg_nnz_per_row(),
        bandwidth,
        diagonals,
        row_len_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use kpm_num::Complex64;

    fn tridiag(n: usize) -> CrsMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, Complex64::real(2.0));
            if i + 1 < n {
                coo.push(i, i + 1, Complex64::real(-1.0));
                coo.push(i + 1, i, Complex64::real(-1.0));
            }
        }
        coo.to_crs().unwrap()
    }

    #[test]
    fn tridiagonal_structure_detected() {
        let stats = analyze(&tridiag(50), 2);
        assert_eq!(stats.bandwidth, 1);
        assert!(stats.is_band_matrix(1));
        assert!(stats.is_stencil());
        let offsets: Vec<i64> = stats.diagonals.iter().map(|d| d.offset).collect();
        assert_eq!(offsets, vec![0, -1, 1]);
        assert_eq!(stats.min_row_len, 2);
        assert_eq!(stats.max_row_len, 3);
    }

    #[test]
    fn row_length_histogram_sums_to_nrows() {
        let stats = analyze(&tridiag(33), 1);
        let total: usize = stats.row_len_histogram.iter().sum();
        assert_eq!(total, 33);
        assert_eq!(stats.row_len_histogram[3], 31);
        assert_eq!(stats.row_len_histogram[2], 2);
    }

    #[test]
    fn corner_diagonals_from_periodic_wraps() {
        // Periodic ring: offsets -1, +1 fully occupied; wrap entries at
        // offsets n-1 and -(n-1) occupy a single element each — the
        // "matrix corner" diagonals.
        let n = 20;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let j = (i + 1) % n;
            coo.push(i, j, Complex64::real(1.0));
            coo.push(j, i, Complex64::real(1.0));
        }
        let stats = analyze(&coo.to_crs().unwrap(), 1);
        let corners = stats.corner_diagonals(0.5);
        assert!(corners.contains(&(n as i64 - 1)));
        assert!(corners.contains(&-(n as i64 - 1)));
        // The bulk diagonals are not corners.
        assert!(!corners.contains(&1));
        assert!(!corners.contains(&-1));
        // Ring is a stencil but NOT a band matrix of small width.
        assert!(stats.is_stencil());
        assert!(!stats.is_band_matrix(2));
    }

    #[test]
    fn min_count_filters_scattered_entries() {
        let mut coo = CooMatrix::new(10, 10);
        for i in 0..10 {
            coo.push(i, i, Complex64::real(1.0));
        }
        coo.push(0, 7, Complex64::real(1.0)); // lone scattered entry
        let stats = analyze(&coo.to_crs().unwrap(), 2);
        assert_eq!(stats.diagonals.len(), 1); // only the main diagonal
        assert!(!stats.is_stencil()); // the stray entry is off-structure
    }

    #[test]
    fn empty_matrix() {
        let stats = analyze(&CooMatrix::new(0, 0).to_crs().unwrap(), 1);
        assert_eq!(stats.nnz, 0);
        assert_eq!(stats.min_row_len, 0);
        assert!(stats.diagonals.is_empty());
    }
}
