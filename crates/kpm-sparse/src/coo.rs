//! Coordinate-format (triplet) sparse matrix builder.
//!
//! Assembly code (the topological-insulator generator in `kpm-topo`, test
//! matrices, …) pushes `(row, col, value)` triplets in any order; the
//! builder sorts, merges duplicates and converts to CRS.

use kpm_num::{Complex64, KpmError};

use crate::crs::CrsMatrix;

/// A sparse matrix under construction, stored as unsorted triplets.
#[derive(Debug, Clone)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, Complex64)>,
}

impl CooMatrix {
    /// Creates an empty `nrows x ncols` builder.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        assert!(
            nrows <= u32::MAX as usize && ncols <= u32::MAX as usize,
            "COO builder uses 32-bit local indices (the paper's S_i = 4); dimension too large"
        );
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with reserved capacity for `nnz` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        let mut m = Self::new(nrows, ncols);
        m.entries.reserve(nnz);
        m
    }

    /// Adds `value` at `(row, col)`. Duplicate coordinates are summed at
    /// conversion time.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: Complex64) {
        debug_assert!(row < self.nrows, "row {row} out of bounds");
        debug_assert!(col < self.ncols, "col {col} out of bounds");
        self.entries.push((row as u32, col as u32, value));
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Converts to CRS, summing duplicates and dropping exact zeros that
    /// result from cancellation.
    ///
    /// The row pointers are the one allocation not bounded by the
    /// triplets already held: `nrows + 1` of them, however few entries
    /// there are. When they cannot be allocated the conversion returns
    /// `KpmError::InvalidMatrix` instead of aborting the process.
    pub fn to_crs(mut self) -> Result<CrsMatrix, KpmError> {
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);

        let mut row_ptr: Vec<u64> = Vec::new();
        row_ptr
            .try_reserve_exact(self.nrows + 1)
            .map_err(|e| KpmError::InvalidMatrix {
                what: "row_ptr",
                details: format!(
                    "{} rows need {} row pointers ({:.1} GiB): {e}",
                    self.nrows,
                    self.nrows + 1,
                    (self.nrows + 1) as f64 * 8.0 / (1u64 << 30) as f64
                ),
            })?;
        let mut cols: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut vals: Vec<Complex64> = Vec::with_capacity(self.entries.len());
        row_ptr.push(0u64);

        let mut current_row = 0u32;
        let mut i = 0usize;
        while i < self.entries.len() {
            let (r, c, mut v) = self.entries[i];
            i += 1;
            while i < self.entries.len() && self.entries[i].0 == r && self.entries[i].1 == c {
                v += self.entries[i].2;
                i += 1;
            }
            while current_row < r {
                row_ptr.push(cols.len() as u64);
                current_row += 1;
            }
            if v != Complex64::default() {
                cols.push(c);
                vals.push(v);
            }
        }
        while row_ptr.len() < self.nrows + 1 {
            row_ptr.push(cols.len() as u64);
        }

        Ok(CrsMatrix::from_raw(
            self.nrows, self.ncols, row_ptr, cols, vals,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex64 {
        Complex64::real(re)
    }

    #[test]
    fn empty_matrix_converts() {
        let m = CooMatrix::new(3, 3).to_crs().unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, c(1.0));
        m.push(0, 1, c(2.5));
        m.push(1, 0, c(-1.0));
        let crs = m.to_crs().unwrap();
        assert_eq!(crs.nnz(), 2);
        assert_eq!(crs.get(0, 1), c(3.5));
        assert_eq!(crs.get(1, 0), c(-1.0));
    }

    #[test]
    fn cancellation_drops_entry() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, c(1.0));
        m.push(0, 0, c(-1.0));
        m.push(1, 1, c(2.0));
        let crs = m.to_crs().unwrap();
        assert_eq!(crs.nnz(), 1);
        assert_eq!(crs.get(0, 0), Complex64::default());
    }

    #[test]
    fn unsorted_input_sorts_rows_and_cols() {
        let mut m = CooMatrix::new(3, 3);
        m.push(2, 0, c(5.0));
        m.push(0, 2, c(1.0));
        m.push(1, 1, c(3.0));
        m.push(0, 0, c(2.0));
        let crs = m.to_crs().unwrap();
        assert_eq!(crs.row(0).cols(), &[0, 2]);
        assert_eq!(crs.row(1).cols(), &[1]);
        assert_eq!(crs.row(2).cols(), &[0]);
    }

    #[test]
    fn trailing_empty_rows_have_valid_ptrs() {
        let mut m = CooMatrix::new(5, 5);
        m.push(1, 1, c(1.0));
        let crs = m.to_crs().unwrap();
        assert_eq!(crs.nnz(), 1);
        for r in 0..5 {
            let _ = crs.row(r); // must not panic
        }
        assert!(crs.row(4).cols().is_empty());
    }

    #[test]
    fn complex_duplicate_merge() {
        let mut m = CooMatrix::new(1, 1);
        m.push(0, 0, Complex64::new(1.0, 2.0));
        m.push(0, 0, Complex64::new(3.0, -1.0));
        let crs = m.to_crs().unwrap();
        assert_eq!(crs.get(0, 0), Complex64::new(4.0, 1.0));
    }
}
