//! Compressed Row Storage (CRS/CSR).
//!
//! CRS is the paper's format of choice for all SpMMV kernels: because
//! SIMD vectorization happens *across the block vector*, matrix elements
//! can be read serially and no SIMD-aware matrix format is needed (paper
//! Section IV-A, "CRS/SELL-1 may yield even better SpMMV performance than
//! a SIMD-aware storage format for SpMV like SELL-32").
//!
//! Index widths follow the paper's mixed-integer convention: 32-bit
//! column indices inside kernels (`S_i = 4`), 64-bit row pointers so the
//! total non-zero count may exceed 4·10⁹ in large-scale runs.

use kpm_num::{Complex64, KpmError};

/// A sparse matrix in CRS format.
#[derive(Debug, Clone, PartialEq)]
pub struct CrsMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u64>,
    cols: Vec<u32>,
    vals: Vec<Complex64>,
}

impl CrsMatrix {
    /// Builds a CRS matrix from raw arrays, validating the invariants:
    /// `row_ptr` has `nrows + 1` monotone entries, `cols`/`vals` have
    /// matching length `row_ptr[nrows]`, and all column indices are in
    /// range and strictly increasing within each row.
    ///
    /// Panics on invalid input; use [`CrsMatrix::try_from_raw`] to get a
    /// typed error instead.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u64>,
        cols: Vec<u32>,
        vals: Vec<Complex64>,
    ) -> Self {
        // kpm::allow(no_panic): documented panicking wrapper; the fallible
        // path is try_from_raw.
        Self::try_from_raw(nrows, ncols, row_ptr, cols, vals).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`CrsMatrix::from_raw`]: returns
    /// `Err(KpmError::InvalidMatrix)` describing the first violated
    /// invariant instead of panicking.
    pub fn try_from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u64>,
        cols: Vec<u32>,
        vals: Vec<Complex64>,
    ) -> Result<Self, KpmError> {
        fn bad(what: &'static str, details: String) -> KpmError {
            KpmError::InvalidMatrix { what, details }
        }
        if row_ptr.len() != nrows + 1 {
            return Err(bad(
                "row_ptr",
                format!(
                    "row_ptr length must be nrows+1 (got {}, nrows = {nrows})",
                    row_ptr.len()
                ),
            ));
        }
        if row_ptr[0] != 0 {
            return Err(bad(
                "row_ptr",
                format!("row_ptr must start at 0 (got {})", row_ptr[0]),
            ));
        }
        let nnz = row_ptr[nrows] as usize;
        if nnz != cols.len() {
            return Err(bad(
                "row_ptr",
                format!(
                    "row_ptr must end at nnz (got {nnz}, cols.len() = {})",
                    cols.len()
                ),
            ));
        }
        if cols.len() != vals.len() {
            return Err(bad(
                "cols/vals",
                format!(
                    "cols/vals length mismatch ({} vs {})",
                    cols.len(),
                    vals.len()
                ),
            ));
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(bad(
                    "row_ptr",
                    format!("row_ptr must be monotone (row {r})"),
                ));
            }
            let (lo, hi) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
            for k in lo..hi {
                if cols[k] as usize >= ncols {
                    return Err(bad(
                        "cols",
                        format!(
                            "column index out of range (row {r}: col {} >= ncols {ncols})",
                            cols[k]
                        ),
                    ));
                }
                if k > lo && cols[k - 1] >= cols[k] {
                    return Err(bad(
                        "cols",
                        format!("columns must be strictly increasing in row {r}"),
                    ));
                }
            }
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            cols,
            vals,
        })
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_raw(
            n,
            n,
            (0..=n as u64).collect(),
            (0..n as u32).collect(),
            vec![Complex64::real(1.0); n],
        )
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Average number of non-zeros per row (`N_nzr` in the paper; ≈13
    /// for the topological-insulator matrices).
    pub fn avg_nnz_per_row(&self) -> f64 {
        self.nnz() as f64 / self.nrows.max(1) as f64
    }

    /// The raw row-pointer array.
    #[inline(always)]
    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    /// Column indices of row `r`.
    #[inline(always)]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.cols[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }

    /// Values of row `r`.
    #[inline(always)]
    pub fn row_vals(&self, r: usize) -> &[Complex64] {
        &self.vals[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }

    /// A stable 64-bit content fingerprint of the matrix: FNV-1a over
    /// the dimensions, row pointers, column indices, and the raw bit
    /// patterns of the values.
    ///
    /// Two matrices fingerprint equal exactly when they are the same
    /// operator stored in the same order down to the last bit — the
    /// identity the service front-end uses to coalesce concurrent
    /// requests into one block solve and to key its moment cache.
    /// Format-independent when computed from the assembled CRS source
    /// (see `KpmMatrix::content_fingerprint`).
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.nrows as u64);
        h.write_u64(self.ncols as u64);
        for &p in &self.row_ptr {
            h.write_u64(p);
        }
        for &c in &self.cols {
            h.write_u64(c as u64);
        }
        for v in &self.vals {
            h.write_u64(v.re.to_bits());
            h.write_u64(v.im.to_bits());
        }
        h.finish()
    }

    /// Entry `(r, c)`, or zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> Complex64 {
        let cols = self.row_cols(r);
        match cols.binary_search(&(c as u32)) {
            Ok(k) => self.row_vals(r)[k],
            Err(_) => Complex64::default(),
        }
    }

    /// Length of row `r`.
    #[inline(always)]
    pub fn row_len(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Maximum row length over the whole matrix.
    pub fn max_row_len(&self) -> usize {
        (0..self.nrows).map(|r| self.row_len(r)).max().unwrap_or(0)
    }

    /// True if the matrix equals its conjugate transpose (exact
    /// comparison; assembly produces exactly conjugate pairs).
    pub fn is_hermitian(&self) -> bool {
        self.check_hermitian().is_ok()
    }

    /// [`CrsMatrix::is_hermitian`] with the reason: the error names the
    /// first stored entry `(row, col)` found without its exact conjugate
    /// at `(col, row)`.
    ///
    /// Only the strict upper triangle is looked up (one binary search
    /// per entry with `col > row`) and the diagonal must be real. That
    /// proves the strict-lower entries too when each of them is some
    /// upper entry's partner — equal counts; otherwise (an unpartnered
    /// strict-lower entry) those are looked up as well.
    pub fn check_hermitian(&self) -> Result<(), KpmError> {
        let bad = |details: String| KpmError::InvalidMatrix {
            what: "hermiticity",
            details,
        };
        if self.nrows != self.ncols {
            let shape = format!("{} x {}", self.nrows, self.ncols);
            return Err(bad(format!("the matrix is not square ({shape})")));
        }
        let unpaired = |r: usize, c: usize| {
            let transposed = format!("entry ({r}, {c}) is not the conjugate of entry ({c}, {r})");
            bad(format!("KPM needs a Hermitian matrix: {transposed}"))
        };
        // The entry at (c, r), if stored.
        let partner = |r: usize, c: usize| {
            let at = self.row_cols(c).binary_search(&(r as u32)).ok();
            at.map(|k| self.row_vals(c)[k])
        };
        let (mut lower, mut partnered) = (0usize, 0usize);
        for r in 0..self.nrows {
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
                let c = c as usize;
                let ok = match c.cmp(&r) {
                    std::cmp::Ordering::Less => {
                        lower += 1;
                        true
                    }
                    std::cmp::Ordering::Equal => v == v.conj(),
                    std::cmp::Ordering::Greater => {
                        let p = partner(r, c);
                        partnered += p.is_some() as usize;
                        p.unwrap_or_default() == v.conj()
                    }
                };
                if !ok {
                    return Err(unpaired(r, c));
                }
            }
        }
        if lower != partnered {
            // A strict-lower entry with nothing stored opposite it:
            // Hermitian only if it is an explicit zero.
            for r in 0..self.nrows {
                for (&c, &v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
                    let c = c as usize;
                    if c < r && partner(r, c).is_none() && v.conj() != Complex64::default() {
                        return Err(unpaired(r, c));
                    }
                }
            }
        }
        Ok(())
    }

    /// Gershgorin bounds on the (real) spectrum of a Hermitian matrix:
    /// every eigenvalue lies in `[min_r (d_r - rad_r), max_r (d_r + rad_r)]`
    /// with `d_r` the (real) diagonal entry and `rad_r` the absolute
    /// off-diagonal row sum. Used to determine the spectral rescaling
    /// `H̃ = a(H - b·1)` (paper Section II).
    pub fn gershgorin_bounds(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for r in 0..self.nrows {
            let mut diag = 0.0;
            let mut radius = 0.0;
            for (k, &c) in self.row_cols(r).iter().enumerate() {
                let v = self.row_vals(r)[k];
                if c as usize == r {
                    diag = v.re;
                } else {
                    radius += v.abs();
                }
            }
            lo = lo.min(diag - radius);
            hi = hi.max(diag + radius);
        }
        if self.nrows == 0 {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Converts to a dense row-major matrix (test helper for small
    /// systems).
    pub fn to_dense(&self) -> Vec<Vec<Complex64>> {
        let mut d = vec![vec![Complex64::default(); self.ncols]; self.nrows];
        #[allow(clippy::needless_range_loop)] // r indexes both matrix and target
        for r in 0..self.nrows {
            for (k, &c) in self.row_cols(r).iter().enumerate() {
                d[r][c as usize] = self.row_vals(r)[k];
            }
        }
        d
    }

    /// Extracts the row block `[row_begin, row_end)` as a standalone CRS
    /// matrix with the *same* column space. This is the local matrix of
    /// one process under the paper's 1-D data-parallel row distribution.
    pub fn row_block(&self, row_begin: usize, row_end: usize) -> CrsMatrix {
        assert!(row_begin <= row_end && row_end <= self.nrows);
        let base = self.row_ptr[row_begin];
        let row_ptr: Vec<u64> = self.row_ptr[row_begin..=row_end]
            .iter()
            .map(|&p| p - base)
            .collect();
        let lo = self.row_ptr[row_begin] as usize;
        let hi = self.row_ptr[row_end] as usize;
        CrsMatrix::from_raw(
            row_end - row_begin,
            self.ncols,
            row_ptr,
            self.cols[lo..hi].to_vec(),
            self.vals[lo..hi].to_vec(),
        )
    }

    /// The set of distinct column indices touched by this matrix that lie
    /// *outside* `[row_begin, row_end)` — exactly the halo elements a
    /// process must receive under 1-D row distribution. Returned sorted.
    pub fn halo_columns(&self, row_begin: usize, row_end: usize) -> Vec<u32> {
        let mut halo: Vec<u32> = self
            .cols
            .iter()
            .copied()
            .filter(|&c| (c as usize) < row_begin || (c as usize) >= row_end)
            .collect();
        halo.sort_unstable();
        halo.dedup();
        halo
    }
}

/// Incremental FNV-1a (64-bit) over `u64` words — the same hash family
/// the checkpoint records use, hand-rolled because the build has no
/// registry access. Word-at-a-time keeps it fast enough to fingerprint
/// multi-million-row matrices once at registration.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// 3x3 Hermitian test matrix.
    fn hermitian3() -> CrsMatrix {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, c(2.0, 0.0));
        m.push(0, 1, c(1.0, 1.0));
        m.push(1, 0, c(1.0, -1.0));
        m.push(1, 1, c(-1.0, 0.0));
        m.push(1, 2, c(0.0, 2.0));
        m.push(2, 1, c(0.0, -2.0));
        m.push(2, 2, c(0.5, 0.0));
        m.to_crs()
    }

    #[test]
    fn identity_properties() {
        let id = CrsMatrix::identity(5);
        assert_eq!(id.nnz(), 5);
        assert!(id.is_hermitian());
        let (lo, hi) = id.gershgorin_bounds();
        assert_eq!((lo, hi), (1.0, 1.0));
    }

    #[test]
    fn hermitian_check() {
        assert!(hermitian3().is_hermitian());
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, c(1.0, 0.0));
        assert!(!m.to_crs().is_hermitian());
    }

    #[test]
    fn hermitian_check_names_the_entry_and_keeps_the_entrywise_verdict() {
        // The verdict of the literal definition, one lookup per entry.
        let entrywise = |m: &CrsMatrix| {
            (0..m.nrows()).all(|r| {
                let row = m.row_cols(r).iter().zip(m.row_vals(r));
                row.clone().all(|(&c, v)| m.get(c as usize, r) == v.conj())
            })
        };
        // Entries in row-major order, kept as given (COO would drop the
        // explicit zeros).
        type Entries<'a> = &'a [(usize, usize, Complex64)];
        let build = |entries: Entries| {
            let row_ptr = (0..=3).map(|r| entries.iter().filter(|e| e.0 < r).count() as u64);
            let cols = entries.iter().map(|e| e.1 as u32).collect();
            let vals = entries.iter().map(|e| e.2).collect();
            CrsMatrix::from_raw(3, 3, row_ptr.collect(), cols, vals)
        };
        let cases: [(Entries, Option<&str>); 7] = [
            (&[(0, 1, c(1.0, 1.0)), (1, 0, c(1.0, -1.0))], None),
            // Wrong value below the diagonal: found from above.
            (&[(0, 2, c(1.0, 1.0)), (2, 0, c(1.0, 1.0))], Some("(0, 2)")),
            // Complex diagonal.
            (&[(1, 1, c(2.0, 1e-9))], Some("(1, 1)")),
            // Upper entry with nothing below, lower entry with nothing above.
            (&[(0, 1, c(0.5, 0.0))], Some("(0, 1)")),
            (&[(2, 1, c(0.5, 0.0))], Some("(2, 1)")),
            // Equal counts, but the pairs do not line up.
            (&[(0, 1, c(1.0, 0.0)), (2, 0, c(1.0, 0.0))], Some("(0, 1)")),
            // Explicit zeros opposite nothing stay Hermitian.
            (
                &[
                    (0, 1, c(0.0, 0.0)),
                    (1, 2, c(0.0, 0.0)),
                    (2, 0, c(0.0, -0.0)),
                ],
                None,
            ),
        ];
        for (entries, offender) in cases {
            let m = build(entries);
            let verdict = m.check_hermitian();
            assert_eq!(verdict.is_ok(), entrywise(&m), "{entries:?}");
            assert_eq!(m.is_hermitian(), offender.is_none(), "{entries:?}");
            if let Some(at) = offender {
                let msg = verdict.unwrap_err().to_string();
                assert!(msg.contains(&format!("entry {at}")), "{msg}");
            }
        }
        let wide = CrsMatrix::from_raw(1, 2, vec![0, 0], vec![], vec![]);
        let msg = wide.check_hermitian().unwrap_err().to_string();
        assert!(msg.contains("not square (1 x 2)"), "{msg}");
    }

    #[test]
    fn gershgorin_contains_known_eigenvalues() {
        // diag(2,-1,0.5) with off-diagonals of modulus sqrt(2) and 2.
        let m = hermitian3();
        let (lo, hi) = m.gershgorin_bounds();
        let r01 = 2.0f64.sqrt();
        assert!((lo - (-1.0 - r01 - 2.0)).abs() < 1e-14);
        assert!((hi - (2.0 + r01)).abs() < 1e-14);
    }

    #[test]
    fn row_block_extracts_local_rows() {
        let m = hermitian3();
        let b = m.row_block(1, 3);
        assert_eq!(b.nrows(), 2);
        assert_eq!(b.ncols(), 3);
        assert_eq!(b.get(0, 0), c(1.0, -1.0)); // original row 1
        assert_eq!(b.get(1, 2), c(0.5, 0.0)); // original row 2
    }

    #[test]
    fn halo_columns_are_outside_range() {
        let m = hermitian3();
        // Rows 1..3 reference columns 0,1,2; halo wrt [1,3) is {0}.
        let halo = m.row_block(1, 3);
        let _ = halo;
        assert_eq!(m.halo_columns(1, 3), vec![0]);
        assert_eq!(m.halo_columns(0, 3), Vec::<u32>::new());
    }

    #[test]
    fn to_dense_roundtrip() {
        let m = hermitian3();
        let d = m.to_dense();
        for (r, row) in d.iter().enumerate() {
            for (cidx, val) in row.iter().enumerate() {
                assert_eq!(*val, m.get(r, cidx));
            }
        }
    }

    #[test]
    fn stats() {
        let m = hermitian3();
        assert_eq!(m.nnz(), 7);
        assert!((m.avg_nnz_per_row() - 7.0 / 3.0).abs() < 1e-15);
        assert_eq!(m.max_row_len(), 3);
        assert_eq!(m.row_len(0), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_columns_rejected() {
        CrsMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![Complex64::real(1.0); 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_out_of_range_rejected() {
        CrsMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![Complex64::real(1.0)]);
    }
}
