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
//!
//! Values are stored in one of two ways, chosen by the data: plain, one
//! `Complex64` per entry (`S_d = 16`), or coded — a table of at most 256
//! distinct values and one byte per entry naming its table slot. The
//! lattice generator ([`crate::StencilMatrix::to_crs`]) codes when its
//! distinct values fit the table; everything built from raw arrays is
//! plain. Both read back the same `Complex64` bits, so nothing but the
//! bytes a sweep streams depends on the choice.
//!
//! A coded matrix also carries its [`SiteView`]: the lattice's 4×4
//! site blocks, one byte per block naming a (neighbour, block) pair of
//! at most 256, each pair stored as the slots of [`SiteBlock`]. The
//! width-1 sweep walks that view instead of the entries; past 256 pairs,
//! or when a block does not fit its slots, the generator stores the
//! matrix plain.

use std::ops::{Index, Range};

use kpm_num::accounting::{crs_bytes, S_D, S_I};
use kpm_num::{Complex64, KpmError};

/// Slots of a value table: what a `u8` code can name.
const TABLE_SLOTS: usize = 256;

/// A sparse matrix in CRS format.
///
/// `==` compares the logical contents: a coded and a plain build of one
/// operator are equal.
#[derive(Debug, Clone)]
pub struct CrsMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<u64>,
    cols: Vec<u32>,
    vals: Values,
}

/// How a [`CrsMatrix`] stores its values.
#[derive(Debug, Clone)]
pub(crate) enum Values {
    /// One value per entry.
    Plain(Vec<Complex64>),
    /// One code per entry into a table of the distinct values, and the
    /// same matrix as site blocks.
    Coded(Box<CodeTable>, Vec<u8>, SiteView),
}

/// A coded lattice matrix as the width-1 sweep walks it (DESIGN.md
/// §11). The four rows of a lattice site read the same neighbour sites,
/// so a site is `stride` codes, each naming a [`SiteBlock`] — a
/// neighbour and the 4×4 block the site's rows read from it — in
/// ascending neighbour order, hence ascending column order. A site with
/// fewer blocks than `stride` ends in the padding block, which has no
/// slot; a row with fewer entries than its block's slots multiplies
/// zeros, which changes no bit of the sweep (`sweep::site_group` has the
/// argument).
#[derive(Debug, Clone)]
pub(crate) struct SiteView {
    /// The distinct blocks, at most [`TABLE_SLOTS`].
    pub(crate) blocks: Vec<SiteBlock>,
    /// Codes per site.
    pub(crate) stride: usize,
    /// `stride` codes per site, for the lattice sites the matrix's rows
    /// touch, from the site of row 0 on.
    pub(crate) codes: Vec<u8>,
    /// The lattice row the matrix's row 0 is: 0, or where a row block
    /// starts. Columns are lattice rows either way.
    pub(crate) first_row: usize,
}

impl SiteView {
    /// The view of lattice rows `first_row + rows`: a row block's.
    fn rows(&self, rows: Range<usize>) -> SiteView {
        let site0 = self.first_row / 4;
        let (first, last) = (self.first_row + rows.start, self.first_row + rows.end);
        let sites = first / 4 - site0..last.div_ceil(4) - site0;
        SiteView {
            blocks: self.blocks.clone(),
            stride: self.stride,
            codes: self.codes[sites.start * self.stride..sites.end * self.stride].to_vec(),
            first_row: first,
        }
    }

    /// Bytes a width-1 sweep reads of the view: a byte per code and the
    /// blocks once.
    fn bytes(&self) -> usize {
        self.codes.len() + self.blocks.len() * std::mem::size_of::<SiteBlock>()
    }
}

/// Entries a row of a [`SiteBlock`] stores at most: every hopping block
/// of paper Eq. 1 stores two per row, its on-site block one.
const MAX_SLOTS: usize = 2;

/// A (neighbour, 4×4 block) pair of a [`SiteView`], laid out for the
/// sweep as at most [`MAX_SLOTS`] slots: slot `s` gives each of the
/// site's four rows its `s`-th stored entry of the block, in column
/// order. A block with fewer than two entries in some row gives that
/// row zero factors; the padding block has no slot.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct SiteBlock {
    /// The slots; those from `len` on are zero and never read.
    pub(crate) slots: [Slot; MAX_SLOTS],
    /// Slots in use: the most entries a row of the block stores.
    pub(crate) len: usize,
    /// Rows from the site's first row to the neighbour's: four times
    /// the site distance.
    pub(crate) offset: isize,
}

/// One slot of a [`SiteBlock`]. The four rows of a site are eight `f64`
/// lanes, `(re, im)` interleaved — the layout of four `Complex64`s, so
/// of `w` and of the neighbour's four `x` entries — and lane `l` adds
/// lane `lane[l]` of that `x` times `coef[l]`. For row `o`'s entry in
/// column `p`, lanes `2o, 2o + 1`:
/// - of a real entry `v` read `x`'s lanes `2p, 2p + 1` times `(v, v)`;
/// - of an imaginary entry `i·u` read `2p + 1, 2p` times `(−u, u)`;
/// - of a row with no such entry read `0, 1` times zeros.
///
/// So the two lanes of a row always read the two parts of one entry of
/// `x`, and `lane[2o + 1] == lane[2o] ^ 1`.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Slot {
    /// The lane of `x` each lane reads.
    pub(crate) lane: [u64; 8],
    /// The factor each lane multiplies it by.
    pub(crate) coef: [f64; 8],
}

impl SiteBlock {
    /// The block `b` (`b[o][p]`: row `o`, column `p`; zeros are not
    /// stored) read from the site `sites` sites away. `None` when an
    /// entry has two non-zero parts or a row stores more than
    /// [`MAX_SLOTS`] entries: one slot lane cannot hold the four products
    /// of the first, and no slot is left for the second.
    pub(crate) fn new(sites: isize, b: &[[Complex64; 4]; 4]) -> Option<Self> {
        let unused = Slot {
            lane: [0, 1, 0, 1, 0, 1, 0, 1],
            coef: [0.0; 8],
        };
        let mut block = Self {
            slots: [unused; MAX_SLOTS],
            len: 0,
            offset: 4 * sites,
        };
        for (o, row) in b.iter().enumerate() {
            let stored = row
                .iter()
                .enumerate()
                .filter(|(_, z)| **z != Complex64::default());
            for (s, (p, z)) in stored.enumerate() {
                let slot = block.slots.get_mut(s)?;
                let (lanes, coefs) = match (z.re == 0.0, z.im == 0.0) {
                    (_, true) => ([2 * p, 2 * p + 1], [z.re, z.re]),
                    (true, false) => ([2 * p + 1, 2 * p], [-z.im, z.im]),
                    (false, false) => return None,
                };
                slot.lane[2 * o..][..2].copy_from_slice(&lanes.map(|l| l as u64));
                slot.coef[2 * o..][..2].copy_from_slice(&coefs);
                block.len = block.len.max(s + 1);
            }
        }
        Some(block)
    }

    /// The code of `self` among `blocks`, matched bit for bit and
    /// appended when new; `None` when all [`TABLE_SLOTS`] codes name
    /// other blocks.
    pub(crate) fn code_in(self, blocks: &mut Vec<SiteBlock>) -> Option<u8> {
        let bits = |b: &SiteBlock| {
            let slot = |s: Slot| s.lane.into_iter().chain(s.coef.map(f64::to_bits));
            b.slots.into_iter().flat_map(slot)
        };
        let same =
            |b: &SiteBlock| (b.offset, b.len) == (self.offset, self.len) && bits(b).eq(bits(&self));
        let found = blocks.iter().position(same);
        let slot = match found {
            Some(slot) => slot,
            None if blocks.len() < TABLE_SLOTS => {
                blocks.push(self);
                blocks.len() - 1
            }
            None => return None,
        };
        Some(slot as u8)
    }
}

/// The distinct values of a coded matrix, compared by their bits.
#[derive(Debug, Clone)]
pub(crate) struct CodeTable {
    /// The values; slots from `len` on are zero and never named.
    pub(crate) vals: [Complex64; TABLE_SLOTS],
    len: usize,
}

impl CodeTable {
    /// An empty table.
    pub(crate) fn new() -> Box<Self> {
        Box::new(Self {
            vals: [Complex64::default(); TABLE_SLOTS],
            len: 0,
        })
    }

    /// The code of `v`, matched bit for bit (so `-0.0` and `+0.0` get
    /// different slots), appended when new; `None` when all
    /// [`TABLE_SLOTS`] slots hold other values.
    pub(crate) fn code(&mut self, v: Complex64) -> Option<u8> {
        let bits = |z: &Complex64| (z.re.to_bits(), z.im.to_bits());
        let found = self.vals[..self.len]
            .iter()
            .position(|z| bits(z) == bits(&v));
        let slot = match found {
            Some(slot) => slot,
            None if self.len < TABLE_SLOTS => {
                self.vals[self.len] = v;
                self.len += 1;
                self.len - 1
            }
            None => return None,
        };
        Some(slot as u8)
    }
}

/// The values of one CRS row, as [`CrsMatrix::row_vals`] hands them
/// out: indexable and iterable like the slice a plain matrix holds,
/// whichever way the matrix stores them.
#[derive(Clone, Copy)]
pub struct RowVals<'a> {
    /// The row's values (plain), or the value table (coded).
    vals: &'a [Complex64],
    /// The row's codes into `vals` (coded only).
    codes: Option<&'a [u8]>,
}

impl<'a> RowVals<'a> {
    /// Number of entries in the row.
    pub fn len(&self) -> usize {
        self.codes.map_or(self.vals.len(), <[u8]>::len)
    }

    /// True when the row stores no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `k` of the row, if there is one.
    pub fn get(&self, k: usize) -> Option<&'a Complex64> {
        match self.codes {
            None => self.vals.get(k),
            Some(codes) => codes.get(k).map(|&c| &self.vals[c as usize]),
        }
    }

    /// The row's values in entry order.
    pub fn iter(&self) -> RowValsIter<'a> {
        RowValsIter { row: *self, k: 0 }
    }

    /// The row's values, copied out.
    pub fn to_vec(&self) -> Vec<Complex64> {
        self.iter().copied().collect()
    }
}

impl Index<usize> for RowVals<'_> {
    type Output = Complex64;

    fn index(&self, k: usize) -> &Complex64 {
        match self.codes {
            None => &self.vals[k],
            Some(codes) => &self.vals[codes[k] as usize],
        }
    }
}

impl PartialEq for RowVals<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for RowVals<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for RowVals<'a> {
    type Item = &'a Complex64;
    type IntoIter = RowValsIter<'a>;

    fn into_iter(self) -> RowValsIter<'a> {
        self.iter()
    }
}

/// The iterator of [`RowVals::iter`].
#[derive(Clone)]
pub struct RowValsIter<'a> {
    row: RowVals<'a>,
    k: usize,
}

impl<'a> Iterator for RowValsIter<'a> {
    type Item = &'a Complex64;

    fn next(&mut self) -> Option<&'a Complex64> {
        let v = self.row.get(self.k)?;
        self.k += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.row.len() - self.k;
        (left, Some(left))
    }
}

impl PartialEq for CrsMatrix {
    fn eq(&self, other: &Self) -> bool {
        let same_values = || (0..self.nrows).all(|r| self.row_vals(r) == other.row_vals(r));
        (self.nrows, self.ncols) == (other.nrows, other.ncols)
            && self.row_ptr == other.row_ptr
            && self.cols == other.cols
            && same_values()
    }
}

impl CrsMatrix {
    /// Builds a CRS matrix from raw arrays, validating the invariants:
    /// `row_ptr` has `nrows + 1` monotone entries, `cols`/`vals` have
    /// matching length `row_ptr[nrows]`, and all column indices are in
    /// range and strictly increasing within each row.
    ///
    /// Panics on invalid input; use [`CrsMatrix::try_from_raw`] to get a
    /// typed error instead. The values are stored plain.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u64>,
        cols: Vec<u32>,
        vals: Vec<Complex64>,
    ) -> Self {
        Self::built(Self::try_from_raw(nrows, ncols, row_ptr, cols, vals))
    }

    /// [`CrsMatrix::from_raw`] with coded values: entry `k` is
    /// `table.vals[codes[k]]`, every code names one of the table's
    /// filled slots, and `sites` holds the same entries as site blocks —
    /// so every value has an exactly-zero part, as a [`Slot`] holds
    /// nothing else.
    pub(crate) fn from_coded(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u64>,
        cols: Vec<u32>,
        table: Box<CodeTable>,
        codes: Vec<u8>,
        sites: SiteView,
    ) -> Self {
        let site0 = sites.first_row / 4;
        let site_count = (sites.first_row + nrows).div_ceil(4) - site0;
        assert_eq!(
            sites.codes.len(),
            site_count * sites.stride,
            "one code list per site"
        );
        debug_assert!(table.vals.iter().all(|&v| crate::sweep::is_axial(v)));
        let vals = Values::Coded(table, codes, sites);
        Self::built(Self::checked(nrows, ncols, row_ptr, cols, vals))
    }

    fn built(m: Result<Self, KpmError>) -> Self {
        // kpm::allow(no_panic): documented panicking wrapper; the fallible
        // path is try_from_raw.
        m.unwrap_or_else(|e| panic!("{e}"))
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
        Self::checked(nrows, ncols, row_ptr, cols, Values::Plain(vals))
    }

    /// The invariants of [`CrsMatrix::from_raw`], checked for either
    /// value store.
    fn checked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u64>,
        cols: Vec<u32>,
        vals: Values,
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
        let vals_len = match &vals {
            Values::Plain(vals) => vals.len(),
            Values::Coded(_, codes, _) => codes.len(),
        };
        if cols.len() != vals_len {
            return Err(bad(
                "cols/vals",
                format!("cols/vals length mismatch ({} vs {vals_len})", cols.len()),
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
        self.cols.len()
    }

    /// The distinct values of a coded matrix, in code order; `None` when
    /// the values are stored plain.
    pub fn value_table(&self) -> Option<&[Complex64]> {
        match &self.vals {
            Values::Plain(_) => None,
            Values::Coded(table, _, _) => Some(&table.vals[..table.len]),
        }
    }

    /// The number of distinct (neighbour, 4×4 block) codes of a coded
    /// matrix's site view, which its width-1 sweep walks instead of the
    /// entries; `None` when the values are stored plain.
    pub fn site_blocks(&self) -> Option<usize> {
        match &self.vals {
            Values::Plain(_) => None,
            Values::Coded(_, _, sites) => Some(sites.blocks.len()),
        }
    }

    /// Bytes of matrix data one sweep at block width `width` streams: per
    /// entry its column index and its value (`S_d + S_i`) when plain,
    /// its column index and a one-byte code (`1 + S_i`) plus the table's
    /// values once when coded — except at width 1, where a coded matrix
    /// reads its site view: a byte per site block and the distinct
    /// blocks once.
    pub fn matrix_bytes(&self, width: usize) -> usize {
        match &self.vals {
            Values::Plain(_) => crs_bytes(self.nnz()),
            Values::Coded(_, _, sites) if width == 1 => sites.bytes(),
            Values::Coded(table, codes, _) => codes.len() * (1 + S_I) + table.len * S_D,
        }
    }

    /// The value store, for the sweep.
    #[inline(always)]
    pub(crate) fn values(&self) -> &Values {
        &self.vals
    }

    /// All column indices, row after row.
    #[inline(always)]
    pub(crate) fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// The entries of row `r`: `row_ptr[r]..row_ptr[r + 1]`.
    #[inline(always)]
    pub(crate) fn row_range(&self, r: usize) -> Range<usize> {
        self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize
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
        &self.cols[self.row_range(r)]
    }

    /// Values of row `r`.
    #[inline(always)]
    pub fn row_vals(&self, r: usize) -> RowVals<'_> {
        let range = self.row_range(r);
        match &self.vals {
            Values::Plain(vals) => RowVals {
                vals: &vals[range],
                codes: None,
            },
            Values::Coded(table, codes, _) => RowVals {
                vals: &table.vals,
                codes: Some(&codes[range]),
            },
        }
    }

    /// A stable 64-bit content fingerprint of the matrix: FNV-1a over
    /// the dimensions, row pointers, column indices, and the raw bit
    /// patterns of the values (each entry's, coded or not).
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
        for v in (0..self.nrows).flat_map(|r| self.row_vals(r)) {
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
            for (&c, v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
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
    /// A coded matrix's block keeps its table and the site blocks of its
    /// rows, cut sites included.
    pub fn row_block(&self, row_begin: usize, row_end: usize) -> CrsMatrix {
        assert!(row_begin <= row_end && row_end <= self.nrows);
        let base = self.row_ptr[row_begin];
        let row_ptr: Vec<u64> = self.row_ptr[row_begin..=row_end]
            .iter()
            .map(|&p| p - base)
            .collect();
        let lo = self.row_ptr[row_begin] as usize;
        let hi = self.row_ptr[row_end] as usize;
        let (nrows, cols) = (row_end - row_begin, self.cols[lo..hi].to_vec());
        match &self.vals {
            Values::Plain(vals) => {
                CrsMatrix::from_raw(nrows, self.ncols, row_ptr, cols, vals[lo..hi].to_vec())
            }
            Values::Coded(table, codes, sites) => CrsMatrix::from_coded(
                nrows,
                self.ncols,
                row_ptr,
                cols,
                table.clone(),
                codes[lo..hi].to_vec(),
                sites.rows(row_begin..row_end),
            ),
        }
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
        m.to_crs().unwrap()
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
        assert!(!m.to_crs().unwrap().is_hermitian());
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
