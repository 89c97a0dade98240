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
//! A matrix is stored in one of two ways, chosen by the data. Plain:
//! per entry its column index and one `Complex64` (`S_i + S_d`), which
//! is how everything built from raw arrays is stored. Coded: a lattice
//! operator ([`crate::StencilMatrix::to_crs`]) keeps no per-entry or
//! per-row array at all, only its entry count, a table of at most 256
//! distinct values and its [`SiteView`] — the lattice's 4×4 site blocks,
//! one byte per block naming a (neighbour, block) pair of at most 256,
//! each pair stored as the slots of [`SiteBlock`] with the table codes of
//! its entries beside them. Its sweep walks that view at every width — the
//! lattice's one sweep and one run-time operator, which
//! [`crate::KpmMatrix::stencil`] holds too — and [`CrsMatrix::row`]
//! regenerates a row from it on demand. Both read back the same
//! `Complex64` bits, so nothing but the bytes a sweep streams depends on
//! the choice. Past 256 pairs or values, or when a block does not fit
//! its slots, the generator stores the matrix plain.

use std::borrow::Cow;
use std::ops::Range;

use kpm_num::accounting::crs_bytes;
use kpm_num::complex::ZERO;
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
    /// Stored entries.
    nnz: usize,
    /// A plain matrix's row pointers: row `r`'s entries are
    /// `row_ptr[r]..row_ptr[r + 1]`. Empty when coded: the site view is
    /// the rows.
    row_ptr: Vec<u64>,
    vals: Values,
}

/// How a [`CrsMatrix`] stores its values.
#[derive(Debug, Clone)]
pub(crate) enum Values {
    /// Per entry its column index and its value.
    Plain {
        /// The column indices, row after row.
        cols: Vec<u32>,
        /// The values, laid out like `cols`.
        vals: Vec<Complex64>,
    },
    /// A lattice's: its site view, whose blocks name the values of their
    /// entries in a table of the distinct ones.
    Lattice(Box<CodeTable>, SiteView),
}

/// A lattice operator as its sweep walks it, at every width (DESIGN.md
/// §11). The four rows of a lattice site read the same neighbour sites,
/// so a site is `stride` codes, each naming a [`SiteBlock`] — a
/// neighbour and the 4×4 block the site's rows read from it — in
/// ascending neighbour order, hence ascending column order. A site with
/// fewer blocks than `stride` ends in the zero block on itself, whose
/// slots hold zero factors; a row with fewer entries than its block's
/// slots multiplies zeros, which changes no bit of the sweep
/// (`sweep::lane_group` has the argument).
#[derive(Debug, Clone)]
pub(crate) struct SiteView {
    /// The block table: the distinct blocks, then [`SiteBlock::EMPTY`]
    /// in every slot no code names, so that a `u8` code indexes it with
    /// no bounds check.
    pub(crate) blocks: Box<BlockTable>,
    /// Codes per site.
    pub(crate) stride: usize,
    /// `stride` codes per lattice site, site after site.
    pub(crate) codes: Vec<u8>,
    /// The values of each block's stored entries, as codes into the
    /// matrix's [`CodeTable`]: `entries[b][o][s]` is row `o`'s entry in
    /// slot `s` of `blocks[b]`. A [`Slot`]'s factors cannot tell `-0.0`
    /// from `+0.0` in an entry's zero part; its code does. The sweep
    /// never reads them.
    pub(crate) entries: Vec<EntryCodes>,
    /// Each distinct block decoded for units of two lanes, in the code
    /// order of `blocks`: what the AVX-512 copy's 2- and 4-lane steps
    /// read in place of its slots (`sweep::Isa::unit_steps`). Built
    /// once with the view.
    pub(crate) pairs: Vec<PairBlock>,
}

/// The blocks of a [`SiteView`], one per code a `u8` can hold.
pub(crate) type BlockTable = [SiteBlock; TABLE_SLOTS];

/// The table codes of a [`SiteBlock`]'s entries, per row and slot.
pub(crate) type EntryCodes = [[u8; MAX_SLOTS]; 4];

impl SiteView {
    /// The distinct blocks, the codes in use: the front of the table.
    pub(crate) fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Bytes a sweep reads of the view, at any block width: a byte per
    /// code and the distinct blocks once.
    pub(crate) fn bytes(&self) -> usize {
        self.codes.len() + self.distinct() * std::mem::size_of::<SiteBlock>()
    }

    /// Writes row `r` to the front of `cols` / `vals` and returns its
    /// length: the blocks of its site in order, and in each the slots
    /// that store an entry of the row — a stored entry has non-zero
    /// factors, an empty slot zeros — so its columns ascend. Every slot
    /// is written and only a stored one kept: a site has at most
    /// [`MAX_SITE_ROW`] slots.
    #[inline]
    fn fill_row(
        &self,
        table: &CodeTable,
        r: usize,
        cols: &mut [u32; MAX_SITE_ROW],
        vals: &mut [Complex64; MAX_SITE_ROW],
    ) -> usize {
        let (site, o) = (r / 4, r % 4);
        let mut len = 0;
        for &b in &self.codes[site * self.stride..][..self.stride] {
            let (block, codes) = (&self.blocks[b as usize], &self.entries[b as usize][o]);
            let first = 4 * site.wrapping_add_signed(block.neighbour);
            for (slot, &code) in block.slots.iter().zip(codes) {
                let (lane, (_, coef)) = slot.row(o);
                cols[len] = (first + lane / 2) as u32;
                vals[len] = table.vals[code as usize];
                len += (coef != 0.0) as usize;
            }
        }
        len
    }

    /// The length of row `r`: the slots of its site's blocks that store
    /// an entry of the row, as [`SiteView::fill_row`] keeps them.
    fn row_len(&self, r: usize) -> usize {
        let (site, o) = (r / 4, r % 4);
        let codes = &self.codes[site * self.stride..][..self.stride];
        let slots = codes.iter().flat_map(|&b| &self.blocks[b as usize].slots);
        slots.filter(|slot| slot.row(o).1 .1 != 0.0).count()
    }
}

/// Blocks a site reads at most: itself and six neighbours — the codes
/// per site of a [`SiteView`] at most.
pub(crate) const MAX_SITE_BLOCKS: usize = 7;

/// Entries a row of a [`SiteBlock`] stores at most: every hopping block
/// of paper Eq. 1 stores two per row, its on-site block one.
pub(crate) const MAX_SLOTS: usize = 2;

/// Entries a row of a [`SiteView`] stores at most: [`MAX_SLOTS`] per
/// block of its site.
const MAX_SITE_ROW: usize = MAX_SITE_BLOCKS * MAX_SLOTS;

/// A (neighbour, 4×4 block) pair of a [`SiteView`], laid out for the
/// sweep as at most [`MAX_SLOTS`] slots: slot `s` gives each of the
/// site's four rows its `s`-th stored entry of the block, in column
/// order. A block with fewer than two entries in some row gives that
/// row zero factors. Every copy of the sweep reads it at width 1 and on
/// 8-column panels, the portable copies at 2 and 4 lanes too; the
/// AVX-512 copy's 2- and 4-lane steps read its slots decoded
/// ([`PairSlot`], in [`SiteView::pairs`]) and only its `len` and
/// `neighbour` here.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct SiteBlock {
    /// The slots; those from `len` on hold zero factors. The width-1
    /// lane walk steps both slots of every block, and other widths the
    /// first `len`.
    pub(crate) slots: [Slot; MAX_SLOTS],
    /// Slots in use: the most entries a row of the block stores.
    pub(crate) len: usize,
    /// Sites from the site to the neighbour.
    pub(crate) neighbour: isize,
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

impl Slot {
    /// Row `o`'s lane of `x` — a neighbour row and, by parity, the part
    /// its real lane reads — and its two factors.
    #[inline(always)]
    pub(crate) fn row(&self, o: usize) -> (usize, (f64, f64)) {
        (
            self.lane[2 * o] as usize,
            (self.coef[2 * o], self.coef[2 * o + 1]),
        )
    }
}

impl SiteBlock {
    /// The block of the table slots no code names: no slot in use, every
    /// lane reading lane 0 of the site itself times zero.
    pub(crate) const EMPTY: Self = Self {
        slots: [Slot {
            lane: [0; 8],
            coef: [0.0; 8],
        }; MAX_SLOTS],
        len: 0,
        neighbour: 0,
    };

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
            neighbour: sites,
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
}

/// The slots of a [`SiteBlock`] decoded for units of two lanes
/// ([`PairSlot`]).
pub(crate) type PairBlock = [PairSlot; MAX_SLOTS];

/// A [`Slot`] decoded for units of two lanes: the operands of the
/// AVX-512 copy's 2-lane step, which depend on the block alone, so that
/// a visit reads them instead of building them (`sweep::Isa::unit_steps`).
/// On a 2-column panel the four rows of a site are sixteen doubles, unit
/// `q` (part `q % 2` of row `q / 2`) at `2q` and `2q + 1`. Half `g` of
/// the slot is its units `4g .. 4g + 4`: lane `i` of it reads double
/// `index[g][i]` of the sixteen times `factor[g][i]` — for unit
/// `l = 4g + i / 2`, double `2·lane[l] + i % 2` times `coef[l]`. The
/// 4-lane step reads the same operands on each half of its columns.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct PairSlot {
    /// The double each lane reads, per half.
    pub(crate) index: [[u64; 8]; 2],
    /// The factor each lane multiplies it by, per half.
    pub(crate) factor: [[f64; 8]; 2],
}

impl PairSlot {
    /// `slot` decoded.
    pub(crate) fn new(slot: &Slot) -> Self {
        let unit = |g: usize, i: usize| 4 * g + i / 2;
        Self {
            index: std::array::from_fn(|g| {
                std::array::from_fn(|i| 2 * slot.lane[unit(g, i)] + i as u64 % 2)
            }),
            factor: std::array::from_fn(|g| std::array::from_fn(|i| slot.coef[unit(g, i)])),
        }
    }
}

/// A 4×4 block of a lattice operator: `b[o][p]` is row `o`, column `p`.
pub(crate) type Block = [[Complex64; 4]; 4];

/// The distinct blocks of a [`SiteView`] being built, each kept with the
/// entries it was built from until [`BlockSet::into_view`] codes them.
pub(crate) struct BlockSet {
    /// The table: the blocks coded so far, then [`SiteBlock::EMPTY`].
    blocks: Box<BlockTable>,
    /// Each coded block's site distance and entries.
    raw: Vec<(isize, Block)>,
}

impl Default for BlockSet {
    fn default() -> Self {
        Self {
            blocks: Box::new([SiteBlock::EMPTY; TABLE_SLOTS]),
            raw: Vec::new(),
        }
    }
}

impl BlockSet {
    /// The code of the block `b` read from the site `sites` sites away,
    /// matched by its entries' bits (so blocks that differ only in the
    /// sign of a zero part get different codes) and appended when new.
    /// `None` when the block does not fit its slots ([`SiteBlock::new`])
    /// or all [`TABLE_SLOTS`] codes name other blocks.
    pub(crate) fn code(&mut self, sites: isize, b: Block) -> Option<u8> {
        let bits = |b: &Block| b.map(|row| row.map(|z| (z.re.to_bits(), z.im.to_bits())));
        let same = |(s, raw): &(isize, Block)| *s == sites && bits(raw) == bits(&b);
        let code = match self.raw.iter().position(same) {
            Some(code) => code,
            None if self.raw.len() < TABLE_SLOTS => {
                self.blocks[self.raw.len()] = SiteBlock::new(sites, &b)?;
                self.raw.push((sites, b));
                self.raw.len() - 1
            }
            None => return None,
        };
        Some(code as u8)
    }

    /// The view of the sites whose codes are `codes`, `stride` per site,
    /// and the table its entries' codes name; `None` past [`TABLE_SLOTS`]
    /// distinct values.
    pub(crate) fn into_view(
        self,
        stride: usize,
        codes: Vec<u8>,
    ) -> Option<(SiteView, Box<CodeTable>)> {
        let (table, entries) = self.entry_codes()?;
        let distinct = &self.blocks[..entries.len()];
        let pairs = distinct
            .iter()
            .map(|b| b.slots.each_ref().map(PairSlot::new))
            .collect();
        let view = SiteView {
            blocks: self.blocks,
            stride,
            codes,
            entries,
            pairs,
        };
        Some((view, table))
    }

    /// The table of the blocks' distinct values and each block's
    /// [`EntryCodes`]; `None` past [`TABLE_SLOTS`] values.
    fn entry_codes(&self) -> Option<(Box<CodeTable>, Vec<EntryCodes>)> {
        let mut table = CodeTable::new();
        let mut entries = Vec::with_capacity(self.raw.len());
        for (_, b) in &self.raw {
            let mut codes = EntryCodes::default();
            for (row, codes) in b.iter().zip(&mut codes) {
                // A block's slots hold its row's stored entries in
                // column order.
                let stored = row.iter().filter(|&&z| z != ZERO);
                for (code, &v) in codes.iter_mut().zip(stored) {
                    *code = table.code(v)?;
                }
            }
            entries.push(codes);
        }
        Some((table, entries))
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

/// One row of a [`CrsMatrix`], as [`CrsMatrix::row`] hands it out:
/// borrowed from a plain matrix, regenerated from a coded one's site
/// view. `==` compares columns and values.
pub struct Row<'a>(RowEntries<'a>);

// A regenerated row lives on the caller's stack: boxing it would
// allocate once per row.
#[allow(clippy::large_enum_variant)]
enum RowEntries<'a> {
    Stored(&'a [u32], &'a [Complex64]),
    Decoded {
        len: usize,
        cols: [u32; MAX_SITE_ROW],
        vals: [Complex64; MAX_SITE_ROW],
    },
}

impl Row<'_> {
    /// The row's column indices, ascending.
    pub fn cols(&self) -> &[u32] {
        match &self.0 {
            RowEntries::Stored(cols, _) => cols,
            RowEntries::Decoded { len, cols, .. } => &cols[..*len],
        }
    }

    /// The row's values, in column order.
    pub fn vals(&self) -> &[Complex64] {
        match &self.0 {
            RowEntries::Stored(_, vals) => vals,
            RowEntries::Decoded { len, vals, .. } => &vals[..*len],
        }
    }

    /// The entry in column `c`, if the row stores one.
    fn get(&self, c: usize) -> Option<Complex64> {
        let k = self.cols().binary_search(&(c as u32)).ok();
        k.map(|k| self.vals()[k])
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cols() == other.cols() && self.vals() == other.vals()
    }
}

impl PartialEq for CrsMatrix {
    fn eq(&self, other: &Self) -> bool {
        let same_rows = || (0..self.nrows).all(|r| self.row(r) == other.row(r));
        (self.nrows, self.ncols, self.nnz) == (other.nrows, other.ncols, other.nnz) && same_rows()
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

    /// The square lattice operator whose rows `sites` holds, coded:
    /// each stored entry's value is `table.vals[code]` for its code in
    /// `sites.entries`, every code names one of the table's filled slots,
    /// and the rows hold `nnz` entries in all — so every value has an
    /// exactly-zero part, as a [`Slot`] holds nothing else. Its columns
    /// are in range and ascending by construction: nothing is checked
    /// row by row.
    pub(crate) fn from_coded(
        nrows: usize,
        nnz: usize,
        table: Box<CodeTable>,
        sites: SiteView,
    ) -> Self {
        assert_eq!(
            sites.codes.len(),
            nrows.div_ceil(4) * sites.stride,
            "one code list per site"
        );
        debug_assert!(table.vals.iter().all(|&v| crate::sweep::is_axial(v)));
        debug_assert_eq!((0..nrows).map(|r| sites.row_len(r)).sum::<usize>(), nnz);
        Self {
            nrows,
            ncols: nrows,
            nnz,
            row_ptr: Vec::new(),
            vals: Values::Lattice(table, sites),
        }
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
            let row = cols.get(lo..hi).unwrap_or_default();
            for (k, &c) in row.iter().enumerate() {
                if c as usize >= ncols {
                    return Err(bad(
                        "cols",
                        format!("column index out of range (row {r}: col {c} >= ncols {ncols})"),
                    ));
                }
                if k > 0 && row[k - 1] >= c {
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
            nnz,
            row_ptr,
            vals: Values::Plain { cols, vals },
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
        self.nnz
    }

    /// The distinct values of a coded matrix, in code order; `None` when
    /// the values are stored plain.
    pub fn value_table(&self) -> Option<&[Complex64]> {
        match &self.vals {
            Values::Plain { .. } => None,
            Values::Lattice(table, _) => Some(&table.vals[..table.len]),
        }
    }

    /// The number of distinct (neighbour, 4×4 block) codes of a coded
    /// matrix's site view, which its sweep walks instead of the entries;
    /// `None` when the values are stored plain.
    pub fn site_blocks(&self) -> Option<usize> {
        match &self.vals {
            Values::Plain { .. } => None,
            Values::Lattice(_, sites) => Some(sites.distinct()),
        }
    }

    /// Bytes of matrix data one sweep streams, at any block width: per
    /// entry its column index and its value (`S_d + S_i`) when plain;
    /// when coded, its site view — a byte per site block and the
    /// distinct blocks once — which is all the sweep reads.
    pub fn matrix_bytes(&self) -> usize {
        match &self.vals {
            Values::Plain { .. } => crs_bytes(self.nnz()),
            Values::Lattice(_, sites) => sites.bytes(),
        }
    }

    /// The value store, for the sweep.
    #[inline(always)]
    pub(crate) fn values(&self) -> &Values {
        &self.vals
    }

    /// The entries of row `r` in a plain matrix's arrays:
    /// `row_ptr[r]..row_ptr[r + 1]`.
    #[inline(always)]
    pub(crate) fn row_range(&self, r: usize) -> Range<usize> {
        self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize
    }

    /// Average number of non-zeros per row (`N_nzr` in the paper; ≈13
    /// for the topological-insulator matrices).
    pub fn avg_nnz_per_row(&self) -> f64 {
        self.nnz() as f64 / self.nrows.max(1) as f64
    }

    /// The row pointers: a plain matrix's array, or the prefix sums of a
    /// coded matrix's row lengths, which it does not store.
    pub fn row_ptr(&self) -> Cow<'_, [u64]> {
        match &self.vals {
            Values::Plain { .. } => Cow::Borrowed(&self.row_ptr),
            Values::Lattice(..) => {
                let ends = (0..self.nrows).scan(0, |end, r| {
                    *end += self.row_len(r) as u64;
                    Some(*end)
                });
                Cow::Owned(std::iter::once(0).chain(ends).collect())
            }
        }
    }

    /// Row `r`: its column indices and values, borrowed when stored
    /// plain, regenerated from the site view when coded. A loop over a
    /// row's entries fetches it once.
    #[inline]
    pub fn row(&self, r: usize) -> Row<'_> {
        match &self.vals {
            Values::Plain { cols, vals } => {
                let range = self.row_range(r);
                Row(RowEntries::Stored(&cols[range.clone()], &vals[range]))
            }
            Values::Lattice(table, sites) => {
                let (mut cols, mut vals) = ([0; MAX_SITE_ROW], [ZERO; MAX_SITE_ROW]);
                let len = sites.fill_row(table, r, &mut cols, &mut vals);
                Row(RowEntries::Decoded { len, cols, vals })
            }
        }
    }

    /// Hands `f` every row in order, `(row, columns, values)`: the loop
    /// of the readers of the whole matrix, which regenerates a coded
    /// matrix's rows into one buffer.
    pub(crate) fn for_each_row(&self, mut f: impl FnMut(usize, &[u32], &[Complex64])) {
        match &self.vals {
            Values::Plain { cols, vals } => {
                for r in 0..self.nrows {
                    let range = self.row_range(r);
                    f(r, &cols[range.clone()], &vals[range]);
                }
            }
            Values::Lattice(table, sites) => {
                let (mut cols, mut vals) = ([0; MAX_SITE_ROW], [ZERO; MAX_SITE_ROW]);
                for r in 0..self.nrows {
                    let len = sites.fill_row(table, r, &mut cols, &mut vals);
                    f(r, &cols[..len], &vals[..len]);
                }
            }
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
    /// The three arrays of a plain CRS are hashed one after the other,
    /// whether they are stored or not: the row pointers summed on the fly
    /// from the row lengths (read off the site view when coded), then
    /// every column index, then every value's bits.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.nrows as u64);
        h.write_u64(self.ncols as u64);
        h.write_u64(0);
        let mut end = 0;
        for r in 0..self.nrows {
            end += self.row_len(r) as u64;
            h.write_u64(end);
        }
        self.for_each_row(|_, cols, _| {
            for &c in cols {
                h.write_u64(c as u64);
            }
        });
        self.for_each_row(|_, _, vals| {
            for v in vals {
                h.write_u64(v.re.to_bits());
                h.write_u64(v.im.to_bits());
            }
        });
        h.finish()
    }

    /// Entry `(r, c)`, or zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> Complex64 {
        self.row(r).get(c).unwrap_or_default()
    }

    /// Length of row `r`: off the row pointers when plain, off the site
    /// view when coded.
    #[inline(always)]
    pub fn row_len(&self, r: usize) -> usize {
        match &self.vals {
            Values::Plain { .. } => (self.row_ptr[r + 1] - self.row_ptr[r]) as usize,
            Values::Lattice(_, sites) => sites.row_len(r),
        }
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
        let partner = |r: usize, c: usize| self.row(c).get(r);
        let (mut lower, mut partnered) = (0usize, 0usize);
        for r in 0..self.nrows {
            let row = self.row(r);
            for (&c, &v) in row.cols().iter().zip(row.vals()) {
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
                let row = self.row(r);
                for (&c, &v) in row.cols().iter().zip(row.vals()) {
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
        self.for_each_row(|r, cols, vals| {
            let mut diag = 0.0;
            let mut radius = 0.0;
            for (&c, v) in cols.iter().zip(vals) {
                if c as usize == r {
                    diag = v.re;
                } else {
                    radius += v.abs();
                }
            }
            lo = lo.min(diag - radius);
            hi = hi.max(diag + radius);
        });
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
        self.for_each_row(|r, cols, vals| {
            for (&c, &v) in cols.iter().zip(vals) {
                d[r][c as usize] = v;
            }
        });
        d
    }
}

/// Incremental FNV-1a (64-bit) over `u64` words — the same hash family
/// the checkpoint records use, hand-rolled because the build has no
/// registry access. Word-at-a-time keeps it fast enough to fingerprint
/// multi-million-row matrices once at registration.
struct Fnv1a(u64);

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`, wrapping.
const FNV_POWERS: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// The word's eight bytes, little-endian. A zero byte's step is one
    /// multiply by the prime (`h ^ 0 == h`), so the runs of zero bytes
    /// below the lowest and above the highest non-zero byte — most of a
    /// row pointer's or column's, and all of a `0.0`'s — are each one
    /// multiply by a power of it: the byte-at-a-time hash, bit for bit.
    fn write_u64(&mut self, word: u64) {
        if word == 0 {
            self.0 = self.0.wrapping_mul(FNV_POWERS[8]);
            return;
        }
        let low = (word.trailing_zeros() / 8) as usize;
        let high = (8 - word.leading_zeros() / 8) as usize;
        let mut h = self.0.wrapping_mul(FNV_POWERS[low]);
        for &byte in &word.to_le_bytes()[low..high] {
            h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h.wrapping_mul(FNV_POWERS[8 - high]);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    #[test]
    fn fnv_skips_zero_runs_exactly() {
        // The byte-at-a-time FNV-1a the zero runs shortcut.
        fn bytewise(h: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *h = (*h ^ byte as u64).wrapping_mul(FNV_PRIME);
            }
        }
        let mut words = vec![0, 1, u64::MAX, 1 << 63, 0x0100, 0x00ff_0000_ff00];
        words.extend([0.0, -0.0, 0.5, -0.5, 1.0, 0.25].map(f64::to_bits));
        words.extend((0..64).map(|k| 0x9e37_79b9_7f4a_7c15u64.rotate_left(k) >> (k % 60)));
        let (mut fast, mut want) = (Fnv1a::new(), Fnv1a::new().0);
        for &word in &words {
            fast.write_u64(word);
            bytewise(&mut want, word);
            assert_eq!(fast.finish(), want, "{word:#x}");
        }
    }

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
                let row = m.row(r);
                let mut entries = row.cols().iter().zip(row.vals());
                entries.all(|(&c, v)| m.get(c as usize, r) == v.conj())
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
