//! Matrix-free stencil storage for the topological-insulator operator.
//!
//! The paper's roofline analysis makes the matrix stream the dominant
//! traffic term (`N_nz ≈ 13·N` elements of 20 bytes each per sweep).
//! [`StencilMatrix`] removes that term outright: every kernel rebuilds
//! the operator from the lattice geometry — per site one on-site
//! diagonal (64 bytes) plus six 4×4 hopping-block templates shared by
//! all sites. `stored_elements()` is 0 and the probes model zero matrix
//! bytes.
//!
//! All kernels share one **site-blocked sweep** (the [`RowSweep`]
//! body, run by the shared panel machinery of `sweep.rs`). The four
//! orbital rows of a site see the same up-to-seven 4×4 blocks (six
//! neighbours plus the on-site diagonal), and distinct sites own
//! disjoint column ranges, so walking the blocks in ascending *site*
//! order visits each row's entries in exactly the ascending-column
//! order of a CRS row. That order depends only on the site's boundary
//! class and is tabulated once at construction (flattened per orbital
//! row into a [`RowPlan`]); the sweep looks the class up, keeps each
//! row's accumulators in a const-width register panel and walks the
//! row's flat entry list — no per-row gather, sort or merge, no
//! per-block bookkeeping. The same tables are the lattice's CRS
//! generator: [`StencilMatrix::to_crs`] (kpm-topo's `assemble()`)
//! writes the plans out row by row.
//!
//! Bitwise contract: every row runs the exact floating-point chain of
//! the CRS sweep over the exact entries of the CRS build, and the two
//! formats share one schedule and reduction (`sweep.rs`), so vectors
//! and dot products are bit-identical to CRS (serial ≡ serial, parallel
//! ≡ parallel at equal cache budget) for any thread count. The
//! determinism and property suites pin this down.
//!
//! The per-row generator [`StencilMatrix::regen_row`] — the literal
//! form of Eq. (1): gather, sort by column, merge — remains for rows of
//! a site split by a chunk edge (tile heights need not be multiples of
//! 4), for lattices with a periodic extent-2 axis (the coincident
//! `n±ê_j` blocks are merged before the multiply), and as the row
//! source of the fingerprint; entry count and Gershgorin bounds are
//! `O(sites)` folds.

use std::ops::Range;

use kpm_num::aligned::zeroed_vec;
use kpm_num::complex::ZERO;
use kpm_num::{Complex64, KpmError};
use rayon::prelude::*;

use crate::aug::AugDotsBlock;
use crate::kernels::{FormatSpec, SparseKernels};
use crate::sweep::{
    all_axial, for_passes, is_axial, row_pass, Epilogue, Pass, RowSweep, Schedule, SweepOp,
};
use crate::tile::DEFAULT_CACHE_BYTES;

/// Upper bound on regenerated row length: 1 on-site entry plus six
/// hopping blocks contributing at most 4 entries per orbital row.
pub const MAX_ROW_ENTRIES: usize = 32;

/// Rows per parallel fill chunk of [`StencilMatrix::to_crs`] (whole
/// sites; ~4 MB of CRS entries on the TI lattice).
const FILL_ROWS: usize = 16_384;

/// Block id of the on-site diagonal in a class's block order (the six
/// hopping blocks are `0..6`).
const ONSITE: usize = 6;

/// One orbital row of a 4×4 hopping block, pre-filtered to its
/// non-zero entries (column offset within the block, value).
#[derive(Debug, Clone, Copy, Default)]
struct HopRow {
    len: u8,
    cols: [u8; 4],
    vals: [Complex64; 4],
}

/// One orbital row of a boundary class: the blocks every site of the
/// class sees, walked in ascending site (hence ascending column) order
/// and flattened into the row's hopping entries `(x-row offset from the
/// site's first row, value, −value.im)`, with the on-site entry — whose
/// value varies per site — slotted in before entry `onsite_at`.
#[derive(Debug, Clone, Copy, Default)]
struct RowPlan {
    len: u8,
    onsite_at: u8,
    /// Every hopping entry has an exactly-zero part ([`is_axial`]).
    axial: bool,
    entries: [PlanEntry; MAX_ROW_ENTRIES],
}

/// One hopping entry of a [`RowPlan`]; `neg_im` is `-val.im`,
/// tabulated (see [`Pass::axpy`]).
#[derive(Debug, Clone, Copy, Default)]
struct PlanEntry {
    offset: isize,
    val: Complex64,
    neg_im: f64,
}

/// Boundary code of one coordinate: bit 0 = on the low edge, bit 1 =
/// on the high edge (both on an extent-1 axis). Three of them index
/// the [`RowPlan`] table.
#[inline(always)]
fn edge_code(coord: usize, extent: usize) -> usize {
    (coord == 0) as usize | ((coord + 1 == extent) as usize) << 1
}

/// A matrix-free representation of the nearest-neighbour 4-orbital
/// lattice operator (paper Eq. 1): rows are rebuilt on the fly from
/// `O(1)` stencil data instead of streamed from memory.
///
/// Construction takes the on-site *diagonals* per site and the six raw
/// hopping blocks in assembly order (`+ê_j` H.c. partner before `−ê_j`
/// for each direction); see [`StencilMatrix::new`]. kpm-topo provides
/// a builder (`TopoHamiltonian::stencil_matrix`) that feeds it the
/// exact blocks its CRS assembly uses.
#[derive(Debug, Clone)]
pub struct StencilMatrix {
    nx: usize,
    ny: usize,
    nz: usize,
    periodic: [bool; 3],
    /// Diagonal of the on-site block, per site (the TI on-site block
    /// `V·Γ⁰ + 2Γ¹` is exactly diagonal).
    onsite_diag: Vec<[Complex64; 4]>,
    /// The raw blocks: `[2j]` is the `+ê_j` block (`T_j†`), `[2j+1]`
    /// the `−ê_j` block (`T_j`).
    hop_blocks: [[[Complex64; 4]; 4]; 6],
    /// `hop_blocks` split into zero-filtered orbital rows.
    hop_rows: [[HopRow; 4]; 6],
    /// The four orbital rows of every boundary class, indexed by the
    /// three [`edge_code`]s (`x | y << 2 | z << 4`).
    plans: Vec<[RowPlan; 4]>,
    /// True when a periodic axis has extent 2: both partners along it
    /// are the same site and the assembly merges their entries, so the
    /// sweep regenerates (and merges) row by row.
    coincident: bool,
    nnz: usize,
}

impl StencilMatrix {
    /// Builds the stencil operator.
    ///
    /// * `onsite_diag[site]` — the diagonal of the on-site 4×4 block
    ///   (the block must be diagonal; off-diagonal on-site structure is
    ///   not representable and is the caller's contract to uphold),
    /// * `hop_blocks` — the six 4×4 hopping blocks in assembly order:
    ///   index `2j` holds the `+ê_j` partner and `2j+1` the `−ê_j`
    ///   partner for direction `j ∈ {0,1,2}` (x, y, z),
    /// * `periodic` — per-axis boundary conditions; extent-1 axes are
    ///   always treated as open (a periodic wrap would be a self-loop),
    ///   matching the lattice neighbour rules.
    pub fn new(
        nx: usize,
        ny: usize,
        nz: usize,
        periodic: [bool; 3],
        onsite_diag: Vec<[Complex64; 4]>,
        hop_blocks: &[[[Complex64; 4]; 4]; 6],
    ) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "lattice extents must be positive"
        );
        assert_eq!(
            onsite_diag.len(),
            nx * ny * nz,
            "one on-site diagonal per site"
        );
        let mut hop_rows = [[HopRow::default(); 4]; 6];
        for (b, block) in hop_blocks.iter().enumerate() {
            for (o, row) in block.iter().enumerate() {
                let hr = &mut hop_rows[b][o];
                for (p, &val) in row.iter().enumerate() {
                    // The same pre-merge zero filter the assembly applies.
                    if val != ZERO {
                        hr.cols[hr.len as usize] = p as u8;
                        hr.vals[hr.len as usize] = val;
                        hr.len += 1;
                    }
                }
            }
        }
        let mut m = Self {
            nx,
            ny,
            nz,
            periodic,
            onsite_diag,
            hop_blocks: *hop_blocks,
            hop_rows,
            plans: Vec::new(),
            coincident: [nx, ny, nz]
                .iter()
                .zip(periodic)
                .any(|(&extent, wraps)| wraps && extent == 2),
            nnz: 0,
        };
        m.plans = (0..64).map(|code| m.row_plans(code)).collect();
        let mut nnz = 0;
        m.for_row_sums(|_, entries, _| nnz += entries);
        Self { nnz, ..m }
    }

    /// The four orbital rows of boundary class `code`, read off a
    /// representative site (empty when the lattice has no such site).
    fn row_plans(&self, code: usize) -> [RowPlan; 4] {
        let rep = |code: usize, extent: usize| match code & 3 {
            0 => (extent >= 3).then_some(1),
            1 => (extent >= 2).then_some(0),
            2 => (extent >= 2).then_some(extent - 1),
            _ => (extent == 1).then_some(0),
        };
        let mut plans = [RowPlan::default(); 4];
        let (Some(x), Some(y), Some(z)) = (
            rep(code, self.nx),
            rep(code >> 2, self.ny),
            rep(code >> 4, self.nz),
        ) else {
            return plans;
        };
        let site = x + self.nx * (y + self.ny * z);
        // (site offset, block), ascending: the on-site block and the
        // neighbours the boundary leaves.
        let mut slots = vec![(0isize, ONSITE)];
        for dir in 0..6 {
            if let Some(ns) = self.neighbor(x, y, z, dir) {
                slots.push((ns as isize - site as isize, dir));
            }
        }
        slots.sort_unstable();
        for (o, plan) in plans.iter_mut().enumerate() {
            plan.axial = true;
            for &(offset, block) in &slots {
                if block == ONSITE {
                    plan.onsite_at = plan.len;
                    continue;
                }
                let hr = &self.hop_rows[block][o];
                for e in 0..hr.len as usize {
                    plan.entries[plan.len as usize] = PlanEntry {
                        offset: 4 * offset + hr.cols[e] as isize,
                        val: hr.vals[e],
                        neg_im: -hr.vals[e].im,
                    };
                    plan.axial &= is_axial(hr.vals[e]);
                    plan.len += 1;
                }
            }
        }
        plans
    }

    /// Number of lattice sites.
    pub fn sites(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Matrix dimension `N = 4 · Nx · Ny · Nz`.
    pub fn nrows(&self) -> usize {
        4 * self.sites()
    }

    /// The operator is square by construction.
    pub fn ncols(&self) -> usize {
        self.nrows()
    }

    /// Number of logical non-zeros of the regenerated operator.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Lattice extents `(Nx, Ny, Nz)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Per-axis periodicity flags.
    pub fn periodic(&self) -> [bool; 3] {
        self.periodic
    }

    /// Regenerates rows `rows` in order — columns ascending, duplicates
    /// merged, zeros filtered, exactly the assembled CRS rows — handing
    /// each `(row, cols, vals)` to `f`.
    fn for_rows(&self, rows: Range<usize>, mut f: impl FnMut(usize, &[u32], &[Complex64])) {
        let (mut site, mut neigh) = (usize::MAX, [None; 6]);
        let mut cols = [0u32; MAX_ROW_ENTRIES];
        let mut vals = [ZERO; MAX_ROW_ENTRIES];
        for r in rows {
            let len = self.regen_row(r, &mut site, &mut neigh, &mut cols, &mut vals);
            f(r, &cols[..len], &vals[..len]);
        }
    }

    /// The content fingerprint of the *assembled* operator: identical
    /// to [`crate::crs::CrsMatrix::content_fingerprint`] of the CRS
    /// build of the same lattice, so service-side request coalescing
    /// and moment caching work across the CRS/stencil format boundary.
    /// CRS hashes its three arrays one after the other; so does this,
    /// as three regeneration passes that never materialize them.
    pub fn content_fingerprint(&self) -> u64 {
        let n = self.nrows();
        let mut h = crate::crs::Fnv1a::new();
        h.write_u64(n as u64);
        h.write_u64(n as u64);
        let mut row_ptr = 0u64;
        h.write_u64(row_ptr);
        self.for_rows(0..n, |_, cols, _| {
            row_ptr += cols.len() as u64;
            h.write_u64(row_ptr);
        });
        self.for_rows(0..n, |_, cols, _| {
            for &c in cols {
                h.write_u64(c as u64);
            }
        });
        self.for_rows(0..n, |_, _, vals| {
            for v in vals {
                h.write_u64(v.re.to_bits());
                h.write_u64(v.im.to_bits());
            }
        });
        h.finish()
    }

    /// Assembles the operator into an explicit CRS matrix — the one
    /// generator of the lattice's CRS form (kpm-topo's `assemble()` is
    /// this). Row lengths come from the boundary-class table, so
    /// `row_ptr` is an `O(sites)` prefix sum and `cols`/`vals` are
    /// allocated untouched at their final size; fixed chunks of
    /// [`FILL_ROWS`] rows are then filled straight from the
    /// [`RowPlan`]s on the ambient pool — ascending columns by
    /// construction, no sort, no merge, every page first written by the
    /// worker that fills it. A lattice of one chunk fills inline.
    /// Coincident-neighbour lattices regenerate (and merge) row by row.
    pub fn to_crs(&self) -> crate::crs::CrsMatrix {
        let n = self.nrows();
        let mut row_ptr: Vec<u64> = Vec::with_capacity(n + 1);
        let mut end = 0u64;
        row_ptr.push(end);
        self.for_row_sums(|_, entries, _| {
            end += entries as u64;
            row_ptr.push(end);
        });
        let mut cols = zeroed_vec::<u32>(self.nnz);
        let mut vals = zeroed_vec::<Complex64>(self.nnz);
        let mut chunks = Vec::with_capacity(n.div_ceil(FILL_ROWS));
        let (mut cols_rest, mut vals_rest) = (&mut cols[..], &mut vals[..]);
        for row0 in (0..n).step_by(FILL_ROWS) {
            let row1 = (row0 + FILL_ROWS).min(n);
            let len = (row_ptr[row1] - row_ptr[row0]) as usize;
            let (c, v) = (cols_rest.split_at_mut(len), vals_rest.split_at_mut(len));
            (cols_rest, vals_rest) = (c.1, v.1);
            chunks.push((row0..row1, c.0, v.0));
        }
        chunks
            .par_iter_mut()
            .for_each(|(rows, cols, vals)| self.fill_rows(rows.clone(), cols, vals));
        crate::crs::CrsMatrix::from_raw(n, n, row_ptr, cols, vals)
    }

    /// Writes the entries of `rows` (whole sites), row after row, into
    /// `cols`/`vals`, which hold exactly those rows.
    fn fill_rows(&self, rows: Range<usize>, cols: &mut [u32], vals: &mut [Complex64]) {
        let mut at = 0;
        if self.coincident {
            return self.for_rows(rows, |_, c, v| {
                cols[at..][..c.len()].copy_from_slice(c);
                vals[at..][..v.len()].copy_from_slice(v);
                at += c.len();
            });
        }
        let mut put = |col: usize, val: Complex64| {
            (cols[at], vals[at]) = (col as u32, val);
            at += 1;
        };
        for site in rows.start / 4..rows.end / 4 {
            let diag = &self.onsite_diag[site];
            for (o, plan) in self.plans[self.site_class(site)].iter().enumerate() {
                let hops = &plan.entries[..plan.len as usize];
                let (below, above) = hops.split_at(plan.onsite_at as usize);
                for en in below {
                    put((4 * site).wrapping_add_signed(en.offset), en.val);
                }
                // The assembly drops an exactly-zero diagonal entry.
                if diag[o] != ZERO {
                    put(4 * site + o, diag[o]);
                }
                for en in above {
                    put((4 * site).wrapping_add_signed(en.offset), en.val);
                }
            }
        }
    }

    /// Boundary class of `site`: the index into the [`RowPlan`] table.
    fn site_class(&self, site: usize) -> usize {
        let (nx, ny, nz) = self.shape();
        let (x, y, z) = (site % nx, site / nx % ny, site / (nx * ny));
        edge_code(x, nx) | edge_code(y, ny) << 2 | edge_code(z, nz) << 4
    }

    /// Hands `f` every row's real diagonal part (zero when the assembly
    /// drops the entry), entry count and absolute off-diagonal sum in
    /// ascending column order, row by row. The rows of a boundary class
    /// share their hopping entries, so this is `O(sites)` unless
    /// coincident neighbours force a regeneration.
    fn for_row_sums(&self, mut f: impl FnMut(f64, usize, f64)) {
        if self.coincident {
            return self.for_rows(0..self.nrows(), |r, cols, vals| {
                let diag = cols.iter().position(|&c| c as usize == r);
                let off = (0..cols.len()).filter(|&k| Some(k) != diag);
                let radius = off.fold(0.0, |s, k| s + vals[k].abs());
                f(diag.map_or(0.0, |k| vals[k].re), cols.len(), radius)
            });
        }
        let row_sum = |plan: &RowPlan| {
            let entries = &plan.entries[..plan.len as usize];
            (
                entries.len(),
                entries.iter().fold(0.0, |s, en| s + en.val.abs()),
            )
        };
        let sums: Vec<[(usize, f64); 4]> =
            (self.plans.iter().map(|rows| rows.each_ref().map(row_sum))).collect();
        for (site, diag) in self.onsite_diag.iter().enumerate() {
            for (d, &(len, radius)) in diag.iter().zip(&sums[self.site_class(site)]) {
                let kept = *d != ZERO;
                f(if kept { d.re } else { 0.0 }, len + kept as usize, radius);
            }
        }
    }

    /// Gershgorin bounds on the spectrum, the fold of
    /// [`crate::crs::CrsMatrix::gershgorin_bounds`] over the same row
    /// sums: bounds and scale factors equal the CRS build's bit for bit.
    pub fn gershgorin_bounds(&self) -> (f64, f64) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        self.for_row_sums(|diag, _, radius| {
            lo = lo.min(diag - radius);
            hi = hi.max(diag + radius);
        });
        (lo, hi)
    }

    /// Structural Hermiticity in `O(sites)`: every on-site diagonal
    /// entry is real and each direction's two partner blocks are
    /// adjoints of each other (`hop[2j] == hop[2j+1]†`), which makes
    /// every assembled entry pair exactly conjugate.
    pub fn check_hermitian(&self) -> Result<(), KpmError> {
        let bad = |details: String| KpmError::InvalidMatrix {
            what: "stencil",
            details,
        };
        let adjoint = |j: &usize| {
            let (fwd, back) = (&self.hop_blocks[2 * j], &self.hop_blocks[2 * j + 1]);
            (0..4).all(|o| (0..4).all(|p| fwd[o][p] == back[p][o].conj()))
        };
        if let Some(j) = (0..3).find(|j| !adjoint(j)) {
            let blocks = format!("hopping blocks {} and {}", 2 * j, 2 * j + 1);
            return Err(bad(format!("{blocks} are not adjoints of each other")));
        }
        match self
            .onsite_diag
            .iter()
            .position(|d| d.iter().any(|z| z.im != 0.0))
        {
            Some(site) => Err(bad(format!("on-site entry of site {site} is not real"))),
            None => Ok(()),
        }
    }

    /// Neighbour site in `±ê_j`, mirroring the lattice rules: periodic
    /// axes wrap, open axes (and extent-1 axes unconditionally) drop
    /// the bond. `dir` indexes the six partners in assembly order.
    #[inline]
    fn neighbor(&self, x: usize, y: usize, z: usize, dir: usize) -> Option<u32> {
        let axis = dir / 2;
        let (extent, coord, stride) = match axis {
            0 => (self.nx, x, 1),
            1 => (self.ny, y, self.nx),
            _ => (self.nz, z, self.nx * self.ny),
        };
        let wraps = self.periodic[axis] && extent > 1;
        let moved = if dir.is_multiple_of(2) {
            match coord + 1 < extent {
                true => coord + 1,
                false if wraps => 0,
                false => return None,
            }
        } else {
            match coord > 0 {
                true => coord - 1,
                false if wraps => extent - 1,
                false => return None,
            }
        };
        let site = x + self.nx * (y + self.ny * z);
        Some((site - coord * stride + moved * stride) as u32)
    }

    /// Regenerates row `r` with a caller-held site cache (the four
    /// orbital rows of a site share one geometry lookup), the literal
    /// mirror of the assembly loop: gather, sort by column, merge.
    #[inline]
    pub(crate) fn regen_row(
        &self,
        r: usize,
        cached_site: &mut usize,
        neigh: &mut [Option<u32>; 6],
        cols: &mut [u32; MAX_ROW_ENTRIES],
        vals: &mut [Complex64; MAX_ROW_ENTRIES],
    ) -> usize {
        let m = self;
        let site = r / 4;
        let o = r % 4;
        if site != *cached_site {
            let x = site % m.nx;
            let y = (site / m.nx) % m.ny;
            let z = site / (m.nx * m.ny);
            for (dir, slot) in neigh.iter_mut().enumerate() {
                *slot = m.neighbor(x, y, z, dir);
            }
            *cached_site = site;
        }
        let mut n = 0;
        let d = m.onsite_diag[site][o];
        if d != ZERO {
            cols[n] = (4 * site + o) as u32;
            vals[n] = d;
            n += 1;
        }
        for (dir, neigh) in neigh.iter().enumerate() {
            if let Some(ns) = neigh {
                let hr = &m.hop_rows[dir][o];
                let base = 4 * ns;
                for e in 0..hr.len as usize {
                    cols[n] = base + hr.cols[e] as u32;
                    vals[n] = hr.vals[e];
                    n += 1;
                }
            }
        }
        // Insertion sort by column (13 nearly-sorted entries).
        for i in 1..n {
            let (c, v) = (cols[i], vals[i]);
            let mut j = i;
            while j > 0 && cols[j - 1] > c {
                cols[j] = cols[j - 1];
                vals[j] = vals[j - 1];
                j -= 1;
            }
            cols[j] = c;
            vals[j] = v;
        }
        // Merge duplicate columns (at most pairs; addition of the two
        // partners is order-independent down to the bit).
        let mut out = 0;
        let mut k = 0;
        while k < n {
            let c = cols[k];
            let mut acc = vals[k];
            k += 1;
            while k < n && cols[k] == c {
                acc += vals[k];
                k += 1;
            }
            cols[out] = c;
            vals[out] = acc;
            out += 1;
        }
        out
    }
}

/// The sweep body: whole sites take the site-blocked walk in column
/// passes of at most `COLS`; rows of a site cut by the range edges, and
/// every row of a coincident-neighbour lattice, are regenerated.
impl RowSweep for StencilMatrix {
    #[inline(always)]
    fn sweep_body<E: Epilogue, const COLS: usize, const ARMS: bool>(
        &self,
        x: &[Complex64],
        r: usize,
        row0: usize,
        w: &mut [Complex64],
        epi: &mut E,
    ) {
        let m = self;
        let row1 = row0 + w.len() / r;
        let (s0, s1) = (row0.div_ceil(4), row1 / 4);
        if m.coincident || s0 >= s1 {
            return regen_rows(m, x, r, row0, row0..row1, ARMS, w, epi);
        }
        regen_rows(m, x, r, row0, row0..4 * s0, ARMS, w, epi);
        let (mut cx, mut cy, mut cz) = (s0 % m.nx, s0 / m.nx % m.ny, s0 / (m.nx * m.ny));
        let mut yz = edge_code(cy, m.ny) << 2 | edge_code(cz, m.nz) << 4;
        for site in s0..s1 {
            let plans = &m.plans[edge_code(cx, m.nx) | yz];
            let diag = &m.onsite_diag[site];
            let wsite = &mut w[(4 * site - row0) * r..][..4 * r];
            for_passes!(COLS, r, |j0| site_pass(
                plans, diag, ARMS, site, x, r, j0, wsite, epi
            ));
            cx += 1;
            if cx == m.nx {
                cx = 0;
                cy += 1;
                if cy == m.ny {
                    cy = 0;
                    cz += 1;
                }
                yz = edge_code(cy, m.ny) << 2 | edge_code(cz, m.nz) << 4;
            }
        }
        regen_rows(m, x, r, row0, 4 * s1..row1, ARMS, w, epi);
    }
}

/// The stencil as a format: its dimensions and the shared sweep at the
/// default budget.
impl SparseKernels for StencilMatrix {
    fn nrows(&self) -> usize {
        StencilMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        StencilMatrix::ncols(self)
    }
    fn nnz(&self) -> usize {
        StencilMatrix::nnz(self)
    }
    fn format(&self) -> FormatSpec {
        FormatSpec::Stencil
    }
    fn sweep(
        &self,
        op: SweepOp,
        schedule: Schedule,
        x: &[Complex64],
        r: usize,
        w: &mut [Complex64],
    ) -> AugDotsBlock {
        crate::sweep::run(self, op, schedule, DEFAULT_CACHE_BYTES, x, r, w)
    }
}

/// The four orbital rows of `site` on the block-vector columns of one
/// [`Pass`] from `j0`: each row's accumulators stay in registers while
/// its class's entries are walked in ascending column order, the
/// on-site entry in its slot. `arms` is the body's `ARMS`: whether a
/// row of zero-part entries alone runs the loop that skips their
/// products.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the sweep state, passed flat
fn site_pass<const W: usize, const TWO: bool, E: Epilogue>(
    plans: &[RowPlan; 4],
    diag: &[Complex64; 4],
    arms: bool,
    site: usize,
    x: &[Complex64],
    r: usize,
    j0: usize,
    wsite: &mut [Complex64],
    epi: &mut E,
) {
    for (o, plan) in plans.iter().enumerate() {
        let at = (4 * site + o) * r + j0;
        let base = 4 * site * r + j0;
        let mut acc = Pass::<W, TWO>::ZERO;
        if arms && plan.axial && is_axial(diag[o]) {
            plan_row::<W, TWO, true>(plan, diag[o], x, r, base, at, &mut acc);
        } else {
            plan_row::<W, TWO, false>(plan, diag[o], x, r, base, at, &mut acc);
        }
        acc.finish(epi, x, at, j0, &mut wsite[o * r + j0..]);
    }
}

/// One orbital row on `acc`: the plan's entries from `x[base..]` (the
/// site's first row, column `j0`) with the on-site entry `diag`, read
/// at `x[at..]`, in its slot.
#[inline(always)]
fn plan_row<const W: usize, const TWO: bool, const AXIAL: bool>(
    plan: &RowPlan,
    diag: Complex64,
    x: &[Complex64],
    r: usize,
    base: usize,
    at: usize,
    acc: &mut Pass<W, TWO>,
) {
    let (below, above) = plan.entries[..plan.len as usize].split_at(plan.onsite_at as usize);
    walk::<W, TWO, AXIAL>(below, x, base, r, acc);
    // The assembly drops an exactly-zero diagonal entry.
    if diag != ZERO {
        acc.axpy::<AXIAL>(diag, -diag.im, &x[at..]);
    }
    walk::<W, TWO, AXIAL>(above, x, base, r, acc);
}

/// Applies a run of plan entries to the pass at `x[base..]` (the
/// site's first row, column `j0`).
#[inline(always)]
fn walk<const W: usize, const TWO: bool, const AXIAL: bool>(
    entries: &[PlanEntry],
    x: &[Complex64],
    base: usize,
    r: usize,
    acc: &mut Pass<W, TWO>,
) {
    for en in entries {
        let at = base.wrapping_add_signed(en.offset * r as isize);
        acc.axpy::<AXIAL>(en.val, en.neg_im, &x[at..]);
    }
}

/// Per-row path of the sweep body: the CRS row passes over regenerated
/// rows, one layout panel at a time. Not inlined into the sweep copies
/// — it serves a tile's few cut rows and the coincident-neighbour
/// lattices — so it runs as compiled for the baseline target under
/// every copy; `arms` is the calling body's `ARMS`.
#[allow(clippy::too_many_arguments)] // the sweep state, passed flat
fn regen_rows<E: Epilogue>(
    m: &StencilMatrix,
    x: &[Complex64],
    r: usize,
    row0: usize,
    rows: Range<usize>,
    arms: bool,
    w: &mut [Complex64],
    epi: &mut E,
) {
    m.for_rows(rows, |row, cols, vals| {
        let wrow = &mut w[(row - row0) * r..][..r];
        let axial = arms && all_axial(vals);
        for_passes!(8, r, |j0| row_pass(
            cols, vals, axial, x, r, row, j0, wrow, epi
        ));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_num::complex::I;
    use kpm_num::BlockVector;

    /// A tiny hand-built stencil: diagonal hop blocks so expected
    /// values are easy to state; geometry checks use the paper default
    /// boundaries (periodic x/y, open z).
    fn toy(nx: usize, ny: usize, nz: usize, periodic: [bool; 3]) -> StencilMatrix {
        let onsite = (0..nx * ny * nz).map(|s| s as f64 * 0.25 - 1.0);
        let onsite = onsite.map(|v| [v + 2.0, v + 2.0, v - 2.0, v - 2.0].map(Complex64::real));
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for (b, block) in hop.iter_mut().enumerate() {
            for (o, row) in block.iter_mut().enumerate() {
                row[o] = Complex64::real(-0.5) + I.scale(0.1 * b as f64);
                row[3 - o] = I.scale(0.5);
            }
        }
        StencilMatrix::new(nx, ny, nz, periodic, onsite.collect(), &hop)
    }

    #[test]
    fn regenerated_rows_form_a_valid_crs_matrix() {
        // `to_crs` goes through `CrsMatrix::from_raw`, which rejects
        // unsorted and duplicate columns — so on the periodic extent-2
        // axis, where +x and −x land on the same neighbour, the pairs
        // of hopping entries per column must have been merged.
        for m in [
            toy(4, 3, 3, [true, true, false]),
            toy(3, 4, 2, [true, false, true]),
            toy(2, 3, 3, [true, true, false]),
        ] {
            let crs = m.to_crs();
            assert_eq!((crs.nrows(), crs.ncols()), (m.nrows(), m.ncols()));
            assert_eq!(crs.nnz(), m.nnz());
            // Interior rows: 1 onsite + 6 neighbours x 2 entries.
            assert!(crs.max_row_len() <= 13);
            m.for_rows(0..m.nrows(), |r, cols, vals| {
                assert_eq!(cols, crs.row_cols(r), "row {r}");
                assert_eq!(vals, crs.row_vals(r), "row {r}");
            });
        }
    }

    #[test]
    fn kernels_match_crs_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let m = toy(4, 4, 3, [true, true, false]);
        let crs = m.to_crs();
        let n = m.nrows();
        let mut rng = StdRng::seed_from_u64(7);
        let v = BlockVector::random(n, 4, &mut rng);
        let w0 = BlockVector::random(n, 4, &mut rng);

        let mut w1 = w0.clone();
        let mut w2 = w0.clone();
        let d1 = m.aug_spmmv(0.4, -0.2, &v, &mut w1);
        let d2 = crs.aug_spmmv(0.4, -0.2, &v, &mut w2);
        assert_eq!(w1.max_abs_diff(&w2), 0.0);
        assert_eq!(d1, d2);

        let mut w1 = w0.clone();
        let mut w2 = w0;
        let d1 = m.aug_spmmv_par(0.4, -0.2, &v, &mut w1);
        let d2 = crs.aug_spmmv_par(0.4, -0.2, &v, &mut w2);
        assert_eq!(w1.max_abs_diff(&w2), 0.0);
        assert_eq!(d1, d2);

        let vs = v.column(0).into_vec();
        let mut y1 = vec![Complex64::default(); n];
        let mut y2 = y1.clone();
        m.spmv(&vs, &mut y1);
        crs.spmv(&vs, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn dense_hop_blocks_fill_the_row_plans() {
        // Four entries per orbital row and block: 24 hopping entries
        // plus the on-site one, the longest row a plan has to hold.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let onsite = vec![[Complex64::real(0.5); 4]; 27];
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for (b, block) in hop.iter_mut().enumerate() {
            for (o, row) in block.iter_mut().enumerate() {
                for (p, z) in row.iter_mut().enumerate() {
                    *z = Complex64::new(0.1 * (b + 1) as f64, 0.05 * (o + 2 * p + 1) as f64);
                }
            }
        }
        let m = StencilMatrix::new(3, 3, 3, [true; 3], onsite, &hop);
        let crs = m.to_crs();
        assert_eq!(crs.max_row_len(), 25);
        let mut rng = StdRng::seed_from_u64(3);
        let v = BlockVector::random(m.nrows(), 9, &mut rng);
        let w0 = BlockVector::random(m.nrows(), 9, &mut rng);
        let (mut w1, mut w2) = (w0.clone(), w0);
        let d1 = m.aug_spmmv(0.3, 0.1, &v, &mut w1);
        let d2 = crs.aug_spmmv(0.3, 0.1, &v, &mut w2);
        assert_eq!(w1, w2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn fingerprint_and_bounds_match_crs_build() {
        for m in [toy(3, 3, 4, [true, true, false]), toy(2, 1, 3, [true; 3])] {
            let crs = m.to_crs();
            assert_eq!(m.content_fingerprint(), crs.content_fingerprint());
            assert_eq!(m.gershgorin_bounds(), crs.gershgorin_bounds());
        }
    }

    #[test]
    fn hermiticity_is_checked_structurally() {
        let real_onsite = vec![[Complex64::real(1.0); 4]; 8];
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for j in 0..3 {
            hop[2 * j][0][1] = Complex64::new(0.5, 0.25 * (j + 1) as f64);
            hop[2 * j + 1][1][0] = hop[2 * j][0][1].conj();
        }
        let good = StencilMatrix::new(2, 2, 2, [false; 3], real_onsite.clone(), &hop);
        assert!(good.check_hermitian().is_ok());
        assert!(good.to_crs().is_hermitian());

        // A partner block that is the transpose but not the conjugate.
        let mut bad_hop = hop;
        bad_hop[3][1][0] = hop[2][0][1];
        let bad = StencilMatrix::new(2, 2, 2, [false; 3], real_onsite.clone(), &bad_hop);
        let err = bad.check_hermitian().unwrap_err();
        let typed = |e: &KpmError| {
            matches!(
                e,
                KpmError::InvalidMatrix {
                    what: "stencil",
                    ..
                }
            )
        };
        assert!(typed(&err), "{err}");
        assert!(err.to_string().contains("blocks 2 and 3"), "{err}");
        assert!(!bad.to_crs().is_hermitian());

        // A z-partner whose real part is off.
        let mut bad_hop = hop;
        bad_hop[5][1][0] += Complex64::real(0.125);
        let bad = StencilMatrix::new(2, 2, 2, [false; 3], real_onsite.clone(), &bad_hop);
        let err = bad.check_hermitian().unwrap_err();
        assert!(err.to_string().contains("blocks 4 and 5"), "{err}");
        assert!(!bad.to_crs().is_hermitian());

        // A complex on-site entry.
        let mut complex_onsite = real_onsite;
        complex_onsite[5][2] = Complex64::new(1.0, 1e-3);
        let bad = StencilMatrix::new(2, 2, 2, [false; 3], complex_onsite, &hop);
        let err = bad.check_hermitian().unwrap_err();
        assert!(err.to_string().contains("site 5"), "{err}");
        assert!(!bad.to_crs().is_hermitian());
    }

    #[test]
    #[should_panic(expected = "one on-site diagonal per site")]
    fn wrong_onsite_length_panics() {
        let hop = [[[Complex64::default(); 4]; 4]; 6];
        StencilMatrix::new(2, 2, 2, [true; 3], vec![[Complex64::default(); 4]; 7], &hop);
    }
}
