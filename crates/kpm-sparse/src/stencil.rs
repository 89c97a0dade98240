//! The generator of the topological-insulator lattice operator.
//!
//! [`StencilMatrix`] keeps the operator as the lattice geometry — a
//! table of the distinct on-site diagonals with one code per site into
//! it, plus six 4×4 hopping-block templates shared by all sites — and is
//! where every form of it comes from. Its CRS form
//! ([`StencilMatrix::to_crs`], kpm-topo's `assemble()`) is coded whenever
//! the lattice has a site view ([`SiteView`]): built here in one pass over
//! the sites from the boundary classes and the diagonals' block codes — a
//! byte per block of each site and the ≤ 256 distinct blocks, 0.4 MB on
//! the benchmark's 48×48×24 lattice — with the table of its ≤ 256
//! distinct values. The four orbital rows of a site see the same
//! up-to-seven 4×4 blocks (six neighbours plus the on-site diagonal), and
//! distinct sites own disjoint column ranges, so walking the blocks in
//! ascending *site* order visits each row's entries in exactly the
//! ascending-column order of a CRS row. That coded CRS is the lattice's
//! run-time operator under either `--format`.
//!
//! What stays on the generator is what it does over its distinct blocks:
//! the structural Hermiticity check, and the Gershgorin sums of the
//! (boundary class, on-site diagonal) pairs its sites have — the bounds,
//! bit-equal to the fold over the CRS rows — and the entry count.
//!
//! A lattice has no coded form when a periodic axis has extent 2 (the
//! coincident `n±ê_j` blocks are merged before the multiply), past 256
//! distinct blocks or values (only a disordered potential has that many),
//! or when a block does not fit its slots. Its CRS form is plain, filled
//! in parallel from [`StencilMatrix::regen_row`] — the literal form of
//! Eq. (1): gather, sort by column, merge — and that plain CRS is what
//! it runs under either `--format`.

use std::ops::Range;

use kpm_num::aligned::zeroed_vec;
use kpm_num::complex::ZERO;
use kpm_num::{Complex64, KpmError};

use crate::crs::{BlockSet, CodeTable, CrsMatrix, SiteView, MAX_SITE_BLOCKS};

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

/// One orbital row of a boundary class, without its on-site entry —
/// whose value is the site's diagonal: the number of hopping entries and
/// the sum of their absolute values, folded in ascending column order.
#[derive(Debug, Clone, Copy, Default)]
struct RowSum {
    entries: usize,
    radius: f64,
}

/// A boundary class in a [`SiteView`] build: the codes of its blocks in
/// ascending order, the on-site block's slot among them (its code is
/// the site's own) and their number.
#[derive(Clone, Copy, Default)]
struct ClassCodes {
    codes: [u8; MAX_SITE_BLOCKS],
    onsite_at: usize,
    len: usize,
}

/// A block entry as the assembly keeps it: an exact zero of either sign,
/// which the assembly drops, as `+0`.
fn kept(v: Complex64) -> Complex64 {
    if v != ZERO {
        v
    } else {
        ZERO
    }
}

/// Boundary code of one coordinate: bit 0 = on the low edge, bit 1 =
/// on the high edge (both on an extent-1 axis). Three of them index
/// the [`RowSum`] table.
#[inline(always)]
fn edge_code(coord: usize, extent: usize) -> usize {
    (coord == 0) as usize | ((coord + 1 == extent) as usize) << 1
}

/// The generator of the nearest-neighbour 4-orbital lattice operator
/// (paper Eq. 1): its geometry, on-site diagonals and hopping blocks, from
/// which its CRS form is built, its Hermiticity proved and its spectrum
/// bounded.
///
/// Construction takes a table of on-site *diagonals*, one code per site
/// into it, and the six raw hopping blocks in assembly order (`+ê_j`
/// H.c. partner before `−ê_j` for each direction); see
/// [`StencilMatrix::new`]. kpm-topo provides a builder
/// (`TopoHamiltonian::stencil_matrix`) that feeds it the exact blocks its
/// CRS assembly uses.
#[derive(Debug, Clone)]
pub struct StencilMatrix {
    nx: usize,
    ny: usize,
    nz: usize,
    periodic: [bool; 3],
    /// The on-site diagonals the sites have (the TI on-site block
    /// `V·Γ⁰ + 2Γ¹` is exactly diagonal).
    diags: Vec<[Complex64; 4]>,
    /// Per site, the index of its on-site diagonal in `diags`.
    site_diag: Vec<u32>,
    /// Per entry of `diags`, the boundary classes of the sites that have
    /// it: bit `c` for class `c` (the [`RowSum`] table's index).
    diag_classes: Vec<u64>,
    /// The raw blocks: `[2j]` is the `+ê_j` block (`T_j†`), `[2j+1]`
    /// the `−ê_j` block (`T_j`).
    hop_blocks: [[[Complex64; 4]; 4]; 6],
    /// `hop_blocks` split into zero-filtered orbital rows.
    hop_rows: [[HopRow; 4]; 6],
    /// The four orbital rows of every boundary class, indexed by the
    /// three [`edge_code`]s (`x | y << 2 | z << 4`).
    sums: Vec<[RowSum; 4]>,
    /// True when a periodic axis has extent 2: both partners along it
    /// are the same site and the assembly merges their entries, so the
    /// lattice has no site view.
    coincident: bool,
    nnz: usize,
}

impl StencilMatrix {
    /// Builds the stencil operator.
    ///
    /// * `diags[site_diag[site]]` — the diagonal of the on-site 4×4 block
    ///   of `site` (the block must be diagonal; off-diagonal on-site
    ///   structure is not representable and is the caller's contract to
    ///   uphold); `site_diag` holds one code per site, sites in
    ///   `x + Nx·(y + Ny·z)` order,
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
        diags: Vec<[Complex64; 4]>,
        site_diag: Vec<u32>,
        hop_blocks: &[[[Complex64; 4]; 4]; 6],
    ) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "lattice extents must be positive"
        );
        assert_eq!(
            site_diag.len(),
            nx * ny * nz,
            "one on-site diagonal per site"
        );
        assert!(
            site_diag.iter().all(|&d| (d as usize) < diags.len()),
            "every site's on-site diagonal is in the table"
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
            diag_classes: Vec::new(),
            diags,
            site_diag,
            hop_blocks: *hop_blocks,
            hop_rows,
            sums: Vec::new(),
            coincident: [nx, ny, nz]
                .iter()
                .zip(periodic)
                .any(|(&extent, wraps)| wraps && extent == 2),
            nnz: 0,
        };
        m.sums = (0..64).map(|code| m.row_sums(code)).collect();
        let mut diag_classes = vec![0u64; m.diags.len()];
        m.for_sites(|_, class, diag| diag_classes[diag] |= 1 << class);
        let mut nnz = 0;
        m.for_row_lens(|len| nnz += len);
        Self {
            nnz,
            diag_classes,
            ..m
        }
    }

    /// Hands `f` every site in order — its index, its boundary class
    /// (the [`RowSum`] table's index) and the index of its on-site
    /// diagonal — stepping the coordinates instead of dividing them out
    /// of the index.
    fn for_sites(&self, mut f: impl FnMut(usize, usize, usize)) {
        let (nx, ny) = (self.nx, self.ny);
        for (line, diags) in self.site_diag.chunks_exact(nx).enumerate() {
            let yz = edge_code(line % ny, ny) << 2 | edge_code(line / ny, self.nz) << 4;
            for (x, &diag) in diags.iter().enumerate() {
                f(line * nx + x, edge_code(x, nx) | yz, diag as usize);
            }
        }
    }

    /// The blocks every site of boundary class `code` reads, as (site
    /// offset, block) in ascending offset order: the on-site block and
    /// the neighbours the boundary leaves, read off a representative
    /// site. `None` when the lattice has no site of the class.
    fn class_blocks(&self, code: usize) -> Option<Vec<(isize, usize)>> {
        let rep = |code: usize, extent: usize| match code & 3 {
            0 => (extent >= 3).then_some(1),
            1 => (extent >= 2).then_some(0),
            2 => (extent >= 2).then_some(extent - 1),
            _ => (extent == 1).then_some(0),
        };
        let x = rep(code, self.nx)?;
        let y = rep(code >> 2, self.ny)?;
        let z = rep(code >> 4, self.nz)?;
        let site = x + self.nx * (y + self.ny * z);
        let mut slots = vec![(0isize, ONSITE)];
        for dir in 0..6 {
            if let Some(ns) = self.neighbor(x, y, z, dir) {
                slots.push((ns as isize - site as isize, dir));
            }
        }
        slots.sort_unstable();
        Some(slots)
    }

    /// The four orbital rows of boundary class `code` (empty when the
    /// lattice has no such site).
    fn row_sums(&self, code: usize) -> [RowSum; 4] {
        let mut sums = [RowSum::default(); 4];
        let Some(slots) = self.class_blocks(code) else {
            return sums;
        };
        for (o, sum) in sums.iter_mut().enumerate() {
            let hopping = slots.iter().filter(|&&(_, block)| block != ONSITE);
            for &(_, block) in hopping {
                let hr = &self.hop_rows[block][o];
                for val in &hr.vals[..hr.len as usize] {
                    sum.entries += 1;
                    sum.radius += val.abs();
                }
            }
        }
        sums
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

    /// Number of logical non-zeros of the operator.
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

    /// The row pointers of the plain CRS build: the prefix sums of the
    /// row lengths.
    fn row_ptr(&self) -> Vec<u64> {
        let mut row_ptr = Vec::with_capacity(self.nrows() + 1);
        let mut end = 0u64;
        row_ptr.push(end);
        self.for_row_lens(|len| {
            end += len as u64;
            row_ptr.push(end);
        });
        row_ptr
    }

    /// Assembles the operator into an explicit CRS matrix — the one
    /// generator of the lattice's CRS form (kpm-topo's `assemble()` is
    /// this): coded when the lattice has a site view — the entry count,
    /// the value table and the view ([`StencilMatrix::site_view`]), built
    /// here and moved in — otherwise plain. The plain arrays are allocated untouched at their
    /// final size, then fixed chunks of [`FILL_ROWS`] rows are filled on
    /// the ambient pool from the regenerated rows, every page first
    /// written by the worker that fills it. A lattice of one chunk fills
    /// inline.
    pub fn to_crs(&self) -> CrsMatrix {
        if let Some((sites, table)) = self.site_view() {
            return CrsMatrix::from_coded(self.nrows(), self.nnz, table, sites);
        }
        let n = self.nrows();
        let row_ptr = self.row_ptr();
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
        rayon::map_chunks(chunks.iter_mut(), |_, (rows, cols, vals)| {
            let mut at = 0;
            self.for_rows(rows.clone(), |_, c, v| {
                cols[at..][..c.len()].copy_from_slice(c);
                vals[at..][..v.len()].copy_from_slice(v);
                at += c.len();
            });
        });
        CrsMatrix::from_raw(n, n, row_ptr, cols, vals)
    }

    /// The site view of the lattice ([`SiteView`]) — what the sweep of
    /// its coded CRS walks — and the table of its values: each boundary
    /// class's hopping blocks are coded once, from
    /// [`StencilMatrix::class_blocks`], and so is each on-site diagonal a
    /// site has, in table order; then one pass over the sites writes each
    /// its class's codes with its diagonal's code in the on-site slot.
    /// `None` on coincident-neighbour lattices, past 256 distinct blocks
    /// or values ([`BlockSet::into_view`]), and when a block does not fit
    /// its slots — no generated lattice has one.
    fn site_view(&self) -> Option<(SiteView, Box<CodeTable>)> {
        if self.coincident {
            return None;
        }
        let mut blocks = BlockSet::default();
        let mut classes = [ClassCodes::default(); 64];
        for (code, class) in classes.iter_mut().enumerate() {
            let Some(slots) = self.class_blocks(code) else {
                continue;
            };
            class.len = slots.len();
            for (k, &(offset, dir)) in slots.iter().enumerate() {
                if dir == ONSITE {
                    class.onsite_at = k;
                } else {
                    let block = self.hop_blocks[dir].map(|row| row.map(kept));
                    class.codes[k] = blocks.code(offset, block)?;
                }
            }
        }
        let stride = classes.iter().map(|c| c.len).max().unwrap_or(0);
        // A site with fewer blocks than that ends in a zero block on
        // itself.
        let pad = match classes.iter().any(|c| (1..stride).contains(&c.len)) {
            true => blocks.code(0, [[ZERO; 4]; 4])?,
            false => 0,
        };
        let onsite = |diag: &[Complex64; 4]| {
            std::array::from_fn(|o| {
                std::array::from_fn(|p| if o == p { kept(diag[o]) } else { ZERO })
            })
        };
        // No site reads a diagonal of no class: it takes no code.
        let diags = self.diags.iter().zip(&self.diag_classes);
        let own = diags.map(|(diag, &classes)| match classes {
            0 => Some(0),
            _ => blocks.code(0, onsite(diag)),
        });
        let own: Vec<u8> = own.collect::<Option<_>>()?;
        // `vec!` of zeros is `calloc`-backed.
        let mut codes = vec![0u8; self.sites() * stride];
        self.for_sites(|site, class, diag| {
            let (class, out) = (&classes[class], &mut codes[site * stride..][..stride]);
            out[..class.len].copy_from_slice(&class.codes[..class.len]);
            out[class.onsite_at] = own[diag];
            out[class.len..].fill(pad);
        });
        blocks.into_view(stride, codes)
    }

    /// Hands `f` every row's length in order: its class's hopping entries
    /// and its diagonal entry unless the assembly drops it, or the
    /// regenerated row's when coincident neighbours merge entries.
    fn for_row_lens(&self, mut f: impl FnMut(usize)) {
        if self.coincident {
            return self.for_rows(0..self.nrows(), |_, cols, _| f(cols.len()));
        }
        self.for_sites(|_, class, diag| {
            for (d, sum) in self.diags[diag].iter().zip(&self.sums[class]) {
                f(sum.entries + (*d != ZERO) as usize);
            }
        });
    }

    /// Gershgorin bounds on the spectrum, the fold of
    /// [`crate::crs::CrsMatrix::gershgorin_bounds`] over the same row
    /// sums, each distinct row once (a row's diagonal is zero when the
    /// assembly drops the entry): bounds and scale factors equal the CRS
    /// build's bit for bit. Coincident neighbours fold the regenerated
    /// rows.
    pub fn gershgorin_bounds(&self) -> (f64, f64) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut fold = |diag: f64, radius: f64| {
            lo = lo.min(diag - radius);
            hi = hi.max(diag + radius);
        };
        if self.coincident {
            self.for_rows(0..self.nrows(), |r, cols, vals| {
                let diag = cols.iter().position(|&c| c as usize == r);
                let off = (0..cols.len()).filter(|&k| Some(k) != diag);
                let radius = off.fold(0.0, |s, k| s + vals[k].abs());
                fold(diag.map_or(0.0, |k| vals[k].re), radius)
            });
        } else {
            for (diag, &classes) in self.diags.iter().zip(&self.diag_classes) {
                for class in (0..64).filter(|class| classes >> class & 1 == 1) {
                    for (d, sum) in diag.iter().zip(&self.sums[class]) {
                        fold(if *d != ZERO { d.re } else { 0.0 }, sum.radius);
                    }
                }
            }
        }
        (lo, hi)
    }

    /// Structural Hermiticity over the distinct blocks: every on-site
    /// diagonal entry is real and each direction's two partner blocks are
    /// adjoints of each other (`hop[2j] == hop[2j+1]†`), which makes
    /// every assembled entry pair exactly conjugate. The error names the
    /// first site with a complex diagonal entry.
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
        let complex = |d: u32| self.diags[d as usize].iter().any(|z| z.im != 0.0);
        if !(0..self.diags.len() as u32).any(complex) {
            return Ok(());
        }
        match self.site_diag.iter().position(|&d| complex(d)) {
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
    fn regen_row(
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
        let d = m.diags[m.site_diag[site] as usize][o];
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

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_num::complex::I;

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
        let sites = 0..(nx * ny * nz) as u32;
        StencilMatrix::new(
            nx,
            ny,
            nz,
            periodic,
            onsite.collect(),
            sites.collect(),
            &hop,
        )
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
            let bits = |vals: &[Complex64]| {
                vals.iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            m.for_rows(0..m.nrows(), |r, cols, vals| {
                let row = crs.row(r);
                assert_eq!(cols, row.cols(), "row {r}");
                assert_eq!(bits(vals), bits(row.vals()), "row {r}");
            });
        }
    }

    #[test]
    fn a_lattice_with_no_coded_form_runs_its_plain_crs() {
        // The toy's bonds have two non-zero parts: no coded form, so
        // the lattice runs the plain CRS filled from the regenerated
        // rows, and reads its entries: a 4 B column and a 16 B value.
        let crs = toy(4, 4, 3, [true, true, false]).to_crs();
        assert!(crs.value_table().is_none() && crs.site_blocks().is_none());
        assert_eq!(crs.matrix_bytes(), 20 * crs.nnz());
    }

    #[test]
    fn dense_hop_blocks_fill_the_longest_rows() {
        // Four entries per orbital row and block: 24 hopping entries
        // plus the on-site one, the longest row a lattice regenerates.
        let onsite = vec![[Complex64::real(0.5); 4]];
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for (b, block) in hop.iter_mut().enumerate() {
            for (o, row) in block.iter_mut().enumerate() {
                for (p, z) in row.iter_mut().enumerate() {
                    *z = Complex64::new(0.1 * (b + 1) as f64, 0.05 * (o + 2 * p + 1) as f64);
                }
            }
        }
        let st = StencilMatrix::new(3, 3, 3, [true; 3], onsite, vec![0; 27], &hop);
        assert_eq!(st.to_crs().max_row_len(), 25);
    }

    #[test]
    fn bounds_match_crs_build() {
        for m in [toy(3, 3, 4, [true, true, false]), toy(2, 1, 3, [true; 3])] {
            assert_eq!(m.gershgorin_bounds(), m.to_crs().gershgorin_bounds());
        }
    }

    #[test]
    fn hermiticity_is_checked_structurally() {
        let real_onsite = vec![[Complex64::real(1.0); 4]];
        let new = |onsite: &Vec<_>, site_diag: Vec<u32>, hop: &_| {
            StencilMatrix::new(2, 2, 2, [false; 3], onsite.clone(), site_diag, hop)
        };
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for j in 0..3 {
            hop[2 * j][0][1] = Complex64::new(0.5, 0.25 * (j + 1) as f64);
            hop[2 * j + 1][1][0] = hop[2 * j][0][1].conj();
        }
        let good = new(&real_onsite, vec![0; 8], &hop);
        assert!(good.check_hermitian().is_ok());
        assert!(good.to_crs().is_hermitian());

        // A partner block that is the transpose but not the conjugate.
        let mut bad_hop = hop;
        bad_hop[3][1][0] = hop[2][0][1];
        let bad = new(&real_onsite, vec![0; 8], &bad_hop);
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
        let bad = new(&real_onsite, vec![0; 8], &bad_hop);
        let err = bad.check_hermitian().unwrap_err();
        assert!(err.to_string().contains("blocks 4 and 5"), "{err}");
        assert!(!bad.to_crs().is_hermitian());

        // A complex on-site entry, first had by site 5; a complex
        // diagonal no site has is none of the operator's.
        let mut complex_onsite = real_onsite.clone();
        complex_onsite.push([Complex64::real(1.0); 4]);
        complex_onsite[1][2] = Complex64::new(1.0, 1e-3);
        assert!(new(&complex_onsite, vec![0; 8], &hop)
            .check_hermitian()
            .is_ok());
        let bad = new(&complex_onsite, vec![0, 0, 0, 0, 0, 1, 0, 1], &hop);
        let err = bad.check_hermitian().unwrap_err();
        assert!(err.to_string().contains("site 5"), "{err}");
        assert!(!bad.to_crs().is_hermitian());

        // Imaginary bonds, coded, whose z partners are equal instead of
        // adjoint: the coded CRS names the entry its plain read-back does.
        let mut bonds = [[[Complex64::default(); 4]; 4]; 6];
        for j in 0..3 {
            bonds[2 * j][0][1] = Complex64::imag(0.5);
            bonds[2 * j + 1][1][0] = Complex64::imag(-0.5);
        }
        bonds[5][1][0] = Complex64::imag(0.5);
        let bad = new(&real_onsite, vec![0; 8], &bonds);
        let err = bad.check_hermitian().unwrap_err();
        assert!(err.to_string().contains("blocks 4 and 5"), "{err}");
        let coded = bad.to_crs();
        assert!(coded.value_table().is_some());
        let verdict = coded.check_hermitian();
        assert!(verdict.is_err());
        assert_eq!(verdict, read_back(&coded).check_hermitian());
    }

    /// `m`'s rows stored plain.
    fn read_back(m: &CrsMatrix) -> CrsMatrix {
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        m.for_each_row(|_, c, v| {
            cols.extend_from_slice(c);
            vals.extend_from_slice(v);
        });
        let n = m.nrows();
        CrsMatrix::from_raw(n, n, m.row_ptr().into_owned(), cols, vals)
    }

    #[test]
    fn a_coded_crs_answers_like_its_plain_read_back() {
        // The coded form stores no row pointers: its entry count, row
        // lengths, `==` and fingerprint come off the site view, and
        // equal those of the same rows stored plain — on a lattice whose
        // boundary sites pad with the zero block and one that has none.
        let onsite = vec![
            [2.0, 2.0, -2.0, -2.0].map(Complex64::real),
            [Complex64::real(0.5); 4],
        ];
        let mut bonds = [[[Complex64::default(); 4]; 4]; 6];
        for j in 0..3 {
            bonds[2 * j][0][1] = Complex64::imag(0.25 * (j + 1) as f64);
            bonds[2 * j + 1][1][0] = bonds[2 * j][0][1].conj();
            bonds[2 * j][2][3] = Complex64::real(-0.5);
            bonds[2 * j + 1][3][2] = Complex64::real(-0.5);
        }
        for (shape, periodic) in [((4, 3, 5), [true, false, true]), ((3, 4, 3), [true; 3])] {
            let (nx, ny, nz) = shape;
            let site_diag = (0..nx * ny * nz).map(|s| (s % 7 == 3) as u32).collect();
            let st = StencilMatrix::new(nx, ny, nz, periodic, onsite.clone(), site_diag, &bonds);
            let coded = st.to_crs();
            let plain = read_back(&coded);
            assert!(coded.value_table().is_some() && plain.value_table().is_none());
            assert_eq!((coded.nnz(), plain.nnz()), (st.nnz(), st.nnz()));
            assert!((0..coded.nrows()).all(|r| coded.row_len(r) == plain.row_len(r)));
            assert_eq!(coded.max_row_len(), plain.max_row_len());
            assert!(coded == plain);
            assert_eq!(coded.content_fingerprint(), plain.content_fingerprint());
        }
    }

    #[test]
    #[should_panic(expected = "one on-site diagonal per site")]
    fn wrong_onsite_length_panics() {
        let hop = [[[Complex64::default(); 4]; 4]; 6];
        let onsite = vec![[Complex64::default(); 4]];
        StencilMatrix::new(2, 2, 2, [true; 3], onsite, vec![0; 7], &hop);
    }

    #[test]
    #[should_panic(expected = "every site's on-site diagonal is in the table")]
    fn an_onsite_code_past_the_table_panics() {
        let hop = [[[Complex64::default(); 4]; 4]; 6];
        let onsite = vec![[Complex64::default(); 4]];
        StencilMatrix::new(
            2,
            2,
            2,
            [true; 3],
            onsite,
            vec![0, 0, 0, 1, 0, 0, 0, 0],
            &hop,
        );
    }
}
