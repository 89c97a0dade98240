//! The kernels the KPM solver runs, as methods of [`CrsMatrix`].
//!
//! A matrix offers one thing a kernel needs: [`CrsMatrix::sweep`], the
//! register-panel sweep of `sweep.rs` under a [`SweepOp`] and a
//! [`Schedule`]. Every kernel the solver, the service, the tests and the
//! benchmark name — `spmv`, `spmmv`, `aug_spmv`, `aug_spmmv`, their
//! `_par` and `_nodot` forms — is written once on top of it: shape
//! assertions, the kpm-obs probe, then `sweep`. A lattice's CRS is coded
//! when it has a site view and plain otherwise, and the same methods run
//! it either way, so the whole pipeline — moments, blocked runs,
//! checkpointing, the service's batches — runs one operator and the same
//! bits.

use kpm_num::accounting::Sweep;
use kpm_num::{BlockVector, Complex64};
use kpm_obs::probe::kernel_timer;
use kpm_obs::probe::KernelKind::{self, AugSpmmv, AugSpmv, Spmv};

use crate::aug::{AugDots, AugDotsBlock};
use crate::crs::CrsMatrix;
use crate::stencil::StencilMatrix;
use crate::sweep::Schedule::{self, Chunked, Serial};
use crate::sweep::SweepOp::{self, Plain};

/// The benchmark's name for the matrix the solver runs: `benchmark/`
/// spells `KpmMatrix`, `KpmMatrix::crs` and `KpmMatrix::stencil`. The
/// alias and the two constructors leave once it spells `CrsMatrix`.
pub type KpmMatrix = CrsMatrix;

/// The kernel family, bitwise-compatible across schedules where the
/// determinism tests say so: serial ≡ serial, chunked ≡ chunked at any
/// thread count.
impl CrsMatrix {
    /// `m` itself: the benchmark's spelling of a CRS operator
    /// ([`KpmMatrix`]).
    pub fn crs(m: CrsMatrix) -> Self {
        m
    }

    /// A lattice's CRS form ([`StencilMatrix::to_crs`]): the benchmark's
    /// spelling of the lattice operator ([`KpmMatrix`]).
    pub fn stencil(m: StencilMatrix) -> Self {
        m.to_crs()
    }

    /// Serial `y = A x`.
    pub fn spmv(&self, x: &[Complex64], y: &mut [Complex64]) {
        named(self, Spmv, Plain, Serial, vector(x), vector_mut(y));
    }
    /// Parallel `y = A x` (fixed 1024-row chunks).
    pub fn spmv_par(&self, x: &[Complex64], y: &mut [Complex64]) {
        named(self, Spmv, Plain, Chunked, vector(x), vector_mut(y));
    }
    /// Serial `Y = A X` over row-major blocks.
    pub fn spmmv(&self, x: &BlockVector, y: &mut BlockVector) {
        named(self, Spmv, Plain, Serial, block(x), block_mut(y));
    }
    /// Parallel `Y = A X` over row-major blocks (cache-budget tiles).
    pub fn spmmv_par(&self, x: &BlockVector, y: &mut BlockVector) {
        named(self, Spmv, Plain, Chunked, block(x), block_mut(y));
    }

    /// Serial augmented SpMV (paper Fig. 4).
    pub fn aug_spmv(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        let op = SweepOp::Aug { a, b, dots: true };
        named(self, AugSpmv, op, Serial, vector(v), vector_mut(w)).into()
    }
    /// Parallel augmented SpMV: partial dots per fixed 1024-row chunk,
    /// combined pairwise.
    pub fn aug_spmv_par(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        let op = SweepOp::Aug { a, b, dots: true };
        named(self, AugSpmv, op, Chunked, vector(v), vector_mut(w)).into()
    }
    /// Serial augmented SpMMV (paper Fig. 5).
    pub fn aug_spmmv(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        let op = SweepOp::Aug { a, b, dots: true };
        named(self, AugSpmmv, op, Serial, block(v), block_mut(w))
    }
    /// Parallel augmented SpMMV: partial dots per cache-budget tile
    /// ([`crate::tile`]), combined in tile order.
    pub fn aug_spmmv_par(
        &self,
        a: f64,
        b: f64,
        v: &BlockVector,
        w: &mut BlockVector,
    ) -> AugDotsBlock {
        let op = SweepOp::Aug { a, b, dots: true };
        named(self, AugSpmmv, op, Chunked, block(v), block_mut(w))
    }
    /// Serial augmented SpMMV without the fused scalar products (paper
    /// Fig. 10(b)).
    pub fn aug_spmmv_nodot(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        let op = SweepOp::Aug { a, b, dots: false };
        named(self, AugSpmmv, op, Serial, block(v), block_mut(w));
    }
    /// Parallel augmented SpMMV without the fused scalar products.
    pub fn aug_spmmv_nodot_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        let op = SweepOp::Aug { a, b, dots: false };
        named(self, AugSpmmv, op, Chunked, block(v), block_mut(w));
    }
}

/// A vector argument as the sweep sees it — `(panel slots, rows,
/// width)`, a plain vector being a block of width 1 — and, of the block
/// that is read, the columns the probe counts
/// ([`BlockVector::live_columns`]).
type Block<'a> = (&'a [Complex64], usize, usize, usize);
type BlockMut<'a> = (&'a mut [Complex64], usize, usize);

fn vector(v: &[Complex64]) -> Block<'_> {
    (v, v.len(), 1, 1)
}
fn vector_mut(v: &mut [Complex64]) -> BlockMut<'_> {
    let rows = v.len();
    (v, rows, 1)
}
fn block(v: &BlockVector) -> Block<'_> {
    (v.panel_slots(), v.rows(), v.width(), v.live_columns())
}
fn block_mut(v: &mut BlockVector) -> BlockMut<'_> {
    let (rows, width) = (v.rows(), v.width());
    (v.panel_slots_mut(), rows, width)
}

/// The one body of the named kernels: shape assertions, the kpm-obs
/// probe (`kind`), then [`CrsMatrix::sweep`] over all rows of `w`.
fn named(
    m: &CrsMatrix,
    kind: KernelKind,
    op: SweepOp,
    schedule: Schedule,
    (x, x_rows, r, live): Block,
    (w, w_rows, w_width): BlockMut,
) -> AugDotsBlock {
    assert_eq!(w_rows, m.nrows(), "w dimension mismatch");
    let square = op == Plain || m.nrows() == m.ncols();
    assert!(square, "augmented kernels need a square matrix");
    assert_eq!(x_rows, m.ncols(), "x dimension mismatch");
    assert_eq!(r, w_width, "block width mismatch");
    let (nrows, nnz) = (m.nrows(), m.nnz());
    // Table I's counts of this sweep: flops on the logical non-zeros,
    // bytes on the matrix data actually streamed, both for the columns
    // that carry data — a pad lane is swept, not asked for.
    let counts = || {
        let sweep = if op == Plain {
            Sweep::Plain
        } else {
            Sweep::Aug
        };
        let bytes = sweep.min_bytes(nrows, m.matrix_bytes(), live);
        (sweep.flops(nrows, nnz, live) as u64, bytes as u64)
    };
    let _probe = kernel_timer(kind, nrows, nnz, live, counts);
    m.sweep(op, schedule, x, r, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_spellings_build_the_crs_they_name() {
        let crs = KpmMatrix::crs(CrsMatrix::identity(12));
        assert!(crs == CrsMatrix::identity(12));
        // Plain values: 16 B each, plus a 4 B column index.
        let shape = (crs.nrows(), crs.nnz(), crs.matrix_bytes());
        assert_eq!(shape, (12, 12, 12 * 20));

        // A 2 x 2 x 2 lattice with two distinct values: its CRS build is
        // coded, and both spellings hold it and read its one site view at
        // every width — a byte per block of each site (itself and three
        // neighbours) plus the seven distinct blocks of two 128-byte
        // slots and a header, 320 bytes on 64-byte lines.
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for (b, block) in hop.iter_mut().enumerate() {
            block[b % 4][(b + 1) % 4] = Complex64::real(-0.5);
        }
        let onsite = vec![[Complex64::real(1.0); 4]];
        let st = StencilMatrix::new(2, 2, 2, [false; 3], onsite, vec![0; 8], &hop);
        let coded = st.to_crs();
        let nnz = coded.nnz();
        assert_eq!(coded.value_table().map(<[_]>::len), Some(2));
        let view = 8 * 4 + 7 * 320;
        assert_eq!(coded.matrix_bytes(), view);
        let stencil = KpmMatrix::stencil(st);
        assert_eq!((stencil.nnz(), stencil.matrix_bytes()), (nnz, view));
        assert_eq!(stencil.content_fingerprint(), coded.content_fingerprint());
        assert!(stencil == coded);
    }
}
