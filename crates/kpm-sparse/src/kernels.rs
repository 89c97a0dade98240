//! The kernel interface the KPM solver runs on.
//!
//! [`SparseKernels`] asks a storage format for its dimensions and for
//! one thing it can do: [`SparseKernels::sweep`], the register-panel
//! sweep of `sweep.rs` under a [`SweepOp`] and a [`Schedule`]. Every
//! kernel the solver, the service, the tests and the benchmark name —
//! `spmv`, `spmmv`, `aug_spmv`, `aug_spmmv`, their `_par` and `_nodot`
//! forms — is a provided method written once on top of it:
//! shape assertions, the kpm-obs probe, then `sweep`. So the whole
//! pipeline — moments, blocked runs, checkpointing, the service's
//! batches — runs unchanged on CRS or on the matrix-free stencil, and
//! switching formats never changes results, only speed.
//!
//! [`KpmMatrix`] is the owning handle the drivers pass around: it
//! carries the chosen representation plus the per-call tuning state
//! (the cache budget for the chunked schedule) so tuning travels with
//! the matrix instead of through global state.

use std::sync::OnceLock;

use kpm_num::accounting::Sweep;
use kpm_num::{BlockVector, Complex64};
use kpm_obs::probe::KernelKind::{self, AugSpmmv, AugSpmv, Spmv};
use kpm_obs::probe::{kernel_timer, ProbeFormat};

use crate::aug::{AugDots, AugDotsBlock};
use crate::crs::CrsMatrix;
use crate::stencil::StencilMatrix;
use crate::sweep::Schedule::{self, Chunked, Serial};
use crate::sweep::SweepOp::{self, Plain};
use crate::tile::DEFAULT_CACHE_BYTES;

/// A sparse-matrix storage format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatSpec {
    /// Compressed Row Storage (SELL-1-1 in the paper's terminology).
    Crs,
    /// Matrix-free stencil: rows regenerated on the fly from the
    /// lattice geometry ([`crate::stencil`]). Only constructible from a
    /// known stencil operator (the kpm-topo Hamiltonian), never from an
    /// assembled CRS matrix.
    Stencil,
}

impl std::fmt::Display for FormatSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FormatSpec::Crs => "crs",
            FormatSpec::Stencil => "stencil",
        })
    }
}

/// The kernel family the KPM solver requires of a storage format.
///
/// All methods are value-compatible across implementations; the
/// augmented kernels are *bitwise*-compatible (serial ≡ serial, par ≡
/// par at equal cache budget) — the guarantee the determinism tests
/// pin down.
pub trait SparseKernels: Sync {
    /// Number of rows.
    fn nrows(&self) -> usize;
    /// Number of columns.
    fn ncols(&self) -> usize;
    /// Number of logical non-zeros.
    fn nnz(&self) -> usize;
    /// The storage format of this matrix.
    fn format(&self) -> FormatSpec;

    /// One sweep over the rows of `w` — `w.len() / r` of them, from row
    /// 0, at block width `r` — reading the block `x`, both as
    /// [`BlockVector::panel_slots`] (plain vectors at `r == 1`): the one
    /// kernel behind every method below. Returns the fused dot products
    /// of [`SweepOp::Aug`] with `dots`, empty vectors otherwise. The
    /// chunked schedule tiles at the operator's own cache budget:
    /// [`DEFAULT_CACHE_BYTES`] for a bare format, the handle's for a
    /// [`KpmMatrix`].
    fn sweep(
        &self,
        op: SweepOp,
        schedule: Schedule,
        x: &[Complex64],
        r: usize,
        w: &mut [Complex64],
    ) -> AugDotsBlock;

    /// Bytes of matrix data a sweep streams from memory, at any block
    /// width: the site view of a lattice operator that has one, CRS and
    /// stencil alike ([`CrsMatrix::matrix_bytes`]); otherwise the
    /// entries of a CRS and nothing for the stencil, which regenerates
    /// its rows.
    fn matrix_bytes(&self) -> usize;

    /// Serial `y = A x`.
    fn spmv(&self, x: &[Complex64], y: &mut [Complex64]) {
        named(self, Spmv, Plain, Serial, vector(x), vector_mut(y));
    }
    /// Parallel `y = A x` (fixed 1024-row chunks).
    fn spmv_par(&self, x: &[Complex64], y: &mut [Complex64]) {
        named(self, Spmv, Plain, Chunked, vector(x), vector_mut(y));
    }
    /// Serial `Y = A X` over row-major blocks.
    fn spmmv(&self, x: &BlockVector, y: &mut BlockVector) {
        named(self, Spmv, Plain, Serial, block(x), block_mut(y));
    }
    /// Parallel `Y = A X` over row-major blocks (cache-budget tiles).
    fn spmmv_par(&self, x: &BlockVector, y: &mut BlockVector) {
        named(self, Spmv, Plain, Chunked, block(x), block_mut(y));
    }

    /// Serial augmented SpMV (paper Fig. 4).
    fn aug_spmv(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        let op = SweepOp::Aug { a, b, dots: true };
        named(self, AugSpmv, op, Serial, vector(v), vector_mut(w)).into()
    }
    /// Parallel augmented SpMV: partial dots per fixed 1024-row chunk,
    /// combined pairwise.
    fn aug_spmv_par(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        let op = SweepOp::Aug { a, b, dots: true };
        named(self, AugSpmv, op, Chunked, vector(v), vector_mut(w)).into()
    }
    /// Serial augmented SpMMV (paper Fig. 5).
    fn aug_spmmv(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        let op = SweepOp::Aug { a, b, dots: true };
        named(self, AugSpmmv, op, Serial, block(v), block_mut(w))
    }
    /// Parallel augmented SpMMV: partial dots per cache-budget tile
    /// ([`crate::tile`]), combined in tile order.
    fn aug_spmmv_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        let op = SweepOp::Aug { a, b, dots: true };
        named(self, AugSpmmv, op, Chunked, block(v), block_mut(w))
    }
    /// Serial augmented SpMMV without the fused scalar products (paper
    /// Fig. 10(b)).
    fn aug_spmmv_nodot(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        let op = SweepOp::Aug { a, b, dots: false };
        named(self, AugSpmmv, op, Serial, block(v), block_mut(w));
    }
    /// Parallel augmented SpMMV without the fused scalar products.
    fn aug_spmmv_nodot_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
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
/// probe (`kind`), then [`SparseKernels::sweep`] over all rows of `w`.
fn named<M: SparseKernels + ?Sized>(
    m: &M,
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
    let format = match m.format() {
        FormatSpec::Crs => ProbeFormat::Crs,
        FormatSpec::Stencil => ProbeFormat::Stencil,
    };
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
    let _probe = kernel_timer(kind, format, nrows, nnz, live, counts);
    m.sweep(op, schedule, x, r, w)
}

/// The concrete storage behind a [`KpmMatrix`].
#[derive(Debug, Clone)]
enum Repr {
    Crs(CrsMatrix),
    // Boxed: the inline hop-block tables make this variant ~20x the
    // size of the other.
    Stencil(Box<StencilMatrix>),
}

/// An owning, format-erased matrix handle with its tuning state.
///
/// The per-thread cache budget for the blocked tilings rides on the
/// handle (scoped, not global — see [`crate::tile`]). It is a pure
/// scheduling knob: results are bitwise-independent of it except that
/// it fixes the (thread-count-independent) reduction boundaries of the
/// blocked parallel dots.
#[derive(Debug, Clone)]
pub struct KpmMatrix {
    repr: Repr,
    cache_bytes: usize,
    /// The content fingerprint, hashed on first use (solver-only
    /// callers never pay for it).
    fingerprint: OnceLock<u64>,
}

impl KpmMatrix {
    fn new(repr: Repr) -> Self {
        Self {
            repr,
            cache_bytes: DEFAULT_CACHE_BYTES,
            fingerprint: OnceLock::new(),
        }
    }

    /// Wraps a CRS matrix at the default cache budget.
    pub fn crs(m: CrsMatrix) -> Self {
        Self::new(Repr::Crs(m))
    }

    /// Wraps a matrix-free stencil operator at the default cache
    /// budget.
    ///
    /// The fingerprint is the *content* fingerprint of the CRS build of
    /// the same lattice ([`StencilMatrix::content_fingerprint`]), so a
    /// stencil handle and a CRS handle of the same operator coalesce in
    /// the service registry and share moment-cache entries.
    pub fn stencil(m: StencilMatrix) -> Self {
        Self::new(Repr::Stencil(Box::new(m)))
    }

    /// The content fingerprint identifying this operator (see
    /// [`CrsMatrix::content_fingerprint`]): the hash of the assembled
    /// CRS content, so CRS and stencil handles of one operator
    /// fingerprint identically. Hashed on the first call and kept.
    pub fn content_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| match &self.repr {
            Repr::Crs(m) => m.content_fingerprint(),
            Repr::Stencil(m) => m.content_fingerprint(),
        })
    }

    /// Sets the per-thread cache budget (bytes) used by the blocked
    /// parallel kernels, builder-style. The budget fixes the
    /// reduction-tree boundaries, so results are bitwise-reproducible
    /// for a fixed budget and any thread count. Tests are its only
    /// callers now (`tests/prop_kernels.rs` uses budgets to reach ragged
    /// tiles): every command runs at [`DEFAULT_CACHE_BYTES`].
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes.max(1);
        self
    }

    /// The CRS representation, if that is the active format.
    pub fn as_crs(&self) -> Option<&CrsMatrix> {
        match &self.repr {
            Repr::Crs(m) => Some(m),
            Repr::Stencil(_) => None,
        }
    }

    /// The matrix-free stencil representation, if that is the active
    /// format.
    pub fn as_stencil(&self) -> Option<&StencilMatrix> {
        match &self.repr {
            Repr::Stencil(m) => Some(m.as_ref()),
            Repr::Crs(_) => None,
        }
    }

    /// The representation as the interface it implements.
    fn inner(&self) -> &dyn SparseKernels {
        match &self.repr {
            Repr::Crs(m) => m,
            Repr::Stencil(m) => m.as_ref(),
        }
    }
}

impl SparseKernels for KpmMatrix {
    fn nrows(&self) -> usize {
        self.inner().nrows()
    }
    fn ncols(&self) -> usize {
        self.inner().ncols()
    }
    fn nnz(&self) -> usize {
        self.inner().nnz()
    }
    fn format(&self) -> FormatSpec {
        self.inner().format()
    }
    fn matrix_bytes(&self) -> usize {
        self.inner().matrix_bytes()
    }
    fn sweep(
        &self,
        op: SweepOp,
        schedule: Schedule,
        x: &[Complex64],
        r: usize,
        w: &mut [Complex64],
    ) -> AugDotsBlock {
        match &self.repr {
            Repr::Crs(m) => crate::sweep::run_crs(m, op, schedule, self.cache_bytes, x, r, w),
            Repr::Stencil(m) => m.sweep_at(op, schedule, self.cache_bytes, x, r, w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_reports_the_format_it_wraps() {
        let crs = KpmMatrix::crs(CrsMatrix::identity(12));
        assert!(crs.as_crs().is_some() && crs.as_stencil().is_none());
        // Plain values: 16 B each, plus a 4 B column index.
        let shape = (crs.nrows(), crs.nnz(), crs.matrix_bytes());
        assert_eq!((crs.format(), shape), (FormatSpec::Crs, (12, 12, 12 * 20)));
        assert_eq!(FormatSpec::Crs.to_string(), "crs");
        assert_eq!(FormatSpec::Stencil.to_string(), "stencil");

        // A 2 x 2 x 2 lattice with two distinct values: its CRS build is
        // coded, and at every width it and the stencil read the one site
        // view — a byte per block of each site (itself and three
        // neighbours) plus the seven distinct blocks of two 128-byte
        // slots and a header, 320 bytes on 64-byte lines.
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for (b, block) in hop.iter_mut().enumerate() {
            block[b % 4][(b + 1) % 4] = Complex64::real(-0.5);
        }
        let onsite = vec![[Complex64::real(1.0); 4]; 8];
        let st = StencilMatrix::new(2, 2, 2, [false; 3], onsite, &hop);
        let coded = KpmMatrix::crs(st.to_crs());
        let nnz = coded.nnz();
        assert_eq!(
            coded.as_crs().unwrap().value_table().map(<[_]>::len),
            Some(2)
        );
        let view = 8 * 4 + 7 * 320;
        assert_eq!(coded.matrix_bytes(), view);
        let stencil = KpmMatrix::stencil(st);
        assert_eq!((stencil.nnz(), stencil.matrix_bytes()), (nnz, view));
    }
}
