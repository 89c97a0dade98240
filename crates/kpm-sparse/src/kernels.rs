//! Format-pluggable kernel dispatch.
//!
//! [`SparseKernels`] abstracts the kernel family the KPM solver needs
//! over the storage format, so the whole pipeline — moments, blocked
//! runs, checkpointing, the distributed driver — runs unchanged on CRS
//! or SELL-C-σ. [`KpmMatrix`] is the owning handle the drivers pass
//! around: it carries the chosen representation plus the per-call
//! tuning state (the cache budget for the blocked tilings) so tuning
//! travels with the matrix instead of through global state.
//!
//! Every implementation of a given method computes the same
//! floating-point chain (see [`crate::aug_sell`] for the SELL
//! argument), so switching formats never changes results — only speed.

use std::sync::{Arc, OnceLock};

use kpm_num::{BlockVector, Complex64, KpmError};

use crate::aug::{self, AugDots, AugDotsBlock};
use crate::aug_sell;
use crate::crs::CrsMatrix;
use crate::power::{self, LevelSet};
use crate::sell::SellMatrix;
use crate::spmv;
use crate::stencil::{self, StencilMatrix};

/// A sparse-matrix storage format selection, including the SELL shape
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatSpec {
    /// Compressed Row Storage (SELL-1-1 in the paper's terminology).
    Crs,
    /// SELL-C-σ with the given chunk height and sorting window.
    Sell {
        /// The chunk height `C` (SIMD/warp width).
        chunk_height: usize,
        /// The sorting window `σ` (1 or a multiple of `C`).
        sigma: usize,
    },
    /// Matrix-free stencil: rows regenerated on the fly from the
    /// lattice geometry ([`crate::stencil`]). Only constructible from a
    /// known stencil operator (the kpm-topo Hamiltonian), never from an
    /// assembled CRS matrix.
    Stencil,
}

impl FormatSpec {
    /// Short format name for reports and JSON schemas.
    pub fn name(&self) -> &'static str {
        match self {
            FormatSpec::Crs => "crs",
            FormatSpec::Sell { .. } => "sell",
            FormatSpec::Stencil => "stencil",
        }
    }
}

impl std::fmt::Display for FormatSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatSpec::Crs => write!(f, "crs"),
            FormatSpec::Sell {
                chunk_height,
                sigma,
            } => write!(f, "sell-{chunk_height}-{sigma}"),
            FormatSpec::Stencil => write!(f, "stencil"),
        }
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
    /// Number of logical non-zeros (excluding any fill-in padding).
    fn nnz(&self) -> usize;
    /// Number of stored elements including format padding.
    fn stored_elements(&self) -> usize;
    /// Storage occupancy `β = nnz / stored` ∈ (0, 1].
    fn beta(&self) -> f64 {
        if self.stored_elements() == 0 {
            1.0
        } else {
            self.nnz() as f64 / self.stored_elements() as f64
        }
    }
    /// The storage format of this matrix.
    fn format(&self) -> FormatSpec;

    /// Serial `y = A x`.
    fn spmv(&self, x: &[Complex64], y: &mut [Complex64]);
    /// Parallel `y = A x`.
    fn spmv_par(&self, x: &[Complex64], y: &mut [Complex64]);
    /// Serial `Y = A X` over row-major blocks.
    fn spmmv(&self, x: &BlockVector, y: &mut BlockVector);
    /// Parallel `Y = A X` over row-major blocks.
    fn spmmv_par(&self, x: &BlockVector, y: &mut BlockVector);

    /// Serial augmented SpMV (paper Fig. 4).
    fn aug_spmv(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots;
    /// Parallel augmented SpMV.
    fn aug_spmv_par(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots;
    /// Serial augmented SpMMV (paper Fig. 5).
    fn aug_spmmv(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock;
    /// Parallel augmented SpMMV.
    fn aug_spmmv_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock;
    /// Serial augmented SpMMV without the fused scalar products.
    fn aug_spmmv_nodot(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector);
    /// Parallel augmented SpMMV without the fused scalar products.
    fn aug_spmmv_nodot_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector);
    /// Augmented SpMMV over a local rectangular row block (distributed
    /// building block; serial — ranks parallelize across each other).
    fn aug_spmmv_rect(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock;
    /// Plain rectangular SpMMV `W[0..nrows] = H V` (distributed
    /// initialization).
    fn spmmv_rect(&self, v: &BlockVector, w: &mut BlockVector);

    /// `p` consecutive Chebyshev iterations in one call (serial).
    ///
    /// On entry `(v, w)` hold `(x_{k−1}, x_k)`; on exit `(x_{k+p−1},
    /// x_{k+p})`, with one dots block per iteration — bitwise-identical
    /// to `p` swap-and-[`SparseKernels::aug_spmmv`] steps, which is
    /// exactly what this default does. Implementations may overlap the
    /// iterations (level-blocked matrix-power sweeps) as long as the
    /// bits stay the same.
    fn aug_spmmv_power(
        &self,
        p: usize,
        a: f64,
        b: f64,
        v: &mut BlockVector,
        w: &mut BlockVector,
    ) -> Vec<AugDotsBlock> {
        assert!(p >= 1, "power depth must be at least 1");
        let mut out = Vec::with_capacity(p);
        for _ in 0..p {
            v.swap(w);
            out.push(self.aug_spmmv(a, b, v, w));
        }
        out
    }

    /// `p` consecutive Chebyshev iterations in one call (parallel);
    /// same contract as [`SparseKernels::aug_spmmv_power`] relative to
    /// the parallel kernels at the handle's cache budget.
    fn aug_spmmv_power_par(
        &self,
        p: usize,
        a: f64,
        b: f64,
        v: &mut BlockVector,
        w: &mut BlockVector,
    ) -> Vec<AugDotsBlock> {
        assert!(p >= 1, "power depth must be at least 1");
        let mut out = Vec::with_capacity(p);
        for _ in 0..p {
            v.swap(w);
            out.push(self.aug_spmmv_par(a, b, v, w));
        }
        out
    }
}

impl SparseKernels for CrsMatrix {
    fn nrows(&self) -> usize {
        CrsMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        CrsMatrix::ncols(self)
    }
    fn nnz(&self) -> usize {
        CrsMatrix::nnz(self)
    }
    fn stored_elements(&self) -> usize {
        CrsMatrix::nnz(self)
    }
    fn format(&self) -> FormatSpec {
        FormatSpec::Crs
    }
    fn spmv(&self, x: &[Complex64], y: &mut [Complex64]) {
        spmv::spmv(self, x, y);
    }
    fn spmv_par(&self, x: &[Complex64], y: &mut [Complex64]) {
        spmv::spmv_par(self, x, y);
    }
    fn spmmv(&self, x: &BlockVector, y: &mut BlockVector) {
        spmv::spmmv(self, x, y);
    }
    fn spmmv_par(&self, x: &BlockVector, y: &mut BlockVector) {
        spmv::spmmv_par(self, x, y);
    }
    fn aug_spmv(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        aug::aug_spmv(self, a, b, v, w)
    }
    fn aug_spmv_par(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        aug::aug_spmv_par(self, a, b, v, w)
    }
    fn aug_spmmv(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        aug::aug_spmmv(self, a, b, v, w)
    }
    fn aug_spmmv_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        aug::aug_spmmv_par(self, a, b, v, w)
    }
    fn aug_spmmv_nodot(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        aug::aug_spmmv_nodot(self, a, b, v, w);
    }
    fn aug_spmmv_nodot_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        aug::aug_spmmv_nodot_par(self, a, b, v, w);
    }
    fn aug_spmmv_rect(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        aug::aug_spmmv_rect(self, a, b, v, w)
    }
    fn spmmv_rect(&self, v: &BlockVector, w: &mut BlockVector) {
        aug::spmmv_rect(self, v, w);
    }
}

impl SparseKernels for SellMatrix {
    fn nrows(&self) -> usize {
        SellMatrix::nrows(self)
    }
    fn ncols(&self) -> usize {
        SellMatrix::ncols(self)
    }
    fn nnz(&self) -> usize {
        SellMatrix::nnz(self)
    }
    fn stored_elements(&self) -> usize {
        SellMatrix::stored_elements(self)
    }
    fn format(&self) -> FormatSpec {
        FormatSpec::Sell {
            chunk_height: self.chunk_height(),
            sigma: self.sigma(),
        }
    }
    fn spmv(&self, x: &[Complex64], y: &mut [Complex64]) {
        SellMatrix::spmv(self, x, y);
    }
    fn spmv_par(&self, x: &[Complex64], y: &mut [Complex64]) {
        SellMatrix::spmv_par(self, x, y);
    }
    fn spmmv(&self, x: &BlockVector, y: &mut BlockVector) {
        SellMatrix::spmmv(self, x, y);
    }
    fn spmmv_par(&self, x: &BlockVector, y: &mut BlockVector) {
        SellMatrix::spmmv_par(self, x, y);
    }
    fn aug_spmv(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        aug_sell::aug_spmv(self, a, b, v, w)
    }
    fn aug_spmv_par(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        aug_sell::aug_spmv_par(self, a, b, v, w)
    }
    fn aug_spmmv(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        aug_sell::aug_spmmv(self, a, b, v, w)
    }
    fn aug_spmmv_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        aug_sell::aug_spmmv_par(self, a, b, v, w)
    }
    fn aug_spmmv_nodot(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        aug_sell::aug_spmmv_nodot(self, a, b, v, w);
    }
    fn aug_spmmv_nodot_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        aug_sell::aug_spmmv_nodot_par(self, a, b, v, w);
    }
    fn aug_spmmv_rect(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        aug_sell::aug_spmmv_rect(self, a, b, v, w)
    }
    fn spmmv_rect(&self, v: &BlockVector, w: &mut BlockVector) {
        aug_sell::spmmv_rect(self, v, w);
    }
}

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
    fn stored_elements(&self) -> usize {
        0
    }
    fn format(&self) -> FormatSpec {
        FormatSpec::Stencil
    }
    fn spmv(&self, x: &[Complex64], y: &mut [Complex64]) {
        stencil::spmv(self, x, y);
    }
    fn spmv_par(&self, x: &[Complex64], y: &mut [Complex64]) {
        stencil::spmv_par(self, x, y);
    }
    fn spmmv(&self, x: &BlockVector, y: &mut BlockVector) {
        stencil::spmmv(self, x, y);
    }
    fn spmmv_par(&self, x: &BlockVector, y: &mut BlockVector) {
        stencil::spmmv_par(self, x, y);
    }
    fn aug_spmv(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        stencil::aug_spmv(self, a, b, v, w)
    }
    fn aug_spmv_par(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        stencil::aug_spmv_par(self, a, b, v, w)
    }
    fn aug_spmmv(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        stencil::aug_spmmv(self, a, b, v, w)
    }
    fn aug_spmmv_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        stencil::aug_spmmv_par_budget(self, a, b, v, w, crate::tile::DEFAULT_CACHE_BYTES)
    }
    fn aug_spmmv_nodot(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        stencil::aug_spmmv_nodot(self, a, b, v, w);
    }
    fn aug_spmmv_nodot_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        stencil::aug_spmmv_nodot_par_budget(self, a, b, v, w, crate::tile::DEFAULT_CACHE_BYTES);
    }
    fn aug_spmmv_rect(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        stencil::aug_spmmv_rect(self, a, b, v, w)
    }
    fn spmmv_rect(&self, v: &BlockVector, w: &mut BlockVector) {
        stencil::spmmv_rect(self, v, w);
    }
}

/// The concrete storage behind a [`KpmMatrix`].
#[derive(Debug, Clone)]
enum Repr {
    Crs(CrsMatrix),
    Sell(SellMatrix),
    // Boxed: the inline hop-block tables make this variant ~20x the
    // size of the other two.
    Stencil(Box<StencilMatrix>),
}

/// An owning, format-erased matrix handle with its tuning state.
///
/// The per-thread cache budget for the blocked tilings rides on the
/// handle (scoped, not global — see [`crate::tile`]); the SELL task
/// granularity rides on the [`SellMatrix`] itself. Both are pure
/// scheduling knobs: results are bitwise-independent of them except
/// that the cache budget fixes the (thread-count-independent) reduction
/// boundaries of the blocked parallel dots.
#[derive(Debug, Clone)]
pub struct KpmMatrix {
    repr: Repr,
    cache_bytes: usize,
    /// The content fingerprint, hashed on first use for the CRS and
    /// stencil representations (solver-only callers never pay for it);
    /// a SELL conversion is born with its CRS source's.
    fingerprint: OnceLock<u64>,
    /// Budget (bytes) for the level-blocked power kernels' live vector
    /// window; a pure go/no-go gate, never a correctness input.
    power_budget_bytes: usize,
    /// True once the storage arrays have been re-placed under the
    /// first-touch policy ([`KpmMatrix::with_first_touch`]); a pure
    /// placement property, never a correctness input.
    first_touch: bool,
    /// Lazily-built level set for the power kernels (`None` inside the
    /// cell when the structure does not level — e.g. SELL, or a matrix
    /// without structural symmetry).
    levels: OnceLock<Option<Arc<LevelSet>>>,
}

impl KpmMatrix {
    fn from_parts(repr: Repr, fingerprint: Option<u64>) -> Self {
        Self {
            repr,
            cache_bytes: crate::tile::DEFAULT_CACHE_BYTES,
            fingerprint: fingerprint.map(OnceLock::from).unwrap_or_default(),
            power_budget_bytes: power::DEFAULT_POWER_BUDGET_BYTES,
            first_touch: false,
            levels: OnceLock::new(),
        }
    }

    /// Wraps a CRS matrix at the default cache budget.
    pub fn crs(m: CrsMatrix) -> Self {
        Self::from_parts(Repr::Crs(m), None)
    }

    /// Wraps a matrix-free stencil operator at the default cache
    /// budget.
    ///
    /// The fingerprint is the *content* fingerprint of the CRS build of
    /// the same lattice ([`StencilMatrix::content_fingerprint`]), so a
    /// stencil handle and a CRS handle of the same operator coalesce in
    /// the service registry and share moment-cache entries.
    pub fn stencil(m: StencilMatrix) -> Self {
        Self::from_parts(Repr::Stencil(Box::new(m)), None)
    }

    /// Wraps a SELL matrix at the default cache budget.
    ///
    /// A directly-wrapped SELL matrix carries a *structural* fingerprint
    /// (shape, fill, and SELL parameters under a distinct hash domain)
    /// because the chunk-permuted storage no longer exposes the
    /// assembled row order. Build through [`KpmMatrix::try_with_format`]
    /// when the fingerprint must identify matrix *content* across
    /// formats — the service registry always does.
    pub fn sell(m: SellMatrix) -> Self {
        Self::from_parts(Repr::Sell(m), None)
    }

    /// The content fingerprint identifying this operator (see
    /// [`CrsMatrix::content_fingerprint`]): the hash of the assembled
    /// CRS content, so CRS, SELL ([`KpmMatrix::try_with_format`]) and
    /// stencil handles of one operator fingerprint identically. Hashed
    /// on the first call and kept.
    pub fn content_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| match &self.repr {
            Repr::Crs(m) => m.content_fingerprint(),
            Repr::Stencil(m) => m.content_fingerprint(),
            // Only a directly-wrapped SELL matrix gets here (a
            // conversion keeps its CRS source's hash): structural.
            Repr::Sell(m) => {
                let mut h = crate::crs::Fnv1a::new();
                h.write_u64(0x5e11_5e11_5e11_5e11); // SELL domain tag
                h.write_u64(m.nrows() as u64);
                h.write_u64(m.ncols() as u64);
                h.write_u64(m.nnz() as u64);
                h.write_u64(m.stored_elements() as u64);
                h.write_u64(m.chunk_height() as u64);
                h.write_u64(m.sigma() as u64);
                h.finish()
            }
        })
    }

    /// Builds the requested format from an assembled CRS matrix.
    ///
    /// Fails (like [`SellMatrix::try_from_crs`]) when the SELL shape
    /// parameters are invalid, and always for [`FormatSpec::Stencil`]:
    /// an assembled matrix no longer knows the lattice geometry, so the
    /// matrix-free format must be built from the stencil source (see
    /// `TopoHamiltonian::stencil_matrix` in kpm-topo) and wrapped with
    /// [`KpmMatrix::stencil`].
    pub fn try_with_format(m: CrsMatrix, spec: &FormatSpec) -> Result<Self, KpmError> {
        match *spec {
            FormatSpec::Crs => Ok(Self::crs(m)),
            FormatSpec::Sell {
                chunk_height,
                sigma,
            } => {
                // Fingerprint the assembled CRS content *before* the
                // chunk permutation so CRS and SELL handles of the same
                // operator share a fingerprint.
                let fingerprint = m.content_fingerprint();
                let sell = SellMatrix::try_from_crs(&m, chunk_height, sigma)?;
                Ok(Self::from_parts(Repr::Sell(sell), Some(fingerprint)))
            }
            FormatSpec::Stencil => Err(KpmError::InvalidParams {
                what: "format",
                details: "the stencil format is matrix-free and cannot be built from an \
                          assembled matrix; construct it from the lattice stencil and wrap \
                          with KpmMatrix::stencil"
                    .into(),
            }),
        }
    }

    /// Sets the per-thread cache budget (bytes) used by the blocked
    /// parallel kernels, builder-style.
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes.max(1);
        self
    }

    /// The per-thread cache budget (bytes) of the blocked tilings.
    pub fn cache_bytes(&self) -> usize {
        self.cache_bytes
    }

    /// Sets the budget (bytes) for the level-blocked power kernels'
    /// live vector window, builder-style. Callers with a machine model
    /// derive it from `Machine::l2_kib` × thread count; the gate only
    /// decides whether the wavefront path is *profitable* — both paths
    /// produce identical bits.
    pub fn with_power_budget_bytes(mut self, bytes: usize) -> Self {
        self.power_budget_bytes = bytes.max(1);
        self
    }

    /// The power-window budget (bytes) of the level-blocked kernels.
    pub fn power_budget_bytes(&self) -> usize {
        self.power_budget_bytes
    }

    /// Re-places the storage arrays under the NUMA first-touch policy,
    /// builder-style: each array range the parallel kernels stream is
    /// copied into a fresh untouched allocation by the pinned pool
    /// worker that will stream it (see [`crate::placement`]), so its
    /// pages land on that worker's memory node. A no-op for the
    /// matrix-free stencil (there are no arrays to place) and when
    /// `on` is false. Contents are bitwise-unchanged either way.
    pub fn with_first_touch(mut self, on: bool) -> Self {
        if on && !self.first_touch {
            match &mut self.repr {
                Repr::Crs(m) => m.first_touch_refault(),
                Repr::Sell(m) => m.first_touch_refault(),
                Repr::Stencil(_) => {}
            }
        }
        self.first_touch = on;
        self
    }

    /// True when the storage arrays were placed under the first-touch
    /// policy.
    pub fn first_touch(&self) -> bool {
        self.first_touch
    }

    /// Forwards the parallel task granularity to the SELL
    /// representation (no-op on the other formats).
    pub fn set_chunks_per_task(&mut self, chunks: usize) {
        if let Repr::Sell(m) = &mut self.repr {
            m.set_chunks_per_task(chunks);
        }
    }

    /// The CRS representation, if that is the active format.
    pub fn as_crs(&self) -> Option<&CrsMatrix> {
        match &self.repr {
            Repr::Crs(m) => Some(m),
            _ => None,
        }
    }

    /// The SELL representation, if that is the active format.
    pub fn as_sell(&self) -> Option<&SellMatrix> {
        match &self.repr {
            Repr::Sell(m) => Some(m),
            _ => None,
        }
    }

    /// The matrix-free stencil representation, if that is the active
    /// format.
    pub fn as_stencil(&self) -> Option<&StencilMatrix> {
        match &self.repr {
            Repr::Stencil(m) => Some(m.as_ref()),
            _ => None,
        }
    }

    /// The level set of this operator, built (once) on first use;
    /// `None` when the format has no row view (SELL) or the structure
    /// does not level.
    pub fn level_set(&self) -> Option<&LevelSet> {
        self.levels
            .get_or_init(|| match &self.repr {
                Repr::Crs(m) => LevelSet::build(m).map(Arc::new),
                Repr::Stencil(m) => LevelSet::build(m.as_ref()).map(Arc::new),
                Repr::Sell(_) => None,
            })
            .as_deref()
    }

    /// The level set, but only when a depth-`p` wavefront over width
    /// `r_width` is worth running under the power-window budget.
    fn power_levels(&self, p: usize, r_width: usize) -> Option<&LevelSet> {
        if p < 2 {
            return None;
        }
        let ls = self.level_set()?;
        power::power_feasible(ls, p, r_width, self.power_budget_bytes).then_some(ls)
    }
}

macro_rules! dispatch {
    ($self:ident, $m:ident => $e:expr) => {
        match &$self.repr {
            Repr::Crs($m) => $e,
            Repr::Sell($m) => $e,
            Repr::Stencil(boxed) => {
                let $m = boxed.as_ref();
                $e
            }
        }
    };
}

impl SparseKernels for KpmMatrix {
    fn nrows(&self) -> usize {
        dispatch!(self, m => m.nrows())
    }
    fn ncols(&self) -> usize {
        dispatch!(self, m => m.ncols())
    }
    fn nnz(&self) -> usize {
        dispatch!(self, m => m.nnz())
    }
    fn stored_elements(&self) -> usize {
        dispatch!(self, m => SparseKernels::stored_elements(m))
    }
    fn format(&self) -> FormatSpec {
        dispatch!(self, m => SparseKernels::format(m))
    }
    fn spmv(&self, x: &[Complex64], y: &mut [Complex64]) {
        dispatch!(self, m => SparseKernels::spmv(m, x, y))
    }
    fn spmv_par(&self, x: &[Complex64], y: &mut [Complex64]) {
        dispatch!(self, m => SparseKernels::spmv_par(m, x, y))
    }
    fn spmmv(&self, x: &BlockVector, y: &mut BlockVector) {
        dispatch!(self, m => SparseKernels::spmmv(m, x, y))
    }
    fn spmmv_par(&self, x: &BlockVector, y: &mut BlockVector) {
        dispatch!(self, m => SparseKernels::spmmv_par(m, x, y))
    }
    fn aug_spmv(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        dispatch!(self, m => SparseKernels::aug_spmv(m, a, b, v, w))
    }
    fn aug_spmv_par(&self, a: f64, b: f64, v: &[Complex64], w: &mut [Complex64]) -> AugDots {
        dispatch!(self, m => SparseKernels::aug_spmv_par(m, a, b, v, w))
    }
    fn aug_spmmv(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        dispatch!(self, m => SparseKernels::aug_spmmv(m, a, b, v, w))
    }
    fn aug_spmmv_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        // Thread the handle's cache budget into the blocked tilings.
        match &self.repr {
            Repr::Crs(m) => aug::aug_spmmv_par_budget(m, a, b, v, w, self.cache_bytes),
            Repr::Sell(m) => aug_sell::aug_spmmv_par_budget(m, a, b, v, w, self.cache_bytes),
            Repr::Stencil(m) => stencil::aug_spmmv_par_budget(m, a, b, v, w, self.cache_bytes),
        }
    }
    fn aug_spmmv_nodot(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        dispatch!(self, m => SparseKernels::aug_spmmv_nodot(m, a, b, v, w))
    }
    fn aug_spmmv_nodot_par(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) {
        match &self.repr {
            Repr::Crs(m) => aug::aug_spmmv_nodot_par_budget(m, a, b, v, w, self.cache_bytes),
            // The SELL no-dot kernel is scatter-only (no tiling), so
            // there is no budget to thread.
            Repr::Sell(m) => aug_sell::aug_spmmv_nodot_par(m, a, b, v, w),
            Repr::Stencil(m) => {
                stencil::aug_spmmv_nodot_par_budget(m, a, b, v, w, self.cache_bytes)
            }
        }
    }
    fn aug_spmmv_rect(&self, a: f64, b: f64, v: &BlockVector, w: &mut BlockVector) -> AugDotsBlock {
        dispatch!(self, m => SparseKernels::aug_spmmv_rect(m, a, b, v, w))
    }
    fn spmmv_rect(&self, v: &BlockVector, w: &mut BlockVector) {
        dispatch!(self, m => SparseKernels::spmmv_rect(m, v, w))
    }
    fn aug_spmmv_power(
        &self,
        p: usize,
        a: f64,
        b: f64,
        v: &mut BlockVector,
        w: &mut BlockVector,
    ) -> Vec<AugDotsBlock> {
        assert!(p >= 1, "power depth must be at least 1");
        if let Some(ls) = self.power_levels(p, v.width()) {
            match &self.repr {
                Repr::Crs(m) => return power::aug_spmmv_power(m, ls, p, a, b, v, w),
                Repr::Stencil(m) => return power::aug_spmmv_power(m.as_ref(), ls, p, a, b, v, w),
                Repr::Sell(_) => {} // no row view; fall through
            }
        }
        let mut out = Vec::with_capacity(p);
        for _ in 0..p {
            v.swap(w);
            out.push(SparseKernels::aug_spmmv(self, a, b, v, w));
        }
        out
    }
    fn aug_spmmv_power_par(
        &self,
        p: usize,
        a: f64,
        b: f64,
        v: &mut BlockVector,
        w: &mut BlockVector,
    ) -> Vec<AugDotsBlock> {
        assert!(p >= 1, "power depth must be at least 1");
        if let Some(ls) = self.power_levels(p, v.width()) {
            match &self.repr {
                Repr::Crs(m) => {
                    return power::aug_spmmv_power_par(m, ls, p, a, b, v, w, self.cache_bytes)
                }
                Repr::Stencil(m) => {
                    return power::aug_spmmv_power_par(
                        m.as_ref(),
                        ls,
                        p,
                        a,
                        b,
                        v,
                        w,
                        self.cache_bytes,
                    )
                }
                Repr::Sell(_) => {}
            }
        }
        let mut out = Vec::with_capacity(p);
        for _ in 0..p {
            v.swap(w);
            out.push(SparseKernels::aug_spmmv_par(self, a, b, v, w));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_hermitian(n: usize, seed: u64) -> CrsMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, Complex64::real(rng.gen_range(-1.0..1.0)));
            for _ in 0..3 {
                let c = rng.gen_range(0..n);
                if c != r {
                    let z = Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    coo.push(r, c, z);
                    coo.push(c, r, z.conj());
                }
            }
        }
        coo.to_crs()
    }

    #[test]
    fn format_spec_reports_names() {
        assert_eq!(FormatSpec::Crs.name(), "crs");
        let s = FormatSpec::Sell {
            chunk_height: 8,
            sigma: 32,
        };
        assert_eq!(s.name(), "sell");
        assert_eq!(s.to_string(), "sell-8-32");
        assert_eq!(FormatSpec::Crs.to_string(), "crs");
    }

    #[test]
    fn kpm_matrix_builds_requested_format() {
        let h = random_hermitian(64, 1);
        let crs = KpmMatrix::try_with_format(h.clone(), &FormatSpec::Crs).unwrap();
        assert!(crs.as_crs().is_some() && crs.as_sell().is_none());
        assert_eq!(SparseKernels::beta(&crs), 1.0);
        let spec = FormatSpec::Sell {
            chunk_height: 8,
            sigma: 32,
        };
        let sell = KpmMatrix::try_with_format(h.clone(), &spec).unwrap();
        assert!(sell.as_sell().is_some() && sell.as_crs().is_none());
        assert_eq!(SparseKernels::format(&sell), spec);
        assert!(SparseKernels::beta(&sell) <= 1.0);
        assert!(KpmMatrix::try_with_format(
            h,
            &FormatSpec::Sell {
                chunk_height: 4,
                sigma: 6
            }
        )
        .is_err());
    }

    #[test]
    fn trait_dispatch_matches_across_formats() {
        let n = 150;
        let h = random_hermitian(n, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let v: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let w0: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let crs = KpmMatrix::crs(h.clone());
        let sell = KpmMatrix::try_with_format(
            h,
            &FormatSpec::Sell {
                chunk_height: 4,
                sigma: 16,
            },
        )
        .unwrap();
        let mut w1 = w0.clone();
        let mut w2 = w0;
        let d1 = SparseKernels::aug_spmv(&crs, 0.5, -0.1, &v, &mut w1);
        let d2 = SparseKernels::aug_spmv(&sell, 0.5, -0.1, &v, &mut w2);
        assert_eq!(w1, w2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn first_touch_is_bitwise_neutral() {
        let n = 500;
        let h = random_hermitian(n, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let v: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let w0: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let spec = FormatSpec::Sell {
            chunk_height: 8,
            sigma: 32,
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for spec in [FormatSpec::Crs, spec] {
            let base = KpmMatrix::try_with_format(h.clone(), &spec).unwrap();
            let placed = pool.install(|| {
                KpmMatrix::try_with_format(h.clone(), &spec)
                    .unwrap()
                    .with_first_touch(true)
            });
            assert!(!base.first_touch());
            assert!(placed.first_touch());
            let mut w1 = w0.clone();
            let mut w2 = w0.clone();
            let d1 = SparseKernels::aug_spmv_par(&base, 0.5, -0.1, &v, &mut w1);
            let d2 = pool.install(|| SparseKernels::aug_spmv_par(&placed, 0.5, -0.1, &v, &mut w2));
            assert_eq!(w1, w2, "{spec}");
            assert_eq!(d1, d2, "{spec}");
        }
    }

    #[test]
    fn blocked_par_uses_handle_budget() {
        let n = 600;
        let h = random_hermitian(n, 4);
        let r_width = 8;
        let mut rng = StdRng::seed_from_u64(5);
        let v = BlockVector::random(n, r_width, &mut rng);
        let w0 = BlockVector::random(n, r_width, &mut rng);
        let budget = 64 * 1024;
        let crs = KpmMatrix::crs(h.clone()).with_cache_bytes(budget);
        assert_eq!(crs.cache_bytes(), budget);
        let mut w1 = w0.clone();
        let mut w2 = w0;
        let d1 = SparseKernels::aug_spmmv_par(&crs, 0.3, 0.2, &v, &mut w1);
        let d2 = aug::aug_spmmv_par_budget(&h, 0.3, 0.2, &v, &mut w2, budget);
        assert_eq!(w1.max_abs_diff(&w2), 0.0);
        assert_eq!(d1, d2);
    }
}
