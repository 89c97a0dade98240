//! The Kernel Polynomial Method (KPM-DOS) solver — the paper's primary
//! contribution, in all three optimization stages.
//!
//! * [`solver`] — the KPM-DOS iteration: the *naive* variant built from
//!   `spmv` + BLAS-1 calls (paper Fig. 3), *stage 1* using the fused
//!   `aug_spmv` kernel (Fig. 4), and *stage 2* using the blocked
//!   `aug_spmmv` kernel (Fig. 5). All three produce identical Chebyshev
//!   moments for the same seed; they differ only in data traffic.
//! * [`moments`] — the η → μ moment map (product identities
//!   `μ_{2m} = 2⟨ν_m|ν_m⟩ − μ₀`, `μ_{2m+1} = 2⟨ν_{m+1}|ν_m⟩ − μ₁`) and
//!   stochastic-trace averaging over `R` random vectors.
//! * [`kernels`] — Jackson, Lorentz and Dirichlet damping kernels.
//! * [`chebyshev`] — Chebyshev polynomials, grids and series evaluation.
//! * [`dos`] — density-of-states reconstruction `ρ(E)`.
//! * [`ldos`] — site-resolved local DOS (paper Fig. 2, left panel).
//! * [`spectral`] — momentum-resolved spectral function `A(k, E)`
//!   (paper Fig. 2, right panel).
//! * [`eigencount`] — eigenvalue counting in spectral windows, the
//!   subspace-sizing application of paper refs. [8] and [22],
//! * [`green`] — retarded Green function `G(E + i0)` from the same
//!   moments (the Hilbert-transform companion of the DOS),
//! * [`checkpoint`] — the solver's one checkpoint record and its
//!   stores, for crash/resume of a long moment run.

#![warn(missing_docs)]

pub mod chebyshev;
pub mod checkpoint;
pub mod dos;
mod draw;
pub mod eigencount;
pub mod green;
pub mod kernels;
pub mod ldos;
pub mod moments;
pub mod solver;
pub mod spectral;

pub use checkpoint::{Checkpoint, CheckpointStore, DirCheckpointStore, MemoryCheckpointStore};
pub use dos::DosCurve;
pub use kernels::Kernel;
pub use moments::MomentSet;
pub use solver::{KpmParams, KpmVariant};
