//! Topological-insulator application substrate (paper Section I-B).
//!
//! Implements the Hamilton operator of paper Eq. (1),
//!
//! ```text
//! H = -t Σ_n Σ_{j=1,2,3}  Ψ†_{n+ê_j} [(Γ¹ - iΓ^{j+1})/2] Ψ_n  + H.c.
//!     + Σ_n Ψ†_n (V_n Γ⁰ + 2Γ¹) Ψ_n
//! ```
//!
//! on a finite `Nx × Ny × Nz` lattice with a local 4-dimensional
//! orbital⊗spin degree of freedom, periodic boundary conditions in x and
//! y (open in z), and a quantum-dot superlattice potential `V_n`. The
//! resulting sparse matrix has dimension `N = 4·Nx·Ny·Nz`, is complex
//! Hermitian, and carries `N_nz ≈ 13·N` non-zeros — the workload of every
//! benchmark in the paper.
//!
//! Modules:
//! * [`gamma`] — the 4×4 Dirac matrices Γ⁰…Γ⁴,
//! * [`lattice`] — site indexing and neighbour lookup with per-axis
//!   boundary conditions,
//! * [`potential`] — on-site potentials `V_n`, including the quantum-dot
//!   superlattice of paper Fig. 2,
//! * [`hamiltonian`] — the sparse-matrix assembler plus spectral
//!   rescaling helpers,
//! * [`model`] — auxiliary exactly-solvable models used by tests,
//! * [`graphene`] — the honeycomb quantum-dot-superlattice workload of
//!   paper ref. [21], a second real application with a Dirac spectrum.

#![warn(missing_docs)]

pub mod gamma;
pub mod graphene;
pub mod hamiltonian;
pub mod lattice;
pub mod model;
pub mod potential;

pub use hamiltonian::{ScaleFactors, TopoHamiltonian};
pub use lattice::{Boundary, Lattice3D};
pub use potential::Potential;
