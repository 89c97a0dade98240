//! Numerical substrate for the KPM reproduction.
//!
//! This crate provides the low-level numerical building blocks that every
//! other crate in the workspace builds on:
//!
//! * [`Complex64`] — double-precision complex numbers with the flop
//!   accounting convention of the paper (complex add = 2 flops, complex
//!   multiply = 6 flops),
//! * [`vector`] — dense complex vectors and the BLAS level-1 kernels used
//!   by the *naive* KPM-DOS algorithm (paper Fig. 3): `axpy`, `scal`,
//!   `nrm2`, `dot`,
//! * [`block`] — block vectors of width `R` stored row by row, the data
//!   layout that makes the augmented SpMMV kernel of the paper stream
//!   contiguously (paper Section IV-A), each row in *split panels*
//!   (`[re; W][im; W]` per 8/4/2/1-column panel) so a kernel vectorised
//!   along the block row needs no shuffle (Section IV-B),
//! * [`summation`] — compensated/pairwise summation helpers used to keep
//!   stochastic-trace reductions reproducible,
//! * [`accounting`] — the byte/flop constants of the paper (S_d, S_i,
//!   F_a, F_m) used by the performance models.

pub mod accounting;
pub mod aligned;
pub mod block;
pub mod complex;
pub mod eigen;
pub mod error;
pub mod summation;
pub mod vector;

pub use block::BlockVector;
pub use complex::Complex64;
pub use error::{KpmError, KpmResult};
pub use vector::Vector;
