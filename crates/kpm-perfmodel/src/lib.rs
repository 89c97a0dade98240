//! Performance models of the paper (Sections III and V).
//!
//! * [`machine`] — the architecture catalog of paper Table II (IVB, SNB,
//!   K20m, K20X),
//! * [`traffic`] — the minimum-traffic/flop accounting of paper Table I
//!   and the solver traffic evolution of Eq. (4),
//! * [`balance`] — code balance `B_min(R)` (Eqs. 5–7) and the measured
//!   balance `B = Ω·B_min` (Eq. 8),
//! * [`roofline`] — the roofline model (Eq. 9), its memory-bound form
//!   (Eq. 10) and the cache-aware refinement `P* = min(P_MEM, P_LLC)`
//!   (Eq. 11),
//! * [`cachesim`] — a set-associative LRU cache hierarchy simulator used
//!   to *measure* data volumes per memory level (the role LIKWID and
//!   nvprof play in the paper), producing the Ω factor,
//! * [`omega`] — drives the cache simulator over the real access stream
//!   of the augmented SpM(M)V kernels on a given sparse matrix.

#![warn(missing_docs)]

pub mod balance;
pub mod cachesim;
pub mod machine;
pub mod omega;
pub mod roofline;
pub mod traffic;

pub use balance::{actual_balance, min_code_balance};
pub use cachesim::{CacheConfig, CacheLevel, MemoryHierarchy};
pub use machine::Machine;
pub use roofline::{roofline, roofline_llc};
