//! Heterogeneous and distributed execution (paper Section VI).
//!
//! The paper runs KPM data-parallel across CPU sockets and GPUs — one
//! MPI process per device, weighted row distribution, halo exchange —
//! on up to 1024 nodes of Piz Daint. This crate reproduces that stack
//! in two complementary layers:
//!
//! * a **functional layer** that really executes the distributed
//!   algorithm, with OS threads standing in for MPI ranks:
//!   - [`runtime`] — a typed message-passing runtime (send/recv with
//!     deadlines, barrier, allreduce) over std channels, with typed
//!     errors instead of panics on communication failure,
//!   - [`fault`] — deterministic fault injection (message drop /
//!     duplication / delay, scheduled rank crashes) attachable to a
//!     world via [`runtime::WorldConfig`],
//!   - [`decomp`] — weighted 1-D row-block decomposition and the halo
//!     communication plan derived from the matrix sparsity pattern,
//!   - [`dist`] — the distributed blocked KPM solver; its moments are
//!     validated against the single-process solver, plus a resilient
//!     driver that checkpoints and restarts across injected crashes,
//! * a **performance layer** that models the machines we cannot run on:
//!   - [`node`] — node-level performance per optimization stage for
//!     CPU, GPU and CPU+GPU execution (paper Fig. 11),
//!   - [`cluster`] — weak/strong scaling on the modelled Cray XC30
//!     (paper Fig. 12) and the resource-efficiency comparison of
//!     blocking vs throughput mode (paper Table III).

#![warn(missing_docs)]

pub mod cluster;
pub mod decomp;
pub mod dist;
pub mod fault;
pub mod node;
pub mod runtime;

pub use decomp::{partition_rows, LocalProblem};
pub use fault::{FaultPlan, FaultStats};
pub use runtime::{Communicator, World, WorldConfig, WorldOutcome};
