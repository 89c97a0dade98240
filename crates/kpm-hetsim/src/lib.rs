//! Heterogeneous and cluster-scale performance models (paper Section VI).
//!
//! The paper runs KPM data-parallel across CPU sockets and GPUs — one
//! MPI process per device, weighted row distribution, halo exchange —
//! on up to 1024 nodes of Piz Daint. This crate models the machines we
//! cannot run on; `report_all` checks its numbers against the paper:
//!
//! * [`node`] — node-level performance per optimization stage for
//!   CPU, GPU and CPU+GPU execution (paper Fig. 11),
//! * [`cluster`] — weak/strong scaling on the modelled Cray XC30
//!   (paper Fig. 12) and the resource-efficiency comparison of
//!   blocking vs throughput mode (paper Table III).

#![warn(missing_docs)]

pub mod cluster;
pub mod node;
