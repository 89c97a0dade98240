//! Umbrella crate for the KPM reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can `use kpm_repro::...` without naming each member
//! crate individually. See `DESIGN.md` at the repository root for the
//! system inventory and `EXPERIMENTS.md` for the paper-vs-measured
//! record.

#![warn(missing_docs)]

pub use kpm_core as core;
pub use kpm_hetsim as hetsim;
pub use kpm_num as num;
pub use kpm_obs as obs;
pub use kpm_perfmodel as perfmodel;
pub use kpm_service as service;
pub use kpm_simgpu as simgpu;
pub use kpm_sparse as sparse;
pub use kpm_topo as topo;
