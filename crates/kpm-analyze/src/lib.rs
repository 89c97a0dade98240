//! kpm-analyze: zero-dependency static analysis for the KPM
//! workspace.
//!
//! Two subsystems share this crate:
//!
//! - [`lints`] — six rules, each kept because it caught a real defect
//!   or audits the markers that vet one: panic-freedom in the kernel
//!   crates' library code, directly (`no_panic`, token-level over
//!   [`lexer`]) and through callees (`panic_path`, over the [`ast`]
//!   call tree and the workspace [`callgraph`]); `// SAFETY:`
//!   adjacency; no allocation in the hot kernel loops; and the
//!   `kpm::allow` marker audits. `tests/static_analysis.rs` at the
//!   workspace root is the gate: it fails on any [`Diagnostic`].
//! - [`sched`] — a loom-style deterministic schedule explorer: a
//!   depth-first search over every interleaving of small programs of
//!   blocking send/recv ops, with a seeded order and a preemption
//!   bound, that reports deadlocks with their schedule.
//!
//! DESIGN.md, "Static analysis & model checking", lists each rule with
//! its catch and what checks the properties of the rules that left.

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod passes;
pub mod sched;
pub mod workspace;

pub use diag::Diagnostic;
pub use lints::{analyze_source, FileClass, FileInput, RULES};
pub use workspace::{analyze_sources, analyze_workspace, Report};
