//! kpm-analyze: zero-dependency static analysis for the KPM
//! workspace.
//!
//! [`lints`] holds six rules, each kept because it caught a real defect
//! or audits the markers that vet one: panic-freedom in the kernel
//! crates' library code, directly (`no_panic`, token-level over
//! [`lexer`]) and through callees (`panic_path`, over the [`ast`] call
//! tree and the workspace [`callgraph`]); `// SAFETY:` adjacency; no
//! allocation in the hot kernel loops; and the `kpm::allow` marker
//! audits. `tests/static_analysis.rs` at the workspace root is the
//! gate: it fails on any [`Diagnostic`], and holds the `unsafe` budget
//! of the thread pool in `shims/rayon`, which the workspace scan skips.
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
pub mod workspace;

pub use diag::Diagnostic;
pub use lints::{analyze_source, FileClass, FileInput, RULES};
pub use workspace::{analyze_sources, analyze_workspace, Report};
