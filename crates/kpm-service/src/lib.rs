//! Resilient KPM-as-a-service: a batching request runtime in front of
//! the format-pluggable solver.
//!
//! The paper's central performance lever — streaming the matrix once
//! over a *block* of vectors instead of once per vector — becomes, at
//! the service level, a batching opportunity: concurrent DOS/LDOS/Green
//! queries against the same Hamiltonian coalesce into one block solve
//! of up to `max_batch_width` columns, sealed when a worker can start
//! it. Around that hot path this crate layers the
//! robustness machinery a long-running service needs: a bounded
//! admission queue with explicit backpressure (the only buffer in the
//! runtime), per-request deadlines,
//! retry with jittered exponential backoff, a per-route circuit
//! breaker, hedged re-dispatch of stragglers, and graceful degradation
//! through a moment cache (truncated-`M` answers carry an explicit
//! `degraded` flag plus a quantified broadening penalty).
//!
//! Everything is `std`-only and deterministic where it matters: the
//! chaos layer ([`chaos::ChaosPlan`]) injects worker crashes, slow
//! solves and queue-lock poisoning from a seed, and the [`Ledger`]
//! proves the core invariant — every admitted request gets exactly one
//! terminal reply, on every schedule, on every shutdown path. Batched
//! answers are bitwise identical to serial solves for any batch
//! composition and thread count (see
//! [`kpm_core::solver::kpm_batch_moments`]).
//!
//! ```no_run
//! use kpm_service::{Service, ServiceConfig, Request, QueryKind, Admission, ShutdownMode};
//! use kpm_core::kernels::Kernel;
//!
//! # fn demo(matrix: kpm_sparse::KpmMatrix, sf: kpm_topo::ScaleFactors) {
//! let svc = Service::start(ServiceConfig::default());
//! let fp = svc.register_matrix(matrix, sf);
//! let admission = svc.submit(Request {
//!     matrix: fp,
//!     kind: QueryKind::Dos { seed: 1, num_random: 2 },
//!     num_moments: 64,
//!     kernel: Kernel::Jackson,
//!     points: 128,
//!     deadline: None,
//! });
//! if let Admission::Admitted(ticket) = admission {
//!     let response = ticket.wait().expect("service replies exactly once");
//!     assert!(response.is_answered() || !response.is_answered());
//! }
//! svc.shutdown(ShutdownMode::Drain);
//! # }
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod request;
pub mod service;

mod breaker;
mod cache;
mod queue;

pub use chaos::{BatchFate, ChaosPlan, ChaosStats};
pub use request::{
    Admission, Answer, Curve, DegradeInfo, Outcome, QueryKind, RejectReason, ReplyStats, Request,
    Response, ServiceError, StageBreakdown, Ticket,
};
pub use service::{LedgerSnapshot, Service, ServiceConfig, ShutdownMode, MAX_BATCH_WIDTH};
