//! Request/reply types of the service front-end.
//!
//! A [`Request`] names a registered Hamiltonian by its content
//! fingerprint and asks for one of the three spectral quantities the
//! solver produces (DOS, LDOS, Green function). Submission yields an
//! [`Admission`]: either a [`Ticket`] whose channel will receive
//! *exactly one* terminal [`Response`] — success, degraded, or typed
//! error — or an explicit backpressure rejection carrying a
//! `retry_after` hint. No admitted request is ever silently dropped;
//! the [`crate::Ledger`] pins that invariant down.

use std::sync::mpsc;
use std::time::Duration;

use kpm_core::dos::DosCurve;
use kpm_core::green::GreenCurve;
use kpm_core::kernels::Kernel;
use kpm_core::moments::MomentSet;
use kpm_num::KpmError;

/// Which spectral quantity a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Density of states: stochastic trace over `num_random` seeded
    /// random vectors.
    Dos {
        /// Seed of the random starting vectors.
        seed: u64,
        /// Number of random vectors `R` contributed to the trace.
        num_random: usize,
    },
    /// Local density of states of one lattice site (all four orbitals).
    Ldos {
        /// Site index (row block `4*site .. 4*site+4`).
        site: usize,
    },
    /// Retarded Green function `G(E + i0)` — same moments as
    /// [`QueryKind::Dos`], different reconstruction.
    Green {
        /// Seed of the random starting vectors.
        seed: u64,
        /// Number of random vectors `R` contributed to the trace.
        num_random: usize,
    },
}

impl QueryKind {
    /// The SLO/metrics route name of the query kind.
    pub fn route(&self) -> &'static str {
        match self {
            QueryKind::Dos { .. } => "dos",
            QueryKind::Ldos { .. } => "ldos",
            QueryKind::Green { .. } => "green",
        }
    }

    /// How many block-vector columns this query contributes to a batch.
    pub fn columns(&self) -> usize {
        match *self {
            QueryKind::Dos { num_random, .. } | QueryKind::Green { num_random, .. } => num_random,
            QueryKind::Ldos { .. } => crate::service::LDOS_ORBITALS,
        }
    }

    /// Hash of the starting-vector specification: queries with equal
    /// spec (and matrix) run the identical Chebyshev recurrence, so
    /// their moments are interchangeable. DOS and Green share specs on
    /// purpose — they differ only in reconstruction.
    pub(crate) fn start_spec(&self) -> u64 {
        match *self {
            QueryKind::Dos { seed, num_random } | QueryKind::Green { seed, num_random } => {
                splitmix(0x7ace ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ num_random as u64)
            }
            QueryKind::Ldos { site } => {
                splitmix(0x51fe ^ (site as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            }
        }
    }
}

/// One round of the splitmix64 mixer (shared idiom with the seeded
/// fault plans).
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stable route key for the damping kernel (the `Kernel` enum is not
/// `Eq`/`Hash` because of the Lorentz parameter).
pub(crate) fn kernel_key(k: Kernel) -> u64 {
    match k {
        Kernel::Jackson => 1,
        Kernel::Dirichlet => 2,
        Kernel::Lorentz(lambda) => 3 ^ lambda.to_bits().rotate_left(8),
    }
}

/// One spectral query against a registered Hamiltonian.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Content fingerprint of the registered matrix
    /// (`KpmMatrix::content_fingerprint`, returned by
    /// `Service::register_matrix`).
    pub matrix: u64,
    /// The spectral quantity to compute.
    pub kind: QueryKind,
    /// Requested Chebyshev moment count `M` (even, ≥ 2).
    pub num_moments: usize,
    /// Damping kernel applied at reconstruction.
    pub kernel: Kernel,
    /// Energy sample points of the reconstructed curve (≥ 2).
    pub points: usize,
    /// Wall-clock budget from admission to reply; `None` uses the
    /// service default.
    pub deadline: Option<Duration>,
}

/// The outcome of [`crate::Service::submit`].
#[derive(Debug)]
pub enum Admission {
    /// The request is in the queue; the ticket's channel will receive
    /// exactly one terminal [`Response`].
    Admitted(Ticket),
    /// Explicit backpressure — the request was *not* accepted and no
    /// reply will ever arrive. Resubmit no sooner than `retry_after`.
    Rejected {
        /// Client-side backoff hint derived from queue depth and the
        /// observed solve rate.
        retry_after: Duration,
        /// Why admission was refused.
        reason: RejectReason,
    },
}

/// Why a request was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue is at capacity.
    QueueFull,
    /// The request's deadline is already unmeetable at admission time.
    PastDeadline,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
}

/// Handle to an admitted request.
#[derive(Debug)]
pub struct Ticket {
    /// Service-assigned request id (monotonic per service).
    pub id: u64,
    /// Receives the single terminal [`Response`].
    pub rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Blocks until the terminal response arrives. Returns `None` only
    /// if the service was torn down without replying — which the chaos
    /// suite proves never happens for admitted requests.
    pub fn wait(&self) -> Option<Response> {
        self.rx.recv().ok()
    }

    /// Bounded wait; `None` on timeout or disconnect.
    pub fn wait_timeout(&self, d: Duration) -> Option<Response> {
        self.rx.recv_timeout(d).ok()
    }
}

/// The single terminal reply of an admitted request.
#[derive(Debug)]
pub struct Response {
    /// The request id from the [`Ticket`].
    pub id: u64,
    /// Success, degraded success, or typed failure.
    pub outcome: Outcome,
    /// Per-request lifecycle accounting.
    pub stats: ReplyStats,
}

impl Response {
    /// True if the outcome carries an answer (possibly degraded).
    pub fn is_answered(&self) -> bool {
        !matches!(self.outcome, Outcome::Failed(_))
    }

    /// True if the outcome is explicitly degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self.outcome, Outcome::Degraded { .. })
    }
}

/// Terminal outcome kinds — exactly one of these per admitted request.
#[derive(Debug)]
pub enum Outcome {
    /// Full-quality answer at the requested `M`.
    Success(Answer),
    /// A valid but reduced-accuracy answer (truncated `M` and/or served
    /// from the moment cache), with the accuracy loss quantified.
    Degraded {
        /// The reduced-accuracy answer.
        answer: Answer,
        /// What was degraded and by how much.
        info: DegradeInfo,
    },
    /// Typed failure; no answer.
    Failed(ServiceError),
}

/// A computed answer: the reconstructed curve plus the moments behind
/// it (the moments are what the bitwise-determinism contract is stated
/// over).
#[derive(Debug, Clone)]
pub struct Answer {
    /// The reconstructed spectral curve.
    pub curve: Curve,
    /// The Chebyshev moments the curve was reconstructed from.
    pub moments: MomentSet,
}

/// The reconstructed curve, by query kind.
#[derive(Debug, Clone)]
pub enum Curve {
    /// Density of states.
    Dos(DosCurve),
    /// Local density of states of the requested site.
    Ldos(DosCurve),
    /// Retarded Green function.
    Green(GreenCurve),
}

/// Quantifies a degraded answer: the broadening penalty of answering
/// with fewer moments (Jackson main-lobe width `≈ π/M`; Lin, Saad &
/// Yang, arXiv:1308.5467).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeInfo {
    /// The `M` the client asked for.
    pub requested_moments: usize,
    /// The `M` actually served.
    pub served_moments: usize,
    /// Additional energy broadening (in Chebyshev units):
    /// `π/served − π/requested`.
    pub extra_broadening: f64,
    /// True when the answer came from the moment cache instead of a
    /// fresh solve.
    pub from_cache: bool,
}

impl DegradeInfo {
    /// Builds the annotation for serving `served` of `requested`
    /// moments.
    pub(crate) fn new(requested: usize, served: usize, from_cache: bool) -> Self {
        let pi = std::f64::consts::PI;
        Self {
            requested_moments: requested,
            served_moments: served,
            extra_broadening: (pi / served as f64 - pi / requested as f64).max(0.0),
            from_cache,
        }
    }
}

/// Typed terminal failures of the service runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The solver failed with a non-retryable error.
    Solver(KpmError),
    /// The deadline budget expired before an answer could be produced.
    DeadlineExceeded {
        /// Where the budget ran out: `"queued"` or `"solve"`.
        stage: &'static str,
    },
    /// The circuit breaker for this (matrix, kernel) route is open.
    CircuitOpen {
        /// How long until the breaker admits a trial request again.
        cooldown: Duration,
    },
    /// All retry attempts were consumed by transient failures.
    RetriesExhausted {
        /// Total attempts made (including the first).
        attempts: u32,
        /// The final transient error, rendered to text.
        last_error: String,
    },
    /// The service shut down before the request could be served.
    Shutdown,
    /// The request named a fingerprint no registered matrix carries.
    UnknownMatrix {
        /// The unknown fingerprint.
        fingerprint: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Solver(e) => write!(f, "solver error: {e}"),
            ServiceError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded while {stage}")
            }
            ServiceError::CircuitOpen { cooldown } => {
                write!(f, "circuit open; retry in {} ms", cooldown.as_millis())
            }
            ServiceError::RetriesExhausted {
                attempts,
                last_error,
            } => write!(f, "gave up after {attempts} attempt(s): {last_error}"),
            ServiceError::Shutdown => write!(f, "service is shutting down"),
            ServiceError::UnknownMatrix { fingerprint } => {
                write!(
                    f,
                    "no registered matrix with fingerprint {fingerprint:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<KpmError> for ServiceError {
    fn from(e: KpmError) -> Self {
        match e {
            KpmError::DeadlineExceeded { .. } => ServiceError::DeadlineExceeded { stage: "solve" },
            other => ServiceError::Solver(other),
        }
    }
}

/// Per-request lifecycle accounting carried on every reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplyStats {
    /// Trace id minted at admission (0 when tracing is disabled). The
    /// same id tags every span of this request in the observability
    /// registry, so a slow reply can be looked up in the trace export
    /// or flight-recorder dump.
    pub trace: u64,
    /// Exact per-stage latency breakdown; the stages tile the
    /// admission-to-reply interval, so `stages.total_us()` equals the
    /// end-to-end latency.
    pub stages: StageBreakdown,
    /// Time from admission to batch formation.
    pub queue_wait: Duration,
    /// Time spent in the (final) solve attempt; zero for cache hits.
    pub solve: Duration,
    /// Transient-failure retries consumed by the carrying batch.
    pub retries: u32,
    /// True if the carrying batch was hedged (re-dispatched while a
    /// straggling attempt was still running).
    pub hedged: bool,
    /// True if the answer came from the moment cache.
    pub cache_hit: bool,
    /// Requested columns of the carrying batch (0 for cache/immediate
    /// replies); the zero lanes the solver pads with are not counted.
    pub batch_width: usize,
}

/// Exact per-stage latency breakdown of one request, in microseconds.
///
/// The four stages partition the admission-to-reply interval with no
/// gaps or overlap: *queue* (admission until the batcher seals the
/// request into a batch — which waits for a free worker — or answers
/// it inline), *batch* (hand-off, retry backoffs), *solve* (the final
/// solve attempt), *reply* (reconstruction and delivery). Stages a
/// request never reached are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Admission → batch formation (or inline answer).
    pub queue_us: f64,
    /// Batch formation → solve start (hand-off, backoff, chaos
    /// delays).
    pub batch_us: f64,
    /// The final solve attempt.
    pub solve_us: f64,
    /// Solve end (or last reached stage) → terminal reply delivered.
    pub reply_us: f64,
}

impl StageBreakdown {
    /// Sum of all stages — equals the end-to-end latency by
    /// construction.
    pub fn total_us(&self) -> f64 {
        self.queue_us + self.batch_us + self.solve_us + self.reply_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dos_and_green_share_start_specs() {
        let d = QueryKind::Dos {
            seed: 9,
            num_random: 3,
        };
        let g = QueryKind::Green {
            seed: 9,
            num_random: 3,
        };
        assert_eq!(d.start_spec(), g.start_spec());
        let other = QueryKind::Dos {
            seed: 10,
            num_random: 3,
        };
        assert_ne!(d.start_spec(), other.start_spec());
    }

    #[test]
    fn degrade_info_quantifies_broadening() {
        let info = DegradeInfo::new(128, 32, false);
        assert!(info.extra_broadening > 0.0);
        let exact = std::f64::consts::PI / 32.0 - std::f64::consts::PI / 128.0;
        assert!((info.extra_broadening - exact).abs() < 1e-15);
        assert!(!info.from_cache);
    }

    #[test]
    fn deadline_solver_errors_map_to_service_deadline() {
        let e: ServiceError = KpmError::DeadlineExceeded { iteration: 3 }.into();
        assert_eq!(e, ServiceError::DeadlineExceeded { stage: "solve" });
    }
}
