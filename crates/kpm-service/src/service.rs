//! The service runtime: admission → batch → solve → reply.
//!
//! Requests wait in the bounded admission queue — the only buffer, so
//! its bound sees the whole backlog — until a worker can start them:
//! the batcher seals a batch only while fewer than `workers` are
//! unfinished, then pops the oldest request and coalesces the
//! same-matrix ones behind it up to `max_batch_width` columns (the
//! paper's stage-2 knob: one matrix stream amortized over many
//! columns). Workers solve with
//! [`kpm_core::solver::kpm_batch_moments`], whose per-column arithmetic
//! is bitwise that of the serial solver for *any* batch composition
//! and thread count — batching changes speed, never
//! results.
//!
//! Robustness machinery around that hot path: per-request deadlines
//! threaded into the solver, retry with exponential backoff + seeded
//! jitter on transient faults, a circuit breaker per (matrix, kernel)
//! route, hedged re-dispatch of straggling batches, and graceful
//! degradation through the moment cache (reduced-`M` answers carry an
//! explicit `degraded` annotation). The [`Ledger`] counts both sides
//! of the core invariant: every admitted request gets exactly one
//! terminal reply, under any chaos schedule, on any shutdown path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use kpm_core::dos::reconstruct;
use kpm_core::green::reconstruct_green;
use kpm_core::moments::MomentSet;
use kpm_core::solver::{batch_lanes, kpm_batch_moments, starting_vectors, KpmParams};
use kpm_num::{Complex64, KpmError, Vector};
use kpm_obs::span::{micros_since_epoch, mint_trace, record_manual, span};
use kpm_obs::{hist as obs_hist, metrics, recorder, slo};
use kpm_sparse::{KpmMatrix, SparseKernels};
use kpm_topo::ScaleFactors;

use crate::breaker::{CircuitBreaker, RouteKey};
use crate::cache::{CacheKey, MomentCache};
use crate::chaos::ChaosPlan;
use crate::queue::{AdmissionQueue, Pending, PopOutcome, PushOutcome};
use crate::request::{
    kernel_key, splitmix, Admission, Answer, Curve, DegradeInfo, Outcome, QueryKind, RejectReason,
    ReplyStats, Request, Response, ServiceError, StageBreakdown, Ticket,
};

/// Epoch-relative µs timestamp for stage accounting; 0 (the "no mark"
/// sentinel) when instrumentation is off, so the disabled path reads no
/// clock.
fn stage_now() -> f64 {
    if kpm_obs::enabled() {
        micros_since_epoch()
    } else {
        0.0
    }
}

/// Stage-boundary timestamps accumulated along a request's path and
/// resolved into a [`StageBreakdown`] at delivery. A zero field means
/// the request never reached that stage.
#[derive(Debug, Clone, Copy, Default)]
struct StageMarks {
    /// When the batcher sealed the request into a batch (or served an
    /// inline fast path).
    batched_us: f64,
    /// When the final solve attempt started.
    solve_start_us: f64,
    /// When the final solve attempt returned.
    solve_end_us: f64,
}

/// Orbitals per lattice site in the topological-insulator models — the
/// column count of one LDOS query (matches `kpm_core::ldos`).
pub(crate) const LDOS_ORBITALS: usize = 4;

/// Lifecycle states of the runtime.
const RUNNING: u8 = 0;
const DRAIN: u8 = 1;
const ABORT: u8 = 2;

/// How the service winds down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop admitting, then serve everything already admitted.
    Drain,
    /// Stop admitting and fail queued requests fast with a typed
    /// `Shutdown` error (in-flight batches still complete).
    Abort,
}

/// Tuning knobs of the service runtime. All fields have serviceable
/// defaults; construct with struct-update syntax from
/// `ServiceConfig::default()`.
#[derive(Debug)]
pub struct ServiceConfig {
    /// Worker threads solving batches.
    pub workers: usize,
    /// Admission-queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Upper bound on batch column width `R`; snapped down to the
    /// largest power of two up to 32 (the paper's sweep widths).
    pub max_batch_width: usize,
    /// How long the batcher waits after the first request of a batch
    /// for coalescing mates to arrive.
    pub batch_window: Duration,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Duration,
    /// Transient-failure retry budget per batch (first attempt not
    /// counted).
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff growth cap.
    pub backoff_max: Duration,
    /// Re-dispatch a batch still unanswered this long after its solve
    /// could start: a batch is sealed only when a worker is free, so
    /// it never ages behind another (`None` disables hedging).
    pub hedge_after: Option<Duration>,
    /// Queue-depth fraction beyond which answers degrade (reduced `M`
    /// or cache) instead of queueing full-quality work.
    pub degrade_at_depth: f64,
    /// Floor for degraded moment counts.
    pub min_degraded_moments: usize,
    /// Consecutive route failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting a trial.
    pub breaker_cooldown: Duration,
    /// Moment-cache entry bound.
    pub cache_capacity: usize,
    /// Solve batches on the ambient thread pool (column-group
    /// parallelism; bitwise-invariant either way).
    pub parallel_solve: bool,
    /// Seed of the retry-jitter RNG.
    pub seed: u64,
    /// Optional chaos injection (tests, soak runs).
    pub chaos: Option<ChaosPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            max_batch_width: 8,
            batch_window: Duration::from_micros(500),
            default_deadline: Duration::from_secs(2),
            max_retries: 3,
            backoff_base: Duration::from_micros(500),
            backoff_max: Duration::from_millis(20),
            hedge_after: Some(Duration::from_millis(100)),
            degrade_at_depth: 0.75,
            min_degraded_moments: 16,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            cache_capacity: 256,
            parallel_solve: true,
            seed: 0,
            chaos: None,
        }
    }
}

/// Monotonic request-lifecycle counters; the chaos suite's invariant
/// is `admitted == replied` after shutdown.
#[derive(Debug, Default)]
pub struct Ledger {
    admitted: AtomicU64,
    replied: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicU64,
    retried: AtomicU64,
    hedged: AtomicU64,
    cache_hits: AtomicU64,
}

/// A point-in-time copy of the [`Ledger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerSnapshot {
    /// Requests admitted into the queue (or answered inline).
    pub admitted: u64,
    /// Terminal replies delivered. Equals `admitted` once the service
    /// has shut down — the never-lose-a-request invariant.
    pub replied: u64,
    /// Requests refused at admission (backpressure / past deadline /
    /// shutdown).
    pub rejected: u64,
    /// Replies that carried `degraded: true`.
    pub degraded: u64,
    /// Transient-failure retries performed.
    pub retried: u64,
    /// Batches hedge-re-dispatched.
    pub hedged: u64,
    /// Replies served from the moment cache.
    pub cache_hits: u64,
}

impl Ledger {
    fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            admitted: self.admitted.load(Ordering::SeqCst),
            replied: self.replied.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            degraded: self.degraded.load(Ordering::SeqCst),
            retried: self.retried.load(Ordering::SeqCst),
            hedged: self.hedged.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
        }
    }
}

impl LedgerSnapshot {
    /// The exactly-one-terminal-reply invariant, checkable after
    /// shutdown.
    pub fn consistent(&self) -> bool {
        self.admitted == self.replied
    }
}

/// A registered Hamiltonian with its spectral scale factors.
#[derive(Debug)]
struct MatrixEntry {
    matrix: KpmMatrix,
    sf: ScaleFactors,
}

/// One request inside a batch: which columns are its, and at what `M`
/// it is served.
struct BatchMember {
    pending: Pending,
    queue_wait: Duration,
    /// When the batcher sealed this member into the batch (µs since
    /// the obs epoch; 0 when tracing is disabled).
    batched_us: f64,
    col_start: usize,
    col_len: usize,
    m_solve: usize,
}

/// A dispatched block solve shared between the batcher (hedging), the
/// worker pool (solving/retries) and duplicates of itself.
struct BatchJob {
    id: u64,
    entry: Arc<MatrixEntry>,
    columns: Vec<Vector>,
    members: Vec<BatchMember>,
    m_max: usize,
    done: AtomicBool,
    attempts: AtomicU32,
    hedged: AtomicBool,
}

struct ServiceInner {
    config: ServiceConfig,
    queue: Arc<AdmissionQueue>,
    matrices: Mutex<HashMap<u64, Arc<MatrixEntry>>>,
    cache: MomentCache,
    breaker: CircuitBreaker,
    ledger: Ledger,
    state: AtomicU8,
    stop_workers: AtomicBool,
    next_id: AtomicU64,
    next_batch: AtomicU64,
    admissions: AtomicU64,
    /// EWMA of batch solve time, feeding `retry_after` hints.
    ewma_solve_ns: AtomicU64,
    /// Batches handed to the workers and not finished; the batcher
    /// seals one only while this is below `workers`.
    dispatched: Mutex<usize>,
    /// Rung by the worker that finishes a batch.
    worker_freed: Condvar,
}

impl ServiceInner {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// Waits up to `tick` for a worker without a batch; true if one is.
    fn worker_is_free(&self, tick: Duration) -> bool {
        let workers = self.config.workers.max(1);
        let busy = self.dispatched.lock().unwrap_or_else(|e| e.into_inner());
        let waited = (self.worker_freed).wait_timeout_while(busy, tick, |busy| *busy >= workers);
        *waited.unwrap_or_else(|e| e.into_inner()).0 < workers
    }

    /// Gives back a batch's place among the dispatched: once per batch,
    /// by whoever set its `done` flag, after its members have replies.
    fn batch_finished(&self) {
        let mut busy = self.dispatched.lock().unwrap_or_else(|e| e.into_inner());
        *busy = busy.saturating_sub(1);
        drop(busy);
        self.worker_freed.notify_one();
    }

    /// Client-side backoff hint: the work already queued divided by the
    /// worker pool's observed solve rate, plus one batch window.
    fn retry_after(&self, depth: usize) -> Duration {
        let per = Duration::from_nanos(self.ewma_solve_ns.load(Ordering::Acquire));
        let workers = self.config.workers.max(1) as u32;
        let backlog = per.saturating_mul(depth as u32 + 1) / workers;
        (self.config.batch_window + backlog).max(Duration::from_millis(1))
    }

    /// Delivers the terminal reply if this caller wins the slot race;
    /// exactly one caller per request ever does. Resolves the stage
    /// marks into the per-stage breakdown and retroactively records the
    /// request's root span plus its four stage spans — the stages tile
    /// `[admission, reply]` exactly, so their sum equals the end-to-end
    /// latency by construction.
    fn deliver(&self, pending: &Pending, outcome: Outcome, stats: ReplyStats, marks: StageMarks) {
        let sender = pending
            .reply
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let Some(tx) = sender else { return };
        let _sp = span("svc.reply", "service")
            .arg("id", pending.id)
            .trace(pending.trace);
        let mut stats = stats;
        stats.trace = pending.trace;
        if matches!(outcome, Outcome::Degraded { .. }) {
            self.ledger.degraded.fetch_add(1, Ordering::SeqCst);
            metrics::counter_inc("svc.degraded");
        }
        if stats.cache_hit {
            self.ledger.cache_hits.fetch_add(1, Ordering::SeqCst);
            metrics::counter_inc("svc.cache_hit");
        }
        if matches!(outcome, Outcome::Failed(_)) {
            metrics::counter_inc("svc.failed");
        }
        metrics::hist_record_ns(
            "svc.latency_ns",
            pending.enqueued_at.elapsed().as_nanos() as u64,
        );
        if pending.trace != 0 {
            let trace = pending.trace;
            let route = pending.req.kind.route();
            let label = match &outcome {
                Outcome::Success(_) => "success",
                Outcome::Degraded { .. } => "degraded",
                Outcome::Failed(_) => "failed",
            };
            let now_us = micros_since_epoch();
            let t0 = pending.admitted_us.min(now_us);
            let t1 = if marks.batched_us > 0.0 {
                marks.batched_us.clamp(t0, now_us)
            } else {
                t0
            };
            let t2 = if marks.solve_start_us > 0.0 {
                marks.solve_start_us.clamp(t1, now_us)
            } else {
                t1
            };
            let t3 = if marks.solve_end_us > 0.0 {
                marks.solve_end_us.clamp(t2, now_us)
            } else {
                t2
            };
            stats.stages = StageBreakdown {
                queue_us: t1 - t0,
                batch_us: t2 - t1,
                solve_us: t3 - t2,
                reply_us: now_us - t3,
            };
            let root = record_manual(
                "svc.request",
                "service",
                trace,
                None,
                t0,
                now_us - t0,
                vec![
                    ("id", pending.id.to_string()),
                    ("route", route.to_string()),
                    ("outcome", label.to_string()),
                ],
            );
            record_manual(
                "svc.stage.queue",
                "service",
                trace,
                root,
                t0,
                t1 - t0,
                vec![],
            );
            record_manual(
                "svc.stage.batch",
                "service",
                trace,
                root,
                t1,
                t2 - t1,
                vec![],
            );
            record_manual(
                "svc.stage.solve",
                "service",
                trace,
                root,
                t2,
                t3 - t2,
                vec![],
            );
            record_manual(
                "svc.stage.reply",
                "service",
                trace,
                root,
                t3,
                now_us - t3,
                vec![],
            );
            let latency_ns = ((now_us - t0) * 1e3).max(0.0) as u64;
            obs_hist::record("svc.latency_ns", latency_ns);
            slo::observe(route, latency_ns);
            recorder::note(
                "svc.terminal",
                trace,
                format_args!("id={} route={route} outcome={label}", pending.id),
            );
        }
        self.ledger.replied.fetch_add(1, Ordering::SeqCst);
        // The client may have dropped its ticket; the reply is still
        // terminal and accounted.
        let _ = tx.send(Response {
            id: pending.id,
            outcome,
            stats,
        });
    }

    /// Cache probe: a full-quality answer if the cache covers the
    /// requested `M`, else (when allowed) the longest degraded prefix
    /// at or above the floor.
    fn cache_answer(
        &self,
        req: &Request,
        allow_degraded: bool,
    ) -> Option<(Arc<MomentSet>, usize, bool)> {
        let key = cache_key(req);
        if let Some(set) = self.cache.lookup(key, req.num_moments) {
            return Some((set, req.num_moments, false));
        }
        if allow_degraded {
            let floor = self.config.min_degraded_moments.max(2);
            if let Some(set) = self.cache.lookup(key, floor) {
                let served = set.len().min(req.num_moments);
                return Some((set, served, served < req.num_moments));
            }
        }
        None
    }

    /// Builds the curve + moments answer for `req` served at
    /// `m_served` moments out of `set`.
    fn make_answer(
        &self,
        entry: &MatrixEntry,
        req: &Request,
        set: &MomentSet,
        m_served: usize,
    ) -> Answer {
        let moments = set.truncated(m_served);
        let sf = entry.sf;
        let curve = match req.kind {
            QueryKind::Dos { .. } => Curve::Dos(reconstruct(&moments, req.kernel, sf, req.points)),
            QueryKind::Ldos { .. } => {
                // Same convention as `kpm_core::ldos::site_ldos`: the
                // per-orbital average rescaled to the 4 local states.
                let mut curve = reconstruct(&moments, req.kernel, sf, req.points);
                for v in &mut curve.values {
                    *v *= LDOS_ORBITALS as f64;
                }
                Curve::Ldos(curve)
            }
            QueryKind::Green { .. } => {
                Curve::Green(reconstruct_green(&moments, req.kernel, sf, req.points))
            }
        };
        Answer { curve, moments }
    }

    /// Replies from the cache if possible. Returns true if a reply was
    /// delivered.
    fn try_cache_reply(
        &self,
        entry: &MatrixEntry,
        pending: &Pending,
        queue_wait: Duration,
        allow_degraded: bool,
        marks: StageMarks,
    ) -> bool {
        let req = &pending.req;
        let Some((set, served, degraded)) = self.cache_answer(req, allow_degraded) else {
            return false;
        };
        let answer = self.make_answer(entry, req, &set, served);
        let outcome = if degraded {
            Outcome::Degraded {
                answer,
                info: DegradeInfo::new(req.num_moments, served, true),
            }
        } else {
            Outcome::Success(answer)
        };
        self.deliver(
            pending,
            outcome,
            ReplyStats {
                queue_wait,
                cache_hit: true,
                batch_width: 0,
                ..ReplyStats::default()
            },
            marks,
        );
        true
    }
}

/// The resilient KPM request runtime. See the module docs for the
/// architecture and [`crate`] docs for a usage sketch.
pub struct Service {
    inner: Arc<ServiceInner>,
    batcher: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Starts the runtime: one batcher thread plus the configured
    /// worker pool.
    pub fn start(config: ServiceConfig) -> Service {
        let queue = Arc::new(AdmissionQueue::new(config.queue_capacity));
        let breaker = CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown);
        let cache = MomentCache::new(config.cache_capacity);
        let workers_n = config.workers.max(1);
        let inner = Arc::new(ServiceInner {
            cache,
            breaker,
            queue,
            ledger: Ledger::default(),
            state: AtomicU8::new(RUNNING),
            stop_workers: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            next_batch: AtomicU64::new(1),
            admissions: AtomicU64::new(0),
            ewma_solve_ns: AtomicU64::new(1_000_000),
            dispatched: Mutex::new(0),
            worker_freed: Condvar::new(),
            matrices: Mutex::new(HashMap::new()),
            config,
        });

        let (job_tx, job_rx) = mpsc::channel::<Arc<BatchJob>>();
        let job_rx = Arc::new(Mutex::new(job_rx));

        let mut workers = Vec::with_capacity(workers_n);
        for w in 0..workers_n {
            let inner_w = Arc::clone(&inner);
            let rx = Arc::clone(&job_rx);
            let tx = job_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("kpm-svc-worker-{w}"))
                .spawn(move || worker_loop(&inner_w, &rx, &tx));
            if let Ok(h) = handle {
                workers.push(h);
            }
        }

        let inner_b = Arc::clone(&inner);
        let batcher = std::thread::Builder::new()
            .name("kpm-svc-batcher".into())
            .spawn(move || batcher_loop(&inner_b, &job_tx))
            .ok();

        Service {
            inner,
            batcher,
            workers,
        }
    }

    /// Registers a Hamiltonian; requests name it by the returned
    /// content fingerprint. Re-registering the same content is a no-op
    /// returning the same fingerprint.
    pub fn register_matrix(&self, matrix: KpmMatrix, sf: ScaleFactors) -> u64 {
        let fp = matrix.content_fingerprint();
        let mut map = self
            .inner
            .matrices
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.entry(fp)
            .or_insert_with(|| Arc::new(MatrixEntry { matrix, sf }));
        fp
    }

    /// Submits a request: explicit backpressure, never blocking.
    ///
    /// Admitted requests are guaranteed exactly one terminal
    /// [`Response`]; rejected requests are guaranteed none.
    pub fn submit(&self, req: Request) -> Admission {
        let inner = &self.inner;
        let _sp = span("svc.admit", "service").arg("matrix", format!("{:#x}", req.matrix));
        if inner.state() != RUNNING {
            inner.ledger.rejected.fetch_add(1, Ordering::SeqCst);
            metrics::counter_inc("svc.rejected");
            return Admission::Rejected {
                retry_after: inner.retry_after(inner.queue.len()),
                reason: RejectReason::ShuttingDown,
            };
        }

        let budget = req.deadline.unwrap_or(inner.config.default_deadline);
        if budget <= inner.config.batch_window {
            // The deadline cannot survive even the coalescing window:
            // reject up front instead of admitting doomed work.
            inner.ledger.rejected.fetch_add(1, Ordering::SeqCst);
            metrics::counter_inc("svc.rejected");
            return Admission::Rejected {
                retry_after: inner.retry_after(inner.queue.len()),
                reason: RejectReason::PastDeadline,
            };
        }

        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = mint_trace();
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let pending = Pending {
            id,
            req,
            trace,
            admitted_us: stage_now(),
            enqueued_at: now,
            deadline_at: now + budget,
            reply: Arc::new(Mutex::new(Some(tx))),
        };
        let ticket = Ticket { id, rx };

        // Structural validation answers inline with a typed error —
        // the request is admitted and replied, keeping the ledger
        // uniform (admitted == replied always holds at shutdown).
        if let Err(e) = self.validate(&req) {
            inner.ledger.admitted.fetch_add(1, Ordering::SeqCst);
            metrics::counter_inc("svc.admitted");
            inner.deliver(
                &pending,
                Outcome::Failed(e),
                ReplyStats::default(),
                StageMarks::default(),
            );
            return Admission::Admitted(ticket);
        }

        match inner.queue.push(pending) {
            PushOutcome::Queued { depth } => {
                inner.ledger.admitted.fetch_add(1, Ordering::SeqCst);
                metrics::counter_inc("svc.admitted");
                metrics::gauge_max("svc.queue_depth", depth as f64);
                let count = inner.admissions.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(chaos) = &inner.config.chaos {
                    if chaos.should_poison_queue(count) {
                        recorder::note("chaos.poison", trace, "admission queue lock poisoned");
                        inner.queue.poison_lock();
                    }
                }
                Admission::Admitted(ticket)
            }
            PushOutcome::Full(p) => {
                // Dropping the returned request also drops its reply
                // sender: the never-handed-out ticket can leak nothing.
                drop(p);
                inner.ledger.rejected.fetch_add(1, Ordering::SeqCst);
                metrics::counter_inc("svc.rejected");
                Admission::Rejected {
                    retry_after: inner.retry_after(inner.config.queue_capacity),
                    reason: RejectReason::QueueFull,
                }
            }
            PushOutcome::Closed(p) => {
                drop(p);
                inner.ledger.rejected.fetch_add(1, Ordering::SeqCst);
                metrics::counter_inc("svc.rejected");
                Admission::Rejected {
                    retry_after: inner.retry_after(inner.queue.len()),
                    reason: RejectReason::ShuttingDown,
                }
            }
        }
    }

    /// Structural request validation (everything checkable without
    /// solving).
    fn validate(&self, req: &Request) -> Result<(), ServiceError> {
        let matrices = self
            .inner
            .matrices
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(entry) = matrices.get(&req.matrix) else {
            return Err(ServiceError::UnknownMatrix {
                fingerprint: req.matrix,
            });
        };
        let n = entry.matrix.nrows();
        drop(matrices);
        if req.num_moments < 2 || !req.num_moments.is_multiple_of(2) {
            return Err(ServiceError::Solver(KpmError::InvalidParams {
                what: "num_moments",
                details: format!("must be even and >= 2 (got {})", req.num_moments),
            }));
        }
        if req.points < 2 {
            return Err(ServiceError::Solver(KpmError::InvalidParams {
                what: "points",
                details: format!("need at least two sample points (got {})", req.points),
            }));
        }
        match req.kind {
            QueryKind::Dos { num_random, .. } | QueryKind::Green { num_random, .. } => {
                if num_random < 1 {
                    return Err(ServiceError::Solver(KpmError::InvalidParams {
                        what: "num_random",
                        details: "need at least one random vector".into(),
                    }));
                }
            }
            QueryKind::Ldos { site } => {
                if LDOS_ORBITALS * site + LDOS_ORBITALS > n {
                    return Err(ServiceError::Solver(KpmError::InvalidParams {
                        what: "site",
                        details: format!(
                            "site {site} needs rows {}..{}, matrix has {n}",
                            LDOS_ORBITALS * site,
                            LDOS_ORBITALS * (site + 1),
                        ),
                    }));
                }
            }
        }
        Ok(())
    }

    /// Current lifecycle counters.
    pub fn ledger(&self) -> LedgerSnapshot {
        self.inner.ledger.snapshot()
    }

    /// Chaos-injection counters, if a plan is configured.
    pub fn chaos_stats(&self) -> Option<crate::chaos::ChaosStats> {
        self.inner.config.chaos.as_ref().map(|c| c.stats())
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.len()
    }

    /// Winds the runtime down and joins every thread. Always returns
    /// with `admitted == replied` in the ledger.
    pub fn shutdown(mut self, mode: ShutdownMode) -> LedgerSnapshot {
        self.shutdown_impl(mode);
        self.inner.ledger.snapshot()
    }

    fn shutdown_impl(&mut self, mode: ShutdownMode) {
        let state = match mode {
            ShutdownMode::Drain => DRAIN,
            ShutdownMode::Abort => ABORT,
        };
        self.inner.state.store(state, Ordering::Release);
        self.inner.queue.close();
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        self.inner.stop_workers.store(true, Ordering::Release);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.batcher.is_some() || !self.workers.is_empty() {
            self.shutdown_impl(ShutdownMode::Abort);
        }
    }
}

/// Largest power-of-two batch width up to 32 (the widths the paper's
/// experiments sweep) not exceeding the configured bound.
fn width_budget(max_batch_width: usize) -> usize {
    let mut best = 1;
    while best < 32 && 2 * best <= max_batch_width {
        best *= 2;
    }
    best
}

/// Exponential backoff with seeded multiplicative jitter in
/// `[0.5, 1.5)` so retries across batches never fall into lockstep.
fn backoff_with_jitter(base: Duration, max: Duration, attempt: u32, seed: u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16)).min(max);
    let draw = (splitmix(seed) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    exp.mul_f64(0.5 + draw)
}

/// Reduced moment count under overload: half the request, even, at
/// least the configured floor, never more than requested.
fn reduced_m(requested: usize, floor: usize) -> usize {
    let half = (requested / 2) & !1;
    half.max(floor.max(2)).min(requested)
}

fn cache_key(req: &Request) -> CacheKey {
    (req.matrix, kernel_key(req.kernel), req.kind.start_spec())
}

fn route_key(req: &Request) -> RouteKey {
    (req.matrix, kernel_key(req.kernel))
}

/// Builds the starting vectors of one query (the solver's own
/// conventions: seeded random unit vectors for trace estimates, orbital
/// unit vectors for LDOS).
fn build_columns(n: usize, kind: QueryKind) -> Vec<Vector> {
    match kind {
        QueryKind::Dos { seed, num_random } | QueryKind::Green { seed, num_random } => {
            starting_vectors(
                n,
                &KpmParams {
                    seed,
                    num_random,
                    ..KpmParams::default()
                },
            )
        }
        QueryKind::Ldos { site } => (0..LDOS_ORBITALS)
            .map(|o| {
                let mut data = vec![Complex64::default(); n];
                data[LDOS_ORBITALS * site + o] = Complex64::real(1.0);
                Vector::from_vec(data)
            })
            .collect(),
    }
}

/// The batcher: pops admitted requests, serves the fast paths (cache,
/// breaker, expired deadlines), coalesces the rest into block solves,
/// and hedges stragglers.
fn batcher_loop(inner: &Arc<ServiceInner>, job_tx: &mpsc::Sender<Arc<BatchJob>>) {
    let tick = Duration::from_millis(2);
    let mut inflight: Vec<(Arc<BatchJob>, Instant)> = Vec::new();
    loop {
        // Late binding: while every worker has a batch, what is queued
        // stays where later requests can join it (shutdown does not wait).
        let popped = if inner.state() == RUNNING && !inner.worker_is_free(tick) {
            PopOutcome::TimedOut
        } else {
            inner.queue.pop_wait(tick)
        };
        match popped {
            PopOutcome::Popped(first) => {
                if inner.state() == ABORT {
                    fail_shutdown(inner, first);
                    for p in inner.queue.drain_all() {
                        fail_shutdown(inner, p);
                    }
                } else {
                    // Coalescing window: let concurrent same-matrix
                    // requests arrive before the batch is sealed.
                    if inner.state() == RUNNING && !inner.config.batch_window.is_zero() {
                        std::thread::sleep(inner.config.batch_window.min(Duration::from_millis(2)));
                    }
                    let budget = width_budget(inner.config.max_batch_width);
                    let first_cols = first.req.kind.columns();
                    let mates = if first_cols < budget {
                        inner
                            .queue
                            .drain_matching(first.req.matrix, budget - first_cols)
                    } else {
                        Vec::new()
                    };
                    let mut group = Vec::with_capacity(1 + mates.len());
                    group.push(first);
                    group.extend(mates);
                    if let Some(job) = form_batch(inner, group) {
                        let job = Arc::new(job);
                        *inner.dispatched.lock().unwrap_or_else(|e| e.into_inner()) += 1;
                        inflight.push((Arc::clone(&job), Instant::now()));
                        if job_tx.send(job).is_err() {
                            // Worker pool is gone (tear-down race):
                            // answer the members typed instead of
                            // losing them.
                            if let Some((job, _)) = inflight.pop() {
                                for m in &job.members {
                                    inner.deliver(
                                        &m.pending,
                                        Outcome::Failed(ServiceError::Shutdown),
                                        ReplyStats::default(),
                                        StageMarks {
                                            batched_us: m.batched_us,
                                            ..StageMarks::default()
                                        },
                                    );
                                }
                                job.done.store(true, Ordering::Release);
                                inner.batch_finished();
                            }
                        }
                    }
                }
            }
            PopOutcome::TimedOut => {}
            PopOutcome::Closed => {
                inflight.retain(|(job, _)| !job.done.load(Ordering::Acquire));
                if inflight.is_empty() {
                    break;
                }
                // Closed pops return immediately; pace the wait for
                // the in-flight batches.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Hedge stragglers and forget completed batches.
        inflight.retain(|(job, _)| !job.done.load(Ordering::Acquire));
        if let Some(hedge_after) = inner.config.hedge_after {
            for (job, dispatched) in &inflight {
                if dispatched.elapsed() >= hedge_after && !job.hedged.swap(true, Ordering::AcqRel) {
                    inner.ledger.hedged.fetch_add(1, Ordering::SeqCst);
                    metrics::counter_inc("svc.hedged");
                    recorder::note(
                        "svc.hedge",
                        job.members.first().map_or(0, |m| m.pending.trace),
                        format_args!("batch={} re-dispatched", job.id),
                    );
                    let _ = job_tx.send(Arc::clone(job));
                }
            }
        }
    }
}

fn fail_shutdown(inner: &ServiceInner, p: Pending) {
    let queue_wait = p.enqueued_at.elapsed();
    inner.deliver(
        &p,
        Outcome::Failed(ServiceError::Shutdown),
        ReplyStats {
            queue_wait,
            ..ReplyStats::default()
        },
        StageMarks {
            batched_us: stage_now(),
            ..StageMarks::default()
        },
    );
}

/// Serves every fast path of the group and forms a batch job from what
/// remains. Returns `None` when every member was answered inline.
fn form_batch(inner: &Arc<ServiceInner>, group: Vec<Pending>) -> Option<BatchJob> {
    let fingerprint = group.first()?.req.matrix;
    let entry = {
        let matrices = inner.matrices.lock().unwrap_or_else(|e| e.into_inner());
        matrices.get(&fingerprint).cloned()
    };
    let Some(entry) = entry else {
        // Registry misses are normally caught at submit; if a race ever
        // got one here, answer it typed rather than dropping it.
        let batched_us = stage_now();
        for p in group {
            inner.deliver(
                &p,
                Outcome::Failed(ServiceError::UnknownMatrix { fingerprint }),
                ReplyStats::default(),
                StageMarks {
                    batched_us,
                    ..StageMarks::default()
                },
            );
        }
        return None;
    };

    let depth = inner.queue.len();
    let overload = depth as f64
        >= (inner.config.queue_capacity as f64 * inner.config.degrade_at_depth).max(1.0);
    let now = Instant::now();
    let now_us = stage_now();
    let marks = StageMarks {
        batched_us: now_us,
        ..StageMarks::default()
    };
    let n = entry.matrix.nrows();

    let mut members: Vec<BatchMember> = Vec::new();
    let mut columns: Vec<Vector> = Vec::new();
    let mut m_max = 0usize;
    for p in group {
        let req = p.req;
        let queue_wait = now.saturating_duration_since(p.enqueued_at);
        metrics::hist_record_ns("svc.queue.wait_ns", queue_wait.as_nanos() as u64);
        obs_hist::record("svc.queue.wait_ns", queue_wait.as_nanos() as u64);

        if now >= p.deadline_at {
            // Expired while queued: a cached (possibly degraded) answer
            // still beats a failure.
            recorder::note(
                "deadline.miss",
                p.trace,
                format_args!("id={} expired in queue after {:?}", p.id, queue_wait),
            );
            recorder::trigger_dump("deadline_miss");
            if !inner.try_cache_reply(&entry, &p, queue_wait, true, marks) {
                inner.deliver(
                    &p,
                    Outcome::Failed(ServiceError::DeadlineExceeded { stage: "queued" }),
                    ReplyStats {
                        queue_wait,
                        ..ReplyStats::default()
                    },
                    marks,
                );
            }
            continue;
        }
        if let Some(cooldown) = inner.breaker.check(route_key(&req)) {
            if !inner.try_cache_reply(&entry, &p, queue_wait, true, marks) {
                inner.deliver(
                    &p,
                    Outcome::Failed(ServiceError::CircuitOpen { cooldown }),
                    ReplyStats {
                        queue_wait,
                        ..ReplyStats::default()
                    },
                    marks,
                );
            }
            continue;
        }
        // Full-quality cache hit — and under overload any usable cached
        // prefix — answers without solving.
        if inner.try_cache_reply(&entry, &p, queue_wait, overload, marks) {
            continue;
        }

        let m_solve = if overload {
            reduced_m(req.num_moments, inner.config.min_degraded_moments)
        } else {
            req.num_moments
        };
        let cols = build_columns(n, req.kind);
        let col_start = columns.len();
        let col_len = cols.len();
        columns.extend(cols);
        m_max = m_max.max(m_solve);
        members.push(BatchMember {
            pending: p,
            queue_wait,
            batched_us: now_us,
            col_start,
            col_len,
            m_solve,
        });
    }

    if members.is_empty() {
        return None;
    }
    let id = inner.next_batch.fetch_add(1, Ordering::Relaxed);
    let _sp = span("svc.batch", "service")
        .trace(members.first().map_or(0, |m| m.pending.trace))
        .arg("batch", id)
        .arg("width", columns.len())
        .arg("members", members.len());
    metrics::counter_inc("svc.batches");
    Some(BatchJob {
        id,
        entry,
        columns,
        members,
        m_max,
        done: AtomicBool::new(false),
        attempts: AtomicU32::new(0),
        hedged: AtomicBool::new(false),
    })
}

/// A worker: solve batches, absorb chaos, retry transients with
/// jittered backoff, deliver terminal replies exactly once.
fn worker_loop(
    inner: &Arc<ServiceInner>,
    job_rx: &Arc<Mutex<mpsc::Receiver<Arc<BatchJob>>>>,
    job_tx: &mpsc::Sender<Arc<BatchJob>>,
) {
    loop {
        let msg = {
            let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv_timeout(Duration::from_millis(1))
        };
        match msg {
            Ok(job) => process_batch(inner, &job, job_tx),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if inner.stop_workers.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

fn process_batch(
    inner: &Arc<ServiceInner>,
    job: &Arc<BatchJob>,
    job_tx: &mpsc::Sender<Arc<BatchJob>>,
) {
    if job.done.load(Ordering::Acquire) {
        return; // stale hedged/retried duplicate
    }
    let attempt = job.attempts.load(Ordering::Relaxed);
    let fate = inner
        .config
        .chaos
        .as_ref()
        .map(|c| c.batch_fate(job.id, attempt))
        .unwrap_or(crate::chaos::BatchFate {
            crash: false,
            slow: None,
        });

    let trace0 = job.members.first().map_or(0, |m| m.pending.trace);
    if fate.crash {
        // Simulated worker crash mid-batch: the attempt dies without a
        // result and the batch re-enters the pool after a jittered
        // backoff — or fails typed once the retry budget is gone.
        let attempts_used = job.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        inner.ledger.retried.fetch_add(1, Ordering::SeqCst);
        metrics::counter_inc("svc.retried");
        recorder::note(
            "chaos.crash",
            trace0,
            format_args!("batch={} attempt={attempt}", job.id),
        );
        recorder::trigger_dump("chaos_crash");
        if attempts_used > inner.config.max_retries {
            if !job.done.swap(true, Ordering::AcqRel) {
                for m in &job.members {
                    inner.deliver(
                        &m.pending,
                        Outcome::Failed(ServiceError::RetriesExhausted {
                            attempts: attempts_used,
                            last_error: KpmError::RankCrashed { rank: 0 }.to_string(),
                        }),
                        member_stats(m, job, Duration::ZERO),
                        member_marks(m, 0.0, 0.0),
                    );
                }
                inner.batch_finished();
            }
            return;
        }
        std::thread::sleep(backoff_with_jitter(
            inner.config.backoff_base,
            inner.config.backoff_max,
            attempts_used,
            inner.config.seed ^ job.id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attempts_used as u64,
        ));
        if job_tx.send(Arc::clone(job)).is_err() && !job.done.swap(true, Ordering::AcqRel) {
            for m in &job.members {
                inner.deliver(
                    &m.pending,
                    Outcome::Failed(ServiceError::Shutdown),
                    member_stats(m, job, Duration::ZERO),
                    member_marks(m, 0.0, 0.0),
                );
            }
            inner.batch_finished();
        }
        return;
    }
    if let Some(delay) = fate.slow {
        recorder::note(
            "chaos.slow",
            trace0,
            format_args!("batch={} delayed {delay:?}", job.id),
        );
        std::thread::sleep(delay);
    }

    let deadline = job
        .members
        .iter()
        .map(|m| m.pending.deadline_at)
        .max()
        .unwrap_or_else(Instant::now);
    let _sp = span("svc.solve", "service")
        .trace(trace0)
        .arg("batch", job.id)
        .arg("rows", job.entry.matrix.nrows())
        .arg("nnz", job.entry.matrix.nnz())
        .arg("width", job.columns.len())
        .arg("lanes", batch_lanes(job.columns.len()))
        .arg("moments", job.m_max);
    let solve_start_us = stage_now();
    let t0 = Instant::now();
    let result = kpm_batch_moments(
        &job.entry.matrix,
        job.entry.sf,
        &job.columns,
        job.m_max,
        inner.config.parallel_solve,
        Some(deadline),
    );
    let solve = t0.elapsed();
    let solve_end_us = stage_now();
    metrics::hist_record_ns("svc.solve_ns", solve.as_nanos() as u64);
    obs_hist::record("svc.solve_ns", solve.as_nanos() as u64);

    if job.done.swap(true, Ordering::AcqRel) {
        return; // a hedged twin answered first (bitwise the same answer)
    }

    match result {
        Ok(col_sets) => {
            // EWMA of solve time feeds the retry_after hint; exported
            // as a gauge so the hint is auditable against measured
            // queue waits.
            let old = inner.ewma_solve_ns.load(Ordering::Acquire);
            let sample = solve.as_nanos() as u64;
            let ewma = old - old / 8 + sample / 8;
            inner.ewma_solve_ns.store(ewma, Ordering::Release);
            metrics::gauge_set("svc.queue.ewma_solve_ns", ewma as f64);
            for m in &job.members {
                let req = &m.pending.req;
                let sets = &col_sets[m.col_start..m.col_start + m.col_len];
                let mut acc = MomentSet::zeros(m.m_solve);
                for s in sets {
                    acc.accumulate(&s.truncated(m.m_solve));
                }
                let set = Arc::new(acc);
                inner
                    .cache
                    .insert_if_better(cache_key(req), Arc::clone(&set));
                let answer = inner.make_answer(&job.entry, req, &set, m.m_solve);
                let outcome = if m.m_solve < req.num_moments {
                    Outcome::Degraded {
                        answer,
                        info: DegradeInfo::new(req.num_moments, m.m_solve, false),
                    }
                } else {
                    Outcome::Success(answer)
                };
                inner.breaker.record_success(route_key(req));
                inner.deliver(
                    &m.pending,
                    outcome,
                    member_stats(m, job, solve),
                    member_marks(m, solve_start_us, solve_end_us),
                );
            }
        }
        Err(KpmError::DeadlineExceeded { .. }) => {
            recorder::note(
                "deadline.miss",
                trace0,
                format_args!("batch={} expired mid-solve", job.id),
            );
            recorder::trigger_dump("deadline_miss");
            for m in &job.members {
                let marks = member_marks(m, solve_start_us, solve_end_us);
                if !inner.try_cache_reply(&job.entry, &m.pending, m.queue_wait, true, marks) {
                    inner.deliver(
                        &m.pending,
                        Outcome::Failed(ServiceError::DeadlineExceeded { stage: "solve" }),
                        member_stats(m, job, solve),
                        marks,
                    );
                }
            }
        }
        Err(e) => {
            for m in &job.members {
                if inner.breaker.record_failure(route_key(&m.pending.req)) {
                    recorder::note(
                        "breaker.open",
                        m.pending.trace,
                        format_args!("route matrix={:#x}: {e}", m.pending.req.matrix),
                    );
                    recorder::trigger_dump("breaker_open");
                }
                inner.deliver(
                    &m.pending,
                    Outcome::Failed(ServiceError::Solver(e.clone())),
                    member_stats(m, job, solve),
                    member_marks(m, solve_start_us, solve_end_us),
                );
            }
        }
    }
    inner.batch_finished();
}

fn member_stats(m: &BatchMember, job: &BatchJob, solve: Duration) -> ReplyStats {
    ReplyStats {
        queue_wait: m.queue_wait,
        solve,
        retries: job.attempts.load(Ordering::Relaxed),
        hedged: job.hedged.load(Ordering::Acquire),
        cache_hit: false,
        batch_width: job.columns.len(),
        ..ReplyStats::default()
    }
}

fn member_marks(m: &BatchMember, solve_start_us: f64, solve_end_us: f64) -> StageMarks {
    StageMarks {
        batched_us: m.batched_us,
        solve_start_us,
        solve_end_us,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn width_budget_is_the_largest_paper_width_within_the_bound() {
        let bounds = [0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 33, 1000];
        let want = [1, 1, 2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 32];
        assert_eq!(bounds.map(super::width_budget), want);
    }
}
