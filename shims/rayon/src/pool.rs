//! The execution engine behind the `par_*` surface: one team, one job,
//! one cursor.
//!
//! A [`Registry`] of N threads is the thread that calls [`Registry::run`]
//! plus N − 1 parked workers — an OpenMP team. A job lives on its
//! caller's stack: the range body, the length, the grain and an atomic
//! cursor. The caller publishes it in the registry's one job slot and
//! wakes the workers; every member of the team, the caller included,
//! claims range k = `[k·grain, (k+1)·grain)` with one `fetch_add` on the
//! cursor until the length is passed. The caller then waits until no
//! worker is inside the job, empties the slot and returns, so range
//! bodies may borrow the caller's stack freely.
//!
//! The whole protocol is one mutex (slot, epoch, count of workers
//! inside, shutdown flag), two condvars (workers wait for an epoch,
//! the caller for the count to reach zero) and the cursor. A caller
//! that finds the slot taken by another caller's job, a nested call
//! from inside a range body and a one-thread registry all run
//! `body(0, len)` on the spot: that is the serial path.
//!
//! Determinism note: which thread runs which range is
//! scheduling-dependent, where ranges are cut is not (a pure function
//! of length and team size), and neither reaches a result — ordered
//! reductions put range k's part into slot k, and the KPM kernels put
//! their floating-point partial sums on fixed chunk boundaries chosen
//! by the *caller*, not by this pool.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// The range body of one parallel job.
type Body<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// The body of one worker thread, as handed to the OS.
type Worker = Box<dyn FnOnce() + Send>;

/// Most threads one registry will run on. A thread costs a stack and a
/// handful of memory mappings, and a process that runs out of mappings
/// is aborted from inside the new thread's start-up code (observed near
/// 16,000 threads on Linux defaults) — past any `Result` this crate
/// could return. No host this workspace targets has use for a pool this
/// wide.
pub const MAX_THREADS: usize = 1024;

thread_local! {
    /// True while this thread executes range bodies of a job: nested
    /// `run` calls execute inline instead of re-entering the (busy)
    /// team.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
    /// Stack of registries pushed by `ThreadPool::install`.
    static INSTALLED: std::cell::RefCell<Vec<Arc<Registry>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// One parallel job, on the stack of the thread that called `run`.
struct Job<'a> {
    body: &'a Body<'a>,
    len: usize,
    /// Range k is `[k·grain, (k+1)·grain)`, the last one clipped to `len`.
    grain: usize,
    /// The cursor: index of the next unclaimed range.
    next: AtomicUsize,
    /// First captured panic payload, re-thrown on the calling thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and executes ranges until the cursor has passed `len`.
    /// Never unwinds: a panicking body is caught and kept for the caller.
    fn work(&self) {
        IN_JOB.set(true);
        loop {
            // Relaxed: the cursor only hands out indices. The job's
            // fields reach the workers, and what the bodies wrote reaches
            // the caller, through the registry's state mutex.
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(lo) = k.checked_mul(self.grain).filter(|&lo| lo < self.len) else {
                break;
            };
            let hi = lo.saturating_add(self.grain).min(self.len);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(lo, hi))) {
                relock(self.panic.lock()).get_or_insert(payload);
            }
        }
        IN_JOB.set(false);
    }
}

/// What the state mutex guards.
struct State {
    /// The job slot; taken means the team is busy.
    job: Option<&'static Job<'static>>,
    /// Bumped with every publication, so a worker enters a job once.
    epoch: u64,
    /// Workers currently inside the published job.
    inside: usize,
    shutdown: bool,
}

/// A team: the calling thread plus `threads − 1` parked workers.
pub(crate) struct Registry {
    threads: usize,
    state: Mutex<State>,
    /// Workers wait here for a new epoch or shutdown.
    work_cv: Condvar,
    /// The caller waits here for `inside` to reach zero.
    done_cv: Condvar,
}

/// A guard whatever the poison flag says. Every critical section in this
/// module is a few scalar assignments that cannot panic half-way, so the
/// data is valid at every step — and the protocol must not unwind
/// between publishing a job and retiring it.
fn relock<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Creates a registry of `threads` (0 means 1) and spawns its
    /// `threads − 1` workers. With one thread nothing is spawned: `run`
    /// executes inline and semantics are exactly serial.
    ///
    /// Fails when `threads` exceeds [`MAX_THREADS`] or the OS refuses a
    /// worker; the workers already started are shut down and joined
    /// before the error is returned.
    pub(crate) fn new(threads: usize) -> std::io::Result<(Arc<Registry>, Vec<JoinHandle<()>>)> {
        Self::new_with(threads, &mut |builder, worker| builder.spawn(worker))
    }

    /// [`Registry::new`] with the OS call that starts a worker as a
    /// parameter, so a test can make it fail.
    fn new_with(
        threads: usize,
        spawn: &mut dyn FnMut(std::thread::Builder, Worker) -> std::io::Result<JoinHandle<()>>,
    ) -> std::io::Result<(Arc<Registry>, Vec<JoinHandle<()>>)> {
        let n = threads.max(1);
        if n > MAX_THREADS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{n} threads requested, at most {MAX_THREADS} supported"),
            ));
        }
        let registry = Arc::new(Registry {
            threads: n,
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                inside: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut handles = Vec::new();
        for id in 1..n {
            let r = Arc::clone(&registry);
            let builder = std::thread::Builder::new().name(format!("kpm-worker-{id}"));
            match spawn(builder, Box::new(move || r.worker_loop())) {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    registry.shutdown();
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok((registry, handles))
    }

    pub(crate) fn num_threads(&self) -> usize {
        self.threads
    }

    /// Asks every worker to exit.
    pub(crate) fn shutdown(&self) {
        relock(self.state.lock()).shutdown = true;
        self.work_cv.notify_all();
    }

    /// Length of the ranges a job of `len` indices is cut into: eight
    /// per team member, so a member that loses its core for a while
    /// costs the team an eighth of its share, not all of it.
    pub(crate) fn grain(&self, len: usize) -> usize {
        (len / (self.threads * 8)).max(1)
    }

    /// Executes `body` over the ranges `[k·grain, (k+1)·grain)` covering
    /// `[0, len)` — on the team when it is free, else as the one range
    /// `[0, len)` on the calling thread — and returns when all of
    /// `[0, len)` has run. Panics from range bodies propagate to the
    /// caller.
    pub(crate) fn run(&self, len: usize, body: &Body<'_>) {
        if len == 0 {
            return;
        }
        if self.threads <= 1 || len == 1 || IN_JOB.get() {
            // Serial registry, trivial job, or nested parallelism from
            // inside a range body (the outer job already owns the team).
            body(0, len);
            return;
        }
        let job = Job {
            body,
            len,
            grain: self.grain(len),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        {
            let mut st = relock(self.state.lock());
            if st.job.is_some() {
                // Another caller's job has the team.
                drop(st);
                body(0, len);
                return;
            }
            // SAFETY: the erased reference does not outlive `job`. A
            // worker copies it out of the slot only while holding the
            // state mutex, and counts itself into `inside` in that same
            // critical section; this function empties the slot under the
            // state mutex in the critical section in which it saw
            // `inside == 0`, after which no worker holds the reference
            // or can obtain it. Nothing between here and there unwinds:
            // `Job::work` catches the bodies' panics and `relock` ignores
            // poison.
            st.job = Some(unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(&job) });
            st.epoch += 1;
        }
        self.work_cv.notify_all();
        job.work();
        let mut st = relock(self.state.lock());
        while st.inside > 0 {
            st = relock(self.done_cv.wait(st));
        }
        st.job = None;
        drop(st);
        if let Some(payload) = relock(job.panic.into_inner()) {
            resume_unwind(payload);
        }
    }

    /// Worker body: sleep until a job is published under an epoch not
    /// seen yet, work in it, report back.
    fn worker_loop(&self) {
        let mut seen = 0;
        let mut st = relock(self.state.lock());
        while !st.shutdown {
            if st.epoch == seen {
                st = relock(self.work_cv.wait(st));
                continue;
            }
            seen = st.epoch;
            if let Some(job) = st.job {
                st.inside += 1;
                drop(st);
                job.work();
                st = relock(self.state.lock());
                st.inside -= 1;
                if st.inside == 0 {
                    self.done_cv.notify_one();
                }
            }
        }
    }
}

/// RAII guard for `ThreadPool::install`: pushes a registry onto the
/// calling thread's stack, pops it on drop (also on unwind).
pub(crate) struct InstallGuard;

impl InstallGuard {
    pub(crate) fn push(registry: Arc<Registry>) -> InstallGuard {
        INSTALLED.with(|s| s.borrow_mut().push(registry));
        InstallGuard
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The registry `par_*` calls on this thread execute on: the innermost
/// installed pool if any, else the process-global pool.
pub(crate) fn current_registry() -> Arc<Registry> {
    INSTALLED
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| Arc::clone(global()))
}

/// The process-global registry, sized by `KPM_THREADS` when usable and
/// by `std::thread::available_parallelism` otherwise. Its workers live
/// for the whole process.
fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // A host that refuses the workers still computes, serially: a
        // one-thread registry spawns nothing and cannot fail.
        let (registry, handles) = Registry::new(ambient_threads())
            .or_else(|_| Registry::new(1))
            .expect("a one-thread registry spawns nothing");
        for h in handles {
            // Detach: the global pool is never shut down.
            drop(h);
        }
        registry
    })
}

/// Thread count of a pool nobody sized: `KPM_THREADS` when usable, else
/// the host's parallelism.
pub(crate) fn ambient_threads() -> usize {
    parse_threads(std::env::var("KPM_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Parses a `KPM_THREADS`-style override. Unusable — unset, empty,
/// garbage, zero, above [`MAX_THREADS`] — means "no override", never
/// some other count.
pub(crate) fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|n| (1..=MAX_THREADS).contains(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::watchdog;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("1024")), Some(MAX_THREADS));
        assert_eq!(parse_threads(Some("1025")), None);
        assert_eq!(parse_threads(Some("100000")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn single_thread_registry_runs_inline() {
        let (registry, handles) = Registry::new(1).unwrap();
        assert!(handles.is_empty());
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        registry.run(10, &|lo, hi| {
            assert_eq!((lo, hi), (0, 10));
            seen.lock().unwrap().push(std::thread::current().id());
        });
        assert_eq!(seen.into_inner().unwrap(), vec![caller]);
    }

    #[test]
    fn a_failed_spawn_leaves_no_live_workers() {
        // The fourth worker is refused: the three already running must
        // be shut down and joined before the error comes back.
        let live = Arc::new(AtomicUsize::new(0));
        let mut started = 0;
        let result = Registry::new_with(6, &mut |builder, worker| {
            if started == 3 {
                return Err(std::io::Error::other("no more threads"));
            }
            started += 1;
            let live = Arc::clone(&live);
            live.fetch_add(1, Ordering::SeqCst);
            builder.spawn(move || {
                worker();
                live.fetch_sub(1, Ordering::SeqCst);
            })
        });
        let err = result.err().expect("the refusal must surface");
        assert_eq!(err.to_string(), "no more threads");
        assert_eq!((started, live.load(Ordering::SeqCst)), (3, 0));
    }

    #[test]
    fn oversized_registry_is_refused_before_any_spawn() {
        let mut spawned = 0;
        let result = Registry::new_with(MAX_THREADS + 1, &mut |builder, worker| {
            spawned += 1;
            builder.spawn(worker)
        });
        let err = result.err().expect("too many workers");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(spawned, 0);
    }

    #[test]
    fn ranges_cover_index_space_exactly_once() {
        let (registry, handles) = Registry::new(4).unwrap();
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        registry.run(hits.len(), &|lo, hi| {
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        registry.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn back_to_back_jobs_lose_no_wake_up() {
        // One range per member, 10,000 times over: a worker that misses
        // a publication, or a caller that misses the last worker's
        // report, leaves `run` (or the join below) waiting for ever.
        watchdog(|| {
            for threads in [2, 4] {
                let (registry, handles) = Registry::new(threads).unwrap();
                let hits = AtomicUsize::new(0);
                for job in 1..=10_000 {
                    registry.run(threads, &|lo, hi| {
                        assert_eq!(hi, lo + 1);
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                    assert_eq!(hits.load(Ordering::SeqCst), job * threads);
                }
                registry.shutdown();
                for h in handles {
                    h.join().unwrap();
                }
            }
        });
    }

    #[test]
    fn shutdown_straight_after_the_last_job_joins_every_worker() {
        watchdog(|| {
            let live = Arc::new(AtomicUsize::new(0));
            let (registry, handles) = Registry::new_with(4, &mut |builder, worker| {
                let live = Arc::clone(&live);
                live.fetch_add(1, Ordering::SeqCst);
                builder.spawn(move || {
                    worker();
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .unwrap();
            assert_eq!((handles.len(), live.load(Ordering::SeqCst)), (3, 3));
            registry.run(64, &|_, _| {});
            registry.shutdown();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(live.load(Ordering::SeqCst), 0);
        });
    }

    /// A 16-range job on a team of two in which `culprit` ("caller" or
    /// "worker") panics in every range it claims. The other member holds
    /// the first range it claims until that has happened, so it cannot
    /// drain the job before the culprit has claimed one. The payload
    /// must reach the caller, and the next job must complete.
    fn a_panic_reaches_the_caller_from(culprit: &'static str) {
        watchdog(move || {
            let (registry, handles) = Registry::new(2).unwrap();
            let caller = std::thread::current().id();
            let thrown = AtomicBool::new(false);
            let result = catch_unwind(AssertUnwindSafe(|| {
                registry.run(64, &|lo, _| {
                    let me = if std::thread::current().id() == caller {
                        "caller"
                    } else {
                        "worker"
                    };
                    if me == culprit {
                        thrown.store(true, Ordering::SeqCst);
                        panic!("{me} panicked at {lo}");
                    }
                    while !thrown.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            }));
            let payload = result.expect_err("the panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .expect("a formatted payload");
            assert!(msg.starts_with(culprit), "unexpected payload: {msg}");

            let hits = AtomicUsize::new(0);
            registry.run(64, &|lo, hi| {
                hits.fetch_add(hi - lo, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 64);
            registry.shutdown();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn a_panic_in_a_range_the_caller_claimed_reaches_the_caller() {
        a_panic_reaches_the_caller_from("caller");
    }

    #[test]
    fn a_panic_in_a_range_a_worker_claimed_reaches_the_caller() {
        a_panic_reaches_the_caller_from("worker");
    }
}
