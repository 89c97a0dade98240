//! The work-stealing execution engine behind the `par_*` surface.
//!
//! One [`Registry`] owns a set of OS worker threads, one chunk deque per
//! worker plus a global injector. A parallel job ([`Registry::run`])
//! enters as a single index range `[0, len)`; whichever worker picks it
//! up splits it lazily (halving until the piece is at or below the
//! batch grain) and pushes the upper halves onto its own deque, where
//! idle workers steal them from the cold end. The calling thread blocks
//! until every index has been executed, so range bodies may borrow the
//! caller's stack freely.
//!
//! Determinism note: the *execution* split (which thread runs which
//! range, and where ranges are cut) is scheduling-dependent, and the
//! iterator layer above never lets it affect results — ordered
//! reductions are keyed by range start and re-assembled in index order,
//! and the KPM kernels put their floating-point partial sums on fixed
//! chunk boundaries chosen by the *caller*, not by this pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The lifetime-erased range body of one parallel job.
type Body = dyn Fn(usize, usize) + Sync;

/// The body of one worker thread, as handed to the OS.
type Worker = Box<dyn FnOnce() + Send>;

/// Most workers one registry will start. A thread costs a stack and a
/// handful of memory mappings, and a process that runs out of mappings
/// is aborted from inside the new thread's start-up code (observed near
/// 16,000 threads on Linux defaults) — past any `Result` this crate
/// could return. No host this workspace targets has use for a pool this
/// wide.
pub(crate) const MAX_THREADS: usize = 1024;

thread_local! {
    /// True on pool worker threads: nested `run` calls execute inline
    /// instead of re-entering the (blocked) pool.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Stack of registries pushed by `ThreadPool::install`.
    static INSTALLED: std::cell::RefCell<Vec<Arc<Registry>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// One parallel job: the range body plus completion/panic state.
struct Batch {
    /// The range body. The `'static` lifetime is a lie; see the SAFETY
    /// argument in [`Registry::run`].
    body: &'static Body,
    /// Ranges at or below this length execute without further splits.
    grain: usize,
    /// Indices not yet executed; the batch is complete at zero.
    pending: AtomicUsize,
    /// Set when any range body panicked.
    panicked: AtomicBool,
    /// First captured panic payload, re-thrown on the calling thread.
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion flag + condvar the calling thread blocks on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// A contiguous index range of one batch, queued for execution.
struct Chunk {
    batch: Arc<Batch>,
    lo: usize,
    hi: usize,
}

/// All queues, guarded by one mutex (splits are grain-coarse, so the
/// lock is taken a bounded number of times per job, not per item).
struct Queues {
    /// Per-worker deques: the owner pushes/pops at the back (LIFO,
    /// cache-warm), thieves steal from the front (FIFO, biggest pieces).
    locals: Vec<VecDeque<Chunk>>,
    /// Entry queue for new jobs from non-worker threads.
    injector: VecDeque<Chunk>,
    shutdown: bool,
}

/// A set of worker threads plus their work queues.
pub(crate) struct Registry {
    threads: usize,
    queues: Mutex<Queues>,
    work_cv: Condvar,
}

impl Registry {
    /// Creates a registry with `threads` workers (0 means 1) and spawns
    /// the worker threads. With one thread no workers are spawned at
    /// all: `run` executes inline and semantics are exactly serial.
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
                format!("{n} worker threads requested, at most {MAX_THREADS} supported"),
            ));
        }
        let registry = Arc::new(Registry {
            threads: n,
            queues: Mutex::new(Queues {
                locals: (0..n).map(|_| VecDeque::new()).collect(),
                injector: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let mut handles = Vec::new();
        if n > 1 {
            for id in 0..n {
                let r = Arc::clone(&registry);
                let builder = std::thread::Builder::new().name(format!("kpm-worker-{id}"));
                match spawn(builder, Box::new(move || worker_loop(id, &r))) {
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
        }
        Ok((registry, handles))
    }

    pub(crate) fn num_threads(&self) -> usize {
        self.threads
    }

    /// Asks every worker to exit once the queues are empty.
    pub(crate) fn shutdown(&self) {
        self.queues.lock().expect("pool queues").shutdown = true;
        self.work_cv.notify_all();
    }

    /// Executes `body` over disjoint subranges covering `[0, len)`,
    /// in parallel when this registry has more than one thread, and
    /// blocks until all of `[0, len)` has run. Panics from range bodies
    /// propagate to the caller.
    pub(crate) fn run(self: &Arc<Self>, len: usize, body: &(dyn Fn(usize, usize) + Sync)) {
        if len == 0 {
            return;
        }
        if self.threads <= 1 || len == 1 || IS_WORKER.with(|w| w.get()) {
            // Serial registry, trivial job, or nested parallelism from
            // inside a worker (the outer job already owns the pool):
            // execute inline on the current thread.
            body(0, len);
            return;
        }
        // SAFETY: `Batch` (and thus the erased reference) never outlives
        // this call: every queued `Chunk` holds the only other `Arc`s to
        // the batch, `pending` reaches zero exactly when all chunks have
        // been popped and executed, and we block on `done` below until
        // then — so no worker can touch `body` after `run` returns.
        let body: &'static Body =
            unsafe { std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), &'static Body>(body) };
        let batch = Arc::new(Batch {
            body,
            grain: (len / (self.threads * 8)).max(1),
            pending: AtomicUsize::new(len),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut q = self.queues.lock().expect("pool queues");
            q.injector.push_back(Chunk {
                batch: Arc::clone(&batch),
                lo: 0,
                hi: len,
            });
        }
        self.work_cv.notify_all();
        wait_batch(&batch);
    }

    /// Splits a chunk down to the batch grain (sharing the upper halves
    /// through worker `id`'s deque) and executes the remainder.
    fn execute(&self, id: usize, chunk: Chunk) {
        let Chunk { batch, lo, mut hi } = chunk;
        while hi - lo > batch.grain {
            let mid = lo + (hi - lo) / 2;
            {
                let mut q = self.queues.lock().expect("pool queues");
                q.locals[id].push_back(Chunk {
                    batch: Arc::clone(&batch),
                    lo: mid,
                    hi,
                });
            }
            self.work_cv.notify_one();
            hi = mid;
        }
        let executed = hi - lo;
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| (batch.body)(lo, hi))) {
            if !batch.panicked.swap(true, Ordering::SeqCst) {
                *batch.payload.lock().expect("panic payload") = Some(p);
            }
        }
        if batch.pending.fetch_sub(executed, Ordering::SeqCst) == executed {
            let mut done = batch.done.lock().expect("batch done flag");
            *done = true;
            batch.done_cv.notify_all();
        }
    }
}

/// Worker body: pop own deque from the back, then the injector, then
/// steal from the other workers' fronts; sleep on the condvar when the
/// whole registry is empty.
fn worker_loop(id: usize, registry: &Arc<Registry>) {
    IS_WORKER.with(|w| w.set(true));
    loop {
        let chunk = {
            let mut q = registry.queues.lock().expect("pool queues");
            loop {
                if let Some(c) = pop_any(&mut q, id) {
                    break c;
                }
                if q.shutdown {
                    return;
                }
                q = registry.work_cv.wait(q).expect("pool queues");
            }
        };
        registry.execute(id, chunk);
    }
}

/// Blocks until `batch` completes, then re-throws a captured panic on
/// the calling thread.
fn wait_batch(batch: &Batch) {
    let mut done = batch.done.lock().expect("batch done flag");
    while !*done {
        done = batch.done_cv.wait(done).expect("batch done flag");
    }
    drop(done);
    if batch.panicked.load(Ordering::SeqCst) {
        let payload = batch.payload.lock().expect("panic payload").take();
        match payload {
            Some(p) => resume_unwind(p),
            None => panic!("parallel job panicked"),
        }
    }
}

fn pop_any(q: &mut Queues, id: usize) -> Option<Chunk> {
    if let Some(c) = q.locals[id].pop_back() {
        return Some(c);
    }
    if let Some(c) = q.injector.pop_front() {
        return Some(c);
    }
    let n = q.locals.len();
    for off in 1..n {
        let victim = (id + off) % n;
        if let Some(c) = q.locals[victim].pop_front() {
            return Some(c);
        }
    }
    None
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

/// The process-global registry, sized by `KPM_THREADS` when set (a
/// positive integer) and by `std::thread::available_parallelism`
/// otherwise. Its workers live for the whole process.
fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = parse_threads(std::env::var("KPM_THREADS").ok().as_deref())
            .unwrap_or_else(default_threads);
        // A host that refuses the workers still computes, serially: a
        // one-thread registry spawns nothing and cannot fail.
        let (registry, handles) = Registry::new(threads)
            .or_else(|_| Registry::new(1))
            .expect("a one-thread registry spawns nothing");
        for h in handles {
            // Detach: the global pool is never shut down.
            drop(h);
        }
        registry
    })
}

/// Host parallelism fallback when `KPM_THREADS` is unset.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a `KPM_THREADS`-style override; `None`/empty/zero/garbage all
/// mean "no override".
pub(crate) fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Runs `body` over `[0, len)` on the current registry (installed pool
/// or global); the iterator layer's single entry point.
pub(crate) fn run(len: usize, body: &(dyn Fn(usize, usize) + Sync)) {
    current_registry().run(len, body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
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
}
