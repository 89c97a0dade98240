//! Offline stand-in for the slice of the `rayon` API this workspace
//! uses, backed by a fixed `std::thread` team.
//!
//! `par_iter`/`par_chunks`/… return indexed parallel iterators whose
//! combinator chains (`zip`, `enumerate`, `map`, `for_each`, `sum`,
//! `collect`) compile as they would against `rayon` and execute on a
//! team of threads, the calling one among them: the index space of each
//! job is cut into equal ranges that the team's members claim off one
//! atomic cursor (the `pool` module has the protocol). Thread count
//! comes from, in order of precedence: an installed [`ThreadPool`], the
//! `KPM_THREADS` environment variable, `std::thread::available_parallelism`.
//!
//! Ordered drivers (`collect`, `sum`) keep range k's results in slot k,
//! so collected values are independent of scheduling; the KPM kernels
//! build on that to keep their floating-point reductions
//! bitwise-identical across thread counts (see DESIGN.md §10).

mod iter;
mod pool;

pub use iter::{
    Enumerate, FromParallelIterator, IntoParallelIterator, Map, ParChunks, ParChunksMut, ParIter,
    ParIterMut, ParRange, ParallelIterator, Zip,
};
pub use pool::MAX_THREADS;

/// Number of threads `par_*` calls on this thread will use: the
/// innermost installed [`ThreadPool`]'s size, else the global pool's
/// (`KPM_THREADS` or host parallelism).
pub fn current_num_threads() -> usize {
    pool::current_registry().num_threads()
}

/// Error type returned by [`ThreadPoolBuilder::build`]: more threads
/// were requested than [`MAX_THREADS`], or the OS refused to start a
/// worker (the workers already started have been joined).
#[derive(Debug)]
pub struct ThreadPoolBuildError(std::io::Error);

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the team size, calling thread included; 0 (the default)
    /// means `KPM_THREADS` or host parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => pool::ambient_threads(),
            n => n,
        };
        let (registry, workers) = pool::Registry::new(threads).map_err(ThreadPoolBuildError)?;
        Ok(ThreadPool { registry, workers })
    }
}

/// A team of `num_threads − 1` parked OS threads that the thread
/// calling a `par_*` driver joins for the length of its job. `install`
/// makes the pool current for the duration of a closure; dropping the
/// pool joins its workers.
pub struct ThreadPool {
    registry: std::sync::Arc<pool::Registry>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.registry.num_threads())
            .finish()
    }
}

impl ThreadPool {
    /// Runs `op` with this pool as the target of every nested `par_*`
    /// call (the closure itself runs on the calling thread).
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let _guard = pool::InstallGuard::push(std::sync::Arc::clone(&self.registry));
        op()
    }

    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

pub mod prelude {
    //! Extension traits giving slices and `Vec`s the `par_*` methods,
    //! plus the parallel-iterator traits themselves.

    pub use crate::iter::{FromParallelIterator, IntoParallelIterator, ParallelIterator};
    use crate::iter::{ParChunks, ParChunksMut, ParIter, ParIterMut};

    /// `par_iter`/`par_chunks` on shared slices.
    pub trait ParallelSlice<T: Sync> {
        fn par_iter(&self) -> ParIter<'_, T>;
        fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> ParIter<'_, T> {
            ParIter::new(self)
        }

        fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
            ParChunks::new(self, chunk_size)
        }
    }

    /// `par_iter_mut`/`par_chunks_mut` on mutable slices.
    pub trait ParallelSliceMut<T: Send> {
        fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
            ParIterMut::new(self)
        }

        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            ParChunksMut::new(self, chunk_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    #[allow(clippy::useless_vec)] // exercising Vec receivers specifically
    fn par_iter_matches_iter() {
        let v = vec![1, 2, 3, 4];
        let s: i32 = v.par_iter().sum();
        assert_eq!(s, 10);
    }

    #[test]
    fn par_chunks_mut_writes_through() {
        let mut v = vec![0u32; 8];
        v.par_chunks_mut(3)
            .enumerate()
            .for_each(|(i, c)| c.iter_mut().for_each(|x| *x = i as u32));
        assert_eq!(v, [0, 0, 0, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn pool_installs_on_caller() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        assert_eq!(pool.install(|| 7), 7);
        assert_eq!(pool.current_num_threads(), 4);
        assert!(super::current_num_threads() >= 1);
    }

    /// Runs `test` on a thread of its own and fails, instead of
    /// hanging, when it has not finished after a minute: a protocol
    /// that loses a wake-up, or waits for a team it is part of, never
    /// finishes.
    pub(crate) fn watchdog(test: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            test();
            let _ = done_tx.send(());
        });
        if done_rx.recv_timeout(Duration::from_secs(60)) == Err(RecvTimeoutError::Timeout) {
            panic!("the pool hung");
        }
        // Finished, or panicked and dropped the sender: the join tells.
        if let Err(payload) = runner.join() {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn a_team_of_n_is_the_caller_plus_at_most_n_minus_one_threads() {
        // 64 items on a team of four are 16 ranges. Each side — the
        // caller, the workers — holds the range it is in until the other
        // side has shown up, so neither can drain the job alone: a pool
        // whose caller only waits, or whose workers never wake, hangs.
        watchdog(|| {
            let pool = super::ThreadPoolBuilder::new()
                .num_threads(4)
                .build()
                .unwrap();
            let caller = std::thread::current().id();
            let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
            let (caller_in, worker_in) = (AtomicBool::new(false), AtomicBool::new(false));
            pool.install(|| {
                (0..64).into_par_iter().for_each(|_| {
                    let me = std::thread::current().id();
                    ids.lock().unwrap().insert(me);
                    let (mine, theirs) = if me == caller {
                        (&caller_in, &worker_in)
                    } else {
                        (&worker_in, &caller_in)
                    };
                    mine.store(true, Ordering::SeqCst);
                    while !theirs.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            let ids = ids.into_inner().unwrap();
            assert!((2..=4).contains(&ids.len()), "a team of 4 ran on {ids:?}");
            assert!(ids.contains(&caller));
        });
    }

    #[test]
    fn a_second_submitter_runs_its_job_on_its_own_thread() {
        // Thread A's job holds the team (its item 0 does not return)
        // until thread B has submitted a job to the same pool and seen
        // it finish: B's job must run, whole, on B. A pool that made B
        // wait for the team would hang here.
        watchdog(|| {
            let pool = super::ThreadPoolBuilder::new()
                .num_threads(2)
                .build()
                .unwrap();
            let hits = |n| (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
            let (a_hits, b_hits) = (hits(64), hits(64));
            let (a_started, b_done) = (AtomicBool::new(false), AtomicBool::new(false));
            let b_ran_on = Mutex::new(HashSet::new());
            let b = std::thread::scope(|s| {
                s.spawn(|| {
                    pool.install(|| {
                        a_hits.par_iter().enumerate().for_each(|(i, h)| {
                            h.fetch_add(1, Ordering::SeqCst);
                            if i == 0 {
                                a_started.store(true, Ordering::SeqCst);
                                while !b_done.load(Ordering::SeqCst) {
                                    std::thread::yield_now();
                                }
                            }
                        });
                    });
                });
                let b = s.spawn(|| {
                    while !a_started.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    pool.install(|| {
                        b_hits.par_iter().for_each(|h| {
                            h.fetch_add(1, Ordering::SeqCst);
                            b_ran_on.lock().unwrap().insert(std::thread::current().id());
                        });
                    });
                    b_done.store(true, Ordering::SeqCst);
                    std::thread::current().id()
                });
                b.join().unwrap()
            });
            let once = |hits: &[AtomicUsize]| hits.iter().all(|h| h.load(Ordering::SeqCst) == 1);
            assert!(once(&a_hits) && once(&b_hits));
            assert_eq!(b_ran_on.into_inner().unwrap(), HashSet::from([b]));
        });
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let inner = super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        outer.install(|| {
            assert_eq!(super::current_num_threads(), 2);
            inner.install(|| assert_eq!(super::current_num_threads(), 3));
            assert_eq!(super::current_num_threads(), 2);
        });
    }

    #[test]
    fn for_each_visits_every_element_once() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        let hits: Vec<AtomicUsize> = (0..100_000).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            hits.par_iter().for_each(|h| {
                h.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn collect_preserves_index_order() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let v: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = pool.install(|| v.par_iter().map(|&x| 2 * x).collect());
        assert_eq!(doubled.len(), v.len());
        assert!(doubled.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn collect_into_result_reports_first_error_in_order() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let got: Result<Vec<usize>, usize> = pool.install(|| {
            (0..1000)
                .into_par_iter()
                .map(|i| if i % 300 == 299 { Err(i) } else { Ok(i) })
                .collect()
        });
        assert_eq!(got, Err(299));
        let ok: Result<Vec<usize>, usize> =
            pool.install(|| (0..100).into_par_iter().map(Ok).collect());
        assert_eq!(ok.unwrap().len(), 100);
    }

    #[test]
    fn zip_stops_at_shorter_side() {
        let a = [1u64, 2, 3, 4, 5];
        let b = [10u64, 20, 30];
        let s: u64 = a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum();
        assert_eq!(s, 10 + 40 + 90);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..1024).into_par_iter().for_each(|i| {
                    if i == 777 {
                        panic!("boom at {i}");
                    }
                });
            });
        }));
        let payload = result.expect_err("parallel panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 777"), "unexpected payload: {msg}");
        // The pool stays usable after a propagated panic.
        let s: usize = pool.install(|| (0..10).into_par_iter().sum());
        assert_eq!(s, 45);
    }

    #[test]
    fn nested_parallelism_runs_inline_on_workers() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        // Outer par over 4 items, each spawning an inner par job: the
        // inner jobs must not deadlock (workers execute them inline).
        let total = AtomicUsize::new(0);
        pool.install(|| {
            (0..4).into_par_iter().for_each(|_| {
                let inner: usize = (0..100).into_par_iter().sum();
                total.fetch_add(inner, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 4 * 4950);
    }
}
