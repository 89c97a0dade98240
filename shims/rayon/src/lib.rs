//! Offline stand-in for the slice of the `rayon` API this workspace
//! uses — now backed by a real `std::thread` work-stealing pool.
//!
//! `par_iter`/`par_chunks`/… return indexed parallel iterators whose
//! combinator chains (`zip`, `enumerate`, `map`, `for_each`, `sum`,
//! `collect`) compile unchanged against the old serial shim, but
//! execute on worker threads: the index space of each job is split
//! lazily into ranges, kept on per-worker deques, and stolen by idle
//! workers ([`pool`]). Thread count comes from, in order of precedence:
//! an installed [`ThreadPool`], the `KPM_THREADS` environment variable,
//! `std::thread::available_parallelism`.
//!
//! Ordered drivers (`collect`, `sum`) re-assemble range results in
//! index order, so collected values are independent of scheduling; the
//! KPM kernels build on that to keep their floating-point reductions
//! bitwise-identical across thread counts (see DESIGN.md §10).

mod iter;
pub mod pool;

pub use iter::{
    Enumerate, FromParallelIterator, IntoParallelIterator, Map, ParChunks, ParChunksMut, ParIter,
    ParIterMut, ParRange, ParallelIterator, Zip,
};

/// Number of threads `par_*` calls on this thread will use: the
/// innermost installed [`ThreadPool`]'s size, else the global pool's
/// (`KPM_THREADS` or host parallelism).
pub fn current_num_threads() -> usize {
    pool::current_registry().num_threads()
}

/// Error type returned by [`ThreadPoolBuilder::build`]: more workers
/// were requested than the pool supports, or the OS refused to start
/// one (the workers already started have been joined).
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

    /// Sets the worker count; 0 (the default) means `KPM_THREADS` or
    /// host parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            pool::parse_threads(std::env::var("KPM_THREADS").ok().as_deref())
                .unwrap_or_else(pool::default_threads)
        } else {
            self.num_threads
        };
        let (registry, workers) = pool::Registry::new(threads).map_err(ThreadPoolBuildError)?;
        Ok(ThreadPool { registry, workers })
    }
}

/// A pool of OS worker threads. `install` makes the pool current for
/// the duration of a closure; dropping the pool joins its workers.
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

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

    #[test]
    fn work_runs_on_multiple_os_threads() {
        // Acceptance check for the work-stealing upgrade: a 4-thread
        // pool must execute ranges on at least two distinct OS threads.
        // One worker *could* race through everything, so items stall
        // briefly and the whole observation retries a few times.
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..50 {
            pool.install(|| {
                (0..64).into_par_iter().for_each(|_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            });
            if ids.lock().unwrap().len() >= 2 {
                break;
            }
        }
        let ids = ids.into_inner().unwrap();
        assert!(ids.len() >= 2, "expected >=2 worker threads, got {ids:?}");
        // Workers are pool threads, not the caller.
        assert!(!ids.contains(&std::thread::current().id()));
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
