//! Offline stand-in for the slice of `rayon` this workspace uses: a
//! fixed `std::thread` team and one chunk primitive on it.
//!
//! [`map_chunks`] takes an input cut into numbered chunks ([`Split`]:
//! an index range, `std`'s slice chunkers and iterators, and pairs and
//! triples of these, whose chunk counts must agree), runs `f(k, chunk)`
//! for every chunk index k on the team — the calling thread among its
//! members, each claiming index ranges off one atomic cursor (the
//! `pool` module has the protocol) — and returns the results in chunk
//! order. Where a caller cuts its chunks is the only thing that decides
//! its floating-point partial sums, so results are independent of the
//! thread count; the KPM kernels build on that to stay bitwise-identical
//! across thread counts (see DESIGN.md §10). Thread count comes from, in
//! order of precedence: an installed [`ThreadPool`], the `KPM_THREADS`
//! environment variable, `std::thread::available_parallelism`.

mod pool;

use std::sync::Mutex;

pub use pool::MAX_THREADS;

/// Number of threads [`map_chunks`] on this thread will use: the
/// innermost installed [`ThreadPool`]'s size, else the global pool's
/// (`KPM_THREADS` or host parallelism).
pub fn current_num_threads() -> usize {
    pool::current_registry().num_threads()
}

/// An input of [`map_chunks`]: something cut into a known number of
/// chunks, each handed out once.
pub trait Split {
    /// What chunk k of the input is.
    type Chunk: Send;

    /// The chunks in index order.
    ///
    /// # Panics
    ///
    /// A pair or triple panics when its parts' chunk counts differ.
    fn into_chunks(self) -> impl ExactSizeIterator<Item = Self::Chunk>;
}

/// Chunk k of an index range is the index `start + k`.
impl Split for std::ops::Range<usize> {
    type Chunk = usize;

    fn into_chunks(self) -> impl ExactSizeIterator<Item = usize> {
        self
    }
}

/// `std`'s slice iterators split as they iterate: `chunks(n)` and
/// `chunks_mut(n)` into `n`-element sub-slices, `iter()` and
/// `iter_mut()` into single elements.
macro_rules! split_as_iterated {
    ($($iter:ident<$a:lifetime, $t:ident: $bound:ident> => $chunk:ty;)*) => {$(
        impl<$a, $t: $bound> Split for std::slice::$iter<$a, $t> {
            type Chunk = $chunk;

            fn into_chunks(self) -> impl ExactSizeIterator<Item = $chunk> {
                self
            }
        }
    )*};
}

split_as_iterated! {
    Chunks<'a, T: Sync> => &'a [T];
    ChunksMut<'a, T: Send> => &'a mut [T];
    Iter<'a, T: Sync> => &'a T;
    IterMut<'a, T: Send> => &'a mut T;
}

impl<A: Split, B: Split> Split for (A, B) {
    type Chunk = (A::Chunk, B::Chunk);

    fn into_chunks(self) -> impl ExactSizeIterator<Item = Self::Chunk> {
        let (a, b) = (self.0.into_chunks(), self.1.into_chunks());
        assert_eq!(a.len(), b.len(), "map_chunks: chunk counts differ");
        a.zip(b)
    }
}

impl<A: Split, B: Split, C: Split> Split for (A, B, C) {
    type Chunk = (A::Chunk, B::Chunk, C::Chunk);

    fn into_chunks(self) -> impl ExactSizeIterator<Item = Self::Chunk> {
        ((self.0, self.1), self.2)
            .into_chunks()
            .map(|((a, b), c)| (a, b, c))
    }
}

/// One chunk's slot in [`map_chunks`]: the chunk until a member claims
/// its index, the result once `f` has returned.
enum Slot<C, R> {
    Chunk(C),
    Running,
    Done(R),
}

/// Runs `f(k, chunk k)` for every chunk of `input` on the current pool
/// and returns the results in chunk order: `Vec<Result<T, E>>` collects
/// into the first `Err` in that order, whoever ran which chunk. A panic
/// in `f` reaches the caller once every claimed chunk has returned. A
/// call from inside `f`, on a one-thread pool or on a pool busy with
/// another caller's job runs every chunk on the calling thread.
pub fn map_chunks<S: Split, R: Send>(input: S, f: impl Fn(usize, S::Chunk) -> R + Sync) -> Vec<R> {
    // Uncontended: the cursor hands out each index once, so only the
    // member that claimed index k locks slot k while the job runs.
    let slots: Vec<Mutex<Slot<S::Chunk, R>>> = input
        .into_chunks()
        .map(|chunk| Mutex::new(Slot::Chunk(chunk)))
        .collect();
    pool::current_registry().run(slots.len(), &|lo, hi| {
        for (k, slot) in (lo..hi).zip(&slots[lo..hi]) {
            let mut slot = pool::relock(slot.lock());
            let Slot::Chunk(chunk) = std::mem::replace(&mut *slot, Slot::Running) else {
                panic!("map_chunks: chunk {k} claimed twice");
            };
            *slot = Slot::Done(f(k, chunk));
        }
    });
    let done = |(k, slot): (usize, Mutex<_>)| match pool::relock(slot.into_inner()) {
        Slot::Done(result) => result,
        _ => panic!("map_chunks: chunk {k} never ran"),
    };
    slots.into_iter().enumerate().map(done).collect()
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
/// calling [`map_chunks`] joins for the length of its job. `install`
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
    /// Runs `op` with this pool as the target of every nested
    /// [`map_chunks`] call (the closure itself runs on the calling
    /// thread).
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

#[cfg(test)]
mod tests {
    use super::{map_chunks, ThreadPool, ThreadPoolBuilder};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Mutex;
    use std::time::Duration;

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
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

    /// `test` on pools of 1, 2 and 4 threads, under the watchdog.
    fn on_teams(test: fn(&ThreadPool)) {
        watchdog(move || {
            for threads in [1, 2, 4] {
                test(&pool(threads));
            }
        });
    }

    #[test]
    fn chunks_mut_writes_through() {
        on_teams(|pool| {
            let mut v = vec![0u32; 8];
            pool.install(|| {
                map_chunks(v.chunks_mut(3), |k, c| c.fill(k as u32));
            });
            assert_eq!(v, [0, 0, 0, 1, 1, 1, 2, 2]);
        });
    }

    #[test]
    fn an_empty_input_runs_nothing_and_a_ragged_one_runs_its_tail() {
        on_teams(|pool| {
            let ran = AtomicUsize::new(0);
            let none: Vec<()> = pool.install(|| {
                map_chunks((&[] as &[u8]).chunks(4), |_, _| {
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            });
            assert!(none.is_empty() && ran.load(Ordering::SeqCst) == 0);
            assert!(pool.install(|| map_chunks(0..0, |k, _| k)).is_empty());
            // 1,000 elements in chunks of 64: fifteen whole, one of 40.
            let v: Vec<u64> = (0..1000).collect();
            let lens = pool.install(|| map_chunks(v.chunks(64), |_, c| c.len()));
            assert_eq!(lens.len(), 16);
            assert!(lens[..15].iter().all(|&n| n == 64) && lens[15] == 40);
        });
    }

    #[test]
    fn three_slices_of_different_chunk_sizes_and_one_count_split_together() {
        // `shift_scale_dots_par`'s shape: two r-column blocks in chunks
        // of c·r entries beside 2·r partials per chunk, the last block
        // chunk ragged.
        on_teams(|pool| {
            let (c, r, rows) = (16, 3, 100);
            let mut w = vec![0u64; rows * r];
            let v: Vec<u64> = (0..(rows * r) as u64).collect();
            let mut partials = vec![0u64; rows.div_ceil(c) * 2 * r];
            pool.install(|| {
                let parts = (
                    w.chunks_mut(c * r),
                    v.chunks(c * r),
                    partials.chunks_mut(2 * r),
                );
                map_chunks(parts, |_, (wc, vc, pc)| {
                    for (wi, vi) in wc.iter_mut().zip(vc) {
                        *wi = 2 * vi;
                    }
                    pc[0] = vc.iter().sum();
                    pc[2 * r - 1] = vc.len() as u64;
                });
            });
            assert!(w.iter().zip(&v).all(|(wi, vi)| *wi == 2 * vi));
            for (k, pc) in partials.chunks(2 * r).enumerate() {
                let vc = &v[k * c * r..((k + 1) * c * r).min(v.len())];
                assert_eq!((pc[0], pc[2 * r - 1]), (vc.iter().sum(), vc.len() as u64));
            }
        });
    }

    #[test]
    fn differing_chunk_counts_panic_before_any_chunk_runs() {
        // Eight elements in chunks of 3 are three chunks, in chunks of 4
        // two: the pair is refused, not cut down to the shorter side.
        on_teams(|pool| {
            let (a, b) = ([1u8; 8], [2u8; 8]);
            let ran = AtomicBool::new(false);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.install(|| {
                    map_chunks((a.chunks(3), b.chunks(4)), |_, _| {
                        ran.store(true, Ordering::SeqCst)
                    })
                })
            }));
            let payload = result.expect_err("differing counts must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("chunk counts differ"),
                "unexpected payload: {msg}"
            );
            assert!(!ran.load(Ordering::SeqCst));
        });
    }

    #[test]
    fn results_come_back_in_chunk_order_and_the_first_err_wins() {
        on_teams(|pool| {
            let doubled = pool.install(|| map_chunks(0..10_000, |k, i| (k, 2 * i)));
            assert!(doubled
                .iter()
                .enumerate()
                .all(|(i, &got)| got == (i, 2 * i)));
            let got: Result<Vec<usize>, usize> = pool
                .install(|| map_chunks(0..1000, |_, i| if i % 300 == 299 { Err(i) } else { Ok(i) }))
                .into_iter()
                .collect();
            assert_eq!(got, Err(299));
            let v: Vec<usize> = (0..100).collect();
            let ok: Result<Vec<usize>, usize> = pool
                .install(|| map_chunks(v.iter(), |_, &i| Ok(i)))
                .into_iter()
                .collect();
            assert_eq!(ok.unwrap(), v);
        });
    }

    #[test]
    fn a_nested_call_runs_inline_on_the_member_that_made_it() {
        // Outer chunks each make an inner call: the team is busy with the
        // outer job, so the inner one runs whole on the thread calling it.
        on_teams(|pool| {
            let sums = pool.install(|| {
                map_chunks(0..4, |_, _| {
                    let me = std::thread::current().id();
                    let inner = map_chunks(0..100, |_, i| (i, std::thread::current().id()));
                    assert!(inner.iter().all(|&(_, id)| id == me));
                    inner.iter().map(|&(i, _)| i).sum::<usize>()
                })
            });
            assert_eq!(sums, [4950; 4]);
        });
    }

    #[test]
    fn every_chunk_runs_once() {
        on_teams(|pool| {
            let mut hits = vec![0u8; 100_000];
            pool.install(|| {
                map_chunks(hits.iter_mut(), |_, h| *h += 1);
            });
            assert!(hits.iter().all(|&h| h == 1));
        });
    }

    #[test]
    fn pool_installs_on_caller() {
        let pool = pool(4);
        assert_eq!(pool.install(|| 7), 7);
        assert_eq!(pool.current_num_threads(), 4);
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn install_nests_and_restores() {
        let (outer, inner) = (pool(2), pool(3));
        outer.install(|| {
            assert_eq!(super::current_num_threads(), 2);
            inner.install(|| assert_eq!(super::current_num_threads(), 3));
            assert_eq!(super::current_num_threads(), 2);
        });
    }

    #[test]
    fn a_team_of_n_is_the_caller_plus_at_most_n_minus_one_threads() {
        // 64 indices on a team of four are 16 ranges. Each side — the
        // caller, the workers — holds the range it is in until the other
        // side has shown up, so neither can drain the job alone: a pool
        // whose caller only waits, or whose workers never wake, hangs.
        watchdog(|| {
            let pool = pool(4);
            let caller = std::thread::current().id();
            let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
            let (caller_in, worker_in) = (AtomicBool::new(false), AtomicBool::new(false));
            pool.install(|| {
                map_chunks(0..64, |_, _| {
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
        // Thread A's job holds the team (its chunk 0 does not return)
        // until thread B has submitted a job to the same pool and seen
        // it finish: B's job must run, whole, on B. A pool that made B
        // wait for the team would hang here.
        watchdog(|| {
            let pool = pool(2);
            let hits = |n| (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
            let (a_hits, b_hits) = (hits(64), hits(64));
            let (a_started, b_done) = (AtomicBool::new(false), AtomicBool::new(false));
            let b_ran_on = Mutex::new(HashSet::new());
            let b = std::thread::scope(|s| {
                s.spawn(|| {
                    pool.install(|| {
                        map_chunks(a_hits.iter(), |i, h| {
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
                        map_chunks(b_hits.iter(), |_, h| {
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
    fn panics_propagate_to_caller() {
        on_teams(|pool| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.install(|| {
                    map_chunks(0..1024, |_, i| {
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
            let s: usize = pool.install(|| map_chunks(0..10, |_, i| i)).iter().sum();
            assert_eq!(s, 45);
        });
    }
}
