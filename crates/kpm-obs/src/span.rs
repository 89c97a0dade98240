//! Hierarchical timing spans with a thread-sharded registry.
//!
//! A span measures one region of work (a solver sweep, a checkpoint
//! write, a restart attempt). Spans nest per thread: the innermost open
//! span on the current thread becomes the parent of the next one, so
//! the registry reconstructs the call tree without the caller wiring
//! parent ids. Timing is monotonic ([`Instant`]) against a process-wide
//! epoch; the epoch's wall-clock time ([`SystemTime`]) is captured once
//! so exporters can anchor traces in real time.
//!
//! Completing a span records it in the *current thread's* shard — a
//! private buffer whose lock is uncontended on the hot path — so span
//! recording does not serialize the worker threads of the parallel
//! kernels. Readers ([`snapshot`], [`count`]) merge the shards on
//! demand. Admission against the global [`MAX_SPANS`] cap goes through
//! one atomic counter; overflow is counted and reported by [`dropped`].
//!
//! Guards are cheap when disabled: [`span`] returns an inert guard
//! without reading the clock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Hard cap on retained span records (across all threads).
pub const MAX_SPANS: usize = 1 << 18;

/// A completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotonically assigned).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `solver.sweep`.
    pub name: &'static str,
    /// Category, e.g. `solver`, `dist`, `ckpt`.
    pub cat: &'static str,
    /// Observability thread id (dense, assigned per thread).
    pub tid: u64,
    /// Request trace the span belongs to (0 = not part of a trace).
    /// Inherited from the enclosing open span unless set explicitly.
    pub trace: u64,
    /// Lamport stamp assigned when the span opened (see
    /// [`crate::clock`]); orders spans across threads.
    pub lamport: u64,
    /// Start time in microseconds since the obs epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Free-form annotations.
    pub args: Vec<(&'static str, String)>,
}

/// One thread's private record buffer. The owning thread holds the lock
/// only to push; readers take it only during merge operations.
type Shard = Arc<Mutex<Vec<SpanRecord>>>;

/// All shards ever registered (threads are registered on their first
/// completed span and stay registered for the process lifetime).
fn shards() -> &'static Mutex<Vec<Shard>> {
    static SHARDS: OnceLock<Mutex<Vec<Shard>>> = OnceLock::new();
    SHARDS.get_or_init(|| Mutex::new(Vec::new()))
}

/// `(tid, thread name)` pairs in registration order.
fn thread_registry() -> &'static Mutex<Vec<(u64, String)>> {
    static THREADS: OnceLock<Mutex<Vec<(u64, String)>>> = OnceLock::new();
    THREADS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Spans admitted so far; admission is a single `fetch_add` so the
/// `MAX_SPANS` cap stays global without a global lock per record.
static RECORDED: AtomicUsize = AtomicUsize::new(0);
/// Spans discarded after the cap was reached.
static DROPPED: AtomicU64 = AtomicU64::new(0);

struct Epoch {
    instant: Instant,
    wall: SystemTime,
}

fn epoch() -> &'static Epoch {
    static EPOCH: OnceLock<Epoch> = OnceLock::new();
    EPOCH.get_or_init(|| Epoch {
        instant: Instant::now(),
        wall: SystemTime::now(),
    })
}

/// Microseconds elapsed since the obs epoch (first use in the process).
pub fn micros_since_epoch() -> f64 {
    epoch().instant.elapsed().as_secs_f64() * 1e6
}

/// The wall-clock time of the obs epoch, as microseconds since the Unix
/// epoch (best effort; 0 if the system clock predates 1970).
pub fn epoch_unix_us() -> u64 {
    epoch()
        .wall
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_micros() as u64
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(span id, trace id)` of every open span on this thread.
    static OPEN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static MY_SHARD: RefCell<Option<Shard>> = const { RefCell::new(None) };
}

/// Mints a fresh process-unique trace id (never 0). Returns 0 when
/// instrumentation is disabled so untraced replies are recognizable.
pub fn mint_trace() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's observability id (registering the thread on
/// first use). Used by the flight recorder to shard its rings.
pub fn current_tid() -> u64 {
    this_tid()
}

/// This thread's observability id, registering it (with its name) on
/// first use.
fn this_tid() -> u64 {
    TID.with(|t| {
        let cur = t.get();
        if cur != 0 {
            return cur;
        }
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(tid);
        let name = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        thread_registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((tid, name));
        tid
    })
}

/// This thread's shard, created and registered on first use.
fn my_shard() -> Shard {
    MY_SHARD.with(|s| {
        let mut slot = s.borrow_mut();
        if let Some(shard) = slot.as_ref() {
            return Arc::clone(shard);
        }
        let shard: Shard = Arc::new(Mutex::new(Vec::new()));
        shards()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&shard));
        *slot = Some(Arc::clone(&shard));
        shard
    })
}

/// An open span; completing (dropping) it records a [`SpanRecord`].
/// Inert when instrumentation is disabled.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    cat: &'static str,
    tid: u64,
    trace: u64,
    lamport: u64,
    started: Instant,
    start_us: f64,
    args: Vec<(&'static str, String)>,
}

/// Opens a span named `name` in category `cat`. The guard records the
/// span when dropped. The span joins the trace of the innermost open
/// span on this thread (override with [`SpanGuard::trace`]).
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: None };
    }
    let tid = this_tid();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, trace) = OPEN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let (parent, trace) = match stack.last() {
            Some(&(pid, ptrace)) => (Some(pid), ptrace),
            None => (None, 0),
        };
        stack.push((id, trace));
        (parent, trace)
    });
    let lamport = crate::clock::tick();
    let start_us = micros_since_epoch();
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            cat,
            tid,
            trace,
            lamport,
            started: Instant::now(),
            start_us,
            args: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// Attaches an annotation. No-op on an inert guard.
    pub fn arg(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        if let Some(a) = self.active.as_mut() {
            a.args.push((key, value.to_string()));
        }
        self
    }

    /// Assigns the span (and, through inheritance, any span opened
    /// inside it on this thread) to `trace`. No-op on an inert guard.
    pub fn trace(mut self, trace: u64) -> Self {
        if let Some(a) = self.active.as_mut() {
            a.trace = trace;
            let id = a.id;
            OPEN_STACK.with(|s| {
                if let Some(entry) = s.borrow_mut().iter_mut().find(|(sid, _)| *sid == id) {
                    entry.1 = trace;
                }
            });
        }
        self
    }

    /// True when the guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let dur_us = a.started.elapsed().as_secs_f64() * 1e6;
        OPEN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in LIFO order per thread; `retain` tolerates
            // a guard outliving its scope through a mem::forget-free
            // move.
            if stack.last().map(|&(id, _)| id) == Some(a.id) {
                stack.pop();
            } else {
                stack.retain(|&(id, _)| id != a.id);
            }
        });
        if RECORDED.fetch_add(1, Ordering::Relaxed) >= MAX_SPANS {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        my_shard()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(SpanRecord {
                id: a.id,
                parent: a.parent,
                name: a.name,
                cat: a.cat,
                tid: a.tid,
                trace: a.trace,
                lamport: a.lamport,
                start_us: a.start_us,
                dur_us,
                args: a.args,
            });
    }
}

/// Records a span retroactively from externally measured timestamps
/// (`start_us`/`dur_us` in microseconds since the obs epoch). Used by
/// the service to emit the per-stage breakdown of a request at reply
/// time, when every stage boundary is finally known; the stages tile
/// the root span exactly, so the reported sum matches the end-to-end
/// latency by construction. Returns the new span id, or `None` when
/// disabled or over the [`MAX_SPANS`] cap.
#[allow(clippy::too_many_arguments)]
pub fn record_manual(
    name: &'static str,
    cat: &'static str,
    trace: u64,
    parent: Option<u64>,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, String)>,
) -> Option<u64> {
    if !crate::enabled() {
        return None;
    }
    if RECORDED.fetch_add(1, Ordering::Relaxed) >= MAX_SPANS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    my_shard()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(SpanRecord {
            id,
            parent,
            name,
            cat,
            tid: this_tid(),
            trace,
            lamport: crate::clock::tick(),
            start_us,
            dur_us,
            args,
        });
    Some(id)
}

/// A copy of every recorded span, merged across threads and ordered by
/// span id (i.e. by span-open order, which is deterministic for
/// single-threaded recording and stable across snapshot calls).
pub fn snapshot() -> Vec<SpanRecord> {
    let mut all = Vec::new();
    for shard in shards()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        all.extend(
            shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .cloned(),
        );
    }
    all.sort_by_key(|s| s.id);
    all
}

/// Number of spans discarded after [`MAX_SPANS`] was reached.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Registered `(tid, thread name)` pairs.
pub fn threads() -> Vec<(u64, String)> {
    thread_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Number of completed spans with the given name.
pub fn count(name: &str) -> usize {
    shards()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|shard| {
            shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .filter(|s| s.name == name)
                .count()
        })
        .sum()
}

/// Clears the span registry (records and drop counter; thread ids and
/// shards are kept, they stay valid for the process lifetime).
pub(crate) fn reset() {
    for shard in shards()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        shard.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }
    RECORDED.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as serial;

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = serial();
        crate::set_enabled(false);
        crate::reset();
        {
            let _s = span("quiet", "test");
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn nesting_assigns_parents() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        {
            let _outer = span("outer", "test");
            {
                let _inner = span("inner", "test").arg("k", 7);
            }
        }
        let spans = snapshot();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.args, vec![("k", "7".to_string())]);
        assert!(inner.dur_us <= outer.dur_us);
        assert!(outer.start_us <= inner.start_us);
    }

    #[test]
    fn sibling_threads_get_distinct_tids() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        let main_tid = {
            let _s = span("main-side", "test");
            this_tid()
        };
        let other_tid = std::thread::spawn(|| {
            let _s = span("thread-side", "test");
            this_tid()
        })
        .join()
        .unwrap();
        assert_ne!(main_tid, other_tid);
        assert_eq!(count("main-side"), 1);
        assert_eq!(count("thread-side"), 1);
    }

    #[test]
    fn concurrent_recording_loses_no_spans() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..PER_THREAD {
                        let _s = span("stress", "test");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(count("stress"), THREADS * PER_THREAD);
        assert_eq!(dropped(), 0);
        // Snapshot is merged across shards and ordered by id.
        let snap = snapshot();
        let stress: Vec<_> = snap.iter().filter(|s| s.name == "stress").collect();
        assert_eq!(stress.len(), THREADS * PER_THREAD);
        assert!(stress.windows(2).all(|w| w[0].id < w[1].id));
    }
}
