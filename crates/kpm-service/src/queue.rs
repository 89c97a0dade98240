//! The bounded admission queue.
//!
//! A mutex-and-condvar `VecDeque` with a hard capacity: `push` never
//! blocks (backpressure is explicit — a full queue returns the request
//! to the caller for a typed rejection), `pop_wait` parks the batcher
//! until work or a tick timeout arrives. Every lock acquisition
//! recovers from poisoning (`unwrap_or_else(into_inner)`): a thread
//! panicking while holding the lock — which the chaos layer injects on
//! purpose — must never wedge admission, because the queue state is a
//! plain deque that is valid at every instruction boundary.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::chaos::QueuePoisonSentinel;
use crate::request::{Request, Response};

/// Shared one-shot reply slot: whoever `take()`s the sender delivers
/// the terminal reply; a later taker finds it empty and drops its
/// result. Exactly-once by construction.
pub(crate) type ReplySlot = Arc<Mutex<Option<mpsc::Sender<Response>>>>;

/// An admitted request waiting to be batched.
#[derive(Debug)]
pub(crate) struct Pending {
    pub(crate) id: u64,
    pub(crate) req: Request,
    /// Trace id minted at admission (0 when tracing is disabled);
    /// propagated through every stage span and onto the reply.
    pub(crate) trace: u64,
    /// Admission time in µs since the obs epoch (0 when tracing is
    /// disabled) — the anchor the per-stage breakdown tiles from.
    pub(crate) admitted_us: f64,
    pub(crate) enqueued_at: Instant,
    pub(crate) deadline_at: Instant,
    pub(crate) reply: ReplySlot,
}

/// Result of a non-blocking push.
#[derive(Debug)]
pub(crate) enum PushOutcome {
    /// Accepted; the queue now holds `depth` entries.
    Queued { depth: usize },
    /// At capacity — the request is handed back for a typed rejection.
    Full(Pending),
    /// The queue no longer accepts work (shutdown).
    Closed(Pending),
}

/// Result of a blocking pop.
#[derive(Debug)]
pub(crate) enum PopOutcome {
    /// The oldest pending request.
    Popped(Pending),
    /// Nothing arrived within the tick timeout.
    TimedOut,
    /// Closed and drained — the batcher can stop.
    Closed,
}

#[derive(Debug)]
struct Inner {
    q: VecDeque<Pending>,
    open: bool,
}

/// The bounded admission queue (see module docs).
#[derive(Debug)]
pub(crate) struct AdmissionQueue {
    inner: Mutex<Inner>,
    available: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                q: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Non-blocking bounded push.
    pub(crate) fn push(&self, p: Pending) -> PushOutcome {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if !inner.open {
            return PushOutcome::Closed(p);
        }
        if inner.q.len() >= self.capacity {
            return PushOutcome::Full(p);
        }
        inner.q.push_back(p);
        let depth = inner.q.len();
        drop(inner);
        self.available.notify_one();
        PushOutcome::Queued { depth }
    }

    /// Blocks up to `tick` for the oldest pending request.
    pub(crate) fn pop_wait(&self, tick: Duration) -> PopOutcome {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = inner.q.pop_front() {
            return PopOutcome::Popped(p);
        }
        if !inner.open {
            return PopOutcome::Closed;
        }
        let (mut inner, _timeout) = self
            .available
            .wait_timeout(inner, tick)
            .unwrap_or_else(|e| e.into_inner());
        match inner.q.pop_front() {
            Some(p) => PopOutcome::Popped(p),
            None if !inner.open => PopOutcome::Closed,
            None => PopOutcome::TimedOut,
        }
    }

    /// Pops further requests for the same matrix while the column
    /// budget lasts, preserving FIFO order within the route (the scan
    /// stops at the first same-matrix request that no longer fits).
    pub(crate) fn drain_matching(
        &self,
        fingerprint: u64,
        mut column_budget: usize,
    ) -> Vec<Pending> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut taken = Vec::new();
        let mut i = 0;
        while i < inner.q.len() {
            if inner.q[i].req.matrix == fingerprint {
                let cols = inner.q[i].req.kind.columns();
                if cols > column_budget {
                    break;
                }
                column_budget -= cols;
                if let Some(p) = inner.q.remove(i) {
                    taken.push(p);
                }
                // Do not advance: the element after the removed one
                // shifted into slot `i`.
            } else {
                i += 1;
            }
        }
        taken
    }

    /// Removes and returns everything (abort shutdown).
    pub(crate) fn drain_all(&self) -> Vec<Pending> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.q.drain(..).collect()
    }

    /// Stops accepting work and wakes the batcher.
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.open = false;
        drop(inner);
        self.available.notify_all();
    }

    /// Current depth.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).q.len()
    }

    /// Chaos hook: a sacrificial thread takes the queue lock and panics
    /// while holding it, leaving the mutex poisoned. Blocks until the
    /// poisoning has happened. Install
    /// [`crate::chaos::install_quiet_poison_hook`] first to keep the
    /// deliberate panic out of stderr.
    pub(crate) fn poison_lock(self: &Arc<Self>) {
        let me = Arc::clone(self);
        let t = std::thread::Builder::new()
            .name("kpm-svc-poison".into())
            .spawn(move || {
                let _guard = me.inner.lock().unwrap_or_else(|e| e.into_inner());
                std::panic::panic_any(QueuePoisonSentinel);
            });
        if let Ok(handle) = t {
            // The join error *is* the expected panic.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryKind;
    use kpm_core::kernels::Kernel;

    fn pending(id: u64, matrix: u64, cols: usize) -> Pending {
        let (tx, _rx) = mpsc::channel();
        // Leak the receiver: these tests never reply.
        std::mem::forget(_rx);
        Pending {
            id,
            req: Request {
                matrix,
                kind: QueryKind::Dos {
                    seed: id,
                    num_random: cols,
                },
                num_moments: 8,
                kernel: Kernel::Jackson,
                points: 8,
                deadline: None,
            },
            trace: 0,
            admitted_us: 0.0,
            enqueued_at: Instant::now(),
            deadline_at: Instant::now() + Duration::from_secs(1),
            reply: Arc::new(Mutex::new(Some(tx))),
        }
    }

    #[test]
    fn push_respects_capacity_and_returns_the_request() {
        let q = AdmissionQueue::new(2);
        assert!(matches!(
            q.push(pending(1, 0, 1)),
            PushOutcome::Queued { depth: 1 }
        ));
        assert!(matches!(
            q.push(pending(2, 0, 1)),
            PushOutcome::Queued { depth: 2 }
        ));
        match q.push(pending(3, 0, 1)) {
            PushOutcome::Full(p) => assert_eq!(p.id, 3),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn drain_matching_respects_budget_and_route() {
        let q = AdmissionQueue::new(8);
        q.push(pending(1, 10, 2));
        q.push(pending(2, 20, 1));
        q.push(pending(3, 10, 2));
        q.push(pending(4, 10, 4));
        let taken = q.drain_matching(10, 4);
        let ids: Vec<u64> = taken.iter().map(|p| p.id).collect();
        // 1 and 3 fit (4 columns); 4 exceeds the remaining budget and
        // stops the scan; 2 is another route and stays.
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_wakes_and_reports_closed_when_empty() {
        let q = AdmissionQueue::new(2);
        q.close();
        assert!(matches!(
            q.pop_wait(Duration::from_millis(5)),
            PopOutcome::Closed
        ));
        match q.push(pending(9, 0, 1)) {
            PushOutcome::Closed(p) => assert_eq!(p.id, 9),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn queue_survives_a_poisoned_lock() {
        crate::chaos::install_quiet_poison_hook();
        let q = Arc::new(AdmissionQueue::new(4));
        q.push(pending(1, 0, 1));
        q.poison_lock();
        // The mutex is now poisoned; every operation must still work.
        assert_eq!(q.len(), 1);
        assert!(matches!(
            q.push(pending(2, 0, 1)),
            PushOutcome::Queued { depth: 2 }
        ));
        assert!(matches!(
            q.pop_wait(Duration::from_millis(5)),
            PopOutcome::Popped(_)
        ));
    }
}
