//! Seeded chaos injection for the service runtime.
//!
//! A [`ChaosPlan`] (seeded splitmix draws, builder configuration,
//! atomic stats) decides, purely from `(seed, batch id, attempt)`,
//! whether a worker "crashes" mid-batch (surfacing as a transient
//! failure the retry logic must absorb) or solves slowly (exercising
//! deadlines and hedging); it can also poison the admission-queue
//! lock after a fixed number of admissions, proving the queue survives
//! a worker panicking while holding it. Same seed → same chaos, so
//! every failing schedule replays exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::request::splitmix;

/// What the plan decided for one batch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFate {
    /// The worker crashes mid-batch: the attempt produces no result and
    /// must be retried (or fail typed after the retry budget).
    pub crash: bool,
    /// Injected solver slowdown, applied before the solve.
    pub slow: Option<Duration>,
}

/// Counters of injected faults (monotonic; read with
/// [`ChaosPlan::stats`]).
#[derive(Debug, Default)]
struct ChaosCounters {
    crashes: AtomicU64,
    slowdowns: AtomicU64,
    poisonings: AtomicU64,
}

/// A snapshot of the injected-fault counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Worker crashes injected.
    pub crashes: u64,
    /// Slow solves injected.
    pub slowdowns: u64,
    /// Queue-lock poisonings injected.
    pub poisonings: u64,
}

/// A deterministic, seeded chaos plan for the service runtime.
#[derive(Debug)]
pub struct ChaosPlan {
    seed: u64,
    crash_prob: f64,
    slow_prob: f64,
    slow_for: Duration,
    poison_queue_after: Option<u64>,
    counters: ChaosCounters,
}

impl ChaosPlan {
    /// A plan that injects nothing (until configured otherwise).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            crash_prob: 0.0,
            slow_prob: 0.0,
            slow_for: Duration::ZERO,
            poison_queue_after: None,
            counters: ChaosCounters::default(),
        }
    }

    /// Crash the worker mid-batch with probability `p` per attempt.
    pub fn with_worker_crashes(mut self, p: f64) -> Self {
        self.crash_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Slow the solve down by `delay` with probability `p` per attempt.
    pub fn with_slow_solver(mut self, p: f64, delay: Duration) -> Self {
        self.slow_prob = p.clamp(0.0, 1.0);
        self.slow_for = delay;
        self
    }

    /// After the `n`-th admission, a sacrificial thread grabs the
    /// admission-queue lock and panics while holding it.
    pub fn with_queue_poisoning(mut self, after_admissions: u64) -> Self {
        self.poison_queue_after = Some(after_admissions);
        self
    }

    /// The fate of batch `batch_id`, attempt `attempt` — a pure
    /// function of the seed and those two coordinates.
    pub fn batch_fate(&self, batch_id: u64, attempt: u32) -> BatchFate {
        let mut state = splitmix(
            self.seed
                ^ batch_id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (attempt as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
        );
        let crash = self.crash_prob > 0.0 && draw(&mut state) < self.crash_prob;
        if crash {
            self.counters.crashes.fetch_add(1, Ordering::Relaxed);
            // A crashed attempt never reaches the solver; no slow draw.
            return BatchFate { crash, slow: None };
        }
        let slow = if self.slow_prob > 0.0 && draw(&mut state) < self.slow_prob {
            self.counters.slowdowns.fetch_add(1, Ordering::Relaxed);
            Some(self.slow_for)
        } else {
            None
        };
        BatchFate { crash, slow }
    }

    /// True exactly when admission number `count` should trigger the
    /// queue-lock poisoning (one-shot by construction: counts are
    /// monotonic).
    pub(crate) fn should_poison_queue(&self, count: u64) -> bool {
        if self.poison_queue_after == Some(count) {
            self.counters.poisonings.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Snapshot of what has been injected so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            crashes: self.counters.crashes.load(Ordering::Relaxed),
            slowdowns: self.counters.slowdowns.load(Ordering::Relaxed),
            poisonings: self.counters.poisonings.load(Ordering::Relaxed),
        }
    }
}

/// Next uniform draw in `[0, 1)` from the mixer state.
fn draw(state: &mut u64) -> f64 {
    *state = splitmix(*state);
    (*state >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The panic payload of the sacrificial queue-poisoning thread; the
/// quiet hook installed by [`install_quiet_poison_hook`] recognizes it
/// and suppresses the default panic report (the panic is deliberate).
pub struct QueuePoisonSentinel;

/// Wraps the current panic hook so deliberate queue-poison panics stay
/// silent while every other panic still reports normally. Idempotent.
pub fn install_quiet_poison_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<QueuePoisonSentinel>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_deterministic_in_seed_batch_and_attempt() {
        let a = ChaosPlan::new(7)
            .with_worker_crashes(0.5)
            .with_slow_solver(0.5, Duration::from_millis(1));
        let b = ChaosPlan::new(7)
            .with_worker_crashes(0.5)
            .with_slow_solver(0.5, Duration::from_millis(1));
        for batch in 0..64u64 {
            for attempt in 0..4u32 {
                assert_eq!(a.batch_fate(batch, attempt), b.batch_fate(batch, attempt));
            }
        }
    }

    #[test]
    fn crash_rate_tracks_probability() {
        let plan = ChaosPlan::new(42).with_worker_crashes(0.3);
        let crashes = (0..2000u64)
            .filter(|&b| plan.batch_fate(b, 0).crash)
            .count();
        let rate = crashes as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "crash rate {rate} far from 0.3");
        assert_eq!(plan.stats().crashes, crashes as u64);
    }

    #[test]
    fn different_attempts_roll_independently() {
        // A crashed first attempt must not doom every retry: some batch
        // that crashes at attempt 0 must pass at a later attempt.
        let plan = ChaosPlan::new(3).with_worker_crashes(0.5);
        let recovered =
            (0..200u64).any(|b| plan.batch_fate(b, 0).crash && !plan.batch_fate(b, 1).crash);
        assert!(recovered);
    }

    #[test]
    fn poisoning_is_one_shot_at_the_configured_admission() {
        let plan = ChaosPlan::new(0).with_queue_poisoning(3);
        assert!(!plan.should_poison_queue(2));
        assert!(plan.should_poison_queue(3));
        assert!(!plan.should_poison_queue(4));
        assert_eq!(plan.stats().poisonings, 1);
    }
}
