//! Seeded chaos injection for the service runtime.
//!
//! A [`ChaosPlan`] (seeded splitmix draws, builder configuration)
//! decides, purely from `(seed, batch id)`, whether a batch's solve is
//! delayed (exercising deadlines and degradation); it can also poison
//! the admission-queue lock after a fixed number of admissions, proving
//! the queue survives a thread panicking while holding it. Same seed →
//! same chaos, so every failing schedule replays exactly.

use std::time::Duration;

use crate::request::splitmix;

/// A deterministic, seeded chaos plan for the service runtime.
#[derive(Debug)]
pub struct ChaosPlan {
    seed: u64,
    slow_prob: f64,
    slow_for: Duration,
    poison_queue_after: Option<u64>,
}

impl ChaosPlan {
    /// A plan that injects nothing (until configured otherwise).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            slow_prob: 0.0,
            slow_for: Duration::ZERO,
            poison_queue_after: None,
        }
    }

    /// Slow the solve down by `delay` with probability `p` per batch.
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

    /// The delay injected before batch `batch_id`'s solve, if any — a
    /// pure function of the seed and the batch id.
    pub fn batch_delay(&self, batch_id: u64) -> Option<Duration> {
        let mut state = splitmix(self.seed ^ batch_id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (self.slow_prob > 0.0 && draw(&mut state) < self.slow_prob).then_some(self.slow_for)
    }

    /// True exactly when admission number `count` should trigger the
    /// queue-lock poisoning (one-shot by construction: counts are
    /// monotonic).
    pub(crate) fn should_poison_queue(&self, count: u64) -> bool {
        self.poison_queue_after == Some(count)
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
    fn delay_is_deterministic_in_seed_and_batch() {
        let a = ChaosPlan::new(7).with_slow_solver(0.5, Duration::from_millis(1));
        let b = ChaosPlan::new(7).with_slow_solver(0.5, Duration::from_millis(1));
        let delays: Vec<_> = (0..64u64).map(|batch| a.batch_delay(batch)).collect();
        assert_eq!(
            delays,
            (0..64u64)
                .map(|batch| b.batch_delay(batch))
                .collect::<Vec<_>>()
        );
        assert!(delays.contains(&None) && delays.contains(&Some(Duration::from_millis(1))));
    }

    #[test]
    fn poisoning_is_one_shot_at_the_configured_admission() {
        let plan = ChaosPlan::new(0).with_queue_poisoning(3);
        assert!(!plan.should_poison_queue(2));
        assert!(plan.should_poison_queue(3));
        assert!(!plan.should_poison_queue(4));
    }
}
