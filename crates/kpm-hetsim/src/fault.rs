//! Deterministic fault injection for the message-passing runtime.
//!
//! A [`FaultPlan`] describes which failures to inject into a
//! [`World`](crate::runtime::World): per-message drop, duplication and
//! delay (decided by a seeded hash of the message coordinates, so a
//! plan replays bit-identically), plus a schedule of rank crashes tied
//! to Chebyshev iterations. Tests and benches attach a plan through
//! [`WorldConfig`](crate::runtime::WorldConfig) and the resilient
//! distributed driver consults the crash schedule at its iteration
//! boundaries.
//!
//! Crash entries are *one-shot*: once a crash has fired it never fires
//! again, so a checkpoint-restart loop naturally makes progress past
//! the failure on the next attempt — the same contract a real system
//! has with a node that died once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What the fault layer decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageFate {
    /// Silently lose the message.
    pub drop: bool,
    /// Deliver a second (replayed) copy.
    pub duplicate: bool,
    /// Hold the message back for this long before delivery.
    pub delay: Option<Duration>,
}

impl MessageFate {
    /// A fate that leaves the message untouched.
    pub const CLEAN: MessageFate = MessageFate {
        drop: false,
        duplicate: false,
        delay: None,
    };
}

/// One scheduled rank death.
#[derive(Debug)]
struct CrashSpec {
    rank: usize,
    at_iteration: usize,
    triggered: AtomicBool,
}

/// Counters of injected faults, for reporting and test assertions.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Messages dropped.
    pub dropped: u64,
    /// Messages sent twice.
    pub duplicated: u64,
    /// Messages held back.
    pub delayed: u64,
    /// Ranks crashed.
    pub crashed: u64,
}

/// A seeded, replayable schedule of failures.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    dup_prob: f64,
    delay_prob: f64,
    max_delay: Duration,
    crashes: Vec<CrashSpec>,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    crashed: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            crashes: Vec::new(),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            crashed: AtomicU64::new(0),
        }
    }

    /// Loses each message with probability `p`.
    pub fn with_message_drops(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_prob = p;
        self
    }

    /// Delivers a second copy of each message with probability `p`
    /// (at-least-once delivery; the runtime deduplicates).
    pub fn with_message_duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.dup_prob = p;
        self
    }

    /// Holds each message back by up to `max_delay` with probability
    /// `p`, reordering deliveries across senders.
    pub fn with_message_delays(mut self, p: f64, max_delay: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.delay_prob = p;
        self.max_delay = max_delay;
        self
    }

    /// Kills `rank` when it reaches Chebyshev iteration `at_iteration`
    /// (one-shot: a restarted run passes the same point unharmed).
    pub fn with_rank_crash(mut self, rank: usize, at_iteration: usize) -> Self {
        self.crashes.push(CrashSpec {
            rank,
            at_iteration,
            triggered: AtomicBool::new(false),
        });
        self
    }

    /// True if any per-message fault (drop/dup/delay) can fire.
    pub fn has_message_faults(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.delay_prob > 0.0
    }

    /// True if no message is ever lost outright (duplication and delay
    /// are lossless; drops and crashes are not).
    pub fn is_lossless(&self) -> bool {
        self.drop_prob == 0.0 && self.crashes.is_empty()
    }

    /// Deterministic fate of the message `(from, to, tag, seq)`.
    pub fn decide(&self, from: usize, to: usize, tag: u64, seq: u64) -> MessageFate {
        if !self.has_message_faults() {
            return MessageFate::CLEAN;
        }
        // Independent draws from a stream keyed by the message identity.
        let mut state = splitmix(
            self.seed
                ^ (from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (to as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ tag.wrapping_mul(0x1656_67B1_9E37_79F9)
                ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let mut draw = || {
            state = splitmix(state);
            (state >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        let fate = MessageFate {
            drop: draw() < self.drop_prob,
            duplicate: draw() < self.dup_prob,
            delay: if draw() < self.delay_prob {
                let frac = draw();
                Some(Duration::from_secs_f64(self.max_delay.as_secs_f64() * frac))
            } else {
                None
            },
        };
        if fate.drop {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        if fate.duplicate {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        if fate.delay.is_some() {
            self.delayed.fetch_add(1, Ordering::Relaxed);
        }
        fate
    }

    /// True exactly once per matching crash entry: the first time
    /// `rank` asks at or past its scheduled iteration.
    pub fn crash_pending(&self, rank: usize, iteration: usize) -> bool {
        for spec in &self.crashes {
            if spec.rank == rank
                && iteration >= spec.at_iteration
                && !spec.triggered.swap(true, Ordering::AcqRel)
            {
                self.crashed.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Snapshot of how many faults have fired so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            crashed: self.crashed.load(Ordering::Relaxed),
        }
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(7).with_message_drops(0.3);
        let b = FaultPlan::new(7).with_message_drops(0.3);
        for seq in 0..200 {
            assert_eq!(a.decide(0, 1, 5, seq), b.decide(0, 1, 5, seq));
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(42).with_message_drops(0.25);
        let n = 4000;
        let dropped = (0..n).filter(|&s| plan.decide(1, 2, 0, s).drop).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "rate = {rate}");
        assert_eq!(plan.stats().dropped, dropped as u64);
    }

    #[test]
    fn clean_plan_touches_nothing() {
        let plan = FaultPlan::new(1);
        assert_eq!(plan.decide(0, 1, 0, 0), MessageFate::CLEAN);
        assert!(plan.is_lossless());
        assert!(!plan.has_message_faults());
    }

    #[test]
    fn crashes_fire_exactly_once() {
        let plan = FaultPlan::new(0).with_rank_crash(2, 10);
        assert!(!plan.crash_pending(2, 9));
        assert!(!plan.crash_pending(1, 10));
        assert!(plan.crash_pending(2, 10));
        assert!(!plan.crash_pending(2, 10), "one-shot crash fired twice");
        assert!(!plan.crash_pending(2, 11));
        assert_eq!(plan.stats().crashed, 1);
    }

    #[test]
    fn delays_stay_bounded() {
        let plan = FaultPlan::new(3).with_message_delays(1.0, Duration::from_millis(10));
        for seq in 0..100 {
            let fate = plan.decide(0, 1, 0, seq);
            let d = fate.delay.expect("p = 1 always delays");
            assert!(d <= Duration::from_millis(10));
        }
    }
}
