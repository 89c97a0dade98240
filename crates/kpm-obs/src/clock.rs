//! A process-wide Lamport clock that orders trace records.
//!
//! Spans (on open) and flight-recorder events stamp themselves with
//! [`tick`]. `kpm trace-report` orders a trace's spans by that stamp
//! (wall-clock time breaks ties), and the flight recorder breaks its
//! timestamp ties with it, so records from different threads keep the
//! order in which they happened. One shared atomic counter is the
//! whole clock.
//!
//! When instrumentation is disabled [`tick`] returns 0 without touching
//! the counter, so the clock contributes no overhead to uninstrumented
//! runs and the noop build keeps it dark.

use std::sync::atomic::{AtomicU64, Ordering};

static CLOCK: AtomicU64 = AtomicU64::new(0);

/// Advances the Lamport clock for a local event and returns the new
/// stamp. Returns 0 (and does not advance) when instrumentation is off.
pub fn tick() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    CLOCK.fetch_add(1, Ordering::Relaxed) + 1
}

/// The current stamp without advancing the clock.
pub fn current() -> u64 {
    CLOCK.load(Ordering::Relaxed)
}

/// Rewinds the clock to zero (tests / CLI phase boundaries).
pub(crate) fn reset() {
    CLOCK.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as serial;

    #[test]
    fn tick_is_monotonic() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        let a = tick();
        let b = tick();
        assert!(b > a);
        assert_eq!(current(), b);
    }

    #[test]
    fn disabled_clock_stays_dark() {
        let _g = serial();
        crate::set_enabled(false);
        crate::reset();
        assert_eq!(tick(), 0);
        assert_eq!(current(), 0);
    }
}
