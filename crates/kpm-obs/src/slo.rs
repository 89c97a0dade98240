//! Per-route latency objectives and burn rates.
//!
//! An objective says "fraction `goal` of `route`'s replies must finish
//! within `threshold_ns`". Every observed latency is classified good or
//! bad against the threshold; the *burn rate* is the observed bad
//! fraction divided by the budgeted bad fraction `1 - goal`, so 1.0
//! means the error budget is being consumed exactly as provisioned,
//! above 1.0 it is burning too fast, and 0 means no breaches at all.
//! Both a cumulative and a sliding-window rate are kept, as exact
//! counts; the window is the ring of [`crate::hist`], so the `kpm serve`
//! ledger line can report a recent burn rate that recovers after an
//! incident clears.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::hist::Ring;

/// A snapshot of one route's objective and its burn rates.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Route name, e.g. `dos`.
    pub route: String,
    /// Latency threshold in nanoseconds.
    pub threshold_ns: u64,
    /// Target good fraction in `(0, 1)`, e.g. 0.99.
    pub goal: f64,
    /// Total observations.
    pub events: u64,
    /// Observations over the threshold.
    pub breaches: u64,
    /// Cumulative burn rate (`bad_fraction / (1 - goal)`).
    pub burn_rate: f64,
    /// Observations inside the sliding window.
    pub window_events: u64,
    /// Breaches inside the sliding window.
    pub window_breaches: u64,
    /// Sliding-window burn rate.
    pub window_burn_rate: f64,
}

struct State {
    threshold_ns: u64,
    goal: f64,
    events: u64,
    breaches: u64,
    /// (events, breaches) per window slot.
    window: Ring<(u64, u64)>,
}

fn burn(events: u64, breaches: u64, goal: f64) -> f64 {
    if events == 0 {
        return 0.0;
    }
    let budget = (1.0 - goal).max(1e-9);
    (breaches as f64 / events as f64) / budget
}

fn registry() -> &'static Mutex<BTreeMap<String, State>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, State>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Registers (or re-targets) the objective for `route`. `goal` is
/// clamped into `(0, 1)`. No-op when disabled.
pub fn objective(route: &str, threshold_ns: u64, goal: f64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let state = reg.entry(route.to_string()).or_insert_with(|| State {
        threshold_ns,
        goal,
        events: 0,
        breaches: 0,
        window: Ring::new(),
    });
    state.threshold_ns = threshold_ns;
    state.goal = goal.clamp(1e-9, 1.0 - 1e-9);
}

/// Classifies one reply latency against `route`'s objective. Latencies
/// for routes without a registered objective are ignored. No-op when
/// disabled.
pub fn observe(route: &str, latency_ns: u64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let Some(state) = reg.get_mut(route) else {
        return;
    };
    state.window.rotate_for_elapsed();
    let bad = u64::from(latency_ns > state.threshold_ns);
    state.events += 1;
    state.breaches += bad;
    let slot = state.window.current();
    slot.0 += 1;
    slot.1 += bad;
}

/// A report for every registered route, sorted by route name.
pub fn snapshot() -> Vec<SloReport> {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.iter_mut()
        .map(|(route, s)| {
            s.window.rotate_for_elapsed();
            let (we, wb) = s
                .window
                .slots()
                .iter()
                .fold((0, 0), |(e, b), &(se, sb)| (e + se, b + sb));
            SloReport {
                route: route.clone(),
                threshold_ns: s.threshold_ns,
                goal: s.goal,
                events: s.events,
                breaches: s.breaches,
                burn_rate: burn(s.events, s.breaches, s.goal),
                window_events: we,
                window_breaches: wb,
                window_burn_rate: burn(we, wb, s.goal),
            }
        })
        .collect()
}

/// Clears every objective.
pub(crate) fn reset() {
    registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as serial;

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        objective("dos", 1_000, 0.99);
        for _ in 0..98 {
            observe("dos", 500);
        }
        observe("dos", 2_000);
        observe("dos", 3_000);
        let rep = snapshot();
        assert_eq!(rep.len(), 1);
        let r = &rep[0];
        assert_eq!((r.events, r.breaches), (100, 2));
        // 2% bad over a 1% budget burns at 2x.
        assert!((r.burn_rate - 2.0).abs() < 1e-12, "burn {}", r.burn_rate);
        assert_eq!(r.window_events, 100);
        assert!((r.window_burn_rate - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_route_and_disabled_are_inert() {
        let _g = serial();
        crate::reset();
        {
            let _on = crate::EnabledGuard::new();
            observe("nobody.registered", 10);
            assert!(snapshot().is_empty());
        }
        crate::set_enabled(false);
        objective("dark", 10, 0.5);
        observe("dark", 99);
        assert!(snapshot().is_empty());
    }
}
