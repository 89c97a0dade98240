//! Typed metrics: counters and gauges, keyed by a dotted name
//! (`svc.admitted`, `svc.queue_depth`, ...). Distributions go to
//! [`crate::hist`].
//!
//! All mutation goes through free functions that first check
//! [`crate::enabled`]; when instrumentation is off they return without
//! touching the registry. The registry is one mutex-protected
//! `BTreeMap`, which keeps snapshots deterministically ordered. Every
//! caller counts per request, batch or checkpoint, never per sweep or
//! per row, so the lock stays off the hot path.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-set (or max-tracked) level.
    Gauge(f64),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REG: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Adds `delta` to the counter `name`, creating it at zero first.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(0))
    {
        Metric::Counter(c) => *c += delta,
        // kpm::allow(panic_path): metric-kind confusion is a programmer error (one name,
        // two kinds) caught by the first test that records it, not a data-dependent path.
        other => panic!("metric '{name}' is not a counter: {other:?}"),
    }
}

/// Increments the counter `name` by one.
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Sets the gauge `name` to `value`.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(value))
    {
        Metric::Gauge(g) => *g = value,
        // kpm::allow(panic_path): metric-kind confusion is a programmer error (one name,
        // two kinds) caught by the first test that records it, not a data-dependent path.
        other => panic!("metric '{name}' is not a gauge: {other:?}"),
    }
}

/// Raises the gauge `name` to `value` if it is below it (peak tracking,
/// e.g. stash depth high-water mark).
pub fn gauge_max(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(value))
    {
        Metric::Gauge(g) => *g = g.max(value),
        // kpm::allow(panic_path): metric-kind confusion is a programmer error (one name,
        // two kinds) caught by the first test that records it, not a data-dependent path.
        other => panic!("metric '{name}' is not a gauge: {other:?}"),
    }
}

/// The current value of counter `name` (0 if absent or another type).
/// Readable regardless of the enabled flag, so tests can assert after
/// disabling.
pub fn counter_value(name: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    match reg.get(name) {
        Some(Metric::Counter(c)) => *c,
        _ => 0,
    }
}

/// The current value of gauge `name`, if present.
pub fn gauge_value(name: &str) -> Option<f64> {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    match reg.get(name) {
        Some(Metric::Gauge(g)) => Some(*g),
        _ => None,
    }
}

/// A copy of every metric, ordered by name.
pub fn snapshot() -> Vec<(String, Metric)> {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// Clears the registry.
pub(crate) fn reset() {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as serial;

    #[test]
    fn disabled_calls_do_not_register() {
        let _g = serial();
        crate::set_enabled(false);
        crate::reset();
        counter_inc("x");
        gauge_set("y", 1.0);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        counter_add("c", 2);
        counter_inc("c");
        gauge_max("g", 3.0);
        gauge_max("g", 1.0);
        assert_eq!(counter_value("c"), 3);
        assert_eq!(gauge_value("g"), Some(3.0));
    }
}
