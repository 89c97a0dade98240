//! Log-linear (HDR-style) histograms with bounded relative error and
//! exact counts, plus the sliding window and a named registry.
//!
//! A histogram stores one linear region (`[0, 2^SUB_BITS)`, exact) plus
//! [`1 << SUB_BITS`] sub-buckets per octave above it, so every bucket
//! spans at most `1/2^SUB_BITS` of its lower bound and p99 / p999 are
//! resolved within a few percent. Reported quantile values are bucket
//! midpoints, bounding the relative error by
//! [`ExactHist::MAX_RELATIVE_ERROR`] (~1.6%) against a sorted-vector
//! oracle using the same nearest-rank definition.
//!
//! `Ring` is the one sliding window of the crate: [`WINDOW_SLOTS`]
//! interval accumulators, of which an advance retires the oldest.
//! [`Windowed`] keeps a ring of histograms next to a cumulative one, and
//! [`crate::slo`] a ring of (events, breaches) counts. Expiry is driven
//! explicitly ([`Windowed::advance`], in tests) or by elapsed wall time
//! when the registry records or snapshots, never by a clock thread.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Sub-bucket resolution: values are resolved to `SUB_BITS` significant
/// bits, i.e. 32 sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: one exact linear region plus `SUB` buckets for
/// each possible octave of a `u64` value.
const NUM_BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Number of interval slots in a sliding window.
pub const WINDOW_SLOTS: usize = 8;
/// Wall-clock width of one registry window slot, in microseconds.
pub const SLOT_WIDTH_US: u64 = 2_000_000;

/// A log-linear histogram over `u64` samples (typically nanoseconds).
#[derive(Clone)]
pub struct ExactHist {
    counts: Box<[u64]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for ExactHist {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: values below `SUB` are exact; above, the
/// `SUB_BITS` bits after the leading one select a sub-bucket whose width
/// is `2^(msb - SUB_BITS)`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> octave) & (SUB - 1)) as usize;
    (octave + 1) * SUB as usize + sub
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let octave = i / SUB as usize - 1;
    let sub = (i % SUB as usize) as u64;
    (SUB + sub) << octave
}

/// Width of bucket `i` (1 in the linear region).
fn bucket_width(i: usize) -> u64 {
    if i < SUB as usize {
        1
    } else {
        1u64 << (i / SUB as usize - 1)
    }
}

impl ExactHist {
    /// Worst-case relative error of a reported quantile: half a bucket
    /// width over the bucket's lower bound, `1 / 2^(SUB_BITS+1)`.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / (1u64 << (SUB_BITS + 1)) as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        ExactHist {
            counts: vec![0; NUM_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &ExactHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Exact number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest sample (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank quantile `q` in `[0, 1]`: the value whose rank
    /// is `ceil(q * count)` (clamped to at least 1). Within
    /// [`Self::MAX_RELATIVE_ERROR`] of the sorted-oracle answer; exact
    /// for values below `2^SUB_BITS` and returns 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let lo = bucket_lower(i);
                let mid = lo + bucket_width(i) / 2;
                // Clamp to the exact extremes so p0/p100 are exact.
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: `(p50, p90, p99, p999)`.
    pub fn quartet(&self) -> (u64, u64, u64, u64) {
        (
            self.value_at_quantile(0.50),
            self.value_at_quantile(0.90),
            self.value_at_quantile(0.99),
            self.value_at_quantile(0.999),
        )
    }
}

impl std::fmt::Debug for ExactHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactHist")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// A ring of [`WINDOW_SLOTS`] interval accumulators, each
/// [`SLOT_WIDTH_US`] of wall time wide: the sliding window.
#[derive(Clone)]
pub(crate) struct Ring<T> {
    slots: Vec<T>,
    cur: usize,
    slot_started: Instant,
}

impl<T: Clone + Default> Default for Ring<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Default> Ring<T> {
    /// An empty ring whose current slot starts now.
    pub(crate) fn new() -> Self {
        Ring {
            slots: vec![T::default(); WINDOW_SLOTS],
            cur: 0,
            slot_started: Instant::now(),
        }
    }

    /// The slot that takes samples now.
    pub(crate) fn current(&mut self) -> &mut T {
        &mut self.slots[self.cur]
    }

    /// Every live slot, oldest and newest alike.
    pub(crate) fn slots(&self) -> &[T] {
        &self.slots
    }

    /// Rotates to the next slot, discarding what it held
    /// [`WINDOW_SLOTS`] advances ago.
    pub(crate) fn advance(&mut self) {
        self.cur = (self.cur + 1) % WINDOW_SLOTS;
        self.slots[self.cur] = T::default();
    }

    /// Advances once per [`SLOT_WIDTH_US`] elapsed since the current
    /// slot started (bounded by a full window, after which the window is
    /// empty regardless of further elapse).
    pub(crate) fn rotate_for_elapsed(&mut self) {
        let mut elapsed_us = self.slot_started.elapsed().as_micros() as u64;
        let mut turns = 0;
        while elapsed_us >= SLOT_WIDTH_US && turns <= WINDOW_SLOTS {
            self.advance();
            elapsed_us -= SLOT_WIDTH_US;
            turns += 1;
            self.slot_started = Instant::now();
        }
    }
}

/// A cumulative histogram plus a [`Ring`] of interval histograms.
#[derive(Clone, Default)]
pub struct Windowed {
    total: ExactHist,
    window: Ring<ExactHist>,
}

impl Windowed {
    /// An empty windowed histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample into the cumulative histogram and the current
    /// window slot.
    pub fn record(&mut self, v: u64) {
        self.total.record(v);
        self.window.current().record(v);
    }

    /// Rotates to the next window slot, discarding the samples that
    /// slot held [`WINDOW_SLOTS`] advances ago.
    pub fn advance(&mut self) {
        self.window.advance();
    }

    /// The cumulative (never-expiring) histogram.
    pub fn total(&self) -> &ExactHist {
        &self.total
    }

    /// The merged view of every live window slot.
    pub fn window(&self) -> ExactHist {
        let mut merged = ExactHist::new();
        for s in self.window.slots() {
            merged.merge(s);
        }
        merged
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Windowed>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Windowed>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Records `value` (conventionally nanoseconds) into the named exact
/// histogram, creating it on first use. No-op when disabled.
pub fn record(name: &str, value: u64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let entry = reg.entry(name.to_string()).or_default();
    entry.window.rotate_for_elapsed();
    entry.record(value);
}

/// A copy of every named histogram (cumulative + live window), sorted
/// by name. Window slots are rotated for elapsed time first.
pub fn snapshot() -> Vec<(String, Windowed)> {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.iter_mut()
        .map(|(name, w)| {
            w.window.rotate_for_elapsed();
            (name.clone(), w.clone())
        })
        .collect()
}

/// The named cumulative histogram, if present.
pub fn get(name: &str) -> Option<ExactHist> {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.get(name).map(|w| w.total().clone())
}

/// Clears the registry.
pub(crate) fn reset() {
    registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as serial;

    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_close(h: &ExactHist, sorted: &[u64], q: f64) {
        let got = h.value_at_quantile(q);
        let want = oracle(sorted, q);
        let tol = (want as f64 * ExactHist::MAX_RELATIVE_ERROR).max(0.51);
        assert!(
            (got as f64 - want as f64).abs() <= tol,
            "q={q}: got {got}, oracle {want}, tol {tol}"
        );
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = ExactHist::new();
        let mut vals: Vec<u64> = (0..32).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), oracle(&vals, q));
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn wide_range_bounded_error() {
        let mut h = ExactHist::new();
        let mut vals = Vec::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..10_000 {
            // splitmix-style scramble for a deterministic spread over
            // ~6 orders of magnitude.
            x = x
                .wrapping_mul(0xbf58476d1ce4e5b9)
                .wrapping_add(0x94d049bb133111eb);
            let v = (x >> 20) % 1_000_000_000 + 1;
            vals.push(v);
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_close(&h, &vals, q);
        }
        assert_eq!(h.sum(), vals.iter().map(|&v| v as u128).sum());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = ExactHist::new();
        let mut b = ExactHist::new();
        let mut all = Vec::new();
        for i in 0..500u64 {
            let v = i * i + 7;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.push(v);
        }
        a.merge(&b);
        all.sort_unstable();
        assert_eq!(a.count(), 500);
        assert_eq!(a.min(), all[0]);
        assert_eq!(a.max(), all[499]);
        for q in [0.5, 0.99] {
            assert_close(&a, &all, q);
        }
    }

    #[test]
    fn window_expires_after_full_rotation() {
        let mut w = Windowed::new();
        for _ in 0..100 {
            w.record(1_000);
        }
        assert_eq!(w.window().count(), 100);
        for _ in 0..WINDOW_SLOTS {
            w.advance();
        }
        assert_eq!(w.window().count(), 0, "full rotation expires everything");
        assert_eq!(w.total().count(), 100, "cumulative histogram keeps all");
        w.record(5);
        assert_eq!(w.window().count(), 1);
    }

    #[test]
    fn registry_is_gated() {
        let _g = serial();
        crate::set_enabled(false);
        crate::reset();
        record("test.dark", 42);
        assert!(get("test.dark").is_none());
        let _on = crate::EnabledGuard::new();
        record("test.lit", 42);
        assert_eq!(get("test.lit").map(|h| h.count()), Some(1));
    }
}
