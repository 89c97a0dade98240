//! Per-kernel performance probes.
//!
//! Each sparse kernel call (`spmv`, `aug_spmv`, `aug_spmmv`) opens a
//! [`KernelTimer`]; dropping it folds the call's elapsed time, modeled
//! flop count, and modeled minimum data volume into a fixed atomic slot
//! for that kernel. From the accumulated totals the report derives
//! achieved GF/s and the *minimum* bytes-per-flop (the B_min side of
//! paper Eq. 5); dividing a cachesim-measured Ω in gives the effective
//! code balance B = Ω · B_min (Eq. 7).
//!
//! The counts are the caller's: this crate depends on nothing, so the
//! kernel layer hands each timer the `(flops, min_bytes)` of its sweep
//! from `kpm_num::accounting`, the one Table I in the workspace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The sparse-matrix storage format a kernel call ran against,
/// recorded per probe call so the report can name it next to the
/// achieved performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeFormat {
    /// Compressed Row Storage (SELL-1-1 in the paper's terminology).
    #[default]
    Crs,
    /// Matrix-free stencil: rows regenerated on the fly, no stored
    /// elements.
    Stencil,
}

impl ProbeFormat {
    /// Stable lowercase name used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            ProbeFormat::Crs => "crs",
            ProbeFormat::Stencil => "stencil",
        }
    }

    fn index(self) -> u64 {
        match self {
            ProbeFormat::Crs => 0,
            ProbeFormat::Stencil => 1,
        }
    }

    fn from_index(i: u64) -> Self {
        match i {
            1 => ProbeFormat::Stencil,
            _ => ProbeFormat::Crs,
        }
    }
}

/// The instrumented kernel families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Plain sparse matrix-vector multiply (also the blocked `spmmv`).
    Spmv,
    /// Augmented SpMV: fused scale/shift/swap + dot products (stage 1).
    AugSpmv,
    /// Augmented blocked SpMMV over an R-wide block vector (stage 2).
    AugSpmmv,
}

impl KernelKind {
    /// Every instrumented kernel, in report order.
    pub const ALL: [KernelKind; 3] = [KernelKind::Spmv, KernelKind::AugSpmv, KernelKind::AugSpmmv];

    /// Stable lowercase name used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Spmv => "spmv",
            KernelKind::AugSpmv => "aug_spmv",
            KernelKind::AugSpmmv => "aug_spmmv",
        }
    }

    fn index(self) -> usize {
        match self {
            KernelKind::Spmv => 0,
            KernelKind::AugSpmv => 1,
            KernelKind::AugSpmmv => 2,
        }
    }
}

/// One kernel's accumulator slot. All fields are independent relaxed
/// atomics: totals are exact, the workload-shape fields (`rows`, `nnz`,
/// `width`) record the last call and are only meaningful for runs with
/// a homogeneous shape (which every solver run is).
struct Slot {
    calls: AtomicU64,
    nanos: AtomicU64,
    flops: AtomicU64,
    min_bytes: AtomicU64,
    rows: AtomicU64,
    nnz: AtomicU64,
    width: AtomicU64,
    format: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            flops: AtomicU64::new(0),
            min_bytes: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            nnz: AtomicU64::new(0),
            width: AtomicU64::new(0),
            format: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
        self.flops.store(0, Ordering::Relaxed);
        self.min_bytes.store(0, Ordering::Relaxed);
        self.rows.store(0, Ordering::Relaxed);
        self.nnz.store(0, Ordering::Relaxed);
        self.width.store(0, Ordering::Relaxed);
        self.format.store(0, Ordering::Relaxed);
    }
}

static SLOTS: [Slot; 3] = [Slot::new(), Slot::new(), Slot::new()];

/// A running kernel measurement; drop it at the end of the kernel call.
pub struct KernelTimer {
    slot: &'static Slot,
    flops: u64,
    min_bytes: u64,
    rows: u64,
    nnz: u64,
    width: u64,
    format: u64,
    started: Instant,
}

/// Opens a timer for one `kind` kernel call on a `format` operator of
/// `rows` rows and `nnz` non-zeros at block width `width`; `counts`
/// gives the call's modeled `(flops, min_bytes)`. Returns `None` — one
/// relaxed atomic load, `counts` never called — when instrumentation is
/// disabled.
#[inline]
pub fn kernel_timer(
    kind: KernelKind,
    format: ProbeFormat,
    rows: usize,
    nnz: usize,
    width: usize,
    counts: impl FnOnce() -> (u64, u64),
) -> Option<KernelTimer> {
    if !crate::enabled() {
        return None;
    }
    let (flops, min_bytes) = counts();
    Some(KernelTimer {
        slot: &SLOTS[kind.index()],
        flops,
        min_bytes,
        rows: rows as u64,
        nnz: nnz as u64,
        width: width as u64,
        format: format.index(),
        started: Instant::now(),
    })
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        let ns = self.started.elapsed().as_nanos() as u64;
        self.slot.calls.fetch_add(1, Ordering::Relaxed);
        self.slot.nanos.fetch_add(ns, Ordering::Relaxed);
        self.slot.flops.fetch_add(self.flops, Ordering::Relaxed);
        self.slot
            .min_bytes
            .fetch_add(self.min_bytes, Ordering::Relaxed);
        self.slot.rows.store(self.rows, Ordering::Relaxed);
        self.slot.nnz.store(self.nnz, Ordering::Relaxed);
        self.slot.width.store(self.width, Ordering::Relaxed);
        self.slot.format.store(self.format, Ordering::Relaxed);
    }
}

/// Accumulated totals for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Which kernel.
    pub kind: KernelKind,
    /// Number of completed kernel calls.
    pub calls: u64,
    /// Total elapsed seconds inside the kernel.
    pub seconds: f64,
    /// Total modeled flops.
    pub flops: u64,
    /// Total modeled minimum data volume (bytes).
    pub min_bytes: u64,
    /// Rows of the last-seen matrix.
    pub rows: u64,
    /// Non-zeros of the last-seen matrix.
    pub nnz: u64,
    /// Block width of the last call.
    pub width: u64,
    /// Storage format of the last call.
    pub format: ProbeFormat,
}

impl KernelReport {
    /// Achieved performance in GF/s.
    pub fn gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.flops as f64 / self.seconds / 1e9
    }

    /// Minimum bytes per flop, B_min (paper Eq. 5 for the blocked
    /// kernel). Multiply by a measured Ω for the effective balance.
    pub fn min_bytes_per_flop(&self) -> f64 {
        if self.flops == 0 {
            return 0.0;
        }
        self.min_bytes as f64 / self.flops as f64
    }
}

/// Totals for every kernel that has recorded at least one call.
pub fn snapshot() -> Vec<KernelReport> {
    KernelKind::ALL
        .iter()
        .filter_map(|&kind| {
            let slot = &SLOTS[kind.index()];
            let calls = slot.calls.load(Ordering::Relaxed);
            if calls == 0 {
                return None;
            }
            Some(KernelReport {
                kind,
                calls,
                seconds: slot.nanos.load(Ordering::Relaxed) as f64 / 1e9,
                flops: slot.flops.load(Ordering::Relaxed),
                min_bytes: slot.min_bytes.load(Ordering::Relaxed),
                rows: slot.rows.load(Ordering::Relaxed),
                nnz: slot.nnz.load(Ordering::Relaxed),
                width: slot.width.load(Ordering::Relaxed),
                format: ProbeFormat::from_index(slot.format.load(Ordering::Relaxed)),
            })
        })
        .collect()
}

/// Clears every kernel slot.
pub(crate) fn reset() {
    for slot in &SLOTS {
        slot.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as serial;

    #[test]
    fn disabled_probe_is_none_and_never_counts() {
        let _g = serial();
        crate::set_enabled(false);
        let counts = || -> (u64, u64) { unreachable!("counted only when enabled") };
        assert!(kernel_timer(KernelKind::Spmv, ProbeFormat::Crs, 10, 50, 1, counts).is_none());
    }

    #[test]
    fn probes_accumulate_the_counts_they_are_handed() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        for _ in 0..3 {
            let _t = kernel_timer(
                KernelKind::AugSpmmv,
                ProbeFormat::Stencil,
                100,
                700,
                8,
                || (72_000, 38_400),
            );
        }
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        let rep = &snap[0];
        assert_eq!(rep.kind, KernelKind::AugSpmmv);
        assert_eq!((rep.calls, rep.flops, rep.min_bytes), (3, 216_000, 115_200));
        assert_eq!((rep.rows, rep.nnz, rep.width), (100, 700, 8));
        assert_eq!(rep.format, ProbeFormat::Stencil);
        assert_eq!(rep.min_bytes_per_flop(), 115_200.0 / 216_000.0);
    }
}
