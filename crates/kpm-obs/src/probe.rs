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
//! The accounting constants mirror `kpm_num::accounting` (S_D = 16,
//! S_I = 4, F_A = 2, F_M = 6). They are duplicated here because this
//! crate depends on nothing; `tests/observability.rs` at the workspace
//! root asserts the two stay in sync.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Bytes per complex double (mirrors `kpm_num::accounting::S_D`).
pub const S_D: u64 = 16;
/// Bytes per column index (mirrors `kpm_num::accounting::S_I`).
pub const S_I: u64 = 4;
/// Flops per complex add (mirrors `kpm_num::accounting::F_A`).
pub const F_A: u64 = 2;
/// Flops per complex mult (mirrors `kpm_num::accounting::F_M`).
pub const F_M: u64 = 6;

/// The sparse-matrix storage format a kernel call ran against,
/// recorded per probe call so the report can name it next to the
/// achieved performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeFormat {
    /// Compressed Row Storage (SELL-1-1 in the paper's terminology).
    #[default]
    Crs,
    /// Matrix-free stencil: rows regenerated on the fly, no stored
    /// elements — the matrix term vanishes from the byte model while
    /// the flop model keeps the logical `nnz`.
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

    /// Modeled flops of one sweep of this kernel over a matrix with
    /// `nnz` non-zeros and `rows` rows, block width `width`.
    ///
    /// `spmv` does only the multiply-add chain; the augmented kernels
    /// add the fused scale/shift/swap and dot products (7/2 adds and
    /// 9/2 mults per row per vector — paper Table III).
    pub fn sweep_flops(self, rows: usize, nnz: usize, width: usize) -> u64 {
        let (rows, nnz, w) = (rows as u64, nnz as u64, width as u64);
        match self {
            KernelKind::Spmv => w * nnz * (F_A + F_M),
            KernelKind::AugSpmv | KernelKind::AugSpmmv => {
                w * (nnz * (F_A + F_M) + rows * (7 * F_A + 9 * F_M) / 2)
            }
        }
    }

    /// Modeled minimum data volume of one sweep (bytes): the matrix
    /// streamed once plus the block vectors touched once each.
    pub fn sweep_min_bytes(self, rows: usize, nnz: usize, width: usize) -> u64 {
        let (rows, nnz, w) = (rows as u64, nnz as u64, width as u64);
        let matrix = nnz * (S_D + S_I);
        match self {
            // x read + y written.
            KernelKind::Spmv => matrix + 2 * w * rows * S_D,
            // v read, w read + written (in-place recurrence).
            KernelKind::AugSpmv | KernelKind::AugSpmmv => matrix + 3 * w * rows * S_D,
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

/// Opens a timer for one `kind` kernel call over `rows`×`rows` with
/// `nnz` non-zeros at block width `width`. Returns `None` (zero cost
/// beyond one relaxed atomic load) when instrumentation is disabled.
///
/// Shorthand for [`kernel_timer_fmt`] with a CRS matrix.
#[inline]
pub fn kernel_timer(
    kind: KernelKind,
    rows: usize,
    nnz: usize,
    width: usize,
) -> Option<KernelTimer> {
    kernel_timer_fmt(kind, rows, nnz, width, ProbeFormat::Crs)
}

/// Opens a timer for one `kind` kernel call, recording the storage
/// format.
#[inline]
pub fn kernel_timer_fmt(
    kind: KernelKind,
    rows: usize,
    nnz: usize,
    width: usize,
    format: ProbeFormat,
) -> Option<KernelTimer> {
    if !crate::enabled() {
        return None;
    }
    // A matrix-free format never streams matrix elements: its byte
    // model uses nnz = 0 (pure vector traffic) while the flop model
    // keeps the logical non-zero count.
    let byte_nnz = match format {
        ProbeFormat::Stencil => 0,
        ProbeFormat::Crs => nnz,
    };
    Some(KernelTimer {
        slot: &SLOTS[kind.index()],
        flops: kind.sweep_flops(rows, nnz, width),
        min_bytes: kind.sweep_min_bytes(rows, byte_nnz, width),
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
    fn disabled_probe_is_none() {
        let _g = serial();
        crate::set_enabled(false);
        assert!(kernel_timer(KernelKind::Spmv, 10, 50, 1).is_none());
    }

    #[test]
    fn probes_accumulate_flops_and_bytes() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        for _ in 0..3 {
            let _t = kernel_timer(KernelKind::AugSpmmv, 100, 700, 8);
        }
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        let rep = &snap[0];
        assert_eq!(rep.kind, KernelKind::AugSpmmv);
        assert_eq!(rep.calls, 3);
        assert_eq!(rep.flops, 3 * KernelKind::AugSpmmv.sweep_flops(100, 700, 8));
        assert_eq!(
            rep.min_bytes,
            3 * KernelKind::AugSpmmv.sweep_min_bytes(100, 700, 8)
        );
        assert_eq!((rep.rows, rep.nnz, rep.width), (100, 700, 8));
        assert_eq!(rep.format, ProbeFormat::Crs, "the plain entry point");
        assert!(rep.min_bytes_per_flop() > 0.0);
    }

    #[test]
    fn flop_model_matches_hand_count() {
        // nnz*(Fa+Fm) = 700*8 = 5600 per vector for spmv;
        // aug adds rows*(7*Fa + 9*Fm)/2 = 100*34 = 3400.
        assert_eq!(KernelKind::Spmv.sweep_flops(100, 700, 1), 5600);
        assert_eq!(KernelKind::AugSpmv.sweep_flops(100, 700, 1), 9000);
        assert_eq!(KernelKind::AugSpmmv.sweep_flops(100, 700, 4), 36000);
    }

    #[test]
    fn stencil_probe_drops_matrix_traffic() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        {
            let _t = kernel_timer_fmt(KernelKind::AugSpmmv, 100, 1300, 4, ProbeFormat::Stencil);
        }
        let rep = &snapshot()[0];
        assert_eq!(rep.format, ProbeFormat::Stencil);
        // Flops keep the logical nnz; bytes are pure vector traffic.
        assert_eq!(rep.flops, KernelKind::AugSpmmv.sweep_flops(100, 1300, 4));
        assert_eq!(
            rep.min_bytes,
            KernelKind::AugSpmmv.sweep_min_bytes(100, 0, 4)
        );
    }

    #[test]
    fn byte_model_matches_hand_count() {
        // matrix: 700*(16+4) = 14000.
        assert_eq!(KernelKind::Spmv.sweep_min_bytes(100, 700, 1), 14000 + 3200);
        assert_eq!(
            KernelKind::AugSpmv.sweep_min_bytes(100, 700, 1),
            14000 + 4800
        );
        assert_eq!(
            KernelKind::AugSpmmv.sweep_min_bytes(100, 700, 4),
            14000 + 3 * 4 * 100 * 16
        );
    }
}
