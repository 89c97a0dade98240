//! NUMA-style first-touch placement of the hot kernel arrays.
//!
//! Linux places a page on the NUMA node of the core that *first writes*
//! it, not the one that allocated it. Today every matrix and block
//! vector is filled on the caller thread, so on a multi-socket host all
//! pages land on the caller's node and the far socket's workers stream
//! remote memory for the whole run. The first-touch path inverts that:
//!
//! 1. allocate the array **untouched** — [`zeroed_vec`] goes through
//!    `alloc_zeroed`, which for large blocks returns copy-on-write zero
//!    pages that have no physical placement yet;
//! 2. partition it into the same contiguous ranges the kernels stream;
//! 3. fault each range from the worker the pool's **stable part→worker
//!    assignment** gives it (`rayon::run_pinned`: part `p` always runs
//!    on worker `p % threads`, pinned chunks are never stolen).
//!
//! Placement is a pure performance property: the faulted bytes are the
//! bytes the caller-side init would have written, so every result stays
//! bitwise-identical with the path on or off.

use kpm_num::{BlockVector, Complex64};

/// Marker for plain-old-data element types whose all-zero bit pattern
/// is a valid value, as [`zeroed_vec`] requires.
///
/// # Safety
///
/// Implementors assert that a `T` consisting entirely of zero bytes is
/// a fully initialized, valid `T`.
pub(crate) unsafe trait ZeroInit: Copy {}
// SAFETY: the all-zero u32 is 0.
unsafe impl ZeroInit for u32 {}
// SAFETY: all-zero bytes are the f64 +0.0.
unsafe impl ZeroInit for f64 {}
// SAFETY: `Complex64` is `repr(C)` over two f64s; all-zero bytes are
// `0 + 0i`, its `Default`.
unsafe impl ZeroInit for Complex64 {}

/// Allocates a length-`len` vector of zeroed `T`s *without touching*
/// the memory: `alloc_zeroed` hands back untouched copy-on-write zero
/// pages for large requests, so physical placement is decided by
/// whichever thread writes each page first.
pub(crate) fn zeroed_vec<T: ZeroInit>(len: usize) -> Vec<T> {
    assert!(std::mem::size_of::<T>() > 0, "zeroed_vec: zero-sized T");
    if len == 0 {
        return Vec::new();
    }
    let Ok(layout) = std::alloc::Layout::array::<T>(len) else {
        // Allocation-size overflow: unreachable for any in-memory
        // matrix this crate can hold, and handled like exhaustion.
        std::alloc::handle_alloc_error(std::alloc::Layout::new::<T>());
    };
    // SAFETY: `layout` has non-zero size (len >= 1, T non-zero-sized).
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
    if ptr.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    // SAFETY: `ptr` was just allocated with the array layout of `len`
    // `T`s, `alloc_zeroed` guarantees all-zero bytes, and `T: ZeroInit`
    // certifies the all-zero pattern as a valid `T` — so this is a
    // fully initialized vector with length == capacity == `len`.
    unsafe { Vec::from_raw_parts(ptr.cast::<T>(), len, len) }
}

/// Shared raw write handle for the disjoint-range fills below. Each
/// pinned part writes only its own contiguous element range, so the
/// stores never alias.
pub(crate) struct RangePtr<T>(pub(crate) *mut T);

// SAFETY: the pointer is only dereferenced inside pairwise-disjoint
// ranges (one per pinned part), and the element types are `Send`.
unsafe impl<T: Send> Send for RangePtr<T> {}
// SAFETY: see the `Send` impl above — disjoint ranges only.
unsafe impl<T: Send> Sync for RangePtr<T> {}

/// Rebuilds `src` in a fresh untouched allocation, each of `parts`
/// ranges copied into place by its pinned worker (`range_of(p)` gives
/// part `p`'s element range; ranges must be disjoint and cover the
/// length in union). Returns the re-placed vector.
pub(crate) fn refault_copy_by<T, F>(src: &[T], parts: usize, range_of: F) -> Vec<T>
where
    T: ZeroInit + Send + Sync,
    F: Fn(usize) -> (usize, usize) + Sync,
{
    let mut dst = zeroed_vec::<T>(src.len());
    if src.is_empty() || parts == 0 {
        return dst;
    }
    let out = RangePtr(dst.as_mut_ptr());
    let out = &out;
    rayon::run_pinned(parts, |p| {
        let (lo, hi) = range_of(p);
        let hi = hi.min(src.len());
        if lo < hi {
            // SAFETY: `range_of` yields pairwise-disjoint in-bounds
            // ranges (asserted by the callers' partitions), `src` and
            // `dst` are distinct allocations, and `dst` outlives the
            // blocking `run_pinned` call.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr().add(lo), out.0.add(lo), hi - lo);
            }
        }
    });
    dst
}

/// Page granularity assumed by [`fault_block_rows`]: one write per
/// 4 KiB is enough to fault a page on every supported target (huge
/// pages only make the loop redundantly cheap).
const PAGE_BYTES: usize = 4096;

/// Volatile-touches every page of `data` in place, preserving its
/// contents. Volatile, because a plain "write back what is there"
/// of known-zero freshly allocated memory is exactly what the
/// optimizer may elide — and an elided store faults nothing.
fn fault_range<T>(data: &mut [T]) {
    let bytes = std::mem::size_of_val(data);
    let p = data.as_mut_ptr().cast::<u8>();
    let mut off = 0;
    while off < bytes {
        // SAFETY: `off < bytes`, so `p + off` is inside the borrowed
        // range; the byte is read and written back unchanged.
        unsafe {
            let b = p.add(off);
            std::ptr::write_volatile(b, std::ptr::read_volatile(b));
        }
        off += PAGE_BYTES;
    }
}

/// Faults the pages of a (freshly zero-allocated) block vector from
/// the workers that will stream its rows: the row space is split into
/// `parts` contiguous ranges, range `p` faulted by pinned worker
/// `p % threads`. `parts == 0` means one range per pool thread.
/// Contents are preserved (the touch is a volatile read-write of the
/// bytes already there), so calling this is always bitwise-safe.
pub fn fault_block_rows(v: &mut BlockVector, parts: usize) {
    let rows = v.rows();
    let width = v.width();
    if rows == 0 || width == 0 {
        return;
    }
    let parts = if parts == 0 {
        rayon::current_num_threads().max(1)
    } else {
        parts
    }
    .min(rows);
    let rows_per = rows.div_ceil(parts);
    let data = v.as_mut_slice();
    let len = data.len();
    let out = RangePtr(data.as_mut_ptr());
    let out = &out;
    rayon::run_pinned(parts, |p| {
        let lo = p * rows_per * width;
        let hi = ((p + 1) * rows_per * width).min(len);
        if lo < hi {
            // SAFETY: contiguous pairwise-disjoint element ranges of
            // the block's backing slice, which outlives the blocking
            // `run_pinned` call.
            let range = unsafe { std::slice::from_raw_parts_mut(out.0.add(lo), hi - lo) };
            fault_range(range);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_vec_is_zero() {
        let v = zeroed_vec::<Complex64>(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|z| *z == Complex64::default()));
        let u = zeroed_vec::<u32>(17);
        assert!(u.iter().all(|x| *x == 0));
        assert!(zeroed_vec::<f64>(0).is_empty());
    }

    #[test]
    fn refault_copy_preserves_contents() {
        let src: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.25 - 3.0).collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let dst = pool.install(|| refault_copy_by(&src, 4, |p| (p * 2500, (p + 1) * 2500)));
        assert_eq!(src, dst);
        // Serial path too, with a ragged final range.
        let dst1 = refault_copy_by(&src, 3, |p| (p * 4000, (p + 1) * 4000));
        assert_eq!(src, dst1);
    }

    #[test]
    fn fault_block_rows_preserves_contents() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let v0 = BlockVector::random(513, 3, &mut rng);
        let mut v = v0.clone();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| fault_block_rows(&mut v, 0));
        assert_eq!(v.max_abs_diff(&v0), 0.0);
        fault_block_rows(&mut v, 7);
        assert_eq!(v.max_abs_diff(&v0), 0.0);
    }

    #[test]
    fn first_touch_is_bitwise_neutral() {
        use crate::{CooMatrix, KpmMatrix, SparseKernels};
        // A Hermitian chain long enough for every worker to own a part.
        let n = 5000;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, Complex64::real(0.001 * r as f64 - 1.0));
            if r + 1 < n {
                coo.push(r, r + 1, Complex64::new(-0.5, 0.25));
                coo.push(r + 1, r, Complex64::new(-0.5, -0.25));
            }
        }
        let h = coo.to_crs();
        let v: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(1.0 / (i + 1) as f64, 0.25 - (i % 7) as f64 * 0.05))
            .collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let base = KpmMatrix::crs(h.clone());
        let placed = pool.install(|| KpmMatrix::crs(h).with_first_touch(true));
        assert!(!base.first_touch());
        assert!(placed.first_touch());
        assert_eq!(placed.as_crs(), base.as_crs());
        let (mut w1, mut w2) = (v.clone(), v.clone());
        let d1 = base.aug_spmv_par(0.5, -0.1, &v, &mut w1);
        let d2 = pool.install(|| placed.aug_spmv_par(0.5, -0.1, &v, &mut w2));
        assert_eq!(w1, w2);
        assert_eq!(d1, d2);
    }
}
