//! Cache-line-aligned storage.
//!
//! The paper's CPU kernels are hand-vectorized with 256-bit AVX
//! intrinsics; aligned loads/stores require the vector and block-vector
//! buffers to start on (at least) 32-byte boundaries, and avoiding
//! split cache lines wants 64. Rust's `Vec` gives no alignment
//! guarantee beyond `align_of::<T>()` (16 for our `Complex64`), so the
//! numeric containers use this buffer instead: a fixed-length,
//! 64-byte-aligned view into a vector from the workspace's one zeroing
//! allocator, [`zeroed_vec`] (which also hands `kpm-sparse` the CRS
//! arrays its parallel fill writes first).

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};

use crate::complex::Complex64;

/// Alignment of all numeric buffers (one x86 cache line).
pub const BUFFER_ALIGN: usize = 64;

/// Marker for plain-old-data element types whose all-zero bit pattern
/// is a valid value, as [`zeroed_vec`] requires.
///
/// # Safety
///
/// Implementors assert that a `T` consisting entirely of zero bytes is
/// a fully initialized, valid `T`.
pub unsafe trait ZeroInit: Copy {}
// SAFETY: the all-zero u32 is 0.
unsafe impl ZeroInit for u32 {}
// SAFETY: `Complex64` is `repr(C)` over two f64s; all-zero bytes are
// `0 + 0i`, its `Default`.
unsafe impl ZeroInit for Complex64 {}

/// Allocates a length-`len` vector of zeroed `T`s *without touching*
/// the memory — the workspace's one zeroing allocator. `alloc_zeroed`
/// hands back untouched copy-on-write zero pages for large requests, so
/// each page fault is paid once, by the thread that first writes the
/// page (a worker filling its chunk of a CRS, the sweep writing `w`).
pub fn zeroed_vec<T: ZeroInit>(len: usize) -> Vec<T> {
    assert!(std::mem::size_of::<T>() > 0, "zeroed_vec: zero-sized T");
    if len == 0 {
        return Vec::new();
    }
    let Ok(layout) = Layout::array::<T>(len) else {
        // Allocation-size overflow: unreachable for anything that fits
        // in memory, and handled like exhaustion.
        handle_alloc_error(Layout::new::<T>());
    };
    // SAFETY: `layout` has non-zero size (len >= 1, T non-zero-sized).
    let ptr = unsafe { alloc_zeroed(layout) };
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    // SAFETY: `ptr` was just allocated with the array layout of `len`
    // `T`s, `alloc_zeroed` guarantees all-zero bytes, and `T: ZeroInit`
    // certifies the all-zero pattern as a valid `T` — so this is a
    // fully initialized vector with length == capacity == `len`.
    unsafe { Vec::from_raw_parts(ptr.cast::<T>(), len, len) }
}

/// Elements a [`Complex64`] allocation can be short of a cache-line
/// boundary by.
const PAD: usize = BUFFER_ALIGN / std::mem::size_of::<Complex64>() - 1;

/// A fixed-length, zero-initialized, 64-byte-aligned buffer of
/// [`Complex64`]: a [`zeroed_vec`] with room for [`PAD`] more elements,
/// entered at its first cache-line boundary. Dereferences to a slice,
/// so all kernel code operates on `&[Complex64]` / `&mut [Complex64]`
/// as usual.
pub struct AlignedVec {
    buf: Vec<Complex64>,
    /// Index of the first element on a cache-line boundary.
    start: usize,
    len: usize,
}

impl AlignedVec {
    /// Allocates `len` zeroed elements at 64-byte alignment.
    pub fn zeroed(len: usize) -> Self {
        let buf = zeroed_vec::<Complex64>(len + PAD);
        // The allocation is aligned to the element size, so the boundary
        // is a whole number of elements (at most `PAD`) away.
        let short = buf.as_ptr().addr().wrapping_neg() % BUFFER_ALIGN;
        Self {
            start: short / std::mem::size_of::<Complex64>(),
            buf,
            len,
        }
    }

    /// Copies a slice into a fresh aligned buffer.
    pub fn from_slice(data: &[Complex64]) -> Self {
        let mut v = Self::zeroed(data.len());
        v.as_mut_slice().copy_from_slice(data);
        v
    }

    /// Length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows the contents.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Mutably borrows the contents.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl Deref for AlignedVec {
    type Target = [Complex64];
    fn deref(&self) -> &[Complex64] {
        self.as_slice()
    }
}

impl DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [Complex64] {
        self.as_mut_slice()
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedVec")
            .field("len", &self.len)
            .field("data", &self.as_slice())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_aligned_and_zeroed() {
        let v = AlignedVec::zeroed(1000);
        assert_eq!(v.as_slice().as_ptr() as usize % BUFFER_ALIGN, 0);
        assert!(v.iter().all(|z| *z == Complex64::default()));
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn zeroed_vec_is_zero() {
        let v = zeroed_vec::<Complex64>(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|z| *z == Complex64::default()));
        assert!(zeroed_vec::<u32>(17).iter().all(|x| *x == 0));
        assert!(zeroed_vec::<u32>(0).is_empty());
    }

    #[test]
    fn many_sizes_stay_aligned() {
        for len in [1usize, 3, 7, 64, 65, 4097] {
            let v = AlignedVec::zeroed(len);
            assert_eq!(
                v.as_slice().as_ptr() as usize % BUFFER_ALIGN,
                0,
                "len={len}"
            );
        }
    }

    #[test]
    fn from_slice_roundtrip_and_clone() {
        let data: Vec<Complex64> = (0..37).map(|i| Complex64::new(i as f64, -1.0)).collect();
        let v = AlignedVec::from_slice(&data);
        assert_eq!(v.as_slice(), data.as_slice());
        let w = v.clone();
        assert_eq!(v, w);
        assert_ne!(v.as_slice().as_ptr(), w.as_slice().as_ptr());
    }

    #[test]
    fn deref_allows_slice_ops() {
        let mut v = AlignedVec::zeroed(8);
        v[3] = Complex64::real(5.0);
        assert_eq!(v[3].re, 5.0);
        v.fill(Complex64::real(1.0));
        let s: f64 = v.iter().map(|z| z.re).sum();
        assert_eq!(s, 8.0);
    }

    #[test]
    fn empty_buffer_is_safe() {
        let v = AlignedVec::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[]);
        let w = v.clone();
        assert_eq!(v, w);
    }

    #[test]
    fn send_across_threads() {
        let v = AlignedVec::from_slice(&[Complex64::real(2.0); 16]);
        let handle = std::thread::spawn(move || v.iter().map(|z| z.re).sum::<f64>());
        assert_eq!(handle.join().unwrap(), 32.0);
    }
}
