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
//! arrays its parallel fill writes first). Its pages arrive untouched;
//! the solver's block vectors have each chunk's pages populated in one
//! batch before the chunk is written ([`populate_pages`]) instead of
//! faulting them one 4 KiB page at a time.

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
/// each page is paid once, by the thread that first writes it (a worker
/// filling its chunk of a CRS). The solver's block vectors are the
/// exception: the worker about to write a chunk has its pages populated
/// in one batch first ([`populate_pages`]).
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

/// Page size the batch request of [`populate_pages`] is cut to: the
/// only base page size x86-64 Linux has.
const PAGE_BYTES: usize = 4096;

/// Asks the kernel to back every whole page inside `data` in one call
/// (`madvise(MADV_POPULATE_WRITE)`, Linux 5.14+) instead of one write
/// fault per 4 KiB page when the caller then writes them. The bytes of
/// `data` are not changed: a page already backed stays as it is, and a
/// fresh one is backed with the zeros it read as. Errors are ignored —
/// an older kernel answers `EINVAL`, and the first write then faults
/// each page as it would have without the call. A no-op on slices that
/// hold no whole page and off x86-64 Linux (other Linux targets may run
/// 16 or 64 KiB pages, which a 4 KiB cut would not fit).
pub fn populate_pages<T>(data: &mut [T]) {
    let start = data.as_mut_ptr().cast::<u8>();
    let first = start.addr().next_multiple_of(PAGE_BYTES);
    let end = (start.addr() + std::mem::size_of_val(data)) & !(PAGE_BYTES - 1);
    if first >= end {
        return;
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        extern "C" {
            fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
        }
        const MADV_POPULATE_WRITE: i32 = 23;
        // SAFETY: `madvise` is the libc madvise(2) binding (std links
        // libc on Linux). Pages are 4 KiB on x86-64 Linux, so
        // `[first, end)` is a page-aligned range of whole pages inside
        // `data`, which the unique borrow keeps mapped and unread by
        // anyone else for the call, and MADV_POPULATE_WRITE only backs
        // pages: it reads and writes no byte of them.
        unsafe {
            madvise(
                start.wrapping_add(first - start.addr()),
                end - first,
                MADV_POPULATE_WRITE,
            );
        }
    }
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

    /// Runs [`populate_pages`] on `data[range]` and checks that no byte
    /// of `data` changed.
    fn populate_keeps_bytes(data: &mut [Complex64], range: std::ops::Range<usize>) {
        let before = data.to_vec();
        populate_pages(&mut data[range]);
        let same = |(a, b): (&Complex64, &Complex64)| {
            (a.re.to_bits(), a.im.to_bits()) == (b.re.to_bits(), b.im.to_bits())
        };
        assert!(data.iter().zip(&before).all(same));
    }

    #[test]
    fn populating_an_empty_slice_does_nothing() {
        populate_pages::<Complex64>(&mut []);
        let mut v = zeroed_vec::<Complex64>(8);
        populate_keeps_bytes(&mut v, 3..3);
    }

    #[test]
    fn populating_less_than_a_page_keeps_every_byte() {
        let mut v: Vec<Complex64> = (0..100).map(|i| Complex64::new(i as f64, -0.0)).collect();
        populate_keeps_bytes(&mut v, 1..99);
        let mut z = zeroed_vec::<Complex64>(100);
        populate_keeps_bytes(&mut z, 0..100);
    }

    #[test]
    fn populating_from_mid_page_to_mid_page_keeps_every_byte() {
        // 5 pages of fresh zeros, cut 17 elements in from either end:
        // the whole pages between are populated, the cut ones are not.
        let len = 5 * PAGE_BYTES / std::mem::size_of::<Complex64>();
        let mut v = zeroed_vec::<Complex64>(len);
        populate_keeps_bytes(&mut v, 17..len - 17);
        assert!(v.iter().all(|z| *z == Complex64::default()));
    }

    #[test]
    fn populating_written_pages_keeps_their_values() {
        let len = 40 * PAGE_BYTES / std::mem::size_of::<Complex64>() + 3;
        let mut v = zeroed_vec::<Complex64>(len);
        // Every other page written, the rest still fresh zeros.
        for (i, z) in v.iter_mut().enumerate().step_by(7) {
            if (i * std::mem::size_of::<Complex64>() / PAGE_BYTES).is_multiple_of(2) {
                *z = Complex64::new(i as f64, -(i as f64));
            }
        }
        populate_keeps_bytes(&mut v, 0..len);
        let mut a = AlignedVec::from_slice(&v);
        populate_keeps_bytes(&mut a, 5..len);
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
