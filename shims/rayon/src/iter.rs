//! Indexed parallel iterators over the pool.
//!
//! Everything here is an *indexed source*: it knows its length and can
//! hand out an ordinary sequential iterator over any subrange of its
//! index space ([`ParallelIterator::range_seq`]). The pool cuts the
//! index space into equal ranges; adapters (`map`, `zip`, `enumerate`)
//! compose at the range level; drivers (`for_each`, `sum`, `collect`)
//! execute the ranges on the pool.
//!
//! Ordered determinism: range k is `[k·grain, (k+1)·grain)` whoever
//! runs it, so `collect` and `sum` put its items into slot k and read
//! the slots in order; their results are identical to a serial run no
//! matter which thread claimed what. (Floating-point *reduction trees*
//! in the kernels additionally pin their partial-sum boundaries to
//! fixed chunk sizes via `par_chunks`, which this layer never re-cuts
//! below the chunk granularity.)

use std::marker::PhantomData;
use std::sync::Mutex;

use crate::pool;

/// An indexed parallel iterator: a length plus random access to
/// sequential iterators over subranges.
///
/// # Safety contract of `range_seq`
///
/// Implementations may hand out aliasing mutable access on the promise
/// that concurrent calls receive pairwise-disjoint, in-bounds ranges —
/// which is exactly what the pool guarantees. Only the drivers in this
/// module call `range_seq`.
pub trait ParallelIterator: Sized + Send + Sync {
    /// Element type produced for each index.
    type Item: Send;
    /// Sequential iterator over one index subrange.
    type Seq<'s>: Iterator<Item = Self::Item>
    where
        Self: 's;

    /// Number of indices in the source.
    fn par_len(&self) -> usize;

    /// Sequential iterator over indices `lo..hi`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee `lo <= hi <= self.par_len()` and that
    /// ranges passed to concurrent calls are pairwise disjoint; mutable
    /// sources rely on this for exclusive access.
    unsafe fn range_seq(&self, lo: usize, hi: usize) -> Self::Seq<'_>;

    /// Maps each element through `f`.
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Send + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Pairs elements with a second source (length = the shorter one).
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Pairs each element with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Consumes every element on the pool.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        let source = &self;
        let f = &f;
        pool::current_registry().run(source.par_len(), &|lo, hi| {
            // SAFETY: the pool hands out disjoint in-bounds ranges.
            for item in unsafe { source.range_seq(lo, hi) } {
                f(item);
            }
        });
    }

    /// Sums the elements, collected in index order and summed
    /// sequentially, so the result does not depend on the thread count.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item>,
    {
        collect_vec(self).into_iter().sum()
    }

    /// Collects into any [`FromParallelIterator`] target, in index
    /// order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Conversion into a [`ParallelIterator`] (implemented for `Range<usize>`).
pub trait IntoParallelIterator {
    /// Element type of the resulting iterator.
    type Item: Send;
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

/// Collection targets for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T: Send>: Sized {
    /// Builds `Self` from the elements of `par`, in index order.
    fn from_par_iter<P>(par: P) -> Self
    where
        P: ParallelIterator<Item = T>;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P>(par: P) -> Vec<T>
    where
        P: ParallelIterator<Item = T>,
    {
        collect_vec(par)
    }
}

/// Short-circuit-style collection: the elements are gathered in index
/// order, then the *first* `Err` in that order wins — the same error a
/// serial run would report, independent of scheduling.
impl<C, T, E> FromParallelIterator<Result<T, E>> for Result<C, E>
where
    C: FromIterator<T>,
    T: Send,
    E: Send,
{
    fn from_par_iter<P>(par: P) -> Result<C, E>
    where
        P: ParallelIterator<Item = Result<T, E>>,
    {
        collect_vec(par).into_iter().collect()
    }
}

/// Runs `par` on the pool and returns all elements in index order.
fn collect_vec<P: ParallelIterator>(par: P) -> Vec<P::Item> {
    let len = par.par_len();
    let source = &par;
    let registry = pool::current_registry();
    // One slot per range, written once by whoever runs the range (an
    // inline run is the one range `[0, len)`, slot 0): the mutexes are
    // never contended, they let `Send` items cross threads safely.
    let grain = registry.grain(len);
    let parts: Vec<Mutex<Vec<P::Item>>> = (0..len.div_ceil(grain))
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    registry.run(len, &|lo, hi| {
        // SAFETY: the pool hands out disjoint in-bounds ranges.
        let items = unsafe { source.range_seq(lo, hi) }.collect();
        *parts[lo / grain].lock().expect("collect slot") = items;
    });
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.append(&mut part.into_inner().expect("collect slot"));
    }
    out
}

/// Parallel iterator over `&[T]` (`par_iter`).
#[derive(Clone, Copy)]
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T> ParIter<'a, T> {
    pub(crate) fn new(slice: &'a [T]) -> Self {
        ParIter { slice }
    }
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    type Seq<'s>
        = std::slice::Iter<'a, T>
    where
        Self: 's;

    fn par_len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn range_seq(&self, lo: usize, hi: usize) -> Self::Seq<'_> {
        self.slice[lo..hi].iter()
    }
}

/// Parallel iterator over fixed-size chunks of `&[T]` (`par_chunks`).
#[derive(Clone, Copy)]
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T> ParChunks<'a, T> {
    pub(crate) fn new(slice: &'a [T], size: usize) -> Self {
        assert!(size > 0, "par_chunks: chunk size must be positive");
        ParChunks { slice, size }
    }
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];
    type Seq<'s>
        = std::slice::Chunks<'a, T>
    where
        Self: 's;

    fn par_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    unsafe fn range_seq(&self, lo: usize, hi: usize) -> Self::Seq<'_> {
        // Chunk indices map to element offsets that stay aligned to the
        // chunk size, so a plain sub-slice re-chunks identically.
        let start = lo * self.size;
        let end = (hi * self.size).min(self.slice.len());
        self.slice[start..end].chunks(self.size)
    }
}

/// Parallel iterator over `&mut [T]` (`par_iter_mut`).
pub struct ParIterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

impl<'a, T> ParIterMut<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        ParIterMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }
}

// SAFETY: the raw pointer stands in for the exclusive borrow captured in
// `_marker`; disjoint subranges of an exclusive slice may move across /
// be shared between threads whenever `T: Send` (same rule as
// `&mut [T]: Send`). Shared access (`Sync`) only ever hands out
// *disjoint* subranges per the `range_seq` contract.
unsafe impl<T: Send> Send for ParIterMut<'_, T> {}
// SAFETY: see the `Send` impl above.
unsafe impl<T: Send> Sync for ParIterMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq<'s>
        = std::slice::IterMut<'a, T>
    where
        Self: 's;

    fn par_len(&self) -> usize {
        self.len
    }

    unsafe fn range_seq(&self, lo: usize, hi: usize) -> Self::Seq<'_> {
        debug_assert!(lo <= hi && hi <= self.len);
        // SAFETY: in-bounds by the contract; exclusivity holds because
        // concurrent callers receive pairwise-disjoint ranges of the
        // exclusively-borrowed slice this was built from.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }.iter_mut()
    }
}

/// Parallel iterator over fixed-size chunks of `&mut [T]`
/// (`par_chunks_mut`).
pub struct ParChunksMut<'a, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _marker: PhantomData<&'a mut [T]>,
}

impl<'a, T> ParChunksMut<'a, T> {
    pub(crate) fn new(slice: &'a mut [T], size: usize) -> Self {
        assert!(size > 0, "par_chunks_mut: chunk size must be positive");
        ParChunksMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            size,
            _marker: PhantomData,
        }
    }
}

// SAFETY: as for `ParIterMut` — disjoint chunk ranges of an exclusive
// slice; chunk index ranges map to disjoint element ranges.
unsafe impl<T: Send> Send for ParChunksMut<'_, T> {}
// SAFETY: see the `Send` impl above.
unsafe impl<T: Send> Sync for ParChunksMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq<'s>
        = std::slice::ChunksMut<'a, T>
    where
        Self: 's;

    fn par_len(&self) -> usize {
        self.len.div_ceil(self.size)
    }

    unsafe fn range_seq(&self, lo: usize, hi: usize) -> Self::Seq<'_> {
        let start = lo * self.size;
        let end = (hi * self.size).min(self.len);
        debug_assert!(start <= end && end <= self.len);
        // SAFETY: chunk ranges `lo..hi` map to element ranges
        // `lo*size..hi*size` (clamped), which are disjoint whenever the
        // chunk ranges are — the `range_seq` contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
            .chunks_mut(self.size)
    }
}

/// Parallel iterator over a `usize` range (`(a..b).into_par_iter()`).
#[derive(Clone, Copy)]
pub struct ParRange {
    start: usize,
    len: usize,
}

impl ParallelIterator for ParRange {
    type Item = usize;
    type Seq<'s>
        = std::ops::Range<usize>
    where
        Self: 's;

    fn par_len(&self) -> usize {
        self.len
    }

    unsafe fn range_seq(&self, lo: usize, hi: usize) -> Self::Seq<'_> {
        (self.start + lo)..(self.start + hi)
    }
}

/// Adapter behind [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;
    type Seq<'s>
        = std::iter::Map<P::Seq<'s>, &'s F>
    where
        Self: 's;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    unsafe fn range_seq(&self, lo: usize, hi: usize) -> Self::Seq<'_> {
        // SAFETY: contract forwarded unchanged to the base source.
        unsafe { self.base.range_seq(lo, hi) }.map(&self.f)
    }
}

/// Adapter behind [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);
    type Seq<'s>
        = std::iter::Zip<A::Seq<'s>, B::Seq<'s>>
    where
        Self: 's;

    fn par_len(&self) -> usize {
        self.a.par_len().min(self.b.par_len())
    }

    unsafe fn range_seq(&self, lo: usize, hi: usize) -> Self::Seq<'_> {
        // SAFETY: `lo..hi` is in bounds for both sides (len = min) and
        // disjointness carries over per side.
        unsafe { self.a.range_seq(lo, hi).zip(self.b.range_seq(lo, hi)) }
    }
}

/// Adapter behind [`ParallelIterator::enumerate`].
pub struct Enumerate<P> {
    base: P,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    type Seq<'s>
        = std::iter::Zip<std::ops::Range<usize>, P::Seq<'s>>
    where
        Self: 's;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    unsafe fn range_seq(&self, lo: usize, hi: usize) -> Self::Seq<'_> {
        // Pairing with the absolute index range keeps enumeration
        // correct on any subrange.
        // SAFETY: contract forwarded unchanged to the base source.
        (lo..hi).zip(unsafe { self.base.range_seq(lo, hi) })
    }
}
