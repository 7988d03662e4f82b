//! Multi-threaded, deterministic drop-in for the subset of the `rayon` API
//! this workspace uses.
//!
//! The build environment has no network access to crates.io, so the real
//! `rayon` cannot be vendored. This shim keeps every call site unchanged
//! (`par_iter`, `par_chunks`, `into_par_iter`, `ThreadPoolBuilder`, ...)
//! while executing **genuinely in parallel** on a persistent work-stealing
//! worker pool built on `std::thread` + atomics (see `pool`). It carries
//! only the operators the workspace calls: adapters `zip`, `enumerate`,
//! `map`, `filter` and `flat_map_iter`; terminals `for_each` and `collect`;
//! and the slice methods `par_iter`, `par_chunks`, `par_iter_mut` and
//! `par_sort_unstable`.
//!
//! # Determinism by construction
//!
//! The repository's determinism tests (`tests/determinism.rs`) require every
//! algorithm to produce bit-identical results regardless of the host thread
//! count. The shim guarantees this structurally rather than by luck:
//!
//! * **Fixed chunk boundaries.** Every parallel operation splits its input
//!   into chunks whose boundaries depend *only on the input length* (never on
//!   the thread count) — see `chunk_ends`.
//! * **Ordered `collect`.** Per-chunk outputs are concatenated strictly in
//!   chunk-index order on the calling thread. Thread scheduling decides
//!   *when* a chunk runs, never where its items land.
//! * **Deterministic merge sort.** `par_sort_unstable` sorts the same
//!   length-only runs and merges them pairwise, ties going to the left run,
//!   so equal keys land in the same order at every width.
//!
//! The shim has no parallel fold: any floating-point accumulation happens in
//! the caller, over a `collect`ed vector, in source order.
//!
//! The worker count comes from `ThreadPoolBuilder::num_threads`, the
//! `GCBFS_THREADS` environment variable, or the machine's available
//! parallelism, in that order of precedence. Swapping the real rayon back in
//! remains a one-line change in the workspace `Cargo.toml`.

use std::cell::UnsafeCell;
use std::cmp::Ordering as CmpOrdering;
use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;

mod pool;

// ---------------------------------------------------------------------------
// Chunk planning
// ---------------------------------------------------------------------------

/// Maximum number of chunks a parallel operation is split into. Bounds
/// scheduling overhead while leaving enough grains for stealing to balance
/// skewed chunks.
const MAX_CHUNKS: usize = 64;

/// Fixed chunk plan for an input of `len` items: `k = min(len, MAX_CHUNKS)`
/// chunks with end offsets `(i + 1) * len / k`. Depends only on `len`, never
/// on thread count — the cornerstone of the shim's determinism guarantee.
fn chunk_ends(len: usize) -> Vec<usize> {
    let k = len.min(MAX_CHUNKS);
    (1..=k).map(|i| i * len / k).collect()
}

// ---------------------------------------------------------------------------
// Splittable sources
// ---------------------------------------------------------------------------

/// A parallel data source: indexed, splittable into disjoint ranges.
///
/// # Safety
///
/// Implementations may hand out exclusive access (`&mut`) or move values out
/// through a shared `&self` receiver. Callers must guarantee that the ranges
/// passed to [`ParSource::make_iter`] are **pairwise disjoint** over the
/// source's lifetime, and that every produced iterator is consumed on a
/// single thread. The chunked engine upholds this: chunk ranges partition
/// `0..len` and each chunk is claimed exactly once.
pub unsafe trait ParSource: Send + Sync {
    /// Item produced for each index.
    type Item: Send;

    /// Total number of items.
    fn len(&self) -> usize;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate items in `[start, end)`.
    ///
    /// # Safety
    /// See the trait-level contract: ranges must be disjoint across all
    /// calls, and `start <= end <= self.len()`.
    unsafe fn make_iter(&self, start: usize, end: usize) -> impl Iterator<Item = Self::Item> + '_;
}

/// Shared-slice source (`par_iter`).
pub struct SliceSource<'a, T> {
    slice: &'a [T],
}

unsafe impl<'a, T: Sync> ParSource for SliceSource<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn make_iter(&self, start: usize, end: usize) -> impl Iterator<Item = Self::Item> + '_ {
        self.slice[start..end].iter()
    }
}

/// Exclusive-slice source (`par_iter_mut`). Holds a raw pointer so disjoint
/// ranges can be re-borrowed mutably from multiple worker threads.
pub struct SliceMutSource<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for SliceMutSource<'_, T> {}
unsafe impl<T: Send> Sync for SliceMutSource<'_, T> {}

unsafe impl<'a, T: Send> ParSource for SliceMutSource<'a, T> {
    type Item = &'a mut T;

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn make_iter(&self, start: usize, end: usize) -> impl Iterator<Item = Self::Item> + '_ {
        // SAFETY: ranges are disjoint per the trait contract, so the mutable
        // sub-slices never alias; the pointer outlives 'a by construction.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }.iter_mut()
    }
}

/// Shared chunked-slice source (`par_chunks`). Index space is chunk indices.
pub struct ChunksSource<'a, T> {
    slice: &'a [T],
    size: usize,
}

unsafe impl<'a, T: Sync> ParSource for ChunksSource<'a, T> {
    type Item = &'a [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    unsafe fn make_iter(&self, start: usize, end: usize) -> impl Iterator<Item = Self::Item> + '_ {
        let (slice, size) = (self.slice, self.size);
        (start..end).map(move |i| {
            let lo = i * size;
            let hi = (lo + size).min(slice.len());
            &slice[lo..hi]
        })
    }
}

/// Owning source over a `Vec` (`into_par_iter`). Items are moved out of the
/// buffer by `ptr::read`; the buffer itself is freed without dropping
/// elements, so each element is dropped exactly once by whoever consumed it.
pub struct VecSource<T> {
    vec: ManuallyDrop<Vec<T>>,
}

unsafe impl<T: Send> Send for VecSource<T> {}
unsafe impl<T: Send> Sync for VecSource<T> {}

impl<T> Drop for VecSource<T> {
    fn drop(&mut self) {
        // SAFETY: elements were either moved out by `make_iter` consumers or
        // are intentionally leaked (only reachable when a chunk panics);
        // setting len to 0 frees the allocation without dropping.
        unsafe {
            let mut v = ManuallyDrop::take(&mut self.vec);
            v.set_len(0);
        }
    }
}

unsafe impl<T: Send> ParSource for VecSource<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.vec.len()
    }

    unsafe fn make_iter(&self, start: usize, end: usize) -> impl Iterator<Item = Self::Item> + '_ {
        let ptr = self.vec.as_ptr();
        // SAFETY: ranges are disjoint per the trait contract, so each element
        // is read (moved) at most once.
        (start..end).map(move |i| unsafe { std::ptr::read(ptr.add(i)) })
    }
}

/// Integer types usable as `into_par_iter` range elements.
pub trait ParIndex: Copy + Send + Sync + 'static {
    /// `self + i`, for walking a range from its start.
    fn offset(self, i: usize) -> Self;
    /// Number of steps from `self` up to (excluding) `end`.
    fn distance_to(self, end: Self) -> usize;
}

macro_rules! par_index {
    ($($t:ty),* $(,)?) => {$(
        impl ParIndex for $t {
            fn offset(self, i: usize) -> Self {
                self + i as $t
            }
            fn distance_to(self, end: Self) -> usize {
                if end <= self { 0 } else { (end - self) as usize }
            }
        }
    )*};
}

par_index!(usize, u64);

/// Range source (`(a..b).into_par_iter()`).
pub struct RangeSource<A> {
    start: A,
    len: usize,
}

unsafe impl<A: ParIndex> ParSource for RangeSource<A> {
    type Item = A;

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn make_iter(&self, start: usize, end: usize) -> impl Iterator<Item = Self::Item> + '_ {
        let base = self.start;
        (start..end).map(move |i| base.offset(i))
    }
}

/// Lock-step pairing of two sources, truncated to the shorter (`zip`).
pub struct ZipSource<A, B> {
    a: A,
    b: B,
    len: usize,
}

unsafe impl<A: ParSource, B: ParSource> ParSource for ZipSource<A, B> {
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn make_iter(&self, start: usize, end: usize) -> impl Iterator<Item = Self::Item> + '_ {
        // SAFETY: the same disjoint range is forwarded to both inner sources,
        // so their per-source range sets stay pairwise disjoint.
        unsafe { self.a.make_iter(start, end).zip(self.b.make_iter(start, end)) }
    }
}

/// Index-tagged source (`enumerate`).
pub struct EnumSource<S> {
    inner: S,
}

unsafe impl<S: ParSource> ParSource for EnumSource<S> {
    type Item = (usize, S::Item);

    fn len(&self) -> usize {
        self.inner.len()
    }

    unsafe fn make_iter(&self, start: usize, end: usize) -> impl Iterator<Item = Self::Item> + '_ {
        // SAFETY: range forwarded verbatim; global indices come for free.
        (start..end).zip(unsafe { self.inner.make_iter(start, end) })
    }
}

// ---------------------------------------------------------------------------
// Composable per-item operation chains
// ---------------------------------------------------------------------------

/// A stack of item transformations applied via internal iteration.
pub trait OpChain<In>: Sync {
    /// Output item type after every transformation in the chain.
    type Out: Send;

    /// Push `x` through the chain, handing each produced item to `sink`.
    fn feed<K: FnMut(Self::Out)>(&self, x: In, sink: &mut K);
}

/// The empty chain: items pass through untouched.
pub struct NoOps;

impl<In: Send> OpChain<In> for NoOps {
    type Out = In;

    fn feed<K: FnMut(In)>(&self, x: In, sink: &mut K) {
        sink(x)
    }
}

/// `map` stage.
pub struct MapOp<P, F> {
    prev: P,
    f: F,
}

impl<In, P, T, F> OpChain<In> for MapOp<P, F>
where
    P: OpChain<In>,
    T: Send,
    F: Fn(P::Out) -> T + Sync,
{
    type Out = T;

    fn feed<K: FnMut(T)>(&self, x: In, sink: &mut K) {
        self.prev.feed(x, &mut |y| sink((self.f)(y)))
    }
}

/// `filter` stage.
pub struct FilterOp<P, F> {
    prev: P,
    f: F,
}

impl<In, P, F> OpChain<In> for FilterOp<P, F>
where
    P: OpChain<In>,
    F: Fn(&P::Out) -> bool + Sync,
{
    type Out = P::Out;

    fn feed<K: FnMut(P::Out)>(&self, x: In, sink: &mut K) {
        self.prev.feed(x, &mut |y| {
            if (self.f)(&y) {
                sink(y)
            }
        })
    }
}

/// `flat_map_iter` stage.
pub struct FlatMapOp<P, F> {
    prev: P,
    f: F,
}

impl<In, P, U, F> OpChain<In> for FlatMapOp<P, F>
where
    P: OpChain<In>,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(P::Out) -> U + Sync,
{
    type Out = U::Item;

    fn feed<K: FnMut(U::Item)>(&self, x: In, sink: &mut K) {
        self.prev.feed(x, &mut |y| {
            for z in (self.f)(y) {
                sink(z);
            }
        })
    }
}

// ---------------------------------------------------------------------------
// The chunked execution engine
// ---------------------------------------------------------------------------

/// Per-chunk result slots, written disjointly by worker threads and read in
/// chunk order by the submitter after the job completes.
struct Slots<R>(Vec<UnsafeCell<Option<R>>>);

unsafe impl<R: Send> Sync for Slots<R> {}

/// Run `per_chunk(source, start, end)` for every chunk in the fixed plan of
/// `source.len()` items, in parallel, and return the per-chunk results in
/// chunk order.
fn run_chunked<S, R, F>(source: &S, per_chunk: &F) -> Vec<R>
where
    S: ParSource,
    R: Send,
    F: Fn(&S, usize, usize) -> R + Sync,
{
    let ends = chunk_ends(source.len());
    let k = ends.len();
    if k == 0 {
        return Vec::new();
    }
    let slots = Slots((0..k).map(|_| UnsafeCell::new(None)).collect());
    let ends_ref = &ends;
    // Capture the `Sync` wrapper by reference (edition 2021 would otherwise
    // capture the inner `Vec<UnsafeCell<..>>` field and lose the Sync impl).
    let slots_ref = &slots;
    let task = |i: usize| {
        let start = if i == 0 { 0 } else { ends_ref[i - 1] };
        let end = ends_ref[i];
        let r = per_chunk(source, start, end);
        // SAFETY: the pool executes each chunk index exactly once, so writes
        // to slot `i` never race; the submitter only reads after completion.
        unsafe {
            *slots_ref.0[i].get() = Some(r);
        }
    };
    pool::run(k, &task);
    slots.0.into_iter().map(|c| c.into_inner().expect("chunk result missing")).collect()
}

// ---------------------------------------------------------------------------
// The parallel iterator
// ---------------------------------------------------------------------------

/// The shim's parallel iterator: a splittable [`ParSource`] plus a composed
/// [`OpChain`] applied per item during chunked execution.
pub struct ParIter<S, O> {
    source: S,
    ops: O,
}

impl<S: ParSource> ParIter<S, NoOps> {
    fn from_source(source: S) -> Self {
        ParIter { source, ops: NoOps }
    }

    /// Pairs items with those of another parallel source, truncating to the
    /// shorter of the two.
    pub fn zip<J: IntoParSource>(self, other: J) -> ParIter<ZipSource<S, J::Source>, NoOps> {
        let a = self.source;
        let b = other.into_par_source();
        let len = a.len().min(b.len());
        ParIter::from_source(ZipSource { a, b, len })
    }

    /// Numbers items from 0 in source order.
    pub fn enumerate(self) -> ParIter<EnumSource<S>, NoOps> {
        ParIter::from_source(EnumSource { inner: self.source })
    }
}

impl<S: ParSource, O: OpChain<S::Item>> ParIter<S, O> {
    /// Maps each item.
    pub fn map<T, F>(self, f: F) -> ParIter<S, MapOp<O, F>>
    where
        T: Send,
        F: Fn(O::Out) -> T + Sync,
    {
        ParIter { source: self.source, ops: MapOp { prev: self.ops, f } }
    }

    /// Filters items.
    pub fn filter<F>(self, f: F) -> ParIter<S, FilterOp<O, F>>
    where
        F: Fn(&O::Out) -> bool + Sync,
    {
        ParIter { source: self.source, ops: FilterOp { prev: self.ops, f } }
    }

    /// Maps each item to a serial iterator and flattens (rayon's
    /// `flat_map_iter`).
    pub fn flat_map_iter<U, F>(self, f: F) -> ParIter<S, FlatMapOp<O, F>>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(O::Out) -> U + Sync,
    {
        ParIter { source: self.source, ops: FlatMapOp { prev: self.ops, f } }
    }

    /// Consumes the iterator, applying `f` to each item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(O::Out) + Sync,
    {
        let ParIter { source, ops } = self;
        run_chunked(&source, &|src: &S, s, e| {
            // SAFETY: chunk ranges are disjoint by construction.
            for x in unsafe { src.make_iter(s, e) } {
                ops.feed(x, &mut |y| f(y));
            }
        });
    }

    /// Collects into any `FromIterator` collection, preserving source order.
    pub fn collect<C: FromIterator<O::Out>>(self) -> C {
        let ParIter { source, ops } = self;
        let chunks = run_chunked(&source, &|src: &S, s, e| {
            let mut out = Vec::new();
            // SAFETY: chunk ranges are disjoint by construction.
            for x in unsafe { src.make_iter(s, e) } {
                ops.feed(x, &mut |y| out.push(y));
            }
            out
        });
        chunks.into_iter().flatten().collect()
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

/// Conversion into a [`ParSource`]; lets `zip` accept `ParIter`s, `Vec`s and
/// ranges (rayon's `zip` similarly accepts `IntoParallelIterator` arguments).
pub trait IntoParSource {
    /// Item type.
    type Item: Send;
    /// Source type.
    type Source: ParSource<Item = Self::Item>;
    /// Converts into the source.
    fn into_par_source(self) -> Self::Source;
}

impl<S: ParSource> IntoParSource for ParIter<S, NoOps> {
    type Item = S::Item;
    type Source = S;
    fn into_par_source(self) -> S {
        self.source
    }
}

impl<T: Send> IntoParSource for Vec<T> {
    type Item = T;
    type Source = VecSource<T>;
    fn into_par_source(self) -> VecSource<T> {
        VecSource { vec: ManuallyDrop::new(self) }
    }
}

impl<A: ParIndex> IntoParSource for Range<A> {
    type Item = A;
    type Source = RangeSource<A>;
    fn into_par_source(self) -> RangeSource<A> {
        RangeSource { start: self.start, len: self.start.distance_to(self.end) }
    }
}

/// Owning conversion, mirroring `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Source type backing the parallel iterator.
    type Source: ParSource<Item = Self::Item>;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Source, NoOps>;
}

impl<T: IntoParSource> IntoParallelIterator for T {
    type Item = T::Item;
    type Source = T::Source;
    fn into_par_iter(self) -> ParIter<T::Source, NoOps> {
        ParIter::from_source(self.into_par_source())
    }
}

/// Borrowing slice operations (`par_iter`, `par_chunks`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel shared iteration.
    fn par_iter(&self) -> ParIter<SliceSource<'_, T>, NoOps>;
    /// Parallel chunked iteration.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksSource<'_, T>, NoOps>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<SliceSource<'_, T>, NoOps> {
        ParIter::from_source(SliceSource { slice: self })
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksSource<'_, T>, NoOps> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParIter::from_source(ChunksSource { slice: self, size: chunk_size })
    }
}

/// Mutable slice operations (`par_iter_mut`, `par_sort_unstable`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel exclusive iteration.
    fn par_iter_mut(&mut self) -> ParIter<SliceMutSource<'_, T>, NoOps>;
    /// Parallel unstable sort. Deterministic: the chunk/merge plan depends
    /// only on the slice length, and merges break ties by chunk order.
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<SliceMutSource<'_, T>, NoOps> {
        ParIter::from_source(SliceMutSource {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: PhantomData,
        })
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        par_sort_impl(self);
    }
}

// ---------------------------------------------------------------------------
// Parallel sort
// ---------------------------------------------------------------------------

/// Below this length a sequential sort always wins (and keeps the plan
/// trivially deterministic). Length-based, never width-based.
const SORT_SEQ_CUTOFF: usize = 8 << 10;

/// Raw pointer wrapper so sort tasks can be shared across worker threads.
struct SendPtr<T>(*mut T);

// Manual impls: a derive would add an unwanted `T: Copy` bound.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Merge sorted runs `src[a..b]` and `src[b..c]` into `dst[a..c]`, taking
/// from the left run on ties (stable by chunk order, hence deterministic).
///
/// # Safety
/// `src[a..c]` must be initialized; `dst[a..c]` must be valid for writes and
/// disjoint from `src[a..c]`. `T` must not need drop (elements are
/// bit-copied; on a comparator panic both buffers may hold copies).
unsafe fn merge_runs<T: Ord>(src: *const T, a: usize, b: usize, c: usize, dst: *mut T) {
    let (mut i, mut j, mut o) = (a, b, a);
    unsafe {
        while i < b && j < c {
            if (*src.add(i)).cmp(&*src.add(j)) != CmpOrdering::Greater {
                std::ptr::copy_nonoverlapping(src.add(i), dst.add(o), 1);
                i += 1;
            } else {
                std::ptr::copy_nonoverlapping(src.add(j), dst.add(o), 1);
                j += 1;
            }
            o += 1;
        }
        if i < b {
            std::ptr::copy_nonoverlapping(src.add(i), dst.add(o), b - i);
        }
        if j < c {
            std::ptr::copy_nonoverlapping(src.add(j), dst.add(o), c - j);
        }
    }
}

/// Deterministic parallel merge sort: fixed chunk plan (length-only), chunks
/// sorted in parallel with the std unstable sort, then `log2(k)` rounds of
/// pairwise parallel merges ping-ponging between the slice and one scratch
/// buffer. Falls back to the sequential std sort for short inputs and for
/// types with drop glue (bit-copy merging would be unsound to unwind there;
/// no workspace call site sorts such types).
fn par_sort_impl<T: Send + Ord>(v: &mut [T]) {
    let len = v.len();
    if len <= SORT_SEQ_CUTOFF || std::mem::needs_drop::<T>() || pool::effective_width() <= 1 {
        v.sort_unstable();
        return;
    }

    // Fixed plan: MAX_CHUNKS runs regardless of thread count.
    let mut bounds: Vec<usize> = Vec::with_capacity(MAX_CHUNKS + 1);
    bounds.push(0);
    bounds.extend(chunk_ends(len));
    let runs = bounds.len() - 1;

    let base = SendPtr(v.as_mut_ptr());
    // Phase 1: sort each run in place, in parallel.
    {
        let bounds_ref = &bounds;
        let base_ref = &base; // capture the Sync wrapper, not the raw field
        pool::run(runs, &|i: usize| {
            let (s, e) = (bounds_ref[i], bounds_ref[i + 1]);
            // SAFETY: run ranges are disjoint sub-slices of `v`.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base_ref.0.add(s), e - s) };
            chunk.sort_unstable();
        });
    }

    // Phase 2: pairwise merge rounds, ping-ponging with a scratch buffer.
    let mut scratch: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
    // SAFETY: MaybeUninit contents never require initialization.
    unsafe { scratch.set_len(len) };
    let scratch_ptr = SendPtr(scratch.as_mut_ptr() as *mut T);

    let mut in_orig = true;
    while bounds.len() > 2 {
        let pairs = (bounds.len() - 1) / 2;
        let odd_tail = (bounds.len() - 1) % 2 == 1;
        let (src, dst) = if in_orig { (base, scratch_ptr) } else { (scratch_ptr, base) };
        {
            let bounds_ref = &bounds;
            let (src_ref, dst_ref) = (&src, &dst); // keep the Sync wrappers
            let tasks = pairs + usize::from(odd_tail);
            pool::run(tasks, &|p: usize| {
                if p < pairs {
                    let (a, b, c) =
                        (bounds_ref[2 * p], bounds_ref[2 * p + 1], bounds_ref[2 * p + 2]);
                    // SAFETY: src[a..c] initialized (previous round), dst is
                    // the other buffer, ranges disjoint per pair; T: !Drop
                    // checked at entry.
                    unsafe { merge_runs(src_ref.0, a, b, c, dst_ref.0) };
                } else {
                    // Odd tail run: copy through unchanged.
                    let (a, c) =
                        (bounds_ref[bounds_ref.len() - 2], bounds_ref[bounds_ref.len() - 1]);
                    // SAFETY: same disjointness argument as above.
                    unsafe {
                        std::ptr::copy_nonoverlapping(src_ref.0.add(a), dst_ref.0.add(a), c - a)
                    };
                }
            });
        }
        // Collapse pair boundaries: keep every other interior bound.
        let mut next = Vec::with_capacity(pairs + 2);
        next.push(0);
        for p in 1..=pairs {
            next.push(bounds[2 * p]);
        }
        if odd_tail {
            next.push(len);
        }
        bounds = next;
        in_orig = !in_orig;
    }

    if !in_orig {
        // SAFETY: scratch[0..len] holds the fully merged data.
        unsafe { std::ptr::copy_nonoverlapping(scratch_ptr.0, base.0, len) };
    }
    // Scratch holds bit-copies of !Drop data; plain deallocation is fine.
}

// ---------------------------------------------------------------------------
// Thread pool handles
// ---------------------------------------------------------------------------

/// Number of worker threads the current scope would use for a parallel
/// operation (honors `ThreadPool::install` overrides and `GCBFS_THREADS`).
pub fn current_num_threads() -> usize {
    pool::effective_width()
}

/// Builder for a thread-pool handle; mirrors `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a new builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the requested thread count (0 = use the global default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool handle. The shim shares one global worker pool, so
    /// "building a pool" just records the width `install` will apply.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = if self.num_threads == 0 { pool::default_width() } else { self.num_threads };
        Ok(ThreadPool { width: width.clamp(1, pool::MAX_THREADS) })
    }
}

/// Error building a thread pool (never produced by the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

/// A width-scoped handle onto the shared worker pool; mirrors
/// `rayon::ThreadPool`.
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count in effect on the calling
    /// thread: parallel operations inside `f` use `self`'s width.
    pub fn install<R, F: FnOnce() -> R>(&self, f: F) -> R {
        pool::with_width_override(self.width, f)
    }
}

/// The rayon prelude: glob-import to get the `par_*` methods.
pub mod prelude {
    pub use crate::{IntoParSource, IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn map_collect_roundtrip() {
        let v: Vec<u64> = (0u64..5).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn zip_with_par_iter_mut() {
        let a = [1, 2, 3];
        let mut b = [10, 20, 30];
        a.par_iter().zip(b.par_iter_mut()).for_each(|(x, y)| *y += x);
        assert_eq!(b, [11, 22, 33]);
    }

    #[test]
    fn sort_and_pool() {
        let mut v = vec![3u64, 1, 2];
        v.par_sort_unstable();
        assert_eq!(v, vec![1, 2, 3]);
        let p = pool(1);
        assert_eq!(p.install(|| 42), 42);
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn genuinely_parallel_at_width_4() {
        // With 4 threads and a blocking rendezvous, all 4 participants must
        // be live simultaneously or the test deadlocks (bounded by timeout
        // logic: each task spins until the barrier count reaches 4).
        use std::sync::Barrier;
        let barrier = Barrier::new(4);
        let hits = AtomicUsize::new(0);
        pool(4).install(|| {
            (0..4usize).into_par_iter().for_each(|_| {
                barrier.wait();
                hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn chunk_boundaries_cover_input_exactly() {
        for len in [0usize, 1, 2, 63, 64, 65, 100, 1000, 4097] {
            let ends = crate::chunk_ends(len);
            if len == 0 {
                assert!(ends.is_empty());
                continue;
            }
            assert_eq!(*ends.last().unwrap(), len);
            let mut prev = 0;
            for &e in &ends {
                assert!(e > prev, "chunks must be non-empty: len={len} ends={ends:?}");
                prev = e;
            }
            assert_eq!(ends.len(), len.min(crate::MAX_CHUNKS));
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let hits = AtomicUsize::new(0);
        Vec::<u64>::new().into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        // len < threads
        pool(8).install(|| {
            let v: Vec<u64> = (0u64..3).into_par_iter().map(|x| x + 1).collect();
            assert_eq!(v, vec![1, 2, 3]);
        });
        // len % chunks != 0
        let data: Vec<u64> = (0..131).collect();
        let out: Vec<u64> = data.par_iter().map(|&x| x).collect();
        assert_eq!(out, data);
    }

    #[test]
    fn results_identical_across_widths() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let run = || {
            let mapped: Vec<f64> = data.par_iter().map(|&x| x * 1.5 - 0.25).collect();
            let spread: Vec<u64> = (0..500u64)
                .into_par_iter()
                .flat_map_iter(|i| (0..i % 7).map(move |j| i * 8 + j))
                .collect();
            let kept: Vec<usize> =
                data.par_iter().enumerate().filter(|(_, x)| **x > 0.5).map(|(i, _)| i).collect();
            let sums: Vec<u64> =
                data.par_chunks(37).map(|c| c.iter().map(|x| x.to_bits() >> 40).sum()).collect();
            let mut keys: Vec<(u64, u64)> =
                data.par_iter().enumerate().map(|(i, &x)| (x.to_bits() >> 32, i as u64)).collect();
            keys.par_sort_unstable();
            (mapped, spread, kept, sums, keys)
        };
        let reference = pool(1).install(run);
        for n in [2usize, 3, 4, 8] {
            assert_eq!(pool(n).install(run), reference, "width {n} diverged");
        }
    }

    #[test]
    fn par_sort_matches_std_sort() {
        // Long enough to take the parallel path (> SORT_SEQ_CUTOFF).
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let data: Vec<(u64, u64)> = (0..40_000).map(|_| (next() % 1000, next())).collect();
        let mut expected = data.clone();
        expected.sort_unstable();
        for n in [1usize, 2, 4, 8] {
            let mut got = data.clone();
            pool(n).install(|| got.par_sort_unstable());
            assert_eq!(got, expected, "parallel sort diverged at width {n}");
        }
    }

    #[test]
    fn panic_propagates_from_worker_closure() {
        let result = std::panic::catch_unwind(|| {
            pool(4).install(|| {
                (0..64usize).into_par_iter().for_each(|i| {
                    if i == 37 {
                        panic!("deliberate test panic");
                    }
                });
            });
        });
        assert!(result.is_err(), "panic inside a parallel closure must propagate");
        // The pool must remain usable after a propagated panic.
        let v: Vec<usize> = pool(4).install(|| (0..16usize).into_par_iter().collect());
        assert_eq!(v, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_iter_runs_inline_and_stays_exact() {
        let nested = || -> Vec<Vec<u64>> {
            (0..8u64)
                .into_par_iter()
                .map(|i| (0..i).into_par_iter().map(|j| j * i).collect())
                .collect()
        };
        let expected: Vec<Vec<u64>> = (0..8u64).map(|i| (0..i).map(|j| j * i).collect()).collect();
        for n in [1usize, 4] {
            assert_eq!(pool(n).install(nested), expected, "width {n}");
        }
    }

    #[test]
    fn filter_and_flat_map_iter_keep_source_order() {
        let data: Vec<u64> = (0..1000).collect();
        let evens: Vec<u64> = data.par_iter().filter(|&&x| x % 2 == 0).map(|&x| x).collect();
        assert_eq!(evens, (0..1000).step_by(2).collect::<Vec<_>>());
        let fm: Vec<u64> =
            (0u64..10).into_par_iter().flat_map_iter(|x| (0..x).map(move |y| x * 10 + y)).collect();
        let expected: Vec<u64> = (0u64..10).flat_map(|x| (0..x).map(move |y| x * 10 + y)).collect();
        assert_eq!(fm, expected);
    }

    #[test]
    fn owned_non_copy_items_move_correctly() {
        let strings: Vec<String> = (0..200).map(|i| format!("item-{i}")).collect();
        let lens: Vec<usize> =
            pool(4).install(|| strings.clone().into_par_iter().map(|s| s.len()).collect());
        let expected: Vec<usize> = strings.iter().map(String::len).collect();
        assert_eq!(lens, expected);
    }
}
