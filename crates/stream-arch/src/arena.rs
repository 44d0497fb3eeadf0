//! `StreamArena` — recycling of stream backing buffers.
//!
//! Every GPU-ABiSort run allocates a handful of large intermediate streams
//! (two 2n-node tree streams, two 2n-index pq streams, two n-value scratch
//! streams, a padded copy of the input). A sorting service that executes
//! thousands of jobs on one pooled [`crate::StreamProcessor`] would pay
//! malloc/free — and the accompanying page faults — for each of them on
//! every job. The arena removes that churn: a `Vec<T>` that backed a stream
//! is handed back after the run and the next run of a similar size takes it
//! again instead of allocating.
//!
//! Buffers are binned by *capacity class* (the power of two at or below the
//! buffer's capacity) and by element type, so a request for `len` elements
//! is served by any pooled buffer of class `len.next_power_of_two()` — the
//! same quantization the sort's padded problem sizes already follow. A
//! recycled buffer taken through [`StreamArena::take_vec`] is
//! re-initialized with `T::default()` before reuse, so a stream allocated
//! from the arena is indistinguishable from a freshly constructed one:
//! outputs, counters and simulated times stay byte-identical whether
//! pooling is on or off ([`StreamArena::set_enabled`]). Only host
//! wall-clock time changes.
//!
//! # Zero-fill elision
//!
//! The default re-initialization is a memset the caller often does not
//! need: the sort's working streams (output trees, pq indices, scratch
//! values) are provably *written before read* — every element a kernel
//! reads was produced by an earlier stream operation of the same run. For
//! those, [`StreamArena::take_vec_uninit`] / [`StreamArena::take_stream_uninit`]
//! skip the refill. The mechanism is a **write watermark**: a recycled
//! buffer keeps its elements and its length (the watermark — everything
//! below it was initialized by a previous run), and an uninit take only
//! default-fills the portion *above* the watermark, so in steady state no
//! element is touched at all. The contents below the watermark are stale
//! data from an earlier run — well-defined values, never uninitialized
//! memory — and the write-before-read property makes them unobservable:
//! the elision proptests assert sorts through uninit buffers are
//! byte-identical to fresh-allocation runs. [`StreamArena::set_elision`]
//! turns the elision off for one arena (uninit takes then behave exactly
//! like [`StreamArena::take_vec`]).
//!
//! # Byte cap
//!
//! The per-bin bound caps each class, but a long soak over *mixed* job
//! sizes populates ever more classes, so the total pooled footprint was
//! unbounded. [`StreamArena::set_byte_cap`] bounds it: when a hand-back would push the
//! pool past the cap, whole classes are evicted coldest-first (a class is
//! "touched" by every hit and every hand-back) until the pool fits,
//! counted in [`ArenaStats::evicted_bytes`]. Eviction only frees cached
//! buffers — results are unaffected, later takes of an evicted class
//! simply allocate again.

use crate::layout::Layout;
use crate::stream::Stream;
use crate::value::StreamElement;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Upper bound on pooled buffers per (type, capacity class) bin. A sort
/// run keeps at most a handful of same-class streams alive at once, so a
/// small bin bounds arena memory without ever missing in steady state.
const MAX_BUFFERS_PER_CLASS: usize = 8;

/// Cumulative arena behaviour, for reuse assertions and reports.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffer requests served.
    pub takes: u64,
    /// Requests served from the pool (no allocation).
    pub hits: u64,
    /// Requests that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers handed back and kept for reuse.
    pub recycled: u64,
    /// Buffers handed back but dropped (pooling off or bin full).
    pub dropped: u64,
    /// Elements whose default refill was skipped by uninit takes (served
    /// below a recycled buffer's write watermark).
    pub elided_elements: u64,
    /// Pooled bytes freed by LRU-class eviction to honour the byte cap.
    pub evicted_bytes: u64,
}

/// Type-erased access to one element type's bins.
trait AnyPool: Send {
    fn class_count(&self) -> usize;
    fn buffer_count(&self) -> usize;
    /// Drop every buffer of `class`, returning the bytes freed.
    fn evict_class(&mut self, class: usize) -> u64;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The bins for one element type: capacity class → cleared buffers.
struct TypedPool<T> {
    bins: HashMap<usize, Vec<Vec<T>>>,
}

impl<T> TypedPool<T> {
    fn new() -> Self {
        TypedPool {
            bins: HashMap::new(),
        }
    }
}

impl<T: StreamElement> AnyPool for TypedPool<T> {
    fn class_count(&self) -> usize {
        self.bins.values().filter(|b| !b.is_empty()).count()
    }
    fn buffer_count(&self) -> usize {
        self.bins.values().map(Vec::len).sum()
    }
    fn evict_class(&mut self, class: usize) -> u64 {
        self.bins
            .remove(&class)
            .map(|bufs| {
                bufs.iter()
                    .map(|b| (b.capacity() * std::mem::size_of::<T>()) as u64)
                    .sum()
            })
            .unwrap_or(0)
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A pool of reusable `Vec<T>` backing buffers keyed by element type and
/// capacity class. See the module documentation.
pub struct StreamArena {
    pools: HashMap<TypeId, Box<dyn AnyPool>>,
    enabled: bool,
    elision: bool,
    /// Upper bound on total pooled bytes across every class; `None` is
    /// unbounded.
    byte_cap: Option<usize>,
    /// Running total of pooled bytes (capacity × element size).
    pooled_bytes: u64,
    /// Classes in least-recently-used order (front = coldest). A class is
    /// touched on every hand-back and every pool hit.
    lru: Vec<(TypeId, usize)>,
    stats: ArenaStats,
}

impl Default for StreamArena {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamArena {
    /// An empty arena: pooling and zero-fill elision on, no byte cap.
    pub fn new() -> Self {
        StreamArena {
            pools: HashMap::new(),
            enabled: true,
            elision: true,
            byte_cap: None,
            pooled_bytes: 0,
            lru: Vec::new(),
            stats: ArenaStats::default(),
        }
    }

    /// Whether handed-back buffers are kept for reuse.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enable or disable pooling for this arena. Disabling drops all
    /// pooled buffers.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.pools.clear();
            self.lru.clear();
            self.pooled_bytes = 0;
        }
    }

    /// The arena's total pooled-byte cap (`None` = unbounded).
    pub fn byte_cap(&self) -> Option<usize> {
        self.byte_cap
    }

    /// Set the total pooled-byte cap. Lowering it below the current
    /// footprint evicts least-recently-used classes immediately.
    pub fn set_byte_cap(&mut self, cap: Option<usize>) {
        self.byte_cap = cap;
        self.enforce_cap();
    }

    /// Total bytes currently held by pooled buffers (capacity × element
    /// size, summed over every bin).
    pub fn pooled_bytes(&self) -> u64 {
        self.pooled_bytes
    }

    /// Whether uninit takes skip the default refill below the write
    /// watermark.
    pub fn elision_enabled(&self) -> bool {
        self.elision
    }

    /// Enable or disable zero-fill elision for this arena. With elision
    /// off, [`StreamArena::take_vec_uninit`] behaves exactly like
    /// [`StreamArena::take_vec`].
    pub fn set_elision(&mut self, enabled: bool) {
        self.elision = enabled;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of (element type, capacity class) bins currently holding at
    /// least one buffer. Steady-state workloads must not grow this — the
    /// reuse property the tests pin down.
    pub fn class_count(&self) -> usize {
        self.pools.values().map(|p| p.class_count()).sum()
    }

    /// Total pooled buffers across all bins.
    pub fn pooled_buffers(&self) -> usize {
        self.pools.values().map(|p| p.buffer_count()).sum()
    }

    /// The capacity class serving a request for `len` elements.
    #[inline]
    fn class_for(len: usize) -> usize {
        len.next_power_of_two().max(1)
    }

    /// Pop a pooled buffer of `class`, write watermark (length) intact.
    fn pop_pooled<T: StreamElement>(&mut self, class: usize) -> Option<Vec<T>> {
        if !self.enabled {
            return None;
        }
        let key = (TypeId::of::<T>(), class);
        let (popped, emptied) = {
            let bin = self
                .pools
                .get_mut(&key.0)
                .and_then(|p| p.as_any_mut().downcast_mut::<TypedPool<T>>())
                .and_then(|pool| pool.bins.get_mut(&class))?;
            (bin.pop(), bin.is_empty())
        };
        let buf = popped?;
        self.pooled_bytes = self
            .pooled_bytes
            .saturating_sub((buf.capacity() * std::mem::size_of::<T>()) as u64);
        if emptied {
            self.lru.retain(|&k| k != key);
        } else {
            self.touch_lru(key);
        }
        Some(buf)
    }

    /// Mark `key` as the most-recently-used class.
    fn touch_lru(&mut self, key: (TypeId, usize)) {
        if let Some(pos) = self.lru.iter().position(|&k| k == key) {
            self.lru.remove(pos);
        }
        self.lru.push(key);
    }

    /// Evict least-recently-used classes until the pool fits the cap.
    fn enforce_cap(&mut self) {
        let Some(cap) = self.byte_cap else { return };
        while self.pooled_bytes > cap as u64 && !self.lru.is_empty() {
            let (tid, class) = self.lru.remove(0);
            let freed = self
                .pools
                .get_mut(&tid)
                .map(|p| p.evict_class(class))
                .unwrap_or(0);
            self.pooled_bytes = self.pooled_bytes.saturating_sub(freed);
            self.stats.evicted_bytes += freed;
        }
    }

    /// An empty buffer with capacity for at least `min_capacity` elements —
    /// pooled if one of the right class is available, freshly allocated
    /// otherwise.
    pub fn take_capacity<T: StreamElement>(&mut self, min_capacity: usize) -> Vec<T> {
        let class = Self::class_for(min_capacity);
        self.stats.takes += 1;
        if let Some(mut buf) = self.pop_pooled::<T>(class) {
            self.stats.hits += 1;
            debug_assert!(buf.capacity() >= class);
            buf.clear();
            return buf;
        }
        self.stats.misses += 1;
        Vec::with_capacity(class)
    }

    /// A buffer of `len` default-initialized elements (the contents a
    /// freshly constructed [`Stream`] would have).
    pub fn take_vec<T: StreamElement>(&mut self, len: usize) -> Vec<T> {
        let mut v = self.take_capacity::<T>(len);
        v.resize(len, T::default());
        v
    }

    /// A buffer of `len` elements with **unspecified contents**: stale data
    /// from the previous run below the recycled buffer's write watermark,
    /// `T::default()` above it (and throughout on a pool miss).
    ///
    /// Only callers that write every element before reading it may use
    /// this — that property is what makes the skipped refill unobservable
    /// (see the module documentation). The contents are always valid values
    /// of `T`, never uninitialized memory; "uninit" refers to the stream
    /// contract, not the memory state.
    pub fn take_vec_uninit<T: StreamElement>(&mut self, len: usize) -> Vec<T> {
        let class = Self::class_for(len);
        self.stats.takes += 1;
        if let Some(mut buf) = self.pop_pooled::<T>(class) {
            self.stats.hits += 1;
            debug_assert!(buf.capacity() >= class);
            if !self.elision {
                // Measurement baseline: behave exactly like `take_vec`.
                buf.clear();
                buf.resize(len, T::default());
                return buf;
            }
            let watermark = buf.len();
            if watermark >= len {
                buf.truncate(len);
                self.stats.elided_elements += len as u64;
            } else {
                // Only the tail above the watermark needs initializing;
                // in steady state (same size class re-taken run after
                // run) this arm never executes.
                buf.resize(len, T::default());
                self.stats.elided_elements += watermark as u64;
            }
            return buf;
        }
        self.stats.misses += 1;
        // A fresh allocation has no initialized prefix to reuse; exposing
        // truly uninitialized memory would be unsound, so pay the fill
        // once. Steady-state takes hit the pool and skip it.
        let mut v: Vec<T> = Vec::with_capacity(class);
        v.resize(len, T::default());
        v
    }

    /// A buffer initialized with a copy of `data` (replaces
    /// `data.to_vec()`).
    pub fn take_vec_from<T: StreamElement>(&mut self, data: &[T]) -> Vec<T> {
        let mut v = self.take_capacity::<T>(data.len());
        v.extend_from_slice(data);
        v
    }

    /// Hand a buffer back for reuse. The contents and length are *kept* —
    /// the length is the buffer's write watermark, which lets a later
    /// [`StreamArena::take_vec_uninit`] of the same class skip the default
    /// refill entirely. The buffer is binned under the largest capacity
    /// class it can serve. Buffers beyond the per-bin bound (or with
    /// pooling disabled) are dropped.
    pub fn put_vec<T: StreamElement>(&mut self, v: Vec<T>) {
        let cap = v.capacity();
        if !self.enabled || cap == 0 {
            self.stats.dropped += 1;
            return;
        }
        // Largest power of two ≤ cap: every take of that class fits.
        let class = 1usize << (usize::BITS - 1 - cap.leading_zeros());
        let pool = self
            .pools
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(TypedPool::<T>::new()))
            .as_any_mut()
            .downcast_mut::<TypedPool<T>>()
            .expect("pool type mismatch");
        let bin = pool.bins.entry(class).or_default();
        if bin.len() >= MAX_BUFFERS_PER_CLASS {
            self.stats.dropped += 1;
            return;
        }
        let bytes = (cap * std::mem::size_of::<T>()) as u64;
        bin.push(v);
        self.stats.recycled += 1;
        self.pooled_bytes += bytes;
        self.touch_lru((TypeId::of::<T>(), class));
        self.enforce_cap();
    }

    /// A stream of `len` default-initialized elements backed by a pooled
    /// buffer (the arena counterpart of [`Stream::new`]).
    pub fn take_stream<T: StreamElement>(
        &mut self,
        name: impl Into<String>,
        len: usize,
        layout: Layout,
    ) -> Stream<T> {
        Stream::from_vec(name, self.take_vec(len), layout)
    }

    /// A stream of `len` elements with unspecified contents, backed by a
    /// pooled buffer (the zero-fill-elision counterpart of
    /// [`StreamArena::take_stream`]; see [`StreamArena::take_vec_uninit`]
    /// for the write-before-read contract the caller signs).
    pub fn take_stream_uninit<T: StreamElement>(
        &mut self,
        name: impl Into<String>,
        len: usize,
        layout: Layout,
    ) -> Stream<T> {
        Stream::from_vec(name, self.take_vec_uninit(len), layout)
    }

    /// A stream initialized from `data` backed by a pooled buffer (the
    /// arena counterpart of `Stream::from_vec(name, data.to_vec(), …)`).
    pub fn take_stream_from<T: StreamElement>(
        &mut self,
        name: impl Into<String>,
        data: &[T],
        layout: Layout,
    ) -> Stream<T> {
        Stream::from_vec(name, self.take_vec_from(data), layout)
    }

    /// Hand a stream's backing buffer back for reuse.
    pub fn recycle<T: StreamElement>(&mut self, stream: Stream<T>) {
        self.put_vec(stream.into_data());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Node, Value};

    #[test]
    fn take_and_put_round_trip_reuses_the_buffer() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        let v = arena.take_vec::<Value>(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == Value::default()));
        let ptr = v.as_ptr();
        arena.put_vec(v);
        assert_eq!(arena.pooled_buffers(), 1);
        let again = arena.take_vec::<Value>(900); // same class (1024)
        assert_eq!(again.as_ptr(), ptr, "the pooled buffer must be reused");
        assert_eq!(again.len(), 900);
        assert!(again.iter().all(|&x| x == Value::default()));
        let s = arena.stats();
        assert_eq!((s.takes, s.hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn classes_separate_types_and_sizes() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        arena.put_vec(arena_vec::<u32>(64));
        arena.put_vec(arena_vec::<u32>(128));
        arena.put_vec(arena_vec::<Node>(64));
        assert_eq!(arena.class_count(), 3);
        // A u32 request of class 64 must not consume the Node buffer.
        let _ = arena.take_vec::<u32>(33);
        assert_eq!(arena.pooled_buffers(), 2);
    }

    fn arena_vec<T: StreamElement>(n: usize) -> Vec<T> {
        let mut v = Vec::with_capacity(n);
        v.resize(n, T::default());
        v
    }

    #[test]
    fn take_vec_from_copies_the_data() {
        let mut arena = StreamArena::new();
        let data: Vec<u32> = (0..100).collect();
        let v = arena.take_vec_from(&data);
        assert_eq!(v, data);
    }

    #[test]
    fn disabled_arena_drops_everything() {
        let mut arena = StreamArena::new();
        arena.set_enabled(false);
        arena.put_vec(arena_vec::<u32>(64));
        assert_eq!(arena.pooled_buffers(), 0);
        assert_eq!(arena.stats().dropped, 1);
        let v = arena.take_vec::<u32>(64);
        assert_eq!(v.len(), 64);
        assert_eq!(arena.stats().misses, 1);
    }

    #[test]
    fn bins_are_bounded() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        for _ in 0..2 * MAX_BUFFERS_PER_CLASS {
            arena.put_vec(arena_vec::<u32>(64));
        }
        assert_eq!(arena.pooled_buffers(), MAX_BUFFERS_PER_CLASS);
        assert_eq!(arena.stats().dropped as usize, MAX_BUFFERS_PER_CLASS);
    }

    #[test]
    fn uninit_take_below_the_watermark_keeps_stale_contents_and_elides() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        arena.set_elision(true);
        let mut v = arena.take_vec::<u32>(1000);
        for (i, x) in v.iter_mut().enumerate() {
            *x = i as u32 + 1;
        }
        let ptr = v.as_ptr();
        arena.put_vec(v);
        let again = arena.take_vec_uninit::<u32>(900);
        assert_eq!(again.as_ptr(), ptr, "the pooled buffer must be reused");
        assert_eq!(again.len(), 900);
        // Unspecified contents = the previous run's data, untouched.
        assert!(again.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
        assert_eq!(arena.stats().elided_elements, 900);
    }

    #[test]
    fn uninit_take_above_the_watermark_fills_only_the_tail() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        arena.set_elision(true);
        let mut v: Vec<u32> = Vec::with_capacity(1024);
        v.resize(500, 7);
        arena.put_vec(v);
        let taken = arena.take_vec_uninit::<u32>(800);
        assert_eq!(taken.len(), 800);
        assert!(taken[..500].iter().all(|&x| x == 7), "watermark preserved");
        assert!(taken[500..].iter().all(|&x| x == 0), "tail default-filled");
        assert_eq!(arena.stats().elided_elements, 500);
    }

    #[test]
    fn uninit_take_with_elision_off_matches_take_vec() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        arena.set_elision(false);
        let mut v = arena.take_vec::<u32>(256);
        v.iter_mut().for_each(|x| *x = 9);
        arena.put_vec(v);
        let taken = arena.take_vec_uninit::<u32>(256);
        assert!(taken.iter().all(|&x| x == 0), "baseline mode must refill");
        assert_eq!(arena.stats().elided_elements, 0);
    }

    #[test]
    fn uninit_take_on_a_pool_miss_is_default_initialized() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        arena.set_elision(true);
        let taken = arena.take_vec_uninit::<Value>(300);
        assert_eq!(taken.len(), 300);
        assert!(taken.iter().all(|&x| x == Value::default()));
        assert_eq!(arena.stats().misses, 1);
        assert_eq!(arena.stats().elided_elements, 0);
    }

    #[test]
    fn uninit_stream_round_trip_reaches_full_elision_in_steady_state() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        arena.set_elision(true);
        let s = arena.take_stream_uninit::<Value>("w", 512, Layout::ZOrder);
        assert_eq!(s.len(), 512);
        arena.recycle(s);
        let before = arena.stats().elided_elements;
        let s2 = arena.take_stream_uninit::<Value>("w", 512, Layout::ZOrder);
        assert_eq!(s2.len(), 512);
        assert_eq!(
            arena.stats().elided_elements - before,
            512,
            "a same-class re-take must skip the whole refill"
        );
    }

    #[test]
    fn byte_cap_evicts_the_coldest_class_first() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        // Two u32 classes: 64 (256 B per buffer) and 128 (512 B).
        arena.put_vec(arena_vec::<u32>(64));
        arena.put_vec(arena_vec::<u32>(128));
        assert_eq!(arena.pooled_bytes(), 256 + 512);
        // Touch class 64 so class 128 is the coldest.
        let v = arena.take_vec::<u32>(64);
        arena.put_vec(v);
        // A cap below the current footprint evicts class 128 only.
        arena.set_byte_cap(Some(300));
        assert_eq!(arena.pooled_bytes(), 256);
        assert_eq!(arena.stats().evicted_bytes, 512);
        assert_eq!(arena.class_count(), 1);
        let s = arena.stats();
        // The surviving class still serves hits.
        let _ = arena.take_vec::<u32>(64);
        assert_eq!(arena.stats().hits, s.hits + 1);
        // The evicted class misses (allocates) but works.
        let big = arena.take_vec::<u32>(128);
        assert_eq!(big.len(), 128);
        assert_eq!(arena.stats().misses, s.misses + 1);
    }

    #[test]
    fn byte_cap_bounds_a_mixed_size_soak() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        arena.set_byte_cap(Some(4096));
        // A "soak" cycling through many capacity classes: without the cap
        // this pools 8 classes × 8 buffers each, far past 4096 bytes.
        for round in 0..20 {
            for log2 in 4..12 {
                let v = arena.take_vec::<u32>(1 << log2);
                arena.put_vec(v);
            }
            assert!(
                arena.pooled_bytes() <= 4096,
                "round {round}: {} bytes pooled",
                arena.pooled_bytes()
            );
        }
        assert!(arena.stats().evicted_bytes > 0);
    }

    #[test]
    fn an_oversized_hand_back_is_evicted_immediately() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        arena.set_byte_cap(Some(100));
        arena.put_vec(arena_vec::<u32>(256)); // 1024 B > 100 B cap
        assert_eq!(arena.pooled_bytes(), 0);
        assert_eq!(arena.stats().evicted_bytes, 1024);
        assert_eq!(arena.pooled_buffers(), 0);
    }

    #[test]
    fn uncapped_arena_never_evicts() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        assert_eq!(arena.byte_cap(), None);
        for log2 in 4..12 {
            arena.put_vec(arena_vec::<u32>(1 << log2));
        }
        assert_eq!(arena.stats().evicted_bytes, 0);
        assert_eq!(arena.class_count(), 8);
    }

    #[test]
    fn pooled_bytes_tracks_takes_and_hand_backs() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        arena.put_vec(arena_vec::<u32>(64));
        assert_eq!(arena.pooled_bytes(), 256);
        let v = arena.take_vec::<u32>(64);
        assert_eq!(arena.pooled_bytes(), 0);
        arena.put_vec(v);
        assert_eq!(arena.pooled_bytes(), 256);
        arena.set_enabled(false);
        assert_eq!(arena.pooled_bytes(), 0);
    }

    #[test]
    fn stream_round_trip_preserves_fresh_stream_semantics() {
        let mut arena = StreamArena::new();
        arena.set_enabled(true);
        let mut s = arena.take_stream::<Value>("scratch", 256, Layout::ZOrder);
        s.set(7, Value::new(3.0, 1));
        arena.recycle(s);
        let s2 = arena.take_stream::<Value>("scratch", 256, Layout::ZOrder);
        // Recycled storage must look freshly allocated.
        assert_eq!(s2.get(7), Value::default());
        assert_eq!(s2.len(), 256);
        assert_eq!(s2.name(), "scratch");
    }
}
