//! The sharded DieHard heap: a lock-free per-op path over shared-nothing
//! partition shards, with per-class locks demoted to slow-path maintenance.
//!
//! The paper's allocator (§4.2) is embarrassingly partitionable: each of the
//! twelve size-class regions owns its slot-state map, its `1/M` threshold,
//! and its probe loop, and `DieHardFree`'s validation resolves any offset to
//! exactly one region with pure arithmetic. [`ShardedHeap`] exploits that
//! structure twice over. First, shards share nothing: every
//! [`AtomicPartition`] has its private CAS-advanced RNG stream (seeded by
//! splitting the master seed), so operations in *different* classes never
//! touch the same cache lines. Second, **no per-op path takes a lock at
//! all**: an allocation draws a probe index and claims the slot with one
//! `fetch_or` (retrying the draw on a lost race, exactly like re-probing an
//! occupied slot), and a free validates with lock-free arithmetic
//! ([`locate_free`]) and clears the slot with one CAS. Magazine refills and
//! free-buffer flushes are lock-free batches of the same atomics. The
//! per-class [`SpinLock`]s survive only as *maintenance locks* for elastic
//! growth, reservation teardown and `fork(2)` preparation, where mutual
//! exclusion among *maintainers* (not allocators) is the point.
//!
//! Determinism under the lock-free path — the pinned contended-retry rule:
//!
//! * single-threaded histories are **bit-identical** to
//!   [`HeapCore`](crate::engine::HeapCore) for the same master seed (same
//!   partitions, same RNG stream, same shift draw, same win/lose per probe);
//! * under contention the placement *sequence* may diverge from any serial
//!   replay — concurrent threads interleave one RNG stream and a lost claim
//!   redraws — but every placement remains a uniformly random free slot,
//!   accounting stays exact, and probe statistics count draws identically to
//!   the single-owner path (each draw is one probe, whether it loses to an
//!   occupied slot or to a racing claimant).
//!
//! The isolation property that makes the decomposition sound is DieHard's
//! own: a (validated) free in one region can never mutate another region's
//! metadata, so shards compose without any ordering discipline — no
//! operation ever takes two maintenance locks at once.

use crate::bitmap::SlotState;
use crate::config::{ConfigError, HeapConfig, HeapGeometry};
use crate::engine::{
    build_atomic_partitions, build_atomic_partitions_from_storage, locate_free, slot_at,
    slot_offset, AllocOutcome, AtomicHeapStats, FreeOutcome, HeapStats, Slot,
};
use crate::magazine::MagazineCache;
use crate::partition::AtomicPartition;
use crate::size_class::{SizeClass, NUM_CLASSES};
use crate::sync::SpinLock;
use core::sync::atomic::{AtomicU64, Ordering};

/// A thread-safe DieHard heap whose alloc and free paths are lock-free; one
/// maintenance lock per size class guards slow-path batches only.
///
/// All operations take `&self`; the heap is `Sync` and designed to be
/// shared across threads (the real global allocator embeds one behind its
/// once-initialized header). Threads that want the batched fast path take a
/// [`thread_cache`](Self::thread_cache); the magazines' reservations live
/// in the same slot-state maps, so cached and uncached traffic interleave.
///
/// # Examples
///
/// ```
/// use diehard_core::{config::HeapConfig, sharded::ShardedHeap};
///
/// let heap = ShardedHeap::new(HeapConfig::default(), 42)?;
/// let slot = heap.alloc(100).expect("space available");
/// assert_eq!(slot.size(), 128);
/// let off = heap.offset_of(slot);
/// assert!(heap.is_live_at(off));
/// assert!(heap.free_at(off).freed());
/// assert!(!heap.free_at(off).freed()); // double free: ignored
/// # Ok::<(), diehard_core::config::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct ShardedHeap {
    geometry: HeapGeometry,
    shards: [AtomicPartition; NUM_CLASSES],
    /// Slow-path mutual exclusion per class: growth doublings and
    /// reservation teardown serialize here, and `fork(2)` preparation holds
    /// all twelve. **Never taken by `alloc`/`free_at`/`is_live_at`, magazine
    /// refills or free-buffer flushes** — those paths are lock-free by
    /// construction, and the slot-state map's atomics keep them correct
    /// against in-flight maintenance.
    maintenance: [SpinLock<()>; NUM_CLASSES],
    stats: AtomicHeapStats,
    /// Number of completed per-class doublings (elastic heaps; always 0 on
    /// fixed heaps).
    growths: AtomicU64,
}

impl ShardedHeap {
    /// Creates an empty sharded heap; shard `i` probes with the RNG stream
    /// `stream_seed(seed, i)`, so one master seed reproduces the layout.
    ///
    /// With [`HeapConfig::grow`] set the heap is *elastic*: each class
    /// starts at `1/2^k` of its maximum capacity and doubles under
    /// `1/M`-cap pressure until the maximum, after which
    /// [`try_alloc`](Self::try_alloc) reports [`AllocOutcome::Spill`]. Slot
    /// layout is computed against the maximum capacity from day one, so
    /// growth moves no object and changes no offset arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn new(config: HeapConfig, seed: u64) -> Result<Self, ConfigError> {
        let geometry = HeapGeometry::new(config)?;
        let shards = build_atomic_partitions(&geometry, seed);
        Ok(Self::from_shards(geometry, shards))
    }

    /// As [`new`](Self::new), but hosting all twelve slot-state maps in
    /// caller-provided storage so that construction performs **no heap
    /// allocation** — required when DieHard itself is the process's global
    /// allocator (metadata lives in a segregated mmap arena, §4.1). Slot
    /// maps are always sized for the maximum capacity, so the footprint is
    /// the same for fixed and elastic heaps.
    ///
    /// # Safety
    ///
    /// `bitmap_words` must point to at least
    /// [`bitmap_words_needed`](Self::bitmap_words_needed)`(&config)` zeroed
    /// `u64`s, valid and exclusively owned for the heap's lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub unsafe fn from_raw_parts(
        config: HeapConfig,
        seed: u64,
        bitmap_words: *mut u64,
    ) -> Result<Self, ConfigError> {
        let geometry = HeapGeometry::new(config)?;
        // SAFETY: forwarded caller contract.
        let shards = unsafe { build_atomic_partitions_from_storage(&geometry, seed, bitmap_words) };
        Ok(Self::from_shards(geometry, shards))
    }

    fn from_shards(geometry: HeapGeometry, shards: [AtomicPartition; NUM_CLASSES]) -> Self {
        Self {
            geometry,
            shards,
            maintenance: core::array::from_fn(|_| SpinLock::new(())),
            stats: AtomicHeapStats::new(),
            growths: AtomicU64::new(0),
        }
    }

    /// Number of `u64` words of metadata storage
    /// [`from_raw_parts`](Self::from_raw_parts) requires for `config`: two
    /// bits per slot (live + reserved), 32 slots per word.
    #[must_use]
    pub fn bitmap_words_needed(config: &HeapConfig) -> usize {
        (0..NUM_CLASSES)
            .map(|i| AtomicPartition::words_needed(config.capacity(SizeClass::from_index(i))))
            .sum()
    }

    /// The heap's configuration (lock-free; the config is immutable).
    #[must_use]
    pub fn config(&self) -> &HeapConfig {
        self.geometry.config()
    }

    /// The heap's precomputed shift/mask geometry (lock-free; immutable).
    #[must_use]
    #[inline]
    pub fn geometry(&self) -> &HeapGeometry {
        &self.geometry
    }

    /// Counters since construction (lock-free snapshot). A thread's cached
    /// handouts, like its frees, count here from its next refill or flush
    /// (or [`MagazineCache::fold_stats`]).
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.stats.snapshot()
    }

    /// Bytes spanned by the small-object heap (12 × region size).
    #[must_use]
    pub fn heap_span(&self) -> usize {
        self.geometry.heap_span()
    }

    /// Allocates `size` bytes — the lock-free fast path: a ticket against
    /// the `1/M` cap, then probe draws claimed by `fetch_or`, no lock in any
    /// branch. Returns `None` when the request is zero, larger than 16 KB
    /// (large-object path), or the class region is at its `1/M` cap.
    ///
    /// On an elastic heap a denial first grows the class (see
    /// [`try_alloc`](Self::try_alloc)); only a denial at the *maximum*
    /// capacity becomes `None`.
    #[inline]
    pub fn alloc(&self, size: usize) -> Option<Slot> {
        self.try_alloc(size).placed()
    }

    /// [`alloc`](Self::alloc) with the elastic outcome surfaced: a denial at
    /// the `1/M` cap grows the class (doubling, under the class's
    /// maintenance lock) and retries, until a denial at the maximum capacity
    /// returns [`AllocOutcome::Spill`] — the routable "spill elsewhere"
    /// signal, recorded as an exhaustion in the heap stats. On fixed heaps
    /// the growth check is one relaxed load (capacity is already maximal),
    /// so the fast path is unchanged.
    #[inline]
    pub fn try_alloc(&self, size: usize) -> AllocOutcome {
        let Some(class) = SizeClass::for_size(size) else {
            return AllocOutcome::Unsupported;
        };
        loop {
            if let Some(index) = self.shards[class.index()].alloc() {
                self.stats.record_alloc();
                return AllocOutcome::Placed(Slot { class, index });
            }
            if !self.grow_class(class) {
                self.stats.record_exhausted();
                return AllocOutcome::Spill;
            }
        }
    }

    /// Number of completed per-class doublings since construction.
    #[must_use]
    pub fn growth_events(&self) -> u64 {
        self.growths.load(Ordering::Relaxed)
    }

    /// Attempts one growth step for `class`; `false` means the class is
    /// already at its maximum capacity (time to spill), `true` means the
    /// caller should retry its allocation — either this call doubled the
    /// active capacity per [`HeapGeometry::grow_step`] under the class's
    /// maintenance lock, or a racing free (or grower) already made room.
    /// Shared by the uncached path and magazine refills.
    pub(crate) fn grow_class(&self, class: SizeClass) -> bool {
        let shard = &self.shards[class.index()];
        if shard.capacity() >= self.geometry.capacity(class) {
            return false;
        }
        let _guard = self.maintenance[class.index()].lock();
        let Some((new_capacity, new_threshold)) = self.geometry.grow_step(class, shard.capacity())
        else {
            return false;
        };
        if !shard.at_threshold() {
            // A concurrent free (or a finished grower) made room between
            // our denial and the lock: retry without spending a doubling.
            return true;
        }
        shard.grow_to(new_capacity, new_threshold);
        self.growths.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Byte offset of `slot` within the heap span (pure arithmetic, no
    /// lock).
    #[must_use]
    #[inline]
    pub fn offset_of(&self, slot: Slot) -> usize {
        slot_offset(&self.geometry, slot)
    }

    /// Resolves a byte offset (any interior pointer) to the slot containing
    /// it (pure arithmetic, no lock).
    #[must_use]
    pub fn slot_containing(&self, offset: usize) -> Option<Slot> {
        slot_at(&self.geometry, offset)
    }

    /// `DieHardFree` (§4.3), fully lock-free: the span and alignment checks
    /// are pure arithmetic and the slot clear is one CAS. A slot observed
    /// free (double/invalid free) or magazine-reserved (not yet handed out)
    /// is ignored, per the paper's contract.
    #[inline]
    pub fn free_at(&self, offset: usize) -> FreeOutcome {
        let slot = match locate_free(&self.geometry, offset) {
            Ok(slot) => slot,
            Err(outcome) => {
                if outcome == FreeOutcome::MisalignedOffset {
                    self.stats.record_ignored_free();
                }
                return outcome;
            }
        };
        match self.shards[slot.class.index()].free(slot.index) {
            SlotState::Live => {
                self.stats.record_free();
                FreeOutcome::Freed(slot)
            }
            SlotState::Free | SlotState::Reserved => {
                self.stats.record_ignored_free();
                FreeOutcome::NotAllocated
            }
        }
    }

    /// Whether the object at `offset` (any interior pointer) is live —
    /// one atomic load, no lock. Magazine-reserved slots are not live.
    #[must_use]
    pub fn is_live_at(&self, offset: usize) -> bool {
        match slot_at(&self.geometry, offset) {
            Some(slot) => self.shards[slot.class.index()].is_live(slot.index),
            None => false,
        }
    }

    /// The lock-free partition serving `class` — the magazine layer reserves
    /// and releases slots against a shard directly.
    #[inline]
    pub(crate) fn shard(&self, class: SizeClass) -> &AtomicPartition {
        &self.shards[class.index()]
    }

    /// A thread-local magazine cache over this heap (see
    /// [`crate::magazine`]). Dropping the cache flushes its buffered frees
    /// and returns its unhanded reservations. Uncached calls on the heap
    /// stay available and interleave correctly with cached traffic.
    ///
    /// # Examples
    ///
    /// ```
    /// use diehard_core::{config::HeapConfig, sharded::ShardedHeap};
    ///
    /// let heap = ShardedHeap::new(HeapConfig::default(), 42)?;
    /// let mut cache = heap.thread_cache();
    /// let slot = cache.alloc(100).expect("space available");
    /// let off = heap.offset_of(slot);
    /// assert!(heap.is_live_at(off));
    /// cache.free_at(off);
    /// drop(cache); // flushes buffered frees, returns unhanded reservations
    /// assert_eq!(heap.live_objects(), 0);
    /// assert_eq!(heap.reserved_slots(), 0);
    /// # Ok::<(), diehard_core::config::ConfigError>(())
    /// ```
    #[must_use]
    pub fn thread_cache(&self) -> MagazineCache<'_> {
        MagazineCache::new(self)
    }

    /// Slots currently reserved inside thread magazines across all classes.
    /// Exact only when the heap is quiescent; zero once every cache has
    /// flushed.
    #[must_use]
    pub fn reserved_slots(&self) -> usize {
        self.shards
            .iter()
            .map(AtomicPartition::reserved_count)
            .sum()
    }

    /// Returns a cache's unhanded reservations to their shard (no stats:
    /// they were never allocations). Holds the maintenance lock, so
    /// `fork(2)` preparation never catches a teardown half done.
    pub(crate) fn return_reservations(&self, class: SizeClass, slots: &[usize]) {
        if slots.is_empty() {
            return;
        }
        let shard = &self.shards[class.index()];
        let _batch = self.maintenance[class.index()].lock();
        for &index in slots {
            let was_reserved = shard.release_reservation(index);
            debug_assert!(was_reserved, "returned slot {index} was not reserved");
        }
    }

    /// Acquires every per-class maintenance lock, in class-index order —
    /// the `fork(2)` prepare path: with all twelve held, no growth or
    /// reservation teardown is mid-flight anywhere. Lock-free traffic —
    /// per-op CASes, magazine refills and free flushes — is not (and cannot
    /// be) excluded. The tickets another thread of the forking parent holds
    /// in its magazine and free buffer, or in a refill or flush in flight,
    /// are stranded in the child: at most
    /// [`MAG_SLOTS`](crate::magazine::MAG_SLOTS) `+`
    /// [`FREE_SLOTS`](crate::magazine::FREE_SLOTS) (8 + 8) per thread per
    /// class. That is availability, not corruption.
    ///
    /// Release with [`unlock_all_maintenance`](Self::unlock_all_maintenance)
    /// in both the parent and the child.
    pub fn lock_all_maintenance(&self) {
        for lock in &self.maintenance {
            lock.raw_lock();
        }
    }

    /// Releases the locks taken by
    /// [`lock_all_maintenance`](Self::lock_all_maintenance).
    ///
    /// # Safety
    ///
    /// The locks must be held via `lock_all_maintenance` (by this thread,
    /// or — in a fork child — by the thread the process forked from).
    pub unsafe fn unlock_all_maintenance(&self) {
        for lock in &self.maintenance {
            // SAFETY: forwarded caller contract, one unlock per lock taken.
            unsafe { lock.raw_unlock() };
        }
    }

    /// The heap-wide atomic counters, shared with wrappers (the magazine
    /// layer folds its per-thread handout and free counts into the same
    /// stats, so the aggregate numbers stay exact whichever path served an
    /// operation).
    #[inline]
    pub(crate) fn stats_ref(&self) -> &AtomicHeapStats {
        &self.stats
    }

    /// Runs `f` against the partition serving `class` — shard-local
    /// diagnostics. No lock: the partition's own atomics make reads safe,
    /// with the usual not-a-snapshot caveat under concurrent traffic. The
    /// slot-state map includes magazine-reserved slots (occupied, not
    /// live); flush caches first for live-only statistics.
    pub fn with_partition<R>(&self, class: SizeClass, f: impl FnOnce(&AtomicPartition) -> R) -> R {
        f(&self.shards[class.index()])
    }

    /// Total live objects across all regions: occupancy minus the slots
    /// reserved in magazines (which count toward `1/M` but were never handed
    /// out). Lock-free reads; an instantaneous total only when the heap is
    /// quiescent.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.shards.iter().map(live_in).sum()
    }

    /// Cumulative probe statistics summed across every shard:
    /// `(allocations, total probes)` from each
    /// [`AtomicPartition::probe_stats`], so §4.2's E\[probes\] = 1/(1 − 1/M)
    /// claim is checkable on the lock-free heap too.
    /// CAS-retry probes are counted exactly like occupied-slot probes (one
    /// draw = one probe), and magazine refills count their draws exactly
    /// like direct allocations. Exact totals once the threads touching the
    /// heap are joined.
    #[must_use]
    pub fn probe_stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(allocs, probes), shard| {
            let (a, p) = shard.probe_stats();
            (allocs + a, probes + p)
        })
    }

    /// Total live bytes across all regions (rounded object sizes); same
    /// reservation and quiescence caveats as
    /// [`live_objects`](Self::live_objects).
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|p| live_in(p) * p.class().object_size())
            .sum()
    }
}

/// Live objects in one shard: its occupancy minus its reservations.
fn live_in(shard: &AtomicPartition) -> usize {
    let in_use = shard.in_use();
    in_use - shard.reserved_count().min(in_use)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HeapCore;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn heap(seed: u64) -> ShardedHeap {
        ShardedHeap::new(HeapConfig::default(), seed).unwrap()
    }

    #[test]
    fn matches_facade_layout_for_same_seed() {
        // The facade and the sharded heap split the master seed the same
        // way, so single-threaded histories coincide exactly — the shared
        // claim wins first try whenever the single-owner claim would.
        let sharded = heap(0xABCD);
        let mut facade = HeapCore::new(HeapConfig::default(), 0xABCD).unwrap();
        for req in [8usize, 8, 24, 100, 1000, 4000, 16_000, 8, 64] {
            assert_eq!(sharded.alloc(req), facade.alloc(req), "request {req}");
        }
        assert_eq!(sharded.stats(), facade.stats());
    }

    #[test]
    fn free_validation_pipeline() {
        let h = heap(4);
        let slot = h.alloc(64).unwrap();
        let off = h.offset_of(slot);

        assert_eq!(h.free_at(off + 1), FreeOutcome::MisalignedOffset);
        assert!(h.is_live_at(off));
        assert_eq!(h.free_at(off), FreeOutcome::Freed(slot));
        assert!(!h.is_live_at(off));
        assert_eq!(h.free_at(off), FreeOutcome::NotAllocated);
        assert_eq!(h.free_at(usize::MAX / 2), FreeOutcome::NotInHeap);

        let stats = h.stats();
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.ignored_frees, 2);
    }

    #[test]
    fn concurrent_mixed_class_churn_keeps_accounting_exact() {
        const THREADS: usize = 8;
        const OPS: usize = 3000;
        let h = Arc::new(heap(7));
        let allocated = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            let allocated = Arc::clone(&allocated);
            handles.push(std::thread::spawn(move || {
                let mut live: Vec<usize> = Vec::new();
                let mut rng = crate::rng::Mwc::seeded(0x1000 + t as u64);
                for _ in 0..OPS {
                    let size = 1 + rng.below(16 * 1024);
                    if let Some(slot) = h.alloc(size) {
                        allocated.fetch_add(1, Ordering::Relaxed);
                        live.push(h.offset_of(slot));
                    }
                    if live.len() > 32 {
                        let victim = live.swap_remove(rng.below(live.len()));
                        assert!(h.free_at(victim).freed(), "own offset must free");
                    }
                }
                for off in live {
                    assert!(h.free_at(off).freed());
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = h.stats();
        assert_eq!(h.live_objects(), 0);
        assert_eq!(stats.allocs, allocated.load(Ordering::Relaxed) as u64);
        assert_eq!(
            stats.frees, stats.allocs,
            "every alloc was freed exactly once"
        );
        assert_eq!(stats.ignored_frees, 0);
    }

    /// §4.2 on the lock-free stack: with the 8-byte class held essentially
    /// at its `1/M` cap and four threads churning alloc/free pairs, the
    /// measured mean probes per allocation approaches 1/(1 − 1/M) = 2 for
    /// M = 2. CAS-retry probes count like any other failed probe, so the
    /// statistic stays comparable to the single-owner runs.
    #[test]
    fn concurrent_probe_expectation_matches_paper() {
        const THREADS: usize = 4;
        const OPS: usize = 20_000;
        let h = Arc::new(heap(0xE1E1));
        // Fill class 0 to its threshold, then free a sliver of headroom so
        // the churn below oscillates just under the cap.
        let mut offs = Vec::new();
        while let Some(slot) = h.alloc(8) {
            offs.push(h.offset_of(slot));
        }
        for off in offs.drain(..THREADS * 4) {
            assert!(h.free_at(off).freed());
        }
        let (a0, p0) = h.probe_stats();
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    // A momentary at-threshold denial (another thread's
                    // alloc in flight) just skips the pair.
                    if let Some(slot) = h.alloc(8) {
                        assert!(h.free_at(h.offset_of(slot)).freed());
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let (a1, p1) = h.probe_stats();
        assert!(a1 - a0 > (THREADS * OPS) as u64 / 2, "churn mostly served");
        let mean = (p1 - p0) as f64 / (a1 - a0) as f64;
        assert!(
            (mean - 2.0).abs() < 0.2,
            "concurrent steady-state probes {mean}, expected ≈ 2"
        );
    }

    /// The pinned contended-retry divergence rule, positive half: an
    /// alloc-only sequence on one thread is bit-identical to the facade even
    /// when *other* classes are being hammered concurrently — contention
    /// only reorders draws within a class's own stream, never across
    /// classes.
    #[test]
    fn alloc_only_determinism_isolated_per_class() {
        const SEED: u64 = 0x05EE_DCA5;
        let mut facade = HeapCore::new(HeapConfig::default(), SEED).unwrap();
        let expected: Vec<Option<Slot>> = (0..500).map(|_| facade.alloc(8)).collect();

        let h = Arc::new(heap(SEED));
        let stop = Arc::new(AtomicUsize::new(0));
        let got = std::thread::scope(|s| {
            // Background churn in a different size class (1 KB objects).
            let noise = {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        if let Some(slot) = h.alloc(1000) {
                            assert!(h.free_at(h.offset_of(slot)).freed());
                        }
                    }
                })
            };
            let got: Vec<Option<Slot>> = (0..500).map(|_| h.alloc(8)).collect();
            stop.store(1, Ordering::Relaxed);
            noise.join().unwrap();
            got
        });
        assert_eq!(
            got, expected,
            "class-0 placements diverged under cross-class noise"
        );
    }

    #[test]
    fn elastic_heap_grows_then_spills_gracefully() {
        // 16 KB class: max capacity 64, elastic start 2 (threshold 1). The
        // heap must absorb the full fixed-size workload (32 slots under
        // M = 2) by doubling, then report Spill — not a crash — past the
        // final cap.
        let h = ShardedHeap::new(HeapConfig::default().with_grow(6), 0x57A7).unwrap();
        let mut placed = 0u64;
        let spilled = loop {
            match h.try_alloc(16 * 1024) {
                AllocOutcome::Placed(slot) => {
                    assert!(slot.index < 64);
                    placed += 1;
                }
                AllocOutcome::Spill => break true,
                AllocOutcome::Unsupported => unreachable!("16 KB is a small object"),
            }
        };
        assert!(spilled);
        assert_eq!(placed, 32, "same capacity as a fixed heap after growth");
        assert_eq!(h.growth_events(), 5, "2 → 4 → 8 → 16 → 32 → 64");
        assert_eq!(h.stats().exhausted, 1, "growth denials are not exhaustion");
        assert_eq!(h.stats().allocs, 32);
        // Outcomes are stable and routable, and zero-size stays unsupported
        // with no stats recorded.
        assert_eq!(h.try_alloc(16 * 1024), AllocOutcome::Spill);
        assert_eq!(h.try_alloc(0), AllocOutcome::Unsupported);
        assert_eq!(h.stats().exhausted, 2);
    }

    #[test]
    fn fixed_heap_never_grows() {
        let h = heap(0xF1);
        let mut last = None;
        while let Some(slot) = h.alloc(16 * 1024) {
            last = Some(slot);
        }
        assert!(last.is_some());
        assert_eq!(h.growth_events(), 0);
        assert_eq!(h.try_alloc(16 * 1024), AllocOutcome::Spill);
    }

    proptest! {
        /// The lock-free sharded heap matches the same shadow model as the
        /// facade (mirrors `engine_matches_shadow_model`) — the satellite
        /// proptest that atomic slot state tracks a `HeapCore`-style model
        /// through mixed alloc/free traffic.
        #[test]
        fn sharded_matches_shadow_model(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0usize..3, 1usize..20_000), 1..300),
        ) {
            let h = heap(seed);
            let mut model: HashMap<usize, Slot> = HashMap::new();
            let mut rng = crate::rng::Mwc::seeded(seed ^ 0xABCD);
            for (op, arg) in ops {
                match op {
                    0 => {
                        if let Some(slot) = h.alloc(arg.min(16 * 1024)) {
                            let off = h.offset_of(slot);
                            prop_assert!(!model.contains_key(&off), "offset reuse while live");
                            model.insert(off, slot);
                        }
                    }
                    1 => {
                        if !model.is_empty() {
                            let keys: Vec<usize> = model.keys().copied().collect();
                            let off = keys[rng.below(keys.len())];
                            prop_assert!(h.free_at(off).freed());
                            model.remove(&off);
                        }
                    }
                    _ => {
                        let off = rng.below(h.heap_span() + 1000);
                        let before = h.live_objects();
                        match h.free_at(off) {
                            FreeOutcome::Freed(_) => {
                                prop_assert!(model.remove(&off).is_some(),
                                    "freed an object the model did not know");
                            }
                            _ => prop_assert_eq!(h.live_objects(), before),
                        }
                    }
                }
                prop_assert_eq!(h.live_objects(), model.len());
            }
        }
    }
}
