//! The DieHard allocation engine: twelve randomized partitions behind the
//! offset arithmetic of `DieHardMalloc`/`DieHardFree` (Figure 2).
//!
//! The engine is *memory-free*: it decides where objects live (as byte
//! offsets inside the heap span) and validates frees, but never reads or
//! writes the heap itself. The simulated heap maps offsets into an arena;
//! the real allocator maps them into an `mmap`ed region. Both therefore
//! share one implementation of the paper's placement and validation logic.

use crate::bitmap::SlotState;
use crate::config::{ConfigError, FillPolicy, HeapConfig, HeapGeometry};
use crate::partition::AtomicPartition;
use crate::rng::{stream_seed, Mwc};
use crate::size_class::{SizeClass, NUM_CLASSES};
use core::sync::atomic::{AtomicU64, Ordering};

/// A small-object allocation: its size class and slot index.
///
/// The byte offset of the object inside the heap span is
/// `region_base(class) + (index << class.shift())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// The size class whose region holds the object.
    pub class: SizeClass,
    /// The slot index within that region.
    pub index: usize,
}

impl Slot {
    /// The object's byte size (the rounded, power-of-two class size).
    #[must_use]
    pub fn size(&self) -> usize {
        self.class.object_size()
    }
}

/// The result of `DieHardFree`'s validation pipeline (§4.3). Erroneous frees
/// are *ignored*, never fatal; the variants record why for stats and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeOutcome {
    /// The object was live and is now free.
    Freed(Slot),
    /// The offset lies outside the small-object heap span; the caller should
    /// consult the large-object table (paper: "indicating it may be a large
    /// object").
    NotInHeap,
    /// The offset is inside a region but not a multiple of the object size
    /// ("the offset ... must be a multiple of the object size") — an invalid
    /// free, ignored.
    MisalignedOffset,
    /// The slot is not currently allocated — a double or invalid free,
    /// ignored.
    NotAllocated,
}

impl FreeOutcome {
    /// `true` when the free actually released an object.
    #[must_use]
    pub fn freed(&self) -> bool {
        matches!(self, FreeOutcome::Freed(_))
    }
}

/// The result of a small-object allocation attempt on a heap that can grow.
///
/// Fixed heaps only ever report `Placed` or the terminal condition; elastic
/// heaps ([`HeapConfig::grow`]) distinguish *why* a request was not placed
/// so the caller can route around exhaustion instead of treating it as OOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// The object was placed at this slot.
    Placed(Slot),
    /// Every growth step is exhausted: the class sits at its maximum
    /// capacity *and* its final `1/M` cap. The caller should spill the
    /// request elsewhere (the global allocator falls through to its
    /// large-object `mmap` path) rather than crash — the paper returns
    /// `NULL` here; elastic heaps return a routable signal instead.
    Spill,
    /// The request is not small-object shaped (zero or above 16 KB); no
    /// class exists for it and no stats are recorded.
    Unsupported,
}

impl AllocOutcome {
    /// The placed slot, if any — collapses the elastic outcome back to the
    /// fixed heaps' `Option` API.
    #[must_use]
    pub fn placed(self) -> Option<Slot> {
        match self {
            AllocOutcome::Placed(slot) => Some(slot),
            AllocOutcome::Spill | AllocOutcome::Unsupported => None,
        }
    }
}

/// Running counters for one heap, used by the experiment harnesses.
///
/// This is the *snapshot* type; heaps accumulate into [`AtomicHeapStats`]
/// so that counters can be bumped from any shard without taking a lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Successful small-object allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Frees ignored by validation (double/invalid frees).
    pub ignored_frees: u64,
    /// Allocation requests denied because a region hit its `1/M` cap.
    pub exhausted: u64,
}

/// Lock-free heap counters.
///
/// The sharded heap updates these from whichever shard served an operation,
/// concurrently with every other shard; relaxed atomics suffice because the
/// counters carry no synchronization responsibility — they only have to end
/// up numerically exact once the threads touching the heap are joined.
#[derive(Debug, Default)]
pub struct AtomicHeapStats {
    allocs: AtomicU64,
    frees: AtomicU64,
    ignored_frees: AtomicU64,
    exhausted: AtomicU64,
}

impl AtomicHeapStats {
    /// Fresh zeroed counters; `const` so they can live in a `static`
    /// allocator initialized before `main`.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            ignored_frees: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        }
    }

    /// A point-in-time copy of all four counters.
    #[must_use]
    pub fn snapshot(&self) -> HeapStats {
        HeapStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            ignored_frees: self.ignored_frees.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
        }
    }

    /// Counts one successful allocation.
    pub fn record_alloc(&self) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one successful free.
    pub fn record_free(&self) {
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one ignored (double/invalid) free.
    pub fn record_ignored_free(&self) {
        self.ignored_frees.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a batch of counts gathered elsewhere — the magazine layer's
    /// per-thread plain counters — paying one atomic add per nonzero
    /// counter instead of one per operation.
    pub fn fold(&self, delta: HeapStats) {
        for (counter, n) in [
            (&self.allocs, delta.allocs),
            (&self.frees, delta.frees),
            (&self.ignored_frees, delta.ignored_frees),
            (&self.exhausted, delta.exhausted),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Counts one allocation denied at the `1/M` cap.
    pub fn record_exhausted(&self) {
        self.exhausted.fetch_add(1, Ordering::Relaxed);
    }
}

// ---- shared offset arithmetic ------------------------------------------
//
// The byte-offset ↔ (class, slot) conversions and the §4.3 free-validation
// checks are pure functions of the precomputed [`HeapGeometry`]. They are
// factored out of `HeapCore` so the single-threaded facade and the sharded
// concurrent heap run the *same* logic; only the slot state itself is
// shared mutable data. Per the paper's §4.1, the arithmetic is shifts and
// masks only: no division, modulus, or multiplication survives on these
// paths.

/// Byte offset of `slot` within a heap span laid out per `geometry`.
#[must_use]
#[inline]
pub fn slot_offset(geometry: &HeapGeometry, slot: Slot) -> usize {
    geometry.region_base(slot.class) + (slot.index << slot.class.shift())
}

/// Resolves a byte offset (any interior pointer) to the slot containing it,
/// or `None` outside the small-object span.
///
/// Two shifts and a mask: the class is `offset >> region_shift` (in range
/// exactly when the offset is inside the span), the within-region byte is
/// `offset & region_mask`, and the slot index drops the class's size bits.
#[must_use]
#[inline]
pub fn slot_at(geometry: &HeapGeometry, offset: usize) -> Option<Slot> {
    let region = offset >> geometry.region_shift();
    if region >= NUM_CLASSES {
        return None;
    }
    let class = SizeClass::from_index(region);
    let within = offset & geometry.region_mask();
    Some(Slot {
        class,
        index: within >> class.shift(),
    })
}

/// Builds the twelve partition shards for `geometry`, each with its private
/// RNG stream `stream_seed(seed, class)` — the one definition of the
/// partition layout, shared by [`HeapCore`] and
/// [`ShardedHeap`](crate::sharded::ShardedHeap) so the two always produce
/// identical placements for the same master seed. Shards start at the
/// geometry's *initial* capacity (== the maximum for fixed geometries) with
/// their slot maps sized for the maximum, so elastic growth never relayouts.
#[must_use]
pub(crate) fn build_atomic_partitions(
    geometry: &HeapGeometry,
    seed: u64,
) -> [AtomicPartition; NUM_CLASSES] {
    core::array::from_fn(|i| {
        let c = SizeClass::from_index(i);
        AtomicPartition::new_elastic(
            c,
            geometry.capacity(c),
            geometry.initial_capacity(c),
            geometry.initial_threshold(c),
            stream_seed(seed, i as u64),
        )
    })
}

/// As [`build_atomic_partitions`], but carving the slot-state maps (two bits
/// per slot, 32 slots per word) out of caller-provided storage.
///
/// # Safety
///
/// `metadata_words` must point to at least
/// [`ShardedHeap::bitmap_words_needed`](crate::sharded::ShardedHeap::bitmap_words_needed)
/// zeroed `u64`s, valid and exclusively owned for the partitions' lifetime.
pub(crate) unsafe fn build_atomic_partitions_from_storage(
    geometry: &HeapGeometry,
    seed: u64,
    metadata_words: *mut u64,
) -> [AtomicPartition; NUM_CLASSES] {
    let mut cursor = metadata_words;
    core::array::from_fn(|i| {
        let c = SizeClass::from_index(i);
        let cap = geometry.capacity(c);
        // SAFETY: the caller provides enough zeroed words for the sum of
        // all class maps (sized at maximum capacity, growth-stable); we
        // carve them off sequentially.
        let p = unsafe {
            AtomicPartition::from_storage_elastic(
                c,
                cap,
                geometry.initial_capacity(c),
                geometry.initial_threshold(c),
                stream_seed(seed, i as u64),
                cursor,
            )
        };
        cursor = unsafe { cursor.add(AtomicPartition::words_needed(cap)) };
        p
    })
}

/// The span/alignment half of `DieHardFree`'s validation (§4.3): `Ok` names
/// the slot whose partition completes the free; `Err` carries the outcome
/// that needs no partition at all (outside the heap, or an interior pointer
/// that is not a multiple of the object size).
///
/// # Errors
///
/// Returns `Err(FreeOutcome::NotInHeap)` or
/// `Err(FreeOutcome::MisalignedOffset)`; never any other variant.
#[inline]
pub fn locate_free(geometry: &HeapGeometry, offset: usize) -> Result<Slot, FreeOutcome> {
    let region = offset >> geometry.region_shift();
    if region >= NUM_CLASSES {
        return Err(FreeOutcome::NotInHeap);
    }
    let class = SizeClass::from_index(region);
    let within = offset & geometry.region_mask();
    if within & (class.object_size() - 1) != 0 {
        return Err(FreeOutcome::MisalignedOffset);
    }
    Ok(Slot {
        class,
        index: within >> class.shift(),
    })
}

/// The randomized small-object heap core.
///
/// A single-owner (`&mut self`) heap over the same [`AtomicPartition`]s the
/// concurrent heaps use, driven through their plain-load/store
/// [`alloc_mut`](AtomicPartition::alloc_mut) and
/// [`free_mut`](AtomicPartition::free_mut) entry points, so placements are
/// bit-identical to [`ShardedHeap`](crate::sharded::ShardedHeap) for the same
/// seed at no atomic read-modify-write cost.
///
/// A heap is *fixed* or *elastic* ([`HeapConfig::grow`], the adaptive
/// variant the paper sketches as future work, §9): each class then starts at a fraction of
/// its maximum capacity and doubles whenever it hits its `1/M` cap. Object
/// offsets are stable across growth, because regions are laid out at their
/// maximum size and only the probing range changes; protection is
/// proportional to the *current* region size.
///
/// # Examples
///
/// ```
/// use diehard_core::{config::HeapConfig, engine::HeapCore};
///
/// let mut heap = HeapCore::new(HeapConfig::default(), 42)?;
/// let slot = heap.alloc(100).expect("space available");
/// assert_eq!(slot.size(), 128);
/// let off = heap.offset_of(slot);
/// assert!(heap.free_at(off).freed());
/// # Ok::<(), diehard_core::config::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct HeapCore {
    geometry: HeapGeometry,
    /// Auxiliary stream for wrappers (random fills in replicated mode);
    /// placement randomness lives inside each partition shard.
    rng: Mwc,
    partitions: [AtomicPartition; NUM_CLASSES],
    /// Plain counters: the facade's mutating API is exclusively `&mut
    /// self`, so the single-threaded hot paths pay no atomic RMW cost
    /// (the sharded heap uses [`AtomicHeapStats`] instead).
    stats: HeapStats,
    /// Completed per-class doublings (elastic heaps; always 0 when fixed).
    growths: u64,
}

impl HeapCore {
    /// Creates an empty heap with the given configuration and RNG seed:
    /// fixed-size, or elastic when [`HeapConfig::grow`] is set (each class
    /// then starts at `1/2^k` of its maximum capacity and doubles under
    /// `1/M`-cap pressure up to the maximum). Single-threaded histories are
    /// bit-identical to [`ShardedHeap`](crate::sharded::ShardedHeap) at the
    /// same configuration and seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use diehard_core::config::{HeapConfig, DEFAULT_INITIAL_FRACTION_LOG2};
    /// use diehard_core::engine::HeapCore;
    ///
    /// let config = HeapConfig::default().with_grow(DEFAULT_INITIAL_FRACTION_LOG2);
    /// let mut heap = HeapCore::new(config, 7)?;
    /// let start = heap.committed_bytes();
    /// for _ in 0..5000 {
    ///     heap.alloc(8).expect("grows instead of failing");
    /// }
    /// assert!(heap.growth_events() > 0, "region grew under pressure");
    /// assert!(heap.committed_bytes() > start);
    /// # Ok::<(), diehard_core::config::ConfigError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn new(config: HeapConfig, seed: u64) -> Result<Self, ConfigError> {
        let geometry = HeapGeometry::new(config)?;
        let partitions = build_atomic_partitions(&geometry, seed);
        Ok(Self {
            geometry,
            rng: Mwc::seeded(seed),
            partitions,
            stats: HeapStats::default(),
            growths: 0,
        })
    }

    /// The heap's configuration (region sizes are *maximums* when elastic).
    #[must_use]
    pub fn config(&self) -> &HeapConfig {
        self.geometry.config()
    }

    /// The heap's precomputed shift/mask geometry.
    #[must_use]
    #[inline]
    pub fn geometry(&self) -> &HeapGeometry {
        &self.geometry
    }

    /// Counters since construction.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// The heap's RNG; exposed so wrappers can draw the random fill values
    /// of replicated mode from the same seeded stream.
    pub fn rng_mut(&mut self) -> &mut Mwc {
        &mut self.rng
    }

    /// Whether allocations should be filled with random values.
    #[must_use]
    pub fn fill_policy(&self) -> FillPolicy {
        self.geometry.fill()
    }

    /// The partition serving `class`.
    #[must_use]
    pub fn partition(&self, class: SizeClass) -> &AtomicPartition {
        &self.partitions[class.index()]
    }

    /// Allocates `size` bytes, returning the chosen slot, or `None` when the
    /// request is zero, larger than 16 KB (large-object path), or the class
    /// region is at its `1/M` cap (the paper returns `NULL`). An elastic
    /// heap first doubles the class, and only fails at its maximum.
    #[inline]
    pub fn alloc(&mut self, size: usize) -> Option<Slot> {
        let class = SizeClass::for_size(size)?;
        let partition = &mut self.partitions[class.index()];
        loop {
            if let Some(index) = partition.alloc_mut() {
                self.stats.allocs += 1;
                return Some(Slot { class, index });
            }
            // Growth consumes no draws, so histories match the sharded heap.
            match self.geometry.grow_step(class, partition.capacity()) {
                Some((capacity, threshold)) => {
                    partition.grow_to(capacity, threshold);
                    self.growths += 1;
                }
                None => {
                    self.stats.exhausted += 1;
                    return None;
                }
            }
        }
    }

    /// Number of per-class doublings so far (always 0 on a fixed heap).
    #[must_use]
    pub fn growth_events(&self) -> u64 {
        self.growths
    }

    /// Bytes of object slots the regions currently serve: the full heap
    /// span when fixed, the grown prefix of each region when elastic — the
    /// adaptive variant's memory footprint.
    #[must_use]
    pub fn committed_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.capacity() * p.class().object_size())
            .sum()
    }

    /// Byte offset of `slot` within the heap span.
    #[must_use]
    #[inline]
    pub fn offset_of(&self, slot: Slot) -> usize {
        slot_offset(&self.geometry, slot)
    }

    /// Resolves a byte offset to the slot containing it, requiring the
    /// offset to point exactly at the slot start when `exact` is set (free
    /// validation) or anywhere inside the object otherwise (used by the
    /// bounded string functions of §4.4 to find an object's start).
    #[must_use]
    pub fn slot_containing(&self, offset: usize) -> Option<Slot> {
        slot_at(&self.geometry, offset)
    }

    /// `DieHardFree` (§4.3): validates and frees the object at `offset`.
    ///
    /// The three checks, in order: the offset must fall inside the heap
    /// span; it must be a multiple of its region's object size; and the slot
    /// must currently be allocated. Failing any check *ignores* the free —
    /// this is what makes DieHard immune to double and invalid frees.
    #[inline]
    pub fn free_at(&mut self, offset: usize) -> FreeOutcome {
        let slot = match locate_free(&self.geometry, offset) {
            Ok(slot) => slot,
            Err(outcome) => {
                if outcome == FreeOutcome::MisalignedOffset {
                    self.stats.ignored_frees += 1;
                }
                return outcome;
            }
        };
        if self.partitions[slot.class.index()].free_mut(slot.index) == SlotState::Live {
            self.stats.frees += 1;
            FreeOutcome::Freed(slot)
        } else {
            self.stats.ignored_frees += 1;
            FreeOutcome::NotAllocated
        }
    }

    /// Whether the object at `offset` (any interior pointer) is live.
    #[must_use]
    pub fn is_live_at(&self, offset: usize) -> bool {
        match self.slot_containing(offset) {
            Some(slot) => self.partitions[slot.class.index()].is_live(slot.index),
            None => false,
        }
    }

    /// Total live bytes across all regions (rounded object sizes).
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.in_use() * p.class().object_size())
            .sum()
    }

    /// Total live objects across all regions.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.partitions.iter().map(AtomicPartition::in_use).sum()
    }

    /// Iterates over every live slot in the heap, smallest class first.
    pub fn live_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.partitions.iter().flat_map(|p| {
            let class = p.class();
            p.live_slots().map(move |index| Slot { class, index })
        })
    }

    /// Bytes spanned by the small-object heap (12 × region size).
    #[must_use]
    pub fn heap_span(&self) -> usize {
        self.geometry.heap_span()
    }
}

/// Number of size classes the engine manages; re-exported for harnesses.
pub const CLASS_COUNT: usize = NUM_CLASSES;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DEFAULT_INITIAL_FRACTION_LOG2;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn heap(seed: u64) -> HeapCore {
        HeapCore::new(HeapConfig::default(), seed).unwrap()
    }

    #[test]
    fn alloc_routes_to_correct_class() {
        let mut h = heap(1);
        for (req, expect) in [
            (1usize, 8usize),
            (8, 8),
            (24, 32),
            (4096, 4096),
            (9000, 16384),
        ] {
            let slot = h.alloc(req).unwrap();
            assert_eq!(slot.size(), expect, "request {req}");
        }
    }

    #[test]
    fn zero_and_large_requests_return_none() {
        let mut h = heap(2);
        assert_eq!(h.alloc(0), None);
        assert_eq!(h.alloc(16 * 1024 + 1), None);
        assert_eq!(h.stats().allocs, 0);
    }

    #[test]
    fn offset_roundtrip() {
        let mut h = heap(3);
        for req in [8usize, 64, 1000, 16384] {
            let slot = h.alloc(req).unwrap();
            let off = h.offset_of(slot);
            assert_eq!(h.slot_containing(off), Some(slot));
            // Interior pointers resolve to the same slot.
            assert_eq!(h.slot_containing(off + slot.size() - 1), Some(slot));
        }
    }

    #[test]
    fn free_validation_pipeline() {
        let mut h = heap(4);
        let slot = h.alloc(64).unwrap();
        let off = h.offset_of(slot);

        // Interior (misaligned) pointer: ignored.
        assert_eq!(h.free_at(off + 1), FreeOutcome::MisalignedOffset);
        assert!(h.is_live_at(off));

        // Proper free succeeds.
        assert_eq!(h.free_at(off), FreeOutcome::Freed(slot));
        assert!(!h.is_live_at(off));

        // Double free: ignored.
        assert_eq!(h.free_at(off), FreeOutcome::NotAllocated);

        // Outside the heap: reported for the large-object path.
        assert_eq!(h.free_at(usize::MAX / 2), FreeOutcome::NotInHeap);

        let stats = h.stats();
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.ignored_frees, 2);
    }

    #[test]
    fn free_of_wrong_class_alignment_ignored() {
        let mut h = heap(5);
        // Allocate an 8-byte object, then try to free at an offset inside
        // the 16 KB region that was never allocated.
        let _ = h.alloc(8).unwrap();
        let off_16k = h.config().region_base(SizeClass::from_index(11));
        assert_eq!(h.free_at(off_16k), FreeOutcome::NotAllocated);
    }

    #[test]
    fn live_accounting() {
        let mut h = heap(6);
        let a = h.alloc(8).unwrap();
        let b = h.alloc(100).unwrap();
        assert_eq!(h.live_objects(), 2);
        assert_eq!(h.live_bytes(), 8 + 128);
        h.free_at(h.offset_of(a));
        assert_eq!(h.live_objects(), 1);
        h.free_at(h.offset_of(b));
        assert_eq!(h.live_objects(), 0);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn exhaustion_counted() {
        let cfg = HeapConfig::default().with_region_bytes(32 * 1024);
        let mut h = HeapCore::new(cfg, 7).unwrap();
        // 16 KB class has capacity 2, threshold 1 with M=2.
        assert!(h.alloc(16 * 1024).is_some());
        assert!(h.alloc(16 * 1024).is_none());
        assert_eq!(h.stats().exhausted, 1);
    }

    /// Acceptance pin for the strength-reduced probe draw: the exact
    /// (class, slot) sequence one known seed produces. The shift draw
    /// `next_u64() >> (64 - capacity_log2)` must stay bit-identical to the
    /// widening-multiply `below` it replaced — verified against the
    /// pre-geometry implementation; any drift in RNG streams, seed
    /// splitting, or the draw itself breaks this list.
    #[test]
    fn pinned_placement_sequence_for_known_seed() {
        let mut h = HeapCore::new(HeapConfig::default(), 0xD1E_4A8D).unwrap();
        let got: Vec<(usize, usize)> = [8usize, 8, 16, 100, 1000, 4000, 16384, 8, 64, 300]
            .iter()
            .map(|&sz| {
                let s = h.alloc(sz).unwrap();
                (s.class.index(), s.index)
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 84456),
                (0, 3067),
                (1, 40705),
                (4, 2529),
                (7, 530),
                (9, 72),
                (11, 11),
                (0, 111613),
                (3, 6099),
                (6, 71),
            ]
        );
    }

    #[test]
    fn identical_seeds_identical_layout() {
        let mut a = heap(99);
        let mut b = heap(99);
        for req in [8, 16, 8, 300, 4000, 8, 64] {
            assert_eq!(a.alloc(req), b.alloc(req));
        }
    }

    #[test]
    fn different_seeds_different_layout() {
        let mut a = heap(1);
        let mut b = heap(2);
        let mut same = 0;
        for _ in 0..32 {
            if a.alloc(64) == b.alloc(64) {
                same += 1;
            }
        }
        assert!(
            same < 8,
            "layouts should diverge across seeds ({same}/32 agree)"
        );
    }

    #[test]
    fn live_slots_enumerates_everything() {
        let mut h = heap(8);
        let mut expect = Vec::new();
        for req in [8, 8, 50, 1000, 16000] {
            expect.push(h.alloc(req).unwrap());
        }
        let mut got: Vec<Slot> = h.live_slots().collect();
        let key = |s: &Slot| (s.class.index(), s.index);
        got.sort_by_key(key);
        expect.sort_by_key(key);
        assert_eq!(got, expect);
    }

    fn elastic(seed: u64) -> HeapCore {
        HeapCore::new(
            HeapConfig::default().with_grow(DEFAULT_INITIAL_FRACTION_LOG2),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn elastic_starts_small() {
        let h = elastic(1);
        let c0 = SizeClass::from_index(0);
        let max = h.config().capacity(c0);
        assert!(h.partition(c0).capacity() <= (max >> DEFAULT_INITIAL_FRACTION_LOG2) + 2);
        assert!(h.committed_bytes() < HeapConfig::default().heap_span() / 16);
        assert_eq!(heap(1).committed_bytes(), HeapConfig::default().heap_span());
    }

    #[test]
    fn elastic_start_capacities_are_pow2_for_the_shift_draw() {
        // Every start — and therefore every doubling of it — must be a
        // power of two, also for non-dyadic multipliers, or the partition
        // falls back to the slower `below` draw.
        for cfg in [
            HeapConfig::default(),
            HeapConfig::default().with_multiplier(3.0),
            HeapConfig::default().with_multiplier(4.0 / 3.0),
        ] {
            let h = HeapCore::new(cfg.with_grow(DEFAULT_INITIAL_FRACTION_LOG2), 9).unwrap();
            for c in SizeClass::all() {
                let start = h.partition(c).capacity();
                assert!(
                    start.is_power_of_two(),
                    "class {} starts at non-pow2 {start}",
                    c.index()
                );
            }
        }
    }

    #[test]
    fn elastic_grows_under_pressure_and_addresses_stay_valid() {
        let mut h = elastic(2);
        let c0 = SizeClass::from_index(0);
        let start = h.partition(c0).capacity();
        let mut offsets = Vec::new();
        for _ in 0..start * 2 {
            let slot = h.alloc(8).expect("elastic heap must grow, not fail");
            offsets.push(h.offset_of(slot));
        }
        assert!(h.partition(c0).capacity() > start);
        assert!(h.growth_events() > 0);
        assert_eq!(h.stats().exhausted, 0, "growth denials are not exhaustion");
        // All earlier offsets still free correctly after growth.
        for off in offsets {
            assert!(h.free_at(off).freed(), "offset {off} should still be live");
        }
        assert_eq!(h.live_objects(), 0);
    }

    #[test]
    fn elastic_growth_capped_at_configured_maximum() {
        let cfg = HeapConfig::default().with_region_bytes(64 * 1024);
        let mut h = HeapCore::new(cfg.clone().with_grow(DEFAULT_INITIAL_FRACTION_LOG2), 3).unwrap();
        let c11 = SizeClass::from_index(11); // 16 KB: max capacity 4
        let max_cap = cfg.capacity(c11);
        let mut got = 0;
        for _ in 0..max_cap + 4 {
            if h.alloc(16 * 1024).is_some() {
                got += 1;
            }
        }
        assert_eq!(h.partition(c11).capacity(), max_cap);
        assert!(got <= max_cap);
        assert!(got >= max_cap / 2, "should serve up to the 1/M cap");
        assert_eq!(h.stats().exhausted, (max_cap + 4 - got) as u64);
    }

    #[test]
    fn elastic_double_free_ignored() {
        let mut h = elastic(4);
        let slot = h.alloc(64).unwrap();
        let off = h.offset_of(slot);
        assert!(h.free_at(off).freed());
        assert_eq!(h.free_at(off), FreeOutcome::NotAllocated);
    }

    #[test]
    fn elastic_offsets_disjoint_from_other_classes() {
        let mut h = elastic(5);
        let a = h.alloc(8).unwrap();
        let b = h.alloc(16 * 1024).unwrap();
        let (oa, ob) = (h.offset_of(a), h.offset_of(b));
        assert!(oa < h.config().region_bytes);
        assert!(ob >= 11 * h.config().region_bytes);
    }

    proptest! {
        /// Under arbitrary alloc/free interleavings the elastic heap never
        /// hands out overlapping objects, even across growth events.
        #[test]
        fn elastic_no_overlap_across_growth(
            seed in any::<u64>(),
            ops in proptest::collection::vec((any::<bool>(), 1usize..512), 1..300),
        ) {
            let mut h = elastic(seed);
            let mut live: Vec<(usize, usize)> = Vec::new(); // (offset, size)
            let mut rng = Mwc::seeded(seed);
            for (do_alloc, sz) in ops {
                if do_alloc || live.is_empty() {
                    if let Some(slot) = h.alloc(sz) {
                        let off = h.offset_of(slot);
                        for &(o, s) in &live {
                            prop_assert!(off + slot.size() <= o || o + s <= off,
                                "overlap at {off}");
                        }
                        live.push((off, slot.size()));
                    }
                } else {
                    let (off, _) = live.swap_remove(rng.below(live.len()));
                    prop_assert!(h.free_at(off).freed());
                }
            }
        }
    }

    proptest! {
        /// Any interleaving of allocs and (valid or bogus) frees keeps the
        /// engine consistent with a shadow model keyed by offset.
        #[test]
        fn engine_matches_shadow_model(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0usize..3, 1usize..20_000), 1..300),
        ) {
            let mut h = heap(seed);
            let mut model: HashMap<usize, Slot> = HashMap::new();
            let mut rng = Mwc::seeded(seed ^ 0xABCD);
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
                        // Bogus free at a random offset: must never free a
                        // *different* object or corrupt accounting.
                        let off = rng.below(h.heap_span() + 1000);
                        let before = h.live_objects();
                        let out = h.free_at(off);
                        match out {
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

        /// The shift/mask conversions agree with a division/modulus
        /// reference implementation over random geometries and offsets —
        /// in-span, out-of-span, aligned, and interior-pointer cases alike.
        #[test]
        fn shift_mask_matches_division_reference(
            region_log2 in 15u32..25, // 32 KB (minimum legal) … 16 MB
            raw_offset in proptest::prelude::any::<u64>(),
            in_span in proptest::prelude::any::<bool>(),
        ) {
            let config = HeapConfig::new().with_region_bytes(1usize << region_log2);
            let geometry = HeapGeometry::new(config.clone()).unwrap();
            // Bias half the cases into the span so the aligned/misaligned
            // branches are exercised, not just NotInHeap.
            let offset = if in_span {
                raw_offset as usize % config.heap_span()
            } else {
                raw_offset as usize
            };

            // Division-based reference for `slot_at`.
            let ref_slot = if offset >= config.heap_span() {
                None
            } else {
                let class = SizeClass::from_index(offset / config.region_bytes);
                Some(Slot {
                    class,
                    index: (offset % config.region_bytes) / class.object_size(),
                })
            };
            prop_assert_eq!(slot_at(&geometry, offset), ref_slot);

            // Division-based reference for `locate_free`.
            let ref_locate = match ref_slot {
                None => Err(FreeOutcome::NotInHeap),
                Some(slot) if offset % slot.class.object_size() != 0 => {
                    Err(FreeOutcome::MisalignedOffset)
                }
                Some(slot) => Ok(slot),
            };
            prop_assert_eq!(locate_free(&geometry, offset), ref_locate);

            // And the multiply-based reference for `slot_offset` round-trips.
            if let Some(slot) = ref_slot {
                let base = slot_offset(&geometry, slot);
                prop_assert_eq!(
                    base,
                    slot.class.index() * config.region_bytes
                        + slot.index * slot.class.object_size()
                );
                prop_assert!(base <= offset && offset < base + slot.class.object_size());
            }
        }

        /// Live objects never overlap in the offset space.
        #[test]
        fn no_byte_overlap(seed in any::<u64>(), n in 1usize..200) {
            let mut h = heap(seed);
            let mut intervals: Vec<(usize, usize)> = Vec::new();
            let mut rng = Mwc::seeded(seed);
            for _ in 0..n {
                let sz = 1 + rng.below(16 * 1024);
                if let Some(slot) = h.alloc(sz) {
                    let off = h.offset_of(slot);
                    intervals.push((off, off + slot.size()));
                }
            }
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
            }
        }
    }
}
