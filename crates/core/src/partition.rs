//! A single size-class region: slot states, fullness accounting, random
//! probing.
//!
//! Implements the per-region half of `DieHardMalloc`/`DieHardFree`
//! (Figure 2 of the paper): hash-table-style probing for a free slot,
//! the `1/M` fullness threshold, and the allocated-bit bookkeeping.
//!
//! Each partition owns its own [`AtomicMwc`] stream, so a partition is a
//! complete, independent *shard* of the heap: no shared RNG (or any other
//! shared mutable state) couples allocations in different size classes.

use crate::bitmap::{SlotState, SlotStateMap};
use crate::rng::AtomicMwc;
use crate::size_class::SizeClass;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The strength-reduced draw shift for `capacity`, or the `0` sentinel when
/// only the general widening-multiply draw is exact.
///
/// A power-of-two capacity (every region the heap geometry builds) draws a
/// probe index as `next_u64() >> (64 - log2(capacity))`, which is
/// **bit-identical** to the widening-multiply
/// [`Mwc::below`](crate::rng::Mwc::below) — `(r * 2^k) >> 64 == r >> (64 - k)`
/// — but costs a shift instead of a 128-bit multiply.
#[inline]
fn draw_shift_for(capacity: usize) -> u32 {
    if capacity.is_power_of_two() && capacity > 1 {
        64 - capacity.trailing_zeros()
    } else {
        // capacity == 1 draws index 0 either way; `below` handles it.
        0
    }
}

/// The probe loop every allocation path shares (§4.2): draw an index, try
/// to claim it, repeat until a claim wins. Returns the won index and the
/// number of draws — one draw is one probe, whether the claim lost to an
/// occupied slot or to a racing claimant.
#[inline(always)]
fn probe(mut draw: impl FnMut() -> usize, mut claim: impl FnMut(usize) -> bool) -> (usize, u64) {
    let mut probes = 0u64;
    loop {
        probes += 1;
        let index = draw();
        if claim(index) {
            return (index, probes);
        }
    }
}

/// One size-class region of the DieHard heap: a slot-state map, the `1/M`
/// cap, and the random probe loop, with two entry points over one state.
///
/// The partition works purely in slot indices; converting indices to byte
/// offsets (or machine pointers) is the enclosing heap's job. This lets the
/// simulated heap and the real `mmap`-backed heap share the exact same
/// placement logic.
///
/// * **Shared (`&self`)**: [`alloc`](Self::alloc), [`free`](Self::free) and
///   the magazine's reservation calls are lock-free. Slot state lives in a
///   paired-bit [`SlotStateMap`], probe indices come from a CAS-advanced
///   [`AtomicMwc`], and the `1/M` cap is enforced by a ticket on an atomic
///   `in_use` counter. This is the per-shard type behind
///   [`crate::sharded::ShardedHeap`].
/// * **Single owner (`&mut self`)**: [`alloc_mut`](Self::alloc_mut) and
///   [`free_mut`](Self::free_mut) make the same transitions with plain
///   loads and stores (`Atomic*::get_mut`), so they pay no read-modify-write.
///   [`HeapCore`](crate::engine::HeapCore) and the Monte Carlo harnesses
///   use them.
///
/// The determinism contract:
///
/// * **The two entry points are interchangeable.** Serially, `alloc_mut`
///   and `alloc` draw the same RNG stream with the same shift draw, win or
///   lose each claim alike, and account tickets and probes identically, so
///   any mix of them replays the same placements for the same seed.
/// * **Under contention the placement *sequence* may diverge** from any
///   serial execution (two threads' draws interleave one RNG stream, and a
///   lost claim redraws), but every placement is still a uniformly random
///   free slot and all accounting stays exact. This is the pinned
///   contended-retry divergence rule: determinism is per-thread-serialized
///   history, not cross-thread.
///
/// Probe accounting is one RNG draw per probe, whether the claim then loses
/// to an already-occupied slot or to a racing claimant (shared path only).
/// Both show up identically in `probe_stats`, keeping the §4.2
/// E\[probes\] = 1/(1 − 1/M) assertions honest.
///
/// # Why the probe loop terminates
///
/// A probing thread holds a ticket, so `in_use ≤ threshold` among successful
/// holders, and every occupied slot's owner holds a ticket, so
/// `occupied ≤ in_use ≤ threshold < capacity`: at least
/// `capacity − threshold` slots stay free while anyone probes, and each
/// probe hits a free slot with probability ≥ `1 − 1/M`. Growth only widens
/// that margin: the probe loop re-reads the packed active word every
/// iteration, so a concurrent doubling (which can raise the threshold past
/// the *old* capacity) immediately widens the draw range too — probing a
/// stale, now-fillable range can never persist for more than one draw.
///
/// # Elastic growth
///
/// An elastic partition ([`new_elastic`](Self::new_elastic)) sizes its slot
/// map for `max_capacity` up front but starts serving a smaller
/// power-of-two *active* capacity. [`grow_to`](Self::grow_to) — called with
/// the enclosing heap's per-class maintenance lock held, so writes are
/// serialized — publishes a larger capacity with two relaxed stores; readers
/// need no lock. Two packed words make lock-free reads tear-proof:
///
/// * `active` = `draw_shift << 58 | threshold`: one load yields a mutually
///   consistent (draw range, `1/M` cap) pair. Shift `0` is the non-pow2
///   sentinel (falls back to [`AtomicMwc::below`]); elastic capacities are
///   always pow2, so the hot path never takes it.
/// * `tickets` = `allocs << 32 | in_use`: the `1/M` ticket and the telemetry
///   allocation counter advance in **one** `fetch_add` (the alloc counter
///   narrows to 32 bits, wrapping mod 2³²).
#[derive(Debug)]
pub struct AtomicPartition {
    class: SizeClass,
    /// Slot states for the *maximum* capacity: growth never moves a slot,
    /// so indices, offsets, and live state are stable across doublings.
    map: SlotStateMap,
    max_capacity: usize,
    /// Currently active slot count (≤ `max_capacity`); written only under
    /// the enclosing heap's maintenance lock, read lock-free.
    capacity: AtomicUsize,
    /// Packed `draw_shift << 58 | threshold`; see the type docs.
    active: AtomicU64,
    /// Packed `allocs << 32 | in_use`. The low half is the occupancy
    /// *ticket*: alloc adds [`TICKET`] (one RMW bumps both halves) before
    /// claiming a slot and backs the whole ticket out on denial, free
    /// decrements the low half after releasing a slot — so `in_use`
    /// transiently overcounts, never undercounts, real occupancy. The
    /// conservative direction: the `1/M` cap can deny an allocation a racing
    /// free was about to make room for, but can never admit one past the cap.
    tickets: AtomicU64,
    rng: AtomicMwc,
    probes: AtomicU64,
}

/// Bit position of the packed draw shift inside `active`.
const ACTIVE_SHIFT_BITS: u32 = 58;
/// Low 58 bits of `active`: the `1/M` threshold.
const ACTIVE_THRESHOLD_MASK: u64 = (1 << ACTIVE_SHIFT_BITS) - 1;
/// Bit position of the packed alloc counter inside `tickets`.
const TICKET_ALLOC_SHIFT: u32 = 32;
/// Low 32 bits of `tickets`: the occupancy ticket (`in_use`).
const TICKET_IN_USE_MASK: u64 = u32::MAX as u64;
/// One allocation ticket: bumps `in_use` and `allocs` in a single RMW.
const TICKET: u64 = 1 | (1 << TICKET_ALLOC_SHIFT);

/// Packs a draw shift and threshold into one `active` word.
#[inline]
fn pack_active(draw_shift: u32, threshold: usize) -> u64 {
    ((draw_shift as u64) << ACTIVE_SHIFT_BITS) | threshold as u64
}

impl AtomicPartition {
    /// Creates an empty partition with `capacity` slots of which at most
    /// `threshold` may be occupied at once, probing with its own RNG stream
    /// seeded from `seed`. The partition is *fixed-size*: it never grows.
    ///
    /// # Panics
    ///
    /// Panics if `threshold > capacity` or `capacity == 0`.
    #[must_use]
    pub fn new(class: SizeClass, capacity: usize, threshold: usize, seed: u64) -> Self {
        Self::new_elastic(class, capacity, capacity, threshold, seed)
    }

    /// Creates an empty *elastic* partition: the slot map covers
    /// `max_capacity`, but only `initial_capacity` slots are active until
    /// [`grow_to`](Self::grow_to) widens the range.
    ///
    /// # Panics
    ///
    /// Panics if `initial_capacity == 0`, `initial_capacity > max_capacity`,
    /// `initial_threshold > initial_capacity`, or `max_capacity` does not
    /// fit the 32-bit packed ticket word.
    #[must_use]
    pub fn new_elastic(
        class: SizeClass,
        max_capacity: usize,
        initial_capacity: usize,
        initial_threshold: usize,
        seed: u64,
    ) -> Self {
        Self::check_geometry(max_capacity, initial_capacity, initial_threshold);
        let map = SlotStateMap::new(max_capacity);
        Self::with_map(class, map, initial_capacity, initial_threshold, seed)
    }

    /// As [`new_elastic`](Self::new_elastic) but over caller-provided zeroed
    /// storage of [`Self::words_needed`]`(max_capacity)` u64 words — the
    /// slot map is always sized for the maximum, so the metadata footprint
    /// is identical for fixed and elastic partitions.
    ///
    /// # Safety
    ///
    /// Same contract as [`SlotStateMap::from_storage`].
    #[must_use]
    pub unsafe fn from_storage_elastic(
        class: SizeClass,
        max_capacity: usize,
        initial_capacity: usize,
        initial_threshold: usize,
        seed: u64,
        words: *mut u64,
    ) -> Self {
        Self::check_geometry(max_capacity, initial_capacity, initial_threshold);
        // SAFETY: forwarded caller contract.
        let map = unsafe { SlotStateMap::from_storage(words, max_capacity) };
        Self::with_map(class, map, initial_capacity, initial_threshold, seed)
    }

    fn check_geometry(max_capacity: usize, initial_capacity: usize, initial_threshold: usize) {
        assert!(initial_capacity > 0, "partition capacity must be positive");
        assert!(
            initial_capacity <= max_capacity,
            "initial capacity {initial_capacity} exceeds maximum {max_capacity}"
        );
        assert!(
            initial_threshold <= initial_capacity,
            "threshold {initial_threshold} exceeds capacity {initial_capacity}"
        );
        assert!(
            (max_capacity as u64) <= TICKET_IN_USE_MASK >> 1,
            "max capacity {max_capacity} overflows the packed 32-bit ticket word"
        );
    }

    /// Field initialization shared by the constructors, after their checks.
    fn with_map(
        class: SizeClass,
        map: SlotStateMap,
        initial_capacity: usize,
        initial_threshold: usize,
        seed: u64,
    ) -> Self {
        Self {
            class,
            max_capacity: map.len(),
            map,
            capacity: AtomicUsize::new(initial_capacity),
            active: AtomicU64::new(pack_active(
                draw_shift_for(initial_capacity),
                initial_threshold,
            )),
            tickets: AtomicU64::new(0),
            rng: AtomicMwc::seeded(seed),
            probes: AtomicU64::new(0),
        }
    }

    /// Words of metadata storage a partition of `capacity` slots needs
    /// (two bits per slot). Elastic partitions size storage for their
    /// *maximum* capacity.
    #[must_use]
    pub const fn words_needed(capacity: usize) -> usize {
        SlotStateMap::words_needed(capacity)
    }

    /// Publishes a larger active capacity and threshold, lock-free for
    /// readers. The caller must serialize writers (the enclosing heap holds
    /// its per-class maintenance lock). Existing live and reserved slots
    /// keep their indices — the map was sized for `max_capacity` up front.
    ///
    /// The two relaxed stores (capacity, then the packed active word) are
    /// individually consistent for concurrent allocators: an old `active`
    /// with the new capacity just probes the old range under the old cap,
    /// and the probe loop re-reads `active` every draw, so the new range
    /// becomes visible within one iteration.
    ///
    /// # Panics
    ///
    /// Panics if `new_capacity` shrinks the partition, exceeds
    /// `max_capacity`, or `new_threshold > new_capacity`.
    pub fn grow_to(&self, new_capacity: usize, new_threshold: usize) {
        let current = self.capacity.load(Ordering::Relaxed);
        assert!(
            new_capacity >= current,
            "cannot shrink partition from {current} to {new_capacity}"
        );
        assert!(
            new_capacity <= self.max_capacity,
            "capacity {new_capacity} exceeds maximum {}",
            self.max_capacity
        );
        assert!(
            new_threshold <= new_capacity,
            "threshold {new_threshold} exceeds capacity {new_capacity}"
        );
        self.capacity.store(new_capacity, Ordering::Relaxed);
        self.active.store(
            pack_active(draw_shift_for(new_capacity), new_threshold),
            Ordering::Relaxed,
        );
    }

    /// The size class this partition serves.
    #[must_use]
    pub fn class(&self) -> SizeClass {
        self.class
    }

    /// Currently active slots in the region (grows toward
    /// [`max_capacity`](Self::max_capacity)).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// The capacity ceiling the slot map was sized for; fixed partitions
    /// sit at it from construction.
    #[must_use]
    pub fn max_capacity(&self) -> usize {
        self.max_capacity
    }

    /// Maximum simultaneously-occupied slots (`capacity / M`).
    #[must_use]
    pub fn threshold(&self) -> usize {
        (self.active.load(Ordering::Relaxed) & ACTIVE_THRESHOLD_MASK) as usize
    }

    /// Currently occupied slots — live plus magazine-reserved (the paper's
    /// `inUse[c]`, with reservations counting conservatively toward the cap).
    #[must_use]
    #[inline]
    pub fn in_use(&self) -> usize {
        (self.tickets.load(Ordering::Relaxed) & TICKET_IN_USE_MASK) as usize
    }

    /// Fraction of the region currently occupied.
    #[must_use]
    pub fn fullness(&self) -> f64 {
        self.in_use() as f64 / self.capacity() as f64
    }

    /// `true` when the region has hit its `1/M` cap.
    #[must_use]
    #[inline]
    pub fn at_threshold(&self) -> bool {
        self.in_use() >= self.threshold()
    }

    /// Draws one probe index for the range described by a loaded `active`
    /// word (the packed shift keeps the draw and the threshold mutually
    /// consistent without locking).
    #[inline]
    fn draw(&self, active: u64) -> usize {
        let shift = (active >> ACTIVE_SHIFT_BITS) as u32;
        if shift != 0 {
            (self.rng.next_u64() >> shift) as usize
        } else {
            self.rng.below(self.capacity.load(Ordering::Relaxed))
        }
    }

    /// Takes a ticket against the `1/M` cap; `false` means at-threshold and
    /// the ticket was returned. One `fetch_add` advances both the occupancy
    /// ticket and the telemetry alloc counter; denial backs both out.
    #[inline]
    fn take_ticket(&self) -> bool {
        let threshold = (self.active.load(Ordering::Relaxed) & ACTIVE_THRESHOLD_MASK) as usize;
        let prev = self.tickets.fetch_add(TICKET, Ordering::Relaxed);
        if (prev & TICKET_IN_USE_MASK) as usize >= threshold {
            self.tickets.fetch_sub(TICKET, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// The lock-free `DieHardMalloc` fast path: take a ticket, then probe
    /// random slots with `fetch_or` claims until one is won. `None` when the
    /// region is at its threshold ("At threshold: no more memory").
    #[inline]
    pub fn alloc(&self) -> Option<usize> {
        self.probe_claim(|index| self.map.claim_live(index))
    }

    /// The magazine refill's lock-free twin of [`alloc`](Self::alloc):
    /// claims the slot as *reserved* (`00 → 11`) instead of live. Probe and
    /// allocation accounting are identical, so refills keep the same
    /// E\[probes\] statistics as direct allocations.
    #[inline]
    pub fn reserve_one(&self) -> Option<usize> {
        self.probe_claim(|index| self.map.reserve(index))
    }

    #[inline]
    fn probe_claim(&self, claim: impl FnMut(usize) -> bool) -> Option<usize> {
        if !self.take_ticket() {
            return None;
        }
        // Re-read the packed active word every draw: a concurrent grow can
        // raise the threshold past the *old* capacity, and probing only the
        // stale range could then spin on a full region. The relaxed reload
        // of a rarely-written line is free next to the draw itself, and
        // single-threaded it always reads the same word — determinism is
        // untouched.
        let (index, probes) = probe(|| self.draw(self.active.load(Ordering::Relaxed)), claim);
        // One deferred add per allocation, not per probe.
        self.probes.fetch_add(probes, Ordering::Relaxed);
        Some(index)
    }

    /// The single-owner `DieHardMalloc`: [`alloc`](Self::alloc) with plain
    /// loads and stores instead of atomic read-modify-writes. `&mut self`
    /// rules out racing claimants and growers, so the ticket check, the
    /// draw parameters and the RNG state are read once and written back
    /// once. The draw stream, tickets and probe accounting match `alloc`
    /// exactly: the two may be mixed freely on one partition. `None` when
    /// the region is at its threshold.
    #[inline]
    pub fn alloc_mut(&mut self) -> Option<usize> {
        let active = *self.active.get_mut();
        let tickets = self.tickets.get_mut();
        if (*tickets & TICKET_IN_USE_MASK) as usize >= (active & ACTIVE_THRESHOLD_MASK) as usize {
            return None;
        }
        *tickets = tickets.wrapping_add(TICKET);
        let shift = (active >> ACTIVE_SHIFT_BITS) as u32;
        let capacity = *self.capacity.get_mut();
        let map = &mut self.map;
        let (index, probes) = self.rng.with_mut(|rng| {
            probe(
                || {
                    if shift != 0 {
                        (rng.next_u64() >> shift) as usize
                    } else {
                        rng.below(capacity)
                    }
                },
                |index| map.claim_live_mut(index),
            )
        });
        let total = self.probes.get_mut();
        *total = total.wrapping_add(probes);
        Some(index)
    }

    /// The single-owner `DieHardFree`: [`free`](Self::free) with plain
    /// loads and stores. Returns the state the slot was in, exactly as
    /// `free` does.
    ///
    /// # Panics
    ///
    /// Panics if `index >= max_capacity`.
    #[inline]
    pub fn free_mut(&mut self, index: usize) -> SlotState {
        let was = self.map.free_mut(index);
        if was == SlotState::Live {
            *self.tickets.get_mut() -= 1;
        }
        was
    }

    /// Reserves up to `out.len()` slots with **batched accounting**: one
    /// ticket `fetch_add` covers the whole request (clamped to the `1/M`
    /// cap, the overshoot returned in one `fetch_sub`) and the probe/alloc
    /// counters are updated once at the end — the magazine refill's bulk
    /// twin of [`reserve_one`](Self::reserve_one). Each slot is still an
    /// independent uniform draw from the shared stream through the same
    /// probe loop, so placement distribution, draw order, and probe/alloc
    /// totals are identical to `out.len()` sequential `reserve_one` calls;
    /// only the number of atomic read-modify-writes shrinks. Returns how
    /// many slots were reserved (0 at the cap); `out[..n]` holds them in
    /// draw order.
    pub fn reserve_batch(&self, out: &mut [usize]) -> usize {
        let want = out.len();
        if want == 0 {
            return 0;
        }
        let threshold = (self.active.load(Ordering::Relaxed) & ACTIVE_THRESHOLD_MASK) as usize;
        // One bulk ticket covers the batch's occupancy *and* its alloc
        // telemetry; returning the ungranted part of both in one RMW nets
        // `allocs += granted`, exactly as sequential tickets would.
        let bulk = ((want as u64) << TICKET_ALLOC_SHIFT) | want as u64;
        let prev = (self.tickets.fetch_add(bulk, Ordering::Relaxed) & TICKET_IN_USE_MASK) as usize;
        let granted = if prev >= threshold {
            0
        } else {
            want.min(threshold - prev)
        };
        if granted < want {
            let ungranted = (want - granted) as u64;
            self.tickets.fetch_sub(
                (ungranted << TICKET_ALLOC_SHIFT) | ungranted,
                Ordering::Relaxed,
            );
        }
        if granted == 0 {
            return 0;
        }
        let mut probes = 0u64;
        for slot in &mut out[..granted] {
            let (index, n) = probe(
                || self.draw(self.active.load(Ordering::Relaxed)),
                |index| self.map.reserve(index),
            );
            *slot = index;
            probes += n;
        }
        self.probes.fetch_add(probes, Ordering::Relaxed);
        granted
    }

    /// Frees a batch of slots with one ticket return — the magazine
    /// free-buffer flush's bulk twin of [`free`](Self::free). Every slot
    /// still resolves through its own validating CAS (live → freed; free or
    /// reserved → ignored, §4.3), but the `in_use` decrement happens once
    /// for the whole batch. Clear-then-decrement keeps the conservative
    /// transient overcount of the single-slot path. Returns
    /// `(freed, ignored)`.
    pub fn free_batch(&self, indices: &[usize]) -> (u64, u64) {
        let mut freed = 0u64;
        for &index in indices {
            if self.map.free(index) == SlotState::Live {
                freed += 1;
            }
        }
        if freed > 0 {
            // Low half only: frees return occupancy tickets, never alloc
            // telemetry.
            self.tickets.fetch_sub(freed, Ordering::Relaxed);
        }
        (freed, indices.len() as u64 - freed)
    }

    /// Hands a reserved slot to the application (`11 → 01`), lock-free. The
    /// ticket taken at reservation time simply becomes the live slot's.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity` (always), or if the slot was not
    /// reserved (debug builds).
    #[inline]
    pub fn commit(&self, index: usize) {
        self.map.commit(index);
    }

    /// Returns an unhanded reservation (`11 → 00`) and its ticket; `true`
    /// when this call released it.
    pub fn release_reservation(&self, index: usize) -> bool {
        if self.map.release_reservation(index) {
            self.tickets.fetch_sub(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// The lock-free `DieHardFree` fast path. Returns the state the slot was
    /// in: [`SlotState::Live`] means it was freed (and the ticket returned);
    /// `Free` and `Reserved` mean the request was ignored (§4.3 — a double,
    /// invalid, or premature free).
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity` — the enclosing heap validates range
    /// and alignment before calling in, so this indicates a heap bug.
    #[inline]
    pub fn free(&self, index: usize) -> SlotState {
        let was = self.map.free(index);
        if was == SlotState::Live {
            // Clear-then-decrement: between the two, `in_use` overcounts,
            // which only ever errs toward denying an allocation. A live slot
            // guarantees the low half is ≥ 1, so the subtraction cannot
            // borrow into the packed alloc counter.
            self.tickets.fetch_sub(1, Ordering::Relaxed);
        }
        was
    }

    /// Whether `index` is currently live (reserved slots are not).
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    #[must_use]
    #[inline]
    pub fn is_live(&self, index: usize) -> bool {
        self.map.is_live(index)
    }

    /// Whether `index` is occupied (live or reserved).
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    #[must_use]
    #[inline]
    pub fn is_occupied(&self, index: usize) -> bool {
        self.map.is_occupied(index)
    }

    /// Iterates the indices of occupied slots (live or reserved) — the
    /// placement set the separation statistics are computed over.
    pub fn occupied_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.map.iter_occupied()
    }

    /// Iterates the indices of live slots only.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.map.iter_live()
    }

    /// Number of magazine-reserved (occupied but not live) slots.
    #[must_use]
    pub fn reserved_count(&self) -> usize {
        self.map.reserved_count()
    }

    /// Mean number of free slots between consecutive occupied slots, used to
    /// check the paper's E[minimum separation] = M − 1 claim (§3.1).
    /// Reservations count as placements. Returns `None` with fewer than two
    /// occupied slots.
    #[must_use]
    pub fn mean_live_gap(&self) -> Option<f64> {
        let occupied: Vec<usize> = self.map.iter_occupied().collect();
        if occupied.len() < 2 {
            return None;
        }
        let gaps: usize = occupied.windows(2).map(|w| w[1] - w[0] - 1).sum();
        Some(gaps as f64 / (occupied.len() - 1) as f64)
    }

    /// Lifetime probe statistics: `(allocations, total probes)`. Reads are
    /// relaxed; exact at quiescence (each successful allocation's probes are
    /// added as one batch). The allocation count lives in the high half of
    /// the packed ticket word, so it is 32-bit telemetry (wraps mod 2³²) —
    /// the price of the one-RMW ticket fast path.
    #[must_use]
    pub fn probe_stats(&self) -> (u64, u64) {
        (
            self.tickets.load(Ordering::Relaxed) >> TICKET_ALLOC_SHIFT,
            self.probes.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Mwc;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn part_seeded(cap: usize, thresh: usize, seed: u64) -> AtomicPartition {
        AtomicPartition::new(SizeClass::from_index(0), cap, thresh, seed)
    }

    fn part(cap: usize, thresh: usize) -> AtomicPartition {
        part_seeded(cap, thresh, 0xDEED)
    }

    #[test]
    fn alloc_until_threshold() {
        let mut p = part_seeded(64, 32, 1);
        let mut seen = HashSet::new();
        for _ in 0..32 {
            let idx = p.alloc_mut().expect("below threshold");
            assert!(seen.insert(idx), "duplicate slot handed out");
            assert!(idx < 64);
        }
        assert!(p.at_threshold());
        assert_eq!(p.alloc_mut(), None, "at threshold: no more memory");
        assert_eq!(p.in_use(), 32);
    }

    #[test]
    fn free_returns_slot_for_reuse() {
        let mut p = part_seeded(16, 8, 2);
        let idx = p.alloc_mut().unwrap();
        assert!(p.is_live(idx));
        assert_eq!(p.free_mut(idx), SlotState::Live);
        assert!(!p.is_live(idx));
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn double_free_is_ignored() {
        let mut p = part_seeded(16, 8, 3);
        let idx = p.alloc_mut().unwrap();
        assert_eq!(p.free_mut(idx), SlotState::Live);
        assert_eq!(
            p.free_mut(idx),
            SlotState::Free,
            "second free must be ignored"
        );
        assert_eq!(p.in_use(), 0, "accounting unchanged by double free");
    }

    #[test]
    fn invalid_free_of_never_allocated_slot_ignored() {
        let mut p = part(16, 8);
        assert_eq!(p.free_mut(5), SlotState::Free);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn fullness_tracks_in_use() {
        let mut p = part_seeded(64, 32, 4);
        assert_eq!(p.fullness(), 0.0);
        for _ in 0..16 {
            p.alloc_mut();
        }
        assert!((p.fullness() - 0.25).abs() < f64::EPSILON);
    }

    #[test]
    fn expected_probes_near_formula() {
        // M = 2 ⇒ the heap is at most half full ⇒ E[probes] ≤ 2; measured
        // over a region driven to its threshold, the mean probe count from
        // an occupancy ramping 0 → 1/2 must be well under 2.
        let mut p = part_seeded(4096, 2048, 5);
        while p.alloc_mut().is_some() {}
        let (allocs, probes) = p.probe_stats();
        assert_eq!(allocs, 2048);
        let mean = probes as f64 / allocs as f64;
        assert!(
            mean > 1.0 && mean < 2.0,
            "mean probes {mean} outside (1, 2) for ramp to half full"
        );
    }

    #[test]
    fn probes_at_steady_state_half_full() {
        // Hold the region exactly at threshold−1 and measure steady-state
        // probing: should approach 1/(1 − 1/M) = 2 for M = 2.
        let mut p = part_seeded(4096, 2048, 6);
        let mut victim_rng = Mwc::seeded(60);
        for _ in 0..2047 {
            p.alloc_mut();
        }
        let (a0, p0) = p.probe_stats();
        let mut freed: Vec<usize> = Vec::new();
        for _ in 0..20_000 {
            let idx = p.alloc_mut().unwrap();
            freed.push(idx);
            let victim = freed.swap_remove(victim_rng.below(freed.len()));
            p.free_mut(victim);
        }
        let (a1, p1) = p.probe_stats();
        let mean = (p1 - p0) as f64 / (a1 - a0) as f64;
        assert!(
            (mean - 2.0).abs() < 0.15,
            "steady-state probes {mean}, expected ≈ 2"
        );
    }

    #[test]
    fn mean_gap_none_when_sparse() {
        let mut p = part_seeded(64, 32, 7);
        assert_eq!(p.mean_live_gap(), None);
        p.alloc_mut();
        assert_eq!(p.mean_live_gap(), None);
        p.alloc_mut();
        assert!(p.mean_live_gap().is_some());
    }

    #[test]
    fn grow_preserves_live_slots() {
        let mut p = AtomicPartition::new_elastic(SizeClass::from_index(0), 64, 32, 16, 8);
        let mut live = HashSet::new();
        for _ in 0..16 {
            live.insert(p.alloc_mut().unwrap());
        }
        assert!(p.at_threshold());
        p.grow_to(64, 32);
        assert!(!p.at_threshold());
        let after: HashSet<usize> = p.live_slots().collect();
        assert_eq!(after, live);
        // Freshly unlocked capacity is allocatable.
        assert!(p.alloc_mut().is_some());
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        part(32, 16).grow_to(16, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn new_rejects_threshold_above_capacity() {
        part(8, 9);
    }

    /// The single-owner path replays the shared one bit for bit over mixed
    /// alloc/free traffic: placements, tickets, probe statistics and the
    /// separation statistic all agree for the same seed. Three shapes: a
    /// power-of-two capacity (the shift draw), a non-power-of-two one (the
    /// widening-multiply `below` draw), and `threshold == capacity` (the
    /// Monte Carlo figures' uncapped regions, probed up to completely full).
    #[test]
    fn mut_path_replays_shared_path_serially() {
        for (cap, thresh) in [(4096, 2048), (3000, 1500), (1024, 1024)] {
            let mut owned = part_seeded(cap, thresh, 0xA70A1C);
            let shared = part_seeded(cap, thresh, 0xA70A1C);
            let mut victim_rng = Mwc::seeded(99);
            let mut live: Vec<usize> = Vec::new();
            let mut denied = 0;
            for step in 0..20_000 {
                if live.is_empty() || victim_rng.chance(0.6) {
                    let a = owned.alloc_mut();
                    let b = shared.alloc();
                    assert_eq!(a, b, "capacity {cap}: placement diverged at step {step}");
                    match a {
                        Some(idx) => live.push(idx),
                        None => denied += 1,
                    }
                } else {
                    let victim = live.swap_remove(victim_rng.below(live.len()));
                    assert_eq!(owned.free_mut(victim), SlotState::Live);
                    assert_eq!(shared.free(victim), SlotState::Live);
                    assert_eq!(owned.free_mut(victim), shared.free(victim), "double free");
                }
                assert_eq!(
                    owned.in_use(),
                    shared.in_use(),
                    "capacity {cap}, step {step}"
                );
            }
            assert!(denied > 0, "capacity {cap}: the run must reach the cap");
            assert_eq!(owned.probe_stats(), shared.probe_stats(), "capacity {cap}");
            let a: Vec<usize> = owned.occupied_slots().collect();
            let b: Vec<usize> = shared.occupied_slots().collect();
            assert_eq!(a, b, "capacity {cap}");
            assert_eq!(owned.mean_live_gap(), shared.mean_live_gap());
        }
    }

    #[test]
    fn atomic_free_validation() {
        let p = part_seeded(64, 32, 5);
        let idx = p.alloc().expect("below threshold");
        assert!(p.is_live(idx));
        assert_eq!(p.free(idx), SlotState::Live);
        assert!(!p.is_live(idx));
        assert_eq!(p.free(idx), SlotState::Free, "double free ignored");
        assert_eq!(p.in_use(), 0, "accounting unchanged by double free");
        let never = (idx + 1) % 64;
        assert_eq!(p.free(never), SlotState::Free, "invalid free ignored");
    }

    #[test]
    fn atomic_reserve_commit_release_lifecycle() {
        let p = part_seeded(64, 32, 6);
        let r = p.reserve_one().expect("below threshold");
        assert!(!p.is_live(r), "reserved is not live");
        assert!(p.is_occupied(r));
        assert_eq!(p.in_use(), 1, "reservations count toward 1/M");
        assert_eq!(p.free(r), SlotState::Reserved, "free of reserved ignored");
        p.commit(r);
        assert!(p.is_live(r));
        assert_eq!(p.free(r), SlotState::Live);
        assert_eq!(p.in_use(), 0);
        // Release path: reservation returned without ever going live.
        let r2 = p.reserve_one().unwrap();
        assert!(p.release_reservation(r2));
        assert!(!p.release_reservation(r2));
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.occupied_slots().count(), 0);
    }

    #[test]
    fn reserve_batch_matches_sequential_reserve_one() {
        // Same seed, two partitions: one batched request must produce the
        // same slots in the same draw order, with identical ticket and
        // probe/alloc accounting, as sequential single reservations.
        let one = part_seeded(128, 64, 0xBA7C);
        let batch = part_seeded(128, 64, 0xBA7C);
        let singles: Vec<usize> = (0..8).map(|_| one.reserve_one().unwrap()).collect();
        let mut out = [usize::MAX; 8];
        assert_eq!(batch.reserve_batch(&mut out), 8);
        assert_eq!(out.to_vec(), singles);
        assert_eq!(batch.in_use(), one.in_use());
        assert_eq!(batch.probe_stats(), one.probe_stats());
    }

    #[test]
    fn reserve_batch_clamps_to_threshold_and_frees_batch_reconcile() {
        let p = part_seeded(64, 5, 0x0B47);
        let mut out = [usize::MAX; 8];
        assert_eq!(p.reserve_batch(&mut out), 5, "clamped at the 1/M cap");
        assert_eq!(p.in_use(), 5, "overshoot tickets returned");
        assert_eq!(p.reserve_batch(&mut out), 0, "at threshold");
        assert_eq!(p.in_use(), 5);
        for &i in &out[..5] {
            p.commit(i);
        }
        // Batch free: 5 live slots, one double (ignored), one never
        // allocated (ignored).
        let never = (0..64).find(|i| !p.is_occupied(*i)).unwrap();
        let mut to_free: Vec<usize> = out[..5].to_vec();
        to_free.push(out[0]);
        to_free.push(never);
        assert_eq!(p.free_batch(&to_free), (5, 2));
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.occupied_slots().count(), 0);
    }

    #[test]
    fn atomic_threshold_ticket_is_exact_under_contention() {
        // 4 threads hammer a small region far past its cap; the ticket
        // protocol must never admit more than `threshold` occupants and must
        // reconcile exactly after a full drain. Mid-race, `in_use()` also
        // counts tickets a denied thread is about to back out, and a scan of
        // the map is not a snapshot, so the cap is checked where it can be
        // observed exactly: at barrier-quiescent checkpoints.
        use std::sync::{Arc, Barrier};
        const THREADS: usize = 4;
        const OPS: usize = 5_000;
        const CHECK_EVERY: usize = 100;
        let p = Arc::new(part_seeded(256, 128, 0xCA5));
        let barrier = Arc::new(Barrier::new(THREADS));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let p = Arc::clone(&p);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut rng = Mwc::seeded(t as u64 + 1);
                    let mut mine: Vec<usize> = Vec::new();
                    for op in 1..=OPS {
                        if mine.is_empty() || rng.chance(0.55) {
                            if let Some(idx) = p.alloc() {
                                mine.push(idx);
                            }
                        } else {
                            let victim = mine.swap_remove(rng.below(mine.len()));
                            assert_eq!(p.free(victim), SlotState::Live);
                        }
                        if op % CHECK_EVERY == 0 {
                            // Every thread is parked between the two waits,
                            // so the leader sees a quiescent partition.
                            if barrier.wait().is_leader() {
                                let occupied = p.occupied_slots().count();
                                assert!(occupied <= p.threshold(), "cap breached: {occupied}");
                                assert_eq!(p.in_use(), occupied, "ticket != occupancy");
                            }
                            barrier.wait();
                        }
                    }
                    for idx in mine {
                        assert_eq!(p.free(idx), SlotState::Live);
                    }
                });
            }
        });
        assert_eq!(p.in_use(), 0, "tickets reconcile after drain");
        assert_eq!(p.occupied_slots().count(), 0);
        let (allocs, probes) = p.probe_stats();
        assert!(probes >= allocs, "each allocation costs at least one probe");
    }

    #[test]
    fn elastic_partition_grows_in_place() {
        let p = AtomicPartition::new_elastic(SizeClass::from_index(0), 64, 8, 4, 0xE1A);
        assert_eq!(p.capacity(), 8);
        assert_eq!(p.max_capacity(), 64);
        assert_eq!(p.threshold(), 4);
        let mut held = Vec::new();
        for _ in 0..4 {
            let idx = p.alloc().expect("below threshold");
            assert!(idx < 8, "draws confined to the active range");
            held.push(idx);
        }
        assert_eq!(p.alloc(), None, "at the initial 1/M cap");
        p.grow_to(16, 8);
        assert_eq!(p.capacity(), 16);
        assert_eq!(p.threshold(), 8);
        for &idx in &held {
            assert!(p.is_live(idx), "growth never moves a live slot");
        }
        for _ in 0..4 {
            let idx = p.alloc().expect("grown capacity is allocatable");
            assert!(idx < 16);
            held.push(idx);
        }
        assert_eq!(p.alloc(), None, "at the grown 1/M cap");
        let (allocs, probes) = p.probe_stats();
        assert_eq!(allocs, 8, "denied tickets leave no alloc telemetry");
        assert!(probes >= allocs);
        for idx in held {
            assert_eq!(p.free(idx), SlotState::Live);
        }
        assert_eq!(p.in_use(), 0, "tickets reconcile across growth");
    }

    #[test]
    fn elastic_partition_matches_fixed_twin_at_full_size() {
        // An elastic partition grown to max before any traffic draws the
        // exact sequence of a fixed partition: growth itself consumes no
        // RNG state.
        let fixed = part_seeded(256, 128, 0x90F7);
        let elastic = AtomicPartition::new_elastic(SizeClass::from_index(0), 256, 4, 2, 0x90F7);
        elastic.grow_to(256, 128);
        for _ in 0..128 {
            assert_eq!(fixed.alloc(), elastic.alloc());
        }
        assert_eq!(fixed.probe_stats(), elastic.probe_stats());
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn atomic_grow_rejects_shrinking() {
        let p = AtomicPartition::new_elastic(SizeClass::from_index(0), 64, 32, 16, 1);
        p.grow_to(16, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds maximum")]
    fn atomic_grow_rejects_overflowing_the_map() {
        let p = AtomicPartition::new_elastic(SizeClass::from_index(0), 64, 32, 16, 1);
        p.grow_to(128, 64);
    }

    proptest! {
        /// No two live allocations ever share a slot, and accounting matches
        /// the slot map exactly under arbitrary interleavings.
        #[test]
        fn no_overlap_and_consistent_accounting(
            seed in any::<u64>(),
            ops in proptest::collection::vec(any::<bool>(), 1..400),
        ) {
            let mut p = part_seeded(256, 128, seed);
            let mut rng = Mwc::seeded(seed);
            let mut model: Vec<usize> = Vec::new();
            for op in ops {
                if op || model.is_empty() {
                    if let Some(idx) = p.alloc_mut() {
                        prop_assert!(!model.contains(&idx), "slot {} double-booked", idx);
                        model.push(idx);
                    } else {
                        prop_assert!(p.at_threshold());
                    }
                } else {
                    let victim = model.swap_remove(rng.below(model.len()));
                    prop_assert_eq!(p.free_mut(victim), SlotState::Live);
                }
                prop_assert_eq!(p.in_use(), model.len());
                let map_live: HashSet<usize> = p.live_slots().collect();
                let model_live: HashSet<usize> = model.iter().copied().collect();
                prop_assert_eq!(map_live, model_live);
            }
        }

        /// Freeing everything returns the partition to pristine state.
        #[test]
        fn drain_restores_empty(seed in any::<u64>(), n in 1usize..100) {
            let mut p = part_seeded(256, 128, seed);
            let mut live = Vec::new();
            for _ in 0..n {
                if let Some(idx) = p.alloc_mut() {
                    live.push(idx);
                }
            }
            for idx in live {
                prop_assert_eq!(p.free_mut(idx), SlotState::Live);
            }
            prop_assert_eq!(p.in_use(), 0);
            prop_assert_eq!(p.live_slots().count(), 0);
        }
    }
}
