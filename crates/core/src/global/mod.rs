//! The real DieHard allocator: an `mmap`-backed heap usable as Rust's
//! `#[global_allocator]`.
//!
//! This is the production analogue of the paper's `LD_PRELOAD` interposition
//! (§5.1): where the C implementation replaces `malloc`/`free` at link time,
//! a Rust program opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: diehard_core::global::DieHard = diehard_core::global::DieHard::new();
//! ```
//!
//! Everything the paper prescribes is here: twelve randomized power-of-two
//! regions capped at `1/M` fullness, metadata fully segregated in its own
//! mapping, large objects served by dedicated `mmap`s with `PROT_NONE`
//! guard pages on both ends, validated (and silently ignored) erroneous
//! frees, and seeding from `/dev/urandom`.
//!
//! The per-operation paths are **lock-free**: after a one-time
//! initialization, the header (heap base, page size, configuration) is read
//! without synchronization, and small-object `alloc`/`free` run entirely on
//! atomics — a probe/CAS loop over the class's paired slot-state map, with
//! a ticket counter enforcing the `1/M` cap; magazine refills and free
//! flushes are lock-free batches of the same atomics. Each size class keeps
//! one *maintenance* `SpinLock` for growth, reservation teardown and `fork`;
//! the large-object validity table has a separate lock of its own.
//!
//! Growth is a [`HeapConfig::grow`] field. With `None` (the paper's fixed
//! heap) regions are born at full capacity and a class at its `1/M` cap
//! returns null. With `Some(k)` (§9's adaptive growth, concurrent) each
//! class's *active* capacity starts at `1/2^k` of its configured maximum
//! and doubles under `1/M`-cap pressure; offsets never move — the full
//! virtual span is reserved up front and only the probing range widens —
//! and a class denied at its *maximum* capacity spills the request to a
//! dedicated guard-paged mapping instead of returning null.
//!
//! [`DieHard::new`] reads its configuration from the environment once, at
//! first allocation ([`crate::env`] has the parsing contract);
//! [`DieHard::with_config`] ignores the environment entirely:
//!
//! * `DIEHARD_SEED` — decimal RNG seed (default: true randomness).
//! * `DIEHARD_REGION_MB` — per-class region megabytes (default 32, i.e. the
//!   paper's 384 MB heap).
//! * `DIEHARD_M` — integer expansion factor `M` (default 2).
//! * `DIEHARD_GROW` — the elastic start exponent `k` (default 4, i.e. 1/16).
//!   An environment-configured heap is always elastic: `malloc` returning
//!   null for a class-cap reason (rather than true OOM) would fail host
//!   programs the paper promises to keep running.
//!
//! ## Unsafe-surface audit (2026-08, stable toolchain, lock-free fast path)
//!
//! This module and its private `sys` and `tls` submodules are the crate's
//! `unsafe` *syscall and TLS* surface, which is why the subtree sits behind
//! the off-by-default `global` cargo feature; the allocation-free
//! synchronization primitives it builds on live ungated in [`crate::sync`],
//! and the lock-free slot-state machine itself lives ungated in
//! [`crate::bitmap`] / [`crate::partition`] / [`crate::magazine`]. Findings, kept current as
//! the module changes:
//!
//! * **No `static mut` anywhere.** Allocator state is a once-initialized
//!   [`OnceCell`]`<GlobalState>`: one `Acquire` load proves the header
//!   (config, `heap_base`, page size) fully initialized, after which it is
//!   immutable and read without any lock. All *mutable* state is interior-
//!   mutable behind locks — the pattern stable Rust recommends over
//!   `static mut` (which trips `static_mut_refs` on current toolchains).
//! * **Atomics replace the old per-shard exclusivity argument.** Every
//!   slot's lifecycle lives in one 2-bit cell of its class's
//!   [`SlotStateMap`](crate::bitmap::SlotStateMap), and every transition is
//!   a single CAS or read-modify-write on that cell: claiming a free slot,
//!   committing a reservation, and freeing are all linearizable at one
//!   atomic instruction, so two threads can never both own a slot and a
//!   free can never clear a slot it does not own (the paired encoding makes
//!   the CAS fail instead). The `1/M` cap is a ticket `fetch_add` that backs
//!   out on overshoot, and the per-class RNG packs its whole state in one
//!   `AtomicU64` CAS ([`AtomicMwc`](crate::rng::AtomicMwc)) — no torn draws.
//!   The surviving locks are slow-path only: one maintenance `SpinLock` per
//!   class, taken to double an elastic class (two stores that must not
//!   race another grower), to return a cache's reservations, and by
//!   `fork_prepare`, so a child never inherits a half-done growth; plus the
//!   large-object table lock and the TLS registry lock. Per-op traffic,
//!   refills and flushes take none. No operation ever takes two locks at
//!   once, except `fork_prepare` in its fixed order; a free resolves its
//!   address with pure arithmetic *before* touching any shared state.
//!   Heap-wide statistics are relaxed atomics, folded from per-thread
//!   counts at refills and flushes, and take no lock at all.
//! * **Raw-pointer state.** `GlobalState` owns raw `mmap` regions; its
//!   `unsafe impl Send + Sync` is sound because `heap_base`/`page` are
//!   written once before the `OnceCell` publishes (Release/Acquire) and
//!   only ever *read* afterwards, while everything reachable for mutation
//!   is behind the shard and large-table locks described above.
//! * **Every `unsafe` block carries a `SAFETY:` comment** naming its
//!   invariant; `cargo clippy --all-targets --features global` is
//!   warning-clean with no `#[allow]` escapes in this subtree.
//! * **Lazily-initialized, never self-allocating.** Exactly one thread runs
//!   initialization (losers of the `OnceCell` race spin without parking —
//!   parking may allocate and re-enter the allocator being initialized);
//!   metadata (the slot-state maps and the large-object validity table)
//!   lives in a dedicated mapping, so initialization cannot recurse.
//!   A failed initialization (OOM, invalid config) is terminal: later calls
//!   return null instead of retrying `mmap` storms.
//! * **Thread-local magazines never allocate and never dangle.** The
//!   per-thread block is `const`-initialized ELF TLS (no lazy-init state,
//!   no `std` destructor registration — which would `calloc` inside glibc
//!   and re-enter the allocator); the thread-exit flush is a single
//!   `pthread` key whose destructor runs while ELF TLS is still mapped.
//!   TLS blocks cache only a heap *id*; every flush that is not protected
//!   by a live `&GlobalState` resolves the id through a registry whose
//!   lock is held across the flush and across `Drop`'s unregistration, so
//!   a dropped heap is either flushed-before-freed or discarded — never
//!   dereferenced (full protocol in the `tls` submodule's docs). Corollary: a
//!   `DieHard` value must not be moved after its first allocation (the
//!   registry pins its interior address); statics never move, and test
//!   instances move only while uninitialized.
//! * **Per-op traffic never spins.** An uncached `alloc` or `free` — and a
//!   magazine handout, refill or flush — completes without acquiring any
//!   lock (an elastic refill at the cap locks only to grow): a thread
//!   preempted mid-operation cannot wedge another thread's allocation, which
//!   the old shard-`SpinLock` design could not promise. The reserved/live
//!   state machine (free → reserved → live → free, one paired-bit cell per
//!   slot) is documented and tested in [`crate::bitmap`] and
//!   [`crate::magazine`].
//! * **`madvise(MADV_HUGEPAGE)` is advice, not a new obligation.** The one
//!   new syscall this revision adds (`sys::advise_hugepages`, issued on
//!   the small-object span at init and on each large-object mapping) is
//!   non-destructive by specification: it can neither unmap, move, nor
//!   zero the range, so its failure mode is "nothing happens" and the
//!   result is ignored. It runs before the state is published (init) or
//!   before the pointer escapes (large path) — never on memory another
//!   thread can observe mid-change.
//! * **Elastic growth adds no new unsafety.** Growing a class rewrites two
//!   atomics (`capacity`, the packed shift/threshold word) under the class
//!   maintenance lock; the slot-state maps and the heap span are sized for
//!   the *maximum* capacity from initialization, so no metadata or object
//!   memory is ever remapped, and every pointer handed out before a growth
//!   remains valid (same offset arithmetic) after it. The spill path is
//!   the pre-existing large-object allocator, reached with the same
//!   arguments an oversized request would use.

mod sys;
mod tls;

pub use crate::sync::{OnceCell, SpinGuard, SpinLock};

use crate::config::HeapConfig;
use crate::engine::{AllocOutcome, HeapStats};
use crate::large::LargeTable;
use crate::rng::entropy_seed;
use crate::safe_str;
use crate::sharded::ShardedHeap;
use core::alloc::{GlobalAlloc, Layout};
use core::ptr;
use core::sync::atomic::{AtomicU8, Ordering};

/// Capacity of the large-object validity table (live large objects).
const LARGE_CAPACITY: usize = 4096;

/// Magazine engagement states for [`GlobalState::mag_state`].
const MAG_UNDECIDED: u8 = 0;
const MAG_ON: u8 = 1;
const MAG_OFF: u8 = 2;

/// The state behind an initialized allocator: the lock-free header fields,
/// the small-object heap and the locked large-object table.
struct GlobalState {
    /// Twelve lock-free partition shards + atomic stats; threads reach it
    /// through their magazines.
    heap: ShardedHeap,
    /// Base address of the small-object span. Written once at init, then
    /// read-only.
    heap_base: *mut u8,
    /// System page size. Written once at init, then read-only.
    page: usize,
    /// Unique id for the thread-local magazine registry (see [`tls`]).
    id: u64,
    /// Whether per-thread magazines are engaged: undecided until the first
    /// operation (registration must run *after* the state reaches its final
    /// address inside the `OnceCell`), then on, or off when the registry is
    /// full (the heap runs uncached — correct, just unbatched).
    mag_state: AtomicU8,
    /// The large-object validity table (§4.1/§4.3): user pointer → user
    /// length. Each mapping is exactly `[user - page, user + len + page)`,
    /// one guard page on either end, so the length alone recovers it.
    large: SpinLock<LargeTable>,
}

// SAFETY: `heap_base` and `page` are written once before the enclosing
// OnceCell publishes this value (Release/Acquire) and are only read
// afterwards; `heap` is Sync by construction (per-shard SpinLocks + atomic
// stats) and the large tables are guarded by their SpinLock. The mappings
// referenced by the raw pointers are owned by this state for its lifetime.
unsafe impl Send for GlobalState {}
unsafe impl Sync for GlobalState {}

impl GlobalState {
    /// `ptr`'s offset into the small-object span, or `None` outside it.
    fn small_offset(&self, ptr: *mut u8) -> Option<usize> {
        let off = (ptr as usize).wrapping_sub(self.heap_base as usize);
        (off < self.heap.heap_span()).then_some(off)
    }
}

impl core::fmt::Debug for GlobalState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GlobalState")
            .field("heap_base", &self.heap_base)
            .field("live_objects", &self.heap.live_objects())
            .field("large_objects", &self.large.lock().len())
            .finish()
    }
}

/// The DieHard global allocator.
///
/// Construct it `const` in a static; the heap initializes lazily on first
/// allocation (never allocating through itself — all metadata lives in a
/// dedicated `mmap` arena).
#[derive(Debug)]
pub struct DieHard {
    state: OnceCell<GlobalState>,
    /// Configuration and seed from [`with_config`](Self::with_config);
    /// `None` reads both from the environment at initialization.
    fixed: Option<(HeapConfig, u64)>,
    /// Address of the `GlobalState` whose locks
    /// [`fork_prepare`](Self::fork_prepare) acquired (0 = registry only):
    /// [`fork_resume`](Self::fork_resume) must release exactly that set,
    /// even if another thread initialized the heap between the two calls.
    fork_locked: core::sync::atomic::AtomicUsize,
}

impl DieHard {
    /// Creates an uninitialized allocator configured from the `DIEHARD_*`
    /// environment knobs at its first allocation (see the module docs);
    /// usable in `static` items. The resulting heap is elastic.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            state: OnceCell::new(),
            fixed: None,
            fork_locked: core::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// As [`new`](Self::new) but with an explicit heap configuration and
    /// RNG seed, bypassing the environment entirely — deterministic
    /// layouts, fixed or elastic per [`HeapConfig::grow`].
    ///
    /// This is the constructor tests should use: configuring instances
    /// directly keeps parallel tests isolated, where mutating process-global
    /// environment variables from concurrently-running test threads races.
    /// (An invalid configuration surfaces as a failed initialization: every
    /// allocation returns null.)
    #[must_use]
    pub const fn with_config(config: HeapConfig, seed: u64) -> Self {
        Self {
            state: OnceCell::new(),
            fixed: Some((config, seed)),
            fork_locked: core::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// C-style allocation entry point: allocate `size` bytes aligned to 8
    /// bytes, matching the paper's smallest (8-byte) size class. Rust
    /// callers needing stricter alignment go through [`GlobalAlloc::alloc`]
    /// with an explicit `Layout`. Returns null when the size is zero or too
    /// large to describe as a `Layout`, the size class is at its `1/M` cap,
    /// or the system is out of memory.
    #[must_use]
    pub fn malloc(&self, size: usize) -> *mut u8 {
        if size == 0 {
            return ptr::null_mut();
        }
        // An unrepresentable layout (size overflowing isize when rounded to
        // the alignment) is an allocation failure, reported as null — never
        // silently downgraded to a smaller allocation.
        let Ok(layout) = Layout::from_size_align(size, 8) else {
            return ptr::null_mut();
        };
        // SAFETY: size is non-zero and the layout is valid.
        unsafe { self.alloc(layout) }
    }

    /// C-style free: validates `ptr` exactly like `DieHardFree` (§4.3) and
    /// *ignores* invalid, double, and foreign frees.
    #[inline]
    pub fn free(&self, ptr: *mut u8) {
        tls::BLOCK.with(|block| ThreadHeap { heap: self, block }.free(ptr));
    }

    /// The entry for an interposer that can be re-entered (`libdiehard.so`):
    /// runs `f` with this thread's in-allocator flag raised, or with `None`
    /// when it was already up (a re-entrant call, to be served elsewhere).
    /// Flag and magazines share one TLS block: one lookup per call in all.
    #[inline]
    pub fn guarded<R>(&self, f: impl FnOnce(Option<ThreadHeap<'_>>) -> R) -> R {
        tls::guarded(|block| f(block.map(|block| ThreadHeap { heap: self, block })))
    }

    /// DieHard's bounded `strcpy` (§4.4): when `dest` lies in a DieHard
    /// object, the copy is clamped to the object's true remaining space
    /// ([`remaining_space`](Self::remaining_space)) and always
    /// NUL-terminated within it; otherwise exact C `strcpy` semantics
    /// apply.
    ///
    /// Small-object bounds are pure header arithmetic — no lock is taken,
    /// keeping the paper's two-comparisons-cheap contract even under
    /// concurrency; large objects cost one validity-table probe.
    ///
    /// Returns the number of payload bytes copied.
    ///
    /// # Safety
    ///
    /// `src` must point to a NUL-terminated string; for destinations
    /// outside the heap, `dest` must have room for the whole string, exactly
    /// as C requires.
    pub unsafe fn strcpy(&self, dest: *mut u8, src: *const u8) -> usize {
        // SAFETY: src is NUL-terminated per contract.
        let len = unsafe { c_strlen(src) };
        // SAFETY: the source slice covers exactly the scanned bytes.
        let src_slice = unsafe { core::slice::from_raw_parts(src, len) };
        match self.remaining_space(dest) {
            Some(space) => {
                // SAFETY: the DieHard object has `space` writable bytes at
                // dest.
                let dest_slice = unsafe { core::slice::from_raw_parts_mut(dest, space) };
                safe_str::bounded_strcpy(dest_slice, space, src_slice).copied
            }
            None => {
                // SAFETY: C contract — dest holds len + 1 bytes.
                unsafe {
                    ptr::copy_nonoverlapping(src, dest, len);
                    *dest.add(len) = 0;
                }
                len
            }
        }
    }

    /// DieHard's bounded `strncpy` (§4.4): the caller's `n` is additionally
    /// clamped by the destination object's true remaining space, and (the
    /// paper's deliberate deviation) the result is always NUL-terminated
    /// *within the object*; zero-padding stops at the object bound too.
    /// Destinations outside the heap get exact C semantics — copy
    /// `min(strlen, n)` bytes and zero-pad to `n`, with no terminator
    /// beyond that.
    ///
    /// Returns the number of payload bytes copied.
    ///
    /// # Safety
    ///
    /// `src` must be readable up to `n` bytes or its NUL terminator,
    /// whichever comes first; for destinations outside the heap, `dest`
    /// must hold `n` bytes, exactly as C requires.
    pub unsafe fn strncpy(&self, dest: *mut u8, src: *const u8, n: usize) -> usize {
        // SAFETY: src is readable to n or NUL per contract.
        let len = unsafe { c_strlen_bounded(src, n) };
        // SAFETY: the source slice covers exactly the scanned bytes.
        let src_slice = unsafe { core::slice::from_raw_parts(src, len) };
        match self.remaining_space(dest) {
            Some(space) => {
                // SAFETY: the DieHard object has `space` writable bytes at
                // dest.
                let dest_slice = unsafe { core::slice::from_raw_parts_mut(dest, space) };
                let copied = safe_str::bounded_strncpy(dest_slice, space, src_slice, n).copied;
                // C zero-pads through byte n - 1; clamp that to the object.
                // (Byte `copied` already holds the bounded terminator.)
                let pad_end = n.min(space);
                dest_slice[copied..pad_end].fill(0);
                copied
            }
            None => {
                // SAFETY: C contract — dest holds n bytes, and len <= n.
                unsafe {
                    ptr::copy_nonoverlapping(src, dest, len);
                    ptr::write_bytes(dest.add(len), 0, n - len);
                }
                len
            }
        }
    }

    /// Live small objects currently tracked (diagnostics; lock-free reads).
    /// Flushes the calling thread's magazine first so the count reflects
    /// this thread's buffered frees; slots reserved inside other threads'
    /// magazines are excluded (they are not live).
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.flush_thread_cache();
        self.state.get().map_or(0, |s| s.heap.live_objects())
    }

    /// Heap statistics since initialization. Flushes the calling thread's
    /// magazine first, so in quiescence (all other threads exited or
    /// flushed) the counters are exact.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.flush_thread_cache();
        self.state
            .get()
            .map_or_else(Default::default, |s| s.heap.stats())
    }

    /// Slots currently reserved inside thread-local magazines (diagnostics;
    /// zero once every thread has exited or flushed). Flushes the calling
    /// thread's magazine first — flushing returns its reservations too.
    #[must_use]
    pub fn reserved_slots(&self) -> usize {
        self.flush_thread_cache();
        self.state.get().map_or(0, |s| s.heap.reserved_slots())
    }

    /// Flushes the calling thread's magazine into this heap, releasing its
    /// buffered frees and returning its unhanded reservations. A no-op when
    /// the thread's magazines are bound to a different heap (or to none).
    /// Other threads flush at their own exits; call this from each thread
    /// that should settle its accounting early.
    pub fn flush_thread_cache(&self) {
        if let Some(state) = self.state.get() {
            if state.mag_state.load(Ordering::Acquire) == MAG_ON {
                tls::flush_if_bound(state);
            }
        }
    }

    /// C `malloc_usable_size`: the full capacity of the live object whose
    /// *start* is `ptr` — the rounded class size for small objects, the
    /// page-rounded user range for large ones. Returns 0 for null, interior,
    /// foreign, and dead pointers (glibc returns 0 only for null and leaves
    /// the rest undefined; answering 0 instead of corrupting is this
    /// allocator's whole premise). A small object whose free is still
    /// buffered in a thread magazine reports its size until the batch
    /// flushes — the slot is genuinely not reusable before then.
    #[must_use]
    pub fn usable_size(&self, ptr: *mut u8) -> usize {
        let Some(state) = self.state.get().filter(|_| !ptr.is_null()) else {
            return 0;
        };
        match state.small_offset(ptr) {
            Some(off) => match state.heap.slot_containing(off) {
                Some(slot) if state.heap.offset_of(slot) == off && state.heap.is_live_at(off) => {
                    slot.size()
                }
                _ => 0,
            },
            None => state.large.lock().get(ptr as usize).unwrap_or(0),
        }
    }

    /// Bytes from `ptr` to the end of the object containing it — the §4.4
    /// clamp bound, valid for *interior* pointers too (unlike
    /// [`usable_size`](Self::usable_size)). `None` when `ptr` is not inside
    /// a DieHard object; small-object answers are pure arithmetic (no
    /// liveness check, matching the paper's bound), large ones resolve
    /// exact-start pointers through the validity table (interior large
    /// pointers are not resolvable — the mapping's own guard pages bound
    /// those).
    #[must_use]
    pub fn remaining_space(&self, ptr: *mut u8) -> Option<usize> {
        let state = self.state.get().filter(|_| !ptr.is_null())?;
        match state.small_offset(ptr) {
            Some(off) => safe_str::space_in_object(state.heap.geometry(), off),
            None => state.large.lock().get(ptr as usize),
        }
    }

    /// `fork(2)` prepare: acquires, in a fixed global order, every lock a
    /// forked child could otherwise inherit mid-critical-section — the TLS
    /// registry, all twelve per-class maintenance locks, then the
    /// large-object table lock. With these held across the `fork`, the
    /// child's single thread sees batch-consistent shard metadata and
    /// settled tables. In-flight *lock-free* operations in other threads
    /// (a reservation ticket between `fetch_add` and commit) can strand a
    /// bounded number of slots in the child — an availability leak, never
    /// corruption: the slot-state CAS encoding stays self-consistent under
    /// any interleaving of the parent's atomics.
    ///
    /// Pair with [`fork_resume`](Self::fork_resume) in both the parent and
    /// the child (the `pthread_atfork` parent/child hooks).
    pub fn fork_prepare(&self) {
        tls::registry_lock();
        // Record exactly which state (if any) gets locked: a racing first
        // allocation can initialize the heap between prepare and resume,
        // and resume must not "release" locks that were never taken.
        let locked = match self.state.get() {
            Some(state) => {
                state.heap.lock_all_maintenance();
                state.large.raw_lock();
                core::ptr::from_ref(state) as usize
            }
            None => 0,
        };
        self.fork_locked.store(locked, Ordering::Release);
    }

    /// Releases the locks taken by [`fork_prepare`](Self::fork_prepare), in
    /// reverse order.
    ///
    /// # Safety
    ///
    /// Must be called exactly once in each process that inherited the locks
    /// (parent and child), after a `fork_prepare` on the same allocator.
    /// The lock set released is the one `fork_prepare` recorded, so a heap
    /// that initialized concurrently between the two calls is handled
    /// correctly (its locks were never taken and are left alone).
    pub unsafe fn fork_resume(&self) {
        let locked = self.fork_locked.load(Ordering::Acquire);
        if locked != 0 {
            // SAFETY: `locked` is the address of the pinned GlobalState
            // whose locks the paired fork_prepare acquired (this thread, or
            // the forking thread this child process inherited from); the
            // state outlives the allocator and never moves.
            let state = unsafe { &*(locked as *const GlobalState) };
            // SAFETY: held by the paired fork_prepare.
            unsafe {
                state.large.raw_unlock();
                state.heap.unlock_all_maintenance();
            }
        }
        // SAFETY: registry_lock was unconditional in prepare.
        unsafe { tls::registry_unlock() };
    }

    // ---- internals -------------------------------------------------------

    /// The initialized state, running the one-time initialization on first
    /// call. `None` means initialization failed (terminally).
    #[inline]
    fn state(&self) -> Option<&GlobalState> {
        self.state.get_or_try_init(|| self.build_state())
    }

    /// The one-time initialization: choose a configuration and seed, map the
    /// metadata arena and the heap span, and assemble the sharded heap plus
    /// the large-object table. Runs on exactly one thread.
    #[cold]
    fn build_state(&self) -> Option<GlobalState> {
        let (config, seed) = match &self.fixed {
            Some((config, seed)) => (config.clone(), *seed),
            None => (
                HeapConfig::paper_default()
                    .with_region_bytes((crate::env::region_mb() as usize) << 20)
                    .with_multiplier(crate::env::multiplier() as f64)
                    .with_grow(crate::env::grow()),
                crate::env::seed().unwrap_or_else(entropy_seed),
            ),
        };
        config.validate().ok()?;

        let page = sys::page_size();
        let span = config.heap_span();
        let words = ShardedHeap::bitmap_words_needed(&config);
        let table_cap = (LARGE_CAPACITY * 2).next_power_of_two();
        let meta_bytes = (words * 8 + 2 * table_cap * 8 + page - 1) & !(page - 1);
        let meta = sys::map_reserve(meta_bytes);
        if meta.is_null() {
            return None;
        }
        let heap_base = sys::map_reserve(span);
        if heap_base.is_null() {
            // SAFETY: meta was just mapped with this length.
            unsafe { sys::unmap(meta, meta_bytes) };
            return None;
        }

        // The span is reserved at full (maximum) size either way — elastic
        // growth only widens the probing range, so huge-page advice on the
        // whole arena is valid for the heap's entire lifetime. Best-effort;
        // issued before the state is published.
        sys::advise_hugepages(heap_base, span);

        // SAFETY: the meta arena provides `words` zeroed u64s (the slot-state
        // maps, sized for the maximum capacity whether or not the heap is
        // elastic) followed by two table arrays of `table_cap` usizes each;
        // mmap'd memory is zeroed and exclusively ours.
        let heap = match unsafe { ShardedHeap::from_raw_parts(config, seed, meta.cast::<u64>()) } {
            Ok(heap) => heap,
            Err(_) => {
                // SAFETY: both mappings were just created with these lengths
                // and nothing references them.
                unsafe {
                    sys::unmap(meta, meta_bytes);
                    sys::unmap(heap_base, span);
                }
                return None;
            }
        };
        // SAFETY: as above; the two halves of the table area are disjoint.
        let large = unsafe {
            let tables = meta.add(words * 8).cast::<usize>();
            LargeTable::from_storage(tables, tables.add(table_cap), table_cap)
        };
        Some(GlobalState {
            heap,
            heap_base,
            page,
            id: tls::allocate_id(),
            mag_state: AtomicU8::new(MAG_UNDECIDED),
            large: SpinLock::new(large),
        })
    }

    /// Whether thread-local magazines serve this heap. The first call
    /// registers the (now pinned) state in the TLS registry; a full
    /// registry disables magazines for this heap, which then runs through
    /// the uncached sharded path.
    #[inline]
    fn magazines_on(state: &GlobalState) -> bool {
        match state.mag_state.load(Ordering::Acquire) {
            MAG_ON => true,
            MAG_OFF => false,
            _ => {
                let on = tls::register(state);
                let decided = if on { MAG_ON } else { MAG_OFF };
                // Racing first-operations may decide differently (one can
                // register just as a registry row frees up); the CAS makes
                // one decision win and every racer adopt it — registration
                // is idempotent by id, so the winner's view is correct for
                // all.
                match state.mag_state.compare_exchange(
                    MAG_UNDECIDED,
                    decided,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => on,
                    Err(current) => current == MAG_ON,
                }
            }
        }
    }

    /// Serves a request from a dedicated mapping with one `PROT_NONE` guard
    /// page on either end (§4.1): `[user - page, user + len + page)`, where
    /// `len` is the page-rounded size recorded in the validity table.
    #[cold]
    #[inline(never)]
    fn alloc_large(state: &GlobalState, size: usize, align: usize) -> *mut u8 {
        let page = state.page;
        let user_len = (size + page - 1) & !(page - 1);
        let extra_align = if align > page { align } else { 0 };
        let total = user_len + 2 * page + extra_align;
        let base = sys::map_reserve(total);
        if base.is_null() {
            return ptr::null_mut();
        }
        let map_end = base as usize + total;
        let user_addr = {
            let candidate = base as usize + page;
            if align > page {
                (candidate + align - 1) & !(align - 1)
            } else {
                candidate
            }
        };
        // Trim any alignment excess off both ends so exactly one guard page
        // remains on each side — the invariant that lets the table record
        // the user length alone. (With `align <= page` both trims are
        // no-ops.)
        let front = user_addr - page;
        let tail = user_addr + user_len;
        // SAFETY: [base, front) and [tail + page, map_end) are page-aligned
        // unused pieces of the fresh mapping; nothing references them.
        unsafe {
            if front > base as usize {
                sys::unmap(base, front - base as usize);
            }
            if map_end > tail + page {
                sys::unmap((tail + page) as *mut u8, map_end - (tail + page));
            }
        }
        // Guard the pages before and after the user range (§4.1: "guard
        // pages without read or write access on either end").
        // SAFETY: both pages are page-aligned and inside the mapping.
        unsafe {
            sys::protect_none(front as *mut u8, page);
            sys::protect_none(tail as *mut u8, page);
        }
        let user = user_addr as *mut u8;
        // Huge-page advice on the user range only (the guards must stay
        // 4 KB mappings); self-gated below 2 MB, best-effort above.
        sys::advise_hugepages(user, user_len);
        if !state.large.lock().insert(user_addr, user_len) {
            // Table full: refuse rather than lose track of the mapping.
            // SAFETY: the mapping is unreferenced; release it whole.
            unsafe { sys::unmap(front as *mut u8, user_len + 2 * page) };
            return ptr::null_mut();
        }
        user
    }
}

impl Default for DieHard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for DieHard {
    /// Unregisters the heap from the magazine registry (so other threads'
    /// stale TLS bindings become lookup misses and are discarded, never
    /// dereferenced) after flushing this thread's own binding. The `mmap`
    /// regions themselves are deliberately leaked, as before: a global
    /// allocator's heap must outlive every object it ever served, and
    /// tracking that is the caller's impossible job, not ours.
    fn drop(&mut self) {
        if let Some(state) = self.state.get() {
            // Unconditionally: even a heap that settled on MAG_OFF can have
            // lost a registration race and still own a registry row (the
            // row must not outlive the state it points to); retire's
            // removal is a no-op when the id was never registered.
            tls::retire(state);
        }
    }
}

// SAFETY: `alloc`/`dealloc` satisfy the GlobalAlloc contract: blocks are
// valid for the layout, never aliased while live (uniqueness is the
// per-shard bitmap no-overlap invariant), and dealloc releases exactly what
// alloc returned.
unsafe impl GlobalAlloc for DieHard {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tls::BLOCK.with(|block| ThreadHeap { heap: self, block }.alloc(layout))
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, _layout: Layout) {
        self.free(ptr);
    }
}

/// A [`DieHard`] heap as seen from the calling thread: what
/// [`DieHard::guarded`] hands an interposer, and what every [`GlobalAlloc`]
/// call runs on. It carries this thread's TLS block, so the magazines are
/// reached without a second thread-local lookup.
#[derive(Debug, Clone, Copy)]
pub struct ThreadHeap<'a> {
    heap: &'a DieHard,
    block: &'a tls::TlsBlock,
}

impl ThreadHeap<'_> {
    /// [`GlobalAlloc::alloc`] on this thread's view of the heap (a
    /// zero-size layout gets a one-byte object).
    #[inline]
    pub fn alloc(self, layout: Layout) -> *mut u8 {
        let Some(state) = self.heap.state() else {
            return ptr::null_mut();
        };
        // Slots are naturally aligned to their (power-of-two) class size, so
        // serving max(size, align) satisfies any alignment request.
        let need = layout.size().max(layout.align()).max(1);
        if need > crate::size_class::MAX_OBJECT_SIZE {
            return DieHard::alloc_large(state, layout.size().max(1), layout.align());
        }
        // Fast path: pop a pre-reserved random slot from this thread's
        // magazine (one commit RMW, no lock); refills are lock-free batches.
        let outcome = if DieHard::magazines_on(state) {
            tls::with_cache(self.block, state, |mags, state| {
                mags.try_alloc(&state.heap, need)
            })
        } else {
            state.heap.try_alloc(need)
        };
        match outcome {
            AllocOutcome::Placed(slot) => {
                let off = state.heap.offset_of(slot);
                // SAFETY: `off` lies within the reserved heap span.
                unsafe { state.heap_base.add(off) }
            }
            // An elastic class denied at its *maximum* capacity spills to a
            // dedicated guard-paged mapping rather than failing: the pointer
            // frees through the same large-object table an oversized request
            // would use.
            AllocOutcome::Spill if state.heap.config().grow.is_some() => {
                DieHard::alloc_large(state, layout.size().max(1), layout.align())
            }
            AllocOutcome::Spill | AllocOutcome::Unsupported => ptr::null_mut(),
        }
    }

    /// [`DieHard::free`] on this thread's view of the heap.
    #[inline]
    pub fn free(self, ptr: *mut u8) {
        let Some(state) = self.heap.state.get().filter(|_| !ptr.is_null()) else {
            return;
        };
        let base = state.heap_base as usize;
        let addr = ptr as usize;
        if addr >= base && addr < base + state.heap.heap_span() {
            // Small object: full §4.3 validation. The span/alignment half is
            // lock-free arithmetic either way; with magazines engaged the
            // free is buffered in this thread's cache and released to its
            // shard in a batch.
            if DieHard::magazines_on(state) {
                tls::with_cache(self.block, state, |mags, state| {
                    let _ = mags.free_at(&state.heap, addr - base);
                });
            } else {
                let _ = state.heap.free_at(addr - base);
            }
            return;
        }
        // Possibly a large object: consult the validity table; unknown
        // addresses are ignored ("otherwise, it ignores the request").
        let Some(user_len) = state.large.lock().remove(addr) else {
            return;
        };
        // SAFETY: `alloc_large` mapped exactly [addr - page, addr + user_len
        // + page) and recorded `user_len`; the mapping has not been released
        // since (the table entry was live), and the lock is already dropped,
        // so the syscall never runs under it.
        unsafe { sys::unmap((addr - state.page) as *mut u8, user_len + 2 * state.page) };
    }
}

/// Length of the NUL-terminated string at `p` (C `strlen`).
///
/// # Safety
///
/// `p` must point to a NUL-terminated string.
pub unsafe fn c_strlen(p: *const u8) -> usize {
    let mut n = 0;
    // SAFETY: caller guarantees a terminator exists.
    while unsafe { *p.add(n) } != 0 {
        n += 1;
    }
    n
}

/// Length of the string at `p`, scanning at most `max` bytes (C `strnlen`).
///
/// # Safety
///
/// `p` must be valid for reads up to `max` bytes or its NUL terminator.
pub unsafe fn c_strlen_bounded(p: *const u8, max: usize) -> usize {
    let mut n = 0;
    // SAFETY: caller guarantees validity up to `max` or the terminator.
    while n < max && unsafe { *p.add(n) } != 0 {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn small_test_heap() -> DieHard {
        // 1 MB regions keep test address-space usage modest; the config is
        // instance-scoped (no env mutation), so parallel tests stay
        // isolated; seed fixed for reproducibility.
        DieHard::with_config(HeapConfig::default(), 0xFEED_FACE)
    }

    #[test]
    fn malloc_free_roundtrip() {
        let heap = small_test_heap();
        let p = heap.malloc(100);
        assert!(!p.is_null());
        // The object is writable through its full rounded size.
        // SAFETY: DieHard returned a live 128-byte object.
        unsafe {
            for i in 0..128 {
                *p.add(i) = i as u8;
            }
            assert_eq!(*p.add(127), 127);
        }
        assert_eq!(heap.live_objects(), 1);
        heap.free(p);
        assert_eq!(heap.live_objects(), 0);
    }

    #[test]
    fn oversized_malloc_returns_null_not_tiny_object() {
        let heap = small_test_heap();
        // A size that cannot be described as a Layout must fail cleanly —
        // never be silently served as a smaller allocation.
        assert!(heap.malloc(usize::MAX - 4).is_null());
        assert_eq!(heap.stats().allocs, 0);
    }

    #[test]
    fn double_free_is_ignored() {
        let heap = small_test_heap();
        let p = heap.malloc(64);
        heap.free(p);
        heap.free(p); // must not crash or corrupt
        heap.free(p);
        assert_eq!(heap.stats().ignored_frees, 2);
    }

    #[test]
    fn invalid_free_is_ignored() {
        let heap = small_test_heap();
        let p = heap.malloc(64);
        // Interior pointer.
        // SAFETY: p+1 stays within the allocated object.
        heap.free(unsafe { p.add(1) });
        // Wild pointer.
        heap.free(0x1234_5678 as *mut u8);
        assert_eq!(heap.live_objects(), 1, "victim object must stay live");
        heap.free(p);
    }

    #[test]
    fn alignment_served_up_to_class_sizes() {
        let heap = small_test_heap();
        for align in [1usize, 8, 64, 4096] {
            let layout = Layout::from_size_align(40, align).unwrap();
            // SAFETY: valid non-zero layout.
            let p = unsafe { heap.alloc(layout) };
            assert!(!p.is_null());
            assert_eq!(p as usize % align, 0, "alignment {align}");
            // SAFETY: p came from alloc with this layout.
            unsafe { heap.dealloc(p, layout) };
        }
    }

    #[test]
    fn large_objects_roundtrip_with_guard_pages() {
        let heap = small_test_heap();
        let p = heap.malloc(100_000);
        assert!(!p.is_null());
        // SAFETY: 100k bytes live at p.
        unsafe {
            *p = 1;
            *p.add(99_999) = 2;
            assert_eq!(*p, 1);
        }
        heap.free(p);
        // Freeing again is ignored (validity table already empty).
        heap.free(p);
    }

    #[test]
    fn zero_malloc_returns_null() {
        let heap = small_test_heap();
        assert!(heap.malloc(0).is_null());
    }

    #[test]
    fn exhaustion_returns_null_not_crash() {
        let heap = DieHard::with_config(HeapConfig::default(), 7);
        // The 16 KB class in a 1 MB region holds 64 slots, 32 live cap.
        let mut got = 0;
        for _ in 0..100 {
            if !heap.malloc(16 * 1024).is_null() {
                got += 1;
            }
        }
        assert_eq!(got, 32, "1/M cap must bound live objects");
    }

    /// The elastic acceptance scenario end-to-end: a heap born at 1/64 of
    /// its maximum absorbs a beyond-maximum workload with no OOM — the
    /// first 32 requests grow the 16 KB class 2 → 64 and place inside the
    /// span, the rest spill to dedicated guard-paged mappings — and every
    /// pointer, placed or spilled, frees cleanly through the same API.
    #[test]
    fn elastic_heap_grows_then_spills_to_dedicated_mappings() {
        let heap = DieHard::with_config(HeapConfig::default().with_grow(6), 0xE1A571C);
        let mut ptrs = Vec::new();
        for i in 0..40usize {
            let p = heap.malloc(16 * 1024);
            assert!(!p.is_null(), "request {i} must spill, not fail");
            // SAFETY: live 16 KB object (placed or spilled).
            unsafe {
                *p = i as u8;
                *p.add(16 * 1024 - 1) = i as u8;
            }
            ptrs.push(p);
        }
        let stats = heap.stats();
        assert_eq!(stats.allocs, 32, "the 1/M cap at full size places 32");
        assert_eq!(stats.exhausted, 8, "the remaining 8 spilled");
        for p in ptrs {
            heap.free(p);
        }
        assert_eq!(heap.live_objects(), 0);
        assert_eq!(heap.stats().frees, 32, "spilled frees release mappings");
    }

    /// `grow = Some(0)`: born at full capacity like the fixed heap, but a
    /// class denied at its cap spills instead of returning null — the
    /// 16 KB class places its 32 slots in the span and serves the rest
    /// from dedicated mappings. (`exhaustion_returns_null_not_crash` pins
    /// the `None` side.)
    #[test]
    fn grow_zero_is_born_full_but_spills_past_the_cap() {
        let heap = DieHard::with_config(HeapConfig::default().with_grow(0), 0x5B111);
        let ptrs: Vec<*mut u8> = (0..40).map(|_| heap.malloc(16 * 1024)).collect();
        assert!(ptrs.iter().all(|p| !p.is_null()), "past the cap: spill");
        let stats = heap.stats();
        assert_eq!(stats.allocs, 32, "the 1/M cap places 32 in the span");
        assert_eq!(stats.exhausted, 8, "the remaining 8 spilled");
        for p in ptrs {
            heap.free(p);
        }
        assert_eq!(heap.live_objects(), 0);
        assert_eq!(heap.stats().frees, 32);
    }

    #[test]
    fn invalid_config_fails_terminally_with_null() {
        let bad = HeapConfig::default().with_region_bytes(12_345); // not a power of two
        let heap = DieHard::with_config(bad, 1);
        assert!(heap.malloc(64).is_null());
        assert!(
            heap.malloc(64).is_null(),
            "failure is terminal, not retried"
        );
        assert_eq!(heap.live_objects(), 0);
    }

    #[test]
    fn strcpy_contains_overflow() {
        let heap = small_test_heap();
        let dst = heap.malloc(8);
        let neighbor = heap.malloc(8);
        assert!(!dst.is_null() && !neighbor.is_null());
        // SAFETY: neighbor is a live 8-byte object.
        unsafe { neighbor.write_bytes(0x5A, 8) };
        let long = b"this string is far longer than eight bytes\0";
        // SAFETY: dst is a live heap object; src is NUL-terminated.
        let copied = unsafe { heap.strcpy(dst, long.as_ptr()) };
        assert_eq!(copied, 7, "8-byte object keeps 7 payload bytes + NUL");
        // SAFETY: both objects are live.
        unsafe {
            assert_eq!(*dst.add(7), 0);
            for i in 0..8 {
                assert_eq!(*neighbor.add(i), 0x5A, "neighbor byte {i} corrupted");
            }
        }
        heap.free(dst);
        heap.free(neighbor);
    }

    #[test]
    fn strncpy_clamps_lying_length() {
        let heap = small_test_heap();
        let dst = heap.malloc(8);
        let src = b"aaaaaaaaaaaaaaaaaaaaaaaa\0";
        // Caller claims dst holds 100 bytes; DieHard knows better.
        // SAFETY: dst is live; src NUL-terminated.
        let copied = unsafe { heap.strncpy(dst, src.as_ptr(), 100) };
        assert_eq!(copied, 7);
        heap.free(dst);
    }

    /// A destination outside the heap gets exact C `strncpy` semantics: a
    /// source of at least `n` bytes fills `dest[..n]` and writes nothing at
    /// `dest[n]` (no terminator past C's contract).
    #[test]
    fn strncpy_off_heap_writes_exactly_n_bytes() {
        let heap = small_test_heap();
        let _ = heap.malloc(8); // initialize the heap
        let mut buf = [0xAAu8; 8];
        // SAFETY: buf holds n = 4 bytes; the source is NUL-terminated.
        let copied = unsafe { heap.strncpy(buf.as_mut_ptr(), c"abcdef".as_ptr().cast(), 4) };
        assert_eq!(copied, 4);
        assert_eq!(&buf[..4], b"abcd");
        assert_eq!(buf[4], 0xAA, "no byte written at dest[n]");
        // A short source is zero-padded up to n, and no further.
        // SAFETY: as above, n = 6.
        let copied = unsafe { heap.strncpy(buf.as_mut_ptr(), c"xy".as_ptr().cast(), 6) };
        assert_eq!(copied, 2);
        assert_eq!(&buf[..7], b"xy\0\0\0\0\xAA");
    }

    /// Large objects are bounded through the validity table: a string
    /// longer than the object stops at its page-rounded end (one byte
    /// before the tail guard page) instead of running into the guard.
    #[test]
    fn strcpy_into_large_object_stops_at_its_bound() {
        let heap = small_test_heap();
        let dst = heap.malloc(20_000);
        assert!(!dst.is_null());
        let bound = heap.remaining_space(dst).expect("large object start");
        assert!(bound >= 20_000);
        let mut long = vec![b'q'; 30_000];
        long.push(0);
        // SAFETY: dst is a live heap object; src is NUL-terminated.
        let copied = unsafe { heap.strcpy(dst, long.as_ptr()) };
        assert_eq!(copied, bound - 1, "clamped to the object");
        // SAFETY: the object holds `bound` bytes.
        unsafe { assert_eq!(*dst.add(bound - 1), 0, "terminated in bounds") };
        // strncpy with a lying n: clamped the same way, zero-padded only up
        // to the object bound.
        // SAFETY: as above; src is readable to its terminator.
        let copied = unsafe { heap.strncpy(dst, c"short".as_ptr().cast(), 1 << 20) };
        assert_eq!(copied, 5);
        // SAFETY: the object holds `bound` bytes.
        unsafe { assert_eq!(*dst.add(bound - 1), 0) };
        heap.free(dst);
    }

    #[test]
    fn usable_size_reports_rounded_class_size() {
        let heap = small_test_heap();
        let p = heap.malloc(100);
        assert!(!p.is_null());
        assert_eq!(heap.usable_size(p), 128, "rounded to the 128-byte class");
        // Interior, foreign, and null pointers answer 0, never garbage.
        // SAFETY: p+1 stays within the live object.
        assert_eq!(heap.usable_size(unsafe { p.add(1) }), 0);
        assert_eq!(heap.usable_size(0x1234_5678 as *mut u8), 0);
        assert_eq!(heap.usable_size(ptr::null_mut()), 0);
        heap.free(p);
        // The free may sit in this thread's magazine buffer (the slot is
        // then still un-reusable, hence "live"); flush to settle it.
        heap.flush_thread_cache();
        assert_eq!(heap.usable_size(p), 0, "dead objects answer 0");
    }

    #[test]
    fn usable_size_covers_large_objects_exactly() {
        let heap = small_test_heap();
        let p = heap.malloc(100_000);
        assert!(!p.is_null());
        let usable = heap.usable_size(p);
        assert!(usable >= 100_000, "at least the request: {usable}");
        assert_eq!(usable % 4096, 0, "page-rounded user range");
        assert!(usable < 100_000 + 2 * 65536, "no guard/padding overcount");
        // Every reported byte is really writable (the tail guard page
        // starts exactly at the end, so an overcount would fault here).
        // SAFETY: usable bytes live at p per the assertion under test.
        unsafe {
            *p.add(usable - 1) = 0xEE;
            assert_eq!(*p.add(usable - 1), 0xEE);
        }
        heap.free(p);
        assert_eq!(heap.usable_size(p), 0);
    }

    #[test]
    fn usable_size_exact_under_extreme_alignment() {
        let heap = small_test_heap();
        // Alignment beyond a page exercises the tail-trim path.
        let layout = Layout::from_size_align(100_000, 1 << 21).unwrap();
        // SAFETY: valid non-zero layout.
        let p = unsafe { heap.alloc(layout) };
        assert!(!p.is_null());
        assert_eq!(p as usize % (1 << 21), 0);
        let usable = heap.usable_size(p);
        assert!(usable >= 100_000);
        // SAFETY: usable bytes live at p.
        unsafe { *p.add(usable - 1) = 1 };
        // SAFETY: p came from alloc with this layout.
        unsafe { heap.dealloc(p, layout) };
    }

    #[test]
    fn remaining_space_bounds_interior_pointers() {
        let heap = small_test_heap();
        let p = heap.malloc(256);
        assert!(!p.is_null());
        assert_eq!(heap.remaining_space(p), Some(256));
        // SAFETY: interior pointers of a live 256-byte object.
        unsafe {
            assert_eq!(heap.remaining_space(p.add(200)), Some(56));
            assert_eq!(heap.remaining_space(p.add(255)), Some(1));
        }
        assert_eq!(heap.remaining_space(0x4000 as *mut u8), None);
        let big = heap.malloc(100_000);
        assert_eq!(heap.remaining_space(big), Some(heap.usable_size(big)));
        heap.free(p);
        heap.free(big);
    }

    #[test]
    fn fork_lock_roundtrip_keeps_heap_usable() {
        let heap = small_test_heap();
        // Uninitialized: prepare/resume must balance with no heap locks.
        heap.fork_prepare();
        // SAFETY: paired with the prepare above, same thread.
        unsafe { heap.fork_resume() };
        let p = heap.malloc(64);
        assert!(!p.is_null());
        // Initialized: the full lock set (registry, 12 maintenance, large).
        heap.fork_prepare();
        // SAFETY: paired with the prepare above, same thread.
        unsafe { heap.fork_resume() };
        heap.free(p);
        let q = heap.malloc(2048);
        assert!(!q.is_null(), "heap fully functional after the roundtrip");
        heap.free(q);
        assert_eq!(heap.live_objects(), 0);
    }

    #[test]
    fn different_seeds_randomize_layout() {
        let a = DieHard::with_config(HeapConfig::default(), 1);
        let b = DieHard::with_config(HeapConfig::default(), 2);
        let base_a = a.malloc(64) as isize;
        let base_b = b.malloc(64) as isize;
        let mut same = 0;
        for _ in 0..32 {
            let pa = a.malloc(64) as isize - base_a;
            let pb = b.malloc(64) as isize - base_b;
            if pa == pb {
                same += 1;
            }
        }
        assert!(same < 8, "layouts should differ across seeds");
    }

    #[test]
    fn concurrent_alloc_free_safe() {
        let heap = DieHard::with_config(HeapConfig::default(), 3);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let heap = &heap;
                scope.spawn(move || {
                    let mut ptrs = Vec::new();
                    for i in 0..500 {
                        let p = heap.malloc(8 + (t * 97 + i) % 2000);
                        if !p.is_null() {
                            // SAFETY: live object of at least 8 bytes.
                            unsafe { p.write_bytes(t as u8, 8) };
                            ptrs.push(p);
                        }
                        if ptrs.len() > 50 {
                            heap.free(ptrs.swap_remove(0));
                        }
                    }
                    for p in ptrs {
                        heap.free(p);
                    }
                    // Scoped threads: `scope` returns when the closure
                    // finishes, racing the pthread-key exit flush that runs
                    // during OS-thread teardown — settle explicitly so the
                    // assertion below is deterministic. (Plainly `join`ed
                    // threads need no such call: `pthread_join` returns only
                    // after key destructors complete.)
                    heap.flush_thread_cache();
                });
            }
        });
        assert_eq!(heap.live_objects(), 0);
    }

    /// The pthread-key exit flush: a plainly-`join`ed thread (join returns
    /// only after key destructors run) leaks neither reservations nor
    /// buffered frees.
    #[test]
    fn thread_exit_flushes_magazines() {
        let heap = std::sync::Arc::new(DieHard::with_config(HeapConfig::default(), 0x7157));
        let h = std::sync::Arc::clone(&heap);
        std::thread::spawn(move || {
            let mut ptrs = Vec::new();
            for i in 0..200usize {
                let p = h.malloc(8 + (i * 37) % 2000);
                assert!(!p.is_null());
                ptrs.push(p);
            }
            for p in ptrs {
                h.free(p);
            }
            // No explicit flush: reservations and any still-buffered frees
            // must be settled by the thread-exit destructor alone.
        })
        .join()
        .unwrap();
        assert_eq!(heap.reserved_slots(), 0, "exit flush returns reservations");
        assert_eq!(heap.live_objects(), 0, "exit flush releases buffered frees");
        let stats = heap.stats();
        assert_eq!(stats.allocs, 200);
        assert_eq!(stats.frees, 200);
        assert_eq!(stats.ignored_frees, 0);
    }

    /// One thread alternating between two live heaps: each touch of the
    /// other heap rebinds the thread's magazines, flushing into the heap
    /// they came from — no reservation is ever stranded in a live heap.
    #[test]
    fn rebinding_between_live_heaps_flushes_the_old_one() {
        let a = DieHard::with_config(HeapConfig::default(), 0xA);
        let b = DieHard::with_config(HeapConfig::default(), 0xB);
        let pa = a.malloc(64);
        let pb = b.malloc(64); // rebind: flushes a's magazines back to a
        assert!(!pa.is_null() && !pb.is_null());
        assert_eq!(a.reserved_slots(), 0, "rebind returned a's reservations");
        assert_eq!(a.live_objects(), 1, "handed-out object stays live");
        a.free(pa); // rebind back: flushes b's magazines
        assert_eq!(b.reserved_slots(), 0);
        assert_eq!(b.live_objects(), 1);
        b.free(pb);
        assert_eq!(a.live_objects(), 0);
        assert_eq!(b.live_objects(), 0);
    }

    /// Reserved-but-unhanded slots are not live through the C API either:
    /// a wild free aimed at one is ignored and the reservation survives.
    #[test]
    fn magazine_reservations_invisible_to_free_and_live_count() {
        let heap = DieHard::with_config(HeapConfig::default(), 0x11FE);
        let p = heap.malloc(64);
        assert!(!p.is_null());
        // The refill reserved a batch; only the handout is an allocation.
        assert_eq!(heap.stats().allocs, 1);
        assert_eq!(heap.live_objects(), 1);
        // Every remaining slot of the batch is reserved, not live — and a
        // heap.reserved_slots() call flushes this thread's cache, returning
        // them to the shard.
        assert_eq!(heap.reserved_slots(), 0);
        heap.free(p);
        assert_eq!(heap.live_objects(), 0);
    }

    /// The sharded-design stress test: ≥8 threads hammer all twelve size
    /// classes concurrently, with deliberate erroneous frees and `strcpy`
    /// calls mixed in, and the live-object accounting plus the atomic
    /// statistics must come out exactly consistent once the threads join.
    #[test]
    fn stress_all_classes_with_errors_stays_consistent() {
        const THREADS: u64 = 8;
        const ROUNDS: usize = 120;
        let heap = DieHard::with_config(HeapConfig::default(), 0xC0FFEE);
        let attempted = AtomicU64::new(0);
        let served = AtomicU64::new(0);
        let misaligned_frees = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let heap = &heap;
                let attempted = &attempted;
                let served = &served;
                let misaligned_frees = &misaligned_frees;
                scope.spawn(move || {
                    let mut rng = crate::rng::Mwc::seeded(0xBEEF ^ t);
                    let mut live: Vec<*mut u8> = Vec::new();
                    for round in 0..ROUNDS {
                        // One allocation in every size class per round.
                        for shift in 0..12u32 {
                            let size = 8usize << shift;
                            attempted.fetch_add(1, Ordering::Relaxed);
                            let p = heap.malloc(size);
                            if p.is_null() {
                                continue; // 1/M cap under 8-way pressure
                            }
                            served.fetch_add(1, Ordering::Relaxed);
                            // SAFETY: live object of at least 8 bytes.
                            unsafe { p.write_bytes(t as u8, 8) };
                            // Erroneous free of an interior (misaligned)
                            // pointer: always ignored, counted exactly.
                            // SAFETY: p+1 stays within the live object.
                            heap.free(unsafe { p.add(1) });
                            misaligned_frees.fetch_add(1, Ordering::Relaxed);
                            live.push(p);
                        }
                        // Erroneous frees outside the heap: ignored,
                        // uncounted (the large-object path owns them).
                        heap.free((0x10 + round) as *mut u8);
                        // §4.4 strcpy into a fresh small object, clamped.
                        let dst = heap.malloc(8);
                        if !dst.is_null() {
                            attempted.fetch_add(1, Ordering::Relaxed);
                            served.fetch_add(1, Ordering::Relaxed);
                            let long = b"far longer than eight bytes\0";
                            // SAFETY: dst is live; src is NUL-terminated.
                            let copied = unsafe { heap.strcpy(dst, long.as_ptr()) };
                            assert_eq!(copied, 7, "strcpy must clamp to the object");
                            live.push(dst);
                        } else {
                            attempted.fetch_add(1, Ordering::Relaxed);
                        }
                        // Keep the window bounded; frees of own pointers
                        // must always succeed.
                        while live.len() > 24 {
                            let victim = live.swap_remove(rng.below(live.len()));
                            heap.free(victim);
                        }
                    }
                    for p in live {
                        heap.free(p);
                    }
                    // Settle before `scope` returns (see
                    // `concurrent_alloc_free_safe` for why scoped threads
                    // flush explicitly).
                    heap.flush_thread_cache();
                });
            }
        });

        // Quiescent double-free (single-threaded, so the slot cannot have
        // been re-served between the two frees): exactly one more ignored.
        let p = heap.malloc(64);
        assert!(!p.is_null());
        heap.free(p);
        heap.free(p);

        let stats = heap.stats();
        assert_eq!(heap.live_objects(), 0, "every served object was freed");
        assert_eq!(stats.allocs, served.load(Ordering::Relaxed) + 1);
        assert_eq!(stats.frees, stats.allocs, "each alloc freed exactly once");
        assert_eq!(
            stats.ignored_frees,
            misaligned_frees.load(Ordering::Relaxed) + 1,
            "ignored = per-thread misaligned frees + the quiescent double free"
        );
        assert_eq!(
            stats.exhausted,
            attempted.load(Ordering::Relaxed) - served.load(Ordering::Relaxed),
            "every failed attempt was an at-threshold denial"
        );
    }
}
