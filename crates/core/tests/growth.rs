//! Integration suite for elastic region growth: the §9 adaptive-heap idea
//! carried into the concurrent stack. A heap born at a fraction of its
//! maximum capacity must absorb a max-capacity workload by doubling under
//! `1/M`-cap pressure (no OOM), spill — not crash — past the final cap,
//! keep single-threaded histories bit-identical across every layer, and
//! keep its statistics exact while growth races allocations, frees, and
//! magazine refills. Run with `RUST_TEST_THREADS=8` in CI so the race
//! tests overlap with each other as well as within themselves.

use diehard_core::config::{HeapConfig, DEFAULT_INITIAL_FRACTION_LOG2};
use diehard_core::engine::{AllocOutcome, HeapCore};
use diehard_core::rng::Mwc;
use diehard_core::sharded::ShardedHeap;
use diehard_core::size_class::SizeClass;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// The acceptance scenario: a heap started at 1/64 of its maximum absorbs
/// a max-capacity workload in **every** class with no OOM — each class
/// serves its full-size `1/M` allowance — and the request past the final
/// cap is [`AllocOutcome::Spill`], not a crash. Growth is exact: each
/// class doubles precisely `log2(max / start)` times.
#[test]
fn heap_started_at_one_64th_absorbs_max_capacity_workload() {
    let config = HeapConfig::default();
    let heap = ShardedHeap::new(config.clone().with_grow(6), 0xACCE57).unwrap();
    let mut expected_doublings = 0u64;
    for class in SizeClass::all() {
        let size = class.object_size();
        let allowance = config.threshold(class);
        for i in 0..allowance {
            assert!(
                heap.try_alloc(size).placed().is_some(),
                "class {} allocation {i} of {allowance} must not OOM",
                class.index()
            );
        }
        assert_eq!(
            heap.try_alloc(size),
            AllocOutcome::Spill,
            "class {} past its final 1/M cap",
            class.index()
        );
        let max = heap.geometry().capacity(class) as u64;
        let start = heap.geometry().initial_capacity(class) as u64;
        expected_doublings += u64::from(max.trailing_zeros() - start.trailing_zeros());
    }
    assert_eq!(heap.growth_events(), expected_doublings);
    for class in SizeClass::all() {
        assert_eq!(
            heap.with_partition(class, |p| p.capacity()),
            heap.geometry().capacity(class),
            "class {} grew to its maximum",
            class.index()
        );
    }
}

/// Single-threaded alloc-only histories are bit-identical across all three
/// layers — the single-owner elastic core, lock-free elastic sharded, and
/// an elastic sharded heap's magazine cache — at the same seed and start
/// fraction: growth
/// triggers at the same pressure points in each and consumes no RNG draws.
#[test]
fn single_threaded_histories_identical_across_layers() {
    let seed = 0xD17EC7;
    let config = HeapConfig::default().with_grow(DEFAULT_INITIAL_FRACTION_LOG2);
    let sharded = ShardedHeap::new(config.clone(), seed).unwrap();
    let mut core = HeapCore::new(config.clone(), seed).unwrap();
    let mag = ShardedHeap::new(config, seed).unwrap();
    let mut cache = mag.thread_cache();
    let mut rng = Mwc::seeded(seed ^ 0x5EED);
    for i in 0..4000usize {
        let size = 1 + rng.below(16 * 1024);
        let s = sharded.alloc(size);
        assert_eq!(s, core.alloc(size), "op {i} (size {size}): core");
        assert_eq!(s, cache.alloc(size), "op {i} (size {size}): magazine");
        if let Some(slot) = s {
            assert_eq!(sharded.offset_of(slot), core.offset_of(slot));
        }
    }
    assert_eq!(sharded.growth_events(), core.growth_events());
    assert_eq!(sharded.growth_events(), mag.growth_events());
    assert!(
        sharded.growth_events() > 0,
        "the workload must cross growth"
    );
}

/// Mixed alloc/free histories stay bit-identical between the elastic core
/// and elastic sharded layers (both free immediately): every placement,
/// every free outcome, and the growth count agree across 20k interleaved
/// ops.
#[test]
fn mixed_history_identical_before_and_after_growth() {
    let seed = 0x6F0ED1;
    let config = HeapConfig::default().with_grow(DEFAULT_INITIAL_FRACTION_LOG2);
    let sharded = ShardedHeap::new(config.clone(), seed).unwrap();
    let mut core = HeapCore::new(config, seed).unwrap();
    let mut rng = Mwc::seeded(seed);
    let mut live: Vec<usize> = Vec::new();
    for i in 0..20_000usize {
        if rng.below(3) < 2 || live.is_empty() {
            let size = 1 + rng.below(1024);
            let s = sharded.alloc(size);
            assert_eq!(s, core.alloc(size), "op {i}: placement diverged");
            if let Some(slot) = s {
                live.push(sharded.offset_of(slot));
            }
        } else {
            let off = live.swap_remove(rng.below(live.len()));
            assert_eq!(
                sharded.free_at(off),
                core.free_at(off),
                "op {i}: free outcome diverged"
            );
        }
    }
    assert_eq!(sharded.growth_events(), core.growth_events());
}

/// Elastic with fraction 0 *is* the fixed heap: initial == maximum, zero
/// growth events, and a bit-identical mixed history against `grow = None`.
#[test]
fn elastic_fraction_zero_is_bit_identical_to_fixed() {
    let seed = 0xF1DE77;
    let fixed = ShardedHeap::new(HeapConfig::default(), seed).unwrap();
    let elastic = ShardedHeap::new(HeapConfig::default().with_grow(0), seed).unwrap();
    let mut rng = Mwc::seeded(seed ^ 1);
    let mut live: Vec<usize> = Vec::new();
    for _ in 0..5000usize {
        if rng.below(2) == 0 || live.is_empty() {
            let size = 1 + rng.below(16 * 1024);
            let f = fixed.alloc(size);
            assert_eq!(f, elastic.alloc(size));
            if let Some(slot) = f {
                live.push(fixed.offset_of(slot));
            }
        } else {
            let off = live.swap_remove(rng.below(live.len()));
            assert_eq!(fixed.free_at(off), elastic.free_at(off));
        }
    }
    assert_eq!(elastic.growth_events(), 0);
}

/// Growth racing lock-free allocations and frees: 8 threads push one class
/// from its 1/64 start to its maximum with no frees in flight, so the
/// ticket cap makes the outcome exact — the served total is the full-size
/// threshold, the doubling count is exactly `log2(max / start)`, and the
/// post-drain accounting reconciles to zero.
#[test]
fn concurrent_alloc_pressure_grows_exactly_once_per_threshold() {
    const THREADS: u64 = 8;
    let config = HeapConfig::default().with_region_bytes(256 * 1024);
    let class0 = SizeClass::from_index(0);
    let h = Arc::new(ShardedHeap::new(config.clone().with_grow(6), 0x6A0E).unwrap());
    let attempted = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    // No thread frees until every thread has spilled: with zero frees in
    // flight during the pressure phase, occupancy is monotone and the
    // served total is exactly the full-size threshold.
    let drained = Arc::new(Barrier::new(THREADS as usize));

    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let h = Arc::clone(&h);
        let attempted = Arc::clone(&attempted);
        let served = Arc::clone(&served);
        let drained = Arc::clone(&drained);
        handles.push(std::thread::spawn(move || {
            let mut live: Vec<usize> = Vec::new();
            loop {
                attempted.fetch_add(1, Ordering::Relaxed);
                match h.try_alloc(8) {
                    AllocOutcome::Placed(slot) => {
                        served.fetch_add(1, Ordering::Relaxed);
                        live.push(h.offset_of(slot));
                    }
                    AllocOutcome::Spill => break,
                    AllocOutcome::Unsupported => panic!("8 bytes is a supported class"),
                }
            }
            drained.wait();
            for off in live {
                assert!(h.free_at(off).freed(), "own offset {off} must free");
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    let max = h.geometry().capacity(class0);
    let start = h.geometry().initial_capacity(class0);
    assert_eq!(
        served.load(Ordering::Relaxed),
        config.threshold(class0) as u64,
        "the ticket cap admits exactly the full-size allowance"
    );
    assert_eq!(
        h.growth_events(),
        u64::from(max.trailing_zeros() - start.trailing_zeros()),
        "one doubling per threshold crossing, never more"
    );
    assert_eq!(h.with_partition(class0, |p| p.capacity()), max);
    assert_eq!(h.live_objects(), 0);
    let stats = h.stats();
    assert_eq!(stats.allocs, served.load(Ordering::Relaxed));
    assert_eq!(stats.frees, stats.allocs);
    assert_eq!(
        stats.exhausted,
        attempted.load(Ordering::Relaxed) - served.load(Ordering::Relaxed),
        "every failed attempt was a spill at the final cap"
    );
}

/// Growth racing magazine refills and free-buffer flushes: a refill at the
/// cap grows the class under its maintenance lock (lock-free otherwise),
/// spills are counted per denied request,
/// and after every cache flushes the accounting reconciles exactly —
/// `exhausted == attempted − served`, zero leaked reservations.
#[test]
fn magazine_refills_race_growth_and_reconcile() {
    const THREADS: u64 = 8;
    const OPS: usize = 4000;
    const WINDOW: usize = 1500;
    let config = HeapConfig::default().with_region_bytes(128 * 1024);
    let h = Arc::new(ShardedHeap::new(config.with_grow(6), 0xBEEF6).unwrap());
    let attempted = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let h = Arc::clone(&h);
        let attempted = Arc::clone(&attempted);
        let served = Arc::clone(&served);
        handles.push(std::thread::spawn(move || {
            let mut cache = h.thread_cache();
            let mut rng = Mwc::seeded(0xF00D ^ t);
            let mut live: Vec<usize> = Vec::new();
            for _ in 0..OPS {
                attempted.fetch_add(1, Ordering::Relaxed);
                if let Some(slot) = cache.alloc(8) {
                    served.fetch_add(1, Ordering::Relaxed);
                    live.push(h.offset_of(slot));
                }
                if live.len() > WINDOW {
                    let victim = live.swap_remove(rng.below(live.len()));
                    cache.free_at(victim);
                }
            }
            for off in live {
                cache.free_at(off);
            }
            // cache drops here: flush frees, return reservations
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    assert!(h.growth_events() > 0, "refill pressure must grow the class");
    assert_eq!(h.reserved_slots(), 0, "zero leaked reservations");
    assert_eq!(h.live_objects(), 0);
    let stats = h.stats();
    assert_eq!(stats.allocs, served.load(Ordering::Relaxed));
    assert_eq!(stats.frees, stats.allocs);
    assert_eq!(
        stats.exhausted,
        attempted.load(Ordering::Relaxed) - served.load(Ordering::Relaxed),
        "spill accounting is exact through the cached stack"
    );
}
