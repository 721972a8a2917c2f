//! The machine-readable perf trajectory: deterministic hot-path kernels and
//! the `BENCH_*.json` report they emit.
//!
//! Every perf-focused PR runs the same registered kernels through
//! `cargo run --release -p diehard-bench --bin perf_report` and commits the
//! resulting `BENCH_<pr>.json` at the repo root, so allocator speedups leave
//! a diffable number trail instead of prose tables. The kernels are seeded
//! and fixed-size — two runs on the same machine measure the same work —
//! and deliberately target the allocator's strength-reduced arithmetic:
//! partition probing, free validation, and the replicated-mode random fill —
//! plus the §5 replicated network front end: voted bytes/second through a
//! loopback proxy session, the full connect→vote→close cycle cost both
//! cold (replicas spawned inline) and warm (handed out of the pre-spawned
//! replica-set pool), and the background cost of refilling that pool.
//!
//! Schema of the emitted JSON: a single object mapping kernel name to
//! `{"mean_ns": float, "min_ns": float, "max_ns": float, "iters": int}`,
//! where the `_ns` figures are nanoseconds *per operation* (mean/min/max
//! across timed samples) and `iters` is the total operation count measured.

use diehard_core::config::{FillPolicy, HeapConfig};
use diehard_core::partition::AtomicPartition;
use diehard_core::rng::Mwc;
use diehard_core::sharded::ShardedHeap;
use diehard_core::size_class::SizeClass;
use diehard_sim::{DieHardSimHeap, SimAllocator};
use std::hint::black_box;
use std::time::Instant;

/// Every kernel the report must contain; CI fails when one is missing.
pub const KERNELS: &[&str] = &[
    "alloc_churn_mixed",
    "magazine_alloc_churn",
    "preload_alloc_churn",
    "libc_alloc_churn",
    "probe_steady_half_full",
    "fill_none",
    "fill_random",
    "grow_under_churn",
    "hugepage_fill",
    "proxy_throughput",
    "proxy_conn_latency",
    "proxy_conn_latency_warm",
    "pool_refill",
];

/// One kernel's timing summary (nanoseconds per operation across samples).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Registered kernel name (one of [`KERNELS`]).
    pub name: &'static str,
    /// Mean ns/op across samples.
    pub mean_ns: f64,
    /// Fastest sample's ns/op.
    pub min_ns: f64,
    /// Slowest sample's ns/op.
    pub max_ns: f64,
    /// Total operations measured (samples × ops per sample).
    pub iters: u64,
}

/// Times `samples` runs of `sample_fn`, each performing `ops` operations,
/// after `warmup` untimed runs; reports ns/op statistics.
fn measure(
    name: &'static str,
    warmup: usize,
    samples: usize,
    ops: u64,
    mut sample_fn: impl FnMut(),
) -> KernelResult {
    for _ in 0..warmup {
        sample_fn();
    }
    let mut per_op: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        sample_fn();
        per_op.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    summarize(name, &per_op, ops * samples as u64)
}

/// Folds per-sample ns/op figures into a [`KernelResult`] — the stats half
/// of [`measure`], split out for kernels that must time each sample
/// themselves (e.g. to exclude an untimed wait from the measurement).
fn summarize(name: &'static str, per_op: &[f64], iters: u64) -> KernelResult {
    let min = per_op.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_op.iter().copied().fold(0.0, f64::max);
    let mean = per_op.iter().sum::<f64>() / per_op.len() as f64;
    KernelResult {
        name,
        mean_ns: mean,
        min_ns: min,
        max_ns: max,
        iters,
    }
}

/// The `alloc_micro` diehard churn, made steady-state: a persistent sim
/// heap serves mixed-size malloc/free traffic through a 64-slot ring of
/// live objects. One op = one free (of the slot's previous occupant) plus
/// one malloc. The ring is a fixed array indexed by mask, so the harness
/// contributes a load and a branch per op — the measurement is the
/// allocator's placement and free-validation arithmetic, not container
/// bookkeeping.
fn alloc_churn_mixed(smoke: bool) -> KernelResult {
    const RING: usize = 64;
    let (warmup, samples, ops) = if smoke {
        (1, 3, 2_000)
    } else {
        (3, 25, 50_000)
    };
    let sizes: [usize; RING] = {
        let mut rng = Mwc::seeded(0xBEAC4);
        core::array::from_fn(|_| 8 + rng.below(2040))
    };
    let mut heap = DieHardSimHeap::new(HeapConfig::default(), 1).unwrap();
    let mut ring = [usize::MAX; RING];
    let mut i = 0usize;
    measure("alloc_churn_mixed", warmup, samples, ops, move || {
        for _ in 0..ops {
            let slot = i & (RING - 1);
            if ring[slot] != usize::MAX {
                let _ = heap.free(ring[slot]);
            }
            ring[slot] = match heap.malloc(sizes[slot], &[]) {
                Ok(Some(p)) => p,
                _ => usize::MAX,
            };
            i += 1;
        }
    })
}

/// The same 64-slot mixed-size churn ring as `alloc_churn_mixed`, but
/// against the concurrent [`ShardedHeap`] through its thread-local
/// magazine cache — the exact in-process path `libdiehard.so` puts under
/// every interposed `malloc`. Comparing the two rows prices the
/// thread-safety layers (magazines + lock-free shard CAS) against the
/// single-threaded sim heap.
fn magazine_alloc_churn(smoke: bool) -> KernelResult {
    const RING: usize = 64;
    let (warmup, samples, ops) = if smoke {
        (1, 3, 2_000)
    } else {
        (3, 25, 50_000)
    };
    let sizes: [usize; RING] = {
        let mut rng = Mwc::seeded(0xBEAC4);
        core::array::from_fn(|_| 8 + rng.below(2040))
    };
    let heap = ShardedHeap::new(HeapConfig::default(), 0xCAFE).unwrap();
    let mut ring = [usize::MAX; RING];
    let mut i = 0usize;
    measure("magazine_alloc_churn", warmup, samples, ops, move || {
        let mut cache = heap.thread_cache();
        for _ in 0..ops {
            let slot = i & (RING - 1);
            if ring[slot] != usize::MAX {
                let _ = cache.free_at(ring[slot]);
            }
            ring[slot] = match cache.alloc(sizes[slot]) {
                Some(s) => heap.offset_of(s),
                None => usize::MAX,
            };
            i += 1;
        }
        // Return buffered frees to the shards so samples stay steady-state.
        cache.flush();
    })
}

/// Resolves `malloc`/`free` out of a freshly `dlopen`ed `libdiehard.so`
/// (found next to the running binary's profile directory). `RTLD_LOCAL`
/// keeps the library's strong allocation symbols *out* of the global
/// scope: this process keeps its own allocator, and the kernel drives the
/// interposer's exports purely through the returned function pointers.
#[cfg(unix)]
fn preload_library() -> (
    extern "C" fn(usize) -> *mut libc::c_void,
    extern "C" fn(*mut libc::c_void),
) {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("exe dir");
    // Bins run from target/<profile>/, test bins from target/<profile>/deps/.
    // `cargo test` alone does not emit the cdylib artifact, so a debug test
    // run falls back to the sibling profile's copy — tier-1 (`cargo build
    // --release && cargo test -q`) always has target/release/libdiehard.so,
    // and the release interposer is the artifact worth timing anyway.
    let mut candidates = vec![dir.to_path_buf()];
    candidates.extend(dir.parent().map(std::path::Path::to_path_buf));
    for up in [dir.parent(), dir.parent().and_then(std::path::Path::parent)]
        .into_iter()
        .flatten()
    {
        candidates.push(up.join("release"));
        candidates.push(up.join("debug"));
    }
    let so = candidates
        .into_iter()
        .map(|d| d.join("libdiehard.so"))
        .find(|p| p.exists())
        .expect("libdiehard.so not built — run `cargo build --release -p diehard-preload` first");
    let mut path = so.into_os_string().into_string().expect("utf-8 path");
    path.push('\0');
    // SAFETY: NUL-terminated path; dlopen/dlsym have no other
    // preconditions. The transmutes match the C signatures libdiehard.so
    // exports for malloc and free.
    unsafe {
        let handle = libc::dlopen(path.as_ptr().cast(), libc::RTLD_NOW | libc::RTLD_LOCAL);
        assert!(!handle.is_null(), "dlopen(libdiehard.so) failed");
        let malloc_sym = libc::dlsym(handle, c"malloc".as_ptr().cast());
        let free_sym = libc::dlsym(handle, c"free".as_ptr().cast());
        assert!(
            !malloc_sym.is_null() && !free_sym.is_null(),
            "libdiehard.so must export malloc and free"
        );
        (
            core::mem::transmute::<*mut libc::c_void, extern "C" fn(usize) -> *mut libc::c_void>(
                malloc_sym,
            ),
            core::mem::transmute::<*mut libc::c_void, extern "C" fn(*mut libc::c_void)>(free_sym),
        )
    }
}

/// The same churn ring once more, but through the `LD_PRELOAD`
/// interposer's exported C ABI (`dlopen` + `dlsym`, see
/// [`preload_library`]). The delta against `magazine_alloc_churn` is the
/// interposition overhead itself: one TLS lookup that covers both the
/// re-entrancy guard and the thread's magazines, the arena range check, the
/// `Layout` round-trip, and the indirect call. The ratio to
/// `libc_alloc_churn`, measured in the same run, is the interposer's cost
/// relative to the system allocator (§7's metric) on this host.
#[cfg(unix)]
fn preload_alloc_churn(smoke: bool) -> KernelResult {
    let (c_malloc, c_free) = preload_library();
    c_alloc_churn("preload_alloc_churn", smoke, c_malloc, c_free)
}

/// The reference for `preload_alloc_churn`: the same ring through this
/// process's own `malloc`/`free` (glibc's, unless something is preloaded).
#[cfg(unix)]
fn libc_alloc_churn(smoke: bool) -> KernelResult {
    extern "C" fn c_malloc(size: usize) -> *mut libc::c_void {
        // SAFETY: plain C malloc; any size is a valid request.
        unsafe { libc::malloc(size) }
    }
    extern "C" fn c_free(p: *mut libc::c_void) {
        // SAFETY: `p` came from `c_malloc` above and is freed once.
        unsafe { libc::free(p) }
    }
    c_alloc_churn("libc_alloc_churn", smoke, c_malloc, c_free)
}

/// The 64-slot mixed-size churn ring of `alloc_churn_mixed`, driven through
/// a C `malloc`/`free` pair.
#[cfg(unix)]
fn c_alloc_churn(
    name: &'static str,
    smoke: bool,
    c_malloc: extern "C" fn(usize) -> *mut libc::c_void,
    c_free: extern "C" fn(*mut libc::c_void),
) -> KernelResult {
    const RING: usize = 64;
    let (warmup, samples, ops) = if smoke {
        (1, 3, 2_000)
    } else {
        (3, 25, 50_000)
    };
    let sizes: [usize; RING] = {
        let mut rng = Mwc::seeded(0xBEAC4);
        core::array::from_fn(|_| 8 + rng.below(2040))
    };
    let mut ring: [*mut libc::c_void; RING] = [core::ptr::null_mut(); RING];
    let mut i = 0usize;
    let result = measure(name, warmup, samples, ops, || {
        for _ in 0..ops {
            let slot = i & (RING - 1);
            if !ring[slot].is_null() {
                c_free(ring[slot]);
            }
            ring[slot] = black_box(c_malloc(sizes[slot]));
            i += 1;
        }
    });
    ring.into_iter()
        .filter(|p| !p.is_null())
        .for_each(|p| c_free(p));
    result
}

#[cfg(not(unix))]
fn preload_alloc_churn(_smoke: bool) -> KernelResult {
    unreachable!("the preload kernel requires unix dlopen plumbing")
}

#[cfg(not(unix))]
fn libc_alloc_churn(_smoke: bool) -> KernelResult {
    unreachable!("the libc kernel requires the unix C allocator")
}

/// Steady-state partition probing at the paper's default occupancy (half
/// full, M = 2): one op = one alloc/free pair against a 16 Ki-slot region.
fn probe_steady_half_full(smoke: bool) -> KernelResult {
    const CAPACITY: usize = 1 << 14;
    let (warmup, samples, ops) = if smoke {
        (1, 3, 5_000)
    } else {
        (3, 25, 100_000)
    };
    let mut part = AtomicPartition::new(SizeClass::from_index(0), CAPACITY, CAPACITY, 7);
    for _ in 0..CAPACITY / 2 {
        part.alloc_mut();
    }
    measure("probe_steady_half_full", warmup, samples, ops, move || {
        for _ in 0..ops {
            let idx = part.alloc_mut().expect("has space");
            part.free_mut(black_box(idx));
        }
    })
}

/// Allocation with a given fill policy: one op = one 4 KB malloc, with the
/// live window drained inside the timed loop so the heap stays reusable and
/// both policies run the identical op sequence.
/// `fill_random` minus `fill_none` is the replicated-mode fill overhead.
fn fill_kernel(name: &'static str, fill: FillPolicy, smoke: bool) -> KernelResult {
    let (warmup, samples, ops) = if smoke { (1, 3, 64) } else { (2, 25, 2_048) };
    let mut heap = DieHardSimHeap::new(HeapConfig::default().with_fill(fill), 5).unwrap();
    measure(name, warmup, samples, ops, move || {
        let mut live: Vec<usize> = Vec::with_capacity(64);
        for _ in 0..ops {
            if let Ok(Some(p)) = heap.malloc(4096, &[]) {
                live.push(p);
            }
            if live.len() >= 64 {
                for p in live.drain(..) {
                    let _ = heap.free(p);
                }
            }
        }
        for p in live.drain(..) {
            let _ = heap.free(p);
        }
    })
}

/// Elastic growth under allocation pressure: one op = one 8-byte
/// allocation against a concurrent heap born at 1/64 of its maximum
/// capacity, so the timed loop crosses every doubling of the smallest
/// class on its way to the full-size `1/M` threshold. Each sample builds
/// a fresh heap (seed varied per sample) — the growth protocol runs
/// *inside* the measurement, so this number prices the lock-free read
/// path plus the maintenance-locked doublings, not just steady state.
fn grow_under_churn(smoke: bool) -> KernelResult {
    let (warmup, samples, region) = if smoke {
        (1, 3, 1usize << 16)
    } else {
        (2, 25, 1usize << 18)
    };
    let config = HeapConfig::default().with_region_bytes(region);
    let ops = config.threshold(SizeClass::from_index(0)) as u64;
    let mut seed = 0x6_2011u64;
    measure("grow_under_churn", warmup, samples, ops, move || {
        seed += 1;
        let heap = ShardedHeap::new(config.clone().with_grow(6), seed).unwrap();
        for _ in 0..ops {
            let slot = heap.try_alloc(8).placed().expect("below the 1/M cap");
            black_box(slot);
        }
    })
}

/// Huge-page commit cost: one op = first-touch of one 4 KB page inside a
/// fresh anonymous mapping advised with `MADV_HUGEPAGE` — the
/// mmap/madvise/fault sequence the global allocator issues for its arena
/// and each large object. The advice is best-effort: on kernels without
/// transparent huge pages this degrades to (and measures) ordinary 4 KB
/// faults, so the number is meaningful either way.
fn hugepage_fill(smoke: bool) -> KernelResult {
    let (warmup, samples, len) = if smoke {
        (0, 2, 4usize << 20)
    } else {
        (1, 10, 32usize << 20)
    };
    const PAGE: usize = 4096;
    let ops = (len / PAGE) as u64;
    measure("hugepage_fill", warmup, samples, ops, move || {
        // SAFETY: a fresh, exclusively-owned anonymous mapping of `len`
        // bytes; madvise is non-destructive advice; every touched offset is
        // inside the mapping; munmap releases the same range mmap returned.
        unsafe {
            let ptr = libc::mmap(
                core::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            );
            assert!(ptr != libc::MAP_FAILED, "anonymous mmap failed");
            let _ = libc::madvise(ptr, len, libc::MADV_HUGEPAGE);
            let bytes = ptr.cast::<u8>();
            for off in (0..len).step_by(PAGE) {
                bytes.add(off).write_volatile(1);
            }
            libc::munmap(ptr, len);
        }
    })
}

/// Shared proxy-kernel scaffolding: a loopback [`Proxy`] voting three
/// `/bin/cat` replicas per connection, run on its own thread for the
/// duration of `body`, which receives the bound port.
#[cfg(unix)]
fn with_cat_proxy<R>(body: impl FnOnce(u16) -> R) -> R {
    use diehard_replicate::net::Listener;
    use diehard_replicate::proxy::Proxy;
    use diehard_replicate::LaunchConfig;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    let listener = Listener::bind_loopback(0).expect("loopback bind");
    let mut proxy = Proxy::new(listener, config).expect("default chunk is valid");
    let port = proxy.local_port().expect("bound port");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let server = std::thread::spawn(move || proxy.run(&flag));
    let result = body(port);
    stop.store(true, Ordering::Release);
    server
        .join()
        .expect("proxy thread")
        .expect("reactor ran clean");
    result
}

/// [`with_cat_proxy`] with a warm replica-set pool of `depth` parked sets:
/// `body` also receives the pool's fill gauge so rounds can wait for a
/// parked set (a guaranteed pool hit) outside their timed region.
#[cfg(unix)]
fn with_pooled_cat_proxy<R>(
    depth: usize,
    body: impl FnOnce(u16, std::sync::Arc<std::sync::atomic::AtomicUsize>) -> R,
) -> R {
    use diehard_replicate::net::Listener;
    use diehard_replicate::proxy::Proxy;
    use diehard_replicate::LaunchConfig;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    let listener = Listener::bind_loopback(0).expect("loopback bind");
    let proxy = Proxy::new(listener, config).expect("default chunk is valid");
    let gauge = proxy.pool_gauge();
    let mut proxy = proxy.with_pool(depth);
    let port = proxy.local_port().expect("bound port");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let server = std::thread::spawn(move || proxy.run(&flag));
    let result = body(port, gauge);
    stop.store(true, Ordering::Release);
    let summary = server
        .join()
        .expect("proxy thread")
        .expect("reactor ran clean");
    assert_eq!(
        summary.pool.cold_spawns, 0,
        "warm kernel rounds must all be pool hits: {:?}",
        summary.pool
    );
    result
}

/// One voted proxy session: connect, stream `payload`, half-close, read the
/// quorum echo to EOF, and check the byte count survived the vote.
#[cfg(unix)]
fn proxy_echo_round(port: u16, payload: &[u8]) {
    use diehard_replicate::net::{connect_loopback, shutdown_write};
    use std::io::{Read, Write};

    let mut stream = connect_loopback(port).expect("connect");
    if payload.len() <= 4096 {
        // Small payloads fit the socket buffer: write inline so the
        // latency kernels don't carry a per-round thread spawn.
        stream.write_all(payload).expect("send payload");
        shutdown_write(&stream).expect("half-close");
        let mut echoed = Vec::new();
        stream.read_to_end(&mut echoed).expect("read voted echo");
        assert_eq!(echoed.len(), payload.len(), "quorum echo must be complete");
        return;
    }
    let to_send = payload.to_vec();
    let writer = {
        let stream = stream.try_clone().expect("clone stream");
        std::thread::spawn(move || {
            let mut stream = stream;
            let _ = stream.write_all(&to_send);
            let _ = shutdown_write(&stream);
        })
    };
    let mut echoed = Vec::new();
    stream.read_to_end(&mut echoed).expect("read voted echo");
    writer.join().expect("writer thread");
    assert_eq!(echoed.len(), payload.len(), "quorum echo must be complete");
}

/// Voted proxy throughput: one op = one payload byte pushed through a full
/// loopback session (client → broadcast to 3 cat replicas → 4 KB chunk
/// votes → quorum bytes back). Each sample is a fresh connection, so the
/// number includes a session spawn amortized over the payload — the shape
/// a short-lived proxy client actually sees.
#[cfg(unix)]
fn proxy_throughput(smoke: bool) -> KernelResult {
    let (warmup, samples, len) = if smoke {
        (0, 2, 8_192usize)
    } else {
        (1, 10, 262_144usize)
    };
    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    with_cat_proxy(|port| {
        measure("proxy_throughput", warmup, samples, len as u64, move || {
            proxy_echo_round(port, &payload);
        })
    })
}

/// One latency round: connect, send exactly one chunk, and time until the
/// voted first chunk is read back. A full-chunk request is deliberate —
/// its barrier commits the moment every replica has echoed the chunk,
/// *without* waiting for replica EOF — and the half-close is deferred
/// until *after* the voted chunk is back, so the replicas are still
/// parked alive at their next read throughout the timed region. The EOF
/// ballots, the replica exits, and the reap (identical cold and warm,
/// and not what the pool optimizes) are only triggered by the FIN
/// afterwards, fully off the clock.
#[cfg(unix)]
fn proxy_first_chunk_round(port: u16, payload: &[u8]) -> std::time::Duration {
    use diehard_replicate::net::{connect_loopback, shutdown_write};
    use std::io::{Read, Write};

    let start = Instant::now();
    let mut stream = connect_loopback(port).expect("connect");
    stream.write_all(payload).expect("send request");
    let mut first = vec![0u8; payload.len()];
    stream
        .read_exact(&mut first)
        .expect("read voted first chunk");
    let elapsed = start.elapsed();
    // Teardown off the clock: half-close now, then drain to EOF so the
    // session retires clean before the next round.
    shutdown_write(&stream).expect("half-close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("drain EOF");
    assert!(
        rest.is_empty(),
        "one-chunk request must vote exactly one chunk"
    );
    elapsed
}

/// Per-connection cost, cold path: one op = one [`proxy_first_chunk_round`]
/// against a proxy that fork/execs the connection's three replicas inline
/// at accept — so the number is dominated by replica spawning. This is the
/// fixed cost `proxy_throughput` amortizes and the baseline
/// `proxy_conn_latency_warm` is measured against.
#[cfg(unix)]
fn proxy_conn_latency(smoke: bool) -> KernelResult {
    let (warmup, samples) = if smoke { (0, 2) } else { (1, 12) };
    let payload = vec![7u8; diehard_replicate::CHUNK];
    with_cat_proxy(|port| {
        for _ in 0..warmup {
            proxy_first_chunk_round(port, &payload);
        }
        let mut per_op: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            per_op.push(proxy_first_chunk_round(port, &payload).as_nanos() as f64);
        }
        summarize("proxy_conn_latency", &per_op, samples as u64)
    })
}

/// Warm-pool counterpart of [`proxy_conn_latency`]: the identical
/// [`proxy_first_chunk_round`], against a proxy whose replica sets are
/// pre-spawned (`--pool`). Each round waits *untimed* for the pool's fill
/// gauge to report a *full* pool before connecting — full, not merely
/// non-empty, so the reactor is provably idle (not mid-way through
/// topping up) when the connection arrives and the measurement is the
/// pool-hit path alone: O(1) handoff, one voted round-trip, with the
/// fork/exec cost moved off the connection entirely. The delta against
/// `proxy_conn_latency` is the tentpole number: the per-connection setup
/// cost the pool hides.
#[cfg(unix)]
fn proxy_conn_latency_warm(smoke: bool) -> KernelResult {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    const DEPTH: usize = 2;
    let (warmup, samples) = if smoke { (1, 2) } else { (4, 24) };
    let payload = vec![7u8; diehard_replicate::CHUNK];
    with_pooled_cat_proxy(DEPTH, |port, gauge| {
        let wait_for_full_pool = || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while gauge.load(Ordering::Acquire) < DEPTH {
                assert!(Instant::now() < deadline, "pool never refilled");
                std::thread::yield_now();
            }
            // The gauge rises the moment fork() returns, but the fresh
            // replicas still need background CPU to finish exec and park
            // at their blocking read — give them that slice off the clock,
            // as any set parked for more than an instant has had. Without
            // this, on a single-core runner the timed round is taxed by
            // the *next* set's startup, which is exactly the work the
            // pool exists to keep off the connection path. Yielding (not
            // sleeping) cedes the core to those replicas while keeping it
            // out of idle states: a sleep here sends the round into the
            // platform's wake-from-idle tax, which measures the runner's
            // power management, not the pool.
            let settle = Instant::now();
            while settle.elapsed() < Duration::from_millis(15) {
                std::thread::yield_now();
            }
        };
        for _ in 0..warmup {
            wait_for_full_pool();
            proxy_first_chunk_round(port, &payload);
        }
        let mut per_op: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            wait_for_full_pool(); // refill happens off the clock
            per_op.push(proxy_first_chunk_round(port, &payload).as_nanos() as f64);
        }
        summarize("proxy_conn_latency_warm", &per_op, samples as u64)
    })
}

/// Pool refill cost: one op = parking one complete 3-replica `/bin/cat`
/// set (seed resolution + 3 × fork/exec + pipe plumbing) via
/// [`Pool::prime`]. This is the background work [`proxy_conn_latency_warm`]
/// moves off the connection path; teardown (abort + reap) runs untimed
/// between samples.
#[cfg(unix)]
fn pool_refill(smoke: bool) -> KernelResult {
    use diehard_replicate::{LaunchConfig, Pool};

    let (warmup, samples, depth) = if smoke {
        (0, 2, 1usize)
    } else {
        (1, 10, 4usize)
    };
    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    for _ in 0..warmup {
        let mut pool = Pool::new(config.clone(), depth).expect("valid config");
        pool.prime();
    }
    let mut per_op: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut pool = Pool::new(config.clone(), depth).expect("valid config");
        let start = Instant::now();
        pool.prime();
        per_op.push(start.elapsed().as_nanos() as f64 / depth as f64);
        assert_eq!(pool.idle_len(), depth, "every set must park");
        drop(pool); // SIGKILL + reap of the parked sets stays off the clock
    }
    summarize("pool_refill", &per_op, (samples * depth) as u64)
}

#[cfg(not(unix))]
fn proxy_throughput(_smoke: bool) -> KernelResult {
    unreachable!("proxy kernels require unix process plumbing")
}

#[cfg(not(unix))]
fn proxy_conn_latency(_smoke: bool) -> KernelResult {
    unreachable!("proxy kernels require unix process plumbing")
}

#[cfg(not(unix))]
fn proxy_conn_latency_warm(_smoke: bool) -> KernelResult {
    unreachable!("proxy kernels require unix process plumbing")
}

#[cfg(not(unix))]
fn pool_refill(_smoke: bool) -> KernelResult {
    unreachable!("proxy kernels require unix process plumbing")
}

/// Runs every registered kernel, in registry order.
#[must_use]
pub fn run_all(smoke: bool) -> Vec<KernelResult> {
    KERNELS
        .iter()
        .map(|&name| run_kernel(name, smoke).expect("registered kernel"))
        .collect()
}

/// Runs one kernel by name; `None` for an unregistered name.
#[must_use]
pub fn run_kernel(name: &str, smoke: bool) -> Option<KernelResult> {
    match name {
        "alloc_churn_mixed" => Some(alloc_churn_mixed(smoke)),
        "magazine_alloc_churn" => Some(magazine_alloc_churn(smoke)),
        "preload_alloc_churn" => Some(preload_alloc_churn(smoke)),
        "libc_alloc_churn" => Some(libc_alloc_churn(smoke)),
        "probe_steady_half_full" => Some(probe_steady_half_full(smoke)),
        "fill_none" => Some(fill_kernel("fill_none", FillPolicy::None, smoke)),
        "fill_random" => Some(fill_kernel("fill_random", FillPolicy::Random, smoke)),
        "grow_under_churn" => Some(grow_under_churn(smoke)),
        "hugepage_fill" => Some(hugepage_fill(smoke)),
        "proxy_throughput" => Some(proxy_throughput(smoke)),
        "proxy_conn_latency" => Some(proxy_conn_latency(smoke)),
        "proxy_conn_latency_warm" => Some(proxy_conn_latency_warm(smoke)),
        "pool_refill" => Some(pool_refill(smoke)),
        _ => None,
    }
}

/// Renders results as the `BENCH_*.json` document (stable key order).
#[must_use]
pub fn render_json(results: &[KernelResult]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "  \"{}\": {{\"mean_ns\": {:.2}, \"min_ns\": {:.2}, \"max_ns\": {:.2}, \"iters\": {}}}{}\n",
            r.name,
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            r.iters,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("}\n");
    out
}

/// Extracts `kernel name → mean_ns` from a rendered (or committed) report,
/// in file order. Accepts exactly the schema [`render_json`] emits (one
/// `"name": {"mean_ns": …}` entry per line) and skips anything that does
/// not parse — so a hand-mangled report degrades to fewer deltas, not a
/// crash. This is the read half of the `BENCH_<pr>.json` trajectory: it
/// lets `perf_report` diff a fresh run against the previous PR's committed
/// numbers without a JSON dependency.
#[must_use]
pub fn parse_means(json: &str) -> Vec<(String, f64)> {
    let mut means = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(rest) = rest.split_once("\"mean_ns\":").map(|(_, r)| r) else {
            continue;
        };
        let num = rest.trim_start().split([',', '}']).next().unwrap_or("");
        if let Ok(mean) = num.trim().parse::<f64>() {
            means.push((name.to_string(), mean));
        }
    }
    means
}

/// Checks a rendered (or committed) report for every registered kernel,
/// returning the missing names — the CI gate for the perf trajectory.
#[must_use]
pub fn missing_kernels(json: &str) -> Vec<&'static str> {
    KERNELS
        .iter()
        .copied()
        .filter(|name| !json.contains(&format!("\"{name}\"")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_covers_every_kernel() {
        let results = run_all(true);
        assert_eq!(results.len(), KERNELS.len());
        for (r, &name) in results.iter().zip(KERNELS) {
            assert_eq!(r.name, name);
            assert!(r.mean_ns > 0.0, "{name} measured nothing");
            assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
            assert!(r.iters > 0);
        }
    }

    #[test]
    fn json_roundtrips_kernel_names() {
        let results = run_all(true);
        let json = render_json(&results);
        assert!(missing_kernels(&json).is_empty(), "all kernels present");
        assert!(json.contains("\"mean_ns\""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn missing_kernels_detects_gaps() {
        let missing = missing_kernels("{\"alloc_churn_mixed\": {}}");
        assert!(!missing.contains(&"alloc_churn_mixed"));
        assert!(missing.contains(&"magazine_alloc_churn"));
        assert!(missing.contains(&"preload_alloc_churn"));
        assert!(missing.contains(&"libc_alloc_churn"));
        assert!(missing.contains(&"probe_steady_half_full"));
        assert!(missing.contains(&"fill_none"));
        assert!(missing.contains(&"fill_random"));
        assert!(missing.contains(&"grow_under_churn"));
        assert!(missing.contains(&"hugepage_fill"));
        assert!(missing.contains(&"proxy_throughput"));
        assert!(missing.contains(&"proxy_conn_latency"));
        assert!(missing.contains(&"proxy_conn_latency_warm"));
        assert!(missing.contains(&"pool_refill"));
    }

    #[test]
    fn unregistered_kernel_is_none() {
        assert!(run_kernel("nonesuch", true).is_none());
    }

    #[test]
    fn parse_means_roundtrips_render_json() {
        let results = run_all(true);
        let parsed = parse_means(&render_json(&results));
        assert_eq!(parsed.len(), results.len());
        for ((name, mean), r) in parsed.iter().zip(&results) {
            assert_eq!(name, r.name);
            assert!(
                (mean - r.mean_ns).abs() < 0.01,
                "{name}: {mean} vs {}",
                r.mean_ns
            );
        }
    }

    #[test]
    fn parse_means_skips_malformed_lines() {
        let json = "{\n  \"good\": {\"mean_ns\": 12.50, \"iters\": 3},\n  garbage line\n  \"bad\": {\"mean_ns\": not-a-number},\n}\n";
        assert_eq!(parse_means(json), vec![("good".to_string(), 12.5)]);
    }
}
