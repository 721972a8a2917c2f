//! Layer probes for the traced run: each subcommand times calls into one
//! or more layers' public functions from the outside and prints one JSON
//! line (metrics plus the spans recorded around the calls).
//!
//! ```text
//! layers init      --so LIB                   # dlopen to first pointer
//! layers alloc     --so LIB --seeds A,B,C,D --scale F
//! layers limits    --so LIB
//! layers replicate --so LIB --seed N
//! ```
//!
//! `alloc` replays the `alloc_intensive` op streams of the given seeds, one
//! per profile in `FIG5A` order (the workload's first four inputs), through
//! `engine::HeapCore`, `sharded::ShardedHeap`, `magazine::MagazineHeap`,
//! the `dlopen`ed `libdiehard.so` and glibc. Per-op calls fold into one
//! timer and counter per layer and repetition, so the span list stays
//! small.

use diehard_core::config::HeapConfig;
use diehard_core::engine::HeapCore;
use diehard_core::magazine::MagazineHeap;
use diehard_core::sharded::ShardedHeap;
use diehard_core::size_class::SizeClass;
use diehard_replicate::reactor::Reactor;
use diehard_replicate::{ChunkVote, LaunchConfig, Phase, Pool, Session, SessionInput, Voter};
use perfbench_driver::{
    alloc_stream, job_seed, ns_since, payload, program, spans_json, CAlloc, JsonObj, Span, FIG5A,
};
use std::ffi::c_void;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of every timed loop; metrics are medians over them.
const REPS: usize = 7;

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as a span named `name` under `parent`; returns its index
    /// and the elapsed nanoseconds.
    fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self, usize) -> R,
    ) -> (R, u64) {
        let idx = self.spans.len();
        let start = ns_since(self.t0);
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
        });
        let r = f(self, idx);
        let end = ns_since(self.t0);
        self.spans[idx].end = end;
        (r, end - start)
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

type Stream = (Vec<(usize, Option<usize>)>, usize);

/// Replays every stream through a `(alloc, free)` pair of closures over
/// opaque addresses; returns `(pairs, failed allocations)`.
fn replay(
    streams: &[Stream],
    mut alloc: impl FnMut(usize) -> Option<usize>,
    mut free: impl FnMut(usize),
) -> (u64, u64) {
    let (mut pairs, mut failed) = (0u64, 0u64);
    for (stream, handles) in streams {
        let mut live = vec![usize::MAX; *handles];
        for &(h, op) in stream {
            match op {
                Some(size) => match alloc(size) {
                    Some(a) => {
                        live[h] = a;
                        pairs += 1;
                    }
                    None => failed += 1,
                },
                None => {
                    if live[h] != usize::MAX {
                        free(live[h]);
                        live[h] = usize::MAX;
                    }
                }
            }
        }
        for a in live.into_iter().filter(|&a| a != usize::MAX) {
            free(a);
        }
    }
    (pairs, failed)
}

fn engine_probes(heap: &HeapCore) -> (u64, u64) {
    SizeClass::all().fold((0, 0), |(a, p), c| {
        let (ca, cp) = heap.partition(c).probe_stats();
        (a + ca, p + cp)
    })
}

fn c_replay(streams: &[Stream], c: CAlloc) -> (u64, u64) {
    // SAFETY: every pointer passed to `free` came from this allocator's
    // `malloc` and is freed exactly once.
    replay(
        streams,
        |size| {
            let p = unsafe { (c.malloc)(size) };
            (!p.is_null()).then_some(p as usize)
        },
        |a| unsafe { (c.free)(a as *mut c_void) },
    )
}

/// Ring churn over 64 slots: `op(slot_pointer, size)` returns the new
/// occupant. Returns ns per call, median over [`REPS`].
fn ring_ns(
    c: CAlloc,
    sizes: &[usize],
    mut op: impl FnMut(CAlloc, *mut c_void, usize) -> *mut c_void,
) -> f64 {
    const RING: usize = 64;
    let mut per_rep = Vec::new();
    for _ in 0..REPS {
        let mut ring = [std::ptr::null_mut::<c_void>(); RING];
        let t0 = Instant::now();
        for (i, &size) in sizes.iter().enumerate() {
            ring[i % RING] = black_box(op(c, ring[i % RING], size));
        }
        for p in ring {
            // SAFETY: ring pointers came from `c` and are freed once.
            unsafe { (c.free)(p) };
        }
        per_rep.push(ns_since(t0) as f64 / sizes.len() as f64);
    }
    median(per_rep)
}

fn cmd_alloc(so: &str, seeds: &[u64], scale: f64) -> String {
    assert_eq!(seeds.len(), FIG5A.len(), "one op-stream seed per profile");
    let seed = seeds[0];
    let mut tr = Tracer::new();
    let streams: Vec<Stream> = FIG5A
        .iter()
        .enumerate()
        .map(|(i, p)| alloc_stream(&program(p, scale, seeds[i])))
        .collect();
    let preload = CAlloc::dlopen(so).unwrap_or_else(|e| panic!("{e}"));
    let glibc = CAlloc::system();
    let config = HeapConfig::default();
    let engine = std::cell::RefCell::new(
        HeapCore::new(config.clone(), seed).expect("default config is valid"),
    );
    let sharded = ShardedHeap::new(config.clone(), seed).expect("default config is valid");
    let magazine = MagazineHeap::new(config, seed).expect("default config is valid");

    let layers = ["engine", "sharded", "magazine", "preload", "glibc"];
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let mut failed = 0u64;
    let (_, _) = tr.span("layers.alloc", None, |tr, root| {
        for _ in 0..REPS {
            for (li, layer) in layers.iter().enumerate() {
                let ((pairs, fail), t) =
                    tr.span(
                        &format!("{layer}.replay"),
                        Some(root),
                        |_, _| match *layer {
                            "engine" => replay(
                                &streams,
                                |s| {
                                    let mut h = engine.borrow_mut();
                                    h.alloc(s).map(|slot| h.offset_of(slot))
                                },
                                |o| {
                                    engine.borrow_mut().free_at(o);
                                },
                            ),
                            "sharded" => replay(
                                &streams,
                                |s| sharded.alloc(s).map(|slot| sharded.offset_of(slot)),
                                |o| {
                                    sharded.free_at(o);
                                },
                            ),
                            "magazine" => {
                                let cache = std::cell::RefCell::new(magazine.thread_cache());
                                let r = replay(
                                    &streams,
                                    |s| {
                                        cache
                                            .borrow_mut()
                                            .alloc(s)
                                            .map(|slot| magazine.offset_of(slot))
                                    },
                                    |o| {
                                        cache.borrow_mut().free_at(o);
                                    },
                                );
                                cache.borrow_mut().flush();
                                r
                            }
                            "preload" => c_replay(&streams, preload),
                            _ => c_replay(&streams, glibc),
                        },
                    );
                failed += fail;
                ns[li].push(t as f64 / pairs.max(1) as f64);
            }
        }
    });
    let pair_ns: Vec<f64> = ns.into_iter().map(median).collect();
    let (ea, ep) = engine_probes(&engine.borrow());
    let (sa, sp) = sharded.probe_stats();

    let sizes: Vec<usize> = streams
        .iter()
        .flat_map(|(s, _)| s.iter().filter_map(|&(_, sz)| sz))
        .take(100_000)
        .collect();
    let large: Vec<usize> = (0..2_000u64)
        .map(|i| 65_536 + (job_seed(seed, i) % (960 * 1024)) as usize)
        .collect();
    // SAFETY (all closures below): ring slots hold null or a pointer from
    // the same allocator, which `free`, `realloc` accept.
    let ((calloc_ns, realloc_ns, large_pre, large_glibc), _) =
        tr.span("layers.c_abi", None, |tr, root| {
            let (calloc_ns, _) = tr.span("preload.calloc", Some(root), |_, _| {
                ring_ns(preload, &sizes, |c, old, size| unsafe {
                    (c.free)(old);
                    (c.calloc)(1, size)
                })
            });
            let (realloc_ns, _) = tr.span("preload.realloc", Some(root), |_, _| {
                ring_ns(preload, &sizes, |c, old, size| unsafe {
                    (c.realloc)(old, size)
                })
            });
            let pair = |c: CAlloc, old: *mut c_void, size: usize| unsafe {
                (c.free)(old);
                (c.malloc)(size)
            };
            let (large_pre, _) = tr.span("preload.large", Some(root), |_, _| {
                ring_ns(preload, &large, pair)
            });
            let (large_glibc, _) = tr.span("glibc.large", Some(root), |_, _| {
                ring_ns(glibc, &large, pair)
            });
            (calloc_ns, realloc_ns, large_pre, large_glibc)
        });

    JsonObj::default()
        .num("engine.pair_ns", pair_ns[0])
        .num("engine.probes_per_alloc", ep as f64 / ea.max(1) as f64)
        .num("sharded.pair_ns", pair_ns[1])
        .num("sharded.probes_per_alloc", sp as f64 / sa.max(1) as f64)
        .num("magazine.pair_ns", pair_ns[2])
        .num("preload.pair_ns", pair_ns[3])
        .num("glibc.pair_ns", pair_ns[4])
        .num("preload.vs_glibc", pair_ns[3] / pair_ns[4])
        .num("preload.calloc_ns", calloc_ns)
        .num("preload.realloc_ns", realloc_ns)
        .num("preload.large_pair_ns", large_pre)
        .num("glibc.large_pair_ns", large_glibc)
        .num("failed_allocs", failed as f64)
        .raw("spans", &spans_json(&tr.spans))
        .finish()
}

fn cmd_init(so: &str) -> String {
    let t0 = Instant::now();
    let c = CAlloc::dlopen(so).unwrap_or_else(|e| panic!("{e}"));
    // SAFETY: plain malloc through the library's export; freed below.
    let p = unsafe { (c.malloc)(64) };
    let init_ns = ns_since(t0);
    assert!(!p.is_null(), "first malloc returned NULL");
    // SAFETY: `p` came from this allocator.
    unsafe { (c.free)(p) };
    JsonObj::default()
        .num("preload.init_ns", init_ns as f64)
        .finish()
}

/// Allocates `size`-byte objects until the allocator returns NULL (or
/// `cap` objects), frees them, and returns the count.
fn live_limit(c: CAlloc, size: usize, cap: usize) -> usize {
    let mut held = Vec::new();
    while held.len() < cap {
        // SAFETY: plain malloc; null ends the loop.
        let p = unsafe { (c.malloc)(size) };
        if p.is_null() {
            break;
        }
        held.push(p);
    }
    let n = held.len();
    for p in held {
        // SAFETY: each pointer came from `c` and is freed once.
        unsafe { (c.free)(p) };
    }
    n
}

fn cmd_limits(so: &str) -> String {
    const LARGE: usize = 64 * 1024;
    const SMALL: usize = 64;
    let mut tr = Tracer::new();
    let c = CAlloc::dlopen(so).unwrap_or_else(|e| panic!("{e}"));
    let (large, _) = tr.span("preload.large_live_limit", None, |_, _| {
        live_limit(c, LARGE, 200_000)
    });
    let (small, _) = tr.span("preload.class_live_limit", None, |_, _| {
        live_limit(c, SMALL, 4_000_000)
    });
    JsonObj::default()
        .num("preload.large_live_limit", large as f64)
        .num(
            "preload.class_live_mb_limit",
            (small * SMALL) as f64 / (1 << 20) as f64,
        )
        .raw("spans", &spans_json(&tr.spans))
        .finish()
}

/// Runs one readiness round of `s`: poll its descriptors, service them.
fn io_round(s: &mut Session, reactor: &mut Reactor<diehard_replicate::SessionIo>) {
    reactor.clear();
    s.register_interest(|fd, ev, io| reactor.register(fd, ev, io));
    reactor.wait(100).expect("poll");
    let ready: Vec<_> = reactor.ready().map(|(io, _)| io).collect();
    for io in ready {
        s.service(io);
    }
}

fn cmd_replicate(so: &str, seed: u64) -> String {
    const CHUNKS: usize = 64;
    let mut tr = Tracer::new();
    let mut config = LaunchConfig::new(3, vec!["cat".into()], Vec::new());
    config.preload = Some(so.to_string());
    let seeds: Vec<u64> = (0..3).map(|i| job_seed(seed, i)).collect();
    let chunk = config.chunk;
    let data = payload(seed, CHUNKS * chunk);

    let (mut spawn, mut bcast, mut wait, mut pump) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut peak_kb = Vec::new();
    let mut reactor = Reactor::new();
    for rep in 0..3 {
        tr.span("session.connection", None, |tr, root| {
            let (s, t) = tr.span("session.spawn", Some(root), |_, _| {
                Session::spawn(&config, &seeds, SessionInput::Streamed).expect("spawn cat replicas")
            });
            let mut s = s;
            spawn.push(t as f64 / 1e6);
            let mut out = Vec::new();
            for piece in data.chunks(chunk) {
                while !s.wants_input() {
                    io_round(&mut s, &mut reactor);
                }
                let ((), t) = tr.span("session.broadcast", Some(root), |_, _| {
                    s.accept_input(piece);
                    s.flush_input();
                });
                bcast.push(t as f64 / 1e3);
                let before = out.len();
                let t_wait = Instant::now();
                let mut pumped;
                loop {
                    let t_pump = Instant::now();
                    s.pump(&mut out);
                    pumped = ns_since(t_pump);
                    if out.len() > before {
                        break;
                    }
                    io_round(&mut s, &mut reactor);
                }
                wait.push((ns_since(t_wait) - pumped) as f64 / 1e3);
                pump.push(pumped as f64 / 1e3);
            }
            s.accept_input_eof();
            s.flush_input();
            while s.pump(&mut out) != Phase::Drained {
                io_round(&mut s, &mut reactor);
            }
            let outcome = s.finalize();
            assert!(
                out == data && !outcome.diverged,
                "voted echo differs (rep {rep})"
            );
            peak_kb.push(outcome.peak_buffered as f64 / 1024.0);
        });
    }

    let a = payload(seed ^ 1, chunk);
    let mut b = a.clone();
    b[chunk / 2] ^= 0xFF;
    let vote_ns_per_kb = |ballots: [&[u8]; 3]| {
        let iters = 2_000u32;
        let reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    let mut v = Voter::new(3);
                    let r = v.vote(&[Some(ballots[0]), Some(ballots[1]), Some(ballots[2])]);
                    assert!(matches!(r, ChunkVote::Commit(_)), "a 2-of-3 vote commits");
                    black_box(r);
                }
                ns_since(t0) as f64 / f64::from(iters) / (chunk as f64 / 1024.0)
            })
            .collect();
        median(reps)
    };
    let (agree, _) = tr.span("voter.vote", None, |_, _| vote_ns_per_kb([&a, &a, &a]));
    let (diverge, _) = tr.span("voter.divergent_vote", None, |_, _| {
        vote_ns_per_kb([&a, &a, &b])
    });

    let (mut prime, mut take) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        tr.span("pool.cycle", None, |tr, root| {
            let mut pool = Pool::new(config.clone(), 1).expect("valid chunk");
            let ((), t) = tr.span("pool.prime", Some(root), |_, _| pool.prime());
            prime.push(t as f64 / 1e6);
            let (s, t) = tr.span("pool.take", Some(root), |_, _| pool.take());
            take.push(t as f64 / 1e3);
            s.expect("a primed pool hands out its set").abort();
        });
    }

    JsonObj::default()
        .num("session.spawn_ms", median(spawn))
        .num("session.broadcast_us", median(bcast))
        .num("session.replica_wait_us", median(wait))
        .num("session.pump_us", median(pump))
        .num("session.peak_buffered_kb", median(peak_kb))
        .num("voter.vote_ns_per_kb", agree)
        .num("voter.divergent_vote_ns_per_kb", diverge)
        .num("pool.prime_set_ms", median(prime))
        .num("pool.take_us", median(take))
        .raw("spans", &spans_json(&tr.spans))
        .finish()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("layers: missing {flag}");
                std::process::exit(2)
            })
    };
    let so = value("--so");
    let line = match args.first().map(String::as_str) {
        Some("init") => cmd_init(&so),
        Some("alloc") => cmd_alloc(
            &so,
            &value("--seeds")
                .split(',')
                .map(|x| x.parse().expect("--seeds takes integers"))
                .collect::<Vec<u64>>(),
            value("--scale").parse().expect("--scale takes a number"),
        ),
        Some("limits") => cmd_limits(&so),
        Some("replicate") => cmd_replicate(
            &so,
            value("--seed").parse().expect("--seed takes an integer"),
        ),
        _ => {
            eprintln!("layers: first argument is init, alloc, limits or replicate");
            std::process::exit(2)
        }
    };
    println!("{line}");
}
