//! The `alloc_intensive` driver: replays one Figure 5(a) op stream with
//! real `malloc`/`free`/`memset`/reads through the process's C allocator.
//!
//! ```text
//! alloc_replay emit --profile NAME --scale F --seed N --out FILE
//! alloc_replay run --input FILE --passes K
//! alloc_replay empty
//! ```
//!
//! `emit` writes the seeded op stream of one profile to `FILE` (the
//! benchmark's input; untimed). `run` reads it and replays it `K` times;
//! it is built on the system allocator, so it runs plain for glibc and
//! with `LD_PRELOAD=libdiehard.so` for DieHard. Its output is one line,
//! `checksum=<hex> mallocs=<n> frees=<n>`: the checksum folds every byte
//! the program reads back, so the line must match between the two
//! allocators. The replay time goes to stderr as `replay_ns=<n>`. `empty`
//! exits right after start-up (the set-up probe).

use diehard_runtime::ops::{Op, Program};
use perfbench_driver::{ns_since, program};
use std::time::Instant;

const ALLOC: u8 = 0;
const WRITE: u8 = 1;
const READ: u8 = 2;
const FREE: u8 = 3;
const COMPUTE: u8 = 4;

extern "C" {
    fn malloc(size: usize) -> *mut u8;
    fn free(ptr: *mut u8);
}

/// Encodes the allocator-visible ops as `tag, u32 fields...` records.
/// Profile ids are `0..n` plus four long-lived globals at the top of the
/// `u32` range; the globals are renumbered after the dense ids so the
/// replay can index a plain array.
fn encode(p: &Program) -> Vec<u8> {
    let n = p
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Alloc { id, .. } if *id < u32::MAX - 8))
        .count() as u32;
    let id = |id: u32| {
        if id < u32::MAX - 8 {
            id
        } else {
            n + (u32::MAX - id)
        }
    };
    let mut out = Vec::new();
    out.extend_from_slice(&(n + 8).to_le_bytes());
    let mut rec = |tag: u8, fields: &[u32]| {
        out.push(tag);
        for f in fields {
            out.extend_from_slice(&f.to_le_bytes());
        }
    };
    let u = |x: usize| u32::try_from(x).expect("profile sizes fit in u32");
    for op in &p.ops {
        match *op {
            Op::Alloc { id: i, size } => rec(ALLOC, &[id(i), u(size)]),
            Op::Write {
                id: i,
                offset,
                len,
                seed,
            } => rec(WRITE, &[id(i), u(offset), u(len), u32::from(seed)]),
            Op::Read { id: i, offset, len } => rec(READ, &[id(i), u(offset), u(len)]),
            Op::Free { id: i } => rec(FREE, &[id(i)]),
            Op::Compute { units } => rec(COMPUTE, &[units]),
            _ => {}
        }
    }
    out
}

struct Counts {
    mallocs: u64,
    frees: u64,
    checksum: u64,
}

/// One pass over the encoded stream; stragglers are freed at the end so
/// passes start from the same heap state.
fn replay(input: &[u8], ptrs: &mut [*mut u8], c: &mut Counts) {
    let mut pos = 4;
    while pos < input.len() {
        let at = pos;
        let tag = input[at];
        pos += 1;
        let mut field = || {
            let v = u32::from_le_bytes(input[pos..pos + 4].try_into().expect("4 bytes"));
            pos += 4;
            v as usize
        };
        match tag {
            ALLOC => {
                let (id, size) = (field(), field());
                // SAFETY: plain C malloc; the result is checked for null.
                let p = unsafe { malloc(size) };
                if p.is_null() {
                    eprintln!("alloc_replay: malloc({size}) returned NULL");
                    std::process::exit(3);
                }
                ptrs[id] = p;
                c.mallocs += 1;
            }
            WRITE => {
                let (id, offset, len, seed) = (field(), field(), field(), field());
                let byte = Program::pattern_byte(id as u32, seed as u8, offset);
                // SAFETY: the generator writes only inside the object it
                // allocated (`offset + len <= size`).
                unsafe { std::ptr::write_bytes(ptrs[id].add(offset), byte, len) };
            }
            READ => {
                let (id, offset, len) = (field(), field(), field());
                // SAFETY: the generator reads back only initialized bytes
                // of a live object.
                let bytes = unsafe { std::slice::from_raw_parts(ptrs[id].add(offset), len) };
                for &b in bytes {
                    c.checksum = (c.checksum ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            FREE => {
                let id = field();
                // SAFETY: each handle is freed once per pass, after its
                // allocation.
                unsafe { free(ptrs[id]) };
                ptrs[id] = std::ptr::null_mut();
                c.frees += 1;
            }
            COMPUTE => {
                let units = field() as u64;
                let mut acc = units | 1;
                for _ in 0..units {
                    acc = acc
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                }
                std::hint::black_box(acc);
            }
            _ => panic!("corrupt op stream: tag {tag} at byte {at}"),
        }
    }
    for p in ptrs.iter_mut().filter(|p| !p.is_null()) {
        // SAFETY: a live pointer from this pass's malloc.
        unsafe { free(*p) };
        *p = std::ptr::null_mut();
        c.frees += 1;
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("alloc_replay: missing {flag}");
                std::process::exit(2)
            })
    };
    match args.first().map(String::as_str) {
        Some("empty") => {}
        Some("emit") => {
            let prog = program(
                &value("--profile"),
                value("--scale").parse().expect("--scale takes a number"),
                value("--seed").parse().expect("--seed takes an integer"),
            );
            std::fs::write(value("--out"), encode(&prog)).expect("write the op stream");
        }
        Some("run") => {
            let input = std::fs::read(value("--input")).expect("read the op stream");
            let passes: u32 = value("--passes")
                .parse()
                .expect("--passes takes an integer");
            let handles = u32::from_le_bytes(input[..4].try_into().expect("header")) as usize;
            let mut ptrs = vec![std::ptr::null_mut(); handles];
            let mut c = Counts {
                mallocs: 0,
                frees: 0,
                checksum: 0xcbf2_9ce4_8422_2325,
            };
            let t0 = Instant::now();
            for _ in 0..passes {
                replay(&input, &mut ptrs, &mut c);
            }
            eprintln!("replay_ns={}", ns_since(t0));
            println!(
                "checksum={:016x} mallocs={} frees={}",
                c.checksum, c.mallocs, c.frees
            );
        }
        _ => {
            eprintln!("alloc_replay: first argument is emit, run or empty");
            std::process::exit(2)
        }
    }
}
