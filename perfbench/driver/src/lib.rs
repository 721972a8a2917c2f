//! Shared pieces of the benchmark's Rust helpers: the C allocation ABI of
//! the system allocator and of a `dlopen`ed `libdiehard.so`, the
//! Figure 5(a) op streams, seeded payloads, and a tiny JSON writer.
//!
//! The helpers only call the repository's public items; they never change
//! program code. `perfbench/run.py` builds and drives them.

use diehard_core::rng::splitmix;
use diehard_runtime::ops::{Op, Program};
use std::ffi::{c_char, c_int, c_void, CString};
use std::fmt::Write as _;
use std::time::Instant;

/// The Figure 5(a) allocation-intensive profiles the benchmark replays.
/// `lindsay` is left out: its planted uninitialized read makes its output
/// depend on the allocator, so glibc and DieHard outputs could not be
/// compared byte for byte.
pub const FIG5A: [&str; 4] = ["cfrac", "espresso", "p2c", "roboop"];

extern "C" {
    fn malloc(size: usize) -> *mut c_void;
    fn free(ptr: *mut c_void);
    fn calloc(nmemb: usize, size: usize) -> *mut c_void;
    fn realloc(ptr: *mut c_void, size: usize) -> *mut c_void;
    fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
}

const RTLD_NOW: c_int = 2;
const RTLD_LOCAL: c_int = 0;

/// One allocator's C ABI as plain function pointers, so the same replay
/// loop can time glibc and `libdiehard.so` side by side in one process.
#[derive(Clone, Copy)]
pub struct CAlloc {
    pub malloc: unsafe extern "C" fn(usize) -> *mut c_void,
    pub free: unsafe extern "C" fn(*mut c_void),
    pub calloc: unsafe extern "C" fn(usize, usize) -> *mut c_void,
    pub realloc: unsafe extern "C" fn(*mut c_void, usize) -> *mut c_void,
}

impl CAlloc {
    /// The process's own allocator (glibc when nothing is preloaded).
    #[must_use]
    pub fn system() -> Self {
        Self {
            malloc,
            free,
            calloc,
            realloc,
        }
    }

    /// The exports of `libdiehard.so`, opened `RTLD_LOCAL` so this process
    /// keeps its own allocator and reaches DieHard only through the
    /// returned pointers.
    ///
    /// # Errors
    ///
    /// A message when the library or one of its symbols cannot be found.
    pub fn dlopen(path: &str) -> Result<Self, String> {
        let cpath = CString::new(path).map_err(|e| e.to_string())?;
        // SAFETY: `cpath` is NUL-terminated and outlives the call.
        let handle = unsafe { dlopen(cpath.as_ptr(), RTLD_NOW | RTLD_LOCAL) };
        if handle.is_null() {
            return Err(format!("dlopen({path}) failed"));
        }
        let sym = |name: &str| {
            let cname = CString::new(name).expect("symbol names have no NUL");
            // SAFETY: `handle` came from a successful dlopen; `cname` is
            // NUL-terminated.
            let p = unsafe { dlsym(handle, cname.as_ptr()) };
            if p.is_null() {
                Err(format!("{path} does not export {name}"))
            } else {
                Ok(p)
            }
        };
        let (m, f, c, r) = (
            sym("malloc")?,
            sym("free")?,
            sym("calloc")?,
            sym("realloc")?,
        );
        // SAFETY: libdiehard.so exports these symbols with exactly the C
        // signatures of the allocation ABI declared above.
        unsafe {
            Ok(Self {
                malloc: std::mem::transmute::<
                    *mut c_void,
                    unsafe extern "C" fn(usize) -> *mut c_void,
                >(m),
                free: std::mem::transmute::<*mut c_void, unsafe extern "C" fn(*mut c_void)>(f),
                calloc: std::mem::transmute::<
                    *mut c_void,
                    unsafe extern "C" fn(usize, usize) -> *mut c_void,
                >(c),
                realloc: std::mem::transmute::<
                    *mut c_void,
                    unsafe extern "C" fn(*mut c_void, usize) -> *mut c_void,
                >(r),
            })
        }
    }
}

/// The op stream seed of job `job` of a run with seed `seed`: every job of
/// a run gets its own stream, and a second run seed gives different
/// streams of the same shape.
#[must_use]
pub fn job_seed(seed: u64, job: u64) -> u64 {
    splitmix(seed ^ splitmix(job.wrapping_add(1)))
}

/// Generates the program of one Figure 5(a) profile.
///
/// # Panics
///
/// On a profile name outside [`FIG5A`]'s suite.
#[must_use]
pub fn program(profile: &str, scale: f64, seed: u64) -> Program {
    diehard_workloads::profile_by_name(profile)
        .unwrap_or_else(|| panic!("unknown profile {profile}"))
        .generate(scale, seed)
}

/// An allocator-only view of a program: `Some(size)` allocates into handle
/// `slot`, `None` frees it. Handles are dense indices, so replay needs no
/// map.
#[must_use]
pub fn alloc_stream(p: &Program) -> (Vec<(usize, Option<usize>)>, usize) {
    let mut ids = std::collections::HashMap::new();
    let mut out = Vec::new();
    for op in &p.ops {
        match *op {
            Op::Alloc { id, size } => {
                let next = ids.len();
                let slot = *ids.entry(id).or_insert(next);
                out.push((slot, Some(size)));
            }
            Op::Free { id } => out.push((ids[&id], None)),
            _ => {}
        }
    }
    (out, ids.len())
}

/// Deterministic payload bytes: `len` bytes of a splitmix stream.
#[must_use]
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut x = seed;
    while out.len() < len {
        x = splitmix(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Nanoseconds since `t0`.
#[must_use]
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A flat JSON object writer for the helpers' one-line results.
#[derive(Default)]
pub struct JsonObj(String);

impl JsonObj {
    /// Adds a numeric field (non-finite values are written as `null`).
    #[must_use]
    pub fn num(mut self, key: &str, v: f64) -> Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        if v.is_finite() {
            let _ = write!(self.0, "{sep}\"{key}\":{v}");
        } else {
            let _ = write!(self.0, "{sep}\"{key}\":null");
        }
        self
    }

    /// Adds a field whose value is already JSON.
    #[must_use]
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        let _ = write!(self.0, "{sep}\"{key}\":{json}");
        self
    }

    /// Adds a string field (the helpers only write ASCII without quotes).
    #[must_use]
    pub fn str(self, key: &str, v: &str) -> Self {
        let quoted = format!("\"{}\"", v.replace(['"', '\\'], "_"));
        self.raw(key, &quoted)
    }

    /// The finished object.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// One traced span as the helpers report it: times are nanoseconds since
/// the helper started, `parent` indexes an earlier span of the same list.
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Renders spans as a JSON array for `run.py`'s tracer to adopt.
#[must_use]
pub fn spans_json(spans: &[Span]) -> String {
    let items: Vec<String> = spans
        .iter()
        .map(|s| {
            let o = JsonObj::default()
                .str("name", &s.name)
                .num("start", s.start as f64)
                .num("end", s.end as f64);
            match s.parent {
                Some(p) => o.num("parent", p as f64),
                None => o.raw("parent", "null"),
            }
            .finish()
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_seeded() {
        assert_eq!(payload(7, 100), payload(7, 100));
        assert_ne!(payload(7, 100), payload(8, 100));
        assert_eq!(payload(7, 13).len(), 13);
    }

    #[test]
    fn alloc_stream_maps_handles_densely() {
        let p = program("cfrac", 0.01, 1);
        let (stream, handles) = alloc_stream(&p);
        assert_eq!(stream.iter().filter(|(_, s)| s.is_some()).count(), handles);
        assert!(stream.iter().all(|&(h, _)| h < handles));
    }
}
