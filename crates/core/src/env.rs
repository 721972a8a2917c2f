//! Audited parsing for the `DIEHARD_*` environment knobs.
//!
//! Every environment read the allocator performs funnels through this
//! module, so the whole knob surface has one parsing contract:
//!
//! * **Strict decimal.** A value is accepted only when it is a non-empty
//!   run of ASCII digits whose value fits the target type. Anything else —
//!   empty string, sign, whitespace, hex, overflow — is *malformed* and
//!   treated exactly like an unset variable, falling back to the knob's
//!   documented default. Malformed input never panics: these parsers run
//!   inside allocator initialization, where a panic would try to allocate
//!   and recurse.
//! * **No allocation.** The readers walk the `getenv` C string into a
//!   fixed stack buffer; a value longer than the longest representable
//!   `u64` (20 digits) cannot be in range, so oversized values are
//!   malformed by construction. This keeps the readers callable from
//!   inside `malloc` itself (the `global` allocator and the `LD_PRELOAD`
//!   interposer both initialize lazily on first allocation).
//! * **Clamped ranges.** Knobs with a bounded domain (`DIEHARD_GROW`'s
//!   fraction exponent) are clamped here, in one place, instead of being
//!   truncated ad hoc at the use site.
//!
//! The pure parsers are always available (and unit-tested without any
//! process-global state); the `getenv`-backed readers exist only with the
//! `global` feature on Unix, alongside the allocator that uses them.
//!
//! | Variable            | Meaning                                  | Default    |
//! |---------------------|------------------------------------------|------------|
//! | `DIEHARD_SEED`      | master RNG seed                          | entropy    |
//! | `DIEHARD_REGION_MB` | per-class region megabytes               | 32 (min 1) |
//! | `DIEHARD_M`         | expansion factor `M`                     | 2 (min 1)  |
//! | `DIEHARD_GROW`      | elastic start fraction `1/2^n` (`n`≤63)  | 4 (1/16)   |
//!
//! An environment-configured heap is always elastic
//! ([`HeapConfig::grow`](crate::config::HeapConfig::grow)): a class denied
//! at its full size spills to a dedicated mapping instead of returning
//! null, and `DIEHARD_GROW=0` means born full but still spilling.

/// Largest accepted `DIEHARD_GROW` exponent: a class starting at `1/2^63`
/// of its maximum is already a degenerate single-doubling ladder, and the
/// geometry's shift arithmetic lives in `u64` space. Values above this are
/// clamped (the intent "start tiny" is preserved), never truncated bit-wise
/// — `DIEHARD_GROW=4294967296` used to truncate through `as u32` to `0`,
/// silently meaning "start at full size".
pub const MAX_GROW_LOG2: u32 = 63;

/// Default `DIEHARD_GROW`: classes begin at 1/16 of their configured
/// maximum — small enough that an interposed `cat` does not fault in twelve
/// full regions, large enough that typical programs never grow at all.
pub const DEFAULT_GROW_LOG2: u32 = 4;

/// Default `DIEHARD_REGION_MB`: 32 MB per class, the paper's 384 MB heap.
pub const DEFAULT_REGION_MB: u64 = 32;

/// Default `DIEHARD_M`: the paper's evaluation multiplier.
pub const DEFAULT_MULTIPLIER: u64 = 2;

/// Strict decimal parse: `Some(value)` iff `bytes` is a non-empty ASCII
/// digit run whose value fits a `u64`. No sign, no whitespace, no radix
/// prefixes; leading zeros are fine.
#[must_use]
pub fn parse_u64(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() {
        return None;
    }
    let mut value: u64 = 0;
    for &b in bytes {
        if !b.is_ascii_digit() {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some(value)
}

/// Parses a `DIEHARD_GROW` value: strict decimal, then clamped to
/// [`MAX_GROW_LOG2`]. Malformed input is `None` (the reader then falls
/// back to [`DEFAULT_GROW_LOG2`]).
#[must_use]
pub fn parse_grow(bytes: &[u8]) -> Option<u32> {
    parse_u64(bytes).map(clamp_grow)
}

/// The one `DIEHARD_GROW` clamp, shared by the parser and the reader.
fn clamp_grow(g: u64) -> u32 {
    g.min(u64::from(MAX_GROW_LOG2)) as u32
}

#[cfg(all(feature = "global", unix))]
mod readers {
    use super::{clamp_grow, parse_u64, DEFAULT_GROW_LOG2, DEFAULT_MULTIPLIER, DEFAULT_REGION_MB};

    /// Longest value worth reading: `u64::MAX` has 20 digits; anything
    /// longer is out of range (or has leading zeros past any sane use) and
    /// is treated as malformed.
    const VALUE_MAX: usize = 20;

    /// Reads environment variable `name` (NUL-terminated literal) as a
    /// strict decimal `u64` without allocating. `None` when unset,
    /// malformed, or longer than 20 bytes (`u64::MAX` has 20 digits).
    #[must_use]
    pub fn read_u64(name: &'static str) -> Option<u64> {
        debug_assert!(name.ends_with('\0'), "env names must be NUL-terminated");
        // SAFETY: `name` is NUL-terminated; getenv does not allocate.
        let raw = unsafe { libc::getenv(name.as_ptr().cast::<libc::c_char>()) };
        if raw.is_null() {
            return None;
        }
        let mut buf = [0u8; VALUE_MAX];
        let mut len = 0;
        loop {
            // SAFETY: `raw + len` walks the NUL-terminated getenv string;
            // every byte before the terminator is readable.
            let c = unsafe { *raw.add(len) } as u8;
            if c == 0 {
                break;
            }
            if len == VALUE_MAX {
                return None; // longer than any in-range value
            }
            buf[len] = c;
            len += 1;
        }
        parse_u64(&buf[..len])
    }

    /// `DIEHARD_SEED`: `Some(seed)` when set and well-formed, else `None`
    /// (the allocator then draws true entropy).
    #[must_use]
    pub fn seed() -> Option<u64> {
        read_u64("DIEHARD_SEED\0")
    }

    /// `DIEHARD_GROW`: the elastic start-fraction exponent, default
    /// [`DEFAULT_GROW_LOG2`], clamped to
    /// [`MAX_GROW_LOG2`](super::MAX_GROW_LOG2).
    #[must_use]
    pub fn grow() -> u32 {
        read_u64("DIEHARD_GROW\0").map_or(DEFAULT_GROW_LOG2, clamp_grow)
    }

    /// `DIEHARD_REGION_MB`: per-class region megabytes, default
    /// [`DEFAULT_REGION_MB`], floored at 1 (a zero-byte region is not a
    /// heap).
    #[must_use]
    pub fn region_mb() -> u64 {
        read_u64("DIEHARD_REGION_MB\0")
            .unwrap_or(DEFAULT_REGION_MB)
            .max(1)
    }

    /// `DIEHARD_M`: the expansion factor, default [`DEFAULT_MULTIPLIER`],
    /// floored at 1 (`M < 1` would cap classes below their own capacity).
    #[must_use]
    pub fn multiplier() -> u64 {
        read_u64("DIEHARD_M\0").unwrap_or(DEFAULT_MULTIPLIER).max(1)
    }
}

#[cfg(all(feature = "global", unix))]
pub use readers::{grow, multiplier, read_u64, region_mb, seed};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_plain_decimal() {
        assert_eq!(parse_u64(b"0"), Some(0));
        assert_eq!(parse_u64(b"12345"), Some(12345));
        assert_eq!(parse_u64(b"00042"), Some(42));
        assert_eq!(parse_u64(b"18446744073709551615"), Some(u64::MAX));
    }

    #[test]
    fn parse_rejects_everything_else() {
        for bad in [
            &b""[..],
            b" 1",
            b"1 ",
            b"-1",
            b"+1",
            b"0x10",
            b"1e3",
            b"12x45",
            b"18446744073709551616", // u64::MAX + 1
            b"99999999999999999999999999",
        ] {
            assert_eq!(parse_u64(bad), None, "{:?}", core::str::from_utf8(bad));
        }
    }

    #[test]
    fn grow_clamps_instead_of_truncating() {
        assert_eq!(parse_grow(b"6"), Some(6));
        assert_eq!(parse_grow(b"63"), Some(63));
        // The old `as u32` cast turned 2^32 into 0 ("start at full size");
        // the audited parser clamps to the largest meaningful exponent.
        assert_eq!(parse_grow(b"4294967296"), Some(MAX_GROW_LOG2));
        assert_eq!(parse_grow(b"18446744073709551615"), Some(MAX_GROW_LOG2));
        assert_eq!(parse_grow(b"sideways"), None);
        assert_eq!(parse_grow(b""), None);
    }

    #[cfg(all(feature = "global", unix))]
    mod getenv_backed {
        use super::super::*;

        // One test mutating one process-global variable, serialized with
        // nothing: no other test in the workspace reads this name.
        #[test]
        fn read_u64_walks_real_environment() {
            std::env::set_var("DIEHARD_ENV_MODULE_TEST", "12345");
            assert_eq!(read_u64("DIEHARD_ENV_MODULE_TEST\0"), Some(12345));
            std::env::set_var("DIEHARD_ENV_MODULE_TEST", "12x45");
            assert_eq!(read_u64("DIEHARD_ENV_MODULE_TEST\0"), None);
            std::env::set_var("DIEHARD_ENV_MODULE_TEST", "184467440737095516151");
            assert_eq!(read_u64("DIEHARD_ENV_MODULE_TEST\0"), None, "21 digits");
            std::env::remove_var("DIEHARD_ENV_MODULE_TEST");
            assert_eq!(read_u64("DIEHARD_ENV_MODULE_TEST\0"), None);
        }

        #[test]
        fn defaults_apply_when_unset() {
            // These names are never set by the test harness.
            assert_eq!(region_mb(), DEFAULT_REGION_MB);
            assert_eq!(multiplier(), DEFAULT_MULTIPLIER);
            assert_eq!(grow(), DEFAULT_GROW_LOG2);
        }
    }
}
