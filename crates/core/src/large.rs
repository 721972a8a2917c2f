//! The large-object validity table.
//!
//! Objects above 16 KB bypass the randomized regions: DieHard "allocates
//! larger objects directly using mmap and places guard pages without read or
//! write access on either end" (§4.1), recording each address "in a table
//! for validity checking by DieHardFree" (§4.2). `freeLargeObject` consults
//! the table and *ignores* requests for addresses it never handed out
//! (§4.3) — this is DieHard's invalid-free immunity for the large path.
//!
//! The table is a fixed-capacity open-addressing hash map from address to
//! size. It never allocates after construction, so the global allocator can
//! host it in its segregated metadata arena.

/// Slot states for open addressing. Addresses are never 0 or 1 in practice
/// (0 = never used, 1 = tombstone).
const EMPTY: usize = 0;
const TOMBSTONE: usize = 1;

/// A fixed-capacity address → size table with open addressing.
///
/// # Examples
///
/// ```
/// use diehard_core::large::LargeTable;
///
/// let mut t = LargeTable::new(64);
/// assert!(t.insert(0x1000, 20_000));
/// assert_eq!(t.get(0x1000), Some(20_000));
/// assert_eq!(t.remove(0x1000), Some(20_000));
/// assert_eq!(t.remove(0x1000), None); // double free: ignored by caller
/// ```
#[derive(Debug)]
pub struct LargeTable {
    keys: Storage,
    sizes: Storage,
    capacity: usize,
    len: usize,
}

#[derive(Debug)]
enum Storage {
    Owned(Vec<usize>),
    Raw(*mut usize, usize),
}

// SAFETY: raw storage is exclusively owned by the table; the global
// allocator serializes access behind its lock.
unsafe impl Send for LargeTable {}
unsafe impl Sync for LargeTable {}

impl Storage {
    #[inline]
    fn slice(&self) -> &[usize] {
        match self {
            Storage::Owned(v) => v,
            // SAFETY: valid-for-len per `from_storage`'s contract.
            Storage::Raw(p, n) => unsafe { core::slice::from_raw_parts(*p, *n) },
        }
    }

    #[inline]
    fn slice_mut(&mut self) -> &mut [usize] {
        match self {
            Storage::Owned(v) => v,
            // SAFETY: as above, exclusive via `&mut`.
            Storage::Raw(p, n) => unsafe { core::slice::from_raw_parts_mut(*p, *n) },
        }
    }
}

impl LargeTable {
    /// Creates a table able to hold `capacity` entries (rounded up to a
    /// power of two; sized ×2 internally to keep probe chains short).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2`. (This constructor's internal ×2 sizing
    /// could not itself overflow the hash shift, but sub-2 capacities are
    /// rejected uniformly with [`Self::from_storage`], where `capacity` is
    /// the literal table size and a one-slot table shifts by
    /// `64 - trailing_zeros(1) = 64` — a debug panic, silent masking in
    /// release.)
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "LargeTable capacity must be at least 2");
        let cap = (capacity.max(4) * 2).next_power_of_two();
        Self {
            keys: Storage::Owned(vec![EMPTY; cap]),
            sizes: Storage::Owned(vec![0; cap]),
            capacity: cap,
            len: 0,
        }
    }

    /// Creates a table over two caller-provided zeroed `usize` arrays of
    /// length `capacity` (a power of two).
    ///
    /// # Safety
    ///
    /// Both pointers must be valid for `capacity` usizes for the table's
    /// lifetime, exclusively owned by it, and zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two, or is less than 2 (a
    /// one-slot table would overflow the hash shift).
    #[must_use]
    pub unsafe fn from_storage(keys: *mut usize, sizes: *mut usize, capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        assert!(capacity >= 2, "LargeTable capacity must be at least 2");
        Self {
            keys: Storage::Raw(keys, capacity),
            sizes: Storage::Raw(sizes, capacity),
            capacity,
            len: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no large objects are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn hash(&self, addr: usize) -> usize {
        // Fibonacci hashing: cheap and good on page-aligned addresses.
        addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.capacity.trailing_zeros()) as usize
            & (self.capacity - 1)
    }

    /// Records `addr → size`. Returns `false` (rejecting the insert) when
    /// the table is full or the address is already present.
    pub fn insert(&mut self, addr: usize, size: usize) -> bool {
        debug_assert!(addr > TOMBSTONE, "addresses 0/1 are reserved sentinels");
        if self.len * 2 >= self.capacity {
            return false; // keep load factor <= 1/2
        }
        let mut i = self.hash(addr);
        let mut first_tomb = None;
        loop {
            let k = self.keys.slice()[i];
            if k == addr {
                return false;
            }
            if k == TOMBSTONE && first_tomb.is_none() {
                first_tomb = Some(i);
            }
            if k == EMPTY {
                let dst = first_tomb.unwrap_or(i);
                self.keys.slice_mut()[dst] = addr;
                self.sizes.slice_mut()[dst] = size;
                self.len += 1;
                return true;
            }
            i = (i + 1) & (self.capacity - 1);
        }
    }

    /// Looks up the recorded size for `addr`; `None` for the sentinel
    /// addresses 0 and 1, which no entry can have.
    #[must_use]
    pub fn get(&self, addr: usize) -> Option<usize> {
        if addr <= TOMBSTONE {
            return None;
        }
        let mut i = self.hash(addr);
        loop {
            let k = self.keys.slice()[i];
            if k == addr {
                return Some(self.sizes.slice()[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & (self.capacity - 1);
        }
    }

    /// Removes `addr`, returning its size; `None` when the address was never
    /// returned by the large-object allocator (the caller then ignores the
    /// free, per §4.3). The sentinel addresses 0 and 1 are never present.
    pub fn remove(&mut self, addr: usize) -> Option<usize> {
        if addr <= TOMBSTONE {
            return None;
        }
        let mut i = self.hash(addr);
        loop {
            let k = self.keys.slice()[i];
            if k == addr {
                self.keys.slice_mut()[i] = TOMBSTONE;
                self.len -= 1;
                return Some(self.sizes.slice()[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & (self.capacity - 1);
        }
    }

    /// Iterates over `(address, size)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.keys
            .slice()
            .iter()
            .enumerate()
            .filter(|(_, &k)| k > TOMBSTONE)
            .map(|(i, &k)| (k, self.sizes.slice()[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove() {
        let mut t = LargeTable::new(8);
        assert!(t.is_empty());
        assert!(t.insert(0x10_000, 32_768));
        assert!(t.insert(0x20_000, 65_536));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0x10_000), Some(32_768));
        assert_eq!(t.get(0x30_000), None);
        assert_eq!(t.remove(0x10_000), Some(32_768));
        assert_eq!(t.get(0x10_000), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = LargeTable::new(8);
        assert!(t.insert(0x1000, 100));
        assert!(!t.insert(0x1000, 200));
        assert_eq!(t.get(0x1000), Some(100));
    }

    #[test]
    fn remove_unknown_is_none() {
        let mut t = LargeTable::new(8);
        assert_eq!(t.remove(0xDEAD), None);
    }

    #[test]
    fn tombstone_reuse_keeps_lookups_working() {
        let mut t = LargeTable::new(4);
        // Force collisions by inserting many, removing, reinserting.
        for i in 1..=4usize {
            assert!(t.insert(i * 0x1000, i));
        }
        assert_eq!(t.remove(0x2000), Some(2));
        assert!(t.insert(0x5000, 5));
        assert_eq!(t.get(0x1000), Some(1));
        assert_eq!(t.get(0x3000), Some(3));
        assert_eq!(t.get(0x4000), Some(4));
        assert_eq!(t.get(0x5000), Some(5));
    }

    /// A wild pointer equal to a sentinel must not match the empty or
    /// tombstone markers, or a free of `(void *)1` would get a stale size
    /// back (and so a stale mapping to unmap).
    #[test]
    fn sentinel_addresses_never_match() {
        let mut t = LargeTable::new(8);
        let colliding = (2..)
            .map(|a| a * 4096)
            .find(|&a| t.hash(a) == t.hash(TOMBSTONE))
            .unwrap();
        assert!(t.insert(colliding, 7));
        assert_eq!(t.remove(colliding), Some(7)); // leaves a tombstone
        assert_eq!(t.get(TOMBSTONE), None);
        assert_eq!(t.remove(TOMBSTONE), None);
        assert_eq!(t.get(EMPTY), None);
        assert_eq!(t.remove(EMPTY), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn full_table_rejects() {
        let mut t = LargeTable::new(4); // internal capacity 8, max 4 live
        let mut inserted = 0;
        for i in 1..=16usize {
            if t.insert(i * 0x1000, i) {
                inserted += 1;
            }
        }
        assert!(inserted >= 4);
        assert!(inserted < 16, "load factor cap must kick in");
    }

    #[test]
    fn iter_lists_live_entries() {
        let mut t = LargeTable::new(16);
        t.insert(0x1000, 1);
        t.insert(0x2000, 2);
        t.remove(0x1000);
        let entries: Vec<(usize, usize)> = t.iter().collect();
        assert_eq!(entries, vec![(0x2000, 2)]);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn new_rejects_capacity_one() {
        let _ = LargeTable::new(1);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn from_storage_rejects_capacity_one() {
        // Regression: capacity 1 has trailing_zeros() == 0, so hash()'s
        // `>> (64 - 0)` overflowed the shift before the constructor guard.
        let mut keys = vec![0usize; 1];
        let mut sizes = vec![0usize; 1];
        // SAFETY: vectors outlive the (never-created) table.
        let _ = unsafe { LargeTable::from_storage(keys.as_mut_ptr(), sizes.as_mut_ptr(), 1) };
    }

    #[test]
    fn from_storage_minimum_capacity_hashes_safely() {
        // capacity 2 is the smallest legal table: shift is 63, not 64.
        let mut keys = vec![0usize; 2];
        let mut sizes = vec![0usize; 2];
        // SAFETY: vectors outlive the table and are unaliased while it lives.
        let mut t = unsafe { LargeTable::from_storage(keys.as_mut_ptr(), sizes.as_mut_ptr(), 2) };
        assert!(t.insert(0x4000, 7));
        assert_eq!(t.get(0x4000), Some(7));
        assert_eq!(t.remove(0x4000), Some(7));
    }

    #[test]
    fn from_storage_backing() {
        let mut keys = vec![0usize; 16];
        let mut sizes = vec![0usize; 16];
        // SAFETY: vectors outlive the table and are unaliased while it lives.
        let mut t = unsafe { LargeTable::from_storage(keys.as_mut_ptr(), sizes.as_mut_ptr(), 16) };
        assert!(t.insert(0xABC0, 42));
        assert_eq!(t.get(0xABC0), Some(42));
        drop(t);
        assert!(keys.contains(&0xABC0));
    }

    proptest! {
        /// The table matches a HashMap model under arbitrary operations.
        #[test]
        fn model_equivalence(
            ops in proptest::collection::vec((2usize..2_000, 1usize..3, 1usize..100_000), 1..200),
        ) {
            let mut t = LargeTable::new(4096);
            let mut model: HashMap<usize, usize> = HashMap::new();
            for (addr_base, op, size) in ops {
                let addr = addr_base * 8; // realistic aligned addresses, > 1
                match op {
                    1 => {
                        let ok = t.insert(addr, size);
                        let model_ok = !model.contains_key(&addr);
                        prop_assert_eq!(ok, model_ok);
                        if ok {
                            model.insert(addr, size);
                        }
                    }
                    _ => {
                        prop_assert_eq!(t.remove(addr), model.remove(&addr));
                    }
                }
                prop_assert_eq!(t.len(), model.len());
            }
            for (&addr, &size) in &model {
                prop_assert_eq!(t.get(addr), Some(size));
            }
        }
    }
}
