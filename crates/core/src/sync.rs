//! Allocation-free synchronization primitives for the sharded heap.
//!
//! Two constraints shape everything here. First, these primitives guard an
//! *allocator*: general-purpose mutexes (including `parking_lot`) may lazily
//! allocate per-thread parking state on contention, which would re-enter the
//! allocator mid-operation, so both the lock and the once-cell must never
//! allocate. Second, the sharded heap takes one [`SpinLock`] per size class:
//! critical sections are a handful of bitmap probes, which is exactly the
//! regime where a spinlock with exponential backoff beats a parking mutex.

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::ops::{Deref, DerefMut};
use core::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// A spin-based mutual-exclusion lock.
#[derive(Debug)]
pub struct SpinLock<T> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the lock provides exclusive access to `T` across threads.
unsafe impl<T: Send> Send for SpinLock<T> {}
unsafe impl<T: Send> Sync for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Creates an unlocked lock around `value` (usable in statics).
    pub const fn new(value: T) -> Self {
        Self {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning with exponential backoff until free.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        let mut spins = 0u32;
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Backoff: brief busy-wait, then yield to the scheduler.
            if spins < 10 {
                for _ in 0..(1 << spins) {
                    core::hint::spin_loop();
                }
                spins += 1;
            } else {
                std::thread::yield_now();
            }
        }
        SpinGuard { lock: self }
    }

    /// Acquires the lock *without* a guard, for callers that must release
    /// it from a different stack frame — `pthread_atfork` handlers, where
    /// the prepare hook locks and the parent/child hooks unlock. The value
    /// is deliberately not exposed: raw locking exists to *exclude* other
    /// threads across `fork(2)`, not to access the data.
    ///
    /// Pair every call with exactly one [`raw_unlock`](Self::raw_unlock).
    pub fn raw_lock(&self) {
        core::mem::forget(self.lock());
    }

    /// Releases a lock acquired by [`raw_lock`](Self::raw_lock).
    ///
    /// # Safety
    ///
    /// The caller (or, across `fork`, the thread it forked from) must hold
    /// the lock via `raw_lock`; unlocking a lock held through a
    /// [`SpinGuard`] or not held at all breaks mutual exclusion.
    pub unsafe fn raw_unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

/// RAII guard returned by [`SpinLock::lock`]; releases on drop.
#[derive(Debug)]
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock, so access is exclusive.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

/// [`OnceCell`] initialization states.
const EMPTY: u8 = 0;
const INITIALIZING: u8 = 1;
const READY: u8 = 2;
const FAILED: u8 = 3;

/// A once-initialized cell with lock-free reads, usable in statics.
///
/// After the single successful initialization, [`get`](Self::get) is one
/// `Acquire` load plus a pointer deref — this is what makes the global
/// allocator's header (heap base, page size, config) readable on every
/// `malloc`/`free` without touching any lock. Initialization is fallible:
/// a failed attempt parks the cell in a terminal failed state and every
/// later access returns `None` (the allocator then reports out-of-memory
/// rather than retrying `mmap` storms forever).
#[derive(Debug)]
pub struct OnceCell<T> {
    state: AtomicU8,
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: `&OnceCell<T>` hands out only `&T` after the release/acquire
// handshake on `state`, so sharing requires `T: Send + Sync`; moving the
// cell moves the `T` it may contain.
unsafe impl<T: Send + Sync> Sync for OnceCell<T> {}
unsafe impl<T: Send> Send for OnceCell<T> {}

impl<T> OnceCell<T> {
    /// An empty cell (usable in `static` items).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            state: AtomicU8::new(EMPTY),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// The initialized value, or `None` when initialization has not run,
    /// is in flight on another thread, or failed.
    #[must_use]
    #[inline]
    pub fn get(&self) -> Option<&T> {
        if self.state.load(Ordering::Acquire) == READY {
            // SAFETY: READY is published with Release after the value was
            // fully written and is never unset, so the acquire load above
            // makes the initialized value visible.
            Some(unsafe { (*self.value.get()).assume_init_ref() })
        } else {
            None
        }
    }

    /// Returns the value, running `init` to produce it on first call.
    ///
    /// Exactly one thread runs `init`; racing threads spin until the winner
    /// publishes. When `init` returns `None` the cell is left in a terminal
    /// failed state and this (and every later) call returns `None`. Once
    /// initialized this is [`get`](Self::get): one `Acquire` load, no RMW.
    #[inline]
    pub fn get_or_try_init(&self, init: impl FnOnce() -> Option<T>) -> Option<&T> {
        self.get().or_else(|| self.try_init(init))
    }

    #[cold]
    #[inline(never)]
    fn try_init(&self, init: impl FnOnce() -> Option<T>) -> Option<&T> {
        loop {
            match self.state.compare_exchange(
                EMPTY,
                INITIALIZING,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // We own initialization.
                    return match init() {
                        Some(value) => {
                            // SAFETY: state is INITIALIZING, so no other
                            // thread reads or writes the slot.
                            unsafe { (*self.value.get()).write(value) };
                            self.state.store(READY, Ordering::Release);
                            self.get()
                        }
                        None => {
                            self.state.store(FAILED, Ordering::Release);
                            None
                        }
                    };
                }
                Err(READY) => return self.get(),
                Err(FAILED) => return None,
                Err(_) => {
                    // Another thread is initializing; the allocator cannot
                    // park (parking may allocate), so spin politely.
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl<T> Drop for OnceCell<T> {
    fn drop(&mut self) {
        if *self.state.get_mut() == READY {
            // SAFETY: READY guarantees the slot holds an initialized value,
            // and `&mut self` guarantees no outstanding references.
            unsafe { self.value.get_mut().assume_init_drop() };
        }
    }
}

impl<T> Default for OnceCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exclusive_increment_across_threads() {
        let lock = Arc::new(SpinLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    *lock.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 80_000);
    }

    #[test]
    fn raw_lock_excludes_and_raw_unlock_releases() {
        let lock = SpinLock::new(0u32);
        lock.raw_lock();
        assert!(
            lock.locked.load(Ordering::Relaxed),
            "raw_lock must hold the lock"
        );
        // SAFETY: held via raw_lock on the line above.
        unsafe { lock.raw_unlock() };
        assert!(!lock.locked.load(Ordering::Relaxed), "raw_unlock released");
        assert_eq!(*lock.lock(), 0);
    }

    #[test]
    fn guard_releases_on_drop() {
        let lock = SpinLock::new(5);
        {
            let mut g = lock.lock();
            *g = 6;
        }
        assert_eq!(*lock.lock(), 6);
    }

    #[test]
    fn once_cell_initializes_exactly_once() {
        let cell = Arc::new(OnceCell::new());
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cell = Arc::clone(&cell);
            let hits = Arc::clone(&hits);
            handles.push(std::thread::spawn(move || {
                *cell
                    .get_or_try_init(|| {
                        hits.fetch_add(1, Ordering::SeqCst);
                        Some(t)
                    })
                    .unwrap()
            }));
        }
        let values: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "one initializer ran");
        assert!(values.windows(2).all(|w| w[0] == w[1]), "all saw one value");
        assert_eq!(cell.get().copied(), Some(values[0]));
    }

    #[test]
    fn once_cell_failure_is_terminal() {
        let cell: OnceCell<u32> = OnceCell::new();
        assert_eq!(cell.get_or_try_init(|| None), None);
        // A later retry with a working initializer still reports failure:
        // the allocator must not loop retrying mmap after the first OOM.
        assert_eq!(cell.get_or_try_init(|| Some(7)), None);
        assert_eq!(cell.get(), None);
    }

    #[test]
    fn once_cell_drops_value() {
        struct Bomb(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Bomb {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        {
            let cell = OnceCell::new();
            cell.get_or_try_init(|| Some(Bomb(Arc::clone(&drops))));
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
