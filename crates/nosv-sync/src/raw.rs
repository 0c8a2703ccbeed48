//! A plain-old-data spinlock for placement inside shared-memory segments.

use crate::hint::{AtomicU32, Ordering};
use crate::Backoff;

/// A spinlock whose entire state is a single `AtomicU32`.
///
/// Unlike a `std` mutex, this type does not own the data it protects:
/// shared-memory data structures in `nosv-shmem` embed a `RawSpinMutex` next
/// to the fields it guards, because the segment must contain only
/// position-independent, fixed-layout state (no host pointers, no `std`
/// types with private layout). The caller is responsible for pairing
/// [`RawSpinMutex::lock`] with [`RawSpinMutex::unlock`]; a scoped
/// [`RawSpinMutex::with`] helper covers the common case.
///
/// Layout: 4 bytes, alignment 4, zero-initialized == unlocked, so a freshly
/// `memset(0)` segment contains valid unlocked mutexes.
#[repr(transparent)]
pub struct RawSpinMutex {
    state: AtomicU32,
}

const UNLOCKED: u32 = 0;
const LOCKED: u32 = 1;

impl RawSpinMutex {
    /// Creates an unlocked mutex.
    pub const fn new() -> Self {
        RawSpinMutex {
            state: AtomicU32::new(UNLOCKED),
        }
    }

    /// Acquires the lock, spinning with backoff.
    #[inline]
    pub fn lock(&self) {
        let mut backoff = Backoff::new();
        loop {
            if self.try_lock() {
                return;
            }
            while self.state.load(Ordering::Relaxed) == LOCKED {
                backoff.snooze();
            }
        }
    }

    /// Attempts to acquire the lock without waiting.
    #[inline]
    pub fn try_lock(&self) -> bool {
        self.state.load(Ordering::Relaxed) == UNLOCKED
            && self
                .state
                .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the lock was not held — releasing an
    /// unheld lock is always a caller bug.
    #[inline]
    pub fn unlock(&self) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), LOCKED);
        self.state.store(UNLOCKED, Ordering::Release);
    }

    /// Runs `f` with the lock held.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.lock();
        // A panic in `f` leaves the mutex locked. That mirrors the behaviour
        // of a crashed lock-holding process in real shared memory, which the
        // paper's threat model (§3.6) explicitly accepts; we keep the same
        // semantics rather than masking it with an unlock-on-unwind.
        let r = f();
        self.unlock();
        r
    }

    /// Whether the lock is currently held (racy; for diagnostics only).
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) == LOCKED
    }
}

impl Default for RawSpinMutex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn layout_is_pod_compatible() {
        assert_eq!(std::mem::size_of::<RawSpinMutex>(), 4);
        assert_eq!(std::mem::align_of::<RawSpinMutex>(), 4);
        // Zeroed state must be the unlocked state.
        // SAFETY: RawSpinMutex is a bare atomic word; all-zero is valid.
        let m: RawSpinMutex = unsafe { std::mem::zeroed() };
        assert!(!m.is_locked());
        assert!(m.try_lock());
    }

    #[test]
    fn with_provides_exclusion() {
        const THREADS: usize = 4;
        const ITERS: usize = if cfg!(miri) { 100 } else { 5_000 };
        struct Shared {
            mutex: RawSpinMutex,
            counter: std::cell::UnsafeCell<usize>,
        }
        // SAFETY: every access to `counter` goes through `mutex`.
        unsafe impl Sync for Shared {}
        let shared = Arc::new(Shared {
            mutex: RawSpinMutex::new(),
            counter: std::cell::UnsafeCell::new(0),
        });
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let s = Arc::clone(&shared);
                thread::spawn(move || {
                    for _ in 0..ITERS {
                        // SAFETY: `with` holds the lock across the increment.
                        s.mutex.with(|| unsafe { *s.counter.get() += 1 });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all workers are joined, so no concurrent access remains.
        assert_eq!(unsafe { *shared.counter.get() }, THREADS * ITERS);
    }

    #[test]
    fn try_lock_reflects_state() {
        let m = RawSpinMutex::new();
        assert!(m.try_lock());
        assert!(m.is_locked());
        assert!(!m.try_lock());
        m.unlock();
        assert!(!m.is_locked());
    }
}
