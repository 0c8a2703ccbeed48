//! Model synchronization primitives: atomics whose every operation is a
//! preemption point, plus a blocking-aware `Mutex`/`Condvar` pair.
//!
//! The atomic types are `#[repr(transparent)]` wrappers over the real
//! `std::sync::atomic` types, so swapping them in under the `model` feature
//! never changes the layout of `#[repr(C)]` segment-resident structs. When
//! no exploration is active on the calling thread, every operation falls
//! through to the plain `std` behavior.

use std::cell::UnsafeCell;
use std::sync::atomic::Ordering;

use crate::sched;

/// Preemption point + sequentially consistent fence.
///
/// Under an active exploration this is a scheduling decision; the fence
/// itself is a no-op for the model (interleavings are explored under
/// sequential consistency) but is still executed for the fallthrough case.
pub fn fence(order: Ordering) {
    sched::yield_op();
    std::sync::atomic::fence(order);
}

macro_rules! model_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty, extra = { $($extra:tt)* }) => {
        $(#[$doc])*
        #[repr(transparent)]
        #[derive(Default)]
        pub struct $name($std);

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub const fn new(v: $prim) -> Self {
                Self(<$std>::new(v))
            }

            /// Model-checked `load`: a preemption point, then the real load.
            pub fn load(&self, order: Ordering) -> $prim {
                sched::yield_op();
                self.0.load(order)
            }

            /// Model-checked `store`.
            pub fn store(&self, v: $prim, order: Ordering) {
                sched::yield_op();
                self.0.store(v, order)
            }

            /// Model-checked `swap`.
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                sched::yield_op();
                self.0.swap(v, order)
            }

            /// Model-checked `compare_exchange`. The whole CAS is one
            /// atomic step (a single preemption point).
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                sched::yield_op();
                self.0.compare_exchange(current, new, success, failure)
            }

            /// Model-checked `compare_exchange_weak`. The model never fails
            /// it spuriously; spurious failure is a subset of the CAS-lost
            /// behaviors already explored.
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                sched::yield_op();
                self.0.compare_exchange_weak(current, new, success, failure)
            }

            /// Model-checked `fetch_or`.
            pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                sched::yield_op();
                self.0.fetch_or(v, order)
            }

            /// Model-checked `fetch_and`.
            pub fn fetch_and(&self, v: $prim, order: Ordering) -> $prim {
                sched::yield_op();
                self.0.fetch_and(v, order)
            }

            /// Model-checked `fetch_xor`.
            pub fn fetch_xor(&self, v: $prim, order: Ordering) -> $prim {
                sched::yield_op();
                self.0.fetch_xor(v, order)
            }

            /// Exclusive access needs no preemption point (`&mut self`).
            pub fn get_mut(&mut self) -> &mut $prim {
                self.0.get_mut()
            }

            /// Consumes the atomic, returning the contained value.
            pub fn into_inner(self) -> $prim {
                self.0.into_inner()
            }

            $($extra)*
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.fmt(f)
            }
        }

        impl From<$prim> for $name {
            fn from(v: $prim) -> Self {
                Self::new(v)
            }
        }
    };
}

macro_rules! model_atomic_int_ops {
    ($prim:ty) => {
        /// Model-checked `fetch_add`.
        pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
            sched::yield_op();
            self.0.fetch_add(v, order)
        }

        /// Model-checked `fetch_sub`.
        pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
            sched::yield_op();
            self.0.fetch_sub(v, order)
        }

        /// Model-checked `fetch_max`.
        pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
            sched::yield_op();
            self.0.fetch_max(v, order)
        }

        /// Model-checked `fetch_min`.
        pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
            sched::yield_op();
            self.0.fetch_min(v, order)
        }
    };
}

model_atomic!(
    /// Model-checked drop-in for `std::sync::atomic::AtomicU32`.
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32,
    extra = { model_atomic_int_ops!(u32); }
);

model_atomic!(
    /// Model-checked drop-in for `std::sync::atomic::AtomicU64`.
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64,
    extra = { model_atomic_int_ops!(u64); }
);

model_atomic!(
    /// Model-checked drop-in for `std::sync::atomic::AtomicUsize`.
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize,
    extra = { model_atomic_int_ops!(usize); }
);

model_atomic!(
    /// Model-checked drop-in for `std::sync::atomic::AtomicBool`.
    AtomicBool,
    std::sync::atomic::AtomicBool,
    bool,
    extra = {}
);

// ---------------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------------

/// A mutex whose blocking is visible to the model scheduler.
///
/// Inside an exploration, contended `lock` deschedules the virtual thread
/// until the holder unlocks (so deadlocks are detected, not hung on).
/// Outside an exploration it degrades to a spin lock — acceptable because
/// model builds only ever run the dedicated model test targets.
pub struct Mutex<T> {
    locked: std::sync::atomic::AtomicBool,
    cell: UnsafeCell<T>,
}

// SAFETY: the lock protocol guarantees exclusive access to `cell` between
// lock and unlock, mirroring std::sync::Mutex.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above; `&Mutex<T>` only hands out `&mut T` through the guard.
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Self {
            locked: std::sync::atomic::AtomicBool::new(false),
            cell: UnsafeCell::new(value),
        }
    }

    fn key(&self) -> u64 {
        self as *const Self as usize as u64
    }

    fn lock_raw(&self) {
        if sched::in_model() {
            loop {
                sched::yield_op();
                if self
                    .locked
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                sched::block_on(self.key());
            }
        } else {
            while self
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                std::thread::yield_now();
            }
        }
    }

    fn unlock_raw(&self) {
        self.locked.store(false, Ordering::Release);
        if sched::in_model() {
            sched::unblock_all(self.key());
        }
    }

    /// Acquires the mutex, descheduling (in model runs) while contended.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.lock_raw();
        MutexGuard { m: self }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.cell.into_inner()
    }
}

/// RAII guard for [`Mutex`]; unlocks on drop.
pub struct MutexGuard<'a, T> {
    m: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard witnesses exclusive ownership of the lock, so
        // dereferencing the cell cannot race.
        unsafe { &*self.m.cell.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, plus `&mut self` forbids aliasing guards.
        unsafe { &mut *self.m.cell.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.m.unlock_raw();
    }
}

/// A condition variable paired with [`Mutex`], visible to the model
/// scheduler: waiting deschedules the virtual thread, and a notify with no
/// waiter is lost exactly as in the real world — which is precisely the
/// class of bug the epoch protocols under test exist to prevent.
pub struct Condvar {
    /// Fallback path (no active exploration): wakeup generation counter.
    epoch: std::sync::atomic::AtomicU64,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            epoch: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn key(&self) -> u64 {
        self as *const Self as usize as u64
    }

    /// Releases the guard's mutex, waits for a notification, reacquires.
    ///
    /// In model runs the release and the wait registration are one atomic
    /// scheduling step, so the model itself cannot lose a wakeup that the
    /// real `std::sync::Condvar` would have delivered.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let m = guard.m;
        if sched::in_model() {
            m.unlock_raw();
            sched::block_on(self.key());
            m.lock_raw();
        } else {
            let e = self.epoch.load(Ordering::Acquire);
            m.unlock_raw();
            while self.epoch.load(Ordering::Acquire) == e {
                std::thread::yield_now();
            }
            m.lock_raw();
        }
    }

    /// Like [`Condvar::wait`] with a timeout; returns whether it timed out.
    ///
    /// A timeout may expire at any moment, so model runs take the
    /// timeout at once: release, one preemption point, reacquire. That
    /// covers every interleaving a timed wait allows, and a schedule can
    /// never hang on it.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        let m = guard.m;
        if sched::in_model() {
            m.unlock_raw();
            sched::yield_explicit();
            m.lock_raw();
            return true;
        }
        let e = self.epoch.load(Ordering::Acquire);
        let deadline = std::time::Instant::now().checked_add(timeout);
        m.unlock_raw();
        let mut timed_out = false;
        while self.epoch.load(Ordering::Acquire) == e {
            if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                timed_out = true;
                break;
            }
            std::thread::yield_now();
        }
        m.lock_raw();
        timed_out
    }

    /// Wakes one waiter, if any.
    pub fn notify_one(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        if sched::in_model() {
            sched::unblock_one(self.key());
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        if sched::in_model() {
            sched::unblock_all(self.key());
        }
    }
}
