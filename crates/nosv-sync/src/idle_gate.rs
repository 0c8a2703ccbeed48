//! Event-counted idle gate: sleep exactly until something happens.
//!
//! The classic *eventcount* pattern splits blocking into a wait-free
//! producer side and a three-step consumer side, eliminating both the
//! periodic-poll timeout and the producer-side mutex of a plain
//! mutex/condvar gate:
//!
//! * a consumer (an idle worker) calls [`IdleGate::prepare_wait`] to
//!   capture the current event epoch, re-checks its predicate ("is there
//!   work?"), and only then calls [`IdleGate::wait`] with the captured key;
//! * a producer (a task submitter) makes its work visible and bumps the
//!   epoch with [`IdleGate::notify_one`]/[`IdleGate::notify_all`] — a
//!   single `fetch_add` plus a sleeper check in the common no-sleeper case.
//!
//! [`IdleGate::wait`] blocks only if the epoch still equals the key, so a
//! notification that lands between the predicate check and the sleep is
//! never lost: the epoch has moved and `wait` returns immediately. This is
//! the protocol nOS-V needs for its futex-idle behaviour (paper §5.2's
//! "oversubscription idle" baseline — never busy-wait, never poll).
//!
//! # Memory ordering
//!
//! The lost-wakeup argument is a store-buffer (Dekker) pattern and needs
//! sequential consistency on the epoch and sleeper counters:
//!
//! * consumer: `sleepers += 1` (inside the mutex), **then** reads `epoch`;
//! * producer: bumps `epoch`, **then** reads `sleepers`.
//!
//! In any SeqCst total order at least one side observes the other: either
//! the consumer sees the bumped epoch (returns without sleeping), or the
//! producer sees `sleepers > 0` and takes the mutex to deliver a condvar
//! notification — and because the consumer holds that mutex from its epoch
//! check until the condvar wait parks it, the notification cannot land in
//! between.
//!
//! ```
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::sync::Arc;
//! use nosv_sync::IdleGate;
//!
//! let gate = Arc::new(IdleGate::new());
//! let ready = Arc::new(AtomicBool::new(false));
//! let (g, r) = (Arc::clone(&gate), Arc::clone(&ready));
//! let consumer = std::thread::spawn(move || loop {
//!     let key = g.prepare_wait();
//!     if r.load(Ordering::Acquire) {
//!         break; // predicate satisfied, never sleeps
//!     }
//!     g.wait(key);
//! });
//! ready.store(true, Ordering::Release);
//! gate.notify_one();
//! consumer.join().unwrap();
//! ```

use std::time::Duration;

use crate::hint::{AtomicU64, Condvar, Mutex, Ordering};

/// An event-counted gate for idle threads; see the module docs for the
/// protocol and its lost-wakeup argument.
pub struct IdleGate {
    /// Event epoch: bumped by every notification.
    epoch: AtomicU64,
    /// Threads currently committed to sleeping (incremented under `mutex`).
    sleepers: AtomicU64,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl IdleGate {
    /// Creates a gate with no pending events and no sleepers.
    pub fn new() -> IdleGate {
        IdleGate {
            epoch: AtomicU64::new(0),
            sleepers: AtomicU64::new(0),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Captures the current event epoch.
    ///
    /// Call this **before** re-checking the wait predicate; pass the
    /// returned key to [`IdleGate::wait`]. Any notification after this
    /// call makes that `wait` return immediately.
    #[inline]
    pub fn prepare_wait(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Like [`IdleGate::wait`], preceded by a bounded adaptive spin: up to
    /// `rounds` backoff steps (escalating from `spin_loop` hints to OS
    /// yields) watching the epoch before committing to the futex-style
    /// sleep. A notification that lands during the spin is consumed
    /// without any mutex, condvar or kernel transition — the "standby
    /// worker" fast path that lets a fully idle runtime absorb a serial
    /// task stream without paying one futex wake per task.
    ///
    /// `rounds == 0` is exactly [`IdleGate::wait`]. Every spinner burns a
    /// core the workload could use, so callers bound who spins: `CpuGates`
    /// elects one idle CPU at a time, and a task waiter spins only while
    /// nothing is queued ([`IdleGate::wait_spin_while`]).
    pub fn wait_spin(&self, key: u64, rounds: u32) {
        self.wait_spin_while(key, rounds, || true);
    }

    /// [`IdleGate::wait_spin`] that also stops spinning, and sleeps at
    /// once, as soon as `keep_spinning` returns `false` (checked before
    /// every backoff step). A task waiter passes "no queued work", so its
    /// spin never delays work a core could run.
    pub fn wait_spin_while(&self, key: u64, rounds: u32, mut keep_spinning: impl FnMut() -> bool) {
        let mut backoff = crate::Backoff::new();
        for _ in 0..rounds {
            if self.epoch.load(Ordering::SeqCst) != key {
                return;
            }
            if !keep_spinning() {
                break;
            }
            backoff.snooze();
        }
        self.wait(key);
    }

    /// Blocks until a notification arrives after `key` was captured.
    ///
    /// Returns immediately if one already has. Spurious returns are
    /// allowed (callers loop on their predicate anyway).
    pub fn wait(&self, key: u64) {
        self.park(key, None);
    }

    /// [`IdleGate::wait`] bounded by `timeout`: also returns once
    /// `timeout` has passed without a notification.
    pub fn wait_timeout(&self, key: u64, timeout: Duration) {
        self.park(key, Some(timeout));
    }

    /// The one sleep path of [`IdleGate::wait`] and
    /// [`IdleGate::wait_timeout`].
    fn park(&self, key: u64, timeout: Option<Duration>) {
        let mut guard = self.mutex.lock();
        // Commit to sleeping *before* the epoch check (see module docs:
        // the producer reads `sleepers` after bumping the epoch, so one
        // side always sees the other).
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) == key {
            match timeout {
                None => self.cv.wait(&mut guard),
                Some(t) => {
                    self.cv.wait_for(&mut guard, t);
                }
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Signals one sleeping thread that an event happened.
    ///
    /// Wait-free when nobody sleeps (one `fetch_add` + one load); takes
    /// the internal mutex only to hand over a condvar notification.
    #[inline]
    pub fn notify_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.mutex.lock();
            self.cv.notify_one();
        }
    }

    /// Signals every sleeping thread (shutdown, topology-constrained work
    /// that only a specific sleeper can take).
    #[inline]
    pub fn notify_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.mutex.lock();
            self.cv.notify_all();
        }
    }

    /// Racy count of threads currently sleeping on the gate (diagnostics).
    pub fn sleepers(&self) -> u64 {
        self.sleepers.load(Ordering::Relaxed)
    }
}

impl Default for IdleGate {
    fn default() -> Self {
        IdleGate::new()
    }
}

impl std::fmt::Debug for IdleGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdleGate")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("sleepers", &self.sleepers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn stale_key_returns_immediately() {
        let gate = IdleGate::new();
        let key = gate.prepare_wait();
        gate.notify_one();
        // Must not block: the epoch moved after the key was captured.
        gate.wait(key);
    }

    #[test]
    fn timed_wait_returns_without_a_notification() {
        let gate = IdleGate::new();
        let key = gate.prepare_wait();
        // No notification ever comes: only the timeout can end this wait.
        gate.wait_timeout(key, Duration::from_millis(5));
        assert_eq!(gate.sleepers(), 0);
    }

    #[test]
    fn notification_wakes_a_sleeper() {
        let gate = Arc::new(IdleGate::new());
        let woken = Arc::new(AtomicBool::new(false));
        let (g, w) = (Arc::clone(&gate), Arc::clone(&woken));
        let t = thread::spawn(move || {
            let key = g.prepare_wait();
            g.wait(key);
            w.store(true, Ordering::Release);
        });
        // Wait until the sleeper is committed, then notify.
        while gate.sleepers() == 0 {
            thread::yield_now();
        }
        gate.notify_one();
        t.join().unwrap();
        assert!(woken.load(Ordering::Acquire));
    }

    #[test]
    fn notify_all_wakes_every_sleeper() {
        const N: usize = 4;
        let gate = Arc::new(IdleGate::new());
        let threads: Vec<_> = (0..N)
            .map(|_| {
                let g = Arc::clone(&gate);
                thread::spawn(move || {
                    let key = g.prepare_wait();
                    g.wait(key);
                })
            })
            .collect();
        while gate.sleepers() < N as u64 {
            thread::yield_now();
        }
        gate.notify_all();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(gate.sleepers(), 0);
    }

    /// The lost-wakeup property under fire: producers flip per-slot flags
    /// and notify; a consumer sleeps whenever it sees no flag. Every flag
    /// must be consumed without the consumer hanging — with no timeout to
    /// paper over a lost notification, a single loss deadlocks the test.
    #[test]
    fn no_lost_wakeups_under_contention() {
        const EVENTS: u64 = if cfg!(miri) { 300 } else { 20_000 };
        let gate = Arc::new(IdleGate::new());
        let pending = Arc::new(AtomicU64::new(0));

        let consumer = {
            let gate = Arc::clone(&gate);
            let pending = Arc::clone(&pending);
            thread::spawn(move || {
                let mut consumed = 0u64;
                while consumed < EVENTS {
                    let key = gate.prepare_wait();
                    let avail = pending.swap(0, Ordering::AcqRel);
                    if avail > 0 {
                        consumed += avail;
                        continue;
                    }
                    gate.wait(key);
                }
                consumed
            })
        };
        let producer = {
            let gate = Arc::clone(&gate);
            let pending = Arc::clone(&pending);
            thread::spawn(move || {
                for i in 0..EVENTS {
                    pending.fetch_add(1, Ordering::AcqRel);
                    gate.notify_one();
                    if i % 64 == 0 {
                        // Give the consumer a chance to actually sleep so
                        // both wait paths are exercised.
                        thread::sleep(Duration::from_micros(50));
                    }
                }
            })
        };
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), EVENTS);
    }
}
