//! Per-CPU wake gates with a single elected standby spinner.
//!
//! The host-side half of direct dispatch (the shared-state half is
//! `nosv_shmem::ClaimTable`): each CPU's idle worker sleeps on **its own**
//! [`IdleGate`], so a submission that deposited a task into a specific
//! CPU's handoff slot can wake exactly that CPU — `notify_one` on a shared
//! gate could wake the wrong worker and strand the deposit.
//!
//! On top of the per-CPU gates sits a *standby* election: the first CPU to
//! go idle claims the standby role and spends a bounded adaptive spin
//! ([`IdleGate::wait_spin`]) watching its gate before the futex-style
//! sleep. Submitters prefer depositing to the standby CPU
//! ([`CpuGates::standby`]), so a serial task stream on an otherwise idle
//! runtime runs entirely wake-free: one CAS into the spinner's slot, one
//! epoch bump it observes without any kernel transition — and the same CPU
//! keeps taking successive tasks, staying cache-hot. Every other idle CPU
//! sleeps immediately; only one core ever burns spin cycles, and only
//! briefly.

use crate::hint::{AtomicU64, Ordering};
use crate::{IdleGate, Padded};

/// Backoff rounds the standby spinner invests before sleeping. Backoff
/// escalates exponentially and starts yielding to the OS after a few
/// rounds, so this bounds the spin to roughly tens of microseconds of CPU
/// (plus a handful of sched yields) — long enough to bridge the gap
/// between serial tasks, short enough to be invisible when idle for real.
///
/// The runtime's other bounded spinner, an external thread waiting on a
/// task's completion, uses the same window.
pub const STANDBY_SPIN_ROUNDS: u32 = 64;

/// Failed standby claims by *other* CPUs a sticky holder's reservation
/// survives before the role migrates. Without stickiness, a serial task
/// stream on a few-CPU runtime thrashes the election: the consumer that
/// just ran a task re-parks a beat after its neighbours, finds the role
/// taken, and the deposit target — and the task's cache home — hops cores
/// on every task. Eight misses bounds how long a vanished holder (e.g. one
/// now busy on a long task) can hold the role hostage.
const STANDBY_STICKY_MISSES: u64 = 8;

/// Low half of the packed standby word: current holder CPU + 1 (0 = the
/// role is free).
const STANDBY_HOLDER_MASK: u64 = 0xffff_ffff;

/// One [`IdleGate`] per CPU plus the standby election; see the module
/// docs.
pub struct CpuGates {
    gates: Box<[Padded<IdleGate>]>,
    /// Packed election word: low 32 bits = current standby CPU + 1 (0 =
    /// none spinning), high 32 bits = *sticky* last holder CPU + 1. A free
    /// role stays reserved for the sticky holder so a serial stream keeps
    /// one cache-hot consumer; see [`STANDBY_STICKY_MISSES`].
    standby: AtomicU64,
    /// Failed claims by non-sticky CPUs since the sticky holder last held
    /// the role; reaching [`STANDBY_STICKY_MISSES`] allows a takeover.
    misses: AtomicU64,
    /// Times the role changed hands between different CPUs (the
    /// re-election frequency the stickiness bounds).
    elections: AtomicU64,
}

impl CpuGates {
    /// Gates for `cpus` CPUs.
    pub fn new(cpus: usize) -> CpuGates {
        CpuGates {
            gates: (0..cpus).map(|_| Padded::new(IdleGate::new())).collect(),
            standby: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            elections: AtomicU64::new(0),
        }
    }

    /// Number of CPUs covered.
    pub fn cpus(&self) -> usize {
        self.gates.len()
    }

    /// Captures `cpu`'s gate epoch; see [`IdleGate::prepare_wait`].
    #[inline]
    pub fn prepare_wait(&self, cpu: usize) -> u64 {
        self.gates[cpu].prepare_wait()
    }

    /// Blocks `cpu` until its gate is notified after `key` was captured.
    ///
    /// At most one CPU at a time — the standby — prefixes the sleep with
    /// the bounded adaptive spin; everyone else sleeps immediately. The
    /// role is *sticky*: releasing it leaves a reservation for this CPU,
    /// and other idle CPUs only take the role over after the sticky
    /// holder missed `STANDBY_STICKY_MISSES` chances to reclaim it — so
    /// a serial stream keeps depositing to one cache-hot consumer instead
    /// of re-electing on every task.
    pub fn wait(&self, cpu: usize, key: u64) {
        let me = cpu as u64 + 1;
        if self.try_claim_standby(me) {
            self.gates[cpu].wait_spin(key, STANDBY_SPIN_ROUNDS);
            // Release the role but stay the sticky (reserved) holder.
            self.standby.store(me << 32, Ordering::SeqCst);
        } else {
            self.gates[cpu].wait(key);
        }
    }

    /// One election attempt by CPU `me` (index + 1); see [`CpuGates::wait`].
    fn try_claim_standby(&self, me: u64) -> bool {
        loop {
            let cur = self.standby.load(Ordering::SeqCst);
            if cur & STANDBY_HOLDER_MASK != 0 {
                return false; // someone is spinning already
            }
            let sticky = cur >> 32;
            if sticky != 0
                && sticky != me
                && self.misses.fetch_add(1, Ordering::SeqCst) + 1 < STANDBY_STICKY_MISSES
            {
                // Free but reserved: leave it for the sticky holder until
                // it has provably stopped coming back.
                return false;
            }
            let next = (me << 32) | me;
            if self
                .standby
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.misses.store(0, Ordering::SeqCst);
                if sticky != me {
                    self.elections.fetch_add(1, Ordering::Relaxed);
                }
                return true;
            }
            // Lost the race; re-evaluate against the new word.
        }
    }

    /// The CPU currently spinning as standby, if any (a hint: it may
    /// commit to sleep at any moment, in which case its gate wake simply
    /// costs the futex path).
    #[inline]
    pub fn standby(&self) -> Option<usize> {
        match self.standby.load(Ordering::SeqCst) & STANDBY_HOLDER_MASK {
            0 => None,
            c => Some(c as usize - 1),
        }
    }

    /// Times the standby role has changed hands between different CPUs
    /// since construction. Stickiness exists to keep this low: a serial
    /// stream should re-elect at most once per `STANDBY_STICKY_MISSES`
    /// foreign claim attempts, not once per task.
    #[inline]
    pub fn standby_elections(&self) -> u64 {
        self.elections.load(Ordering::Relaxed)
    }

    /// Notifies `cpu`'s gate (wakes its sleeper, or turns its standby
    /// spin into an immediate return).
    #[inline]
    pub fn notify(&self, cpu: usize) {
        self.gates[cpu].notify_one();
    }

    /// Notifies every CPU's gate (shutdown).
    pub fn notify_all(&self) {
        for g in self.gates.iter() {
            g.notify_all();
        }
    }
}

impl std::fmt::Debug for CpuGates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuGates")
            .field("cpus", &self.cpus())
            .field("standby", &self.standby())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn notify_wakes_only_the_target_cpu() {
        let gates = Arc::new(CpuGates::new(2));
        let woken = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        let threads: Vec<_> = (0..2)
            .map(|cpu| {
                let gates = Arc::clone(&gates);
                let woken = Arc::clone(&woken);
                thread::spawn(move || {
                    let key = gates.prepare_wait(cpu);
                    gates.wait(cpu, key);
                    woken[cpu].store(true, Ordering::Release);
                })
            })
            .collect();
        // Wait until both are committed (standby spinning or sleeping).
        thread::sleep(std::time::Duration::from_millis(50));
        gates.notify(1);
        while !woken[1].load(Ordering::Acquire) {
            thread::yield_now();
        }
        assert!(!woken[0].load(Ordering::Acquire), "cpu 0 must stay parked");
        gates.notify(0);
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn standby_role_is_exclusive_and_released() {
        let gates = Arc::new(CpuGates::new(2));
        assert_eq!(gates.standby(), None);
        let g = Arc::clone(&gates);
        let t = thread::spawn(move || {
            let key = g.prepare_wait(0);
            g.wait(0, key);
        });
        // The waiter claims standby while spinning.
        while gates.standby().is_none() {
            thread::yield_now();
        }
        assert_eq!(gates.standby(), Some(0));
        gates.notify(0);
        t.join().unwrap();
        assert_eq!(gates.standby(), None, "role released on return");
    }

    #[test]
    fn stale_key_returns_without_blocking() {
        let gates = CpuGates::new(1);
        let key = gates.prepare_wait(0);
        gates.notify(0);
        gates.wait(0, key); // must not block
    }

    #[test]
    fn standby_sticks_until_the_miss_budget_runs_out() {
        // Pre-notified keys make every wait return immediately, so the
        // election machinery can be driven single-threaded.
        let claim = |gates: &CpuGates, cpu: usize| {
            let key = gates.prepare_wait(cpu);
            gates.notify(cpu);
            gates.wait(cpu, key);
        };
        let gates = CpuGates::new(2);
        claim(&gates, 0);
        assert_eq!(gates.standby_elections(), 1, "first claim is an election");
        assert_eq!(gates.standby(), None, "role released after the wait");
        // The free role stays reserved for CPU 0: CPU 1's claims miss...
        for _ in 0..STANDBY_STICKY_MISSES - 1 {
            claim(&gates, 1);
        }
        assert_eq!(gates.standby_elections(), 1, "reservation held");
        // ...until the budget is exhausted, then the takeover happens.
        claim(&gates, 1);
        assert_eq!(gates.standby_elections(), 2, "bounded takeover");
        // The new sticky holder reclaims election-free.
        claim(&gates, 1);
        assert_eq!(gates.standby_elections(), 2);
    }
}
