//! Model-checked protocol suites for `nosv-sync` (run via `nosv-check`).
//!
//! Every test constructs a small, bounded instance of one protocol and
//! lets the checker enumerate or sample thread interleavings, asserting a
//! linearizability-style invariant at the end of each schedule:
//!
//! * **DtLock** — every queued item is delivered exactly once, no waiter
//!   is stranded (ring-wraparound value loss shows up as a livelock);
//! * **IdleGate / CpuGates** — no lost wakeups: a notification that races
//!   the commit-to-sleep always lands (a loss deadlocks the schedule),
//!   including the task-completion latch's spin-then-sleep waiters;
//! * **submit-vs-shutdown** — the distilled PR 5 drain protocol: a
//!   shutdown that drained in-flight submitters observes every accepted
//!   submission in its final snapshot.
//!
//! Run with:
//!
//! ```text
//! cargo test -p nosv-sync --features model --test model
//! ```
//!
//! On failure the checker prints a `NOSV_CHECK_SEED`/`NOSV_CHECK_SCHEDULE`
//! pair; exporting both replays exactly the failing schedule.
//!
//! The `--cfg nosv_check_mutations` build (CI's mutation job) re-introduces
//! two historical bugs — the pre-PR-1 DtLock ring-wraparound publication
//! and the pre-PR-5 submit-vs-shutdown race — and the `*_mutation_is_caught`
//! tests assert the checker actually finds them.

#![cfg(feature = "model")]

use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
use std::sync::Arc;

use nosv_check::{explore, Config, Report, Strategy};
use nosv_sync::hint::{thread, AtomicBool, AtomicU64, Ordering};
use nosv_sync::{Acquired, CpuGates, DtLock, IdleGate};

/// Prints a one-line exploration summary (visible with `--nocapture`).
fn summarize(name: &str, r: &Report) {
    eprintln!(
        "{name}: {} schedules ({} distinct{}), {} failures",
        r.schedules,
        r.distinct_schedules,
        if r.complete { ", complete" } else { "" },
        r.failures.len(),
    );
}

/// Asserts the sampled schedules were overwhelmingly distinct — i.e. the
/// scenario's interleaving space is large enough that random exploration
/// is not re-running the same few schedules.
fn assert_mostly_distinct(r: &Report) {
    assert!(
        r.distinct_schedules * 10 >= r.schedules * 9,
        "only {} of {} schedules distinct: scenario too small for sampling",
        r.distinct_schedules,
        r.schedules
    );
}

// ---------------------------------------------------------------------------
// DtLock: exactly-once delegation
// ---------------------------------------------------------------------------

/// The scheduler usage pattern from the unit suite, shrunk to model-checker
/// scale: `threads` workers each consume `per_thread` items from a shared
/// queue behind a `DtLock` of `capacity` slots; holders serve visible
/// waiters. Invariant: every item is delivered exactly once and every
/// worker terminates (a lost value strands its waiter forever).
fn dtlock_round(threads: usize, per_thread: usize, capacity: usize) {
    let total = threads * per_thread;
    let queue: Vec<u64> = (0..total as u64).collect();
    let lock = Arc::new(DtLock::<Vec<u64>, u64>::new(queue, capacity));
    let seen = Arc::new((0..total).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());

    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let lock = Arc::clone(&lock);
            let seen = Arc::clone(&seen);
            thread::spawn(move || {
                let mut got = 0usize;
                while got < per_thread {
                    match lock.acquire(tid as u64) {
                        Acquired::Holder(mut g) => {
                            if let Some(v) = g.pop() {
                                seen[v as usize].fetch_add(1, StdOrdering::Relaxed);
                                got += 1;
                            }
                            while g.next_waiter_meta().is_some() {
                                match g.pop() {
                                    Some(v) => {
                                        if g.serve_next(v).is_err() {
                                            g.push(v);
                                            break;
                                        }
                                    }
                                    None => break,
                                }
                            }
                        }
                        Acquired::Served(v) => {
                            seen[v as usize].fetch_add(1, StdOrdering::Relaxed);
                            got += 1;
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for (i, c) in seen.iter().enumerate() {
        assert_eq!(
            c.load(StdOrdering::Relaxed),
            1,
            "item {i} delivered wrong number of times"
        );
    }
    assert!(
        lock.lock().is_empty(),
        "undelivered items left in the queue"
    );
}

/// Randomized sweep over a contended instance: three workers, six items,
/// a two-slot ring (tickets collide as served workers re-acquire).
#[test]
#[cfg(not(nosv_check_mutations))]
fn dtlock_exactly_once_random() {
    let cfg = Config::from_env(Strategy::Random { schedules: 4000 });
    let r = explore(cfg, || dtlock_round(3, 2, 2)).assert_ok();
    summarize("dtlock_exactly_once_random", &r);
    assert_mostly_distinct(&r);
}

/// Bounded DFS over the smallest instance that exercises ring wraparound:
/// two workers on a one-slot ring, so every ticket maps to slot 0 and the
/// exclusive EMPTY → CLAIMING claim is load-bearing.
#[test]
#[cfg(not(nosv_check_mutations))]
fn dtlock_wraparound_dfs() {
    let cfg = Config::from_env(Strategy::Dfs {
        max_schedules: 2500,
    });
    let r = explore(cfg, || dtlock_round(2, 2, 1)).assert_ok();
    summarize("dtlock_wraparound_dfs", &r);
}

/// PCT sampling (depth 3) on the same contended instance as the random
/// sweep: priorities plus change points catch ordering bugs that need a
/// specific preemption placement with far fewer schedules.
#[test]
#[cfg(not(nosv_check_mutations))]
fn dtlock_exactly_once_pct() {
    let cfg = Config::from_env(Strategy::Pct {
        schedules: 1000,
        depth: 3,
    });
    let r = explore(cfg, || dtlock_round(3, 2, 2)).assert_ok();
    summarize("dtlock_exactly_once_pct", &r);
}

/// Mutation regression (PR 1): `--cfg nosv_check_mutations` compiles the
/// DtLock publication without the exclusive slot claim, re-introducing the
/// ring-wraparound value loss. The checker must find it: a collided
/// publication loses a served value, stranding a waiter in a spin the
/// step budget converts into a livelock failure.
#[test]
#[cfg(nosv_check_mutations)]
fn dtlock_mutation_is_caught() {
    let mut cfg = Config::from_env(Strategy::Random { schedules: 3000 });
    // Stranded-waiter schedules spin to the step budget; keep it small so
    // each failing schedule is cut off quickly.
    cfg.max_steps = 5_000;
    cfg.stop_at_first_failure = true;
    let r = explore(cfg, || dtlock_round(3, 2, 1));
    summarize("dtlock_mutation_is_caught", &r);
    assert!(
        !r.failures.is_empty(),
        "checker failed to detect the re-introduced DtLock wraparound bug"
    );
}

// ---------------------------------------------------------------------------
// IdleGate: no lost wakeups
// ---------------------------------------------------------------------------

/// One producer flips a flag and notifies; one consumer runs the canonical
/// prepare/check/wait loop. A lost wakeup parks the consumer forever and
/// the checker reports the schedule as a deadlock.
fn idle_gate_handoff() {
    let gate = Arc::new(IdleGate::new());
    let ready = Arc::new(AtomicBool::new(false));
    let consumer = {
        let (gate, ready) = (Arc::clone(&gate), Arc::clone(&ready));
        thread::spawn(move || loop {
            let key = gate.prepare_wait();
            if ready.load(Ordering::Acquire) {
                break;
            }
            gate.wait(key);
        })
    };
    ready.store(true, Ordering::Release);
    gate.notify_one();
    consumer.join().unwrap();
}

/// The task-completion latch (`TaskSignal` in the runtime): two waiters
/// each run prepare_wait → `done` check → `wait_spin`, and the completing
/// worker stores `done`, then calls `notify_all`. A waiter that misses both
/// the flag and the epoch bump sleeps forever, which the checker reports
/// as a deadlock.
fn idle_gate_latch() {
    let gate = Arc::new(IdleGate::new());
    let done = Arc::new(AtomicBool::new(false));
    let waiters: Vec<_> = (0..2)
        .map(|_| {
            let (gate, done) = (Arc::clone(&gate), Arc::clone(&done));
            thread::spawn(move || loop {
                let key = gate.prepare_wait();
                if done.load(Ordering::Acquire) {
                    break;
                }
                gate.wait_spin(key, 1);
            })
        })
        .collect();
    done.store(true, Ordering::Release);
    gate.notify_all();
    for w in waiters {
        w.join().unwrap();
    }
}

/// Two producers publish two events each through a shared pending counter;
/// one consumer drains it, sleeping whenever it sees nothing. Termination
/// is the invariant: one lost notification deadlocks the schedule.
fn idle_gate_stress(producers: usize, per_producer: u64) {
    let gate = Arc::new(IdleGate::new());
    let pending = Arc::new(AtomicU64::new(0));
    let total = producers as u64 * per_producer;

    let prods: Vec<_> = (0..producers)
        .map(|_| {
            let (gate, pending) = (Arc::clone(&gate), Arc::clone(&pending));
            thread::spawn(move || {
                for _ in 0..per_producer {
                    pending.fetch_add(1, Ordering::SeqCst);
                    gate.notify_one();
                }
            })
        })
        .collect();
    let consumer = {
        let (gate, pending) = (Arc::clone(&gate), Arc::clone(&pending));
        thread::spawn(move || {
            let mut consumed = 0u64;
            while consumed < total {
                let key = gate.prepare_wait();
                let avail = pending.swap(0, Ordering::SeqCst);
                if avail > 0 {
                    consumed += avail;
                    continue;
                }
                gate.wait(key);
            }
            consumed
        })
    };
    for p in prods {
        p.join().unwrap();
    }
    assert_eq!(consumer.join().unwrap(), total);
}

/// Exhaustive DFS of the single handoff — the store-buffer core of the
/// lost-wakeup argument (producer: flag then epoch; consumer: sleepers
/// then epoch) with every interleaving enumerated.
#[test]
fn idle_gate_handoff_dfs() {
    let cfg = Config::from_env(Strategy::Dfs {
        max_schedules: 4000,
    });
    let r = explore(cfg, idle_gate_handoff).assert_ok();
    summarize("idle_gate_handoff_dfs", &r);
}

/// Exhaustive DFS of the completion latch: two spinning-then-sleeping
/// waiters against one `notify_all`.
#[test]
fn idle_gate_latch_dfs() {
    let cfg = Config::from_env(Strategy::Dfs {
        max_schedules: 20_000,
    });
    let r = explore(cfg, idle_gate_latch).assert_ok();
    summarize("idle_gate_latch_dfs", &r);
}

/// Randomized sweep of the multi-producer gate under contention.
#[test]
fn idle_gate_stress_random() {
    let cfg = Config::from_env(Strategy::Random { schedules: 3000 });
    let r = explore(cfg, || idle_gate_stress(2, 2)).assert_ok();
    summarize("idle_gate_stress_random", &r);
    assert_mostly_distinct(&r);
}

// ---------------------------------------------------------------------------
// CpuGates: targeted wake + standby election
// ---------------------------------------------------------------------------

/// Two per-CPU idle workers (one of which wins the standby-spin election),
/// a submitter that deposits to CPU 1 first, then CPU 0. Invariants: each
/// notify wakes exactly the targeted worker's gate (a miswired wake
/// deadlocks the worker whose flag is set), and the standby role is
/// released once both workers return.
fn cpu_gates_round() {
    let gates = Arc::new(CpuGates::new(2));
    let tasks = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);

    let workers: Vec<_> = (0..2)
        .map(|cpu| {
            let (gates, tasks) = (Arc::clone(&gates), Arc::clone(&tasks));
            thread::spawn(move || loop {
                let key = gates.prepare_wait(cpu);
                if tasks[cpu].load(Ordering::Acquire) {
                    break;
                }
                gates.wait(cpu, key);
            })
        })
        .collect();
    let mut workers = workers;

    tasks[1].store(true, Ordering::Release);
    gates.notify(1);
    workers.pop().unwrap().join().unwrap();

    tasks[0].store(true, Ordering::Release);
    gates.notify(0);
    workers.pop().unwrap().join().unwrap();

    assert_eq!(gates.standby(), None, "standby role leaked");
}

#[test]
fn cpu_gates_targeted_wake_random() {
    let cfg = Config::from_env(Strategy::Random { schedules: 2500 });
    let r = explore(cfg, cpu_gates_round).assert_ok();
    summarize("cpu_gates_targeted_wake_random", &r);
    assert_mostly_distinct(&r);
}

// ---------------------------------------------------------------------------
// Submit vs. shutdown: the distilled PR 5 drain protocol
// ---------------------------------------------------------------------------

/// The in-flight window protocol distilled from the runtime's external
/// submission path: a submitter announces itself (`inflight += 1`) before
/// checking the shutdown flag, so the shutdown's drain loop cannot read
/// `inflight == 0` between a submitter's flag check and its publication.
struct SubmitProto {
    shutdown: AtomicBool,
    inflight: AtomicU64,
    pending: AtomicU64,
}

impl SubmitProto {
    fn new() -> Self {
        SubmitProto {
            shutdown: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            pending: AtomicU64::new(0),
        }
    }
}

/// Fixed submission path: publication happens inside the in-flight window.
#[cfg(not(nosv_check_mutations))]
fn submit(s: &SubmitProto) -> bool {
    s.inflight.fetch_add(1, Ordering::SeqCst);
    if s.shutdown.load(Ordering::SeqCst) {
        s.inflight.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    s.pending.fetch_add(1, Ordering::SeqCst);
    s.inflight.fetch_sub(1, Ordering::SeqCst);
    true
}

/// MUTATION (PR 5 regression, `--cfg nosv_check_mutations` only): the
/// pre-fix race — check the flag, then publish, with no in-flight window.
/// A shutdown can land between the check and the publication, drain an
/// `inflight` that was never raised, and snapshot before the submission
/// becomes visible.
#[cfg(nosv_check_mutations)]
fn submit(s: &SubmitProto) -> bool {
    if s.shutdown.load(Ordering::SeqCst) {
        return false;
    }
    s.pending.fetch_add(1, Ordering::SeqCst);
    true
}

/// `submitters` threads each attempt one submission while a shutdown
/// thread raises the flag, drains the in-flight window and snapshots
/// `pending`. Invariant: the snapshot equals the number of accepted
/// submissions — nothing accepted is invisible to the drained shutdown,
/// and nothing rejected was published.
fn submit_shutdown_round(submitters: usize) {
    let proto = Arc::new(SubmitProto::new());
    let oks = Arc::new(AtomicUsize::new(0));

    let subs: Vec<_> = (0..submitters)
        .map(|_| {
            let (proto, oks) = (Arc::clone(&proto), Arc::clone(&oks));
            thread::spawn(move || {
                if submit(&proto) {
                    oks.fetch_add(1, StdOrdering::Relaxed);
                }
            })
        })
        .collect();
    let shutdown = {
        let proto = Arc::clone(&proto);
        thread::spawn(move || {
            proto.shutdown.store(true, Ordering::SeqCst);
            while proto.inflight.load(Ordering::SeqCst) != 0 {
                thread::yield_now();
            }
            proto.pending.load(Ordering::SeqCst)
        })
    };
    let snapshot = shutdown.join().unwrap();
    for s in subs {
        s.join().unwrap();
    }
    assert_eq!(
        snapshot,
        oks.load(StdOrdering::Relaxed) as u64,
        "drained shutdown snapshot missed an accepted submission"
    );
    assert_eq!(
        proto.pending.load(Ordering::SeqCst),
        snapshot,
        "submission published after the drain completed"
    );
}

/// Exhaustive DFS of two submitters racing one shutdown.
#[test]
#[cfg(not(nosv_check_mutations))]
fn submit_shutdown_dfs() {
    let cfg = Config::from_env(Strategy::Dfs {
        max_schedules: 4000,
    });
    let r = explore(cfg, || submit_shutdown_round(2)).assert_ok();
    summarize("submit_shutdown_dfs", &r);
}

/// Randomized sweep with three submitters.
#[test]
#[cfg(not(nosv_check_mutations))]
fn submit_shutdown_random() {
    let cfg = Config::from_env(Strategy::Random { schedules: 1500 });
    let r = explore(cfg, || submit_shutdown_round(3)).assert_ok();
    summarize("submit_shutdown_random", &r);
    assert_mostly_distinct(&r);
}

/// Mutation regression (PR 5): with the in-flight window compiled out, a
/// single submitter racing the shutdown exhibits the lost-submission
/// interleaving, and exhaustive DFS over the tiny space must find it.
#[test]
#[cfg(nosv_check_mutations)]
fn submit_shutdown_mutation_is_caught() {
    let mut cfg = Config::from_env(Strategy::Dfs {
        max_schedules: 2000,
    });
    cfg.stop_at_first_failure = true;
    let r = explore(cfg, || submit_shutdown_round(1));
    summarize("submit_shutdown_mutation_is_caught", &r);
    assert!(
        !r.failures.is_empty(),
        "checker failed to detect the re-introduced submit-vs-shutdown race"
    );
}
