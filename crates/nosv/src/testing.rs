//! Test-support driver over the **live** scheduler (doc-hidden).
//!
//! The driver-parity suite (`tests/driver_parity.rs`) feeds one seeded
//! random op sequence through `nosv_core::SchedCore` via two drivers —
//! this one (the real shared-memory `Scheduler`: DTLock shell, lock-free
//! submission rings, intrusive segment queues) and the simulator-side
//! heap store — and asserts byte-identical decision streams. This module
//! exposes just enough of the crate-internal scheduler to drive it
//! deterministically from a single thread; it is not public API.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use nosv_shmem::{SegmentConfig, ShmSegment, Shoff};

use crate::config::NosvConfig;
use crate::obs::{CounterKind, ObsCollector};
use crate::policy::QuantumPolicy;
use crate::scheduler::Scheduler;
use crate::stats::Counters;
use crate::task::{Affinity, TaskDesc, TaskState};
use crate::NosvError;

/// Outcome of one single-threaded fetch against the live scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopOutcome {
    /// Id the test assigned to the task at submission.
    pub id: u64,
    /// PID of the task's process.
    pub pid: u64,
    /// Whether the fetch stole a best-effort task (affinity-steal counter
    /// moved).
    pub stolen: bool,
    /// Whether the fetch switched processes on quantum expiry.
    pub quantum_expired: bool,
}

/// Single-threaded harness around the real crate-internal `Scheduler`.
///
/// Driven from one thread, the scheduler is deterministic: every
/// `acquire` wins the lock, every ring push is drained by the next
/// holder, and decisions come from the same `nosv_core::SchedCore` the
/// simulator drives.
pub struct LiveDriver {
    seg: ShmSegment,
    sched: Scheduler,
    counters: Counters,
    obs: ObsCollector,
}

impl LiveDriver {
    /// A scheduler over a fresh segment with the canonical
    /// [`QuantumPolicy`] of `quantum_ns`, `ring_cap`-entry submission
    /// rings and `sched_shards` scheduler shards (`0` = one per NUMA
    /// node).
    pub fn new(
        cpus: usize,
        cpus_per_numa: usize,
        quantum_ns: u64,
        ring_cap: usize,
        sched_shards: usize,
    ) -> LiveDriver {
        let seg = ShmSegment::create(SegmentConfig {
            size: 16 * 1024 * 1024,
            max_cpus: cpus,
        });
        let cfg = NosvConfig {
            cpus,
            cpus_per_numa,
            quantum_ns,
            submit_ring_cap: ring_cap,
            sched_shards,
            ..Default::default()
        };
        let gates = Arc::new(nosv_sync::CpuGates::new(cpus));
        let sched = Scheduler::new(
            seg.clone(),
            &cfg,
            Arc::new(QuantumPolicy::new(quantum_ns)),
            gates,
        )
        .expect("segment fits");
        LiveDriver {
            seg,
            sched,
            counters: Counters::new(cpus),
            obs: ObsCollector::disabled(),
        }
    }

    /// Number of scheduler shards the driver runs with.
    pub fn shard_count(&self) -> usize {
        self.sched.shard_count()
    }

    /// Registers `pid` into `slot`.
    pub fn register(&self, slot: u32, pid: u64) {
        self.sched.register_proc(slot, pid);
    }

    /// Unregisters `slot`; `Err(ProcessBusy)` when its tasks are queued.
    pub fn unregister(&self, slot: u32) -> Result<(), NosvError> {
        self.sched.unregister_proc(slot)
    }

    /// Sets a process's application priority.
    pub fn set_app_priority(&self, slot: u32, priority: i32) {
        self.sched.set_app_priority(slot, priority);
    }

    /// Builds a descriptor in the segment and submits it as `submitter`
    /// (ring-lane or locked path, as the real runtime would; the
    /// submitter tag drives lane choice and sticky shard routing exactly
    /// like a producer thread's tag does).
    pub fn submit(
        &self,
        id: u64,
        slot: u32,
        pid: u64,
        priority: i32,
        affinity: Affinity,
        submitter: u64,
    ) {
        let off = self.make_desc(id, slot, pid, priority, affinity);
        self.sched.submit_from(off, affinity, submitter);
    }

    /// Builds `ids.len()` descriptors sharing one attribute set and
    /// submits them through the real batch path
    /// (`Scheduler::submit_batch`: one reserve-N lane push, locked
    /// overflow through `SchedCore::enqueue_batch`).
    pub fn submit_batch(
        &self,
        ids: &[u64],
        slot: u32,
        pid: u64,
        priority: i32,
        affinity: Affinity,
        submitter: u64,
    ) {
        let descs: Vec<Shoff<TaskDesc>> = ids
            .iter()
            .map(|&id| self.make_desc(id, slot, pid, priority, affinity))
            .collect();
        self.sched
            .submit_batch(&descs, affinity, slot as usize, submitter);
    }

    fn make_desc(
        &self,
        id: u64,
        slot: u32,
        pid: u64,
        priority: i32,
        affinity: Affinity,
    ) -> Shoff<TaskDesc> {
        let off: Shoff<TaskDesc> = self
            .seg
            .alloc_zeroed(std::mem::size_of::<TaskDesc>(), 0)
            .expect("test segment exhausted")
            .cast();
        // SAFETY: fresh zeroed descriptor, exclusively ours.
        let d = unsafe { self.seg.sref(off) };
        d.id.store(id, Ordering::Relaxed);
        d.slot.store(slot, Ordering::Relaxed);
        d.pid.store(pid, Ordering::Relaxed);
        d.priority.store(priority as u32, Ordering::Relaxed);
        d.affinity.store(affinity.encode(), Ordering::Relaxed);
        d.set_state(TaskState::Ready);
        off
    }

    /// One fetch for `cpu` at time `now_ns`, with the decision's
    /// side-channel (steal / quantum switch) read off the counters. An
    /// in-shard affinity steal and a cross-shard steal both report
    /// `stolen` (the sim driver reports both as `PickSource::Steal`).
    pub fn pop(&self, cpu: usize, now_ns: u64) -> Option<PopOutcome> {
        let steals = || {
            self.counters.get(CounterKind::AffinitySteals)
                + self.counters.get(CounterKind::ShardSteals)
        };
        let quanta = || self.counters.get(CounterKind::QuantumSwitches);
        let (steals0, quanta0) = (steals(), quanta());
        let task = self
            .sched
            .get_task(cpu, now_ns, &self.counters, &self.obs)?;
        // SAFETY: a task handed out by the scheduler is alive.
        let d = unsafe { self.seg.sref(task) };
        Some(PopOutcome {
            id: d.id.load(Ordering::Relaxed),
            pid: d.pid.load(Ordering::Relaxed),
            stolen: steals() > steals0,
            quantum_expired: quanta() > quanta0,
        })
    }

    /// Whether the scheduler advertises ready work.
    pub fn has_ready(&self) -> bool {
        self.sched.has_ready()
    }
}
