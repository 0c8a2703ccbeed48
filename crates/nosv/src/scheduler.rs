//! The shared scheduler (paper §3.4): the live driver of the
//! backend-agnostic scheduling core — sharded, with idle-CPU direct
//! dispatch.
//!
//! One instance per runtime. Since the `nosv-core` extraction, this module
//! contains **no scheduling decisions**: queue routing, priority ordering,
//! readiness bitmaps, candidate collection, quantum accounting, steal
//! rotation, yield requeueing and the shard mapping all live in
//! `nosv-core` ([`SchedCore`], [`ShardMap`]), the exact code the `simnode`
//! discrete-event simulator drives. What remains here is the live
//! backend's *concurrency shell*:
//!
//! * **Per-NUMA shards.** The scheduling state is split into
//!   [`ShardMap`]-mapped shards (one per NUMA node by default,
//!   [`crate::RuntimeBuilder::sched_shards`] to override, `1` = the
//!   original single-lock scheduler). Each shard is its own [`SchedCore`]
//!   behind its own [`DtLock`], with its own per-process submission rings
//!   and queues, so CPUs of different shards schedule concurrently
//!   instead of convoying on one critical section. A CPU whose shard runs
//!   dry steals from the other shards in rotation
//!   ([`SchedCore::steal_for_remote`]), taking one victim lock at a time
//!   and skipping shards whose ready counter is zero.
//! * **Idle-CPU direct dispatch.** When a submission arrives while a CPU
//!   sits idle and armed in the [`ClaimTable`], [`Scheduler::submit`]
//!   CAS-claims that CPU and deposits the task straight into its per-CPU
//!   handoff slot — no ring, no queue, no lock, no pick: one CAS plus one
//!   gate notification (and not even a futex wake when the standby
//!   spinner takes it). Unconstrained tasks claim any armed CPU
//!   (preferring the standby); placed tasks claim their target core/node
//!   (best-effort ones fall back to any armed CPU, the moral equivalent
//!   of a steal). Everything else takes the ring path below. Disabling
//!   the rings (`submit_ring(0)`) disables this path too, leaving the
//!   pre-ring locked baseline.
//! * the [`DtLock`] protecting each shard: workers asking for tasks
//!   either win their shard's lock — becoming a transient *server* that
//!   picks tasks for themselves and every waiting CPU of the shard with a
//!   consistent view — or are served directly through their DTLock wait
//!   slot;
//! * the lock-free submission rings (now per process × shard) and their
//!   amortized batch drains;
//! * counters and deferred observability events.
//!
//! # The hot path: claim CAS, rings, bitmaps, no allocation
//!
//! Four mechanisms keep scheduling off the serial path:
//!
//! * **Direct dispatch** (above) removes the queue round trip entirely
//!   whenever a CPU is already waiting.
//! * **Lock-free submission.** [`Scheduler::submit`] pushes the
//!   descriptor into the submitting process's ring *for the destination
//!   shard*. Whoever next holds that shard's lock drains all its dirty
//!   rings in one batch before scheduling. A full ring falls back to a
//!   bounded locked enqueue.
//! * **Readiness bitmaps** (in the core) let every scan jump between
//!   non-empty queues with `trailing_zeros`; per-shard ready counters let
//!   cross-shard stealing skip empty shards without touching their locks.
//! * **No allocation in any critical section** — candidate scratch is
//!   preallocated, deferred observability events reuse a thread-local
//!   buffer.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nosv_core::{
    Pick, PickSource, QueueId, SchedCore, SchedPolicy, ShardMap, TaskStore, MAX_SHARDS,
    STEAL_SCAN_LIMIT,
};
use nosv_shmem::{ClaimTable, LaneRing, ShmSegment, Shoff, MAX_PROCS};
use nosv_sync::hint::crash_point;
use nosv_sync::{Acquired, CpuGates, DtGuard, DtLock};

use crate::config::{NosvConfig, SUBMIT_LANES};
use crate::error::NosvError;
use crate::obs::{CounterKind, ObsCollector, ObsEvent, ObsKind};
use crate::queue::TaskQueue;
use crate::stats::Counters;
use crate::task::{Affinity, TaskDesc, TaskId};

/// Maximum cores the in-segment scheduler arrays are sized for.
pub(crate) const MAX_CPUS: usize = 256;
/// Maximum NUMA nodes.
pub(crate) const MAX_NUMA: usize = 16;

const _: () = assert!(MAX_PROCS <= 64 && MAX_NUMA <= 64);
const _: () = assert!(MAX_NUMA <= MAX_SHARDS && MAX_SHARDS <= 64);
const _: () = assert!(MAX_CPUS <= nosv_shmem::CLAIM_MAX_CPUS);

/// Direct-dispatch claim attempts per submission before falling back to
/// the ring path (bounds the CAS traffic a burst of submitters can spend
/// racing each other over the same armed CPUs).
const CLAIM_ATTEMPTS: usize = 4;

/// A ready task travelling from the scheduler to a worker (possibly through
/// a DTLock delegation slot or a direct-dispatch handoff slot).
pub(crate) type ReadyTask = Shoff<TaskDesc>;

/// Process-wide producer-identity allocator; see [`producer_tag`].
static NEXT_PRODUCER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's producer identity, assigned on first use.
    static PRODUCER_TAG: u64 = NEXT_PRODUCER.fetch_add(1, Ordering::Relaxed);
}

/// A stable identity for the calling producer thread, used for both lane
/// selection within a [`LaneRing`] (disjoint producers push on disjoint
/// cache lines) and sticky unconstrained shard routing
/// ([`ShardMap::route_shard`]: one producer's stream stays in one shard).
/// Registration is implicit — the first submission from a thread claims
/// the next id — and ids are never reused, which is fine for hashing.
pub(crate) fn producer_tag() -> u64 {
    PRODUCER_TAG.with(|t| *t)
}

#[repr(C)]
struct ProcSched {
    /// Per-shard process queues (unconstrained tasks of this process that
    /// were routed to each shard).
    queues: [TaskQueue; MAX_SHARDS],
    /// Per-shard laned submission rings (initialized at first
    /// registration of the slot; reused across re-registrations). Each
    /// producer thread pushes into its own lane ([`LaneRing`]), so
    /// concurrent producers of one process stop CAS-contending on a
    /// single ring tail.
    rings: [LaneRing; MAX_SHARDS],
    /// Per-shard count of this slot's ring-path ready-counter bumps not
    /// yet matched by a drain pop. Producers increment *before* the ready
    /// bump; drains decrement by the number of entries they pop; the
    /// host's locked fallback decrements when a push bounces to the lock.
    /// In steady state the counter therefore tracks exactly the slot's
    /// in-ring (or in-flight) contributions to `ShardHot::ready` — and at
    /// crash reclaim, after the rings are drained and repaired, whatever
    /// remains is precisely the ready over-count a producer dying between
    /// its bump and a drainable push leaked (the
    /// `sched.guest_submit.counted` / `ring.push.reserved` windows).
    /// Zero-valid like everything else in the segment.
    contrib: [AtomicU64; MAX_SHARDS],
}

/// Per-shard hot counters, cache-line padded so shards never false-share.
#[repr(C, align(64))]
struct ShardHot {
    /// Ready tasks accounted to this shard (queues + undrained rings).
    ready: AtomicU64,
    /// Bit per process slot whose submission ring for this shard may hold
    /// entries. Set by producers after a push; cleared by the draining
    /// lock holder before it empties the ring.
    ring_mask: AtomicU64,
}

#[repr(C)]
struct SchedRoot {
    shard_hot: [ShardHot; MAX_SHARDS],
    /// Idle-CPU claim table (direct dispatch).
    claim: ClaimTable,
    procs: [ProcSched; MAX_PROCS],
    cores: [TaskQueue; MAX_CPUS],
    numas: [TaskQueue; MAX_NUMA],
}

/// Guest-visible scheduler geometry, allocated in the segment by the host
/// of a *named* segment and published through the header's user-root
/// anchor ([`ShmSegment::init_user_root_once`]). A joining guest rederives
/// everything it needs to submit — where the scheduler root lives and how
/// many shards there are — from this one block (the rings themselves carry
/// their capacity); nothing is exchanged out of band.
#[repr(C)]
pub(crate) struct GuestMeta {
    /// Raw `Shoff<SchedRoot>`; 0 until the host publishes it (guests poll).
    pub sched_root: AtomicU64,
    /// Number of scheduler shards.
    pub shards: AtomicU64,
    /// OS pid of the hosting process (diagnostics; lets a guest notice a
    /// dead host).
    pub host_os_pid: AtomicU64,
    /// Host-configured join-handshake timeout in nanoseconds. Guests
    /// adopt it after mapping the block; 0 falls back to the guest-side
    /// default.
    pub join_timeout_ns: AtomicU64,
}

/// Pushes a guest task into the scheduler's lock-free submission machinery
/// — the guest-side twin of the ring branch of [`Scheduler::submit_with`],
/// as a free function because a guest process has no [`Scheduler`]
/// instance (the shard locks, claim gates and policy are host-heap state
/// it cannot reach). `submitter` is the guest thread's [`producer_tag`],
/// selecting its lane. Same ordering discipline: SeqCst ready bump before
/// the push (the producer side of the arming Dekker protocol), dirty-mark
/// after it. Returns `false` on a full lane **after rolling the ready
/// count back** — a guest has no locked fallback, so the caller retries
/// with backoff.
pub(crate) fn guest_submit(
    seg: &ShmSegment,
    meta: &GuestMeta,
    shard: usize,
    slot: usize,
    submitter: u64,
    task: Shoff<TaskDesc>,
) -> bool {
    let root: Shoff<SchedRoot> = Shoff::from_raw(meta.sched_root.load(Ordering::Acquire));
    debug_assert!(root.raw() != 0, "guest submitted before the host published");
    // SAFETY: the published root is allocated once and lives until the
    // segment itself is torn down.
    let root = unsafe { seg.sref(root) };
    let hot = &root.shard_hot[shard];
    let proc = &root.procs[slot];
    // Contribution first, ready second: a producer dying anywhere after
    // the ready bump leaves its +1 covered by `contrib`, which crash
    // reclaim settles against the counter (see [`ProcSched::contrib`]).
    proc.contrib[shard].fetch_add(1, Ordering::SeqCst);
    hot.ready.fetch_add(1, Ordering::SeqCst);
    // The worst counter-leak window: ready says a task exists, but no
    // ring slot was ever claimed — invisible to ring repair, caught only
    // by the contribution residue.
    crash_point("sched.guest_submit.counted");
    if proc.rings[shard].push(seg, submitter, task.raw()) {
        hot.ring_mask.fetch_or(1 << slot, Ordering::Release);
        true
    } else {
        // Roll the optimistic bumps back so has_ready() cannot stick true.
        hot.ready.fetch_sub(1, Ordering::SeqCst);
        proc.contrib[shard].fetch_sub(1, Ordering::SeqCst);
        false
    }
}

/// Adapter exposing one shard's view of the shared-segment queues to
/// [`SchedCore`] as a [`TaskStore`]: the shard's own per-process queues,
/// plus the global core/NUMA queue arrays (each of which is owned by
/// exactly one shard — the core's readiness bits gate all access, so a
/// queue is only ever touched under its owner's DTLock).
struct ShmStore<'a> {
    seg: &'a ShmSegment,
    root: &'a SchedRoot,
    shard: usize,
}

impl ShmStore<'_> {
    fn queue(&self, q: QueueId) -> &TaskQueue {
        match q {
            QueueId::Core(i) => &self.root.cores[i],
            QueueId::Numa(i) => &self.root.numas[i],
            QueueId::Proc(i) => &self.root.procs[i].queues[self.shard],
        }
    }

    fn desc(&self, t: ReadyTask) -> &TaskDesc {
        // SAFETY: ready tasks are alive while queued/owned by the scheduler.
        unsafe { self.seg.sref(t) }
    }
}

impl TaskStore for ShmStore<'_> {
    type Task = ReadyTask;

    fn push(&mut self, q: QueueId, t: ReadyTask) {
        self.queue(q).push(self.seg, t);
    }

    fn pop(&mut self, q: QueueId) -> Option<ReadyTask> {
        self.queue(q).pop(self.seg)
    }

    fn pop_stealable(&mut self, q: QueueId, limit: usize) -> Option<ReadyTask> {
        self.queue(q).pop_if(self.seg, limit, |d| {
            !Affinity::decode(d.affinity.load(Ordering::Relaxed)).is_strict()
        })
    }

    fn queue_is_empty(&self, q: QueueId) -> bool {
        self.queue(q).is_empty()
    }

    fn head_priority(&self, q: QueueId) -> Option<i32> {
        self.queue(q).head_priority(self.seg)
    }

    fn affinity(&self, t: ReadyTask) -> Affinity {
        Affinity::decode(self.desc(t).affinity.load(Ordering::Relaxed))
    }

    fn pid(&self, t: ReadyTask) -> u64 {
        self.desc(t).pid.load(Ordering::Relaxed)
    }

    fn slot(&self, t: ReadyTask) -> usize {
        self.desc(t).slot.load(Ordering::Relaxed) as usize
    }
}

pub(crate) struct Scheduler {
    seg: ShmSegment,
    root: Shoff<SchedRoot>,
    /// One delegation lock per shard, each *protecting its scheduling
    /// core*: decision state (bitmaps, quantum accounting, process table,
    /// rr cursor) is only reachable through a holder's guard.
    shards: Box<[DtLock<SchedCore, ReadyTask>]>,
    /// The CPU/NUMA/submission → shard mapping (shared with the sim).
    map: ShardMap,
    cpus: usize,
    cpus_per_numa: usize,
    /// Per-process, per-lane submission ring capacity; `0` = rings and
    /// idle-CPU direct dispatch disabled (the pre-ring locked baseline).
    ring_cap: usize,
    /// Workers currently inside a fetch ([`Scheduler::get_task`], between
    /// tasks). A hungry worker is guaranteed to observe freshly queued
    /// work before it can commit to sleep (the park path re-checks
    /// `has_ready` after arming), so stealable submissions skip their
    /// wake entirely while anyone is hungry — a busy runtime absorbs a
    /// burst with zero wake traffic. Workers executing task bodies do
    /// *not* count (a long body must not suppress wakes of sleepers).
    hungry: AtomicU64,
    /// Per-CPU wake gates (host side of the claim table).
    gates: Arc<CpuGates>,
    /// Host hardware parallelism, the cap on wake chaining: waking more
    /// workers than the machine can actually run in parallel converts
    /// batched draining into context-switch thrash.
    hw_threads: usize,
    /// The process-selection policy, shared with the simulator backend.
    policy: Arc<dyn SchedPolicy>,
}

/// Which path a submission took (drives the runtime's counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitPath {
    /// Deposited straight into an idle CPU's claim slot (never queued).
    Direct,
    /// Pushed into the process's lock-free ring for the destination shard.
    Ring,
    /// Enqueued under the shard's delegation lock (rings disabled,
    /// uninitialized slot, or ring full).
    Locked,
}

/// Per-path breakdown of one [`Scheduler::submit_batch`] call (drives the
/// runtime's counters; the parts always sum to the batch size).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchSubmit {
    /// Leading tasks handed straight to armed CPUs (one notify each).
    pub direct: u64,
    /// Tasks placed in the submitter's ring lane by the reserve-N push.
    pub ring: u64,
    /// Overflow enqueued under the shard lock.
    pub locked: u64,
}

/// What [`Scheduler::reclaim_slot`] took back from a dead (or cancelled)
/// process, split by how it was found (drives the runtime's reclaim
/// counters and the crash-reclaim observability event).
#[derive(Debug, Default)]
pub(crate) struct ReclaimReport {
    /// Every descriptor recovered for the caller to dispose of: purged
    /// queue entries plus ring entries recovered from behind stranded
    /// reservations.
    pub tasks: Vec<ReadyTask>,
    /// Ring reservations the dead producer claimed but never published,
    /// force-retired by the sequence repair.
    pub stranded: u64,
    /// Ready-counter bumps with no ring entry behind them at all (the
    /// producer died between its bump and its push), settled from the
    /// contribution residue.
    pub counter_leak: u64,
}

/// Observability snapshot of the scheduler (for tests and tools). Taken
/// under **all** shard locks (acquired in ascending order), so internally
/// consistent across shards.
#[derive(Debug, Clone)]
pub struct SchedulerSnapshot {
    /// Ready tasks across all shards' queues (submission rings included).
    pub total_ready: u64,
    /// `(pid, ready-task count)` for each attached process, counting its
    /// queues and not-yet-drained submission rings in every shard.
    pub per_process: Vec<(u64, u64)>,
    /// Current process per core (`0` = none yet).
    pub per_core_pid: Vec<u64>,
}

thread_local! {
    /// Reusable buffer for observability events produced inside a critical
    /// section: they are deferred and emitted only after the lock is
    /// released (an emit can drain a full worker buffer into the user's
    /// sink, which must never run under a lock CPUs' fetches wait on).
    static DEFERRED: RefCell<Vec<ObsEvent>> = const { RefCell::new(Vec::new()) };
}

impl Scheduler {
    pub(crate) fn new(
        seg: ShmSegment,
        config: &NosvConfig,
        policy: Arc<dyn SchedPolicy>,
        gates: Arc<CpuGates>,
    ) -> Result<Scheduler, NosvError> {
        debug_assert!(config.cpus <= MAX_CPUS, "config validated upstream");
        debug_assert!(config.numa_nodes() <= MAX_NUMA, "config validated upstream");
        let shards_n = config.resolved_shards();
        debug_assert!(shards_n <= MAX_SHARDS, "config validated upstream");
        let root: Shoff<SchedRoot> = seg
            .alloc_zeroed(std::mem::size_of::<SchedRoot>(), 0)?
            .cast();
        // Zeroed SchedRoot is valid: empty queues, uninitialized rings,
        // no armed CPUs.
        let shards: Box<[DtLock<SchedCore, ReadyTask>]> = (0..shards_n)
            .map(|_| {
                let core = SchedCore::new(config.cpus, config.cpus_per_numa, MAX_PROCS);
                // Waiters are at most one worker per CPU, plus headroom
                // for submitter threads taking the plain lock path.
                DtLock::new(core, config.cpus + 64)
            })
            .collect();
        Ok(Scheduler {
            seg,
            root,
            shards,
            map: ShardMap::new(config.cpus, config.cpus_per_numa, shards_n),
            cpus: config.cpus,
            cpus_per_numa: config.cpus_per_numa,
            ring_cap: config.submit_ring_cap,
            hungry: AtomicU64::new(0),
            gates,
            hw_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            policy,
        })
    }

    fn root(&self) -> &SchedRoot {
        // SAFETY: allocated zeroed at construction, never freed before drop.
        unsafe { self.seg.sref(self.root) }
    }

    fn store(&self, shard: usize) -> ShmStore<'_> {
        ShmStore {
            seg: &self.seg,
            root: self.root(),
            shard,
        }
    }

    /// Number of scheduler shards (tests, snapshots).
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Raw offset of the in-segment scheduler root — the value the host
    /// publishes in [`GuestMeta::sched_root`] so guests can submit.
    pub(crate) fn root_raw(&self) -> u64 {
        self.root.raw()
    }

    pub(crate) fn register_proc(&self, slot: u32, pid: u64) {
        let p = &self.root().procs[slot as usize];
        if self.ring_cap > 0 {
            for s in 0..self.shards.len() {
                // Idempotent: a re-registered slot reuses its existing
                // rings. Allocation failure is not fatal — the slot simply
                // submits through the locked path.
                let _ = p.rings[s].init(&self.seg, SUBMIT_LANES, self.ring_cap);
            }
        }
        for s in 0..self.shards.len() {
            // A fresh claim starts with no ring contributions (reclaim
            // zeroes the residue; a clean detach leaves none — the store
            // is defensive self-healing for anything that slipped).
            p.contrib[s].store(0, Ordering::SeqCst);
        }
        for lock in self.shards.iter() {
            let mut core = lock.lock();
            core.register_proc(slot as usize, pid);
        }
    }

    /// Unregisters a process slot (§3.3 unregistration).
    ///
    /// Walks the shards in order: drains the slot's submission rings (a
    /// detach must not strand in-flight lock-free submissions), then
    /// refuses with [`NosvError::ProcessBusy`] while ready tasks of the
    /// process are queued **anywhere** — any shard's process queue or the
    /// core/NUMA queues its placed tasks routed to. A recoverable
    /// condition: the slot stays registered and usable. Only once every
    /// shard reports zero does a second pass unregister the slot
    /// everywhere (nothing can requeue between the passes: a submit
    /// racing a detach of its own process is a caller bug).
    pub(crate) fn unregister_proc(&self, slot: u32) -> Result<(), NosvError> {
        let mut queued = 0usize;
        for (s, lock) in self.shards.iter().enumerate() {
            let mut core = lock.lock();
            self.drain_rings_locked(&mut core, s);
            queued += core.proc_ready_count(slot as usize);
            debug_assert!(
                self.root().procs[slot as usize].rings[s].is_empty(),
                "submission ring refilled during detach"
            );
            debug_assert_eq!(
                self.root().procs[slot as usize].contrib[s].load(Ordering::SeqCst),
                0,
                "clean detach with a leftover ring contribution"
            );
        }
        if queued > 0 {
            // The sum over *all* shards, so the caller knows exactly how
            // much work is still outstanding.
            return Err(NosvError::ProcessBusy { queued });
        }
        for lock in self.shards.iter() {
            let mut core = lock.lock();
            core.unregister_proc(slot as usize);
        }
        Ok(())
    }

    /// Forcibly reclaims every queued task of `slot` and unregisters it —
    /// the crash-reclaim path (a guest died without detaching) and the
    /// cancel path (a busy [`crate::ProcessContext`] is dropped). Walks
    /// the shards one lock at a time: drains the slot's rings so no
    /// in-flight lock-free submission is stranded, purges the slot from
    /// every queue the shard owns ([`SchedCore::purge_slot`] — process,
    /// core and NUMA queues alike, preserving the FIFO order of
    /// survivors), settles the ready counters, and unregisters. Returns
    /// the reclaimed descriptors; the caller decides their fate (free
    /// through the SLAB for guest tasks, cancel-and-signal for host
    /// tasks). Tasks already *executing* are not touched — they complete
    /// normally.
    /// On top of the queue purge, each shard pass repairs the slot's
    /// submission rings ([`LaneRing::repair_stranded`] — safe here: the
    /// slot's producers are dead, and the shard lock makes us the sole
    /// consumer) and settles the ready counter from the slot's
    /// contribution residue, which covers all three crash windows at
    /// once: values published behind a stranded reservation (recovered
    /// and returned with the purged tasks), reservations never published
    /// (retired, counted in [`ReclaimReport::stranded`]), and ready bumps
    /// that never reached a ring at all ([`ReclaimReport::counter_leak`]).
    pub(crate) fn reclaim_slot(&self, slot: u32) -> ReclaimReport {
        let root = self.root();
        let mut report = ReclaimReport::default();
        let out = &mut report.tasks;
        for (s, lock) in self.shards.iter().enumerate() {
            let mut core = lock.lock();
            self.drain_rings_locked(&mut core, s);
            let mut recovered = Vec::new();
            let stranded =
                root.procs[slot as usize].rings[s].repair_stranded(&self.seg, &mut recovered);
            // Whatever the drain and the repair did not hand back is the
            // over-count the corpse leaked into `ready`; the recovered
            // and stranded entries are still in here too (never popped).
            let residual = root.procs[slot as usize].contrib[s].swap(0, Ordering::SeqCst);
            debug_assert!(
                residual >= stranded + recovered.len() as u64,
                "contribution residue must cover every unreaped ring entry"
            );
            let before = out.len();
            let mut store = self.store(s);
            core.purge_slot(&mut store, slot as usize, out);
            let taken = (out.len() - before) as u64;
            let settle = taken + residual;
            if settle > 0 {
                root.shard_hot[s].ready.fetch_sub(settle, Ordering::SeqCst);
            }
            report.counter_leak += residual.saturating_sub(stranded + recovered.len() as u64);
            report.stranded += stranded;
            out.extend(recovered.into_iter().map(Shoff::from_raw));
            core.unregister_proc(slot as usize);
        }
        report
    }

    pub(crate) fn set_app_priority(&self, slot: u32, priority: i32) {
        for lock in self.shards.iter() {
            let mut core = lock.lock();
            core.set_app_priority(slot as usize, priority);
        }
    }

    /// Whether any task is ready (fast, lock-free check for idle loops).
    /// Counts tasks still sitting in submission rings. SeqCst loads: this
    /// is the consumer side of the arming Dekker protocol (see
    /// [`ClaimTable`]) — a worker re-checks it *after* arming, pairing
    /// with the submitter's counter-bump-then-scan order.
    pub(crate) fn has_ready(&self) -> bool {
        let root = self.root();
        (0..self.shards.len()).any(|s| root.shard_hot[s].ready.load(Ordering::SeqCst) > 0)
    }

    /// Arms `cpu`'s direct-dispatch slot (the worker is about to commit
    /// to idling). Callers must re-check [`Scheduler::has_ready`] *after*
    /// arming and eventually call [`Scheduler::disarm_idle`].
    pub(crate) fn arm_idle(&self, cpu: usize) {
        self.root().claim.arm(cpu);
    }

    /// Disarms `cpu`'s slot, returning a directly dispatched task if one
    /// was deposited since the arm.
    pub(crate) fn disarm_idle(&self, cpu: usize) -> Option<ReadyTask> {
        self.root().claim.disarm(cpu).map(Shoff::from_raw)
    }

    /// Inserts a ready task into the scheduler.
    ///
    /// In order of preference: a direct CAS handoff to an idle CPU (the
    /// task is never queued at all), a lock-free push into the submitting
    /// process's ring lane for the destination shard, or a locked enqueue
    /// (which first drains the shard's rings, so the fallback also
    /// amortizes). With rings disabled only the locked enqueue remains.
    ///
    /// Production paths go through [`Scheduler::submit_with`] /
    /// [`Scheduler::submit_from`]; this affinity-decoding convenience
    /// shell survives for the unit tests below.
    #[cfg(test)]
    pub(crate) fn submit(&self, task: ReadyTask) -> SubmitPath {
        // SAFETY: handle-owned descriptor, alive until destroy.
        let d = unsafe { self.seg.sref(task) };
        let affinity = Affinity::decode(d.affinity.load(Ordering::Relaxed));
        self.submit_with(task, affinity)
    }

    /// [`Scheduler::submit`] with the descriptor's affinity already
    /// decoded (the runtime's submit path decodes it once for validation
    /// and passes it through). The calling thread's [`producer_tag`] is
    /// the submitter identity.
    pub(crate) fn submit_with(&self, task: ReadyTask, affinity: Affinity) -> SubmitPath {
        self.submit_from(task, affinity, producer_tag())
    }

    /// [`Scheduler::submit_with`] with an explicit submitter identity
    /// (tests and the parity harness pin it down; the runtime passes the
    /// calling thread's tag).
    pub(crate) fn submit_from(
        &self,
        task: ReadyTask,
        affinity: Affinity,
        submitter: u64,
    ) -> SubmitPath {
        let root = self.root();
        // SAFETY: handle-owned descriptor, alive until destroy.
        let d = unsafe { self.seg.sref(task) };
        let slot = d.slot.load(Ordering::Relaxed) as usize;

        if self.ring_cap > 0 && self.try_direct(affinity, task) {
            return SubmitPath::Direct;
        }

        // One routing rule for every backend: ShardMap owns it (a pure
        // function of affinity and submitter, so the sim and the parity
        // fuzz route identically with no shared cursor).
        let shard = self.map.route_shard(affinity, submitter);
        // Count the task as ready *before* it becomes drainable: once the
        // ring push lands, a concurrent server can drain, pick, and
        // `fetch_sub` the counter — an increment ordered after that would
        // let it transiently wrap below zero, leaving has_ready() stuck
        // true until this thread resumes. The pre-increment's own
        // transient (ready count ahead of a not-yet-visible task) is
        // benign: a fetch finds nothing and the worker retries. SeqCst:
        // the producer side of the arming Dekker protocol — bump, then
        // scan/wake.
        let use_ring = self.ring_cap > 0 && slot < MAX_PROCS;
        if use_ring {
            // Contribution before the bump, exactly as in `guest_submit`:
            // if this thread dies after the bump, crash reclaim of `slot`
            // settles the counter from the residue.
            root.procs[slot].contrib[shard].fetch_add(1, Ordering::SeqCst);
        }
        root.shard_hot[shard].ready.fetch_add(1, Ordering::SeqCst);
        if use_ring && root.procs[slot].rings[shard].push(&self.seg, submitter, task.raw()) {
            // Dirty-mark the slot only after the push: a server that
            // drains on an earlier mark either takes this entry or leaves
            // the re-marking to us, but a mark before the push could be
            // consumed by an empty drain and strand the entry. (The lane
            // bit inside the LaneRing follows the same discipline one
            // level down.)
            root.shard_hot[shard]
                .ring_mask
                .fetch_or(1 << slot, Ordering::Release);
            return SubmitPath::Ring;
        }
        if use_ring {
            // Bounced to the locked path: the ready bump stays (the task
            // is still headed for this shard) but it is no longer a ring
            // contribution of `slot`.
            root.procs[slot].contrib[shard].fetch_sub(1, Ordering::SeqCst);
        }
        let mut core = self.shards[shard].lock();
        self.drain_rings_locked(&mut core, shard);
        let mut store = self.store(shard);
        core.route(&mut store, task);
        drop(core);
        SubmitPath::Locked
    }

    /// Requeues a yielding task (`nosv_yield`) behind all equal-priority
    /// work already submitted to its shard, whichever ring lane that work
    /// sits in: under the shard's lock, drain the shard's rings first,
    /// then route the task through [`SchedCore::yield_task`]. A ring push
    /// would only queue it behind its own lane, and a direct dispatch
    /// would run it ahead of everything. The caller counts a locked
    /// submit and wakes through [`Scheduler::wake_for`].
    pub(crate) fn submit_yield(&self, task: ReadyTask, affinity: Affinity, submitter: u64) {
        let shard = self.map.route_shard(affinity, submitter);
        // Counted before it becomes pickable, as in `submit_from`.
        self.root().shard_hot[shard]
            .ready
            .fetch_add(1, Ordering::SeqCst);
        let mut core = self.shards[shard].lock();
        self.drain_rings_locked(&mut core, shard);
        let mut store = self.store(shard);
        core.yield_task(&mut store, task);
    }

    /// Batch submission: inserts `tasks` (all of one process `slot`,
    /// sharing `affinity`, in submission order) paying the per-submission
    /// costs once per batch instead of once per task.
    ///
    /// * **Claim pass** — one walk of the armed CPUs matching `affinity`
    ///   hands off up to `min(N, armed, hw_threads)` leading tasks
    ///   directly, one gate notify each (capped at the host's hardware
    ///   parallelism: on an oversubscribed host, waking more workers than
    ///   cores converts the batch into context-switch thrash).
    /// * **Ring pass** — the remainder takes **one** ready-counter add,
    ///   one reserve-N lane push ([`LaneRing::push_n`]) and one dirty
    ///   mark.
    /// * **Locked pass** — whatever the lane could not hold is enqueued
    ///   under a single lock hold through [`SchedCore::enqueue_batch`]
    ///   (the same composition the simulator's `route_batch` performs).
    ///
    /// The caller issues one [`Scheduler::wake_for`] when `ring + locked
    /// > 0` — at most one server wake per batch.
    pub(crate) fn submit_batch(
        &self,
        tasks: &[ReadyTask],
        affinity: Affinity,
        slot: usize,
        submitter: u64,
    ) -> BatchSubmit {
        let root = self.root();
        let mut out = BatchSubmit::default();
        let mut idx = 0usize;

        if self.ring_cap > 0 {
            idx = self.try_direct_batch(affinity, tasks);
            out.direct = idx as u64;
        }
        if idx == tasks.len() {
            return out;
        }
        let rest = &tasks[idx..];
        let shard = self.map.route_shard(affinity, submitter);
        // One ready add for the whole remainder; same pre-push ordering
        // contract as `submit_from` (SeqCst bump before the entries become
        // drainable). A shortfall is *not* rolled back: the slice the lane
        // rejects is enqueued under the lock into the same shard, so every
        // counted task does end up drainable there.
        let use_ring = self.ring_cap > 0 && slot < MAX_PROCS;
        if use_ring {
            // One contribution add for the whole remainder, before the
            // bump (same crash-accounting order as the single-task path).
            root.procs[slot].contrib[shard].fetch_add(rest.len() as u64, Ordering::SeqCst);
        }
        root.shard_hot[shard]
            .ready
            .fetch_add(rest.len() as u64, Ordering::SeqCst);
        let mut pushed = 0usize;
        if use_ring {
            // One tail reservation for the whole prefix the lane can hold.
            let raws: Vec<u64> = rest.iter().map(|t| t.raw()).collect();
            pushed = root.procs[slot].rings[shard].push_n(&self.seg, submitter, &raws);
            if pushed > 0 {
                root.shard_hot[shard]
                    .ring_mask
                    .fetch_or(1 << slot, Ordering::Release);
            }
            if pushed < rest.len() {
                // The rejected suffix goes through the lock below: keep
                // its ready bumps, return its ring contributions.
                root.procs[slot].contrib[shard]
                    .fetch_sub((rest.len() - pushed) as u64, Ordering::SeqCst);
            }
        }
        out.ring = pushed as u64;
        if pushed < rest.len() {
            let overflow = &rest[pushed..];
            let mut core = self.shards[shard].lock();
            self.drain_rings_locked(&mut core, shard);
            let mut store = self.store(shard);
            core.enqueue_batch(&mut store, overflow);
            drop(core);
            out.locked = overflow.len() as u64;
        }
        out
    }

    /// The claim pass of [`Scheduler::submit_batch`]: hands the leading
    /// tasks to armed CPUs matching `affinity`, one notify per claimed
    /// CPU, and returns how many were handed off. Unlike the single-task
    /// path (which only claims the standby for unconstrained work, to
    /// keep serial streams on one cache-hot consumer), a batch *wants*
    /// its tasks consumed in parallel — every claimed CPU gets one task
    /// to start on while the queued remainder is drained — but never
    /// recruits more workers than the host has hardware threads.
    fn try_direct_batch(&self, affinity: Affinity, tasks: &[ReadyTask]) -> usize {
        let claim = &self.root().claim;
        // A placed batch only hands off inside its placement window (for
        // strict affinity that is a correctness rule; for best-effort the
        // queued remainder batches through one server rather than paying
        // one wake per task — see `try_direct_any`).
        let (lo, hi) = match affinity {
            Affinity::Core { index, .. } => (index, index + 1),
            Affinity::Numa { index, .. } => self.numa_cpu_range(index),
            Affinity::None => (0, self.cpus),
        };
        let budget = tasks.len().min(self.hw_threads);
        let mut idx = 0usize;
        for cpu in claim.armed_in(lo, hi) {
            if idx >= budget {
                break;
            }
            if claim.try_claim(cpu, tasks[idx].raw()) {
                self.gates.notify(cpu);
                idx += 1;
            }
        }
        idx
    }

    /// The direct-dispatch attempt: CAS the task into a matching armed
    /// CPU's claim slot and wake exactly that CPU. Returns `false` when
    /// no eligible CPU could be claimed (the caller queues normally).
    fn try_direct(&self, affinity: Affinity, task: ReadyTask) -> bool {
        let claim = &self.root().claim;
        let raw = task.raw();
        match affinity {
            Affinity::Core { index, strict } => {
                if claim.try_claim(index, raw) {
                    self.gates.notify(index);
                    return true;
                }
                !strict && self.try_direct_any(raw)
            }
            Affinity::Numa { index, strict } => {
                let (lo, hi) = self.numa_cpu_range(index);
                for cpu in claim.armed_in(lo, hi).take(CLAIM_ATTEMPTS) {
                    if claim.try_claim(cpu, raw) {
                        self.gates.notify(cpu);
                        return true;
                    }
                }
                !strict && self.try_direct_any(raw)
            }
            Affinity::None => self.try_direct_any(raw),
        }
    }

    fn try_direct_any(&self, raw: u64) -> bool {
        // Only the *standby spinner* is claimed for can-run-anywhere
        // work: it consumes the deposit without any futex transition,
        // stays cache-hot across a serial stream, and — crucially — is a
        // single consistent target. Scanning for *any* armed CPU here
        // would spread a burst of submissions over every parked worker,
        // paying one wakeup and one context switch per task where the
        // ring path batches them through one server (measurably slower
        // once workers outnumber hardware threads). Bursts therefore fall
        // through to the ring after the standby is claimed, and
        // `wake_for` keeps notifying the same lowest armed CPU, which
        // drains the batch alone.
        let claim = &self.root().claim;
        if let Some(cpu) = self.gates.standby() {
            if cpu < self.cpus && claim.try_claim(cpu, raw) {
                self.gates.notify(cpu);
                return true;
            }
        }
        false
    }

    /// Wakes the sleeper(s) a freshly queued (ring/locked path) task
    /// needs: the target core for a placed task, and for anything a
    /// steal can deliver, one CPU — but **only when every CPU is armed**.
    /// An un-armed CPU has a worker that is provably awake-or-arming, and
    /// the Dekker protocol (our SeqCst ready-counter bump precedes the
    /// mask scan; its SeqCst arm precedes its `has_ready` re-check)
    /// guarantees that worker observes this task before committing to
    /// sleep — so a busy runtime absorbs queued submissions with **zero**
    /// wake cost. No armed CPUs at all means nobody is committed to
    /// sleeping either.
    pub(crate) fn wake_for(&self, affinity: Affinity) {
        let claim = &self.root().claim;
        let wake_any_unless_hungry = || {
            if self.hungry.load(Ordering::SeqCst) > 0 {
                return;
            }
            // Recruiting cap, same rule as `chain_wake`: once `hw_threads`
            // workers are already awake the hardware is saturated and an
            // extra wake only adds preemption — on an oversubscribed host
            // the un-capped wake made every submission futex-ping-pong
            // between two workers (each wake targeting the one currently
            // armed), collapsing single-producer throughput at `cpus`
            // slightly above the core count. Liveness is preserved by the
            // same Dekker argument as the all-armed suppression above: an
            // awake worker only commits to sleep after arming *and*
            // re-checking `has_ready`, which observes our SeqCst ready
            // bump.
            let armed = claim.armed_count(self.cpus).min(self.cpus);
            if self.cpus - armed >= self.hw_threads {
                return;
            }
            if let Some(cpu) = self.preferred_armed_cpu() {
                self.gates.notify(cpu);
            }
        };
        match affinity {
            Affinity::None => wake_any_unless_hungry(),
            Affinity::Core { index, strict } => {
                // Cheap unconditional notify: only the target core may
                // run a strict task, and it may be mid-arm.
                self.gates.notify(index);
                if !strict {
                    wake_any_unless_hungry();
                }
            }
            Affinity::Numa { index, strict } => {
                let (lo, hi) = self.numa_cpu_range(index);
                // Only a node CPU can run a strict task, and which armed
                // node CPU will reach it first cannot be told apart here:
                // wake every armed one.
                let mut any = false;
                for cpu in claim.armed_in(lo, hi) {
                    self.gates.notify(cpu);
                    any = true;
                }
                if !strict && !any {
                    wake_any_unless_hungry();
                }
            }
        }
    }

    /// Wake chaining: the worker pull loop calls this after a
    /// *successful* fetch, **after** closing its hungry window. The
    /// hungry-gated wake suppression means a burst may queue N tasks
    /// with only the workers already awake consuming them; chaining lets
    /// each successful fetch recruit one more parked CPU — a geometric
    /// ramp-up — **capped at the host's hardware parallelism**, beyond
    /// which extra awake workers only thrash an oversubscribed host (the
    /// committed bench records quantify that collapse).
    ///
    /// The ordering closes the suppression race: this runs after
    /// [`Scheduler::end_fetch`]'s SeqCst decrement, and a submitter
    /// skips its wake only if it read the hungry count *before* that
    /// decrement — in which case its SeqCst ready bump precedes this
    /// call's `has_ready` load, which therefore sees the task. Either
    /// the submitter wakes someone, or every fetcher it counted on
    /// re-observes the work here.
    pub(crate) fn chain_wake(&self) {
        let claim = &self.root().claim;
        let armed = claim.armed_count(self.cpus).min(self.cpus);
        if armed == 0 || self.cpus - armed >= self.hw_threads || !self.has_ready() {
            return;
        }
        if let Some(cpu) = self.preferred_armed_cpu() {
            self.gates.notify(cpu);
        }
    }

    /// The best CPU to wake for can-run-anywhere work: the standby (its
    /// gate wake is futex-free while it spins), else the lowest armed.
    fn preferred_armed_cpu(&self) -> Option<usize> {
        self.gates
            .standby()
            .filter(|&c| c < self.cpus)
            .or_else(|| self.root().claim.armed_in(0, self.cpus).next())
    }

    /// The CPU index range of a NUMA node (`cpus_per_numa == 0` = one
    /// node spanning every CPU).
    fn numa_cpu_range(&self, index: usize) -> (usize, usize) {
        if self.cpus_per_numa == 0 {
            (0, self.cpus)
        } else {
            (
                index * self.cpus_per_numa,
                ((index + 1) * self.cpus_per_numa).min(self.cpus),
            )
        }
    }

    /// Marks the calling worker hungry for the duration of a fetch; see
    /// [`Scheduler::wake_for`]. Called by the worker pull loop around
    /// [`Scheduler::get_task`].
    pub(crate) fn begin_fetch(&self) {
        self.hungry.fetch_add(1, Ordering::SeqCst);
    }

    /// Ends the window opened by [`Scheduler::begin_fetch`].
    pub(crate) fn end_fetch(&self) {
        self.hungry.fetch_sub(1, Ordering::SeqCst);
    }

    /// Moves every ring entry of `shard` into its destination queue.
    /// Caller holds the shard's lock. One batch per lock hold: this is
    /// the paper's amortization — many lock-free submissions, one
    /// critical-section traversal.
    fn drain_rings_locked(&self, core: &mut SchedCore, shard: usize) {
        /// Pops per lock hold between batch enqueues (bounds the stack
        /// buffer; the loop continues until the lane is dry either way).
        const DRAIN_CHUNK: usize = 64;
        let root = self.root();
        let mut store = self.store(shard);
        let hot = &root.shard_hot[shard];
        let mut mask = hot.ring_mask.load(Ordering::Acquire);
        while mask != 0 {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            // Clear the dirty bit *before* draining: a producer that pushes
            // while we drain re-sets it, so the entry is either taken by
            // this batch or advertised for the next holder.
            hot.ring_mask.fetch_and(!(1 << slot), Ordering::AcqRel);
            let lanes = &root.procs[slot].rings[shard];
            // Same discipline one level down: take (clear) the dirty-lane
            // bitmap, then drain the lanes it named; racing producers
            // re-mark both levels after their push.
            let mut drained = 0u64;
            let mut dirty = lanes.take_dirty();
            while dirty != 0 {
                let lane = dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let ring = lanes.lane(lane);
                let mut buf = [Shoff::from_raw(0); DRAIN_CHUNK];
                loop {
                    let mut n = 0;
                    while n < DRAIN_CHUNK {
                        match ring.pop(&self.seg) {
                            Some(raw) => {
                                buf[n] = Shoff::from_raw(raw);
                                n += 1;
                            }
                            None => break,
                        }
                    }
                    if n == 0 {
                        break;
                    }
                    drained += n as u64;
                    // The ready counter was bumped at push time; routing
                    // moves the tasks between scheduler-internal homes.
                    core.enqueue_batch(&mut store, &buf[..n]);
                }
            }
            if drained > 0 {
                // Every popped entry's producer made a matching contrib
                // increment happens-before its publish, so this never
                // takes the counter below a concurrent producer's add.
                root.procs[slot].contrib[shard].fetch_sub(drained, Ordering::SeqCst);
            }
        }
    }

    /// Re-inserts a task the scheduler already handed out (a vanished
    /// delegation target). Caller holds `shard`'s lock.
    fn requeue_locked(&self, core: &mut SchedCore, shard: usize, task: ReadyTask) {
        let mut store = self.store(shard);
        core.route(&mut store, task);
        self.root().shard_hot[shard]
            .ready
            .fetch_add(1, Ordering::SeqCst);
    }

    /// Fetches the next task for `cpu`: its home shard first (winning the
    /// shard's DTLock and scheduling — also serving all waiting CPUs — or
    /// being served), then the other shards in rotation via cross-shard
    /// stealing.
    pub(crate) fn get_task(
        &self,
        cpu: usize,
        now_ns: u64,
        counters: &Counters,
        obs: &ObsCollector,
    ) -> Option<ReadyTask> {
        if !self.has_ready() {
            return None;
        }
        let cpu = cpu % self.cpus;
        let home = self.map.shard_of_cpu(cpu);
        let mine = match self.shards[home].acquire(cpu as u64) {
            Acquired::Served(task) => {
                counters.add(cpu, CounterKind::DelegationsServed, 1);
                return Some(task);
            }
            Acquired::Holder(mut guard) => DEFERRED.with(|cell| {
                let mut deferred = cell.borrow_mut();
                debug_assert!(deferred.is_empty());
                // The server's batch: first move every lock-free
                // submission into the shard's queues, then schedule for
                // ourselves and every waiting CPU under the same hold.
                self.drain_rings_locked(&mut guard, home);
                let mine =
                    self.pick_for_cpu(&mut guard, home, cpu, now_ns, counters, obs, &mut deferred);
                // Serve every waiting CPU we can see while we are the
                // server — the DTLock delegation pattern (§3.4).
                self.serve_waiters(&mut guard, home, now_ns, counters, obs, &mut deferred);
                drop(guard);
                for ev in deferred.drain(..) {
                    obs.emit(ev);
                }
                mine
            }),
        };
        match mine {
            Some(task) => Some(task),
            // Home shard dry: steal from the other shards in rotation.
            None => self.cross_shard_steal(cpu, home, now_ns, counters, obs),
        }
    }

    /// Serves the waiting CPUs of `shard`'s lock while the caller holds
    /// it — the DTLock delegation batch (§3.4). Waiters of this shard get
    /// a full pick; a *foreign* CPU in the queue is a cross-shard stealer
    /// and is served with **steal semantics** ([`SchedCore::
    /// steal_for_remote`]: strictness-aware, no quantum restart, no
    /// policy consult — exactly what it would have taken had it won the
    /// lock itself), so delegation keeps batching across stealers instead
    /// of degrading the shard into a ticket lock. The stealer's own
    /// `Served` arm does the steal accounting; nothing is counted here.
    fn serve_waiters(
        &self,
        guard: &mut DtGuard<'_, SchedCore, ReadyTask>,
        shard: usize,
        now_ns: u64,
        counters: &Counters,
        obs: &ObsCollector,
        deferred: &mut Vec<ObsEvent>,
    ) {
        while let Some(meta) = guard.next_waiter_meta() {
            let waiter_cpu = meta as usize % self.cpus;
            let task = if self.map.shard_of_cpu(waiter_cpu) == shard {
                self.pick_for_cpu(guard, shard, waiter_cpu, now_ns, counters, obs, deferred)
            } else {
                let mut store = self.store(shard);
                let stealer_numa = guard.numa_of(waiter_cpu);
                guard
                    .steal_for_remote(&mut store, STEAL_SCAN_LIMIT, stealer_numa)
                    .map(|Pick { task, .. }| {
                        self.root().shard_hot[shard]
                            .ready
                            .fetch_sub(1, Ordering::SeqCst);
                        task
                    })
            };
            match task {
                Some(task) => {
                    if let Err(task) = guard.serve_next(task) {
                        // Waiter vanished mid-publication: requeue.
                        self.requeue_locked(guard, shard, task);
                        break;
                    }
                }
                None => break,
            }
        }
    }

    /// The cross-shard half of a fetch: visit the other shards in rotated
    /// order, skip those advertising no ready work, and take one
    /// non-strict task from the first that has any
    /// ([`SchedCore::steal_for_remote`]). One victim lock at a time, and
    /// never while holding another shard's lock.
    ///
    /// The stealer joins the victim's **delegation protocol** (a plain
    /// `acquire`, publishing its CPU like any local waiter): an unslotted
    /// ticket would break the victim server's delegation batch and cost
    /// it a bounded probe spin per steal — exactly the convoy sharding
    /// exists to remove. A served value counts as the steal; a win of the
    /// lock steals directly and then serves the victim's own waiters
    /// while it holds the shard anyway.
    fn cross_shard_steal(
        &self,
        cpu: usize,
        home: usize,
        now_ns: u64,
        counters: &Counters,
        obs: &ObsCollector,
    ) -> Option<ReadyTask> {
        let root = self.root();
        for victim in self.map.steal_rotation(home) {
            if root.shard_hot[victim].ready.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let stolen = match self.shards[victim].acquire(cpu as u64) {
                // The victim's server handed us a task through our wait
                // slot — with steal semantics, since it recognized our
                // foreign CPU (see serve_waiters). The accounting below
                // is ours.
                Acquired::Served(task) => Some(task),
                Acquired::Holder(mut guard) => {
                    self.drain_rings_locked(&mut guard, victim);
                    let mut store = self.store(victim);
                    let stealer_numa = guard.numa_of(cpu);
                    let picked = guard.steal_for_remote(&mut store, STEAL_SCAN_LIMIT, stealer_numa);
                    let stolen = picked.map(|Pick { task, .. }| {
                        root.shard_hot[victim].ready.fetch_sub(1, Ordering::SeqCst);
                        task
                    });
                    // While we hold the victim shard, serve its waiting
                    // CPUs exactly as its own server would (§3.4) — a
                    // stealer must not degrade the shard it visits into a
                    // plain ticket lock.
                    DEFERRED.with(|cell| {
                        let mut deferred = cell.borrow_mut();
                        self.serve_waiters(
                            &mut guard,
                            victim,
                            now_ns,
                            counters,
                            obs,
                            &mut deferred,
                        );
                        drop(guard);
                        for ev in deferred.drain(..) {
                            obs.emit(ev);
                        }
                    });
                    stolen
                }
            };
            if let Some(task) = stolen {
                counters.add(cpu, CounterKind::ShardSteals, 1);
                if obs.enabled() {
                    // SAFETY: a task handed out by the scheduler is alive.
                    let d = unsafe { self.seg.sref(task) };
                    obs.emit(ObsEvent {
                        t_ns: now_ns,
                        cpu: cpu as u32,
                        pid: d.pid.load(Ordering::Relaxed),
                        task: TaskId(d.id.load(Ordering::Relaxed)),
                        kind: ObsKind::Steal,
                    });
                }
                return Some(task);
            }
        }
        None
    }

    /// The scheduling decision for one CPU — one call into the shared
    /// core, plus the live backend's bookkeeping (ready count, counters,
    /// deferred observability). Caller holds `shard`'s lock. The counters
    /// go to `cpu`'s block even when a server picks for a waiter.
    #[allow(clippy::too_many_arguments)]
    fn pick_for_cpu(
        &self,
        core: &mut SchedCore,
        shard: usize,
        cpu: usize,
        now_ns: u64,
        counters: &Counters,
        obs: &ObsCollector,
        deferred: &mut Vec<ObsEvent>,
    ) -> Option<ReadyTask> {
        let mut store = self.store(shard);
        let Pick { task, pid, source } = core.pick(&mut store, &*self.policy, cpu, now_ns)?;
        self.root().shard_hot[shard]
            .ready
            .fetch_sub(1, Ordering::SeqCst);
        match source {
            PickSource::Process {
                quantum_expired: true,
            } => {
                counters.add(cpu, CounterKind::QuantumSwitches, 1);
            }
            PickSource::Steal => {
                counters.add(cpu, CounterKind::AffinitySteals, 1);
                if obs.enabled() {
                    // SAFETY: a task handed out by the scheduler is alive.
                    let d = unsafe { self.seg.sref(task) };
                    deferred.push(ObsEvent {
                        t_ns: now_ns,
                        cpu: (cpu % self.cpus) as u32,
                        pid,
                        task: TaskId(d.id.load(Ordering::Relaxed)),
                        kind: ObsKind::Steal,
                    });
                }
            }
            _ => {}
        }
        Some(task)
    }

    /// Snapshot for observability. Acquires every shard lock in ascending
    /// order (the only multi-lock site), so the view is consistent across
    /// shards.
    pub(crate) fn snapshot(&self) -> SchedulerSnapshot {
        let guards: Vec<DtGuard<'_, SchedCore, ReadyTask>> =
            self.shards.iter().map(|l| l.lock()).collect();
        let root = self.root();
        let total_ready = (0..self.shards.len())
            .map(|s| root.shard_hot[s].ready.load(Ordering::Relaxed))
            .sum();
        let per_process = (0..guards[0].max_procs())
            .filter(|&slot| guards[0].proc_active(slot))
            .map(|slot| {
                let p = &root.procs[slot];
                let queued: u64 = (0..self.shards.len())
                    .map(|s| p.queues[s].len() + p.rings[s].len())
                    .sum();
                (guards[0].proc_pid(slot), queued)
            })
            .collect();
        let per_core_pid = (0..self.cpus)
            .map(|c| guards[self.map.shard_of_cpu(c)].core_pid(c))
            .collect();
        SchedulerSnapshot {
            total_ready,
            per_process,
            per_core_pid,
        }
    }

    /// Asserts every shard's readiness bitmaps agree with a naive recount
    /// of the queues it owns (test support; takes each shard's lock).
    #[cfg(test)]
    fn assert_masks_consistent(&self) {
        for (s, lock) in self.shards.iter().enumerate() {
            let core = lock.lock();
            let map = self.map;
            core.assert_masks_consistent_where(&self.store(s), |q| match q {
                QueueId::Proc(_) => true,
                QueueId::Core(c) => map.shard_of_cpu(c) == s,
                QueueId::Numa(n) => map.shard_of_numa(n) == s,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use nosv_shmem::SegmentConfig;

    fn obs() -> ObsCollector {
        ObsCollector::disabled()
    }

    fn setup(cpus: usize, cpus_per_numa: usize, quantum_ns: u64) -> (ShmSegment, Scheduler) {
        setup_full(cpus, cpus_per_numa, quantum_ns, 256, 0)
    }

    fn setup_ring(
        cpus: usize,
        cpus_per_numa: usize,
        quantum_ns: u64,
        ring_cap: usize,
    ) -> (ShmSegment, Scheduler) {
        setup_full(cpus, cpus_per_numa, quantum_ns, ring_cap, 0)
    }

    fn setup_full(
        cpus: usize,
        cpus_per_numa: usize,
        quantum_ns: u64,
        ring_cap: usize,
        sched_shards: usize,
    ) -> (ShmSegment, Scheduler) {
        let seg = ShmSegment::create(SegmentConfig {
            size: 8 * 1024 * 1024,
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
        let policy = Arc::new(crate::policy::QuantumPolicy::new(quantum_ns));
        let gates = Arc::new(CpuGates::new(cpus));
        let sched = Scheduler::new(seg.clone(), &cfg, policy, gates).expect("segment fits");
        (seg, sched)
    }

    fn mk_task(
        seg: &ShmSegment,
        id: u64,
        slot: u32,
        pid: u64,
        priority: i32,
        affinity: Affinity,
    ) -> ReadyTask {
        let off: Shoff<TaskDesc> = seg
            .alloc_zeroed(std::mem::size_of::<TaskDesc>(), 0)
            .unwrap()
            .cast();
        // SAFETY: fresh zeroed descriptor.
        let d = unsafe { seg.sref(off) };
        d.id.store(id, Ordering::Relaxed);
        d.slot.store(slot, Ordering::Relaxed);
        d.pid.store(pid, Ordering::Relaxed);
        d.priority.store(priority as u32, Ordering::Relaxed);
        d.affinity.store(affinity.encode(), Ordering::Relaxed);
        d.set_state(TaskState::Ready);
        off
    }

    fn id_of(seg: &ShmSegment, t: ReadyTask) -> u64 {
        unsafe { seg.sref(t) }.id.load(Ordering::Relaxed)
    }

    #[test]
    fn single_process_fifo() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        for id in 0..3 {
            sched.submit(mk_task(&seg, id, 0, 10, 0, Affinity::None));
        }
        assert!(sched.has_ready());
        for id in 0..3 {
            let t = sched.get_task(0, 0, &c, &obs()).unwrap();
            assert_eq!(id_of(&seg, t), id);
        }
        assert!(!sched.has_ready());
        assert!(sched.get_task(0, 0, &c, &obs()).is_none());
    }

    #[test]
    fn submission_goes_through_the_ring() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        assert_eq!(
            sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None)),
            SubmitPath::Ring
        );
        // The task is ready (counted) but still in the ring, not a queue.
        assert!(sched.has_ready());
        let snap = sched.snapshot();
        assert_eq!(snap.per_process, vec![(10, 1)], "ring contents count");
        // The server drains the ring and picks the task in one hold.
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
        assert!(!sched.has_ready());
    }

    #[test]
    fn ring_disabled_falls_back_to_locked_path() {
        let (seg, sched) = setup_ring(1, 0, 1_000_000, 0);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        assert_eq!(
            sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None)),
            SubmitPath::Locked
        );
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
    }

    /// A yield lands behind equal-priority work in *any* ring lane: `b`
    /// waits in another producer's lane, and the yield comes from the
    /// lane-0 producer. A drain visits lanes in index order, so a ring
    /// push of the yield would be picked before `b`.
    #[test]
    fn yield_requeues_behind_work_in_other_lanes() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        let a = mk_task(&seg, 1, 0, 10, 0, Affinity::None);
        let b = mk_task(&seg, 2, 0, 10, 0, Affinity::None);
        assert_eq!(sched.submit_from(b, Affinity::None, 1), SubmitPath::Ring);
        sched.submit_yield(a, Affinity::None, 0);
        assert_eq!(id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()), 2);
        assert_eq!(id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()), 1);
        assert!(!sched.has_ready());
    }

    #[test]
    fn full_ring_overflows_to_locked_path_and_loses_nothing() {
        let (seg, sched) = setup_ring(1, 0, 1_000_000, 2);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        let mut ring = 0;
        let mut locked = 0;
        for id in 0..5 {
            match sched.submit(mk_task(&seg, id, 0, 10, 0, Affinity::None)) {
                SubmitPath::Ring => ring += 1,
                SubmitPath::Locked => locked += 1,
                SubmitPath::Direct => unreachable!("no CPU is armed"),
            }
        }
        // Submissions 1–2 fill the ring; 3 overflows to the locked path,
        // whose drain empties the ring again, so 4–5 ride the ring.
        assert_eq!(ring, 4, "drain-on-overflow reopens the ring");
        assert_eq!(locked, 1, "only the overflow takes the locked path");
        let mut got: Vec<u64> = (0..5)
            .map(|_| id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(!sched.has_ready());
    }

    #[test]
    fn process_preference_sticks_within_quantum() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.register_proc(1, 20);
        // Interleave submissions from two processes.
        for id in 0..4 {
            sched.submit(mk_task(&seg, 100 + id, 0, 10, 0, Affinity::None));
            sched.submit(mk_task(&seg, 200 + id, 1, 20, 0, Affinity::None));
        }
        // Within the quantum the core should drain one process first.
        let first = sched.get_task(0, 0, &c, &obs()).unwrap();
        let first_pid = unsafe { seg.sref(first) }.pid.load(Ordering::Relaxed);
        for _ in 0..3 {
            let t = sched.get_task(0, 10, &c, &obs()).unwrap();
            assert_eq!(
                unsafe { seg.sref(t) }.pid.load(Ordering::Relaxed),
                first_pid,
                "process preference must hold inside the quantum"
            );
        }
        // Only the other process remains.
        let t = sched.get_task(0, 20, &c, &obs()).unwrap();
        assert_ne!(
            unsafe { seg.sref(t) }.pid.load(Ordering::Relaxed),
            first_pid
        );
    }

    #[test]
    fn quantum_expiry_switches_processes() {
        let (seg, sched) = setup(1, 0, 100);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.register_proc(1, 20);
        for id in 0..4 {
            sched.submit(mk_task(&seg, 100 + id, 0, 10, 0, Affinity::None));
            sched.submit(mk_task(&seg, 200 + id, 1, 20, 0, Affinity::None));
        }
        let t0 = sched.get_task(0, 0, &c, &obs()).unwrap();
        let pid0 = unsafe { seg.sref(t0) }.pid.load(Ordering::Relaxed);
        // Past the quantum: the next pick must switch processes.
        let t1 = sched.get_task(0, 500, &c, &obs()).unwrap();
        let pid1 = unsafe { seg.sref(t1) }.pid.load(Ordering::Relaxed);
        assert_ne!(pid0, pid1);
        assert_eq!(c.get(CounterKind::QuantumSwitches), 1);
    }

    #[test]
    fn strict_core_affinity_is_never_stolen() {
        let (seg, sched) = setup(4, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.submit(mk_task(
            &seg,
            1,
            0,
            10,
            0,
            Affinity::Core {
                index: 2,
                strict: true,
            },
        ));
        // CPUs 0, 1, 3 must not get it.
        for cpu in [0usize, 1, 3] {
            assert!(
                sched.get_task(cpu, 0, &c, &obs()).is_none(),
                "cpu {cpu} stole"
            );
        }
        let t = sched.get_task(2, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
    }

    #[test]
    fn best_effort_affinity_is_stolen_when_idle() {
        let (seg, sched) = setup(4, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.submit(mk_task(
            &seg,
            1,
            0,
            10,
            0,
            Affinity::Core {
                index: 2,
                strict: false,
            },
        ));
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
        assert_eq!(c.get(CounterKind::AffinitySteals), 1);
    }

    #[test]
    fn numa_affinity_routes_to_node_cpus() {
        // 4 CPUs, 2 per NUMA node (and so, by default, 2 shards).
        let (seg, sched) = setup(4, 2, 1_000_000);
        assert_eq!(sched.shard_count(), 2, "default: one shard per node");
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.submit(mk_task(
            &seg,
            1,
            0,
            10,
            0,
            Affinity::Numa {
                index: 1,
                strict: true,
            },
        ));
        // Node 0 CPUs see nothing.
        assert!(sched.get_task(0, 0, &c, &obs()).is_none());
        assert!(sched.get_task(1, 0, &c, &obs()).is_none());
        // Node 1 CPU gets it.
        let t = sched.get_task(3, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
    }

    #[test]
    fn app_priority_beats_round_robin() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.register_proc(1, 20);
        sched.set_app_priority(1, 5);
        sched.submit(mk_task(&seg, 100, 0, 10, 0, Affinity::None));
        sched.submit(mk_task(&seg, 200, 1, 20, 0, Affinity::None));
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 200, "high-app-priority process first");
    }

    #[test]
    fn task_priority_orders_within_process() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        sched.submit(mk_task(&seg, 2, 0, 10, 9, Affinity::None));
        sched.submit(mk_task(&seg, 3, 0, 10, 4, Affinity::None));
        let order: Vec<u64> = (0..3)
            .map(|_| id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()))
            .collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn snapshot_reports_queues() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        sched.register_proc(0, 10);
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        sched.submit(mk_task(&seg, 2, 0, 10, 0, Affinity::None));
        let snap = sched.snapshot();
        assert_eq!(snap.total_ready, 2);
        assert_eq!(snap.per_process, vec![(10, 2)]);
    }

    #[test]
    fn unregister_with_queued_tasks_is_a_recoverable_error() {
        let (seg, sched) = setup(1, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        // The queued task blocks the detach — recoverably, and the error
        // reports how much work is outstanding.
        assert_eq!(
            sched.unregister_proc(0),
            Err(NosvError::ProcessBusy { queued: 1 })
        );
        // The slot is still registered and schedulable.
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 1);
        // Drained: now the detach succeeds.
        assert_eq!(sched.unregister_proc(0), Ok(()));
    }

    #[test]
    fn unregister_counts_placed_tasks_in_other_queues() {
        let (seg, sched) = setup(4, 2, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        // Placed tasks route to a core queue and a NUMA queue, NOT the
        // process queue — they must still block the detach.
        sched.submit(mk_task(
            &seg,
            1,
            0,
            10,
            0,
            Affinity::Core {
                index: 2,
                strict: true,
            },
        ));
        sched.submit(mk_task(
            &seg,
            2,
            0,
            10,
            0,
            Affinity::Numa {
                index: 1,
                strict: true,
            },
        ));
        assert_eq!(
            sched.unregister_proc(0),
            Err(NosvError::ProcessBusy { queued: 2 })
        );
        assert!(sched.get_task(2, 0, &c, &obs()).is_some());
        assert_eq!(
            sched.unregister_proc(0),
            Err(NosvError::ProcessBusy { queued: 1 }),
            "one placed task still queued"
        );
        assert!(sched.get_task(3, 0, &c, &obs()).is_some());
        assert_eq!(sched.unregister_proc(0), Ok(()));
    }

    #[test]
    fn reclaim_settles_counter_leaks_and_stranded_slots() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        sched.register_proc(0, 10);
        // A normally queued task of the doomed slot (ring path).
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        let root = sched.root();
        // A producer dying at `sched.guest_submit.counted`: counted, but
        // no ring slot was ever claimed.
        root.procs[0].contrib[0].fetch_add(1, Ordering::SeqCst);
        root.shard_hot[0].ready.fetch_add(1, Ordering::SeqCst);
        // A producer dying at `ring.push.reserved`: counted and claimed,
        // never published — this wedges the producer's lane.
        root.procs[0].contrib[0].fetch_add(1, Ordering::SeqCst);
        root.shard_hot[0].ready.fetch_add(1, Ordering::SeqCst);
        assert!(root.procs[0].rings[0].lane(0).strand_one(&seg));

        let report = sched.reclaim_slot(0);
        let ids: Vec<u64> = report.tasks.iter().map(|&t| id_of(&seg, t)).collect();
        assert_eq!(ids, vec![1], "only the real task has a descriptor");
        assert_eq!(report.stranded, 1, "the unpublished claim is retired");
        assert_eq!(report.counter_leak, 1, "the push-less bump is settled");
        // The counters are exact again: nothing ready, nothing residual.
        assert!(!sched.has_ready());
        assert_eq!(root.procs[0].contrib[0].load(Ordering::SeqCst), 0);
        sched.assert_masks_consistent();
        // The slot — wedged lane included — is fully reusable.
        let c = Counters::new(0);
        sched.register_proc(0, 30);
        sched.submit(mk_task(&seg, 2, 0, 30, 0, Affinity::None));
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 2);
        assert!(!sched.has_ready());
        assert_eq!(sched.unregister_proc(0), Ok(()));
    }

    #[test]
    fn reclaim_recovers_values_published_behind_a_stranded_claim() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        sched.register_proc(0, 10);
        let root = sched.root();
        let lane = root.procs[0].rings[0].lane(0);
        // Dead producer history, oldest first: one drained-normally task,
        // then a stranded claim, then a published-but-unreachable task.
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        root.procs[0].contrib[0].fetch_add(1, Ordering::SeqCst);
        root.shard_hot[0].ready.fetch_add(1, Ordering::SeqCst);
        assert!(lane.strand_one(&seg));
        // This one publishes fine but sits behind the corpse's claim.
        sched.submit_from(
            mk_task(&seg, 2, 0, 10, 0, Affinity::None),
            Affinity::None,
            0,
        );

        let report = sched.reclaim_slot(0);
        let mut ids: Vec<u64> = report.tasks.iter().map(|&t| id_of(&seg, t)).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2], "the wedged-in value is recovered");
        assert_eq!(report.stranded, 1);
        assert_eq!(report.counter_leak, 0);
        assert!(!sched.has_ready());
        sched.assert_masks_consistent();
    }

    #[test]
    fn unregister_flushes_the_submission_ring_first() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        sched.register_proc(0, 10);
        // Sits in the lock-free ring until someone drains.
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        // The detach drains the ring into the queue, then refuses.
        assert_eq!(
            sched.unregister_proc(0),
            Err(NosvError::ProcessBusy { queued: 1 })
        );
        sched.assert_masks_consistent();
    }

    #[test]
    fn reclaim_slot_takes_queued_tasks_from_every_queue() {
        // 4 CPUs, 2 nodes, 2 shards: tasks of the doomed slot land in
        // process queues of both shards, a core queue and a NUMA queue —
        // plus one still sitting in a submission ring.
        let (seg, sched) = setup(4, 2, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.register_proc(1, 20);
        sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None));
        sched.submit(mk_task(&seg, 2, 0, 10, 0, Affinity::None));
        sched.submit(mk_task(
            &seg,
            3,
            0,
            10,
            0,
            Affinity::Core {
                index: 2,
                strict: true,
            },
        ));
        sched.submit(mk_task(
            &seg,
            4,
            0,
            10,
            0,
            Affinity::Numa {
                index: 1,
                strict: true,
            },
        ));
        // A survivor task of another process must stay queued.
        sched.submit(mk_task(&seg, 100, 1, 20, 0, Affinity::None));

        let report = sched.reclaim_slot(0);
        let mut ids: Vec<u64> = report.tasks.iter().map(|&t| id_of(&seg, t)).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert_eq!(report.stranded, 0);
        assert_eq!(report.counter_leak, 0);
        sched.assert_masks_consistent();
        // The survivor is still schedulable; nothing else is.
        let t = sched.get_task(0, 0, &c, &obs()).unwrap();
        assert_eq!(id_of(&seg, t), 100);
        assert!(!sched.has_ready());
        // The slot is gone: re-registering works (fresh state).
        sched.register_proc(0, 30);
        assert_eq!(sched.unregister_proc(0), Ok(()));
    }

    #[test]
    fn direct_dispatch_claims_the_armed_target_cpu() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        // CPU 1 goes idle and arms its claim slot; a task placed on it
        // bypasses every queue and lands straight in the slot.
        sched.arm_idle(1);
        assert_eq!(
            sched.submit(mk_task(
                &seg,
                7,
                0,
                10,
                0,
                Affinity::Core {
                    index: 1,
                    strict: true,
                },
            )),
            SubmitPath::Direct
        );
        assert!(!sched.has_ready(), "the task was never queued");
        let t = sched.disarm_idle(1).expect("deposited");
        assert_eq!(id_of(&seg, t), 7);
        // Nothing left for anyone else.
        assert!(sched.get_task(0, 0, &c, &obs()).is_none());
    }

    #[test]
    fn unconstrained_tasks_only_claim_the_standby_cpu() {
        // Without a parked worker holding the standby role, unconstrained
        // submissions must NOT scatter over armed CPUs (that spreads a
        // burst over every parked worker — one wake per task); they take
        // the ring. The standby fast path itself is exercised end-to-end
        // in tests/direct_dispatch.rs, where real workers hold the role.
        let (seg, sched) = setup(2, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.arm_idle(1);
        assert_eq!(
            sched.submit(mk_task(&seg, 7, 0, 10, 0, Affinity::None)),
            SubmitPath::Ring
        );
        assert!(sched.disarm_idle(1).is_none(), "slot must stay empty");
        assert_eq!(id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()), 7);
    }

    #[test]
    fn strict_placed_tasks_only_claim_their_target() {
        let (seg, sched) = setup(4, 2, 1_000_000);
        sched.register_proc(0, 10);
        sched.arm_idle(0); // wrong core
        let strict_core = Affinity::Core {
            index: 2,
            strict: true,
        };
        assert_eq!(
            sched.submit(mk_task(&seg, 1, 0, 10, 0, strict_core)),
            SubmitPath::Ring,
            "armed CPU 0 must not receive a strict core-2 task"
        );
        assert!(sched.disarm_idle(0).is_none());
        // Now arm the target: the next strict task goes direct.
        sched.arm_idle(2);
        assert_eq!(
            sched.submit(mk_task(&seg, 2, 0, 10, 0, strict_core)),
            SubmitPath::Direct
        );
        let t = sched.disarm_idle(2).expect("deposited on the target");
        assert_eq!(id_of(&seg, t), 2);
    }

    #[test]
    fn best_effort_placed_tasks_claim_their_armed_target() {
        let (seg, sched) = setup(4, 2, 1_000_000);
        sched.register_proc(0, 10);
        sched.arm_idle(2); // the preferred core is idle
        assert_eq!(
            sched.submit(mk_task(
                &seg,
                3,
                0,
                10,
                0,
                Affinity::Core {
                    index: 2,
                    strict: false,
                },
            )),
            SubmitPath::Direct
        );
        assert_eq!(id_of(&seg, sched.disarm_idle(2).unwrap()), 3);
    }

    #[test]
    fn numa_tasks_claim_an_armed_cpu_of_their_node() {
        let (seg, sched) = setup(4, 2, 1_000_000);
        sched.register_proc(0, 10);
        sched.arm_idle(0); // node 0 — wrong node for the task below
        sched.arm_idle(3); // node 1 — eligible
        assert_eq!(
            sched.submit(mk_task(
                &seg,
                9,
                0,
                10,
                0,
                Affinity::Numa {
                    index: 1,
                    strict: true,
                },
            )),
            SubmitPath::Direct
        );
        assert!(sched.disarm_idle(0).is_none(), "wrong node never claimed");
        assert_eq!(id_of(&seg, sched.disarm_idle(3).unwrap()), 9);
    }

    #[test]
    fn disarmed_cpu_is_never_claimed() {
        let (seg, sched) = setup(2, 0, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        sched.arm_idle(0);
        assert!(sched.disarm_idle(0).is_none(), "nothing deposited yet");
        // The claim window closed: submissions queue normally.
        assert_eq!(
            sched.submit(mk_task(&seg, 1, 0, 10, 0, Affinity::None)),
            SubmitPath::Ring
        );
        assert_eq!(id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()), 1);
    }

    #[test]
    fn sharded_cross_shard_steal_drains_everything() {
        // 4 CPUs, 2 nodes, 2 shards: CPU 0 must be able to drain tasks
        // routed to both shards (its own by pick, the other's by steal).
        let (seg, sched) = setup(4, 2, 1_000_000);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        // Distinct submitter tags land the unconstrained tasks in both
        // shards (sticky routing: one thread would stay in one shard).
        for id in 0..6 {
            sched.submit_from(
                mk_task(&seg, id, 0, 10, 0, Affinity::None),
                Affinity::None,
                id,
            );
        }
        let mut got: Vec<u64> = (0..6)
            .map(|_| id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()))
            .collect();
        assert!(sched.get_task(0, 0, &c, &obs()).is_none());
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert!(
            c.get(CounterKind::ShardSteals) > 0,
            "half the tasks live in the foreign shard"
        );
        assert!(!sched.has_ready());
        sched.assert_masks_consistent();
    }

    #[test]
    fn explicit_shard_count_overrides_the_numa_default() {
        let (seg, sched) = setup_full(4, 2, 1_000_000, 256, 1);
        assert_eq!(sched.shard_count(), 1);
        let c = Counters::new(0);
        sched.register_proc(0, 10);
        for id in 0..4 {
            sched.submit(mk_task(&seg, id, 0, 10, 0, Affinity::None));
        }
        // Single shard: plain FIFO, no cross-shard steals.
        for id in 0..4 {
            assert_eq!(id_of(&seg, sched.get_task(0, 0, &c, &obs()).unwrap()), id);
        }
        assert_eq!(c.get(CounterKind::ShardSteals), 0);
    }

    /// Seeded property test: after every random submit / get_task step,
    /// each shard's readiness bitmaps must agree with a naive recount of
    /// the queues it owns. Random affinities exercise core/NUMA/process
    /// routing across shards; random consumers exercise pops, in-shard
    /// steals and cross-shard steals.
    #[test]
    fn readiness_bitmaps_match_naive_recount_under_random_ops() {
        use nosv_sync::SplitMix64;
        for seed in 0..10u64 {
            let mut rng = SplitMix64::new(0x05ee_db17 ^ seed);
            let cpus = 1 + (rng.next_u64() % 6) as usize; // 1..=6
            let per_numa = [0usize, 2][(rng.next_u64() % 2) as usize];
            let shards = 1 + (rng.next_u64() % 3) as usize; // 1..=3
            let shards = shards.min(cpus);
            let (seg, sched) = setup_full(cpus, per_numa, 1_000_000, 4, shards);
            let c = Counters::new(0);
            let procs = 1 + (rng.next_u64() % 3) as u32;
            for slot in 0..procs {
                sched.register_proc(slot, 10 + slot as u64);
            }
            let numa_nodes = if per_numa == 0 {
                1
            } else {
                cpus.div_ceil(per_numa)
            };
            let mut outstanding = 0u64;
            let mut next_id = 1u64;
            for _ in 0..400 {
                let op = rng.next_u64() % 100;
                if op < 55 || outstanding == 0 {
                    // Submit with a random (valid) affinity. The tiny ring
                    // capacity forces frequent locked-path overflows.
                    let slot = rng.next_u64() % procs as u64;
                    let strict = rng.next_u64().is_multiple_of(2);
                    let affinity = match rng.next_u64() % 3 {
                        0 => Affinity::None,
                        1 => Affinity::Core {
                            index: (rng.next_u64() % cpus as u64) as usize,
                            strict,
                        },
                        _ => Affinity::Numa {
                            index: (rng.next_u64() % numa_nodes as u64) as usize,
                            strict,
                        },
                    };
                    let prio = (rng.next_u64() % 5) as i32;
                    sched.submit(mk_task(
                        &seg,
                        next_id,
                        slot as u32,
                        10 + slot,
                        prio,
                        affinity,
                    ));
                    next_id += 1;
                    outstanding += 1;
                } else {
                    // A random CPU fetches (pop, in-shard steal, or
                    // cross-shard steal, per affinity and shard layout).
                    let cpu = (rng.next_u64() % cpus as u64) as usize;
                    if sched
                        .get_task(cpu, rng.next_u64() % 1_000, &c, &obs())
                        .is_some()
                    {
                        outstanding -= 1;
                    }
                }
                sched.assert_masks_consistent();
            }
            // Drain everything; masks must end all-clear.
            let mut spins = 0;
            while outstanding > 0 {
                let mut progress = false;
                for cpu in 0..cpus {
                    if sched.get_task(cpu, u64::MAX / 2, &c, &obs()).is_some() {
                        outstanding -= 1;
                        progress = true;
                    }
                }
                assert!(progress || outstanding == 0, "undrainable tasks remain");
                spins += 1;
                assert!(spins < 10_000, "drain did not converge");
            }
            sched.assert_masks_consistent();
            assert!(!sched.has_ready(), "seed {seed}: ready count leaked");
        }
    }
}
