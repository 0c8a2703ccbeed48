//! Worker threads, the CPU manager protocol, and `nosv_pause` (paper §3.3).
//!
//! The invariant the whole design revolves around: **at any instant, each
//! logical core has at most one runnable worker thread**, no matter how many
//! processes are attached. Cores change hands only at explicit transfer
//! points, each of which deactivates the current worker and activates
//! exactly one successor:
//!
//! * **cross-process handoff** — a worker pulls a task belonging to another
//!   process, wakes (or spawns) a worker of that process on its core, and
//!   parks itself in its process's idle pool;
//! * **pause** — a task blocks; its thread stays attached to it
//!   (preserving the full pthread context, TLS included) and a replacement
//!   worker takes over the core;
//! * **resume** — a worker pulls a resubmitted paused task, wakes the
//!   attached thread on its core, and parks itself.
//!
//! Workers communicate through single-slot mailboxes ([`Assignment`]):
//! parked workers block on their mailbox; idle cores block on the runtime's
//! idle gate until a submission arrives (the futex-idle behaviour of §5.2's
//! "oversubscription idle" baseline — nOS-V never busy-waits for work).

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nosv_shmem::Shoff;
use nosv_sync::{Condvar, Mutex};

use crate::obs::{CounterKind, ObsEvent, ObsKind, OBS_BUF_CAP};
use crate::runtime::RuntimeInner;
use crate::scheduler::ReadyTask;
use crate::task::{Affinity, TaskCallbacks, TaskCtx, TaskDesc, TaskId, TaskSignal, TaskState};

/// A work order delivered to a worker's mailbox.
pub(crate) enum Assignment {
    /// Take over `core` and pull tasks from the shared scheduler.
    Pull {
        /// The core to manage.
        core: usize,
    },
    /// Take over `core` and execute `task` (cross-process handoff target).
    RunTask {
        /// The core to manage after the task.
        core: usize,
        /// The task to execute.
        task: ReadyTask,
    },
    /// Continue a paused task on `core` (delivered inside [`pause`]).
    Resume {
        /// The core the task resumes on.
        core: usize,
    },
}

/// State shared between a worker thread and everyone who may wake it.
pub(crate) struct WorkerShared {
    /// Global index in the runtime's worker table.
    pub index: usize,
    /// PID of the process this worker belongs to (tasks of other processes
    /// are never executed on this thread).
    pub pid: u64,
    mailbox: Mutex<Option<Assignment>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl WorkerShared {
    pub(crate) fn new(index: usize, pid: u64) -> Arc<WorkerShared> {
        Arc::new(WorkerShared {
            index,
            pid,
            mailbox: Mutex::new(None),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Delivers an assignment. The mailbox must be empty: a worker only
    /// becomes assignable after parking, and each transfer point assigns
    /// exactly once.
    pub(crate) fn assign(&self, a: Assignment) {
        let mut m = self.mailbox.lock();
        debug_assert!(m.is_none(), "double assignment to worker {}", self.index);
        *m = Some(a);
        self.cv.notify_one();
    }

    /// Signals the worker to exit once its mailbox drains.
    pub(crate) fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _m = self.mailbox.lock();
        self.cv.notify_one();
    }

    /// Blocks until an assignment (or shutdown) arrives.
    fn wait(&self) -> Option<Assignment> {
        let mut m = self.mailbox.lock();
        loop {
            if let Some(a) = m.take() {
                return Some(a);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            self.cv.wait(&mut m);
        }
    }
}

struct WorkerTls {
    rt: Arc<RuntimeInner>,
    me: Arc<WorkerShared>,
    core: Cell<usize>,
    /// Raw offset of the currently executing task (0 = none).
    current_task: Cell<u64>,
    /// This worker's lock-free observability buffer: only the owning
    /// thread touches it, so recording an event is a plain vector push.
    /// Drained to the runtime's sink at flush points ([`obs_flush_local`]).
    obs: RefCell<Vec<ObsEvent>>,
}

thread_local! {
    static TLS: RefCell<Option<WorkerTls>> = const { RefCell::new(None) };
}

/// The core the calling worker currently manages, if the caller is a worker.
pub(crate) fn current_core() -> Option<usize> {
    TLS.with(|t| t.borrow().as_ref().map(|w| w.core.get()))
}

/// Raw descriptor offset of the task executing on this thread, if any.
pub(crate) fn current_task_raw() -> Option<u64> {
    TLS.with(|t| {
        t.borrow().as_ref().and_then(|w| {
            let raw = w.current_task.get();
            if raw == 0 {
                None
            } else {
                Some(raw)
            }
        })
    })
}

fn with_tls<R>(f: impl FnOnce(&WorkerTls) -> R) -> Option<R> {
    TLS.with(|t| t.borrow().as_ref().map(f))
}

/// Buffers `ev` in the calling worker's local trace buffer, draining it to
/// the sink when full. Returns `false` when the event was *not* recorded —
/// the caller is not a worker thread, or is a worker of a *different*
/// runtime than the emitting collector `owner` (its buffer drains to the
/// wrong sink) — in which case the collector delivers directly.
pub(crate) fn obs_buffer(owner: &crate::obs::ObsCollector, ev: ObsEvent) -> bool {
    with_tls(|w| {
        if !std::ptr::eq(&w.rt.obs, owner) {
            return false;
        }
        let mut buf = w.obs.borrow_mut();
        buf.push(ev);
        if buf.len() >= OBS_BUF_CAP {
            w.rt.obs.drain_batch(&mut buf);
        }
        true
    })
    .unwrap_or(false)
}

/// Drains the calling worker's trace buffer to the sink. Called at flush
/// points: before a core handoff parks this worker, before a pause blocks
/// its thread, when the worker goes idle, and at worker exit — the moments
/// after which the buffer could otherwise sit undelivered indefinitely.
fn obs_flush_local() {
    with_tls(|w| {
        let mut buf = w.obs.borrow_mut();
        if !buf.is_empty() {
            w.rt.obs.drain_batch(&mut buf);
        }
    });
}

/// Panic payload `pause_inner` throws when the runtime shuts down under a
/// paused task. The task-body `catch_unwind` re-throws it unchanged: it is
/// a worker-protocol failure (the thread must keep unwinding — its core
/// belongs to a replacement worker), not a task-body failure to absorb.
/// Thrown via `panic_any` so the payload stays a `&'static str` the
/// default panic hook prints verbatim.
const SHUTDOWN_WHILE_PAUSED: &str = "runtime shut down while a task was paused";

/// Runs a task body, absorbing its panic. Returns whether it panicked.
/// Protocol unwinds ([`SHUTDOWN_WHILE_PAUSED`]) are re-thrown.
fn run_isolated(body: impl FnOnce()) -> bool {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(()) => false,
        Err(payload) => {
            if payload.downcast_ref::<&'static str>() == Some(&SHUTDOWN_WHILE_PAUSED) {
                std::panic::resume_unwind(payload);
            }
            true
        }
    }
}

enum LoopExit {
    /// The worker parked itself (core transferred); wait for reassignment.
    Parked,
    /// Runtime shutdown observed.
    Shutdown,
}

/// Entry point of every worker thread.
pub(crate) fn worker_main(rt: Arc<RuntimeInner>, me: Arc<WorkerShared>) {
    TLS.with(|t| {
        *t.borrow_mut() = Some(WorkerTls {
            rt: Arc::clone(&rt),
            me: Arc::clone(&me),
            core: Cell::new(usize::MAX),
            current_task: Cell::new(0),
            obs: RefCell::new(Vec::new()),
        });
    });
    while let Some(assignment) = me.wait() {
        match assignment {
            Assignment::Pull { core } => set_core(core),
            Assignment::RunTask { core, task } => {
                set_core(core);
                execute(&rt, task);
            }
            Assignment::Resume { .. } => {
                unreachable!("Resume must be delivered to a thread blocked in pause()")
            }
        }
        match pull_loop(&rt, &me) {
            LoopExit::Parked => continue,
            LoopExit::Shutdown => break,
        }
    }
    obs_flush_local();
    TLS.with(|t| *t.borrow_mut() = None);
}

fn set_core(core: usize) {
    with_tls(|w| w.core.set(core)).expect("worker TLS missing");
}

/// Pulls and dispatches tasks on the current core until the core is handed
/// to another worker or the runtime shuts down.
fn pull_loop(rt: &Arc<RuntimeInner>, me: &Arc<WorkerShared>) -> LoopExit {
    loop {
        if rt.shutdown.load(Ordering::Acquire) {
            return LoopExit::Shutdown;
        }
        let core = with_tls(|w| w.core.get()).expect("worker TLS missing");
        debug_assert_ne!(core, usize::MAX);
        // The hungry window tells submitters a worker is between tasks
        // and will observe their queue push before it can sleep, so they
        // may skip their wake; see Scheduler::wake_for. A *successful*
        // fetch stops checking, so after closing the window it chain-
        // wakes a parked CPU if ready work remains (the post-decrement
        // has_ready load pairs with the submitter's bump-then-skip; see
        // Scheduler::chain_wake).
        rt.sched.begin_fetch();
        let fetched = rt.sched.get_task(core, rt.now_ns(), &rt.counters, &rt.obs);
        rt.sched.end_fetch();
        if fetched.is_some() {
            rt.sched.chain_wake();
        }
        match fetched {
            Some(task) => {
                if let Some(exit) = run_fetched(rt, me, core, task) {
                    return exit;
                }
            }
            None => {
                // Idle: about to block, so make buffered trace events
                // visible first (an idle worker may sleep indefinitely).
                obs_flush_local();
                // Park protocol (direct dispatch + lost-wakeup safety):
                //
                // 1. capture this core's gate epoch *first* — any
                //    notification after this point (a claim deposit, a
                //    queued submission's targeted wake, shutdown) makes
                //    the eventual `wait` return immediately;
                // 2. arm the claim slot — from here on a submission may
                //    CAS its task straight to us;
                // 3. re-check shutdown and ready work. Arming and the
                //    ready counters are SeqCst on both sides (Dekker), so
                //    a racing submitter either sees us armed (deposits or
                //    wakes us) or we see its task here;
                // 4. sleep; on any return, disarm — the swap atomically
                //    tells a deposit apart from a plain wake.
                let key = rt.gates.prepare_wait(core);
                rt.sched.arm_idle(core);
                if rt.shutdown.load(Ordering::Acquire) {
                    // A racing deposit is impossible in an orderly
                    // shutdown (no tasks pending); on the unclean path a
                    // dropped deposit is no worse than a dropped queue.
                    let _ = rt.sched.disarm_idle(core);
                    return LoopExit::Shutdown;
                }
                // Known limitation (pre-dating the sharded park path):
                // has_ready is global, so while the only queued work is
                // something this CPU can never take (a strict task for a
                // busy core elsewhere), idle workers re-loop through
                // fetches instead of committing to sleep. Transient —
                // it lasts until the unclaimable task is consumed — but a
                // per-CPU claimability mask would be needed to sleep
                // through it.
                if rt.sched.has_ready() {
                    match rt.sched.disarm_idle(core) {
                        Some(task) => {
                            if let Some(exit) = run_fetched(rt, me, core, task) {
                                return exit;
                            }
                        }
                        None => continue,
                    }
                    continue;
                }
                rt.gates.wait(core, key);
                if let Some(task) = rt.sched.disarm_idle(core) {
                    if let Some(exit) = run_fetched(rt, me, core, task) {
                        return exit;
                    }
                }
            }
        }
    }
}

/// Handles one task obtained for `core` — from a scheduler fetch, a DTLock
/// delegation, or a direct-dispatch deposit, which all deliver the same
/// thing: a ready descriptor this worker now owns. Returns `Some` when the
/// core was handed to another thread (this worker parked).
fn run_fetched(
    rt: &Arc<RuntimeInner>,
    me: &Arc<WorkerShared>,
    core: usize,
    task: ReadyTask,
) -> Option<LoopExit> {
    // SAFETY: a task handed out by the scheduler is alive.
    let d = unsafe { rt.seg.sref(task) };
    let attached = d.attached_worker.swap(0, Ordering::AcqRel);
    if attached != 0 {
        // Resume handoff: wake the thread attached to this paused task on
        // our core; park ourselves.
        resume_handoff(rt, me, core, task, attached as usize - 1);
        return Some(LoopExit::Parked);
    }
    // Guest tasks are data-described (kernel id + argument, no host
    // pointers) and runnable on *any* worker: they must branch off before
    // the pid comparison below, whose cross-process handoff would wait for
    // a worker of the guest's logical process — which has none in this
    // OS process.
    if d.kernel.load(Ordering::Acquire) != 0 {
        execute_guest(rt, task);
        return None;
    }
    let pid = d.pid.load(Ordering::Relaxed);
    if pid == me.pid {
        execute(rt, task);
        None
    } else {
        // Cross-process handoff: the task must run on a thread of its
        // creating process (§3.3).
        cross_process_handoff(rt, me, core, task, pid);
        Some(LoopExit::Parked)
    }
}

fn resume_handoff(
    rt: &Arc<RuntimeInner>,
    me: &Arc<WorkerShared>,
    core: usize,
    task: ReadyTask,
    worker_index: usize,
) {
    // SAFETY: task alive (scheduler contract).
    let d = unsafe { rt.seg.sref(task) };
    d.set_state(TaskState::Running);
    rt.counters.add(core, CounterKind::Resumes, 1);
    rt.emit(
        ObsKind::Resume,
        core as u32,
        d.pid.load(Ordering::Relaxed),
        TaskId(d.id.load(Ordering::Relaxed)),
    );
    // Flush before the core changes hands so this core's events reach the
    // sink ahead of anything the resumed thread will emit on it.
    obs_flush_local();
    let target = rt.worker_by_index(worker_index);
    rt.park_worker(me);
    target.assign(Assignment::Resume { core });
}

fn cross_process_handoff(
    rt: &Arc<RuntimeInner>,
    me: &Arc<WorkerShared>,
    core: usize,
    task: ReadyTask,
    pid: u64,
) {
    // SAFETY: task alive.
    let d = unsafe { rt.seg.sref(task) };
    rt.counters.add(core, CounterKind::CrossProcessHandoffs, 1);
    rt.emit(
        ObsKind::Handoff,
        core as u32,
        pid,
        TaskId(d.id.load(Ordering::Relaxed)),
    );
    // Flush before the core changes hands (see resume_handoff).
    obs_flush_local();
    let target = rt.worker_for_process(pid);
    rt.park_worker(me);
    target.assign(Assignment::RunTask { core, task });
}

/// Executes a *guest* task: resolves its kernel id against the host's
/// registered kernel table and runs the kernel with the descriptor's
/// metadata word as argument. Guest descriptors carry no callbacks, no
/// signal and no pending-count entry; completion is reported through the
/// guest's registry slot (where the guest polls `completed == submitted`)
/// and the descriptor is freed here — the cross-process SLAB free of
/// §3.5, since the descriptor was allocated by a different OS process.
/// An unknown kernel id completes as a no-op rather than poisoning the
/// worker: the segment is shared state a buggy guest could scribble.
fn execute_guest(rt: &Arc<RuntimeInner>, task: ReadyTask) {
    // SAFETY: a task handed out by the scheduler is alive; guest
    // descriptors stay alive until this function frees them.
    let d = unsafe { rt.seg.sref(task) };
    d.set_state(TaskState::Running);
    let id = TaskId(d.id.load(Ordering::Relaxed));
    let pid = d.pid.load(Ordering::Relaxed);
    let slot = d.slot.load(Ordering::Relaxed);
    let arg = d.metadata.load(Ordering::Relaxed);
    let kernel_sel = d.kernel.load(Ordering::Acquire);
    let core = with_tls(|w| w.core.get()).expect("worker TLS missing");
    rt.emit(ObsKind::Start { remote: false }, core as u32, pid, id);
    let panicked = if let Some(kernel) = rt.guest_kernel(kernel_sel - 1) {
        // No TLS current_task on purpose: guest kernels must not pause
        // (their "process" has no worker threads to hand the core to).
        // A guest cannot observe a panic (its registry slot has no
        // failure channel), but the task must still complete below — a
        // skipped `completed` bump would wedge the guest's wait_idle — and
        // the worker must survive a kernel a buggy guest picked.
        run_isolated(|| kernel(arg))
    } else {
        false
    };
    finish(rt, d, core, pid, id, panicked);
    // Report completion through the guest's registry slot (Release there
    // pairs with the guest's Acquire poll, so the guest also observes the
    // kernel's side effects). A no-op if the slot was reclaimed — a guest
    // that already detached or died is not waiting.
    rt.seg.add_completed(nosv_shmem::ProcessId { pid, slot }, 1);
    rt.seg.free_t(task, core);
}

/// Whether executing on `core` counts as a *remote* execution for the
/// task's affinity (the lowercase cells of the Fig. 10 timeline); strict
/// affinities never run remotely.
fn is_remote(rt: &RuntimeInner, d: &TaskDesc, core: usize) -> bool {
    match Affinity::decode(d.affinity.load(Ordering::Relaxed)) {
        Affinity::None => false,
        Affinity::Core { index, .. } => index != core,
        Affinity::Numa { index, .. } => {
            let per_numa = rt.config.cpus_per_numa;
            let numa_of_core = core.checked_div(per_numa).unwrap_or(0);
            index != numa_of_core
        }
    }
}

/// The end every execution shares: marks the task completed, counts and
/// reports a panic, then reports the end and counts the execution.
/// Returns the core the task ended on — `core` unless the body paused
/// and resumed elsewhere.
fn finish(
    rt: &RuntimeInner,
    d: &TaskDesc,
    core: usize,
    pid: u64,
    id: TaskId,
    panicked: bool,
) -> usize {
    d.set_state(TaskState::Completed);
    let end_core = with_tls(|w| w.core.get()).unwrap_or(core);
    if panicked {
        rt.counters.add(end_core, CounterKind::TaskPanics, 1);
        rt.emit(ObsKind::TaskFailed, end_core as u32, pid, id);
    }
    rt.emit(ObsKind::End, end_core as u32, pid, id);
    rt.counters.add(end_core, CounterKind::TasksExecuted, 1);
    end_core
}

/// Runs a host task's `body` on the calling worker: marks the task
/// running, reports its start, runs the body with the task's context and
/// [`finish`]es it. Returns the core the task ended on and whether the
/// body panicked.
fn run_body(
    rt: &RuntimeInner,
    task: ReadyTask,
    d: &TaskDesc,
    body: impl FnOnce(&TaskCtx),
) -> (usize, bool) {
    d.set_state(TaskState::Running);
    let ctx = TaskCtx {
        task_id: TaskId(d.id.load(Ordering::Relaxed)),
        pid: d.pid.load(Ordering::Relaxed),
        metadata: d.metadata.load(Ordering::Relaxed),
    };
    let core = with_tls(|w| w.core.get()).expect("worker TLS missing");
    let remote = is_remote(rt, d, core);
    rt.emit(ObsKind::Start { remote }, core as u32, ctx.pid, ctx.task_id);
    with_tls(|w| w.current_task.set(task.raw()));
    let panicked = run_isolated(|| body(&ctx));
    with_tls(|w| w.current_task.set(0));
    let end_core = finish(rt, d, core, ctx.pid, ctx.task_id, panicked);
    (end_core, panicked)
}

/// Executes a task body on the calling worker thread.
fn execute(rt: &Arc<RuntimeInner>, task: ReadyTask) {
    // SAFETY: task alive until destroy, which the state machine forbids
    // before completion.
    let d = unsafe { rt.seg.sref(task) };
    // Batch members branch off before the callbacks swap: they carry the
    // shared batch block instead of per-task callbacks and a signal.
    let batch_raw = d.batch.swap(0, Ordering::AcqRel);
    if batch_raw != 0 {
        execute_batch_member(rt, task, batch_raw);
        return;
    }
    let cbs_raw = d.callbacks.swap(0, Ordering::AcqRel);
    let id = TaskId(d.id.load(Ordering::Relaxed));
    assert_ne!(cbs_raw, 0, "task {id:?} has no callbacks (executed twice?)");
    // SAFETY: the raw pointer was produced by Box::into_raw at creation and
    // uniquely taken here (the swap gives us sole ownership).
    let mut cbs = unsafe { Box::from_raw(cbs_raw as *mut TaskCallbacks) };
    let run = cbs.run.take();
    // A panic failed only this task: it still completes (so the handle can
    // be waited and destroyed), but waiters observe TaskPanicked through
    // the signal's flag.
    let (_, panicked) = run_body(rt, task, d, |ctx| {
        if let Some(run) = run {
            run(ctx);
        }
    });
    // Order matters: the pending count must drop *before* any completion
    // notification fires — both the user's completion callback (through
    // which e.g. a taskwait may return) and the handle signal — so that
    // code observing "all my tasks finished" immediately sees a consistent
    // runtime (e.g. `shutdown()`'s no-pending check).
    rt.pending_tasks.fetch_sub(1, Ordering::AcqRel);
    if let Some(completed) = cbs.completed.take() {
        completed();
    }
    let sig_raw = d.signal.swap(0, Ordering::AcqRel);
    if sig_raw != 0 {
        // SAFETY: produced by Arc::into_raw at creation; taken exactly once.
        let sig = unsafe { Arc::from_raw(sig_raw as *const TaskSignal) };
        if panicked {
            sig.mark_panicked();
        }
        sig.complete();
    }
}

/// Executes one member of a [`crate::TaskBatch`]: runs the batch's shared
/// body with this member's context, frees the descriptor (batch members
/// have no handle to destroy them), and counts the member down on the
/// shared latch — the last one completes it. `shared_raw` is the raw
/// `Arc<BatchShared>` the caller uniquely took from the descriptor.
fn execute_batch_member(rt: &Arc<RuntimeInner>, task: ReadyTask, shared_raw: u64) {
    // SAFETY: a task handed out by the scheduler is alive; batch member
    // descriptors stay alive until this function frees them.
    let d = unsafe { rt.seg.sref(task) };
    // SAFETY: produced by Arc::into_raw in submit_all; uniquely taken by
    // the caller's swap.
    let shared = unsafe { Arc::from_raw(shared_raw as *const crate::task::BatchShared) };
    let (end_core, panicked) = run_body(rt, task, d, |ctx| (shared.body)(ctx));
    if panicked {
        // Only this member failed; the batch still completes, and its
        // waiters observe TaskPanicked through the shared latch's flag.
        shared.signal.mark_panicked();
    }
    // Pending drops before the latch can fire (see `execute`); the
    // descriptor is freed before our countdown so that once the latch
    // fires, every member's memory is provably back in the slab.
    rt.pending_tasks.fetch_sub(1, Ordering::AcqRel);
    rt.seg.free_t(task, end_core);
    rt.live_descriptors.fetch_sub(1, Ordering::AcqRel);
    if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.signal.complete();
    }
}

/// Pauses the currently running task (`nosv_pause`, §3.2–3.3).
///
/// The calling thread blocks with the task attached; a replacement worker
/// takes over the core. The task resumes — on whatever core picks it —
/// after someone resubmits it with [`crate::TaskHandle::submit`].
///
/// # Panics
///
/// Panics if called from outside a task body.
pub fn pause() {
    pause_inner(false);
}

/// Yields the currently running task (the paper's `nosv_yield`): the task
/// requeues itself **behind all equal-priority ready work** and takes a
/// schedpoint, so other ready tasks — of any attached application — get
/// the core first; the yielded task resumes (possibly on another core)
/// once the scheduler picks it again.
///
/// The requeue decision is implemented once, in the backend-agnostic
/// scheduling core (`nosv_core::SchedCore::yield_task`): queues are FIFO
/// within a priority level, so the yield lands after every task of equal
/// priority in both the live runtime and the simulator. Mechanically this
/// is a pause plus an immediate self-resubmission, and is accounted as
/// one pause + one resume in [`crate::RuntimeStats`].
///
/// With no other ready work, the task resumes immediately (after one
/// round trip through the scheduler).
///
/// # Panics
///
/// Panics if called from outside a task body.
pub fn yield_now() {
    pause_inner(true);
}

fn pause_inner(yield_back: bool) {
    let (rt, me, core, task_raw) = with_tls(|w| {
        (
            Arc::clone(&w.rt),
            Arc::clone(&w.me),
            w.core.get(),
            w.current_task.get(),
        )
    })
    .expect("pause() called outside a worker thread");
    assert_ne!(task_raw, 0, "pause() called outside a task body");

    let task: Shoff<TaskDesc> = Shoff::from_raw(task_raw);
    // SAFETY: the task is running on this very thread.
    let d = unsafe { rt.seg.sref(task) };
    rt.counters.add(core, CounterKind::Pauses, 1);
    let id = TaskId(d.id.load(Ordering::Relaxed));
    let pid = d.pid.load(Ordering::Relaxed);
    rt.emit(ObsKind::Pause, core as u32, pid, id);
    // This thread is about to block for arbitrarily long: deliver its
    // buffered events (including the Pause above) before the replacement
    // worker can emit anything on this core.
    obs_flush_local();

    // Publish the attachment *before* the state changes: as soon as the
    // task is Paused it may be resubmitted, scheduled and resume-handed
    // to us, all concurrently with the lines below.
    d.attached_worker
        .store(me.index as u64 + 1, Ordering::Release);
    d.set_state(TaskState::Paused);

    if yield_back {
        // nosv_yield: resubmit ourselves right away through the dedicated
        // yield path (one Paused->Ready attempt; losing the race to a
        // concurrent external resubmission is success — we are requeued
        // either way). The submission routes through the scheduling core,
        // which requeues the task behind all equal-priority ready work;
        // whichever worker pops it resume-hands the core back to this
        // thread. A yield racing runtime teardown can fail with
        // ShutdownInProgress — then nobody can resume us and the shutdown
        // panic below reports it, exactly as for a stranded pause.
        let _ = rt.submit_yielded(task);
    }

    // Hand the core to a replacement worker of our process.
    let replacement = rt.worker_for_process(me.pid);
    replacement.assign(Assignment::Pull { core });

    // Block until a worker resumes us (possibly on a different core).
    match me.wait() {
        Some(Assignment::Resume { core: new_core }) => {
            with_tls(|w| w.core.set(new_core));
        }
        Some(_) => unreachable!("paused thread received a non-Resume assignment"),
        // Thrown as a protocol unwind so the task-body catch_unwind in
        // `execute` re-throws instead of absorbing it as a task failure:
        // this thread's core already belongs to the replacement worker,
        // so continuing the worker loop would break the one-runnable-
        // worker-per-core invariant.
        None => std::panic::panic_any(SHUTDOWN_WHILE_PAUSED),
    }
}
