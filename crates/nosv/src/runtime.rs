//! Runtime life cycle: segment setup, process attach/detach, task
//! creation/submission, worker management, shutdown (paper §3.3).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nosv_shmem::{process_alive, JoinState, ProcessId, ShmSegment, Shoff, MAX_PROCS};
use nosv_sync::{CpuGates, Mutex};

use crate::builder::RuntimeBuilder;
use crate::config::{NosvConfig, RECLAIM_TICK};
use crate::error::NosvError;
use crate::obs::{CounterKind, ObsCollector, ObsEvent, ObsKind, TraceSink, NO_CPU};
use crate::policy::SchedPolicy;
use crate::scheduler::{producer_tag, GuestMeta, Scheduler, SchedulerSnapshot, SubmitPath};
use crate::stats::{CounterTable, Counters, RuntimeStats};
use crate::task::Affinity;
use crate::task::{
    BatchHandle, BatchShared, TaskBatch, TaskBuilder, TaskCallbacks, TaskCtx, TaskDesc, TaskHandle,
    TaskId, TaskSignal, TaskState,
};
use crate::worker::{self, Assignment, WorkerShared};

/// A host-registered kernel guests invoke by id; see
/// [`Runtime::register_kernel`].
pub(crate) type GuestKernel = Arc<dyn Fn(u64) + Send + Sync>;

/// A logical process attached to the runtime.
pub(crate) struct ProcInner {
    pub pid: u64,
    pub slot: u32,
    pub name: String,
    /// Parked workers of this process, ready to be woken for handoffs.
    pub idle: Mutex<Vec<Arc<WorkerShared>>>,
    pub active: AtomicBool,
}

/// Everything shared between the API objects and the worker threads.
pub(crate) struct RuntimeInner {
    pub seg: ShmSegment,
    pub config: NosvConfig,
    pub sched: Scheduler,
    pub counters: Counters,
    pub shutdown: AtomicBool,
    /// Tasks submitted but not yet completed (shutdown precondition).
    pub pending_tasks: AtomicU64,
    /// Submissions currently inside their critical window (between the
    /// pending-count bump and the enqueue-or-rollback). Shutdown waits
    /// for this to reach zero after raising its flag, so the
    /// `pending_tasks` assert never observes a transient increment a
    /// racing submit is about to roll back — the race resolves
    /// deterministically to `ShutdownInProgress`.
    pub submit_inflight: AtomicU64,
    /// Monotonic count of submit windows ever opened. Shutdown's stable
    /// pending read snapshots it before draining `submit_inflight` and
    /// re-checks it after reading the pending count: equality proves no
    /// window opened since the snapshot, and any window open *at* the
    /// pending read would have kept the drain spinning — so the read is
    /// transient-free by construction.
    pub submit_windows: AtomicU64,
    /// Descriptors created but not yet destroyed (leak check).
    pub live_descriptors: AtomicU64,
    /// Per-CPU wake gates idle workers sleep on (one gate per core, so a
    /// direct dispatch wakes exactly its target; a single elected standby
    /// spins briefly before sleeping). Shared with the scheduler, which
    /// delivers all wakeups.
    pub gates: Arc<CpuGates>,
    /// Serializes process registration against shutdown (cold paths only;
    /// the submit hot path synchronizes with shutdown via SeqCst atomics
    /// instead — see [`RuntimeInner::submit`]).
    pub life_mutex: Mutex<()>,
    pub(crate) obs: ObsCollector,
    /// Host-side kernel table for guest tasks: closures cannot cross the
    /// process boundary, so guests describe work as a kernel id (looked
    /// up here) plus one `u64` argument. See [`Runtime::register_kernel`].
    guest_kernels: Mutex<HashMap<u64, GuestKernel>>,
    /// The reactor thread (named segments only): acknowledges guest join
    /// handshakes, completes clean detaches, and reclaims tasks of
    /// crashed guests. The segment's futexes and the scheduler's
    /// delegation locks live in host memory, so only a host thread can
    /// provide these services to foreign processes.
    reactor: Mutex<Option<JoinHandle<()>>>,
    next_task_id: AtomicU64,
    workers: Mutex<Vec<Arc<WorkerShared>>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    procs: Mutex<HashMap<u64, Arc<ProcInner>>>,
    workers_started: AtomicBool,
    start: Instant,
}

impl RuntimeInner {
    /// Nanoseconds since runtime start (the scheduler's clock).
    pub(crate) fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Records one observability event through the installed sink (no-op
    /// without one). Worker threads buffer locally; see [`crate::obs`].
    pub(crate) fn emit(&self, kind: ObsKind, cpu: u32, pid: u64, task: TaskId) {
        if self.obs.enabled() {
            self.obs.emit(ObsEvent {
                t_ns: self.now_ns(),
                cpu,
                pid,
                task,
                kind,
            });
        }
    }

    /// The summed counter table, plus the two counts kept outside it: the
    /// election count in the gates (written only by the election CAS) and
    /// the eviction count summed over the shard DTLocks.
    pub(crate) fn counter_table(&self) -> CounterTable {
        let mut table = self.counters.sum();
        table[CounterKind::StandbyElections as usize] = self.gates.standby_elections();
        table[CounterKind::DeadWaiterEvictions as usize] = self.sched.dtlock_evictions();
        table
    }

    pub(crate) fn worker_by_index(&self, index: usize) -> Arc<WorkerShared> {
        Arc::clone(&self.workers.lock()[index])
    }

    /// Pops an idle worker of `pid`, spawning a fresh one if none is parked.
    pub(crate) fn worker_for_process(self: &Arc<Self>, pid: u64) -> Arc<WorkerShared> {
        let proc = Arc::clone(
            self.procs
                .lock()
                .get(&pid)
                .expect("task belongs to an unknown process"),
        );
        if let Some(w) = proc.idle.lock().pop() {
            return w;
        }
        self.spawn_worker(pid)
    }

    /// Parks a worker into its process's idle pool.
    pub(crate) fn park_worker(&self, w: &Arc<WorkerShared>) {
        let procs = self.procs.lock();
        let proc = procs.get(&w.pid).expect("worker of unknown process");
        proc.idle.lock().push(Arc::clone(w));
    }

    fn spawn_worker(self: &Arc<Self>, pid: u64) -> Arc<WorkerShared> {
        let mut workers = self.workers.lock();
        let shared = WorkerShared::new(workers.len(), pid);
        workers.push(Arc::clone(&shared));
        drop(workers);
        let cpu = worker::current_core().unwrap_or(Counters::EXTERNAL);
        self.counters.add(cpu, CounterKind::WorkersSpawned, 1);
        let rt = Arc::clone(self);
        let me = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("nosv-worker-{}", shared.index))
            .spawn(move || worker::worker_main(rt, me))
            .expect("failed to spawn worker thread");
        self.joins.lock().push(handle);
        shared
    }

    /// Submits a task descriptor (`nosv_submit`): initial submission or
    /// resubmission of a paused task.
    ///
    /// This is the lock-free hot path: no runtime mutex is taken. The
    /// enqueue is a direct handoff to an idle CPU when one is armed, or a
    /// push into the process's submission ring for the destination shard
    /// (drained in batches by whoever holds that shard's lock) plus a
    /// targeted per-CPU gate notification.
    pub(crate) fn submit(&self, desc: Shoff<TaskDesc>) -> Result<(), NosvError> {
        // SAFETY: handle-owned descriptor, alive until destroy.
        let d = unsafe { self.seg.sref(desc) };
        // Validate the placement against the topology before anything is
        // enqueued: the scheduler trusts affinity indices outright (no
        // silent wrapping), so out-of-range values must error here. The
        // builder validated at creation; revalidating at submission keeps
        // the scheduler's trust independent of how the descriptor was
        // produced.
        let affinity = Affinity::decode(d.affinity.load(Ordering::Relaxed));
        affinity.validate(self.config.cpus, self.config.numa_nodes())?;
        // Open the inflight window *before* any state the shutdown assert
        // reads can change; see `submit_inflight`. The guard closes it on
        // every exit path.
        let _window = InflightWindow::open(self);
        // The state transition runs first: the wait for an in-progress
        // pause() below can spin for as long as the task body takes to
        // block, and must not stall the whole runtime.
        let from = loop {
            if d.transition(TaskState::Created, TaskState::Ready) {
                // SeqCst: pairs with shutdown's flag store + pending load
                // (see below).
                self.pending_tasks.fetch_add(1, Ordering::SeqCst);
                break TaskState::Created;
            }
            if d.transition(TaskState::Paused, TaskState::Ready) {
                break TaskState::Paused;
            }
            match d.try_state()? {
                // Submit racing with an in-progress pause(): the pausing
                // thread is between "user decided to block" and the Paused
                // store. Wait for it; this is the documented way to unblock.
                // The store can also land between the Paused -> Ready
                // attempt above and this read: retry the transitions.
                TaskState::Running | TaskState::Paused => std::thread::yield_now(),
                found => {
                    return Err(NosvError::InvalidTaskState {
                        found,
                        operation: "submit",
                    })
                }
            }
        };
        self.enqueue_ready(desc, from, affinity)
    }

    /// The yield self-resubmission (`nosv_yield`'s requeue half): exactly
    /// one `Paused -> Ready` attempt, no waiting.
    ///
    /// Losing the transition means a concurrent external submission
    /// already requeued the task — the yield's goal is accomplished, so
    /// this returns `Ok` instead of entering [`RuntimeInner::submit`]'s
    /// wait-for-pause loop. That loop would deadlock here: the racing
    /// resubmission can be popped and resume-handed to *this very thread*
    /// (state `Running`, Resume parked in our mailbox), and the state only
    /// leaves `Running` once we stop submitting and go consume the Resume.
    pub(crate) fn submit_yielded(&self, desc: Shoff<TaskDesc>) -> Result<(), NosvError> {
        // SAFETY: the descriptor belongs to the task running on the
        // calling worker thread; alive until destroy.
        let d = unsafe { self.seg.sref(desc) };
        let _window = InflightWindow::open(self);
        if !d.transition(TaskState::Paused, TaskState::Ready) {
            return Ok(());
        }
        let affinity = Affinity::decode(d.affinity.load(Ordering::Relaxed));
        self.enqueue_ready(desc, TaskState::Paused, affinity)
    }

    /// Enqueues a descriptor whose `Ready` transition (from `from`) the
    /// caller just performed: shutdown handshake, counters, the actual
    /// scheduler insert, and the targeted wakeup. `affinity` is the
    /// descriptor's decoded placement (decoded once by the caller).
    fn enqueue_ready(
        &self,
        desc: Shoff<TaskDesc>,
        from: TaskState,
        affinity: Affinity,
    ) -> Result<(), NosvError> {
        // SAFETY: as in the callers.
        let d = unsafe { self.seg.sref(desc) };
        // Shutdown synchronization without a lock (store-buffer pairing):
        // we bump `pending_tasks` (SeqCst) *then* load the shutdown flag;
        // `shutdown` stores the flag (SeqCst) *then* waits for the
        // inflight window count to reach zero *then* loads the pending
        // count. In any SeqCst total order at least one side observes the
        // other: either we see the flag here — and roll the
        // not-yet-enqueued transition back before our window closes, so
        // the assert never sees the transient — or we raced ahead of the
        // flag and the task is fully enqueued, which shutdown's
        // precondition (no pending tasks) makes the caller's bug. Either
        // way the race resolves deterministically: ShutdownInProgress
        // here, or an honest "tasks still pending" there — never both.
        if self.shutdown.load(Ordering::SeqCst) {
            // Not yet enqueued: workers cannot have seen the descriptor,
            // so the rollback is invisible to everyone but racy state()
            // observers.
            if from == TaskState::Created {
                self.pending_tasks.fetch_sub(1, Ordering::SeqCst);
            }
            d.set_state(from);
            return Err(NosvError::ShutdownInProgress);
        }
        d.submits.fetch_add(1, Ordering::Relaxed);
        let cpu = worker::current_core().unwrap_or(Counters::EXTERNAL);
        self.counters.add(cpu, CounterKind::TasksSubmitted, 1);
        self.emit(
            ObsKind::Submit,
            u32::try_from(cpu).unwrap_or(NO_CPU),
            d.pid.load(Ordering::Relaxed),
            TaskId(d.id.load(Ordering::Relaxed)),
        );
        let path = match self.sched.submit_with(desc, affinity) {
            // Handed straight to an idle CPU's claim slot: the scheduler
            // already woke exactly that CPU, and the task was never
            // queued.
            SubmitPath::Direct => CounterKind::DirectDispatches,
            SubmitPath::Ring => CounterKind::RingSubmits,
            SubmitPath::Locked => CounterKind::LockedSubmits,
        };
        self.counters.add(cpu, path, 1);
        // Queued: wake exactly the sleepers the task needs — the target
        // core's gate for a placed task, one armed CPU for anything a
        // steal can deliver (per-CPU gates make the wake targeted; the
        // old single gate had to wake everyone for placed tasks).
        if path != CounterKind::DirectDispatches {
            self.sched.wake_for(affinity);
        }
        Ok(())
    }

    /// Frees a descriptor and its host-side resources (`nosv_destroy`).
    pub(crate) fn destroy_task(&self, desc: Shoff<TaskDesc>) {
        // SAFETY: destroy is only reachable from the owning handle, once.
        let d = unsafe { self.seg.sref(desc) };
        let cbs_raw = d.callbacks.swap(0, Ordering::AcqRel);
        if cbs_raw != 0 {
            // Never-executed task: reclaim its callbacks.
            // SAFETY: uniquely taken by the swap.
            drop(unsafe { Box::from_raw(cbs_raw as *mut TaskCallbacks) });
        }
        let sig_raw = d.signal.swap(0, Ordering::AcqRel);
        if sig_raw != 0 {
            // SAFETY: as above.
            drop(unsafe { Arc::from_raw(sig_raw as *const TaskSignal) });
        }
        let cpu = worker::current_core().unwrap_or(0);
        self.seg.free_t(desc, cpu);
        self.live_descriptors.fetch_sub(1, Ordering::AcqRel);
    }

    /// Looks up the kernel a guest task names (see
    /// [`Runtime::register_kernel`]).
    pub(crate) fn guest_kernel(&self, id: u64) -> Option<GuestKernel> {
        self.guest_kernels.lock().get(&id).cloned()
    }

    /// One sweep of the reactor: process join handshakes, clean detaches,
    /// and guest deaths across every registry slot. `half_open` tracks
    /// when each half-open slot was first observed, so an attacher gets
    /// the join timeout to publish its record.
    fn reactor_tick(&self, half_open: &mut HashMap<u32, Instant>) {
        for slot in 0..MAX_PROCS as u32 {
            let Some(view) = self.seg.slot_view(slot) else {
                half_open.remove(&slot);
                continue;
            };
            if view.pid == 0 {
                // Half-open claim: the attacher died (or is still racing)
                // between its claim CAS and its pid publish. A recorded
                // os_pid whose process is gone frees the slot at once;
                // otherwise nothing in the record distinguishes a corpse
                // from an attacher mid-flight, so the join timeout — an
                // eternity next to an attach's handful of stores — has to
                // elapse first.
                let dead_now = view.os_pid != 0 && !process_alive(view.os_pid as u32);
                let since = *half_open.entry(slot).or_insert_with(Instant::now);
                let bound = Duration::from_nanos(self.config.join_timeout_ns);
                if (dead_now || since.elapsed() >= bound) && self.seg.reclaim_half_open(slot) {
                    half_open.remove(&slot);
                    self.emit(ObsKind::CrashReclaim, NO_CPU, view.os_pid, TaskId(0));
                }
                continue;
            }
            half_open.remove(&slot);
            let id = ProcessId {
                pid: view.pid,
                slot,
            };
            match view.join_state {
                // Host-attached process (ProcessContext): not the
                // reactor's business (its record is complete — the
                // half-open branch above never saw it publish).
                JoinState::None => {}
                JoinState::Requested => {
                    if !process_alive(view.os_pid as u32) {
                        // Died before the handshake completed: release
                        // the slot (nothing can be queued yet, but the
                        // reclaim path handles both cases uniformly).
                        if self
                            .seg
                            .set_join_state(id, JoinState::Requested, JoinState::Dead)
                        {
                            self.crash_reclaim(id, view.os_pid);
                        }
                        continue;
                    }
                    // Make the slot schedulable *before* acknowledging:
                    // an Active guest starts submitting immediately.
                    self.sched.register_proc(slot, view.pid);
                    // Requested only ever transitions here, so the CAS
                    // cannot lose; it still guards against double acks if
                    // two tick sources ever coexist.
                    if self
                        .seg
                        .set_join_state(id, JoinState::Requested, JoinState::Active)
                    {
                        self.emit(ObsKind::Attach, NO_CPU, view.os_pid, TaskId(0));
                    }
                }
                // The pid probe alone decides: a gone process is
                // reclaimed in the sweep that first sees it gone. The CAS
                // settles the race against a clean detach: whichever of
                // Active->Dead (here) and Active->Leaving (guest) lands
                // first decides how the slot is torn down.
                JoinState::Active => {
                    if !process_alive(view.os_pid as u32)
                        && self
                            .seg
                            .set_join_state(id, JoinState::Active, JoinState::Dead)
                    {
                        self.crash_reclaim(id, view.os_pid);
                    }
                }
                JoinState::Leaving => match self.sched.unregister_proc(slot) {
                    Ok(()) => {
                        self.emit(ObsKind::Detach, NO_CPU, view.os_pid, TaskId(0));
                        // Frees the registry slot; the guest observes
                        // `join_state() == None` and completes its detach.
                        self.seg.detach(id);
                    }
                    Err(_) => {
                        // Ready tasks of the leaving guest still queued:
                        // make sure workers are draining, retry next tick.
                        self.sched.wake_for(Affinity::None);
                    }
                },
                // Normally unobservable (crash_reclaim detaches in the
                // same sweep that marks a slot Dead), but a guest that
                // times out waiting for the handshake ack withdraws its
                // request by marking its own slot Dead — reclaim those
                // here.
                JoinState::Dead => self.crash_reclaim(id, view.os_pid),
            }
        }
        // Guests cannot operate the host-memory futexes workers sleep on;
        // if their submissions are sitting in queues while every worker
        // sleeps, deliver the wake on their behalf.
        if self.sched.has_ready() {
            self.sched.wake_for(Affinity::None);
        }
    }

    /// Reclaims everything a dead guest left behind: drains its rings,
    /// purges its tasks from every shard queue, frees the descriptors
    /// (guest descriptors carry no host-side callbacks or signals, so the
    /// slab block is the whole teardown), and releases the registry slot.
    /// Counted in [`RuntimeStats::crash_reclaims`].
    fn crash_reclaim(&self, id: ProcessId, os_pid: u64) {
        let report = self.sched.reclaim_slot(id.slot);
        let n = report.tasks.len() as u64;
        for task in report.tasks {
            self.seg.free_t(task, 0);
        }
        self.counters
            .add(Counters::EXTERNAL, CounterKind::CrashReclaims, n);
        self.counters.add(
            Counters::EXTERNAL,
            CounterKind::StrandedSlotRepairs,
            report.stranded,
        );
        // `counter_leak` needs no counter of its own: the settle already
        // repaired `ready`, and the leaked bumps had no descriptor behind
        // them to free or report.
        self.emit(ObsKind::CrashReclaim, NO_CPU, os_pid, TaskId(0));
        self.seg.detach(id);
    }
}

/// Reactor thread body (named segments only); see
/// [`RuntimeInner::reactor_tick`].
fn reactor_main(rt: Arc<RuntimeInner>) {
    let mut half_open: HashMap<u32, Instant> = HashMap::new();
    while !rt.shutdown.load(Ordering::Acquire) {
        rt.reactor_tick(&mut half_open);
        std::thread::sleep(RECLAIM_TICK);
    }
}

/// RAII counter of submissions inside their critical window (between the
/// pending-count bump and the enqueue-or-rollback); see
/// [`RuntimeInner::submit_inflight`].
struct InflightWindow<'a> {
    counter: &'a AtomicU64,
}

impl<'a> InflightWindow<'a> {
    fn open(rt: &'a RuntimeInner) -> InflightWindow<'a> {
        rt.submit_windows.fetch_add(1, Ordering::SeqCst);
        rt.submit_inflight.fetch_add(1, Ordering::SeqCst);
        InflightWindow {
            counter: &rt.submit_inflight,
        }
    }
}

impl Drop for InflightWindow<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The nOS-V runtime: one per node, shared by every co-executed application.
pub struct Runtime {
    inner: Arc<RuntimeInner>,
    shut_down: AtomicBool,
}

impl Runtime {
    /// Starts configuring a runtime; see [`RuntimeBuilder`].
    ///
    /// ```
    /// use nosv::prelude::*;
    ///
    /// let rt = Runtime::builder().cpus(2).build().expect("valid config");
    /// rt.shutdown();
    /// ```
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Creates a runtime (segment, scheduler, CPU manager) from a
    /// validated configuration. Called by [`RuntimeBuilder::build`].
    pub(crate) fn from_parts(
        config: NosvConfig,
        policy: Arc<dyn SchedPolicy>,
        sink: Option<Arc<dyn TraceSink>>,
    ) -> Result<Runtime, NosvError> {
        let seg = match &config.segment_name {
            // Named: an OS-shared object foreign processes can join.
            Some(name) => {
                ShmSegment::create_named(name, config.segment_config(), nosv_shmem::CAP_GUEST_JOIN)?
            }
            None => ShmSegment::create(config.segment_config()),
        };
        let gates = Arc::new(CpuGates::new(config.cpus));
        let sched = Scheduler::new(seg.clone(), &config, policy, Arc::clone(&gates))?;
        let inner = Arc::new(RuntimeInner {
            seg,
            sched,
            counters: Counters::new(config.cpus),
            shutdown: AtomicBool::new(false),
            pending_tasks: AtomicU64::new(0),
            submit_inflight: AtomicU64::new(0),
            submit_windows: AtomicU64::new(0),
            live_descriptors: AtomicU64::new(0),
            gates,
            life_mutex: Mutex::new(()),
            obs: ObsCollector::new(sink),
            guest_kernels: Mutex::new(HashMap::new()),
            reactor: Mutex::new(None),
            next_task_id: AtomicU64::new(1),
            workers: Mutex::new(Vec::new()),
            joins: Mutex::new(Vec::new()),
            procs: Mutex::new(HashMap::new()),
            workers_started: AtomicBool::new(false),
            start: Instant::now(),
            config,
        });
        if inner.config.segment_name.is_some() {
            // Publish the geometry guests need to drive the scheduler
            // from outside (they rederive everything else from the
            // segment header). All fields are stored before the
            // user-root CAS (Release) publishes the block.
            let meta: Shoff<GuestMeta> = inner
                .seg
                .alloc_zeroed(std::mem::size_of::<GuestMeta>(), 0)?
                .cast();
            // SAFETY: freshly allocated zeroed block, exclusively ours
            // until published.
            let m = unsafe { inner.seg.sref(meta) };
            m.shards
                .store(inner.sched.shard_count() as u64, Ordering::Relaxed);
            m.host_os_pid
                .store(std::process::id() as u64, Ordering::Relaxed);
            m.join_timeout_ns
                .store(inner.config.join_timeout_ns, Ordering::Relaxed);
            m.sched_root
                .store(inner.sched.root_raw(), Ordering::Release);
            inner.seg.init_user_root_once(|| meta);
            let rt = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name("nosv-reactor".to_string())
                .spawn(move || reactor_main(rt))
                .expect("failed to spawn reactor thread");
            *inner.reactor.lock() = Some(handle);
        }
        Ok(Runtime {
            inner,
            shut_down: AtomicBool::new(false),
        })
    }

    /// Attaches a logical process (an application) to the runtime.
    ///
    /// The first attachment spawns one worker per core (§3.3: "the first
    /// process registered into this shared memory region spawns a new
    /// thread for each core in the node").
    ///
    /// Returns [`NosvError::TooManyProcesses`] when the registry is full
    /// and [`NosvError::ShutdownInProgress`] when the runtime has begun
    /// (or finished) shutting down.
    pub fn attach(&self, name: &str) -> Result<ProcessContext, NosvError> {
        // Registration happens under the life mutex so it cannot
        // interleave with shutdown: either the flag is observed here, or
        // the process (and its first-attach workers) is fully registered
        // before shutdown raises the flag and joins workers.
        let _gate = self.inner.life_mutex.lock();
        if self.shut_down.load(Ordering::Acquire) || self.inner.shutdown.load(Ordering::Acquire) {
            return Err(NosvError::ShutdownInProgress);
        }
        let id = self.inner.seg.attach()?;
        self.inner.sched.register_proc(id.slot, id.pid);
        let proc = Arc::new(ProcInner {
            pid: id.pid,
            slot: id.slot,
            name: name.to_string(),
            idle: Mutex::new(Vec::new()),
            active: AtomicBool::new(true),
        });
        self.inner.procs.lock().insert(id.pid, Arc::clone(&proc));
        if !self.inner.workers_started.swap(true, Ordering::AcqRel) {
            for core in 0..self.inner.config.cpus {
                let w = self.inner.spawn_worker(id.pid);
                w.assign(Assignment::Pull { core });
            }
        }
        Ok(ProcessContext {
            rt: Arc::clone(&self.inner),
            proc,
            state: std::sync::atomic::AtomicU32::new(CTX_ATTACHED),
        })
    }

    /// Number of cores the runtime manages.
    pub fn cpus(&self) -> usize {
        self.inner.config.cpus
    }

    /// Snapshot of the runtime counters.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats::from_table(&self.inner.counter_table())
    }

    /// Snapshot of the shared scheduler's queues and per-core process
    /// assignment. Taken under the scheduler's delegation lock, so it is
    /// internally consistent — which also means a call contends with
    /// every worker's task fetch; avoid calling it in a tight loop.
    pub fn scheduler_snapshot(&self) -> SchedulerSnapshot {
        self.inner.sched.snapshot()
    }

    /// Nanoseconds since the runtime started (the clock
    /// [`crate::ObsEvent`]s use).
    pub fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    /// Whether a [`crate::TraceSink`] is installed (events are recorded).
    pub fn tracing_enabled(&self) -> bool {
        self.inner.obs.enabled()
    }

    /// Registers (or replaces) the guest-task kernel named `id`.
    ///
    /// Closures cannot cross an OS process boundary, so tasks submitted
    /// by a joined guest ([`crate::GuestProcess::submit`]) are *data-
    /// described*: a kernel id plus one `u64` argument. A host worker
    /// executes the closure registered here under that id; tasks naming
    /// an unregistered id complete as no-ops. Kernels run on worker
    /// threads and must not block on other tasks (they have no
    /// [`crate::TaskCtx`], so they cannot pause).
    ///
    /// Only meaningful on named-segment runtimes
    /// ([`RuntimeBuilder::segment_name`]), though calling it on any
    /// runtime is harmless.
    pub fn register_kernel(&self, id: u64, kernel: impl Fn(u64) + Send + Sync + 'static) {
        self.inner.guest_kernels.lock().insert(id, Arc::new(kernel));
    }

    /// Stops all workers and tears the runtime down. Idempotent; later
    /// [`Runtime::attach`] and task submissions on shared handles return
    /// [`NosvError::ShutdownInProgress`].
    ///
    /// # Panics
    ///
    /// Panics if tasks are still pending (submitted but not completed):
    /// shutting down under them would leave threads blocked forever.
    pub fn shutdown(&self) {
        {
            // The life mutex serializes against attach; submissions are
            // serialized lock-free instead: the flag store (SeqCst) comes
            // first, then we wait for every in-flight submit window to
            // close, and only then read the pending count. A submit whose
            // window opened after the flag observes it, rolls its
            // transient pending increment back before the window closes,
            // and returns ShutdownInProgress — the assert below can no
            // longer observe the transient, so the race resolves
            // deterministically. See RuntimeInner::submit.
            let _gate = self.inner.life_mutex.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
            // Read a *stable* pending count: a transient increment (a
            // racing submit that will observe the flag and roll back)
            // exists only while its inflight window is open. Snapshot the
            // monotonic opened-window count, drain the open windows, read
            // pending, and re-check the snapshot: if no window opened
            // since the snapshot, a window open at the pending read would
            // have had to open before the snapshot — and then the drain
            // would still have been spinning on it. So an unchanged
            // snapshot proves the read is transient-free. Windows opened
            // after the flag always roll back and return
            // ShutdownInProgress, so this terminates once racing
            // submitters drain.
            let pending = loop {
                let opened = self.inner.submit_windows.load(Ordering::SeqCst);
                while self.inner.submit_inflight.load(Ordering::SeqCst) != 0 {
                    std::thread::yield_now();
                }
                let p = self.inner.pending_tasks.load(Ordering::SeqCst);
                if self.inner.submit_windows.load(Ordering::SeqCst) == opened {
                    break p;
                }
                std::thread::yield_now();
            };
            assert_eq!(pending, 0, "shutdown with tasks still pending");
        }
        self.shutdown_inner();
    }

    fn shutdown_inner(&self) {
        if self.shut_down.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // The reactor exits within one tick of the flag; joining it first
        // means no attach/reclaim can interleave with worker teardown.
        if let Some(reactor) = self.inner.reactor.lock().take() {
            let _ = reactor.join();
        }
        // Wake every idle worker so it observes the flag; the gates' epoch
        // bumps catch workers between their flag check and their sleep.
        self.inner.gates.notify_all();
        for w in self.inner.workers.lock().iter() {
            w.signal_shutdown();
        }
        let joins: Vec<JoinHandle<()>> = std::mem::take(&mut *self.inner.joins.lock());
        for j in joins {
            let _ = j.join();
        }
        // Workers are joined (their buffers drained on exit): the sink now
        // holds the complete action stream. Report the final counter deltas
        // through the same stream and let the sink materialize its output.
        if self.inner.obs.enabled() {
            let table = self.inner.counter_table();
            for (&counter, &delta) in CounterKind::ALL.iter().zip(&table) {
                if delta > 0 {
                    self.inner
                        .emit(ObsKind::Counter { counter, delta }, NO_CPU, 0, TaskId(0));
                }
            }
            self.inner.obs.flush();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Best-effort teardown for runtimes dropped without an explicit
        // shutdown (e.g. tests unwinding on panic).
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("cpus", &self.inner.config.cpus)
            .field(
                "pending_tasks",
                &self.inner.pending_tasks.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// A logical process attached to the runtime (one co-executed application).
///
/// Dropping the context detaches the process (§3.3 unregistration). All
/// tasks created through it must have completed and been destroyed first.
pub struct ProcessContext {
    rt: Arc<RuntimeInner>,
    proc: Arc<ProcInner>,
    /// Detach life cycle: [`CTX_ATTACHED`] → [`CTX_DETACHING`] →
    /// ([`CTX_DETACHED`] | back to attached on `ProcessBusy`). A CAS gate
    /// rather than a boolean: the teardown must run at most once even
    /// under concurrent `detach()` calls, while a refused attempt must
    /// return the context to fully-attached.
    state: std::sync::atomic::AtomicU32,
}

const CTX_ATTACHED: u32 = 0;
const CTX_DETACHING: u32 = 1;
const CTX_DETACHED: u32 = 2;

impl ProcessContext {
    /// This process's id.
    pub fn pid(&self) -> u64 {
        self.proc.pid
    }

    /// The name given at attach time.
    pub fn name(&self) -> &str {
        &self.proc.name
    }

    /// Sets this application's priority (§3.4 per-application priorities).
    pub fn set_app_priority(&self, priority: i32) {
        self.rt.sched.set_app_priority(self.proc.slot, priority);
    }

    /// Creates a task from a plain closure (`nosv_create` with defaults).
    ///
    /// Thin panicking convenience over [`ProcessContext::build_task`].
    ///
    /// # Panics
    ///
    /// Panics if the shared segment is exhausted or the process detached.
    pub fn create_task(&self, body: impl FnOnce(&TaskCtx) + Send + 'static) -> TaskHandle {
        self.build_task(TaskBuilder::new().run(body))
            .expect("task creation failed")
    }

    /// Creates a task from a full [`TaskBuilder`] (`nosv_create`).
    ///
    /// Errors:
    /// * [`NosvError::MissingTaskBody`] — the builder has no `run` callback;
    /// * [`NosvError::InvalidAffinity`] — the affinity names a core or NUMA
    ///   node outside this runtime's topology;
    /// * [`NosvError::ProcessDetached`] — this context already detached;
    /// * [`NosvError::OutOfSharedMemory`] — the segment is exhausted.
    pub fn build_task(&self, builder: TaskBuilder) -> Result<TaskHandle, NosvError> {
        if builder.run.is_none() {
            return Err(NosvError::MissingTaskBody);
        }
        builder
            .affinity
            .validate(self.rt.config.cpus, self.rt.config.numa_nodes())?;
        if !self.proc.active.load(Ordering::Acquire) {
            return Err(NosvError::ProcessDetached);
        }
        let cpu = worker::current_core().unwrap_or(0);
        let desc: Shoff<TaskDesc> = self
            .rt
            .seg
            .alloc_zeroed(std::mem::size_of::<TaskDesc>(), cpu)?
            .cast();
        let id = TaskId(self.rt.next_task_id.fetch_add(1, Ordering::Relaxed));
        let signal = TaskSignal::new();
        // SAFETY: freshly allocated zeroed descriptor, exclusively ours.
        let d = unsafe { self.rt.seg.sref(desc) };
        d.id.store(id.0, Ordering::Relaxed);
        d.slot.store(self.proc.slot, Ordering::Relaxed);
        d.pid.store(self.proc.pid, Ordering::Relaxed);
        d.priority.store(builder.priority as u32, Ordering::Relaxed);
        d.affinity
            .store(builder.affinity.encode(), Ordering::Relaxed);
        d.metadata.store(builder.metadata, Ordering::Relaxed);
        let cbs = Box::new(TaskCallbacks {
            run: builder.run,
            completed: builder.completed,
        });
        d.callbacks
            .store(Box::into_raw(cbs) as u64, Ordering::Release);
        d.signal
            .store(Arc::into_raw(Arc::clone(&signal)) as u64, Ordering::Release);
        d.set_state(TaskState::Created);
        self.rt.live_descriptors.fetch_add(1, Ordering::AcqRel);
        Ok(TaskHandle {
            rt: Arc::clone(&self.rt),
            desc,
            id,
            signal,
            destroyed: AtomicBool::new(false),
        })
    }

    /// Creates and submits a whole [`TaskBatch`] in one call, amortizing
    /// the per-submission costs across the batch: one ring tail
    /// reservation for the queued members ([`nosv_shmem::LaneRing`]'s
    /// reserve-N push), one ready-counter update, one claim-table pass
    /// handing the leading members to idle CPUs, and at most one server
    /// wake — where `count` individual [`TaskHandle::submit`] calls pay
    /// each of those `count` times.
    ///
    /// Members share one body and one completion latch (the returned
    /// [`BatchHandle`]); they have no individual handles, and their
    /// descriptors are reclaimed by the workers that execute them. An
    /// empty batch returns an already-complete handle.
    ///
    /// Errors as [`ProcessContext::build_task`]
    /// ([`NosvError::MissingTaskBody`], [`NosvError::InvalidAffinity`],
    /// [`NosvError::ProcessDetached`], [`NosvError::OutOfSharedMemory`]),
    /// plus [`NosvError::ShutdownInProgress`] when racing shutdown; on any
    /// error nothing was enqueued.
    pub fn submit_all(&self, batch: TaskBatch) -> Result<BatchHandle, NosvError> {
        let Some(body) = batch.body else {
            return Err(NosvError::MissingTaskBody);
        };
        batch
            .affinity
            .validate(self.rt.config.cpus, self.rt.config.numa_nodes())?;
        if !self.proc.active.load(Ordering::Acquire) {
            return Err(NosvError::ProcessDetached);
        }
        let signal = TaskSignal::new();
        if batch.count == 0 {
            signal.complete();
            return Ok(BatchHandle {
                rt: Arc::clone(&self.rt),
                signal,
                count: 0,
            });
        }
        let n = batch.count as u64;
        let shared = Arc::new(BatchShared {
            body,
            remaining: AtomicU64::new(n),
            signal: Arc::clone(&signal),
        });
        let cpu = worker::current_core().unwrap_or(0);
        // Materialize every member before anything becomes visible to the
        // scheduler, so an allocation failure can unwind without a single
        // task having been enqueued.
        let mut descs: Vec<Shoff<TaskDesc>> = Vec::with_capacity(batch.count);
        let free_all = |descs: &[Shoff<TaskDesc>]| {
            for &desc in descs {
                // SAFETY: allocated below, never enqueued — exclusively ours.
                let d = unsafe { self.rt.seg.sref(desc) };
                let raw = d.batch.swap(0, Ordering::AcqRel);
                if raw != 0 {
                    // SAFETY: uniquely taken by the swap.
                    drop(unsafe { Arc::from_raw(raw as *const BatchShared) });
                }
                self.rt.seg.free_t(desc, cpu);
            }
        };
        for i in 0..batch.count {
            let desc: Shoff<TaskDesc> = match self
                .rt
                .seg
                .alloc_zeroed(std::mem::size_of::<TaskDesc>(), cpu)
            {
                Ok(block) => block.cast(),
                Err(e) => {
                    free_all(&descs);
                    return Err(e.into());
                }
            };
            let id = TaskId(self.rt.next_task_id.fetch_add(1, Ordering::Relaxed));
            // SAFETY: freshly allocated zeroed descriptor, exclusively ours.
            let d = unsafe { self.rt.seg.sref(desc) };
            d.id.store(id.0, Ordering::Relaxed);
            d.slot.store(self.proc.slot, Ordering::Relaxed);
            d.pid.store(self.proc.pid, Ordering::Relaxed);
            d.priority.store(batch.priority as u32, Ordering::Relaxed);
            d.affinity.store(batch.affinity.encode(), Ordering::Relaxed);
            d.metadata
                .store(batch.metadata.wrapping_add(i as u64), Ordering::Relaxed);
            d.submits.store(1, Ordering::Relaxed);
            d.batch
                .store(Arc::into_raw(Arc::clone(&shared)) as u64, Ordering::Release);
            // Born Ready: the whole batch is enqueued below in one go, and
            // no handle exists through which a Created member could leak.
            d.set_state(TaskState::Ready);
            descs.push(desc);
        }
        // Same shutdown handshake as the single-task path, one window for
        // the whole batch: bump pending (SeqCst), load the flag, roll the
        // never-enqueued members back if it is up.
        let _window = InflightWindow::open(&self.rt);
        self.rt.pending_tasks.fetch_add(n, Ordering::SeqCst);
        if self.rt.shutdown.load(Ordering::SeqCst) {
            self.rt.pending_tasks.fetch_sub(n, Ordering::SeqCst);
            free_all(&descs);
            return Err(NosvError::ShutdownInProgress);
        }
        self.rt.live_descriptors.fetch_add(n, Ordering::AcqRel);
        let cpu = worker::current_core().unwrap_or(Counters::EXTERNAL);
        let counters = &self.rt.counters;
        counters.add(cpu, CounterKind::TasksSubmitted, n);
        if self.rt.obs.enabled() {
            let obs_cpu = u32::try_from(cpu).unwrap_or(crate::obs::NO_CPU);
            for &desc in &descs {
                // SAFETY: ours until the scheduler insert below.
                let d = unsafe { self.rt.seg.sref(desc) };
                self.rt.emit(
                    ObsKind::Submit,
                    obs_cpu,
                    self.proc.pid,
                    TaskId(d.id.load(Ordering::Relaxed)),
                );
            }
        }
        let paths = self.rt.sched.submit_batch(
            &descs,
            batch.affinity,
            self.proc.slot as usize,
            producer_tag(),
        );
        counters.add(cpu, CounterKind::DirectDispatches, paths.direct);
        counters.add(cpu, CounterKind::RingSubmits, paths.ring);
        counters.add(cpu, CounterKind::LockedSubmits, paths.locked);
        // Direct members woke their claimed CPUs inside submit_batch; the
        // queued remainder needs exactly one server wake.
        if paths.ring + paths.locked > 0 {
            self.rt.sched.wake_for(batch.affinity);
        }
        Ok(BatchHandle {
            rt: Arc::clone(&self.rt),
            signal,
            count: batch.count,
        })
    }

    /// Convenience: create, submit, and return the handle.
    ///
    /// # Panics
    ///
    /// Panics where [`ProcessContext::create_task`] or
    /// [`crate::TaskHandle::submit`] would return an error.
    pub fn spawn(&self, body: impl FnOnce(&TaskCtx) + Send + 'static) -> TaskHandle {
        let t = self.create_task(body);
        t.submit().expect("fresh task submission failed");
        t
    }

    /// Detaches the process from the runtime (§3.3 unregistration).
    ///
    /// Idempotent, and also performed on drop. After detaching,
    /// [`ProcessContext::build_task`] returns [`NosvError::ProcessDetached`].
    ///
    /// Returns [`NosvError::ProcessBusy`] when ready tasks of this process
    /// are still queued in the scheduler — in its process queue *or* in
    /// the core/NUMA queues its placed tasks routed to — a *recoverable*
    /// condition: the context stays attached and fully usable; wait for
    /// the outstanding work and detach again. (Earlier versions panicked
    /// here.) In-flight lock-free submissions are flushed into the queues
    /// before the check, so a detach never strands a ring entry.
    pub fn detach(&self) -> Result<(), NosvError> {
        self.detach_inner()
    }

    fn detach_inner(&self) -> Result<(), NosvError> {
        // Win the DETACHING gate before touching any shared state: the
        // teardown below must run at most once even when several threads
        // share the context and race detach() — a loser that unregistered
        // a slot the registry already reused would deactivate a *new*
        // process. On ProcessBusy the gate reopens (context stays
        // attached); a concurrent caller waits for the in-flight attempt
        // and then observes its outcome.
        loop {
            match self.state.compare_exchange(
                CTX_ATTACHED,
                CTX_DETACHING,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(CTX_DETACHED) => return Ok(()),
                Err(_) => std::thread::yield_now(), // DETACHING: retry
            }
        }
        if let Err(e) = self.rt.sched.unregister_proc(self.proc.slot) {
            // Refused (tasks still queued): fully reopen.
            self.state.store(CTX_ATTACHED, Ordering::Release);
            return Err(e);
        }
        self.proc.active.store(false, Ordering::Release);
        self.rt.seg.detach(nosv_shmem::ProcessId {
            pid: self.proc.pid,
            slot: self.proc.slot,
        });
        self.state.store(CTX_DETACHED, Ordering::Release);
        // The process's entry stays in the table and its parked workers stay
        // alive until runtime shutdown: active workers of this process may
        // still be relaying cores (their pull loop hands foreign tasks off)
        // and must be able to park; they just never execute a task body
        // again because no task of this pid can exist anymore.
        Ok(())
    }

    /// Drop-path teardown when ready tasks are still queued: reclaim them
    /// from the scheduler and cancel them — callbacks dropped unexecuted,
    /// signals completed so `wait()`ing threads unblock, handles left
    /// destroyable (state `Completed`, descriptor freed by the handle as
    /// usual) — then detach. The explicit [`ProcessContext::detach`] keeps
    /// the recoverable refusal; dropping the context is the owner's
    /// statement that the queued work is abandoned.
    fn cancel_queued_and_detach(&self) {
        // Drop gives exclusive access, but keep the teardown behind the
        // same gate the detach path uses so it stays single-entry.
        self.state.store(CTX_DETACHING, Ordering::Release);
        for task in self.rt.sched.reclaim_slot(self.proc.slot).tasks {
            // SAFETY: handle-owned descriptor, reclaimed from the queues
            // before any worker could fetch it; alive until destroy.
            let d = unsafe { self.rt.seg.sref(task) };
            let batch_raw = d.batch.swap(0, Ordering::AcqRel);
            if batch_raw != 0 {
                // Batch member: no handle owns it, so the cancellation
                // frees the descriptor and counts the member down itself —
                // waiters on the batch latch unblock once every member has
                // either executed or been cancelled here.
                d.set_state(TaskState::Completed);
                self.rt.pending_tasks.fetch_sub(1, Ordering::SeqCst);
                self.rt.seg.free_t(task, 0);
                self.rt.live_descriptors.fetch_sub(1, Ordering::AcqRel);
                // SAFETY: uniquely taken by the swap.
                let shared = unsafe { Arc::from_raw(batch_raw as *const crate::task::BatchShared) };
                if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    shared.signal.complete();
                }
                continue;
            }
            let cbs_raw = d.callbacks.swap(0, Ordering::AcqRel);
            if cbs_raw != 0 {
                // SAFETY: uniquely taken by the swap.
                drop(unsafe { Box::from_raw(cbs_raw as *mut TaskCallbacks) });
            }
            d.set_state(TaskState::Completed);
            self.rt.pending_tasks.fetch_sub(1, Ordering::SeqCst);
            let sig_raw = d.signal.swap(0, Ordering::AcqRel);
            if sig_raw != 0 {
                // SAFETY: as above. Completing resubmits paused waiters
                // and wakes blocked wait() calls.
                unsafe { Arc::from_raw(sig_raw as *const TaskSignal) }.complete();
            }
        }
        self.proc.active.store(false, Ordering::Release);
        self.rt.seg.detach(ProcessId {
            pid: self.proc.pid,
            slot: self.proc.slot,
        });
        self.state.store(CTX_DETACHED, Ordering::Release);
    }
}

impl Drop for ProcessContext {
    fn drop(&mut self) {
        // Tasks still queued at drop are cancelled (earlier versions
        // leaked the registry slot under a debug assert): the owner is
        // walking away, so the queued work is reclaimed from the
        // scheduler, its callbacks dropped, and its waiters unblocked
        // before the slot is released.
        if let Err(NosvError::ProcessBusy { .. }) = self.detach_inner() {
            self.cancel_queued_and_detach();
        }
    }
}

impl std::fmt::Debug for ProcessContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessContext")
            .field("pid", &self.proc.pid)
            .field("name", &self.proc.name)
            .finish()
    }
}
