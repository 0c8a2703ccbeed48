//! Task descriptors, handles, and builders (paper §3.2).
//!
//! A task is represented by a *descriptor* in the shared segment — the
//! paper's `nosv_create` returns exactly such a descriptor, holding the
//! creator PID, the run/completion callbacks, scheduling attributes and the
//! intrusive link used by the shared scheduler's queues. The host-side
//! [`TaskHandle`] owns the descriptor between `create` and `destroy`.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv_shmem::{AtomicShoff, Shoff};
use nosv_sync::{IdleGate, Mutex, STANDBY_SPIN_ROUNDS};

use crate::error::NosvError;

/// Boxed task body (the paper's run callback).
pub(crate) type RunCallback = Box<dyn FnOnce(&TaskCtx) + Send + 'static>;
/// Boxed completion callback.
pub(crate) type CompletedCallback = Box<dyn FnOnce() + Send + 'static>;

/// Unique id of a task within a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Life-cycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum TaskState {
    /// Created, not yet submitted.
    Created = 0,
    /// In the shared scheduler, waiting for a core.
    Ready = 1,
    /// Executing on a worker thread.
    Running = 2,
    /// Paused via [`crate::pause`]; its thread is blocked and attached.
    Paused = 3,
    /// Body finished; safe to destroy.
    Completed = 4,
}

impl TaskState {
    /// Decodes a raw state word.
    ///
    /// Returns [`NosvError::CorruptTaskState`] when the word is outside the
    /// encoding — the error-first counterpart of trusting shared memory.
    pub fn from_u32(v: u32) -> Result<TaskState, NosvError> {
        match v {
            0 => Ok(TaskState::Created),
            1 => Ok(TaskState::Ready),
            2 => Ok(TaskState::Running),
            3 => Ok(TaskState::Paused),
            4 => Ok(TaskState::Completed),
            raw => Err(NosvError::CorruptTaskState { raw }),
        }
    }
}

/// Per-task scheduling affinity (§3.4's locality policy), shared with the
/// simulator through the backend-agnostic scheduling core.
///
/// Re-exported from [`nosv_core`]: the routing decision an affinity
/// drives lives in `nosv_core::SchedCore`, so both backends place tasks
/// identically. [`Affinity::validate`] (bounds-checking against a
/// topology) returns `nosv_core::InvalidAffinity`, which converts into
/// [`NosvError::InvalidAffinity`] via `?`.
pub use nosv_core::Affinity;

/// Run and completion callbacks, boxed host-side.
///
/// The descriptor stores only a thin raw pointer to this box. In the real
/// multi-process system the descriptor holds function pointers that are only
/// meaningful — and only ever dereferenced — inside the creating process;
/// the invariant here is identical: callbacks are taken and called
/// exclusively by worker threads of the creating logical process.
pub(crate) struct TaskCallbacks {
    pub run: Option<RunCallback>,
    pub completed: Option<CompletedCallback>,
}

/// The in-segment task descriptor (`nosv_create`'s result in the paper).
///
/// `repr(C)`, offset-linked, fully position-independent. Fields mutated
/// concurrently use atomics; queue links are mutated only under the shared
/// scheduler lock.
#[repr(C)]
pub(crate) struct TaskDesc {
    /// Current [`TaskState`].
    pub state: AtomicU32,
    /// Registry slot of the creating process (queue index).
    pub slot: AtomicU32,
    /// PID of the creating process ("the PID of the process on which the
    /// task was created", §3.2).
    pub pid: AtomicU64,
    /// Unique task id.
    pub id: AtomicU64,
    /// Task priority (higher runs first within a process).
    pub priority: AtomicU32,
    /// Encoded [`Affinity`].
    pub affinity: AtomicU64,
    /// Intrusive link for the scheduler queue this task sits in.
    pub next: AtomicShoff<TaskDesc>,
    /// Raw `Box<TaskCallbacks>` (see [`TaskCallbacks`] for the safety
    /// argument). 0 after the callbacks are taken for execution.
    pub callbacks: AtomicU64,
    /// Global index + 1 of the worker thread attached to this paused task;
    /// 0 when no thread is attached (§3.3 resume protocol).
    pub attached_worker: AtomicU64,
    /// User metadata word (the paper's embedded metadata pointer).
    pub metadata: AtomicU64,
    /// Times this task has been submitted (initial + resumes).
    pub submits: AtomicU64,
    /// Raw `Arc<TaskSignal>` used to wake host-side waiters on completion.
    /// Like `callbacks`, only touched by the creating process's side.
    pub signal: AtomicU64,
    /// Guest-task kernel selector: 0 for host tasks (zero-valid, so every
    /// pre-existing descriptor is a host task), `kernel_id + 1` for tasks
    /// submitted by a joined guest process. Guest descriptors carry *data*,
    /// not pointers: the host resolves the id against its registered kernel
    /// table ([`crate::Runtime::register_kernel`]) and runs the kernel with
    /// the task's `metadata` word as argument.
    pub kernel: AtomicU64,
    /// Raw `Arc<BatchShared>` for batch members (zero-valid: 0 = an
    /// individually created task). Like `callbacks`/`signal`, only ever
    /// dereferenced inside the creating process, and uniquely taken (by
    /// swap) by the executing worker or the cancellation path. Batch
    /// members carry no per-task callbacks, signal, or handle: the shared
    /// block holds the one body and the one completion latch, and the
    /// worker frees the descriptor after running it.
    pub batch: AtomicU64,
}

impl TaskDesc {
    /// Fallible state read; `Err` means the shared segment is corrupt.
    pub(crate) fn try_state(&self) -> Result<TaskState, NosvError> {
        TaskState::from_u32(self.state.load(Ordering::Acquire))
    }

    pub(crate) fn set_state(&self, s: TaskState) {
        self.state.store(s as u32, Ordering::Release);
    }

    /// Atomically transition `from -> to`; returns whether it happened.
    pub(crate) fn transition(&self, from: TaskState, to: TaskState) -> bool {
        self.state
            .compare_exchange(from as u32, to as u32, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// Host-side completion latch shared by [`TaskHandle`] and the worker that
/// finishes the task.
///
/// Completion is the `done` flag. External threads wait on an [`IdleGate`]
/// eventcount (`prepare_wait` → check `done` → wait), after a bounded spin
/// while no queued work exists; `complete` stores `done` and then bumps the
/// gate, which costs no lock and no syscall when nobody sleeps.
///
/// The signal also keeps a list of *paused tasks* waiting for this
/// completion: a task that calls [`TaskHandle::wait`] from inside its body
/// must not block its worker thread (that would pin a core), so it
/// registers itself here and pauses; `complete` resubmits every registered
/// waiter (§3.2: unblocking a paused task is done by submitting it again).
pub(crate) struct TaskSignal {
    /// Raised once by `complete`, never lowered.
    done: AtomicBool,
    /// Whether the body panicked (for a batch: whether *any* member's
    /// did). Stored before `complete` raises `done`, so a waiter that
    /// observed completion also observes the flag.
    panicked: AtomicBool,
    /// Sleeping external waiters.
    gate: IdleGate,
    /// `(runtime, descriptor offset)` of paused tasks to resubmit.
    waiters: Mutex<Vec<(Arc<crate::runtime::RuntimeInner>, u64)>>,
}

impl TaskSignal {
    pub(crate) fn new() -> Arc<TaskSignal> {
        Arc::new(TaskSignal {
            done: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            gate: IdleGate::new(),
            waiters: Mutex::new(Vec::new()),
        })
    }

    /// Records that the body panicked. Must precede `complete`.
    pub(crate) fn mark_panicked(&self) {
        self.panicked.store(true, Ordering::Release);
    }

    /// Whether the body panicked (meaningful once the task completed).
    pub(crate) fn panicked(&self) -> bool {
        self.panicked.load(Ordering::Acquire)
    }

    pub(crate) fn complete(&self) {
        self.done.store(true, Ordering::Release);
        self.gate.notify_all();
        // Taken after `done` is up: a registrant checks `done` under this
        // mutex, so it either sees the flag or lands in the list taken here.
        // `submit` tolerates a waiter that has decided to pause but not yet
        // transitioned (it spins on Running).
        let waiters = std::mem::take(&mut *self.waiters.lock());
        for (rt, desc_raw) in waiters {
            match rt.submit(Shoff::from_raw(desc_raw)) {
                // A runtime dropped mid-unwind with tasks still pending
                // reaches here with shutdown already signalled; the waiter
                // cannot be resumed (its worker is exiting), and panicking
                // the completing worker would strand the rest of the list.
                Ok(()) | Err(crate::NosvError::ShutdownInProgress) => {}
                Err(e) => unreachable!("resubmitting a paused waiter failed: {e}"),
            }
        }
    }

    /// Registers a paused-task waiter unless the task already completed.
    /// Returns whether the waiter was registered (false = already done).
    pub(crate) fn register_task_waiter(
        &self,
        rt: &Arc<crate::runtime::RuntimeInner>,
        desc_raw: u64,
    ) -> bool {
        let mut waiters = self.waiters.lock();
        if self.is_done() {
            return false;
        }
        waiters.push((Arc::clone(rt), desc_raw));
        true
    }

    /// Whether the task already completed (non-blocking).
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Blocks an external thread until the task completes or `deadline`
    /// passes (`None`: no deadline); returns whether it completed.
    ///
    /// Without a deadline the thread first spins for up to
    /// [`STANDBY_SPIN_ROUNDS`] backoff rounds — the standby spinner's
    /// window — for as long as `keep_spinning` holds, then parks.
    pub(crate) fn wait_until(
        &self,
        deadline: Option<Instant>,
        mut keep_spinning: impl FnMut() -> bool,
    ) -> bool {
        loop {
            let key = self.gate.prepare_wait();
            if self.is_done() {
                return true;
            }
            match deadline {
                None => self
                    .gate
                    .wait_spin_while(key, STANDBY_SPIN_ROUNDS, &mut keep_spinning),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    self.gate.wait_timeout(key, left);
                }
            }
        }
    }
}

/// Builder for a task's scheduling attributes and callbacks.
///
/// ```
/// use nosv::prelude::*;
///
/// # fn main() -> Result<(), NosvError> {
/// let rt = Runtime::builder().cpus(2).build()?;
/// let app = rt.attach("builder-demo")?;
/// let task = app.build_task(
///     TaskBuilder::new()
///         .priority(7)
///         .affinity(Affinity::Core { index: 1, strict: false })
///         .metadata(0xfeed)
///         .run(|ctx| assert_eq!(ctx.metadata(), 0xfeed)),
/// )?;
/// task.submit()?;
/// task.wait()?;
/// task.destroy();
/// drop(app);
/// rt.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct TaskBuilder {
    pub(crate) priority: i32,
    pub(crate) affinity: Affinity,
    pub(crate) metadata: u64,
    pub(crate) run: Option<RunCallback>,
    pub(crate) completed: Option<CompletedCallback>,
}

impl TaskBuilder {
    /// Starts a builder with default attributes (priority 0, no affinity).
    pub fn new() -> TaskBuilder {
        TaskBuilder {
            priority: 0,
            affinity: Affinity::None,
            metadata: 0,
            run: None,
            completed: None,
        }
    }

    /// Sets the task priority (higher executes first within its process).
    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// Sets the task's [`Affinity`].
    pub fn affinity(mut self, a: Affinity) -> Self {
        self.affinity = a;
        self
    }

    /// Attaches a user metadata word, readable via [`TaskCtx::metadata`].
    pub fn metadata(mut self, m: u64) -> Self {
        self.metadata = m;
        self
    }

    /// Sets the run callback (the task body).
    pub fn run(mut self, f: impl FnOnce(&TaskCtx) + Send + 'static) -> Self {
        self.run = Some(Box::new(f));
        self
    }

    /// Sets the completion callback, invoked by the worker right after the
    /// body returns (used by runtimes built on top to release dependents).
    pub fn on_completed(mut self, f: impl FnOnce() + Send + 'static) -> Self {
        self.completed = Some(Box::new(f));
        self
    }
}

impl Default for TaskBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The body every member of a [`TaskBatch`] runs (shared, so `Fn` rather
/// than the single-task `FnOnce`; each invocation receives its member's
/// own [`TaskCtx`]).
pub(crate) type BatchBody = Arc<dyn Fn(&TaskCtx) + Send + Sync + 'static>;

/// Host-side state shared by every member of one submitted batch: the one
/// body closure, the countdown to completion, and the latch
/// [`BatchHandle::wait`] blocks on. Descriptors hold one raw `Arc` strong
/// reference each (`TaskDesc::batch`); the last finishing member fires the
/// latch.
pub(crate) struct BatchShared {
    pub body: BatchBody,
    /// Members not yet finished (executed or cancelled). The member whose
    /// decrement reaches zero completes `signal`.
    pub remaining: AtomicU64,
    pub signal: Arc<TaskSignal>,
}

/// Builder for a *batch* of `count` sibling tasks sharing one body and one
/// set of scheduling attributes, submitted in a single
/// [`crate::ProcessContext::submit_all`] call that pays the per-submission
/// costs (ring sequencing, ready accounting, wakeups) once per batch
/// instead of once per task.
///
/// Member `i` observes `metadata + i` through [`TaskCtx::metadata`], so the
/// shared body can tell members apart. Members keep the submission order of
/// their lane (FIFO per producer thread) but have no individual handles:
/// the batch completes as a unit through the returned
/// [`crate::BatchHandle`], and the runtime reclaims each member's
/// descriptor as it finishes.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use nosv::prelude::*;
///
/// # fn main() -> Result<(), NosvError> {
/// let rt = Runtime::builder().cpus(2).build()?;
/// let app = rt.attach("batch-demo")?;
/// let sum = Arc::new(AtomicU64::new(0));
/// let s = Arc::clone(&sum);
/// let batch = app.submit_all(
///     TaskBatch::new(64).run(move |ctx| {
///         s.fetch_add(ctx.metadata(), Ordering::Relaxed);
///     }),
/// )?;
/// batch.wait()?;
/// assert_eq!(sum.load(Ordering::Relaxed), (0..64).sum::<u64>());
/// drop(app);
/// rt.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct TaskBatch {
    pub(crate) count: usize,
    pub(crate) priority: i32,
    pub(crate) affinity: Affinity,
    pub(crate) metadata: u64,
    pub(crate) body: Option<BatchBody>,
}

impl TaskBatch {
    /// Starts a batch of `count` tasks with default attributes (priority
    /// 0, no affinity, metadata base 0).
    pub fn new(count: usize) -> TaskBatch {
        TaskBatch {
            count,
            priority: 0,
            affinity: Affinity::None,
            metadata: 0,
            body: None,
        }
    }

    /// Number of member tasks.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch has no members (submitting one completes
    /// immediately).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Priority shared by every member (higher executes first within the
    /// process).
    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// [`Affinity`] shared by every member.
    pub fn affinity(mut self, a: Affinity) -> Self {
        self.affinity = a;
        self
    }

    /// Metadata base: member `i` observes `base + i` via
    /// [`TaskCtx::metadata`].
    pub fn metadata(mut self, base: u64) -> Self {
        self.metadata = base;
        self
    }

    /// The body every member runs (shared, hence `Fn`; receives each
    /// member's own [`TaskCtx`]).
    pub fn run(mut self, f: impl Fn(&TaskCtx) + Send + Sync + 'static) -> Self {
        self.body = Some(Arc::new(f));
        self
    }
}

impl fmt::Debug for TaskBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskBatch")
            .field("count", &self.count)
            .field("priority", &self.priority)
            .field("affinity", &self.affinity)
            .field("has_body", &self.body.is_some())
            .finish()
    }
}

/// Completion handle for one submitted [`TaskBatch`]; returned by
/// [`crate::ProcessContext::submit_all`].
///
/// Unlike [`TaskHandle`], there is nothing to destroy: member descriptors
/// are freed by the workers that execute them (or by cancellation), so the
/// handle is just the batch-wide completion latch.
pub struct BatchHandle {
    pub(crate) rt: Arc<crate::runtime::RuntimeInner>,
    pub(crate) signal: Arc<TaskSignal>,
    pub(crate) count: usize,
}

impl BatchHandle {
    /// Number of member tasks submitted.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether every member has finished (non-blocking).
    pub fn is_complete(&self) -> bool {
        self.signal.is_done()
    }

    /// Blocks until every member's body has completed. Returns
    /// [`NosvError::TaskPanicked`] when *any* member's body panicked —
    /// every other member still ran to completion (a panic fails only
    /// its own task), and the batch's memory is reclaimed as usual.
    ///
    /// Safe to call from anywhere: from an external thread it waits on
    /// the latch, spinning first exactly as [`TaskHandle::wait`] does
    /// (while no work is queued, for at most the standby spinner's
    /// window); from *inside a task* it pauses the calling task instead of
    /// pinning its worker thread.
    pub fn wait(&self) -> Result<(), NosvError> {
        if let Some(caller_raw) = crate::worker::current_task_raw() {
            loop {
                if !self.signal.register_task_waiter(&self.rt, caller_raw) {
                    return self.completion_outcome(); // already completed
                }
                crate::pause();
            }
        }
        self.signal.wait_until(None, || !self.rt.sched.has_ready());
        self.completion_outcome()
    }

    /// Outcome of the completed batch: `Ok` or the panic report.
    fn completion_outcome(&self) -> Result<(), NosvError> {
        if self.signal.panicked() {
            Err(NosvError::TaskPanicked)
        } else {
            Ok(())
        }
    }

    /// Blocks until the batch completes or `timeout` elapses, returning
    /// [`NosvError::WaitTimeout`] in the latter case. As with
    /// [`TaskHandle::wait_timeout`], a bounded wait is only possible on
    /// the external-thread path; called from inside a task it returns
    /// [`NosvError::WaitTimeout`] immediately unless already complete.
    ///
    /// A `timeout` too large to add to the current instant (such as
    /// `Duration::MAX`) means no deadline.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<(), NosvError> {
        if crate::worker::current_task_raw().is_some() {
            if self.signal.is_done() {
                return self.completion_outcome();
            }
            return Err(NosvError::WaitTimeout);
        }
        let deadline = Instant::now().checked_add(timeout);
        if self
            .signal
            .wait_until(deadline, || !self.rt.sched.has_ready())
        {
            self.completion_outcome()
        } else {
            Err(NosvError::WaitTimeout)
        }
    }
}

impl fmt::Debug for BatchHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchHandle")
            .field("count", &self.count)
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// Context passed to a running task body.
pub struct TaskCtx {
    pub(crate) task_id: TaskId,
    pub(crate) pid: u64,
    pub(crate) metadata: u64,
}

impl TaskCtx {
    /// Id of the running task.
    pub fn task_id(&self) -> TaskId {
        self.task_id
    }

    /// PID of the logical process that created the task.
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// The metadata word set at creation.
    pub fn metadata(&self) -> u64 {
        self.metadata
    }

    /// Pauses the running task — identical to the free function
    /// [`crate::pause`], provided here for discoverability.
    pub fn pause(&self) {
        crate::pause();
    }
}

/// Owning handle to a created task (`nosv_create`..`nosv_destroy`).
///
/// The handle submits, awaits and destroys the descriptor. Dropping a
/// handle destroys the descriptor automatically if the task is in a state
/// where that is safe ([`TaskState::Created`] or [`TaskState::Completed`]);
/// otherwise the descriptor is leaked with a debug assertion, mirroring the
/// paper's requirement that `nosv_destroy` be called only after the task
/// finished.
pub struct TaskHandle {
    pub(crate) rt: Arc<crate::runtime::RuntimeInner>,
    pub(crate) desc: Shoff<TaskDesc>,
    pub(crate) id: TaskId,
    pub(crate) signal: Arc<TaskSignal>,
    pub(crate) destroyed: std::sync::atomic::AtomicBool,
}

impl TaskHandle {
    /// Id of this task.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Current state of the task.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor's state word is corrupt; use
    /// [`TaskHandle::try_state`] to observe that as an error instead.
    pub fn state(&self) -> TaskState {
        self.try_state()
            .expect("corrupt task state in shared segment")
    }

    /// Fallible variant of [`TaskHandle::state`]: a corrupt state word in
    /// the shared segment surfaces as [`NosvError::CorruptTaskState`].
    pub fn try_state(&self) -> Result<TaskState, NosvError> {
        // SAFETY: the descriptor is alive until destroy().
        unsafe { self.rt.seg.sref(self.desc) }.try_state()
    }

    /// Submits the task to the shared scheduler (`nosv_submit`).
    ///
    /// Valid for freshly created tasks and for paused tasks (resubmission
    /// unblocks them, §3.2). Submitting a ready, running, or completed task
    /// returns [`NosvError::InvalidTaskState`]; a submission racing with
    /// runtime shutdown returns [`NosvError::ShutdownInProgress`].
    pub fn submit(&self) -> Result<(), NosvError> {
        self.rt.submit(self.desc)
    }

    /// Blocks until the task's body has completed. Returns `Ok(())` on a
    /// normal completion and [`NosvError::TaskPanicked`] when the body
    /// panicked — the panic failed *only this task* (the worker caught
    /// it; the runtime keeps scheduling), and the completed task can be
    /// destroyed as usual.
    ///
    /// Safe to call from anywhere. From *inside another task* it pauses
    /// the calling task instead of pinning its worker thread and core (the
    /// paper's `nosv_pause` "wait for an event" pattern), and resumes when
    /// this task completes.
    ///
    /// From an external thread it first spins, then sleeps. The spin lasts
    /// at most the standby worker's window
    /// ([`nosv_sync::STANDBY_SPIN_ROUNDS`] backoff rounds: a few hundred
    /// spin hints, then OS yields — tens of microseconds) and only while
    /// no task is queued in the runtime, so it never takes a core from
    /// work that could run; a short task's completion then reaches the
    /// waiter without a kernel sleep and wake. Once work is queued or the
    /// window ends, the thread sleeps until the completion wakes it.
    pub fn wait(&self) -> Result<(), NosvError> {
        if let Some(caller_raw) = crate::worker::current_task_raw() {
            // Cooperative path: pause the calling task; completion of this
            // task resubmits it.
            loop {
                if !self.signal.register_task_waiter(&self.rt, caller_raw) {
                    return self.completion_outcome(); // already completed
                }
                crate::pause();
            }
        }
        self.signal.wait_until(None, || !self.rt.sched.has_ready());
        self.completion_outcome()
    }

    /// Outcome of a completed task: `Ok` or the panic report.
    fn completion_outcome(&self) -> Result<(), NosvError> {
        if self.signal.panicked() {
            Err(NosvError::TaskPanicked)
        } else {
            Ok(())
        }
    }

    /// Blocks until the task's body has completed or `timeout` elapses,
    /// returning [`NosvError::WaitTimeout`] in the latter case. The task
    /// keeps running after a timeout; the handle stays valid and can be
    /// waited again.
    ///
    /// A bounded wait is only possible on the **external-thread path**.
    /// Called from *inside another task*, a cooperative wait would pause
    /// the calling task — and a paused task's thread is parked and cannot
    /// be woken by a timer, only by a resubmission (§3.2), so the deadline
    /// cannot be honoured. Earlier versions silently fell back to an
    /// unbounded wait on this path; this now returns
    /// [`NosvError::WaitTimeout`] **immediately** instead (unless the task
    /// already completed, which still returns `Ok`). Callers that need a
    /// bounded in-task wait should restructure so the bounded wait happens
    /// on an external thread, or use [`TaskHandle::wait`] when an
    /// unbounded cooperative wait is acceptable.
    ///
    /// A `timeout` too large to add to the current instant (such as
    /// `Duration::MAX`) means no deadline.
    ///
    /// ```
    /// use std::time::Duration;
    /// use nosv::prelude::*;
    ///
    /// # fn main() -> Result<(), NosvError> {
    /// let rt = Runtime::builder().cpus(1).build()?;
    /// let app = rt.attach("wt")?;
    /// let (tx, rx) = std::sync::mpsc::channel::<()>();
    /// let t = app.create_task(move |_| {
    ///     rx.recv().unwrap();
    /// });
    /// t.submit()?;
    /// // The task is blocked on the channel: a short wait must time out.
    /// assert_eq!(
    ///     t.wait_timeout(Duration::from_millis(10)),
    ///     Err(NosvError::WaitTimeout)
    /// );
    /// tx.send(()).unwrap();
    /// t.wait_timeout(Duration::from_secs(30))?;
    /// t.destroy();
    /// drop(app);
    /// rt.shutdown();
    /// # Ok(())
    /// # }
    /// ```
    pub fn wait_timeout(&self, timeout: Duration) -> Result<(), NosvError> {
        if crate::worker::current_task_raw().is_some() {
            // In-task cooperative path: the deadline cannot be honoured
            // (see above). Report the unsupported path as a timeout
            // instead of silently waiting forever.
            if self.signal.is_done() {
                return self.completion_outcome();
            }
            return Err(NosvError::WaitTimeout);
        }
        let deadline = Instant::now().checked_add(timeout);
        if self
            .signal
            .wait_until(deadline, || !self.rt.sched.has_ready())
        {
            self.completion_outcome()
        } else {
            Err(NosvError::WaitTimeout)
        }
    }

    /// Destroys the task (`nosv_destroy`), returning its shared memory.
    ///
    /// # Panics
    ///
    /// Panics unless the task is [`TaskState::Created`] (never submitted)
    /// or [`TaskState::Completed`].
    pub fn destroy(self) {
        self.destroy_inner();
    }

    fn destroy_inner(&self) {
        if self.destroyed.swap(true, Ordering::AcqRel) {
            return;
        }
        let state = self.state();
        assert!(
            matches!(state, TaskState::Created | TaskState::Completed),
            "nosv_destroy on a task in state {state:?}"
        );
        self.rt.destroy_task(self.desc);
    }
}

impl fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskHandle")
            .field("id", &self.id)
            .field("state", &self.state())
            .finish()
    }
}

impl Drop for TaskHandle {
    fn drop(&mut self) {
        if self.destroyed.load(Ordering::Acquire) {
            return;
        }
        let state = self.state();
        if matches!(state, TaskState::Created | TaskState::Completed) {
            self.destroy_inner();
        } else {
            // Dropping a live task's handle leaks the descriptor: freeing it
            // under a running worker would be use-after-free. Surface the
            // bug loudly in debug builds.
            debug_assert!(
                false,
                "TaskHandle dropped while task {:?} is {state:?}; descriptor leaked",
                self.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrip() {
        for s in [
            TaskState::Created,
            TaskState::Ready,
            TaskState::Running,
            TaskState::Paused,
            TaskState::Completed,
        ] {
            assert_eq!(TaskState::from_u32(s as u32), Ok(s));
        }
    }

    #[test]
    fn bogus_state_is_an_error_not_a_panic() {
        assert_eq!(
            TaskState::from_u32(99),
            Err(NosvError::CorruptTaskState { raw: 99 })
        );
    }

    #[test]
    fn signal_latch() {
        let s = TaskSignal::new();
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.wait_until(None, || true));
        s.complete();
        assert!(t.join().unwrap());
        // Waiting after completion returns immediately.
        assert!(s.wait_until(None, || true));
        assert!(s.wait_until(Some(Instant::now()), || true));
    }

    #[test]
    fn signal_deadline_expires_without_completion() {
        let s = TaskSignal::new();
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(!s.wait_until(Some(deadline), || true));
        assert!(Instant::now() >= deadline);
    }

    /// An external waiter racing `complete`, round after round, on the
    /// spinning path (even rounds) and the park-at-once path (odd rounds).
    /// A lost wakeup parks the waiter for good; the watchdog turns that
    /// into a failure instead of a hung test. The threads hand rounds over
    /// through one atomic, with no channel, so a ThreadSanitizer run sees
    /// every synchronization edge.
    #[test]
    fn external_wait_racing_complete_never_loses_the_wakeup() {
        const ROUNDS: usize = if cfg!(miri) { 50 } else { 10_000 };
        let signals: Arc<Vec<Arc<TaskSignal>>> =
            Arc::new((0..ROUNDS).map(|_| TaskSignal::new()).collect());
        let started = Arc::new(AtomicU64::new(0));
        let completer = {
            let (signals, started) = (Arc::clone(&signals), Arc::clone(&started));
            std::thread::spawn(move || {
                for (round, s) in signals.iter().enumerate() {
                    while started.load(Ordering::Acquire) <= round as u64 {
                        std::thread::yield_now();
                    }
                    s.complete();
                }
            })
        };
        let waiter = {
            let (signals, started) = (Arc::clone(&signals), Arc::clone(&started));
            std::thread::spawn(move || {
                for (round, s) in signals.iter().enumerate() {
                    started.store(round as u64 + 1, Ordering::Release);
                    assert!(s.wait_until(None, || round % 2 == 0));
                }
            })
        };
        let t0 = Instant::now();
        while !waiter.is_finished() {
            assert!(
                t0.elapsed() < Duration::from_secs(120),
                "an external waiter missed its wakeup: still parked after 120 s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        waiter.join().unwrap();
        completer.join().unwrap();
    }
}
