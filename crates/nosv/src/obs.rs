//! # One observability API: the shared event schema and pluggable sinks
//!
//! The paper's evaluation rests on its tracing features ("extract detailed
//! execution traces", the Fig. 10 per-core timelines) and on runtime
//! counters. This module is the single surface through which *every*
//! backend in the workspace reports: the live [`crate::Runtime`] and the
//! `simnode` discrete-event engine emit the **same** [`ObsEvent`] stream
//! into the **same** [`TraceSink`] trait, so one sink implementation works
//! unchanged against both — and trace-level parity between the two
//! backends is checkable the same way policy decisions are.
//!
//! ## Event model
//!
//! An [`ObsEvent`] is a timestamped record of one scheduling action
//! ([`ObsKind::Submit`], [`ObsKind::Start`], [`ObsKind::End`],
//! [`ObsKind::Pause`], [`ObsKind::Resume`], [`ObsKind::Handoff`],
//! [`ObsKind::Steal`]) or one counter delta ([`ObsKind::Counter`]).
//! Events carry the core, the logical process id and the task id; the
//! timestamp is nanoseconds since the backend's clock origin (runtime
//! start, or simulated time zero).
//!
//! ## Delivery and ordering
//!
//! The live runtime's hot path takes **no global lock**: each worker
//! thread buffers events in a fixed-capacity thread-local buffer and
//! drains it to the sink at flush points — when the buffer fills, before
//! a core handoff or a pause parks the thread, when the worker goes idle,
//! and at worker exit. Events recorded from non-worker threads (e.g. a
//! submission from the application's main thread) are delivered to the
//! sink directly. Consequently:
//!
//! * the complete stream is guaranteed to have reached the sink only after
//!   [`crate::Runtime::shutdown`] returns (which also calls
//!   [`TraceSink::flush`]);
//! * events arrive in per-worker batches; the *global* arrival order is
//!   not timestamp-sorted (sort by [`ObsEvent::t_ns`] when you need a
//!   timeline — [`MemorySink::take_sorted`] does this for you). Within
//!   one core, execution events (`Start`/`End`/`Pause`/`Resume`) do
//!   arrive in timestamp order, because a core changes hands only after
//!   the outgoing worker has drained its buffer.
//!
//! A sink must not call back into the runtime that is emitting to it
//! (e.g. create tasks from `on_event`); doing so may deadlock or panic.
//!
//! ## Worked example: exporting a Chrome trace
//!
//! [`ChromeTraceSink`] renders the stream as a `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev) JSON object. The same sink type
//! works for a live runtime and for a simulation:
//!
//! ```
//! use std::sync::Arc;
//! use nosv::prelude::*;
//!
//! # fn main() -> Result<(), NosvError> {
//! let sink = Arc::new(ChromeTraceSink::new());
//! let rt = Runtime::builder().cpus(2).sink(sink.clone()).build()?;
//! let app = rt.attach("demo")?;
//! let t = app.create_task(|_| {});
//! t.submit()?;
//! t.wait()?;
//! t.destroy();
//! drop(app);
//! rt.shutdown(); // flushes every buffered event into the sink
//!
//! let json = sink.to_json();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! // std::fs::write("trace.json", json)?; // load in chrome://tracing
//! # Ok(())
//! # }
//! ```
//!
//! For the Fig. 10-style per-core timeline, use [`AsciiTimelineSink`] (or
//! [`ascii_timeline`] over an event slice you already hold).

use std::sync::Arc;

use nosv_sync::Mutex;

use crate::task::TaskId;

/// The `cpu` value of an event not bound to a core (e.g. a submission from
/// a non-worker thread).
pub const NO_CPU: u32 = u32::MAX;

/// Declares [`CounterKind`] from one list of `Variant => "name"` rows, so
/// the variants, their stable names and [`CounterKind::ALL`] cannot drift
/// apart.
macro_rules! counter_kinds {
    ($($(#[doc = $doc:literal])* $kind:ident => $name:literal,)*) => {
        /// Which runtime counter a [`ObsKind::Counter`] delta belongs to.
        ///
        /// Every backend's counters share this enum: the live runtime's
        /// (the kinds [`crate::RuntimeStats`] has a field for), the
        /// `simnode` discrete-event engine's and the `nanos` data-flow
        /// runtime's. One enum keeps them in one stream without string
        /// keys on the hot path, and the live runtime indexes its counter
        /// table by it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[non_exhaustive]
        pub enum CounterKind {
            $($(#[doc = $doc])* $kind,)*
        }

        impl CounterKind {
            /// Every kind, in declaration order (`ALL[k as usize] == k`).
            pub const ALL: &'static [CounterKind] = &[$(CounterKind::$kind,)*];

            /// Stable display name (used by [`chrome_trace_json`] and friends).
            pub fn name(self) -> &'static str {
                match self {
                    $(CounterKind::$kind => $name,)*
                }
            }
        }
    };
}

counter_kinds! {
    /// Task bodies run to completion.
    TasksExecuted => "tasks_executed",
    /// `submit` calls (initial submissions and resubmissions).
    TasksSubmitted => "tasks_submitted",
    /// Tasks served to waiting CPUs through DTLock delegation.
    DelegationsServed => "delegations_served",
    /// Cores handed between processes (each costs a thread switch).
    CrossProcessHandoffs => "cross_process_handoffs",
    /// Paused tasks resumed.
    Resumes => "resumes",
    /// `pause` calls.
    Pauses => "pauses",
    /// Process switches forced by quantum expiry.
    QuantumSwitches => "quantum_switches",
    /// Best-effort-affinity tasks executed away from their preference.
    AffinitySteals => "affinity_steals",
    /// Worker threads created.
    WorkersSpawned => "workers_spawned",
    /// Submissions through the lock-free per-process rings.
    RingSubmits => "ring_submits",
    /// Submissions through the locked fallback path.
    LockedSubmits => "locked_submits",
    /// Submissions handed straight to an idle CPU (direct dispatch).
    DirectDispatches => "direct_dispatches",
    /// Tasks stolen across scheduler shards.
    ShardSteals => "shard_steals",
    /// OS preemptions (simulator, oversubscribed baselines).
    Preemptions => "preemptions",
    /// Core-nanoseconds spent spinning on a held scheduler lock (simulator).
    LockSpinNs => "lock_spin_ns",
    /// Core-nanoseconds spent busy-idling (simulator).
    IdleSpinNs => "idle_spin_ns",
    /// Cross-application switches of a core (simulator nOS-V mode).
    CrossAppSwitches => "cross_app_switches",
    /// DLB core lend events (simulator).
    DlbLends => "dlb_lends",
    /// DLB core reclaim events (simulator).
    DlbReclaims => "dlb_reclaims",
    /// Tasks spawned into a `nanos` data-flow graph.
    TasksSpawned => "tasks_spawned",
    /// `nanos` tasks whose dependencies were satisfied at spawn.
    ImmediatelyReady => "immediately_ready",
    /// Dependency edges created by the `nanos` region tracker.
    DepEdges => "dep_edges",
    /// `nanos` tasks completed.
    TasksCompleted => "tasks_completed",
    /// Queued tasks reclaimed from crashed guest processes.
    CrashReclaims => "crash_reclaims",
    /// Standby-spinner role migrations between CPUs (sticky election;
    /// should stay far below tasks executed on a steady stream).
    StandbyElections => "standby_elections",
    /// Task bodies that panicked (each failed only its own task).
    TaskPanics => "task_panics",
    /// Stranded ring reservations force-retired by crash reclaim.
    StrandedSlotRepairs => "stranded_slot_repairs",
    /// Dead waiters evicted from shard delegation locks.
    DeadWaiterEvictions => "dead_waiter_evictions",
}

/// What happened. The scheduling-action kinds carry the task life cycle;
/// [`ObsKind::Counter`] carries aggregate counter deltas through the same
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// Task entered the scheduler (initial submission or resubmission of a
    /// paused task).
    Submit,
    /// Task body started executing on [`ObsEvent::cpu`].
    Start {
        /// The execution is *remote* to the task's placement preference —
        /// a best-effort affinity honoured elsewhere (live runtime) or a
        /// home-socket task run on the other socket (simulator). Drives
        /// the lowercase cells of the Fig. 10 timeline.
        remote: bool,
    },
    /// Task body finished.
    End,
    /// Task paused (its thread blocked, core released).
    Pause,
    /// Paused task resumed on [`ObsEvent::cpu`].
    Resume,
    /// A core was handed from one process's worker to another's.
    Handoff,
    /// A best-effort-affinity task was stolen away from its preferred
    /// core/NUMA node.
    Steal,
    /// A foreign OS process attached to the runtime's named segment
    /// ([`ObsEvent::pid`] is the guest's *OS* pid). Tenant-lifetime
    /// markers for ChromeTrace views of co-execution.
    Attach,
    /// An attached guest process detached cleanly ([`ObsEvent::pid`] is
    /// the guest's OS pid).
    Detach,
    /// The crash-reclaim sweeper reclaimed a dead guest's queued tasks
    /// ([`ObsEvent::pid`] is the dead guest's OS pid; the paired
    /// [`ObsKind::Counter`] delta carries the task count).
    CrashReclaim,
    /// A task body panicked; the task failed ([`ObsEvent::task`] names
    /// it, [`ObsEvent::cpu`] is where it ran) and its waiters observe
    /// [`crate::NosvError::TaskPanicked`]. The worker survives.
    TaskFailed,
    /// A counter advanced by `delta`.
    Counter {
        /// Which counter.
        counter: CounterKind,
        /// By how much it advanced since the last report.
        delta: u64,
    },
}

impl ObsKind {
    /// Stable display name of the kind (schema field in JSON exports).
    pub fn name(self) -> &'static str {
        match self {
            ObsKind::Submit => "submit",
            ObsKind::Start { .. } => "start",
            ObsKind::End => "end",
            ObsKind::Pause => "pause",
            ObsKind::Resume => "resume",
            ObsKind::Handoff => "handoff",
            ObsKind::Steal => "steal",
            ObsKind::Attach => "attach",
            ObsKind::Detach => "detach",
            ObsKind::CrashReclaim => "crash_reclaim",
            ObsKind::TaskFailed => "task_failed",
            ObsKind::Counter { .. } => "counter",
        }
    }

    /// Whether this is a task-execution event (`Start`/`End`/`Pause`/
    /// `Resume`) — the kinds that define per-core busy segments.
    pub fn is_exec(self) -> bool {
        matches!(
            self,
            ObsKind::Start { .. } | ObsKind::End | ObsKind::Pause | ObsKind::Resume
        )
    }
}

/// One observability record — the schema shared by the live runtime, the
/// discrete-event simulator, and the `nanos` data-flow runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Nanoseconds since the backend's clock origin (runtime start /
    /// simulated time zero).
    pub t_ns: u64,
    /// Core the event happened on ([`NO_CPU`] when not core-bound).
    pub cpu: u32,
    /// Logical process id owning the task (`0` for process-less events
    /// such as counter reports).
    pub pid: u64,
    /// The task ([`TaskId`]`(0)` when not task-scoped).
    pub task: TaskId,
    /// Event kind and payload.
    pub kind: ObsKind,
}

/// A consumer of [`ObsEvent`] streams.
///
/// Implementations must be `Send + Sync`: the live runtime delivers from
/// several worker threads (in per-worker batches) and from submitter
/// threads. The simulator delivers from its single driving thread.
///
/// `on_event` should be fast and must never call back into the emitting
/// runtime. `flush` is called when a backend finishes (runtime shutdown,
/// end of a simulation) — file-writing sinks materialize their output
/// there.
pub trait TraceSink: Send + Sync {
    /// Receives one event.
    fn on_event(&self, ev: &ObsEvent);

    /// The stream is complete (for now); materialize any pending output.
    fn flush(&self) {}
}

/// Blanket passthrough so `Arc<ConcreteSink>` works wherever a
/// `&dyn TraceSink` is expected without an explicit cast at every call.
impl<S: TraceSink + ?Sized> TraceSink for Arc<S> {
    fn on_event(&self, ev: &ObsEvent) {
        (**self).on_event(ev);
    }
    fn flush(&self) {
        (**self).flush();
    }
}

// ---------------------------------------------------------------------------
// Built-in sinks
// ---------------------------------------------------------------------------

/// Collects events in memory (the replacement for the old
/// `Runtime::take_trace`).
///
/// ```
/// use std::sync::Arc;
/// use nosv::prelude::*;
///
/// # fn main() -> Result<(), NosvError> {
/// let sink = Arc::new(MemorySink::new());
/// let rt = Runtime::builder().cpus(1).sink(sink.clone()).build()?;
/// let app = rt.attach("demo")?;
/// let t = app.spawn(|_| {});
/// t.wait()?;
/// t.destroy();
/// drop(app);
/// rt.shutdown();
/// let events = sink.take_sorted();
/// assert!(events.iter().any(|e| matches!(e.kind, ObsKind::Start { .. })));
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<ObsEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Drains the collected events in arrival order (per-worker batches;
    /// see the module docs for the ordering guarantees).
    pub fn take(&self) -> Vec<ObsEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Drains the collected events sorted by timestamp (stable, so equal
    /// timestamps keep their arrival order).
    pub fn take_sorted(&self) -> Vec<ObsEvent> {
        let mut evs = self.take();
        evs.sort_by_key(|e| e.t_ns);
        evs
    }

    /// A copy of the events collected so far, in arrival order.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.events.lock().clone()
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no event has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn on_event(&self, ev: &ObsEvent) {
        self.events.lock().push(*ev);
    }
}

/// Renders the stream as a `chrome://tracing` JSON object (the Trace Event
/// Format): `Start`/`End` pairs become complete (`"X"`) slices, other
/// scheduling actions become instant (`"i"`) events, counter deltas become
/// counter (`"C"`) samples. Load the output in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev).
///
/// Set a path with [`ChromeTraceSink::with_path`] and the JSON is written
/// there on [`TraceSink::flush`] (i.e. automatically at runtime shutdown /
/// simulation end); or call [`ChromeTraceSink::to_json`] yourself.
#[derive(Default)]
pub struct ChromeTraceSink {
    events: Mutex<Vec<ObsEvent>>,
    path: Option<std::path::PathBuf>,
}

impl ChromeTraceSink {
    /// A sink that only renders on demand ([`ChromeTraceSink::to_json`]).
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink::default()
    }

    /// A sink that writes the JSON to `path` on flush.
    pub fn with_path(path: impl Into<std::path::PathBuf>) -> ChromeTraceSink {
        ChromeTraceSink {
            events: Mutex::new(Vec::new()),
            path: Some(path.into()),
        }
    }

    /// Renders the events collected so far as a Trace Event Format object.
    pub fn to_json(&self) -> String {
        let mut evs = self.events.lock().clone();
        evs.sort_by_key(|e| e.t_ns);
        chrome_trace_json(&evs)
    }
}

impl TraceSink for ChromeTraceSink {
    fn on_event(&self, ev: &ObsEvent) {
        self.events.lock().push(*ev);
    }

    fn flush(&self) {
        if let Some(path) = &self.path {
            // Observability must not take the runtime down with it.
            if let Err(e) = std::fs::write(path, self.to_json()) {
                eprintln!("ChromeTraceSink: failed to write {}: {e}", path.display());
            }
        }
    }
}

/// Accumulates the stream and renders the paper's Fig. 10 per-core ASCII
/// timeline (absorbing the former `SimTrace::render_ascii`): one row per
/// core, one column per time bucket, each cell the application (letter)
/// that dominated the bucket — uppercase local, lowercase remote, `.`
/// idle. Works identically for live and simulated runs.
pub struct AsciiTimelineSink {
    events: Mutex<Vec<ObsEvent>>,
    cores: usize,
    columns: usize,
}

impl AsciiTimelineSink {
    /// A timeline over `cores` rows and `columns` time buckets.
    pub fn new(cores: usize, columns: usize) -> AsciiTimelineSink {
        AsciiTimelineSink {
            events: Mutex::new(Vec::new()),
            cores,
            columns,
        }
    }

    /// Renders the timeline from the events collected so far.
    pub fn render(&self) -> String {
        let mut evs = self.events.lock().clone();
        evs.sort_by_key(|e| e.t_ns);
        ascii_timeline(&evs, self.cores, self.columns)
    }
}

impl TraceSink for AsciiTimelineSink {
    fn on_event(&self, ev: &ObsEvent) {
        self.events.lock().push(*ev);
    }
}

// ---------------------------------------------------------------------------
// Renderers over event slices (reused by the sinks above)
// ---------------------------------------------------------------------------

/// One contiguous busy interval of a core, reconstructed from
/// `Start`/`Pause`/`Resume`/`End` events. The raw material of the Fig. 10
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSegment {
    /// Core the segment ran on.
    pub core: usize,
    /// Logical process owning the task.
    pub pid: u64,
    /// The task.
    pub task: TaskId,
    /// Segment start, ns.
    pub start_ns: u64,
    /// Segment end, ns.
    pub end_ns: u64,
    /// Remote to the task's placement preference (lowercase in the
    /// timeline).
    pub remote: bool,
}

/// Folds a **timestamp-sorted** event slice into per-core busy segments:
/// `Start`..`End`, `Start`..`Pause`, and `Resume`..`End`/`Pause` intervals
/// each yield one [`ExecSegment`].
pub fn exec_segments(events: &[ObsEvent]) -> Vec<ExecSegment> {
    use std::collections::HashMap;
    // task -> (core, start_ns, remote) of the currently open interval.
    let mut open: HashMap<TaskId, (u32, u64, bool)> = HashMap::new();
    // task -> remote flag of its Start (Resume intervals inherit it).
    let mut remote_of: HashMap<TaskId, bool> = HashMap::new();
    let mut out = Vec::new();
    for ev in events {
        match ev.kind {
            ObsKind::Start { remote } => {
                remote_of.insert(ev.task, remote);
                open.insert(ev.task, (ev.cpu, ev.t_ns, remote));
            }
            ObsKind::Resume => {
                let remote = remote_of.get(&ev.task).copied().unwrap_or(false);
                open.insert(ev.task, (ev.cpu, ev.t_ns, remote));
            }
            ObsKind::End | ObsKind::Pause => {
                if let Some((cpu, start_ns, remote)) = open.remove(&ev.task) {
                    out.push(ExecSegment {
                        core: cpu as usize,
                        pid: ev.pid,
                        task: ev.task,
                        start_ns,
                        end_ns: ev.t_ns,
                        remote,
                    });
                }
                if ev.kind == ObsKind::End {
                    remote_of.remove(&ev.task);
                }
            }
            _ => {}
        }
    }
    out
}

/// Renders a **timestamp-sorted** event slice as the per-core ASCII
/// timeline (see [`AsciiTimelineSink`]). Applications are lettered by
/// ascending pid: the lowest pid renders as `A`.
pub fn ascii_timeline(events: &[ObsEvent], cores: usize, columns: usize) -> String {
    assert!(columns > 0, "timeline needs at least one column");
    let segments = exec_segments(events);
    let mut pids: Vec<u64> = segments.iter().map(|s| s.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    let app_of = |pid: u64| pids.binary_search(&pid).unwrap_or(0);

    let end = segments.iter().map(|s| s.end_ns).max().unwrap_or(0).max(1);
    let bucket = end.div_ceil(columns as u64).max(1);
    // For each (core, column): (accumulated time, app, remote) of the
    // dominating segment.
    let mut cells: Vec<Vec<(u64, usize, bool)>> =
        vec![vec![(0, usize::MAX, false); columns]; cores];
    for s in &segments {
        if s.core >= cores {
            continue;
        }
        let app = app_of(s.pid);
        let first = (s.start_ns / bucket) as usize;
        let last = (((s.end_ns.saturating_sub(1)) / bucket) as usize).min(columns - 1);
        let row = &mut cells[s.core];
        for (col, cell) in row.iter_mut().enumerate().take(last + 1).skip(first) {
            let cell_start = col as u64 * bucket;
            let cell_end = cell_start + bucket;
            let overlap = s
                .end_ns
                .min(cell_end)
                .saturating_sub(s.start_ns.max(cell_start));
            if overlap > cell.0 {
                *cell = (overlap, app, s.remote);
            }
        }
    }
    let mut out = String::new();
    for (core, row) in cells.iter().enumerate() {
        out.push_str(&format!("core {core:>3} |"));
        for &(t, app, remote) in row {
            if t == 0 || app == usize::MAX {
                out.push('.');
            } else {
                let c = (b'A' + (app as u8 % 26)) as char;
                out.push(if remote { c.to_ascii_lowercase() } else { c });
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a **timestamp-sorted** event slice as a `chrome://tracing` /
/// Perfetto Trace Event Format JSON object (see [`ChromeTraceSink`]).
pub fn chrome_trace_json(events: &[ObsEvent]) -> String {
    use std::collections::HashMap;
    // One forward pass resolves each Start/Resume to the timestamp of its
    // closing End/Pause, so rendering stays linear in the event count.
    let mut close_ts: Vec<Option<u64>> = vec![None; events.len()];
    let mut open: HashMap<TaskId, usize> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            ObsKind::Start { .. } | ObsKind::Resume => {
                open.insert(ev.task, i);
            }
            ObsKind::End | ObsKind::Pause => {
                if let Some(idx) = open.remove(&ev.task) {
                    close_ts[idx] = Some(ev.t_ns);
                }
            }
            _ => {}
        }
    }

    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    let us = |ns: u64| ns as f64 / 1000.0;
    for (i, ev) in events.iter().enumerate() {
        let dur_of = |i: usize| close_ts[i].map_or(0.0, |c| us(c.saturating_sub(ev.t_ns)));
        match ev.kind {
            ObsKind::Start { remote } => {
                let dur = dur_of(i);
                push(
                    format!(
                        "{{\"name\":\"task {}\",\"cat\":\"task\",\"ph\":\"X\",\
                         \"ts\":{:.3},\"dur\":{dur:.3},\"pid\":{},\"tid\":{},\
                         \"args\":{{\"task\":{},\"remote\":{remote}}}}}",
                        ev.task.0,
                        us(ev.t_ns),
                        ev.pid,
                        ev.cpu,
                        ev.task.0
                    ),
                    &mut first,
                );
            }
            ObsKind::Resume => {
                let dur = dur_of(i);
                push(
                    format!(
                        "{{\"name\":\"task {} (resumed)\",\"cat\":\"task\",\"ph\":\"X\",\
                         \"ts\":{:.3},\"dur\":{dur:.3},\"pid\":{},\"tid\":{},\
                         \"args\":{{\"task\":{}}}}}",
                        ev.task.0,
                        us(ev.t_ns),
                        ev.pid,
                        ev.cpu,
                        ev.task.0
                    ),
                    &mut first,
                );
            }
            ObsKind::End => {} // folded into the Start/Resume slices
            ObsKind::Submit
            | ObsKind::Pause
            | ObsKind::Handoff
            | ObsKind::Steal
            | ObsKind::Attach
            | ObsKind::Detach
            | ObsKind::CrashReclaim
            | ObsKind::TaskFailed => {
                push(
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"task\":{}}}}}",
                        ev.kind.name(),
                        us(ev.t_ns),
                        ev.pid,
                        ev.cpu,
                        ev.task.0
                    ),
                    &mut first,
                );
            }
            ObsKind::Counter { counter, delta } => {
                push(
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":{},\
                         \"args\":{{\"{}\":{delta}}}}}",
                        counter.name(),
                        us(ev.t_ns),
                        ev.pid,
                        counter.name()
                    ),
                    &mut first,
                );
            }
        }
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// The crate-internal collector: sink + per-worker buffering policy
// ---------------------------------------------------------------------------

/// Events buffered per worker thread before a drain (one page's worth —
/// large enough to amortize the sink call, small enough to stay cache-warm).
pub(crate) const OBS_BUF_CAP: usize = 512;

/// The runtime's view of its installed sink. `emit` routes through the
/// calling worker's thread-local buffer when one exists (lock-free hot
/// path) and falls back to a direct sink call from non-worker threads.
pub(crate) struct ObsCollector {
    sink: Option<Arc<dyn TraceSink>>,
}

impl ObsCollector {
    pub(crate) fn new(sink: Option<Arc<dyn TraceSink>>) -> ObsCollector {
        ObsCollector { sink }
    }

    /// A collector that drops everything (tracing disabled). Used by
    /// scheduler unit tests and the doc-hidden [`crate::testing`] driver.
    pub(crate) fn disabled() -> ObsCollector {
        ObsCollector { sink: None }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one event: buffered in the calling worker's local buffer
    /// when that worker belongs to *this* collector's runtime, delivered
    /// directly otherwise (non-worker threads, or a worker of another
    /// runtime emitting into this one — e.g. a task body driving a second
    /// `Runtime`).
    #[inline]
    pub(crate) fn emit(&self, ev: ObsEvent) {
        let Some(sink) = &self.sink else { return };
        if !crate::worker::obs_buffer(self, ev) {
            sink.on_event(&ev);
        }
    }

    /// Delivers a worker's buffered batch to the sink.
    pub(crate) fn drain_batch(&self, buf: &mut Vec<ObsEvent>) {
        if let Some(sink) = &self.sink {
            for ev in buf.drain(..) {
                sink.on_event(&ev);
            }
        } else {
            buf.clear();
        }
    }

    /// Forwards `flush` to the sink (runtime shutdown).
    pub(crate) fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, cpu: u32, pid: u64, task: u64, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            t_ns,
            cpu,
            pid,
            task: TaskId(task),
            kind,
        }
    }

    #[test]
    fn memory_sink_take_sorted_orders_by_time() {
        let s = MemorySink::new();
        s.on_event(&ev(30, 0, 1, 1, ObsKind::End));
        s.on_event(&ev(10, 0, 1, 1, ObsKind::Start { remote: false }));
        assert_eq!(s.len(), 2);
        let evs = s.take_sorted();
        assert_eq!(evs[0].t_ns, 10);
        assert_eq!(evs[1].t_ns, 30);
        assert!(s.is_empty());
    }

    #[test]
    fn exec_segments_pair_start_with_end_and_pause() {
        let evs = vec![
            ev(10, 0, 1, 1, ObsKind::Start { remote: false }),
            ev(20, 0, 1, 1, ObsKind::Pause),
            ev(30, 1, 1, 1, ObsKind::Resume),
            ev(50, 1, 1, 1, ObsKind::End),
        ];
        let segs = exec_segments(&evs);
        assert_eq!(segs.len(), 2);
        assert_eq!(
            (segs[0].core, segs[0].start_ns, segs[0].end_ns),
            (0, 10, 20)
        );
        assert_eq!(
            (segs[1].core, segs[1].start_ns, segs[1].end_ns),
            (1, 30, 50)
        );
    }

    #[test]
    fn ascii_timeline_marks_apps_idle_and_remote() {
        let evs = vec![
            ev(0, 0, 7, 1, ObsKind::Start { remote: false }),
            ev(50, 0, 7, 1, ObsKind::End),
            ev(50, 1, 9, 2, ObsKind::Start { remote: true }),
            ev(100, 1, 9, 2, ObsKind::End),
        ];
        let art = ascii_timeline(&evs, 2, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('A'), "{art}");
        assert!(lines[1].contains('b'), "remote is lowercase: {art}");
        assert!(lines[0].ends_with('.'), "second half of core 0 idle: {art}");
    }

    #[test]
    fn empty_timeline_renders_idle_grid() {
        let art = ascii_timeline(&[], 1, 5);
        assert_eq!(art.trim_end(), "core   0 |.....");
    }

    #[test]
    fn chrome_json_contains_slices_instants_and_counters() {
        let evs = vec![
            ev(0, 2, 1, 5, ObsKind::Submit),
            ev(1000, 2, 1, 5, ObsKind::Start { remote: false }),
            ev(3000, 2, 1, 5, ObsKind::End),
            ev(
                3000,
                NO_CPU,
                0,
                0,
                ObsKind::Counter {
                    counter: CounterKind::TasksExecuted,
                    delta: 1,
                },
            ),
        ];
        let json = chrome_trace_json(&evs);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":2.000"), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"tasks_executed\":1"), "{json}");
    }

    #[test]
    fn disabled_collector_drops_everything() {
        let c = ObsCollector::disabled();
        assert!(!c.enabled());
        c.emit(ev(0, 0, 1, 1, ObsKind::Submit)); // must not panic
        c.flush();
    }

    #[test]
    fn collector_delivers_directly_off_worker_threads() {
        let sink = Arc::new(MemorySink::new());
        let c = ObsCollector::new(Some(sink.clone() as Arc<dyn TraceSink>));
        c.emit(ev(1, 0, 1, 1, ObsKind::Submit));
        assert_eq!(sink.len(), 1);
    }
}
