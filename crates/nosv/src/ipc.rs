//! Guest-process side of cross-OS-process co-execution (§3.1).
//!
//! A *host* runtime built with [`crate::RuntimeBuilder::segment_name`]
//! backs its segment with a named OS shared-memory object
//! (`memfd_create`, falling back to `shm_open`) and runs a reactor
//! thread. A foreign OS process calls [`Runtime::join`] with the same
//! name and receives a [`GuestProcess`]: an attached registry slot plus
//! the published geometry block it needs to push task descriptors into
//! the host scheduler's lock-free submission rings.
//!
//! What a guest can and cannot do follows from what lives where:
//!
//! * The segment itself — rings, queues, descriptors, registry, SLAB —
//!   is shared, so guests allocate descriptors and push them into rings
//!   directly, with the same lock-free protocol host submissions use.
//! * Worker futexes, shard delegation locks and the scheduling policy
//!   live in *host* memory. A guest can neither wake a worker nor drain
//!   a ring; the host's reactor delivers wakes on guests' behalf every
//!   tick, and workers drain the rings as usual.
//! * Closures cannot cross the process boundary, so guest tasks are
//!   *data-described*: a kernel id (resolved against the host's
//!   [`Runtime::register_kernel`] table) plus one `u64` argument.
//!
//! The join handshake (`Requested → Active`), the liveness heartbeat,
//! clean detach (`Active → Leaving`) and crash reclaim (`Active → Dead`)
//! are described in `DESIGN.md` at the repository root.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nosv_shmem::{process_alive, JoinState, ProcessId, ShmSegment, Shoff, CAP_GUEST_JOIN};
use nosv_sync::hint::crash_point;
use nosv_sync::Backoff;

use crate::error::NosvError;
use crate::runtime::Runtime;
use crate::scheduler::{guest_submit, producer_tag, GuestMeta};
use crate::task::{Affinity, TaskDesc, TaskState};

/// Guest-side IPC timeout when no environment override is set. The
/// submit-retry and detach waits always fall back to it; the join wait
/// does before the geometry block is mapped (after that, the host's
/// published [`crate::RuntimeBuilder::join_timeout`] replaces it).
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// Reads a guest-side `NOSV_IPC_*_TIMEOUT_MS` override (milliseconds).
/// Unset, empty, unparsable or zero values are ignored. Overrides beat
/// the host-published join timeout: the guest knows its own latency
/// budget better than the host does, and the chaos harness shrinks them
/// to keep kill-matrix wall-clock bounded.
fn env_timeout_ms(var: &str) -> Option<Duration> {
    let raw = std::env::var(var).ok()?;
    let ms: u64 = raw.trim().parse().ok()?;
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Resolves one IPC timeout: environment override, then the
/// host-published value (`0` = none published), then the default.
fn resolve_timeout(var: &str, published_ns: u64) -> Duration {
    env_timeout_ms(var).unwrap_or(if published_ns > 0 {
        Duration::from_nanos(published_ns)
    } else {
        DEFAULT_TIMEOUT
    })
}

/// Bounded exponential backoff for the guest's wait loops: spin briefly
/// (the host's reactor usually answers within one ~2 ms tick), then
/// sleep with a doubling period capped at 2 ms — so a wait resolves in
/// microseconds when the host is fast, and a stalled host costs a few
/// hundred wakeups per second instead of a hot spin on shared cache
/// lines.
struct WaitBackoff {
    spin: Backoff,
    sleep: Duration,
}

impl WaitBackoff {
    const FIRST_SLEEP: Duration = Duration::from_micros(50);
    const MAX_SLEEP: Duration = Duration::from_millis(2);

    fn new() -> WaitBackoff {
        WaitBackoff {
            spin: Backoff::new(),
            sleep: WaitBackoff::FIRST_SLEEP,
        }
    }

    fn wait(&mut self) {
        if !self.spin.is_yielding() {
            self.spin.snooze();
            return;
        }
        std::thread::sleep(self.sleep);
        self.sleep = (self.sleep * 2).min(WaitBackoff::MAX_SLEEP);
    }
}

impl Runtime {
    /// Joins a host runtime's named segment from a foreign OS process —
    /// the guest-side constructor of cross-process co-execution. The host
    /// must have been built with [`crate::RuntimeBuilder::segment_name`]
    /// using the same `name`, and must have at least one process
    /// [`Runtime::attach`]ed (attaching starts the workers that will
    /// execute the guest's tasks).
    ///
    /// Blocks until the host's reactor acknowledges the attach handshake
    /// (typically one reactor tick, ~2 ms). Errors:
    ///
    /// * [`NosvError::Segment`] — no such segment, geometry/version
    ///   mismatch, the segment was not created for guest joins, or the
    ///   host never published its scheduler;
    /// * [`NosvError::TooManyProcesses`] — the registry is full;
    /// * [`NosvError::HostDead`] — the host process died before
    ///   acknowledging (the join request is withdrawn);
    /// * [`NosvError::WaitTimeout`] — the host did not acknowledge in
    ///   time (the join request is withdrawn).
    ///
    /// The handshake timeout defaults to the value the host configured
    /// ([`crate::RuntimeBuilder::join_timeout`], published through the
    /// segment's geometry block); the submit-retry and detach timeouts
    /// default to 5 s. The environment variables
    /// `NOSV_IPC_JOIN_TIMEOUT_MS`, `NOSV_IPC_SUBMIT_TIMEOUT_MS` and
    /// `NOSV_IPC_DETACH_TIMEOUT_MS` override them on the guest side
    /// (milliseconds, zero ignored).
    pub fn join(name: &str) -> Result<GuestProcess, NosvError> {
        GuestProcess::join(name)
    }
}

/// A process attached to *another OS process's* runtime over a named
/// shared segment. Created by [`Runtime::join`].
///
/// The guest submits data-described tasks ([`GuestProcess::submit`])
/// which host workers execute, waits for them with
/// [`GuestProcess::wait_idle`], and leaves with [`GuestProcess::detach`]
/// (also performed best-effort on drop). If the guest process dies
/// instead, the host's reactor detects the dead pid, reclaims everything
/// it left queued, and frees its slot — see
/// [`crate::RuntimeStats::crash_reclaims`].
pub struct GuestProcess {
    seg: ShmSegment,
    me: ProcessId,
    meta: Shoff<GuestMeta>,
    /// Cached shard count (from [`GuestMeta`]): rings are per-shard and
    /// a guest thread's unconstrained submissions stick to the shard its
    /// producer tag hashes to (spilling to the next shard only on a full
    /// lane).
    shards: usize,
    /// OS pid of the host, from [`GuestMeta`]: every blocking guest path
    /// probes it so a dead host turns into [`NosvError::HostDead`]
    /// instead of a full timeout wait.
    host_os_pid: u64,
    /// Resolved IPC timeouts (environment override, else default) — see
    /// [`resolve_timeout`].
    submit_timeout: Duration,
    detach_timeout: Duration,
    next_seq: AtomicU64,
    detached: AtomicBool,
}

impl GuestProcess {
    fn join(name: &str) -> Result<GuestProcess, NosvError> {
        let seg = ShmSegment::attach_named(name)?;
        if seg.capabilities() & CAP_GUEST_JOIN == 0 {
            return Err(NosvError::Segment {
                reason: format!("segment '{name}' was not created for guest joins"),
            });
        }
        let start = Instant::now();
        // Until the geometry block is mapped the host's published timeout
        // is unreadable, so the pre-meta deadline uses the override/default.
        let mut deadline = start + resolve_timeout("NOSV_IPC_JOIN_TIMEOUT_MS", 0);
        // The host publishes its geometry block — and then the scheduler
        // root inside it — right after creating the segment; both polls
        // resolve almost immediately unless the host died mid-setup.
        let mut backoff = WaitBackoff::new();
        let meta = loop {
            let m: Shoff<GuestMeta> = seg.user_root();
            if m.raw() != 0 {
                break m;
            }
            if Instant::now() >= deadline {
                return Err(NosvError::Segment {
                    reason: format!("segment '{name}': host never published its geometry"),
                });
            }
            backoff.wait();
        };
        // SAFETY: published once, lives as long as the segment itself.
        let m = unsafe { seg.sref(meta) };
        while m.sched_root.load(Ordering::Acquire) == 0 {
            if Instant::now() >= deadline {
                return Err(NosvError::Segment {
                    reason: format!("segment '{name}': host never published its scheduler"),
                });
            }
            backoff.wait();
        }
        // The whole geometry block is visible now: adopt the host's
        // configured join timeout (the deadline still counts from entry,
        // so a published value cannot extend a wait already under way by
        // more than its own length).
        let host_os_pid = m.host_os_pid.load(Ordering::Acquire);
        deadline = start
            + resolve_timeout(
                "NOSV_IPC_JOIN_TIMEOUT_MS",
                m.join_timeout_ns.load(Ordering::Acquire),
            );
        let submit_timeout = resolve_timeout("NOSV_IPC_SUBMIT_TIMEOUT_MS", 0);
        let detach_timeout = resolve_timeout("NOSV_IPC_DETACH_TIMEOUT_MS", 0);
        let shards = (m.shards.load(Ordering::Acquire) as usize).max(1);
        let me = seg.attach_guest()?;
        // Death here leaves the slot in Requested with a valid record:
        // the reactor's Requested-arm pid probe reclaims it.
        crash_point("ipc.join.requested");
        // Handshake: the host reactor registers the slot with its
        // scheduler and acknowledges Requested → Active. Submitting
        // before the ack would race slot registration, so we wait.
        let mut backoff = WaitBackoff::new();
        loop {
            match seg.join_state(me) {
                Some(JoinState::Active) => break,
                Some(JoinState::Requested) => {
                    // A dead host will never acknowledge; withdrawing
                    // immediately beats waiting out the deadline. The
                    // withdraw CAS below keeps the teardown race-safe.
                    if !process_alive(host_os_pid as u32)
                        && seg.set_join_state(me, JoinState::Requested, JoinState::Dead)
                    {
                        return Err(NosvError::HostDead);
                    }
                    if Instant::now() >= deadline {
                        // Withdraw the request. If the CAS loses, the host
                        // acked concurrently — loop once more and succeed;
                        // if it wins, the host's reactor (if it ever comes
                        // back) reclaims the Dead slot.
                        if seg.set_join_state(me, JoinState::Requested, JoinState::Dead) {
                            return Err(NosvError::WaitTimeout);
                        }
                    }
                    backoff.wait();
                }
                // Freed, reused, or declared dead under us: the host
                // rejected or tore down the slot.
                _ => {
                    return Err(NosvError::Segment {
                        reason: format!("segment '{name}': join request was torn down"),
                    })
                }
            }
        }
        Ok(GuestProcess {
            seg,
            me,
            meta,
            shards,
            host_os_pid,
            submit_timeout,
            detach_timeout,
            next_seq: AtomicU64::new(1),
            detached: AtomicBool::new(false),
        })
    }

    /// This guest's logical process id in the host runtime.
    pub fn pid(&self) -> u64 {
        self.me.pid
    }

    /// Tasks submitted but not yet completed by the host.
    pub fn pending(&self) -> u64 {
        match self.seg.slot_view(self.me.slot) {
            Some(v) if v.pid == self.me.pid => v.submitted.saturating_sub(v.completed),
            _ => 0,
        }
    }

    /// Submits one data-described task: host workers run the kernel
    /// registered under `kernel_id` ([`Runtime::register_kernel`]) with
    /// `arg`. Tasks naming an unregistered kernel complete as no-ops.
    ///
    /// The submission is lock-free (the same ring protocol host
    /// submissions use); full rings are retried across shards with
    /// backoff. Errors:
    ///
    /// * [`NosvError::OutOfSharedMemory`] — the segment cannot hold
    ///   another descriptor;
    /// * [`NosvError::ProcessDetached`] — this guest detached, or the
    ///   host declared it dead;
    /// * [`NosvError::HostDead`] — the host process died (nobody will
    ///   drain the rings again);
    /// * [`NosvError::WaitTimeout`] — every ring stayed full (the host
    ///   stopped draining).
    pub fn submit(&self, kernel_id: u64, arg: u64) -> Result<(), NosvError> {
        if self.detached.load(Ordering::Acquire) {
            return Err(NosvError::ProcessDetached);
        }
        if kernel_id == u64::MAX {
            // The descriptor stores kernel_id + 1 (0 marks host tasks).
            return Err(NosvError::Segment {
                reason: "kernel id u64::MAX is reserved".to_string(),
            });
        }
        let desc: Shoff<TaskDesc> = self
            .seg
            .alloc_zeroed(std::mem::size_of::<TaskDesc>(), 0)?
            .cast();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        // SAFETY: freshly allocated zeroed descriptor, exclusively ours
        // until the ring push publishes it.
        let d = unsafe { self.seg.sref(desc) };
        d.id.store((self.me.pid << 32) | (seq & 0xffff_ffff), Ordering::Relaxed);
        d.slot.store(self.me.slot, Ordering::Relaxed);
        d.pid.store(self.me.pid, Ordering::Relaxed);
        d.affinity.store(Affinity::None.encode(), Ordering::Relaxed);
        d.metadata.store(arg, Ordering::Relaxed);
        d.submits.store(1, Ordering::Relaxed);
        d.kernel.store(kernel_id + 1, Ordering::Release);
        d.set_state(TaskState::Ready);
        // SAFETY: the meta block is published-once host state.
        let meta = unsafe { self.seg.sref(self.meta) };
        let deadline = Instant::now() + self.submit_timeout;
        // Sticky shard routing, same rule as the host's submit path: this
        // thread's whole stream lands in one shard (and one lane within
        // it), spilling to the next shard only when its lane is full.
        let tag = producer_tag();
        let start = (tag % self.shards as u64) as usize;
        let mut attempt = 0usize;
        let mut backoff = WaitBackoff::new();
        loop {
            let shard = (start + attempt) % self.shards;
            if guest_submit(&self.seg, meta, shard, self.me.slot as usize, tag, desc) {
                self.seg.add_submitted(self.me, 1);
                self.seg.bump_heartbeat(self.me);
                return Ok(());
            }
            attempt += 1;
            if attempt.is_multiple_of(self.shards) {
                // Every ring full: the host is not draining. Check we are
                // still welcome and the host still breathes, back off,
                // retry.
                if self.seg.join_state(self.me) != Some(JoinState::Active) {
                    self.seg.free_t(desc, 0);
                    return Err(NosvError::ProcessDetached);
                }
                if !process_alive(self.host_os_pid as u32) {
                    // Nobody will ever drain these rings again.
                    self.seg.free_t(desc, 0);
                    return Err(NosvError::HostDead);
                }
                if Instant::now() >= deadline {
                    self.seg.free_t(desc, 0);
                    return Err(NosvError::WaitTimeout);
                }
                self.seg.bump_heartbeat(self.me);
                backoff.wait();
            }
        }
    }

    /// Waits until every task this guest submitted has completed.
    ///
    /// Polls the registry's submitted/completed counters, bumping the
    /// liveness heartbeat on the way. Returns
    /// [`NosvError::WaitTimeout`] when `timeout` elapses first,
    /// [`NosvError::ProcessDetached`] if the slot was torn down (e.g.
    /// the host declared this guest dead), and [`NosvError::HostDead`]
    /// if the host process died with tasks still pending (they will
    /// never complete).
    ///
    /// A `timeout` too large to add to the current instant (such as
    /// `Duration::MAX`) means no deadline.
    pub fn wait_idle(&self, timeout: Duration) -> Result<(), NosvError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut backoff = WaitBackoff::new();
        loop {
            let view = self
                .seg
                .slot_view(self.me.slot)
                .filter(|v| v.pid == self.me.pid)
                .ok_or(NosvError::ProcessDetached)?;
            if view.completed >= view.submitted {
                return Ok(());
            }
            if !process_alive(self.host_os_pid as u32) {
                return Err(NosvError::HostDead);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(NosvError::WaitTimeout);
            }
            self.seg.bump_heartbeat(self.me);
            backoff.wait();
        }
    }

    /// Detaches cleanly: asks the host to flush this guest's submission
    /// rings into the queues, waits until its remaining tasks are
    /// drained, and returns once the host has released the registry slot
    /// (§3.3 unregistration). Idempotent; also attempted on drop.
    ///
    /// Returns [`NosvError::WaitTimeout`] if the host neither released
    /// the slot in time nor died (a dead host ends the wait early — the
    /// segment outlives it only as this process's private mapping).
    pub fn detach(&self) -> Result<(), NosvError> {
        if self.detached.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        if !self
            .seg
            .set_join_state(self.me, JoinState::Active, JoinState::Leaving)
        {
            // Not Active anymore: the host tore the slot down already.
            return Ok(());
        }
        let deadline = Instant::now() + self.detach_timeout;
        let mut backoff = WaitBackoff::new();
        // join_state() goes None once the host frees the slot.
        while self.seg.join_state(self.me).is_some() {
            if !process_alive(self.host_os_pid as u32) {
                // A dead host can no longer drain or release anything;
                // the segment lives on only as this process's private
                // mapping, so leaving now is as clean as it gets.
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(NosvError::WaitTimeout);
            }
            backoff.wait();
        }
        Ok(())
    }
}

impl Drop for GuestProcess {
    fn drop(&mut self) {
        // Best-effort clean exit; if it fails (host gone, timeout), the
        // host-side crash reclaim is the backstop.
        let _ = self.detach();
    }
}

impl std::fmt::Debug for GuestProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestProcess")
            .field("pid", &self.me.pid)
            .field("slot", &self.me.slot)
            .field("detached", &self.detached.load(Ordering::Relaxed))
            .finish()
    }
}
