//! Builder-first construction of a [`Runtime`].
//!
//! The builder is the only public way to configure a runtime; the former
//! `NosvConfig` struct is an internal detail. All setters are chainable
//! and validation is deferred to [`RuntimeBuilder::build`], which returns
//! `Result` instead of panicking — the error-first contract of the whole
//! public surface.

use std::sync::Arc;
use std::time::Duration;

use crate::config::NosvConfig;
use crate::error::NosvError;
use crate::obs::TraceSink;
use crate::policy::{QuantumPolicy, SchedPolicy};
use crate::runtime::Runtime;

/// Chainable, fallible configuration of a [`Runtime`].
///
/// Obtained from [`Runtime::builder`]. Defaults: 4 CPUs, one NUMA domain,
/// the paper's 20 ms quantum, a 32 MiB segment, no trace sink, and the
/// canonical [`QuantumPolicy`].
///
/// Ten values are settable: the topology ([`cpus`](Self::cpus),
/// [`numa`](Self::numa), [`sched_shards`](Self::sched_shards)), the
/// quantum ([`quantum`](Self::quantum) or [`quantum_ns`](Self::quantum_ns)),
/// the segment ([`segment_size`](Self::segment_size),
/// [`segment_name`](Self::segment_name)), the submission rings
/// ([`submit_ring`](Self::submit_ring)), the guest join timeout
/// ([`join_timeout`](Self::join_timeout)), and the
/// [`sink`](Self::sink) and [`policy`](Self::policy). Everything else is
/// fixed: 4 submission lanes per process and shard, a 2 ms reactor tick,
/// reclaim of a dead guest as soon as its pid probe fails, and idle-CPU
/// direct dispatch whenever the rings are on. Guests resolve their submit
/// and detach timeouts themselves (5 s, or the `NOSV_IPC_SUBMIT_TIMEOUT_MS`
/// / `NOSV_IPC_DETACH_TIMEOUT_MS` override).
///
/// ```
/// use std::sync::Arc;
/// use nosv::prelude::*;
///
/// # fn main() -> Result<(), NosvError> {
/// let sink = Arc::new(MemorySink::new());
/// let rt = Runtime::builder()
///     .cpus(2)
///     .quantum(std::time::Duration::from_millis(5))
///     .sink(sink.clone())
///     .build()?;
/// assert_eq!(rt.cpus(), 2);
/// rt.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
#[must_use = "a builder does nothing until build() is called"]
pub struct RuntimeBuilder {
    config: NosvConfig,
    policy: Option<Arc<dyn SchedPolicy>>,
    sink: Option<Arc<dyn TraceSink>>,
}

impl RuntimeBuilder {
    pub(crate) fn new() -> RuntimeBuilder {
        RuntimeBuilder {
            config: NosvConfig::default(),
            policy: None,
            sink: None,
        }
    }

    /// Number of logical cores the runtime manages (one runnable worker
    /// per core at any instant). Must be at least 1.
    pub fn cpus(mut self, cpus: usize) -> Self {
        self.config.cpus = cpus;
        self
    }

    /// Process time quantum in nanoseconds (§3.4). Must be positive and
    /// sane (at most ten minutes).
    pub fn quantum_ns(mut self, quantum_ns: u64) -> Self {
        self.config.quantum_ns = quantum_ns;
        self
    }

    /// Process time quantum as a [`Duration`] (convenience over
    /// [`RuntimeBuilder::quantum_ns`]).
    pub fn quantum(self, quantum: Duration) -> Self {
        let ns = u64::try_from(quantum.as_nanos()).unwrap_or(u64::MAX);
        self.quantum_ns(ns)
    }

    /// Cores per NUMA node for the NUMA affinity policy. `0` (the default)
    /// means a single NUMA domain spanning every core.
    pub fn numa(mut self, cpus_per_numa: usize) -> Self {
        self.config.cpus_per_numa = cpus_per_numa;
        self
    }

    /// Size of the shared segment in bytes (at least 1 MiB).
    pub fn segment_size(mut self, bytes: usize) -> Self {
        self.config.segment_size = bytes;
        self
    }

    /// Capacity (entries) of each process's lock-free submission ring —
    /// the channel through which `submit` feeds the shared scheduler
    /// without taking its delegation lock (§3.4: processes feed the
    /// central scheduler through lock-free queues, drained in batches by
    /// the transient server).
    ///
    /// Each (process × shard) ring is 4 *lanes* of this capacity: producer
    /// threads hash onto lanes, so concurrent submitters from one process
    /// rarely contend on one ring tail. Within a lane, submissions stay
    /// FIFO; across lanes of one process no order is promised (concurrent
    /// producers never had one).
    ///
    /// With rings on, a submission that finds a CPU idle and *armed* in
    /// the claim table hands its task straight through that CPU's handoff
    /// slot — one CAS plus one wake, bypassing rings, queues and locks.
    /// Unconstrained and matching-affinity tasks qualify; everything else
    /// takes the ring.
    ///
    /// Must be zero or a power of two, at most 65536. The default is
    /// [`crate::DEFAULT_SUBMIT_RING_CAP`]. `0` is the pre-ring baseline the
    /// `sched_throughput` bench measures: no rings and no direct dispatch,
    /// so every submission takes the shard lock. A full ring is not an
    /// error — overflowing submissions fall back to the locked path, which
    /// may reorder them relative to ring contents (the priority order
    /// *within* each queue is unaffected).
    pub fn submit_ring(mut self, capacity: usize) -> Self {
        self.config.submit_ring_cap = capacity;
        self
    }

    /// Number of scheduler shards: independent scheduling cores, each
    /// behind its own delegation lock, among which CPUs are split so
    /// fetches of different shards never contend. `0` (the default) means
    /// one shard per NUMA node; `1` reproduces the original single-lock
    /// scheduler. At most 16 and never more than the CPU count.
    ///
    /// Placed tasks route to the shard owning their target core/node;
    /// unconstrained tasks round-robin across shards (their global
    /// cross-shard FIFO order is traded for scalability — FIFO still
    /// holds within each shard); a CPU whose shard runs dry steals from
    /// the other shards in rotation. The simulator shards identically
    /// (`simnode::SimOptions::sched_shards`), so sim/live parity holds
    /// per shard configuration.
    pub fn sched_shards(mut self, shards: usize) -> Self {
        self.config.sched_shards = shards;
        self
    }

    /// Backs the segment with a *named* OS shared-memory object
    /// (`memfd_create`, falling back to `shm_open`) instead of the
    /// in-process heap, so foreign OS processes can co-execute by calling
    /// [`crate::Runtime::join`]`(name)` — the paper's actual deployment
    /// model (§3.1). The runtime also starts a reactor thread that
    /// acknowledges join handshakes every 2 ms and reclaims the queued
    /// tasks of a guest as soon as its OS pid is gone.
    ///
    /// Requires OS backing ([`nosv_shmem::os_backing_available`]) and
    /// enabled submission rings; [`RuntimeBuilder::build`] fails with
    /// [`NosvError::Segment`] / [`NosvError::InvalidConfig`] otherwise.
    pub fn segment_name(mut self, name: impl Into<String>) -> Self {
        self.config.segment_name = Some(name.into());
        self
    }

    /// How long a guest's [`crate::Runtime::join`] waits for this host to
    /// publish its geometry and acknowledge the handshake (default 5 s).
    /// Published to guests through the segment's geometry block, so the
    /// host configures the timeout once for every guest; a guest can
    /// still override its own copy with the `NOSV_IPC_JOIN_TIMEOUT_MS`
    /// environment variable. The same bound also limits how long the
    /// reactor tolerates a half-open registry claim (a process that died
    /// between claiming a slot and publishing its record) before
    /// repairing the slot.
    ///
    /// Must be positive and at most ten minutes. Only meaningful together
    /// with [`RuntimeBuilder::segment_name`].
    pub fn join_timeout(mut self, timeout: Duration) -> Self {
        self.config.join_timeout_ns = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        self
    }

    /// Installs a [`TraceSink`] to receive the runtime's [`crate::ObsEvent`]
    /// stream (submit/start/end/pause/resume/handoff/steal actions plus
    /// counter deltas at shutdown). Without a sink, tracing is off and the
    /// hot path records nothing.
    ///
    /// Workers buffer events in lock-free per-worker buffers and drain
    /// them at flush points; the full stream is guaranteed delivered (and
    /// [`TraceSink::flush`] called) by the time [`Runtime::shutdown`]
    /// returns. See [`crate::obs`] for the delivery contract and the
    /// built-in sinks ([`crate::MemorySink`], [`crate::ChromeTraceSink`],
    /// [`crate::AsciiTimelineSink`]).
    ///
    /// The same sink value can observe the discrete-event simulator via
    /// `simnode::SimSpec::sink`, so one sink implementation sees the same
    /// event stream from both backends.
    pub fn sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Installs a custom [`SchedPolicy`]. When set, the policy's own
    /// quantum ([`SchedPolicy::quantum_ns`]) governs process switching and
    /// any value passed to [`RuntimeBuilder::quantum_ns`] is ignored.
    ///
    /// The same policy value can drive the discrete-event simulator via
    /// `simnode::run_simulation_with_policy`, so a policy is written once
    /// and exercised in both backends.
    pub fn policy(mut self, policy: impl SchedPolicy + 'static) -> Self {
        self.policy = Some(Arc::new(policy));
        self
    }

    /// Validates the configuration and constructs the runtime.
    ///
    /// Returns [`NosvError::InvalidConfig`] for unusable settings (zero
    /// CPUs, zero or absurd quantum, oversized topology, undersized
    /// segment) and [`NosvError::OutOfSharedMemory`] when the segment
    /// cannot hold the scheduler state. With a custom policy installed,
    /// the quantum that is validated is the policy's own
    /// ([`SchedPolicy::quantum_ns`]), since that is the one that governs.
    pub fn build(self) -> Result<Runtime, NosvError> {
        let policy = self
            .policy
            .unwrap_or_else(|| Arc::new(QuantumPolicy::new(self.config.quantum_ns)));
        // The policy is the single source of truth for the quantum: fold
        // it back into the config so validation guards the governing value
        // and the stored config never disagrees with the policy.
        let mut config = self.config;
        config.quantum_ns = policy.quantum_ns();
        config.validate()?;
        Runtime::from_parts(config, policy, self.sink)
    }
}

impl std::fmt::Debug for RuntimeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeBuilder")
            .field("cpus", &self.config.cpus)
            .field("cpus_per_numa", &self.config.cpus_per_numa)
            .field("quantum_ns", &self.config.quantum_ns)
            .field("segment_size", &self.config.segment_size)
            .field("submit_ring_cap", &self.config.submit_ring_cap)
            .field("sched_shards", &self.config.sched_shards)
            .field("segment_name", &self.config.segment_name)
            .field("join_timeout_ns", &self.config.join_timeout_ns)
            .field("sink", &self.sink.is_some())
            .field("custom_policy", &self.policy.is_some())
            .finish()
    }
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder::new()
    }
}
