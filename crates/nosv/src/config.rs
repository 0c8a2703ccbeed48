//! Runtime configuration (internal).
//!
//! `NosvConfig` is a crate-internal detail since the builder-first API
//! redesign: external code configures a runtime exclusively through
//! [`crate::RuntimeBuilder`], which validates and then carries one of
//! these into [`crate::Runtime`].

use std::time::Duration;

use nosv_shmem::SegmentConfig;

use crate::error::NosvError;

pub(crate) use nosv_core::DEFAULT_QUANTUM_NS;

/// Quanta beyond this (ten minutes) are rejected as unit mistakes: the
/// paper's whole design space is milliseconds.
pub(crate) const MAX_QUANTUM_NS: u64 = 600_000_000_000;

/// Smallest segment the runtime accepts: below this the scheduler root
/// plus a handful of task descriptors cannot fit.
pub(crate) const MIN_SEGMENT_SIZE: usize = 1024 * 1024;

/// Default per-process submission-ring capacity (entries per lane). Large
/// enough that a batch-draining server keeps up with bursts; small enough
/// that 64 process slots cost well under a megabyte of segment per lane.
pub const DEFAULT_SUBMIT_RING_CAP: usize = 256;

/// Largest accepted submission-ring capacity (entries per lane).
pub(crate) const MAX_SUBMIT_RING_CAP: usize = 1 << 16;

/// Submission lanes per (process × shard): enough that the common
/// few-producer process never shares a lane, cheap enough that the idle
/// lanes cost only their slot arrays. Producers beyond this hash onto
/// shared lanes.
pub(crate) const SUBMIT_LANES: usize = 4;

/// Reactor sweep period: 2 ms keeps join handshakes snappy while costing
/// one wakeup of a sleeping thread per period.
pub(crate) const RECLAIM_TICK: Duration = Duration::from_millis(2);

/// Default join timeout: 5 s — generous next to the ~2 ms reactor tick
/// that normally resolves a join, short enough that a wedged host turns
/// into an error instead of a hang.
pub(crate) const DEFAULT_JOIN_TIMEOUT_NS: u64 = 5_000_000_000;

/// Join timeouts beyond this (ten minutes) are rejected as unit mistakes,
/// same rationale as [`MAX_QUANTUM_NS`].
pub(crate) const MAX_JOIN_TIMEOUT_NS: u64 = 600_000_000_000;

/// Configuration of a [`crate::Runtime`]. Built only by
/// [`crate::RuntimeBuilder`].
#[derive(Debug, Clone)]
pub(crate) struct NosvConfig {
    /// Number of logical cores the runtime manages. The CPU manager keeps
    /// exactly one runnable worker per core.
    pub cpus: usize,
    /// Cores per NUMA node, for the NUMA affinity policy. `0` means a
    /// single NUMA domain spanning every core.
    pub cpus_per_numa: usize,
    /// Process time quantum in nanoseconds (§3.4): once a core has executed
    /// tasks of one process for longer than this, the scheduler switches it
    /// to another process with ready work.
    pub quantum_ns: u64,
    /// Size of the shared segment in bytes.
    pub segment_size: usize,
    /// Capacity (entries) of each process's lock-free submission ring;
    /// `0` disables the rings *and* idle-CPU direct dispatch, routing
    /// every submission through the locked path (the pre-ring behaviour,
    /// kept for benchmarking).
    pub submit_ring_cap: usize,
    /// Number of scheduler shards; `0` = one per NUMA node (the
    /// default), `1` = the original single-lock scheduler.
    pub sched_shards: usize,
    /// When set, the segment is backed by a *named* OS shared-memory
    /// object ([`nosv_shmem::ShmSegment::create_named`]) so foreign OS
    /// processes can [`crate::Runtime::join`] it; `None` (the default)
    /// keeps the in-process heap backing.
    pub segment_name: Option<String>,
    /// How long a guest's [`crate::Runtime::join`] waits for the host to
    /// publish its geometry and acknowledge the handshake. Published to
    /// guests through the geometry block; it also bounds how long the
    /// host's reactor tolerates a half-open registry claim (an attacher
    /// that died between claiming a slot and publishing its pid) before
    /// repairing it.
    pub join_timeout_ns: u64,
}

impl Default for NosvConfig {
    fn default() -> Self {
        NosvConfig {
            cpus: 4,
            cpus_per_numa: 0,
            quantum_ns: DEFAULT_QUANTUM_NS,
            segment_size: 32 * 1024 * 1024,
            submit_ring_cap: DEFAULT_SUBMIT_RING_CAP,
            sched_shards: 0,
            segment_name: None,
            join_timeout_ns: DEFAULT_JOIN_TIMEOUT_NS,
        }
    }
}

impl NosvConfig {
    /// Number of NUMA nodes implied by the configuration.
    pub fn numa_nodes(&self) -> usize {
        if self.cpus_per_numa == 0 {
            1
        } else {
            self.cpus.div_ceil(self.cpus_per_numa)
        }
    }

    /// Effective scheduler shard count (`sched_shards` with `0` resolved
    /// to the NUMA node count, clamped to the valid range).
    pub fn resolved_shards(&self) -> usize {
        nosv_core::resolve_shards(self.sched_shards, self.cpus, self.numa_nodes())
    }

    pub(crate) fn segment_config(&self) -> SegmentConfig {
        SegmentConfig {
            size: self.segment_size,
            max_cpus: self.cpus,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), NosvError> {
        let fail = |reason| Err(NosvError::InvalidConfig { reason });
        if self.cpus == 0 {
            return fail("at least one CPU is required");
        }
        if self.cpus > crate::scheduler::MAX_CPUS {
            return fail("more CPUs than the scheduler arrays support (256)");
        }
        if self.numa_nodes() > crate::scheduler::MAX_NUMA {
            return fail("more NUMA nodes than the scheduler arrays support (16)");
        }
        if self.quantum_ns == 0 {
            return fail("quantum must be positive");
        }
        if self.quantum_ns > MAX_QUANTUM_NS {
            return fail("quantum above ten minutes; check the time unit");
        }
        if self.segment_size < MIN_SEGMENT_SIZE {
            return fail("segment smaller than 1 MiB cannot hold the scheduler");
        }
        if self.submit_ring_cap != 0 && !self.submit_ring_cap.is_power_of_two() {
            return fail("submission ring capacity must be zero or a power of two");
        }
        if self.submit_ring_cap > MAX_SUBMIT_RING_CAP {
            return fail("submission ring capacity above 65536 entries");
        }
        if self.sched_shards > nosv_core::MAX_SHARDS {
            return fail("more scheduler shards than supported (16)");
        }
        if self.sched_shards > self.cpus {
            return fail("more scheduler shards than CPUs");
        }
        if self.join_timeout_ns == 0 {
            return fail("join timeout must be positive");
        }
        if self.join_timeout_ns > MAX_JOIN_TIMEOUT_NS {
            return fail("join timeout above ten minutes; check the time unit");
        }
        if let Some(name) = &self.segment_name {
            if name.is_empty() {
                return fail("segment name must be non-empty");
            }
            if self.submit_ring_cap == 0 {
                return fail("named segments need submission rings (guests submit through them)");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_quantum() {
        let c = NosvConfig::default();
        assert_eq!(c.quantum_ns, 20_000_000);
        c.validate().expect("defaults are valid");
    }

    #[test]
    fn numa_mapping() {
        let c = NosvConfig {
            cpus: 48,
            cpus_per_numa: 24,
            ..Default::default()
        };
        assert_eq!(c.numa_nodes(), 2);
    }

    #[test]
    fn shards_default_to_numa_nodes() {
        let c = NosvConfig {
            cpus: 8,
            cpus_per_numa: 2,
            ..Default::default()
        };
        assert_eq!(c.resolved_shards(), 4);
        let single = NosvConfig {
            cpus: 8,
            ..Default::default()
        };
        assert_eq!(single.resolved_shards(), 1);
        let explicit = NosvConfig {
            cpus: 8,
            sched_shards: 2,
            ..Default::default()
        };
        assert_eq!(explicit.resolved_shards(), 2);
    }

    #[test]
    fn single_numa_when_unconfigured() {
        let c = NosvConfig {
            cpus: 16,
            cpus_per_numa: 0,
            ..Default::default()
        };
        assert_eq!(c.numa_nodes(), 1);
    }

    #[test]
    fn invalid_configs_are_errors_not_panics() {
        let cases = [
            NosvConfig {
                cpus: 0,
                ..Default::default()
            },
            NosvConfig {
                cpus: 10_000,
                ..Default::default()
            },
            NosvConfig {
                quantum_ns: 0,
                ..Default::default()
            },
            NosvConfig {
                quantum_ns: u64::MAX,
                ..Default::default()
            },
            NosvConfig {
                segment_size: 4096,
                ..Default::default()
            },
            NosvConfig {
                submit_ring_cap: 48, // not a power of two
                ..Default::default()
            },
            NosvConfig {
                submit_ring_cap: 1 << 20, // absurdly large
                ..Default::default()
            },
            NosvConfig {
                sched_shards: 64, // beyond MAX_SHARDS
                ..Default::default()
            },
            NosvConfig {
                cpus: 2,
                sched_shards: 3, // more shards than CPUs
                ..Default::default()
            },
            NosvConfig {
                join_timeout_ns: 0,
                ..Default::default()
            },
            NosvConfig {
                join_timeout_ns: u64::MAX, // unit mistake
                ..Default::default()
            },
        ];
        for c in cases {
            assert!(
                matches!(c.validate(), Err(NosvError::InvalidConfig { .. })),
                "{c:?} must be rejected"
            );
        }
    }
}
