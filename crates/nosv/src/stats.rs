//! Runtime counters used by tests, benches and the evaluation harnesses.

use std::sync::atomic::{AtomicU64, Ordering};

use nosv_sync::Padded;

use crate::obs::CounterKind;

/// One value per [`CounterKind`], indexed by `kind as usize`.
pub(crate) type CounterTable = [u64; CounterKind::ALL.len()];

/// The live runtime's counter table: one padded block of
/// [`CounterKind`]-indexed cells per runtime CPU, plus one block for
/// threads that are not workers. Writers add to their own CPU's block, so
/// no two CPUs share a cache line; readers sum the blocks. The adds are
/// `Relaxed` and synchronise nothing: a read is a statistic, not a fence.
pub(crate) struct Counters {
    blocks: Box<[Padded<[AtomicU64; CounterKind::ALL.len()]>]>,
}

impl Counters {
    /// The block of threads that are not workers: any index past the last
    /// runtime CPU lands there.
    pub(crate) const EXTERNAL: usize = usize::MAX;

    /// A zeroed table for `cpus` runtime CPUs.
    pub(crate) fn new(cpus: usize) -> Self {
        Counters {
            blocks: (0..=cpus)
                .map(|_| Padded::new(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }

    /// Adds `n` to `kind` in `cpu`'s block (the caller's own core, or
    /// [`Counters::EXTERNAL`]).
    pub(crate) fn add(&self, cpu: usize, kind: CounterKind, n: u64) {
        let block = &self.blocks[cpu.min(self.blocks.len() - 1)];
        block[kind as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// `kind` summed over every block.
    pub(crate) fn get(&self, kind: CounterKind) -> u64 {
        self.blocks
            .iter()
            .map(|b| b[kind as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// The whole table, summed over every block.
    pub(crate) fn sum(&self) -> CounterTable {
        std::array::from_fn(|k| self.get(CounterKind::ALL[k]))
    }
}

/// A snapshot of the runtime's counters.
///
/// These counters are the observable side of the paper's design claims and
/// are asserted on by the integration tests: e.g. the process-preference
/// policy should keep [`RuntimeStats::cross_process_handoffs`] low relative
/// to tasks executed, while quantum expiry guarantees
/// [`RuntimeStats::quantum_switches`] is nonzero under sustained
/// co-execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Task bodies run to completion, including guest tasks submitted
    /// through [`crate::GuestProcess::submit`]. Those run on host workers
    /// but were submitted in the guest, so once guests attach this exceeds
    /// [`RuntimeStats::tasks_submitted`].
    pub tasks_executed: u64,
    /// `submit` calls (initial submissions and resubmissions of paused
    /// tasks) made through this runtime. Guest submissions
    /// ([`crate::GuestProcess::submit`]) run in the guest process and
    /// count neither here nor in [`RuntimeStats::ring_submits`], so
    /// `tasks_executed == tasks_submitted` holds only without guests.
    pub tasks_submitted: u64,
    /// Tasks handed to waiting CPUs through DTLock delegation rather than a
    /// separate critical section.
    pub delegations_served: u64,
    /// Times a core was handed a task from a different process than the
    /// worker that fetched it (each costs a thread context switch, §3.3).
    pub cross_process_handoffs: u64,
    /// Paused tasks resumed by waking their attached thread.
    pub resumes: u64,
    /// `pause` calls.
    pub pauses: u64,
    /// Process switches forced by quantum expiry (§3.4).
    pub quantum_switches: u64,
    /// Best-effort-affinity tasks executed away from their preferred
    /// core/NUMA node.
    pub affinity_steals: u64,
    /// Worker threads created over the runtime's lifetime.
    pub workers_spawned: u64,
    /// Submissions that took the lock-free ring path (§3.4: processes
    /// feed the scheduler without touching its delegation lock).
    pub ring_submits: u64,
    /// Submissions that took the locked fallback path (rings disabled via
    /// [`crate::RuntimeBuilder::submit_ring`]`(0)`, or a full ring), and
    /// [`crate::yield_now`] requeues, which always take the lock.
    pub locked_submits: u64,
    /// Submissions handed straight to an idle CPU through its claim slot
    /// (never queued, never picked — the direct-dispatch fast path).
    pub direct_dispatches: u64,
    /// Tasks taken from another scheduler shard by a CPU whose own shard
    /// ran dry (bitmap-guided cross-shard stealing).
    pub shard_steals: u64,
    /// Queued tasks reclaimed (cancelled and freed) from guest processes
    /// that died without detaching — the crash-reclaim sweeper's work.
    pub crash_reclaims: u64,
    /// Task bodies that panicked. Each failed only its own task
    /// ([`crate::NosvError::TaskPanicked`] from the waiter's side); the
    /// worker and the runtime carry on.
    pub task_panics: u64,
    /// Ring reservations a dead producer claimed but never published,
    /// force-retired by crash reclaim's sequence repair (each one would
    /// otherwise wedge its submission lane forever).
    pub stranded_slot_repairs: u64,
    /// Times the standby-spinner role migrated between CPUs. The sticky
    /// election exists to keep this far below [`RuntimeStats::tasks_executed`]
    /// on a serial stream (re-electing per task was the 2–4 CPU
    /// single-producer throughput dip).
    pub standby_elections: u64,
}

impl RuntimeStats {
    /// The stats of a summed counter table. Kinds without a field here
    /// (the simulator's and `nanos`'s) are ignored.
    pub(crate) fn from_table(table: &CounterTable) -> Self {
        let mut stats = RuntimeStats::default();
        for &kind in CounterKind::ALL {
            if let Some(field) = stats.field_mut(kind) {
                *field = table[kind as usize];
            }
        }
        stats
    }

    /// The value of counter `kind`; 0 for a kind the live runtime does
    /// not count (the simulator's and `nanos`'s).
    pub fn get(&self, kind: CounterKind) -> u64 {
        let mut stats = *self;
        stats.field_mut(kind).map_or(0, |field| *field)
    }

    /// The field that holds `kind`, if the live runtime counts it.
    fn field_mut(&mut self, kind: CounterKind) -> Option<&mut u64> {
        Some(match kind {
            CounterKind::TasksExecuted => &mut self.tasks_executed,
            CounterKind::TasksSubmitted => &mut self.tasks_submitted,
            CounterKind::DelegationsServed => &mut self.delegations_served,
            CounterKind::CrossProcessHandoffs => &mut self.cross_process_handoffs,
            CounterKind::Resumes => &mut self.resumes,
            CounterKind::Pauses => &mut self.pauses,
            CounterKind::QuantumSwitches => &mut self.quantum_switches,
            CounterKind::AffinitySteals => &mut self.affinity_steals,
            CounterKind::WorkersSpawned => &mut self.workers_spawned,
            CounterKind::RingSubmits => &mut self.ring_submits,
            CounterKind::LockedSubmits => &mut self.locked_submits,
            CounterKind::DirectDispatches => &mut self.direct_dispatches,
            CounterKind::ShardSteals => &mut self.shard_steals,
            CounterKind::CrashReclaims => &mut self.crash_reclaims,
            CounterKind::TaskPanics => &mut self.task_panics,
            CounterKind::StrandedSlotRepairs => &mut self.stranded_slot_repairs,
            CounterKind::StandbyElections => &mut self.standby_elections,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_is_filled_from_the_table() {
        let table: CounterTable = std::array::from_fn(|k| k as u64 + 1);
        let stats = RuntimeStats::from_table(&table);
        // A field no kind maps to would stay 0 and print as `: 0`.
        let debug = format!("{stats:?}");
        assert!(
            !debug.contains(": 0,") && !debug.contains(": 0 }"),
            "{debug}"
        );
        for &kind in CounterKind::ALL {
            let v = stats.get(kind);
            assert!(v == 0 || v == kind as u64 + 1, "{kind:?}");
        }
    }

    #[test]
    fn blocks_sum_and_out_of_range_cpus_land_in_the_external_block() {
        let c = Counters::new(2);
        c.add(0, CounterKind::TasksExecuted, 1);
        c.add(1, CounterKind::TasksExecuted, 2);
        c.add(Counters::EXTERNAL, CounterKind::TasksExecuted, 4);
        c.add(2, CounterKind::Pauses, 8);
        assert_eq!(c.get(CounterKind::TasksExecuted), 7);
        assert_eq!(c.sum()[CounterKind::Pauses as usize], 8);
        assert_eq!(
            c.blocks[2][CounterKind::TasksExecuted as usize].load(Ordering::Relaxed),
            4
        );
    }
}
