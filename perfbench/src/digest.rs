//! Per-layer metrics of the live runtime, read from the public
//! [`nosv::MemorySink`] event stream and [`nosv::RuntimeStats`] deltas of
//! traced passes.

use std::collections::HashMap;

use nosv::{ObsEvent, ObsKind, RuntimeStats};

use crate::{put, quantile, ratio, Metrics};

/// Accumulates the traced passes of one workload.
#[derive(Debug, Default)]
pub(crate) struct LiveDigest {
    queue_wait_us: Vec<f64>,
    body_us: Vec<f64>,
    gap_us: Vec<f64>,
    busy_ns: f64,
    capacity_ns: f64,
    events: u64,
    stats: Vec<RuntimeStats>,
}

impl LiveDigest {
    /// Adds one pass: its events, the runtime's final counters, the CPU
    /// count and the pass's wall time.
    pub(crate) fn add_pass(
        &mut self,
        mut events: Vec<ObsEvent>,
        stats: RuntimeStats,
        cpus: usize,
        wall_ns: f64,
    ) {
        events.sort_by_key(|e| e.t_ns);
        self.events += events.len() as u64;
        let mut submitted: HashMap<u64, u64> = HashMap::new();
        let mut started: HashMap<u64, u64> = HashMap::new();
        let mut last_end: HashMap<u32, u64> = HashMap::new();
        for e in &events {
            match e.kind {
                ObsKind::Submit => {
                    submitted.insert(e.task.0, e.t_ns);
                }
                ObsKind::Start { .. } => {
                    if let Some(t) = submitted.remove(&e.task.0) {
                        self.queue_wait_us
                            .push(e.t_ns.saturating_sub(t) as f64 / 1e3);
                    }
                    if let Some(t) = last_end.remove(&e.cpu) {
                        self.gap_us.push(e.t_ns.saturating_sub(t) as f64 / 1e3);
                    }
                    started.insert(e.task.0, e.t_ns);
                }
                ObsKind::End => {
                    if let Some(t) = started.remove(&e.task.0) {
                        let body = e.t_ns.saturating_sub(t) as f64;
                        self.body_us.push(body / 1e3);
                        self.busy_ns += body;
                    }
                    last_end.insert(e.cpu, e.t_ns);
                }
                _ => {}
            }
        }
        self.capacity_ns += cpus as f64 * wall_ns;
        self.stats.push(stats);
    }

    /// Writes the `sched.*`, `worker.*` and `obs.events_per_task` metrics.
    pub(crate) fn fill(&mut self, m: &mut Metrics) {
        let sum = |f: fn(&RuntimeStats) -> u64| self.stats.iter().map(f).sum::<u64>() as f64;
        let executed = sum(|s| s.tasks_executed);
        let submitted = sum(|s| s.tasks_submitted);
        let passes = self.stats.len().max(1) as f64;
        let rows = [
            (
                "sched.queue_wait_us_p50",
                quantile(&mut self.queue_wait_us, 0.5),
                "us",
            ),
            (
                "sched.queue_wait_us_p99",
                quantile(&mut self.queue_wait_us, 0.99),
                "us",
            ),
            (
                "sched.direct_dispatch_ratio",
                ratio(sum(|s| s.direct_dispatches), submitted),
                "ratio",
            ),
            (
                "sched.standby_elections_per_task",
                ratio(sum(|s| s.standby_elections), executed),
                "count/task",
            ),
            (
                "sched.ring_submit_ratio",
                ratio(sum(|s| s.ring_submits), submitted),
                "ratio",
            ),
            (
                "sched.locked_submit_ratio",
                ratio(sum(|s| s.locked_submits), submitted),
                "ratio",
            ),
            (
                "sched.delegation_ratio",
                ratio(sum(|s| s.delegations_served), executed),
                "ratio",
            ),
            (
                "sched.handoffs_per_ktask",
                1e3 * ratio(sum(|s| s.cross_process_handoffs), executed),
                "count/ktask",
            ),
            (
                "sched.quantum_switches",
                sum(|s| s.quantum_switches) / passes,
                "count",
            ),
            (
                "sched.workers_spawned",
                sum(|s| s.workers_spawned) / passes,
                "count",
            ),
            ("worker.body_us_p50", quantile(&mut self.body_us, 0.5), "us"),
            (
                "worker.core_busy_ratio",
                ratio(self.busy_ns, self.capacity_ns),
                "ratio",
            ),
            (
                "worker.core_gap_us_p50",
                quantile(&mut self.gap_us, 0.5),
                "us",
            ),
            (
                "obs.events_per_task",
                ratio(self.events as f64, executed),
                "count/task",
            ),
        ];
        for (name, value, unit) in rows {
            put(m, name, value, unit);
        }
    }
}
