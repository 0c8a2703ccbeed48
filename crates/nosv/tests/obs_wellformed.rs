//! Trace well-formedness properties over seeded random workloads.
//!
//! For randomly generated workloads (task counts, process counts, core
//! counts, pause/resume usage derived from a seed), the `ObsEvent` stream
//! a `MemorySink` collects must satisfy:
//!
//! * **lifecycle**: per task, the timestamp-ordered events form
//!   `Submit+ → Start → (Pause → Submit → Resume)* → End` — every `Start`
//!   has a matching `End` (or an intervening `Pause`/`Resume` pair), and
//!   counts balance exactly;
//! * **per-core monotonicity**: on each core, execution events
//!   (`Start`/`End`/`Pause`/`Resume`) *arrive at the sink* in
//!   non-decreasing timestamp order — the per-worker buffers are drained
//!   before a core changes hands, so batching never reorders a core's
//!   history;
//! * **accounting**: event totals agree with the runtime's counters.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};

use nosv::prelude::*;
use nosv_sync::SplitMix64;

struct Shape {
    cpus: usize,
    apps: usize,
    tasks_per_app: usize,
    /// Every k-th task pauses once mid-body (0 = never).
    pause_every: usize,
}

fn shape(seed: u64) -> Shape {
    let mut rng = SplitMix64::new(seed);
    Shape {
        cpus: 1 + (rng.next_u64() % 4) as usize,
        apps: 1 + (rng.next_u64() % 3) as usize,
        tasks_per_app: 5 + (rng.next_u64() % 40) as usize,
        pause_every: (rng.next_u64() % 4) as usize, // 0..=3
    }
}

/// Runs the workload and returns (arrival-order events, stats).
fn run(shape: &Shape) -> (Vec<ObsEvent>, RuntimeStats) {
    let sink = Arc::new(MemorySink::new());
    let rt = Runtime::builder()
        .cpus(shape.cpus)
        .sink(sink.clone())
        .build()
        .expect("valid");
    let apps: Vec<_> = (0..shape.apps)
        .map(|i| rt.attach(&format!("app{i}")).expect("attach"))
        .collect();
    let mut handles = Vec::new();
    let mut pause_channels = Vec::new();
    for app in &apps {
        for k in 0..shape.tasks_per_app {
            let pauses = shape.pause_every != 0 && k % shape.pause_every == 0;
            if pauses {
                let (tx, rx) = mpsc::channel::<()>();
                let t = app.create_task(move |_| {
                    tx.send(()).unwrap();
                    nosv::pause();
                });
                t.submit().expect("submit");
                pause_channels.push((handles.len(), rx));
                handles.push(t);
            } else {
                let t = app.create_task(|_| {});
                t.submit().expect("submit");
                handles.push(t);
            }
        }
    }
    // Resubmit each pausing task once it reports having started.
    for (idx, rx) in pause_channels {
        rx.recv().unwrap();
        handles[idx].submit().expect("resubmit");
    }
    for t in &handles {
        t.wait().unwrap();
    }
    for t in handles {
        t.destroy();
    }
    drop(apps);
    rt.shutdown();
    (sink.take(), rt.stats())
}

fn check_lifecycle(events: &[ObsEvent], seed: u64) {
    // Sort by time; on ties, order kinds by lifecycle rank so that a
    // coarse clock cannot produce false violations.
    let rank = |k: &ObsKind| match k {
        ObsKind::Submit => 0,
        ObsKind::Start { .. } => 1,
        ObsKind::Resume => 2,
        ObsKind::Pause => 3,
        ObsKind::End => 4,
        _ => 5,
    };
    let mut per_task: BTreeMap<TaskId, Vec<&ObsEvent>> = BTreeMap::new();
    for ev in events {
        if matches!(
            ev.kind,
            ObsKind::Submit
                | ObsKind::Start { .. }
                | ObsKind::End
                | ObsKind::Pause
                | ObsKind::Resume
        ) {
            per_task.entry(ev.task).or_default().push(ev);
        }
    }
    for (task, mut evs) in per_task {
        evs.sort_by(|a, b| a.t_ns.cmp(&b.t_ns).then(rank(&a.kind).cmp(&rank(&b.kind))));
        #[derive(PartialEq, Debug)]
        enum S {
            Created,
            Ready,
            Running,
            Paused,
            Done,
        }
        let mut s = S::Created;
        let (mut starts, mut ends, mut pauses, mut resumes) = (0, 0, 0, 0);
        for ev in &evs {
            s = match (&s, ev.kind) {
                (S::Created, ObsKind::Submit) => S::Ready,
                (S::Ready, ObsKind::Start { .. }) => {
                    starts += 1;
                    S::Running
                }
                (S::Running, ObsKind::End) => {
                    ends += 1;
                    S::Done
                }
                (S::Running, ObsKind::Pause) => {
                    pauses += 1;
                    S::Paused
                }
                // A resubmission races the pause: Submit may be recorded
                // (by the resubmitting thread) before or after the Pause
                // (by the worker); both serializations are valid.
                (S::Running, ObsKind::Submit) => S::Running,
                (S::Paused, ObsKind::Submit) => S::Paused,
                (S::Paused, ObsKind::Resume) => {
                    resumes += 1;
                    S::Running
                }
                (state, kind) => panic!(
                    "seed {seed:#x}: task {task:?} got {kind:?} in state {state:?}; \
                     full history: {:?}",
                    evs.iter().map(|e| (e.t_ns, e.kind)).collect::<Vec<_>>()
                ),
            };
        }
        assert_eq!(s, S::Done, "seed {seed:#x}: task {task:?} never completed");
        assert_eq!(starts, 1, "seed {seed:#x}: task {task:?} started {starts}x");
        assert_eq!(ends, 1);
        assert_eq!(
            pauses, resumes,
            "seed {seed:#x}: task {task:?} pause/resume imbalance"
        );
    }
}

/// Execution events of one core must arrive at the sink in timestamp
/// order, in the sink's *arrival* order (no sorting): core handoffs drain
/// the outgoing worker's buffer before the core changes hands.
fn check_core_monotone(events: &[ObsEvent], seed: u64) {
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events {
        if ev.kind.is_exec() {
            let prev = last.insert(ev.cpu, ev.t_ns).unwrap_or(0);
            assert!(
                ev.t_ns >= prev,
                "seed {seed:#x}: core {} went backwards: {} after {prev}",
                ev.cpu,
                ev.t_ns
            );
        }
    }
}

fn check_accounting(events: &[ObsEvent], stats: &RuntimeStats, seed: u64) {
    let count = |pred: fn(&ObsKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count() as u64;
    assert_eq!(
        count(|k| matches!(k, ObsKind::Start { .. })),
        stats.tasks_executed,
        "seed {seed:#x}: start events vs tasks_executed"
    );
    assert_eq!(count(|k| matches!(k, ObsKind::End)), stats.tasks_executed);
    assert_eq!(count(|k| matches!(k, ObsKind::Pause)), stats.pauses);
    assert_eq!(count(|k| matches!(k, ObsKind::Resume)), stats.resumes);
    assert_eq!(
        count(|k| matches!(k, ObsKind::Submit)),
        stats.tasks_submitted
    );
    // The shutdown counter report mirrors every counter stats() shows,
    // and reports nothing stats() does not.
    for &counter in CounterKind::ALL {
        let reported: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                ObsKind::Counter { counter: c, delta } if c == counter => Some(delta),
                _ => None,
            })
            .sum();
        assert_eq!(
            reported,
            stats.get(counter),
            "seed {seed:#x}: reported {counter:?} vs stats()"
        );
    }
}

#[test]
fn traces_are_well_formed_across_seeded_workloads() {
    for seed in 0..12u64 {
        let sh = shape(seed);
        let (events, stats) = run(&sh);
        assert!(
            !events.is_empty(),
            "seed {seed:#x}: sink received no events"
        );
        check_lifecycle(&events, seed);
        check_core_monotone(&events, seed);
        check_accounting(&events, &stats, seed);
    }
}
