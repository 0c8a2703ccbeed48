//! Direct-dispatch stress: submitters racing parkers.
//!
//! The idle-CPU claim protocol has three parties racing over one slot per
//! CPU — the worker arming/disarming it around its sleep, submitters
//! CAS-claiming it, and the ring path everyone falls back to. The
//! invariant under any interleaving: **every task runs exactly once**,
//! whether it travelled through a claim slot, a ring, or the locked
//! fallback. The submission pattern alternates bursts with idle gaps so
//! workers continuously park (arming) and wake (disarming), keeping the
//! claim windows hot exactly when submitters arrive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nosv::prelude::*;

/// Bursty submitters against parking workers; returns (executed, stats).
fn stress(cpus: usize, submitters: usize, rounds: usize, burst: usize) -> (u64, RuntimeStats) {
    let rt = Arc::new(Runtime::builder().cpus(cpus).build().expect("valid config"));
    let app = Arc::new(rt.attach("dd-stress").expect("attach"));
    let executed = Arc::new(AtomicU64::new(0));

    let threads: Vec<_> = (0..submitters)
        .map(|s| {
            let app = Arc::clone(&app);
            let executed = Arc::clone(&executed);
            std::thread::spawn(move || {
                for round in 0..rounds {
                    let mut handles = Vec::with_capacity(burst);
                    for _ in 0..burst {
                        let executed = Arc::clone(&executed);
                        let t = app.create_task(move |_| {
                            executed.fetch_add(1, Ordering::Relaxed);
                        });
                        t.submit().expect("submit");
                        handles.push(t);
                    }
                    for t in handles {
                        t.wait().unwrap();
                        t.destroy();
                    }
                    // Let the workers drain and park so the next burst
                    // races freshly armed claim slots. Stagger the gap per
                    // submitter so arrivals hit every phase of the park
                    // protocol (mid-arm, spinning standby, futex-asleep).
                    if round % 3 == s % 3 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("submitter panicked");
    }
    drop(app);
    let stats = rt.stats();
    rt.shutdown();
    (executed.load(Ordering::Relaxed), stats)
}

#[test]
fn every_task_runs_exactly_once_with_submitters_racing_parkers() {
    for &(cpus, submitters) in &[(1usize, 2usize), (2, 3), (4, 2)] {
        let rounds = 60;
        let burst = 8;
        let total = (submitters * rounds * burst) as u64;
        let (executed, stats) = stress(cpus, submitters, rounds, burst);
        let label = format!("cpus={cpus} submitters={submitters}");
        assert_eq!(executed, total, "{label}: execution count");
        assert_eq!(stats.tasks_executed, total, "{label}: tasks_executed");
        assert_eq!(
            stats.direct_dispatches + stats.ring_submits + stats.locked_submits,
            total,
            "{label}: every submission took exactly one path"
        );
    }
}

#[test]
fn idle_runtime_serial_stream_rides_the_claim_slots() {
    // A fully idle runtime fed one task at a time: once the previous
    // task's worker has parked again, the next submission should find an
    // armed CPU and go direct — this is the serial-submit case the
    // direct-dispatch path exists for. The short gap gives the worker
    // thread time to reach its park point (on a single-core host the
    // submitter would otherwise outrun it and legitimately take the
    // ring).
    let rt = Runtime::builder().cpus(2).build().expect("valid config");
    let app = rt.attach("serial").expect("attach");
    const TASKS: usize = 200;
    for _ in 0..TASKS {
        let t = app.create_task(|_| {});
        t.submit().expect("submit");
        t.wait().unwrap();
        t.destroy();
        std::thread::sleep(Duration::from_micros(50));
    }
    let stats = rt.stats();
    drop(app);
    rt.shutdown();
    assert_eq!(stats.tasks_executed, TASKS as u64);
    // Not asserting 100%: the very first task and any submission racing a
    // worker mid-transition legitimately take the ring. But a serial
    // stream that mostly misses the claim slots means the protocol is
    // broken (workers not arming, or submitters not finding them).
    assert!(
        stats.direct_dispatches >= (TASKS as u64) / 2,
        "only {}/{} serial submissions went direct",
        stats.direct_dispatches,
        TASKS
    );
}

#[test]
fn placed_tasks_direct_dispatch_to_their_target_core() {
    // Strict core-affinity tasks against a parked runtime: each must run
    // on its named core whether it went direct or through the queues. The
    // observability stream proves placement: a strict task executing away
    // from its core would carry `Start { remote: true }`.
    let sink = Arc::new(MemorySink::new());
    let rt = Runtime::builder()
        .cpus(2)
        .sink(sink.clone())
        .build()
        .expect("valid config");
    let app = rt.attach("placed").expect("attach");
    for i in 0..60u64 {
        let target = (i % 2) as usize;
        // Give workers a moment to park so claims actually happen.
        if i % 10 == 0 {
            std::thread::sleep(Duration::from_micros(300));
        }
        let t = app
            .build_task(
                TaskBuilder::new()
                    .affinity(Affinity::Core {
                        index: target,
                        strict: true,
                    })
                    .run(|_| {}),
            )
            .expect("build");
        t.submit().expect("submit");
        t.wait().unwrap();
        t.destroy();
    }
    let stats = rt.stats();
    drop(app);
    rt.shutdown();
    assert_eq!(stats.tasks_executed, 60);
    let events = sink.take_sorted();
    let starts: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            ObsKind::Start { remote } => Some((e.cpu, remote)),
            _ => None,
        })
        .collect();
    assert_eq!(starts.len(), 60);
    assert!(
        starts.iter().all(|&(_, remote)| !remote),
        "a strict core task executed remotely: {starts:?}"
    );
}
