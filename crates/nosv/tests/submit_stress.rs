//! Many-producer stress over the lock-free submission path.
//!
//! N submitter threads per process × M processes hammer `submit`
//! concurrently while the workers drain. Every task must execute exactly
//! once, every handle must observe completion, and the runtime counters
//! must balance — under the default ring capacity, under a tiny ring that
//! forces constant overflow onto the locked fallback path, with rings (and
//! with them idle-CPU direct dispatch) disabled outright, and with more
//! producers than the 4 per-process submission lanes, submitting singly
//! and in batches of every size class.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nosv::prelude::*;

/// Drives `threads_per_proc * procs` concurrent submitters, each creating
/// and submitting `tasks_per_thread` tasks; returns the observed execution
/// count and the final stats.
fn hammer(
    cpus: usize,
    procs: usize,
    threads_per_proc: usize,
    tasks_per_thread: usize,
    ring_cap: usize,
) -> (u64, RuntimeStats) {
    let rt = Arc::new(
        Runtime::builder()
            .cpus(cpus)
            .submit_ring(ring_cap)
            .build()
            .expect("valid config"),
    );
    let executed = Arc::new(AtomicU64::new(0));
    let apps: Vec<Arc<ProcessContext>> = (0..procs)
        .map(|i| Arc::new(rt.attach(&format!("stress{i}")).expect("attach")))
        .collect();

    let submitters: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            (0..threads_per_proc).map(|_| {
                let app = Arc::clone(app);
                let executed = Arc::clone(&executed);
                std::thread::spawn(move || {
                    let mut handles = Vec::with_capacity(tasks_per_thread);
                    for _ in 0..tasks_per_thread {
                        let executed = Arc::clone(&executed);
                        let t = app.create_task(move |_| {
                            executed.fetch_add(1, Ordering::Relaxed);
                        });
                        t.submit().expect("submit");
                        handles.push(t);
                    }
                    for t in &handles {
                        t.wait().unwrap();
                        assert_eq!(t.state(), TaskState::Completed);
                    }
                    for t in handles {
                        t.destroy();
                    }
                })
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("submitter thread panicked");
    }
    drop(apps);
    let stats = rt.stats();
    rt.shutdown();
    (executed.load(Ordering::Relaxed), stats)
}

fn check(cpus: usize, procs: usize, threads_per_proc: usize, per_thread: usize, ring_cap: usize) {
    let total = (procs * threads_per_proc * per_thread) as u64;
    let (executed, stats) = hammer(cpus, procs, threads_per_proc, per_thread, ring_cap);
    let label = format!("cpus={cpus} procs={procs} threads={threads_per_proc} ring={ring_cap}");
    assert_eq!(executed, total, "{label}: body execution count");
    assert_eq!(stats.tasks_executed, total, "{label}: tasks_executed");
    assert_eq!(stats.tasks_submitted, total, "{label}: tasks_submitted");
    assert_eq!(
        stats.ring_submits + stats.locked_submits + stats.direct_dispatches,
        total,
        "{label}: every submission took exactly one path"
    );
    if ring_cap == 0 {
        // The pre-ring baseline: no ring and no claim-slot handoff, so
        // every submission takes the shard lock.
        assert_eq!(stats.ring_submits, 0, "{label}: rings disabled");
        assert_eq!(stats.direct_dispatches, 0, "{label}: direct dispatch off");
        assert_eq!(stats.locked_submits, total, "{label}: all locked");
    }
}

#[test]
fn many_producers_one_process() {
    check(2, 1, 4, 300, nosv::DEFAULT_SUBMIT_RING_CAP);
}

#[test]
fn many_producers_many_processes() {
    check(2, 3, 2, 200, nosv::DEFAULT_SUBMIT_RING_CAP);
}

#[test]
fn tiny_ring_forces_overflow_fallback() {
    // Capacity 2 with many producers: the locked fallback path and the
    // ring path interleave constantly; nothing may be lost or doubled.
    let total = 3 * 2 * 200;
    let (executed, stats) = hammer(2, 3, 2, 200, 2);
    assert_eq!(executed, total);
    assert_eq!(stats.tasks_executed, total);
    assert_eq!(
        stats.ring_submits + stats.locked_submits + stats.direct_dispatches,
        total
    );
    assert!(
        stats.locked_submits > 0,
        "a capacity-2 ring under 6 producers must overflow"
    );
}

#[test]
fn rings_disabled_is_correct_too() {
    check(2, 2, 2, 150, 0);
    // One producer against otherwise idle workers: with rings on, some of
    // these submissions would find an armed CPU and go direct.
    check(2, 1, 1, 50, 0);
}

#[test]
fn single_cpu_oversubscribed() {
    // Every submitter, worker and handoff fights over one core: the
    // harshest interleaving for the wake/drain protocol.
    check(1, 2, 3, 150, nosv::DEFAULT_SUBMIT_RING_CAP);
}

/// Like [`hammer`] but submitting through [`TaskBatch`]es of `batch_size`
/// instead of individual handles.
fn hammer_batched(
    cpus: usize,
    threads_per_proc: usize,
    batches_per_thread: usize,
    batch_size: usize,
) -> (u64, RuntimeStats) {
    let rt = Arc::new(Runtime::builder().cpus(cpus).build().expect("valid config"));
    let executed = Arc::new(AtomicU64::new(0));
    let app = Arc::new(rt.attach("batch-stress").expect("attach"));
    let submitters: Vec<_> = (0..threads_per_proc)
        .map(|_| {
            let app = Arc::clone(&app);
            let executed = Arc::clone(&executed);
            std::thread::spawn(move || {
                let mut handles = Vec::with_capacity(batches_per_thread);
                for _ in 0..batches_per_thread {
                    let executed = Arc::clone(&executed);
                    let h = app
                        .submit_all(TaskBatch::new(batch_size).run(move |_| {
                            executed.fetch_add(1, Ordering::Relaxed);
                        }))
                        .expect("submit_all");
                    handles.push(h);
                }
                for h in handles {
                    h.wait().unwrap();
                    assert!(h.is_complete());
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("submitter thread panicked");
    }
    drop(app);
    let stats = rt.stats();
    rt.shutdown();
    (executed.load(Ordering::Relaxed), stats)
}

/// More producers than lanes: 8 submitter threads hash onto the 4 lanes
/// of one process, so lanes are shared, and every task must still run
/// exactly once with balanced counters.
#[test]
fn lane_grid_exactly_once() {
    check(2, 1, 8, 200, nosv::DEFAULT_SUBMIT_RING_CAP);
}

/// The batch-size grid under shared lanes: batch submission must be
/// exactly-once with balanced counters for every batch size (including
/// degenerate batches of one and batches far larger than a lane's
/// capacity, which exercise the reserve-N overflow split), from 8
/// producers sharing the 4 lanes.
#[test]
fn batch_grid_exactly_once() {
    for batch_size in [1usize, 16, 256] {
        // Keep the per-config task count comparable across sizes.
        let batches_per_thread = (512 / batch_size).max(1);
        let threads = 8;
        let total = (threads * batches_per_thread * batch_size) as u64;
        let (executed, stats) = hammer_batched(2, threads, batches_per_thread, batch_size);
        let label = format!("batch={batch_size}");
        assert_eq!(executed, total, "{label}: body execution count");
        assert_eq!(stats.tasks_executed, total, "{label}: tasks_executed");
        assert_eq!(stats.tasks_submitted, total, "{label}: tasks_submitted");
        assert_eq!(
            stats.ring_submits + stats.locked_submits + stats.direct_dispatches,
            total,
            "{label}: every batch member took exactly one path"
        );
    }
}
