//! Tests of the builder-first, error-first public API surface:
//! builder validation, shutdown races, task-builder validation, and the
//! panicking convenience wrappers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nosv::prelude::*;

#[test]
fn builder_rejects_zero_cpus() {
    assert!(matches!(
        Runtime::builder().cpus(0).build(),
        Err(NosvError::InvalidConfig { .. })
    ));
}

#[test]
fn builder_rejects_absurd_cpu_counts() {
    assert!(matches!(
        Runtime::builder().cpus(100_000).build(),
        Err(NosvError::InvalidConfig { .. })
    ));
}

#[test]
fn builder_rejects_zero_quantum() {
    assert!(matches!(
        Runtime::builder().cpus(1).quantum_ns(0).build(),
        Err(NosvError::InvalidConfig { .. })
    ));
}

#[test]
fn builder_rejects_absurd_quantum() {
    // An hour-long "quantum" is a unit mistake, not a policy.
    assert!(matches!(
        Runtime::builder()
            .cpus(1)
            .quantum(std::time::Duration::from_secs(3600))
            .build(),
        Err(NosvError::InvalidConfig { .. })
    ));
}

#[test]
fn builder_rejects_undersized_segment() {
    assert!(matches!(
        Runtime::builder().cpus(1).segment_size(4096).build(),
        Err(NosvError::InvalidConfig { .. })
    ));
}

#[test]
fn builder_rejects_oversized_numa_topology() {
    // 256 cpus / 1 per node = 256 NUMA nodes > the scheduler's 16.
    assert!(matches!(
        Runtime::builder().cpus(256).numa(1).build(),
        Err(NosvError::InvalidConfig { .. })
    ));
}

#[test]
fn builder_defaults_build_and_run() {
    let rt = Runtime::builder().build().expect("defaults are valid");
    assert_eq!(rt.cpus(), 4);
    let app = rt.attach("defaults").expect("attach");
    let t = app.spawn(|_| {});
    t.wait().unwrap();
    t.destroy();
    drop(app);
    rt.shutdown();
}

#[test]
fn attach_after_shutdown_is_an_error() {
    let rt = Runtime::builder().cpus(1).build().expect("valid");
    // Run something first so shutdown exercises the full teardown.
    {
        let app = rt.attach("pre").expect("attach before shutdown works");
        let t = app.spawn(|_| {});
        t.wait().unwrap();
        t.destroy();
    }
    rt.shutdown();
    assert_eq!(rt.attach("late").err(), Some(NosvError::ShutdownInProgress));
    // Shutdown is idempotent.
    rt.shutdown();
}

#[test]
fn submit_racing_shutdown_is_an_error_not_a_hang() {
    // A task created but submitted only after every worker exited would
    // hang forever if submission succeeded; it must fail fast instead.
    let rt = Runtime::builder().cpus(1).build().expect("valid");
    let app = rt.attach("racer").expect("attach");
    let t = app.create_task(|_| {});
    rt.shutdown();
    assert_eq!(t.submit(), Err(NosvError::ShutdownInProgress));
    t.destroy();
}

#[test]
fn task_builder_without_body_is_an_error() {
    let rt = Runtime::builder().cpus(1).build().expect("valid");
    let app = rt.attach("bodyless").expect("attach");
    assert_eq!(
        app.build_task(TaskBuilder::new().priority(3)).err(),
        Some(NosvError::MissingTaskBody)
    );
    drop(app);
    rt.shutdown();
}

#[test]
fn out_of_range_affinities_are_errors() {
    let rt = Runtime::builder().cpus(2).numa(1).build().expect("valid");
    let app = rt.attach("affinity").expect("attach");
    let core = app.build_task(
        TaskBuilder::new()
            .affinity(Affinity::Core {
                index: 7,
                strict: true,
            })
            .run(|_| {}),
    );
    assert!(matches!(
        core.err(),
        Some(NosvError::InvalidAffinity { .. })
    ));
    let numa = app.build_task(
        TaskBuilder::new()
            .affinity(Affinity::Numa {
                index: 5,
                strict: false,
            })
            .run(|_| {}),
    );
    assert!(matches!(
        numa.err(),
        Some(NosvError::InvalidAffinity { .. })
    ));
    // In-range affinities still work.
    let ok = app
        .build_task(
            TaskBuilder::new()
                .affinity(Affinity::Core {
                    index: 1,
                    strict: false,
                })
                .run(|_| {}),
        )
        .expect("valid affinity");
    ok.submit().expect("submit");
    ok.wait().unwrap();
    ok.destroy();
    drop(app);
    rt.shutdown();
}

#[test]
fn double_submit_is_an_invalid_state_error() {
    let rt = Runtime::builder().cpus(1).build().expect("valid");
    let app = rt.attach("double").expect("attach");
    // Park a blocker so the second submit observes the task still Ready.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let blocker = app.create_task(move |_| {
        rx.recv().unwrap();
    });
    blocker.submit().expect("submit blocker");
    let t = app.create_task(|_| {});
    t.submit().expect("first submit");
    assert!(matches!(
        t.submit(),
        Err(NosvError::InvalidTaskState {
            operation: "submit",
            ..
        })
    ));
    tx.send(()).unwrap();
    blocker.wait().unwrap();
    t.wait().unwrap();
    blocker.destroy();
    t.destroy();
    drop(app);
    rt.shutdown();
}

#[test]
fn detached_process_cannot_build_tasks() {
    let rt = Runtime::builder().cpus(1).build().expect("valid");
    let app = rt.attach("detacher").expect("attach");
    let t = app.spawn(|_| {});
    t.wait().unwrap();
    t.destroy();
    app.detach().expect("no tasks queued: detach succeeds");
    assert_eq!(
        app.build_task(TaskBuilder::new().run(|_| {})).err(),
        Some(NosvError::ProcessDetached)
    );
    // A fresh attachment keeps working while the runtime lives on.
    let fresh = rt.attach("fresh").expect("attach again");
    let ok = fresh
        .build_task(TaskBuilder::new().run(|_| {}))
        .expect("fresh context builds");
    ok.destroy();
    drop((app, fresh));
    rt.shutdown();
}

#[test]
fn custom_policy_drives_the_live_runtime() {
    // A policy with a microscopic quantum must force quantum switches
    // between two busy processes — plugged in through the builder, the
    // same trait the simulator consumes.
    let rt = Runtime::builder()
        .cpus(2)
        .policy(QuantumPolicy::new(50_000))
        .build()
        .expect("valid");
    let a = rt.attach("a").expect("attach");
    let b = rt.attach("b").expect("attach");
    let done = Arc::new(AtomicUsize::new(0));
    let mut tasks = Vec::new();
    for _ in 0..200 {
        for app in [&a, &b] {
            let d = Arc::clone(&done);
            let t = app.create_task(move |_| {
                let t0 = std::time::Instant::now();
                while t0.elapsed().as_micros() < 20 {
                    std::hint::spin_loop();
                }
                d.fetch_add(1, Ordering::Relaxed);
            });
            t.submit().expect("submit");
            tasks.push(t);
        }
    }
    for t in &tasks {
        t.wait().unwrap();
    }
    assert_eq!(done.load(Ordering::Relaxed), 400);
    assert!(
        rt.stats().quantum_switches > 0,
        "tiny custom quantum must force switches: {:?}",
        rt.stats()
    );
    for t in tasks {
        t.destroy();
    }
    drop((a, b));
    rt.shutdown();
}

#[test]
fn task_panic_fails_only_that_task() {
    let rt = Runtime::builder().cpus(2).build().expect("valid");
    let app = rt.attach("panicky").expect("attach");
    let bad = app.spawn(|_| panic!("boom (expected: this test panics a task body)"));
    let done = Arc::new(AtomicUsize::new(0));
    let mut good = Vec::new();
    for _ in 0..16 {
        let d = Arc::clone(&done);
        good.push(app.spawn(move |_| {
            d.fetch_add(1, Ordering::Relaxed);
        }));
    }
    assert_eq!(bad.wait(), Err(NosvError::TaskPanicked));
    for t in &good {
        assert_eq!(t.wait(), Ok(()));
    }
    assert_eq!(done.load(Ordering::Relaxed), 16);
    assert_eq!(rt.stats().task_panics, 1);
    // A panicked task still completed: its descriptor is reclaimable.
    bad.destroy();
    for t in good {
        t.destroy();
    }
    drop(app);
    rt.shutdown();
}

#[test]
fn batch_member_panic_fails_the_batch_but_runs_every_member() {
    let rt = Runtime::builder().cpus(2).build().expect("valid");
    let app = rt.attach("batch-panic").expect("attach");
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    let batch = app
        .submit_all(TaskBatch::new(8).run(move |ctx| {
            r.fetch_add(1, Ordering::Relaxed);
            if ctx.metadata() == 3 {
                panic!("boom (expected: this test panics one batch member)");
            }
        }))
        .expect("submit");
    assert_eq!(batch.wait(), Err(NosvError::TaskPanicked));
    assert_eq!(ran.load(Ordering::Relaxed), 8);
    assert_eq!(rt.stats().task_panics, 1);
    drop(app);
    rt.shutdown();
}

#[test]
fn cooperative_wait_on_panicked_task_reports_the_failure() {
    // wait() from inside another task takes the cooperative (pull-while-
    // waiting) path; the panic must surface there too.
    let rt = Runtime::builder().cpus(2).build().expect("valid");
    let app = rt.attach("coop-panic").expect("attach");
    let bad = app.spawn(|_| panic!("boom (expected: this test panics a task body)"));
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = app.spawn(move |_| {
        tx.send(bad.wait()).unwrap();
        bad.destroy();
    });
    assert_eq!(rx.recv().unwrap(), Err(NosvError::TaskPanicked));
    waiter.wait().unwrap();
    waiter.destroy();
    drop(app);
    rt.shutdown();
}

#[test]
fn wait_timeout_without_a_representable_deadline_waits_to_completion() {
    // `Instant::now() + Duration::MAX` overflows; such a timeout means
    // "no deadline" on both handle kinds.
    let rt = Runtime::builder().cpus(2).build().expect("valid");
    let app = rt.attach("max-timeout").expect("attach");
    let t = app.spawn(|_| {});
    assert_eq!(t.wait_timeout(std::time::Duration::MAX), Ok(()));
    t.destroy();
    let batch = app
        .submit_all(TaskBatch::new(4).run(|_| {}))
        .expect("submit");
    assert_eq!(batch.wait_timeout(std::time::Duration::MAX), Ok(()));
    drop(app);
    rt.shutdown();
}

#[test]
fn in_task_wait_racing_completion_resumes_exactly_once() {
    // The target is submitted just before the waiter, so on two CPUs its
    // completion lands while the waiter registers (or is about to pause).
    // Whichever side wins, the waiter must resume exactly once: a lost
    // resubmission hangs the external wait, a doubled one runs the tail
    // twice or fails the resubmission.
    const ROUNDS: usize = 500;
    let rt = Runtime::builder().cpus(2).build().expect("valid");
    let app = rt.attach("in-task-race").expect("attach");
    let resumed = Arc::new(AtomicUsize::new(0));
    for round in 0..ROUNDS {
        let target = app.create_task(|_| {});
        let r = Arc::clone(&resumed);
        let (target_tx, target_rx) = std::sync::mpsc::channel::<TaskHandle>();
        let waiter = app.create_task(move |_| {
            let target = target_rx.recv().unwrap();
            target.wait().unwrap();
            r.fetch_add(1, Ordering::SeqCst);
            target.destroy();
        });
        waiter.submit().expect("submit waiter");
        target.submit().expect("submit target");
        target_tx.send(target).unwrap();
        assert_eq!(
            waiter.wait_timeout(std::time::Duration::from_secs(30)),
            Ok(()),
            "round {round}: the waiter never resumed"
        );
        assert_eq!(resumed.load(Ordering::SeqCst), round + 1, "round {round}");
        waiter.destroy();
    }
    drop(app);
    rt.shutdown();
}
