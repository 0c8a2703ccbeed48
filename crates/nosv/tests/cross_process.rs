//! True cross-OS-process co-execution over a named segment: join
//! handshake, guest submission, and crash reclaim after a SIGKILL.
//!
//! Each host test re-invokes this very test binary as the guest process
//! (filtered to [`guest_mode_entry`]), so no separate guest artifact is
//! needed. Everything is gated on [`nosv_shmem::os_backing_available`]:
//! in sandboxes without memfd/shm the tests pass vacuously.

#![cfg(unix)]

use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv::prelude::*;

/// Kernel id both sides agree on out of band.
const KERNEL: u64 = 7;

fn seg_name(tag: &str) -> String {
    format!("nosv-test-{tag}-{}", std::process::id())
}

/// When `NOSV_GUEST_SEG` is set this test *is* the guest process; without
/// it (a normal test run) it is a no-op.
#[test]
fn guest_mode_entry() {
    let Ok(name) = std::env::var("NOSV_GUEST_SEG") else {
        return;
    };
    let guest = Runtime::join(&name).expect("guest join failed");
    match std::env::var("NOSV_GUEST_MODE").as_deref() {
        Ok("clean") => {
            for i in 0..50 {
                guest.submit(KERNEL, i).expect("guest submit failed");
            }
            guest
                .wait_idle(Duration::from_secs(30))
                .expect("guest tasks never completed");
            guest.detach().expect("clean detach failed");
        }
        Ok("flood") => {
            // Queue far more work than the host's single slow core can
            // drain, then park until the host SIGKILLs us. submit() may
            // time out once the rings and queues are saturated — that is
            // the point; everything queued so far is the reclaim corpus.
            for i in 0..400 {
                if guest.submit(KERNEL, i).is_err() {
                    break;
                }
            }
            loop {
                std::thread::sleep(Duration::from_secs(1));
            }
        }
        mode => panic!("unknown NOSV_GUEST_MODE {mode:?}"),
    }
}

fn spawn_guest(name: &str, mode: &str) -> Child {
    Command::new(std::env::current_exe().expect("no current exe"))
        .args(["guest_mode_entry", "--exact", "--test-threads=1"])
        .env("NOSV_GUEST_SEG", name)
        .env("NOSV_GUEST_MODE", mode)
        .stdout(Stdio::null())
        .spawn()
        .expect("failed to spawn guest process")
}

#[test]
fn guest_co_executes_over_named_segment() {
    if !nosv_shmem::os_backing_available() {
        eprintln!("skipping: no OS shared-memory backing in this environment");
        return;
    }
    let name = seg_name("clean");
    let sink = Arc::new(MemorySink::new());
    let rt = Runtime::builder()
        .cpus(2)
        .segment_name(name.as_str())
        .sink(sink.clone())
        .build()
        .expect("host build failed");
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    rt.register_kernel(KERNEL, move |_arg| {
        h.fetch_add(1, Ordering::Relaxed);
    });
    // Attaching starts the workers that will execute the guest's tasks.
    let app = rt.attach("host-app").expect("host attach failed");
    let mut child = spawn_guest(&name, "clean");
    // The host co-executes its own (closure-based) tasks concurrently.
    let mine = app.spawn(|_| {});
    mine.wait().unwrap();
    mine.destroy();
    let status = child.wait().expect("guest wait failed");
    assert!(status.success(), "guest process failed: {status}");
    // The guest wait_idle'd before exiting, so all 50 kernels have run.
    assert_eq!(hits.load(Ordering::Relaxed), 50);
    // Guest submissions happen in the guest and never touch the host's
    // counters: all 51 tasks count as executed, only the host's one as
    // submitted (and only it took a host submission path).
    let stats = rt.stats();
    assert_eq!(stats.tasks_submitted, 1);
    assert_eq!(stats.tasks_executed, stats.tasks_submitted + 50);
    assert_eq!(
        stats.ring_submits + stats.locked_submits + stats.direct_dispatches,
        stats.tasks_submitted
    );
    drop(app);
    rt.shutdown();
    // The guest's tenant lifetime is visible in the trace: an Attach and
    // a Detach, both carrying its OS pid.
    let guest_os_pid = child.id() as u64;
    let events = sink.take_sorted();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, ObsKind::Attach) && e.pid == guest_os_pid));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, ObsKind::Detach) && e.pid == guest_os_pid));
}

#[test]
fn killed_guest_is_reclaimed_and_segment_torn_down() {
    if !nosv_shmem::os_backing_available() {
        eprintln!("skipping: no OS shared-memory backing in this environment");
        return;
    }
    let name = seg_name("kill");
    let sink = Arc::new(MemorySink::new());
    let rt = Runtime::builder()
        .cpus(1)
        .segment_name(name.as_str())
        .sink(sink.clone())
        .build()
        .expect("host build failed");
    // A deliberately slow kernel: the single core cannot drain the flood,
    // so a SIGKILL mid-stream strands hundreds of queued descriptors.
    rt.register_kernel(KERNEL, |_arg| std::thread::sleep(Duration::from_millis(1)));
    let app = rt.attach("host-app").expect("host attach failed");
    let mut child = spawn_guest(&name, "flood");
    // Wait until the guest has demonstrably joined and submitted (a
    // kernel has executed), then SIGKILL it mid-stream.
    let deadline = Instant::now() + Duration::from_secs(30);
    while rt.stats().tasks_executed == 0 {
        assert!(Instant::now() < deadline, "guest never got a task executed");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("kill failed");
    child.wait().expect("wait failed");
    // The reactor notices the dead pid and reclaims everything queued.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = rt.stats();
        if stats.crash_reclaims > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "queued tasks of the killed guest were never reclaimed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // With the dead guest's tasks reclaimed (not executed), the runtime
    // shuts down cleanly...
    let guest_os_pid = child.id() as u64;
    drop(app);
    rt.shutdown();
    drop(rt);
    // The reclaim is in the trace, attributed to the dead guest's OS pid.
    assert!(sink
        .take_sorted()
        .iter()
        .any(|e| matches!(e.kind, ObsKind::CrashReclaim) && e.pid == guest_os_pid));
    // ...and the discovery link is gone: nothing of the segment leaked.
    let link = std::env::temp_dir().join(format!("nosv-seg-{name}"));
    assert!(
        !link.exists(),
        "segment link file {} leaked",
        link.display()
    );
}
