//! Crash-point kill matrix: a real guest process is steered onto each
//! named crash point (`NOSV_CRASH_POINT`, see `nosv_sync::hint::crash_point`)
//! and aborted there — no unwinding, no destructors, exactly like a
//! SIGKILL mid-protocol. After every death the host must repair whatever
//! the corpse left half-written: free the registry slot, retire stranded
//! ring state, settle the ready counters, and keep executing its own
//! work. A fresh guest then joins the same segment to prove the slot and
//! rings are genuinely reusable, not merely quiescent.
//!
//! Build with `--features chaos` (the facade is a no-op otherwise, so
//! this file compiles to nothing in default builds). Guests are this
//! same test binary re-invoked filtered to [`chaos_guest_entry`], the
//! idiom of `cross_process.rs`. Everything is gated on
//! [`nosv_shmem::os_backing_available`].
//!
//! `NOSV_CHAOS_POINTS=<name>[,<name>…]` restricts the matrix (CI shards
//! the wall clock with it); unset runs every guest-reachable point.

#![cfg(all(unix, feature = "chaos"))]

use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv::prelude::*;

/// Kernel id both sides agree on out of band.
const KERNEL: u64 = 9;

/// Every crash point a *guest* process can reach: the join/attach path
/// (`registry.*`, `ipc.*`) and the submission path (`sched.*`, `ring.push`,
/// `ring.lane`). The host-only points (`ring.push_n.*` batch submission)
/// are exercised by the model suites instead — killing the host is the
/// guests' problem, covered by the host-death probes in `ipc.rs` tests.
/// The scheduler's delegation locks have no crash points: they live in
/// the host's heap, out of every guest's reach.
const GUEST_POINTS: &[&str] = &[
    "registry.claim.won",
    "registry.record.published",
    "ipc.join.requested",
    "sched.guest_submit.counted",
    "ring.push.reserved",
    "ring.lane.unmarked",
];

fn seg_name(tag: &str) -> String {
    format!("nosv-chaos-{tag}-{}", std::process::id())
}

/// When `NOSV_GUEST_SEG` is set this test *is* the guest process; a
/// normal test run makes it a no-op.
///
/// Mode `crash`: join and submit a handful of tasks with a crash point
/// armed in the environment — the abort fires mid-protocol. Reaching the
/// final `exit(0)` means the armed point is *not* on the executed path,
/// which the host asserts against: a crash point nothing can reach is a
/// lint fixture lying about coverage.
///
/// Mode `verify`: a clean join/submit/wait_idle/detach cycle over the
/// same segment a corpse was just reclaimed from.
#[test]
fn chaos_guest_entry() {
    let Ok(name) = std::env::var("NOSV_GUEST_SEG") else {
        return;
    };
    match std::env::var("NOSV_GUEST_MODE").as_deref() {
        Ok("crash") => {
            let guest = Runtime::join(&name).expect("guest join failed");
            for i in 0..8 {
                // Full rings are fine here; the armed point fires on the
                // first submission that reaches it.
                let _ = guest.submit(KERNEL, i);
            }
            // Armed point never fired: exit cleanly so the host's
            // "guest must have aborted" assertion trips.
        }
        Ok("verify") => {
            let guest = Runtime::join(&name).expect("verify join failed");
            for i in 0..20 {
                guest.submit(KERNEL, i).expect("verify submit failed");
            }
            guest
                .wait_idle(Duration::from_secs(30))
                .expect("verify tasks never completed");
            guest.detach().expect("verify detach failed");
        }
        mode => panic!("unknown NOSV_GUEST_MODE {mode:?}"),
    }
}

fn spawn_guest(name: &str, mode: &str, crash_point: Option<&str>) -> Child {
    let mut cmd = Command::new(std::env::current_exe().expect("no current exe"));
    cmd.args(["chaos_guest_entry", "--exact", "--test-threads=1"])
        .env("NOSV_GUEST_SEG", name)
        .env("NOSV_GUEST_MODE", mode)
        // Keep a wedged guest from serving out the full default timeouts.
        .env("NOSV_IPC_JOIN_TIMEOUT_MS", "5000")
        .env("NOSV_IPC_SUBMIT_TIMEOUT_MS", "2000")
        .env_remove("NOSV_CRASH_POINT")
        .stdout(Stdio::null());
    if let Some(point) = crash_point {
        cmd.env("NOSV_CRASH_POINT", point);
    }
    cmd.spawn().expect("failed to spawn guest process")
}

/// Polls `f` until it returns true or `secs` elapse; panics with `what`
/// on timeout.
fn await_true(secs: u64, what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !f() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn kill_matrix_every_guest_crash_point_recovers() {
    if !nosv_shmem::os_backing_available() {
        eprintln!("skipping: no OS shared-memory backing in this environment");
        return;
    }
    let filter = std::env::var("NOSV_CHAOS_POINTS").ok();
    let selected: Vec<&str> = match &filter {
        Some(list) => GUEST_POINTS
            .iter()
            .copied()
            .filter(|p| list.split(',').any(|f| f.trim() == *p))
            .collect(),
        None => GUEST_POINTS.to_vec(),
    };
    assert!(
        !selected.is_empty(),
        "NOSV_CHAOS_POINTS={filter:?} matches no guest-reachable point"
    );
    for (i, point) in selected.iter().enumerate() {
        eprintln!("chaos [{}/{}] {point}", i + 1, selected.len());
        run_point(point);
    }
}

/// One cell of the kill matrix: host up → guest aborted on `point` →
/// corpse reclaimed → host still schedules → fresh guest joins the same
/// segment and completes a clean cycle.
fn run_point(point: &str) {
    let name = seg_name(&point.replace('.', "-"));
    let sink = Arc::new(MemorySink::new());
    let rt = Runtime::builder()
        .cpus(2)
        .segment_name(name.as_str())
        // Also the half-open tolerance: a corpse with no os_pid on record
        // (died at `registry.claim.won`) frees only after this elapses.
        .join_timeout(Duration::from_millis(300))
        .sink(sink.clone())
        .build()
        .expect("host build failed");
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    rt.register_kernel(KERNEL, move |_arg| {
        h.fetch_add(1, Ordering::Relaxed);
    });
    let app = rt.attach("chaos-host").expect("host attach failed");

    let mut child = spawn_guest(&name, "crash", Some(point));
    let status = child.wait().expect("crash guest wait failed");
    assert!(
        !status.success(),
        "{point}: guest exited cleanly — the armed crash point was never \
         reached, so it guards nothing on the guest path"
    );

    // The reactor must notice the corpse and repair the slot. Every shape
    // ends in a CrashReclaim event: probed os_pid death, the half-open
    // join-timeout bound, or a dead Active guest.
    let mut events = Vec::new();
    await_true(30, &format!("{point}: corpse never reclaimed"), || {
        events.extend(sink.take_sorted());
        events
            .iter()
            .any(|e| matches!(e.kind, ObsKind::CrashReclaim))
    });

    // Point-specific residue: a reserved-unpublished ring slot must have
    // been retired through the stranded-slot sweep, not silently leaked.
    if point == "ring.push.reserved" {
        assert!(
            rt.stats().stranded_slot_repairs >= 1,
            "{point}: no stranded-slot repair recorded: {:?}",
            rt.stats()
        );
    }

    // The host keeps doing its own work over the repaired state.
    let mine = app.spawn(|_| {});
    assert_eq!(mine.wait(), Ok(()));
    mine.destroy();

    // And the segment is genuinely reusable: a fresh guest joins, submits
    // through the same rings, and detaches cleanly.
    let before = hits.load(Ordering::Relaxed);
    let mut verifier = spawn_guest(&name, "verify", None);
    let status = verifier.wait().expect("verify guest wait failed");
    assert!(status.success(), "{point}: clean re-join failed: {status}");
    assert_eq!(
        hits.load(Ordering::Relaxed) - before,
        20,
        "{point}: re-joined guest's kernels did not all run"
    );

    drop(app);
    rt.shutdown();
}
