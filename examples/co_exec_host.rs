//! Cross-OS-process co-execution, host side.
//!
//! Creates a runtime over a *named* OS-shared segment, registers the
//! kernels guests may invoke, spawns the `co_exec_guest` example as a
//! real child OS process, and co-executes its own tasks while the guest
//! submits into the same scheduler. Build both sides first:
//!
//! ```text
//! cargo build --examples
//! cargo run --example co_exec_host
//! ```
//!
//! (The host finds the guest binary next to its own executable.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nosv::prelude::*;

fn main() {
    if !nosv_shmem::os_backing_available() {
        eprintln!("no OS shared-memory backing (memfd/shm) available; skipping demo");
        return;
    }
    let name = format!("nosv-demo-{}", std::process::id());
    let rt = Runtime::builder()
        .cpus(2)
        .segment_name(name.as_str())
        .build()
        .expect("host runtime");

    // Guests describe tasks as (kernel id, u64 argument); the closures
    // themselves live here, on the host.
    let guest_work = Arc::new(AtomicU64::new(0));
    let acc = Arc::clone(&guest_work);
    rt.register_kernel(1, move |arg| {
        acc.fetch_add(arg, Ordering::Relaxed);
    });

    // Attaching the host application starts the workers — they execute
    // both sides' tasks.
    let app = rt.attach("host-app").expect("attach");

    let guest_bin = std::env::current_exe()
        .expect("current exe")
        .with_file_name("co_exec_guest");
    let mut child = std::process::Command::new(&guest_bin)
        .arg(&name)
        .spawn()
        .unwrap_or_else(|e| {
            panic!(
                "spawn {}: {e} (build with `cargo build --examples`)",
                guest_bin.display()
            )
        });

    // Host work, interleaved with the guest's submissions on the same cores.
    let host_work = Arc::new(AtomicU64::new(0));
    let tasks: Vec<_> = (0..64)
        .map(|_| {
            let acc = Arc::clone(&host_work);
            app.spawn(move |_| {
                acc.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for t in tasks {
        t.wait().unwrap();
        t.destroy();
    }

    let status = child.wait().expect("guest wait");
    assert!(status.success(), "guest failed: {status}");

    let stats = rt.stats();
    println!(
        "host tasks executed : {}",
        host_work.load(Ordering::Relaxed)
    );
    println!(
        "guest kernel sum    : {}",
        guest_work.load(Ordering::Relaxed)
    );
    println!("total tasks executed: {}", stats.tasks_executed);
    println!("crash reclaims      : {}", stats.crash_reclaims);
    drop(app);
    rt.shutdown();
}
