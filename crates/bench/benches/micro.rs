//! Microbenchmarks and design-choice ablations (criterion-free harness).
//!
//! * `dtlock` — the Delegation Ticket Lock against a plain ticket lock and
//!   `std::sync::Mutex` under producer/consumer contention (§3.4's
//!   "state-of-the-art performance" claim for the scheduler lock).
//! * `shmem_alloc` — the in-segment SLAB allocator against the system
//!   allocator, including the cross-process free path (§3.5's
//!   "competitive with other memory allocators").
//! * `task_lifecycle` — `nosv_create`+`submit`+run+`destroy` end-to-end
//!   latency (the overhead Fig. 5's small-granularity points stress).
//! * `quantum` — scheduler ablation: context-switch count as a function of
//!   the process quantum (the §3.4 fairness/locality trade-off).
//!
//! Run with: `cargo bench -p bench --bench micro`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nosv::prelude::*;
use nosv_shmem::{SegmentConfig, ShmSegment};
use nosv_sync::{Acquired, Backoff, DtLock, Padded};

/// The DTLock rows' no-delegation comparator: a minimal FIFO ticket lock.
/// Threads take a ticket and back off until `serving` reaches it; the two
/// counters sit on separate cache lines, so taking a ticket does not
/// invalidate the line the waiters spin on.
#[derive(Default)]
struct TicketLock {
    next: Padded<AtomicU64>,
    serving: Padded<AtomicU64>,
}

impl TicketLock {
    /// Runs `f` holding the lock, in arrival order.
    fn with(&self, f: impl FnOnce()) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new();
        while self.serving.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
        f();
        self.serving.store(ticket + 1, Ordering::Release);
    }
}

/// The critical section the ticket rows time: a plain read-modify-write
/// of the protected counter (the lock, not the cell, orders it).
fn bump(count: &AtomicU64) {
    count.store(count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Times `op` over enough iterations for a stable per-op estimate and
/// prints nanoseconds per operation.
fn report(name: &str, mut op: impl FnMut()) {
    // Warm up, then scale the iteration count to ~50 ms of work.
    let t0 = Instant::now();
    let mut probe = 0u64;
    while t0.elapsed().as_millis() < 5 {
        op();
        probe += 1;
    }
    let per_op = t0.elapsed().as_nanos() as f64 / probe as f64;
    let iters = ((50_000_000.0 / per_op.max(1.0)) as u64).clamp(10, 10_000_000);
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    println!("  {name:<28} {ns:>12.1} ns/op   ({iters} iters)");
}

/// Times a closure that runs `iters` operations across its own threads.
fn report_threaded(name: &str, iters: u64, run: impl Fn(u64) -> std::time::Duration) {
    let elapsed = run(iters);
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("  {name:<28} {ns:>12.1} ns/op   ({iters} iters x threads)");
}

fn bench_locks() {
    println!("\n-- dtlock: scheduler-lock candidates --");

    // Uncontended acquire/release round-trips.
    let dt: DtLock<u64, u64> = DtLock::new(0, 8);
    report("dtlock_uncontended", || match dt.acquire(0) {
        Acquired::Holder(mut guard) => {
            *guard += 1;
        }
        Acquired::Served(_) => unreachable!(),
    });

    let ticket = TicketLock::default();
    let count = AtomicU64::new(0);
    report("ticket_uncontended", || ticket.with(|| bump(&count)));

    let mutex = std::sync::Mutex::new(0u64);
    report("std_mutex_uncontended", || {
        *mutex.lock().unwrap() += 1;
    });

    // Contended: 3 threads hammer a shared counter through each lock.
    report_threaded("dtlock_contended_3t", 200_000, |iters| {
        let lock: Arc<DtLock<u64, u64>> = Arc::new(DtLock::new(0, 8));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let lock = Arc::clone(&lock);
                s.spawn(move || {
                    for _ in 0..iters {
                        match lock.acquire(0) {
                            Acquired::Holder(mut g) => *g += 1,
                            Acquired::Served(_) => {}
                        }
                    }
                });
            }
        });
        start.elapsed()
    });
    report_threaded("ticket_contended_3t", 200_000, |iters| {
        let (lock, count) = (TicketLock::default(), AtomicU64::new(0));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..iters {
                        lock.with(|| bump(&count));
                    }
                });
            }
        });
        start.elapsed()
    });
}

fn bench_shmem_alloc() {
    println!("\n-- shmem_alloc: SLAB vs system allocator --");
    let seg = ShmSegment::create(SegmentConfig {
        size: 32 * 1024 * 1024,
        max_cpus: 4,
    });
    for size in [64usize, 512, 4096] {
        report(&format!("slab_{size}"), || {
            let off = seg.alloc(size, 0).expect("space");
            seg.free(off, 0);
        });
        report(&format!("system_{size}"), || {
            let v = vec![0u8; size];
            std::hint::black_box(&v);
        });
    }
    // Cross-"process" free: allocated on cpu 0 / freed through another
    // mapping on cpu 3 — the property ordinary allocators lack.
    let seg2 = seg.clone();
    report("slab_cross_process_free", || {
        let off = seg.alloc(256, 0).expect("space");
        seg2.free(off, 3);
    });
}

fn bench_task_lifecycle() {
    println!("\n-- task_lifecycle: nosv_create..nosv_destroy --");
    let rt = Runtime::builder().cpus(2).build().expect("valid");
    let app = rt.attach("bench").expect("attach");
    report("create_submit_run_destroy", || {
        let t = app.create_task(|_| {});
        t.submit().expect("fresh submit");
        t.wait().unwrap();
        t.destroy();
    });
    report("create_destroy_only", || {
        let t = app.create_task(|_| {});
        t.destroy();
    });
    drop(app);
    rt.shutdown();
}

fn bench_quantum_ablation() {
    use simnode::{AffinityMode, NodeSpec, RuntimeMode, SimOptions};
    use workloads::{benchmark, Benchmark};

    let node = NodeSpec::amd_rome();
    let apps = vec![
        benchmark(Benchmark::Hpccg, 0.02),
        benchmark(Benchmark::Nbody, 0.02),
    ];
    println!("\n-- ablation: process quantum vs cross-app switches (co-execution) --");
    for quantum_ms in [1u64, 5, 20, 100] {
        let r = simnode::run_simulation(
            &node,
            &apps,
            &RuntimeMode::Nosv {
                quantum_ns: quantum_ms * 1_000_000,
                affinity: AffinityMode::Ignore,
            },
            &SimOptions::default(),
        );
        println!(
            "   quantum {quantum_ms:>4} ms: makespan {:.3} s, cross-app switches {}, quantum switches {}",
            r.makespan_ns as f64 / 1e9,
            r.stats.cross_app_switches,
            r.stats.quantum_switches
        );
    }
    // One configuration timed as a wall-clock measurement.
    let t0 = Instant::now();
    let r = simnode::run_simulation(
        &node,
        &apps,
        &RuntimeMode::Nosv {
            quantum_ns: 20_000_000,
            affinity: AffinityMode::Ignore,
        },
        &SimOptions::default(),
    );
    println!(
        "   nosv_sim_quantum20ms: simulated {:.3} s in {:.1} ms wall",
        r.makespan_ns as f64 / 1e9,
        t0.elapsed().as_secs_f64() * 1e3
    );
}

fn main() {
    println!("== microbenchmarks ==");
    bench_locks();
    bench_shmem_alloc();
    bench_task_lifecycle();
    bench_quantum_ablation();
}
