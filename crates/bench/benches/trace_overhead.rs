//! Tracing-overhead microbenchmark: the cost of the observability hot path.
//!
//! The acceptance bar of the per-worker-buffer redesign: with a sink
//! installed, the submit/start/end hot path must stay within 2x of a
//! tracing-off runtime — i.e. recording an event is a thread-local push
//! (workers) or one uncontended sink call (submitters), never a global
//! lock shared by all workers.
//!
//! Measures the full `create`+`submit`+run+`destroy` task lifecycle (the
//! path that emits Submit/Start/End) in three configurations:
//!
//! * `off`    — no sink installed (events are never constructed);
//! * `memory` — a `MemorySink`, drained periodically;
//! * `null`   — a sink that discards events (isolates the emission path
//!   from sink-side storage costs).
//!
//! Writes the results to `BENCH_trace.json` (override the path with
//! `BENCH_TRACE_OUT`) so the perf trajectory is recorded run over run,
//! stamped with the host it was measured on (`bench::host_json`).
//!
//! Run with: `cargo bench -p bench --bench trace_overhead`

use std::sync::Arc;
use std::time::Instant;

use nosv::prelude::*;

/// Runtime CPUs of every configuration.
const CPUS: usize = 2;

/// A sink that swallows events (emission-path cost only).
struct NullSink;

impl TraceSink for NullSink {
    fn on_event(&self, _ev: &ObsEvent) {}
}

/// Per-op nanoseconds of the task lifecycle on `rt`, amortized over enough
/// iterations for a stable estimate.
fn lifecycle_ns(rt: &Runtime, drain: impl Fn()) -> (f64, u64) {
    let app = rt.attach("bench").expect("attach");
    let op = || {
        let t = app.create_task(|_| {});
        t.submit().expect("fresh submit");
        t.wait().unwrap();
        t.destroy();
    };
    // Warm up and probe the per-op cost.
    let t0 = Instant::now();
    let mut probe = 0u64;
    while t0.elapsed().as_millis() < 20 {
        op();
        probe += 1;
    }
    drain();
    let per_op = t0.elapsed().as_nanos() as f64 / probe as f64;
    let iters = ((200_000_000.0 / per_op.max(1.0)) as u64).clamp(100, 1_000_000);
    let t0 = Instant::now();
    for i in 0..iters {
        op();
        if i % 4096 == 0 {
            drain(); // keep memory bounded without perturbing the loop
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    drop(app);
    (ns, iters)
}

fn main() {
    println!("== trace_overhead: observability hot-path cost ==");

    let (off_ns, off_iters) = {
        let rt = Runtime::builder().cpus(CPUS).build().expect("valid");
        let r = lifecycle_ns(&rt, || {});
        rt.shutdown();
        r
    };
    println!("  off     {off_ns:>10.1} ns/op   ({off_iters} iters)");

    let (mem_ns, mem_iters) = {
        let sink = Arc::new(MemorySink::new());
        let drain_sink = Arc::clone(&sink);
        let rt = Runtime::builder()
            .cpus(CPUS)
            .sink(sink.clone())
            .build()
            .expect("valid");
        let r = lifecycle_ns(&rt, move || {
            drain_sink.take();
        });
        rt.shutdown();
        r
    };
    println!("  memory  {mem_ns:>10.1} ns/op   ({mem_iters} iters)");

    let (null_ns, null_iters) = {
        let rt = Runtime::builder()
            .cpus(CPUS)
            .sink(Arc::new(NullSink))
            .build()
            .expect("valid");
        let r = lifecycle_ns(&rt, || {});
        rt.shutdown();
        r
    };
    println!("  null    {null_ns:>10.1} ns/op   ({null_iters} iters)");

    let ratio_mem = mem_ns / off_ns;
    let ratio_null = null_ns / off_ns;
    println!("  overhead: memory {ratio_mem:.3}x, null {ratio_null:.3}x  (bar: < 2x)");
    if ratio_mem >= 2.0 {
        println!("  WARNING: memory-sink overhead exceeds the 2x acceptance bar");
    }

    // Default to the workspace root so successive runs overwrite one
    // trajectory file regardless of the invocation directory.
    let out = std::env::var("BENCH_TRACE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json").to_string()
    });
    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"host\": {},\n  \
         \"unit\": \"ns_per_task_lifecycle\",\n  \
         \"tracing_off\": {off_ns:.1},\n  \"memory_sink\": {mem_ns:.1},\n  \
         \"null_sink\": {null_ns:.1},\n  \"overhead_ratio_memory\": {ratio_mem:.4},\n  \
         \"overhead_ratio_null\": {ratio_null:.4},\n  \"acceptance_bar\": 2.0,\n  \
         \"within_bar\": {}\n}}\n",
        bench::host_json(CPUS),
        ratio_mem < 2.0
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("  wrote {out}"),
        Err(e) => eprintln!("  failed to write {out}: {e}"),
    }
}
