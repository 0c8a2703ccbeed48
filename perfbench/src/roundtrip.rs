//! `serial_roundtrip`: a closed loop with one client and one task in
//! flight (create → submit → wait → destroy).
//!
//! Between requests the client thinks for a seeded time: three in four
//! think times are shorter than the standby spinner's window (a worker is
//! still spinning when the next task arrives: the claim-slot path) and one
//! in four is longer (every worker has parked: the wake path), so the
//! median falls on the first path and the tail on the second. The two
//! classes are also reported apart. Each block of round trips runs on a fresh
//! runtime; every task writes a value the client checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv::{MemorySink, TaskBuilder};

use crate::digest::LiveDigest;
use crate::spans::{self, Tracer};
use crate::{
    cpus, median, put, quantile, ratio, secs, setup_runtime, Outcome, Rng, RunConfig, SetupLog,
    Size, Tally,
};

/// Shape of the loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizes {
    /// Round trips per block (one runtime per block).
    pub(crate) block: usize,
    /// Leading round trips of a block left out of the latencies (the
    /// runtime's workers are still starting).
    pub(crate) warmup: usize,
    /// Short think times are drawn from this range, µs.
    pub(crate) short_us: (u64, u64),
    /// Long think times are drawn from this range, µs.
    pub(crate) long_us: (u64, u64),
}

/// The sizes for `size`.
pub(crate) fn sizes(size: Size) -> Sizes {
    Sizes {
        block: match size {
            Size::Full => 5000,
            Size::Tiny => 200,
        },
        warmup: 20,
        short_us: (1, 10),
        long_us: (200, 400),
    }
}

#[derive(Default)]
struct Ctx {
    tally: Tally,
    setups: SetupLog,
    /// Untraced latencies, s, after short and after long think times.
    warm: Vec<f64>,
    cold: Vec<f64>,
    traced: Vec<f64>,
    digest: LiveDigest,
    traced_tasks: usize,
}

/// Runs the workload.
pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let s = sizes(cfg.size);
    let mut rng = Rng::new(cfg.seed, 3);
    let tracer = Tracer::new();
    let mut ctx = Ctx::default();
    crate::repeat(cfg.budget, crate::min_iterations(cfg), |i| {
        let trace = (cfg.traced && i == 1).then_some(&tracer);
        block(&mut ctx, &s, &mut rng, trace, i);
    });

    let mut out = Outcome::default();
    out.gate(&ctx.setups.total_s, &ctx.warm, &ctx.cold);
    let mut all: Vec<f64> = ctx.warm.iter().chain(&ctx.cold).copied().collect();
    let m = &mut out.named;
    put(m, "setup_s", median(&ctx.setups.total_s), "s");
    put(m, "roundtrip_p50_us", quantile(&mut all, 0.5) * 1e6, "us");
    put(m, "roundtrip_p99_us", quantile(&mut all, 0.99) * 1e6, "us");
    put(m, "roundtrip_warm_p50_us", median(&ctx.warm) * 1e6, "us");
    put(m, "roundtrip_cold_p50_us", median(&ctx.cold) * 1e6, "us");
    put(m, "samples", all.len() as f64, "count");

    if cfg.traced {
        let spans = tracer.into_spans();
        let l = &mut out.layers;
        ctx.setups.fill(l);
        ctx.digest.fill(l);
        crate::fill_task_calls(l, &spans, ctx.traced_tasks);
        put(
            l,
            "obs.trace_overhead_ratio",
            ratio(median(&ctx.traced), median(&all)),
            "x",
        );
        crate::fill_self_times(l, &spans);
        out.spans = spans;
    }
    out.tally = ctx.tally;
    out
}

/// Spins until `d` has passed (the client's think time).
fn think(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// One block of round trips on a fresh runtime.
fn block(ctx: &mut Ctx, s: &Sizes, rng: &mut Rng, tracer: Option<&Tracer>, iter: u64) {
    let root = tracer.map(|t| t.open("bench.pass", None, iter));
    let sink = tracer.map(|_| Arc::new(MemorySink::new()));
    let tally = &mut ctx.tally;
    let Some(setup) = setup_runtime(&["client"], sink.as_ref(), tracer, root, tally) else {
        return;
    };
    ctx.setups.record(&setup);
    let app = &setup.apps[0];
    let slot = Arc::new(AtomicU64::new(0));
    let t_block = Instant::now();
    for i in 0..s.block {
        let long = rng.next_u64().is_multiple_of(4);
        let (lo, hi) = if long { s.long_us } else { s.short_us };
        think(Duration::from_micros(rng.range(lo, hi)));
        let req = iter * s.block as u64 + i as u64;
        let token = req.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let t = Instant::now();
        let body = {
            let slot = Arc::clone(&slot);
            TaskBuilder::new().run(move |_| slot.store(token, Ordering::Relaxed))
        };
        let built = spans::maybe(tracer, "task.create", root, req, || app.build_task(body));
        let Some(h) = tally.op("build_task", built) else {
            continue;
        };
        let submitted = spans::maybe(tracer, "task.submit", root, req, || h.submit());
        if tally.op("submit", submitted).is_some() {
            let r = spans::maybe(tracer, "task.wait", root, req, || h.wait());
            tally.op("wait", r);
        }
        spans::maybe(tracer, "task.destroy", root, req, || h.destroy());
        let lat = secs(t.elapsed());
        let got = slot.load(Ordering::Relaxed);
        tally.check(got == token, || {
            format!("round trip {req} read {got:#x}, want {token:#x}")
        });
        if i < s.warmup {
            continue;
        }
        match (tracer, long) {
            (Some(_), _) => ctx.traced.push(lat),
            (None, false) => ctx.warm.push(lat),
            (None, true) => ctx.cold.push(lat),
        }
    }
    let wall = t_block.elapsed();
    let stats = setup.finish(tally);
    if let Some(id) = root {
        tracer.expect("root implies tracer").close(id);
    }
    if let Some(sink) = sink {
        ctx.traced_tasks += s.block;
        ctx.digest
            .add_pass(sink.take(), stats, cpus(), wall.as_nanos() as f64);
    }
}
