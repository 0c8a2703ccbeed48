//! `task_flood`: the submission path with almost no body work.
//!
//! One producer thread submits near-empty tasks whose body lengths come
//! from the seed. Tasks alternate between two attached processes (the
//! seed picks which goes first). Each iteration runs the same inputs
//! twice, each time on a fresh runtime:
//!
//! * per task: `build_task` + `submit`, with a sliding window of handles
//!   whose head is waited on and destroyed;
//! * batched: `TaskBatch` + `submit_all` with a sliding window of batches.
//!
//! Every body adds a value derived from its index and length to a shared
//! sum, which must equal the sum computed serially.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nosv::{MemorySink, TaskBatch, TaskBuilder};

use crate::digest::LiveDigest;
use crate::spans::{self, Tracer};
use crate::{
    body_work, cpus, median, put, ratio, secs, setup_runtime, Outcome, Rng, RunConfig, SetupLog,
    Size, Tally,
};

/// Shape of one flood.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizes {
    /// Tasks per pass (a multiple of `batch`).
    pub(crate) tasks: usize,
    /// Handles in flight on the per-task path.
    pub(crate) window: usize,
    /// Tasks per `TaskBatch`.
    pub(crate) batch: usize,
    /// Batches in flight on the batched path.
    pub(crate) batch_window: usize,
    /// Body lengths are drawn from `0..max_body` mixing rounds.
    pub(crate) max_body: u64,
}

/// The sizes for `size`.
pub(crate) fn sizes(size: Size) -> Sizes {
    let tasks = match size {
        Size::Full => 400 * 256,
        Size::Tiny => 8 * 256,
    };
    Sizes {
        tasks,
        window: 64,
        batch: 256,
        batch_window: 4,
        max_body: 64,
    }
}

/// The generated inputs: body lengths, the first process, and the sum
/// the bodies must produce.
struct Inputs {
    lens: Arc<Vec<u64>>,
    first: usize,
    expected: u64,
}

fn inputs(seed: u64, s: &Sizes) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let first = (rng.next_u64() & 1) as usize;
    let lens: Vec<u64> = (0..s.tasks).map(|_| rng.range(0, s.max_body)).collect();
    let expected = lens.iter().enumerate().fold(0u64, |acc, (i, &l)| {
        acc.wrapping_add(body_work(i as u64, l))
    });
    Inputs {
        lens: Arc::new(lens),
        first,
        expected,
    }
}

#[derive(Default)]
struct Ctx {
    tally: Tally,
    setups: SetupLog,
    single: Vec<f64>,
    batched: Vec<f64>,
    traced_single: Vec<f64>,
    digest: LiveDigest,
    traced_tasks: usize,
}

/// Runs the workload.
pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let s = sizes(cfg.size);
    let inp = inputs(cfg.seed, &s);
    let tracer = Tracer::new();
    let mut ctx = Ctx::default();
    crate::repeat(cfg.budget, crate::min_iterations(cfg), |i| {
        let trace = (cfg.traced && i == 1).then_some(&tracer);
        single_pass(&mut ctx, &s, &inp, trace, i);
        batched_pass(&mut ctx, &s, &inp, trace, i);
    });

    let mut out = Outcome::default();
    out.gate(&ctx.setups.total_s, &ctx.single, &ctx.batched);
    let n = s.tasks as f64;
    let m = &mut out.named;
    put(m, "setup_s", median(&ctx.setups.total_s), "s");
    put(m, "tasks_per_s", ratio(n, median(&ctx.single)), "1/s");
    put(
        m,
        "batch_tasks_per_s",
        ratio(n, median(&ctx.batched)),
        "1/s",
    );
    put(m, "tasks_per_pass", n, "count");
    put(m, "passes", ctx.single.len() as f64, "count");

    if cfg.traced {
        let spans = tracer.into_spans();
        let l = &mut out.layers;
        ctx.setups.fill(l);
        ctx.digest.fill(l);
        crate::fill_task_calls(l, &spans, ctx.traced_tasks);
        let per_task = |name: &str| {
            let total: f64 = spans::durations_ns(&spans, name).iter().sum();
            ratio(total, ctx.traced_tasks as f64)
        };
        put(
            l,
            "batch.submit_all_ns_per_task",
            per_task("batch.submit_all"),
            "ns",
        );
        put(l, "batch.wait_ns_per_task", per_task("batch.wait"), "ns");
        put(
            l,
            "obs.trace_overhead_ratio",
            ratio(median(&ctx.traced_single), median(&ctx.single)),
            "x",
        );
        crate::fill_self_times(l, &spans);
        out.spans = spans;
    }
    out.tally = ctx.tally;
    out
}

/// One flood through `build_task` + `submit`.
fn single_pass(ctx: &mut Ctx, s: &Sizes, inp: &Inputs, tracer: Option<&Tracer>, iter: u64) {
    let root = tracer.map(|t| t.open("bench.pass", None, iter));
    let sink = tracer.map(|_| Arc::new(MemorySink::new()));
    let tally = &mut ctx.tally;
    let Some(setup) = setup_runtime(&["flood.a", "flood.b"], sink.as_ref(), tracer, root, tally)
    else {
        return;
    };
    ctx.setups.record(&setup);
    let sum = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut window = VecDeque::with_capacity(s.window);
    for i in 0..s.tasks {
        if window.len() == s.window {
            let (j, h): (u64, nosv::TaskHandle) = window.pop_front().expect("window is full");
            let r = spans::maybe(tracer, "task.wait", root, j, || h.wait());
            tally.op("wait", r);
            spans::maybe(tracer, "task.destroy", root, j, || h.destroy());
        }
        let app = &setup.apps[(i + inp.first) % 2];
        let (sum, len) = (Arc::clone(&sum), inp.lens[i]);
        let body = TaskBuilder::new().run(move |_| {
            sum.fetch_add(body_work(i as u64, len), Ordering::Relaxed);
        });
        let built = spans::maybe(tracer, "task.create", root, i as u64, || {
            app.build_task(body)
        });
        let Some(h) = tally.op("build_task", built) else {
            continue;
        };
        let r = spans::maybe(tracer, "task.submit", root, i as u64, || h.submit());
        if tally.op("submit", r).is_some() {
            window.push_back((i as u64, h));
        } else {
            h.destroy();
        }
    }
    for (j, h) in window {
        let r = spans::maybe(tracer, "task.wait", root, j, || h.wait());
        tally.op("wait", r);
        spans::maybe(tracer, "task.destroy", root, j, || h.destroy());
    }
    let wall = t0.elapsed();
    let got = sum.load(Ordering::Relaxed);
    tally.check(got == inp.expected, || {
        format!("per-task flood sum {got:#x} != {:#x}", inp.expected)
    });
    let stats = setup.finish(tally);
    if let Some(id) = root {
        tracer.expect("root implies tracer").close(id);
    }
    match sink {
        None => ctx.single.push(secs(wall)),
        Some(sink) => {
            ctx.traced_single.push(secs(wall));
            ctx.traced_tasks += s.tasks;
            ctx.digest
                .add_pass(sink.take(), stats, cpus(), wall.as_nanos() as f64);
        }
    }
}

/// The same flood through `submit_all`.
fn batched_pass(ctx: &mut Ctx, s: &Sizes, inp: &Inputs, tracer: Option<&Tracer>, iter: u64) {
    let root = tracer.map(|t| t.open("bench.pass", None, iter));
    let tally = &mut ctx.tally;
    let Some(setup) = setup_runtime(&["flood.a", "flood.b"], None, tracer, root, tally) else {
        return;
    };
    ctx.setups.record(&setup);
    let sum = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut window = VecDeque::with_capacity(s.batch_window);
    for b in 0..s.tasks / s.batch {
        if window.len() == s.batch_window {
            let (j, h): (u64, nosv::BatchHandle) = window.pop_front().expect("window is full");
            let r = spans::maybe(tracer, "batch.wait", root, j, || h.wait());
            tally.op("batch wait", r);
        }
        let app = &setup.apps[(b + inp.first) % 2];
        let (sum, lens) = (Arc::clone(&sum), Arc::clone(&inp.lens));
        let batch = TaskBatch::new(s.batch)
            .metadata((b * s.batch) as u64)
            .run(move |t| {
                let i = t.metadata();
                sum.fetch_add(body_work(i, lens[i as usize]), Ordering::Relaxed);
            });
        let submitted = spans::maybe(tracer, "batch.submit_all", root, b as u64, || {
            app.submit_all(batch)
        });
        if let Some(h) = tally.op("submit_all", submitted) {
            window.push_back((b as u64, h));
        }
    }
    for (j, h) in window {
        let r = spans::maybe(tracer, "batch.wait", root, j, || h.wait());
        tally.op("batch wait", r);
    }
    let wall = t0.elapsed();
    let got = sum.load(Ordering::Relaxed);
    tally.check(got == inp.expected, || {
        format!("batched flood sum {got:#x} != {:#x}", inp.expected)
    });
    setup.finish(tally);
    if let Some(id) = root {
        tracer.expect("root implies tracer").close(id);
    }
    if tracer.is_none() {
        ctx.batched.push(secs(wall));
    }
}
