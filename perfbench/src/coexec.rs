//! `coexec_pair`: the paper's own experiment (§5.2, Fig. 5).
//!
//! Two real `nanos` task-graph applications — a blocked Cholesky, whose
//! DAG has shrinking parallelism, and HPCCG, whose BSP phases are split by
//! serial reductions — run in three modes each iteration:
//!
//! * co-executed: both attached to one fresh `nosv::Runtime`, at once;
//! * exclusive: the same pair back to back on a fresh `nosv::Runtime`;
//! * standalone: the same pair back to back on `Backend::standalone`.
//!
//! Which application is attached, started and run first alternates
//! between iterations, starting from a seeded choice; the mode order
//! rotates between iterations. Every result is checked against the
//! sequential reference.

use std::sync::Arc;
use std::time::Instant;

use nanos::{Backend, NanosRuntime, NanosStats};
use nosv::{MemorySink, ObsKind, ProcessContext, TraceSink};
use workloads::kernels::{cholesky, hpccg, KernelRun};

use crate::digest::LiveDigest;
use crate::spans::{self, Tracer};
use crate::{
    cpus, median, put, quantile, ratio, secs, setup_runtime, Outcome, Rng, RunConfig, SetupLog,
    Size, Tally,
};

/// Relative tolerance of a checksum against its reference.
pub(crate) const CHECKSUM_TOLERANCE: f64 = 1e-9;

/// Problem sizes of the two applications.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Cholesky tiles per dimension.
    pub chol_nb: usize,
    /// Cholesky tile edge.
    pub chol_bs: usize,
    /// HPCCG unknowns.
    pub hpccg_n: usize,
    /// HPCCG chunks.
    pub hpccg_parts: usize,
    /// HPCCG iterations.
    pub hpccg_iters: usize,
}

/// The sizes for `size`.
pub fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            chol_nb: 20,
            chol_bs: 64,
            hpccg_n: 500_000,
            hpccg_parts: 32,
            hpccg_iters: 30,
        },
        Size::Tiny => Sizes {
            chol_nb: 4,
            chol_bs: 8,
            hpccg_n: 4096,
            hpccg_parts: 4,
            hpccg_iters: 3,
        },
    }
}

/// Reference checksums the three modes are checked against.
#[derive(Debug, Clone, Copy)]
pub struct Refs {
    /// Sequential dense Cholesky.
    pub cholesky: f64,
    /// Sequential CG.
    pub hpccg: f64,
}

/// Computes the references for `s` sequentially.
pub fn references(s: &Sizes) -> Refs {
    Refs {
        cholesky: cholesky::reference(s.chol_nb, s.chol_bs),
        hpccg: hpccg::reference(s.hpccg_n, s.hpccg_parts, s.hpccg_iters),
    }
}

/// Whether `a` and `b` agree to relative tolerance `rel` (the test of
/// `workloads::kernels::assert_close`, without the panic).
pub(crate) fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12) < rel
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum App {
    Cholesky,
    Hpccg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Coexec,
    Exclusive,
    Standalone,
}

const MODES: [Mode; 3] = [Mode::Coexec, Mode::Exclusive, Mode::Standalone];

impl App {
    fn name(self) -> &'static str {
        match self {
            App::Cholesky => "cholesky",
            App::Hpccg => "hpccg",
        }
    }

    fn span(self, mode: Mode) -> &'static str {
        match (self, mode) {
            (App::Cholesky, Mode::Coexec) => "nanos.cholesky.coexec",
            (App::Cholesky, Mode::Exclusive) => "nanos.cholesky.exclusive",
            (App::Cholesky, Mode::Standalone) => "nanos.cholesky.standalone",
            (App::Hpccg, Mode::Coexec) => "nanos.hpccg.coexec",
            (App::Hpccg, Mode::Exclusive) => "nanos.hpccg.exclusive",
            (App::Hpccg, Mode::Standalone) => "nanos.hpccg.standalone",
        }
    }

    fn run(self, nr: &NanosRuntime, s: &Sizes) -> KernelRun {
        match self {
            App::Cholesky => cholesky::run(nr, s.chol_nb, s.chol_bs),
            App::Hpccg => hpccg::run(nr, s.hpccg_n, s.hpccg_parts, s.hpccg_iters),
        }
    }

    fn reference(self, r: &Refs) -> f64 {
        match self {
            App::Cholesky => r.cholesky,
            App::Hpccg => r.hpccg,
        }
    }
}

/// What one application run inside a pass reports back.
struct AppRun {
    app: App,
    run: KernelRun,
    stats: NanosStats,
    events: Vec<nosv::ObsEvent>,
}

/// State shared by the passes of one run.
struct Ctx<'a> {
    s: &'a Sizes,
    refs: &'a Refs,
    tally: Tally,
    setups: SetupLog,
    /// Untraced wall times per mode.
    walls: [Vec<f64>; 3],
    traced_coexec_walls: Vec<f64>,
    digest: LiveDigest,
    nanos: NanosStats,
    spawn_to_start_us: Vec<f64>,
}

/// Runs the workload, computing the references first.
pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let s = sizes(cfg.size);
    run_with(cfg, &s, &references(&s))
}

/// Runs the workload against the given references (a wrong reference
/// shows up as failed checks, never as a panic).
pub fn run_with(cfg: &RunConfig, s: &Sizes, refs: &Refs) -> Outcome {
    let tracer = Tracer::new();
    let mut ctx = Ctx {
        s,
        refs,
        tally: Tally::default(),
        setups: SetupLog::default(),
        walls: Default::default(),
        traced_coexec_walls: Vec::new(),
        digest: LiveDigest::default(),
        nanos: NanosStats::default(),
        spawn_to_start_us: Vec::new(),
    };
    let first = Rng::new(cfg.seed, 1).next_u64() & 1;
    let iterations = crate::repeat(cfg.budget, crate::min_iterations(cfg), |i| {
        let order = if (i & 1) == first {
            [App::Cholesky, App::Hpccg]
        } else {
            [App::Hpccg, App::Cholesky]
        };
        // A traced run traces its second iteration only; the others give
        // the untraced baseline of the tracing overhead.
        let trace = (cfg.traced && i == 1).then_some(&tracer);
        for k in 0..MODES.len() {
            let mode = MODES[(i as usize + k) % MODES.len()];
            pass(&mut ctx, mode, order, trace, i);
        }
    });

    let mut out = Outcome::default();
    let [co, ex, sa] = &ctx.walls;
    out.gate(&ctx.setups.total_s, co, ex);
    let m = &mut out.named;
    put(m, "setup_s", median(&ctx.setups.total_s), "s");
    put(m, "makespan_s", median(co), "s");
    put(m, "exclusive_makespan_s", median(ex), "s");
    put(m, "standalone_makespan_s", median(sa), "s");
    put(m, "coexec_speedup", ratio(median(ex), median(co)), "x");
    put(m, "nosv_overhead", ratio(median(ex), median(sa)), "x");
    put(m, "iterations", iterations as f64, "count");

    if cfg.traced {
        let spans = tracer.into_spans();
        let l = &mut out.layers;
        ctx.setups.fill(l);
        ctx.digest.fill(l);
        let n = &ctx.nanos;
        put(
            l,
            "nanos.dep_edges_per_task",
            ratio(n.edges as f64, n.spawned as f64),
            "count/task",
        );
        put(
            l,
            "nanos.immediately_ready_ratio",
            ratio(n.immediately_ready as f64, n.spawned as f64),
            "ratio",
        );
        put(
            l,
            "nanos.spawn_to_start_us_p50",
            quantile(&mut ctx.spawn_to_start_us, 0.5),
            "us",
        );
        for app in [App::Cholesky, App::Hpccg] {
            for (mode, tag) in [(Mode::Coexec, "coexec"), (Mode::Exclusive, "exclusive")] {
                let d = spans::durations_ns(&spans, app.span(mode));
                put(
                    l,
                    format!("nanos.kernel_run_s.{}.{tag}", app.name()),
                    median(&d) / 1e9,
                    "s",
                );
            }
        }
        put(
            l,
            "obs.trace_overhead_ratio",
            ratio(median(&ctx.traced_coexec_walls), median(co)),
            "x",
        );
        crate::fill_self_times(l, &spans);
        out.spans = spans;
    }
    out.tally = ctx.tally;
    out
}

/// One mode of one iteration; records its wall time in `ctx`.
fn pass(ctx: &mut Ctx<'_>, mode: Mode, order: [App; 2], tracer: Option<&Tracer>, iter: u64) {
    let root = tracer.map(|t| t.open("bench.pass", None, iter));
    let traced = tracer.is_some();
    let sink = traced.then(|| Arc::new(MemorySink::new()));
    let s = ctx.s;
    let run_app = |app: App, backend: Backend| -> AppRun {
        let nanos_sink = traced.then(|| Arc::new(MemorySink::new()));
        let nr = match &nanos_sink {
            Some(k) => NanosRuntime::with_sink(backend, k.clone() as Arc<dyn TraceSink>),
            None => NanosRuntime::new(backend),
        };
        let run = spans::maybe(tracer, app.span(mode), root, app as u64, || app.run(&nr, s));
        let stats = nr.stats();
        nr.shutdown();
        AppRun {
            app,
            run,
            stats,
            events: nanos_sink.map_or_else(Vec::new, |k| k.take_sorted()),
        }
    };

    let (wall, runs, rt_stats) = if mode == Mode::Standalone {
        let t0 = Instant::now();
        let runs: Vec<AppRun> = order
            .iter()
            .map(|&app| run_app(app, Backend::standalone(cpus())))
            .collect();
        (t0.elapsed(), runs, None)
    } else {
        let names = order.map(App::name);
        let Some(mut setup) = setup_runtime(&names, sink.as_ref(), tracer, root, &mut ctx.tally)
        else {
            return;
        };
        ctx.setups.record(&setup);
        let procs: Vec<Arc<ProcessContext>> = std::mem::take(&mut setup.apps)
            .into_iter()
            .map(Arc::new)
            .collect();
        let t0 = Instant::now();
        let runs: Vec<AppRun> = if mode == Mode::Coexec {
            let joined: Vec<_> = std::thread::scope(|sc| {
                let handles: Vec<_> = order
                    .iter()
                    .zip(&procs)
                    .map(|(&app, p)| {
                        let backend = Backend::nosv_shared(p.clone());
                        sc.spawn(move || run_app(app, backend))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            joined
                .into_iter()
                .filter_map(|r| {
                    ctx.tally
                        .op("application thread", r.map_err(|_| "panicked"))
                })
                .collect()
        } else {
            order
                .iter()
                .zip(&procs)
                .map(|(&app, p)| run_app(app, Backend::nosv_shared(p.clone())))
                .collect()
        };
        let wall = t0.elapsed();
        drop(procs);
        (wall, runs, Some(setup.finish(&mut ctx.tally)))
    };
    if let Some(id) = root {
        tracer.expect("root implies tracer").close(id);
    }

    for r in &runs {
        let want = r.app.reference(ctx.refs);
        ctx.tally
            .check(close(r.run.checksum, want, CHECKSUM_TOLERANCE), || {
                format!(
                    "{} checksum {} != reference {want} ({mode:?})",
                    r.app.name(),
                    r.run.checksum
                )
            });
    }
    if !traced {
        ctx.walls[mode as usize].push(secs(wall));
    } else if mode == Mode::Coexec {
        ctx.traced_coexec_walls.push(secs(wall));
        if let (Some(sink), Some(stats)) = (sink, rt_stats) {
            ctx.digest
                .add_pass(sink.take(), stats, cpus(), wall.as_nanos() as f64);
        }
        for r in runs {
            ctx.nanos.spawned += r.stats.spawned;
            ctx.nanos.immediately_ready += r.stats.immediately_ready;
            ctx.nanos.edges += r.stats.edges;
            ctx.nanos.completed += r.stats.completed;
            spawn_to_start(&r.events, &mut ctx.spawn_to_start_us);
        }
    }
}

/// Submit→Start delays of a `nanos` sink's events, µs.
fn spawn_to_start(events: &[nosv::ObsEvent], out: &mut Vec<f64>) {
    let mut spawned = std::collections::HashMap::new();
    for e in events {
        match e.kind {
            ObsKind::Submit => {
                spawned.insert(e.task.0, e.t_ns);
            }
            ObsKind::Start { .. } => {
                if let Some(t) = spawned.remove(&e.task.0) {
                    out.push(e.t_ns.saturating_sub(t) as f64 / 1e3);
                }
            }
            _ => {}
        }
    }
}
