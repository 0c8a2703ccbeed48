//! `sim_pairwise`: Fig. 6's pairwise combinations under all six
//! strategies on the simulated 64-core AMD Rome node.
//!
//! The run seed is the simulator seed, so for a given seed every
//! simulated makespan is exact: each sweep after the first must reproduce
//! the first one's makespans, and every makespan must be non-zero. The
//! scheduling policy under test is the one `nosv-core` shares with the
//! live runtime, so a policy change moves the simulated makespans exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nosv::{ObsEvent, ObsKind, TraceSink};
use simnode::{AppModel, NodeSpec, QuantumPolicy, SimOptions, SimStats};
use strategies::{pairwise_combos, run_strategy, run_strategy_observed, Strategy, StrategyConfig};
use workloads::{all_benchmarks, benchmark};

use crate::spans::{self, Tracer};
use crate::{median, put, ratio, secs, Outcome, RunConfig, Size, Tally};

/// Model builds timed per sweep for `setup_s` (each takes microseconds).
const MODEL_BUILDS: usize = 64;

/// Shape of one sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizes {
    /// Workload scale factor of the application models.
    pub(crate) scale: f64,
    /// Pairwise combinations simulated (the first `combos` of 28).
    pub(crate) combos: usize,
}

/// The sizes for `size`.
pub(crate) fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            scale: 0.25,
            combos: 28,
        },
        Size::Tiny => Sizes {
            scale: 0.01,
            combos: 2,
        },
    }
}

/// Metric key and span name of each strategy.
fn key(s: Strategy) -> (&'static str, &'static str) {
    match s {
        Strategy::Exclusive => ("exclusive", "sim.exclusive"),
        Strategy::OversubscriptionBusy => ("oversub_busy", "sim.oversub_busy"),
        Strategy::OversubscriptionIdle => ("oversub_idle", "sim.oversub_idle"),
        Strategy::Colocation => ("colocation", "sim.colocation"),
        Strategy::Dlb => ("dlb", "sim.dlb"),
        Strategy::Nosv => ("nosv", "sim.nosv"),
    }
}

/// Counts the events a simulation emits (and its task starts).
#[derive(Default)]
struct CountingSink {
    events: AtomicU64,
    starts: AtomicU64,
}

impl TraceSink for CountingSink {
    fn on_event(&self, ev: &ObsEvent) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if matches!(ev.kind, ObsKind::Start { .. }) {
            self.starts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One sweep's results.
struct Sweep {
    /// Simulated makespan per combination and strategy, ns.
    makespans: Vec<[u64; 6]>,
    /// Wall time of each `run_strategy` call, s, by strategy.
    call_walls: [Vec<f64>; 6],
    /// Statistics of every simulation that returns them, by strategy.
    stats: Vec<(Strategy, SimStats)>,
    wall: f64,
}

/// Runs the workload.
pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let s = sizes(cfg.size);
    let node = NodeSpec::amd_rome();
    let scfg = StrategyConfig {
        sim: SimOptions {
            seed: cfg.seed,
            ..Default::default()
        },
        ..Default::default()
    };
    let combos: Vec<Vec<usize>> = pairwise_combos(all_benchmarks().len())
        .into_iter()
        .take(s.combos)
        .collect();
    let tracer = Tracer::new();
    let sink = CountingSink::default();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut traced: Vec<Sweep> = Vec::new();
    crate::repeat(cfg.budget, crate::min_iterations(cfg), |i| {
        let mut models = Vec::new();
        for _ in 0..MODEL_BUILDS {
            let t = Instant::now();
            models = all_benchmarks().map(|b| benchmark(b, s.scale)).to_vec();
            setup_s.push(secs(t.elapsed()));
        }
        let trace = (cfg.traced && i == 1).then_some((&tracer, &sink));
        let sweep = sweep(&node, &models, &combos, &scfg, trace, i, &mut tally);
        let first = sweeps.first().or(traced.first());
        if let Some(first) = first {
            tally.check(first.makespans == sweep.makespans, || {
                format!("sweep {i} makespans differ from sweep 0 under the same seed")
            });
        }
        if trace.is_some() {
            traced.push(sweep);
        } else {
            sweeps.push(sweep);
        }
    });

    let mut out = Outcome::default();
    let nosv_idx = Strategy::all()
        .iter()
        .position(|&x| x == Strategy::Nosv)
        .expect("known");
    let reference = sweeps.first().expect("at least one untraced sweep");
    let nosv_total: u64 = reference.makespans.iter().map(|m| m[nosv_idx]).sum();
    let excl_total: u64 = reference.makespans.iter().map(|m| m[0]).sum();
    let walls: Vec<f64> = sweeps
        .iter()
        .flat_map(|w| w.call_walls.iter().flatten().copied())
        .collect();
    let speedups: Vec<f64> = reference
        .makespans
        .iter()
        .map(|m| ratio(m[0] as f64, m[nosv_idx] as f64))
        .collect();
    // The strategies' call times differ by up to 2x, so their median
    // flips between strategies; the mean per call does not.
    let per_call = ratio(walls.iter().sum(), walls.len() as f64);
    out.gate(&setup_s, &[nosv_total as f64 / 1e9], &[per_call]);
    let m = &mut out.named;
    put(m, "setup_s", median(&setup_s), "s");
    put(m, "sim_runs_per_s", ratio(1.0, per_call), "1/s");
    put(m, "sim_median_speedup", median(&speedups), "x");
    put(m, "sim_nosv_makespan_s", nosv_total as f64 / 1e9, "s");
    put(m, "sim_exclusive_makespan_s", excl_total as f64 / 1e9, "s");
    put(m, "sim_runs", walls.len() as f64, "count");

    if cfg.traced {
        let spans = tracer.into_spans();
        let l = &mut out.layers;
        for (k, strategy) in Strategy::all().into_iter().enumerate() {
            let w: Vec<f64> = traced
                .iter()
                .flat_map(|t| t.call_walls[k].iter().copied())
                .collect();
            put(
                l,
                format!("sim.run_ms.{}", key(strategy).0),
                median(&w) * 1e3,
                "ms",
            );
        }
        let calls = traced
            .iter()
            .map(|t| t.call_walls.iter().map(Vec::len).sum::<usize>())
            .sum::<usize>();
        let events = sink.events.load(Ordering::Relaxed) as f64;
        put(
            l,
            "sim.events_per_run",
            ratio(events, calls as f64),
            "count",
        );
        let t = traced.first().expect("a traced run has a traced sweep");
        let sum = |nosv_only: bool, f: fn(&SimStats) -> u64| {
            let stats = t
                .stats
                .iter()
                .filter(|(s, _)| !nosv_only || *s == Strategy::Nosv);
            stats.map(|(_, st)| f(st)).sum::<u64>() as f64
        };
        put(
            l,
            "sim.nosv_cross_app_switches",
            sum(true, |s| s.cross_app_switches),
            "count",
        );
        // The model charges scheduler-lock and idle spinning only to the
        // per-application runtimes, so these sum over every strategy.
        put(
            l,
            "sim.lock_spin_ms",
            sum(false, |s| s.lock_spin_ns) / 1e6,
            "ms",
        );
        put(
            l,
            "sim.idle_spin_ms",
            sum(false, |s| s.idle_spin_ns) / 1e6,
            "ms",
        );
        put(
            l,
            "obs.events_per_task",
            ratio(events, sink.starts.load(Ordering::Relaxed) as f64),
            "count/task",
        );
        let sweep_walls = |v: &[Sweep]| median(&v.iter().map(|w| w.wall).collect::<Vec<_>>());
        put(
            l,
            "obs.trace_overhead_ratio",
            ratio(sweep_walls(&traced), sweep_walls(&sweeps)),
            "x",
        );
        crate::fill_self_times(l, &spans);
        out.spans = spans;
    }
    out.tally = tally;
    out
}

/// Simulates every combination under every strategy once.
fn sweep(
    node: &NodeSpec,
    models: &[AppModel],
    combos: &[Vec<usize>],
    cfg: &StrategyConfig,
    trace: Option<(&Tracer, &CountingSink)>,
    iter: u64,
    tally: &mut Tally,
) -> Sweep {
    let tracer = trace.map(|(t, _)| t);
    let root = tracer.map(|t| t.open("bench.pass", None, iter));
    let policy = QuantumPolicy::new(cfg.quantum_ns);
    let t0 = Instant::now();
    let mut out = Sweep {
        makespans: Vec::with_capacity(combos.len()),
        call_walls: Default::default(),
        stats: Vec::new(),
        wall: 0.0,
    };
    for (c, combo) in combos.iter().enumerate() {
        let apps: Vec<AppModel> = combo.iter().map(|&a| models[a].clone()).collect();
        let mut row = [0u64; 6];
        for (k, strategy) in Strategy::all().into_iter().enumerate() {
            let t = Instant::now();
            let (makespan, result) =
                spans::maybe(tracer, key(strategy).1, root, c as u64, || match trace {
                    Some((_, sink)) => {
                        run_strategy_observed(node, &apps, strategy, cfg, &policy, Some(sink))
                    }
                    None => run_strategy(node, &apps, strategy, cfg),
                });
            out.call_walls[k].push(secs(t.elapsed()));
            tally.check(makespan > 0, || {
                format!("{} makespan of combination {combo:?} is 0", strategy.name())
            });
            row[k] = makespan;
            if let Some(r) = result {
                out.stats.push((strategy, r.stats));
            }
        }
        out.makespans.push(row);
    }
    out.wall = secs(t0.elapsed());
    if let Some(id) = root {
        tracer.expect("root implies tracer").close(id);
    }
    out
}
