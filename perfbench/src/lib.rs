//! End-to-end and per-layer benchmark of the nOS-V reproduction.
//!
//! Four workloads drive the repository's crates from outside, through
//! their public API only:
//!
//! * [`coexec`] — two real `nanos` task-graph applications (Cholesky and
//!   HPCCG) co-executed on one `nosv::Runtime`, run back to back on
//!   nOS-V, and run back to back on the standalone Nanos6-style backend
//!   (paper §5.2 and Fig. 5);
//! * [`flood`] — one producer thread submitting near-empty tasks to two
//!   attached processes, one task at a time and through `submit_all`;
//! * [`roundtrip`] — a closed loop with one task in flight and seeded
//!   think times on both sides of the standby-spin window;
//! * [`sim`] — Fig. 6's pairwise combinations under all six strategies on
//!   the simulated 64-core node.
//!
//! An untraced run fills [`Outcome::end_to_end`] (the gated metrics) and
//! [`Outcome::named`] (every metric under its workload-specific name). A
//! traced run records [`spans`] around each call into a layer and fills
//! [`Outcome::layers`]. Every operation and output check is counted in
//! [`Tally`] instead of panicking.

pub mod coexec;
pub(crate) mod digest;
pub mod flood;
pub mod host;
pub mod roundtrip;
pub mod sim;
pub mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nosv::{MemorySink, ProcessContext, Runtime, RuntimeStats};

pub use spans::Span;
use spans::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "coexec_pair",
    "task_flood",
    "serial_roundtrip",
    "sim_pairwise",
];

/// Segment size of every live runtime the benchmark builds.
pub(crate) const SEGMENT_BYTES: usize = 64 * 1024 * 1024;

/// Problem sizes: `Full` for measurement, `Tiny` for tests and for the
/// short companion passes of a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Sizes that finish in well under a second.
    Tiny,
}

/// One run's settings, all from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Record spans and per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Problem sizes.
    pub size: Size,
}

/// A value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` states it.
    pub unit: &'static str,
}

/// Metrics by name (sorted, so output order repeats).
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts `name = value unit` into `m`.
pub(crate) fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), Metric { value, unit });
}

/// Operations attempted and failed, including output checks.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one attempt; a `false` outcome is a failure described by
    /// `what`.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Counts one fallible operation, returning its value on success.
    pub(crate) fn op<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Checks the runtime's own consistency counters after a pass: every
    /// submitted task ran and none panicked.
    pub(crate) fn check_stats(&mut self, s: &RuntimeStats) {
        self.check(s.tasks_executed == s.tasks_submitted, || {
            format!(
                "tasks_executed {} != tasks_submitted {}",
                s.tasks_executed, s.tasks_submitted
            )
        });
        self.check(s.task_panics == 0, || {
            format!("{} task panics", s.task_panics)
        });
    }

    /// Adds another tally's counts.
    pub(crate) fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(16);
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks.
    pub tally: Tally,
    /// The gated metrics every workload reports: `setup_s`, `makespan_s`
    /// and `alt_makespan_s` (untraced runs).
    pub end_to_end: Metrics,
    /// The same measurements under their workload-specific names, plus
    /// the derived scores (untraced runs).
    pub named: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records the three gated metrics.
    pub(crate) fn gate(&mut self, setup: &[f64], makespan: &[f64], alt: &[f64]) {
        put(&mut self.end_to_end, "setup_s", median(setup), "s");
        put(&mut self.end_to_end, "makespan_s", median(makespan), "s");
        put(&mut self.end_to_end, "alt_makespan_s", median(alt), "s");
    }
}

/// Runs workload `name`. A traced run also runs the other workloads at
/// [`Size::Tiny`], so that it reports every per-layer metric: a metric
/// the named workload produces itself takes precedence over a
/// companion's.
pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    let mut out = run_one(name, cfg)?;
    if cfg.traced {
        for other in WORKLOADS.iter().filter(|&&w| w != name) {
            let tiny = RunConfig {
                size: Size::Tiny,
                budget: Duration::ZERO,
                ..*cfg
            };
            let companion = run_one(other, &tiny)?;
            out.tally.absorb(companion.tally);
            for (k, v) in companion.layers {
                out.layers.entry(k).or_insert(v);
            }
            spans::append(&mut out.spans, companion.spans);
        }
    }
    Some(out)
}

fn run_one(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "coexec_pair" => coexec::run(cfg),
        "task_flood" => flood::run(cfg),
        "serial_roundtrip" => roundtrip::run(cfg),
        "sim_pairwise" => sim::run(cfg),
        _ => return None,
    })
}

/// Builds a runtime over every available CPU (with `sink` when traced)
/// and attaches `names`, inside `runtime.build`/`runtime.attach` spans
/// when `tracer` is present.
pub(crate) fn setup_runtime(
    names: &[&str],
    sink: Option<&Arc<MemorySink>>,
    tracer: Option<&Tracer>,
    parent: Option<usize>,
    tally: &mut Tally,
) -> Option<Setup> {
    let t0 = Instant::now();
    let mut b = Runtime::builder().cpus(cpus()).segment_size(SEGMENT_BYTES);
    if let Some(sink) = sink {
        b = b.sink(sink.clone());
    }
    let rt = spans::maybe(tracer, "runtime.build", parent, 0, || b.build());
    let rt = tally.op("runtime build", rt)?;
    let build = t0.elapsed();
    let mut apps = Vec::with_capacity(names.len());
    let mut attach = Vec::with_capacity(names.len());
    for (i, n) in names.iter().enumerate() {
        let t = Instant::now();
        let app = spans::maybe(tracer, "runtime.attach", parent, i as u64, || rt.attach(n));
        apps.push(tally.op("attach", app)?);
        attach.push(t.elapsed());
    }
    Some(Setup {
        total: t0.elapsed(),
        build,
        attach,
        rt,
        apps,
    })
}

/// A freshly built runtime with its attached processes.
pub(crate) struct Setup {
    /// Build plus every attach.
    pub(crate) total: Duration,
    /// `Runtime::builder().build()`.
    pub(crate) build: Duration,
    /// Each `Runtime::attach`.
    pub(crate) attach: Vec<Duration>,
    /// The runtime.
    pub(crate) rt: Runtime,
    /// Its processes, in the order asked for (callers may move them out).
    pub(crate) apps: Vec<ProcessContext>,
}

impl Setup {
    /// Detaches the processes still held, checks the runtime's counters,
    /// shuts it down and returns the final counters.
    pub(crate) fn finish(self, tally: &mut Tally) -> RuntimeStats {
        drop(self.apps);
        let stats = self.rt.stats();
        tally.check_stats(&stats);
        self.rt.shutdown();
        stats
    }
}

/// Set-up times of every runtime a run built.
#[derive(Debug, Default)]
pub(crate) struct SetupLog {
    /// Build plus attaches, s.
    pub(crate) total_s: Vec<f64>,
    build_ms: Vec<f64>,
    attach_us: Vec<f64>,
}

impl SetupLog {
    /// Records one set-up.
    pub(crate) fn record(&mut self, s: &Setup) {
        self.total_s.push(secs(s.total));
        self.build_ms.push(secs(s.build) * 1e3);
        self.attach_us
            .extend(s.attach.iter().map(|d| secs(*d) * 1e6));
    }

    /// Writes `runtime.build_ms` and `runtime.attach_us` (medians).
    pub(crate) fn fill(&self, m: &mut Metrics) {
        put(m, "runtime.build_ms", median(&self.build_ms), "ms");
        put(m, "runtime.attach_us", median(&self.attach_us), "us");
    }
}

/// Writes the `task.*` call metrics of a traced pass that made `tasks`
/// tasks one at a time: p50 and p99 of each public call, and the time
/// blocked in `wait` per task.
pub(crate) fn fill_task_calls(m: &mut Metrics, spans: &[Span], tasks: usize) {
    for call in ["create", "submit", "destroy"] {
        let mut d = spans::durations_ns(spans, &format!("task.{call}"));
        put(
            m,
            format!("task.{call}_ns_p50"),
            quantile(&mut d, 0.5),
            "ns",
        );
        put(
            m,
            format!("task.{call}_ns_p99"),
            quantile(&mut d, 0.99),
            "ns",
        );
    }
    let wait: f64 = spans::durations_ns(spans, "task.wait").iter().sum();
    put(m, "task.wait_ns_per_task", ratio(wait, tasks as f64), "ns");
}

/// Writes `self_ms.<layer>`: each layer's self time per traced pass (a
/// pass is one `bench.pass` root span).
pub(crate) fn fill_self_times(m: &mut Metrics, spans: &[Span]) {
    let passes = spans
        .iter()
        .filter(|s| s.name == "bench.pass")
        .count()
        .max(1) as f64;
    for (layer, ns) in spans::self_ns_by_layer(spans) {
        put(
            m,
            format!("self_ms.{layer}"),
            ns as f64 / 1e6 / passes,
            "ms",
        );
    }
}

/// Calls `iteration(i)` for `i = 0, 1, ...`: at least `min` times, then
/// while one more iteration as long as the last one still fits in
/// `budget`. Returns the number of iterations.
pub(crate) fn repeat(budget: Duration, min: u64, mut iteration: impl FnMut(u64)) -> u64 {
    let t0 = Instant::now();
    let (mut i, mut last) = (0, Duration::ZERO);
    while i < min || t0.elapsed() + last <= budget {
        let t = Instant::now();
        iteration(i);
        last = t.elapsed();
        i += 1;
    }
    i
}

/// Iterations a run makes at least: a traced run needs an untraced one
/// (the baseline of the tracing overhead) and a traced one.
pub(crate) fn min_iterations(cfg: &RunConfig) -> u64 {
    if cfg.traced {
        2
    } else {
        1
    }
}

/// CPUs every live runtime uses: all available hardware parallelism.
pub(crate) fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: the benchmark's own seeded generator, so generated inputs
/// do not depend on any generator inside the program under test.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub(crate) fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Spins `iters` rounds of a multiply-xorshift and returns the mixed
/// value: a task body of seeded length whose result can be checked.
#[inline]
pub(crate) fn body_work(seed: u64, iters: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = std::hint::black_box(x.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (x >> 29));
    }
    x
}

/// Median (mean of the middle two for even lengths); 0 when empty.
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of `v`; 0 when empty. Sorts `v`.
pub(crate) fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Seconds of a duration.
pub(crate) fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Renders metrics as a JSON object of `{"value": v, "unit": u}`.
pub fn metrics_json(m: &Metrics) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in m.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(k),
            json_num(v.value),
            json_str(v.unit)
        );
    }
    s.push('}');
    s
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A JSON number with all its digits (`null` if not finite, which the
/// benchmark's tests rule out).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
