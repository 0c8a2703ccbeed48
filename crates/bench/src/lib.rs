//! Shared helpers for the figure-regeneration harnesses.
//!
//! Every `benches/figN_*.rs` target regenerates one figure of the paper and
//! prints the same rows/series the paper reports. Harnesses accept two
//! environment variables:
//!
//! * `NOSV_REPRO_SCALE` — workload scale factor (default 0.25; `1.0`
//!   reproduces roughly paper-sized four-second-per-benchmark runs and
//!   takes correspondingly longer to simulate);
//! * `NOSV_REPRO_SEED` — simulator RNG seed (default `0x5eed`).

#![warn(missing_docs)]

use strategies::{BoxStats, ComboOutcome, Strategy};

/// Reads the workload scale factor from the environment.
pub fn env_scale() -> f64 {
    std::env::var("NOSV_REPRO_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}

/// Reads the simulator seed from the environment.
pub fn env_seed() -> u64 {
    std::env::var("NOSV_REPRO_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5eed)
}

/// Prints one strategy's heatmap (lower triangle incl. diagonal) in the
/// layout of Fig. 6: rows/columns are benchmarks, cells are performance
/// scores.
pub fn print_heatmap(title: &str, names: &[&str], cell: impl Fn(usize, usize) -> Option<f64>) {
    println!("\n  {title}");
    print!("  {:>12}", "");
    for n in names {
        print!(" {n:>12}");
    }
    println!();
    for (row, rn) in names.iter().enumerate() {
        print!("  {rn:>12}");
        for col in 0..names.len() {
            match cell(row, col) {
                Some(v) => print!(" {v:>12.2}"),
                None => print!(" {:>12}", "--"),
            }
        }
        println!();
    }
}

/// Prints a box-plot row (Figs. 7–8) for one strategy.
pub fn print_box_row(strategy: Strategy, stats: &BoxStats) {
    println!(
        "  {:>22}  min {:.3}  q1 {:.3}  median {:.3}  q3 {:.3}  max {:.3}  (IQR {:.3})",
        strategy.name(),
        stats.min,
        stats.q1,
        stats.median,
        stats.q3,
        stats.max,
        stats.iqr()
    );
}

/// Collects the per-strategy score samples from a set of combination
/// outcomes (one sample per combination).
pub fn score_samples(outcomes: &[ComboOutcome]) -> [Vec<f64>; 6] {
    let mut samples: [Vec<f64>; 6] = Default::default();
    for o in outcomes {
        for (i, s) in o.scores().into_iter().enumerate() {
            samples[i].push(s);
        }
    }
    samples
}

/// Median of a sample (convenience for speedup summaries).
pub fn median(values: &[f64]) -> f64 {
    BoxStats::of(values).median
}

/// The host a `BENCH_*.json` record was measured on, as a JSON object:
/// `available_parallelism`, CPU model, kernel release, the git revision
/// of the checkout (suffixed `-dirty` when the work tree has uncommitted
/// changes), the runtime CPUs the bench used, and whether those exceed
/// the available hardware threads. A number is only comparable with
/// numbers carrying the same host fields.
pub fn host_json(runtime_cpus: usize) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let git_rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    format!(
        "{{\"available_parallelism\": {parallelism}, \"cpu_model\": {}, \"kernel\": {}, \
         \"git_rev\": {}, \"runtime_cpus\": {runtime_cpus}, \"oversubscribed\": {}}}",
        quote(&cpu_model),
        quote(&kernel),
        quote(&git_rev),
        runtime_cpus > parallelism
    )
}
