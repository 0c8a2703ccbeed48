//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `report` line (host fingerprint, every metric under its
//! workload-specific name, error rate, first failures) and, last, the
//! result line: `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced
//! run also writes its spans to `perfbench/out/`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::host::Fingerprint;
use perfbench::{json_num, json_str, metrics_json, RunConfig, Size, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag}")),
        };
        *slot = Some(value.clone());
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let num = |v: Option<String>, name: &str| -> Result<u64, String> {
        v.ok_or(format!("--{name} is required"))?
            .parse()
            .map_err(|e| format!("--{name}: {e}"))
    };
    let seed = num(seed, "seed")?;
    let seconds = num(seconds, "seconds")?;
    let traced = match num(trace, "trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed,
            budget: Duration::from_secs(seconds),
            traced,
            size: Size::Full,
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let host = Fingerprint::collect(manifest.parent().unwrap_or(manifest));
    let cfg = &args.cfg;
    let out = perfbench::run(&args.workload, cfg).expect("workload name was validated");

    let mut spans_file = String::from("null");
    if cfg.traced {
        let path = manifest
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, cfg.seed));
        match perfbench::spans::write_jsonl(&out.spans, &path) {
            Ok(()) => spans_file = json_str(&path.display().to_string()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let failures: Vec<String> = out.tally.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"metrics\": {}, \"error_rate\": {}, \"failures\": [{}], \"spans\": {}, \"spans_file\": {}}}}}",
        json_str(&args.workload),
        cfg.seed,
        cfg.budget.as_secs(),
        u8::from(cfg.traced),
        host.to_json(),
        metrics_json(&out.named),
        json_num(out.tally.error_rate()),
        failures.join(", "),
        out.spans.len(),
        spans_file,
    );
    let metrics = if cfg.traced {
        &out.layers
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.failed == 0 && out.tally.attempted > 0,
        out.tally.attempted,
        out.tally.failed,
        metrics_json(metrics)
    );
    ExitCode::SUCCESS
}
