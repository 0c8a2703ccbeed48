//! The benchmark's own tests: every workload prints every metric that
//! `BENCHMARK.json` names, output checks catch a wrong reference, and span
//! accounting never lets children cover more than their parent.

use std::process::Command;
use std::time::Duration;

use perfbench::spans::{child_cover_ns, self_ns_by_layer, Span};
use perfbench::{coexec, Metrics, RunConfig, Size, WORKLOADS};

/// `(name, unit)` of every entry in one section of `BENCHMARK.json` (the
/// file keeps one object per line; workloads have no unit).
fn declared(section: &str) -> Vec<(String, Option<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let end = body.find(']').expect("section ends");
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        line[at..].split('"').next().map(str::to_string)
    };
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit"))))
        .collect()
}

fn tiny(seed: u64, traced: bool) -> RunConfig {
    RunConfig {
        seed,
        budget: Duration::ZERO,
        traced,
        size: Size::Tiny,
    }
}

fn assert_reports(m: &Metrics, section: &str, workload: &str) {
    let want = declared(section);
    assert!(!want.is_empty(), "no {section} metrics declared");
    for (name, unit) in &want {
        let got = m
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {section} metric {name} missing"));
        assert_eq!(
            Some(got.unit),
            unit.as_deref(),
            "{workload}: unit of {name}"
        );
        assert!(got.value.is_finite(), "{workload}: {name} = {}", got.value);
    }
    assert_eq!(
        m.len(),
        want.len(),
        "{workload}: {section} has undeclared metrics"
    );
}

#[test]
fn tiny_run_of_every_workload_prints_every_metric() {
    for w in WORKLOADS {
        let out = perfbench::run(w, &tiny(7, false)).expect("known workload");
        assert_eq!(out.tally.failed, 0, "{w}: {:?}", out.tally.failures);
        assert!(out.tally.attempted > 0, "{w}: nothing attempted");
        assert_reports(&out.end_to_end, "end_to_end", w);
        for (name, m) in &out.end_to_end {
            assert!(
                m.value > 0.0,
                "{w}: end-to-end metric {name} is {}",
                m.value
            );
        }
        for (name, m) in &out.named {
            assert!(m.value.is_finite() && !m.unit.is_empty(), "{w}: {name}");
        }

        let out = perfbench::run(w, &tiny(7, true)).expect("known workload");
        assert_eq!(out.tally.failed, 0, "{w} traced: {:?}", out.tally.failures);
        assert_reports(&out.layers, "per_layer", w);
        assert!(!out.spans.is_empty(), "{w}: a traced run records spans");
    }
}

#[test]
fn wrong_reference_checksum_shows_in_error_rate() {
    let s = coexec::sizes(Size::Tiny);
    let good = coexec::references(&s);
    let bad = coexec::Refs {
        cholesky: good.cholesky * 1.001,
        ..good
    };
    let out = coexec::run_with(&tiny(3, false), &s, &bad);
    // One iteration runs three modes; each checks Cholesky once.
    assert_eq!(out.tally.failed, 3, "{:?}", out.tally.failures);
    assert!(out.tally.error_rate() > 0.0);
    assert!(out.tally.failures.iter().all(|f| f.contains("cholesky")));
    // The other metrics are still reported.
    assert!(out.end_to_end["makespan_s"].value > 0.0);

    let out = coexec::run_with(&tiny(3, false), &s, &good);
    assert_eq!(out.tally.failed, 0, "{:?}", out.tally.failures);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn child_span_time_never_exceeds_parent() {
    // Overlapping children (co-executed applications) and a child that
    // outlives its parent.
    let spans = vec![
        span("bench.pass", 100, 200, None),
        span("nanos.a", 110, 190, Some(0)),
        span("nanos.b", 120, 230, Some(0)),
        span("task.create", 150, 160, Some(1)),
    ];
    let cover = child_cover_ns(&spans);
    assert_eq!(cover, vec![90, 10, 0, 0]);
    let selfs = self_ns_by_layer(&spans);
    assert_eq!(selfs["bench"], 10);
    assert_eq!(selfs["nanos"], 70 + 110);
    assert_eq!(selfs["task"], 10);

    // And on real spans: the co-executed pair, where sibling spans
    // overlap.
    let out = perfbench::run("coexec_pair", &tiny(5, true)).expect("known workload");
    let cover = child_cover_ns(&out.spans);
    for (s, c) in out.spans.iter().zip(cover) {
        assert!(
            c <= s.dur_ns(),
            "{}: children cover {c} of {}",
            s.name,
            s.dur_ns()
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "task_flood",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "task_flood",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "task_flood"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    assert_eq!(WORKLOADS.len(), declared("workloads").len());
}
