//! Runs the benchmark end to end on its smoke-size inputs: every workload,
//! untraced and traced, must certify its results and print a result line
//! with exactly the contract's keys and every metric of its mode.

use std::process::Command;

const END_TO_END: [&str; 7] = [
    "setup_s",
    "solve_s",
    "updates_per_s",
    "update_p50_us",
    "visible_p50_ms",
    "visible_p95_ms",
    "query_p50_us",
];

fn run(workload: &str, trace: u8, seed: u64) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcm-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("running the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// The metric names of a result line, in order (the line is flat enough
/// that every `"name": {"value"` pair marks one metric).
fn metric_names(line: &str) -> Vec<String> {
    let chunks: Vec<&str> = line.split("\": {\"value\"").collect();
    // Every chunk but the last ends with the opening quote and name of
    // the metric whose value follows.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.rsplit_once('"').map(|(_, name)| name.to_string()))
        .collect()
}

#[test]
fn every_workload_runs_and_reports_every_metric() {
    for workload in ["rmat-solve", "road-solve", "churn-serve"] {
        let (ok, line) = run(workload, 0, 5);
        assert!(ok, "{workload}: nonzero exit, last line {line}");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": ")
                && line.contains(", \"failed\": 0, \"metrics\": {"),
            "{workload}: {line}"
        );
        assert_eq!(metric_names(&line), END_TO_END, "{workload}");
        assert!(!line.contains("null"), "{workload}: a metric has no value: {line}");

        let (ok, line) = run(workload, 1, 5);
        assert!(ok, "{workload} traced: nonzero exit, last line {line}");
        let names = metric_names(&line);
        assert_eq!(names.len(), 41, "{workload} traced: {names:?}");
        for want in ["core.phases_s", "bsp.calls.SpMV", "dyn.apply_ms", "trace.coverage_frac"] {
            assert!(names.iter().any(|n| n == want), "{workload} traced lacks {want}");
        }
    }
}

#[test]
fn rejects_bad_arguments_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_mcm-perfbench");
    for args in [
        vec!["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        vec!["--workload", "rmat-solve", "--seed", "1", "--seconds", "0", "--trace", "0"],
        vec!["--workload", "rmat-solve", "--seed", "1", "--seconds", "1", "--trace", "2"],
        vec!["--workload", "rmat-solve", "--seed", "1", "--seconds", "1"],
        vec!["--workload", "rmat-solve", "--seed", "x", "--seconds", "1", "--trace", "0"],
        vec!["--bogus", "1"],
    ] {
        let out = Command::new(bin).args(&args).output().expect("running the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn same_seed_same_inputs_and_counts() {
    // The second run of a seed compares its exact counts with the first
    // run's record, and fails if they drift.
    for _ in 0..2 {
        let (ok, line) = run("road-solve", 1, 77);
        assert!(ok, "{line}");
    }
}
