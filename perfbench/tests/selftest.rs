//! Self-test of the benchmark: shortened runs of every workload must
//! print every metric `BENCHMARK.json` lists, with no failed check at the
//! default seed, and a corrupted golden must make the checks fail.
//!
//! Run from the repository root with
//! `cargo test --manifest-path perfbench/Cargo.toml` (the package builds
//! optimized even for tests).

use std::path::{Path, PathBuf};
use std::process::Command;

use thermal_time_shifting::units::json::{parse, Json};

const WORKLOADS: [&str; 4] = ["figures", "schedule", "fleet", "serve"];

/// The end-to-end metrics every report prints, and those only `serve`
/// prints, by name.
const PASS_LINES: [&str; 6] = [
    "setup_s",
    "pass_s",
    "pass_cpu_s",
    "peak_rss_mb",
    "error_frac",
    "host_steal_frac",
];
const SERVE_LINES: [&str; 5] = [
    "cached_p50_ms",
    "cached_p99_ms",
    "cold_p50_ms",
    "cold_p90_ms",
    "job_p50_ms",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = parse(&text).unwrap();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// What one invocation printed.
struct Report {
    /// Every human-readable metric line, as `(name, value)`.
    lines: Vec<(String, f64)>,
    /// The final JSON line.
    result: Json,
}

impl Report {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no {name} in {:?}", self.result))
    }

    fn failed(&self) -> f64 {
        self.result.get("failed").and_then(Json::as_f64).unwrap()
    }
}

fn bench(workload: &str, seed: u64, traced: bool, results: Option<&Path>) -> Report {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0.5",
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if let Some(dir) = results {
        cmd.arg("--results").arg(dir);
    }
    let out = cmd.output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap();
    let lines = stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .map(|l| {
            let mut fields = l.split_whitespace();
            let name = fields.next().unwrap().to_string();
            let value = fields.next().unwrap().parse().unwrap();
            (name, value)
        })
        .collect();
    Report {
        lines,
        result: parse(last).unwrap(),
    }
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks the JSON line against a `BENCHMARK.json` list: exactly the
/// listed names, with the listed units and finite values.
fn assert_lists(report: &Report, section: &str) {
    let listed = listed(section);
    let metrics = report.result.get("metrics").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "{section}");
    for ((name, unit), (_, m)) in listed.iter().zip(metrics) {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        assert!(
            m.get("value").and_then(Json::as_f64).unwrap().is_finite(),
            "{name}"
        );
    }
}

#[test]
fn end_to_end_runs_report_every_metric_and_pass_their_checks() {
    for workload in WORKLOADS {
        let r = bench(workload, 42, false, None);
        assert_lists(&r, "end_to_end");
        assert_eq!(r.failed(), 0.0, "{workload}: {:?}", r.lines);
        assert!(r.result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        for (name, _) in listed("end_to_end") {
            assert!(r.metric(&name) > 0.0, "{workload}: {name} must never be 0");
        }
        let printed: Vec<&str> = r.lines.iter().map(|(n, _)| n.as_str()).collect();
        assert!(printed.iter().all(|n| is_metric_name(n)), "{printed:?}");
        let error_frac = r.lines.iter().find(|(n, _)| n == "error_frac").unwrap().1;
        assert_eq!(error_frac, 0.0);
        let expected: &[&str] = if workload == "serve" {
            &SERVE_LINES
        } else {
            &[]
        };
        for name in PASS_LINES.iter().chain(expected) {
            assert!(printed.contains(name), "{workload} does not print {name}");
        }
    }
}

#[test]
fn other_seeds_pass_the_invariant_checks() {
    for workload in ["figures", "serve"] {
        let r = bench(workload, 7, false, None);
        assert_eq!(r.failed(), 0.0, "{workload} at seed 7: {:?}", r.lines);
    }
}

#[test]
fn traced_runs_report_every_layer_and_repeat_their_counts() {
    let first = bench("figures", 42, true, None);
    let again = bench("figures", 42, true, None);
    assert_lists(&first, "per_layer");
    assert_eq!(first.failed(), 0.0, "{:?}", first.lines);
    for (name, unit) in listed("per_layer") {
        if unit == "count" {
            assert_eq!(first.metric(&name), again.metric(&name), "{name}");
        }
    }
    assert_eq!(first.metric("thermal.steps"), 9806.0);
    assert_eq!(first.metric("dcsim.events"), 183_900.0);
    assert_eq!(first.metric("scenarios.cells"), 36.0);
    assert_eq!(first.metric("opt.pivots"), 0.0);

    let schedule = bench("schedule", 42, true, None);
    assert_lists(&schedule, "per_layer");
    assert_eq!(schedule.metric("opt.pivots"), 16_212.0);
    assert_eq!(schedule.metric("opt.plans"), 48.0);
    assert_eq!(schedule.metric("thermal.steps"), 0.0);

    let fleet = bench("fleet", 42, true, None);
    assert_lists(&fleet, "per_layer");
    // The failed count includes the epoch loop's counter against the
    // summary.
    assert_eq!(fleet.failed(), 0.0, "{:?}", fleet.lines);
    assert_eq!(fleet.metric("fleet.epochs"), 720.0);

    let serve = bench("serve", 42, true, None);
    assert_lists(&serve, "per_layer");
    assert_eq!(serve.failed(), 0.0, "{:?}", serve.lines);
    assert!(serve.metric("svc.job_events") > 0.0);
}

#[test]
fn a_corrupted_golden_fails_the_checks() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted-results");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(repo_root().join("results")).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    // fig7 is checked on every figures pass and every cached serve body;
    // schedule's golden by the untimed default-size run.
    for name in ["fig7", "schedule"] {
        let golden = dir.join(format!("{name}.summary.json"));
        let text = std::fs::read_to_string(&golden).unwrap();
        std::fs::write(&golden, text.replacen('1', "2", 1)).unwrap();
    }

    for workload in ["figures", "serve", "schedule"] {
        let r = bench(workload, 42, false, Some(&dir));
        assert!(r.failed() > 0.0, "{workload} missed the corrupted golden");
        assert_eq!(r.result.get("correct"), Some(&Json::Bool(false)));
        let error_frac = r.lines.iter().find(|(n, _)| n == "error_frac").unwrap().1;
        assert!(error_frac > 0.0);
    }
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-results");
    let cases: [&[&str]; 3] = [
        &["--seed", "1", "--seconds", "1", "--trace", "0"],
        &["--workload", "nope", "--seconds", "1", "--trace", "0"],
        &[
            "--workload",
            "figures",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--results",
            missing.to_str().unwrap(),
        ],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
