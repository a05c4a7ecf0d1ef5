//! The report: human-readable metric lines, the host stamp, and the final
//! JSON line whose metric set is fixed by `BENCHMARK.json`.

use std::ffi::{c_int, c_long};

use thermal_time_shifting::units::json::Json;

use crate::checks::Tally;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit (`s`, `ms`, `count`, …).
    pub unit: &'static str,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// For a median or percentile: how many samples it was taken over.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count (a count, a ratio, a total).
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples: None,
        }
    }

    /// A median or percentile over `samples` observations.
    pub fn over(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            samples: Some(samples),
            ..Self::new(name, unit, value)
        }
    }
}

/// What a run produced: its checked operations and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every checked operation of the run.
    pub tally: Tally,
    /// Every metric the run measured, in report order.
    pub metrics: Vec<Metric>,
    /// Raw samples worth showing beside the medians, as `(name, values)`.
    pub samples: Vec<(String, Vec<f64>)>,
}

/// The end-to-end metrics of the JSON line (`--trace 0`). Every workload
/// reports each of them; they match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [&str; 2] = ["setup_s", "pass_cpu_s"];

/// The per-layer metrics of the JSON line (`--trace 1`). Every workload
/// reports each of them — a count is 0 where the workload never enters
/// the layer — and they match `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: [&str; 17] = [
    "exp.run_ms",
    "exp.render_ms",
    "trace.overhead_frac",
    "thermal.steps",
    "thermal.cache_rebuilds",
    "throttle.candidates",
    "cluster.candidates",
    "design.evals",
    "design.surrogate_fits",
    "dcsim.events",
    "scenarios.cells",
    "opt.plans",
    "opt.pivots",
    "fleet.server_steps",
    "fleet.epochs",
    "exec.par_map_calls",
    "svc.job_events",
];

/// The machine a report was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// The worker count `tts_exec` resolves for the runs.
    pub exec_threads: usize,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// The commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl Host {
    /// Stamps the current process.
    pub fn current() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            exec_threads: tts_exec::thread_count(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        }
    }
}

/// The commit `HEAD` names, read from `.git` in the working directory
/// only (no parent directory is searched).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// `struct timespec` of the Linux C library.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// Linux's clock of the CPU time all threads of the process have used,
/// ended threads included.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

/// CPU time this process has used, user plus system, over all its
/// threads, in seconds, or `None` where the clock is missing. Unlike wall
/// time it excludes time the host took the CPU away (steal).
pub fn process_cpu_s() -> Option<f64> {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `timespec`, the only memory
    // `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    (rc == 0).then_some(time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9)
}

/// CPU seconds this process has used since `before` (a
/// [`process_cpu_s`] reading); `NaN` where the clock is missing.
pub fn cpu_since(before: Option<f64>) -> f64 {
    match (before, process_cpu_s()) {
        (Some(before), Some(after)) => after - before,
        _ => f64::NAN,
    }
}

/// CPU time the host has stolen from this machine so far, summed over its
/// CPUs, in seconds, or `None` where `/proc/stat` does not report it.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let steal: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(steal / 100.0)
}

/// Peak resident memory of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Prints the report: a header, the host stamp, one line per metric, the
/// failure messages, and — last — the JSON line. With `traced` the JSON
/// carries [`PER_LAYER`], otherwise [`END_TO_END`].
///
/// # Panics
/// Panics if the outcome lacks a metric the JSON line needs, or holds a
/// non-finite one (a bug in a workload, which must measure every listed
/// name).
pub fn print(header: &str, host: &Host, outcome: &Outcome, traced: bool) {
    println!("# perfbench {header}");
    println!(
        "# host: nproc={} tts_exec_threads={} rustc=\"{}\" commit={}",
        host.nproc, host.exec_threads, host.rustc, host.commit
    );
    let t = &outcome.tally;
    println!(
        "{:<28} {:>16} {:<6} ({} failed of {} attempted)",
        "error_frac",
        t.error_frac(),
        "ratio",
        t.failed,
        t.attempted
    );
    for m in &outcome.metrics {
        let samples = m.samples.map(|n| format!("(n={n})")).unwrap_or_default();
        println!("{:<28} {:>16} {:<6} {samples}", m.name, m.value, m.unit);
    }
    for (name, values) in &outcome.samples {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        println!("# {name} samples: {}", shown.join(" "));
    }
    for msg in t.messages() {
        eprintln!("perfbench: check failed: {msg}");
    }
    let names: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&name| {
            let m = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("the workload did not report {name}"));
            assert!(m.value.is_finite(), "{name} measured {}", m.value);
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(t.failed == 0)),
        ("attempted".to_string(), Json::Num(t.attempted as f64)),
        ("failed".to_string(), Json::Num(t.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{line}");
}
