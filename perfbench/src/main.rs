//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <figures|schedule|fleet|serve> --seed <n>
//!           --seconds <s> --trace <0|1> [--results <dir>]
//! ```
//!
//! Run from the repository root (the goldens are read from `results/`
//! unless `--results` names another directory). Each run sets up the
//! workload several times, then drives it as a closed loop for about
//! `--seconds` seconds through the program's public entry points, checks
//! every output, and prints one line per metric followed by a JSON line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See `RATIONALE.md` for why each workload and metric exists.

mod checks;
mod passes;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The seed at which every experiment runs at its own default seed, so
/// that the registry outputs must match the committed goldens byte for
/// byte. Any other seed `s` runs each seeded experiment at seed `s`.
pub const DEFAULT_SEED: u64 = 42;

/// How many times a run sets its workload up before the measured phase.
pub const SETUP_REPEATS: usize = 25;

/// Share of the set-up times cut from each end before `setup_s` averages
/// the rest. The host runs this machine's vCPUs in a fast and a slow
/// state (a set-up of some 80 µs takes about 52 µs or about 82 µs) for
/// stretches of a few milliseconds to seconds. The median of such a
/// mixture jumps from one state to the other as their shares cross one
/// half; the mean of its middle moves in proportion, and cutting the ends
/// drops the odd set-up that meets page faults.
pub const SETUP_TRIM: f64 = 0.2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's simulated figures, one pass after another.
    Figures,
    /// The receding-horizon co-optimizer at defaults.
    Schedule,
    /// The fleet engine at 100,000 servers.
    Fleet,
    /// An embedded `ttsd` server under cached, cold and job traffic.
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "figures" => Some(Self::Figures),
            "schedule" => Some(Self::Schedule),
            "fleet" => Some(Self::Fleet),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::Figures => "figures",
            Self::Schedule => "schedule",
            Self::Fleet => "fleet",
            Self::Serve => "serve",
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    /// Which workload to drive.
    pub workload: Workload,
    /// The workload seed; [`DEFAULT_SEED`] reproduces the goldens.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub budget: Duration,
    /// Per-layer (traced) run instead of end-to-end.
    pub traced: bool,
    /// Where the committed `*.summary.json` goldens are read from.
    pub results: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <figures|schedule|fleet|serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--results <dir>]";

impl Run {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = None;
        let mut traced = false;
        let mut results = PathBuf::from("results");
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("--seed needs an unsigned integer, got {value:?}"))?;
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| {
                            format!("--seconds needs a positive number, got {value:?}")
                        })?;
                    seconds = Some(s);
                }
                "--trace" => {
                    traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                    };
                }
                "--results" => results = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            traced,
            results,
        })
    }

    /// The seed handed to seeded experiments: `None` (their own default)
    /// at [`DEFAULT_SEED`], else the workload seed cut to the 53 bits the
    /// parameter schema accepts.
    pub fn experiment_seed(&self) -> Option<u64> {
        (self.seed != DEFAULT_SEED).then_some(self.seed & ((1 << 53) - 1))
    }
}

/// Runs `pass(i)` for `i = 0, 1, …` until `budget` is spent, stopping at
/// the pass boundary closest to it, but never before `min_passes` passes;
/// a pass that returns `false` ends the loop at once (a broken
/// connection). Returns the elapsed time.
pub fn within_budget(
    budget: Duration,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> bool,
) -> Duration {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let began = Instant::now();
        let go_on = pass(i);
        i += 1;
        let last = began.elapsed();
        if !go_on || (i >= min_passes && start.elapsed() + last / 2 >= budget) {
            return start.elapsed();
        }
    }
}

/// Runs `setup` once and returns the process CPU time it took, in
/// seconds, with its value. CPU time rather than wall time, because a
/// set-up lasts microseconds to milliseconds and one stolen time slice of
/// the host would double its wall time.
pub fn timed_setup<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let before = report::process_cpu_s();
    let value = setup()?;
    Ok((report::cpu_since(before), value))
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the time of each and
/// the last set-up's value; every earlier value is handed to `teardown`
/// outside the timed region.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(stats::Samples, T), String> {
    let mut times = stats::Samples::default();
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            teardown(previous)?;
        }
        let (time, value) = timed_setup(&mut setup)?;
        times.push(time);
        last = Some(value);
    }
    Ok((times, last.expect("at least one set-up ran")))
}

/// The `setup_s` metric over a run's set-up times.
pub fn setup_metric(times: &stats::Samples) -> report::Metric {
    report::Metric::over("setup_s", "s", times.trimmed_mean(SETUP_TRIM), times.len())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = Run::parse(&args).unwrap_or_else(|msg| {
        eprintln!("perfbench: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    if report::process_cpu_s().is_none() {
        eprintln!("perfbench: the process CPU clock is missing");
        std::process::exit(2);
    }
    // Every workload runs its simulations as wide as the host allows,
    // except `fleet`: spread over threads, it spawns and joins them once
    // per epoch, and the CPU that costs depends on whether the other vCPUs
    // sit idle, so it steps its shards on one thread (see RATIONALE.md).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match run.workload {
        Workload::Fleet => 1,
        _ => nproc,
    };
    tts_exec::set_thread_override(Some(threads));
    let host = report::Host::current();

    let steal_before = report::host_steal_s();
    let started = Instant::now();
    let result = match run.workload {
        Workload::Serve => serve::run(&run),
        _ => passes::run(&run),
    };
    let elapsed = started.elapsed().as_secs_f64();
    let mut outcome = result.unwrap_or_else(|msg| {
        eprintln!("perfbench: {msg}");
        std::process::exit(2);
    });
    // How much CPU the host took from this machine while the run lasted:
    // wall-time metrics of a run with a high share are suspect.
    if let (Some(before), Some(after)) = (steal_before, report::host_steal_s()) {
        let share = (after - before) / (elapsed * nproc as f64);
        outcome
            .metrics
            .push(report::Metric::new("host_steal_frac", "ratio", share));
    }
    if !run.traced {
        let rss = report::peak_rss_mb().unwrap_or_else(|| {
            eprintln!("perfbench: /proc/self/status does not report VmHWM");
            std::process::exit(2);
        });
        outcome
            .metrics
            .push(report::Metric::new("peak_rss_mb", "MB", rss));
    }
    let header = format!(
        "workload={} seed={} seconds={} trace={}",
        run.workload.name(),
        run.seed,
        run.budget.as_secs_f64(),
        u8::from(run.traced)
    );
    report::print(&header, &host, &outcome, run.traced);
}
