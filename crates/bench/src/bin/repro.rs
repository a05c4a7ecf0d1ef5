//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [<experiment>|all] [--<param> VALUE]... [--write] [--metrics PATH] [--wall-unix SECS]
//! repro bench-check <report.json> <baseline.json> <max-regress-pct>
//! repro chaos [--seeds N] [--seed 0xHEX] [--plan FILE] [--summary PATH]
//!             [--no-storm] [--threads N]
//! ```
//!
//! `<experiment>` is any name in the experiment registry
//! (`thermal_time_shifting::experiment::registry`); `all`, the default,
//! runs the registry in suite order, except `chaos`. Flags are the
//! experiment's params in
//! kebab-case (`melt_temp_c` is `--melt-temp-c`); see EXPERIMENTS.md §
//! Experiment parameters. They pass through the same schema validation as
//! `POST /v1/experiments/{name}`, so an unknown experiment, a flag the
//! experiment does not take, or an out-of-range value is a usage error
//! (exit 2). `all` takes only `--threads`, so the record it writes is
//! always the default-sized suite.
//!
//! Stdout is the record itself: each experiment's `EXPERIMENTS.md`
//! section, then the paper-vs-measured summary — for `all`, exactly the
//! `EXPERIMENTS.md` body between the endpoint tables and the regeneration
//! time line.
//!
//! `--threads N` pins the `tts_exec` worker count for every sweep in the
//! run (overriding `TTS_THREADS` and the machine default). Results are
//! byte-identical at any thread count — see the determinism tests.
//!
//! With `--write`, each experiment files its JSON artifacts and the
//! machine-readable summary `results/<name>.summary.json` (the bytes
//! `ttsd` serves); `all --write` also rewrites `EXPERIMENTS.md`, the
//! paper-vs-measured record.
//!
//! `--metrics PATH` collects observability data (counters, gauges,
//! histograms, span timers — see `tts_obs`) across every experiment in the
//! run and writes a JSON sidecar `{"snapshot": …, "flushes": […]}` to
//! PATH. The snapshot body contains only deterministic metrics, so the
//! sidecar is byte-identical at any thread count; `--wall-unix SECS`
//! stamps it with a caller-supplied wall clock (omitted by default to keep
//! the bytes reproducible). Flushes come from the discrete simulator's
//! periodic flush hook, stamped with simulated time.
//!
//! `bench-check` compares a bench harness JSON report against a baseline
//! (e.g. `BENCH_baseline.json`) and fails if any benchmark present in both
//! regressed by more than the given percentage — the CI gate that keeps
//! the disabled-metrics hot paths at full speed.
//!
//! `chaos` is the fault-injection gate; its replay flags are not params.

use std::fmt::Write as _;
use std::time::Instant;
use thermal_time_shifting::experiment::{self, ExecCtx, Experiment, Params};
use thermal_time_shifting::experiments::Comparison;
use thermal_time_shifting::params;
use thermal_time_shifting::report::comparison_row;
use tts_units::json::{self, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-check") => std::process::exit(bench_check(&args[1..])),
        Some("chaos") => std::process::exit(chaos(&args[1..])),
        _ => {}
    }
    let cli = Cli::parse(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    if let Some(n) = cli.params.threads {
        tts_exec::set_thread_override(Some(n));
    }
    let ctx = if cli.metrics.is_some() {
        ExecCtx::with_metrics()
    } else {
        ExecCtx::disabled()
    };
    if ctx.is_enabled() {
        // Route the worker pool's (best-effort) telemetry to the same
        // registry.
        tts_exec::set_metrics_sink(ctx.sink().clone());
    }

    let started = Instant::now();
    let mut comparisons = Vec::new();
    let mut body = String::new();
    for exp in &cli.experiments {
        let fig = exp
            .run_with(&ctx, &cli.params)
            .expect("params were parsed against this experiment's schema");
        print!("{}", fig.markdown);
        if cli.write {
            for (path, doc) in &fig.artifacts {
                write_file(path, &doc.to_string_pretty());
            }
            write_file(
                &format!("results/{}.summary.json", fig.name),
                &exp.emit_json(&fig).to_string_pretty(),
            );
        }
        body.push_str(&fig.markdown);
        comparisons.extend(fig.comparisons);
    }
    let summary = summary_md(&comparisons);
    print!("{summary}");
    body.push_str(&summary);

    // Only the whole default-sized suite is a complete record.
    if cli.write && cli.all {
        let md = experiments_md(&body, started);
        write_file("EXPERIMENTS.md", &md);
        println!("wrote EXPERIMENTS.md");
    }
    if let Some(path) = cli.metrics {
        let sidecar = ctx.sidecar(None, cli.wall_unix).expect("metrics enabled");
        let text = sidecar.to_string_pretty();
        // Parse-back validation: the sidecar must round-trip through the
        // in-repo JSON layer before it is worth writing.
        let parsed = json::parse(&text).expect("metrics sidecar parses back");
        assert_eq!(parsed, sidecar, "metrics sidecar round-trips losslessly");
        write_file(&path, &text);
        println!("wrote metrics sidecar to {path}");
    }
    eprintln!("done in {:.1} s", started.elapsed().as_secs_f64());
}

/// A parsed experiment invocation: what to run, with which params, and
/// where the results go.
struct Cli {
    /// Whether this is the `all` suite run.
    all: bool,
    experiments: Vec<Box<dyn Experiment>>,
    params: Params,
    write: bool,
    metrics: Option<String>,
    wall_unix: Option<f64>,
}

impl Cli {
    /// Parses `[<experiment>|all] [--<param> VALUE]... [--write]
    /// [--metrics PATH] [--wall-unix SECS]`. Param flags are collected
    /// into a JSON object and parsed against the selected schema — the
    /// experiment's own, or only `threads` for `all` — so every error
    /// message is the schema's.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut name = None;
        let mut write = false;
        let mut metrics = None;
        let mut wall_unix = None;
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--write" => write = true,
                "--metrics" => match it.next() {
                    Some(p) if !p.is_empty() && !p.starts_with("--") => metrics = Some(p.clone()),
                    _ => return Err("--metrics requires an output path".into()),
                },
                "--wall-unix" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                    // JSON has no spelling for NaN or ±inf, so the sidecar
                    // could not carry one.
                    Some(s) if s.is_finite() => wall_unix = Some(s),
                    _ => {
                        return Err(
                            "--wall-unix requires a finite number (seconds since the epoch)".into(),
                        )
                    }
                },
                flag if flag.starts_with("--") => {
                    let raw = it
                        .next()
                        .ok_or_else(|| format!("{flag} requires a value"))?;
                    // Anything that is not a JSON number reaches the schema
                    // as a string, which it rejects in its own words.
                    let value = json::parse(raw).unwrap_or_else(|_| Json::Str(raw.clone()));
                    flags.push((flag[2..].replace('-', "_"), value));
                }
                selector if name.is_none() => name = Some(selector),
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        let name = name.unwrap_or("all");
        let all = name == "all";
        let (experiments, schema): (Vec<Box<dyn Experiment>>, _) = if all {
            // `chaos` is a gate, run as `repro chaos` with replay flags
            // that are not params.
            let suite = experiment::registry()
                .into_iter()
                .filter(|e| e.name() != "chaos")
                .collect();
            (suite, params::BASE)
        } else {
            let exp = experiment::find(name).ok_or_else(|| {
                let known: Vec<&str> = experiment::registry().iter().map(|e| e.name()).collect();
                format!(
                    "unknown experiment {name:?} (known: all, {})",
                    known.join(", ")
                )
            })?;
            let schema = exp.schema();
            (vec![exp], schema)
        };
        let params =
            Params::from_json(&Json::Obj(flags), schema).map_err(|msg| format!("{name}: {msg}"))?;
        Ok(Self {
            all,
            experiments,
            params,
            write,
            metrics,
            wall_unix,
        })
    }
}

/// Writes `text` to `path`, creating its parent directory.
fn write_file(path: &str, text: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// The paper-vs-measured `## Summary` section; empty when the run made
/// no comparison.
fn summary_md(comparisons: &[(String, Comparison)]) -> String {
    let mut md = String::new();
    if !comparisons.is_empty() {
        md.push_str("\n## Summary\n\n| experiment | metric | paper | measured | deviation |\n|---|---|---|---|---|\n");
        for (label, c) in comparisons {
            let _ = writeln!(md, "| {label} {}", comparison_row(c));
        }
    }
    md
}

/// The `EXPERIMENTS.md` record: preamble, serving endpoints, the `body`
/// `repro` printed (every section in suite order, then the summary), and
/// the regeneration time.
fn experiments_md(body: &str, started: Instant) -> String {
    let mut md = String::from(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run --release -p tts-bench --bin repro -- all --write`.\n\n\
         Absolute agreement with the authors' testbed is not expected (our substrate\n\
         is a from-scratch simulator, theirs was ANSYS Icepak + a physical RD330 +\n\
         an unreleased DCSim); the reproduction criteria are the *shapes*: who wins,\n\
         by roughly what factor, and where the crossovers fall. See DESIGN.md for\n\
         the substitutions.\n\n",
    );
    md.push_str(&serving_endpoints_md());
    md.push_str(body);
    let _ = writeln!(
        md,
        "\n*Total regeneration time: {:.1} s.*",
        started.elapsed().as_secs_f64()
    );
    md
}

/// The `EXPERIMENTS.md` preamble section documenting the `ttsd` HTTP
/// endpoints, with the experiment rows generated from the live registry
/// so regeneration can never drift from the code.
fn serving_endpoints_md() -> String {
    let mut md = String::from(
        "## Serving endpoints (`ttsd`)\n\n\
         Every experiment below is also served over HTTP by `ttsd`\n\
         (`cargo run --release -p tts-svc --bin ttsd`). `POST\n\
         /v1/experiments/{name}` answers exactly the bytes `--write` files as\n\
         `results/{name}.summary.json`, computed or cached, at any thread\n\
         count; see DESIGN.md (\"Serving layer\") for the architecture.\n\n\
         | endpoint | method | description |\n|---|---|---|\n\
         | `/healthz` | GET | liveness probe |\n\
         | `/metrics` | GET | metrics snapshot (deterministic; `?full=1` adds best-effort) |\n\
         | `/v1/experiments` | GET | the registry: names and supported parameters |\n\
         | `/v1/jobs` | GET | list known jobs (active and retained terminal) |\n\
         | `/v1/jobs` | POST | submit `{\\\"experiment\\\", \\\"params\\\"}` async; `202` + job id |\n\
         | `/v1/jobs/{id}` | GET | job status document |\n\
         | `/v1/jobs/{id}/events` | GET | chunked NDJSON progress stream until terminal |\n\
         | `/v1/jobs/{id}/result` | GET | result bytes (`409` until done) |\n\
         | `/v1/jobs/{id}` | DELETE | cooperative cancellation |\n\
         | `/admin/shutdown` | POST | graceful drain and final metrics flush |\n",
    );
    for exp in experiment::registry() {
        let _ = writeln!(
            md,
            "| `/v1/experiments/{}` | POST | run `{}` (params: {}) |",
            exp.name(),
            exp.name(),
            exp.schema()
                .iter()
                .map(|p| format!("`{}`", p.name))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    md.push('\n');
    // The declarative parameter schemas, rendered from the same
    // `ParamSpec` tables `GET /v1/experiments` serves — EXPERIMENTS.md
    // can never drift from the wire contract.
    md.push_str(
        "### Experiment parameters\n\n\
         Each experiment accepts only the parameters below (anything else is a\n\
         `400 unknown parameter`); ranges are inclusive and validated server-side.\n\n",
    );
    for exp in experiment::registry() {
        let _ = writeln!(md, "#### `{}`\n", exp.name());
        md.push_str(&params::schema_markdown(exp.schema()));
        md.push('\n');
    }
    md
}

/// `bench-check <report.json> <baseline.json> <max-regress-pct>`: fails
/// (exit 1) if any benchmark present in both reports has a mean more than
/// `max-regress-pct` percent slower than the baseline.
///
/// Exit codes: `0` all within bounds, `1` regression, `2` usage error or
/// no overlapping benchmarks, `3` a report/baseline file is absent or
/// malformed (the gate degrades gracefully — CI treats `3` as "nothing
/// to compare against", not as a crashed harness).
fn bench_check(args: &[String]) -> i32 {
    let (report_path, baseline_path, pct) = match args {
        [r, b, p] => match p.parse::<f64>() {
            Ok(pct) if pct >= 0.0 => (r, b, pct),
            _ => {
                eprintln!("bench-check: max-regress-pct must be a non-negative number");
                return 2;
            }
        },
        _ => {
            eprintln!("usage: repro bench-check <report.json> <baseline.json> <max-regress-pct>");
            return 2;
        }
    };
    let load = |path: &str| match tts_bench::baseline::load_report(path) {
        Ok(entries) => Some(entries),
        Err(msg) => {
            eprintln!("bench-check: {msg}");
            eprintln!("bench-check: skipping comparison (exit 3): record a fresh baseline to re-arm the gate");
            None
        }
    };
    let (Some(report), Some(baseline)) = (load(report_path), load(baseline_path)) else {
        return 3;
    };
    let mut checked = 0;
    let mut failures = 0;
    for (name, mean) in &report {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == name) else {
            continue;
        };
        checked += 1;
        let limit = base * (1.0 + pct / 100.0);
        let delta = (mean / base - 1.0) * 100.0;
        let ok = *mean <= limit;
        println!(
            "bench-check {:<48} {:>12.0} ns vs baseline {:>12.0} ns ({:+.1} %) {}",
            name,
            mean,
            base,
            delta,
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            failures += 1;
        }
    }
    if checked == 0 {
        eprintln!(
            "bench-check: no overlapping benchmarks between {report_path} and {baseline_path}"
        );
        return 2;
    }
    if failures > 0 {
        eprintln!("bench-check: {failures} of {checked} benchmarks regressed more than {pct} %");
        return 1;
    }
    println!("bench-check: all {checked} overlapping benchmarks within {pct} % of baseline");
    0
}

/// `chaos [--seeds N] [--seed 0xHEX] [--plan FILE] [--summary PATH]
/// [--no-storm] [--threads N]`: the fault-injection gate.
///
/// Without `--seed`, runs a batch of `--seeds` scenarios (default 16)
/// from the fixed base seed, then — unless `--no-storm` — drives the
/// connection-level storm against an embedded `ttsd` server, and writes
/// a byte-deterministic summary JSON (default
/// `results/chaos.summary.json`; only plan-determined storm fields are
/// included, so the file is `cmp`-identical at any `TTS_THREADS`).
///
/// With `--seed 0x…` (the one-liner printed for a failing seed), replays
/// exactly that scenario and prints its full report. `--plan FILE` runs
/// an explicit fault plan instead of sampling one.
///
/// Exit codes: `0` all invariants held, `1` violations (each with its
/// replay line), `2` usage error.
fn chaos(args: &[String]) -> i32 {
    use tts_chaos::{run_batch, run_plan, run_scenario, BatchConfig, FaultPlan, ScenarioConfig};
    use tts_units::json::{FromJson, Json, ToJson};

    let mut seeds: usize = 16;
    let mut seed: Option<u64> = None;
    let mut plan_path: Option<String> = None;
    let mut summary_path = "results/chaos.summary.json".to_string();
    let mut storm = true;
    let parse_u64 = |raw: &str| -> Option<u64> {
        match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => raw.parse().ok(),
        }
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => seeds = n,
                _ => {
                    eprintln!("chaos: --seeds requires a positive integer");
                    return 2;
                }
            },
            "--seed" => match it.next().and_then(|v| parse_u64(v)) {
                Some(s) => seed = Some(s),
                None => {
                    eprintln!("chaos: --seed requires a decimal or 0x-hex integer");
                    return 2;
                }
            },
            "--plan" => match it.next() {
                Some(p) => plan_path = Some(p.clone()),
                None => {
                    eprintln!("chaos: --plan requires a file path");
                    return 2;
                }
            },
            "--summary" => match it.next() {
                Some(p) => summary_path = p.clone(),
                None => {
                    eprintln!("chaos: --summary requires an output path");
                    return 2;
                }
            },
            "--no-storm" => storm = false,
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => tts_exec::set_thread_override(Some(n)),
                _ => {
                    eprintln!("chaos: --threads requires a positive integer");
                    return 2;
                }
            },
            other => {
                eprintln!(
                    "chaos: unknown argument {other:?}\nusage: repro chaos [--seeds N] \
                     [--seed 0xHEX] [--plan FILE] [--summary PATH] [--no-storm] [--threads N]"
                );
                return 2;
            }
        }
    }

    let scenario_cfg = ScenarioConfig::default();
    let plan = match &plan_path {
        Some(path) => {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| format!("{e}"))
                .and_then(|text| {
                    tts_units::json::parse(&text).map_err(|e| format!("invalid JSON: {e:?}"))
                })
                .and_then(|json| FaultPlan::from_json(&json).map_err(|e| format!("{e:?}")));
            match doc {
                Ok(plan) => Some(plan),
                Err(msg) => {
                    eprintln!("chaos: cannot load plan {path}: {msg}");
                    return 2;
                }
            }
        }
        None => None,
    };

    // Single-scenario replay: the target of the printed one-liner.
    if seed.is_some() || plan.is_some() {
        let seed = seed.unwrap_or(0);
        let report = match &plan {
            Some(plan) => run_plan(seed, &scenario_cfg, plan),
            None => run_scenario(seed, &scenario_cfg),
        };
        println!("{}", report.to_json().to_string_pretty());
        if report.all_green() {
            println!(
                "chaos: seed {seed:#x} green ({} checks, {} faults)",
                report.checks,
                report.fault_counts.iter().map(|(_, c)| *c).sum::<u64>()
            );
            return 0;
        }
        eprintln!(
            "chaos: seed {seed:#x} violated {} invariant(s); replay with: {}",
            report.violations.len(),
            report.replay_command()
        );
        return 1;
    }

    // Batch mode: the CI gate.
    let cfg = BatchConfig {
        seeds,
        ..BatchConfig::default()
    };
    let summary = run_batch(&cfg);
    println!(
        "chaos: {} scenarios from base seed {:#x}: {} checks, {} violation(s)",
        summary.scenarios,
        summary.base_seed,
        summary.checks,
        summary.violations().len()
    );
    for (kind, count) in &summary.fault_counts {
        println!("chaos:   {kind:<22} {count}");
    }
    let storm_report = storm.then(|| {
        let report =
            tts_svc::run_storm(&tts_svc::default_storm(), &tts_svc::StormConfig::default());
        println!(
            "chaos: storm: {} clients answered, {} timed out, {} violation(s)",
            report.answered,
            report.timed_out,
            report.violations.len()
        );
        report
    });

    let mut doc = vec![("batch".to_string(), summary.to_json())];
    if let Some(report) = &storm_report {
        doc.push(("storm".to_string(), report.deterministic_json()));
    }
    let json = Json::Obj(doc).to_string_pretty();
    if let Some(dir) = std::path::Path::new(&summary_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&summary_path, &json) {
        eprintln!("chaos: cannot write {summary_path}: {e}");
        return 2;
    }
    println!("chaos: summary written to {summary_path}");

    let storm_failed = storm_report.as_ref().is_some_and(|r| !r.all_green());
    if summary.all_green() && !storm_failed {
        println!("chaos: all green");
        return 0;
    }
    if !summary.all_green() {
        eprintln!("chaos: failing seeds — replay each with:");
        for line in summary.replay_lines() {
            eprintln!("  {line}");
        }
    }
    if storm_failed {
        eprintln!("chaos: the connection storm found violations (see summary JSON)");
    }
    1
}
