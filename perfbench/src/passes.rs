//! The pass workloads — `figures`, `schedule` and `fleet`. Each is a
//! closed loop of one caller that runs a fixed list of public entry points
//! (one pass) again and again, checking every output.
//!
//! Untraced runs use `ExecCtx::disabled()`. Traced runs alternate untraced
//! and traced passes: a traced pass gives every call a fresh
//! `ExecCtx::with_metrics()` and routes `tts_exec` telemetry to it, and
//! the per-layer metrics come from those registries and from the
//! benchmark's own timers around each call.

use std::time::Instant;

use thermal_time_shifting::dcsim::throttle::{run_constrained, ConstrainedConfig};
use thermal_time_shifting::experiment::{self, ExecCtx, Experiment, Params};
use thermal_time_shifting::experiments;
use thermal_time_shifting::server::validation::ValidationConfig;
use thermal_time_shifting::server::ServerClass;
use thermal_time_shifting::units::json::{parse, Json, ToJson};
use thermal_time_shifting::units::KiloWatts;
use thermal_time_shifting::workload::{GoogleTrace, TimeSeries};
use thermal_time_shifting::Scenario;
use tts_obs::MetricsSink;

use crate::checks::{self, Goldens, Tally};
use crate::report::{self, Metric, Outcome};
use crate::stats::Samples;
use crate::{repeated_setup, setup_metric, timed_setup, within_budget, Run, Workload};

/// Servers in the `fleet` workload: a tenth of the experiment's default
/// million.
pub const FLEET_SERVERS: usize = 100_000;

/// Simulated hours of the `fleet` workload: the first quarter of the
/// two-day trace, so that one pass takes about a second and a run holds
/// dozens of passes.
pub const FLEET_HORIZON_H: f64 = 12.0;

/// The fleet experiment's epoch, in seconds.
const FLEET_EPOCH_S: f64 = 60.0;

/// Planning horizon of the `schedule` workload, hours: half the default
/// 24 h. Each of the 48 plans solves a smaller LP, so that one pass takes
/// about a second; at the default seed the default-size run is checked
/// against its golden once, untimed.
pub const SCHEDULE_HORIZON_H: f64 = 12.0;

/// Set-ups timed after each pass of an untraced run, besides the
/// [`crate::SETUP_REPEATS`] before the first; a set-up takes some 80 µs.
const SETUPS_PER_PASS: usize = 8;

/// Repetitions of the direct `run_constrained` probe.
const THROTTLE_PROBES: usize = 5;

/// What one call runs.
enum Target {
    /// `experiments::fig4_with` (no registry entry, no golden).
    Fig4(ValidationConfig),
    /// A registry experiment through `Experiment::run_with` + `emit_json`.
    Registry(Box<dyn Experiment>, Params),
}

/// Invariants an output must satisfy at any seed.
type Invariants = Box<dyn Fn(&Json) -> Result<(), String>>;

/// One public entry point of a pass, with the checks its output must pass.
struct Call {
    name: &'static str,
    target: Target,
    /// Whether the output must equal `results/<name>.summary.json`.
    golden: bool,
    invariants: Invariants,
}

/// A set-up workload: the calls of one pass and the input trace.
struct Plan {
    calls: Vec<Call>,
    /// Calls run once, untimed, only to check their output against the
    /// goldens: the default-size runs of calls the pass makes smaller.
    golden_only: Vec<Call>,
    /// The two-day Google trace the simulations run on.
    trace: TimeSeries,
}

/// What one call produced.
struct Output {
    bytes: Vec<u8>,
    run_s: f64,
    render_s: f64,
}

/// One pass: its wall time and each call's output (or error).
struct Pass {
    wall_s: f64,
    /// Process CPU time of the pass (NaN where the clock is missing).
    cpu_s: f64,
    outputs: Vec<Result<Output, String>>,
    /// For a traced pass, each call's registry: the deterministic
    /// snapshot (which must repeat exactly) and the full one.
    telemetry: Option<Vec<(String, Json)>>,
}

fn no_invariants() -> Invariants {
    Box::new(|_| Ok(()))
}

/// Sets `run.workload` up the way a client of the program does: resolves
/// each call's experiment in the registry, parses its request body
/// through the experiment's parameter schema, and generates the two-day
/// trace the simulations run on.
fn set_up(run: &Run) -> Result<Plan, String> {
    let seed = run.experiment_seed();
    // A request body with `fields` and, at any seed but the default, the
    // seed.
    let body = |fields: &str| {
        let seed = seed.map(|s| format!("\"seed\": {s}"));
        let fields: Vec<&str> = [Some(fields), seed.as_deref()]
            .into_iter()
            .flatten()
            .filter(|f| !f.is_empty())
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let seeded = body("");
    let registry = |name: &'static str, body: &str, golden: bool| -> Result<Call, String> {
        let exp = experiment::find(name).ok_or_else(|| format!("{name} is not registered"))?;
        let doc = parse(body).map_err(|e| format!("{name}: bad request body: {e:?}"))?;
        let params = Params::from_json(&doc, exp.schema())?;
        Ok(Call {
            name,
            target: Target::Registry(exp, params),
            golden,
            invariants: no_invariants(),
        })
    };
    let trace = GoogleTrace::default_two_day().total().clone();
    let calls = match run.workload {
        Workload::Figures => {
            let fig4 = ValidationConfig {
                seed: seed.unwrap_or(ValidationConfig::default().seed),
                ..ValidationConfig::default()
            };
            vec![
                Call {
                    name: "fig4",
                    target: Target::Fig4(fig4),
                    golden: false,
                    invariants: no_invariants(),
                },
                registry("fig7", "{}", true)?,
                registry("fig11", "{}", true)?,
                registry("fig12", "{}", true)?,
                registry("dcsim", &seeded, seed.is_none())?,
                registry("design", &seeded, seed.is_none())?,
                registry("scenarios", &seeded, seed.is_none())?,
            ]
        }
        Workload::Schedule => vec![Call {
            invariants: Box::new(checks::schedule_invariants),
            ..registry(
                "schedule",
                &body(&format!("\"horizon_h\": {SCHEDULE_HORIZON_H}")),
                false,
            )?
        }],
        Workload::Fleet => {
            let fields = format!("\"servers\": {FLEET_SERVERS}, \"horizon_h\": {FLEET_HORIZON_H}");
            // The experiment runs the horizon in 60 s epochs.
            let epochs = (FLEET_HORIZON_H * 3600.0 / FLEET_EPOCH_S).ceil();
            vec![Call {
                invariants: Box::new(move |doc| {
                    checks::fleet_invariants(doc, FLEET_SERVERS as f64, epochs)
                }),
                ..registry("fleet", &body(&fields), false)?
            }]
        }
        Workload::Serve => unreachable!("serve is not a pass workload"),
    };
    let golden_only = match (run.workload, seed) {
        (Workload::Schedule, None) => vec![Call {
            invariants: Box::new(checks::schedule_invariants),
            ..registry("schedule", "{}", true)?
        }],
        _ => Vec::new(),
    };
    Ok(Plan {
        calls,
        golden_only,
        trace,
    })
}

/// Runs one call, timing the run and the render separately.
fn execute(call: &Call, ctx: &ExecCtx) -> Result<Output, String> {
    match &call.target {
        Target::Fig4(config) => {
            let started = Instant::now();
            let result = experiments::fig4_with(config);
            let run_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let bytes = result.to_json().to_string_pretty().into_bytes();
            Ok(Output {
                bytes,
                run_s,
                render_s: started.elapsed().as_secs_f64(),
            })
        }
        Target::Registry(exp, params) => {
            let started = Instant::now();
            let fig = exp
                .run_with(ctx, params)
                .map_err(|msg| format!("{}: run_with failed: {msg}", call.name))?;
            let run_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let bytes = exp.emit_json(&fig).to_string_pretty().into_bytes();
            Ok(Output {
                bytes,
                run_s,
                render_s: started.elapsed().as_secs_f64(),
            })
        }
    }
}

/// Runs every call once; a traced pass gives each call its own registry.
fn pass(calls: &[Call], traced: bool) -> Pass {
    let ctxs: Vec<ExecCtx> = calls
        .iter()
        .map(|_| {
            if traced {
                ExecCtx::with_metrics()
            } else {
                ExecCtx::disabled()
            }
        })
        .collect();
    let cpu_before = report::process_cpu_s();
    let started = Instant::now();
    let outputs = calls
        .iter()
        .zip(&ctxs)
        .map(|(call, ctx)| {
            if traced {
                tts_exec::set_metrics_sink(ctx.sink().clone());
            }
            execute(call, ctx)
        })
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = report::cpu_since(cpu_before);
    tts_exec::set_metrics_sink(MetricsSink::disabled());
    let telemetry = traced.then(|| {
        ctxs.iter()
            .map(|ctx| {
                let det = ctx.sink().snapshot(None, None).unwrap_or(Json::Null);
                let full = ctx.sink().snapshot_full(None, None).unwrap_or(Json::Null);
                (det.to_string(), full)
            })
            .collect()
    });
    Pass {
        wall_s,
        cpu_s,
        outputs,
        telemetry,
    }
}

/// Checks one call's output: golden, byte equality with the first pass,
/// finiteness, and the call's invariants.
fn check_output(
    call: &Call,
    output: &Result<Output, String>,
    first: Option<&[u8]>,
    goldens: &Goldens,
) -> Result<(), String> {
    let bytes = &output.as_ref().map_err(Clone::clone)?.bytes;
    if call.golden {
        goldens.check(call.name, bytes)?;
    }
    if first.is_some_and(|first| first != bytes.as_slice()) {
        return Err(format!("{}: output differs from the first pass", call.name));
    }
    let doc = checks::parse_doc(call.name, bytes)?;
    match call.target {
        Target::Fig4(_) => checks::all_finite(call.name, &doc)?,
        Target::Registry(..) => checks::summary_is_well_formed(call.name, &doc)?,
    }
    (call.invariants)(&doc)
}

/// Checks a pass. The first pass's outputs become the reference for
/// later passes.
fn check_pass(
    calls: &[Call],
    pass: &Pass,
    reference: &mut Option<Vec<Vec<u8>>>,
    goldens: &Goldens,
    tally: &mut Tally,
) {
    for (i, (call, output)) in calls.iter().zip(&pass.outputs).enumerate() {
        let first = reference.as_ref().map(|r| r[i].as_slice());
        tally.record(check_output(call, output, first, goldens));
    }
    if reference.is_none() {
        *reference = Some(
            pass.outputs
                .iter()
                .map(|o| o.as_ref().map(|o| o.bytes.clone()).unwrap_or_default())
                .collect(),
        );
    }
}

/// Runs the plan's golden-only calls once, after the measured phase, and
/// checks their outputs.
fn check_golden_only(plan: &Plan, goldens: &Goldens, tally: &mut Tally) {
    for call in &plan.golden_only {
        let output = execute(call, &ExecCtx::disabled());
        tally.record(check_output(call, &output, None, goldens));
    }
}

/// Runs a pass workload (`figures`, `schedule` or `fleet`).
pub fn run(run: &Run) -> Result<Outcome, String> {
    // The goldens are the benchmark's own data, so they are read once,
    // outside the timed set-up.
    let goldens = Goldens::load(&run.results)?;
    let (mut setup, plan) = repeated_setup(|| set_up(run), |_| Ok(()))?;
    if run.traced {
        let mut outcome = traced(run, &goldens, &plan);
        check_golden_only(&plan, &goldens, &mut outcome.tally);
        return Ok(outcome);
    }
    let calls = &plan.calls;
    let mut tally = Tally::default();
    let mut reference = None;
    let mut wall = Samples::default();
    let mut cpu = Samples::default();
    within_budget(run.budget, 1, |_| {
        let p = pass(calls, false);
        wall.push(p.wall_s);
        cpu.push(p.cpu_s);
        check_pass(calls, &p, &mut reference, &goldens, &mut tally);
        // More set-ups between passes, so that `setup_s` samples the host
        // over the whole run and not only its first milliseconds.
        for _ in 0..SETUPS_PER_PASS {
            match timed_setup(|| set_up(run)) {
                Ok((time, _)) => setup.push(time),
                Err(msg) => tally.record(Err(msg)),
            }
        }
        true
    });
    check_golden_only(&plan, &goldens, &mut tally);
    let metrics = vec![
        setup_metric(&setup),
        Metric::over("pass_s", "s", wall.median(), wall.len()),
        Metric::over("pass_cpu_s", "s", cpu.median(), cpu.len()),
    ];
    let samples = vec![
        ("setup_s".to_string(), setup.values().to_vec()),
        ("pass_s".to_string(), wall.values().to_vec()),
        ("pass_cpu_s".to_string(), cpu.values().to_vec()),
    ];
    Ok(Outcome {
        tally,
        metrics,
        samples,
    })
}

/// A counter's value in a full snapshot, deterministic or best-effort
/// (0 when the run never registered it).
fn counter(full: &Json, name: &str) -> f64 {
    full.get("counters")
        .and_then(|c| c.get(name))
        .or_else(|| {
            full.get("best_effort")
                .and_then(|b| b.get("counters"))
                .and_then(|c| c.get(name))
        })
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A best-effort section value, e.g. `["histograms", name, "max"]`.
pub fn best_effort(full: &Json, path: &[&str]) -> Option<f64> {
    let mut at = full.get("best_effort")?;
    for key in path {
        at = at.get(key)?;
    }
    at.as_f64()
}

/// The per-layer work counts of `BENCHMARK.json`, each summed over the
/// calls of one traced pass; a count is 0 where the pass never enters the
/// layer. `fleet.server_steps` is not counted by the program: it is the
/// fleet summary's servers × epochs.
pub fn layer_counts(snapshots: &[&Json], fleet_server_steps: f64) -> Vec<Metric> {
    let sum = |counter_name: &str| snapshots.iter().map(|s| counter(s, counter_name)).sum();
    [
        ("thermal.steps", "thermal.steps"),
        ("thermal.cache_rebuilds", "thermal.cache_rebuilds"),
        ("throttle.candidates", "throttle.candidates_evaluated"),
        ("cluster.candidates", "cluster.candidates_evaluated"),
        ("design.evals", "design.evals"),
        ("design.surrogate_fits", "design.surrogate.fits"),
        ("dcsim.events", "dcsim.events"),
        ("scenarios.cells", "scenarios.cells"),
        ("opt.plans", "opt.plans"),
        ("opt.pivots", "opt.simplex.iterations"),
        ("fleet.epochs", "fleet.epochs"),
        ("exec.par_map_calls", "exec.par_map_calls"),
    ]
    .into_iter()
    .map(|(metric, counter_name)| Metric::new(metric, "count", sum(counter_name)))
    .chain([Metric::new(
        "fleet.server_steps",
        "count",
        fleet_server_steps,
    )])
    .collect()
}

/// The traced run: alternating untraced and traced passes, then the
/// per-layer metrics.
fn traced(run: &Run, goldens: &Goldens, plan: &Plan) -> Outcome {
    let calls = &plan.calls;
    let mut tally = Tally::default();
    let mut reference = None;
    let mut untraced_wall = Samples::default();
    let mut traced_passes: Vec<Pass> = Vec::new();
    within_budget(run.budget, 2, |i| {
        let p = pass(calls, i % 2 == 1);
        check_pass(calls, &p, &mut reference, goldens, &mut tally);
        if p.telemetry.is_some() {
            traced_passes.push(p);
        } else {
            untraced_wall.push(p.wall_s);
        }
        true
    });
    // The deterministic registry snapshots must repeat exactly.
    let snapshots = |p: &Pass| -> Vec<String> {
        p.telemetry
            .iter()
            .flatten()
            .map(|(det, _)| det.clone())
            .collect()
    };
    let first = &traced_passes[0];
    for later in &traced_passes[1..] {
        tally.record(if snapshots(later) == snapshots(first) {
            Ok(())
        } else {
            Err("deterministic counters differ between traced passes".to_string())
        });
    }

    let mut traced_wall = Samples::default();
    let mut exp_run = Samples::default();
    let mut exp_render = Samples::default();
    for p in &traced_passes {
        traced_wall.push(p.wall_s);
        let registry_outputs = calls
            .iter()
            .zip(&p.outputs)
            .filter(|(c, _)| matches!(c.target, Target::Registry(..)))
            .filter_map(|(_, o)| o.as_ref().ok());
        let (run_s, render_s) =
            registry_outputs.fold((0.0, 0.0), |(a, b), o| (a + o.run_s, b + o.render_s));
        exp_run.push(run_s * 1e3);
        exp_render.push(render_s * 1e3);
    }
    let n = traced_passes.len();
    let mut metrics = vec![
        Metric::over("exp.run_ms", "ms", exp_run.median(), n),
        Metric::over("exp.render_ms", "ms", exp_render.median(), n),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            traced_wall.median() / untraced_wall.median() - 1.0,
        ),
        Metric::new("svc.job_events", "count", 0.0),
    ];

    let full: Vec<&Json> = first
        .telemetry
        .iter()
        .flatten()
        .map(|(_, full)| full)
        .collect();
    let doc_of = |name: &str| -> Option<Json> {
        let i = calls.iter().position(|c| c.name == name)?;
        let bytes = &first.outputs[i].as_ref().ok()?.bytes;
        checks::parse_doc(name, bytes).ok()
    };
    let fleet_steps = doc_of("fleet")
        .and_then(|d| checks::key_value(&d, "server_steps").ok())
        .unwrap_or(0.0);
    metrics.extend(layer_counts(&full, fleet_steps));
    // The epoch loop's own counter must agree with the summary.
    if let Some(doc) = doc_of("fleet") {
        let i = calls
            .iter()
            .position(|c| c.name == "fleet")
            .expect("fleet runs");
        let counted = counter(full[i], "fleet.epochs");
        tally.record(match checks::key_value(&doc, "epochs") {
            Ok(epochs) if epochs == counted => Ok(()),
            Ok(epochs) => Err(format!(
                "fleet: the epoch loop counted {counted} epochs, the summary says {epochs}"
            )),
            Err(msg) => Err(format!("fleet: {msg}")),
        });
    }

    // Per-call timings and the derived per-unit costs.
    let median_of = |name: &str, pick: fn(&Output) -> f64| -> Option<(f64, usize)> {
        let i = calls.iter().position(|c| c.name == name)?;
        let mut s = Samples::default();
        for p in &traced_passes {
            if let Ok(o) = &p.outputs[i] {
                s.push(pick(o) * 1e3);
            }
        }
        (!s.is_empty()).then(|| (s.median(), s.len()))
    };
    let call_counter = |name: &str, counter_name: &str| -> f64 {
        calls
            .iter()
            .position(|c| c.name == name)
            .map_or(0.0, |i| counter(full[i], counter_name))
    };
    for call in calls {
        if let Target::Registry(..) = call.target {
            if let Some((ms, n)) = median_of(call.name, |o| o.run_s) {
                metrics.push(Metric::over(
                    format!("exp.{}.run_ms", call.name),
                    "ms",
                    ms,
                    n,
                ));
            }
            if let Some((ms, n)) = median_of(call.name, |o| o.render_s) {
                metrics.push(Metric::over(
                    format!("exp.{}.render_ms", call.name),
                    "ms",
                    ms,
                    n,
                ));
            }
        }
    }
    if let Some((ms, n)) = median_of("fig4", |o| o.run_s) {
        metrics.push(Metric::over("thermal.fig4_ms", "ms", ms, n));
    }
    let per_unit = |name: &str, unit_count: f64, scale: f64| {
        median_of(name, |o| o.run_s)
            .filter(|_| unit_count > 0.0)
            .map(|(ms, n)| (ms * scale / unit_count, n))
    };
    if let Some((v, n)) = per_unit("fig7", call_counter("fig7", "thermal.steps"), 1e6) {
        metrics.push(Metric::over("thermal.ns_per_step", "ns", v, n));
    }
    if let Some((v, n)) = per_unit("design", call_counter("design", "design.evals"), 1.0) {
        metrics.push(Metric::over("design.ms_per_eval", "ms", v, n));
    }
    if let Some((v, n)) = per_unit("dcsim", call_counter("dcsim", "dcsim.events"), 1e-3) {
        metrics.push(Metric::over("dcsim.events_per_s", "1/s", 1.0 / v, n));
    }
    if let Some((v, n)) = per_unit(
        "scenarios",
        call_counter("scenarios", "scenarios.cells"),
        1.0,
    ) {
        metrics.push(Metric::over("scenarios.ms_per_cell", "ms", v, n));
    }
    if let Some((v, n)) = per_unit("fleet", fleet_steps, 1e6) {
        metrics.push(Metric::over("fleet.ns_per_server_step", "ns", v, n));
    }
    if let Some(i) = calls.iter().position(|c| c.name == "schedule") {
        let plans = counter(full[i], "opt.plans");
        let pivots = counter(full[i], "opt.simplex.iterations");
        // The `opt.plan` span gives exact totals. The plan-latency
        // histogram is not read: its power-of-two buckets interpolate a
        // p50 above the observed maximum.
        let span = |key: &str| best_effort(full[i], &["span_timings", "opt.plan", key]);
        metrics.push(Metric::new("opt.pivots_per_plan", "count", pivots / plans));
        if let Some(total_ns) = span("total_ns") {
            let n = plans as usize;
            metrics.push(Metric::over(
                "opt.plan_ms_mean",
                "ms",
                total_ns / plans / 1e6,
                n,
            ));
            metrics.push(Metric::new("opt.ns_per_pivot", "ns", total_ns / pivots));
        }
        if let Some(max_ns) = span("max_ns") {
            metrics.push(Metric::over(
                "opt.plan_ms_max",
                "ms",
                max_ns / 1e6,
                plans as usize,
            ));
        }
    }
    let imbalance = full
        .iter()
        .filter_map(|s| best_effort(s, &["gauges", "exec.imbalance"]))
        .fold(f64::NAN, f64::max);
    if imbalance.is_finite() {
        metrics.push(Metric::new("exec.imbalance", "ratio", imbalance));
    }
    if run.workload == Workload::Figures {
        let (probe, outcome) = throttle_probe(&plan.trace);
        tally.record(outcome);
        metrics.push(probe);
    }
    Outcome {
        tally,
        metrics,
        samples: Vec::new(),
    }
}

/// `throttle.run_ms`: one direct `run_constrained` call per server class
/// at the melting point the Figure 12 search chooses, summed over the
/// classes; the median of [`THROTTLE_PROBES`] repetitions. The probe's
/// runs must equal the study's.
fn throttle_probe(trace: &TimeSeries) -> (Metric, Result<(), String>) {
    let studies: Vec<_> = ServerClass::ALL
        .iter()
        .map(|&class| {
            let study = Scenario::new(class).constrained_study();
            let config = ConstrainedConfig {
                spec: class.spec(),
                servers: Scenario::new(class).server_count(),
                chars: study.chars.clone(),
                limit: KiloWatts::new(study.limit_kw),
            };
            (config, study.run)
        })
        .collect();
    let mut times = Samples::default();
    let mut outcome = Ok(());
    for _ in 0..THROTTLE_PROBES {
        let started = Instant::now();
        let runs: Vec<_> = studies
            .iter()
            .map(|(config, _)| run_constrained(config, trace))
            .collect();
        times.push(started.elapsed().as_secs_f64() * 1e3);
        if runs
            .iter()
            .zip(&studies)
            .any(|(run, (_, want))| run != want)
        {
            outcome = Err("throttle: the direct run differs from the study's".to_string());
        }
    }
    (
        Metric::over("throttle.run_ms", "ms", times.median(), times.len()),
        outcome,
    )
}
