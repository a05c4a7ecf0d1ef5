//! The unified experiment API.
//!
//! Each paper artifact the repro harness regenerates is an [`Experiment`]:
//! a named unit that runs against an [`ExecCtx`] (metrics sink + flush
//! buffer) and returns a [`Figure`] — its one rendering, the
//! `EXPERIMENTS.md` section, plus the paper-vs-measured comparisons, the
//! JSON artifacts to write, and the headline scalars downstream analyses
//! (TCO) consume. The harness dispatches by name via [`find`] and no
//! longer owns per-figure rendering code.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tts_dcsim::balancer::RoundRobin;
use tts_dcsim::discrete;
use tts_obs::MetricsSink;
use tts_server::ServerClass;
use tts_units::json::{Json, ToJson};
use tts_units::{Fraction, Seconds};
use tts_workload::{GoogleTrace, JobStream, JobType};

use crate::chart::ascii_chart;
use crate::experiments::{self, Comparison};
use crate::report::{comparison_row, text_table};

/// A cooperative cancellation token: cheap to clone, safe to poll from
/// any thread. The holder of one half (e.g. a job store answering
/// `DELETE /v1/jobs/{id}`) calls [`CancelToken::cancel`]; the running
/// experiment observes it at its next checkpoint — by construction the
/// periodic flush boundary, via [`ExecCtx::record_flush`] — and unwinds
/// with the [`CANCELLED`] sentinel payload.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The panic payload [`ExecCtx::check_cancel`] unwinds with. Runners that
/// `catch_unwind` an experiment downcast the payload to `&str` and compare
/// against this sentinel to tell a cancelled run from a crashed one.
pub const CANCELLED: &str = "tts-core: experiment run cancelled";

/// Whether a caught panic payload is the [`CANCELLED`] sentinel.
pub fn is_cancel_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<&str>()
        .is_some_and(|s| *s == CANCELLED)
        || payload
            .downcast_ref::<String>()
            .is_some_and(|s| s == CANCELLED)
}

/// A progress callback fired at every flush boundary with the simulated
/// time reached; see [`ExecCtx::on_progress`].
type ProgressFn = Box<dyn FnMut(Seconds) + Send>;

/// The execution context handed to every experiment: the metrics sink the
/// run reports into, the buffer periodic flushes land in, a cooperative
/// [`CancelToken`], and an optional progress callback.
///
/// Cloning is cheap and shares the registry, flush buffer, token, and
/// progress hook, so a clone can be moved into a long-lived callback
/// (e.g. the discrete simulator's flush hook) while the caller keeps
/// reading.
#[derive(Clone)]
pub struct ExecCtx {
    sink: MetricsSink,
    flushes: Arc<Mutex<Vec<Json>>>,
    cancel: CancelToken,
    progress: Arc<Mutex<Option<ProgressFn>>>,
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("sink", &self.sink)
            .field("cancelled", &self.cancel.is_cancelled())
            .finish_non_exhaustive()
    }
}

impl ExecCtx {
    /// A context with telemetry off: every metric write is a no-op and
    /// [`Self::sidecar`] returns `None`.
    pub fn disabled() -> Self {
        Self {
            sink: MetricsSink::disabled(),
            flushes: Arc::new(Mutex::new(Vec::new())),
            cancel: CancelToken::new(),
            progress: Arc::new(Mutex::new(None)),
        }
    }

    /// A context backed by a fresh metrics registry.
    pub fn with_metrics() -> Self {
        Self {
            sink: MetricsSink::fresh(),
            ..Self::disabled()
        }
    }

    /// Attaches a cancellation token (builder-style). Clones made after
    /// this call share the token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The context's cancellation token (clone it to cancel from afar).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Installs a progress callback fired at every flush boundary with
    /// the simulated time reached — independent of whether telemetry is
    /// enabled, so a disabled-sink job run still streams progress.
    pub fn on_progress(&self, f: impl FnMut(Seconds) + Send + 'static) {
        *self.progress.lock().expect("progress hook lock") = Some(Box::new(f));
    }

    /// Cancellation checkpoint: unwinds with the [`CANCELLED`] sentinel
    /// payload if the token has been tripped. Called from
    /// [`Self::record_flush`], i.e. at every periodic flush boundary of a
    /// simulation run; experiments with natural checkpoints of their own
    /// may call it directly.
    pub fn check_cancel(&self) {
        if self.cancel.is_cancelled() {
            std::panic::panic_any(CANCELLED);
        }
    }

    /// The sink experiments report into.
    pub fn sink(&self) -> &MetricsSink {
        &self.sink
    }

    /// Whether telemetry is being collected.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// The periodic checkpoint wired into the discrete simulator's flush
    /// hook. In order: polls the cancel token (unwinding with the
    /// [`CANCELLED`] sentinel if tripped), fires the progress callback
    /// with `sim_time`, then — when telemetry is on — snapshots the
    /// registry and appends it to the flush buffer.
    pub fn record_flush(&self, sim_time: Seconds) {
        self.check_cancel();
        if let Some(f) = self.progress.lock().expect("progress hook lock").as_mut() {
            f(sim_time);
        }
        if let Some(snap) = self.sink.snapshot(Some(sim_time.value()), None) {
            self.flushes.lock().expect("flush buffer lock").push(snap);
        }
    }

    /// The flushes recorded so far, in order.
    pub fn flushes(&self) -> Vec<Json> {
        self.flushes.lock().expect("flush buffer lock").clone()
    }

    /// The metrics sidecar document: the final deterministic snapshot
    /// (stamped with the caller-supplied wall clock, if any) plus every
    /// periodic flush. `None` when telemetry is off.
    pub fn sidecar(&self, sim_time: Option<f64>, wall_unix: Option<f64>) -> Option<Json> {
        let snap = self.sink.snapshot(sim_time, wall_unix)?;
        Some(Json::Obj(vec![
            ("snapshot".to_string(), snap),
            ("flushes".to_string(), Json::Arr(self.flushes())),
        ]))
    }
}

pub use crate::params::{ParamKind, ParamSpec, Params};

/// What an experiment produced: everything the harness needs to print,
/// record, and chain into downstream analyses.
#[derive(Debug, Clone)]
pub struct Figure {
    /// The experiment's dispatch name (e.g. `fig11`).
    pub name: String,
    /// Human title.
    pub title: String,
    /// The rendering: the `EXPERIMENTS.md` section, which `repro` also
    /// prints.
    pub markdown: String,
    /// Paper-vs-measured records, each with its context label
    /// (e.g. `("Fig 11a", …)`).
    pub comparisons: Vec<(String, Comparison)>,
    /// JSON artifacts to write on `--write`: `(relative path, document)`.
    pub artifacts: Vec<(String, Json)>,
    /// Headline scalars keyed by name, the hand-off surface between
    /// experiments (TCO reads Figure 11/12 headline numbers from here).
    pub key_values: Vec<(String, f64)>,
}

impl Figure {
    /// An empty figure with the given name and title.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            markdown: String::new(),
            comparisons: Vec::new(),
            artifacts: Vec::new(),
            key_values: Vec::new(),
        }
    }

    /// Looks up a headline scalar by key.
    pub fn key_value(&self, key: &str) -> Option<f64> {
        self.key_values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }
}

/// A named, self-rendering unit of the repro suite.
pub trait Experiment {
    /// The dispatch name (`repro <name>`).
    fn name(&self) -> &'static str;

    /// Runs the experiment, reporting telemetry into `ctx`. Every unset
    /// field of `params` takes the experiment's default, and every set
    /// one is assumed to be in [`Self::schema`]; [`Self::run_with`]
    /// checks that first.
    fn run(&self, ctx: &ExecCtx, params: &Params) -> Figure;

    /// The declarative schema of [`Params`] this experiment honours —
    /// names, value domains, defaults, and docs, all from one source of
    /// truth (see [`crate::params`]). `threads` is in every schema
    /// because the executor override is experiment-agnostic.
    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::BASE
    }

    /// Runs with caller-supplied overrides, erroring on any set parameter
    /// outside [`Self::schema`]. `params.threads` is *not* applied
    /// here — the caller owns the executor (see [`Params`]).
    fn run_with(&self, ctx: &ExecCtx, params: &Params) -> Result<Figure, String> {
        params.ensure_only(self.schema())?;
        Ok(self.run(ctx, params))
    }

    /// Serializes a figure's machine-readable face: name, title, headline
    /// scalars, and comparisons. Override to emit richer documents.
    fn emit_json(&self, fig: &Figure) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(fig.name.clone())),
            ("title".to_string(), Json::Str(fig.title.clone())),
            (
                "key_values".to_string(),
                Json::Obj(
                    fig.key_values
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "comparisons".to_string(),
                Json::Arr(
                    fig.comparisons
                        .iter()
                        .map(|(ctx, c)| {
                            Json::Obj(vec![
                                ("context".to_string(), Json::Str(ctx.clone())),
                                ("comparison".to_string(), c.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Every registered experiment, in suite order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(Table1Pcms),
        Box::new(Fig1Concept),
        Box::new(Fig4Validation),
        Box::new(Fig7Blockage),
        Box::new(Fig10Trace),
        Box::new(Fig11CoolingLoad),
        Box::new(Fig12Constrained),
        Box::new(Table2Params),
        Box::new(TcoAnalyses),
        Box::new(DcsimQos),
        Box::new(ChaosBatch),
        Box::new(FleetScale),
        Box::new(ScheduleOpt),
        Box::new(DesignSearch),
        Box::new(Scenarios),
        Box::new(ExtensionStudies),
    ]
}

/// Finds an experiment by dispatch name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

/// Table 1: the PCM comparison, screened for datacenter deployment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table1Pcms;

impl Experiment for Table1Pcms {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn run(&self, _ctx: &ExecCtx, _params: &Params) -> Figure {
        let yesno = |b: bool| if b { "Yes" } else { "No" }.to_string();
        let rows: Vec<Vec<String>> = experiments::table1()
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.1}", r.melting_temp_c),
                    format!("{:.0}", r.heat_of_fusion_j_g),
                    format!("{:.2}", r.density_g_ml),
                    r.stability.clone(),
                    yesno(r.electrically_conductive),
                    yesno(r.corrosive),
                    yesno(r.datacenter_suitable),
                ]
            })
            .collect();
        let table = text_table(
            &[
                "PCM",
                "Melting Temp (°C)",
                "Heat of Fusion (J/g)",
                "Density (g/mL)",
                "Stability",
                "E. Conductive",
                "Corrosive",
                "DC-suitable",
            ],
            &rows,
        );
        let mut fig = Figure::new("table1", "Table 1: properties of common solid-liquid PCMs");
        fig.markdown = format!(
            "## Table 1 — PCM comparison\n\nReproduced as a data table (paper values embedded); \
             only the paraffins pass the datacenter screen, as in §2.1.\n\n```text\n{table}```\n\n"
        );
        fig
    }
}

/// Figure 1: the thermal-time-shifting concept, drawn from the first day
/// of a real 1U cluster run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig1Concept;

impl Experiment for Fig1Concept {
    fn name(&self) -> &'static str {
        "fig1"
    }

    fn run(&self, _ctx: &ExecCtx, _params: &Params) -> Figure {
        let (_, no_wax, with_wax) = experiments::concept_figure();
        let chart = ascii_chart(
            &[("heat output", &no_wax), ("cooling load w/ PCM", &with_wax)],
            72,
            14,
        );
        let mut fig = Figure::new(
            "fig1",
            "Figure 1: thermal time shifting (concept, from a real run)",
        );
        fig.markdown = format!(
            "## Figure 1 — concept\n\nRendered from a real 1U cluster run (first day): the wax \
             flattens the daytime peak and returns the heat overnight.\n\n```text\n{chart}```\n\n"
        );
        fig
    }
}

/// Figure 4: the model-validation experiment (§3), model against the
/// perturbed "real server" on the 1 h idle / 12 h load / 12 h idle
/// protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig4Validation;

impl Experiment for Fig4Validation {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn run(&self, _ctx: &ExecCtx, _params: &Params) -> Figure {
        let r = experiments::fig4();
        let chart = ascii_chart(
            &[
                ("real wax", &r.real_wax),
                ("real placebo", &r.real_placebo),
                ("model wax", &r.icepak_wax),
                ("model placebo", &r.icepak_placebo),
            ],
            72,
            16,
        );
        let sensors = text_table(
            &["sensor", "Real °C", "Icepak °C", "Difference K"],
            &r.sensors
                .iter()
                .map(|s| {
                    vec![
                        s.name.clone(),
                        format!("{:.2}", s.real_c),
                        format!("{:.2}", s.icepak_c),
                        format!("{:+.2}", s.difference()),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let (wax, placebo) = (
            r.steady_wax.mean_difference,
            r.steady_placebo.mean_difference,
        );
        let corr = r.transient_wax.correlation;
        let mut fig = Figure::new(
            "fig4",
            "Figure 4: model validation (1 h idle + 12 h load + 12 h idle)",
        );
        fig.markdown = format!(
            "## Figure 4 — model validation\n\nOur \"real server\" is a perturbed \
             high-resolution reference model with noisy sensors (see DESIGN.md). Four traces \
             (temperatures near the wax box):\n\n```text\n{chart}```\n\n\
             Steady-state mean difference: wax {wax:+.2} K, placebo {placebo:+.2} K (paper: \
             0.22 °C). Transient correlation r = {corr:.3}.\n\n\
             Figure 4 (c) — per-sensor steady state while hot:\n\n```text\n{sensors}```\n\n"
        );
        fig.comparisons.push((
            "Fig 4".into(),
            Comparison::new("steady-state mean difference (abs)", 0.22, wax.abs(), "K"),
        ));
        fig
    }
}

/// Figure 7: the airflow-blockage temperature sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig7Blockage;

impl Experiment for Fig7Blockage {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn run(&self, ctx: &ExecCtx, _params: &Params) -> Figure {
        let mut fig = Figure::new("fig7", "Figure 7: temperatures vs. airflow blockage");
        fig.markdown
            .push_str("## Figure 7 — airflow blockage sweeps\n\n");
        for (class, rows) in experiments::fig7_with(ctx.sink()) {
            let table_rows: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        format!("{:.0}%", r.blockage.percent()),
                        format!("{:.1}", r.outlet.value()),
                        format!("{:.1}", r.wax_zone.value()),
                        r.sockets
                            .iter()
                            .map(|t| format!("{:.0}", t.value()))
                            .collect::<Vec<_>>()
                            .join("/"),
                        format!("{:.1}", r.flow.cfm()),
                    ]
                })
                .collect();
            let table = text_table(
                &[
                    "blockage",
                    "outlet °C",
                    "wax zone °C",
                    "sockets °C",
                    "flow CFM",
                ],
                &table_rows,
            );
            fig.markdown
                .push_str(&format!("### {class}\n\n```text\n{table}```\n\n"));
            if class == ServerClass::LowPower1U {
                let rise = rows[9].outlet.value() - rows[0].outlet.value();
                fig.comparisons.push((
                    "Fig 7a".into(),
                    Comparison::new("1U outlet rise 0→90 % blockage", 14.0, rise, "K"),
                ));
                fig.key_values.push(("outlet_rise_1u_k".into(), rise));
            }
            if class == ServerClass::OpenComputeBlade {
                let baseline = rows[0].outlet.value();
                fig.comparisons.push((
                    "Fig 7c".into(),
                    Comparison::new("OCP baseline outlet", 68.0, baseline, "°C"),
                ));
                fig.key_values
                    .push(("ocp_baseline_outlet_c".into(), baseline));
            }
        }
        fig
    }
}

/// Figure 10: the synthetic two-day Google-like workload trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig10Trace;

impl Experiment for Fig10Trace {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn run(&self, _ctx: &ExecCtx, _params: &Params) -> Figure {
        let trace = experiments::fig10();
        let total = trace.total();
        let pct: Vec<f64> = total.values().iter().map(|v| v * 100.0).collect();
        let chart = ascii_chart(&[("total load %", &pct)], 72, 12);
        let mut fig = Figure::new("fig10", "Figure 10: two-day datacenter workload trace");
        fig.markdown = format!(
            "## Figure 10 — workload trace\n\nSynthetic two-day Google-like trace (three job \
             types), normalized to exactly 50 % mean / 95 % peak (measured: {:.1} % / \
             {:.1} %):\n\n```text\n{chart}```\n\n",
            total.mean() * 100.0,
            total.peak() * 100.0
        );
        fig
    }
}

/// Figure 11: the fully-subscribed cooling-load study, all three classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig11CoolingLoad;

impl Experiment for Fig11CoolingLoad {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::FIG11
    }

    /// The study at an optional cluster size and/or fixed melting point
    /// (defaults: the paper's 1008 servers, catalogue grid search).
    fn run(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let servers = params.servers;
        let melt = params.melt_temp_c.map(tts_units::Celsius::new);
        let mut fig = Figure::new(
            "fig11",
            "Figure 11: cluster cooling load, fully subscribed cooling",
        );
        fig.markdown
            .push_str("## Figure 11 — peak cooling-load reduction\n\n");
        for (panel, class) in ["a", "b", "c"].iter().zip(ServerClass::ALL) {
            let r = experiments::fig11_custom(class, ctx.sink(), servers, melt);
            let chart = ascii_chart(
                &[
                    ("cooling load", &r.study.run.load_no_wax_kw),
                    ("load with PCM", &r.study.run.load_with_wax_kw),
                ],
                72,
                12,
            );
            fig.markdown.push_str(&format!(
                "### ({panel}) {class}\n\n```text\n{chart}```\n\nPeak {:.0} kW → {:.0} kW: **{:.1} % reduction** (paper: {:.1} %), wax = {}, melt onset at {:.0} % load, refreeze tail ≈ {:.1} h/day (paper: 6–9 h).\n\n",
                r.study.run.peak_no_wax.value(),
                r.study.run.peak_with_wax.value(),
                r.peak_reduction.measured,
                r.peak_reduction.paper,
                r.study.material.name(),
                tts_dcsim::cluster::melt_onset_load_fraction(&tts_dcsim::cluster::ClusterConfig {
                    spec: class.spec(),
                    servers: servers.unwrap_or(1008),
                    chars: r.study.chars.clone(),
                }) * 100.0,
                r.study.run.elevated_hours / 2.0
            ));
            fig.comparisons
                .push((format!("Fig 11{panel}"), r.peak_reduction.clone()));
            fig.artifacts
                .push((format!("results/fig11{panel}.json"), r.study.run.to_json()));
            fig.key_values.push((
                format!("peak_reduction_frac.{class}"),
                r.study.run.peak_reduction.value(),
            ));
        }
        fig
    }
}

/// Figure 12: the thermally constrained throughput study, all three
/// classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig12Constrained;

impl Experiment for Fig12Constrained {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn run(&self, ctx: &ExecCtx, _params: &Params) -> Figure {
        let mut fig = Figure::new(
            "fig12",
            "Figure 12: throughput in a thermally constrained datacenter",
        );
        fig.markdown
            .push_str("## Figure 12 — constrained throughput\n\n");
        for (panel, class) in ["a", "b", "c"].iter().zip(ServerClass::ALL) {
            let r = experiments::fig12_with(class, ctx.sink());
            let chart = ascii_chart(
                &[
                    ("ideal", &r.study.run.ideal),
                    ("no wax", &r.study.run.no_wax),
                    ("with wax", &r.study.run.with_wax),
                ],
                72,
                12,
            );
            fig.markdown.push_str(&format!(
                "### ({panel}) {class}\n\n```text\n{chart}```\n\nPeak throughput gain **{:.1} %** (paper: {:.1} %); throttle onset delayed {:.2} h; boosted {:.1} h/day (paper: {:.1} h); wax = {}.\n\n",
                r.peak_gain.measured,
                r.peak_gain.paper,
                r.study.run.delay_hours,
                r.boost_hours.measured,
                r.boost_hours.paper,
                r.study.material.name()
            ));
            fig.comparisons
                .push((format!("Fig 12{panel}"), r.peak_gain.clone()));
            fig.comparisons
                .push((format!("Fig 12{panel}"), r.boost_hours.clone()));
            fig.artifacts
                .push((format!("results/fig12{panel}.json"), r.study.run.to_json()));
            fig.key_values.push((
                format!("peak_gain_frac.{class}"),
                r.study.run.peak_gain.value(),
            ));
        }
        fig
    }
}

/// Table 2: the TCO parameter set, embedded verbatim.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table2Params;

impl Experiment for Table2Params {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn run(&self, _ctx: &ExecCtx, _params: &Params) -> Figure {
        let t = experiments::table2();
        let rows = [
            (
                "FacilitySpaceCapEx",
                t.facility_space_capex_per_sqft,
                "$/sq. ft.",
            ),
            ("UPSCapEx", t.ups_capex_per_server, "$/server"),
            ("PowerInfraCapEx", t.power_infra_capex_per_kw, "$/kWatt"),
            ("CoolingInfraCapEx", t.cooling_infra_capex_per_kw, "$/kWatt"),
            ("RestCapEx", t.rest_capex_per_kw, "$/kWatt"),
            ("DCInterest", t.dc_interest_per_kw, "$/kWatt"),
            ("ServerCapEx", t.server_capex_per_server, "$/server"),
            ("WaxCapEx", t.wax_capex_per_server, "$/server"),
            ("ServerInterest", t.server_interest_per_server, "$/server"),
            ("DatacenterOpEx", t.datacenter_opex_per_kw, "$/kWatt"),
            ("ServerEnergyOpEx", t.server_energy_opex_per_kw, "$/kWatt"),
            ("ServerPowerOpEx", t.server_power_opex_per_kw, "$/KWatt"),
            ("CoolingEnergyOpEx", t.cooling_energy_opex_per_kw, "$/kWatt"),
            ("RestOpEx", t.rest_opex_per_kw, "$/kWatt"),
        ];
        let table = text_table(
            &["Description", "TCO/month", "Unit"],
            &rows
                .iter()
                .map(|(n, r, u)| vec![n.to_string(), r.to_string(), u.to_string()])
                .collect::<Vec<_>>(),
        );
        let mut fig = Figure::new("table2", "Table 2: TCO parameters");
        fig.markdown = format!(
            "## Table 2 — TCO parameters\n\nEmbedded verbatim; the per-server rows are derived \
             from server price (price/48 months, price × 0.0055 interest) and reproduce the \
             printed bands.\n\n```text\n{table}```\n\n"
        );
        fig
    }
}

/// The §5.1/§5.2 TCO analyses, driven by the measured Figure 11 peak
/// reduction and Figure 12 peak gain of each server class.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcoAnalyses;

impl Experiment for TcoAnalyses {
    fn name(&self) -> &'static str {
        "tco"
    }

    fn run(&self, ctx: &ExecCtx, _params: &Params) -> Figure {
        // The analyses consume only the headline scalars, handed over
        // through the figures' key/value surface.
        let fig11 = Fig11CoolingLoad.run(ctx, &Params::default());
        let fig12 = Fig12Constrained.run(ctx, &Params::default());
        let mut fig = Figure::new("tco", "TCO analyses (§5.1/§5.2)");
        fig.markdown.push_str("## TCO analyses\n\n");
        for class in ServerClass::ALL {
            let reduction = fig11
                .key_value(&format!("peak_reduction_frac.{class}"))
                .expect("fig11 reports a peak reduction per class");
            let gain = fig12
                .key_value(&format!("peak_gain_frac.{class}"))
                .expect("fig12 reports a peak gain per class");
            let s =
                experiments::tco_summary_from(class, Fraction::new(reduction), Fraction::new(gain));
            fig.markdown.push_str(&format!(
                "### {class}\n\n| metric | paper | measured | deviation |\n|---|---|---|---|\n"
            ));
            for c in [
                &s.downsize_savings_per_year,
                &s.added_servers,
                &s.retrofit_savings_per_year,
                &s.tco_efficiency_pct,
            ] {
                fig.markdown.push_str(&comparison_row(c));
                fig.markdown.push('\n');
                fig.comparisons.push((format!("TCO {class}"), c.clone()));
            }
            fig.markdown.push('\n');
        }
        fig
    }
}

/// The discrete job-level cluster simulation: runs two days of
/// MapReduce-class jobs through the event-driven simulator and reports
/// QoS. The event loop streams telemetry into the context's sink and
/// flushes a registry snapshot every six simulated hours.
#[derive(Debug, Clone, Copy, Default)]
pub struct DcsimQos;

impl Experiment for DcsimQos {
    fn name(&self) -> &'static str {
        "dcsim"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::DCSIM
    }

    /// The simulation at a job-stream seed and cluster size (defaults:
    /// seed 17, 32 servers).
    fn run(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let seed = params.seed.unwrap_or(17);
        let servers = params.servers.unwrap_or(32);
        let trace = GoogleTrace::default_two_day();
        let jobs =
            JobStream::new(trace.total().clone(), JobType::MapReduce, servers, seed).collect_all();
        let mut sim = discrete::ClusterConfig::new(servers)
            .rack_size(8)
            .record_utilization(Seconds::from_minutes(5.0))
            .metrics(ctx.sink())
            .build(RoundRobin::new());
        let flush_ctx = ctx.clone();
        sim.set_periodic_flush(Seconds::new(6.0 * 3600.0), move |t| {
            flush_ctx.record_flush(t)
        });
        let m = sim.run(&jobs, trace.total().duration());

        let mut fig = Figure::new(
            "dcsim",
            "Discrete cluster simulation: job-level QoS (two-day trace)",
        );
        let table = text_table(
            &["metric", "value"],
            &[
                vec!["jobs offered".into(), format!("{}", jobs.len())],
                vec!["jobs completed".into(), format!("{}", m.completed)],
                vec!["in flight at end".into(), format!("{}", m.in_flight)],
                vec![
                    "mean response".into(),
                    format!("{:.1} s", m.mean_response_s),
                ],
                vec!["p95 response".into(), format!("{:.1} s", m.p95_response_s)],
                vec![
                    "cluster utilization".into(),
                    format!("{:.1} %", m.cluster_utilization * 100.0),
                ],
                vec![
                    "throughput".into(),
                    format!("{:.2} jobs/s", m.throughput_jobs_per_s),
                ],
            ],
        );
        fig.markdown.push_str(&format!(
            "## Discrete simulation — job-level QoS\n\n{servers} servers behind a round-robin \
             balancer serve two days of MapReduce-class jobs offered along the Figure 10 \
             trace.\n\n```text\n{table}```\n\n"
        ));
        fig.key_values = vec![
            ("completed".into(), m.completed as f64),
            ("mean_response_s".into(), m.mean_response_s),
            ("p95_response_s".into(), m.p95_response_s),
            ("cluster_utilization".into(), m.cluster_utilization),
            ("throughput_jobs_per_s".into(), m.throughput_jobs_per_s),
        ];
        fig
    }
}

/// The chaos batch: N seeded fault-injection scenarios, every invariant
/// checked, failing seeds reported with their replay one-liners.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosBatch;

impl Experiment for ChaosBatch {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::CHAOS
    }

    /// Runs the batch and renders the roll-up.
    fn run(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let mut cfg = tts_chaos::BatchConfig::default();
        if let Some(seed) = params.seed {
            cfg.base_seed = seed;
        }
        if let Some(seeds) = params.seeds {
            cfg.seeds = seeds;
        }
        if let Some(servers) = params.servers {
            cfg.scenario.servers = servers;
        }
        let summary = tts_chaos::run_batch(&cfg);
        ctx.sink()
            .counter("chaos.scenarios")
            .add(summary.scenarios as u64);
        ctx.sink().counter("chaos.checks").add(summary.checks);
        ctx.sink()
            .counter("chaos.violations")
            .add(summary.violations().len() as u64);

        let mut fig = Figure::new("chaos", "Chaos batch: seeded fault-injection scenarios");
        let mut rows = vec![
            vec!["scenarios".into(), format!("{}", summary.scenarios)],
            vec!["invariant checks".into(), format!("{}", summary.checks)],
            vec![
                "violations".into(),
                format!("{}", summary.violations().len()),
            ],
        ];
        for (kind, count) in &summary.fault_counts {
            rows.push(vec![format!("faults: {kind}"), format!("{count}")]);
        }
        let table = text_table(&["metric", "value"], &rows);
        fig.markdown.push_str(&format!(
            "## Chaos batch — seeded fault injection\n\n{} scenarios sampled from base seed \
             {:#x}; every scenario injects a typed fault plan into the cluster, thermal, \
             cooling, and workload layers and checks invariants after every event.\n\n\
             ```text\n{table}```\n\n",
            summary.scenarios, summary.base_seed
        ));
        fig.key_values = vec![
            ("scenarios".into(), summary.scenarios as f64),
            ("checks".into(), summary.checks as f64),
            ("violations".into(), summary.violations().len() as f64),
            ("failing_seeds".into(), summary.failing_seeds.len() as f64),
        ];
        fig
    }
}

/// The fleet-scale experiment: a million servers across several
/// datacenters stepped by the epoch-sharded engine for a two-day diurnal
/// trace, with per-site tariff/ambient economics and geo-routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetScale;

/// The fixed site catalogue the `datacenters` parameter draws from, in
/// order: `(name, peak $/kWh, off-peak $/kWh, ambient °C, UTC offset h)`.
const FLEET_SITES: &[(&str, f64, f64, f64, f64)] = &[
    ("us-east", 0.11, 0.07, 18.0, -5.0),
    ("eu-north", 0.09, 0.06, 8.0, 1.0),
    ("ap-south", 0.13, 0.09, 30.0, 5.5),
    ("us-west", 0.15, 0.10, 22.0, -8.0),
    ("sa-east", 0.12, 0.08, 26.0, -3.0),
    ("eu-west", 0.10, 0.07, 12.0, 0.0),
    ("ap-north", 0.16, 0.11, 16.0, 9.0),
    ("af-south", 0.11, 0.08, 24.0, 2.0),
];

impl Experiment for FleetScale {
    fn name(&self) -> &'static str {
        "fleet"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::FLEET
    }

    /// Runs the fleet (defaults: 1,000,000 servers over 4 catalogue
    /// sites, 256 shards, seed 42, the full two-day trace) and renders
    /// the per-site economics table.
    fn run(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let servers = params.servers.unwrap_or(1_000_000);
        let sites = params.datacenters.unwrap_or(4).min(FLEET_SITES.len());
        let trace = GoogleTrace::default_two_day().total().clone();
        let horizon = params
            .horizon_h
            .map(|h| Seconds::new(h * 3600.0))
            .unwrap_or_else(|| trace.duration());
        let mut cfg = tts_dcsim::FleetConfig::new(trace)
            .cores_per_server(16)
            .rack_size(48)
            .shards(params.shards.unwrap_or(256))
            .seed(params.seed.unwrap_or(42))
            .horizon(horizon)
            .metrics(ctx.sink());
        for (d, &(name, peak, offpeak, ambient, offset)) in
            FLEET_SITES.iter().take(sites).enumerate()
        {
            let share = servers / sites + usize::from(d < servers % sites);
            cfg = cfg.datacenter(
                tts_dcsim::DatacenterSpec::new(name, share)
                    .tariffs(peak, offpeak)
                    .ambient_c(ambient)
                    .utc_offset_h(offset),
            );
        }
        let mut sim = cfg.build();
        let m = sim.run();

        let mut fig = Figure::new(
            "fleet",
            "Fleet scale: epoch-sharded engine across datacenters",
        );
        let mut rows: Vec<Vec<String>> = m
            .per_dc
            .iter()
            .map(|dc| {
                vec![
                    dc.name.clone(),
                    format!("{}", dc.servers),
                    format!("{:.1} %", dc.mean_utilization * 100.0),
                    format!("{:.1} %", dc.peak_utilization * 100.0),
                    format!("{:.1}", dc.it_energy_kwh / 1000.0),
                    format!("{:.1}", dc.cooling_energy_kwh / 1000.0),
                    format!("{:.1}", dc.energy_cost_usd / 1000.0),
                ]
            })
            .collect();
        let cost_usd: f64 = m.per_dc.iter().map(|d| d.energy_cost_usd).sum();
        let cooling_kwh: f64 = m.per_dc.iter().map(|d| d.cooling_energy_kwh).sum();
        let it_kwh: f64 = m.per_dc.iter().map(|d| d.it_energy_kwh).sum();
        rows.push(vec![
            "TOTAL".into(),
            format!("{}", m.servers),
            format!("{:.1} %", m.mean_utilization * 100.0),
            String::new(),
            format!("{:.1}", it_kwh / 1000.0),
            format!("{:.1}", cooling_kwh / 1000.0),
            format!("{:.1}", cost_usd / 1000.0),
        ]);
        let table = text_table(
            &[
                "site",
                "servers",
                "mean util",
                "peak util",
                "IT MWh",
                "cool MWh",
                "cost k$",
            ],
            &rows,
        );
        fig.markdown.push_str(&format!(
            "## Fleet scale — epoch-sharded engine\n\n{} servers across {} sites stepped in \
             {} epochs over {} shards by the struct-of-arrays fleet engine; the deferrable \
             quarter of each site's diurnal demand chases cheap cooling headroom across \
             timezones. Byte-identical at any `TTS_THREADS` and any shard count.\n\n\
             ```text\n{table}```\n\n",
            m.servers,
            sites,
            m.epochs,
            sim.shard_count()
        ));
        fig.key_values = vec![
            ("servers".into(), m.servers as f64),
            ("epochs".into(), m.epochs as f64),
            ("server_steps".into(), m.server_steps() as f64),
            ("mean_utilization".into(), m.mean_utilization),
            ("mean_delay_s".into(), m.mean_delay_s),
            ("energy_cost_usd".into(), cost_usd),
            ("cooling_energy_kwh".into(), cooling_kwh),
            (
                "conservation_error_core_s".into(),
                m.conservation_error_core_s,
            ),
        ];
        fig.artifacts
            .push(("results/fleet.json".into(), m.to_json()));
        fig
    }
}

/// The receding-horizon PCM/job co-optimizer: jointly schedules
/// deferrable job tranches, PCM charge/discharge, and grid draw under
/// the time-of-use tariff, and reports the energy bill against the
/// passive paper configuration on the identical diurnal trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleOpt;

impl Experiment for ScheduleOpt {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::SCHEDULE
    }

    /// Runs the co-optimizer (defaults: the paper's 1008 servers, 24 h
    /// horizon + 3 h extension, 15-min slots, four delay classes) and
    /// renders the optimized-vs-passive comparison.
    fn run(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let mut cfg = tts_opt::ScheduleConfig::default();
        if let Some(seed) = params.seed {
            cfg.seed = seed;
        }
        if let Some(servers) = params.servers {
            cfg.servers = servers;
        }
        if let Some(h) = params.horizon_h {
            cfg.horizon_h = h;
        }
        if let Some(m) = params.slot_min {
            cfg.slot_min = m as f64;
        }
        if let Some(t) = params.tranches {
            cfg.tranches = t;
        }
        let out = tts_opt::run_schedule(&cfg, ctx.sink());
        ctx.check_cancel();

        let mut fig = Figure::new(
            "schedule",
            "Schedule: receding-horizon PCM/job co-optimizer vs. passive wax",
        );
        let chart = ascii_chart(
            &[
                ("passive chiller load", &out.load_passive_kw),
                ("optimized chiller load", &out.load_optimized_kw),
            ],
            72,
            12,
        );
        let table = text_table(
            &["metric", "passive", "optimized"],
            &[
                vec![
                    "energy bill".into(),
                    format!("${:.2}", out.cost_passive_usd),
                    format!("${:.2}", out.cost_optimized_usd),
                ],
                vec![
                    "capacity-overload slots".into(),
                    format!("{}", out.overload_slots_passive),
                    format!("{}", out.overload_slots),
                ],
            ],
        );
        // The controller runs the first `tranches` classes (at least one).
        let classes: Vec<String> = tts_opt::model::DELAY_CLASSES_MIN
            .iter()
            .take(cfg.tranches.max(1))
            .map(|m| format!("{m:.0}"))
            .collect();
        fig.markdown.push_str(&format!(
            "## Schedule — receding-horizon co-optimizer\n\nEvery hour a bounded-variable \
             simplex re-plans the next {:.0} h + {:.0} h for {} servers in {:.0}-min slots: \
             which deferrable tranches ({}-min classes, a quarter of offered load) run now \
             vs. later, and how hard to charge or discharge the wax, minimizing the \
             time-of-use energy bill subject to job-conservation, state-of-charge, \
             cooling-capacity, and deadline constraints. The baseline is the paper's passive \
             configuration on the identical trace.\n\n```text\n{chart}```\n\n```text\n{table}```\n\nSavings \
             **${:.2}** ({:.2} %), {:.1} kWh executed off-schedule, {} deadline misses.\n\n",
            cfg.horizon_h,
            cfg.extension_h,
            cfg.servers,
            cfg.slot_min,
            classes.join("/"),
            out.savings_usd,
            out.savings_frac * 100.0,
            out.deferred_energy_kwh,
            out.deadline_misses,
        ));
        fig.key_values = vec![
            ("cost_passive_usd".into(), out.cost_passive_usd),
            ("cost_optimized_usd".into(), out.cost_optimized_usd),
            ("savings_usd".into(), out.savings_usd),
            ("savings_frac".into(), out.savings_frac),
            ("deferred_energy_kwh".into(), out.deferred_energy_kwh),
            ("simplex_iterations".into(), out.simplex_iterations as f64),
            ("plans".into(), out.plans as f64),
            ("fallback_plans".into(), out.fallback_plans as f64),
            ("deadline_misses".into(), out.deadline_misses as f64),
            ("final_soc".into(), out.final_soc),
        ];
        fig.artifacts
            .push(("results/schedule.json".into(), out.to_json()));
        fig
    }
}

/// The surrogate-driven design search: the paper's melting-point space
/// solved by screened CMA-ES in a tenth of the grid's simulator
/// evaluations, cross-checked against the exhaustive grid through a shared
/// evaluation memo, plus a joint search over server class × melting point
/// × wax mass × tariff phase × ambient offset that the grid could never
/// afford (the full lattice has ~10⁶ points).
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignSearch;

impl Experiment for DesignSearch {
    fn name(&self) -> &'static str {
        "design"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::DESIGN
    }

    fn run(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        use crate::design::{self, SearchConfig, Strategy};
        use tts_dcsim::cluster::default_melting_candidates;

        let servers = params.servers.unwrap_or(1008);
        let seed = params.seed.unwrap_or(42);
        let budget = params.budget.unwrap_or(7);
        let generations = params.generations.unwrap_or(40);

        // Paper space: the fig11 1U configuration, searched by CMA-ES and
        // then swept by the exhaustive grid against the SAME memo — every
        // point the cheap search paid for is a free hit to the
        // cross-check.
        let class = ServerClass::LowPower1U;
        let scenario = crate::Scenario::new(class).servers(servers);
        let config = tts_dcsim::ClusterConfig {
            spec: scenario.spec(),
            servers,
            chars: scenario.characteristics(),
        };
        let trace = GoogleTrace::default_two_day().total().clone();

        let mut cache = design::EvalCache::new();
        let cmaes_cfg = SearchConfig {
            seed,
            budget,
            max_generations: generations,
            ..SearchConfig::default()
        };
        let d = design::search_melting_point(&config, &trace, &cmaes_cfg, ctx.sink(), &mut cache);
        ctx.check_cancel();

        let candidates = default_melting_candidates();
        let grid_evals = candidates.len();
        let grid_cfg = SearchConfig {
            strategy: Strategy::Grid(candidates.iter().map(|&c| vec![c]).collect()),
            seed,
            budget: grid_evals,
            ..SearchConfig::default()
        };
        let g = design::search_melting_point(&config, &trace, &grid_cfg, ctx.sink(), &mut cache);
        ctx.check_cancel();
        let matches = d.best_x == g.best_x && d.best_value.to_bits() == g.best_value.to_bits();

        // Joint space: the design problem the paper leaves open. 8× the
        // paper-space budget is still ~10⁴× smaller than its full lattice.
        let joint_obj = design::JointObjective::paper_default(servers);
        let joint_cfg = SearchConfig {
            seed,
            budget: budget * 8,
            max_generations: generations,
            screen: 2,
            ..SearchConfig::default()
        };
        let j = design::minimize(&joint_obj.space(), &joint_obj, &joint_cfg, ctx.sink());
        ctx.check_cancel();
        let jb = &j.best_out;
        let joint_finite = j.trace.iter().all(|v| v.is_finite()) && j.best_value.is_finite();
        let joint_delta = match (j.trace.first(), j.trace.last()) {
            (Some(first), Some(last)) => first - last,
            _ => f64::NAN,
        };

        let mut fig = Figure::new(
            "design",
            "Design: surrogate-driven search vs. the exhaustive grid",
        );
        let table = text_table(
            &["search", "melt °C", "objective", "sim evals", "memo hits"],
            &[
                vec![
                    "cmaes+surrogate".into(),
                    format!("{:.1}", d.best_x[0]),
                    format!("{:.3} kW", d.best_value),
                    format!("{}", d.evals),
                    format!("{}", d.memo_hits),
                ],
                vec![
                    "exhaustive grid".into(),
                    format!("{:.1}", g.best_x[0]),
                    format!("{:.3} kW", g.best_value),
                    format!("{} (shared memo: {} paid)", grid_evals, g.evals),
                    format!("{}", g.memo_hits),
                ],
            ],
        );
        fig.markdown.push_str(&format!(
            "## Design — surrogate-driven search\n\nThe `tts-design` optimizer (LHS seeding, \
             (μ/μ_w, λ)-CMA-ES, RBF-surrogate expected-improvement screening, lattice polish) \
             replays the paper's melting-point selection with a budget of **{budget}** \
             simulator evaluations against the grid's {grid_evals}, sharing one byte-keyed \
             memo so the cross-check pays only for points the search skipped.\n\n\
             ```text\n{table}```\n\nOptimum match: **{}**. The joint search then explores \
             class × melting point × wax mass × tariff phase × ambient offset \
             (≈ 10⁶ lattice points) in {} evaluations: best time-of-use cooling cost \
             **${:.2}** at {} / {:.1} °C / {:.2}× mass / {:+.0} h tariff shift / \
             {:+.1} °C ambient.\n\n",
            if matches { "exact" } else { "MISMATCH" },
            j.evals,
            jb.cost_usd,
            jb.class,
            jb.melt_c,
            jb.mass_mult,
            jb.tariff_phase_h,
            jb.ambient_off_c,
        ));
        fig.comparisons.push((
            "Fig 11a".into(),
            Comparison::new(
                "1U peak reduction at the design optimum",
                experiments::paper_fig11_reduction(class),
                d.best_out.peak_reduction.percent(),
                "%",
            ),
        ));
        fig.key_values = vec![
            (
                "design_matches_grid".into(),
                if matches { 1.0 } else { 0.0 },
            ),
            ("design_evals".into(), d.evals as f64),
            ("grid_evals".into(), grid_evals as f64),
            ("design_memo_hits".into(), d.memo_hits as f64),
            ("design_generations".into(), d.generations as f64),
            ("design_surrogate_fits".into(), d.surrogate_fits as f64),
            ("design_melt_c".into(), d.best_x[0]),
            ("design_peak_with_wax_kw".into(), d.best_value),
            ("grid_melt_c".into(), g.best_x[0]),
            (
                "design_peak_reduction_pct".into(),
                d.best_out.peak_reduction.percent(),
            ),
            ("joint_evals".into(), j.evals as f64),
            ("joint_cost_usd".into(), jb.cost_usd),
            ("joint_melt_c".into(), jb.melt_c),
            ("joint_mass_mult".into(), jb.mass_mult),
            ("joint_tariff_phase_h".into(), jb.tariff_phase_h),
            ("joint_ambient_off_c".into(), jb.ambient_off_c),
            (
                "joint_trace_finite".into(),
                if joint_finite { 1.0 } else { 0.0 },
            ),
            ("joint_trace_delta_usd".into(), joint_delta),
        ];
        let num_arr = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        fig.artifacts.push((
            "results/design.json".into(),
            Json::Obj(vec![
                (
                    "paper_space".to_string(),
                    Json::Obj(vec![
                        ("class".to_string(), Json::Str(class.to_string())),
                        ("servers".to_string(), Json::Num(servers as f64)),
                        ("seed".to_string(), Json::Num(seed as f64)),
                        ("best_melt_c".to_string(), Json::Num(d.best_x[0])),
                        ("best_peak_with_wax_kw".to_string(), Json::Num(d.best_value)),
                        (
                            "peak_reduction".to_string(),
                            Json::Num(d.best_out.peak_reduction.value()),
                        ),
                        ("evals".to_string(), Json::Num(d.evals as f64)),
                        ("memo_hits".to_string(), Json::Num(d.memo_hits as f64)),
                        ("generations".to_string(), Json::Num(d.generations as f64)),
                        (
                            "surrogate_fits".to_string(),
                            Json::Num(d.surrogate_fits as f64),
                        ),
                        ("matches_grid".to_string(), Json::Bool(matches)),
                        ("grid_evals".to_string(), Json::Num(grid_evals as f64)),
                        ("grid_melt_c".to_string(), Json::Num(g.best_x[0])),
                        ("trace".to_string(), num_arr(&d.trace)),
                    ]),
                ),
                (
                    "joint".to_string(),
                    Json::Obj(vec![
                        ("best".to_string(), jb.to_json()),
                        ("evals".to_string(), Json::Num(j.evals as f64)),
                        ("generations".to_string(), Json::Num(j.generations as f64)),
                        (
                            "surrogate_fits".to_string(),
                            Json::Num(j.surrogate_fits as f64),
                        ),
                        ("trace".to_string(), num_arr(&j.trace)),
                    ]),
                ),
            ]),
        ));
        fig
    }
}

/// The scenario matrix: cooling backend × climate site × demand trace,
/// each cell a full cooling-load study billed under the paper tariff and
/// the site's seeded weather year.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scenarios;

impl Experiment for Scenarios {
    fn name(&self) -> &'static str {
        "scenarios"
    }

    fn schema(&self) -> &'static [ParamSpec] {
        crate::params::SCENARIOS
    }

    /// Runs the matrix (defaults: all 3 sites × all 3 backends × all 4
    /// traces, weather seed 42) and renders the per-cell TCO deltas.
    fn run(&self, ctx: &ExecCtx, params: &Params) -> Figure {
        let mut cfg = crate::scenarios::MatrixConfig::default();
        if let Some(sites) = params.sites {
            cfg.sites = sites;
        }
        if let Some(backends) = params.backends {
            cfg.backends = backends;
        }
        if let Some(traces) = params.traces {
            cfg.traces = traces;
        }
        if let Some(seed) = params.seed {
            cfg.seed = seed;
        }
        let matrix = crate::scenarios::run_matrix(&cfg);
        ctx.check_cancel();
        ctx.sink()
            .counter("scenarios.cells")
            .add(matrix.cells.len() as u64);

        let mut fig = Figure::new(
            "scenarios",
            "Scenarios: cooling backend × climate site × demand trace",
        );
        let rows: Vec<Vec<String>> = matrix
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.site.clone(),
                    c.backend.clone(),
                    c.trace.clone(),
                    format!("{:.0}", c.cost_no_wax.value()),
                    format!("{:.0}", c.cost_with_wax.value()),
                    format!("{:+.2} %", c.delta_frac * 100.0),
                    if c.reuse_credit.value() > 0.0 {
                        format!("{:.0}", c.reuse_credit.value())
                    } else {
                        "-".into()
                    },
                ]
            })
            .collect();
        let table = text_table(
            &[
                "site",
                "backend",
                "trace",
                "no wax $/yr",
                "with wax $/yr",
                "PCM Δ",
                "reuse $/yr",
            ],
            &rows,
        );
        fig.markdown.push_str(&format!(
            "## Scenario matrix — backend × site × trace\n\nEach cell re-runs the Figure 11 \
             cooling-load study on its demand trace (wax melting point re-optimized per \
             trace), then bills the with-wax and no-wax load series through its cooling \
             backend — the paper's fixed-COP chiller, an airside economizer whose COP \
             follows the site's seeded weather year (seed {}), or an iDataCool-style \
             hot-water loop whose 60 °C outlet earns an energy-reuse credit — under the \
             paper's time-of-use tariff.\n\n```text\n{table}```\n\nHot-water energy reuse strictly \
             lowers the bill on **{}** of the matrix's hot-water cells.\n\n",
            cfg.seed, matrix.hotwater_reuse_win_cells,
        ));
        fig.key_values = vec![
            ("cells".into(), matrix.cells.len() as f64),
            (
                "hotwater_reuse_win_cells".into(),
                matrix.hotwater_reuse_win_cells as f64,
            ),
        ];
        for c in &matrix.cells {
            fig.key_values.push((
                format!("delta_usd.{}.{}.{}", c.site, c.backend, c.trace),
                c.delta.value(),
            ));
        }
        fig.artifacts
            .push(("results/scenarios.json".into(), matrix.to_json()));
        fig
    }
}

/// The extension studies the paper motivates but never runs: cooling
/// electricity under a tariff and economizer, job relocation, rack-by-rack
/// deployment, flash crowds, and wax cycling endurance (1U cluster).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtensionStudies;

impl Experiment for ExtensionStudies {
    fn name(&self) -> &'static str {
        "extensions"
    }

    fn run(&self, _ctx: &ExecCtx, _params: &Params) -> Figure {
        use crate::extensions::*;
        let class = ServerClass::LowPower1U;
        let mut fig = Figure::new("extensions", "Extension studies (beyond the paper)");
        fig.markdown
            .push_str("## Extension studies (beyond the paper)\n\n");

        let opex = cooling_opex_study(class);
        let (before, after, saved) = (
            opex.without_pcm_per_year.value(),
            opex.with_pcm_per_year.value(),
            opex.saving.percent(),
        );
        fig.markdown.push_str(&format!(
            "* **Cooling electricity** (tariff + temperate-climate economizer, 1U cluster): \
             ${before:.0}/yr → ${after:.0}/yr with PCM ({saved:.2} % saved by shifting cooling \
             work into cheap, cold nights — Figure 1's \"additional advantages\").\n"
        ));

        let reloc = relocation_study(class);
        let (before, after) = (
            reloc.without_pcm_per_year.value(),
            reloc.with_pcm_per_year.value(),
        );
        fig.markdown.push_str(&format!(
            "* **Job relocation vs. wax** (§5.2's other lever, $0.12/server-hour WAN+SLA): \
             ${before:.0}/yr → ${after:.0}/yr per oversubscribed cluster.\n"
        ));

        fig.markdown
            .push_str("* **Rack-by-rack deployment** (fraction equipped → peak reduction):\n");
        for p in partial_deployment_study(class, 5) {
            let (equipped, reduction) = (p.equipped.percent(), p.peak_reduction.percent());
            fig.markdown.push_str(&format!(
                "  * {equipped:.0} % equipped → {reduction:.2} % peak reduction\n"
            ));
        }

        let crowd = flash_crowd_study(class);
        let (calm, surge) = (
            crowd.calm_reduction.percent(),
            crowd.surge_reduction.percent(),
        );
        fig.markdown.push_str(&format!(
            "* **Flash crowd** (+20 % for 1 h on the daily peak): peak reduction {calm:.2} % calm \
             → {surge:.2} % with the surge (re-optimized wax still absorbs most of it).\n"
        ));

        let life = lifetime_study(class);
        let (server_life, plant_life) = (
            life.capacity_after_server_life.percent(),
            life.capacity_after_plant_life.percent(),
        );
        fig.markdown.push_str(&format!(
            "* **Cycling endurance** (Table 1 stability made quantitative): the selected \
             commercial paraffin keeps {server_life:.1} % of its latent capacity after the \
             4-year server life and {plant_life:.1} % after the 10-year plant life; 80 % \
             end-of-life is reached only after {} daily cycles.\n\n",
            life.cycles_to_80pct
        ));
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_dispatches_by_name() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "table1",
                "fig1",
                "fig4",
                "fig7",
                "fig10",
                "fig11",
                "fig12",
                "table2",
                "tco",
                "dcsim",
                "chaos",
                "fleet",
                "schedule",
                "design",
                "scenarios",
                "extensions"
            ]
        );
        assert!(find("fig11").is_some());
        assert!(find("fig99").is_none());
    }

    #[test]
    fn disabled_ctx_has_no_sidecar() {
        let ctx = ExecCtx::disabled();
        ctx.record_flush(Seconds::new(60.0));
        assert!(ctx.flushes().is_empty());
        assert!(ctx.sidecar(None, None).is_none());
    }

    #[test]
    fn dcsim_experiment_reports_qos_and_flushes() {
        let ctx = ExecCtx::with_metrics();
        let fig = DcsimQos.run(&ctx, &Params::default());
        assert!(fig.key_value("completed").expect("completed") > 1000.0);
        assert!(fig.key_value("cluster_utilization").expect("util") > 0.2);
        // Two simulated days at a six-hour flush cadence.
        let flushes = ctx.flushes();
        assert!(
            (7..=9).contains(&flushes.len()),
            "expected ~8 flushes, got {}",
            flushes.len()
        );
        // Flushes carry simulated timestamps; the sidecar wraps them.
        let first = &flushes[0];
        assert_eq!(
            first.get("sim_time_s").and_then(|v| v.as_f64()),
            Some(6.0 * 3600.0)
        );
        let sidecar = ctx.sidecar(None, Some(1.75e9)).expect("enabled");
        assert!(sidecar.get("snapshot").is_some());
        assert!(sidecar.get("flushes").is_some());
        let text = sidecar.to_string_pretty();
        let parsed = tts_units::json::parse(&text).expect("round-trips");
        assert_eq!(parsed, sidecar);
    }

    #[test]
    fn params_parse_validate_and_reject_unknown_keys() {
        use tts_units::json::parse;
        let all = crate::params::ALL;
        let p = Params::from_json(&parse(r#"{"threads":4,"seed":99}"#).unwrap(), all).unwrap();
        assert_eq!(
            p,
            Params {
                threads: Some(4),
                seed: Some(99),
                ..Params::default()
            }
        );
        let empty = Params::from_json(&parse("{}").unwrap(), all).unwrap();
        assert_eq!(empty, Params::default());
        for bad in [
            r#"{"thread":4}"#,         // unknown key
            r#"{"threads":0}"#,        // below range
            r#"{"threads":1.5}"#,      // not an integer
            r#"{"threads":"4"}"#,      // wrong type
            r#"{"servers":0}"#,        // below range
            r#"{"melt_temp_c":200}"#,  // out of physical range
            r#"{"melt_temp_c":null}"#, // NaN-ish
            "[1]",                     // not an object
        ] {
            assert!(
                Params::from_json(&parse(bad).unwrap(), all).is_err(),
                "{bad} should be rejected"
            );
        }
        // Parsing is schema-scoped: a parameter another experiment owns
        // is *unknown* here, and the error names only this schema's
        // params.
        let err = Params::from_json(&parse(r#"{"shards":8}"#).unwrap(), Fig7Blockage.schema())
            .unwrap_err();
        assert!(
            err.contains("unknown parameter \"shards\"") && err.contains("threads"),
            "{err}"
        );
        assert!(!err.contains("shards, "), "{err}");
    }

    #[test]
    fn schedule_experiment_honours_params_and_reports_savings() {
        let ctx = ExecCtx::disabled();
        // A short horizon and coarse slots keep the debug-mode LP small;
        // the full default is exercised in release by the CI gate.
        let fig = ScheduleOpt
            .run_with(
                &ctx,
                &Params {
                    servers: Some(96),
                    horizon_h: Some(2.0),
                    slot_min: Some(30),
                    tranches: Some(2),
                    seed: Some(7),
                    ..Params::default()
                },
            )
            .expect("supported params");
        assert!(fig.markdown.contains("96 servers"));
        assert!(fig.key_value("plans").expect("plans") > 0.0);
        assert_eq!(fig.key_value("deadline_misses"), Some(0.0));
        assert!(fig.key_value("savings_usd").expect("savings") > 0.0);
    }

    #[test]
    fn every_experiment_rejects_a_foreign_param_before_running() {
        // The schema check runs before the experiment does, so even the
        // million-server fleet refuses a foreign knob instantly.
        let ctx = ExecCtx::disabled();
        let shards = Params {
            shards: Some(8),
            ..Params::default()
        };
        let budget = Params {
            budget: Some(7),
            ..Params::default()
        };
        for exp in registry() {
            let (foreign, params) = if exp.name() == "fleet" {
                ("budget", &budget)
            } else {
                ("shards", &shards)
            };
            let err = exp.run_with(&ctx, params).unwrap_err();
            assert!(
                err.starts_with(&format!("parameter {foreign:?} is not supported")),
                "{}: {err}",
                exp.name()
            );
        }
    }

    #[test]
    fn chaos_emits_no_artifact_outside_results() {
        let params = Params {
            seeds: Some(1),
            ..Params::default()
        };
        let fig = ChaosBatch.run_with(&ExecCtx::disabled(), &params).unwrap();
        for (path, _) in &fig.artifacts {
            assert!(path.starts_with("results/"), "{path}");
        }
    }

    #[test]
    fn dcsim_honours_seed_and_servers_params() {
        let ctx = ExecCtx::disabled();
        let small = DcsimQos
            .run_with(
                &ctx,
                &Params {
                    servers: Some(8),
                    seed: Some(3),
                    ..Params::default()
                },
            )
            .expect("supported params");
        let default = DcsimQos.run_with(&ctx, &Params::default()).unwrap();
        // A quarter of the cluster completes measurably less of the offered
        // load than the full one (the markdown renders the sizes too).
        assert!(small.markdown.contains("8 servers"));
        assert!(default.markdown.contains("32 servers"));
        assert!(small.key_value("completed").unwrap() < default.key_value("completed").unwrap());
    }

    #[test]
    fn fleet_experiment_honours_scale_params() {
        let ctx = ExecCtx::disabled();
        let fig = FleetScale
            .run_with(
                &ctx,
                &Params {
                    servers: Some(2_000),
                    shards: Some(8),
                    datacenters: Some(2),
                    horizon_h: Some(1.0),
                    seed: Some(7),
                    ..Params::default()
                },
            )
            .expect("supported params");
        assert_eq!(fig.key_value("servers"), Some(2_000.0));
        assert_eq!(fig.key_value("epochs"), Some(60.0));
        assert_eq!(fig.key_value("server_steps"), Some(120_000.0));
        let util = fig.key_value("mean_utilization").expect("util");
        assert!((0.0..=1.0).contains(&util), "{util}");
        assert!(fig.markdown.contains("us-east") && fig.markdown.contains("eu-north"));
    }

    #[test]
    fn scenarios_experiment_honours_prefix_params() {
        let ctx = ExecCtx::disabled();
        let fig = Scenarios
            .run_with(
                &ctx,
                &Params {
                    sites: Some(1),
                    backends: Some(3),
                    traces: Some(1),
                    seed: Some(42),
                    ..Params::default()
                },
            )
            .expect("supported params");
        assert_eq!(fig.key_value("cells"), Some(3.0));
        assert!(fig.key_value("hotwater_reuse_win_cells").unwrap() >= 1.0);
        assert!(fig
            .key_value("delta_usd.temperate.chiller.diurnal")
            .is_some());
    }

    #[test]
    fn default_emit_json_carries_key_values() {
        let mut fig = Figure::new("fig7", "t");
        fig.key_values.push(("x".into(), 1.5));
        fig.comparisons
            .push(("Fig 7a".into(), Comparison::new("m", 1.0, 2.0, "K")));
        let doc = Fig7Blockage.emit_json(&fig);
        assert_eq!(
            doc.get("key_values")
                .and_then(|kv| kv.get("x"))
                .and_then(|v| v.as_f64()),
            Some(1.5)
        );
        assert!(doc.get("comparisons").is_some());
    }
}
