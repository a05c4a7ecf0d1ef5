//! The `serve` workload: an embedded `tts_svc::Server` on loopback driven
//! by two keep-alive connections, each a closed loop (a caller waits for
//! every reply before sending the next request). One cycle is the
//! workload's pass, and every cycle does the same work:
//!
//! * Connection A sends the cached `POST /v1/experiments/fig7 {}` as many
//!   times as `ttsd` serves on one connection by default
//!   (`ServerConfig::max_requests_per_conn`): one whole keep-alive
//!   session, which the server ends with `connection: close`. Every body
//!   must equal `results/fig7.summary.json`.
//! * Connection B, at the same time, runs a cold synchronous `fig11` at a
//!   fresh melting point, then an async `dcsim` job at a fresh seed
//!   (submit, stream `/events` to the terminal event, fetch `/result`).
//!
//! Both connections reconnect whenever the server ends their session, as
//! `tts_svc::loadgen`'s clients do.
//!
//! The traced run drives a server without telemetry for the first part of
//! its budget and one with a live metrics sink for the second, then probes
//! the parser and router directly and re-runs the first cycles' scenarios
//! in process, so that serving overhead separates from simulation time.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use thermal_time_shifting::experiment::{self, ExecCtx, Params};
use thermal_time_shifting::units::json::Json;
use tts_obs::MetricsSink;
use tts_rng::{RngCore, SeedableRng, Xoshiro256pp};
use tts_svc::loadgen::{request_wire, WireClient, WireResponse};
use tts_svc::{router, App, RequestParser, Server, ServerConfig, ShutdownHandle};

use crate::checks::{self, Goldens, Tally};
use crate::passes::{best_effort, layer_counts};
use crate::report::{self, Metric, Outcome};
use crate::stats::Samples;
use crate::{repeated_setup, setup_metric, within_budget, Run};

/// The cached request's target; its body is `{}`.
const CACHED_TARGET: &str = "/v1/experiments/fig7";

/// Connect, read and write timeout of the clients.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Share of a traced run's budget each of its two servers is driven for.
const TRACED_SHARE: f64 = 0.4;

/// Cycles whose scenarios the traced run re-runs in process.
const REFERENCE_CYCLES: usize = 16;

/// Repetitions of the parser and router probes, and calls per repetition.
const PROBE_REPEATS: usize = 200;
const PROBE_BATCH: u32 = 50;

/// The seeded inputs of connection B's cycles.
struct Inputs {
    rng: Xoshiro256pp,
    next_seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        // Job seeds count up from a seeded base, so no two jobs of a run
        // share a cache entry.
        let next_seed = rng.next_u64() >> 12;
        Self { rng, next_seed }
    }

    /// The next cycle's `fig11` melting point (°C) and `dcsim` seed.
    fn next(&mut self) -> (f64, u64) {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let seed = self.next_seed;
        self.next_seed += 1;
        (35.0 + 25.0 * u, seed)
    }
}

/// A keep-alive client connection that opens on first use and again
/// after the server ends the session.
struct Conn {
    addr: SocketAddr,
    client: Option<WireClient>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Self { addr, client: None }
    }

    /// Whether a session is open (the server has not ended it).
    fn is_open(&self) -> bool {
        self.client.is_some()
    }

    fn client(&mut self) -> std::io::Result<&mut WireClient> {
        if self.client.is_none() {
            self.client = Some(WireClient::connect(self.addr, TIMEOUT)?);
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<WireResponse> {
        let resp = self.client()?.request(method, target, body, false);
        self.settle(resp)
    }

    /// A chunked `GET`, read to its end.
    fn stream(&mut self, target: &str) -> std::io::Result<WireResponse> {
        let resp = self.client()?.stream_chunks(target, |_| {});
        self.settle(resp)
    }

    /// Drops the session when the server ended it or it broke.
    fn settle(&mut self, resp: std::io::Result<WireResponse>) -> std::io::Result<WireResponse> {
        if !matches!(&resp, Ok(r) if r.header("connection") != Some("close")) {
            self.client = None;
        }
        resp
    }
}

/// An embedded server with its two client connections.
struct Rig {
    server: JoinHandle<std::io::Result<()>>,
    shutdown: ShutdownHandle,
    app: Arc<App>,
    sink: MetricsSink,
    cached: Conn,
    cold: Conn,
}

impl Rig {
    /// Binds a server with `ttsd`'s default configuration on an ephemeral
    /// loopback port and warms its cache with a first fig7 request on a
    /// connection of its own (checked against the golden into `tally`).
    fn start(sink: MetricsSink, golden: &[u8], tally: &mut Tally) -> Result<Self, String> {
        let server = Server::bind(ServerConfig::default(), sink.clone())
            .map_err(|e| format!("serve: cannot bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("serve: no local address: {e}"))?;
        let shutdown = server.shutdown_handle();
        let app = server.app();
        let handle = std::thread::Builder::new()
            .name("perfbench-ttsd".into())
            .spawn(move || server.run())
            .map_err(|e| format!("serve: cannot spawn the server: {e}"))?;
        match cached_exchange(&mut Conn::new(addr), golden) {
            Ok(warm) => tally.record(warm),
            Err(e) => {
                shutdown.trigger();
                let _ = handle.join();
                return Err(format!("serve: warm-up request failed: {e}"));
            }
        }
        Ok(Self {
            server: handle,
            shutdown,
            app,
            sink,
            cached: Conn::new(addr),
            cold: Conn::new(addr),
        })
    }

    /// Closes both connections, shuts the server down and waits for it.
    fn stop(self) -> Result<(), String> {
        let Self {
            server,
            shutdown,
            cached,
            cold,
            ..
        } = self;
        drop((cached, cold));
        shutdown.trigger();
        match server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve: the server failed: {e}")),
            Err(_) => Err("serve: the server thread panicked".to_string()),
        }
    }
}

/// One cached request. The outer error is a transport failure (the
/// connection is gone); the inner one a failed check.
fn cached_exchange(conn: &mut Conn, golden: &[u8]) -> std::io::Result<Result<(), String>> {
    let resp = conn.request("POST", CACHED_TARGET, b"{}")?;
    Ok(if resp.status != 200 {
        Err(format!("cached request answered {}", resp.status))
    } else if resp.body != golden {
        Err("cached body differs from results/fig7.summary.json".to_string())
    } else {
        Ok(())
    })
}

/// Connection A's share of a cycle: one `ttsd` keep-alive session of
/// cached requests, which the server must end after the last of them.
/// Returns the client latencies (ms) and whether the connection held.
fn cached_session(conn: &mut Conn, golden: &[u8], tally: &mut Tally) -> (Vec<f64>, bool) {
    let requests = ServerConfig::default().max_requests_per_conn;
    let mut latency_ms = Vec::with_capacity(requests);
    for _ in 0..requests {
        let started = Instant::now();
        match cached_exchange(conn, golden) {
            Ok(outcome) => {
                latency_ms.push(started.elapsed().as_secs_f64() * 1e3);
                tally.record(outcome);
            }
            Err(e) => {
                tally.record(Err(format!("cached connection: {e}")));
                return (latency_ms, false);
            }
        }
    }
    tally.record(if conn.is_open() {
        Err(format!(
            "the server kept a connection open past {requests} requests"
        ))
    } else {
        Ok(())
    });
    (latency_ms, true)
}

/// A cold synchronous `fig11` run; returns the body.
fn cold_exchange(conn: &mut Conn, melt_temp_c: f64) -> std::io::Result<Result<Vec<u8>, String>> {
    let body = format!("{{\"melt_temp_c\": {melt_temp_c}}}");
    let resp = conn.request("POST", "/v1/experiments/fig11", body.as_bytes())?;
    Ok(if resp.status != 200 {
        Err(format!("cold fig11 request answered {}", resp.status))
    } else {
        checks::parse_doc("fig11", &resp.body)
            .and_then(|doc| checks::summary_is_well_formed("fig11", &doc))
            .map(|()| resp.body)
    })
}

/// An async `dcsim` job: submit, stream the events to the terminal one,
/// fetch the result. Returns the result body and the event count.
fn job_exchange(conn: &mut Conn, seed: u64) -> std::io::Result<Result<(Vec<u8>, usize), String>> {
    let submit = format!("{{\"experiment\": \"dcsim\", \"params\": {{\"seed\": {seed}}}}}");
    let resp = conn.request("POST", "/v1/jobs", submit.as_bytes())?;
    if resp.status != 202 {
        return Ok(Err(format!("job submit answered {}", resp.status)));
    }
    let id = match checks::parse_doc("job", &resp.body)
        .map(|doc| doc.get("id").and_then(Json::as_f64))
    {
        Ok(Some(id)) => id as u64,
        Ok(None) => return Ok(Err("job submit answer has no id".to_string())),
        Err(msg) => return Ok(Err(msg)),
    };
    let events = conn.stream(&format!("/v1/jobs/{id}/events"))?;
    let lines: Vec<&[u8]> = events
        .body
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let last_status = lines
        .last()
        .and_then(|l| checks::parse_doc("job event", l).ok())
        .and_then(|ev| ev.get("status").and_then(Json::as_str).map(str::to_string));
    if events.status != 200 || last_status.as_deref() != Some("done") {
        return Ok(Err(format!(
            "job {id} events answered {} and ended with status {last_status:?}",
            events.status
        )));
    }
    let result = conn.request("GET", &format!("/v1/jobs/{id}/result"), b"")?;
    Ok(if result.status != 200 {
        Err(format!("job {id} result answered {}", result.status))
    } else {
        checks::parse_doc("dcsim", &result.body)
            .and_then(|doc| {
                checks::summary_is_well_formed("dcsim", &doc)?;
                checks::dcsim_invariants(&doc)
            })
            .map(|()| (result.body, lines.len()))
    })
}

/// One cycle of connection B as sent and answered.
struct Cycle {
    melt_temp_c: f64,
    seed: u64,
    cold_body: Vec<u8>,
    job_body: Vec<u8>,
    job_events: usize,
    /// Client-observed latencies of the cold request and of the job.
    cold_ms: f64,
    job_ms: f64,
}

impl Cycle {
    /// The parameters of the cycle's cold run and of its job.
    fn params(&self) -> (Params, Params) {
        let cold = Params {
            melt_temp_c: Some(self.melt_temp_c),
            ..Params::default()
        };
        let job = Params {
            seed: Some(self.seed),
            ..Params::default()
        };
        (cold, job)
    }
}

/// What driving a rig for a while measured.
#[derive(Default)]
struct Drive {
    tally: Tally,
    /// Process CPU time over the drive (NaN where the clock is missing).
    cpu_s: f64,
    cached_ms: Samples,
    cold_ms: Samples,
    job_ms: Samples,
    cycle_s: Samples,
    cycles: Vec<Cycle>,
}

/// Drives `rig` for `budget`, one cycle after another: in each, connection
/// A's session runs on a helper thread while connection B's cold run and
/// job run on this one.
fn drive(rig: &mut Rig, inputs: &mut Inputs, budget: Duration, golden: &[u8]) -> Drive {
    let Rig { cached, cold, .. } = rig;
    let mut d = Drive::default();
    let cpu_before = report::process_cpu_s();
    within_budget(budget, 1, |_| {
        let (melt_temp_c, seed) = inputs.next();
        let started = Instant::now();
        let mut side_tally = Tally::default();
        let ((latency_ms, held), exchanged) = std::thread::scope(|scope| {
            let side_a = scope.spawn(|| cached_session(cached, golden, &mut side_tally));
            let exchanged = cold_exchange(cold, melt_temp_c).and_then(|cold_out| {
                let cold_done = Instant::now();
                Ok((cold_out, cold_done, job_exchange(cold, seed)?))
            });
            let side_a = side_a.join().expect("the cached client does not panic");
            (side_a, exchanged)
        });
        d.cycle_s.push(started.elapsed().as_secs_f64());
        d.tally.merge(side_tally);
        for ms in latency_ms {
            d.cached_ms.push(ms);
        }
        let (cold_out, cold_done, job_out) = match exchanged {
            Ok(answered) => answered,
            Err(e) => {
                d.tally.record(Err(format!("cold connection: {e}")));
                return false;
            }
        };
        let cold_ms = (cold_done - started).as_secs_f64() * 1e3;
        let job_ms = cold_done.elapsed().as_secs_f64() * 1e3;
        d.cold_ms.push(cold_ms);
        d.job_ms.push(job_ms);
        if let (Ok(cold_body), Ok((job_body, job_events))) = (&cold_out, &job_out) {
            d.cycles.push(Cycle {
                melt_temp_c,
                seed,
                cold_body: cold_body.clone(),
                job_body: job_body.clone(),
                job_events: *job_events,
                cold_ms,
                job_ms,
            });
        }
        d.tally.record(cold_out.map(drop));
        d.tally.record(job_out.map(drop));
        held
    });
    d.cpu_s = report::cpu_since(cpu_before);
    d
}

/// Runs the `serve` workload.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    // The golden is the benchmark's own data, read once outside the timed
    // set-up. Each set-up binds a server and warms its cache; all but the
    // last are torn down again.
    let golden = Goldens::load(&run.results)?.get("fig7").to_vec();
    let (setup, mut rig) = repeated_setup(
        || Rig::start(MetricsSink::disabled(), &golden, &mut tally),
        Rig::stop,
    )?;
    let mut inputs = Inputs::new(run.seed);
    if run.traced {
        return traced(run, &golden, rig, &mut inputs, tally);
    }
    let d = drive(&mut rig, &mut inputs, run.budget, &golden);
    tally.merge(d.tally);
    tally.record(rig.stop());
    let metrics = vec![
        setup_metric(&setup),
        Metric::over("pass_s", "s", d.cycle_s.median(), d.cycle_s.len()),
        Metric::over(
            "pass_cpu_s",
            "s",
            d.cpu_s / d.cycle_s.len() as f64,
            d.cycle_s.len(),
        ),
        Metric::over(
            "cached_p50_ms",
            "ms",
            d.cached_ms.quantile(0.5),
            d.cached_ms.len(),
        ),
        Metric::over(
            "cached_p99_ms",
            "ms",
            d.cached_ms.quantile(0.99),
            d.cached_ms.len(),
        ),
        Metric::over("cold_p50_ms", "ms", d.cold_ms.median(), d.cold_ms.len()),
        Metric::over(
            "cold_p90_ms",
            "ms",
            d.cold_ms.quantile(0.90),
            d.cold_ms.len(),
        ),
        Metric::over("job_p50_ms", "ms", d.job_ms.median(), d.job_ms.len()),
    ];
    Ok(Outcome {
        tally,
        metrics,
        samples: vec![("setup_s".to_string(), setup.values().to_vec())],
    })
}

/// The traced run: the untraced server already set up, then a traced one,
/// then the direct probes and in-process references.
fn traced(
    run: &Run,
    golden: &[u8],
    mut plain: Rig,
    inputs: &mut Inputs,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let share = run.budget.mul_f64(TRACED_SHARE);
    let untraced = drive(&mut plain, inputs, share, golden);
    tally.record(plain.stop());

    let mut live = Rig::start(MetricsSink::fresh(), golden, &mut tally)?;
    let traced = drive(&mut live, inputs, share, golden);
    let full = live.sink.snapshot_full(None, None).unwrap_or(Json::Null);
    let server_p50 = best_effort(
        &full,
        &["histograms", "svc.http.latency_ms", "quantiles", "p50"],
    )
    .unwrap_or(f64::NAN);
    let server_n =
        best_effort(&full, &["histograms", "svc.http.latency_ms", "total"]).unwrap_or(0.0);
    let hits = best_effort(&full, &["counters", "svc.cache.hits"]).unwrap_or(0.0);
    let misses = best_effort(&full, &["counters", "svc.cache.misses"]).unwrap_or(0.0);
    let (parse_ns, route_us, probe_outcome) = probe_parse_and_route(&live.app);
    tally.record(probe_outcome);
    tally.merge(untraced.tally);
    tally.merge(traced.tally);
    tally.record(live.stop());

    // In-process references: the first cycles' scenarios, run and
    // rendered without a server; the bodies must equal the server's, and
    // each cycle's serving overhead is its client latency minus the
    // reference time.
    let mut cold_overhead_ms = Samples::default();
    let mut job_overhead_ms = Samples::default();
    let mut exp_run_ms = Samples::default();
    let mut exp_render_ms = Samples::default();
    for cycle in untraced.cycles.iter().take(REFERENCE_CYCLES) {
        let (cold_params, job_params) = cycle.params();
        let cold = in_process("fig11", &cold_params, &ExecCtx::disabled());
        let job = in_process("dcsim", &job_params, &ExecCtx::disabled());
        tally.record(
            if cold.bytes == cycle.cold_body && job.bytes == cycle.job_body {
                Ok(())
            } else {
                Err("serve: a body differs from the in-process run of its scenario".to_string())
            },
        );
        cold_overhead_ms.push(cycle.cold_ms - (cold.run_s + cold.render_s) * 1e3);
        job_overhead_ms.push(cycle.job_ms - job.run_s * 1e3);
        exp_run_ms.push((cold.run_s + job.run_s) * 1e3);
        exp_render_ms.push((cold.render_s + job.render_s) * 1e3);
    }
    // The work counts of one cycle, from a traced in-process rerun.
    let snapshots: Vec<Json> = untraced
        .cycles
        .first()
        .map(|cycle| {
            let (cold_params, job_params) = cycle.params();
            [("fig11", cold_params), ("dcsim", job_params)]
                .iter()
                .map(|(name, params)| {
                    let ctx = ExecCtx::with_metrics();
                    tts_exec::set_metrics_sink(ctx.sink().clone());
                    in_process(name, params, &ctx);
                    tts_exec::set_metrics_sink(MetricsSink::disabled());
                    ctx.sink().snapshot_full(None, None).unwrap_or(Json::Null)
                })
                .collect()
        })
        .unwrap_or_default();
    let mut job_events = Samples::default();
    for cycle in &untraced.cycles {
        job_events.push(cycle.job_events as f64);
    }

    let n = exp_run_ms.len();
    let mut metrics = vec![
        Metric::over("exp.run_ms", "ms", exp_run_ms.median(), n),
        Metric::over("exp.render_ms", "ms", exp_render_ms.median(), n),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            traced.cached_ms.median() / untraced.cached_ms.median() - 1.0,
        ),
        Metric::over(
            "svc.job_events",
            "count",
            job_events.median(),
            job_events.len(),
        ),
    ];
    metrics.extend(layer_counts(&snapshots.iter().collect::<Vec<_>>(), 0.0));
    metrics.extend([
        Metric::over("svc.parse_ns", "ns", parse_ns, PROBE_REPEATS),
        Metric::over("svc.route_cached_us", "us", route_us, PROBE_REPEATS),
        Metric::over("svc.server_p50_ms", "ms", server_p50, server_n as usize),
        Metric::new("svc.cache.hit_ratio", "ratio", hits / (hits + misses)),
        Metric::over("svc.cold_overhead_ms", "ms", cold_overhead_ms.median(), n),
        Metric::over("svc.job_overhead_ms", "ms", job_overhead_ms.median(), n),
    ]);
    Ok(Outcome {
        tally,
        metrics,
        samples: Vec::new(),
    })
}

/// An in-process run and render of one scenario.
struct Reference {
    bytes: Vec<u8>,
    run_s: f64,
    render_s: f64,
}

fn in_process(name: &str, params: &Params, ctx: &ExecCtx) -> Reference {
    let exp = experiment::find(name).expect("the experiment is registered");
    let started = Instant::now();
    let fig = exp
        .run_with(ctx, params)
        .expect("the scenario validated on the server");
    let run_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let bytes = exp.emit_json(&fig).to_string_pretty().into_bytes();
    Reference {
        bytes,
        run_s,
        render_s: started.elapsed().as_secs_f64(),
    }
}

/// `svc.parse_ns` (`RequestParser::feed` on the cached request's bytes)
/// and `svc.route_cached_us` (`router::handle` on it, no socket): medians
/// over [`PROBE_REPEATS`] batches. Every routed reply must carry the
/// golden body.
fn probe_parse_and_route(app: &Arc<App>) -> (f64, f64, Result<(), String>) {
    let wire = request_wire("POST", CACHED_TARGET, b"{}", false);
    let mut parse_ns = Samples::default();
    let mut route_us = Samples::default();
    let parsed = RequestParser::new().feed(&wire);
    let Ok(Some(request)) = parsed else {
        return (
            f64::NAN,
            f64::NAN,
            Err("serve: the cached request does not parse".to_string()),
        );
    };
    let mut outcome = Ok(());
    for _ in 0..PROBE_REPEATS {
        let started = Instant::now();
        for _ in 0..PROBE_BATCH {
            let req = RequestParser::new().feed(std::hint::black_box(&wire));
            std::hint::black_box(req.ok());
        }
        parse_ns.push(started.elapsed().as_secs_f64() * 1e9 / f64::from(PROBE_BATCH));

        let started = Instant::now();
        let mut last_status = 0;
        for _ in 0..PROBE_BATCH {
            let reply = router::handle(app, std::hint::black_box(&request));
            last_status = reply.response.status;
        }
        route_us.push(started.elapsed().as_secs_f64() * 1e6 / f64::from(PROBE_BATCH));
        if last_status != 200 {
            outcome = Err(format!(
                "serve: routed cached request answered {last_status}"
            ));
        }
    }
    (parse_ns.median(), route_us.median(), outcome)
}
