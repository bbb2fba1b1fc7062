//! `serve_single` and `serve_batch`: the forecast server under a
//! one-thread load generator, and the traced replay of the server path.

use crate::measure::{self, Interference, SeqRng};
use crate::report::Report;
use crate::trace::{self, Breakdown, Span, Tracer};
use crate::train;
use evoforecast_core::model::{ModelMetadata, TrainedModel};
use evoforecast_core::{Combination, CompiledRuleSet, Engine, EngineConfig, RuleSetPredictor};
use evoforecast_serve::http;
use evoforecast_serve::protocol::{
    ArtifactKind, ForecastRequest, ForecastResponse, ReloadRequest, ReloadResponse,
};
use evoforecast_serve::registry::ModelRegistry;
use evoforecast_serve::server::{Server, ServerConfig};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One window per request, with seed-scheduled hot reloads.
    Single,
    /// 64 windows per request, no reloads.
    Batch,
}

/// The fixed work of one run.
#[derive(Debug, Clone, Copy)]
struct Plan {
    windows_per_request: usize,
    offered_rps: f64,
    open_requests: usize,
    capacity_requests: usize,
    capacity_slice: usize,
    reload_every: Option<usize>,
    rounds: usize,
}

impl Plan {
    fn new(mode: Mode, seconds: u64) -> Plan {
        let s = seconds as usize;
        match mode {
            Mode::Single => Plan {
                windows_per_request: 1,
                offered_rps: 1_000.0,
                open_requests: 300 * s,
                capacity_requests: 1_500 * s,
                capacity_slice: 250,
                reload_every: Some(1_500),
                rounds: 2 * s,
            },
            Mode::Batch => Plan {
                windows_per_request: 64,
                offered_rps: 200.0,
                open_requests: 60 * s,
                capacity_requests: 600 * s,
                capacity_slice: 100,
                reload_every: None,
                rounds: 2 * s,
            },
        }
    }
}

/// Each served model is the merged rule set of this many executions...
const MODEL_EXECUTIONS: usize = 3;
/// ...of this many generations each.
const MODEL_GENERATIONS: usize = 300;
/// Held-out windows the request bodies draw, with repetition: enough that
/// the served RMSE does not hinge on which few windows a seed picks.
const POOL_WINDOWS: usize = 16_384;

/// A load-generator setting that breaks the thread budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadGenError {
    /// More generator threads than logical CPUs.
    TooManyThreads {
        /// Threads asked for.
        threads: usize,
        /// Logical CPUs.
        nproc: usize,
    },
    /// More connections in flight than logical CPUs.
    TooManyInFlight {
        /// Connections asked for.
        in_flight: usize,
        /// Logical CPUs.
        nproc: usize,
    },
}

impl std::fmt::Display for LoadGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadGenError::TooManyThreads { threads, nproc } => {
                write!(f, "{threads} load-generator threads exceed nproc = {nproc}")
            }
            LoadGenError::TooManyInFlight { in_flight, nproc } => {
                write!(
                    f,
                    "{in_flight} connections in flight exceed nproc = {nproc}"
                )
            }
        }
    }
}

/// The load generator's thread and connection budget.
#[derive(Debug, Clone, Copy)]
pub struct LoadGen {
    in_flight: usize,
}

impl LoadGen {
    /// Accept a setting only when neither its threads nor its connections in
    /// flight exceed `nproc`.
    pub fn new(threads: usize, in_flight: usize, nproc: usize) -> Result<LoadGen, LoadGenError> {
        if threads > nproc {
            return Err(LoadGenError::TooManyThreads { threads, nproc });
        }
        if in_flight == 0 || in_flight > nproc {
            return Err(LoadGenError::TooManyInFlight { in_flight, nproc });
        }
        Ok(LoadGen { in_flight })
    }
}

/// One request the generator sends.
#[derive(Debug, Clone)]
enum Job {
    Forecast { body: usize },
    Reload { artifact: usize },
}

/// What came back for one request.
#[derive(Debug, Clone, Default)]
struct Exchange {
    due_ns: u64,
    sent_ns: u64,
    connected_ns: u64,
    first_byte_ns: u64,
    done_ns: u64,
    status: u16,
    body: String,
    error: Option<String>,
}

/// A connection in flight.
struct Pending {
    slot: usize,
    /// `None` when connecting failed (the exchange records why).
    stream: Option<TcpStream>,
    ex: Exchange,
    raw: Vec<u8>,
}

/// The pieces of a request the generator writes.
struct Wire {
    addr: SocketAddr,
    bodies: Vec<String>,
    artifacts: Vec<PathBuf>,
}

impl Wire {
    fn bytes(&self, job: &Job) -> Vec<u8> {
        let (path, body) = match job {
            Job::Forecast { body } => ("/forecast".to_string(), self.bodies[*body].clone()),
            Job::Reload { artifact } => {
                let req = ReloadRequest {
                    model: "default".to_string(),
                    path: self.artifacts[*artifact].display().to_string(),
                    kind: ArtifactKind::Model,
                };
                (
                    "/reload".to_string(),
                    serde_json::to_string(&req).expect("reload request serializes"),
                )
            }
        };
        format!(
            "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Sleep, then spin, until `due_ns`.
fn wait_until(origin: Instant, due_ns: u64) {
    let now = now_ns(origin);
    if due_ns > now + 200_000 {
        std::thread::sleep(Duration::from_nanos(due_ns - now - 150_000));
    }
    while now_ns(origin) < due_ns {
        std::hint::spin_loop();
    }
}

fn open(wire: &Wire, origin: Instant, job: &Job, slot: usize, due_ns: u64) -> Pending {
    let mut ex = Exchange {
        due_ns,
        sent_ns: now_ns(origin),
        ..Exchange::default()
    };
    let connected = TcpStream::connect(wire.addr);
    ex.connected_ns = now_ns(origin);
    let stream = match connected {
        Ok(mut s) => {
            let _ = s.set_nodelay(true);
            if let Err(e) = s.write_all(&wire.bytes(job)) {
                ex.error = Some(format!("write: {e}"));
            }
            Some(s)
        }
        Err(e) => {
            ex.error = Some(format!("connect: {e}"));
            None
        }
    };
    Pending {
        slot,
        stream,
        ex,
        raw: Vec::new(),
    }
}

/// Read until the server closes. With `nonblocking`, returns `Ok(false)`
/// when no more bytes are ready yet.
fn pump(p: &mut Pending, origin: Instant, nonblocking: bool) -> io::Result<bool> {
    let Some(stream) = p.stream.as_mut().filter(|_| p.ex.error.is_none()) else {
        return Ok(true);
    };
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                p.ex.done_ns = now_ns(origin);
                return Ok(true);
            }
            Ok(n) => {
                if p.raw.is_empty() {
                    p.ex.first_byte_ns = now_ns(origin);
                }
                p.raw.extend_from_slice(&buf[..n]);
            }
            Err(e) if nonblocking && e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn finish(mut p: Pending) -> (usize, Exchange) {
    if p.ex.error.is_none() {
        let text = String::from_utf8_lossy(&p.raw).into_owned();
        match text.split_once("\r\n\r\n") {
            Some((head, body)) => {
                p.ex.status = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                p.ex.body = body.to_string();
            }
            None => p.ex.error = Some(format!("malformed response {text:?}")),
        }
    }
    if p.ex.done_ns == 0 {
        p.ex.done_ns = p.ex.connected_ns.max(p.ex.sent_ns);
    }
    if p.ex.first_byte_ns == 0 {
        p.ex.first_byte_ns = p.ex.done_ns;
    }
    (p.slot, p.ex)
}

fn complete_blocking(mut p: Pending, origin: Instant) -> (usize, Exchange) {
    if let Err(e) = pump(&mut p, origin, false) {
        p.ex.error = Some(format!("read: {e}"));
    }
    finish(p)
}

/// Bounds `[a, z)` of chunk `r` of `n` items split into `rounds` chunks.
fn chunk(n: usize, rounds: usize, r: usize) -> (usize, usize) {
    (n * r / rounds, n * (r + 1) / rounds)
}

/// Open loop: forecast `i` is due at `i / rate`; one forecast and one
/// side request (a reload) may be in flight. Latency is timed from the due
/// time, so a late send counts against the request.
fn open_loop(
    wire: &Wire,
    gen: LoadGen,
    jobs: &[Job],
    rate: f64,
    origin: Instant,
) -> Vec<(usize, Exchange)> {
    let start = now_ns(origin) + 2_000_000;
    let period = 1e9 / rate;
    let mut out = Vec::with_capacity(jobs.len());
    let mut side: Option<Pending> = None;
    let mut forecasts = 0usize;
    for (slot, job) in jobs.iter().enumerate() {
        match job {
            Job::Reload { .. } => {
                if let Some(p) = side.take() {
                    out.push(complete_blocking(p, origin));
                }
                let due = start + (forecasts as f64 * period) as u64;
                let mut p = open(wire, origin, job, slot, due);
                let nonblocking = p
                    .stream
                    .as_ref()
                    .is_some_and(|s| s.set_nonblocking(true).is_ok());
                if gen.in_flight >= 2 && nonblocking {
                    side = Some(p);
                } else {
                    if let Err(e) = pump(&mut p, origin, false) {
                        p.ex.error = Some(format!("read: {e}"));
                    }
                    out.push(finish(p));
                }
            }
            Job::Forecast { .. } => {
                let due = start + (forecasts as f64 * period) as u64;
                forecasts += 1;
                wait_until(origin, due);
                let p = open(wire, origin, job, slot, due);
                out.push(complete_blocking(p, origin));
            }
        }
        if let Some(mut p) = side.take() {
            match pump(&mut p, origin, true) {
                Ok(true) => out.push(finish(p)),
                Ok(false) => side = Some(p),
                Err(e) => {
                    p.ex.error = Some(format!("read: {e}"));
                    out.push(finish(p));
                }
            }
        }
    }
    if let Some(p) = side.take() {
        if let Some(s) = &p.stream {
            let _ = s.set_nonblocking(false);
        }
        out.push(complete_blocking(p, origin));
    }
    out.sort_by_key(|(slot, _)| *slot);
    out
}

/// Closed loop with `gen.in_flight` connections: a completed request is
/// replaced by the next at once. Returns the exchanges and the duration of
/// every `slice` completions.
fn closed_loop(
    wire: &Wire,
    gen: LoadGen,
    jobs: &[Job],
    slice: usize,
    origin: Instant,
) -> (Vec<(usize, Exchange)>, Vec<Duration>) {
    let mut out = Vec::with_capacity(jobs.len());
    let mut slices = Vec::new();
    let mut queue: VecDeque<Pending> = VecDeque::new();
    let mut next = 0usize;
    let mut slice_start = Instant::now();
    while out.len() < jobs.len() {
        while queue.len() < gen.in_flight && next < jobs.len() {
            let due = now_ns(origin);
            queue.push_back(open(wire, origin, &jobs[next], next, due));
            next += 1;
        }
        let Some(p) = queue.pop_front() else { break };
        out.push(complete_blocking(p, origin));
        if out.len() % slice == 0 {
            slices.push(slice_start.elapsed());
            slice_start = Instant::now();
        }
    }
    out.sort_by_key(|(slot, _)| *slot);
    (out, slices)
}

/// The served inputs of a run: held-out windows with their targets, the
/// request bodies, and the two trained artifacts.
struct Inputs {
    windows: Vec<Vec<f64>>,
    targets: Vec<f64>,
    bodies: Vec<String>,
    body_windows: Vec<Vec<usize>>,
    artifacts: Vec<PathBuf>,
    compiled: Vec<CompiledRuleSet>,
}

fn prepare(mode: Mode, seed: u64, dir: &Path, report: &mut Report) -> Inputs {
    let plan = Plan::new(mode, 1);
    let series = train::venice_series();
    let (train_block, valid) = series.split_at(train::TRAIN_HOURS);
    let spec = train::venice_spec();
    let mut artifacts = Vec::new();
    let mut compiled = Vec::new();
    for (i, name) in ["A", "B"].iter().enumerate() {
        let mut predictor = RuleSetPredictor::new(Vec::new());
        for e in 0..MODEL_EXECUTIONS {
            let config = EngineConfig::for_series(train_block, spec)
                .with_seed(measure::mix(seed, 300 + (i * MODEL_EXECUTIONS + e) as u64))
                .with_generations(MODEL_GENERATIONS);
            let mut engine = Engine::new(config, train_block).expect("Venice engine builds");
            predictor.merge(RuleSetPredictor::new(engine.run()));
        }
        compiled.push(CompiledRuleSet::compile(&predictor));
        let coverage = predictor.coverage(&spec.dataset(train_block).expect("training block fits"));
        let model = TrainedModel::new(
            spec,
            predictor,
            ModelMetadata {
                series_name: "venice".to_string(),
                train_points: train::TRAIN_HOURS,
                seed,
                executions: MODEL_EXECUTIONS,
                training_coverage: coverage,
            },
        );
        let path = dir.join(format!("model-{name}.json"));
        if let Err(e) = model.save_json_file(&path) {
            report.check(format!("write artifact {name}"), Err(e.to_string()));
        }
        artifacts.push(path);
    }
    let ds = spec.dataset(valid).expect("held-out block fits the spec");
    let windows: Vec<Vec<f64>> = ds.iter().map(|(w, _)| w.to_vec()).collect();
    let targets: Vec<f64> = ds.iter().map(|(_, y)| y).collect();
    // Bodies walk a seed-shuffled order of the held-out windows, cyclically,
    // so the served windows cover the held-out block evenly.
    let mut order: Vec<usize> = (0..windows.len()).collect();
    let mut rng = SeqRng::new(seed, 400);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let per = plan.windows_per_request;
    let mut bodies = Vec::new();
    let mut body_windows = Vec::new();
    for k in 0..POOL_WINDOWS / per {
        let idx: Vec<usize> = (0..per)
            .map(|j| order[(k * per + j) % order.len()])
            .collect();
        let ws: Vec<Vec<f64>> = idx.iter().map(|&i| windows[i].clone()).collect();
        let req = serde_json::to_string(&ws).expect("windows serialize");
        bodies.push(format!("{{\"windows\": {req}}}"));
        body_windows.push(idx);
    }
    Inputs {
        windows,
        targets,
        bodies,
        body_windows,
        artifacts,
        compiled,
    }
}

/// The request schedule: forecasts cycling through the body pool from
/// body `first`, with a reload to the other artifact every `reload_every`
/// forecasts.
fn schedule(plan: &Plan, bodies: usize, first: usize, count: usize, reloads: bool) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(count + count / 100);
    let mut artifact = 0usize;
    for i in 0..count {
        if let (true, Some(every)) = (reloads, plan.reload_every) {
            if i > 0 && i % every == 0 {
                artifact ^= 1;
                jobs.push(Job::Reload { artifact });
            }
        }
        jobs.push(Job::Forecast {
            body: (first + i) % bodies,
        });
    }
    jobs
}

fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n"
    )?;
    let mut text = String::new();
    s.read_to_string(&mut text)?;
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// Load artifact A, install it, start the server and wait for its first
/// healthy answer. Returns the server and the installed version.
fn start_server(artifact: &Path, workers: usize) -> Result<(Server, u64), String> {
    let model = TrainedModel::load_json_file(artifact).map_err(|e| e.to_string())?;
    let registry = Arc::new(ModelRegistry::new());
    let entry = registry
        .install_trained("default", model)
        .map_err(|e| e.to_string())?;
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = Server::start(config, registry).map_err(|e| e.to_string())?;
    for _ in 0..1_000 {
        if let Ok((200, _)) = get(server.local_addr(), "/healthz") {
            return Ok((server, entry.version));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("the server never answered /healthz".to_string())
}

/// The correctness gate and held-out quality of a set of exchanges.
struct Verdict {
    forecasts_ok: u64,
    failed: u64,
    mismatched: u64,
    predicted: usize,
    windows: usize,
    sq_err: f64,
}

/// Every 200 forecast must equal, bit for bit, the in-process compiled
/// prediction of the model version it names; reload answers extend the
/// version map.
fn verify(
    inputs: &Inputs,
    jobs: &[Job],
    exchanges: &[(usize, Exchange)],
    versions: &mut BTreeMap<u64, usize>,
) -> Verdict {
    let mut v = Verdict {
        forecasts_ok: 0,
        failed: 0,
        mismatched: 0,
        predicted: 0,
        windows: 0,
        sq_err: 0.0,
    };
    for (slot, ex) in exchanges {
        if let Job::Reload { artifact } = jobs[*slot] {
            match serde_json::from_str::<ReloadResponse>(&ex.body) {
                Ok(r) if ex.status == 200 && ex.error.is_none() => {
                    versions.insert(r.version, artifact);
                }
                _ => v.failed += 1,
            }
        }
    }
    let mut scratch: Vec<_> = inputs
        .compiled
        .iter()
        .map(CompiledRuleSet::scratch)
        .collect();
    for (slot, ex) in exchanges {
        let Job::Forecast { body } = jobs[*slot] else {
            continue;
        };
        let parsed = (ex.status == 200 && ex.error.is_none())
            .then(|| serde_json::from_str::<ForecastResponse>(&ex.body).ok())
            .flatten();
        let Some(resp) = parsed else {
            v.failed += 1;
            continue;
        };
        let Some(&artifact) = versions.get(&resp.model_version) else {
            v.mismatched += 1;
            continue;
        };
        let idx = &inputs.body_windows[body];
        let mut same = resp.predictions.len() == idx.len();
        for (k, &wi) in idx.iter().enumerate() {
            let want = inputs.compiled[artifact].predict_with_into(
                &inputs.windows[wi],
                Combination::Mean,
                &mut scratch[artifact],
            );
            let got = resp.predictions.get(k).copied().flatten();
            same &= want.map(f64::to_bits) == got.map(f64::to_bits);
            v.windows += 1;
            if let Some(p) = got {
                v.predicted += 1;
                v.sq_err += (p - inputs.targets[wi]).powi(2);
            }
        }
        if same {
            v.forecasts_ok += 1;
        } else {
            v.mismatched += 1;
        }
    }
    v
}

/// Count the exchanges and fold the verdicts into the report: refused or
/// failed requests are failed operations, and a response that differs from
/// the in-process prediction fails the correctness check.
fn record(report: &mut Report, exchanges: usize, verdicts: &[&Verdict]) {
    report.attempted += exchanges as u64;
    report.failed += verdicts.iter().map(|v| v.failed).sum::<u64>();
    let mismatched: u64 = verdicts.iter().map(|v| v.mismatched).sum();
    report.check(
        "every 200 forecast equals the in-process prediction of its model version",
        if mismatched == 0 {
            Ok(())
        } else {
            Err(format!("{mismatched} responses differ"))
        },
    );
}

fn latencies(exchanges: &[(usize, Exchange)], jobs: &[Job]) -> Vec<f64> {
    exchanges
        .iter()
        .filter(|(slot, ex)| matches!(jobs[*slot], Job::Forecast { .. }) && ex.error.is_none())
        .map(|(_, ex)| (ex.done_ns - ex.due_ns) as f64 / 1e3)
        .collect()
}

fn lags(exchanges: &[(usize, Exchange)]) -> Vec<f64> {
    exchanges
        .iter()
        .map(|(_, ex)| ex.sent_ns.saturating_sub(ex.due_ns) as f64 / 1e3)
        .collect()
}

/// Run `serve_single` or `serve_batch`, untraced or traced.
pub fn run(mode: Mode, seed: u64, seconds: u64, traced: bool, dir: &Path) -> Report {
    let mut report = Report::default();
    let nproc = measure::nproc();
    let gen = match LoadGen::new(1, nproc, nproc) {
        Ok(g) => g,
        Err(e) => {
            report.check(
                "load generator within the thread budget",
                Err(e.to_string()),
            );
            return report;
        }
    };
    let plan = Plan::new(mode, seconds);
    let inputs = prepare(mode, seed, dir, &mut report);
    if traced {
        return run_traced(mode, plan, seed, gen, &inputs, report, dir);
    }

    // One set-up starts the server under test; one more per round starts
    // and stops a second instance while the first is idle, so `setup_s` is
    // a median over set-ups spread across the whole run.
    let mut setups = Vec::new();
    let mut timed_setup = |report: &mut Report| -> Option<(Server, u64)> {
        let t0 = Instant::now();
        match start_server(&inputs.artifacts[0], nproc) {
            Ok(s) => {
                setups.push(t0.elapsed().as_secs_f64());
                Some(s)
            }
            Err(e) => {
                report.check("server set-up", Err(e));
                None
            }
        }
    };
    let Some((server, version)) = timed_setup(&mut report) else {
        return report;
    };
    let mut versions = BTreeMap::from([(version, 0usize)]);
    let wire = Wire {
        addr: server.local_addr(),
        bodies: inputs.bodies.clone(),
        artifacts: inputs.artifacts.clone(),
    };
    let origin = Instant::now();
    let probe = Interference::start();
    let bodies = inputs.bodies.len();
    let open_jobs = schedule(&plan, bodies, 0, plan.open_requests, true);
    let cap_jobs = schedule(
        &plan,
        bodies,
        plan.open_requests,
        plan.capacity_requests,
        false,
    );
    // Alternate open-loop and closed-loop rounds so that both phases sample
    // the whole run, not one stretch of it: the machine's speed drifts over
    // seconds, and a phase confined to one stretch inherits its drift.
    let rounds = plan.rounds;
    let (mut open_ex, mut cap_ex, mut slices) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..rounds {
        if let Some((extra, _)) = timed_setup(&mut report) {
            Server::shutdown(extra);
        }
        let (a, z) = chunk(open_jobs.len(), rounds, r);
        open_ex.extend(
            open_loop(&wire, gen, &open_jobs[a..z], plan.offered_rps, origin)
                .into_iter()
                .map(|(slot, ex)| (slot + a, ex)),
        );
        let (a, z) = chunk(cap_jobs.len(), rounds, r);
        let (ex, sl) = closed_loop(&wire, gen, &cap_jobs[a..z], plan.capacity_slice, origin);
        cap_ex.extend(ex.into_iter().map(|(slot, ex)| (slot + a, ex)));
        slices.extend(sl);
    }
    let health = probe.finish();
    let stats = get(wire.addr, "/stats")
        .ok()
        .and_then(|(_, body)| serde_json::from_str::<evoforecast_serve::StatsSnapshot>(&body).ok());
    Server::shutdown(server);

    let open_v = verify(&inputs, &open_jobs, &open_ex, &mut versions);
    let cap_v = verify(&inputs, &cap_jobs, &cap_ex, &mut versions);
    record(
        &mut report,
        open_ex.len() + cap_ex.len(),
        &[&open_v, &cap_v],
    );
    let reloads = open_jobs
        .iter()
        .filter(|j| matches!(j, Job::Reload { .. }))
        .count();
    let lat = latencies(&open_ex, &open_jobs);
    if lat.is_empty() || slices.is_empty() {
        report.check(
            "requests completed",
            Err("no forecast completed".to_string()),
        );
        return report;
    }
    let (pct, tail) = measure::tail(&lat);
    let lag_p99 = measure::quantile(&lags(&open_ex), 0.99);
    report.notes.push(format!(
        "{rounds} rounds of open loop at {} rps then closed loop with {} in flight: {} and {} forecasts of {} windows, {reloads} reloads, rate slices of {}",
        plan.offered_rps, gen.in_flight, plan.open_requests, plan.capacity_requests, plan.windows_per_request, plan.capacity_slice
    ));
    report.notes.push(format!(
        "tail_us = {tail:.1} us, p{pct} of {} forecasts timed from their due time (printed only: not steady enough to bound)",
        lat.len()
    ));
    report.layers.insert("tail_us", tail);
    report
        .notes
        .push(format!("loadgen.lag_p99_us = {lag_p99:.1}"));
    if let Some(s) = &stats {
        report.notes.push(format!(
            "server /stats: requests {} ok {} errors {} shed {} reloads {}",
            s.requests, s.ok, s.errors, s.shed, s.reloads
        ));
    }
    let rates = measure::slice_rates(&slices, plan.capacity_slice as f64);
    report.notes.push(format!(
        "closed-loop slice rates (1/s): {} slices, p10 {:.0}, q1 {:.0}, median {:.0}, q3 {:.0}, p90 {:.0}",
        rates.len(),
        measure::quantile(&rates, 0.1),
        measure::quantile(&rates, 0.25),
        measure::median(&rates),
        measure::quantile(&rates, 0.75),
        measure::quantile(&rates, 0.9)
    ));
    // Held-out quality over every served window, open and closed loop.
    let predicted = open_v.predicted + cap_v.predicted;
    let served = open_v.windows + cap_v.windows;
    let cov = 100.0 * predicted as f64 / served.max(1) as f64;
    let rmse = ((open_v.sq_err + cap_v.sq_err) / predicted.max(1) as f64).sqrt();
    train::fill_common(
        &mut report,
        &setups,
        &rates,
        &lat,
        tail,
        &[cov],
        &[rmse],
        health,
    );
    report.layers.insert("loadgen.lag_p99_us", lag_p99);
    report
}

/// The server path replayed through its public functions, with spans.
/// Same accept-thread-plus-`nproc`-workers shape as `Server`.
struct ReplayServer {
    addr: SocketAddr,
    stop: Arc<std::sync::atomic::AtomicBool>,
    accept: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<WorkerSpans>>,
}

/// What a replay worker hands back: its spans, (root span, connection
/// sequence) links, and counters.
type WorkerSpans = (Vec<Span>, Vec<(usize, usize)>, ReplayServerCounts);

#[derive(Debug, Default, Clone, Copy)]
struct ReplayServerCounts {
    forecasts: u64,
    windows: u64,
    abstained: u64,
    fired: u64,
}

impl ReplayServer {
    fn start(
        registry: Arc<ModelRegistry>,
        workers: usize,
        origin: Instant,
    ) -> io::Result<ReplayServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<(TcpStream, u64, usize)>();
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::new();
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let registry = Arc::clone(&registry);
            handles.push(std::thread::spawn(move || {
                let mut t = Tracer::new(origin);
                let mut links = Vec::new();
                let mut counts = ReplayServerCounts::default();
                loop {
                    let next = rx
                        .lock()
                        .expect("no worker panics holding the queue")
                        .recv();
                    let Ok((stream, accepted_ns, seq)) = next else {
                        break;
                    };
                    let root = handle(stream, accepted_ns, &registry, &mut t, &mut counts);
                    links.push((root, seq));
                }
                (t.into_spans(), links, counts)
            }));
        }
        let stop2 = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            // The generator connects one connection at a time, so the
            // accept order is its connection order: `seq` links each server
            // span tree to the client request that caused it.
            for (seq, stream) in listener.incoming().enumerate() {
                if stop2.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if tx.send((stream, now_ns(origin), seq)).is_err() {
                    break;
                }
            }
        });
        Ok(ReplayServer {
            addr,
            stop,
            accept,
            workers: handles,
        })
    }

    /// Stop, join, and return the workers' spans merged into one list, the
    /// (server root span, connection sequence) links, and the counters.
    fn shutdown(self) -> (Vec<Span>, Vec<(usize, usize)>, ReplayServerCounts) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        let mut spans = Vec::new();
        let mut links = Vec::new();
        let mut counts = ReplayServerCounts::default();
        for w in self.workers {
            if let Ok((s, l, c)) = w.join() {
                let base: usize = spans.iter().map(Vec::len).sum();
                links.extend(l.into_iter().map(|(i, rid)| (i + base, rid)));
                spans.push(s);
                counts.forecasts += c.forecasts;
                counts.windows += c.windows;
                counts.abstained += c.abstained;
                counts.fired += c.fired;
            }
        }
        (trace::merge(spans), links, counts)
    }
}

/// One connection through `http::read_request`, request parse,
/// `ModelRegistry::get`, `CompiledRuleSet::predict_with_into`, serialize and
/// `http::write_response`.
fn handle(
    mut stream: TcpStream,
    accepted_ns: u64,
    registry: &ModelRegistry,
    t: &mut Tracer,
    counts: &mut ReplayServerCounts,
) -> usize {
    let root_index = t.kept();
    let root = t.begin_at("server.request", accepted_ns);
    let s = t.begin_at("server.wait", accepted_ns);
    t.end(s);
    let s = t.begin("http.read");
    let request = http::read_request(&mut stream, 1 << 20);
    t.end(s);
    let (status, body) = match request {
        Ok(req) if req.path == "/reload" => {
            let s = t.begin("registry.reload");
            let out = std::str::from_utf8(&req.body)
                .ok()
                .and_then(|b| serde_json::from_str::<ReloadRequest>(b).ok())
                .ok_or_else(|| "bad reload request".to_string())
                .and_then(|r| {
                    registry
                        .reload(&r.model, Path::new(&r.path), r.kind)
                        .map_err(|e| e.to_string())
                });
            t.end(s);
            match out {
                Ok(entry) => (
                    200,
                    serde_json::to_string(&ReloadResponse {
                        model: entry.name().to_string(),
                        version: entry.version,
                        rules: entry.compiled.len(),
                        fingerprint: entry.fingerprint,
                    })
                    .expect("reload response serializes"),
                ),
                Err(e) => (409, format!("{{\"error\": {:?}}}", e)),
            }
        }
        Ok(req) => {
            let s = t.begin("protocol.parse");
            let parsed = std::str::from_utf8(&req.body)
                .ok()
                .and_then(|b| serde_json::from_str::<ForecastRequest>(b).ok());
            t.end(s);
            let s = t.begin("registry.get");
            let entry = parsed.as_ref().and_then(|r| registry.get(&r.model));
            t.end(s);
            match (parsed, entry) {
                (Some(fr), Some(entry)) => {
                    let s = t.begin("compiled.predict");
                    let combination = fr.combination.to_core();
                    let mut scratch = entry.compiled.scratch();
                    let mut predictions = Vec::with_capacity(fr.windows.len());
                    let mut fired = 0u64;
                    for w in &fr.windows {
                        let p = entry
                            .compiled
                            .predict_with_into(w, combination, &mut scratch);
                        if p.is_some() {
                            fired += scratch.count_ones() as u64;
                        }
                        predictions.push(p);
                    }
                    t.end(s);
                    let abstained = predictions.iter().filter(|p| p.is_none()).count();
                    counts.forecasts += 1;
                    counts.windows += predictions.len() as u64;
                    counts.abstained += abstained as u64;
                    counts.fired += fired;
                    let s = t.begin("protocol.serialize");
                    let body = serde_json::to_string(&ForecastResponse {
                        model: fr.model.clone(),
                        model_version: entry.version,
                        engine: fr.engine,
                        predictions,
                        trajectories: None,
                        details: None,
                        abstained,
                    })
                    .expect("forecast response serializes");
                    t.end(s);
                    (200, body)
                }
                _ => (400, "{\"error\": \"bad-request\"}".to_string()),
            }
        }
        Err(_) => (400, "{\"error\": \"bad-request\"}".to_string()),
    };
    let s = t.begin("http.write");
    let _ = http::write_response(&mut stream, status, &body);
    t.end(s);
    t.end(root);
    root_index
}

/// Client spans of one exchange, tiling `[due, done]`: generator lag,
/// connect, time to first byte (including the write), rest of the read.
fn client_spans(slot: usize, ex: &Exchange, out: &mut Vec<Span>) -> usize {
    let root = out.len();
    let mut push = |name, parent, a: u64, z: u64| {
        out.push(Span {
            name,
            op: slot as u64,
            parent,
            start_ns: a,
            end_ns: z.max(a),
        })
    };
    push("request", None, ex.due_ns, ex.done_ns);
    push("loadgen.lag", Some(root), ex.due_ns, ex.sent_ns);
    push("client.connect", Some(root), ex.sent_ns, ex.connected_ns);
    push("client.ttfb", Some(root), ex.connected_ns, ex.first_byte_ns);
    push("client.read", Some(root), ex.first_byte_ns, ex.done_ns);
    root + 3
}

/// Traced serve run. Phase A drives the real `Server` (the overhead
/// baseline, and `/stats`); phase B drives the replay server with the same
/// schedule and records spans on both sides of the socket.
fn run_traced(
    mode: Mode,
    plan: Plan,
    seed: u64,
    gen: LoadGen,
    inputs: &Inputs,
    mut report: Report,
    dir: &Path,
) -> Report {
    let nproc = measure::nproc();
    let count = plan.open_requests / 2;
    let jobs = schedule(&plan, inputs.bodies.len(), 0, count, mode == Mode::Single);
    let probe = Interference::start();

    // Phase A: the real server.
    let (server, version) = match start_server(&inputs.artifacts[0], nproc) {
        Ok(s) => s,
        Err(e) => {
            report.check("server set-up", Err(e));
            return report;
        }
    };
    let mut versions = BTreeMap::from([(version, 0usize)]);
    let wire = Wire {
        addr: server.local_addr(),
        bodies: inputs.bodies.clone(),
        artifacts: inputs.artifacts.clone(),
    };
    let origin = Instant::now();
    let real_ex = open_loop(&wire, gen, &jobs, plan.offered_rps, origin);
    let stats = get(wire.addr, "/stats")
        .ok()
        .and_then(|(_, body)| serde_json::from_str::<evoforecast_serve::StatsSnapshot>(&body).ok());
    Server::shutdown(server);
    let real_v = verify(inputs, &jobs, &real_ex, &mut versions);

    // In-process registry and compile timings.
    let registry = Arc::new(ModelRegistry::new());
    let mut reload_us = Vec::new();
    let mut build_us = Vec::new();
    let mut replay_version = 0;
    for k in 0..5 {
        let t0 = Instant::now();
        let reloaded = registry.reload("default", &inputs.artifacts[k % 2], ArtifactKind::Model);
        reload_us.push(measure::us(t0.elapsed()));
        match reloaded {
            Ok(entry) => {
                replay_version = entry.version;
                let t0 = Instant::now();
                let compiled = CompiledRuleSet::compile(&entry.predictor);
                build_us.push(measure::us(t0.elapsed()));
                std::hint::black_box(compiled);
            }
            Err(e) => report.check("registry reload", Err(e.to_string())),
        }
    }
    // Five reloads alternate A, B, A, B, A: the slot ends on artifact A.
    let mut replay_versions = BTreeMap::from([(replay_version, 0usize)]);

    // Phase B: the replay server.
    let server = match ReplayServer::start(Arc::clone(&registry), nproc, origin) {
        Ok(s) => s,
        Err(e) => {
            report.check("replay server start", Err(e.to_string()));
            return report;
        }
    };
    let wire = Wire {
        addr: server.addr,
        bodies: inputs.bodies.clone(),
        artifacts: inputs.artifacts.clone(),
    };
    let replay_ex = open_loop(&wire, gen, &jobs, plan.offered_rps, origin);
    let (server_spans, links, counts) = server.shutdown();
    let health = probe.finish();
    let replay_v = verify(inputs, &jobs, &replay_ex, &mut replay_versions);

    let mut spans = Vec::new();
    let mut ttfb_of = BTreeMap::new();
    for (slot, ex) in &replay_ex {
        ttfb_of.insert(*slot, client_spans(*slot, ex, &mut spans));
    }
    let base = spans.len();
    spans.extend(server_spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
    for (root, seq) in links {
        if let Some(&ttfb) = ttfb_of.get(&seq) {
            // A connection's spans follow its root contiguously on the
            // worker that served it: stamp them with the request's id.
            let op = spans[ttfb].op;
            let first = base + root;
            let mut i = first;
            while i < spans.len() && (i == first || spans[i].parent.is_some()) {
                spans[i].op = op;
                i += 1;
            }
            spans[first].parent = Some(ttfb);
        }
    }
    let b = Breakdown::of(&spans);

    record(
        &mut report,
        real_ex.len() + replay_ex.len(),
        &[&real_v, &replay_v],
    );
    let n = replay_ex.len().max(1) as f64;
    for (metric, span) in [
        ("client.connect_us", "client.connect"),
        ("client.ttfb_us", "client.ttfb"),
        ("server.wait_us", "server.wait"),
        ("http.read_us", "http.read"),
        ("http.write_us", "http.write"),
        ("protocol.parse_us", "protocol.parse"),
        ("compiled.predict_us", "compiled.predict"),
        ("protocol.serialize_us", "protocol.serialize"),
        ("registry.get_us", "registry.get"),
    ] {
        report.layers.insert(metric, b.self_us(span) / n);
    }
    let answered = counts.windows.saturating_sub(counts.abstained).max(1) as f64;
    report
        .layers
        .insert("compiled.fired_rules", counts.fired as f64 / answered);
    report.layers.insert(
        "compiled.abstain_pct",
        100.0 * counts.abstained as f64 / counts.windows.max(1) as f64,
    );
    report
        .layers
        .insert("registry.reload_us", measure::median(&reload_us));
    report
        .layers
        .insert("compiled.build_us", measure::median(&build_us));
    if let Some(s) = &stats {
        report.layers.insert("server.shed", s.shed as f64);
        report.layers.insert("server.errors", s.errors as f64);
    }
    let real_p50 = measure::median(&latencies(&real_ex, &jobs));
    let replay_p50 = measure::median(&latencies(&replay_ex, &jobs));
    report
        .layers
        .insert("trace.attributed_pct", b.attributed_pct("request"));
    report
        .layers
        .insert("trace.overhead_pct", 100.0 * (replay_p50 / real_p50 - 1.0));
    report.layers.insert(
        "loadgen.lag_p99_us",
        measure::quantile(&lags(&replay_ex), 0.99),
    );
    report.record_health(health);
    let (pct, tail) = measure::tail(&latencies(&real_ex, &jobs));
    report.layers.insert("tail_us", tail);
    report.notes.push(format!(
        "{count} forecasts at {} rps against the server (p50 {real_p50:.1} us, p{pct} {tail:.1} us) \
         and again against its traced replay (p50 {replay_p50:.1} us); server layers per request",
        plan.offered_rps
    ));
    report.notes.push(format!(
        "server path: layers cover {:.2}% of server.request wall time ({:.2} us per request unattributed)",
        b.attributed_pct("server.request"),
        b.self_us("server.request") / n
    ));
    train::attribution_check(&mut report, &b, "request");
    let name = if mode == Mode::Single {
        "serve_single"
    } else {
        "serve_batch"
    };
    train::write_trace(&mut report, dir, name, seed, &spans);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoforecast_core::rule::{Condition, Gene, Rule};

    #[test]
    fn load_generator_rejects_settings_beyond_nproc() {
        assert!(LoadGen::new(1, 2, 2).is_ok());
        assert_eq!(
            LoadGen::new(1, 3, 2).unwrap_err(),
            LoadGenError::TooManyInFlight {
                in_flight: 3,
                nproc: 2
            }
        );
        assert_eq!(
            LoadGen::new(3, 1, 2).unwrap_err(),
            LoadGenError::TooManyThreads {
                threads: 3,
                nproc: 2
            }
        );
    }

    /// A one-rule model over 1-value windows and the inputs serving it.
    fn tiny_inputs() -> Inputs {
        let rule = Rule {
            condition: Condition::new(vec![Gene::bounded(0.0, 100.0)]),
            coefficients: vec![1.0],
            intercept: 1.0,
            prediction: 1.0,
            error: 0.1,
            matched: 5,
        };
        let predictor = RuleSetPredictor::new(vec![rule]);
        Inputs {
            windows: vec![vec![41.0], vec![7.5]],
            targets: vec![42.0, 8.0],
            bodies: vec!["{\"windows\": [[41.0], [7.5]]}".to_string()],
            body_windows: vec![vec![0, 1]],
            artifacts: Vec::new(),
            compiled: vec![CompiledRuleSet::compile(&predictor)],
        }
    }

    fn answer(predictions: &str) -> Exchange {
        Exchange {
            status: 200,
            body: format!(
                "{{\"model\": \"default\", \"model_version\": 1, \"engine\": \"compiled\", \"predictions\": {predictions}, \"abstained\": 0}}"
            ),
            ..Exchange::default()
        }
    }

    fn judged(exchanges: Vec<(usize, Exchange)>) -> Report {
        let inputs = tiny_inputs();
        let jobs = vec![Job::Forecast { body: 0 }; exchanges.len()];
        let mut versions = BTreeMap::from([(1, 0)]);
        let verdict = verify(&inputs, &jobs, &exchanges, &mut versions);
        let mut report = Report::default();
        record(&mut report, exchanges.len(), &[&verdict]);
        report
    }

    #[test]
    fn exact_responses_pass_the_gate() {
        let report = judged(vec![(0, answer("[42.0, 8.5]"))]);
        assert_eq!(report.failed_total(), 0);
        assert!(report.correct());
    }

    #[test]
    fn a_corrupted_response_fails_the_run() {
        // One ulp off the in-process prediction of 42.0.
        let off = f64::from_bits(42.0f64.to_bits() + 1);
        let report = judged(vec![(0, answer(&format!("[{off:?}, 8.5]")))]);
        assert!(report.failed_total() > 0);
        assert!(!report.correct());
    }

    #[test]
    fn a_refused_request_is_a_failed_operation() {
        let refused = Exchange {
            status: 429,
            body: "{\"error\": \"overloaded\"}".to_string(),
            ..Exchange::default()
        };
        let report = judged(vec![(0, answer("[42.0, 8.5]")), (1, refused)]);
        assert_eq!(report.failed, 1);
        assert!(!report.correct());
    }
}
