//! servicebench: starts the svq-act service in-process from seeded inputs,
//! drives one workload against it, checks every answer, and prints the
//! metrics as one JSON object on the last line of stdout.
//!
//! ```text
//! servicebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!              [--repeat N [--against BIN]] [--setup-only] [--f1-floor SEEDS]
//! ```
//!
//! See README.md for the workloads and metrics.

mod inputs;
mod load;
mod measure;
mod probe;
mod push;
mod workloads;

use load::{CheckFailure, Ops, Phase};
use measure::{
    histogram_counts, histogram_delta, histogram_p50_ms, median, percentile, Tracer, BUCKETS,
};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};
use svq_exec::ExecMetrics;
use svq_serve::{Request, StatsFrame};
use workloads::Service;

const WORKLOADS: [&str; 4] = ["topk-routed", "catalog-cold", "stream-scan", "monitor-push"];
/// Set-ups timed per run: this process's own plus fresh child processes.
const SETUP_SAMPLES: usize = 3;
/// Share of `--seconds` spent in the unloaded phase; the loaded phase
/// takes the rest. The traced pass adds this share again.
const UNLOADED_SHARE: f64 = 0.3;
/// Measured seconds per round of (unloaded, loaded) phases in a run of a
/// request workload.
const ROUND_SECONDS: f64 = 1.0;
/// Fewest rounds of a request run.
const MIN_ROUNDS: u32 = 3;
/// Rounds of monitor-push: one fleet per phase, held for the whole phase
/// as standing subscribers are.
const PUSH_ROUNDS: u32 = 1;
/// How long the router-overhead probe sends, where no router is in use.
const ROUTER_PROBE: Duration = Duration::from_millis(500);

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    repeat: Option<usize>,
    against: Option<String>,
    f1_floor: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: servicebench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat N [--against BIN]] [--setup-only] [--f1-floor SEEDS]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        setup_only: false,
        repeat: None,
        against: None,
        f1_floor: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage());
        let num = |v: &str| v.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value),
            "--seconds" => args.seconds = value.parse::<f64>().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = num(&value) != 0,
            "--repeat" => args.repeat = Some(num(&value) as usize),
            "--against" => args.against = Some(value),
            "--f1-floor" => args.f1_floor = Some(num(&value)),
            _ => usage(),
        }
    }
    if args.f1_floor.is_none() && args.workload != "all" && !WORKLOADS.contains(&&*args.workload) {
        usage();
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Where the benchmark writes spilled catalogs and spans.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn fail(workload: &str, msg: &str) -> ! {
    eprintln!("servicebench: {workload}: {msg}");
    std::process::exit(1)
}

fn main() {
    let args = parse_args();
    if let Some(seeds) = args.f1_floor {
        let lowest = workloads::f1_survey(seeds);
        println!("lowest stream-scan F1 over seeds 1..={seeds}: {lowest:.4}");
        return;
    }
    if args.workload == "all" {
        run_all(&args);
        return;
    }
    if let Some(n) = args.repeat {
        repeat(&args, n);
        return;
    }
    if args.setup_only {
        match setup_once(&args) {
            Ok(s) => println!("setup_s {s}"),
            Err(e) => fail(&args.workload, &e),
        }
        return;
    }
    let result = match args.workload.as_str() {
        "monitor-push" => run_push(&args),
        _ => run_requests(&args),
    };
    match result {
        Ok(out) => println!("{out}"),
        Err(e) => fail(&args.workload, &e),
    }
}

impl From<CheckFailure> for String {
    fn from(f: CheckFailure) -> Self {
        f.0
    }
}

/// A request workload after set-up.
struct Started {
    service: Service,
    ops: Box<dyn Ops>,
    /// The workload's videos, for the layer probe.
    oracles: Vec<std::sync::Arc<svq_vision::models::DetectionOracle>>,
    /// Set-up time; the references are built after the clock stops.
    setup_s: f64,
}

fn start(args: &Args) -> Result<Started, String> {
    let t0 = Instant::now();
    let since = |t0: Instant| t0.elapsed().as_secs_f64();
    let (service, oracles, setup_s, ops): (_, _, _, Box<dyn Ops>) = match args.workload.as_str() {
        "topk-routed" => {
            let (service, inp) = workloads::setup_topk(args.seed)?;
            let setup_s = since(t0);
            let ops = workloads::TopkRouted::new(&inp)?;
            (service, inp.oracles, setup_s, Box::new(ops))
        }
        "catalog-cold" => {
            let (service, inp) = workloads::setup_cold(args.seed, &work_dir())?;
            let setup_s = since(t0);
            let ops = workloads::CatalogCold::new(&inp)?;
            (service, inp.oracles, setup_s, Box::new(ops))
        }
        "stream-scan" => {
            let (service, inp) = workloads::setup_stream(args.seed)?;
            let setup_s = since(t0);
            let ops = workloads::StreamScan::new(&inp)?;
            (service, inp.oracles, setup_s, Box::new(ops))
        }
        other => unreachable!("{other} is not a request workload"),
    };
    Ok(Started {
        service,
        ops,
        oracles,
        setup_s,
    })
}

/// One timed set-up, torn down again (the `--setup-only` child).
fn setup_once(args: &Args) -> Result<f64, String> {
    let t0 = Instant::now();
    let service = match args.workload.as_str() {
        "topk-routed" => workloads::setup_topk(args.seed)?.0,
        "catalog-cold" => workloads::setup_cold(args.seed, &work_dir())?.0,
        "stream-scan" => workloads::setup_stream(args.seed)?.0,
        _ => push::setup(args.seed, args.seconds)?.service,
    };
    let setup = t0.elapsed().as_secs_f64();
    service.shutdown()?;
    Ok(setup)
}

/// Median of this run's set-up and `SETUP_SAMPLES - 1` child set-ups.
fn setup_seconds(args: &Args, own: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = vec![own];
    for _ in 1..SETUP_SAMPLES {
        let out = Command::new(&exe)
            .args([
                "--setup-only",
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ])
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match (out.status.success(), value) {
            (true, Some(v)) => samples.push(v),
            _ => {
                return Err(format!(
                    "set-up child failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ))
            }
        }
    }
    Ok(median(&samples))
}

type Hist = [u64; BUCKETS];

/// Histograms and counters at one phase boundary.
struct Snapshot {
    front: Hist,
    backends: Vec<Hist>,
    stats: StatsFrame,
}

fn snapshot(service: &Service) -> Result<Snapshot, String> {
    // Servers record a request's latency after its response is flushed.
    std::thread::sleep(Duration::from_millis(20));
    let front = histogram_counts(&service.front_metrics.server().latency);
    let backends = service
        .backends
        .iter()
        .map(|m| histogram_counts(&m.server().latency))
        .collect();
    Ok(Snapshot {
        front,
        backends,
        stats: workloads::stats(service.front)?,
    })
}

/// The server side of one phase, summed over its rounds.
#[derive(Default)]
struct Window {
    front: Hist,
    backends: Vec<Hist>,
    hits: u64,
    misses: u64,
    clips: u64,
}

impl Window {
    /// Add what happened between snapshots `a` and `b`.
    fn add(&mut self, a: &Snapshot, b: &Snapshot) {
        let sum = |acc: &mut Hist, x: &Hist, y: &Hist| {
            for (i, slot) in acc.iter_mut().enumerate() {
                *slot += y[i] - x[i];
            }
        };
        sum(&mut self.front, &a.front, &b.front);
        self.backends.resize(a.backends.len(), [0; BUCKETS]);
        for (i, acc) in self.backends.iter_mut().enumerate() {
            sum(acc, &a.backends[i], &b.backends[i]);
        }
        self.hits += b.stats.catalog_hits - a.stats.catalog_hits;
        self.misses += b.stats.catalog_misses - a.stats.catalog_misses;
        self.clips += b.stats.total_clips - a.stats.total_clips;
    }

    fn front_p50(&self) -> f64 {
        histogram_p50_ms(&self.front)
    }

    /// Slowest backend's median service time.
    fn backend_p50(&self) -> f64 {
        self.backends
            .iter()
            .map(histogram_p50_ms)
            .fold(0.0, f64::max)
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn result_line(attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn end_to_end(
    setup_s: f64,
    unloaded_p50: f64,
    ops_per_s: f64,
    loaded_p50: f64,
    cpu_ms_per_op: f64,
) -> Vec<String> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("unloaded.p50_ms", unloaded_p50, "ms"),
        metric("loaded.ops_per_s", ops_per_s, "ops/s"),
        metric("loaded.p50_ms", loaded_p50, "ms"),
        metric("cpu_ms_per_op", cpu_ms_per_op, "ms"),
    ]
}

fn cpu_ms_per_op(phase: &Phase) -> f64 {
    phase.cpu_s * 1e3 / phase.completed().max(1) as f64
}

/// Check that one sub-phase moved the counters as the workload's design
/// says it must.
fn check_counters(workload: &str, phase: &str, ops: u64, w: &Window) -> Result<(), String> {
    let (hits, misses, clips) = (w.hits, w.misses, w.clips);
    let (ok, want) = match workload {
        "topk-routed" => (
            hits == ops * workloads::TOPK_VIDEOS && misses == 0,
            format!("{} hits and no misses", ops * workloads::TOPK_VIDEOS),
        ),
        // One op in flight cycling through more videos than the cache
        // holds: every fetch misses.
        "catalog-cold" if phase == "unloaded" => (
            hits == 0 && misses == ops,
            format!("{ops} misses and no hits"),
        ),
        // The share of hits is checked over the whole loaded phase.
        "catalog-cold" => (hits + misses == ops, format!("{ops} fetches")),
        _ => (
            clips == ops * inputs::VIDEO_CLIPS,
            format!("{} clips evaluated", ops * inputs::VIDEO_CLIPS),
        ),
    };
    match ok {
        true => Ok(()),
        false => Err(format!(
            "{phase} phase: stats show {hits} catalog hits, {misses} misses, {clips} clips over {ops} ops; the workload requires {want}"
        )),
    }
}

/// Each connection of catalog-cold cycles its own videos, so a fetch
/// can hit only when an op of the previous cycle was held up for a whole
/// cycle: at most 1 % of the loaded phase's fetches may hit.
fn check_loaded_hits(workload: &str, ops: u64, w: &Window) -> Result<(), String> {
    match workload != "catalog-cold" || w.hits * 100 <= ops {
        true => Ok(()),
        false => Err(format!(
            "loaded phase: stats show {} catalog hits over {ops} ops; the workload allows at most 1 %",
            w.hits
        )),
    }
}

/// Rounds of a request run: about one per `ROUND_SECONDS` measured, at
/// least `MIN_ROUNDS`.
fn request_rounds(seconds: f64) -> u32 {
    ((seconds / ROUND_SECONDS).round() as u32).max(MIN_ROUNDS)
}

/// The quartile of per-round figures on the better side: the upper one
/// when higher is better, else the lower one.
fn better_quartile(rounds: &[f64], higher_is_better: bool) -> f64 {
    let (q1, _, q3) = quartiles(rounds);
    match higher_is_better {
        true => q3,
        false => q1,
    }
}

/// Each round's own end-to-end figures.
#[derive(Default)]
struct RoundFigures {
    unloaded_p50: Vec<f64>,
    ops_per_s: Vec<f64>,
    loaded_p50: Vec<f64>,
    cpu_ms_per_op: Vec<f64>,
}

impl RoundFigures {
    fn json(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"unloaded_p50\": [{}], \"ops_per_s\": [{}], \"loaded_p50\": [{}], \"cpu_ms_per_op\": [{}]}}",
            list(&self.unloaded_p50),
            list(&self.ops_per_s),
            list(&self.loaded_p50),
            list(&self.cpu_ms_per_op)
        )
    }
}

fn run_requests(args: &Args) -> Result<String, String> {
    let started = start(args)?;
    let service = &started.service;
    let ops = started.ops.as_ref();
    let off = Tracer::new(false);
    let rounds = request_rounds(args.seconds);
    let unloaded_for = Duration::from_secs_f64(args.seconds * UNLOADED_SHARE);
    let loaded_for = Duration::from_secs_f64(args.seconds * (1.0 - UNLOADED_SHARE));
    let conns = workloads::nproc();

    // Rounds alternate the two phases with fresh connections, so each
    // phase samples the whole run and many connections' TCP states. Each
    // round yields its own figures; the run reports, of each figure, the
    // quartile over rounds on the better side. Load from other tenants of
    // the host only ever slows a round, and it slows some rounds of a run
    // far more than others.
    let mut unloaded = Phase::default();
    let mut loaded = Phase::default();
    let mut unloaded_window = Window::default();
    let mut loaded_window = Window::default();
    let mut figures = RoundFigures::default();
    let (mut serial_next, mut loaded_next) = (0u64, 0u64);
    for _ in 0..rounds {
        for phase in ["unloaded", "loaded"] {
            let flush = ops.between_phases();
            if !flush.is_empty() {
                workloads::warm_up(service.front, &flush)?;
            }
            let a = snapshot(service)?;
            let p = match phase {
                "unloaded" => {
                    load::serial(service.front, ops, serial_next, unloaded_for / rounds, &off)?
                }
                _ => load::closed_loop(
                    service.front,
                    ops,
                    conns,
                    workloads::DEPTH,
                    loaded_next,
                    loaded_for / rounds,
                    &off,
                )?,
            };
            let b = snapshot(service)?;
            let mut w = Window::default();
            w.add(&a, &b);
            check_counters(&args.workload, phase, p.attempted, &w)?;
            match phase {
                "unloaded" => {
                    serial_next += p.attempted;
                    figures.unloaded_p50.push(percentile(&p.latencies_ms, 0.5));
                    unloaded_window.add(&a, &b);
                    unloaded.absorb(p);
                }
                _ => {
                    loaded_next += p.attempted / conns as u64;
                    figures.ops_per_s.push(p.completed() as f64 / p.wall_s);
                    figures.loaded_p50.push(percentile(&p.latencies_ms, 0.5));
                    figures.cpu_ms_per_op.push(cpu_ms_per_op(&p));
                    loaded_window.add(&a, &b);
                    loaded.absorb(p);
                }
            }
        }
    }
    check_loaded_hits(&args.workload, loaded.attempted, &loaded_window)?;
    eprintln!("servicebench: rounds {}", figures.json());
    unloaded.latencies_ms.sort_by(f64::total_cmp);
    loaded.latencies_ms.sort_by(f64::total_cmp);
    let attempted = unloaded.attempted + loaded.attempted;
    let failed = unloaded.failed + loaded.failed;

    let metrics = if args.trace {
        let tracer = Tracer::new(true);
        let flush = ops.between_phases();
        if !flush.is_empty() {
            workloads::warm_up(service.front, &flush)?;
        }
        let traced = load::closed_loop(
            service.front,
            ops,
            conns,
            workloads::DEPTH,
            loaded_next,
            unloaded_for,
            &tracer,
        )?;
        let service_p50 = unloaded_window.backend_p50();
        let router_overhead = if service.backends.len() > 1 {
            unloaded_window.front_p50() - service_p50
        } else {
            router_probe(service, &ops.rotation())?
        };
        let hits = loaded_window.hits as f64;
        let misses = loaded_window.misses as f64;
        let mut m = vec![
            metric("server.service_p50_ms", service_p50, "ms"),
            metric(
                "server.wire_p50_ms",
                percentile(&loaded.latencies_ms, 0.5) - loaded_window.front_p50(),
                "ms",
            ),
            metric("router.overhead_p50_ms", router_overhead, "ms"),
            metric(
                "client.loaded_p99_ms",
                percentile(&loaded.latencies_ms, 0.99),
                "ms",
            ),
            metric(
                "exec.loaded_wait_ms",
                loaded_window.backend_p50() - service_p50,
                "ms",
            ),
            metric(
                "exec.clips_per_op",
                (unloaded_window.clips + loaded_window.clips) as f64 / attempted.max(1) as f64,
                "count",
            ),
            metric(
                "storage.cache_hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
                "ratio",
            ),
        ];
        m.extend(disk_metrics(ops.outcomes()));
        m.extend(probe_metrics(
            args.seed,
            &tracer,
            &started.oracles,
            &ops.rotation(),
            ops.outcomes(),
            &[],
        )?);
        m.push(metric(
            "trace.cost_cpu_ms_per_op",
            cpu_ms_per_op(&traced) - cpu_ms_per_op(&loaded),
            "ms",
        ));
        m.push(metric("trace.spans", tracer.count() as f64, "count"));
        m.push(metric("process.peak_rss_mb", measure::peak_rss_mb(), "MB"));
        write_spans(args, &tracer)?;
        eprintln!(
            "servicebench: tracing cost: cpu_ms_per_op {:.4} traced vs {:.4} untraced; loaded.p50_ms {:.3} traced vs {:.3} untraced",
            cpu_ms_per_op(&traced),
            cpu_ms_per_op(&loaded),
            percentile(&traced.latencies_ms, 0.5),
            percentile(&loaded.latencies_ms, 0.5)
        );
        m
    } else {
        Vec::new()
    };
    let Started { service, .. } = started;
    service.shutdown()?;
    if args.trace {
        return Ok(result_line(attempted, failed, &metrics));
    }
    eprintln!(
        "servicebench: {}: unloaded {} ops in {:.2} s, loaded {} ops in {:.2} s over {conns} connections x depth {}",
        args.workload,
        unloaded.attempted,
        unloaded.wall_s,
        loaded.attempted,
        loaded.wall_s,
        workloads::DEPTH
    );
    let setup_s = setup_seconds(args, started.setup_s)?;
    Ok(result_line(
        attempted,
        failed,
        &end_to_end(
            setup_s,
            better_quartile(&figures.unloaded_p50, false),
            better_quartile(&figures.ops_per_s, true),
            better_quartile(&figures.loaded_p50, false),
            better_quartile(&figures.cpu_ms_per_op, false),
        ),
    ))
}

/// Mean simulated-disk accesses per query over the reference outcomes
/// (the same bytes the service returns).
fn disk_metrics(outcomes: &[svq_query::QueryOutcome]) -> Vec<String> {
    let n = outcomes.len().max(1) as f64;
    let random: u64 = outcomes.iter().map(|o| o.disk.random_accesses).sum();
    let sorted: u64 = outcomes.iter().map(|o| o.disk.sorted_accesses).sum();
    vec![
        metric("rvaq.random_accesses", random as f64 / n, "count"),
        metric("rvaq.sorted_accesses", sorted as f64 / n, "count"),
    ]
}

/// Router front-door p50 minus the server's p50, with a one-shard router
/// placed in front of the workload's server for a short serial burst.
fn router_probe(service: &Service, rotation: &[Request]) -> Result<f64, String> {
    let backend = &service.backends[0];
    let before = histogram_counts(&backend.server().latency);
    let router_metrics = ExecMetrics::new();
    workloads::through_router(
        service.backend_addrs[0],
        &router_metrics,
        rotation,
        ROUTER_PROBE,
    )?;
    std::thread::sleep(Duration::from_millis(20));
    let after = histogram_counts(&backend.server().latency);
    let front = histogram_counts(&router_metrics.server().latency);
    Ok(histogram_p50_ms(&front) - histogram_p50_ms(&histogram_delta(&after, &before)))
}

fn probe_metrics(
    seed: u64,
    tracer: &Tracer,
    oracles: &[std::sync::Arc<svq_vision::models::DetectionOracle>],
    rotation: &[Request],
    outcomes: &[svq_query::QueryOutcome],
    events: &[push::PushEvent],
) -> Result<Vec<String>, String> {
    let own;
    let oracles = match oracles.len() >= 4 {
        true => &oracles[..4],
        false => {
            own = inputs::oracles(seed, 4);
            &own[..]
        }
    };
    let probe = probe::ProbeInputs {
        oracles,
        requests: rotation,
        outcomes,
        events,
    };
    Ok(probe::run(tracer, &probe, &work_dir())?
        .into_iter()
        .map(|(n, v, u)| metric(n, v, u))
        .collect())
}

fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let path = work_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    eprintln!(
        "servicebench: wrote {} spans to {}",
        tracer.count(),
        path.display()
    );
    Ok(())
}

fn run_push(args: &Args) -> Result<String, String> {
    let unloaded_for = Duration::from_secs_f64(args.seconds * UNLOADED_SHARE);
    let loaded_for = Duration::from_secs_f64(args.seconds * (1.0 - UNLOADED_SHARE));
    // The replay outlasts the rounds, so the last loaded fleet (or the
    // traced one) drains to its end.
    let replay = match args.trace {
        true => args.seconds * (1.0 + UNLOADED_SHARE) + 2.0,
        false => args.seconds + 2.0,
    };
    let t0 = Instant::now();
    let setup = push::setup(args.seed, replay)?;
    let own_setup = t0.elapsed().as_secs_f64();
    let tracer = Tracer::new(args.trace);
    let run = push::run(
        &setup,
        PUSH_ROUNDS,
        unloaded_for,
        loaded_for,
        args.trace.then_some(&tracer),
    )?;
    let traced_events = run.traced.as_ref().map_or(0, |t| t.0.events);
    let traced_failed = run.traced.as_ref().map_or(0, |t| t.0.failed);
    push::check_stats(
        &setup,
        run.unloaded.events + run.loaded.events + traced_events,
        run.unloaded.failed + run.loaded.failed + traced_failed,
        PUSH_ROUNDS as usize,
        args.trace,
    )?;
    let stats = workloads::stats(setup.service.front)?;
    let attempted = run.unloaded.attempted + run.loaded.attempted;
    let failed = run.unloaded.failed + run.loaded.failed;
    let mut loaded_lags = run.loaded.lags_ms.clone();
    loaded_lags.sort_by(f64::total_cmp);
    let mut unloaded_lags = run.unloaded.lags_ms.clone();
    unloaded_lags.sort_by(f64::total_cmp);
    let cpu_per_event = run.loaded_cpu_s * 1e3 / run.loaded.events.max(1) as f64;

    let metrics = if let Some((traced, traced_cpu_s)) = &run.traced {
        let service_p50 = histogram_p50_ms(&run.unloaded_hist);
        let mut m = vec![
            metric("server.service_p50_ms", service_p50, "ms"),
            metric("server.wire_p50_ms", percentile(&loaded_lags, 0.5), "ms"),
            metric("client.loaded_p99_ms", percentile(&loaded_lags, 0.99), "ms"),
            metric(
                "router.overhead_p50_ms",
                router_probe(&setup.service, &[Request::Stats])?,
                "ms",
            ),
            metric(
                "exec.loaded_wait_ms",
                histogram_p50_ms(&run.loaded_hist) - service_p50,
                "ms",
            ),
            metric(
                "exec.clips_per_op",
                stats.total_clips as f64 / (run.unloaded.events + run.loaded.events).max(1) as f64,
                "count",
            ),
            metric("storage.cache_hit_ratio", 0.0, "ratio"),
        ];
        let mut stream = svq_vision::VideoStream::new(&setup.oracle);
        let one_shot = svq_query::execute_online(
            &inputs::plan(&push::sql()),
            &mut stream,
            svq_core::online::OnlineConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let outcomes = [one_shot];
        m.extend(disk_metrics(&outcomes));
        let rotation = [Request::Subscribe {
            sql: push::sql(),
            video: None,
            drift_every: 0,
        }];
        let events = push::stepped(&setup.oracle, 0);
        m.extend(probe_metrics(
            args.seed,
            &tracer,
            &[],
            &rotation,
            &outcomes,
            &events,
        )?);
        let traced_per_event = traced_cpu_s * 1e3 / traced.events.max(1) as f64;
        m.push(metric(
            "trace.cost_cpu_ms_per_op",
            traced_per_event - cpu_per_event,
            "ms",
        ));
        m.push(metric("trace.spans", tracer.count() as f64, "count"));
        m.push(metric("process.peak_rss_mb", measure::peak_rss_mb(), "MB"));
        write_spans(args, &tracer)?;
        let mut traced_lags = traced.lags_ms.clone();
        traced_lags.sort_by(f64::total_cmp);
        eprintln!(
            "servicebench: tracing cost: cpu_ms_per_op {traced_per_event:.5} traced vs {cpu_per_event:.5} untraced; loaded.p50_ms {:.3} traced vs {:.3} untraced",
            percentile(&traced_lags, 0.5),
            percentile(&loaded_lags, 0.5)
        );
        m
    } else {
        Vec::new()
    };
    setup.service.shutdown()?;
    if args.trace {
        return Ok(result_line(attempted, failed, &metrics));
    }
    eprintln!(
        "servicebench: monitor-push: unloaded {} events to {} subscriptions, loaded {} events to {} subscriptions in {:.2} s, over {PUSH_ROUNDS} rounds",
        run.unloaded.events,
        push::UNLOADED_FLEET,
        run.loaded.events,
        push::LOADED_FLEET,
        run.loaded_wall_s
    );
    let setup_s = setup_seconds(args, own_setup)?;
    Ok(result_line(
        attempted,
        failed,
        &end_to_end(
            setup_s,
            percentile(&unloaded_lags, 0.5),
            loaded_lags.len() as f64 / run.loaded_wall_s,
            percentile(&loaded_lags, 0.5),
            cpu_per_event,
        ),
    ))
}

// ------------------------------------------------------------ multi-run modes

/// One child run; returns its parsed result line.
fn child_run(exe: &str, args: &Args, workload: &str, seed: u64) -> Result<serde::Value, String> {
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("{exe}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str::<serde::Value>(last).map_err(|e| format!("{workload}: bad result: {e}"))
}

/// `(name, value, unit)` of each metric in a result.
fn metrics_of(result: &serde::Value) -> Vec<(String, f64, String)> {
    let Some(serde::Value::Object(entries)) = result.get("metrics") else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|(name, m)| {
            let value = match m.get("value")? {
                serde::Value::Float(f) => *f,
                serde::Value::UInt(u) => *u as f64,
                serde::Value::Int(i) => *i as f64,
                _ => return None,
            };
            let unit = match m.get("unit")? {
                serde::Value::Str(s) => s.clone(),
                _ => String::new(),
            };
            Some((name.clone(), value, unit))
        })
        .collect()
}

fn count_of(result: &serde::Value, key: &str) -> u64 {
    match result.get(key) {
        Some(serde::Value::UInt(u)) => *u,
        _ => 0,
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: f64| {
        let m = (n as f64 + 1.0) * k / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1.0), at(2.0), at(3.0))
}

fn higher_is_better(name: &str) -> bool {
    name.ends_with("ops_per_s") || name == "storage.cache_hit_ratio"
}

/// Print median and quartiles of each metric over `results`.
fn summarize(label: &str, results: &[serde::Value]) {
    let mut names: Vec<(String, String)> = Vec::new();
    for r in results {
        for (name, _, unit) in metrics_of(r) {
            if !names.iter().any(|(n, _)| *n == name) {
                names.push((name, unit));
            }
        }
    }
    println!("{label}: {} runs", results.len());
    for (name, unit) in names {
        let values: Vec<f64> = results
            .iter()
            .flat_map(metrics_of)
            .filter(|(n, ..)| *n == name)
            .map(|(_, v, _)| v)
            .collect();
        let (q1, med, q3) = quartiles(&values);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("  {name:<32} median {med:>12.4} {unit:<6} q1 {q1:>12.4} q3 {q3:>12.4} spread {spread:.3}");
    }
    let attempted: u64 = results.iter().map(|r| count_of(r, "attempted")).sum();
    let failed: u64 = results.iter().map(|r| count_of(r, "failed")).sum();
    println!("  ops attempted {attempted}, failed {failed}");
}

/// `--repeat N`: N runs on seeds `seed..seed+N`, summarised. With
/// `--against BIN`, N alternating pairs of this build and BIN on the same
/// seeds, with each side summarised and per-metric wins counted.
fn repeat(args: &Args, n: usize) {
    let exe = std::env::current_exe()
        .expect("own executable path")
        .to_string_lossy()
        .into_owned();
    let mut ours = Vec::new();
    let mut theirs = Vec::new();
    for i in 0..n {
        let seed = args.seed + i as u64;
        let mut order = vec![(&exe, true)];
        if let Some(other) = &args.against {
            order.push((other, false));
            if i % 2 == 1 {
                order.reverse();
            }
        }
        for (bin, mine) in order {
            match child_run(bin, args, &args.workload, seed) {
                Ok(r) => match mine {
                    true => ours.push(r),
                    false => theirs.push(r),
                },
                Err(e) => fail(&args.workload, &e),
            }
        }
    }
    summarize(&format!("{} (this build)", args.workload), &ours);
    if let Some(other) = &args.against {
        summarize(&format!("{} ({other})", args.workload), &theirs);
        println!("wins of this build over {other}, pair by pair:");
        for (name, _, _) in metrics_of(&ours[0]) {
            let pick = |r: &serde::Value| {
                metrics_of(r)
                    .into_iter()
                    .find(|(n, ..)| *n == name)
                    .map_or(0.0, |m| m.1)
            };
            let wins = ours
                .iter()
                .zip(&theirs)
                .filter(|(a, b)| {
                    let (x, y) = (pick(a), pick(b));
                    if higher_is_better(&name) {
                        x > y
                    } else {
                        x < y
                    }
                })
                .count();
            println!("  {name:<32} {wins}/{}", ours.len());
        }
    }
}

/// `--workload all`: every workload once, in child processes.
fn run_all(args: &Args) {
    let exe = std::env::current_exe()
        .expect("own executable path")
        .to_string_lossy()
        .into_owned();
    let mut parts = Vec::new();
    let mut broken = false;
    for w in WORKLOADS {
        match child_run(&exe, args, w, args.seed) {
            Ok(r) => {
                println!(
                    "{w}: attempted {} failed {}",
                    count_of(&r, "attempted"),
                    count_of(&r, "failed")
                );
                for (name, value, unit) in metrics_of(&r) {
                    println!("  {name:<32} {value:>14.4} {unit}");
                }
                parts.push(format!(
                    "\"{w}\": {}",
                    serde_json::to_string(&r).expect("result encodes")
                ));
            }
            Err(e) => {
                eprintln!("servicebench: {e}");
                broken = true;
            }
        }
    }
    println!("{{{}}}", parts.join(", "));
    if broken {
        std::process::exit(1);
    }
}
