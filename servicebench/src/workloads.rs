//! The three request workloads: their set-up, their op rotation, and the
//! reference each answer is checked against.

use crate::inputs::{self, action_query, plan, VIDEO_CLIPS};
use crate::load::{self, CheckFailure, Lane, Ops, CALL_TIMEOUT};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use svq_core::offline::{ingest, PqTraverse};
use svq_core::online::OnlineConfig;
use svq_eval::metrics::{clips_to_frames, frame_counts, MatchCounts};
use svq_exec::{shard_index, ExecMetrics};
use svq_query::{execute_offline, execute_offline_all, execute_online, QueryOutcome};
use svq_serve::{
    Caller, Request, Response, RouteConfig, Router, ServeConfig, Server, ServerHandle, StatsFrame,
    VideoScope,
};
use svq_storage::{CatalogSink, IngestedVideo, JsonDirSink, VideoRepository};
use svq_types::{ClipInterval, PaperScoring, VideoId};
use svq_vision::models::DetectionOracle;
use svq_vision::VideoStream;

/// Videos behind the routed cluster (two shards).
pub const TOPK_VIDEOS: u64 = 32;
/// Shard servers behind the router.
pub const TOPK_SHARDS: usize = 2;
/// Videos each loaded connection of catalog-cold cycles through; the
/// catalog holds this many per connection.
pub const COLD_VIDEOS_PER_CONN: u64 = 16;
/// Catalogs the catalog-cold server keeps resident.
pub const COLD_CACHE: usize = 4;
/// Live streams of stream-scan.
pub const STREAM_VIDEOS: u64 = 32;
/// Ops in flight per loaded connection.
pub const DEPTH: usize = 8;
/// Lowest frame-level F1 the stream rotation's answers, pooled, may score
/// against the generator's ground truth (recompute with `--f1-floor`).
pub const F1_FLOOR: f64 = 0.85;

/// Relative tolerance when comparing sequence scores computed by
/// different algorithms.
const SCORE_TOL: f64 = 1e-9;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Config shared by every benchmark server and router.
pub fn serve_config() -> ServeConfig {
    ServeConfig::builder()
        .max_conns(64)
        .workers(nproc())
        .read_timeout(Duration::from_secs(60))
        .write_timeout(Duration::from_secs(60))
        .drain_timeout(Duration::from_secs(10))
        .build()
        .expect("benchmark serve config is valid")
}

pub fn route_config() -> RouteConfig {
    RouteConfig::builder()
        .max_conns(64)
        .read_timeout(Duration::from_secs(60))
        .write_timeout(Duration::from_secs(60))
        .drain_timeout(Duration::from_secs(10))
        .upstream_timeout(Duration::from_secs(60))
        .build()
        .expect("benchmark route config is valid")
}

/// The started system of one workload.
pub struct Service {
    /// Where clients connect (the router, or the one server).
    pub front: SocketAddr,
    pub front_metrics: ExecMetrics,
    /// Metrics of the processes that execute ops (the shards behind a
    /// router; otherwise the front server itself).
    pub backends: Vec<ExecMetrics>,
    pub backend_addrs: Vec<SocketAddr>,
    /// Front first, so the router drains before its shards.
    handles: Vec<ServerHandle>,
    spill: Option<PathBuf>,
}

impl Service {
    pub fn single(handle: ServerHandle, metrics: ExecMetrics, spill: Option<PathBuf>) -> Self {
        let addr = handle.local_addr();
        Self {
            front: addr,
            front_metrics: metrics.clone(),
            backends: vec![metrics],
            backend_addrs: vec![addr],
            handles: vec![handle],
            spill,
        }
    }

    /// Drain every server; an unclean drain is a failure of the run.
    pub fn shutdown(self) -> Result<(), String> {
        let mut problems = Vec::new();
        for handle in &self.handles {
            handle.shutdown();
            let report = handle.wait();
            if !report.drained_in_deadline || report.forced_closes > 0 {
                problems.push(format!(
                    "server {} drained uncleanly ({} forced closes)",
                    report.addr, report.forced_closes
                ));
            }
            if report.malformed > 0 {
                problems.push(format!(
                    "server {} saw {} malformed frames",
                    report.addr, report.malformed
                ));
            }
        }
        if let Some(dir) = &self.spill {
            let _ = std::fs::remove_dir_all(dir);
        }
        match problems.is_empty() {
            true => Ok(()),
            false => Err(problems.join("; ")),
        }
    }
}

/// A `stats` frame from `addr`.
pub fn stats(addr: SocketAddr) -> Result<StatsFrame, String> {
    let caller = Caller::connect(addr, CALL_TIMEOUT).map_err(|e| e.to_string())?;
    let frame = match caller.call(&Request::Stats).and_then(|p| p.wait()) {
        Ok(Response::Stats(frame)) => Ok(frame),
        other => Err(format!("stats exchange failed: {other:?}")),
    };
    caller.close();
    frame
}

/// Send each request once, serially, discarding the answers: fills the
/// catalog cache and the critical-value memo before anything is timed.
pub fn warm_up(addr: SocketAddr, requests: &[Request]) -> Result<(), String> {
    let caller = Caller::connect(addr, CALL_TIMEOUT).map_err(|e| e.to_string())?;
    for request in requests {
        match caller.call(request).and_then(|p| p.wait()) {
            Ok(Response::Outcome(_)) => {}
            other => return Err(format!("warm-up {}: {other:?}", load::describe(request))),
        }
    }
    caller.close();
    Ok(())
}

fn canonical_json(outcome: &QueryOutcome) -> String {
    serde_json::to_string(&outcome.canonical()).expect("outcome encodes")
}

fn ingest_all(oracles: &[Arc<DetectionOracle>]) -> Vec<IngestedVideo> {
    oracles
        .iter()
        .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default()))
        .collect()
}

/// Every sequence of `P_q` in every catalog, scored by Pq-Traverse,
/// best first.
fn exhaustive(catalogs: &[&IngestedVideo], sql: &str) -> Vec<(VideoId, ClipInterval, f64)> {
    let query = action_query(&plan(sql));
    let mut all: Vec<(VideoId, ClipInterval, f64)> = catalogs
        .iter()
        .flat_map(|c| {
            PqTraverse::run(c, &query, &PaperScoring, usize::MAX)
                .ranked
                .into_iter()
                .map(|r| {
                    (
                        c.video,
                        r.interval,
                        r.exact.expect("Pq-Traverse scores exactly"),
                    )
                })
        })
        .collect();
    all.sort_by(|a, b| b.2.total_cmp(&a.2));
    all
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= SCORE_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Check a ranked list against the exhaustive ranking, tie-safely: the
/// list holds `min(K, |P_q|)` entries, its scores never increase, the
/// score at each rank equals the exhaustive score at that rank, and each
/// listed sequence exists with that score.
fn check_ranking(
    listed: &[(VideoId, ClipInterval, f64)],
    k: usize,
    all: &[(VideoId, ClipInterval, f64)],
) -> Result<(), String> {
    if listed.len() != k.min(all.len()) {
        return Err(format!(
            "top-{k} lists {} sequences, |P_q| = {}",
            listed.len(),
            all.len()
        ));
    }
    for (rank, entry) in listed.iter().enumerate() {
        if rank > 0 && entry.2 > listed[rank - 1].2 {
            return Err(format!("score increases at rank {rank}"));
        }
        if !close(entry.2, all[rank].2) {
            return Err(format!(
                "rank {rank} scores {} but the exhaustive ranking has {}",
                entry.2, all[rank].2
            ));
        }
        let known = all
            .iter()
            .any(|e| e.0 == entry.0 && e.1 == entry.1 && close(e.2, entry.2));
        if !known {
            return Err(format!(
                "rank {rank} lists {:?} in video {}, which is not in P_q with that score",
                entry.1,
                entry.0.raw()
            ));
        }
    }
    Ok(())
}

/// Byte identity against a reference, in canonical form.
fn check_identity(expected: &str, outcome: &QueryOutcome) -> Result<(), String> {
    let got = canonical_json(outcome);
    match got == expected {
        true => Ok(()),
        false => Err(format!(
            "outcome differs from the in-process reference\n  got:      {got}\n  expected: {expected}"
        )),
    }
}

// ---------------------------------------------------------------- topk-routed

pub struct TopkInputs {
    pub oracles: Vec<Arc<DetectionOracle>>,
    pub catalogs: Vec<IngestedVideo>,
}

/// Two shard servers with in-memory catalogs behind a router.
pub fn setup_topk(seed: u64) -> Result<(Service, TopkInputs), String> {
    let oracles = inputs::oracles(seed, TOPK_VIDEOS);
    let catalogs = ingest_all(&oracles);
    let mut shard_handles = Vec::new();
    let mut backends = Vec::new();
    for shard in 0..TOPK_SHARDS {
        let repo = VideoRepository::from_catalogs(
            catalogs
                .iter()
                .filter(|c| shard_index(c.video, TOPK_SHARDS) == shard)
                .cloned(),
        );
        let metrics = ExecMetrics::new();
        let handle = Server::start(
            serve_config(),
            Some(Arc::new(repo)),
            Vec::new(),
            metrics.clone(),
        )
        .map_err(|e| format!("shard start: {e}"))?;
        shard_handles.push(handle);
        backends.push(metrics);
    }
    let backend_addrs: Vec<SocketAddr> = shard_handles.iter().map(|h| h.local_addr()).collect();
    let front_metrics = ExecMetrics::new();
    let router = Router::start(
        route_config(),
        &backend_addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>(),
        front_metrics.clone(),
    )
    .map_err(|e| format!("router start: {e}"))?;
    let front = router.local_addr();
    let mut handles = vec![router];
    handles.extend(shard_handles);
    let service = Service {
        front,
        front_metrics,
        backends,
        backend_addrs,
        handles,
        spill: None,
    };
    let rotation: Vec<Request> = inputs::offline_rotation()
        .into_iter()
        .map(|sql| Request::Query {
            sql,
            video: VideoScope::All,
        })
        .collect();
    warm_up(front, &rotation)?;
    Ok((service, TopkInputs { oracles, catalogs }))
}

pub struct TopkRouted {
    statements: Vec<String>,
    /// Canonical `execute_offline_all` answer per statement.
    expected: Vec<String>,
    outcomes: Vec<QueryOutcome>,
}

impl TopkRouted {
    /// References over the combined catalog, each checked against the
    /// exhaustive ranking.
    pub fn new(inputs: &TopkInputs) -> Result<Self, String> {
        let statements = inputs::offline_rotation();
        let combined = VideoRepository::from_catalogs(inputs.catalogs.iter().cloned());
        let refs: Vec<&IngestedVideo> = inputs.catalogs.iter().collect();
        let mut expected = Vec::new();
        let mut outcomes = Vec::new();
        for sql in &statements {
            let p = plan(sql);
            let outcome = execute_offline_all(&p, &combined, &PaperScoring)
                .map_err(|e| format!("reference {sql}: {e}"))?;
            let cluster = outcome.cluster().expect("cluster payload");
            let listed: Vec<_> = cluster
                .ranked
                .iter()
                .map(|r| (r.video, r.interval, r.score))
                .collect();
            check_ranking(&listed, cluster.k, &exhaustive(&refs, sql))
                .map_err(|e| format!("reference top-k for {sql}: {e}"))?;
            expected.push(canonical_json(&outcome));
            outcomes.push(outcome);
        }
        Ok(Self {
            statements,
            expected,
            outcomes,
        })
    }
}

impl Ops for TopkRouted {
    fn op(&self, lane: Lane, n: u64) -> (Request, usize) {
        let offset = match lane {
            Lane::Serial => 0,
            Lane::Loaded { conn, conns } => conn * self.statements.len() / conns,
        };
        let key = (offset + n as usize) % self.statements.len();
        let request = Request::Query {
            sql: self.statements[key].clone(),
            video: VideoScope::All,
        };
        (request, key)
    }

    fn check(&self, key: usize, outcome: &QueryOutcome) -> Result<(), String> {
        check_identity(&self.expected[key], outcome)
    }

    fn rotation(&self) -> Vec<Request> {
        (0..self.statements.len() as u64)
            .map(|n| self.op(Lane::Serial, n).0)
            .collect()
    }

    fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }
}

// ---------------------------------------------------------------- catalog-cold

pub struct ColdInputs {
    pub oracles: Vec<Arc<DetectionOracle>>,
    pub catalogs: Vec<IngestedVideo>,
}

/// Videos the catalog-cold rotation cycles through.
pub fn cold_cycled() -> u64 {
    COLD_VIDEOS_PER_CONN * nproc() as u64
}

/// Videos of the catalog-cold catalog: the cycled ones plus
/// `COLD_CACHE` flush videos that only the warm-up and the flush between
/// phases touch, so each phase starts with none of its videos resident.
pub fn cold_videos() -> u64 {
    cold_cycled() + COLD_CACHE as u64
}

/// Queries on the flush videos: afterwards the cache holds only them.
fn cold_flush() -> Vec<Request> {
    let sql = inputs::offline_rotation().swap_remove(0);
    (cold_cycled()..cold_videos())
        .map(|v| Request::Query {
            sql: sql.clone(),
            video: VideoScope::One(v),
        })
        .collect()
}

/// A fresh directory for spilled catalogs under `work`.
pub fn spill_dir(work: &Path, tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    work.join(format!("{tag}-{}-{nanos}", std::process::id()))
}

/// Ingest, spill through `JsonDirSink`, reopen lazily with a small
/// catalog cache, serve.
pub fn setup_cold(seed: u64, work: &Path) -> Result<(Service, ColdInputs), String> {
    let oracles = inputs::oracles(seed, cold_videos());
    let catalogs = ingest_all(&oracles);
    let dir = spill_dir(work, "cold");
    let mut sink = JsonDirSink::create(&dir).map_err(|e| format!("spill dir: {e}"))?;
    for catalog in &catalogs {
        sink.accept(catalog.clone())
            .map_err(|e| format!("spill: {e}"))?;
    }
    sink.finish().map_err(|e| format!("spill finish: {e}"))?;
    let repo = VideoRepository::open_dir(&dir)
        .map_err(|e| format!("open_dir: {e}"))?
        .with_cache_capacity(COLD_CACHE);
    let metrics = ExecMetrics::new();
    let handle = Server::start(
        serve_config(),
        Some(Arc::new(repo)),
        Vec::new(),
        metrics.clone(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let service = Service::single(handle, metrics, Some(dir));
    warm_up(service.front, &cold_flush())?;
    Ok((service, ColdInputs { oracles, catalogs }))
}

pub struct CatalogCold {
    statements: Vec<String>,
    videos: u64,
    /// Canonical answer per `video * statements + statement`.
    expected: Vec<String>,
    outcomes: Vec<QueryOutcome>,
}

impl CatalogCold {
    pub fn new(inputs: &ColdInputs) -> Result<Self, String> {
        let statements = inputs::offline_rotation();
        let mut expected = Vec::new();
        let mut outcomes = Vec::new();
        let cycled = &inputs.catalogs[..cold_cycled() as usize];
        for catalog in cycled {
            for sql in &statements {
                let p = plan(sql);
                let outcome = execute_offline(&p, catalog, &PaperScoring)
                    .map_err(|e| format!("reference {sql}: {e}"))?;
                let topk = outcome.offline().expect("offline payload");
                let listed: Vec<_> = topk
                    .ranked
                    .iter()
                    .map(|r| (catalog.video, r.interval, r.exact.expect("exact scores")))
                    .collect();
                let k = match p.mode {
                    svq_query::QueryMode::Offline { k } => k,
                    svq_query::QueryMode::Online => unreachable!("offline rotation"),
                };
                check_ranking(&listed, k, &exhaustive(&[catalog], sql)).map_err(|e| {
                    format!("reference top-k, video {}, {sql}: {e}", catalog.video.raw())
                })?;
                expected.push(canonical_json(&outcome));
                outcomes.push(outcome);
            }
        }
        Ok(Self {
            statements,
            videos: cycled.len() as u64,
            expected,
            outcomes,
        })
    }
}

impl Ops for CatalogCold {
    /// Each loaded connection cycles its own `COLD_VIDEOS_PER_CONN`
    /// videos, so a catalog is fetched again only after at least a dozen
    /// others: with `COLD_CACHE` slots every fetch misses. The serial lane
    /// cycles all videos.
    fn op(&self, lane: Lane, n: u64) -> (Request, usize) {
        let (base, span) = match lane {
            Lane::Serial => (0, self.videos),
            Lane::Loaded { conn, .. } => (conn as u64 * COLD_VIDEOS_PER_CONN, COLD_VIDEOS_PER_CONN),
        };
        let video = base + n % span;
        let statement = ((n / span) % self.statements.len() as u64) as usize;
        let request = Request::Query {
            sql: self.statements[statement].clone(),
            video: VideoScope::One(video),
        };
        (request, video as usize * self.statements.len() + statement)
    }

    fn check(&self, key: usize, outcome: &QueryOutcome) -> Result<(), String> {
        check_identity(&self.expected[key], outcome)
    }

    fn between_phases(&self) -> Vec<Request> {
        cold_flush()
    }

    fn rotation(&self) -> Vec<Request> {
        (0..self.videos)
            .map(|n| self.op(Lane::Serial, n).0)
            .collect()
    }

    fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }
}

// ---------------------------------------------------------------- stream-scan

pub struct StreamInputs {
    pub oracles: Vec<Arc<DetectionOracle>>,
}

/// `(video, sql)` pairs of the stream rotation.
pub fn stream_pairs() -> Vec<(u64, String)> {
    (0..STREAM_VIDEOS)
        .flat_map(|v| inputs::online_rotation(v).map(|sql| (v, sql)))
        .collect()
}

/// One server with the videos as served live streams.
pub fn setup_stream(seed: u64) -> Result<(Service, StreamInputs), String> {
    let oracles = inputs::oracles(seed, STREAM_VIDEOS);
    let metrics = ExecMetrics::new();
    let handle = Server::start(serve_config(), None, oracles.clone(), metrics.clone())
        .map_err(|e| format!("server start: {e}"))?;
    let service = Service::single(handle, metrics, None);
    let rotation: Vec<Request> = stream_pairs()
        .into_iter()
        .map(|(v, sql)| Request::Stream {
            sql,
            video: Some(v),
        })
        .collect();
    warm_up(service.front, &rotation)?;
    Ok((service, StreamInputs { oracles }))
}

pub struct StreamScan {
    pairs: Vec<(u64, String)>,
    expected: Vec<String>,
    outcomes: Vec<QueryOutcome>,
}

/// Sorted, disjoint, non-adjacent, and inside a stream of `clips` clips.
fn check_sequences(seqs: &[ClipInterval], clips: u64) -> Result<(), String> {
    for (i, s) in seqs.iter().enumerate() {
        if s.start > s.end || s.end.raw() >= clips {
            return Err(format!(
                "sequence {s:?} lies outside the {clips}-clip stream"
            ));
        }
        if i > 0 && s.start.raw() <= seqs[i - 1].end.raw() + 1 {
            return Err(format!(
                "sequences {:?} and {s:?} are unsorted, overlapping or adjacent",
                seqs[i - 1]
            ));
        }
    }
    Ok(())
}

impl StreamScan {
    pub fn new(inputs: &StreamInputs) -> Result<Self, String> {
        let pairs = stream_pairs();
        let mut expected = Vec::new();
        let mut outcomes = Vec::new();
        let mut pooled = MatchCounts::default();
        for (v, sql) in &pairs {
            let oracle = &inputs.oracles[*v as usize];
            let p = plan(sql);
            let mut stream = VideoStream::new(oracle);
            let outcome = execute_online(&p, &mut stream, OnlineConfig::default())
                .map_err(|e| format!("reference {sql}: {e}"))?;
            let seqs = outcome.sequences();
            check_sequences(&seqs, VIDEO_CLIPS)
                .map_err(|e| format!("reference stream, video {v}, {sql}: {e}"))?;
            pooled.add(stream_counts(oracle, &p, &seqs));
            expected.push(canonical_json(&outcome));
            outcomes.push(outcome);
        }
        if pooled.f1() < F1_FLOOR {
            return Err(format!(
                "the stream rotation's pooled frame-level F1 {:.3} is below the floor {F1_FLOOR}",
                pooled.f1()
            ));
        }
        Ok(Self {
            pairs,
            expected,
            outcomes,
        })
    }
}

/// Frame-level match counts of `seqs` against the generator's ground
/// truth.
fn stream_counts(
    oracle: &DetectionOracle,
    p: &svq_query::LogicalPlan,
    seqs: &[ClipInterval],
) -> MatchCounts {
    let truth = oracle.truth();
    let frames = clips_to_frames(seqs, truth.geometry);
    frame_counts(
        &frames,
        &truth.query_truth(&action_query(p)),
        truth.total_frames,
    )
}

impl Ops for StreamScan {
    fn op(&self, lane: Lane, n: u64) -> (Request, usize) {
        let offset = match lane {
            Lane::Serial => 0,
            Lane::Loaded { conn, conns } => conn * self.pairs.len() / conns,
        };
        let key = (offset + n as usize) % self.pairs.len();
        let (video, sql) = &self.pairs[key];
        let request = Request::Stream {
            sql: sql.clone(),
            video: Some(*video),
        };
        (request, key)
    }

    fn check(&self, key: usize, outcome: &QueryOutcome) -> Result<(), String> {
        check_identity(&self.expected[key], outcome)
    }

    fn rotation(&self) -> Vec<Request> {
        (0..self.pairs.len() as u64)
            .map(|n| self.op(Lane::Serial, n).0)
            .collect()
    }

    fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }
}

/// Lowest pooled F1 of the stream rotation over seeds `1..=seeds`, for
/// recomputing [`F1_FLOOR`].
pub fn f1_survey(seeds: u64) -> f64 {
    let mut lowest = f64::INFINITY;
    for seed in 1..=seeds {
        let oracles = inputs::oracles(seed, STREAM_VIDEOS);
        let mut pooled = MatchCounts::default();
        for (v, sql) in stream_pairs() {
            let p = plan(&sql);
            let oracle = &oracles[v as usize];
            let mut stream = VideoStream::new(oracle);
            let outcome =
                execute_online(&p, &mut stream, OnlineConfig::default()).expect("online runs");
            pooled.add(stream_counts(oracle, &p, &outcome.sequences()));
        }
        println!("seed {seed}: pooled F1 {:.4}", pooled.f1());
        lowest = lowest.min(pooled.f1());
    }
    lowest
}

/// Run `requests` serially through a one-shard router placed in front of
/// `backend`, for the router-overhead probe. Returns the op count.
pub fn through_router(
    backend: SocketAddr,
    router_metrics: &ExecMetrics,
    requests: &[Request],
    duration: Duration,
) -> Result<u64, CheckFailure> {
    let router = Router::start(
        route_config(),
        &[backend.to_string()],
        router_metrics.clone(),
    )
    .map_err(|e| CheckFailure(format!("probe router start: {e}")))?;
    let caller = Caller::connect(router.local_addr(), CALL_TIMEOUT)
        .map_err(|e| CheckFailure(format!("probe router connect: {e}")))?;
    let started = std::time::Instant::now();
    let mut n = 0u64;
    while started.elapsed() < duration {
        let request = &requests[n as usize % requests.len()];
        match caller.call(request).and_then(|p| p.wait()) {
            Ok(Response::Outcome(_) | Response::Stats(_)) => {}
            other => {
                return Err(CheckFailure(format!(
                    "probe router op {n} ({}): {other:?}",
                    load::describe(request)
                )))
            }
        }
        n += 1;
    }
    caller.close();
    router.shutdown();
    router.wait();
    Ok(n)
}
