//! The layer probe of the traced run: the benchmark's own calls into each
//! layer's public functions, on the workload's inputs, each inside a span.

use crate::inputs::{self, action_query, plan};
use crate::measure::Tracer;
use crate::push::PushEvent;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use svq_core::offline::ingest;
use svq_core::online::{OnlineConfig, Svaqd};
use svq_exec::shard_index;
use svq_query::{
    execute_offline, execute_offline_all, execute_online, merge_cluster, parse, ClusterPart,
    LogicalPlan, QueryOutcome,
};
use svq_serve::{
    encode_request_line, encode_response_line, parse_request_frame, Request, Response,
};
use svq_storage::{CatalogSink, IngestedVideo, JsonDirSink, VideoRepository};
use svq_types::{ClipId, PaperScoring};
use svq_vision::models::DetectionOracle;
use svq_vision::{OwnedClipView, VideoStream};

/// Fleet size the per-event encode cost is multiplied by.
pub const FLEET: f64 = crate::push::LOADED_FLEET as f64;

/// Log-grid step of the shared critical-value memo (1 % relative).
const GRID_LN_STEP: f64 = 0.00995;

/// Inputs the probe runs on.
pub struct ProbeInputs<'a> {
    /// Small videos: ingested, spilled, reopened, queried and scanned.
    pub oracles: &'a [Arc<DetectionOracle>],
    /// The workload's request rotation (decoded).
    pub requests: &'a [Request],
    /// The workload's reference outcomes (encoded).
    pub outcomes: &'a [QueryOutcome],
    /// Pushes to encode; the probe's own SVAQD closures when empty.
    pub events: &'a [PushEvent],
}

/// Repeat `f` `times` times.
fn times(n: usize, mut f: impl FnMut(usize)) {
    for i in 0..n {
        f(i);
    }
}

/// Run every layer call under `tracer` and return the probe metrics.
pub fn run(
    tracer: &Tracer,
    inputs: &ProbeInputs<'_>,
    work: &Path,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let offline = inputs::offline_rotation();
    let online: Vec<String> = (0..2).flat_map(inputs::online_rotation).collect();
    let config = OnlineConfig::default();

    // crates/query: parse + plan.
    times(50, |_| {
        for sql in offline.iter().chain(&online) {
            tracer.span("query.parse_plan", 0, 0, |s| {
                let stmt = s.child("query.parse", || parse(sql).expect("benchmark SQL parses"));
                s.child("query.plan", || {
                    LogicalPlan::from_statement(&stmt).expect("benchmark SQL plans")
                })
            });
        }
    });

    // crates/core: ingest; crates/storage: spill, reopen, first fetch.
    let mut catalogs: Vec<IngestedVideo> = Vec::new();
    for (i, oracle) in inputs.oracles.iter().enumerate() {
        let start = Instant::now();
        let catalog = ingest(oracle, &PaperScoring, &config);
        tracer.record("core.ingest", 0, i as u64, start, Instant::now());
        catalogs.push(catalog);
    }
    let dir = crate::workloads::spill_dir(work, "probe");
    let mut sink = JsonDirSink::create(&dir).map_err(|e| format!("probe spill: {e}"))?;
    for (i, catalog) in catalogs.iter().enumerate() {
        let catalog = catalog.clone();
        let start = Instant::now();
        sink.accept(catalog)
            .map_err(|e| format!("probe spill: {e}"))?;
        tracer.record("storage.spill", 0, i as u64, start, Instant::now());
    }
    let spilled = sink.finish().map_err(|e| format!("probe spill: {e}"))?;
    let catalog_bytes = spilled.bytes_written as f64 / spilled.videos.max(1) as f64;
    times(3, |_| {
        for catalog in &catalogs {
            tracer.span("storage.cold_fetch", 0, catalog.video.raw(), |s| {
                let repo = s.child("storage.open_dir", || {
                    VideoRepository::open_dir(&dir).expect("the probe spill reopens")
                });
                s.child("storage.fetch", || {
                    repo.fetch(catalog.video)
                        .expect("the probe catalog loads")
                        .expect("the probe catalog is listed")
                });
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);

    // crates/query + crates/core: RVAQ per statement and video, and the
    // router's merge over per-shard cluster answers.
    let plans: Vec<LogicalPlan> = offline.iter().map(|sql| plan(sql)).collect();
    times(3, |_| {
        for p in &plans {
            for catalog in &catalogs {
                let start = Instant::now();
                let outcome = execute_offline(p, catalog, &PaperScoring).expect("RVAQ runs");
                tracer.record(
                    "query.offline",
                    0,
                    catalog.video.raw(),
                    start,
                    Instant::now(),
                );
                std::hint::black_box(outcome);
            }
        }
    });
    let shards: Vec<VideoRepository> = (0..2)
        .map(|s| {
            VideoRepository::from_catalogs(
                catalogs
                    .iter()
                    .filter(|c| shard_index(c.video, 2) == s)
                    .cloned(),
            )
        })
        .collect();
    for p in &plans {
        let parts: Vec<ClusterPart> = shards
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| {
                let outcome = execute_offline_all(p, r, &PaperScoring).expect("shard top-k runs");
                ClusterPart::from(outcome.cluster().expect("cluster payload").clone())
            })
            .collect();
        let k = match p.mode {
            svq_query::QueryMode::Offline { k } => k,
            svq_query::QueryMode::Online => unreachable!("offline rotation"),
        };
        times(100, |_| {
            let parts = parts.clone();
            let start = Instant::now();
            let merged = merge_cluster(k, parts);
            tracer.record("query.merge_cluster", 0, k as u64, start, Instant::now());
            std::hint::black_box(merged);
        });
    }

    // crates/query: one-shot online runs; crates/core: SVAQD stepped per
    // clip, which also yields the critical-value cells the streams visit
    // and, without a live source, the pushes to encode.
    let mut cells: BTreeSet<(u32, i32)> = BTreeSet::new();
    let mut own_events: Vec<PushEvent> = Vec::new();
    let mut clips = 0u64;
    times(3, |rep| {
        for (v, oracle) in inputs.oracles.iter().enumerate() {
            for sql in inputs::online_rotation(v as u64) {
                let p = plan(&sql);
                let start = Instant::now();
                let mut stream = VideoStream::new(oracle);
                let outcome = execute_online(&p, &mut stream, config).expect("SVAQD runs");
                tracer.record("query.online", 0, v as u64, start, Instant::now());
                std::hint::black_box(outcome);

                let geometry = oracle.truth().geometry;
                let windows = [geometry.frames_per_clip(), geometry.shots_per_clip];
                let start = Instant::now();
                let mut engine = Svaqd::new(action_query(&p), geometry, config, 1e-4, 1e-4);
                for c in 0..oracle.clip_count() {
                    let mut view = OwnedClipView::new(oracle.clone(), ClipId::new(c));
                    let closed = engine.push_clip(&mut view);
                    if rep == 0 {
                        let bg = engine.backgrounds();
                        let last = bg.len() - 1;
                        for (i, p) in bg.into_iter().enumerate() {
                            let w = windows[usize::from(i == last)];
                            cells.insert((w, (p.max(1e-12).ln() / GRID_LN_STEP).round() as i32));
                        }
                        if let Some(iv) = closed {
                            own_events.push(PushEvent {
                                seq: c + 1,
                                clip: c,
                                first: iv.start.raw(),
                                last: iv.end.raw(),
                            });
                        }
                    }
                }
                tracer.record("svaqd.run", 0, v as u64, start, Instant::now());
                clips += oracle.clip_count();
                std::hint::black_box(engine.finish());
            }
        }
    });
    let svaqd_runs = tracer.self_times().get("svaqd.run").map_or(0, |e| e.1);
    let us_per_clip = svaqd_runs as f64 / 1e3 / clips.max(1) as f64;

    // crates/scanstats: uncached critical values at the visited cells.
    for &(w, cell) in &cells {
        let p = (cell as f64 * GRID_LN_STEP).exp().min(1.0);
        let start = Instant::now();
        let k = svq_scanstats::critical_value(p, w, config.horizon_windows, config.alpha);
        tracer.record(
            "scanstats.critical_value",
            0,
            u64::from(w),
            start,
            Instant::now(),
        );
        std::hint::black_box(k);
    }

    // crates/server: frame decode and encode.
    let lines: Vec<String> = inputs
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| encode_request_line(r, Some(i as u64 + 1)))
        .collect();
    times(200, |_| {
        for (i, line) in lines.iter().enumerate() {
            let start = Instant::now();
            let frame = parse_request_frame(line.as_bytes()).expect("benchmark frames decode");
            tracer.record("server.decode_request", 0, i as u64, start, Instant::now());
            std::hint::black_box(frame);
        }
    });
    let mut outcome_bytes = 0usize;
    let responses: Vec<Response> = inputs
        .outcomes
        .iter()
        .map(|o| Response::Outcome(o.clone()))
        .collect();
    times(20, |_| {
        for (i, r) in responses.iter().enumerate() {
            let start = Instant::now();
            let line = encode_response_line(r, Some(i as u64 + 1));
            tracer.record("server.encode_outcome", 0, i as u64, start, Instant::now());
            outcome_bytes += line.len();
        }
    });
    let encodes = (20 * responses.len()).max(1) as f64;
    let events = match inputs.events.is_empty() {
        true => &own_events[..],
        false => inputs.events,
    };
    times(20, |_| {
        for e in events.iter().take(256) {
            let frame = Response::Event {
                sub: 1,
                seq: e.seq,
                clip: e.clip,
                first: e.first,
                last: e.last,
                at: 1_000_000_000 + e.seq,
            };
            let start = Instant::now();
            let line = encode_response_line(&frame, Some(7));
            tracer.record("subscribe.encode_event", 0, e.seq, start, Instant::now());
            std::hint::black_box(line);
        }
    });

    let parse_plan = tracer.mean_self_us("query.parse") + tracer.mean_self_us("query.plan");
    let cold_fetch =
        (tracer.mean_self_us("storage.open_dir") + tracer.mean_self_us("storage.fetch")) / 1e3;
    Ok(vec![
        (
            "server.decode_request_us",
            tracer.mean_self_us("server.decode_request"),
            "us",
        ),
        (
            "server.encode_outcome_us",
            tracer.mean_self_us("server.encode_outcome"),
            "us",
        ),
        (
            "server.outcome_bytes",
            outcome_bytes as f64 / encodes,
            "bytes",
        ),
        (
            "subscribe.encode_us_per_event",
            tracer.mean_self_us("subscribe.encode_event") * FLEET,
            "us",
        ),
        ("query.parse_plan_us", parse_plan, "us"),
        (
            "query.offline_us",
            tracer.mean_self_us("query.offline"),
            "us",
        ),
        (
            "query.merge_cluster_us",
            tracer.mean_self_us("query.merge_cluster"),
            "us",
        ),
        ("query.online_us", tracer.mean_self_us("query.online"), "us"),
        ("svaqd.us_per_clip", us_per_clip, "us"),
        (
            "core.ingest_ms_per_video",
            tracer.mean_self_us("core.ingest") / 1e3,
            "ms",
        ),
        (
            "scanstats.critical_value_us",
            tracer.mean_self_us("scanstats.critical_value"),
            "us",
        ),
        (
            "storage.spill_ms_per_video",
            tracer.mean_self_us("storage.spill") / 1e3,
            "ms",
        ),
        ("storage.catalog_bytes", catalog_bytes, "bytes"),
        ("storage.cold_fetch_ms", cold_fetch, "ms"),
    ])
}
