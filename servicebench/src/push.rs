//! monitor-push: one server with a paced live source, one standing
//! statement, and a fleet of subscriptions.

use crate::inputs;
use crate::load::CALL_TIMEOUT;
use crate::measure::{cpu_seconds, histogram_counts, Tracer, BUCKETS};
use crate::workloads::{nproc, serve_config, Service};
use parking_lot::rt;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use svq_core::online::{OnlineConfig, Svaqd};
use svq_exec::ExecMetrics;
use svq_query::execute_online;
use svq_serve::{Caller, LiveSourceConfig, Request, Response, Server, Subscription};
use svq_types::{ActionClass, ClipId, ObjectClass, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};
use svq_vision::{OwnedClipView, VideoStream};

/// Source pace, clips per second.
pub const PUSH_RATE: u64 = 300;
/// The live source's video id.
pub const SOURCE_VIDEO: u64 = 9000;
/// Subscriptions on the single unloaded connection.
pub const UNLOADED_FLEET: usize = 8;
/// Subscriptions of the loaded fleet, spread over `nproc` connections.
pub const LOADED_FLEET: usize = 128;

pub fn sql() -> String {
    inputs::online_sql("jumping", "car")
}

/// The source replays `seconds` of pace: `seconds * PUSH_RATE` clips,
/// rounded up to whole minutes of footage (30 clips each).
pub fn source_config(seed: u64, seconds: f64) -> LiveSourceConfig {
    let clips = (seconds * PUSH_RATE as f64).ceil() as u64;
    LiveSourceConfig {
        video: SOURCE_VIDEO,
        action: "jumping".into(),
        objects: vec!["car".into()],
        minutes: clips.div_ceil(30).max(1),
        seed: inputs::mix(seed, SOURCE_VIDEO),
        rate: PUSH_RATE,
    }
}

/// One push: source clip `seq` (1-based) closed `[first, last]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushEvent {
    pub seq: u64,
    pub clip: u64,
    pub first: u64,
    pub last: u64,
}

/// The source scenario exactly as the server materialises it.
pub fn source_oracle(config: &LiveSourceConfig) -> Arc<DetectionOracle> {
    let spec = ScenarioSpec::activitynet(
        VideoId::new(config.video),
        config.minutes * 60 * 25,
        ActionClass::named(&config.action),
        config
            .objects
            .iter()
            .map(|o| ObjectSpec::correlated(ObjectClass::named(o)))
            .collect(),
        config.seed,
    );
    Arc::new(spec.generate().oracle(ModelSuite::accurate()))
}

/// The pushes of SVAQD stepped clip by clip from clip `first_clip` on,
/// as the server's shared session steps the source: the session starts
/// at the source position where the statement was first subscribed.
pub fn stepped(oracle: &Arc<DetectionOracle>, first_clip: u64) -> Vec<PushEvent> {
    let p = inputs::plan(&sql());
    let mut engine = Svaqd::new(
        inputs::action_query(&p),
        oracle.truth().geometry,
        OnlineConfig::default(),
        1e-4,
        1e-4,
    );
    let mut events = Vec::new();
    for c in first_clip..oracle.clip_count() {
        let mut view = OwnedClipView::new(oracle.clone(), ClipId::new(c));
        if let Some(iv) = engine.push_clip(&mut view) {
            events.push(PushEvent {
                seq: c + 1,
                clip: c,
                first: iv.start.raw(),
                last: iv.end.raw(),
            });
        }
    }
    events
}

/// Stepped SVAQD over the whole source must close the sequences of a
/// one-shot `execute_online` over the same scenario (which may close one
/// more at the end of the stream).
fn check_stepping(oracle: &Arc<DetectionOracle>) -> Result<(), String> {
    let p = inputs::plan(&sql());
    let mut stream = VideoStream::new(oracle);
    let one_shot: Vec<(u64, u64)> = execute_online(&p, &mut stream, OnlineConfig::default())
        .map_err(|e| format!("one-shot reference: {e}"))?
        .sequences()
        .iter()
        .map(|s| (s.start.raw(), s.end.raw()))
        .collect();
    let pushed: Vec<(u64, u64)> = stepped(oracle, 0)
        .iter()
        .map(|e| (e.first, e.last))
        .collect();
    let n = pushed.len();
    match one_shot.len() >= n && one_shot.len() <= n + 1 && one_shot[..n] == pushed[..] {
        true => Ok(()),
        false => Err(format!(
            "stepped SVAQD closed {n} sequences that differ from the one-shot run's {}",
            one_shot.len()
        )),
    }
}

pub struct PushSetup {
    pub service: Service,
    pub oracle: Arc<DetectionOracle>,
}

/// Generate the source and check stepped against one-shot SVAQD (which
/// also fills the critical-value memo), then start the server; the
/// replay starts with it.
pub fn setup(seed: u64, replay_seconds: f64) -> Result<PushSetup, String> {
    let config = source_config(seed, replay_seconds);
    let oracle = source_oracle(&config);
    check_stepping(&oracle)?;
    let metrics = ExecMetrics::new();
    let handle = Server::start_with_source(
        serve_config(),
        None,
        Vec::new(),
        Some(config),
        metrics.clone(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    Ok(PushSetup {
        service: Service::single(handle, metrics, None),
        oracle,
    })
}

/// What one subscription received.
struct Received {
    sub: u64,
    from_seq: u64,
    events: Vec<PushEvent>,
    /// `(delivered, missed, total)` of the terminal frame; `None` if the
    /// connection died first.
    terminal: Option<(u64, u64, u64)>,
}

/// What one fleet received, checked.
#[derive(Default)]
pub struct FleetTally {
    /// Events the server owed the fleet.
    pub attempted: u64,
    /// Events delivered.
    pub events: u64,
    /// Events missed, or lost with a dead connection.
    pub failed: u64,
    pub lags_ms: Vec<f64>,
    /// Fan-out stamp of each lag sample, until the fleet's window closes.
    stamps: Vec<u64>,
    /// When the last frame arrived.
    pub last: Option<Instant>,
}

/// Drain `subs` round-robin to their terminal frames. Subscriptions of one
/// statement receive the same events in subscription order, so visiting
/// them in that order reads frames about as they arrive. Lags are taken
/// for events fanned out from `since` on (earlier ones waited for the
/// fleet to finish subscribing); each is a `push.event` span from the
/// server's fan-out stamp.
fn drain(
    subs: &[Subscription],
    since: u64,
    tracer: &Tracer,
) -> Result<(Vec<Received>, FleetTally), String> {
    let mut got: Vec<Received> = subs
        .iter()
        .map(|s| Received {
            sub: s.sub(),
            from_seq: s.from_seq(),
            events: Vec::new(),
            terminal: None,
        })
        .collect();
    let mut open = vec![true; subs.len()];
    let mut remaining = subs.len();
    let mut tally = FleetTally::default();
    while remaining > 0 {
        for (i, sub) in subs.iter().enumerate() {
            if !open[i] {
                continue;
            }
            let rec = &mut got[i];
            match sub.next() {
                Ok(Some(Response::Event {
                    seq,
                    clip,
                    first,
                    last,
                    at,
                    ..
                })) => {
                    let now = rt::monotonic_nanos();
                    let arrived = Instant::now();
                    let prev = rec.events.last().map_or(rec.from_seq, |e| e.seq);
                    if seq <= prev {
                        return Err(format!("subscription {}: seq {seq} after {prev}", rec.sub));
                    }
                    rec.events.push(PushEvent {
                        seq,
                        clip,
                        first,
                        last,
                    });
                    tally.last = Some(arrived);
                    if at >= since {
                        let lag = now.saturating_sub(at);
                        tally.lags_ms.push(lag as f64 / 1e6);
                        tally.stamps.push(at);
                        let sent = arrived
                            .checked_sub(Duration::from_nanos(lag))
                            .unwrap_or(arrived);
                        tracer.record("push.event", 0, seq, sent, arrived);
                    }
                }
                Ok(Some(Response::Lagged { .. } | Response::Drift { .. })) => {}
                Ok(Some(Response::Unsubscribed {
                    delivered,
                    missed,
                    total,
                    ..
                })) => {
                    rec.terminal = Some((delivered, missed, total));
                    tally.last = Some(Instant::now());
                    open[i] = false;
                    remaining -= 1;
                }
                Ok(None) => {
                    return Err(format!(
                        "subscription {}: mailbox closed before its terminal frame",
                        rec.sub
                    ))
                }
                Ok(Some(other)) => {
                    return Err(format!(
                        "subscription {}: unexpected frame {other:?}",
                        rec.sub
                    ))
                }
                Err(e) => {
                    eprintln!("servicebench: monitor-push subscription {}: {e}", rec.sub);
                    open[i] = false;
                    remaining -= 1;
                }
            }
        }
    }
    Ok((got, tally))
}

/// Check each subscription against the reference pushes: its events are
/// the reference's past its `from_seq`, in order, less at most `missed`
/// of them; the terminal's accounting closes; and a subscription held to
/// the end of the replay was owed every reference push past `from_seq`.
fn settle(
    got: &[Received],
    reference: &[PushEvent],
    to_end: bool,
    tally: &mut FleetTally,
) -> Result<(), String> {
    for rec in got {
        let owed = &reference[reference.partition_point(|e| e.seq <= rec.from_seq)..];
        let received = rec.events.len() as u64;
        let mut cursor = 0;
        for e in &rec.events {
            let Some(pos) = owed[cursor..].iter().position(|r| r.seq == e.seq) else {
                return Err(format!(
                    "subscription {}: pushed {e:?}, which closes no reference sequence",
                    rec.sub
                ));
            };
            if owed[cursor + pos] != *e {
                return Err(format!(
                    "subscription {}: pushed {e:?}, the reference closes {:?}",
                    rec.sub,
                    owed[cursor + pos]
                ));
            }
            cursor += pos + 1;
        }
        let skipped = cursor as u64 - received;
        match rec.terminal {
            Some((delivered, missed, total)) => {
                if received != delivered || delivered + missed != total || skipped > missed {
                    return Err(format!(
                        "subscription {}: received {received} events ({skipped} skipped), terminal says delivered {delivered} + missed {missed} = total {total}",
                        rec.sub
                    ));
                }
                let due = owed.len() as u64;
                if (to_end && total != due) || total > due {
                    return Err(format!(
                        "subscription {}: server owed {total} events, the reference {due} past from_seq {}",
                        rec.sub, rec.from_seq
                    ));
                }
                tally.attempted += total;
                tally.failed += missed;
            }
            // The connection died: what it still owed is lost.
            None => {
                let due = owed.len() as u64;
                tally.attempted += due;
                tally.failed += due - received;
            }
        }
        tally.events += received;
    }
    Ok(())
}

/// Results of both phases, summed over the rounds.
pub struct PushRun {
    pub unloaded: FleetTally,
    pub loaded: FleetTally,
    /// Time the loaded fleets were subscribed and draining; the events
    /// fanned out in it are `loaded.lags_ms`.
    pub loaded_wall_s: f64,
    /// Process CPU over the loaded fleets' windows.
    pub loaded_cpu_s: f64,
    /// The traced fleet, when asked for.
    pub traced: Option<(FleetTally, f64)>,
    /// Service-time histograms of the unloaded and loaded windows.
    pub unloaded_hist: [u64; BUCKETS],
    pub loaded_hist: [u64; BUCKETS],
}

fn subscribe_fleet(caller: &Caller, count: usize) -> Result<Vec<Subscription>, String> {
    (0..count)
        .map(|_| {
            caller
                .subscribe(&sql(), None, 0)
                .map_err(|e| format!("subscribe: {e}"))
        })
        .collect()
}

/// One fleet: `per_conn[c]` subscriptions on connection `c`, each drained
/// by its own consumer thread, for `duration` (then unsubscribed) or, with
/// `None`, until the replay ends. Returns what each subscription received,
/// the fleet's tally, its window and the process CPU over it.
#[allow(clippy::type_complexity)]
fn fleet(
    addr: std::net::SocketAddr,
    per_conn: &[usize],
    duration: Option<Duration>,
    tracer: &Tracer,
) -> Result<(Vec<Received>, FleetTally, f64, f64), String> {
    let callers: Vec<Caller> = per_conn
        .iter()
        .map(|_| Caller::connect(addr, CALL_TIMEOUT).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let fleets: Vec<Vec<Subscription>> = callers
        .iter()
        .zip(per_conn)
        .map(|(caller, &n)| subscribe_fleet(caller, n))
        .collect::<Result<_, _>>()?;
    let barrier = Barrier::new(fleets.len() + 1);
    let (results, start, end, until, cpu) = std::thread::scope(|s| {
        let handles: Vec<_> = fleets
            .iter()
            .map(|subs| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    drain(subs, rt::monotonic_nanos(), tracer)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let cpu0 = cpu_seconds();
        let mut end = None;
        let mut until = u64::MAX;
        if let Some(d) = duration {
            std::thread::sleep(d);
            end = Some(Instant::now());
            until = rt::monotonic_nanos();
            // Pipelined: one round trip per subscription would queue each
            // ack behind the pushes already in the connection's writer.
            let acks: Vec<_> = callers
                .iter()
                .zip(&fleets)
                .flat_map(|(caller, subs)| {
                    subs.iter()
                        .map(|sub| caller.call(&Request::Unsubscribe { sub: sub.sub() }))
                })
                .collect();
            for ack in acks {
                if let Err(e) = ack.and_then(|p| p.wait()) {
                    eprintln!("servicebench: monitor-push unsubscribe: {e}");
                }
            }
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("consumer thread"))
            .collect();
        (results, t0, end, until, cpu_seconds() - cpu0)
    });
    let mut got = Vec::new();
    let mut tally = FleetTally::default();
    for r in results {
        let (g, t) = r?;
        got.extend(g);
        // Events fanned out while the fleet unsubscribed queue behind the
        // acks: they take no lag sample.
        tally.lags_ms.extend(
            t.lags_ms
                .iter()
                .zip(&t.stamps)
                .filter(|(_, &at)| at < until)
                .map(|(&lag, _)| lag),
        );
        tally.last = tally.last.max(t.last);
    }
    let end = end.or(tally.last).unwrap_or(start);
    drop(fleets);
    for caller in &callers {
        caller.close();
    }
    Ok((got, tally, (end - start).as_secs_f64(), cpu))
}

/// `rounds` rounds of an unloaded fleet (`unloaded / rounds`) and a loaded
/// fleet (`loaded / rounds`); the last loaded fleet, or with `trace` an
/// extra traced fleet, stays until the replay ends.
pub fn run(
    setup: &PushSetup,
    rounds: u32,
    unloaded: Duration,
    loaded: Duration,
    trace: Option<&Tracer>,
) -> Result<PushRun, String> {
    let addr = setup.service.front;
    let latency = &setup.service.backends[0].server().latency;
    let off = Tracer::new(false);
    let conns = nproc().min(LOADED_FLEET);
    let split: Vec<usize> = (0..conns)
        .map(|c| LOADED_FLEET / conns + usize::from(c < LOADED_FLEET % conns))
        .collect();
    let mut run = PushRun {
        unloaded: FleetTally::default(),
        loaded: FleetTally::default(),
        loaded_wall_s: 0.0,
        loaded_cpu_s: 0.0,
        traced: None,
        unloaded_hist: [0; BUCKETS],
        loaded_hist: [0; BUCKETS],
    };
    let mut records: Vec<(Vec<Received>, bool, u8)> = Vec::new();
    let add = |acc: &mut [u64; BUCKETS], a: &[u64; BUCKETS], b: &[u64; BUCKETS]| {
        for i in 0..BUCKETS {
            acc[i] += b[i] - a[i];
        }
    };
    for round in 0..rounds {
        let a = histogram_counts(latency);
        let (got, tally, _, _) = fleet(addr, &[UNLOADED_FLEET], Some(unloaded / rounds), &off)?;
        run.unloaded.lags_ms.extend(tally.lags_ms);
        records.push((got, false, 0));
        std::thread::sleep(Duration::from_millis(20));
        let b = histogram_counts(latency);
        add(&mut run.unloaded_hist, &a, &b);

        let to_end = round + 1 == rounds && trace.is_none();
        let window = (!to_end).then_some(loaded / rounds);
        let (got, tally, wall, cpu) = fleet(addr, &split, window, &off)?;
        run.loaded.lags_ms.extend(tally.lags_ms);
        run.loaded_wall_s += wall;
        run.loaded_cpu_s += cpu;
        records.push((got, to_end, 1));
        std::thread::sleep(Duration::from_millis(20));
        let c = histogram_counts(latency);
        add(&mut run.loaded_hist, &b, &c);
    }
    let mut traced = None;
    if let Some(tracer) = trace {
        let (got, tally, wall, cpu) = fleet(addr, &split, None, tracer)?;
        traced = Some((tally, wall, cpu));
        records.push((got, true, 2));
    }

    // Check everything against SVAQD stepped from where the shared session
    // started: the first subscription of the first fleet registered it.
    let session_start = records[0].0[0].from_seq;
    let reference = stepped(&setup.oracle, session_start);
    for (got, to_end, which) in &records {
        let tally = match which {
            0 => &mut run.unloaded,
            1 => &mut run.loaded,
            _ => &mut traced.as_mut().expect("traced fleet").0,
        };
        settle(got, &reference, *to_end, tally)?;
    }
    run.traced = traced.map(|(t, _, cpu)| (t, cpu));
    Ok(run)
}

/// Cross-check the server's books against the clients' tally of
/// `delivered` and `missed` events over `rounds` rounds of fleets (plus
/// the traced fleet).
pub fn check_stats(
    setup: &PushSetup,
    delivered: u64,
    missed: u64,
    rounds: usize,
    traced: bool,
) -> Result<(), String> {
    let frame = crate::workloads::stats(setup.service.front)?;
    let loaded_fleets = rounds + usize::from(traced);
    let opened = (UNLOADED_FLEET * rounds + LOADED_FLEET * loaded_fleets) as u64;
    if frame.subs_opened != opened
        || frame.subs_active != 0
        || frame.subs_events != delivered
        || frame.subs_missed != missed
    {
        return Err(format!(
            "server books disagree: opened {} active {} events {} missed {}; clients saw opened {opened}, events {delivered}, missed {missed}",
            frame.subs_opened, frame.subs_active, frame.subs_events, frame.subs_missed
        ));
    }
    Ok(())
}
