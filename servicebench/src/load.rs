//! The load generator for request workloads: a serial loop (one op in
//! flight) and a closed loop (`conns` connections, each with one
//! generator thread keeping `depth` ops in flight).

use crate::measure::{cpu_seconds, Tracer};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use svq_query::QueryOutcome;
use svq_serve::{Caller, Request, Response};
use svq_types::SvqResult;

/// Read/write deadline of every benchmark connection. An op that waits
/// this long fails its connection's in-flight ops (counted as failed).
pub const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Which generator asks for an op.
#[derive(Clone, Copy)]
pub enum Lane {
    /// The serial (unloaded) phase.
    Serial,
    /// Connection `conn` of `conns` in the loaded phase.
    Loaded { conn: usize, conns: usize },
}

/// What a request workload supplies to the generator.
pub trait Ops: Sync {
    /// The `n`-th request of `lane`, with the key its answer is checked
    /// against.
    fn op(&self, lane: Lane, n: u64) -> (Request, usize);
    /// Check one outcome against the reference for `key`.
    fn check(&self, key: usize, outcome: &QueryOutcome) -> Result<(), String>;
    /// One request of each kind the rotation sends, for the layer probe.
    fn rotation(&self) -> Vec<Request>;
    /// The reference outcomes answers are checked against.
    fn outcomes(&self) -> &[QueryOutcome];
    /// Requests sent, unchecked and untimed, between the unloaded and the
    /// loaded phase.
    fn between_phases(&self) -> Vec<Request> {
        Vec::new()
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    /// Latency of each successful op, ms, ascending.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First send to last completion.
    pub wall_s: f64,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
}

impl Phase {
    pub fn completed(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Add another phase's ops, time and CPU to this one's.
    pub fn absorb(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// A correctness failure: names the op; the run exits non-zero.
pub struct CheckFailure(pub String);

/// Classify one answer: `Ok(true)` served and correct, `Ok(false)` a
/// failed op (typed error frame, timeout, dead connection), `Err` a
/// wrong answer or a protocol violation.
fn classify(
    ops: &dyn Ops,
    key: usize,
    what: &str,
    result: SvqResult<Response>,
) -> Result<bool, CheckFailure> {
    match result {
        Ok(Response::Outcome(outcome)) => ops
            .check(key, &outcome)
            .map(|()| true)
            .map_err(|e| CheckFailure(format!("{what}: {e}"))),
        Ok(Response::Error { reason, message }) => {
            eprintln!("servicebench: {what} failed: {reason}: {message}");
            Ok(false)
        }
        Err(e) => {
            eprintln!("servicebench: {what} failed: {e}");
            Ok(false)
        }
        Ok(other) => Err(CheckFailure(format!(
            "{what}: unexpected response frame {other:?}"
        ))),
    }
}

/// One connection, one op in flight, for `duration`; the ops are the
/// serial lane's from number `first` on.
pub fn serial(
    addr: SocketAddr,
    ops: &dyn Ops,
    first: u64,
    duration: Duration,
    tracer: &Tracer,
) -> Result<Phase, CheckFailure> {
    let caller = Caller::connect(addr, CALL_TIMEOUT)
        .map_err(|e| CheckFailure(format!("serial connect: {e}")))?;
    let mut phase = Phase::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut n = first;
    while t0.elapsed() < duration {
        let (request, key) = ops.op(Lane::Serial, n);
        let sent = Instant::now();
        let result = caller.call(&request).and_then(|p| p.wait());
        let done = Instant::now();
        tracer.record("op", 0, n, sent, done);
        phase.attempted += 1;
        let what = format!("serial op {n} ({})", describe(&request));
        if classify(ops, key, &what, result)? {
            phase.latencies_ms.push((done - sent).as_secs_f64() * 1e3);
        } else {
            phase.failed += 1;
        }
        n += 1;
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    phase.cpu_s = cpu_seconds() - cpu0;
    caller.close();
    phase.latencies_ms.sort_by(f64::total_cmp);
    Ok(phase)
}

struct Done {
    n: u64,
    key: usize,
    sent: Instant,
    done: Instant,
    result: SvqResult<Response>,
}

/// `conns` connections with `depth` ops in flight each, sending for
/// `duration` and then draining what is in flight; each connection sends
/// its lane's ops from number `first` on.
pub fn closed_loop(
    addr: SocketAddr,
    ops: &dyn Ops,
    conns: usize,
    depth: usize,
    first: u64,
    duration: Duration,
    tracer: &Tracer,
) -> Result<Phase, CheckFailure> {
    let callers: Vec<Caller> = (0..conns)
        .map(|_| Caller::connect(addr, CALL_TIMEOUT))
        .collect::<SvqResult<_>>()
        .map_err(|e| CheckFailure(format!("loaded connect: {e}")))?;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let deadline = t0 + duration;
    let results: Vec<Result<(Phase, Instant), CheckFailure>> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter()
            .enumerate()
            .map(|(conn, caller)| {
                s.spawn(move || {
                    generate(
                        caller,
                        ops,
                        Lane::Loaded { conn, conns },
                        depth,
                        first,
                        deadline,
                        tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let cpu1 = cpu_seconds();
    let mut phase = Phase::default();
    let mut last = t0;
    for r in results {
        let (p, end) = r?;
        last = last.max(end);
        phase.absorb(p);
    }
    phase.wall_s = (last - t0).as_secs_f64();
    phase.cpu_s = cpu1 - cpu0;
    for caller in &callers {
        caller.close();
    }
    phase.latencies_ms.sort_by(f64::total_cmp);
    Ok(phase)
}

/// One generator thread: refill to `depth` on every completion until the
/// deadline, then drain.
fn generate(
    caller: &Caller,
    ops: &dyn Ops,
    lane: Lane,
    depth: usize,
    first: u64,
    deadline: Instant,
    tracer: &Tracer,
) -> Result<(Phase, Instant), CheckFailure> {
    let Lane::Loaded { conn, .. } = lane else {
        unreachable!("generators run loaded lanes")
    };
    let (tx, rx) = mpsc::channel::<Done>();
    let mut phase = Phase::default();
    let mut in_flight = 0usize;
    let mut n = first;
    let mut last = Instant::now();
    let submit = |n: u64, phase: &mut Phase| -> bool {
        let (request, key) = ops.op(lane, n);
        let tx = tx.clone();
        let sent = Instant::now();
        phase.attempted += 1;
        let sent_ok = caller
            .call_with(&request, move |result| {
                let _ = tx.send(Done {
                    n,
                    key,
                    sent,
                    done: Instant::now(),
                    result,
                });
            })
            .is_ok();
        if !sent_ok {
            phase.failed += 1;
        }
        sent_ok
    };
    for _ in 0..depth {
        if submit(n, &mut phase) {
            in_flight += 1;
        }
        n += 1;
    }
    while in_flight > 0 {
        let done = rx.recv().expect("a sender lives while ops are in flight");
        in_flight -= 1;
        last = done.done;
        let op_id = ((conn as u64) << 32) | done.n;
        tracer.record("op", 0, op_id, done.sent, done.done);
        let what = format!("conn {conn} op {}", done.n);
        if classify(ops, done.key, &what, done.result)? {
            phase
                .latencies_ms
                .push((done.done - done.sent).as_secs_f64() * 1e3);
        } else {
            phase.failed += 1;
        }
        if Instant::now() < deadline {
            if submit(n, &mut phase) {
                in_flight += 1;
            }
            n += 1;
        }
    }
    Ok((phase, last))
}

/// Short human-readable form of a request, for failure messages.
pub fn describe(request: &Request) -> String {
    match request {
        Request::Query { sql, video } => format!("query {video:?}: {sql}"),
        Request::Stream { sql, video } => format!("stream {video:?}: {sql}"),
        other => other.kind().to_string(),
    }
}
