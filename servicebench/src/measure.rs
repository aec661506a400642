//! Process readings, order statistics, the server latency histogram, and
//! the in-memory span recorder.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use svq_exec::LatencyHistogram;

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in 100 Hz clock ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    // `rest` starts at field 3 (state), so fields 14/15 are at 11/12.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Buckets of the server's latency histogram (bucket `i` holds
/// observations in `[2^i, 2^(i+1))` microseconds).
pub const BUCKETS: usize = 32;

/// Recover the per-bucket counts of a [`LatencyHistogram`] from its
/// quantile reads: each rank's bucket is the upper edge `quantile_ms`
/// reports, so a binary search per bucket finds where its ranks end.
/// Call it while no request is in flight.
pub fn histogram_counts(h: &LatencyHistogram) -> [u64; BUCKETS] {
    let total = h.count();
    let mut counts = [0u64; BUCKETS];
    let bucket_of = |rank: u64| -> usize {
        let edge_us = h.quantile_ms((rank as f64 - 0.5) / total as f64) * 1e3;
        (edge_us.round() as u64).max(2).ilog2() as usize - 1
    };
    let mut rank = 1;
    while rank <= total {
        let b = bucket_of(rank);
        let (mut lo, mut hi) = (rank, total);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if bucket_of(mid) == b {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        counts[b.min(BUCKETS - 1)] += lo - rank + 1;
        rank = lo + 1;
    }
    counts
}

/// `after - before`, bucket by bucket: the observations of one phase.
pub fn histogram_delta(after: &[u64; BUCKETS], before: &[u64; BUCKETS]) -> [u64; BUCKETS] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Median of a bucket histogram in ms, interpolated log-linearly inside
/// the bucket that holds it (the buckets are powers of two).
pub fn histogram_p50_ms(counts: &[u64; BUCKETS]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = total as f64 / 2.0;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && seen + c as f64 >= target {
            let frac = (target - seen) / c as f64;
            return 2f64.powf(i as f64 + frac) / 1e3;
        }
        seen += c as f64;
    }
    unreachable!("the target rank lies inside the histogram")
}

/// One recorded span. `parent` is 0 for a root span.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder around the benchmark's own calls. A disabled
/// tracer records nothing and costs one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record a finished span and return its id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self.spans.lock();
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Time `f` as a span; `f` receives a parent id for child spans,
    /// which it records before this span closes.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce(&SpanScope) -> T,
    ) -> T {
        let scope = SpanScope {
            tracer: self,
            children: Mutex::new(Vec::new()),
            op,
        };
        let start = Instant::now();
        let out = f(&scope);
        let end = Instant::now();
        let id = self.record(name, parent, op, start, end);
        // Children finished first, so they learn their parent's id now.
        let mut spans = self.spans.lock();
        for child in scope.children.into_inner() {
            if let Some(s) = spans.get_mut(child as usize - 1) {
                s.parent = id;
            }
        }
        out
    }

    pub fn count(&self) -> usize {
        self.spans.lock().len()
    }

    /// Self time per span name: `(spans, total self ns)`. A span's self
    /// time is its duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans.lock();
        let mut child_ns = vec![0u64; spans.len() + 1];
        for s in spans.iter() {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// Mean self time of the spans named `name`, in microseconds.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match self.self_times().get(name) {
            Some(&(n, ns)) if n > 0 => ns as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Handed to the body of [`Tracer::span`] for recording child spans.
pub struct SpanScope<'a> {
    tracer: &'a Tracer,
    children: Mutex<Vec<u64>>,
    op: u64,
}

impl SpanScope<'_> {
    /// Time `f` as a child span of the enclosing one.
    pub fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.tracer.record(name, 0, self.op, start, end);
        if id != 0 {
            self.children.lock().push(id);
        }
        out
    }
}
