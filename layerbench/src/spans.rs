//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions. Nothing here reaches inside the program:
//! a span covers exactly one public call (or one served operation).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The operation the span belongs to (0 for set-up work).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, closed by [`Tracer::close`].
#[must_use]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    op: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Per-name aggregate: count, total and self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Collects spans from any thread; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, op: u64, parent: Option<u32>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            op,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open`, records it, and returns its duration.
    pub fn close(&self, open: Open) -> Duration {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
        Duration::from_nanos(span.dur_ns())
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.open(name, op, parent);
        let r = f();
        (r, self.close(open))
    }

    /// Appends spans a worker thread buffered locally.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("tracer lock poisoned")
            .extend(spans);
    }

    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("tracer lock poisoned").len()
    }

    /// Per-name count, total time and self time. Self time is a span's
    /// duration minus the part of it that its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, Summary> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Summary> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns() - covered;
        }
        out
    }

    /// Total time of every span named `name`, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.summary()
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
    }

    /// Writes the summary and at most `limit` spans (in start order) as
    /// JSON lines.
    pub fn write(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, s) in self.summary() {
            writeln!(
                w,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                s.count, s.total_ns, s.self_ns
            )?;
        }
        let mut spans = self.spans.lock().expect("tracer lock poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        for s in spans.iter().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// The cost of opening and closing one span, nanoseconds: the median
/// over several batches recorded on a scratch tracer.
pub fn ns_per_span() -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Tracer::new();
            let start = Instant::now();
            for i in 0..10_000 {
                let o = t.open("calibrate", i, None);
                t.close(o);
            }
            start.elapsed().as_nanos() as f64 / 10_000.0
        })
        .collect();
    crate::measure::quantile(&mut batches, 0.5)
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cur), b.min(hi));
        if b > a {
            total += b - a;
            cur = b;
        }
    }
    total
}
