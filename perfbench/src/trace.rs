//! In-memory span recorder and self-time attribution.
//!
//! A span is one call across a layer boundary: a name, a start and end time
//! (seconds since the recorder was created), the span that caused it and the
//! job it belongs to. Spans stay in memory and are written out once, when
//! the benchmark ends, so recording costs one lock and one push per call.

use masort_core::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary the call crossed (`store.read`, `merge`, ...).
    pub name: &'static str,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin; equals `start` while open.
    pub end: f64,
    /// The span this call happened inside, on the same thread. Work handed
    /// to another thread (background block reads) has no parent: it does
    /// not block the span that queued it.
    pub parent: Option<SpanId>,
    /// Job (one sort or one server request) the span belongs to.
    pub job: u32,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// A shared span recorder. Cheap to clone; all clones append to one list.
#[derive(Clone, Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Seconds from the recorder's origin to `t`.
    pub fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Open a span that encloses other spans; close it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, job: u32) -> SpanId {
        let now = self.secs(Instant::now());
        self.push(Span {
            name,
            start: now,
            end: now,
            parent,
            job,
        })
    }

    /// Set the end of an open span to now.
    pub fn close(&self, id: SpanId) {
        let now = self.secs(Instant::now());
        self.spans.lock()[id as usize].end = now;
    }

    /// Record a finished call that ran from `start` to `end`.
    pub fn leaf(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        job: u32,
    ) {
        let (start, end) = (self.secs(start), self.secs(end));
        self.push(Span {
            name,
            start,
            end,
            parent,
            job,
        });
    }

    /// Insert a span covering `[start, end]` under `parent` and move every
    /// existing child of `parent` that starts inside that interval under the
    /// new span. Used for the sort's split and merge phases, whose bounds are
    /// only known from the statistics the sort returns.
    pub fn insert_phase(
        &self,
        name: &'static str,
        parent: SpanId,
        start: f64,
        end: f64,
        job: u32,
    ) -> SpanId {
        let mut spans = self.spans.lock();
        let id = spans.len() as SpanId;
        for s in spans.iter_mut() {
            if s.parent == Some(parent) && s.start >= start && s.start < end {
                s.parent = Some(id);
            }
        }
        spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            job,
        });
        id
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock();
        spans.push(span);
        (spans.len() - 1) as SpanId
    }
}

/// Where the probes of one job record: the recorder (absent when tracing is
/// off), the span the current calls happen inside and the job id.
#[derive(Debug)]
pub struct Ctx {
    /// Span recorder, or `None` for untraced runs.
    pub tracer: Option<Tracer>,
    parent: AtomicU32,
    job: AtomicU32,
}

/// Sentinel for "no enclosing span".
const NO_PARENT: u32 = u32::MAX;

impl Ctx {
    /// A context recording into `tracer` (or nowhere).
    pub fn new(tracer: Option<Tracer>) -> Arc<Self> {
        Arc::new(Ctx {
            tracer,
            parent: AtomicU32::new(NO_PARENT),
            job: AtomicU32::new(0),
        })
    }

    /// The span probe calls are currently made inside.
    pub fn parent(&self) -> Option<SpanId> {
        match self.parent.load(Ordering::Relaxed) {
            NO_PARENT => None,
            id => Some(id),
        }
    }

    /// Make `span` the parent of subsequent probe calls.
    pub fn set_parent(&self, span: Option<SpanId>) {
        self.parent
            .store(span.unwrap_or(NO_PARENT), Ordering::Relaxed);
    }

    /// The job subsequent probe calls belong to.
    pub fn job(&self) -> u32 {
        self.job.load(Ordering::Relaxed)
    }

    /// Start attributing probe calls to `job`.
    pub fn set_job(&self, job: u32) {
        self.job.store(job, Ordering::Relaxed);
    }

    /// Time `f` as a leaf span named `name` under the current parent.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            None => f(),
            Some(tracer) => {
                let start = Instant::now();
                let out = f();
                tracer.leaf(name, start, Instant::now(), self.parent(), self.job());
                out
            }
        }
    }

    /// Open an enclosing span (no-op when untraced).
    pub fn open(&self, name: &'static str) -> Option<SpanId> {
        self.tracer
            .as_ref()
            .map(|t| t.open(name, self.parent(), self.job()))
    }

    /// Close a span returned by [`open`](Self::open).
    pub fn close(&self, id: Option<SpanId>) {
        if let (Some(t), Some(id)) = (&self.tracer, id) {
            t.close(id);
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub calls: usize,
    /// Summed span durations.
    pub total_s: f64,
    /// Summed durations minus the part of each span its children cover.
    pub self_s: f64,
}

/// Total and self time per span name.
///
/// A span's self time is its duration minus the union of its children's
/// intervals, each clipped to the span: overlapping children are not
/// subtracted twice and a child running past its parent's end only counts
/// for the part inside.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered(s.start, s.end, kids);
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_s += s.duration();
        e.self_s += (s.duration() - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// The spans as one JSON document (`{"spans": [...]}`), times in seconds.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80 + 16);
    out.push_str("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"job\": {}}}",
            s.name, s.start, s.end, s.job
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // sort [0, 10] > merge [2, 9] > two reads [3, 4] and [5, 7].
        let spans = vec![
            span("sort", 0.0, 10.0, None),
            span("merge", 2.0, 9.0, Some(0)),
            span("read", 3.0, 4.0, Some(1)),
            span("read", 5.0, 7.0, Some(1)),
        ];
        let t = layer_times(&spans);
        assert!((t["sort"].self_s - 3.0).abs() < 1e-12);
        assert!((t["merge"].self_s - 4.0).abs() < 1e-12);
        assert!((t["read"].self_s - 3.0).abs() < 1e-12);
        assert_eq!(t["read"].calls, 2);
        assert!((t["merge"].total_s - 7.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [1, 4] and [3, 6] overlap on [3, 4]: 5 s covered, not 6.
        // A child running past the parent's end counts only inside it.
        let spans = vec![
            span("stream", 0.0, 8.0, None),
            span("read", 1.0, 4.0, Some(0)),
            span("write", 3.0, 6.0, Some(0)),
            span("write", 7.0, 12.0, Some(0)),
        ];
        let t = layer_times(&spans);
        assert!((t["stream"].self_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parentless_spans_do_not_reduce_anyone() {
        // Background work on another thread overlaps the merge but does not
        // block it.
        let spans = vec![
            span("merge", 0.0, 4.0, None),
            span("prefetch", 1.0, 3.0, None),
        ];
        let t = layer_times(&spans);
        assert!((t["merge"].self_s - 4.0).abs() < 1e-12);
        assert!((t["prefetch"].self_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn phase_insertion_reparents_children_by_start_time() {
        let tracer = Tracer::new();
        let sort = tracer.open("sort", None, 7);
        let t = Instant::now();
        tracer.leaf("input", t, t, Some(sort), 7);
        let input_start = tracer.snapshot()[1].start;
        let phase = tracer.insert_phase("run_formation", sort, 0.0, input_start + 1.0, 7);
        let spans = tracer.snapshot();
        assert_eq!(spans[1].parent, Some(phase));
        assert_eq!(spans[phase as usize].parent, Some(sort));
        assert_eq!(spans[phase as usize].job, 7);
    }

    #[test]
    fn json_lists_every_span() {
        let spans = vec![span("a", 0.0, 1.0, None), span("b", 0.5, 0.75, Some(0))];
        let json = spans_json(&spans);
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"parent\": null"));
    }
}
