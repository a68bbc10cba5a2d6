//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] is off by default; then [`Ctx::span`] costs one relaxed
//! load and records nothing, so traced and untraced passes run the same
//! code. When on, every span keeps `(name, id, parent, query, start, end)`
//! in memory until the run writes them out. A layer's self time is its
//! span minus the union of its direct children ([`self_time`]), which
//! matters because children of one search run on several pool workers at
//! once and overlap.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub query: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span and counter store shared by every worker of a run.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Moves out everything recorded so far.
    pub fn take(&self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        (
            std::mem::take(&mut *self.spans.lock().expect("span store poisoned")),
            std::mem::take(&mut *self.counters.lock().expect("counter store poisoned")),
        )
    }
}

/// Where a span being opened belongs: its query and its parent span.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: &'a Tracer,
    query: u32,
    parent: u64,
}

impl<'a> Ctx<'a> {
    /// The root context of one query execution.
    pub fn root(tracer: &'a Tracer, query: u32) -> Self {
        Ctx {
            tracer,
            query,
            parent: 0,
        }
    }

    /// Opens span `name` under this context; it closes when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard<'a> {
        let on = self.tracer.enabled();
        SpanGuard {
            tracer: self.tracer,
            name,
            id: if on {
                self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            parent: self.parent,
            query: self.query,
            start_ns: if on { self.tracer.now_ns() } else { 0 },
        }
    }

    /// The context for spans nested inside `guard`.
    pub fn under(&self, guard: &SpanGuard<'_>) -> Ctx<'a> {
        Ctx {
            parent: guard.id,
            ..*self
        }
    }

    /// Adds `value` to counter `name` (no-op while tracing is off).
    pub fn add(&self, name: &'static str, value: u64) {
        if self.tracer.enabled() {
            *self
                .tracer
                .counters
                .lock()
                .expect("counter store poisoned")
                .entry(name)
                .or_default() += value;
        }
    }

    /// Whether spans are being recorded (callers skip counting work that
    /// only feeds counters).
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }
}

/// An open span; records itself on drop. Inert (id 0) while tracing is off.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    parent: u64,
    query: u32,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            query: self.query,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // A poisoned store only loses this span; never panic in drop.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Duration of `parent` not covered by the union of `children`, each
/// clipped to the parent interval. Children may overlap one another (they
/// run on different workers).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (hi - lo) - covered
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotal {
    pub calls: u64,
    /// Summed span durations (worker time: parallel spans add up).
    pub ns: u64,
    /// Summed self times ([`self_time`] against direct children).
    pub self_ns: u64,
}

pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for s in spans {
        let t = totals.entry(s.name).or_default();
        t.calls += 1;
        t.ns += s.end_ns - s.start_ns;
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        t.self_ns += self_time((s.start_ns, s.end_ns), kids);
    }
    totals
}

/// Writes spans as a JSON array, one object per span.
pub fn write_trace(path: &std::path::Path, phases: &[(&str, &[Span])]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    let mut first = true;
    for (phase, spans) in phases {
        for s in *spans {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "{{\"phase\":\"{phase}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"query\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.query, s.start_ns, s.end_ns
            )?;
        }
    }
    writeln!(out, "\n]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); two workers' children overlap on [20, 30) and a
        // third sits inside the second; one child leaks past the parent.
        let children = [(10, 30), (20, 50), (25, 35), (90, 130)];
        // Union inside the parent: [10, 50) + [90, 100) = 50 ns.
        assert_eq!(self_time((0, 100), &children), 50);
        // No children: all self. Fully covered: none.
        assert_eq!(self_time((5, 9), &[]), 4);
        assert_eq!(self_time((5, 9), &[(0, 20), (6, 7)]), 0);
        // Children entirely outside are ignored.
        assert_eq!(self_time((10, 20), &[(0, 10), (20, 30)]), 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        let ctx = Ctx::root(&tracer, 0);
        {
            let outer = ctx.span("a");
            let _inner = ctx.under(&outer).span("b");
            ctx.add("c", 3);
        }
        let (spans, counters) = tracer.take();
        assert!(spans.is_empty() && counters.is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_totals_use_self_time() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let ctx = Ctx::root(&tracer, 7);
        {
            let outer = ctx.span("outer");
            let inner_ctx = ctx.under(&outer);
            drop(inner_ctx.span("inner"));
            inner_ctx.add("inner.items", 2);
        }
        let (spans, counters) = tracer.take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((outer.parent, outer.query, inner.query), (0, 7, 7));
        assert_eq!(counters.get("inner.items"), Some(&2));
        let totals = layer_totals(&spans);
        let o = totals["outer"];
        assert_eq!(o.calls, 1);
        assert_eq!(
            o.self_ns,
            (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
        );
    }
}
