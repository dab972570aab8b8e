//! In-memory spans recorded from the benchmark's own code around calls
//! into each layer's public functions. Spans are kept in memory and
//! written out once, when the run ends.

use crate::measure::self_time;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub thread: u64,
    /// The workload op (circuit run, apply, job) the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// calls it makes can record child spans.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                name,
                start,
                end,
                thread: THREAD.with(|t| *t),
                op,
            });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span buffer poisoned by a panicking recorder");
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub total: f64,
    pub self_time: f64,
}

/// Count, summed duration and summed self time per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.duration();
        t.self_time += self_time((s.start, s.end), kids);
    }
    out
}

/// The span dump: one JSON object per line, then one line per layer.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \
             \"thread\": {}, \"op\": {}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start,
            s.end,
            s.thread,
            s.op
        );
    }
    for (name, t) in layer_totals(spans) {
        let _ = writeln!(
            out,
            "{{\"layer\": \"{name}\", \"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
            t.count, t.total, t.self_time
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            thread: 1,
            op: 0,
        }
    }

    #[test]
    fn totals_split_self_time_from_children() {
        // A lookup [0, 10) whose compute child covers [2, 9); a second
        // lookup [10, 11) that hit (no child).
        let spans = vec![
            span(1, None, "cache.lookup", 0.0, 10.0),
            span(2, Some(1), "inter", 2.0, 9.0),
            span(3, None, "cache.lookup", 10.0, 11.0),
        ];
        let t = layer_totals(&spans);
        let lookup = t["cache.lookup"];
        assert_eq!(lookup.count, 2);
        assert!((lookup.total - 11.0).abs() < 1e-12);
        assert!((lookup.self_time - 4.0).abs() < 1e-12);
        assert!((t["inter"].self_time - 7.0).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_through_ids() {
        let tracer = Tracer::default();
        let inner = tracer.time("outer", None, 7, |outer| {
            tracer.time("inner", Some(outer), 7, |_| outer)
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let child = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer.id, inner);
        assert_eq!(child.parent, Some(outer.id));
        assert!(outer.start <= child.start && child.end <= outer.end);
        assert_eq!(child.op, 7);
        assert!(render(&spans).contains("\"layer\": \"inner\""));
    }
}
