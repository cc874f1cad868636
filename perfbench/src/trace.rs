//! Spans recorded by the benchmark around its calls into the program:
//! name, start, end, the span that caused it and, for serve traffic, the
//! request it belongs to. Kept in memory and written out when the run
//! ends; per-layer self time is computed from them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub request: Option<u64>,
}

impl SpanRec {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder of one run. A disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: the implicit parent.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span whose parent is the innermost span open on this thread.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent: None,
                name: String::new(),
                start: Instant::now(),
            };
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id,
            parent,
            name: name.to_owned(),
            start: Instant::now(),
        }
    }

    /// Records an already-measured interval as a finished span.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let rec = SpanRec {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_owned(),
            start: start.duration_since(self.epoch).as_secs_f64(),
            end: end.duration_since(self.epoch).as_secs_f64(),
            request,
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(rec);
    }

    /// Every finished span, in the order they ended.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::duration)
            .sum()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let request = s.request.map_or("null".to_owned(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":{:?},\"start_s\":{},\"end_s\":{},\"request\":{request}}}",
                s.id, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Ends its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

impl SpanGuard<'_> {
    /// The span's id (`None` when the tracer is off), the parent of spans
    /// recorded on other threads.
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&id| id == self.id) {
                o.remove(pos);
            }
        });
        let end = Instant::now();
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start: self.start.duration_since(self.tracer.epoch).as_secs_f64(),
            end: end.duration_since(self.tracer.epoch).as_secs_f64(),
            request: None,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (overlapping children counted once).
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0.0, |c| covered_length(c, s.start, s.end));
        *out.entry(s.name.clone()).or_insert(0.0) += (s.duration() - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_length(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: name.into(),
            start,
            end,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, "job", 0.0, 10.0),
            rec(2, Some(1), "a", 1.0, 4.0),
            rec(3, Some(1), "b", 3.0, 6.0), // overlaps a: union 1..6
            rec(4, Some(2), "leaf", 2.0, 3.0),
            rec(5, Some(1), "c", 9.0, 12.0), // clipped to 9..10
        ];
        let t = self_times(&spans);
        assert!((t["job"] - 4.0).abs() < 1e-12, "{t:?}");
        assert!((t["a"] - 2.0).abs() < 1e-12);
        assert!((t["b"] - 3.0).abs() < 1e-12);
        assert!((t["leaf"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nested_guards_record_parents() {
        let tracer = Tracer::new(true);
        {
            let outer = tracer.span("outer");
            let outer_id = outer.id();
            {
                let _inner = tracer.span("inner");
            }
            let now = Instant::now();
            tracer.record("remote", outer_id, Some(7), now, now);
        }
        let spans = tracer.spans();
        let by = |n: &str| {
            spans
                .iter()
                .find(|s| s.name == n)
                .expect("span recorded")
                .clone()
        };
        let outer = by("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by("inner").parent, Some(outer.id));
        assert_eq!(by("remote").parent, Some(outer.id));
        assert_eq!(by("remote").request, Some(7));
        assert!(outer.start <= by("inner").start && by("inner").end <= outer.end);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let g = tracer.span("x");
            assert_eq!(g.id(), None);
        }
        assert!(tracer.spans().is_empty());
    }
}
