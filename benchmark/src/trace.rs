//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span holds a name, a start, an end, the span open around it when it
//! began (its parent) and, where there is one, a request id.  Spans are kept
//! in memory and written out as Chrome trace-event JSON when the run ends;
//! the per-layer timings are read back from them.  A disabled tracer records
//! nothing, so the untraced runs that give the end-to-end metrics pay one
//! branch per span.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer boundary, e.g. `milp.plan`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span served, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans on the benchmark's own (single) thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[index].end_ns = end;
            let mut open = self.tracer.open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == index) {
                open.truncate(pos);
            }
        }
    }
}

impl Tracer {
    /// A tracer that records only while enabled.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switches recording on or off for the spans opened from now on.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span with no request id.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open_span(name, None)
    }

    /// Opens a span serving one request.
    pub fn span_for(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        self.open_span(name, Some(request))
    }

    fn open_span(&self, name: &'static str, request: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.borrow().last().copied(),
            request,
        });
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Durations in seconds of every finished span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// A copy of every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The spans as Chrome trace-event JSON (complete `X` events in
    /// microseconds; the parent and request ride in `args`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_span_open_when_they_start() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer");
            {
                let _a = t.span_for("inner", 7);
            }
            let _b = t.span("inner");
        }
        let _after = t.span("after");
        drop(_after);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(7));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(t.durations("inner").len(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("x"));
        assert_eq!(t.len(), 0);
        t.set_enabled(true);
        drop(t.span("x"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn chrome_json_carries_every_span() {
        let t = Tracer::new(true);
        {
            let _a = t.span("a");
            let _b = t.span_for("b", 3);
        }
        let json = t.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"request\":3"));
    }
}
