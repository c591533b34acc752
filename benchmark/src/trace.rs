//! In-memory span recorder for the `--trace 1` runs.
//!
//! The client records each request's phases as spans once the exchange
//! has finished — the program itself is not instrumented. Each span has
//! a name, start, end, the span it belongs to and the request id that is
//! also sent as the `x-leapme-request-id` header. The recorder keeps
//! everything in memory and renders Chrome trace-event JSON at exit.
//! A disabled recorder records nothing.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer name (`module.operation`).
    pub name: &'static str,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, microseconds since the recorder was created.
    pub end_us: f64,
    /// Small per-thread id.
    pub tid: u64,
    /// Request the span belongs to.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// The recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A recorder; `enabled: false` makes every record a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record an already-measured interval as a span under `parent`;
    /// returns its id (`0` when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        request: Option<u64>,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            start_us: self.micros(start),
            end_us: self.micros(end),
            tid: thread_id(),
            request,
        });
        id
    }

    fn micros(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .push(span);
    }

    /// Every finished span, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .clone()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Chrome trace-event JSON of every recorded span.
    pub fn chrome_json(&self) -> String {
        let events: Vec<ChromeEvent> = self
            .spans()
            .into_iter()
            .map(|s| ChromeEvent {
                name: s.name.to_string(),
                cat: s.name.split('.').next().unwrap_or("").to_string(),
                ph: "X".to_string(),
                ts: s.start_us,
                dur: s.end_us - s.start_us,
                pid: 1,
                tid: s.tid,
                args: ChromeArgs {
                    id: s.id,
                    parent: s.parent,
                    request_id: s.request,
                },
            })
            .collect();
        serde_json::to_string(&ChromeTrace {
            traceEvents: events,
            displayTimeUnit: "ms".to_string(),
        })
        .expect("trace events serialize")
    }
}

/// Field names are the trace-event format's own.
#[derive(serde::Serialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
    displayTimeUnit: String,
}

#[derive(serde::Serialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u32,
    tid: u64,
    args: ChromeArgs,
}

#[derive(serde::Serialize)]
struct ChromeArgs {
    id: u64,
    parent: Option<u64>,
    request_id: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_spans_keep_parents_requests_and_durations() {
        let t = Tracer::new(true);
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mid = Instant::now();
        let end = Instant::now();
        let parent = t.record("http.request", Some(7), None, start, end);
        let child = t.record("http.ttfb", Some(7), Some(parent), start, mid);
        assert!(parent > 0 && child > parent);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(parent));
        assert_eq!(spans[1].request, Some(7));
        assert!(t.durations("http.ttfb")[0] >= 0.002);
        assert!(t.durations("http.request")[0] >= t.durations("http.ttfb")[0]);
        let json = t.chrome_json();
        assert!(json.contains("\"traceEvents\"") && json.contains("\"request_id\":7"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(
            t.record(
                "http.connect",
                Some(1),
                None,
                Instant::now(),
                Instant::now()
            ),
            0
        );
        assert!(t.spans().is_empty());
    }
}
