//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every call it makes into a layer
//! (name, start, end, parent, program id), keeps the spans in memory and
//! writes them at exit as Chrome trace-event JSON. Recording is off in the
//! untraced run, where `begin`/`end` cost one branch each.

use std::collections::BTreeMap;
use std::time::Instant;

use talft_obs::Json;

/// One closed (or still open) span. Times are nanoseconds since the
/// tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `core.check`; `bench.*` spans are the
    /// benchmark's own structure (pass, input, replay).
    pub name: &'static str,
    /// Start, in ns since the tracer origin.
    pub start_ns: u64,
    /// End, in ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The input the span worked on (0 for pass-level spans).
    pub program: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the text before the first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. Spans nest strictly (one thread, LIFO).
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, initially off.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off (between passes, never inside one).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, program: u32) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            program,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close the span `open` names; it must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            assert_eq!(self.open.pop(), Some(idx), "spans closed out of order");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Duration of the most recently opened span, in seconds (0 when off).
    #[must_use]
    pub fn last_s(&self) -> f64 {
        match (self.on, self.spans.last()) {
            (true, Some(s)) => s.dur_ns() as f64 / 1e9,
            _ => 0.0,
        }
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-span self time: its duration minus the durations of its direct
/// children. `spans` is the run of spans starting at index `first` of the
/// recorder (parents are recorder indices); parents before it are ignored.
/// Signed so a malformed tree shows up as a negative value instead of
/// wrapping.
#[must_use]
pub fn self_ns(spans: &[Span], first: usize) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(slot) = s.parent.and_then(|p| p.checked_sub(first)) {
            out[slot] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Total duration per span name, in seconds.
#[must_use]
pub fn busy_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for s in spans {
        *m.entry(s.name).or_insert(0.0) += s.dur_ns() as f64 / 1e9;
    }
    m
}

/// Total self time per layer (`bench` excluded), in seconds, over the
/// spans starting at recorder index `first`.
#[must_use]
pub fn layer_self_s(spans: &[Span], first: usize) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_ns(spans, first)) {
        if s.layer() != "bench" {
            *m.entry(s.layer()).or_insert(0.0) += self_ns as f64 / 1e9;
        }
    }
    m
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): one complete (`"ph": "X"`) event per span, times in µs, with
/// the span index, parent index and program id under `args`.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                ("dur", Json::F64(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(1)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::U64(i as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("program", Json::U64(u64::from(s.program))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new();
        t.set_on(true);
        let a = t.begin("bench.pass", 0);
        let b = t.begin("core.check", 1);
        t.end(b);
        let c = t.begin("compiler.compile", 2);
        t.end(c);
        t.end(a);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = self_ns(spans, 0);
        assert!(selfs.iter().all(|&s| s >= 0));
        assert_eq!(
            selfs[0],
            (spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()) as i64
        );
        assert!(!layer_self_s(spans, 0).contains_key("bench"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new();
        let a = t.begin("core.check", 1);
        t.end(a);
        assert!(t.spans().is_empty());
    }
}
