//! The global metric registry: named metrics, stable snapshots, JSON
//! serialization.
//!
//! Metrics are registered on first use and live for the process lifetime
//! (leaked allocations — a bounded, name-keyed set). Names are dotted paths
//! (`"checker.instrs"`, `"campaign.verdict.sdc"`); snapshots iterate a
//! `BTreeMap`, so serialized output is deterministically ordered and safe to
//! diff across runs — the schema-stability contract the bench bins' `--json`
//! reports rely on.

use std::collections::BTreeMap;
use std::sync::RwLock;

use crate::json::Json;
use crate::metrics::{Counter, Histogram, MaxGauge};

/// One registered metric.
// Each Metric is leaked exactly once per name at registration; the histogram
// variant's bucket array dominating the enum size costs nothing per-site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Metric {
    /// Monotonic event counter.
    Counter(Counter),
    /// High-water-mark gauge.
    MaxGauge(MaxGauge),
    /// Log₂-bucket histogram.
    Histogram(Histogram),
}

fn registry() -> &'static RwLock<BTreeMap<&'static str, &'static Metric>> {
    static REGISTRY: RwLock<BTreeMap<&'static str, &'static Metric>> = RwLock::new(BTreeMap::new());
    &REGISTRY
}

fn register_with(name: &'static str, make: impl FnOnce() -> Metric) -> &'static Metric {
    if let Some(m) = registry().read().expect("obs registry poisoned").get(name) {
        return m;
    }
    let mut w = registry().write().expect("obs registry poisoned");
    // Double-checked: another thread may have registered between the locks.
    if let Some(m) = w.get(name) {
        return m;
    }
    let leaked: &'static Metric = Box::leak(Box::new(make()));
    w.insert(name, leaked);
    leaked
}

/// Get-or-register the counter `name`.
///
/// # Panics
///
/// If `name` is already registered as a different metric kind.
#[must_use]
pub fn counter(name: &'static str) -> &'static Counter {
    match register_with(name, || Metric::Counter(Counter::new())) {
        Metric::Counter(c) => c,
        other => panic!("metric {name:?} already registered as {other:?}, wanted a counter"),
    }
}

/// Get-or-register the max-gauge `name`.
///
/// # Panics
///
/// If `name` is already registered as a different metric kind.
#[must_use]
pub fn max_gauge(name: &'static str) -> &'static MaxGauge {
    match register_with(name, || Metric::MaxGauge(MaxGauge::new())) {
        Metric::MaxGauge(g) => g,
        other => panic!("metric {name:?} already registered as {other:?}, wanted a max-gauge"),
    }
}

/// Get-or-register the histogram `name`.
///
/// # Panics
///
/// If `name` is already registered as a different metric kind.
#[must_use]
pub fn histogram(name: &'static str) -> &'static Histogram {
    match register_with(name, || Metric::Histogram(Histogram::new())) {
        Metric::Histogram(h) => h,
        other => panic!("metric {name:?} already registered as {other:?}, wanted a histogram"),
    }
}

/// Reset every registered metric to zero (report sectioning: the `campaign`
/// bench bin resets before each row's batched pass so the pass's numbers
/// are attributable).
pub fn reset_all() {
    for m in registry().read().expect("obs registry poisoned").values() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::MaxGauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// A point-in-time copy of every registered metric, ordered by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `name → value` for counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// `name → maximum` for max-gauges.
    pub max_gauges: BTreeMap<&'static str, u64>,
    /// `name → (count, sum, max, mean, non-empty buckets)` for histograms.
    pub histograms: BTreeMap<&'static str, HistSnapshot>,
}

/// Histogram aggregate inside a [`Snapshot`].
#[derive(Debug, Clone, Default)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Non-empty `(bucket_lo, count)` pairs, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// Take a snapshot of the whole registry. Zero-valued metrics are included
/// (they are part of the schema once registered).
#[must_use]
pub fn snapshot() -> Snapshot {
    let mut s = Snapshot::default();
    for (&name, m) in registry().read().expect("obs registry poisoned").iter() {
        match m {
            Metric::Counter(c) => {
                s.counters.insert(name, c.get());
            }
            Metric::MaxGauge(g) => {
                s.max_gauges.insert(name, g.get());
            }
            Metric::Histogram(h) => {
                s.histograms.insert(
                    name,
                    HistSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        mean: h.mean(),
                        buckets: h.buckets().collect(),
                    },
                );
            }
        }
    }
    s
}

impl Snapshot {
    /// Serialize to the stable JSON shape documented in DESIGN.md
    /// (§Observability): `{"counters": {...}, "max_gauges": {...},
    /// "histograms": {name: {count, sum, max, mean, buckets: [[lo, n], …]}}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_owned(), Json::U64(v)))
            .collect();
        let gauges = self
            .max_gauges
            .iter()
            .map(|(&k, &v)| (k.to_owned(), Json::U64(v)))
            .collect();
        let hists = self
            .histograms
            .iter()
            .map(|(&k, h)| {
                (
                    k.to_owned(),
                    Json::obj([
                        ("count", Json::U64(h.count)),
                        ("sum", Json::U64(h.sum)),
                        ("max", Json::U64(h.max)),
                        ("mean", Json::F64(h.mean)),
                        (
                            "buckets",
                            Json::Array(
                                h.buckets
                                    .iter()
                                    .map(|&(lo, n)| Json::Array(vec![Json::U64(lo), Json::U64(n)]))
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("counters".to_owned(), Json::Object(counters)),
            ("max_gauges".to_owned(), Json::Object(gauges)),
            ("histograms".to_owned(), Json::Object(hists)),
        ])
    }

    /// Render a human-readable profile table (what `talftc --profile`
    /// prints): counters and gauges one per line, histograms with
    /// count/mean/max.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.max_gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            writeln!(out, "{k:width$}  {v}").expect("write to string");
        }
        for (k, v) in &self.max_gauges {
            writeln!(out, "{k:width$}  max {v}").expect("write to string");
        }
        for (k, h) in &self.histograms {
            writeln!(
                out,
                "{k:width$}  n {}  mean {:.0}  max {}",
                h.count, h.mean, h.max
            )
            .expect("write to string");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_enabled_guard;

    #[test]
    fn register_snapshot_reset_roundtrip() {
        let _g = test_enabled_guard();
        crate::set_enabled(true);
        counter("test.registry.counter").add(7);
        max_gauge("test.registry.gauge").record(41);
        histogram("test.registry.hist").record(100);
        let s = snapshot();
        assert_eq!(s.counters["test.registry.counter"], 7);
        assert_eq!(s.max_gauges["test.registry.gauge"], 41);
        assert_eq!(s.histograms["test.registry.hist"].count, 1);
        let js = s.to_json().to_string();
        assert!(js.contains("\"test.registry.counter\": 7"));
        let text = s.render_text();
        assert!(text.contains("test.registry.gauge"));
        reset_all();
        assert_eq!(counter("test.registry.counter").get(), 0);
    }

    #[test]
    fn same_name_returns_same_metric() {
        let a = counter("test.registry.same") as *const _;
        let b = counter("test.registry.same") as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn kind_mismatch_panics() {
        let _ = counter("test.registry.kind");
        let err = std::panic::catch_unwind(|| max_gauge("test.registry.kind"));
        assert!(err.is_err());
    }
}
