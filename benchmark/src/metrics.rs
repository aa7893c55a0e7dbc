//! The metric dictionary. `BENCHMARK.json` is its one declaration (names,
//! units, directions, bounds, workloads); it is compiled into the binary
//! and read through [`spec`]. This module holds only what the JSON cannot
//! say: which span feeds which metric, each layer's self-time metric, each
//! ratio's base, and the absolute bound floors.

use std::sync::OnceLock;

use talft_obs::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, failures).
    Lower,
    /// Larger is better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// Parse the `BENCHMARK.json` spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct SpecMetric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark uses.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Declared workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, printed by the untraced run, in order.
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics, printed by the traced run, in order.
    pub per_layer: Vec<SpecMetric>,
}

/// `BENCHMARK.json` as the benchmark was built with it.
const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// The benchmark's declaration, parsed once.
///
/// # Panics
///
/// If the embedded `BENCHMARK.json` is malformed (a unit test parses it).
#[must_use]
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse_spec(SPEC_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<SpecMetric>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("a `{key}` entry lacks `{k}`"))
            };
            Ok(SpecMetric {
                name: s("name")?,
                unit: s("unit")?,
                better: Better::parse(&s("better")?)
                    .ok_or_else(|| format!("bad `better` in `{key}`"))?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Parse a `BENCHMARK.json` document.
///
/// # Errors
///
/// Malformed JSON or a missing key.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("`workloads` is not an array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| "a workload lacks `name`".to_owned())
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        workloads,
        end_to_end: metric_list(&doc, "end_to_end")?,
        per_layer: metric_list(&doc, "per_layer")?,
    })
}

/// Span name → the per-layer busy-time metric it feeds.
pub const SPAN_BUSY: &[(&str, &str)] = &[
    ("compiler.compile", "compiler.compile.busy_s"),
    ("compiler.parse", "compiler.parse.busy_s"),
    ("compiler.sema", "compiler.sema.busy_s"),
    ("compiler.lower", "compiler.lower.busy_s"),
    ("compiler.dup", "compiler.dup.busy_s"),
    ("compiler.sched", "compiler.sched.busy_s"),
    ("compiler.regalloc", "compiler.regalloc.busy_s"),
    ("compiler.emit", "compiler.emit.busy_s"),
    ("compiler.interpret", "compiler.interpret.busy_s"),
    ("core.check", "core.check.busy_s"),
    ("machine.run", "machine.run.busy_s"),
    ("sim.simulate", "sim.simulate.busy_s"),
    ("faultsim.golden", "faultsim.golden.busy_s"),
    ("faultsim.plans", "faultsim.plans.busy_s"),
    ("faultsim.plans_k2", "faultsim.plans.k2_busy_s"),
    ("faultsim.campaign", "faultsim.campaign.busy_s"),
    ("analysis.zap", "analysis.zap.busy_s"),
    ("analysis.pair_new", "analysis.pair.new_busy_s"),
    ("analysis.pair_report", "analysis.pair.report_busy_s"),
    ("analysis.lint", "analysis.lint.busy_s"),
    ("oracle.mutants", "oracle.mutants.busy_s"),
];

/// Layer → its self-time metric. The layers' self times must account for
/// the traced pass.
pub const LAYERS: &[(&str, &str)] = &[
    ("compiler", "compiler.self_s"),
    ("core", "core.self_s"),
    ("machine", "machine.self_s"),
    ("sim", "sim.self_s"),
    ("faultsim", "faultsim.self_s"),
    ("analysis", "analysis.self_s"),
    ("oracle", "oracle.self_s"),
];

/// Ratio metric → the metric holding its base (the denominator).
pub const RATIO_BASES: &[(&str, &str)] = &[
    ("logic.cache.hit_ratio", "logic.cache.lookups"),
    ("logic.interval.hit_ratio", "logic.interval.queries"),
    ("faultsim.batch.admit_ratio", "faultsim.plans.count"),
    ("faultsim.batch.demote_ratio", "faultsim.batch.lanes"),
    ("campaign.converged_early_ratio", "faultsim.plans.count"),
    ("bench.trace_overhead", "bench.untraced_pass_s"),
];

/// End-to-end metric → the absolute change (in its unit) that always counts
/// as within bound, whatever the relative bound says. Set-up is
/// microseconds on some workloads, where scheduler jitter alone exceeds a
/// relative bound; its bound is max(25%, 0.05 s).
pub const FLOORS: &[(&str, f64)] = &[("setup_s", 0.05)];

/// The absolute floor of an end-to-end metric (0 for most).
#[must_use]
pub fn floor(name: &str) -> f64 {
    FLOORS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, f)| f)
}

/// The end-to-end metric reported as a tail percentile.
pub const TAIL: &str = "program_ms_tail";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_and_the_mappings_name_declared_metrics() {
        let s = spec();
        let e2e = |n: &str| s.end_to_end.iter().any(|m| m.name == n);
        let layer = |n: &str| s.per_layer.iter().any(|m| m.name == n);
        let mut names: Vec<&str> = s
            .end_to_end
            .iter()
            .chain(&s.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for (_, m) in SPAN_BUSY.iter().chain(LAYERS) {
            assert!(layer(m), "{m} is not declared");
        }
        for (r, b) in RATIO_BASES {
            assert!(layer(r) && layer(b), "{r}/{b}");
        }
        for (m, _) in FLOORS {
            assert!(e2e(m), "{m} is not declared");
        }
        assert!(e2e(TAIL));
        let bounds: Vec<f64> = s
            .end_to_end
            .iter()
            .map(|m| m.bound.unwrap_or(0.0))
            .collect();
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        let setup = s
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(bounds.iter().all(|&b| b <= setup.bound.unwrap_or(0.0)));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
