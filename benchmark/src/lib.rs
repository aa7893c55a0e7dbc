//! The talft benchmark: four seeded workloads driven through the public API
//! of every layer (compiler, checker and solver, machine, timing simulator,
//! fault-injection engine, static analyzers, mutation oracle), end-to-end
//! metrics from an untraced run, per-layer metrics from a traced one, and
//! the `check`/`compare` tools. See `README.md` for the metric dictionary.

#![warn(missing_docs)]

pub mod metrics;
pub mod run;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;

use talft_obs::Json;

use crate::run::{Outcome, RunConfig};

/// The result file `run --json` writes: the run's identity, its outcome,
/// and every metric with its unit, ratio base and tail percentile.
#[must_use]
pub fn result_json(cfg: &RunConfig, o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value".to_owned(), Json::F64(m.value)),
                ("unit".to_owned(), Json::str(m.unit)),
            ];
            if let Some(b) = m.base {
                fields.push(("base".to_owned(), Json::F64(b)));
            }
            if let Some((p, n, beyond)) = m.tail {
                fields.push(("percentile".to_owned(), Json::F64(p)));
                fields.push(("samples".to_owned(), Json::U64(n as u64)));
                fields.push(("beyond".to_owned(), Json::U64(beyond as u64)));
            }
            (m.name.to_owned(), Json::Object(fields))
        })
        .collect();
    Json::obj([
        ("schema", Json::str("talft.benchmark.v1")),
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::U64(cfg.seed)),
        ("seconds", Json::F64(cfg.seconds)),
        ("trace", Json::Bool(cfg.traced)),
        ("threads", Json::U64(cfg.threads as u64)),
        (
            "pass_s",
            Json::Array(o.pass_s.iter().map(|&s| Json::F64(s)).collect()),
        ),
        (
            "ref_s",
            Json::Array(o.ref_s.iter().map(|&s| Json::F64(s)).collect()),
        ),
        ("correct", Json::Bool(true)),
        ("attempted", Json::U64(o.attempted)),
        ("failed", Json::U64(o.failed)),
        ("metrics", Json::Object(metrics)),
    ])
}

/// The one-line summary a run prints last on stdout:
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
#[must_use]
pub fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect::<Vec<_>>();
    let doc = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::U64(o.attempted)),
        ("failed", Json::U64(o.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    // The pretty printer escapes newlines inside strings, so joining its
    // lines yields the same document on one line.
    doc.to_string().lines().map(str::trim_start).collect()
}
