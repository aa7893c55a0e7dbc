//! Machine-readable reports for the bench bins: every bin accepts
//! `--json <path>` and mirrors its printed table into a schema-tagged JSON
//! document built on [`talft_obs::Json`].
//!
//! Schema stability contract: every report carries a top-level `"schema"`
//! string (`"talft.<bin>.v1"`); object keys are emitted in fixed insertion
//! order and are only ever *added*, never renamed or removed, within a
//! schema version. Downstream tooling (CI smoke checks, EXPERIMENTS.md
//! regeneration) may rely on any key documented here.

use std::path::PathBuf;

use talft_faultsim::CampaignReport;
use talft_obs::Json;

use crate::{CoverageRow, Fig10Row, MultifaultRow, MutationSummary};

/// Parse `--name N` or `--name=N` from the process arguments; `None` when
/// the flag is absent. A value that does not parse as `T` is a usage
/// error, like a missing one (see [`arg_str`]).
#[must_use]
pub fn arg<T: std::str::FromStr>(name: &str) -> Option<T> {
    let v = arg_str(name)?;
    match v.parse() {
        Ok(n) => Some(n),
        Err(_) => usage_error(&format!("cannot parse the value `{v}` of `{name}`")),
    }
}

/// Parse `--name VALUE` or `--name=VALUE` from the process arguments;
/// `None` when the flag is absent. A flag with no value — last on the
/// line, followed by another `--flag`, or `--name=` — is a usage error:
/// the bin exits 1 naming the flag instead of running its default.
#[must_use]
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = match args.iter().position(|a| a == name) {
        Some(i) => args.get(i + 1).filter(|v| !v.starts_with("--")).cloned(),
        None => Some(
            args.iter()
                .find_map(|a| a.strip_prefix(name)?.strip_prefix('='))?
                .to_owned(),
        ),
    };
    match value {
        Some(v) if !v.is_empty() => Some(v),
        _ => usage_error(&format!("`{name}` needs a value")),
    }
}

/// Report a command-line usage error, naming the bin, and exit 1.
fn usage_error(msg: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&argv0).file_name().unwrap_or_default();
    eprintln!("{}: {msg}", bin.to_string_lossy());
    std::process::exit(1);
}

/// The `--json <path>` destination, if requested on the command line.
/// Bins read it before they start work, so a bad flag fails fast.
#[must_use]
pub fn json_path() -> Option<PathBuf> {
    arg_str("--json").map(PathBuf::from)
}

/// Write a report to `path` (pretty-printed, trailing newline). Exits the
/// process with an error on I/O failure — bins have no recovery story.
pub fn write_json(json: &Json, path: &std::path::Path) {
    if let Err(e) = std::fs::write(path, format!("{json}\n")) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// If a `--json` destination was given ([`json_path`]), build the report
/// with `make` and write it there. `make` runs only when one was.
pub fn emit(path: Option<PathBuf>, make: impl FnOnce() -> Json) {
    if let Some(path) = path {
        write_json(&make(), &path);
    }
}

/// A report under construction: a `"schema"`-tagged ordered JSON object.
#[derive(Debug)]
pub struct Report {
    fields: Vec<(String, Json)>,
}

impl Report {
    /// Start a report with schema tag `talft.<bin>.v1`.
    #[must_use]
    pub fn new(schema: &str) -> Self {
        Self {
            fields: vec![("schema".to_owned(), Json::str(schema))],
        }
    }

    /// Append a field (insertion order is serialization order).
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    /// Append the current observability snapshot under `"obs"` (only
    /// meaningful when the bin enabled instrumentation).
    #[must_use]
    pub fn with_obs(self) -> Self {
        self.field("obs", talft_obs::snapshot().to_json())
    }

    /// Finish the report.
    #[must_use]
    pub fn build(self) -> Json {
        Json::Object(self.fields)
    }
}

/// A [`CampaignReport`] as JSON (shared by the coverage / multifault /
/// perfreport schemas).
#[must_use]
pub fn campaign_json(r: &CampaignReport) -> Json {
    Json::obj([
        ("total", Json::U64(r.total)),
        ("masked", Json::U64(r.masked)),
        ("detected", Json::U64(r.detected)),
        ("sdc", Json::U64(r.sdc)),
        ("other_violations", Json::U64(r.other_violations)),
        ("engine_errors", Json::U64(r.engine_errors)),
        ("incomplete_plans", Json::U64(r.incomplete_plans)),
        ("fault_order", Json::U64(u64::from(r.fault_order))),
        ("stopped_early", Json::Bool(r.stopped_early)),
        ("coverage", Json::F64(r.coverage())),
        ("fault_tolerant", Json::Bool(r.fault_tolerant())),
        (
            "detection_latency",
            Json::obj([
                ("mean", Json::F64(r.detection_latency.mean())),
                ("max", Json::U64(r.detection_latency.max)),
            ]),
        ),
    ])
}

/// Figure 10 rows plus geomeans (`talft.fig10.v1` payload).
#[must_use]
pub fn fig10_json(rows: &[Fig10Row]) -> Json {
    let go = crate::geomean(&rows.iter().map(Fig10Row::ratio_ordered).collect::<Vec<_>>());
    let gu = crate::geomean(
        &rows
            .iter()
            .map(Fig10Row::ratio_unordered)
            .collect::<Vec<_>>(),
    );
    Json::obj([
        (
            "rows",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(r.name)),
                            ("base_cycles", Json::U64(r.base_cycles)),
                            ("talft_cycles", Json::U64(r.talft_cycles)),
                            (
                                "talft_unordered_cycles",
                                Json::U64(r.talft_unordered_cycles),
                            ),
                            ("ratio_ordered", Json::F64(r.ratio_ordered())),
                            ("ratio_unordered", Json::F64(r.ratio_unordered())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("geomean_ordered", Json::F64(go)),
        ("geomean_unordered", Json::F64(gu)),
    ])
}

/// Coverage rows (`talft.coverage.v1` payload).
#[must_use]
pub fn coverage_json(rows: &[CoverageRow]) -> Json {
    Json::Array(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::str(r.name)),
                    ("protected", campaign_json(&r.protected)),
                    ("baseline", campaign_json(&r.baseline)),
                ])
            })
            .collect(),
    )
}

/// Multifault rows (`talft.multifault.v3` payload).
#[must_use]
pub fn multifault_json(rows: &[MultifaultRow]) -> Json {
    Json::Array(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::str(r.name)),
                    ("k", Json::U64(u64::from(r.k))),
                    ("protected", campaign_json(&r.protected)),
                ])
            })
            .collect(),
    )
}

/// Mutation-oracle summary (`talft.mutation.v1` payload).
#[must_use]
pub fn mutation_json(s: &MutationSummary) -> Json {
    Json::obj([
        (
            "per_op",
            Json::Array(
                s.per_op
                    .iter()
                    .map(|(op, sc)| {
                        Json::obj([
                            ("operator", Json::str(op.name())),
                            ("principle", Json::str(op.principle())),
                            ("total", Json::U64(sc.total)),
                            ("killed_by_checker", Json::U64(sc.killed_by_checker)),
                            ("killed_by_lint", Json::U64(sc.killed_by_lint)),
                            (
                                "killed_by_campaign_only",
                                Json::U64(sc.killed_by_campaign_only),
                            ),
                            ("equivalent", Json::U64(sc.equivalent)),
                            ("score", Json::F64(sc.score())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total", Json::U64(s.total())),
        ("score", Json::F64(s.score())),
        (
            "killed_by_lint",
            Json::U64(s.per_op.iter().map(|(_, sc)| sc.killed_by_lint).sum()),
        ),
        ("campaign_only", Json::U64(s.campaign_only.len() as u64)),
        ("equivalents", Json::U64(s.equivalents.len() as u64)),
    ])
}

/// A labeled geomean sweep row (`ablation` / `loopshape` / `optlevel`).
#[must_use]
pub fn sweep_row_json(label: &str, geomean: f64, base_cycles: u64, talft_cycles: u64) -> Json {
    Json::obj([
        ("label", Json::str(label)),
        ("geomean", Json::F64(geomean)),
        ("base_cycles", Json::U64(base_cycles)),
        ("talft_cycles", Json::U64(talft_cycles)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_leads_with_schema_and_roundtrips() {
        let json = Report::new("talft.test.v1")
            .field("rows", Json::Array(vec![Json::U64(1)]))
            .build();
        let text = json.to_string();
        assert!(text
            .trim_start()
            .starts_with("{\n  \"schema\": \"talft.test.v1\""));
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("talft.test.v1")
        );
    }

    #[test]
    fn campaign_json_has_stable_keys() {
        let rep = CampaignReport::default();
        let j = campaign_json(&rep);
        for key in [
            "total",
            "masked",
            "detected",
            "sdc",
            "other_violations",
            "coverage",
            "fault_tolerant",
            "detection_latency",
        ] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
    }
}
