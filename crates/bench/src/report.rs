//! Machine-readable reports for the bench bins: every bin accepts
//! `--json <path>` and mirrors its printed table into a schema-tagged JSON
//! document built on [`talft_obs::Json`].
//!
//! Schema stability contract: every report carries a top-level `"schema"`
//! string (`"talft.<bin>.v<N>"`); object keys are emitted in fixed insertion
//! order and are only ever *added*, never renamed or removed, within a
//! schema version. Downstream tooling (CI smoke checks, EXPERIMENTS.md
//! regeneration) may rely on any key documented here.

use std::path::PathBuf;

use talft_obs::Json;

use crate::{Fig10Row, MutationSummary};

/// Refuse every command-line argument the bin does not name. `flags` take
/// a value (`--name V` or `--name=V`), `switches` take none. Anything else
/// (a misspelt flag, a stray word, a flag without its value, a switch
/// given one) is a usage error: the bin exits 1 naming it, before any work
/// and without writing a file. Every bin calls this first.
pub fn flags(flags: &[&str], switches: &[&str]) {
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let (name, value) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_owned())),
            None => (arg.as_str(), None),
        };
        if flags.contains(&name) {
            let value = value.or_else(|| args.next_if(|v| !v.starts_with("--")));
            if value.is_none_or(|v| v.is_empty()) {
                usage_error(&format!("`{name}` needs a value"));
            }
        } else if !switches.contains(&name) {
            usage_error(&format!("unknown argument `{name}`"));
        } else if value.is_some() {
            usage_error(&format!("`{name}` takes no value"));
        }
    }
}

/// Parse `--name N` or `--name=N` from the process arguments; `None` when
/// the flag is absent. A value that does not parse as `T` is a usage
/// error, like a missing one (see [`flags`]).
#[must_use]
pub fn arg<T: std::str::FromStr>(name: &str) -> Option<T> {
    let v = arg_str(name)?;
    match v.parse() {
        Ok(n) => Some(n),
        Err(_) => usage_error(&format!("cannot parse the value `{v}` of `{name}`")),
    }
}

/// Read `--name VALUE` or `--name=VALUE` from the process arguments, which
/// [`flags`] has already checked; `None` when the flag is absent.
fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().position(|a| a == name) {
        Some(i) => args.get(i + 1).cloned(),
        None => args
            .iter()
            .find_map(|a| a.strip_prefix(name)?.strip_prefix('='))
            .map(str::to_owned),
    }
}

/// The name the bin was invoked as, for its error messages.
fn bin_name() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&argv0).file_name().unwrap_or_default();
    bin.to_string_lossy().into_owned()
}

/// Report a command-line usage error, naming the bin, and exit 1.
fn usage_error(msg: &str) -> ! {
    eprintln!("{}: {msg}", bin_name());
    std::process::exit(1);
}

/// The `--json <path>` destination, if requested on the command line.
/// Bins read it before they start work, so a bad flag fails fast.
#[must_use]
pub fn json_path() -> Option<PathBuf> {
    arg_str("--json").map(PathBuf::from)
}

/// If a `--json` destination was given ([`json_path`]), build the report
/// with `make` and write it there (pretty-printed, trailing newline).
/// `make` runs only when one was. Exits 1 on an I/O failure — bins have
/// no recovery story.
pub fn emit(path: Option<PathBuf>, make: impl FnOnce() -> Json) {
    let Some(path) = path else { return };
    if let Err(e) = std::fs::write(&path, format!("{}\n", make())) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// The `--check <path>` reader every bin that has one shares: read and
/// parse the report at `path`, demand the schema tag `schema` and every
/// key in `required`, then run the bin's `gate` over its count invariants
/// (never timings, which vary by machine). Exits 0 after an OK line on
/// stdout, or 1 with the reason on stderr. The file may be forged: the
/// parser bounds nesting, and gates widen the sums and products they
/// compare so no count can wrap or overflow.
pub fn check(
    path: &str,
    schema: &str,
    required: &[&str],
    gate: impl FnOnce(&Json) -> Result<(), String>,
) -> ! {
    let bin = bin_name();
    let fail = |msg: &str| -> ! {
        eprintln!("{bin}: {path}: {msg}");
        std::process::exit(1);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read: {e}")));
    let json = Json::parse(&text).unwrap_or_else(|e| fail(&format!("not valid JSON: {e}")));
    let found = json.get("schema").and_then(Json::as_str).unwrap_or("");
    if found != schema {
        fail(&format!("schema tag {found:?}, expected {schema:?}"));
    }
    if let Some(key) = required.iter().find(|k| json.get(k).is_none()) {
        fail(&format!("missing required key {key:?}"));
    }
    if let Err(msg) = gate(&json) {
        fail(&msg);
    }
    println!("{bin}: {path} OK (schema {schema})");
    std::process::exit(0);
}

/// A report under construction: a `"schema"`-tagged ordered JSON object.
#[derive(Debug)]
pub struct Report {
    fields: Vec<(String, Json)>,
}

impl Report {
    /// Start a report with schema tag `schema` (`talft.<bin>.v<N>`).
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

    /// Finish the report.
    #[must_use]
    pub fn build(self) -> Json {
        Json::Object(self.fields)
    }
}

/// Figure 10 rows plus geomeans (the `data` of `talft.fig10.v2`).
#[must_use]
pub fn fig10_json(rows: &[Fig10Row]) -> Json {
    let (go, gu) = crate::geomeans(rows);
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
}
