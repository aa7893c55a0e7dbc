//! The `--check` readers (`campaign` and `analysis`, both through
//! `report::check`) turn a hostile JSON file into a typed error: exit 1
//! with the reason on stderr, never a crash and never a pass. Every
//! `--check`, checkpoint, shard report and `talftd` file goes through
//! `talft_obs::Json::parse`, which bounds nesting; the gates widen the
//! sums and products they compare, so a forged count cannot wrap past
//! them in a release build or overflow in a debug one.

use std::process::{Command, Output};

use talft_obs::Json;

/// Each reader with its schema tag and first required key after `schema`.
const READERS: [(&str, &str, &str); 2] = [
    (
        env!("CARGO_BIN_EXE_campaign"),
        "talft.campaign.v2",
        "stride",
    ),
    (
        env!("CARGO_BIN_EXE_analysis"),
        "talft.analysis.v1",
        "kernels",
    ),
];

/// Run `bin --check` on a file holding `contents`.
fn check(bin: &str, case: &str, contents: &str) -> Output {
    let path = std::env::temp_dir().join(format!("talft-check-{}-{case}", std::process::id()));
    std::fs::write(&path, contents).expect("write fixture");
    let out = Command::new(bin)
        .arg("--check")
        .arg(&path)
        .output()
        .expect("bin runs");
    std::fs::remove_file(&path).ok();
    out
}

fn assert_refused(out: &Output, reason: &str) {
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(reason), "expected {reason:?} in {stderr}");
}

#[test]
fn every_reader_refuses_deep_nesting_a_wrong_tag_and_a_missing_key() {
    let deep = "[".repeat(200_000) + &"]".repeat(200_000);
    for (i, (bin, schema, key)) in READERS.into_iter().enumerate() {
        let nesting = "not valid JSON: nesting deeper than 128 at byte 128";
        assert_refused(&check(bin, &format!("deep-{i}"), &deep), nesting);
        let tag = format!("schema tag \"talft.bogus.v1\", expected \"{schema}\"");
        let bogus = r#"{"schema": "talft.bogus.v1"}"#;
        assert_refused(&check(bin, &format!("tag-{i}"), bogus), &tag);
        let bare = format!(r#"{{"schema": "{schema}"}}"#);
        let missing = format!("missing required key \"{key}\"");
        assert_refused(&check(bin, &format!("key-{i}"), &bare), &missing);
    }
}

/// Set the count at `path` in a parsed report; a numeric key indexes an
/// array.
fn set(json: &mut Json, path: &[&str], value: u64) {
    let slot = path.iter().fold(json, |j, key| match j {
        Json::Object(fields) => {
            let field = fields.iter_mut().find(|(k, _)| k == key);
            &mut field.unwrap_or_else(|| panic!("no key {key}")).1
        }
        Json::Array(items) => &mut items[key.parse::<usize>().expect("an index")],
        _ => panic!("{key}: not an object"),
    });
    *slot = Json::U64(value);
}

/// The committed `BENCH_campaign.json`, parsed, after asserting that it
/// passes `campaign --check` (`case` names the test's scratch file).
fn committed_campaign(case: &str) -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    let committed = std::fs::read_to_string(path).expect("committed report");
    let out = check(env!("CARGO_BIN_EXE_campaign"), case, &committed);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    Json::parse(&committed).expect("valid JSON")
}

#[test]
fn campaign_refuses_demotions_forged_to_wrap_the_budget() {
    let mut json = committed_campaign("committed-demotions");
    // 50 times this wraps a u64 to 84, under the committed lane count; the
    // per-cause sum still equals the total.
    let forged = 368_934_881_474_191_034;
    set(&mut json, &["batch", "demotions"], forged);
    for cause in ["mem_commit", "gpr_hi", "control_fork", "terminal"] {
        set(&mut json, &["batch", "demote", cause], 0);
    }
    set(&mut json, &["batch", "demote", "terminal"], forged);
    let budget = format!("batch.demotions {forged} exceeds the 2% budget");
    let bin = env!("CARGO_BIN_EXE_campaign");
    assert_refused(&check(bin, "forged-demotions", &json.to_string()), &budget);
}

#[test]
fn campaign_refuses_more_settled_plans_than_lanes() {
    let mut json = committed_campaign("committed-settled");
    let lanes = json
        .get("batch")
        .and_then(|b| b.get("lanes")?.as_u64())
        .expect("a lane count");
    set(&mut json, &["batch", "admission_settled"], lanes + 1);
    let reason = format!(
        "batch.admission_settled {} exceeds batch.lanes {lanes}",
        lanes + 1
    );
    let bin = env!("CARGO_BIN_EXE_campaign");
    assert_refused(&check(bin, "forged-settled", &json.to_string()), &reason);
}

#[test]
fn campaign_refuses_a_row_off_its_reference_or_with_protected_sdc() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    let committed = committed_campaign("committed-rows");
    let row = committed
        .get("rows")
        .and_then(|rows| rows.as_array()?.first())
        .expect("a first row");
    let name = row.get("name").and_then(Json::as_str).expect("a name");
    let masked = row.get("report").and_then(|r| r.get("masked")?.as_u64());
    let masked = masked.expect("a masked count");
    let label = format!("kernel {name} (protected k=1)");
    // Each forgery keeps the arithmetic every decoded report must keep, so
    // it reaches the gate under test.
    let mut off = committed.clone();
    set(&mut off, &["rows", "0", "reference", "incomplete_plans"], 1);
    let differs = format!("{label}: the reference report differs from the batched one");
    assert_refused(&check(bin, "off-reference", &off.to_string()), &differs);
    // Both engines agree on the forged SDC, so only the Theorem 4 gate
    // can refuse it.
    let mut sdc = committed;
    for report in ["report", "reference"] {
        set(&mut sdc, &["rows", "0", report, "masked"], masked - 1);
        set(&mut sdc, &["rows", "0", report, "sdc"], 1);
        set(&mut sdc, &["rows", "0", report, "violations_truncated"], 1);
    }
    let violated = format!("{label}: not fault-tolerant on a protected binary");
    assert_refused(&check(bin, "protected-sdc", &sdc.to_string()), &violated);
}

#[test]
fn small_campaigns_pass_their_own_check() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    // Without `--reference` the k=2 rows still run the reference leg,
    // which `--check` demands of every k≥2 row.
    for (i, legs) in [&["--reference", "--shards"][..], &[]]
        .into_iter()
        .enumerate()
    {
        let name = format!("talft-campaign-{}-{i}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        let out = Command::new(bin)
            .args([
                "--kernels",
                "1",
                "--k",
                "2",
                "--samples",
                "64",
                "--stride",
                "97",
            ])
            .args(legs)
            .arg("--json")
            .arg(&path)
            .output()
            .expect("bin runs");
        assert_eq!(out.status.code(), Some(0), "{legs:?}: {out:?}");
        let checked = Command::new(bin)
            .arg("--check")
            .arg(&path)
            .output()
            .expect("bin runs");
        std::fs::remove_file(&path).ok();
        assert_eq!(checked.status.code(), Some(0), "{legs:?}: {checked:?}");
    }
}

/// A one-kernel `analysis` report that passes `--check`, with the counts
/// its gate reads. On each side the k=1 section classifies 4 cells and the
/// k=2 section 6 pairs; the totals are that one row.
fn analysis_report() -> Json {
    let k1 = r#"{"cells": 4, "detected": 1, "benign": 3, "vulnerable": 0, "grid_sdc": 0,
        "checked": 4, "mismatches": 0, "lint_errors": 0}"#;
    let k2 = r#"{"cells": 4, "pairs": 6, "detected": 4, "benign": 2, "vulnerable": 0,
        "plans": 2, "checked": 2, "degenerate": 0, "mismatches": 0}"#;
    let sides = |s| format!(r#""protected": {s}, "baseline": {s}"#);
    let section = |s| {
        format!(
            r#""rows": [{{"name": "k", {}}}], "totals": {{{}}}"#,
            sides(s),
            sides(s)
        )
    };
    let text = format!(
        r#"{{"schema": "talft.analysis.v1", "kernels": 1,
            "k1": {{"stride": 1, {}}},
            "k2": {{"stride": 17, "samples": 128, {}, "exhaustive": []}}}}"#,
        section(k1),
        section(k2)
    );
    Json::parse(&text).expect("valid JSON")
}

/// Counts set at their paths in a report, and the refusal they draw.
type Forgery<'a> = (&'a [(&'a [&'a str], u64)], &'a str);

/// Protected totals that claim 5 mismatches or 7 grid SDC, a first row that
/// claims 10^19 detected cells, a baseline total that only the row sums
/// contradict, and pair classes whose sum wraps a `u64` to the six pairs:
/// each forgery alone is refused naming its field, and all of them together
/// by the first row's class sum.
#[test]
fn analysis_refuses_forged_classes_and_totals() {
    let bin = env!("CARGO_BIN_EXE_analysis");
    let honest = analysis_report();
    let out = check(bin, "analysis-honest", &honest.to_string());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let k2_row = |key| ["k2", "rows", "0", "protected", key];
    let forgeries: [Forgery; 5] = [
        (
            &[(&["k1", "rows", "0", "protected", "detected"], 10u64.pow(19))],
            "k1 kernel k (protected): detected + benign + vulnerable != cells",
        ),
        (
            &[(&["k1", "totals", "protected", "mismatches"], 5)],
            "k1 totals (protected) reports differential mismatches",
        ),
        (
            &[(&["k1", "totals", "protected", "grid_sdc"], 7)],
            "k1 totals (protected): SDC on a protected grid",
        ),
        (
            &[(&["k1", "totals", "baseline", "grid_sdc"], 9)],
            "k1 totals (baseline): grid_sdc 9 does not equal the row sum 0",
        ),
        (
            &[(&k2_row("detected"), u64::MAX), (&k2_row("benign"), 7)],
            "k2 kernel k (protected): detected + benign + vulnerable != pairs",
        ),
    ];
    let mut all = honest.clone();
    for (i, (sets, reason)) in forgeries.into_iter().enumerate() {
        let mut one = honest.clone();
        for &(path, value) in sets {
            set(&mut one, path, value);
            set(&mut all, path, value);
        }
        assert_refused(
            &check(bin, &format!("analysis-forged-{i}"), &one.to_string()),
            reason,
        );
    }
    let first = forgeries[0].1;
    assert_refused(&check(bin, "analysis-forged-all", &all.to_string()), first);
}
