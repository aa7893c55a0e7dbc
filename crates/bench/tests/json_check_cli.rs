//! The `--check` readers (`campaign`, `lint` and `pairs`, all through
//! `report::check`) turn a hostile JSON file into a typed error: exit 1
//! with the reason on stderr, never a crash and never a pass. Every
//! `--check`, checkpoint, shard report and `talftd` file goes through
//! `talft_obs::Json::parse`, which bounds nesting; the gates widen the
//! sums and products they compare, so a forged count cannot wrap past
//! them in a release build or overflow in a debug one.

use std::process::{Command, Output};

use talft_obs::Json;

/// Each reader with its schema tag and first required key after `schema`.
const READERS: [(&str, &str, &str); 3] = [
    (
        env!("CARGO_BIN_EXE_campaign"),
        "talft.campaign.v1",
        "stride",
    ),
    (env!("CARGO_BIN_EXE_lint"), "talft.lint.grid.v1", "kernels"),
    (env!("CARGO_BIN_EXE_pairs"), "talft.pairs.v2", "kernels"),
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
fn campaign_refuses_a_row_off_its_reference_or_with_protected_sdc() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    let committed = committed_campaign("committed-rows");
    let row = committed
        .get("rows")
        .and_then(|rows| rows.as_array()?.first())
        .expect("a first row");
    let name = row.get("name").and_then(Json::as_str).expect("a name");
    let label = format!("kernel {name} (protected k=1)");
    let mut off = committed.clone();
    set(&mut off, &["rows", "0", "reference", "masked"], 0);
    let differs = format!("{label}: the reference report differs from the batched one");
    assert_refused(&check(bin, "off-reference", &off.to_string()), &differs);
    // Both engines agree on the forged SDC, so only the Theorem 4 gate
    // can refuse it.
    let mut sdc = committed;
    for report in ["report", "reference"] {
        set(&mut sdc, &["rows", "0", report, "sdc"], 1);
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

/// A one-kernel `pairs` report whose protected side classifies its six
/// pairs as `detected` + `benign` (+ 0 vulnerable).
fn pairs_report(detected: u64, benign: u64) -> String {
    let n = Json::U64;
    let side = |detected, benign| {
        Json::obj([
            ("cells", n(4)),
            ("pairs", n(6)),
            ("detected", n(detected)),
            ("benign", n(benign)),
            ("vulnerable", n(0)),
            ("plans", n(2)),
            ("checked", n(2)),
            ("degenerate", n(0)),
            ("mismatches", n(0)),
        ])
    };
    let total = || Json::obj([("pairs", n(6)), ("mismatches", n(0))]);
    Json::obj([
        ("schema", Json::str("talft.pairs.v2")),
        ("kernels", n(1)),
        ("stride", n(17)),
        ("samples", n(128)),
        (
            "rows",
            Json::Array(vec![Json::obj([
                ("name", Json::str("k")),
                ("protected", side(detected, benign)),
                ("baseline", side(6, 0)),
            ])]),
        ),
        ("exhaustive", Json::Array(Vec::new())),
        (
            "totals",
            Json::obj([("protected", total()), ("baseline", total())]),
        ),
    ])
    .to_string()
}

#[test]
fn pairs_refuses_pair_classes_forged_to_wrap_the_sum() {
    let bin = env!("CARGO_BIN_EXE_pairs");
    let out = check(bin, "pairs-honest", &pairs_report(4, 2));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // u64::MAX + 7 wraps a u64 sum to the six pairs.
    let forged = pairs_report(u64::MAX, 7);
    let reason = "kernel k (protected): detected + benign + vulnerable != pairs";
    assert_refused(&check(bin, "pairs-forged", &forged), reason);
}
