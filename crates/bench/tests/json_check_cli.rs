//! The `--check` readers turn a hostile JSON file into a typed error
//! (exit 1), not a crash. Every `--check`, checkpoint, shard report and
//! `talftd` file goes through `talft_obs::Json::parse`.

use std::process::Command;

#[test]
fn campaignperf_check_exits_1_on_deeply_nested_json() {
    let path = std::env::temp_dir().join(format!("talft-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000) + &"]".repeat(200_000)).expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_campaignperf"))
        .arg("--check")
        .arg(&path)
        .output()
        .expect("campaignperf runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is not valid JSON: nesting deeper than 128 at byte 128"),
        "{stderr}"
    );
}
