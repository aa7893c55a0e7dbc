//! `talftc` exit-status contract: each failure class gets a distinct,
//! documented exit code (see the bin's module docs). These are asserted
//! end-to-end by running the real binary, since downstream scripts and the
//! CI smoke jobs branch on them.
//!
//! ```text
//!   0 success / 1 usage / 2 parse-assembly-compile / 3 type error /
//!   4 lint error / 5 Theorem 4 violation / 6 campaign interrupted
//! ```
//!
//! The `--shards` tests additionally assert the cross-process sharded
//! campaign contract: shard reports merge to the same summary line as a
//! plain whole-grid run, and an interrupted shard (SIGTERM mid-grid)
//! exits 6 with a durable checkpoint that `--resume` continues from.

use std::path::PathBuf;
use std::process::{Command, Output};

fn talftc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_talftc"))
        .args(args)
        .output()
        .expect("talftc runs")
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("talftc-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write fixture");
    path
}

/// A well-typed Wile program (the compiler protects it).
const OK_WILE: &str = "output out[8];\nfunc main() {\n  var i = 0;\n  \
                       while (i < 8) { out[i] = i * 3 + 1; i = i + 1; }\n}\n";

/// Unpaired blue store: assembles, but is both a lint error (TF002) and a
/// type error.
const UNPAIRED_TALFT: &str = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, B 5
  mov r2, B 4096
  stB r2, r1
  halt
"#;

#[test]
fn exit_0_on_well_typed_program() {
    let p = write_temp("ok.wile", OK_WILE);
    let out = talftc(&[p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn exit_1_on_usage_error() {
    let out = talftc(&["--run"]); // no input file
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // An unknown flag or an unparsable value must not be silently ignored:
    // each of these would otherwise skip or reshape the campaign.
    let p = write_temp("usage.wile", OK_WILE);
    for flag in [
        "--campaing=7",
        "--campaign=abc",
        "--threads=x",
        "--solver-cache=stale.cache",
        "--no-batch",
    ] {
        let out = talftc(&[p.to_str().unwrap(), flag]);
        assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: talftc"), "{flag}: {stderr}");
    }
}

#[test]
fn exit_6_on_exhausted_golden_budget() {
    // A campaign whose fault-free run cannot finish inside --max-steps was
    // *interrupted*, not failed: distinct class 6 with a clear remedy, so
    // callers don't conflate it with usage/I/O errors (class 1).
    let p = write_temp("budget.wile", OK_WILE);
    let out = talftc(&[p.to_str().unwrap(), "--campaign=5", "--max-steps=50"]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("campaign interrupted"), "{out:?}");
    assert!(stderr.contains("raise --max-steps"), "{out:?}");
}

#[test]
fn exit_2_on_assembly_error() {
    let p = write_temp("garbage.talft", ".code\nmain:\n  frobnicate r1\n");
    let out = talftc(&[p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn exit_2_on_compile_error() {
    let p = write_temp("garbage.wile", "func main( { oops");
    let out = talftc(&[p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn exit_2_on_code_space_overflow() {
    // Valid Wile whose protected code would reach the data space: the
    // compiler must refuse it (class 2), never hand the checker a program
    // it rejects (class 3) — protected output always passes the checker.
    let depth = 1000;
    let src = format!(
        "output out[1];\nfunc main() {{\n  var x = 0;\n{}  out[0] = 1;\n{}}}\n",
        "  if (x == 0) {\n".repeat(depth),
        "  }\n".repeat(depth)
    );
    let p = write_temp("nested_if.wile", &src);
    let out = talftc(&[p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("overflow the code address space"),
        "{stderr}"
    );
    assert!(!stderr.contains("TYPE ERROR"), "{stderr}");
}

#[test]
fn exit_3_on_type_error() {
    let p = write_temp("unpaired.talft", UNPAIRED_TALFT);
    let out = talftc(&[p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("TYPE ERROR"),
        "{out:?}"
    );
}

#[test]
fn exit_4_on_lint_error_and_writes_lint_json() {
    let p = write_temp("unpaired-lint.talft", UNPAIRED_TALFT);
    let json = std::env::temp_dir().join(format!("talftc-cli-{}-lint.json", std::process::id()));
    let out = talftc(&[
        p.to_str().unwrap(),
        "--lint",
        "--no-check",
        &format!("--json={}", json.display()),
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[TF002]"), "{stderr}");
    let doc = std::fs::read_to_string(&json).expect("lint json written");
    assert!(doc.contains("\"talft.lint.v1\""), "{doc}");
    assert!(doc.contains("\"TF002\""), "{doc}");
}

#[test]
fn zap_report_writes_k1_cells_and_k2_pair_summary() {
    let p = write_temp("zap.wile", OK_WILE);
    let json_path = std::env::temp_dir().join(format!("talftc-zap-{}.json", std::process::id()));
    let out = talftc(&[
        p.to_str().unwrap(),
        &format!("--zap-report={}", json_path.display()),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&json_path).expect("zap report written");
    let json = talft_obs::Json::parse(&text).expect("valid JSON");
    assert_eq!(
        json.get("schema").and_then(talft_obs::Json::as_str),
        Some("talft.zap.v1")
    );
    assert_eq!(json.get("bailed"), Some(&talft_obs::Json::Null));
    let k1 = json.get("k1").expect("k1 summary");
    let cells = k1.get("cells").and_then(talft_obs::Json::as_array);
    assert!(!cells.expect("cell array").is_empty(), "per-cell verdicts");
    let n = |j: &talft_obs::Json, key: &str| j.get(key).and_then(talft_obs::Json::as_u64).unwrap();
    assert_eq!(
        n(k1, "detected") + n(k1, "benign") + n(k1, "vulnerable"),
        cells.unwrap().len() as u64,
        "k=1 tally covers every cell"
    );
    let k2 = json.get("k2").expect("k2 pair summary");
    assert_eq!(
        n(k2, "detected") + n(k2, "benign") + n(k2, "vulnerable"),
        n(k2, "pairs"),
        "pair classes sum to the pair count"
    );
    assert!(n(k2, "pairs") > 0);
    assert!(
        n(k2, "single_vulnerable") + n(k2, "cooperative") <= n(k2, "vulnerable"),
        "the vulnerable tally covers the single-member and cooperative splits"
    );
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn zap_report_bails_past_the_taint_mask_with_the_analyzer_wording() {
    let wide = UNPAIRED_TALFT.replacen(".data", ".gprs 200\n.data", 1);
    let p = write_temp("wide.talft", &wide);
    let json_path =
        std::env::temp_dir().join(format!("talftc-zap-wide-{}.json", std::process::id()));
    let out = talftc(&[
        p.to_str().unwrap(),
        "--no-check",
        &format!("--zap-report={}", json_path.display()),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&json_path).expect("zap report written");
    let json = talft_obs::Json::parse(&text).expect("valid JSON");
    assert_eq!(
        json.get("bailed").and_then(talft_obs::Json::as_str),
        Some("200 GPRs exceed the 128-register taint mask")
    );
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn lint_is_quiet_on_protected_output() {
    let p = write_temp("ok-lint.wile", OK_WILE);
    let out = talftc(&[p.to_str().unwrap(), "--lint"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("lint: 0 error(s)"),
        "{out:?}"
    );
}

/// The stderr line beginning `talftc: campaign (k=` — the verdict summary
/// both the plain and sharded paths must agree on byte for byte.
fn summary_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .find(|l| l.starts_with("talftc: campaign (k="))
        .unwrap_or_else(|| panic!("no campaign summary in {out:?}"))
        .to_owned()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("talftc-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sharded_campaign_merges_to_the_plain_summary() {
    let p = write_temp("shards.wile", OK_WILE);
    let plain = talftc(&[
        p.to_str().unwrap(),
        "--no-check",
        "--campaign=31",
        "--threads=2",
    ]);
    assert_eq!(plain.status.code(), Some(0), "{plain:?}");
    let dir = fresh_dir("shards-dir");
    let sharded = talftc(&[
        p.to_str().unwrap(),
        "--no-check",
        "--campaign=31",
        "--threads=2",
        "--shards=3",
        &format!("--checkpoint-dir={}", dir.display()),
    ]);
    assert_eq!(sharded.status.code(), Some(0), "{sharded:?}");
    assert_eq!(
        summary_line(&sharded),
        summary_line(&plain),
        "sharded merge diverged from the whole-grid campaign"
    );
    assert!(
        String::from_utf8_lossy(&sharded.stderr).contains("merged 3 shard(s)"),
        "{sharded:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_process_shards_merge_once_all_reports_exist() {
    let p = write_temp("xproc.wile", OK_WILE);
    let dir = fresh_dir("xproc-dir");
    let dir_flag = format!("--checkpoint-dir={}", dir.display());
    let base = [
        p.to_str().unwrap(),
        "--no-check",
        "--campaign=31",
        "--shards=2",
    ];
    // Shard 0 in one process: no merge yet, exit 0 with a progress note.
    let first = talftc(&[base[0], base[1], base[2], base[3], "--shard=0", &dir_flag]);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("1/2 shard report(s)"), "{first:?}");
    assert!(!stderr.contains("campaign (k="), "must not summarize early");
    assert!(dir.join("shard-0.json").exists());
    // Shard 1 in a second process: the partition is complete, so it merges
    // and prints the same summary as a plain whole-grid run.
    let second = talftc(&[base[0], base[1], base[2], base[3], "--shard=1", &dir_flag]);
    assert_eq!(second.status.code(), Some(0), "{second:?}");
    let plain = talftc(&[p.to_str().unwrap(), "--no-check", "--campaign=31"]);
    assert_eq!(summary_line(&second), summary_line(&plain));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_6_on_sigterm_with_resumable_checkpoint() {
    use std::process::Stdio;
    let p = write_temp("interrupt.wile", OK_WILE);
    let dir = fresh_dir("interrupt-dir");
    let dir_flag = format!("--checkpoint-dir={}", dir.display());
    // stride 1 → a grid of thousands of plans; checkpoints every plan so a
    // checkpoint is durable almost immediately.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_talftc"))
        .args([
            p.to_str().unwrap(),
            "--no-check",
            "--campaign=1",
            "--shards=1",
            "--checkpoint-every=1",
            &dir_flag,
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("talftc spawns");
    let cp = dir.join("checkpoint-0.json");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut sent_sigterm = false;
    loop {
        if cp.exists() {
            let ok = std::process::Command::new("kill")
                .args(["-TERM", &child.id().to_string()])
                .status()
                .expect("kill runs")
                .success();
            assert!(ok, "SIGTERM delivery failed");
            sent_sigterm = true;
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            break; // finished before the first checkpoint — nothing to interrupt
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint within 120s"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let out = child.wait_with_output().expect("talftc exits");
    assert!(
        sent_sigterm,
        "grid too small to interrupt — test fixture broken"
    );
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("campaign interrupted"), "{stderr}");
    assert!(stderr.contains("--resume"), "{stderr}");
    assert!(
        cp.exists(),
        "interrupt must leave a durable checkpoint behind"
    );
    // Resume: picks up from the checkpoint and completes with the same
    // summary as an uninterrupted whole-grid run.
    let resumed = talftc(&[
        p.to_str().unwrap(),
        "--no-check",
        "--campaign=1",
        "--shards=1",
        "--resume",
        &dir_flag,
    ]);
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains("resuming shard 0/1"),
        "{resumed:?}"
    );
    let plain = talftc(&[p.to_str().unwrap(), "--no-check", "--campaign=1"]);
    assert_eq!(
        summary_line(&resumed),
        summary_line(&plain),
        "kill + --resume changed the campaign verdict"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_5_on_theorem_4_violation() {
    // The unprotected baseline shows SDC under a k=1 campaign — the
    // single-upset model — which talftc reports as a Theorem 4 violation.
    let p = write_temp("baseline.wile", OK_WILE);
    let out = talftc(&[
        p.to_str().unwrap(),
        "--baseline",
        "--no-check",
        "--campaign=1",
    ]);
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("THEOREM 4 VIOLATION"),
        "{out:?}"
    );
}
