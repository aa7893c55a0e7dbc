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

use talft_faultsim::{CampaignReport, ShardPart};
use talft_obs::Json;

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
    // `--time` on a `.talft` input has no baseline to time: refused, not
    // ignored.
    let p = write_temp("usage.wile", OK_WILE);
    let talft = write_temp("usage.talft", UNPAIRED_TALFT);
    for (input, flag) in [
        (&p, "--campaing=7"),
        (&p, "--campaign=abc"),
        (&p, "--threads=x"),
        (&p, "--solver-cache=stale.cache"),
        (&p, "--no-batch"),
        (&talft, "--time"),
    ] {
        let out = talftc(&[input.to_str().unwrap(), flag]);
        assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: talftc"), "{flag}: {stderr}");
    }
}

/// `--time` on a program whose reference run never halts has no cycles to
/// print: exit 1 before type checking, as `fig10` does.
#[test]
fn exit_1_when_time_has_no_cycles() {
    let spin = "output out[1];\nfunc main() {\n  var i = 0;\n  \
                while (i < 1) { i = i * 1; }\n  out[0] = i;\n}\n";
    let p = write_temp("spin.wile", spin);
    let out = talftc(&[p.to_str().unwrap(), "--time"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--time: reference run did not halt"),
        "{stderr}"
    );
    assert!(!stderr.contains("type check"), "type checked: {stderr}");
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
    let src = format!(
        "output out[1];\nfunc main() {{\n  var x = 0;\n{}}}\n",
        "  if (x == 0) { out[0] = 1; }\n".repeat(1000)
    );
    let p = write_temp("many_ifs.wile", &src);
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
fn exit_2_on_deep_nesting() {
    // Each shape once aborted with a stack overflow (exit 134): the parser
    // now stops at its nesting limit with an error naming the line.
    let n = 100_000;
    let shapes = [
        (
            "parens",
            format!("var x = {}1{};", "(".repeat(n), ")".repeat(n)),
        ),
        (
            "ifs",
            format!(
                "var x = 0;\n{}{}",
                "if (x == 0) {\n".repeat(n),
                "}\n".repeat(n)
            ),
        ),
        ("chain", format!("var x = 1{};", "+1".repeat(n - 1))),
        ("minus", format!("var y = 3;\nvar x = {}y;", "- ".repeat(n))),
    ];
    for (name, body) in shapes {
        let src = format!("output out[1];\nfunc main() {{\n{body}\nout[0] = 1;\n}}\n");
        let p = write_temp(&format!("deep_{name}.wile"), &src);
        let out = talftc(&[p.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("nesting deeper than"), "{name}: {stderr}");
    }
}

/// The §2.2 store sequence, well typed, over a region of `len` cells.
fn store5_talft(len: &str) -> String {
    format!(
        ".data\nregion out at 4096 len {len} : int output\n.code\nmain:\n  \
         .pre {{ forall m:mem; mem: m; }}\n  mov r1, G 5\n  mov r2, G 4096\n  \
         stG r2, r1\n  mov r3, B 5\n  mov r4, B 4096\n  stB r4, r3\n  halt\n"
    )
}

#[test]
fn exit_2_on_deep_talft_nesting() {
    // Each entry precondition once aborted with a stack overflow (exit
    // 134): the assembler now stops at its nesting limit with an error
    // naming the line. A 1,000,000-term `x + x + …` chain never recursed.
    let n = 100_000;
    let shapes = [
        (
            "parens",
            format!("mem: {}m{};", "(".repeat(n), ")".repeat(n)),
        ),
        (
            "sel",
            format!(
                "mem: m; r1: (G, int, {}0{});",
                "sel(m, ".repeat(n),
                ")".repeat(n)
            ),
        ),
        (
            "type_parens",
            format!("mem: m; r1: (G, {}int{}, 0);", "(".repeat(n), ")".repeat(n)),
        ),
        (
            "refs",
            format!("mem: m; r1: (G, int{}, 0);", " ref".repeat(10 * n)),
        ),
    ];
    for (name, pre) in shapes {
        let src = store5_talft("1").replace("mem: m;", &pre);
        let p = write_temp(&format!("deep_{name}.talft"), &src);
        let out = talftc(&[p.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("line 5"), "{name}: {stderr}");
    }
}

#[test]
fn exit_2_on_oversized_talft_region() {
    // The same program over one cell runs; over 99,999,999,999 cells it
    // once passed the checker and then aborted allocating its memory.
    let ok = write_temp("region_ok.talft", &store5_talft("1"));
    let out = talftc(&[ok.to_str().unwrap(), "--run"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let big = write_temp("region_big.talft", &store5_talft("99999999999"));
    let out = talftc(&[big.to_str().unwrap(), "--run"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("the limit is"), "{stderr}");
}

#[test]
fn exit_2_on_oversized_wile_array() {
    // A power of two, so only the length cap stops it.
    let p = write_temp(
        "array_big.wile",
        "output out[68719476736];\nfunc main() { out[0] = 1; }\n",
    );
    let out = talftc(&[p.to_str().unwrap(), "--run"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exceeds the limit"), "{stderr}");
}

#[test]
fn exit_2_on_oversized_talft_data() {
    // 2,000 regions of 65,536 cells each: every region is short, but
    // together they once passed the checker and aborted `--run` while
    // allocating the memory.
    let regions: String = (0..2000i64)
        .map(|i| format!("region r{i} at {} len 65536 : int\n", 8192 + i * 65536))
        .collect();
    let src = store5_talft("1").replace(".data\n", &format!(".data\n{regions}"));
    let p = write_temp("many_regions.talft", &src);
    let out = talftc(&[p.to_str().unwrap(), "--run"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("brings the data to"), "{stderr}");
    assert!(stderr.contains("the limit is"), "{stderr}");
}

#[test]
fn exit_2_on_deep_call_chain() {
    // 5,000 functions, each returning the next one's result plus 1: the
    // inliner once recursed once per call and overflowed the stack.
    let n = 5000;
    let mut src = format!("output out[1];\nfunc f{n}() {{ return 1; }}\n");
    for i in 1..n {
        src += &format!("func f{i}() {{ return f{}() + 1; }}\n", i + 1);
    }
    src += "func main() { out[0] = f1(); }\n";
    let p = write_temp("call_chain.wile", &src);
    let out = talftc(&[p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nests calls deeper than"), "{stderr}");
}

#[test]
fn exit_2_on_exponential_inlining() {
    // 40 functions, each returning the next one's result twice over:
    // inlining every call once asked for 2^40 copies and ran out of memory.
    let mut src = String::from("output out[1];\nfunc f40() { return 1; }\n");
    for i in 1..40 {
        src += &format!("func f{i}() {{ return f{0}() + f{0}(); }}\n", i + 1);
    }
    src += "func main() { out[0] = f1(); }\n";
    let p = write_temp("doubling.wile", &src);
    let out = talftc(&[p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("calls to inline"), "{stderr}");
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
        Some("talft.zap.v2")
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
    for k in [k1, k2] {
        let coverage = k.get("coverage").and_then(talft_obs::Json::as_f64);
        assert!(coverage.is_some_and(|c| (0.0..=1.0).contains(&c)), "{k}");
    }
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
    // A refused program claims no coverage at all.
    for k in ["k1", "k2"] {
        let summary = json.get(k).expect("summary object");
        assert_eq!(summary.get("coverage"), Some(&talft_obs::Json::Null), "{k}");
    }
    std::fs::remove_file(&json_path).ok();
}

/// FNV-1a over `text`'s bytes.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// spec_gzip@Tiny's `--zap-report` end to end: one fingerprint of the
/// text of its `k1` and `k2` objects pins the cell order and classes, both
/// tallies, `per_compare` and the witnesses.
#[test]
fn zap_report_of_a_suite_kernel_is_pinned() {
    let k = talft_suite::kernels(talft_suite::Scale::Tiny)
        .into_iter()
        .find(|k| k.name == "spec_gzip")
        .expect("suite kernel");
    let p = write_temp("spec_gzip.wile", &k.source);
    let json_path =
        std::env::temp_dir().join(format!("talftc-zap-gzip-{}.json", std::process::id()));
    let out = talftc(&[
        p.to_str().unwrap(),
        &format!("--zap-report={}", json_path.display()),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&json_path).expect("zap report written");
    std::fs::remove_file(&json_path).ok();
    let json = talft_obs::Json::parse(&text).expect("valid JSON");
    let k1 = json.get("k1").expect("k1 object");
    let k2 = json.get("k2").expect("k2 object");
    assert_eq!(fnv(&format!("{k1} {k2}")), 0xd539_eb16_b358_63d1);
}

/// `--time` prints the program's Figure 10 row: mb_mpeg2's line is pinned,
/// and its cycles are that kernel's E1 row (Full scale, default model).
#[test]
fn time_prints_the_kernels_figure_10_row() {
    let k = talft_suite::kernels(talft_suite::Scale::Full)
        .into_iter()
        .find(|k| k.name == "mb_mpeg2")
        .expect("suite kernel");
    let p = write_temp("mb_mpeg2.wile", &k.source);
    let out = talftc(&[p.to_str().unwrap(), "--time"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = "talftc: cycles baseline=2221 talft=3280 (1.477x) talft-unordered=3280 (1.477x)";
    assert!(stderr.lines().any(|l| l == line), "{stderr}");
    let e1 = talft_bench::fig10_rows(talft_suite::Scale::Full, &Default::default())
        .expect("E1 rows")
        .into_iter()
        .find(|r| r.name == k.name)
        .expect("an E1 row");
    let cycles = (e1.base_cycles, e1.talft_cycles, e1.talft_unordered_cycles);
    assert_eq!(cycles, (2221, 3280, 3280));
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

/// `--resume` skips only a shard report that is its shard's part. One
/// whose consistent report covers 10 plans of a larger shard, and one
/// carrying the other shard's index, each exit 1 naming the file.
#[test]
fn resume_refuses_a_shard_report_that_is_not_its_shards_part() {
    let p = write_temp("refuse.wile", OK_WILE);
    let dir = fresh_dir("refuse-dir");
    let dir_flag = format!("--checkpoint-dir={}", dir.display());
    let args = [
        p.to_str().unwrap(),
        "--no-check",
        "--campaign=31",
        "--shards=2",
        &dir_flag,
    ];
    let first = talftc(&args);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    let read = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).expect("part written");
        ShardPart::from_json(&Json::parse(&text).expect("parses")).expect("decodes")
    };
    let mut short = read("shard-1.json");
    assert!(short.plans > 10, "{short:?}");
    short.plans = 10;
    short.report = CampaignReport {
        total: 10,
        masked: 10,
        ..CampaignReport::default()
    };
    let part1 = dir.join("shard-1.json");
    for forged in [short, read("shard-0.json")] {
        std::fs::write(&part1, forged.to_json().to_string()).expect("write part");
        let out = talftc(&[&args[..], &["--resume"]].concat());
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(part1.to_str().unwrap()), "{stderr}");
        assert!(!stderr.contains("merged"), "{stderr}");
    }
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
