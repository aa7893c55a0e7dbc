//! End-to-end supervision tests with **real child worker processes**
//! (`CARGO_BIN_EXE_talftd`): completed jobs merge bit-identically to an
//! in-process whole-grid run; a worker crashed after its first durable
//! checkpoint is retried, resumes, and the report is provably unchanged;
//! a permanently crashing shard poisons and degrades the job honestly; the
//! spool claims, runs, and retires jobs; [`check_report`] validates
//! every artifact the service emits; `talftd check` refuses a forged
//! job whose counts overflow; and `talftd` refuses an argument its
//! subcommand does not name with exit 2, before any work.

use std::path::{Path, PathBuf};
use std::time::Duration;

use talft_faultsim::{
    golden_run, multi_fault_plans, run_plan_campaign, CampaignConfig, CampaignReport,
};
use talft_obs::Json;
use talft_service::{
    build_program, check_report, run_job, serve_once, JobKind, JobReport, JobStatus, RetryPolicy,
    ServiceConfig, Spool,
};

/// A protected hand-written program with a small grid (fast under the
/// unoptimized test profile, where each worker is a full child process).
const PROTECTED: &str = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
  halt
"#;

/// One register pair feeds both halves of the store: single zaps produce
/// SDC.
const UNPROTECTED: &str = r#"
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  stB r2, r1
  halt
"#;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_talftd"))
}

fn test_cfg(shards: u32) -> ServiceConfig {
    ServiceConfig {
        shards,
        checkpoint_every: 2,
        worker_timeout: Duration::from_secs(300),
        retry: RetryPolicy {
            max_retries: 2,
            base_delay_ms: 1,
            max_delay_ms: 10,
        },
        campaign: CampaignConfig {
            threads: 2,
            ..CampaignConfig::default()
        },
        worker_exe: Some(worker_exe()),
        crash: None,
        ..ServiceConfig::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("talftd-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn write_source(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write source");
    path
}

/// The in-process whole-grid report the service must reproduce bit for bit.
fn whole_grid(kind: JobKind, source: &str, cfg: &ServiceConfig) -> talft_faultsim::CampaignReport {
    let program = build_program(kind, source).expect("builds");
    let golden = golden_run(&program, &cfg.campaign).expect("golden");
    let plans = multi_fault_plans(&program, &cfg.campaign, &golden, cfg.fault_order);
    run_plan_campaign(&program, &cfg.campaign, &golden, &plans)
}

fn run(name: &str, source: &Path, kind: JobKind, cfg: &ServiceConfig, dir: &Path) -> JobReport {
    let mut events = Vec::new();
    let mut sink = |j: &Json| events.push(j.to_string());
    let rep = run_job(name, source, kind, cfg, dir, &mut sink).expect("job runs");
    assert!(
        events.iter().all(|e| e.contains("talft.talftd.v1")),
        "every event line carries the schema tag"
    );
    rep
}

#[test]
fn completed_job_is_bit_identical_to_whole_grid() {
    let dir = scratch("complete");
    let source = write_source(&dir, "job.talft", PROTECTED);
    let cfg = test_cfg(2);
    let rep = run("job", &source, JobKind::Talft, &cfg, &dir.join("shards"));
    assert_eq!(rep.status, JobStatus::Completed);
    assert_eq!(rep.attempts, 2, "one worker per shard, no retries");
    assert!(rep.poisoned.is_empty());
    let whole = whole_grid(JobKind::Talft, PROTECTED, &cfg);
    assert_eq!(
        rep.merged.as_ref(),
        Some(&whole),
        "service-merged report diverged from the in-process whole grid"
    );
    assert_eq!(
        rep.merged.as_ref().unwrap().sdc,
        0,
        "Theorem 4 through the service"
    );
    check_report(&rep.to_json(), true).expect("validator accepts the service's own artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_worker_resumes_and_report_is_unchanged() {
    let dir = scratch("crash-once");
    let source = write_source(&dir, "job.talft", PROTECTED);
    let mut cfg = test_cfg(2);
    // Shard 0's worker aborts right after its first durable checkpoint —
    // but only on a fresh start, so the retry resumes and completes.
    cfg.crash = Some((0, 1, false));
    let rep = run("job", &source, JobKind::Talft, &cfg, &dir.join("shards"));
    assert_eq!(
        rep.status,
        JobStatus::Completed,
        "transient crash must heal"
    );
    assert!(
        rep.attempts > u64::from(rep.shards),
        "the crashed worker must actually have been respawned"
    );
    assert!(rep.poisoned.is_empty());
    let whole = whole_grid(JobKind::Talft, PROTECTED, &cfg);
    assert_eq!(
        rep.merged.as_ref(),
        Some(&whole),
        "kill+resume changed the report — checkpoint/resume is not bit-exact"
    );
    check_report(&rep.to_json(), true).expect("validator accepts the healed job");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanently_crashing_shard_degrades_the_job() {
    let dir = scratch("crash-always");
    let source = write_source(&dir, "job.talft", PROTECTED);
    let mut cfg = test_cfg(2);
    cfg.crash = Some((1, 1, true)); // fires on resume too: a permanent fault
    let rep = run("job", &source, JobKind::Talft, &cfg, &dir.join("shards"));
    assert_eq!(rep.status, JobStatus::Degraded);
    assert_eq!(rep.poisoned, vec![1]);
    assert_eq!(
        rep.attempts,
        1 + u64::from(cfg.retry.max_retries) + 1,
        "poisoning happens only after the full retry budget"
    );
    assert!(rep.covered_plans > 0 && rep.covered_plans < rep.total_plans);
    let merged = rep.merged.as_ref().expect("surviving coverage reported");
    assert_eq!(merged.total, rep.covered_plans);
    assert_eq!(merged.sdc, 0);
    check_report(&rep.to_json(), true).expect("validator accepts the degraded job");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wile_job_compiles_and_completes_through_the_spool() {
    let dir = scratch("spool");
    let spool = Spool::open(&dir).expect("spool opens");
    let kernel = &talft_suite::kernels(talft_suite::Scale::Tiny)[0];
    write_source(
        &spool.incoming(),
        &format!("{}.wile", kernel.name),
        &kernel.source,
    );
    let mut cfg = test_cfg(4);
    cfg.checkpoint_every = 64;
    cfg.campaign.stride = 7; // thin the grid: four child processes per job
    let mut events = Vec::new();
    let mut sink = |j: &Json| events.push(j.to_string());
    let rep = serve_once(&spool, &cfg, &mut sink)
        .expect("serve_once")
        .expect("a job was waiting");
    assert_eq!(rep.status, JobStatus::Completed);
    assert_eq!(rep.kind, JobKind::Wile);
    assert_eq!(rep.merged.as_ref().map(|m| m.sdc), Some(0));
    let whole = whole_grid(JobKind::Wile, &kernel.source, &cfg);
    assert_eq!(rep.merged.as_ref(), Some(&whole));
    // The spool retired the job: source + report in done/, incoming empty.
    assert!(spool.next_job().is_none());
    let report_path = dir.join("done").join(format!("{}.json", kernel.name));
    let text = std::fs::read_to_string(&report_path).expect("report written to done/");
    let back = JobReport::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
    assert_eq!(back, rep, "spooled report round-trips bit-exactly");
    check_report(&Json::parse(&text).unwrap(), true).expect("spooled artifact validates");
    assert!(dir
        .join("done")
        .join(format!("{}.wile", kernel.name))
        .exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forged job whose two parts each claim 2^63 plans: the sum wraps to 0
/// in a `u64`, which is what its empty merged report claims. `talftd
/// check` must refuse it with exit 1, never wrap or panic.
#[test]
fn check_refuses_a_forged_job_whose_counts_overflow() {
    let dir = scratch("forged");
    let source = write_source(&dir, "job.talft", PROTECTED);
    let mut job = run(
        "job",
        &source,
        JobKind::Talft,
        &test_cfg(2),
        &dir.join("shards"),
    );
    for part in &mut job.parts {
        part.plans = 1 << 63;
        part.report = CampaignReport {
            total: 1 << 63,
            masked: 1 << 63,
            ..CampaignReport::default()
        };
    }
    (job.total_plans, job.covered_plans) = (0, 0);
    job.merged = Some(CampaignReport::default());
    let path = dir.join("forged.json");
    std::fs::write(&path, format!("{}\n", job.to_json())).expect("write job");
    let (code, stderr) = talftd(&["check", path.to_str().unwrap(), "--expect-zero-sdc"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("overflow"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `talftd` run on `args`: its exit code and stderr.
fn talftd(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(worker_exe())
        .args(args)
        .output()
        .expect("talftd runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

/// A misspelt `--expect-zero-sdc` is a usage error, not a check without
/// the zero-SDC demand: the job report carries SDC, which the spelled-out
/// flag refuses.
#[test]
fn check_refuses_an_unnamed_argument() {
    let dir = scratch("check-typo");
    let source = write_source(&dir, "job.talft", UNPROTECTED);
    let job = run(
        "job",
        &source,
        JobKind::Talft,
        &test_cfg(2),
        &dir.join("shards"),
    );
    assert!(job.merged.as_ref().is_some_and(|m| m.sdc > 0), "{job:?}");
    let path = dir.join("job.json");
    std::fs::write(&path, format!("{}\n", job.to_json())).expect("write job");
    let file = path.to_str().unwrap();
    let (code, stderr) = talftd(&["check", file, "--expect-zero-sdcc"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--expect-zero-sdcc"), "{stderr}");
    let (code, stderr) = talftd(&["check", file, "--expect-zero-sdc"]);
    assert_eq!(code, Some(1), "{stderr}");
    let (code, stderr) = talftd(&["check", file]);
    assert_eq!(code, Some(0), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--shard 2` is not `--shards 2`: the daemon exits 2 naming it before it
/// claims the waiting job, and so does a value flag with no value.
#[test]
fn daemon_refuses_an_unnamed_argument_before_any_work() {
    let dir = scratch("daemon-typo");
    let spool = Spool::open(&dir).expect("spool opens");
    write_source(&spool.incoming(), "job.talft", UNPROTECTED);
    let root = dir.to_str().unwrap();
    for (args, named) in [
        (&["--shard", "2"][..], "--shard"),
        (&["--stride"][..], "--stride"),
    ] {
        let mut argv = vec!["daemon", "--spool", root, "--max-jobs", "1"];
        argv.extend(args);
        let (code, stderr) = talftd(&argv);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: talftd"), "{args:?}: {stderr}");
        assert!(spool.next_job().is_some(), "{args:?}: the job was claimed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
