//! `talftd` — the resumable, sharded campaign service (DESIGN.md §11).
//!
//! A campaign grid is the repo's ground truth for Theorem 4, but an
//! in-process batch dies with its process. This crate runs grids as **jobs**
//! over a spool directory: each job's grid is split into N deterministic
//! shards ([`talft_faultsim::ShardSpec`]), every shard runs in a **child
//! worker process** that checkpoints durably every M plans, and the parent
//! supervises the fleet — per-shard timeouts, capped-exponential-backoff
//! retries of transient failures (a retried worker *resumes* from its own
//! checkpoint rather than restarting), and isolation of poisoned shards
//! (a shard that exhausts its retries degrades the job to `Degraded` with
//! the surviving shards' coverage instead of losing the run).
//!
//! The defining invariant is inherited from `talft_faultsim::shard` and
//! enforced end to end: the merged job report is **bit-identical** to a
//! whole-grid in-process run — worker kills, retries, resumes, and shard
//! counts are all invisible in the final report. [`check_report`] re-proves
//! the merge from the embedded shard parts, and [`smoke`] is the CI gate
//! that actually SIGKILLs a worker mid-grid and diffs the resumed result
//! against the whole-grid run.
//!
//! The fault-tolerance ladder, mirroring the paper's own hierarchy (detect,
//! never corrupt). Each failure is handled once, where it can be transient:
//!
//! 1. in-process harness panic → `EngineError` verdict on its first
//!    occurrence (the engine is deterministic, so a retry would panic
//!    again);
//! 2. worker crash/timeout → respawned with backoff ([`RetryPolicy`]),
//!    resumes from its checkpoint, report provably unchanged;
//! 3. retries exhausted → shard poisoned, job `Degraded`, surviving
//!    coverage reported honestly (`covered/total`), never silently;
//! 4. every shard poisoned (or the grid unbuildable) → job `Failed`.
//!
//! Everything on the wire is schema-tagged JSON (`talft.talftd.v1` for job
//! reports and event lines) built on the dep-free `talft_obs::Json`.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use talft_faultsim::shard::{self, atomic_write};
use talft_faultsim::{
    golden_run, grid_fingerprint, merge_shard_reports, merge_surviving_shards, multi_fault_plans,
    run_plan_campaign, wire, CampaignConfig, CampaignReport, ShardControl, ShardPart, ShardSpec,
};
use talft_machine::OobLoadPolicy;
use talft_obs::{Json, LazyCounter};

static JOBS_COMPLETED: LazyCounter = LazyCounter::new("talftd.jobs.completed");
static JOBS_DEGRADED: LazyCounter = LazyCounter::new("talftd.jobs.degraded");
static JOBS_FAILED: LazyCounter = LazyCounter::new("talftd.jobs.failed");
static WORKER_SPAWNS: LazyCounter = LazyCounter::new("talftd.worker.spawns");
static WORKER_RETRIES: LazyCounter = LazyCounter::new("talftd.worker.retries");
static WORKER_TIMEOUTS: LazyCounter = LazyCounter::new("talftd.worker.timeouts");
static SHARDS_POISONED: LazyCounter = LazyCounter::new("talftd.shards.poisoned");

/// Schema tag on job reports and event lines.
pub const JOB_SCHEMA: &str = "talft.talftd.v1";

/// Crash-injection environment variable (tests / smoke): a worker whose
/// shard matches [`ENV_CRASH_SHARD`] aborts after writing this many
/// checkpoints. Unless [`ENV_CRASH_ALWAYS`] is set, the injection only
/// fires on a *fresh* start — a resumed worker runs to completion, which is
/// exactly the transient-crash shape the retry ladder exists for.
pub const ENV_CRASH_AFTER: &str = "TALFT_SHARD_CRASH_AFTER";
/// Which shard index the crash injection targets (default 0).
pub const ENV_CRASH_SHARD: &str = "TALFT_SHARD_CRASH_SHARD";
/// Make the crash injection fire on resumed runs too (a *permanent* fault:
/// the shard poisons once retries are exhausted).
pub const ENV_CRASH_ALWAYS: &str = "TALFT_SHARD_CRASH_ALWAYS";

/// What kind of source a job file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Wile source, compiled to the *protected* TAL_FT program.
    Wile,
    /// Hand-written `.talft` assembly.
    Talft,
}

impl JobKind {
    /// Classify a job file by extension (`.wile` / `.talft`).
    #[must_use]
    pub fn from_path(path: &Path) -> Option<JobKind> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("wile") => Some(JobKind::Wile),
            Some("talft") => Some(JobKind::Talft),
            _ => None,
        }
    }

    /// Wire name (`"wile"` / `"talft"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Wile => "wile",
            JobKind::Talft => "talft",
        }
    }

    /// Inverse of [`JobKind::name`].
    ///
    /// # Errors
    ///
    /// A message naming the unknown kind.
    pub fn parse(name: &str) -> Result<JobKind, String> {
        match name {
            "wile" => Ok(JobKind::Wile),
            "talft" => Ok(JobKind::Talft),
            other => Err(format!("unknown job kind {other:?}")),
        }
    }
}

/// Build the program a job campaigns over: Wile compiles to the protected
/// artifact (the Theorem 4 subject); `.talft` assembles as written.
///
/// # Errors
///
/// The compiler/assembler error, as a message.
pub fn build_program(kind: JobKind, source: &str) -> Result<Arc<talft_isa::Program>, String> {
    match kind {
        JobKind::Wile => {
            talft_compiler::compile(source, &talft_compiler::CompileOptions::default())
                .map(|c| Arc::clone(&c.protected.program))
                .map_err(|e| format!("compile: {e}"))
        }
        JobKind::Talft => talft_isa::assemble(source)
            .map(|a| Arc::new(a.program))
            .map_err(|e| format!("assemble: {e}")),
    }
}

/// Capped exponential backoff for respawning crashed, killed or timed-out
/// worker processes, the one failure here that can be transient. Jitterless
/// and deterministic: a retry changes *when* a worker runs, never its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on the backoff delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl RetryPolicy {
    /// Deterministic backoff before retry `attempt` (0-based):
    /// `min(base · 2^attempt, max)`.
    #[must_use]
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let mult = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base_delay_ms
            .saturating_mul(mult)
            .min(self.max_delay_ms)
    }
}

/// Service configuration: sharding, supervision, and the campaign knobs
/// every worker must agree on (the grid fingerprint catches disagreement).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shards per job.
    pub shards: u32,
    /// Plans between durable checkpoints in each worker.
    pub checkpoint_every: usize,
    /// Per-shard wall-clock timeout; an overdue worker is killed and the
    /// attempt counts as a transient failure (it resumes on retry).
    pub worker_timeout: Duration,
    /// Backoff policy for respawning failed workers.
    pub retry: RetryPolicy,
    /// Fault multiplicity `k` of the grid.
    pub fault_order: u32,
    /// Campaign knobs, forwarded verbatim to every worker.
    pub campaign: CampaignConfig,
    /// Worker executable; `None` = `std::env::current_exe()` (the `talftd`
    /// binary re-enters itself via the `worker` subcommand). Tests point
    /// this at `CARGO_BIN_EXE_talftd`.
    pub worker_exe: Option<PathBuf>,
    /// Crash injection forwarded to workers as environment variables:
    /// `(shard, after_checkpoints, always)`. Deterministic fault injection
    /// for the supervisor itself — the service equivalent of the SEU model.
    pub crash: Option<(u32, usize, bool)>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            checkpoint_every: talft_faultsim::DEFAULT_CHECKPOINT_EVERY,
            worker_timeout: Duration::from_secs(600),
            retry: RetryPolicy {
                max_retries: 2,
                base_delay_ms: 100,
                max_delay_ms: 2_000,
            },
            fault_order: 1,
            campaign: CampaignConfig {
                threads: 2,
                ..CampaignConfig::default()
            },
            worker_exe: None,
            crash: None,
        }
    }
}

impl ServiceConfig {
    fn exe(&self) -> Result<PathBuf, String> {
        match &self.worker_exe {
            Some(p) => Ok(p.clone()),
            None => std::env::current_exe().map_err(|e| format!("current_exe: {e}")),
        }
    }
}

fn oob_arg(policy: OobLoadPolicy) -> String {
    match policy {
        OobLoadPolicy::Fault => "fault".to_owned(),
        OobLoadPolicy::Value(v) => v.to_string(),
    }
}

fn parse_oob(s: &str) -> Result<OobLoadPolicy, String> {
    if s == "fault" {
        Ok(OobLoadPolicy::Fault)
    } else {
        s.parse::<i64>()
            .map(OobLoadPolicy::Value)
            .map_err(|_| format!("bad --oob value {s:?}"))
    }
}

/// Spawn one shard worker as a child process (the `talftd worker`
/// subcommand). The worker recomputes the grid from the same knobs and
/// refuses to resume a checkpoint whose fingerprint disagrees.
///
/// # Errors
///
/// Propagates the spawn I/O error as a message.
pub fn spawn_worker(
    cfg: &ServiceConfig,
    source: &Path,
    kind: JobKind,
    spec: ShardSpec,
    dir: &Path,
) -> Result<Child, String> {
    let c = &cfg.campaign;
    let mut cmd = Command::new(cfg.exe()?);
    cmd.arg("worker")
        .arg("--source")
        .arg(source)
        .arg(format!("--kind={}", kind.name()))
        .arg(format!("--shard={}", spec.index))
        .arg(format!("--of={}", spec.count))
        .arg("--dir")
        .arg(dir)
        .arg(format!("--every={}", cfg.checkpoint_every))
        .arg(format!("--k={}", cfg.fault_order))
        .arg(format!("--max-steps={}", c.max_steps))
        .arg(format!("--stride={}", c.stride))
        .arg(format!("--mutations={}", c.mutations_per_site))
        .arg(format!("--seed={}", c.seed))
        .arg(format!("--pair-samples={}", c.pair_samples))
        .arg(format!("--pair-window={}", c.pair_window))
        .arg(format!("--threads={}", c.threads))
        .arg(format!("--oob={}", oob_arg(c.oob)))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    match cfg.crash {
        Some((shard, after, always)) if shard == spec.index => {
            cmd.env(ENV_CRASH_AFTER, after.to_string())
                .env(ENV_CRASH_SHARD, shard.to_string());
            if always {
                cmd.env(ENV_CRASH_ALWAYS, "1");
            }
        }
        _ => {
            cmd.env_remove(ENV_CRASH_AFTER).env_remove(ENV_CRASH_ALWAYS);
        }
    }
    WORKER_SPAWNS.inc();
    cmd.spawn().map_err(|e| format!("spawn worker: {e}"))
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

struct WorkerArgs {
    source: PathBuf,
    kind: JobKind,
    spec: ShardSpec,
    dir: PathBuf,
    every: usize,
    fault_order: u32,
    campaign: CampaignConfig,
}

fn parse_worker_args(args: &[String]) -> Result<WorkerArgs, String> {
    let mut source = None;
    let mut kind = None;
    let mut shard = None;
    let mut of = None;
    let mut dir = None;
    let mut every = talft_faultsim::DEFAULT_CHECKPOINT_EVERY;
    let mut fault_order = 1u32;
    let mut campaign = CampaignConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (name, mut inline) = match a.split_once('=') {
            Some((name, v)) => (name, Some(v.to_owned())),
            None => (a.as_str(), None),
        };
        let mut val = || {
            inline
                .take()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match name {
            "--source" => source = Some(PathBuf::from(val()?)),
            "--dir" => dir = Some(PathBuf::from(val()?)),
            "--kind" => kind = Some(JobKind::parse(&val()?)?),
            "--shard" => shard = Some(num::<u32>(&val()?)?),
            "--of" => of = Some(num::<u32>(&val()?)?),
            "--every" => every = num::<usize>(&val()?)?,
            "--k" => fault_order = num::<u32>(&val()?)?,
            "--max-steps" => campaign.max_steps = num::<u64>(&val()?)?,
            "--stride" => campaign.stride = num::<u64>(&val()?)?,
            "--mutations" => campaign.mutations_per_site = num::<usize>(&val()?)?,
            "--seed" => campaign.seed = num::<u64>(&val()?)?,
            "--pair-samples" => campaign.pair_samples = num::<usize>(&val()?)?,
            "--pair-window" => campaign.pair_window = num::<u64>(&val()?)?,
            "--threads" => campaign.threads = num::<usize>(&val()?)?,
            "--oob" => campaign.oob = parse_oob(&val()?)?,
            _ => return Err(format!("unknown worker argument {a:?}")),
        }
    }
    let spec = ShardSpec::new(shard.ok_or("missing --shard")?, of.ok_or("missing --of")?)
        .ok_or("invalid shard spec")?;
    Ok(WorkerArgs {
        source: source.ok_or("missing --source")?,
        kind: kind.ok_or("missing --kind")?,
        spec,
        dir: dir.ok_or("missing --dir")?,
        every,
        fault_order,
        campaign,
    })
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.trim()
        .parse::<T>()
        .map_err(|_| format!("bad numeric argument {s:?}"))
}

/// Crash injection for this worker: abort after writing N checkpoints when
/// the environment requests it (see [`ENV_CRASH_AFTER`]).
fn crash_injection(shard: u32, resuming: bool) -> Option<usize> {
    let target: u32 = std::env::var(ENV_CRASH_SHARD)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    if shard != target {
        return None;
    }
    if resuming && std::env::var_os(ENV_CRASH_ALWAYS).is_none() {
        return None;
    }
    std::env::var(ENV_CRASH_AFTER)
        .ok()
        .and_then(|s| s.trim().parse().ok())
}

/// Entry point of the `talftd worker` subcommand: run one shard through
/// the shard-directory runner ([`shard::run_shard_in_dir`]), always
/// resuming a checkpoint left in the directory.
///
/// # Errors
///
/// A message describing the failure (bad args, unbuildable program,
/// rejected checkpoint, I/O).
pub fn run_worker(args: &[String]) -> Result<(), String> {
    let w = parse_worker_args(args)?;
    let source = std::fs::read_to_string(&w.source)
        .map_err(|e| format!("read {}: {e}", w.source.display()))?;
    let program = build_program(w.kind, &source)?;
    let golden = golden_run(&program, &w.campaign).map_err(|e| e.to_string())?;
    let plans = multi_fault_plans(&program, &w.campaign, &golden, w.fault_order);
    let resume = shard::load_checkpoint(&w.dir, w.spec)?;
    let crash_after = crash_injection(w.spec.index, resume.is_some());
    let mut written = 0usize;
    shard::run_shard_in_dir(
        &program,
        &w.campaign,
        &golden,
        &plans,
        w.spec,
        &w.dir,
        w.every,
        resume.as_ref(),
        |_| {
            written += 1;
            if crash_after == Some(written) {
                // Deterministic crash injection: die *after* the durable
                // write, exactly the worst-case a real SIGKILL produces.
                std::process::abort();
            }
            ShardControl::Continue
        },
    )?;
    // The observer never stops the shard, so its part is on disk.
    Ok(())
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

/// Terminal status of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Every shard completed; the merged report is proven bit-identical to
    /// the whole grid by construction ([`merge_shard_reports`]).
    Completed,
    /// Some shards poisoned; the report covers the surviving shards only
    /// (`covered_plans / total_plans`).
    Degraded,
    /// No usable result (grid unbuildable or every shard poisoned).
    Failed,
}

impl JobStatus {
    /// Wire name (`"completed"` / `"degraded"` / `"failed"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Degraded => "degraded",
            JobStatus::Failed => "failed",
        }
    }

    /// Inverse of [`JobStatus::name`].
    ///
    /// # Errors
    ///
    /// A message naming the unknown status.
    pub fn parse(name: &str) -> Result<JobStatus, String> {
        match name {
            "completed" => Ok(JobStatus::Completed),
            "degraded" => Ok(JobStatus::Degraded),
            "failed" => Ok(JobStatus::Failed),
            other => Err(format!("unknown job status {other:?}")),
        }
    }
}

/// The `talft.talftd.v1` job report: supervision metadata, the embedded
/// shard parts (so [`check_report`] can re-prove the merge offline), and
/// the merged campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job name (source file stem).
    pub name: String,
    /// Source kind.
    pub kind: JobKind,
    /// Terminal status.
    pub status: JobStatus,
    /// Shard count of the partition.
    pub shards: u32,
    /// Shards that exhausted their retries.
    pub poisoned: Vec<u32>,
    /// Worker processes spawned in total (first attempts + retries).
    pub attempts: u64,
    /// Plans in the whole grid.
    pub total_plans: u64,
    /// Plans covered by the merged report (`== total_plans` iff completed).
    pub covered_plans: u64,
    /// Grid fingerprint every part was validated against.
    pub fingerprint: u64,
    /// The shard parts that survived.
    pub parts: Vec<ShardPart>,
    /// The merged campaign report (absent for failed jobs).
    pub merged: Option<CampaignReport>,
}

impl JobReport {
    /// Encode as schema-tagged JSON ([`JOB_SCHEMA`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::str(JOB_SCHEMA)),
            ("job", Json::str(&self.name)),
            ("kind", Json::str(self.kind.name())),
            ("status", Json::str(self.status.name())),
            ("shards", Json::U64(u64::from(self.shards))),
            (
                "poisoned",
                Json::Array(
                    self.poisoned
                        .iter()
                        .map(|&i| Json::U64(u64::from(i)))
                        .collect(),
                ),
            ),
            ("attempts", Json::U64(self.attempts)),
            ("total_plans", Json::U64(self.total_plans)),
            ("covered_plans", Json::U64(self.covered_plans)),
            ("fingerprint", Json::U64(self.fingerprint)),
            (
                "parts",
                Json::Array(self.parts.iter().map(ShardPart::to_json).collect()),
            ),
        ];
        if let Some(m) = &self.merged {
            fields.push(("report", wire::report_to_json(m)));
        }
        Json::obj(fields)
    }

    /// Decode; inverse of [`JobReport::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the malformed key.
    pub fn from_json(j: &Json) -> Result<JobReport, String> {
        wire::expect_schema(j, JOB_SCHEMA)?;
        let poisoned = wire::need_array(j, "poisoned")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "bad poisoned entry".to_owned())
            })
            .collect::<Result<Vec<u32>, String>>()?;
        let parts = wire::need_array(j, "parts")?
            .iter()
            .map(ShardPart::from_json)
            .collect::<Result<Vec<ShardPart>, String>>()?;
        Ok(JobReport {
            name: wire::need_str(j, "job")?.to_owned(),
            kind: JobKind::parse(wire::need_str(j, "kind")?)?,
            status: JobStatus::parse(wire::need_str(j, "status")?)?,
            shards: u32::try_from(wire::need_u64(j, "shards")?)
                .map_err(|_| "shards overflows u32".to_owned())?,
            poisoned,
            attempts: wire::need_u64(j, "attempts")?,
            total_plans: wire::need_u64(j, "total_plans")?,
            covered_plans: wire::need_u64(j, "covered_plans")?,
            fingerprint: wire::need_u64(j, "fingerprint")?,
            parts,
            merged: match j.get("report") {
                Some(r) => Some(wire::report_from_json(r)?),
                None => None,
            },
        })
    }
}

/// Per-shard supervision state.
enum SlotState {
    Pending,
    Running(Child, Instant),
    Done(Box<ShardPart>),
    Poisoned,
}

struct Slot {
    spec: ShardSpec,
    state: SlotState,
    attempts: u32,
    next_start: Instant,
}

/// Streamed event sink: one `talft.talftd.v1` JSON object per event.
pub type EventSink<'a> = &'a mut dyn FnMut(&Json);

fn event(sink: EventSink<'_>, job: &str, kind: &str, extra: Vec<(&str, Json)>) {
    let mut fields = vec![
        ("schema", Json::str(JOB_SCHEMA)),
        ("event", Json::str(kind)),
        ("job", Json::str(job)),
    ];
    fields.extend(extra);
    sink(&Json::obj(fields));
}

/// Run one job end to end: shard the grid, supervise the worker fleet
/// (timeouts, backoff retries, poisoning), and merge with proof.
///
/// The parent derives the grid once in-process (golden run + plan
/// enumeration — *not* the campaign itself) so it can validate every
/// returned part against the grid fingerprint and exact shard sizes before
/// trusting it in the merge.
///
/// # Errors
///
/// Only *pre-campaign* failures (unreadable source, unbuildable program)
/// error out; worker failures degrade the job instead.
pub fn run_job(
    name: &str,
    source: &Path,
    kind: JobKind,
    cfg: &ServiceConfig,
    dir: &Path,
    sink: EventSink<'_>,
) -> Result<JobReport, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let text =
        std::fs::read_to_string(source).map_err(|e| format!("read {}: {e}", source.display()))?;
    let program = build_program(kind, &text)?;
    let golden = golden_run(&program, &cfg.campaign).map_err(|e| e.to_string())?;
    let plans = multi_fault_plans(&program, &cfg.campaign, &golden, cfg.fault_order);
    let fingerprint = grid_fingerprint(&golden, &plans);
    let shards = cfg.shards.max(1);
    event(
        sink,
        name,
        "job_start",
        vec![
            ("shards", Json::U64(u64::from(shards))),
            ("total_plans", Json::U64(plans.len() as u64)),
            ("fingerprint", Json::U64(fingerprint)),
        ],
    );
    let now = Instant::now();
    let mut slots: Vec<Slot> = (0..shards)
        .map(|i| Slot {
            spec: ShardSpec::new(i, shards).expect("i < shards"),
            state: SlotState::Pending,
            attempts: 0,
            next_start: now,
        })
        .collect();
    let mut attempts_total = 0u64;
    loop {
        let mut all_settled = true;
        for slot in &mut slots {
            match &mut slot.state {
                SlotState::Done(_) | SlotState::Poisoned => {}
                SlotState::Pending => {
                    all_settled = false;
                    if Instant::now() >= slot.next_start {
                        slot.attempts += 1;
                        attempts_total += 1;
                        event(
                            sink,
                            name,
                            "spawn",
                            vec![
                                ("shard", Json::U64(u64::from(slot.spec.index))),
                                ("attempt", Json::U64(u64::from(slot.attempts))),
                            ],
                        );
                        match spawn_worker(cfg, source, kind, slot.spec, dir) {
                            Ok(child) => {
                                slot.state = SlotState::Running(child, Instant::now());
                            }
                            Err(e) => {
                                fail_slot(slot, cfg, sink, name, &e);
                            }
                        }
                    }
                }
                SlotState::Running(child, started) => {
                    all_settled = false;
                    let elapsed = started.elapsed();
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => {
                            match shard::read_part(dir, slot.spec, fingerprint, plans.len()) {
                                Ok(part) => {
                                    event(
                                        sink,
                                        name,
                                        "shard_done",
                                        vec![
                                            ("shard", Json::U64(u64::from(slot.spec.index))),
                                            ("plans", Json::U64(part.plans)),
                                            ("sdc", Json::U64(part.report.sdc)),
                                            ("detected", Json::U64(part.report.detected)),
                                        ],
                                    );
                                    slot.state = SlotState::Done(Box::new(part));
                                }
                                Err(e) => fail_slot(slot, cfg, sink, name, &e),
                            }
                        }
                        Ok(Some(status)) => {
                            fail_slot(slot, cfg, sink, name, &format!("worker exited {status}"));
                        }
                        Ok(None) if elapsed > cfg.worker_timeout => {
                            WORKER_TIMEOUTS.inc();
                            let _ = child.kill();
                            let _ = child.wait();
                            fail_slot(
                                slot,
                                cfg,
                                sink,
                                name,
                                &format!("timeout after {:?}", cfg.worker_timeout),
                            );
                        }
                        Ok(None) => {}
                        Err(e) => fail_slot(slot, cfg, sink, name, &format!("wait: {e}")),
                    }
                }
            }
        }
        if all_settled {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (mut poisoned, mut parts) = (Vec::new(), Vec::new());
    for slot in slots {
        match slot.state {
            SlotState::Done(part) => parts.push(*part),
            SlotState::Poisoned => poisoned.push(slot.spec.index),
            SlotState::Pending | SlotState::Running(..) => {}
        }
    }
    let total_plans = plans.len() as u64;
    let (status, covered, merged) = if poisoned.is_empty() {
        let merged = merge_shard_reports(&parts).map_err(|e| format!("merge: {e}"))?;
        JOBS_COMPLETED.inc();
        (JobStatus::Completed, total_plans, Some(merged))
    } else if parts.is_empty() {
        JOBS_FAILED.inc();
        (JobStatus::Failed, 0, None)
    } else {
        let (merged, covered) =
            merge_surviving_shards(&parts).map_err(|e| format!("degraded merge: {e}"))?;
        JOBS_DEGRADED.inc();
        (JobStatus::Degraded, covered, Some(merged))
    };
    event(
        sink,
        name,
        "job_done",
        vec![
            ("status", Json::str(status.name())),
            ("covered_plans", Json::U64(covered)),
            ("total_plans", Json::U64(total_plans)),
            ("attempts", Json::U64(attempts_total)),
        ],
    );
    Ok(JobReport {
        name: name.to_owned(),
        kind,
        status,
        shards,
        poisoned,
        attempts: attempts_total,
        total_plans,
        covered_plans: covered,
        fingerprint,
        parts,
        merged,
    })
}

fn fail_slot(slot: &mut Slot, cfg: &ServiceConfig, sink: EventSink<'_>, job: &str, cause: &str) {
    if slot.attempts > cfg.retry.max_retries {
        SHARDS_POISONED.inc();
        event(
            sink,
            job,
            "poisoned",
            vec![
                ("shard", Json::U64(u64::from(slot.spec.index))),
                ("cause", Json::str(cause)),
            ],
        );
        slot.state = SlotState::Poisoned;
    } else {
        WORKER_RETRIES.inc();
        let delay = cfg.retry.delay_ms(slot.attempts.saturating_sub(1));
        event(
            sink,
            job,
            "retry",
            vec![
                ("shard", Json::U64(u64::from(slot.spec.index))),
                ("attempt", Json::U64(u64::from(slot.attempts))),
                ("delay_ms", Json::U64(delay)),
                ("cause", Json::str(cause)),
            ],
        );
        slot.next_start = Instant::now() + Duration::from_millis(delay);
        slot.state = SlotState::Pending;
    }
}

/// Re-prove a job report offline: schema, arithmetic, and — decisively —
/// that the merged report is **recomputable bit-for-bit** from the embedded
/// shard parts. With `expect_zero_sdc`, additionally enforce the Theorem 4
/// gate on the merged report.
///
/// # Errors
///
/// The first inconsistency found, as a message.
pub fn check_report(j: &Json, expect_zero_sdc: bool) -> Result<JobReport, String> {
    let rep = JobReport::from_json(j)?;
    for p in &rep.parts {
        if p.fingerprint != rep.fingerprint {
            return Err(format!(
                "part {} fingerprint disagrees with the job fingerprint",
                p.spec
            ));
        }
        if p.spec.count != rep.shards {
            return Err(format!("part {} disagrees on the shard count", p.spec));
        }
    }
    match rep.status {
        JobStatus::Completed => {
            if !rep.poisoned.is_empty() {
                return Err("completed job lists poisoned shards".to_owned());
            }
            let merged = merge_shard_reports(&rep.parts).map_err(|e| e.to_string())?;
            let claimed = rep.merged.as_ref().ok_or("completed job missing report")?;
            if &merged != claimed {
                return Err("merged report is not reproducible from its shard parts".to_owned());
            }
            if rep.covered_plans != rep.total_plans || merged.total != rep.total_plans {
                return Err("completed job does not cover its whole grid".to_owned());
            }
        }
        JobStatus::Degraded => {
            if rep.poisoned.is_empty() {
                return Err("degraded job lists no poisoned shards".to_owned());
            }
            let (merged, covered) =
                merge_surviving_shards(&rep.parts).map_err(|e| e.to_string())?;
            let claimed = rep.merged.as_ref().ok_or("degraded job missing report")?;
            if &merged != claimed {
                return Err("degraded report is not reproducible from its shard parts".to_owned());
            }
            if covered != rep.covered_plans || covered >= rep.total_plans {
                return Err("degraded coverage arithmetic is inconsistent".to_owned());
            }
        }
        JobStatus::Failed => {
            if rep.merged.is_some() {
                return Err("failed job carries a report".to_owned());
            }
        }
    }
    if expect_zero_sdc {
        if let Some(m) = &rep.merged {
            if m.sdc != 0 {
                return Err(format!("expected zero SDC, report carries {}", m.sdc));
            }
        }
    }
    Ok(rep)
}

// ---------------------------------------------------------------------------
// Spool
// ---------------------------------------------------------------------------

/// The spool directory: `incoming/` (drop `.wile`/`.talft` files here),
/// `running/` (claimed jobs + shard scratch), `done/` and `failed/`
/// (source + `<name>.json` report).
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Open (creating) a spool rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: &Path) -> std::io::Result<Spool> {
        for sub in ["incoming", "running", "done", "failed"] {
            std::fs::create_dir_all(root.join(sub))?;
        }
        Ok(Spool {
            root: root.to_path_buf(),
        })
    }

    /// `incoming/` — drop job files here.
    #[must_use]
    pub fn incoming(&self) -> PathBuf {
        self.root.join("incoming")
    }

    /// The oldest (lexicographically first) job file waiting in `incoming/`.
    #[must_use]
    pub fn next_job(&self) -> Option<PathBuf> {
        let mut jobs: Vec<PathBuf> = std::fs::read_dir(self.incoming())
            .ok()?
            .flatten()
            .map(|e| e.path())
            .filter(|p| JobKind::from_path(p).is_some())
            .collect();
        jobs.sort();
        jobs.into_iter().next()
    }

    /// Claim a job: move it into `running/` (atomic rename — two daemons
    /// cannot both claim it).
    ///
    /// # Errors
    ///
    /// Propagates the rename failure (e.g. lost the claim race).
    pub fn claim(&self, job: &Path) -> std::io::Result<PathBuf> {
        let dest = self
            .root
            .join("running")
            .join(job.file_name().unwrap_or_default());
        std::fs::rename(job, &dest)?;
        Ok(dest)
    }

    /// Retire a finished job: write `<name>.json` and move the source into
    /// `done/` or `failed/` by status. Returns the report path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(&self, claimed: &Path, report: &JobReport) -> std::io::Result<PathBuf> {
        let bucket = if report.status == JobStatus::Failed {
            "failed"
        } else {
            "done"
        };
        let dir = self.root.join(bucket);
        let report_path = dir.join(format!("{}.json", report.name));
        atomic_write(&report_path, &format!("{}\n", report.to_json()))?;
        std::fs::rename(claimed, dir.join(claimed.file_name().unwrap_or_default()))?;
        // Shard scratch for this job is no longer needed.
        let _ = std::fs::remove_dir_all(self.scratch(&report.name));
        Ok(report_path)
    }

    /// Shard scratch directory (checkpoints + parts) for a job name.
    #[must_use]
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.root.join("running").join(format!("{name}.shards"))
    }
}

/// Process at most one waiting job from the spool. Returns `None` when
/// `incoming/` is empty.
///
/// # Errors
///
/// Spool I/O and pre-campaign job failures (a failed *campaign* is a
/// `Failed` report, not an error).
pub fn serve_once(
    spool: &Spool,
    cfg: &ServiceConfig,
    sink: EventSink<'_>,
) -> Result<Option<JobReport>, String> {
    let Some(job) = spool.next_job() else {
        return Ok(None);
    };
    let kind = JobKind::from_path(&job).expect("next_job filters by kind");
    let name = job
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("job")
        .to_owned();
    let claimed = spool.claim(&job).map_err(|e| format!("claim: {e}"))?;
    let scratch = spool.scratch(&name);
    let report = match run_job(&name, &claimed, kind, cfg, &scratch, sink) {
        Ok(r) => r,
        Err(e) => {
            // Pre-campaign failure: park the source in failed/ with a stub
            // report so the submitter sees *why*.
            event(sink, &name, "job_error", vec![("cause", Json::str(&e))]);
            let stub = JobReport {
                name: name.clone(),
                kind,
                status: JobStatus::Failed,
                shards: cfg.shards.max(1),
                poisoned: Vec::new(),
                attempts: 0,
                total_plans: 0,
                covered_plans: 0,
                fingerprint: 0,
                parts: Vec::new(),
                merged: None,
            };
            let _ = spool.finish(&claimed, &stub);
            return Err(e);
        }
    };
    spool
        .finish(&claimed, &report)
        .map_err(|e| format!("finish: {e}"))?;
    Ok(Some(report))
}

/// Daemon loop: poll the spool until `max_jobs` jobs have been processed
/// (`None` = forever).
///
/// # Errors
///
/// Propagates [`serve_once`] errors.
pub fn serve(
    spool: &Spool,
    cfg: &ServiceConfig,
    sink: EventSink<'_>,
    poll: Duration,
    max_jobs: Option<usize>,
) -> Result<usize, String> {
    let mut done = 0usize;
    loop {
        match serve_once(spool, cfg, sink)? {
            Some(_) => {
                done += 1;
                if max_jobs.is_some_and(|m| done >= m) {
                    return Ok(done);
                }
            }
            None => {
                if max_jobs.is_some() && done > 0 {
                    return Ok(done);
                }
                std::thread::sleep(poll);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Smoke (the CI gate)
// ---------------------------------------------------------------------------

/// The `talftd smoke` gate: run a 4-shard campaign over a suite kernel,
/// **SIGKILL one worker mid-grid** (after its first durable checkpoint),
/// let the service resume it, and hard-fail unless the merged report is
/// bit-identical to an in-process whole-grid run. Writes the job report to
/// `out` and re-validates it with [`check_report`] (zero SDC enforced —
/// the kernel is protected).
///
/// # Errors
///
/// Any divergence from the whole-grid report, a non-`Completed` job, or a
/// validator failure.
pub fn smoke(out: &Path, shards: u32, sink: EventSink<'_>) -> Result<JobReport, String> {
    let kernel = &talft_suite::kernels(talft_suite::Scale::Tiny)[0];
    let dir = std::env::temp_dir().join(format!("talftd-smoke-{}", std::process::id()));
    let scratch = dir.join("shards");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let source = dir.join(format!("{}.wile", kernel.name));
    std::fs::write(&source, &kernel.source).map_err(|e| format!("write source: {e}"))?;
    let cfg = ServiceConfig {
        shards,
        checkpoint_every: 8,
        campaign: CampaignConfig {
            stride: 11,
            mutations_per_site: 2,
            threads: 2,
            ..CampaignConfig::default()
        },
        ..ServiceConfig::default()
    };
    // Phase 1: start shard 0 alone and SIGKILL it once its first durable
    // checkpoint hits the disk — a real mid-grid worker death, not a
    // simulated one. (If the worker wins the race and completes first, the
    // resume path degenerates to a completed part; the bit-identity diff
    // below gates either way, and `killed` records which path ran.)
    let spec0 = ShardSpec::new(0, shards).ok_or("shards must be >= 1")?;
    let mut child = spawn_worker(&cfg, &source, JobKind::Wile, spec0, &scratch)?;
    let cp0 = shard::checkpoint_path(&scratch, spec0);
    let mut killed = false;
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if cp0.exists() {
            if child.kill().is_ok() {
                killed = true;
            }
            let _ = child.wait();
            break;
        }
        if let Ok(Some(_)) = child.try_wait() {
            break; // finished before the first checkpoint could be observed
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("smoke: shard 0 produced no checkpoint within 300s".to_owned());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    event(
        sink,
        kernel.name,
        "smoke_kill",
        vec![("killed_mid_grid", Json::Bool(killed))],
    );
    // Phase 2: run the job through the normal service path. Shard 0's
    // worker finds the orphaned checkpoint and resumes from it.
    let report = run_job(kernel.name, &source, JobKind::Wile, &cfg, &scratch, sink)?;
    if report.status != JobStatus::Completed {
        return Err(format!("smoke: job {}", report.status.name()));
    }
    // Phase 3: the differential — whole grid, one process, no shards.
    let program = build_program(JobKind::Wile, &kernel.source)?;
    let golden = golden_run(&program, &cfg.campaign).map_err(|e| e.to_string())?;
    let plans = multi_fault_plans(&program, &cfg.campaign, &golden, cfg.fault_order);
    let whole = run_plan_campaign(&program, &cfg.campaign, &golden, &plans);
    if report.merged.as_ref() != Some(&whole) {
        return Err(
            "smoke: resumed+merged report is NOT bit-identical to the whole-grid run".to_owned(),
        );
    }
    atomic_write(out, &format!("{}\n", report.to_json())).map_err(|e| format!("write: {e}"))?;
    let text = std::fs::read_to_string(out).map_err(|e| e.to_string())?;
    let back = Json::parse(&text).map_err(|e| e.to_string())?;
    check_report(&back, true)?;
    event(
        sink,
        kernel.name,
        "smoke_ok",
        vec![
            ("killed_mid_grid", Json::Bool(killed)),
            ("total_plans", Json::U64(report.total_plans)),
            ("attempts", Json::U64(report.attempts)),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use talft_faultsim::{single_fault_plans, ShardOutcome, Verdict};

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

    fn sample_parts() -> (Vec<ShardPart>, u64) {
        let p = build_program(JobKind::Talft, PROTECTED).unwrap();
        let cfg = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &cfg).unwrap();
        let plans = single_fault_plans(&p, &cfg, &golden);
        let parts = (0..2u32)
            .map(|i| {
                let spec = ShardSpec::new(i, 2).unwrap();
                let ShardOutcome::Complete(part) = talft_faultsim::run_shard_campaign(
                    &p,
                    &cfg,
                    &golden,
                    &plans,
                    spec,
                    0,
                    None,
                    |_| ShardControl::Continue,
                )
                .unwrap() else {
                    panic!("complete")
                };
                part
            })
            .collect();
        (parts, plans.len() as u64)
    }

    fn sample_report() -> JobReport {
        let (parts, total) = sample_parts();
        let merged = merge_shard_reports(&parts).unwrap();
        JobReport {
            name: "sample".to_owned(),
            kind: JobKind::Talft,
            status: JobStatus::Completed,
            shards: 2,
            poisoned: Vec::new(),
            attempts: 2,
            total_plans: total,
            covered_plans: total,
            fingerprint: parts[0].fingerprint,
            parts,
            merged: Some(merged),
        }
    }

    /// Capped exponential backoff is deterministic and saturates.
    #[test]
    fn retry_policy_backs_off_to_its_cap() {
        let pol = RetryPolicy {
            max_retries: 3,
            base_delay_ms: 4,
            max_delay_ms: 10,
        };
        assert_eq!(pol.delay_ms(0), 4);
        assert_eq!(pol.delay_ms(1), 8);
        assert_eq!(pol.delay_ms(2), 10, "capped");
        assert_eq!(pol.delay_ms(63), 10);
        assert_eq!(
            pol.delay_ms(64),
            10,
            "shift overflow saturates, stays capped"
        );
    }

    #[test]
    fn job_kind_classifies_by_extension() {
        assert_eq!(
            JobKind::from_path(Path::new("a/b.wile")),
            Some(JobKind::Wile)
        );
        assert_eq!(
            JobKind::from_path(Path::new("x.talft")),
            Some(JobKind::Talft)
        );
        assert_eq!(JobKind::from_path(Path::new("x.json")), None);
        assert_eq!(JobKind::parse("wile").unwrap(), JobKind::Wile);
        assert!(JobKind::parse("elf").is_err());
    }

    #[test]
    fn job_report_roundtrips_bit_exactly() {
        let rep = sample_report();
        let text = rep.to_json().to_string();
        let back = JobReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn check_report_accepts_honest_and_rejects_tampered() {
        let rep = sample_report();
        check_report(&rep.to_json(), true).expect("honest report validates");
        // Tamper 1: inflate a verdict count in the merged report.
        let mut forged = rep.clone();
        if let Some(m) = &mut forged.merged {
            m.masked += 1;
            m.total += 1;
        }
        forged.total_plans += 1;
        forged.covered_plans += 1;
        assert!(
            check_report(&forged.to_json(), false).is_err(),
            "forged merge must not validate"
        );
        // Tamper 2: claim completed while a shard is missing.
        let mut partial = rep.clone();
        partial.parts.pop();
        assert!(check_report(&partial.to_json(), false).is_err());
        // Tamper 3: hide an SDC count from the zero-SDC gate.
        let mut sdc = rep.clone();
        if let Some(m) = &mut sdc.merged {
            m.masked -= 1;
            m.sdc += 1;
        }
        if let Some(m) = &mut sdc.parts.last_mut().map(|p| &mut p.report) {
            m.masked -= 1;
            m.sdc += 1;
            m.violations.push(talft_faultsim::Injection {
                at_step: 0,
                site: talft_machine::FaultSite::QueueAddr(0),
                value: 1,
                followups: Vec::new(),
                verdict: Verdict::Sdc,
            });
        }
        assert!(check_report(&sdc.to_json(), true).is_err());
        // Degraded arithmetic: dropping a shard but keeping status completed
        // is caught; an honest degraded report passes.
        let (parts, total) = sample_parts();
        let survivor = vec![parts[0].clone()];
        let (merged, covered) = merge_surviving_shards(&survivor).unwrap();
        let degraded = JobReport {
            name: "deg".to_owned(),
            kind: JobKind::Talft,
            status: JobStatus::Degraded,
            shards: 2,
            poisoned: vec![1],
            attempts: 4,
            total_plans: total,
            covered_plans: covered,
            fingerprint: survivor[0].fingerprint,
            parts: survivor,
            merged: Some(merged),
        };
        check_report(&degraded.to_json(), true).expect("honest degraded validates");
    }

    #[test]
    fn worker_args_roundtrip_through_argv() {
        let args: Vec<String> = [
            "--source",
            "/tmp/x.talft",
            "--kind=talft",
            "--shard=1",
            "--of=4",
            "--dir",
            "/tmp/shards",
            "--every=16",
            "--k=2",
            "--max-steps=5000",
            "--stride=3",
            "--mutations=2",
            "--seed=99",
            "--pair-samples=64",
            "--pair-window=12",
            "--threads=1",
            "--oob=fault",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let w = parse_worker_args(&args).unwrap();
        assert_eq!(w.spec, ShardSpec::new(1, 4).unwrap());
        assert_eq!(w.every, 16);
        assert_eq!(w.fault_order, 2);
        assert_eq!(w.campaign.max_steps, 5000);
        assert_eq!(w.campaign.stride, 3);
        assert_eq!(w.campaign.mutations_per_site, 2);
        assert_eq!(w.campaign.seed, 99);
        assert_eq!(w.campaign.pair_samples, 64);
        assert_eq!(w.campaign.pair_window, 12);
        assert_eq!(w.campaign.threads, 1);
        assert_eq!(w.campaign.oob, OobLoadPolicy::Fault);
        assert_eq!(parse_oob("-17").unwrap(), OobLoadPolicy::Value(-17));
        assert!(parse_worker_args(&["--bogus".to_owned()]).is_err());
        assert!(parse_worker_args(&["--batch=false".to_owned()]).is_err());
        // Names match exactly: a flag that merely starts like one is unknown.
        for prefixed in ["--shards=2", "--kx=1", "--everyone=3", "--sourcefile=x"] {
            let err = parse_worker_args(&[prefixed.to_owned()])
                .err()
                .expect("refused");
            assert!(err.contains("unknown worker argument"), "{prefixed}: {err}");
        }
    }
}
