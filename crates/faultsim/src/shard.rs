//! Deterministic campaign **sharding** with durable, crash-tolerant
//! checkpoints — the multi-process execution layer under `talftd` and
//! `talftc --shards`.
//!
//! Three invariants, each load-bearing:
//!
//! 1. **Stable plan→shard mapping.** The grid is frozen in *sorted plan
//!    order* (stable sort by first-strike step — the same order
//!    [`run_plan_campaign`] reports in), and shard `i` of `N` owns the
//!    contiguous range `[i·P/N, (i+1)·P/N)` of that order. Any process that
//!    can reproduce the plan set (plans are a deterministic function of
//!    program + config + seed) reproduces the exact same partition.
//! 2. **Chunk-invariant accumulation.** A shard runs as a sequence of
//!    chunks of `checkpoint_every` plans; each chunk is a full
//!    [`run_plan_campaign`] (itself bit-identical at every thread count) and
//!    chunk reports are folded in order with the same cap-exact violation
//!    accounting the engine uses internally. The folded report is therefore
//!    **independent of chunk boundaries**: resuming from any checkpoint —
//!    even with a different `checkpoint_every` — reproduces the identical
//!    verdict stream and final report.
//! 3. **Merge proof.** [`merge_shard_reports`] recombines shard reports in
//!    shard order after checking that they cover *exactly* the partition
//!    (same grid fingerprint, same shard count, every index exactly once,
//!    every shard complete). Because shards are contiguous in sorted order,
//!    the in-order fold equals the whole-grid report **bit for bit** —
//!    the cross-process extension of the reference-vs-batched
//!    differential, asserted by `tests/shard_resume.rs` on suite kernels.
//!
//! Checkpoints ([`CampaignCheckpoint`]) are schema-tagged JSON
//! (`talft.checkpoint.v1`, full-fidelity via [`crate::wire`]) written
//! atomically (temp file + rename), so a worker killed at *any* point —
//! SIGKILL included — leaves either the previous or the next checkpoint on
//! disk, never a torn one.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use talft_isa::Program;
use talft_machine::FaultSite;
use talft_obs::{Json, LazyCounter};

use crate::wire::{self, WireError};
use crate::{
    run_plan_campaign, CampaignConfig, CampaignReport, FaultPlan, Golden, VIOLATIONS_KEPT,
};

static SHARD_CHUNKS: LazyCounter = LazyCounter::new("faultsim.shard.chunks");
static SHARD_CHECKPOINTS: LazyCounter = LazyCounter::new("faultsim.shard.checkpoints");
static SHARD_RESUMED_PLANS: LazyCounter = LazyCounter::new("faultsim.shard.resumed_plans");

/// Default chunk size (plans between checkpoints) for shard runs.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 256;

/// One shard of an `N`-way partition of a campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Shard index, `0 ≤ index < count`.
    pub index: u32,
    /// Total shard count, `≥ 1`.
    pub count: u32,
}

impl ShardSpec {
    /// Build a spec; `None` unless `index < count` and `count ≥ 1`.
    #[must_use]
    pub fn new(index: u32, count: u32) -> Option<ShardSpec> {
        (count >= 1 && index < count).then_some(ShardSpec { index, count })
    }

    /// This shard's contiguous range of the sorted plan order: the balanced
    /// split `[i·P/N, (i+1)·P/N)` — disjoint, covering, and deterministic.
    #[must_use]
    pub fn range(&self, total_plans: usize) -> Range<usize> {
        let (i, n) = (self.index as usize, self.count as usize);
        (i * total_plans / n)..((i + 1) * total_plans / n)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// 64-bit FNV-1a, the repo's stable cross-process hash (std's `DefaultHasher`
/// is explicitly not stable across releases).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn i64(&mut self, v: i64) {
        self.u64(u64::from_le_bytes(v.to_le_bytes()));
    }

    fn site(&mut self, s: FaultSite) {
        match s {
            FaultSite::Reg(r) => {
                self.byte(1);
                for b in r.to_string().bytes() {
                    self.byte(b);
                }
            }
            FaultSite::QueueAddr(i) => {
                self.byte(2);
                self.u64(i as u64);
            }
            FaultSite::QueueVal(i) => {
                self.byte(3);
                self.u64(i as u64);
            }
        }
    }
}

/// Fingerprint of a campaign grid: golden run (steps + trace) and the full
/// plan set. Two processes agree on the fingerprint iff they derived the
/// same grid, which is what makes a checkpoint or shard report from another
/// process safe to combine with locally derived plans.
#[must_use]
pub fn grid_fingerprint(golden: &Golden, plans: &[FaultPlan]) -> u64 {
    let mut h = Fnv::new();
    h.u64(golden.steps);
    h.u64(golden.trace.len() as u64);
    for &(a, v) in &golden.trace {
        h.i64(a);
        h.i64(v);
    }
    h.u64(plans.len() as u64);
    for p in plans {
        h.u64(p.order() as u64);
        for s in p.strikes() {
            h.u64(s.at_step);
            h.site(s.site);
            h.i64(s.value);
        }
    }
    h.0
}

/// The sorted plan order shared by the engine, the shard partition, and the
/// report's violation stream: stable sort by first-strike step.
fn sorted_order(plans: &[FaultPlan]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| plans[i].first_step());
    order
}

/// The plans of one shard, in execution (sorted) order.
#[must_use]
pub fn shard_plans(plans: &[FaultPlan], spec: ShardSpec) -> Vec<FaultPlan> {
    let order = sorted_order(plans);
    order[spec.range(plans.len())]
        .iter()
        .map(|&i| plans[i].clone())
        .collect()
}

/// A durable shard checkpoint: everything needed to resume the shard and
/// provably reproduce the identical verdict stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// [`grid_fingerprint`] of the grid this checkpoint belongs to.
    pub fingerprint: u64,
    /// Which shard of the partition.
    pub spec: ShardSpec,
    /// Total plans in this shard.
    pub shard_plans: u64,
    /// Plans completed — a *prefix* of the shard's sorted order.
    pub done: u64,
    /// The partial report over the completed prefix.
    pub report: CampaignReport,
}

impl CampaignCheckpoint {
    /// Encode as schema-tagged JSON (`talft.checkpoint.v1`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("talft.checkpoint.v1")),
            ("fingerprint", Json::U64(self.fingerprint)),
            ("shard", Json::U64(u64::from(self.spec.index))),
            ("of", Json::U64(u64::from(self.spec.count))),
            ("shard_plans", Json::U64(self.shard_plans)),
            ("done", Json::U64(self.done)),
            ("report", wire::report_to_json(&self.report)),
        ])
    }

    /// Decode; inverse of [`CampaignCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the malformed key.
    pub fn from_json(j: &Json) -> Result<CampaignCheckpoint, WireError> {
        wire::expect_schema(j, "talft.checkpoint.v1")?;
        let index = u32::try_from(wire::need_u64(j, "shard")?)
            .map_err(|_| "shard index overflows u32".to_owned())?;
        let count = u32::try_from(wire::need_u64(j, "of")?)
            .map_err(|_| "shard count overflows u32".to_owned())?;
        let spec = ShardSpec::new(index, count)
            .ok_or_else(|| format!("invalid shard spec {index}/{count}"))?;
        Ok(CampaignCheckpoint {
            fingerprint: wire::need_u64(j, "fingerprint")?,
            spec,
            shard_plans: wire::need_u64(j, "shard_plans")?,
            done: wire::need_u64(j, "done")?,
            report: wire::report_from_json(wire::need(j, "report")?)?,
        })
    }

    /// Write atomically (temp file in the same directory + rename), so a
    /// crash mid-write can never leave a torn checkpoint behind.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, &format!("{}\n", self.to_json()))
    }

    /// Load and decode a checkpoint file.
    ///
    /// # Errors
    ///
    /// I/O and decode failures, as a message.
    pub fn load(path: &Path) -> Result<CampaignCheckpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        CampaignCheckpoint::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Write `text` to `path` atomically: temp file in the same directory,
/// then rename (a POSIX rename replaces the target in one step).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// `observe` verdict after each checkpoint: keep going or stop gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardControl {
    /// Continue with the next chunk.
    Continue,
    /// Stop after this checkpoint (graceful interruption — SIGTERM, budget).
    Stop,
}

/// How a shard run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardOutcome {
    /// All plans of the shard executed; the shard's complete report.
    Complete(CampaignReport),
    /// Stopped at a checkpoint on `observe`'s request; resume from here.
    Interrupted(CampaignCheckpoint),
}

/// Why a shard run refused to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// `stop_on_first_violation` is inherently sequential-global; a gated
    /// campaign cannot be sharded without changing its semantics.
    GatedUnsupported,
    /// The resume checkpoint does not belong to this grid/shard.
    ResumeMismatch(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::GatedUnsupported => {
                write!(f, "stop_on_first_violation cannot be sharded")
            }
            ShardError::ResumeMismatch(why) => write!(f, "resume checkpoint rejected: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Run one shard of the grid, checkpointing every `checkpoint_every` plans
/// (0 = no intermediate checkpoints). `observe` is called with each fresh
/// checkpoint — the caller persists it and decides whether to continue —
/// and is *not* called once the shard is complete.
///
/// With `resume`, execution restarts at the checkpoint's watermark and the
/// final report is **bit-identical** to an uninterrupted run of the shard
/// (chunk-invariant accumulation; the resumed `checkpoint_every` need not
/// even match the original).
///
/// # Errors
///
/// [`ShardError::GatedUnsupported`] for gated configs;
/// [`ShardError::ResumeMismatch`] when `resume` belongs to a different
/// grid, shard, or claims an impossible watermark.
#[allow(clippy::too_many_arguments)] // the shard tuple (spec, every, resume, observe) is the API
pub fn run_shard_campaign(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    spec: ShardSpec,
    checkpoint_every: usize,
    resume: Option<&CampaignCheckpoint>,
    mut observe: impl FnMut(&CampaignCheckpoint) -> ShardControl,
) -> Result<ShardOutcome, ShardError> {
    if cfg.stop_on_first_violation {
        return Err(ShardError::GatedUnsupported);
    }
    let mine = shard_plans(plans, spec);
    let fingerprint = grid_fingerprint(golden, plans);
    let every = if checkpoint_every == 0 {
        mine.len().max(1)
    } else {
        checkpoint_every
    };
    let (mut done, mut report) = match resume {
        None => (0usize, CampaignReport::default()),
        Some(cp) => {
            if cp.fingerprint != fingerprint {
                return Err(ShardError::ResumeMismatch(format!(
                    "grid fingerprint {:016x} != checkpoint {:016x}",
                    fingerprint, cp.fingerprint
                )));
            }
            if cp.spec != spec {
                return Err(ShardError::ResumeMismatch(format!(
                    "checkpoint is for shard {}, not {spec}",
                    cp.spec
                )));
            }
            if cp.shard_plans != mine.len() as u64 || cp.done > cp.shard_plans {
                return Err(ShardError::ResumeMismatch(format!(
                    "watermark {}/{} does not fit a {}-plan shard",
                    cp.done,
                    cp.shard_plans,
                    mine.len()
                )));
            }
            if cp.report.total != cp.done {
                return Err(ShardError::ResumeMismatch(format!(
                    "partial report covers {} plans, watermark says {}",
                    cp.report.total, cp.done
                )));
            }
            SHARD_RESUMED_PLANS.add(cp.done);
            (
                usize::try_from(cp.done).expect("watermark fits usize"),
                cp.report.clone(),
            )
        }
    };
    while done < mine.len() {
        let hi = (done + every).min(mine.len());
        let chunk = run_plan_campaign(program, cfg, golden, &mine[done..hi]);
        report.merge(chunk);
        done = hi;
        SHARD_CHUNKS.inc();
        if done < mine.len() {
            let cp = CampaignCheckpoint {
                fingerprint,
                spec,
                shard_plans: mine.len() as u64,
                done: done as u64,
                report: report.clone(),
            };
            SHARD_CHECKPOINTS.inc();
            if observe(&cp) == ShardControl::Stop {
                return Ok(ShardOutcome::Interrupted(cp));
            }
        }
    }
    // An empty shard still carries the partition's fault order = 0; the
    // merge takes the max across shards, so nothing is lost.
    Ok(ShardOutcome::Complete(report))
}

/// One completed shard's report, as shipped between processes
/// (`talft.shard-report.v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPart {
    /// Which shard of the partition.
    pub spec: ShardSpec,
    /// [`grid_fingerprint`] of the grid the shard was cut from.
    pub fingerprint: u64,
    /// Plans this shard owns (must equal `report.total`).
    pub plans: u64,
    /// The shard's complete campaign report.
    pub report: CampaignReport,
}

impl ShardPart {
    /// Encode as schema-tagged JSON (`talft.shard-report.v1`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("talft.shard-report.v1")),
            ("shard", Json::U64(u64::from(self.spec.index))),
            ("of", Json::U64(u64::from(self.spec.count))),
            ("fingerprint", Json::U64(self.fingerprint)),
            ("plans", Json::U64(self.plans)),
            ("report", wire::report_to_json(&self.report)),
        ])
    }

    /// Decode; inverse of [`ShardPart::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the malformed key.
    pub fn from_json(j: &Json) -> Result<ShardPart, WireError> {
        wire::expect_schema(j, "talft.shard-report.v1")?;
        let index = u32::try_from(wire::need_u64(j, "shard")?)
            .map_err(|_| "shard index overflows u32".to_owned())?;
        let count = u32::try_from(wire::need_u64(j, "of")?)
            .map_err(|_| "shard count overflows u32".to_owned())?;
        let spec = ShardSpec::new(index, count)
            .ok_or_else(|| format!("invalid shard spec {index}/{count}"))?;
        Ok(ShardPart {
            spec,
            fingerprint: wire::need_u64(j, "fingerprint")?,
            plans: wire::need_u64(j, "plans")?,
            report: wire::report_from_json(wire::need(j, "report")?)?,
        })
    }
}

/// Why a set of shard reports refused to merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No parts given.
    Empty,
    /// Parts disagree on the shard count.
    MixedCounts,
    /// Parts disagree on the grid fingerprint — they are not shards of the
    /// same grid.
    MixedFingerprints,
    /// The same shard index appears twice.
    DuplicateShard(u32),
    /// A shard of the partition is missing (merge would silently undercount).
    MissingShard(u32),
    /// A part's report does not cover its whole shard — an unfinished
    /// checkpoint must never be merged as if complete.
    IncompleteShard {
        /// The offending shard index.
        index: u32,
        /// Plans the shard owns.
        plans: u64,
        /// Plans its report actually covers.
        covered: u64,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard reports to merge"),
            MergeError::MixedCounts => write!(f, "shard reports disagree on the shard count"),
            MergeError::MixedFingerprints => {
                write!(f, "shard reports carry different grid fingerprints")
            }
            MergeError::DuplicateShard(i) => write!(f, "shard {i} reported twice"),
            MergeError::MissingShard(i) => write!(f, "shard {i} missing from the merge set"),
            MergeError::IncompleteShard {
                index,
                plans,
                covered,
            } => write!(
                f,
                "shard {index} report covers {covered} of its {plans} plans"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

fn validate_parts(parts: &[ShardPart], complete: bool) -> Result<(), MergeError> {
    let Some(first) = parts.first() else {
        return Err(MergeError::Empty);
    };
    let count = first.spec.count;
    let mut seen = vec![false; count as usize];
    for p in parts {
        if p.spec.count != count {
            return Err(MergeError::MixedCounts);
        }
        if p.fingerprint != first.fingerprint {
            return Err(MergeError::MixedFingerprints);
        }
        if std::mem::replace(&mut seen[p.spec.index as usize], true) {
            return Err(MergeError::DuplicateShard(p.spec.index));
        }
        if p.report.total != p.plans {
            return Err(MergeError::IncompleteShard {
                index: p.spec.index,
                plans: p.plans,
                covered: p.report.total,
            });
        }
    }
    if complete {
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(MergeError::MissingShard(
                u32::try_from(missing).unwrap_or(0),
            ));
        }
    }
    Ok(())
}

fn fold_in_shard_order(parts: &[ShardPart]) -> CampaignReport {
    let mut order: Vec<&ShardPart> = parts.iter().collect();
    order.sort_by_key(|p| p.spec.index);
    let mut merged = CampaignReport::default();
    for p in order {
        merged.merge(p.report.clone());
    }
    merged
}

/// Merge a **complete** partition of shard reports back into the whole-grid
/// report. Fails hard unless the parts are exactly the partition (same
/// fingerprint, same count, every shard present once and complete); the
/// result is then bit-identical to a single whole-grid
/// [`run_plan_campaign`] — the invariant `tests/shard_resume.rs` and the
/// `talftd` smoke gate assert differentially.
///
/// # Errors
///
/// [`MergeError`] describing the first partition defect found.
pub fn merge_shard_reports(parts: &[ShardPart]) -> Result<CampaignReport, MergeError> {
    validate_parts(parts, true)?;
    Ok(fold_in_shard_order(parts))
}

/// Merge the *surviving* shards of a degraded job: same checks as
/// [`merge_shard_reports`] minus completeness. Returns the partial report
/// and the number of plans it covers; the caller reports coverage as
/// `covered / total` instead of pretending the grid completed.
///
/// # Errors
///
/// [`MergeError`] on inconsistent survivors.
pub fn merge_surviving_shards(parts: &[ShardPart]) -> Result<(CampaignReport, u64), MergeError> {
    validate_parts(parts, false)?;
    let covered = parts.iter().map(|p| p.plans).sum();
    Ok((fold_in_shard_order(parts), covered))
}

/// How many counterexamples a report retains before counting overflow —
/// re-exported so external validators can reason about cap-exact merges.
pub const fn violation_cap() -> usize {
    VIOLATIONS_KEPT
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{golden_run, single_fault_plans, Injection, Verdict};
    use talft_isa::{assemble, Reg};

    fn arc(src: &str) -> Arc<Program> {
        Arc::new(assemble(src).expect("assembles").program)
    }

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

    #[test]
    fn ranges_partition_exactly() {
        for total in [0usize, 1, 7, 64, 1000, 1001] {
            for count in [1u32, 2, 3, 8, 17] {
                let mut covered = 0usize;
                let mut next = 0usize;
                for i in 0..count {
                    let r = ShardSpec::new(i, count).unwrap().range(total);
                    assert_eq!(r.start, next, "gap at shard {i}/{count} of {total}");
                    next = r.end;
                    covered += r.len();
                }
                assert_eq!(next, total);
                assert_eq!(covered, total);
            }
        }
        assert!(ShardSpec::new(3, 3).is_none());
        assert!(ShardSpec::new(0, 0).is_none());
    }

    #[test]
    fn fingerprint_distinguishes_grids() {
        let p = arc(PROTECTED);
        let cfg = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &cfg).expect("halts");
        let plans = single_fault_plans(&p, &cfg, &golden);
        let f1 = grid_fingerprint(&golden, &plans);
        assert_eq!(f1, grid_fingerprint(&golden, &plans), "deterministic");
        let fewer = &plans[..plans.len() - 1];
        assert_ne!(f1, grid_fingerprint(&golden, fewer));
    }

    #[test]
    fn checkpoint_json_roundtrips() {
        let mut report = CampaignReport::default();
        report.absorb(Injection {
            at_step: 3,
            site: FaultSite::Reg(Reg::r(1)),
            value: 9,
            followups: Vec::new(),
            verdict: Verdict::Sdc,
        });
        let cp = CampaignCheckpoint {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            spec: ShardSpec::new(2, 4).unwrap(),
            shard_plans: 100,
            done: 1,
            report,
        };
        let text = cp.to_json().to_string();
        let back = CampaignCheckpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn checkpoint_save_load_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("talft-shard-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint-0.json");
        let cp = CampaignCheckpoint {
            fingerprint: 7,
            spec: ShardSpec::new(0, 1).unwrap(),
            shard_plans: 10,
            done: 0,
            report: CampaignReport::default(),
        };
        cp.save(&path).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        assert_eq!(CampaignCheckpoint::load(&path).unwrap(), cp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_run_equals_whole_grid() {
        let p = arc(PROTECTED);
        let cfg = CampaignConfig {
            threads: 2,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &cfg).expect("halts");
        let plans = single_fault_plans(&p, &cfg, &golden);
        let whole = run_plan_campaign(&p, &cfg, &golden, &plans);
        let fingerprint = grid_fingerprint(&golden, &plans);
        for count in [1u32, 2, 4, 8] {
            let parts: Vec<ShardPart> = (0..count)
                .map(|index| {
                    let spec = ShardSpec::new(index, count).expect("index < count");
                    let outcome =
                        run_shard_campaign(&p, &cfg, &golden, &plans, spec, 0, None, |_| {
                            ShardControl::Continue
                        })
                        .expect("runs");
                    let ShardOutcome::Complete(report) = outcome else {
                        panic!("an unobserved shard runs to completion");
                    };
                    ShardPart {
                        spec,
                        fingerprint,
                        plans: spec.range(plans.len()).len() as u64,
                        report,
                    }
                })
                .collect();
            let merged = merge_shard_reports(&parts).expect("partition merges");
            assert_eq!(merged, whole, "shard-union != whole grid at N={count}");
        }
    }

    #[test]
    fn gated_configs_are_rejected() {
        let p = arc(PROTECTED);
        let cfg = CampaignConfig {
            threads: 1,
            stop_on_first_violation: true,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &cfg).expect("halts");
        let plans = single_fault_plans(&p, &cfg, &golden);
        let err = run_shard_campaign(
            &p,
            &cfg,
            &golden,
            &plans,
            ShardSpec::new(0, 2).unwrap(),
            0,
            None,
            |_| ShardControl::Continue,
        )
        .expect_err("gated");
        assert_eq!(err, ShardError::GatedUnsupported);
    }

    #[test]
    fn resume_mismatches_are_rejected() {
        let p = arc(PROTECTED);
        let cfg = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &cfg).expect("halts");
        let plans = single_fault_plans(&p, &cfg, &golden);
        let spec = ShardSpec::new(0, 2).unwrap();
        let bogus = CampaignCheckpoint {
            fingerprint: 1234,
            spec,
            shard_plans: spec.range(plans.len()).len() as u64,
            done: 0,
            report: CampaignReport::default(),
        };
        let err = run_shard_campaign(&p, &cfg, &golden, &plans, spec, 0, Some(&bogus), |_| {
            ShardControl::Continue
        })
        .expect_err("wrong grid");
        assert!(matches!(err, ShardError::ResumeMismatch(_)));
        // Wrong shard.
        let mut wrong_shard = bogus.clone();
        wrong_shard.fingerprint = grid_fingerprint(&golden, &plans);
        wrong_shard.spec = ShardSpec::new(1, 2).unwrap();
        let err = run_shard_campaign(
            &p,
            &cfg,
            &golden,
            &plans,
            spec,
            0,
            Some(&wrong_shard),
            |_| ShardControl::Continue,
        )
        .expect_err("wrong shard");
        assert!(matches!(err, ShardError::ResumeMismatch(_)));
    }

    #[test]
    fn merge_rejects_defective_partitions() {
        let p = arc(PROTECTED);
        let cfg = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &cfg).expect("halts");
        let plans = single_fault_plans(&p, &cfg, &golden);
        let fingerprint = grid_fingerprint(&golden, &plans);
        let part = |index: u32| {
            let spec = ShardSpec::new(index, 2).unwrap();
            let ShardOutcome::Complete(report) =
                run_shard_campaign(&p, &cfg, &golden, &plans, spec, 0, None, |_| {
                    ShardControl::Continue
                })
                .unwrap()
            else {
                panic!("uninterrupted")
            };
            ShardPart {
                spec,
                fingerprint,
                plans: spec.range(plans.len()).len() as u64,
                report,
            }
        };
        let (a, b) = (part(0), part(1));
        assert!(merge_shard_reports(&[]).is_err());
        assert_eq!(
            merge_shard_reports(std::slice::from_ref(&a)),
            Err(MergeError::MissingShard(1))
        );
        assert_eq!(
            merge_shard_reports(&[a.clone(), a.clone()]),
            Err(MergeError::DuplicateShard(0))
        );
        let mut alien = b.clone();
        alien.fingerprint ^= 1;
        assert_eq!(
            merge_shard_reports(&[a.clone(), alien]),
            Err(MergeError::MixedFingerprints)
        );
        let mut short = b.clone();
        short.report.total -= 1;
        assert!(matches!(
            merge_shard_reports(&[a.clone(), short]),
            Err(MergeError::IncompleteShard { index: 1, .. })
        ));
        // Survivors merge: shard 0 alone is a valid degraded merge.
        let (partial, covered) = merge_surviving_shards(std::slice::from_ref(&a)).unwrap();
        assert_eq!(covered, a.plans);
        assert_eq!(partial.total, a.report.total);
        // And the intact partition still merges.
        assert!(merge_shard_reports(&[b, a]).is_ok());
    }
}
