//! Fault-injection campaigns — the dynamic validation of the paper's
//! metatheory (§4) on concrete programs, generalized from single upsets to
//! ordered **k-fault plans**.
//!
//! **Theorem 4 (Fault Tolerance)**, restated operationally: take a fault-free
//! run of `n` steps with output trace `s`. Inject *one* fault (any
//! `reg-zap`/`Q-zap` transition) at any point. Then the faulty run, within
//! `n + 1` steps, either
//!
//! * completes with output trace **equal** to `s` and a final state similar
//!   (`sim_c`) to the fault-free one — the fault was *masked*; or
//! * reaches the hardware `fault` state with a trace that is a **prefix** of
//!   `s` — the fault was *detected* before corrupt data escaped.
//!
//! Anything else — a deviating trace (**silent data corruption**), a stuck
//! state (Progress violation), or an over-long run — is a counterexample.
//!
//! The engine is *plan-driven*: [`run_plan_campaign`] executes any set of
//! [`FaultPlan`]s (ordered `{at_step, site, value}` strikes) against a
//! [`golden_run`] and classifies each continuation **as the trace streams
//! out** — the first divergent committed output condemns the run
//! immediately, instead of simulating to the `n + k` bound and diffing
//! afterwards. The classic exhaustive single-fault sweep ([`run_campaign`])
//! is the `k = 1` instantiation ([`single_fault_plans`]);
//! [`multi_fault_plans`] samples the `k ≥ 2` space, where Theorem 4 makes
//! **no promise** — its SDC counts quantify the boundary of the
//! single-event-upset model rather than falsify the theorem
//! ([`CampaignReport::within_fault_model`]).
//!
//! Five executors over two loops make up the campaign surface.
//! [`run_plan_campaign`] runs the bit-parallel batched engine
//! ([`mod@batch`]), whose workers run every plan they cannot pack on the
//! scalar continuation; [`run_plan_campaign_reference`] is the sequential
//! oracle it is tested against, and [`plan_fault_grid`] shares its walk
//! to return every plan's verdict. [`run_campaign`] is the `k = 1`
//! convenience and [`run_shard_campaign`] the durable shard path, both
//! over [`run_plan_campaign`].
//!
//! The runtime is hardened for long campaigns: each injection runs once
//! under `catch_unwind`, so a harness panic becomes a recorded
//! [`Verdict::EngineError`] instead of poisoning the worker (the engine is
//! deterministic, so a retry would only panic again; retries belong to
//! `talftd`'s worker processes, where a failure can be transient); and
//! [`golden_run`] returns a hard [`GoldenError`] when the reference run
//! exhausts its step budget — campaigning against a truncated golden trace
//! would silently misclassify every injection — or panics.
//!
//! For *well-typed* programs the `k = 1` campaign must report zero
//! violations; for the unprotected baseline it measurably reports SDC — the
//! contrast the paper's evaluation is built on. Every campaign runs its
//! whole plan set: Theorem 4 holds for each single-fault run on its own, so
//! a go/no-go answer is [`CampaignReport::fault_tolerant`] and the first
//! counterexample in first-strike order is `violations[0]`. Corollary 3
//! (**No False Positives**) is checked by [`golden_run`]: the fault-free
//! run of a well-typed program never signals `fault`.

#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
pub mod grid;
pub mod plan;
pub mod recovery;
pub mod shard;
pub mod wire;

pub use checkpoint::CheckpointRing;
pub use grid::{golden_trace, plan_fault_grid, GoldenTrace, PlanGrid, PlanOutcome};
pub use plan::{exhaustive_pair_plans, multi_fault_plans, single_fault_plans, FaultPlan, Strike};
pub use recovery::{
    run_supervised, storm_from_plan, AttemptRecord, PlannedFault, SupervisorConfig,
    SupervisorOutcome, SupervisorReport,
};
pub use shard::{
    grid_fingerprint, merge_shard_reports, merge_surviving_shards, run_shard_campaign,
    CampaignCheckpoint, MergeError, ShardControl, ShardError, ShardOutcome, ShardPart, ShardSpec,
    DEFAULT_CHECKPOINT_EVERY,
};

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use talft_isa::Program;
use talft_machine::{
    action_gpr_masks, inject, sim_some_color, step, FaultSite, Machine, OobLoadPolicy, Status,
};
use talft_obs::{LazyCounter, LazyHistogram};

static GOLDEN_NS: LazyHistogram = LazyHistogram::new("campaign.golden.ns");
static CAMPAIGN_NS: LazyHistogram = LazyHistogram::new("campaign.run.ns");
static PLANS: LazyCounter = LazyCounter::new("campaign.plans");
static WORKER_RATE: LazyHistogram = LazyHistogram::new("campaign.worker.plans_per_sec");
static CP_SEEKS: LazyCounter = LazyCounter::new("campaign.checkpoint.seeks");
static CP_STEPS_SAVED: LazyCounter = LazyCounter::new("campaign.checkpoint.steps_saved");
static CONVERGED: LazyCounter = LazyCounter::new("campaign.converged_early");
static CONVERGED_STEPS_SAVED: LazyCounter = LazyCounter::new("campaign.converged.steps_saved");
static V_MASKED: LazyCounter = LazyCounter::new("campaign.verdict.masked");
static V_DETECTED: LazyCounter = LazyCounter::new("campaign.verdict.detected");
static V_SDC: LazyCounter = LazyCounter::new("campaign.verdict.sdc");
static V_STUCK: LazyCounter = LazyCounter::new("campaign.verdict.stuck");
static V_OVERRUN: LazyCounter = LazyCounter::new("campaign.verdict.overrun");
static V_DISSIMILAR: LazyCounter = LazyCounter::new("campaign.verdict.dissimilar_state");
static V_ENGINE_ERROR: LazyCounter = LazyCounter::new("campaign.verdict.engine_error");

/// Counterexamples a [`CampaignReport`] retains before counting overflow in
/// [`CampaignReport::violations_truncated`]. Shared by the engine, the
/// shard merge, and external validators — cap-exact accounting is what makes
/// the in-order shard merge equal the whole-grid report bit for bit.
pub const VIOLATIONS_KEPT: usize = 32;

/// Run `f` once under `catch_unwind`; `None` when it panicked — the caller
/// records the failure (`EngineError` verdict / [`GoldenError::Panicked`]).
/// There is no retry: every caller clones a machine and steps it, which is
/// deterministic, so a panic would recur on every attempt.
fn run_isolated<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Slot of a verdict in a worker-local tally array (flushed to the shared
/// counters once per worker by [`note_verdicts`]).
fn verdict_slot(v: Verdict) -> usize {
    match v {
        Verdict::Masked => 0,
        Verdict::Detected => 1,
        Verdict::Sdc => 2,
        Verdict::Stuck => 3,
        Verdict::Overrun => 4,
        Verdict::DissimilarState => 5,
        Verdict::EngineError => 6,
    }
}

/// Flush a [`verdict_slot`]-indexed tally into the per-verdict counters.
fn note_verdicts(tally: &[u64; 7]) {
    for (slot, counter) in [
        &V_MASKED,
        &V_DETECTED,
        &V_SDC,
        &V_STUCK,
        &V_OVERRUN,
        &V_DISSIMILAR,
        &V_ENGINE_ERROR,
    ]
    .into_iter()
    .enumerate()
    {
        counter.add(tally[slot]);
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Step budget for the golden run.
    pub max_steps: u64,
    /// Cap on corrupted values tried per site (from
    /// [`talft_machine::mutations`]).
    pub mutations_per_site: usize,
    /// Inject before every `stride`-th step (1 = exhaustive in time). The
    /// `TALFT_STRIDE_SCALE` environment variable multiplies this globally
    /// (CI time-tuning); see [`CampaignConfig::effective_stride`].
    pub stride: u64,
    /// Worker threads.
    pub threads: usize,
    /// Out-of-bounds-load policy for all runs.
    pub oob: OobLoadPolicy,
    /// Seed for the `k ≥ 2` plan samplers (plans are a deterministic
    /// function of seed + config + program).
    pub seed: u64,
    /// Target number of sampled plans per `k ≥ 2` campaign.
    pub pair_samples: usize,
    /// Window (in steps) for correlated cross-color pair search.
    pub pair_window: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            max_steps: 2_000_000,
            mutations_per_site: 3,
            stride: 1,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            oob: OobLoadPolicy::Value(0x6EAD_BEEF),
            seed: 0x7A1F_F00D,
            pair_samples: 4096,
            pair_window: 24,
        }
    }
}

fn stride_scale() -> u64 {
    static SCALE: OnceLock<u64> = OnceLock::new();
    *SCALE.get_or_init(|| {
        std::env::var("TALFT_STRIDE_SCALE")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&s| s >= 1)
            .unwrap_or(1)
    })
}

impl CampaignConfig {
    /// The stride actually used: `stride × TALFT_STRIDE_SCALE` (environment
    /// variable, default 1). Lets CI thin exhaustive campaigns uniformly
    /// without touching per-test configs.
    #[must_use]
    pub fn effective_stride(&self) -> u64 {
        self.stride.max(1).saturating_mul(stride_scale())
    }
}

/// The golden (fault-free) run failed to produce a usable reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenError {
    /// The step budget ran out while the machine was still `Running`.
    /// Campaigning against a truncated reference trace would misclassify
    /// every injection (a faulty run matching the truncated prefix is not
    /// evidence of masking), so this is a hard error, not a warning.
    BudgetExhausted {
        /// Steps taken when the budget ran out.
        steps: u64,
        /// The configured budget.
        max_steps: u64,
    },
    /// The golden runner panicked: a harness failure, not a property of the
    /// program. It is not retried, since the run is deterministic.
    Panicked,
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::BudgetExhausted { steps, max_steps } => write!(
                f,
                "golden run still running after {steps} steps (budget {max_steps}); \
                 raise max_steps — a truncated reference would misclassify injections"
            ),
            GoldenError::Panicked => write!(
                f,
                "golden run panicked; no reference trace to campaign against"
            ),
        }
    }
}

impl std::error::Error for GoldenError {}

/// Classification of one injection, per Theorem 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Run completed with the identical trace and a `sim_c`-similar state.
    Masked,
    /// Hardware signalled `fault`; the emitted trace is a prefix of golden.
    Detected,
    /// **Silent data corruption**: a committed output deviated from golden
    /// (flagged at the first divergent output by the streaming comparator).
    Sdc,
    /// The machine got stuck (Progress violation).
    Stuck,
    /// Ran past the `n + k` bound without terminating.
    Overrun,
    /// Completed with the right trace but a dissimilar final state
    /// (similarity clause of Theorem 4 violated).
    DissimilarState,
    /// The injection harness itself panicked (isolated by `catch_unwind`).
    /// Not a Theorem 4 verdict — but the run is unclassified, so it is
    /// treated as a violation for certification purposes.
    EngineError,
}

impl Verdict {
    /// Whether this verdict violates Theorem 4 (or, for
    /// [`Verdict::EngineError`], leaves it unestablished).
    #[must_use]
    pub fn is_violation(self) -> bool {
        !matches!(self, Verdict::Masked | Verdict::Detected)
    }
}

/// One classified injection (the first strike of its plan; any further
/// strikes of a multi-fault plan are in `followups`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Steps taken before the first fault transition.
    pub at_step: u64,
    /// Where the first fault struck.
    pub site: FaultSite,
    /// The corrupted value written by the first strike.
    pub value: i64,
    /// The remaining strikes of the plan (empty for `k = 1`).
    pub followups: Vec<Strike>,
    /// Classification.
    pub verdict: Verdict,
}

/// Histogram of steps from injection to hardware detection (log₂ buckets:
/// bucket `k` counts latencies in `[2ᵏ, 2ᵏ⁺¹)`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 24],
    /// Largest observed detection latency.
    pub max: u64,
    sum: u64,
    count: u64,
}

impl LatencyHistogram {
    /// Record one detection latency (in machine steps).
    pub fn record(&mut self, latency: u64) {
        self.record_n(latency, 1);
    }

    /// Record `n` detections of the same latency.
    fn record_n(&mut self, latency: u64, n: u64) {
        if n == 0 {
            return;
        }
        let k = (64 - latency.max(1).leading_zeros() as usize - 1).min(23);
        self.buckets[k] += n;
        self.max = self.max.max(latency);
        self.sum += latency * n;
        self.count += n;
    }

    /// Mean detection latency.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Iterate non-empty `(bucket_lo, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (1u64 << k, c))
    }

    /// Add `other` in bucketwise; `None` when a sum passes `u64::MAX`.
    fn merge(&mut self, other: &LatencyHistogram) -> Option<()> {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.checked_add(*b)?;
        }
        self.max = self.max.max(other.max);
        self.sum = self.sum.checked_add(other.sum)?;
        self.count = self.count.checked_add(other.count)?;
        Some(())
    }
}

/// Aggregate campaign results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Total injections performed.
    pub total: u64,
    /// Masked count.
    pub masked: u64,
    /// Detected count.
    pub detected: u64,
    /// SDC count.
    pub sdc: u64,
    /// Other violations (stuck/overrun/dissimilar).
    pub other_violations: u64,
    /// Injections whose harness panicked (isolated, see
    /// [`Verdict::EngineError`]) plus workers lost entirely.
    pub engine_errors: u64,
    /// Up to 32 concrete counterexamples.
    pub violations: Vec<Injection>,
    /// Counterexamples dropped once [`CampaignReport::violations`] was full.
    pub violations_truncated: u64,
    /// Plans where some strike could not be applied (site vanished or the
    /// machine terminated before the strike's step).
    pub incomplete_plans: u64,
    /// Largest fault multiplicity `k` among the executed plans (1 for the
    /// classic sweep; 0 for an empty campaign).
    pub fault_order: u32,
    /// Steps from injection to hardware detection, over detected faults.
    pub detection_latency: LatencyHistogram,
}

impl CampaignReport {
    /// Whether the program passed (no Theorem 4 violations and no
    /// unclassified injections).
    #[must_use]
    pub fn fault_tolerant(&self) -> bool {
        self.sdc == 0 && self.other_violations == 0 && self.engine_errors == 0
    }

    /// Detection coverage among non-masked faults (1.0 when fault tolerant).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let exposed = self.detected + self.sdc + self.other_violations;
        if exposed == 0 {
            1.0
        } else {
            self.detected as f64 / exposed as f64
        }
    }

    /// Whether this campaign stayed inside the paper's single-event-upset
    /// model. SDC at `k = 1` falsifies Theorem 4; SDC at `k ≥ 2` is
    /// *outside the model* and quantifies its boundary instead.
    #[must_use]
    pub fn within_fault_model(&self) -> bool {
        self.fault_order <= 1
    }

    fn absorb(&mut self, inj: Injection) {
        self.total += 1;
        match inj.verdict {
            Verdict::Masked => self.masked += 1,
            Verdict::Detected => self.detected += 1,
            Verdict::Sdc => {
                self.sdc += 1;
                self.keep(inj);
            }
            Verdict::EngineError => {
                self.engine_errors += 1;
                self.keep(inj);
            }
            _ => {
                self.other_violations += 1;
                self.keep(inj);
            }
        }
    }

    fn keep(&mut self, inj: Injection) {
        if self.violations.len() < VIOLATIONS_KEPT {
            self.violations.push(inj);
        } else {
            self.violations_truncated += 1;
        }
    }

    /// Count a verdict without retaining a counterexample — batched
    /// workers tally counts commutatively and hand violations (tagged with
    /// their plan index) to the final assembly, which keeps them in
    /// first-strike order.
    fn absorb_counts(&mut self, verdict: Verdict) {
        self.total += 1;
        match verdict {
            Verdict::Masked => self.masked += 1,
            Verdict::Detected => self.detected += 1,
            Verdict::Sdc => self.sdc += 1,
            Verdict::EngineError => self.engine_errors += 1,
            _ => self.other_violations += 1,
        }
    }

    /// Fold `other` in after `self`: counts and histograms add, and the
    /// first [`VIOLATIONS_KEPT`] counterexamples stay in order. `None` when
    /// a sum passes `u64::MAX`, which only reports decoded from files can
    /// reach; `self` is then partly merged, and every caller drops it.
    fn merge(&mut self, other: CampaignReport) -> Option<()> {
        for (sum, add) in [
            (&mut self.total, other.total),
            (&mut self.masked, other.masked),
            (&mut self.detected, other.detected),
            (&mut self.sdc, other.sdc),
            (&mut self.other_violations, other.other_violations),
            (&mut self.engine_errors, other.engine_errors),
            (&mut self.violations_truncated, other.violations_truncated),
            (&mut self.incomplete_plans, other.incomplete_plans),
        ] {
            *sum = sum.checked_add(add)?;
        }
        self.fault_order = self.fault_order.max(other.fault_order);
        self.detection_latency.merge(&other.detection_latency)?;
        for v in other.violations {
            self.keep(v);
        }
        Some(())
    }
}

/// The fault-free reference run.
#[derive(Debug, Clone)]
pub struct Golden {
    /// Final machine state.
    pub machine: Machine,
    /// Output trace.
    pub trace: Vec<(i64, i64)>,
    /// Steps to termination.
    pub steps: u64,
    /// Terminal status.
    pub status: Status,
    /// Snapshots along the run ([`CheckpointRing`]): campaign workers seed
    /// frontiers from the nearest checkpoint instead of re-stepping from
    /// boot, and faulty runs that rejoin a checkpointed state, at their own
    /// step or at an offset, end there with the verdict the rest of the run
    /// would reach.
    pub checkpoints: CheckpointRing,
    /// Per-step dynamic register liveness over the golden run, as bitmasks
    /// `(read_before_write, written_before_read)` of GPR indices: entry `s`
    /// classifies each GPR by its *first* future access from step `s` onward
    /// (a register in neither mask is never touched again). Computed by one
    /// backward scan over the executed action sequence; empty when the
    /// register file exceeds 64 GPRs (masks cannot represent it). This is
    /// what lets the rejoin early-exit accept faulty states that differ
    /// from golden only in registers the future provably does not read —
    /// the dominant masked-fault shape (a corrupted value that is dead or
    /// about to be overwritten).
    pub reg_liveness: Vec<(u64, u64)>,
    /// Per-step record of the pending action, for the batched engine's
    /// quiet-stretch scan (DESIGN.md §12): entry `s` is the action golden
    /// executes at step `s`, 16 bytes a step. Empty without liveness.
    pub(crate) quiet: Vec<batch::StepAction>,
}

/// Run the fault-free execution (also the Corollary 3 check: a well-typed
/// program must end `Halted`, never `Fault`).
///
/// # Errors
///
/// [`GoldenError::BudgetExhausted`] if the run is still `Running` when
/// `cfg.max_steps` is reached — a truncated reference is unusable as a
/// campaign baseline — and [`GoldenError::Panicked`] if the run panics. A
/// run that ends `Fault` or `Stuck` is returned `Ok` (callers checking
/// Corollary 3 inspect [`Golden::status`] themselves).
pub fn golden_run(program: &Arc<Program>, cfg: &CampaignConfig) -> Result<Golden, GoldenError> {
    run_isolated(|| golden_run_strided(program, cfg, checkpoint::DEFAULT_STRIDE))
        .unwrap_or(Err(GoldenError::Panicked))
}

/// [`golden_run`] with the checkpoint ring starting at `checkpoint_stride`
/// steps instead of [`checkpoint::DEFAULT_STRIDE`]; reports do not depend
/// on it, which the in-crate tests check at other strides.
pub(crate) fn golden_run_strided(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    checkpoint_stride: u64,
) -> Result<Golden, GoldenError> {
    let _span = GOLDEN_NS.span();
    let mut checkpoints = CheckpointRing::new(checkpoint_stride, checkpoint::CAPACITY);
    let mut m = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    let mask_regs = program.num_gprs <= 64;
    let mut actions: Vec<(u64, u64)> = Vec::new();
    let mut quiet: Vec<batch::StepAction> = Vec::new();
    loop {
        checkpoints.offer(&m);
        if !(m.status().is_running() && m.steps() < cfg.max_steps) {
            break;
        }
        if mask_regs {
            let masks = action_gpr_masks(m.ir());
            actions.push(masks);
            quiet.push(batch::StepAction::new(
                m.ir(),
                masks,
                checkpoint::green_pc(&m),
            ));
        }
        step(&mut m);
    }
    if m.status().is_running() {
        return Err(GoldenError::BudgetExhausted {
            steps: m.steps(),
            max_steps: cfg.max_steps,
        });
    }
    checkpoints.index_pcs();
    quiet.shrink_to_fit();
    // Backward scan: liveness[s] classifies each GPR by its first access in
    // actions s.. — read first (live), written first (heals), or untouched.
    let reg_liveness = if mask_regs {
        let mut liveness = vec![(0u64, 0u64); actions.len() + 1];
        let (mut live, mut deadwrite) = (0u64, 0u64);
        for (s, &(reads, writes)) in actions.iter().enumerate().rev() {
            live = reads | (live & !writes);
            deadwrite = !reads & (writes | deadwrite);
            liveness[s] = (live, deadwrite);
        }
        liveness
    } else {
        Vec::new()
    };
    Ok(Golden {
        trace: m.trace().to_vec(),
        steps: m.steps(),
        status: m.status(),
        machine: m,
        checkpoints,
        reg_liveness,
        quiet,
    })
}

/// Run the full exhaustive single-fault campaign (the `k = 1`
/// instantiation of the plan engine): [`golden_run`], then
/// [`single_fault_plans`] through [`run_plan_campaign`].
///
/// # Errors
///
/// Propagates [`GoldenError`] from the reference run.
pub fn run_campaign(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
) -> Result<CampaignReport, GoldenError> {
    let golden = golden_run(program, cfg)?;
    let plans = single_fault_plans(program, cfg, &golden);
    Ok(run_plan_campaign(program, cfg, &golden, &plans))
}

/// Target step interval between same-step rejoin checks in [`resume_plan`]
/// (rounded up to a ring-grid multiple). A rejoin at offset 0 is absorbing,
/// so on golden's path a sparser cadence misses nothing — it only delays
/// the early-exit by at most this many steps, far below the thousands of
/// steps each exit saves.
const CONVERGENCE_CHECK_EVERY: u64 = 64;

/// The lead strike of a plan, reified for reporting.
fn lead_injection(plan: &FaultPlan, verdict: Verdict) -> Injection {
    let lead = plan.strikes().first().copied().unwrap_or(Strike {
        at_step: 0,
        site: FaultSite::QueueAddr(usize::MAX),
        value: 0,
    });
    Injection {
        at_step: lead.at_step,
        site: lead.site,
        value: lead.value,
        followups: plan.strikes().get(1..).unwrap_or(&[]).to_vec(),
        verdict,
    }
}

/// Advance (or reseed) a worker frontier to the golden prefix at `target`
/// steps. Prefers the latest checkpoint at or before `target` over stepping
/// from the current frontier whenever the checkpoint is further along; a
/// frontier past `target` (a lockstep walk has carried it beyond a
/// scalar-routed plan of its claim, or claims arrived out of step order) is
/// discarded and reseeded.
fn advance_frontier(
    frontier: &mut Option<Machine>,
    target: u64,
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
) {
    if frontier.as_ref().is_some_and(|f| f.steps() > target) {
        *frontier = None;
    }
    let cur = frontier.as_ref().map(Machine::steps);
    if let Some(cp) = golden.checkpoints.seek(target) {
        if cur.is_none_or(|s| cp.steps() > s) {
            if talft_obs::enabled() {
                CP_SEEKS.inc();
                CP_STEPS_SAVED.add(cp.steps() - cur.unwrap_or(0));
            }
            *frontier = Some(cp.clone().with_oob_policy(cfg.oob));
        }
    }
    let f =
        frontier.get_or_insert_with(|| Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob));
    while f.steps() < target && f.status().is_running() {
        step(f);
    }
}

/// Execute an arbitrary set of fault plans and classify every continuation.
///
/// Every campaign runs on the bit-parallel batched engine ([`mod@batch`]),
/// which classifies most masked faults in O(1) against one shared golden
/// replay and runs the rest on the scalar continuation. A golden run the
/// packed form cannot serve (one that did not halt, or no liveness: more
/// than 64 GPRs) packs nothing, and every plan takes a worker's whole-plan
/// scalar route. The report covers every plan; its retained violations are
/// in first-strike order, so `violations[0]` is the campaign's first
/// counterexample. Reports are bit-identical at every thread count and
/// equal [`run_plan_campaign_reference`]'s.
#[must_use]
pub fn run_plan_campaign(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
) -> CampaignReport {
    batch::run_batched(program, cfg, golden, plans)
}

/// The sequential **oracle** the batched engine is tested against: one
/// frontier stepped from boot, plans in first-strike order, each
/// continuation run to its end with no checkpoint seeking and no
/// convergence early-exit. No threads, so the report is the definition of
/// what [`run_plan_campaign`] must reproduce bit for bit at every thread
/// count; the `campaign` bench bin's reference leg times it as the
/// unoptimized baseline.
#[must_use]
pub fn run_plan_campaign_reference(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
) -> CampaignReport {
    let mut report = CampaignReport {
        fault_order: plans.iter().map(|p| p.order() as u32).max().unwrap_or(0),
        ..CampaignReport::default()
    };
    walk_plans(
        program,
        cfg,
        golden,
        plans,
        None,
        |i, (verdict, end_steps, applied)| {
            let plan = &plans[i];
            if verdict == Verdict::Detected {
                report
                    .detection_latency
                    .record(end_steps.saturating_sub(plan.first_step()));
            }
            if verdict != Verdict::EngineError && applied < plan.order() {
                report.incomplete_plans += 1;
            }
            report.absorb(lead_injection(plan, verdict));
        },
    );
    report
}

/// The order plans run and report in: a stable sort by first-strike step.
/// The sequential walk and the shard partition share it.
pub(crate) fn first_strike_order(plans: &[FaultPlan]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| plans[i].first_step());
    order
}

/// The sequential walk shared by [`run_plan_campaign_reference`] and
/// [`plan_fault_grid`]: plans in [`first_strike_order`], one frontier
/// stepped monotonically from boot, each continuation a clone of it run
/// once under `catch_unwind` ([`Verdict::EngineError`] if it panics).
/// `visit` gets each plan's index with its `(verdict, end_steps, applied)`.
/// `ring` enables [`execute_plan`]'s convergence exit.
pub(crate) fn walk_plans(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    ring: Option<&CheckpointRing>,
    mut visit: impl FnMut(usize, (Verdict, u64, usize)),
) {
    let mut frontier = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    for i in first_strike_order(plans) {
        let plan = &plans[i];
        let first = plan.first_step();
        while frontier.steps() < first && frontier.status().is_running() {
            step(&mut frontier);
        }
        let outcome = run_isolated(|| {
            let mut faulty = frontier.clone();
            execute_plan(&mut faulty, plan, golden, ring)
        });
        visit(i, outcome.unwrap_or((Verdict::EngineError, first, 0)));
    }
}

/// Decide whether a faulty continuation `m` has **rejoined** the golden run
/// at snapshot `cp`, at `m`'s step or at an offset from it, and if so how
/// the run ends: `Some((verdict, end_steps))`. `None` means "keep
/// simulating". `bound` is the plan's step bound (golden's steps plus its
/// order).
///
/// Soundness: all of the plan's strikes have been applied and every
/// committed output has been verified against the golden trace (the
/// [`resume_plan`] call-site invariants). If the faulty state equals the
/// snapshot everywhere except a set `D` of GPRs and the step count
/// ([`Machine::diverged_gprs_trace_verified`]), and golden's future from the
/// snapshot never *reads* any register of `D` before overwriting it
/// ([`Golden::reg_liveness`]), then — by induction on steps — the faulty
/// run executes exactly golden's remaining action sequence from the
/// snapshot's step `s′`: every operand it reads is equal, so every write,
/// queue operation, control transfer, and committed output is equal, and
/// registers of `D` that get overwritten heal to golden's values. The run
/// at step `s` therefore reaches golden's terminal status at
/// `h = s + golden.steps − s′` with golden's trace, unless the reference
/// loop's bound stops it first, and its final state is golden's except that
/// never-touched-again registers of `D` keep their faulty values. The
/// verdict the full simulation would reach is thus:
///
/// * `Overrun` at `bound` if `h > bound` (still running, every output
///   golden's);
/// * for a halted golden, `Masked` if `D` is empty or heals entirely, or if
///   the persisting divergences are `sim_c`-similar for some single color
///   `c` (pairwise equal colors, all the same color — Figure 9's
///   `sim-val-zap`), and `DissimilarState` otherwise (trace equal, final
///   state dissimilar);
/// * `Detected` or `Stuck` at `h` for a golden that ended that way.
fn rejoin(m: &Machine, cp: &Machine, golden: &Golden, bound: u64) -> Option<(Verdict, u64)> {
    let liveness = usize::try_from(cp.steps())
        .ok()
        .and_then(|s| golden.reg_liveness.get(s));
    if let Some(&(live, _)) = liveness {
        // A diverged register will be read before it is overwritten; the
        // futures may deviate, so nothing is decided yet. Checked first:
        // it is what tells apart the loop iterations an off-path run meets
        // at one pc.
        let (f, g) = (m.gprs(), cp.gprs());
        let mut bits = live;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if f[i] != g[i] {
                return None;
            }
        }
    }
    let diff = m.diverged_gprs_trace_verified(cp)?;
    // Without liveness (over 64 GPRs) only an exact match decides.
    let deadwrite = match liveness {
        Some(&(_, deadwrite)) => deadwrite,
        None if diff == 0 => 0,
        None => return None,
    };
    let end = m.steps() + (golden.steps - cp.steps());
    if end > bound {
        return Some((Verdict::Overrun, bound));
    }
    let verdict = match golden.status {
        Status::Halted => persisting_verdict(diff & !deadwrite, m, cp),
        Status::Fault => Verdict::Detected,
        Status::Stuck(_) => Verdict::Stuck,
        Status::Running => return None,
    };
    Some((verdict, end))
}

/// The similarity clause of Theorem 4 over the GPRs in `persist`, which
/// keep `m`'s values to the end while golden's keep `cp`'s.
fn persisting_verdict(persist: u64, m: &Machine, cp: &Machine) -> Verdict {
    let mut zap: Option<talft_isa::Color> = None;
    let mut bits = persist;
    while bits != 0 {
        #[allow(clippy::cast_possible_truncation)]
        let i = bits.trailing_zeros() as u16;
        bits &= bits - 1;
        let (g, f) = (cp.reg(talft_isa::Reg::r(i)), m.reg(talft_isa::Reg::r(i)));
        if g.color != f.color || zap.is_some_and(|c| c != g.color) {
            return Verdict::DissimilarState;
        }
        zap = Some(g.color);
    }
    Verdict::Masked
}

/// Run one plan's continuation to termination with streaming trace
/// comparison, returning `(verdict, final_steps, strikes_applied)`.
///
/// The machine must be the golden prefix at the plan's first strike step.
/// Outputs are verified against the golden trace *as they commit*: the
/// first divergent committed output returns [`Verdict::Sdc`] immediately —
/// no need to simulate to the bound and diff afterwards. (Refinement over
/// the batch classifier: a run that diverges and then spins is reported as
/// the `Sdc` it provably is, rather than `Overrun`.)
///
/// With a checkpoint ring, a continuation that has applied every strike and
/// [`rejoin`]s a golden snapshot ends on the spot with the verdict the full
/// simulation would reach: stepping is deterministic, so the remainder of
/// the run *is* the remainder of the golden run from that snapshot. Most
/// masked faults rejoin within a few steps of injection (the corrupt value
/// is dead or overwritten), which turns the dominant O(golden-length)
/// masked continuations into O(rejoin distance) ones.
pub(crate) fn execute_plan(
    m: &mut Machine,
    plan: &FaultPlan,
    golden: &Golden,
    checkpoints: Option<&CheckpointRing>,
) -> (Verdict, u64, usize) {
    resume_plan(m, plan, golden, checkpoints, 0, 0)
}

/// [`execute_plan`] with the first `next` strikes already applied (`applied`
/// of them effective) — the continuation a batched lane demotes into. The
/// machine must be the faulty state the scalar run would hold at this step:
/// strikes `0..next` injected, every committed output equal to golden's
/// prefix (the trace watermark is taken as verified). `execute_plan` is the
/// `next = applied = 0` instantiation.
///
/// The rejoin test runs in two modes. **On golden's path** it compares the
/// run with the snapshot at its own step, every `CONVERGENCE_CHECK_EVERY`-ish
/// steps (rounded to the ring grid): a rejoin at offset 0 is absorbing, so
/// a sparse check only delays the exit. When that check finds the run's
/// `pcG` off the snapshot's, control has forked, and the run may rejoin at
/// any offset, which a same-step check never sees. **Off golden's path** it
/// therefore looks itself up in the ring's pc index
/// ([`CheckpointRing::at_pc`]) on every step, until it rejoins or, at a
/// ring grid point, its `pcG` equals golden's again.
pub(crate) fn resume_plan(
    m: &mut Machine,
    plan: &FaultPlan,
    golden: &Golden,
    checkpoints: Option<&CheckpointRing>,
    mut next: usize,
    mut applied: usize,
) -> (Verdict, u64, usize) {
    let bound = golden.steps + plan.order() as u64;
    // The pre-strike prefix replays the golden run deterministically; start
    // verification at the watermark instead of re-checking it.
    let mut verified = m.trace().len();
    // Same-step cadence: the smallest ring-grid multiple at or above
    // CONVERGENCE_CHECK_EVERY. `next_check` keeps the hot loop to a single
    // compare per step on golden's path (off it, the next ring grid point);
    // `u64::MAX` disables the check entirely.
    let check_grid = checkpoints.map_or(u64::MAX, |r| {
        r.stride()
            .saturating_mul((CONVERGENCE_CHECK_EVERY / r.stride()).max(1))
    });
    let mut next_check = if checkpoints.is_some() { 0 } else { u64::MAX };
    let mut off_path = false;
    let strikes = plan.strikes();
    loop {
        while next < strikes.len() && strikes[next].at_step <= m.steps() {
            if inject(m, strikes[next].site, strikes[next].value) {
                applied += 1;
            }
            next += 1;
        }
        if !m.status().is_running() || m.steps() >= bound {
            break;
        }
        step(m);
        for &out in m.trace_since(verified) {
            if golden.trace.get(verified) != Some(&out) {
                return (Verdict::Sdc, m.steps(), applied);
            }
            verified += 1;
        }
        let Some(ring) = checkpoints else {
            continue;
        };
        let mut exit = None;
        if off_path {
            // Every strike is in (off-path mode starts only then); a run the
            // step just ended matches no running snapshot and breaks above.
            exit = ring.at_pc(m).find_map(|cp| rejoin(m, cp, golden, bound));
            if exit.is_none() && m.steps() >= next_check {
                next_check += ring.stride();
                let pc = checkpoint::green_pc(m);
                if ring.at_step(m.steps()).map(checkpoint::green_pc) == Some(pc) {
                    off_path = false;
                    next_check = (m.steps() / check_grid + 1).saturating_mul(check_grid);
                }
            }
        } else if m.steps() >= next_check {
            next_check = (m.steps() / check_grid + 1).saturating_mul(check_grid);
            let settled = next == strikes.len() && m.status().is_running();
            if let Some(cp) = ring.at_step(m.steps()).filter(|_| settled) {
                exit = rejoin(m, cp, golden, bound);
                if exit.is_none() && checkpoint::green_pc(cp) != checkpoint::green_pc(m) {
                    off_path = true;
                    next_check = m.steps() + ring.stride();
                }
            }
        }
        if let Some((verdict, end)) = exit {
            if talft_obs::enabled() {
                CONVERGED.inc();
                CONVERGED_STEPS_SAVED.add(end - m.steps());
            }
            return (verdict, end, applied);
        }
    }
    let verdict = match m.status() {
        Status::Running => Verdict::Overrun,
        Status::Stuck(_) => Verdict::Stuck,
        // Every committed output was verified against golden, so the trace
        // is a prefix — exactly the Detected clause.
        Status::Fault => Verdict::Detected,
        Status::Halted => {
            if verified != golden.trace.len() {
                Verdict::Sdc
            } else if sim_some_color(&golden.machine, m) {
                Verdict::Masked
            } else {
                Verdict::DissimilarState
            }
        }
    };
    (verdict, m.steps(), applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use talft_isa::assemble;

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

    /// The paper's protected store sequence: every injected fault is masked
    /// or detected — never SDC.
    #[test]
    fn protected_store_sequence_is_fault_tolerant() {
        let p = arc(PROTECTED);
        let cfg = CampaignConfig {
            threads: 2,
            ..CampaignConfig::default()
        };
        let rep = run_campaign(&p, &cfg).expect("golden halts");
        assert!(rep.total > 100, "campaign too small: {}", rep.total);
        assert!(rep.fault_tolerant(), "violations: {:?}", rep.violations);
        assert!(rep.detected > 0, "some faults must be detected");
        assert!(rep.masked > 0, "some faults must be masked");
        assert_eq!(rep.fault_order, 1);
        assert!(rep.within_fault_model());
    }

    /// The §2.2 CSE miscompilation: same-register store pair. The checker
    /// rejects it, and the campaign finds real SDC — the two tools agree.
    #[test]
    fn unprotected_store_exhibits_sdc() {
        let p = arc(UNPROTECTED);
        let cfg = CampaignConfig {
            threads: 2,
            ..CampaignConfig::default()
        };
        let rep = run_campaign(&p, &cfg).expect("golden halts");
        assert!(
            rep.sdc > 0,
            "expected SDC in the unprotected idiom: {rep:?}"
        );
    }

    #[test]
    fn golden_run_has_no_false_positives() {
        let p = arc(PROTECTED);
        let g = golden_run(&p, &CampaignConfig::default()).expect("halts in budget");
        assert_eq!(g.status, Status::Halted);
        assert_eq!(g.trace, vec![(4096, 5)]);
    }

    /// Satellite (a): a golden run that exhausts its budget while `Running`
    /// is a hard error, not a silently truncated baseline.
    #[test]
    fn golden_budget_exhaustion_is_an_error() {
        let p = arc(r#"
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G @main
  mov r2, B @main
  jmpG r1
  jmpB r2
"#);
        let cfg = CampaignConfig {
            max_steps: 100,
            ..CampaignConfig::default()
        };
        let err = golden_run(&p, &cfg).expect_err("diverging program must not yield a golden");
        assert_eq!(
            err,
            GoldenError::BudgetExhausted {
                steps: 100,
                max_steps: 100
            }
        );
        assert!(err.to_string().contains("budget 100"));
        assert_eq!(run_campaign(&p, &cfg).expect_err("propagates"), err);
    }

    /// A panicking closure runs exactly once: the engine is deterministic,
    /// so a second attempt would panic again. Its `None` is the plan's
    /// `EngineError` (`harness_panic_is_isolated_as_engine_error`).
    #[test]
    fn panicking_closure_runs_once() {
        let calls = std::sync::atomic::AtomicU32::new(0);
        let got: Option<()> = run_isolated(|| {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("always");
        });
        assert_eq!((got, calls.into_inner()), (None, 1));
    }

    #[test]
    fn stride_reduces_campaign_size() {
        let p = arc(PROTECTED);
        let full = run_campaign(
            &p,
            &CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .expect("ok");
        let strided = run_campaign(
            &p,
            &CampaignConfig {
                threads: 1,
                stride: 4,
                ..Default::default()
            },
        )
        .expect("ok");
        assert!(strided.total < full.total);
        assert!(strided.total > 0);
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let p = arc(PROTECTED);
        let one = run_campaign(
            &p,
            &CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .expect("ok");
        let many = run_campaign(
            &p,
            &CampaignConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .expect("ok");
        // Bit-identical, not just same counts: the batched workers'
        // violations are reassembled in first-strike order at any thread
        // count.
        assert_eq!(one, many);
    }

    /// The pre-refactor single-fault sweep, kept as a reference
    /// implementation: batch (non-streaming) classification, single thread,
    /// over the same strided strike walk the plan generators use.
    fn reference_sweep(program: &Arc<Program>, cfg: &CampaignConfig) -> CampaignReport {
        fn classify_batch(
            faulty: &mut Machine,
            golden_trace: &[(i64, i64)],
            golden_steps: u64,
            golden_final: &Machine,
        ) -> Verdict {
            let bound = golden_steps + 1;
            while faulty.status().is_running() && faulty.steps() < bound {
                step(faulty);
            }
            match faulty.status() {
                Status::Running => Verdict::Overrun,
                Status::Stuck(_) => Verdict::Stuck,
                Status::Fault => {
                    if golden_trace.starts_with(faulty.trace()) {
                        Verdict::Detected
                    } else {
                        Verdict::Sdc
                    }
                }
                Status::Halted => {
                    if faulty.trace() != golden_trace {
                        Verdict::Sdc
                    } else if sim_some_color(golden_final, faulty) {
                        Verdict::Masked
                    } else {
                        Verdict::DissimilarState
                    }
                }
            }
        }
        let golden = golden_run(program, cfg).expect("golden halts");
        let mut rep = CampaignReport {
            fault_order: 1,
            ..CampaignReport::default()
        };
        plan::for_each_strided_step(program, cfg, &golden, |frontier| {
            plan::for_each_strike_at(frontier, cfg.mutations_per_site, |s| {
                let mut faulty = frontier.clone();
                assert!(inject(&mut faulty, s.site, s.value));
                let verdict =
                    classify_batch(&mut faulty, &golden.trace, golden.steps, &golden.machine);
                if verdict == Verdict::Detected {
                    rep.detection_latency
                        .record(faulty.steps().saturating_sub(s.at_step));
                }
                rep.absorb(Injection {
                    at_step: s.at_step,
                    site: s.site,
                    value: s.value,
                    followups: Vec::new(),
                    verdict,
                });
            });
        });
        rep
    }

    /// Satellite (d): the plan-driven engine at `k = 1` reproduces the
    /// pre-refactor sweep exactly — same totals and same verdict counts —
    /// on both the protected and the unprotected store sequence.
    #[test]
    fn plan_engine_matches_reference_sweep_at_k1() {
        for src in [PROTECTED, UNPROTECTED] {
            let p = arc(src);
            let cfg = CampaignConfig {
                threads: 1,
                ..CampaignConfig::default()
            };
            let reference = reference_sweep(&p, &cfg);
            let planned = run_campaign(&p, &cfg).expect("golden halts");
            assert_eq!(
                planned, reference,
                "engine diverged from the sweep on {src}"
            );
        }
    }

    /// The engines are verdict-for-verdict identical to the sequential
    /// oracle ([`run_plan_campaign_reference`]) on the same plan set —
    /// bit-identical reports at every thread count, on both a fault-tolerant
    /// and an SDC-exhibiting program.
    #[test]
    fn engine_matches_reference_engine_across_threads() {
        for src in [PROTECTED, UNPROTECTED] {
            let p = arc(src);
            let base = CampaignConfig {
                threads: 1,
                ..CampaignConfig::default()
            };
            let golden = golden_run(&p, &base).expect("golden halts");
            let plans = single_fault_plans(&p, &base, &golden);
            let reference = run_plan_campaign_reference(&p, &base, &golden, &plans);
            for threads in [1usize, 3, 8] {
                let cfg = CampaignConfig {
                    threads,
                    ..base.clone()
                };
                let engine = run_plan_campaign(&p, &cfg, &golden, &plans);
                assert_eq!(
                    engine, reference,
                    "engine (threads={threads}) diverged from reference on {src}"
                );
            }
        }
    }

    /// The go/no-go answer without a gate: on the unprotected program every
    /// thread count reports the whole grid as not fault-tolerant, keeps its
    /// counterexamples in first-strike order, and leads with the first plan
    /// in that order that the per-plan grid scores as a violation.
    #[test]
    fn first_counterexample_is_the_first_violating_plan_in_strike_order() {
        let p = arc(UNPROTECTED);
        let base = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &base).expect("golden halts");
        let plans = single_fault_plans(&p, &base, &golden);
        let grid = plan_fault_grid(&p, &base, &golden, &plans);
        let first = first_strike_order(&plans)
            .into_iter()
            .find(|&i| grid.outcomes[i].verdict.is_violation())
            .expect("the unprotected grid holds a violation");
        let expected = lead_injection(&plans[first], grid.outcomes[first].verdict);
        for threads in [1usize, 3, 8] {
            let cfg = CampaignConfig {
                threads,
                ..base.clone()
            };
            let report = run_plan_campaign(&p, &cfg, &golden, &plans);
            assert!(!report.fault_tolerant(), "threads={threads}: {report:?}");
            assert!(
                report
                    .violations
                    .windows(2)
                    .all(|w| w[0].at_step <= w[1].at_step),
                "threads={threads}: counterexamples out of first-strike order"
            );
            assert_eq!(
                report.violations.first(),
                Some(&expected),
                "threads={threads}: not the first violating plan"
            );
        }
    }

    /// The k=2 differential: sampled multi-fault plan sets run bit-identically
    /// on the engine (any thread count) and the sequential reference.
    #[test]
    fn k2_engine_matches_reference_engine() {
        let p = arc(PROTECTED);
        let base = CampaignConfig {
            threads: 1,
            pair_samples: 96,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &base).expect("golden halts");
        let plans = multi_fault_plans(&p, &base, &golden, 2);
        assert!(!plans.is_empty());
        let reference = run_plan_campaign_reference(&p, &base, &golden, &plans);
        for threads in [1usize, 3, 8] {
            let cfg = CampaignConfig {
                threads,
                ..base.clone()
            };
            let engine = run_plan_campaign(&p, &cfg, &golden, &plans);
            assert_eq!(engine, reference, "k=2 engine (threads={threads}) diverged");
        }
    }

    /// A coarse checkpoint stride changes *performance*, never reports: the
    /// engine at a non-default stride still equals the sequential reference.
    #[test]
    fn checkpoint_stride_does_not_change_reports() {
        let p = arc(PROTECTED);
        for stride in [1u64, 3, 1000] {
            let cfg = CampaignConfig {
                threads: 2,
                ..CampaignConfig::default()
            };
            let golden = golden_run_strided(&p, &cfg, stride).expect("golden halts");
            let plans = single_fault_plans(&p, &cfg, &golden);
            let reference = run_plan_campaign_reference(&p, &cfg, &golden, &plans);
            let engine = run_plan_campaign(&p, &cfg, &golden, &plans);
            assert_eq!(engine, reference, "stride {stride} changed the report");
        }
    }

    /// The in-crate `.talft` fixtures halt in ~20 steps — before the sparse
    /// convergence cadence ever fires. This test compiles a Wile loop long
    /// enough (hundreds of golden steps) that the liveness-aware convergence
    /// early-exit genuinely triggers, then checks two things: the engine
    /// report is still bit-identical to the sequential reference (the early
    /// exit is verdict-preserving, not just plausible), and the
    /// `campaign.converged_early` counter actually advanced (the path is
    /// exercised, not skipped).
    #[test]
    fn convergence_early_exit_fires_and_preserves_verdicts() {
        use talft_compiler::{compile, CompileOptions};
        let src = "output out[2];\nfunc main() {\n  var i = 0;\n  var acc = 0;\n  \
                   while (i < 48) {\n    acc = (acc + i * 3) & 1048575;\n    i = i + 1;\n  }\n  \
                   out[0] = acc;\n  out[1] = i;\n}\n";
        let c = compile(src, &CompileOptions::default()).expect("compiles");
        let cfg = CampaignConfig {
            threads: 2,
            stride: 7,
            mutations_per_site: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run_strided(&c.protected.program, &cfg, 4).expect("golden halts");
        assert!(
            golden.steps > 2 * CONVERGENCE_CHECK_EVERY,
            "kernel too short ({} steps) to reach a convergence check",
            golden.steps
        );
        let plans = single_fault_plans(&c.protected.program, &cfg, &golden);
        let reference = run_plan_campaign_reference(&c.protected.program, &cfg, &golden, &plans);
        let prev = talft_obs::enabled();
        talft_obs::set_enabled(true);
        let before = CONVERGED.get();
        let engine = run_plan_campaign(&c.protected.program, &cfg, &golden, &plans);
        let fired = CONVERGED.get() - before;
        talft_obs::set_enabled(prev);
        assert_eq!(
            engine, reference,
            "convergence early exit changed a verdict"
        );
        assert_eq!(engine.sdc, 0, "Theorem 4: protected code has zero SDC");
        assert!(engine.masked > 0 && engine.detected > 0);
        assert!(
            fired > 0,
            "expected the convergence path to fire on a {}-step golden run",
            golden.steps
        );
    }

    /// A run that rejoins a golden run ending in `fault` ends the way that
    /// golden run does: `Detected`, with the reference's latency, not
    /// `Masked`. (A faulting golden packs nothing, so this is the rejoin of
    /// the batched worker's whole-plan scalar route.)
    #[test]
    fn rejoining_a_faulting_golden_is_detected() {
        let p = arc("
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r20, G 1
  mov r10, G 60
  mov r11, B 60
  mov r12, G @done
  mov r13, B @done
  mov r14, G @loop
  mov r15, B @loop
loop:
  .pre { forall m:mem; mem: m; }
  sub r10, r10, G 1
  sub r11, r11, B 1
  bzG r10, r12
  bzB r11, r13
  jmpG r14
  jmpB r15
done:
  .pre { forall m:mem; mem: m; }
  mov r1, B 5
  mov r2, B 4096
  stB r2, r1
  halt
");
        let cfg = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &cfg).expect("golden ends");
        assert_eq!(golden.status, Status::Fault, "the unpaired stB faults");
        // `r20` is never read: the run equals golden from the strike on.
        let plans = vec![FaultPlan::single(
            2,
            FaultSite::Reg(talft_isa::Reg::r(20)),
            7,
        )];
        let reference = run_plan_campaign_reference(&p, &cfg, &golden, &plans);
        assert_eq!(reference.detected, 1);
        let prev = talft_obs::enabled();
        talft_obs::set_enabled(true);
        let before = CONVERGED.get();
        let engine = run_plan_campaign(&p, &cfg, &golden, &plans);
        let grid = plan_fault_grid(&p, &cfg, &golden, &plans);
        let fired = CONVERGED.get() - before;
        talft_obs::set_enabled(prev);
        assert_eq!(engine, reference);
        assert_eq!(grid.outcomes[0].verdict, Verdict::Detected);
        assert!(fired >= 2, "both runs end at their rejoin");
    }

    /// Same seed, same program ⇒ bit-identical k=2 report; campaigns are
    /// reproducible end to end.
    #[test]
    fn k2_campaign_is_deterministic() {
        let p = arc(PROTECTED);
        let cfg = CampaignConfig {
            threads: 3,
            pair_samples: 128,
            ..CampaignConfig::default()
        };
        let k2 = || {
            let golden = golden_run(&p, &cfg).expect("ok");
            let plans = multi_fault_plans(&p, &cfg, &golden, 2);
            run_plan_campaign(&p, &cfg, &golden, &plans)
        };
        let (a, b) = (k2(), k2());
        assert_eq!(a, b);
        assert!(a.total > 0);
        assert_eq!(a.fault_order, 2);
        assert!(!a.within_fault_model());
    }

    /// A panicking injection is isolated per-plan and recorded as an
    /// `EngineError` instead of taking down the campaign, by the batched
    /// engine and by the sequential walk alike.
    #[test]
    fn harness_panic_is_isolated_as_engine_error() {
        let p = arc(PROTECTED);
        let cfg = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &cfg).expect("ok");
        // Reg::r(200) is out of the register file — injecting it panics.
        let plans = vec![
            FaultPlan::single(0, FaultSite::Reg(talft_isa::Reg::r(200)), 7),
            FaultPlan::single(0, FaultSite::Reg(talft_isa::Reg::r(1)), 7),
        ];
        let rep = run_plan_campaign(&p, &cfg, &golden, &plans);
        assert_eq!(rep.total, 2, "the campaign survives the panic");
        assert_eq!(rep.engine_errors, 1);
        assert!(!rep.fault_tolerant());
        assert!(rep
            .violations
            .iter()
            .any(|v| v.verdict == Verdict::EngineError));
        assert_eq!(run_plan_campaign_reference(&p, &cfg, &golden, &plans), rep);
    }

    #[test]
    fn report_merge_and_coverage() {
        let mut a = CampaignReport::default();
        a.absorb(Injection {
            at_step: 0,
            site: FaultSite::Reg(talft_isa::Reg::r(0)),
            value: 1,
            followups: Vec::new(),
            verdict: Verdict::Detected,
        });
        let mut b = CampaignReport::default();
        b.absorb(Injection {
            at_step: 1,
            site: FaultSite::Reg(talft_isa::Reg::r(1)),
            value: 2,
            followups: Vec::new(),
            verdict: Verdict::Sdc,
        });
        assert_eq!(a.merge(b), Some(()));
        assert_eq!(a.total, 2);
        assert_eq!(a.detected, 1);
        assert_eq!(a.sdc, 1);
        assert!(!a.fault_tolerant());
        assert!((a.coverage() - 0.5).abs() < 1e-9);
        assert_eq!(a.violations.len(), 1);
    }

    /// Satellite (b): the 32-counterexample cap is accounted, not silent.
    #[test]
    fn violation_overflow_is_counted() {
        let mut rep = CampaignReport::default();
        for i in 0..40 {
            rep.absorb(Injection {
                at_step: i,
                site: FaultSite::Reg(talft_isa::Reg::r(0)),
                value: 1,
                followups: Vec::new(),
                verdict: Verdict::Sdc,
            });
        }
        assert_eq!(rep.sdc, 40);
        assert_eq!(rep.violations.len(), 32);
        assert_eq!(rep.violations_truncated, 8);
        let mut merged = CampaignReport::default();
        assert_eq!(merged.merge(rep.clone()), Some(()));
        assert_eq!(merged.merge(rep), Some(()));
        assert_eq!(merged.violations.len(), 32);
        // 8 carried per merge, plus 32 dropped when the second batch found
        // the list already full
        assert_eq!(merged.violations_truncated, 8 + 8 + 32);
    }

    #[test]
    fn verdict_violation_classification() {
        assert!(!Verdict::Masked.is_violation());
        assert!(!Verdict::Detected.is_violation());
        assert!(Verdict::Sdc.is_violation());
        assert!(Verdict::Stuck.is_violation());
        assert!(Verdict::Overrun.is_violation());
        assert!(Verdict::DissimilarState.is_violation());
        assert!(Verdict::EngineError.is_violation());
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use talft_isa::assemble;

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = LatencyHistogram::default();
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(9);
        assert_eq!(h.max, 9);
        assert!((h.mean() - 3.75).abs() < 1e-9);
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(buckets, vec![(1, 1), (2, 2), (8, 1)]);
    }

    #[test]
    fn detected_faults_have_bounded_latency() {
        // Theorem 4's bound: a detected fault fires within n+1 steps.
        let src = "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  \
                   .pre { forall m:mem; mem: m; }\n  mov r1, G 5\n  mov r2, G 4096\n  \
                   stG r2, r1\n  mov r3, B 5\n  mov r4, B 4096\n  stB r4, r3\n  halt\n";
        let p = std::sync::Arc::new(assemble(src).expect("ok").program);
        let cfg = CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_run(&p, &cfg).expect("halts");
        let plans = single_fault_plans(&p, &cfg, &golden);
        let rep = run_plan_campaign(&p, &cfg, &golden, &plans);
        assert!(rep.detected > 0);
        assert!(rep.detection_latency.max <= golden.steps + 1);
        assert!(rep.detection_latency.mean() > 0.0);
    }
}
