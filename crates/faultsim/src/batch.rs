//! Bit-parallel batched campaign execution (DESIGN.md §12), the one
//! parallel campaign loop.
//!
//! A scalar run simulates one faulty machine per plan. But on a
//! well-typed program almost every fault is *masked* or *detected*, and
//! faulty runs share a shape while undecided: after `reg-zap` / `Q-zap2`
//! the faulty state equals the golden state everywhere except a small set
//! of same-color payloads ([`talft_machine::inject`] preserves the color
//! tag, and an ALU result's color comes from `src2` — identical on both
//! sides), and it stays that shape — executing golden's exact action
//! sequence — until the divergence escapes the tracked components. The
//! classic EDA bit-parallel trick therefore applies: step **one** shared
//! golden replay and carry up to `LANES_PER_GROUP` fault lanes alongside
//! it as a packed `Shadow` of exact per-component deltas, paying
//! O(affected lanes) per step instead of one simulation per plan.
//!
//! The packed representation covers three machine components:
//!
//! * **GPR deltas** — per-lane faulty payloads under golden's color tags
//!   (`by_reg`/`by_lane`/`vals`);
//! * **the `d` latch** — a full per-lane `CVal` shadow (`ddiv`/`dvals`):
//!   a `bzG` that latched on one side only splits the *colors* while the
//!   values agree, and `sim_val` is color-aware;
//! * **store-queue entries** — per-lane `(seq, value)` and
//!   `(seq, address)` shadows over queue entries (`qdiv`/`qsh`/`qash`).
//!   Entries are named by an absolute sequence number (`qbase` = the
//!   back/oldest entry's seq) so shadows survive pushes and pops without
//!   reindexing; an `stG` reading diverged operands shadows the pushed
//!   pair componentwise, and the shadows resolve at the `stB` compare or
//!   a forwarding `ldG`.
//!
//! Per step, `Shadow::advance` executes the replay's pending action
//! symbolically against every affected lane:
//!
//! * **ALU traffic propagates in place** — a lane reading a diverged
//!   operand recomputes the result with its own payloads (`BinOp::eval`
//!   is total, so this needs no isolation); equal results *heal* the
//!   destination, and a lane whose last delta heals is `Masked` on the
//!   spot (it re-equals golden and deterministically replays the rest);
//! * **diverged values flow through the queue and `d`** — a diverged
//!   payload entering the queue via `stG`, a `bzG`/`jmpG` latching a
//!   diverged target into `d`, or a `ldG` forwarding from a shadowed
//!   queue slot just *moves* the divergence between tracked components.
//!   Even a load through a diverged *address* resolves in place: while a
//!   lane is packed its memory is bit-identical to the replay's and its
//!   queue differs only through its own shadows, so the lane's loaded
//!   value is computable exactly from the replay state (queue-forward on
//!   the shadow-corrected address/value pairs, then the replay memory at
//!   the diverged address, then the OOB policy — `Fault` detects,
//!   `Value(v)` loads the witness);
//! * **blue compares detect instantly** — golden halted, so every blue
//!   compare-and-commit it executed succeeded; a lane bringing a diverged
//!   operand, queue slot, or `d` to `stB`/`jmpB`/`bzB` provably faults:
//!   `Detected` at `steps + 1`, no simulation;
//! * **liveness settles the rest** — once none of a lane's diverged
//!   registers is live ([`Golden::reg_liveness`]), no strike is pending,
//!   and no `d`/queue shadow is held, the remaining run replays golden
//!   verbatim and the verdict is decided by the colors of the persisting
//!   registers (`Masked`/`DissimilarState`), the same case split as the
//!   scalar continuation's convergence exit. The settle scan is event-driven
//!   (dirty lanes plus holders of just-died registers), so wide groups
//!   cost O(events), not O(lanes), per step. A k=1 strike on a register
//!   that is already dead at its step settles before it takes a lane:
//!   `run_batched` counts it `Masked` at admission. So does a k=1 strike
//!   that changes `pcG` or `pcB` at an even step before golden's halt,
//!   which fails the fetch due next: `Detected` one step later;
//! * **quiet steps are skipped, not executed** — a step with no strike
//!   due, no dirty lane, no diverged register dying, and a pending action
//!   that touches no diverged register (nor `d` or the queue while a lane
//!   shadows them) provably changes no lane. `Shadow::skip_quiet` finds
//!   the end of such a stretch in golden's per-step action records and
//!   moves the replay there, through the checkpoint ring when the stretch
//!   is long (DESIGN.md §12 has the argument);
//! * only a divergence the packed form cannot express **demotes**: the
//!   lane's exact faulty state is reconstructed — clone the replay (CoW),
//!   re-apply the packed payloads under golden's color tags, the `d`
//!   shadow, and the queue value/address shadows — and the scalar
//!   continuation (`resume_plan`) runs from there. Demotion at the
//!   escape boundary is exact, never lossy, and every demotion is
//!   attributed to a `DemoteCause` counter (`faultsim.batch.demote.*`)
//!   so the residual scalar tail stays observable:
//!   - `mem_commit` — an `stB` compare *passes* with a diverged value
//!     (the divergence escapes into memory and the output trace);
//!   - `gpr_hi` — a diverged result lands in a GPR ≥ 64, outside the
//!     packed register window;
//!   - `control_fork` — a lane's control transfer departs from golden's
//!     (a `jmpB`/`bzB` committing diverged pc values, or a `bz` taken on
//!     one side only);
//!   - `terminal` — the replay halted while the lane still holds a `d` or
//!     queue shadow; GPR liveness cannot classify those, so the halted
//!     faulty state is reconstructed and classified by the scalar
//!     terminal rules (no stepping — the run is already over).
//!
//! **Admission is per-strike, any `k`** (`admissible`): every strike of
//! the plan must hit a packed site — a GPR < 64 within the register file,
//! the `d` latch, or a queue slot (value *or* address) — at or before
//! golden's halt. Strikes are folded into the lane as timed events on the
//! shared replay walk, so the `k = 2` E13 grids ride the batched path
//! whenever both strikes hit packed sites. Only plans with a pc-register
//! strike that does not settle at admission (a diverged pc forks the
//! action sequence itself) or a strike past golden termination route to
//! the scalar path whole. A campaign the
//! packed form cannot serve at all — a golden run that did not halt (the
//! blue-compare and settle rules are only exact against a halted golden)
//! or one without liveness (more than 64 GPRs) — settles and admits
//! nothing: `run_batched` checks this once, and every plan takes the
//! whole-plan scalar route of its worker.
//!
//! **Verdict exactness is the contract**: the report — counts, retained
//! violations, latency histogram, incomplete-plan accounting — is
//! bit-identical to
//! [`run_plan_campaign_reference`](crate::run_plan_campaign_reference)
//! at every thread count, and the batched-differential test layer
//! (`tests/batch_differential.rs`, `tests/batch_demotion.rs`) re-proves it
//! per release rather than assuming it; `tests/campaign_pins.rs` holds the
//! reports themselves to literals across builds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use talft_isa::{CVal, Color, Gpr, Instr, OpSrc, Program, Reg};
use talft_machine::{step, FaultSite, Machine, OobLoadPolicy, Status};
use talft_obs::{LazyCounter, LazyHistogram};

use crate::{
    advance_frontier, lead_injection, note_verdicts, resume_plan, run_isolated, verdict_slot,
    CampaignConfig, CampaignReport, FaultPlan, Golden, Injection, Verdict, CAMPAIGN_NS, PLANS,
    WORKER_RATE,
};

static BATCH_LANES: LazyCounter = LazyCounter::new("faultsim.batch.lanes");
static BATCH_MULTI_LANES: LazyCounter = LazyCounter::new("faultsim.batch.multi_lanes");
static BATCH_DEMOTIONS: LazyCounter = LazyCounter::new("faultsim.batch.demotions");
static BATCH_SCALAR_ROUTED: LazyCounter = LazyCounter::new("faultsim.batch.scalar_routed");
static BATCH_RATE: LazyHistogram = LazyHistogram::new("faultsim.batch.plans_per_sec");
static BATCH_REPLAY_STEPS: LazyCounter = LazyCounter::new("faultsim.batch.replay_steps");
static BATCH_QUIET_STEPS: LazyCounter = LazyCounter::new("faultsim.batch.quiet_steps");
static BATCH_QUIET_JUMPS: LazyCounter = LazyCounter::new("faultsim.batch.quiet_jumps");
static BATCH_ADMISSION_SETTLED: LazyCounter = LazyCounter::new("faultsim.batch.admission_settled");

/// Why a lane left the packed representation for the scalar continuation.
/// Indexes [`DEMOTE_COUNTERS`]; the taxonomy is documented in the module
/// doc and DESIGN.md §12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum DemoteCause {
    /// An `stB` compare passed with a diverged value — it escapes into
    /// memory and the output trace.
    MemCommit = 0,
    /// A diverged result landed in a GPR ≥ 64, outside the packed window.
    GprHi = 1,
    /// The lane's control transfer departed from golden's.
    ControlFork = 2,
    /// The replay halted while the lane still held a `d`/queue shadow.
    Terminal = 3,
}

const DEMOTE_CAUSES: usize = 4;

static DEMOTE_COUNTERS: [LazyCounter; DEMOTE_CAUSES] = [
    LazyCounter::new("faultsim.batch.demote.mem_commit"),
    LazyCounter::new("faultsim.batch.demote.gpr_hi"),
    LazyCounter::new("faultsim.batch.demote.control_fork"),
    LazyCounter::new("faultsim.batch.demote.terminal"),
];

/// Packed words per lockstep group: how many plans share one replay walk
/// from the group's first strike to its last classification. Most of a
/// walk is quiet steps (`Shadow::skip_quiet`), whose cost does not depend
/// on the width; the full steps sweep `LANE_WORDS`-word sets. 8 and 32
/// words did not measure better on both campaign workloads (DESIGN.md
/// §12).
const LANE_WORDS: usize = 16;
/// Lanes per lockstep group.
const LANES_PER_GROUP: usize = 64 * LANE_WORDS;
/// Positions a worker claims per fetch — one full lockstep group, so a
/// claim over adjacent strike steps shares a single replay walk.
const GROUP_CLAIM: usize = LANES_PER_GROUP;

/// [`StepAction::kind`] bit: the action is a `jmp` or `bz`, which reads `d`.
const READS_D: u8 = 1;
/// [`StepAction::kind`] bit: the action is an `st` or a green `ld`, which
/// reads the store queue.
const READS_QUEUE: u8 = 2;

/// One golden step's pending action as the quiet-stretch scan reads it
/// (`Shadow::skip_quiet`): the GPRs it reads or writes, and whether it
/// reads `d` or the store queue; and golden's green pc at the step, which
/// admission compares pc strikes against. [`golden_run`](crate::golden_run)
/// keeps one per step beside the liveness masks; 16 bytes a step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepAction {
    /// `reads | writes` of `action_gpr_masks`.
    gprs: u64,
    /// [`READS_D`] and [`READS_QUEUE`] bits.
    kind: u8,
    /// Golden's `pcG` at the step, or 0 if it does not fit: 0 is never a
    /// code address, so never the pc of a fetch that succeeded.
    pc: u32,
}

// One record per golden step: the pc rides in what was padding.
const _: () = assert!(std::mem::size_of::<StepAction>() == 16);

impl StepAction {
    /// The record of pending action `ir`, whose GPR masks are `masks`, at
    /// green pc `pc`.
    pub(crate) fn new(ir: Option<&Instr>, (reads, writes): (u64, u64), pc: i64) -> Self {
        let kind = match ir {
            Some(Instr::Jmp { .. } | Instr::Bz { .. }) => READS_D,
            Some(
                Instr::St { .. }
                | Instr::Ld {
                    color: Color::Green,
                    ..
                },
            ) => READS_QUEUE,
            _ => 0,
        };
        Self {
            gprs: reads | writes,
            kind,
            pc: u32::try_from(pc).unwrap_or(0),
        }
    }
}

/// A packed set of lanes within one group.
type LaneSet = [u64; LANE_WORDS];

const EMPTY_SET: LaneSet = [0; LANE_WORDS];

fn lane_set_any(s: &LaneSet) -> bool {
    s.iter().any(|&w| w != 0)
}

/// One strike of an admitted lane, scheduled on the shared replay walk.
/// Fired exactly when `replay.steps()` reaches `at` — the same point the
/// scalar loop injects it.
struct Ev {
    /// Strike step (`≤ golden.steps`).
    at: u64,
    /// Group-local lane index.
    l: u32,
    /// Index into the lane's `plan.strikes`.
    strike: u32,
}

/// One classified plan, packed lane or scalar-routed.
struct Outcome {
    /// Index into `plans`.
    idx: usize,
    verdict: Verdict,
    end_steps: u64,
    applied: usize,
}

/// Per-strike admission to the packed representation: every strike must
/// hit a packed site (GPR < 64 within the register file, the `d` latch, or
/// a queue slot — value *or* address) at or before golden's halt. Only pc
/// strikes route scalar: a diverged pc forks the action sequence itself,
/// which the lockstep walk cannot express (k=1 ones that fail the next
/// fetch settle first, `admission_verdict`). The golden-run preconditions
/// (`Halted`, liveness present) are checked once by `run_batched`.
fn admissible(plan: &FaultPlan, golden: &Golden, num_gprs: u16) -> bool {
    !plan.strikes().is_empty()
        && plan.strikes().iter().all(|s| {
            s.at_step <= golden.steps
                && match s.site {
                    FaultSite::Reg(Reg::Gpr(g)) => g.0 < num_gprs && g.0 < 64,
                    FaultSite::Reg(Reg::Dst) => true,
                    FaultSite::QueueVal(_) | FaultSite::QueueAddr(_) => true,
                    FaultSite::Reg(Reg::Pc(_)) => false,
                }
        })
}

/// The verdict a k=1 plan settles with at admission, if it settles there
/// (DESIGN.md §12):
///
/// * `Masked` for a strike on a GPR the lane could hold (< 64, inside the
///   register file) that golden's liveness says is not live at the strike
///   step. Its lane would fire the strike and settle at the same step —
///   one diverged register, not live, no `d` or queue shadow — with
///   `settled_verdict` over at most that one register, which is
///   `Masked`: end step `golden.steps`, one strike applied (a value equal
///   to golden's heals on the spot, with the same outcome).
/// * `Detected` for a strike on `pcG` or `pcB` at an even step below
///   `golden.steps` whose value is not golden's pc there. From boot a
///   step fetches iff `ir` is empty, and every exec empties it again, so
///   an even step of a running machine fetches. Golden's fetch there
///   succeeded, so its two pcs agreed, and a strike that changes one of
///   them fails this fetch (`fetch-fail`): end step `at_step + 1`, one
///   strike applied.
///
/// With two or more strikes the lane cannot settle before its last one
/// fires, and registers of both colors left behind are `DissimilarState`,
/// so only k=1 plans settle here.
fn admission_verdict(plan: &FaultPlan, golden: &Golden, num_gprs: u16) -> Option<Verdict> {
    let [s] = plan.strikes() else {
        return None;
    };
    let at = usize::try_from(s.at_step).ok()?;
    match s.site {
        FaultSite::Reg(Reg::Gpr(g)) => (g.0 < num_gprs
            && g.0 < 64
            && golden
                .reg_liveness
                .get(at)
                .is_some_and(|&(live, _)| live >> g.0 & 1 == 0))
        .then_some(Verdict::Masked),
        // `quiet` holds one record per step below `golden.steps`.
        FaultSite::Reg(Reg::Pc(_)) => golden
            .quiet
            .get(at)
            .is_some_and(|a| at.is_multiple_of(2) && a.pc != 0 && s.value != i64::from(a.pc))
            .then_some(Verdict::Detected),
        _ => None,
    }
}

/// The bit-parallel batched campaign engine: reports bit-identical to
/// [`run_plan_campaign_reference`](crate::run_plan_campaign_reference)'s
/// at every thread count, at a fraction of the simulated steps. Faults on
/// packed sites (GPRs, `d`, queue values; any strike count) ride one
/// shared golden replay per worker as packed shadow deltas, classifying at
/// their heal, blue-compare, or liveness-settle point, and only lanes whose
/// divergence escapes the packed components pay for a scalar continuation.
/// k=1 strikes on dead registers, and k=1 pc strikes that fail the next
/// fetch, settle before any worker starts (`admission_verdict`), so every
/// group holds only lanes that need a walk. Any golden run and plan set
/// may be passed: a golden that is not packable (`Halted`, with liveness)
/// settles and admits nothing, so every plan takes its worker's
/// whole-plan scalar route.
pub(crate) fn run_batched(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
) -> CampaignReport {
    let _span = CAMPAIGN_NS.span();
    let num_gprs = program.num_gprs;
    let packable = golden.status == Status::Halted && !golden.reg_liveness.is_empty();
    // One scan of the plan set: the fault order, the plans that settle at
    // admission, and the survivors in report order — `(first_step,
    // index)`, the order a stable sort by first step makes. Plan sets
    // usually arrive in step order, so the survivors need no sort.
    let mut fault_order = 0;
    let (mut masked, mut detected) = (0u64, 0u64);
    let mut order: Vec<usize> = Vec::new();
    let (mut sorted, mut prev) = (true, 0);
    for (i, plan) in plans.iter().enumerate() {
        fault_order = fault_order.max(plan.order());
        let settles = if packable {
            admission_verdict(plan, golden, num_gprs)
        } else {
            None
        };
        match settles {
            Some(Verdict::Masked) => masked += 1,
            Some(_) => detected += 1,
            None => {
                let first = plan.first_step();
                sorted &= prev <= first;
                prev = first;
                order.push(i);
            }
        }
    }
    if !sorted {
        // The keys are unique, so an unstable sort gives the stable order
        // with no scratch buffer. Violations sort by the same key.
        order.sort_unstable_by_key(|&i| (plans[i].first_step(), i));
    }
    let settled = masked + detected;
    let threads = cfg.threads.max(1).min(order.len().div_ceil(GROUP_CLAIM));
    let cursor = AtomicUsize::new(0);
    let mut report = CampaignReport {
        fault_order: fault_order as u32,
        total: settled,
        masked,
        detected,
        ..CampaignReport::default()
    };
    report.detection_latency.record_n(1, detected);
    if talft_obs::enabled() {
        PLANS.add(settled);
        let mut tally = [0u64; 7];
        tally[verdict_slot(Verdict::Masked)] = masked;
        tally[verdict_slot(Verdict::Detected)] = detected;
        note_verdicts(&tally);
        BATCH_LANES.add(settled);
        BATCH_ADMISSION_SETTLED.add(settled);
    }
    let mut counts: Vec<CampaignReport> = Vec::new();
    let mut violations: Vec<(usize, Injection)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let order = &order;
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut counts = CampaignReport::default();
                let mut viols: Vec<(usize, Injection)> = Vec::new();
                let worker_start = talft_obs::enabled().then(std::time::Instant::now);
                let mut executed = 0u64;
                let mut verdict_tally = [0u64; 7];
                let (mut lanes_n, mut multi_n, mut scalar_n) = (0u64, 0u64, 0u64);
                let mut demote_tally = [0u64; DEMOTE_CAUSES];
                let mut frontier: Option<Machine> = None;
                // One shadow per worker: `untrack` leaves it empty at group
                // end, so reuse avoids re-zeroing the payload plane.
                let mut sh = Shadow::new();
                let mut group: Vec<usize> = Vec::with_capacity(GROUP_CLAIM);
                let mut events: Vec<Ev> = Vec::with_capacity(GROUP_CLAIM);
                let mut outcomes: Vec<Outcome> = Vec::with_capacity(GROUP_CLAIM);
                loop {
                    let lo = cursor.fetch_add(GROUP_CLAIM, Ordering::Relaxed);
                    if lo >= order.len() {
                        break;
                    }
                    let hi = (lo + GROUP_CLAIM).min(order.len());
                    group.clear();
                    events.clear();
                    outcomes.clear();
                    let mut scalars: Vec<usize> = Vec::new();
                    for &idx in &order[lo..hi] {
                        let plan = &plans[idx];
                        if packable && admissible(plan, golden, num_gprs) {
                            let l = group.len() as u32;
                            for (k, s) in plan.strikes().iter().enumerate() {
                                events.push(Ev {
                                    at: s.at_step,
                                    l,
                                    strike: k as u32,
                                });
                            }
                            if plan.order() >= 2 {
                                multi_n += 1;
                            }
                            group.push(idx);
                        } else {
                            scalars.push(idx);
                        }
                    }
                    // Stable by strike step: per-lane strike order (already
                    // ascending within a plan) is preserved at equal steps.
                    events.sort_by_key(|e| e.at);
                    lanes_n += group.len() as u64;
                    scalar_n += scalars.len() as u64;
                    run_lockstep(
                        program,
                        cfg,
                        golden,
                        plans,
                        &group,
                        &events,
                        &mut frontier,
                        &mut sh,
                        &mut outcomes,
                        &mut demote_tally,
                    );
                    // Whole plans the packed shape cannot express run on the
                    // scalar path, same frontier, ascending strike step.
                    for idx in scalars {
                        let plan = &plans[idx];
                        let first = plan.first_step();
                        advance_frontier(&mut frontier, first, program, cfg, golden);
                        let fr = frontier.as_ref().expect("advance_frontier populates");
                        let outcome = run_isolated(|| {
                            let mut faulty = fr.clone();
                            crate::execute_plan(
                                &mut faulty,
                                plan,
                                golden,
                                Some(&golden.checkpoints),
                            )
                        });
                        let (verdict, end_steps, applied) =
                            outcome.unwrap_or((Verdict::EngineError, first, 0));
                        outcomes.push(Outcome {
                            idx,
                            verdict,
                            end_steps,
                            applied,
                        });
                    }
                    for o in outcomes.drain(..) {
                        let plan = &plans[o.idx];
                        executed += 1;
                        verdict_tally[verdict_slot(o.verdict)] += 1;
                        if o.verdict == Verdict::Detected {
                            counts
                                .detection_latency
                                .record(o.end_steps.saturating_sub(plan.first_step()));
                        }
                        if o.verdict != Verdict::EngineError && o.applied < plan.order() {
                            counts.incomplete_plans += 1;
                        }
                        counts.absorb_counts(o.verdict);
                        if o.verdict.is_violation() {
                            viols.push((o.idx, lead_injection(plan, o.verdict)));
                        }
                    }
                }
                if let Some(start) = worker_start {
                    PLANS.add(executed);
                    note_verdicts(&verdict_tally);
                    BATCH_LANES.add(lanes_n);
                    BATCH_MULTI_LANES.add(multi_n);
                    BATCH_DEMOTIONS.add(demote_tally.iter().sum());
                    for (c, &n) in DEMOTE_COUNTERS.iter().zip(&demote_tally) {
                        c.add(n);
                    }
                    BATCH_SCALAR_ROUTED.add(scalar_n);
                    BATCH_REPLAY_STEPS.add(sh.replay_steps);
                    BATCH_QUIET_STEPS.add(sh.quiet_steps);
                    BATCH_QUIET_JUMPS.add(sh.quiet_jumps);
                    let secs = start.elapsed().as_secs_f64();
                    if secs > 0.0 {
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        let rate = (executed as f64 / secs) as u64;
                        WORKER_RATE.record(rate);
                        BATCH_RATE.record(rate);
                    }
                }
                (counts, viols)
            }));
        }
        for h in handles {
            match h.join() {
                Ok((c, v)) => {
                    counts.push(c);
                    violations.extend(v);
                }
                Err(_) => report.engine_errors += 1,
            }
        }
    });
    for c in counts {
        report.merge(c).expect("worker counts fit u64");
    }
    violations.sort_by_key(|&(idx, _)| (plans[idx].first_step(), idx));
    for (_, inj) in violations {
        report.keep(inj);
    }
    report
}

/// Packed divergence state for one lockstep group: the *exact* deltas of up
/// to `LANES_PER_GROUP` in-flight faulty machines against the shared golden
/// replay. The invariant every transition preserves: a tracked lane's
/// faulty machine equals the replay everywhere — pcs, `ir`, memory, trace,
/// status, step count, queue depth — except:
///
/// * the GPRs in `by_lane[l]`, which hold the `vals` payloads under
///   golden's color tags (faults and ALU propagation never flip a GPR
///   color: `reg-zap` preserves the tag, and an `op` result's color comes
///   from `src2`, identical on both sides);
/// * `d`, iff bit `l` of `ddiv` is set, which holds the full `CVal` in
///   `dvals[l]` (latches *can* split the color: a `bzG` taken on one side
///   only latches a green target against a stale `d`);
/// * queue entry values and addresses at the `(seq, value)` and
///   `(seq, address)` pairs in `qsh[l]` and `qash[l]`.
struct Shadow {
    /// Bit `l` of `by_reg[g]`: lane `l` diverges from golden in GPR `g`.
    by_reg: [LaneSet; 64],
    /// Bit `g` of `by_lane[l]`: the same relation, transposed.
    by_lane: [u64; LANES_PER_GROUP],
    /// Lanes diverged in GPR `g`: the population of `by_reg[g]`.
    reg_lanes: [u32; 64],
    /// Bit `g` set iff some lane diverges in GPR `g` (`reg_lanes[g] > 0`),
    /// the register set the quiet-step test checks against.
    div_regs: u64,
    /// Faulty payload of lane `l` in GPR `g` at `l * 64 + g` (meaningful
    /// where the `by_lane` bit is set).
    vals: Vec<i64>,
    /// Lanes whose `d` latch diverges from the replay's.
    ddiv: LaneSet,
    /// Lane `l`'s faulty `d` (meaningful where the `ddiv` bit is set).
    dvals: Vec<CVal>,
    /// Lanes holding at least one queue shadow (value or address).
    qdiv: LaneSet,
    /// Lane `l`'s queue-value shadows as `(seq, faulty value)` pairs.
    /// `seq` is the absolute sequence number of the entry: the back
    /// (oldest) entry has seq `qbase`, the front `qbase + len - 1`; a
    /// `stG` push assigns `qbase + len` and an `stB` pop retires `qbase`.
    qsh: Vec<Vec<(u64, i64)>>,
    /// Lane `l`'s queue-*address* shadows, same `(seq, faulty address)`
    /// shape. A diverged address changes which entry a later `ldG`
    /// forwards from and what `stB` compares against — both are resolved
    /// per-lane against the replay queue, so the divergence stays packed.
    qash: Vec<Vec<(u64, i64)>>,
    /// Sequence number of the replay queue's back (oldest) entry.
    /// Maintained across pushes/pops while any lane is in flight; reset
    /// on frontier jumps (no shadows can be outstanding then).
    qbase: u64,
    /// Strikes of lane `l` not yet fired (`plan.order() - fired`).
    pending: Vec<u16>,
    /// Strikes of lane `l` whose injection took effect (`inject` returned
    /// true) — the scalar continuation's `applied` count.
    eff: Vec<u16>,
    /// Lanes with an emitted [`Outcome`]; their remaining events are
    /// skipped.
    done: LaneSet,
    /// Demotion cause of lane `l`, recorded by `advance` when it marks the
    /// lane in the demote mask (meaningful only for those lanes).
    cause: Vec<DemoteCause>,
    /// Lanes with any live shadow (`by_lane ∪ ddiv ∪ qdiv` nonempty).
    tracking: LaneSet,
    /// Lanes whose divergence set changed since the last settle scan —
    /// the only lanes (beyond those holding a register that just went
    /// dead) whose settle condition can newly hold.
    dirty: LaneSet,
    /// Replay steps covered with lanes in flight, stepped or jumped — the
    /// worker's `faultsim.batch.replay_steps` tally.
    replay_steps: u64,
    /// The share of `replay_steps` covered by [`Shadow::skip_quiet`].
    quiet_steps: u64,
    /// Quiet stretches [`Shadow::skip_quiet`] crossed by a checkpoint seek.
    quiet_jumps: u64,
    /// Live mask at the previous settle scan, for dead-transition
    /// detection. `u64::MAX` conservatively marks every register as
    /// possibly-just-died.
    prev_live: u64,
}

impl Shadow {
    fn new() -> Self {
        Self {
            by_reg: [EMPTY_SET; 64],
            by_lane: [0; LANES_PER_GROUP],
            reg_lanes: [0; 64],
            div_regs: 0,
            vals: vec![0; LANES_PER_GROUP * 64],
            ddiv: EMPTY_SET,
            dvals: vec![CVal::green(0); LANES_PER_GROUP],
            qdiv: EMPTY_SET,
            qsh: vec![Vec::new(); LANES_PER_GROUP],
            qash: vec![Vec::new(); LANES_PER_GROUP],
            qbase: 0,
            pending: vec![0; LANES_PER_GROUP],
            eff: vec![0; LANES_PER_GROUP],
            done: EMPTY_SET,
            cause: vec![DemoteCause::Terminal; LANES_PER_GROUP],
            tracking: EMPTY_SET,
            dirty: EMPTY_SET,
            replay_steps: 0,
            quiet_steps: 0,
            quiet_jumps: 0,
            prev_live: u64::MAX,
        }
    }

    fn is_done(&self, l: usize) -> bool {
        self.done[l >> 6] & (1 << (l & 63)) != 0
    }

    /// Re-derive lane `l`'s tracking bit after a shadow transition, and
    /// emit its `Masked` outcome if it just fully healed with no strike
    /// pending: the lane re-equals golden and deterministic stepping
    /// replays golden's remainder, so it halts at `golden.steps` with
    /// golden's trace and final state — exactly where the scalar
    /// continuation's convergence exit (`diff = 0`) or terminal
    /// `sim_some_color` lands.
    fn resolve(&mut self, l: usize, lanes: &[usize], golden: &Golden, out: &mut Vec<Outcome>) {
        let (w, b) = (l >> 6, 1u64 << (l & 63));
        let tracked = self.by_lane[l] != 0 || self.ddiv[w] & b != 0 || self.qdiv[w] & b != 0;
        if tracked {
            self.tracking[w] |= b;
        } else {
            self.tracking[w] &= !b;
            if self.pending[l] == 0 && self.done[w] & b == 0 {
                self.done[w] |= b;
                out.push(Outcome {
                    idx: lanes[l],
                    verdict: Verdict::Masked,
                    end_steps: golden.steps,
                    applied: self.eff[l] as usize,
                });
            }
        }
    }

    /// Lanes diverged in `g` (registers outside the packed window cannot
    /// diverge — strikes on them are never admitted).
    fn diverged_in(&self, g: Gpr) -> LaneSet {
        if g.0 < 64 {
            self.by_reg[g.0 as usize]
        } else {
            EMPTY_SET
        }
    }

    /// Lane `l`'s view of operand `g`, whose golden value is `golden_v`.
    fn operand(&self, l: usize, g: Gpr, golden_v: i64) -> i64 {
        if g.0 < 64 && self.by_lane[l] >> g.0 & 1 == 1 {
            self.vals[l * 64 + g.0 as usize]
        } else {
            golden_v
        }
    }

    /// Lane `l`'s view of the `d` latch, whose golden value is `golden_d`.
    fn d_of(&self, l: usize, golden_d: CVal) -> CVal {
        if self.ddiv[l >> 6] & (1 << (l & 63)) != 0 {
            self.dvals[l]
        } else {
            golden_d
        }
    }

    /// Lane `l`'s view of the queue value at absolute sequence `seq`,
    /// whose golden value is `golden_v`.
    fn qval_of(&self, l: usize, seq: u64, golden_v: i64) -> i64 {
        if self.qdiv[l >> 6] & (1 << (l & 63)) != 0 {
            if let Some(&(_, v)) = self.qsh[l].iter().find(|&&(s, _)| s == seq) {
                return v;
            }
        }
        golden_v
    }

    /// Lane `l`'s view of the queue *address* at absolute sequence `seq`,
    /// whose golden address is `golden_a`.
    fn qaddr_of(&self, l: usize, seq: u64, golden_a: i64) -> i64 {
        if self.qdiv[l >> 6] & (1 << (l & 63)) != 0 {
            if let Some(&(_, a)) = self.qash[l].iter().find(|&&(s, _)| s == seq) {
                return a;
            }
        }
        golden_a
    }

    /// Whether lane `l` shadows the entry at `seq` in either component.
    fn queue_shadow_at(&self, l: usize, seq: u64) -> bool {
        self.qsh[l].iter().any(|&(s, _)| s == seq) || self.qash[l].iter().any(|&(s, _)| s == seq)
    }

    /// Drop lane `l` from every index and mark it done (an [`Outcome`]
    /// has been emitted for it; its remaining events are skipped).
    fn untrack(&mut self, l: usize) {
        let (w, b) = (l >> 6, 1u64 << (l & 63));
        let mut gs = self.by_lane[l];
        while gs != 0 {
            let g = gs.trailing_zeros() as usize;
            gs &= gs - 1;
            self.by_reg[g][w] &= !b;
            self.leave_reg(g);
        }
        self.by_lane[l] = 0;
        self.ddiv[w] &= !b;
        self.qdiv[w] &= !b;
        self.qsh[l].clear();
        self.qash[l].clear();
        self.tracking[w] &= !b;
        self.done[w] |= b;
    }

    /// Record the pending action's write of GPR `g` into lane `l`: healed
    /// (both sides computed the same payload) or diverged with payload `v`.
    #[allow(clippy::too_many_arguments)]
    fn write(
        &mut self,
        l: usize,
        g: u16,
        diverged: bool,
        v: i64,
        lanes: &[usize],
        golden: &Golden,
        out: &mut Vec<Outcome>,
    ) {
        let gi = g as usize;
        let (w, b) = (l >> 6, 1u64 << (l & 63));
        let held = self.by_lane[l] >> gi & 1 == 1;
        self.dirty[w] |= b;
        if diverged {
            if !held {
                self.reg_lanes[gi] += 1;
                self.div_regs |= 1 << gi;
            }
            self.by_reg[gi][w] |= b;
            self.by_lane[l] |= 1 << gi;
            self.vals[l * 64 + gi] = v;
            self.tracking[w] |= b;
        } else {
            if held {
                self.leave_reg(gi);
            }
            self.by_reg[gi][w] &= !b;
            self.by_lane[l] &= !(1 << gi);
            self.resolve(l, lanes, golden, out);
        }
    }

    /// Count one lane out of GPR `g`'s diverged set.
    fn leave_reg(&mut self, g: usize) {
        self.reg_lanes[g] -= 1;
        if self.reg_lanes[g] == 0 {
            self.div_regs &= !(1 << g);
        }
    }

    /// The quiet-step fast path: move the replay over every step, up to
    /// (not including) `until`, on which the full step — strike firing,
    /// settle scan, [`Shadow::advance`] — provably changes no lane, and
    /// stop at the first step where it might. A step is quiet when no lane
    /// is dirty (the caller checks) and:
    ///
    /// * no register any lane diverges in dies here, so the settle scan
    ///   has no candidate;
    /// * the pending action neither reads nor writes such a register, so
    ///   every GPR-driven affected set in `advance` is empty;
    /// * it is no `jmp`/`bz` while a lane holds a `d` shadow, and no `st`
    ///   or green `ld` while a lane holds a queue shadow, so the `d` and
    ///   queue-driven affected sets are empty too.
    ///
    /// The stretch's end comes from a scan of golden's per-step
    /// [`StepAction`] records, not from stepping and decoding. A register
    /// can die only at the stretch's first step: a death at a later step
    /// `t` means the action at `t − 1` read it, which ends the stretch
    /// there. Quiet steps change only `prev_live`, the replay and `qbase`.
    /// When the stretch is longer than the checkpoint stride and no lane
    /// holds a `d` or queue shadow, the replay jumps there by a ring seek
    /// plus less than one stride of steps; otherwise it steps. With no
    /// queue shadow held `qbase` is re-originated, as after a frontier
    /// jump; with one held the stretch has no `st`, so `qbase` stays.
    fn skip_quiet(
        &mut self,
        replay: &mut Machine,
        golden: &Golden,
        until: u64,
        oob: OobLoadPolicy,
    ) {
        let from = replay.steps();
        let end = until.min(golden.steps);
        if from >= end {
            return;
        }
        // Step counts index golden's per-step vectors, so they fit.
        let (s, e) = (from as usize, end as usize);
        let div = self.div_regs;
        if self.prev_live & !golden.reg_liveness[s].0 & div != 0 {
            return;
        }
        let d_held = lane_set_any(&self.ddiv);
        let q_held = lane_set_any(&self.qdiv);
        let stops = if d_held { READS_D } else { 0 } | if q_held { READS_QUEUE } else { 0 };
        let stretch = &golden.quiet[s..e];
        let n = stretch
            .iter()
            .position(|a| a.gprs & div != 0 || a.kind & stops != 0)
            .unwrap_or(stretch.len());
        if n == 0 {
            return;
        }
        let to = from + n as u64;
        if n as u64 > golden.checkpoints.stride() && !d_held && !q_held {
            if let Some(cp) = golden.checkpoints.seek(to).filter(|cp| cp.steps() > from) {
                *replay = cp.clone().with_oob_policy(oob);
                self.quiet_jumps += 1;
            }
        }
        while replay.steps() < to {
            step(replay);
        }
        self.prev_live = golden.reg_liveness[s + n - 1].0;
        if !q_held {
            self.qbase = 0;
        }
        self.replay_steps += n as u64;
        self.quiet_steps += n as u64;
    }

    /// Record lane `l`'s `d` latch as `lane_d` against golden's (post-
    /// action) `golden_d`: equal heals the shadow, different sets it.
    fn d_set(
        &mut self,
        l: usize,
        lane_d: CVal,
        golden_d: CVal,
        lanes: &[usize],
        golden: &Golden,
        out: &mut Vec<Outcome>,
    ) {
        let (w, b) = (l >> 6, 1u64 << (l & 63));
        self.dirty[w] |= b;
        if lane_d == golden_d {
            self.ddiv[w] &= !b;
            self.resolve(l, lanes, golden, out);
        } else {
            self.ddiv[w] |= b;
            self.dvals[l] = lane_d;
            self.tracking[w] |= b;
        }
    }

    /// Record lane `l`'s queue value at `seq` as `v` against golden's
    /// `golden_v`: equal removes the shadow, different inserts/updates it.
    #[allow(clippy::too_many_arguments)]
    fn q_set(
        &mut self,
        l: usize,
        seq: u64,
        v: i64,
        golden_v: i64,
        lanes: &[usize],
        golden: &Golden,
        out: &mut Vec<Outcome>,
    ) {
        let (w, b) = (l >> 6, 1u64 << (l & 63));
        self.dirty[w] |= b;
        if v == golden_v {
            self.qsh[l].retain(|&(s, _)| s != seq);
        } else {
            match self.qsh[l].iter_mut().find(|e| e.0 == seq) {
                Some(e) => e.1 = v,
                None => self.qsh[l].push((seq, v)),
            }
        }
        if self.qsh[l].is_empty() && self.qash[l].is_empty() {
            self.qdiv[w] &= !b;
            self.resolve(l, lanes, golden, out);
        } else {
            self.qdiv[w] |= b;
            self.tracking[w] |= b;
        }
    }

    /// Record lane `l`'s queue *address* at `seq` as `a` against golden's
    /// `golden_a`: equal removes the shadow, different inserts/updates it.
    #[allow(clippy::too_many_arguments)]
    fn q_addr_set(
        &mut self,
        l: usize,
        seq: u64,
        a: i64,
        golden_a: i64,
        lanes: &[usize],
        golden: &Golden,
        out: &mut Vec<Outcome>,
    ) {
        let (w, b) = (l >> 6, 1u64 << (l & 63));
        self.dirty[w] |= b;
        if a == golden_a {
            self.qash[l].retain(|&(s, _)| s != seq);
        } else {
            match self.qash[l].iter_mut().find(|e| e.0 == seq) {
                Some(e) => e.1 = a,
                None => self.qash[l].push((seq, a)),
            }
        }
        if self.qsh[l].is_empty() && self.qash[l].is_empty() {
            self.qdiv[w] &= !b;
            self.resolve(l, lanes, golden, out);
        } else {
            self.qdiv[w] |= b;
            self.tracking[w] |= b;
        }
    }

    /// Fire one strike event on lane `l` — the exact point the scalar
    /// loop injects it. GPR and `d` strikes always take effect (`inject`
    /// on a register site is infallible and color-preserving); a queue
    /// value or address strike takes effect only if the slot exists,
    /// exactly like `inject` on a shrunken queue (the miss leaves `eff`
    /// short and the plan accounts as incomplete).
    #[allow(clippy::too_many_arguments)]
    fn apply_event(
        &mut self,
        l: usize,
        site: FaultSite,
        value: i64,
        replay: &Machine,
        lanes: &[usize],
        golden: &Golden,
        out: &mut Vec<Outcome>,
    ) {
        self.pending[l] -= 1;
        match site {
            FaultSite::Reg(Reg::Gpr(g)) => {
                self.eff[l] += 1;
                let golden_v = replay.reg(Reg::Gpr(g)).val;
                self.write(l, g.0, value != golden_v, value, lanes, golden, out);
            }
            FaultSite::Reg(Reg::Dst) => {
                self.eff[l] += 1;
                let golden_d = replay.reg(Reg::Dst);
                let lane_d = self.d_of(l, golden_d).with_val(value);
                self.d_set(l, lane_d, golden_d, lanes, golden, out);
            }
            FaultSite::QueueVal(qi) => {
                let q = replay.queue();
                if let Some(&(_, golden_v)) = q.get(qi) {
                    self.eff[l] += 1;
                    // Index 0 = front/newest; seq counts from the back.
                    let seq = self.qbase + (q.len() - 1 - qi) as u64;
                    self.q_set(l, seq, value, golden_v, lanes, golden, out);
                } else {
                    // Slot gone: `inject` would return false. The lane may
                    // have nothing else in flight — resolve it so a fully
                    // healed lane still emits its (incomplete) Masked.
                    self.resolve(l, lanes, golden, out);
                }
            }
            FaultSite::QueueAddr(qi) => {
                let q = replay.queue();
                if let Some(&(golden_a, _)) = q.get(qi) {
                    self.eff[l] += 1;
                    let seq = self.qbase + (q.len() - 1 - qi) as u64;
                    self.q_addr_set(l, seq, value, golden_a, lanes, golden, out);
                } else {
                    self.resolve(l, lanes, golden, out);
                }
            }
            FaultSite::Reg(Reg::Pc(_)) => {
                unreachable!("inadmissible site admitted to the packed path")
            }
        }
    }

    /// Execute the replay's pending action symbolically against every
    /// affected lane. Returns `(detect, demote)` lane masks:
    ///
    /// * `detect` — the faulty machine provably faults executing this
    ///   action (golden halted, so its compare-and-commit succeeded; a
    ///   diverged operand, queue slot, or `d` fails it): `Detected` one
    ///   step from now, no simulation needed;
    /// * `demote` — the action pushes the divergence somewhere the packed
    ///   representation cannot express; the lane's [`DemoteCause`] is
    ///   recorded in `cause` — reconstruct and run scalar;
    /// * everything else is propagated in place: ALU results diverge iff
    ///   the faulty operands evaluate differently, writes of equal values
    ///   heal, diverged values flow between GPRs, the queue, and `d`
    ///   without leaving the packed form, untouched lanes ride along for
    ///   free.
    ///
    /// Lanes marked in either mask are *not* otherwise mutated, so the
    /// demote reconstruction reads their exact pre-action shadows.
    fn advance(
        &mut self,
        replay: &Machine,
        oob: OobLoadPolicy,
        lanes: &[usize],
        golden: &Golden,
        out: &mut Vec<Outcome>,
    ) -> (LaneSet, LaneSet) {
        let mut detect = EMPTY_SET;
        let mut demote = EMPTY_SET;
        let Some(ins) = replay.ir().copied() else {
            // Fetch reads only the pcs, which never diverge while tracked.
            return (detect, demote);
        };
        match ins {
            Instr::Op { op, rd, rs, src2 } => {
                let a_g = replay.rval(rs.into());
                let (b_g, rt) = match src2 {
                    OpSrc::Reg(rt) => (replay.rval(rt.into()), Some(rt)),
                    OpSrc::Imm(v) => (v.val, None),
                };
                let mut readers = self.diverged_in(rs);
                if let Some(rt) = rt {
                    or_assign(&mut readers, &self.diverged_in(rt));
                }
                if rd.0 >= 64 {
                    // Result lands outside the packed register window.
                    self.mark(&mut demote, &readers, DemoteCause::GprHi);
                } else {
                    let r_g = op.eval(a_g, b_g);
                    // Lanes reading a diverged operand recompute; lanes
                    // diverged only in `rd` heal (clean operands produce
                    // golden's result on both sides).
                    or_assign(&mut readers, &self.by_reg[rd.0 as usize]);
                    for (w, &rw) in readers.iter().enumerate() {
                        let mut m = rw;
                        while m != 0 {
                            let l = w * 64 + m.trailing_zeros() as usize;
                            m &= m - 1;
                            let a_f = self.operand(l, rs, a_g);
                            let b_f = match rt {
                                Some(rt) => self.operand(l, rt, b_g),
                                None => b_g,
                            };
                            let r_f = op.eval(a_f, b_f);
                            self.write(l, rd.0, r_f != r_g, r_f, lanes, golden, out);
                        }
                    }
                }
            }
            Instr::Mov { rd, .. } => {
                // A colored constant overwrites both sides identically.
                if rd.0 < 64 {
                    let heals = self.by_reg[rd.0 as usize];
                    for (w, &hw) in heals.iter().enumerate() {
                        let mut m = hw;
                        while m != 0 {
                            let l = w * 64 + m.trailing_zeros() as usize;
                            m &= m - 1;
                            self.write(l, rd.0, false, 0, lanes, golden, out);
                        }
                    }
                }
            }
            Instr::St {
                color: Color::Green,
                rd,
                rs,
            } => {
                // The push just moves divergence into the queue: a
                // diverged *value* shadows the new front entry's value, a
                // diverged *address* its address (seq `qbase + len`), and
                // the lane rides on — later `ldG` forwarding and the `stB`
                // compare resolve both shadow components per lane.
                let a_g = replay.rval(rd.into());
                let v_g = replay.rval(rs.into());
                let seq = self.qbase + replay.queue().len() as u64;
                let mut affected = self.diverged_in(rd);
                or_assign(&mut affected, &self.diverged_in(rs));
                for (w, &aw) in affected.iter().enumerate() {
                    let mut m = aw;
                    while m != 0 {
                        let l = w * 64 + m.trailing_zeros() as usize;
                        m &= m - 1;
                        let a_f = self.operand(l, rd, a_g);
                        let v_f = self.operand(l, rs, v_g);
                        self.q_addr_set(l, seq, a_f, a_g, lanes, golden, out);
                        self.q_set(l, seq, v_f, v_g, lanes, golden, out);
                    }
                }
            }
            Instr::St {
                color: Color::Blue,
                rd,
                rs,
            } => {
                // Golden's compare against the back pair `(nl, nv)`
                // succeeded (it halted): `Rval(rd) = nl`, `Rval(rs) = nv`,
                // and it commits `(nl, nv)` to memory and the trace. A lane
                // sees its own `rd`/`rs` and its (possibly shadowed) back
                // pair `(nl_f, nv_f)`:
                //
                // * `rd` vs `nl_f` mismatch → the address compare fails
                //   (`stB-mem-fail`): detect;
                // * `rs` vs `nv_f` mismatch → the value compare fails:
                //   detect;
                // * both match with `(nl_f, nv_f) ≠ (nl, nv)` → the
                //   compare *passes* and commits a diverged word (or the
                //   right word at a diverged address) into memory and the
                //   output trace: demote (`mem_commit`) — the scalar
                //   continuation classifies the Sdc/detected tail exactly.
                let &(nl, nv) = replay.queue().back().expect("golden stB popped");
                let mut affected = self.diverged_in(rd);
                or_assign(&mut affected, &self.diverged_in(rs));
                // Lanes shadowing the back entry (seq = qbase).
                for (w, &qw) in self.qdiv.iter().enumerate() {
                    let mut m = qw & !affected[w];
                    while m != 0 {
                        let l = w * 64 + m.trailing_zeros() as usize;
                        let b = m & m.wrapping_neg();
                        m &= m - 1;
                        if self.queue_shadow_at(l, self.qbase) {
                            affected[w] |= b;
                        }
                    }
                }
                for (w, &aw) in affected.iter().enumerate() {
                    let mut m = aw;
                    while m != 0 {
                        let l = w * 64 + m.trailing_zeros() as usize;
                        let b = m & m.wrapping_neg();
                        m &= m - 1;
                        let rd_f = self.operand(l, rd, nl);
                        let rs_f = self.operand(l, rs, nv);
                        let nl_f = self.qaddr_of(l, self.qbase, nl);
                        let nv_f = self.qval_of(l, self.qbase, nv);
                        if rd_f == nl_f && rs_f == nv_f {
                            // Compare passes. An affected lane passing with
                            // the golden pair is contradictory (it would
                            // not be affected); the commit is diverged.
                            debug_assert!((nl_f, nv_f) != (nl, nv));
                            self.cause[l] = DemoteCause::MemCommit;
                            demote[w] |= b;
                        } else {
                            detect[w] |= b;
                        }
                    }
                }
            }
            Instr::Ld { color, rd, rs } => {
                // A load never escapes the packed form through its source:
                // while a lane is packed its memory is bit-identical to the
                // replay's (diverged commits demote at the stB), and its
                // queue differs from the replay's only through the lane's
                // own shadows — so even a diverged address resolves in
                // place. The lane's loaded value is the machine's own
                // lookup order evaluated against replay state: green
                // queue-forwards on the shadow-corrected (address, value)
                // pairs, then the replay memory at the lane's address, then
                // the OOB policy (`Fault` is an instant in-lane detect;
                // `Value(v)` loads the witness). A clean address with no
                // address shadows loads the same *source* on both sides:
                // golden's value heals `rd`, except where a green load
                // forwards from a queue slot whose value the lane shadows
                // (blue loads ignore the queue). A lane holding *address*
                // shadows takes the full per-slot scan even on a clean
                // source — its forwarding outcome may differ from golden's
                // in either direction.
                let addr_g = replay.rval(rs.into());
                let fwd_seq = match color {
                    Color::Green => replay
                        .queue_find_index(addr_g)
                        .map(|i| self.qbase + (replay.queue().len() - 1 - i) as u64),
                    Color::Blue => None,
                };
                // Golden's loaded value. Golden halted cleanly, so its own
                // lookup cannot have hit the `Fault` OOB policy.
                let v_g = if fwd_seq.is_some() {
                    replay.queue_find(addr_g).expect("forwarded slot exists").1
                } else if let Some(v) = replay.mem(addr_g) {
                    v
                } else {
                    match oob {
                        OobLoadPolicy::Value(v) => v,
                        OobLoadPolicy::Fault => unreachable!("golden halted through this load"),
                    }
                };
                let bad_addr = self.diverged_in(rs);
                let mut affected = if rd.0 < 64 {
                    self.by_reg[rd.0 as usize]
                } else {
                    EMPTY_SET
                };
                or_assign(&mut affected, &bad_addr);
                if matches!(color, Color::Green) {
                    // Value shadows matter only on the slot golden forwards
                    // from; address shadows matter on *any* slot — they can
                    // redirect the lane's forwarding hit.
                    for (w, &qw) in self.qdiv.iter().enumerate() {
                        let mut m = qw & !affected[w];
                        while m != 0 {
                            let l = w * 64 + m.trailing_zeros() as usize;
                            let b = m & m.wrapping_neg();
                            m &= m - 1;
                            let hit = !self.qash[l].is_empty()
                                || fwd_seq
                                    .is_some_and(|s| self.qsh[l].iter().any(|&(q, _)| q == s));
                            if hit {
                                affected[w] |= b;
                            }
                        }
                    }
                }
                for (w, &aw) in affected.iter().enumerate() {
                    let mut m = aw;
                    while m != 0 {
                        let l = w * 64 + m.trailing_zeros() as usize;
                        let b = m & m.wrapping_neg();
                        m &= m - 1;
                        let a_f = self.operand(l, rs, addr_g);
                        let fast = a_f == addr_g
                            && (matches!(color, Color::Blue) || self.qash[l].is_empty());
                        let v_f = if fast {
                            match fwd_seq {
                                Some(seq) => self.qval_of(l, seq, v_g),
                                None => v_g,
                            }
                        } else {
                            // Diverged address or address-shadowed queue:
                            // the lane's own lookup, over state provably
                            // shared with the replay up to its shadows.
                            // Newest-first (front = index 0), each slot
                            // read through the lane's shadow pair.
                            let lane_fwd =
                                match color {
                                    Color::Green => {
                                        let len = replay.queue().len();
                                        replay.queue().iter().enumerate().find_map(
                                            |(i, &(qa, qv))| {
                                                let seq = self.qbase + (len - 1 - i) as u64;
                                                (self.qaddr_of(l, seq, qa) == a_f)
                                                    .then(|| self.qval_of(l, seq, qv))
                                            },
                                        )
                                    }
                                    Color::Blue => None,
                                };
                            if let Some(v) = lane_fwd {
                                v
                            } else if let Some(v) = replay.mem(a_f) {
                                v
                            } else {
                                match oob {
                                    OobLoadPolicy::Fault => {
                                        // `ld*-fail`: the lane faults here.
                                        detect[w] |= b;
                                        continue;
                                    }
                                    OobLoadPolicy::Value(v) => v,
                                }
                            }
                        };
                        let diverged = v_f != v_g;
                        if diverged && rd.0 >= 64 {
                            self.cause[l] = DemoteCause::GprHi;
                            demote[w] |= b;
                        } else if rd.0 < 64 {
                            self.write(l, rd.0, diverged, v_f, lanes, golden, out);
                        }
                    }
                }
            }
            Instr::Jmp {
                color: Color::Green,
                rd,
            } => {
                // Golden saw `Dval = 0` and latches `reg(rd)` into `d`. A
                // lane with a nonzero `d` value faults (`jmpG-fail`);
                // otherwise it latches its own view of `reg(rd)` — the
                // divergence moves from the GPR into the `d` shadow (and
                // heals if `rd` is clean and only `d`'s color had split).
                let golden_d = replay.reg(Reg::Dst);
                let golden_new = replay.reg(rd.into());
                let mut affected = self.diverged_in(rd);
                or_assign(&mut affected, &self.ddiv);
                for (w, &aw) in affected.iter().enumerate() {
                    let mut m = aw;
                    while m != 0 {
                        let l = w * 64 + m.trailing_zeros() as usize;
                        let b = m & m.wrapping_neg();
                        m &= m - 1;
                        if self.d_of(l, golden_d).val != 0 {
                            detect[w] |= b;
                        } else {
                            let lane_new = golden_new.with_val(self.operand(l, rd, golden_new.val));
                            self.d_set(l, lane_new, golden_new, lanes, golden, out);
                        }
                    }
                }
            }
            Instr::Jmp {
                color: Color::Blue,
                rd,
            } => {
                // Golden committed (`Dval ≠ 0`, `Rval(rd) = Dval`) and
                // moved `d`/`reg(rd)` into the pcs. A lane failing its own
                // compare faults (`jmpB-fail`): detect. A lane *passing*
                // with any divergence left commits diverged pc `CVal`s —
                // control forks (an affected lane cannot pass with
                // golden's exact values): demote.
                let golden_d = replay.reg(Reg::Dst);
                let mut affected = self.diverged_in(rd);
                or_assign(&mut affected, &self.ddiv);
                for (w, &aw) in affected.iter().enumerate() {
                    let mut m = aw;
                    while m != 0 {
                        let l = w * 64 + m.trailing_zeros() as usize;
                        let b = m & m.wrapping_neg();
                        m &= m - 1;
                        let d_f = self.d_of(l, golden_d);
                        let rd_f = self.operand(l, rd, replay.rval(rd.into()));
                        if d_f.val != 0 && rd_f == d_f.val {
                            self.cause[l] = DemoteCause::ControlFork;
                            demote[w] |= b;
                        } else {
                            detect[w] |= b;
                        }
                    }
                }
            }
            Instr::Bz { color, rz, rd } => {
                let z_g = replay.rval(rz.into());
                let golden_d = replay.reg(Reg::Dst);
                let mut affected = self.diverged_in(rz);
                or_assign(&mut affected, &self.ddiv);
                // `rd` is read only on the taken path; golden reads it iff
                // `z_g = 0`, and a lane with clean `z` follows golden.
                if z_g == 0 {
                    or_assign(&mut affected, &self.diverged_in(rd));
                }
                for (w, &aw) in affected.iter().enumerate() {
                    let mut m = aw;
                    while m != 0 {
                        let l = w * 64 + m.trailing_zeros() as usize;
                        let b = m & m.wrapping_neg();
                        m &= m - 1;
                        let z_f = self.operand(l, rz, z_g);
                        let d_f = self.d_of(l, golden_d);
                        if z_f != 0 {
                            // Lane falls through (`bz-untaken`), needing
                            // `Dval = 0`.
                            if d_f.val != 0 {
                                detect[w] |= b;
                            } else if z_g == 0 {
                                match color {
                                    // Golden latches `reg(rd)`; the lane
                                    // keeps its `d`. No control transfer
                                    // on either side — the divergence
                                    // lands in the `d` shadow.
                                    Color::Green => {
                                        let golden_new = replay.reg(rd.into());
                                        self.d_set(l, d_f, golden_new, lanes, golden, out);
                                    }
                                    // Golden transfers; the lane falls
                                    // through alone.
                                    Color::Blue => {
                                        self.cause[l] = DemoteCause::ControlFork;
                                        demote[w] |= b;
                                    }
                                }
                            }
                            // Both untaken: no-op, shadows persist.
                        } else {
                            // Lane takes the branch.
                            match color {
                                Color::Green => {
                                    // `bzG-taken` needs `Dval = 0`, then
                                    // latches `reg(rd)` into `d`; no
                                    // transfer on either side.
                                    if d_f.val != 0 {
                                        detect[w] |= b;
                                    } else {
                                        let rd_g = replay.reg(rd.into());
                                        let lane_new = rd_g.with_val(self.operand(l, rd, rd_g.val));
                                        let golden_new = if z_g == 0 { rd_g } else { golden_d };
                                        self.d_set(l, lane_new, golden_new, lanes, golden, out);
                                    }
                                }
                                Color::Blue => {
                                    // `bzB-taken` compares and commits the
                                    // transfer. Passing with any
                                    // divergence left (or taking when
                                    // golden fell through) forks control.
                                    let rd_f = self.operand(l, rd, replay.rval(rd.into()));
                                    if d_f.val != 0 && rd_f == d_f.val {
                                        self.cause[l] = DemoteCause::ControlFork;
                                        demote[w] |= b;
                                    } else {
                                        detect[w] |= b;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Instr::Halt => {}
        }
        (detect, demote)
    }

    /// Add `src` lanes to the `dst` demote mask with `cause` recorded.
    fn mark(&mut self, dst: &mut LaneSet, src: &LaneSet, cause: DemoteCause) {
        for (w, &sw) in src.iter().enumerate() {
            let mut m = sw;
            while m != 0 {
                let l = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                self.cause[l] = cause;
            }
            dst[w] |= sw;
        }
    }
}

fn or_assign(dst: &mut LaneSet, src: &LaneSet) {
    for w in 0..LANE_WORDS {
        dst[w] |= src[w];
    }
}

/// Classify a lane none of whose diverged registers golden ever reads
/// again (`by_lane & live == 0`, no `d`/queue shadow, no strike pending):
/// the faulty run replays golden's remaining actions verbatim, halts at
/// `golden.steps` with golden's trace, registers golden overwrites heal,
/// and `persist` (the rest) survives to the final state. `Masked` if
/// nothing survives or the survivors are all one color (`sim-val-zap`
/// under that color's tag), `DissimilarState` otherwise — the identical
/// case split, on the identical masks and colors, as the scalar
/// continuation's `persisting_verdict` and terminal `sim_some_color`.
fn settled_verdict(persist: u64, replay: &Machine) -> Verdict {
    let mut zap: Option<talft_isa::Color> = None;
    let mut bits = persist;
    while bits != 0 {
        #[allow(clippy::cast_possible_truncation)]
        let g = bits.trailing_zeros() as u16;
        bits &= bits - 1;
        let c = replay.reg(talft_isa::Reg::r(g)).color;
        if zap.is_some_and(|z| z != c) {
            return Verdict::DissimilarState;
        }
        zap = Some(c);
    }
    Verdict::Masked
}

/// Reconstruct lane `l`'s exact faulty machine — the replay plus its
/// packed GPR payloads (golden's color tags intact), `d` shadow, and
/// queue value/address shadows — and run the scalar continuation from the
/// next unfired strike. This is the state a scalar run holds at this step,
/// so the continuation is exact.
fn demote_lane(
    replay: &Machine,
    sh: &Shadow,
    l: usize,
    plan: &FaultPlan,
    golden: &Golden,
) -> (Verdict, u64, usize) {
    let outcome = run_isolated(|| {
        let mut faulty = replay.clone();
        let mut gs = sh.by_lane[l];
        while gs != 0 {
            #[allow(clippy::cast_possible_truncation)]
            let g = gs.trailing_zeros() as u16;
            gs &= gs - 1;
            let r = talft_isa::Reg::r(g);
            let cur = faulty.reg(r);
            faulty.set_reg(r, cur.with_val(sh.vals[l * 64 + g as usize]));
        }
        if sh.ddiv[l >> 6] & (1 << (l & 63)) != 0 {
            faulty.set_reg(Reg::Dst, sh.dvals[l]);
        }
        for &(seq, v) in &sh.qsh[l] {
            let len = faulty.queue().len() as u64;
            debug_assert!(seq >= sh.qbase && seq < sh.qbase + len);
            let i = (sh.qbase + len - 1 - seq) as usize;
            faulty.queue_mut()[i].1 = v;
        }
        for &(seq, a) in &sh.qash[l] {
            let len = faulty.queue().len() as u64;
            debug_assert!(seq >= sh.qbase && seq < sh.qbase + len);
            let i = (sh.qbase + len - 1 - seq) as usize;
            faulty.queue_mut()[i].0 = a;
        }
        let next = plan.order() - sh.pending[l] as usize;
        resume_plan(
            &mut faulty,
            plan,
            golden,
            Some(&golden.checkpoints),
            next,
            sh.eff[l] as usize,
        )
    });
    outcome.unwrap_or((Verdict::EngineError, plan.first_step(), 0))
}

/// Step the shared replay over a group of ≤ `LANES_PER_GROUP` lanes,
/// carrying each as an exact packed delta over GPRs, `d`, and queue
/// values: classified `Masked` at its strike or settle point (O(1)),
/// `Detected` at the blue compare its divergence provably fails,
/// healed/propagated through ALU, queue, and latch traffic in place — and
/// demoted to the scalar continuation only when the divergence escapes the
/// packed components (with the cause tallied into `demote_tally`).
#[allow(clippy::too_many_arguments)]
fn run_lockstep(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    lanes: &[usize],
    events: &[Ev],
    frontier: &mut Option<Machine>,
    sh: &mut Shadow,
    out: &mut Vec<Outcome>,
    demote_tally: &mut [u64; DEMOTE_CAUSES],
) {
    debug_assert!(lanes.len() <= LANES_PER_GROUP);
    debug_assert!(!lane_set_any(&sh.tracking));
    for (l, &idx) in lanes.iter().enumerate() {
        sh.pending[l] = plans[idx].order() as u16;
        sh.eff[l] = 0;
    }
    sh.done = EMPTY_SET;
    sh.qbase = 0;
    let mut i = 0usize;
    while i < events.len() || lane_set_any(&sh.tracking) {
        if !lane_set_any(&sh.tracking) {
            // Nothing in flight: jump the replay to the next strike through
            // the checkpoint ring instead of stepping across the gap. No
            // queue shadow is outstanding, so the seq origin can reset.
            advance_frontier(frontier, events[i].at, program, cfg, golden);
            sh.qbase = 0;
        }
        let replay = frontier.as_mut().expect("advance_frontier populates");
        if lane_set_any(&sh.tracking) && !lane_set_any(&sh.dirty) {
            // Lanes in flight and nothing changed last step: skip the
            // replay across the quiet stretch before the next strike.
            let until = events.get(i).map_or(u64::MAX, |e| e.at);
            sh.skip_quiet(replay, golden, until, cfg.oob);
        }
        // Fire strikes due now — before the pending action executes,
        // exactly where the scalar loop injects them.
        while i < events.len() && events[i].at <= replay.steps() {
            let ev = &events[i];
            i += 1;
            let l = ev.l as usize;
            if sh.is_done(l) {
                continue;
            }
            let s = &plans[lanes[l]].strikes()[ev.strike as usize];
            sh.apply_event(l, s.site, s.value, replay, lanes, golden, out);
        }
        if lane_set_any(&sh.tracking) {
            // Liveness settle: once none of a lane's diverged registers is
            // read before overwrite in golden's future, no strike is
            // pending, and no `d`/queue shadow is held, its verdict is
            // decided — see `settled_verdict`. k=1 strikes on registers
            // already dead at their step never get here: the same rule
            // settles them at admission (`admission_verdict`). The scan
            // is event-driven: a lane's settle condition can newly hold only
            // if its divergence set changed (`dirty`, set by every shadow
            // transition) or a register it holds just left the live mask
            // (`died`) — so only those candidates are checked, keeping
            // wide groups O(events) per step rather than O(lanes).
            let s = usize::try_from(replay.steps()).unwrap_or(usize::MAX);
            let (live, deadwrite) = golden.reg_liveness.get(s).copied().unwrap_or((0, 0));
            let mut cand = std::mem::replace(&mut sh.dirty, EMPTY_SET);
            let mut died = sh.prev_live & !live;
            sh.prev_live = live;
            while died != 0 {
                let g = died.trailing_zeros() as usize;
                died &= died - 1;
                or_assign(&mut cand, &sh.by_reg[g]);
            }
            for (w, &cw) in cand.iter().enumerate() {
                let mut m = cw & sh.tracking[w] & !sh.ddiv[w] & !sh.qdiv[w];
                while m != 0 {
                    let l = w * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    if sh.by_lane[l] & live == 0 && sh.pending[l] == 0 {
                        out.push(Outcome {
                            idx: lanes[l],
                            verdict: settled_verdict(sh.by_lane[l] & !deadwrite, replay),
                            end_steps: golden.steps,
                            applied: sh.eff[l] as usize,
                        });
                        sh.untrack(l);
                    }
                }
            }
        }
        if !lane_set_any(&sh.tracking) {
            if i >= events.len() {
                break;
            }
            continue;
        }
        if !replay.status().is_running() {
            // The replay halted (at `golden.steps`, so every strike has
            // fired) with lanes still holding `d`/queue shadows — GPR
            // liveness cannot classify those. The run is over: demote to
            // the terminal scalar rules (no stepping — reconstruct the
            // halted faulty state and classify it).
            let tracked = sh.tracking;
            for (w, &tw) in tracked.iter().enumerate() {
                let mut m = tw;
                while m != 0 {
                    let l = w * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    demote_tally[DemoteCause::Terminal as usize] += 1;
                    let lane = lanes[l];
                    let (verdict, end_steps, applied) =
                        demote_lane(replay, sh, l, &plans[lane], golden);
                    out.push(Outcome {
                        idx: lane,
                        verdict,
                        end_steps,
                        applied,
                    });
                    sh.untrack(l);
                }
            }
            continue;
        }
        let ins = replay.ir().copied();
        let (detect, demote) = sh.advance(replay, cfg.oob, lanes, golden, out);
        for (w, &dw) in detect.iter().enumerate() {
            let mut hit = dw;
            while hit != 0 {
                let l = w * 64 + hit.trailing_zeros() as usize;
                hit &= hit - 1;
                // The faulting step still counts: the scalar run's fault
                // lands at `steps() + 1`, with the trace a verified golden
                // prefix.
                let end_steps = replay.steps() + 1;
                let plan = &plans[lanes[l]];
                let mut applied = sh.eff[l] as usize;
                if sh.pending[l] > 0 {
                    // The scalar loop drains strikes due at or before the
                    // fault step into the already-faulted machine before
                    // breaking: register injections always take effect;
                    // a queue injection (value or address) only if the
                    // slot survived (an `stB` fault has already popped the
                    // back entry).
                    let qlen = replay.queue().len()
                        - usize::from(matches!(
                            ins,
                            Some(Instr::St {
                                color: Color::Blue,
                                ..
                            })
                        ));
                    let consumed = plan.order() - sh.pending[l] as usize;
                    for s in &plan.strikes()[consumed..] {
                        if s.at_step > end_steps {
                            break;
                        }
                        match s.site {
                            FaultSite::Reg(_) => applied += 1,
                            FaultSite::QueueVal(qi) | FaultSite::QueueAddr(qi) => {
                                if qi < qlen {
                                    applied += 1;
                                }
                            }
                        }
                    }
                }
                out.push(Outcome {
                    idx: lanes[l],
                    verdict: Verdict::Detected,
                    end_steps,
                    applied,
                });
                sh.untrack(l);
            }
        }
        for (w, &dw) in demote.iter().enumerate() {
            let mut dm = dw;
            while dm != 0 {
                let l = w * 64 + dm.trailing_zeros() as usize;
                dm &= dm - 1;
                let lane = lanes[l];
                demote_tally[sh.cause[l] as usize] += 1;
                let (verdict, end_steps, applied) =
                    demote_lane(replay, sh, l, &plans[lane], golden);
                out.push(Outcome {
                    idx: lane,
                    verdict,
                    end_steps,
                    applied,
                });
                sh.untrack(l);
            }
        }
        step(replay);
        sh.replay_steps += 1;
        if matches!(
            ins,
            Some(Instr::St {
                color: Color::Blue,
                ..
            })
        ) {
            // The back (oldest) entry retired; the new back is `qbase + 1`.
            sh.qbase += 1;
        }
    }
}
