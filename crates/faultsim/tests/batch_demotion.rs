//! Targeted lane-shadow and demotion tests for the batched engine:
//! hand-built `.talft` fixtures that force each exit from the packed
//! representation and prove the batched report is exactly the sequential
//! reference's. `run_plan_campaign` runs the batched engine on every
//! fixture here, and each golden run halts, so lanes pack. With the
//! queue/`d` shadows a corrupted value flowing into a blue compare is not
//! a demotion — the lane resolves it *in place*: a failing compare on the
//! lane while golden passes is an instant in-lane `Detected`, and only a
//! compare the lane *passes with diverged state* (a corrupt commit, a
//! coherent control fork) demotes, with the cause recorded on a
//! `faultsim.batch.demote.*` counter. The `talft-machine` divergence
//! accessors (`gpr_divergence_mask` / `queue_value_divergence_mask` /
//! `d_diverged` / `pc_diverged`) witness that each fixture really does
//! reach the claimed shape.
//!
//! All tests serialize on one lock: the demote/lane counters are
//! process-global, and the `== 0` assertions below are only meaningful
//! when no concurrent campaign is recording.

mod common;

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use talft_faultsim::{
    golden_run, plan_fault_grid, run_plan_campaign, run_plan_campaign_reference, CampaignConfig,
    CampaignReport, FaultPlan, Strike, Verdict,
};
use talft_isa::{assemble, Color, Reg};
use talft_machine::{inject, step, FaultSite, Machine};
use talft_obs::Snapshot;

const PRE: &str = ".pre { forall m:mem; mem: m; }";

/// Serializes every test in this file: obs counters are process-global,
/// and several assertions below demand an *exact* delta.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counters.get(name).copied().unwrap_or(0) - before.counters.get(name).copied().unwrap_or(0)
}

/// Run `body` with instrumentation on (under the file lock) and return its
/// result plus the before/after counter snapshots.
fn with_obs<R>(body: impl FnOnce() -> R) -> (R, Snapshot, Snapshot) {
    let _g = obs_lock();
    let prev = talft_obs::enabled();
    talft_obs::set_enabled(true);
    let before = talft_obs::snapshot();
    let out = body();
    let after = talft_obs::snapshot();
    talft_obs::set_enabled(prev);
    (out, before, after)
}

fn arc(src: &str) -> Arc<talft_isa::Program> {
    Arc::new(assemble(src).expect("fixture assembles").program)
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    }
}

/// The verdict of a one-plan report.
fn sole_verdict(report: &CampaignReport) -> Verdict {
    assert_eq!(report.total, 1);
    if report.masked == 1 {
        Verdict::Masked
    } else if report.detected == 1 {
        Verdict::Detected
    } else {
        report.violations[0].verdict
    }
}

/// Run one plan through the batched engine and the reference; assert
/// bit-identical reports and return the (shared) verdict of its lead
/// injection.
fn agreed_verdict(program: &Arc<talft_isa::Program>, plan: FaultPlan) -> Verdict {
    let golden = golden_run(program, &cfg()).expect("golden halts");
    let plans = vec![plan];
    let reference = run_plan_campaign_reference(program, &cfg(), &golden, &plans);
    let batched = run_plan_campaign(program, &cfg(), &golden, &plans);
    assert_eq!(
        batched, reference,
        "batched plan's report diverged from the reference"
    );
    sole_verdict(&batched)
}

/// Golden prefix at `at` steps, with `value` injected into `reg` — the
/// faulty state a demoted lane reconstructs.
fn faulty_at(program: &Arc<talft_isa::Program>, at: u64, reg: Reg, value: i64) -> Machine {
    let mut m = Machine::boot(Arc::clone(program));
    while m.steps() < at && m.status().is_running() {
        step(&mut m);
    }
    assert!(inject(&mut m, FaultSite::Reg(reg), value));
    m
}

/// Step both machines until `stop` says so or both halt; a side that halts
/// early (e.g. golden taking the short branch arm) stays put while the
/// other finishes.
fn run_until(
    golden: &mut Machine,
    faulty: &mut Machine,
    mut stop: impl FnMut(&Machine, &Machine) -> bool,
) {
    while (golden.status().is_running() || faulty.status().is_running()) && !stop(golden, faulty) {
        if golden.status().is_running() {
            step(golden);
        }
        if faulty.status().is_running() {
            step(faulty);
        }
    }
}

/// Memory divergence: the unprotected same-register store pair commits a
/// corrupted value to memory — SDC. The strike hits `r1` (the store value)
/// while it is live; the corruption enters the queue as a value shadow at
/// the `stG`, and at the `stB` the lane *passes* the compare (both the
/// register and the shadowed queue entry hold the same corrupt value) while
/// committing a diverged word — the `mem_commit` demotion, whose
/// continuation must land on the reference's `Sdc`.
#[test]
fn memory_divergence_demotes_to_sdc() {
    let src = format!(
        "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  {PRE}\n  \
         mov r1, G 5\n  mov r2, G 4096\n  stG r2, r1\n  stB r2, r1\n  halt\n"
    );
    let p = arc(&src);
    // Strike after `mov r1` has executed (r1 = 5), before the stores read it.
    let plan = FaultPlan::single(2, FaultSite::Reg(Reg::r(1)), 1234);
    let (verdict, before, after) = with_obs(|| agreed_verdict(&p, plan));
    assert_eq!(verdict, Verdict::Sdc);
    assert_eq!(
        delta(&before, &after, "faultsim.batch.demote.mem_commit"),
        1,
        "a passed compare over a diverged commit is the mem_commit demotion"
    );
    // Witness the escape shape: after both stores commit, the faulty run's
    // *memory* differs from golden — beyond any packed shadow.
    let mut golden = Machine::boot(Arc::clone(&p));
    let mut faulty = faulty_at(&p, 2, Reg::r(1), 1234);
    run_until(&mut golden, &mut faulty, |g, _| !g.status().is_running());
    assert_ne!(
        golden.memory(),
        faulty.memory(),
        "store committed the corruption"
    );
    assert_ne!(
        golden.trace(),
        faulty.trace(),
        "the divergence is observable"
    );
}

/// Protected store pair: the same live-register strike flows through the
/// queue shadow into the `stB` comparison, which *fails* on the lane (the
/// clean blue copy disagrees with the shadowed green value) while golden
/// passes — an instant in-lane `Detected`. No demotion: the lane never
/// leaves the packed representation.
#[test]
fn protected_store_detects_in_lane() {
    let src = format!(
        "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  {PRE}\n  \
         mov r1, G 5\n  mov r2, G 4096\n  stG r2, r1\n  mov r3, B 5\n  mov r4, B 4096\n  \
         stB r4, r3\n  halt\n"
    );
    let p = arc(&src);
    let plan = FaultPlan::single(2, FaultSite::Reg(Reg::r(1)), 1234);
    let (verdict, before, after) = with_obs(|| agreed_verdict(&p, plan));
    assert_eq!(verdict, Verdict::Detected);
    assert_eq!(delta(&before, &after, "faultsim.batch.lanes"), 1);
    assert_eq!(
        delta(&before, &after, "faultsim.batch.demotions"),
        0,
        "a failing blue compare resolves in-lane, not by demotion"
    );
}

/// Control-flow split: corrupting a live branch condition makes the faulty
/// run skip the latch golden performs at the `bzG` — the missing `d` rides
/// as a `d`-latch shadow to the `bzB`, where golden commits a transfer the
/// lane coherently refuses: control forks without a failing compare, the
/// `control_fork` demotion. The demoted continuation must match the
/// reference verdict-for-verdict.
///
/// Both `bz` halves read the *same* condition register so the corruption
/// flips them coherently: the machine's `rval` is color-blind, and a
/// coherent flip is exactly the shape where control forks *without*
/// tripping a detection rule — the worst case for a packed lane.
#[test]
fn control_flow_split_demotes_and_matches_scalar() {
    // r1 = 0: the branch pair is taken, skipping the store pair entirely.
    let src = format!(
        "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  {PRE}\n  \
         mov r1, G 0\n  mov r3, G @done\n  mov r4, B @done\n  \
         bzG r1, r3\n  bzB r1, r4\n  mov r5, G 7\n  mov r2, G 4096\n  stG r2, r5\n  \
         stB r2, r5\n  halt\ndone:\n  {PRE}\n  halt\n"
    );
    let p = arc(&src);
    let golden_rep = golden_run(&p, &cfg()).expect("golden halts");
    // Corrupt r1 to nonzero right after its mov: both bz halves go untaken
    // together while golden jumps — control forks cleanly and the faulty
    // run commits a store golden never performs. The exact verdict is the
    // reference's business; the batched engine must only *agree*.
    let at = 2; // after `mov r1` executed, before the branch pair reads it
    let plan = FaultPlan::single(at, FaultSite::Reg(Reg::r(1)), 1);
    let reference =
        run_plan_campaign_reference(&p, &cfg(), &golden_rep, std::slice::from_ref(&plan));
    let (batched, before, after) = with_obs(|| run_plan_campaign(&p, &cfg(), &golden_rep, &[plan]));
    assert_eq!(batched, reference, "control split changed the verdict");
    assert_eq!(batched.total, 1);
    assert_eq!(
        batched.masked, 0,
        "a live branch-condition strike is not masked"
    );
    assert_eq!(
        delta(&before, &after, "faultsim.batch.demote.control_fork"),
        1,
        "a coherent untaken-vs-taken fork is the control_fork demotion"
    );
    // Witness: the two runs really do split the `d` latch at the bzG, then
    // fork control and drift queue depth.
    let mut golden = Machine::boot(Arc::clone(&p));
    let mut faulty = faulty_at(&p, at, Reg::r(1), 1);
    let mut d_split = false;
    let mut forked = false;
    let mut depth_drift = false;
    run_until(&mut golden, &mut faulty, |g, f| {
        d_split |= g.d_diverged(f);
        forked |= g.pc_diverged(f);
        depth_drift |= g.queue_depth_delta(f) != 0;
        forked && depth_drift
    });
    assert!(d_split, "golden latches `d` at the bzG; the lane does not");
    assert!(forked, "branch corruption must fork control flow");
    assert!(
        depth_drift,
        "one arm pushes a store pair the other never does"
    );
}

/// Strikes inside the open store window: corrupt the *blue* value or
/// address register between `stG` and `stB` of a protected pair. The
/// corrupt register rides the packed lane to the `stB`, whose comparison
/// fails on the lane while golden passes — instant in-lane `Detected` for
/// both shapes, no demotion.
#[test]
fn queue_window_strike_detects_in_lane() {
    // Blue copies are materialized *before* the `stG` so that at the first
    // nonempty-queue step both are already holding their final values —
    // the strike lands inside the open store window, not before the movs.
    let src = format!(
        "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  {PRE}\n  \
         mov r1, G 5\n  mov r2, G 4096\n  mov r3, B 5\n  mov r4, B 4096\n  \
         stG r2, r1\n  stB r4, r3\n  halt\n"
    );
    let p = arc(&src);
    // After stG executes (queue holds one entry), corrupt r3 — the blue
    // value the comparison will read — then r4, the blue address.
    let golden_rep = golden_run(&p, &cfg()).expect("golden halts");
    let mut at = None;
    {
        let mut m = Machine::boot(Arc::clone(&p));
        while m.status().is_running() {
            if !m.queue().is_empty() {
                at = Some(m.steps());
                break;
            }
            step(&mut m);
        }
    }
    let at = at.expect("fixture pushes a store pair");
    let ((), before, after) = with_obs(|| {
        for (reg, val) in [(Reg::r(3), 9), (Reg::r(4), 5000)] {
            let plan = FaultPlan::single(at, FaultSite::Reg(reg), val);
            let reference =
                run_plan_campaign_reference(&p, &cfg(), &golden_rep, std::slice::from_ref(&plan));
            let batched = run_plan_campaign(&p, &cfg(), &golden_rep, &[plan]);
            assert_eq!(
                batched, reference,
                "queue-window strike on {reg:?} diverged"
            );
            assert_eq!(batched.detected, 1, "stB must catch the {reg:?} corruption");
        }
    });
    assert_eq!(delta(&before, &after, "faultsim.batch.lanes"), 2);
    assert_eq!(
        delta(&before, &after, "faultsim.batch.demotions"),
        0,
        "failing blue compares resolve in-lane"
    );
}

/// A store pair spanning a block boundary: the `stG` closes one block and
/// the `stB` opens the next, with the label's `.pre` carrying the `queue:`
/// annotation hand-written `.talft` uses for exactly this shape. A value
/// strike before the `stG` and a queue-value strike *inside the second
/// block* both ride the queue shadow across the boundary to the `stB`,
/// which detects them in-lane — the shadow's absolute-sequence indexing
/// does not care where the blocks fall.
#[test]
fn queue_shadow_spans_block_boundary() {
    let src = format!(
        "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  {PRE}\n  \
         mov r1, G 5\n  mov r2, G 4096\n  mov r3, B 5\n  mov r4, B 4096\n  \
         stG r2, r1\nflush:\n  .pre {{ forall m:mem; queue: [(4096, 5)]; mem: m; }}\n  \
         stB r4, r3\n  halt\n"
    );
    let p = arc(&src);
    let flush = p.label_addr("flush").expect("label assembles");
    let pre = p.precond(flush).expect("flush block is annotated");
    assert_eq!(pre.queue.len(), 1, "the annotation declares the open entry");
    // Witness the span: walk golden to the first step where the queue is
    // nonempty *and* control has crossed into the `flush` block.
    let golden_rep = golden_run(&p, &cfg()).expect("golden halts");
    let mut in_block2 = None;
    {
        let mut m = Machine::boot(Arc::clone(&p));
        while m.status().is_running() {
            if !m.queue().is_empty() && m.reg(Reg::Pc(Color::Green)).val >= flush {
                in_block2 = Some(m.steps());
                break;
            }
            step(&mut m);
        }
    }
    let in_block2 = in_block2.expect("the store window spans the label");
    let plans = vec![
        // Green value corrupted before the stG: the shadow is created in
        // block 1 and consumed in block 2.
        FaultPlan::single(2, FaultSite::Reg(Reg::r(1)), 1234),
        // Queue value corrupted after the boundary crossing.
        FaultPlan::single(in_block2, FaultSite::QueueVal(0), -1),
    ];
    let reference = run_plan_campaign_reference(&p, &cfg(), &golden_rep, &plans);
    let (batched, before, after) = with_obs(|| run_plan_campaign(&p, &cfg(), &golden_rep, &plans));
    assert_eq!(batched, reference, "spanning shadow changed a verdict");
    assert_eq!(batched.total, 2);
    assert_eq!(batched.detected, 2, "the stB catches both corruptions");
    assert_eq!(delta(&before, &after, "faultsim.batch.lanes"), 2);
    assert_eq!(
        delta(&before, &after, "faultsim.batch.demotions"),
        0,
        "both strikes resolve in-lane at the stB"
    );
}

/// The demotion paths are *exercised*, not skipped: with instrumentation
/// on, the full k=1 grid over a protected store pair must count packed
/// lanes, per-cause demotions that sum to the demotion total, and scalar
/// routes — and a k=2 sampled set must admit multi-strike lanes. The same
/// pair in a 200-register file, or with a golden run that faults, packs
/// nothing: every plan is scalar-routed.
#[test]
fn demotion_counters_advance() {
    let src = format!(
        "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  {PRE}\n  \
         mov r1, G 5\n  mov r2, G 4096\n  stG r2, r1\n  mov r3, B 5\n  mov r4, B 4096\n  \
         stB r4, r3\n  halt\n"
    );
    let p = arc(&src);
    let golden = golden_run(&p, &cfg()).expect("golden halts");
    let plans = talft_faultsim::single_fault_plans(&p, &cfg(), &golden);
    let (rep, before, after) = with_obs(|| run_plan_campaign(&p, &cfg(), &golden, &plans));
    let d = |name: &str| delta(&before, &after, name);
    assert!(rep.total > 0);
    let lanes = d("faultsim.batch.lanes");
    let demotions = d("faultsim.batch.demotions");
    let routed = d("faultsim.batch.scalar_routed");
    assert!(lanes > 0, "no plan entered the packed representation");
    assert!(demotions > 0, "no lane demoted on an all-live fixture");
    let pc_routed = plans
        .iter()
        .filter(|plan| {
            let s = plan.strikes()[0];
            matches!(s.site, FaultSite::Reg(Reg::Pc(_)))
                && (!s.at_step.is_multiple_of(2) || s.at_step == golden.steps)
        })
        .count() as u64;
    assert_eq!(
        routed, pc_routed,
        "pc strikes at odd steps and on the halted state take the scalar route"
    );
    assert_eq!(
        lanes + routed,
        rep.total,
        "every plan is either a lane or scalar-routed"
    );
    assert!(demotions <= lanes);
    // The cause taxonomy is total: every demotion carries exactly one tag.
    let causes = [
        "faultsim.batch.demote.mem_commit",
        "faultsim.batch.demote.gpr_hi",
        "faultsim.batch.demote.control_fork",
        "faultsim.batch.demote.terminal",
    ];
    assert_eq!(
        causes.iter().map(|c| d(c)).sum::<u64>(),
        demotions,
        "per-cause demotion counters must sum to the demotion total"
    );
    assert!(
        d("faultsim.batch.demote.terminal") > 0,
        "a `d` shadow with no later jump/branch demotes at replay halt"
    );
    assert_eq!(
        d("faultsim.batch.multi_lanes"),
        0,
        "a k=1 grid admits no multi-strike lanes"
    );
    // k=2: sampled pairs over packed sites ride the lanes as timed events.
    let k2_cfg = CampaignConfig {
        pair_samples: 64,
        ..cfg()
    };
    let k2 = talft_faultsim::multi_fault_plans(&p, &k2_cfg, &golden, 2);
    let reference2 = run_plan_campaign_reference(&p, &k2_cfg, &golden, &k2);
    let (batched2, before2, after2) = with_obs(|| run_plan_campaign(&p, &k2_cfg, &golden, &k2));
    assert_eq!(batched2, reference2, "k=2 engines diverged");
    let d2 = |name: &str| delta(&before2, &after2, name);
    assert!(
        d2("faultsim.batch.multi_lanes") > 0,
        "sampled k=2 pairs over packed sites must be admitted"
    );
    assert_eq!(
        d2("faultsim.batch.lanes") + d2("faultsim.batch.scalar_routed"),
        batched2.total
    );
    for (what, src) in [
        ("200 GPRs", src.replacen(".data", ".gprs 200\n.data", 1)),
        ("faulting golden", src.replace("mov r3, B 5", "mov r3, B 6")),
    ] {
        let p = arc(&src);
        let golden = golden_run(&p, &cfg()).expect("golden ends");
        let plans = talft_faultsim::single_fault_plans(&p, &cfg(), &golden);
        let reference = run_plan_campaign_reference(&p, &cfg(), &golden, &plans);
        let (rep, before, after) = with_obs(|| run_plan_campaign(&p, &cfg(), &golden, &plans));
        assert_eq!(rep, reference, "{what}");
        let d = |name: &str| delta(&before, &after, name);
        assert_eq!(d("faultsim.batch.scalar_routed"), rep.total, "{what}");
        assert_eq!(d("faultsim.batch.lanes"), 0, "{what}");
    }
}

/// A protected store pair with dead registers around it: `r5` (green) and
/// `r7` (blue) are written and never touched again, and `r6` is written
/// twice with no read in between.
const DEAD: &str = "
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  mov r3, B 5
  mov r4, B 4096
  mov r5, G 7
  mov r7, B 3
  mov r6, B 8
  mov r6, B 9
  stG r2, r1
  stB r4, r3
  halt
";

/// First golden step at which `pred` holds.
fn first_step(program: &Arc<talft_isa::Program>, pred: impl Fn(&Machine) -> bool) -> u64 {
    let mut m = Machine::boot(Arc::clone(program));
    while !pred(&m) {
        assert!(m.status().is_running(), "fixture never reaches the state");
        step(&mut m);
    }
    m.steps()
}

/// k=1 strikes on registers golden never reads again settle at admission,
/// before they take a lane, with the outcome their lane would reach: a
/// register never touched again, one overwritten before any read, any
/// register of the halted state, and golden's own value on a dead
/// register. A strike on a live register at the same step still takes a
/// lane. Every report equals the reference's, and `admission_settled`
/// counts exactly the strikes golden's liveness calls dead.
#[test]
fn dead_register_strikes_settle_at_admission() {
    let p = arc(DEAD);
    let golden = golden_run(&p, &cfg()).expect("golden halts");
    let after_r7 = first_step(&p, |m| m.rval(Reg::r(7)) == 3);
    let between_r6 = first_step(&p, |m| m.rval(Reg::r(6)) == 8);
    let gpr = |at: u64, g: u16, v: i64| (at, FaultSite::Reg(Reg::r(g)), v);
    let cases = [
        (
            "never touched again",
            gpr(after_r7, 5, 1234),
            Verdict::Masked,
        ),
        (
            "overwritten before a read",
            gpr(between_r6, 6, -1),
            Verdict::Masked,
        ),
        ("halted state", gpr(golden.steps, 1, 99), Verdict::Masked),
        ("golden's own value", gpr(after_r7, 5, 7), Verdict::Masked),
        (
            "live at the same step",
            gpr(after_r7, 1, 1234),
            Verdict::Detected,
        ),
    ];
    let live_at = |at: u64, g: u16| golden.reg_liveness[at as usize].0 >> g & 1 == 1;
    let mut dead = 0;
    for (name, (at, site, value), expect) in cases {
        let FaultSite::Reg(Reg::Gpr(g)) = site else {
            unreachable!("every case strikes a GPR")
        };
        let plans = vec![FaultPlan::single(at, site, value)];
        let reference = run_plan_campaign_reference(&p, &cfg(), &golden, &plans);
        let (batched, before, after) = with_obs(|| run_plan_campaign(&p, &cfg(), &golden, &plans));
        assert_eq!(batched, reference, "{name}: batched report");
        assert_eq!(sole_verdict(&reference), expect, "{name}");
        let settled = u64::from(!live_at(at, g.0));
        dead += settled;
        assert_eq!(
            delta(&before, &after, "faultsim.batch.admission_settled"),
            settled,
            "{name}: settles at admission iff golden never reads r{} again",
            g.0
        );
        assert_eq!(delta(&before, &after, "faultsim.batch.lanes"), 1, "{name}");
    }
    assert_eq!(dead, 4, "four of the five strikes hit dead registers");
    // All five in one campaign: the settled plans leave the sorted order,
    // and the report is still the reference's.
    let plans: Vec<FaultPlan> = cases
        .iter()
        .map(|&(_, (at, site, value), _)| FaultPlan::single(at, site, value))
        .collect();
    let reference = run_plan_campaign_reference(&p, &cfg(), &golden, &plans);
    let (batched, before, after) = with_obs(|| run_plan_campaign(&p, &cfg(), &golden, &plans));
    assert_eq!(batched, reference);
    assert_eq!((reference.masked, reference.detected), (4, 1));
    assert_eq!(
        delta(&before, &after, "faultsim.batch.admission_settled"),
        dead
    );
    assert_eq!(delta(&before, &after, "faultsim.batch.lanes"), 5);
    assert_eq!(delta(&before, &after, "campaign.plans"), 5);
}

/// Settlement at admission is k=1 only: a k=2 plan zapping a dead green
/// and a dead blue register, both persisting to halt, leaves registers of
/// both colors diverged, which is `DissimilarState`. It takes a lane and
/// ends there, as the reference does.
#[test]
fn two_dead_strikes_of_both_colors_take_a_lane() {
    let p = arc(DEAD);
    let golden = golden_run(&p, &cfg()).expect("golden halts");
    let at = first_step(&p, |m| m.rval(Reg::r(7)) == 3);
    for g in [5, 7] {
        assert_eq!(
            golden.reg_liveness[at as usize].0 >> g & 1,
            0,
            "r{g} is dead"
        );
    }
    let plans = vec![FaultPlan::new(vec![
        Strike {
            at_step: at,
            site: FaultSite::Reg(Reg::r(5)),
            value: 1,
        },
        Strike {
            at_step: at + 1,
            site: FaultSite::Reg(Reg::r(7)),
            value: 2,
        },
    ])];
    let reference = run_plan_campaign_reference(&p, &cfg(), &golden, &plans);
    let (batched, before, after) = with_obs(|| run_plan_campaign(&p, &cfg(), &golden, &plans));
    assert_eq!(batched, reference);
    assert_eq!(sole_verdict(&reference), Verdict::DissimilarState);
    assert_eq!(
        delta(&before, &after, "faultsim.batch.admission_settled"),
        0
    );
    assert_eq!(delta(&before, &after, "faultsim.batch.lanes"), 1);
    assert_eq!(delta(&before, &after, "faultsim.batch.multi_lanes"), 1);
}

/// A two-iteration protected countdown loop, then a store pair: golden's
/// pcs move by increments, a taken `bzB` and a `jmpB` before it halts.
const PC_LOOP: &str = "
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 2
  mov r2, B 2
loop:
  .pre { forall m:mem; mem: m; }
  sub r1, r1, G 1
  sub r2, r2, B 1
  mov r3, G @done
  mov r4, B @done
  bzG r1, r3
  bzB r2, r4
  mov r3, G @loop
  mov r4, B @loop
  jmpG r3
  jmpB r4
done:
  .pre { forall m:mem; mem: m; }
  mov r5, G 4096
  mov r6, B 4096
  stG r5, r1
  stB r6, r2
  halt
";

/// k=1 strikes on `pcG` and `pcB` settle at admission exactly when the
/// next step is a fetch that must fail: an even step below `golden.steps`
/// (every even step of a running machine fetches) and a value other than
/// golden's pc there. They count `Detected` at `at_step + 1`, latency 1.
/// Strikes at odd steps, on the halted state, or writing golden's own pc
/// take the scalar route, and the own-pc ones end `Masked`. Every report
/// equals the reference's at threads 1 and 3, and `admission_settled` and
/// `scalar_routed` move by exactly the strikes counted here.
#[test]
fn pc_strikes_that_fail_the_next_fetch_settle_at_admission() {
    let p = arc(PC_LOOP);
    let golden = golden_run(&p, &cfg()).expect("golden halts");
    // Every step's pc strikes, each with whether it settles and whether it
    // writes golden's own pc.
    let mut m = Machine::boot(Arc::clone(&p));
    let mut cases = Vec::new();
    loop {
        let at = m.steps();
        let pc = m.rval(Reg::Pc(Color::Green));
        for color in [Color::Green, Color::Blue] {
            assert_eq!(m.rval(Reg::Pc(color)), pc, "golden's pcs agree");
            for value in [pc, pc + 1, -pc] {
                let plan = FaultPlan::single(at, FaultSite::Reg(Reg::Pc(color)), value);
                let settles = at.is_multiple_of(2) && at < golden.steps && value != pc;
                cases.push((plan, settles, value == pc));
            }
        }
        if !m.status().is_running() {
            break;
        }
        step(&mut m);
    }
    assert_eq!(m.steps(), golden.steps);
    let settled = cases.iter().filter(|c| c.1).count() as u64;
    let routed = cases.len() as u64 - settled;
    assert!(
        settled > 0 && routed > settled,
        "{settled} settle, {routed} route"
    );
    let at_threads = |plans: &[FaultPlan], threads| {
        let cfg = CampaignConfig { threads, ..cfg() };
        let reference = run_plan_campaign_reference(&p, &cfg, &golden, plans);
        let (batched, before, after) = with_obs(|| run_plan_campaign(&p, &cfg, &golden, plans));
        assert_eq!(batched, reference, "threads {threads}: {plans:?}");
        let d = |name: &str| delta(&before, &after, name);
        let counts = (
            d("faultsim.batch.admission_settled"),
            d("faultsim.batch.scalar_routed"),
            d("faultsim.batch.lanes"),
        );
        (reference, counts)
    };
    for (plan, settles, own) in &cases {
        for threads in [1, 3] {
            let (rep, counts) = at_threads(std::slice::from_ref(plan), threads);
            let settled = u64::from(*settles);
            assert_eq!(counts, (settled, 1 - settled, settled), "{plan:?}");
            if *settles {
                assert_eq!(sole_verdict(&rep), Verdict::Detected, "{plan:?}");
                assert_eq!(rep.detection_latency.max, 1, "{plan:?}");
            }
            if *own {
                assert_eq!(sole_verdict(&rep), Verdict::Masked, "{plan:?}");
            }
        }
    }
    let plans: Vec<FaultPlan> = cases.into_iter().map(|c| c.0).collect();
    for threads in [1, 3] {
        let (rep, counts) = at_threads(&plans, threads);
        assert_eq!(rep.total, plans.len() as u64);
        assert_eq!(counts, (settled, routed, settled), "threads {threads}");
    }
}

/// One quiet-stretch case from `tests/common`: its program and plan.
fn quiet_case(name: &str) -> (Arc<talft_isa::Program>, FaultPlan) {
    common::quiet_fixtures()
        .into_iter()
        .find_map(|f| {
            let program = f.program;
            f.plans
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, plan)| (Arc::clone(&program), plan))
        })
        .expect("quiet case exists")
}

/// Quiet-step fast path (a): a corrupted blue store operand stays live,
/// and untouched, across the whole loop. The lane rides the fast path for
/// the loop's ~3000 steps and is still caught at the `stB`, with the
/// reference's detection latency.
#[test]
fn live_untouched_register_rides_the_fast_path_to_its_compare() {
    let (p, plan) = quiet_case("live_untouched");
    let (verdict, before, after) = with_obs(|| agreed_verdict(&p, plan));
    assert_eq!(verdict, Verdict::Detected);
    assert_eq!(delta(&before, &after, "faultsim.batch.demotions"), 0);
    assert!(
        delta(&before, &after, "faultsim.batch.quiet_steps") >= 2500,
        "the loop must be skipped on the fast path"
    );
    assert!(
        delta(&before, &after, "faultsim.batch.quiet_jumps") >= 1,
        "a stretch this long crosses the checkpoint ring"
    );
}

/// Quiet-step fast path (b): the corrupted register's last read is the
/// untaken `bzG`, and the steps after it are quiet. Its death must stop
/// the fast path so the settle fires right there — a lost settle would
/// carry the lane through the loop to a terminal demotion at halt.
#[test]
fn settle_fires_at_the_death_step_before_a_quiet_stretch() {
    let (p, plan) = quiet_case("death_then_quiet");
    let (verdict, before, after) = with_obs(|| agreed_verdict(&p, plan));
    assert_eq!(verdict, Verdict::Masked);
    assert_eq!(delta(&before, &after, "faultsim.batch.demotions"), 0);
    assert!(
        delta(&before, &after, "faultsim.batch.replay_steps") <= 4,
        "the lane settles within steps of its strike, not at halt"
    );
}

/// Quiet-step fast path (c): a `d` shadow rides straight-line code that
/// holds a whole store pair, so the fast path pops a queue entry; the
/// same lane's later queue-value strike must land on the right entry and
/// be caught at its `stB`.
#[test]
fn d_shadow_survives_a_skipped_store_pop() {
    let (p, plan) = quiet_case("d_shadow_across_pop");
    let (verdict, before, after) = with_obs(|| agreed_verdict(&p, plan));
    assert_eq!(verdict, Verdict::Detected);
    assert_eq!(delta(&before, &after, "faultsim.batch.multi_lanes"), 1);
    assert_eq!(delta(&before, &after, "faultsim.batch.demotions"), 0);
    assert!(delta(&before, &after, "faultsim.batch.quiet_steps") > 0);
    assert_eq!(
        delta(&before, &after, "faultsim.batch.quiet_jumps"),
        0,
        "the lane holds its `d` shadow throughout, so every stretch is stepped"
    );
}

/// Quiet-step fast path (d): a k=2 lane walks the loop quietly after its
/// first strike; the fast path must stop at the second strike's step so it
/// fires exactly where the scalar loop injects it.
#[test]
fn second_strike_inside_a_quiet_stretch_fires_on_time() {
    let (p, plan) = quiet_case("second_strike_in_stretch");
    let (verdict, before, after) = with_obs(|| agreed_verdict(&p, plan));
    assert_eq!(verdict, Verdict::Detected);
    assert_eq!(delta(&before, &after, "faultsim.batch.multi_lanes"), 1);
    assert_eq!(delta(&before, &after, "faultsim.batch.demotions"), 0);
    assert!(
        delta(&before, &after, "faultsim.batch.quiet_steps") >= 1000,
        "the loop before the second strike must be walked on the fast path"
    );
}

/// A branch pair on `r1` (golden's condition `cond`: nonzero falls through
/// `arm` to `join`, zero jumps straight there), then a 40-iteration
/// countdown loop (20 steps an iteration) and `tail`. Striking `r1` right
/// after its `mov` flips both `bz` halves together, so control forks
/// without a failing compare (the `control_fork` demotion) and the faulty
/// run reaches `join` with golden's state, `r1` aside, but `arm`'s length
/// ahead of golden or behind it. `r1` is dead from there on: the default
/// tail overwrites it before reading it.
fn fork_program(cond: i64, arm: &str, tail: &str) -> Arc<talft_isa::Program> {
    arc(&format!(
        "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  {PRE}\n  \
         mov r1, G {cond}\n  mov r20, G 4096\n  mov r21, G 5\n  mov r3, G @join\n  \
         mov r4, B @join\n  bzG r1, r3\n  bzB r1, r4\n{arm}join:\n  {PRE}\n  \
         mov r10, G 40\n  mov r11, B 40\nloop:\n  {PRE}\n  sub r10, r10, G 1\n  \
         sub r11, r11, B 1\n  mov r12, G @done\n  mov r13, B @done\n  bzG r10, r12\n  \
         bzB r11, r13\n  mov r12, G @loop\n  mov r13, B @loop\n  jmpG r12\n  jmpB r13\n\
         done:\n  {PRE}\n{tail}"
    ))
}

/// The default tail: a protected store pair that overwrites `r1`.
const STORE_TAIL: &str = "  mov r1, G 5\n  mov r2, G 4096\n  mov r3, B 5\n  mov r4, B 4096\n  \
                          stG r2, r1\n  stB r4, r3\n  halt\n";

/// The fork strike: `r1` := `value` once its `mov` has executed.
fn fork_strike(value: i64) -> Strike {
    Strike {
        at_step: 2,
        site: FaultSite::Reg(Reg::r(1)),
        value,
    }
}

/// The step at which a faulty run from `plan` halts when nothing bounds it
/// — the witness of its offset from golden.
fn unbounded_halt(program: &Arc<talft_isa::Program>, plan: &FaultPlan) -> u64 {
    let mut m = Machine::boot(Arc::clone(program));
    let mut strikes = plan.strikes().iter().peekable();
    while m.status().is_running() {
        while let Some(s) = strikes.next_if(|s| s.at_step == m.steps()) {
            assert!(inject(&mut m, s.site, s.value));
        }
        step(&mut m);
    }
    m.steps()
}

/// Run one plan through the batched engine and the grid: the grid's
/// verdict and the batched report must equal the sequential reference's.
/// Returns the verdict and how many runs ended at a rejoin
/// (`campaign.converged_early`).
fn rejoin_case(program: &Arc<talft_isa::Program>, plan: FaultPlan) -> (Verdict, u64) {
    let golden = golden_run(program, &cfg()).expect("golden halts");
    let plans = vec![plan];
    let reference = run_plan_campaign_reference(program, &cfg(), &golden, &plans);
    let ((grid, batched), before, after) = with_obs(|| {
        (
            plan_fault_grid(program, &cfg(), &golden, &plans),
            run_plan_campaign(program, &cfg(), &golden, &plans),
        )
    });
    let verdict = sole_verdict(&reference);
    assert_eq!(grid.outcomes[0].verdict, verdict, "grid verdict");
    assert_eq!(batched, reference, "batched report");
    assert_eq!(
        delta(&before, &after, "faultsim.batch.demote.control_fork"),
        1,
        "the strike forks control in the packed lane"
    );
    (verdict, delta(&before, &after, "campaign.converged_early"))
}

/// Rejoin ahead of golden: the faulty run skips a three-instruction arm
/// that changes nothing, so it re-enters golden's state six steps early
/// and halts six steps before golden does — `Masked`, ended at the rejoin
/// by the grid and the demoted lane alike.
#[test]
fn rejoin_ahead_of_golden_is_masked() {
    let arm = "  mov r20, G 4096\n  mov r20, G 4096\n  mov r20, G 4096\n";
    let p = fork_program(1, arm, STORE_TAIL);
    let plan = FaultPlan::new(vec![fork_strike(0)]);
    let golden = golden_run(&p, &cfg()).expect("golden halts").steps;
    assert_eq!(unbounded_halt(&p, &plan), golden - 6);
    let (verdict, rejoined) = rejoin_case(&p, plan);
    assert_eq!(verdict, Verdict::Masked);
    assert_eq!(rejoined, 2, "grid and batched each end at the rejoin");
}

/// Rejoin behind golden at k=1: the faulty run executes a one-instruction
/// arm golden skips, so it replays golden two steps late and would halt at
/// `golden.steps + 2`, past the `golden.steps + 1` bound — `Overrun` at
/// the bound, decided at the rejoin.
#[test]
fn rejoin_two_steps_behind_overruns_at_k1() {
    let p = fork_program(0, "  mov r20, G 4096\n", STORE_TAIL);
    let plan = FaultPlan::new(vec![fork_strike(1)]);
    let golden = golden_run(&p, &cfg()).expect("golden halts").steps;
    assert_eq!(unbounded_halt(&p, &plan), golden + 2);
    let (verdict, rejoined) = rejoin_case(&p, plan);
    assert_eq!(verdict, Verdict::Overrun);
    assert_eq!(rejoined, 2);
}

/// Rejoin exactly at the bound: the same two-step lag under a k=2 plan
/// (its second strike hits the dead `r1` inside the loop) halts at
/// `golden.steps + 2`, which is the bound — the run halts, it does not
/// overrun.
#[test]
fn rejoin_halting_at_the_bound_is_not_overrun() {
    let p = fork_program(0, "  mov r20, G 4096\n", STORE_TAIL);
    let second = Strike {
        at_step: 40,
        site: FaultSite::Reg(Reg::r(1)),
        value: 7,
    };
    let plan = FaultPlan::new(vec![fork_strike(1), second]);
    let golden = golden_run(&p, &cfg()).expect("golden halts").steps;
    assert_eq!(unbounded_halt(&p, &plan), golden + 2);
    let (verdict, rejoined) = rejoin_case(&p, plan);
    assert_eq!(verdict, Verdict::Masked);
    assert_eq!(rejoined, 2);
}

/// Rejoin with a divergence left behind: golden's arm writes `r20` green
/// and `r21` blue, which nothing reads again, and the faulty run skips it.
/// The colour split decides: a green-only leftover is `sim_G`-similar
/// (`Masked`), a leftover of both colours is `DissimilarState`.
#[test]
fn rejoin_with_a_dead_divergence_ends_by_the_colour_split() {
    for (arm, expect) in [
        ("  mov r20, G 9\n  mov r20, G 9\n", Verdict::Masked),
        ("  mov r20, G 9\n  mov r21, B 9\n", Verdict::DissimilarState),
    ] {
        let p = fork_program(1, arm, STORE_TAIL);
        let plan = FaultPlan::new(vec![fork_strike(0)]);
        let golden = golden_run(&p, &cfg()).expect("golden halts").steps;
        assert_eq!(unbounded_halt(&p, &plan), golden - 4);
        let (verdict, rejoined) = rejoin_case(&p, plan);
        assert_eq!(verdict, expect, "arm {arm:?}");
        assert_eq!(rejoined, 2, "arm {arm:?}");
    }
}

/// No rejoin past a pending store: golden's arm pushes the `stG` half of
/// the store pair that the tail's `stB` commits. The faulty run skips it
/// and matches golden everywhere but the queue through the whole loop,
/// then faults at the `stB` — `Detected`, never a rejoin.
#[test]
fn a_skipped_store_is_never_a_rejoin() {
    let tail = "  mov r3, B 5\n  mov r4, B 4096\n  stB r4, r3\n  halt\n";
    let p = fork_program(1, "  stG r20, r21\n", tail);
    let (verdict, rejoined) = rejoin_case(&p, FaultPlan::new(vec![fork_strike(0)]));
    assert_eq!(verdict, Verdict::Detected);
    assert_eq!(rejoined, 0);
}
