//! The per-plan **injection grid** of a campaign.
//!
//! [`run_plan_campaign`](crate::run_plan_campaign) aggregates plan outcomes
//! into counters; the static analyzers (`talft-analysis`) need the opposite
//! view — *every* plan's individual verdict, plus the golden `pcG` trace
//! that maps a dynamic step back to the static code address about to
//! execute. A state's `pcG` value is the address of the instruction being
//! fetched or executed at that step (the fetch/exec split leaves `pcG` on
//! the in-flight instruction), so `(at_step, site)` ↦
//! `(pc_by_step[at_step], site)` is exactly the dynamic-to-static cell
//! mapping the differential oracles cross-validate, for single strikes and
//! for pairs alike.

use std::sync::Arc;

use talft_isa::{Color, Program, Reg};
use talft_machine::{step, Machine};

use crate::plan::FaultPlan;
use crate::{walk_plans, CampaignConfig, Golden, Verdict};

/// One executed plan: the plan, the verdict, and how many strikes were
/// actually injected (a run detected before a later strike's step never
/// receives it — `applied < plan.order()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOutcome {
    /// The executed plan.
    pub plan: FaultPlan,
    /// The campaign verdict for this plan.
    pub verdict: Verdict,
    /// Strikes actually injected before the run ended.
    pub applied: usize,
}

/// Golden-run observables mapping dynamic steps to static code addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenTrace {
    /// `pc_by_step[s]` = the golden `pcG` value after `s` steps
    /// (`pc_by_step[0]` is the boot state; length `golden_steps + 1`).
    pub pc_by_step: Vec<i64>,
    /// `queue_len_by_step[s]` = golden store-queue occupancy after `s`
    /// steps (same indexing), for mapping queue-slot sites.
    pub queue_len_by_step: Vec<usize>,
    /// Steps in the golden run.
    pub golden_steps: u64,
}

/// Replay the golden prefix once, recording pcG and queue occupancy.
#[must_use]
pub fn golden_trace(program: &Arc<Program>, cfg: &CampaignConfig, golden: &Golden) -> GoldenTrace {
    let mut m = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    let mut pc_by_step = vec![m.rval(Reg::Pc(Color::Green))];
    let mut queue_len_by_step = vec![m.queue().len()];
    while m.status().is_running() && m.steps() < golden.steps {
        step(&mut m);
        pc_by_step.push(m.rval(Reg::Pc(Color::Green)));
        queue_len_by_step.push(m.queue().len());
    }
    GoldenTrace {
        pc_by_step,
        queue_len_by_step,
        golden_steps: golden.steps,
    }
}

/// Every plan outcome of a campaign, plus the golden-run observables that
/// map dynamic strikes to static cells — consumed by the zap and pair-fault
/// differential oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanGrid {
    /// The golden observables for the dynamic-to-static cell mapping.
    pub trace: GoldenTrace,
    /// Per-plan outcomes, in the caller's plan order.
    pub outcomes: Vec<PlanOutcome>,
}

impl PlanGrid {
    /// Outcomes scored [`Verdict::Sdc`].
    pub fn sdc(&self) -> impl Iterator<Item = &PlanOutcome> {
        self.outcomes.iter().filter(|o| o.verdict == Verdict::Sdc)
    }

    /// Tally of a verdict.
    #[must_use]
    pub fn count(&self, v: Verdict) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == v).count()
    }
}

/// Run a plan set as a grid against a golden run.
///
/// Sequential and deterministic: the same walk as
/// [`run_plan_campaign_reference`](crate::run_plan_campaign_reference)
/// (first-strike order, one monotone frontier), with the golden checkpoint
/// ring passed for the convergence exit. Outcomes are returned in the
/// *caller's* plan order, and verdicts agree plan by plan with
/// [`run_plan_campaign`](crate::run_plan_campaign).
#[must_use]
pub fn plan_fault_grid(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
) -> PlanGrid {
    let trace = golden_trace(program, cfg, golden);
    let mut outcomes: Vec<Option<PlanOutcome>> = vec![None; plans.len()];
    walk_plans(
        program,
        cfg,
        golden,
        plans,
        Some(&golden.checkpoints),
        |i, (verdict, _steps, applied)| {
            outcomes[i] = Some(PlanOutcome {
                plan: plans[i].clone(),
                verdict,
                applied,
            });
        },
    );
    PlanGrid {
        trace,
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("the walk visits every plan"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{golden_run, run_plan_campaign, single_fault_plans};
    use talft_isa::assemble;

    const STORE: &str = r#"
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

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            stride: 1,
            mutations_per_site: 2,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn grid_matches_campaign_tallies() {
        let asm = assemble(STORE).expect("assembles");
        let program = Arc::new(asm.program);
        let cfg = cfg();
        let golden = golden_run(&program, &cfg).expect("golden halts");
        let plans = single_fault_plans(&program, &cfg, &golden);
        let grid = plan_fault_grid(&program, &cfg, &golden, &plans);
        let rep = run_plan_campaign(&program, &cfg, &golden, &plans);
        assert_eq!(grid.outcomes.len() as u64, rep.total);
        assert_eq!(grid.count(Verdict::Masked) as u64, rep.masked);
        assert_eq!(grid.count(Verdict::Detected) as u64, rep.detected);
        assert_eq!(grid.count(Verdict::Sdc) as u64, rep.sdc);
        // Outcomes stay in the caller's order with their plans attached.
        for (plan, o) in plans.iter().zip(&grid.outcomes) {
            assert_eq!(plan, &o.plan);
        }
    }

    #[test]
    fn pc_trace_covers_every_step_and_starts_at_entry() {
        let asm = assemble(STORE).expect("assembles");
        let program = Arc::new(asm.program);
        let cfg = cfg();
        let golden = golden_run(&program, &cfg).expect("golden halts");
        let trace = golden_trace(&program, &cfg, &golden);
        assert_eq!(trace.pc_by_step.len() as u64, trace.golden_steps + 1);
        assert_eq!(trace.pc_by_step[0], program.entry);
        // Every instruction occupies two steps (fetch + exec), so each code
        // address appears at least twice in the trace.
        assert!(trace.pc_by_step.iter().filter(|&&a| a == 3).count() >= 2);
        // The queue holds one entry between stG's exec and stB's exec.
        assert!(trace.queue_len_by_step.contains(&1));
    }
}
