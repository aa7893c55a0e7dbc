//! The per-plan **injection grid** of an exhaustive k=1 campaign.
//!
//! [`run_campaign`](crate::run_campaign) aggregates plan outcomes into
//! counters; the static zap-vulnerability analysis (`talft-analysis`) needs
//! the opposite view — *every* plan's individual verdict, keyed by the
//! dynamic injection point, plus the golden `pcG` trace that maps a dynamic
//! step back to the static code address about to execute. A state's `pcG`
//! value is the address of the instruction being fetched or executed at
//! that step (the fetch/exec split leaves `pcG` on the in-flight
//! instruction), so `(at_step, site)` ↦ `(pc_by_step[at_step], site)` is
//! exactly the dynamic-to-static cell mapping the differential oracle
//! cross-validates.

use std::sync::Arc;

use talft_isa::{Color, Program, Reg};
use talft_machine::{step, FaultSite, Machine};

use crate::plan::{single_fault_plans, FaultPlan, Strike};
use crate::{execute_plan, golden_run, CampaignConfig, Golden, GoldenError, Verdict};

/// One executed single-fault plan: injection point, corrupt value, verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridOutcome {
    /// Golden step count at which the strike lands.
    pub at_step: u64,
    /// The corrupted site.
    pub site: FaultSite,
    /// The corrupt value written.
    pub value: i64,
    /// The campaign verdict for this plan.
    pub verdict: Verdict,
}

/// Every plan outcome of an exhaustive k=1 campaign, plus the golden-run
/// observables that map dynamic steps to static code addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultGrid {
    /// `pc_by_step[s]` = the golden `pcG` value after `s` steps
    /// (`pc_by_step[0]` is the boot state; length `golden_steps + 1`).
    pub pc_by_step: Vec<i64>,
    /// `queue_len_by_step[s]` = golden store-queue occupancy after `s`
    /// steps (same indexing), for mapping queue-slot sites.
    pub queue_len_by_step: Vec<usize>,
    /// Steps in the golden run.
    pub golden_steps: u64,
    /// Per-plan outcomes, in plan (step-sorted) order.
    pub outcomes: Vec<GridOutcome>,
}

impl FaultGrid {
    /// Outcomes scored [`Verdict::Sdc`].
    pub fn sdc(&self) -> impl Iterator<Item = &GridOutcome> {
        self.outcomes.iter().filter(|o| o.verdict == Verdict::Sdc)
    }

    /// Tally of a verdict.
    #[must_use]
    pub fn count(&self, v: Verdict) -> usize {
        self.outcomes.iter().filter(|o| o.verdict == v).count()
    }
}

/// One executed multi-strike plan: the strikes as scheduled, the verdict,
/// and how many strikes were actually injected (a run detected before a
/// later strike's step never receives it — `applied < strikes.len()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOutcome {
    /// The plan's strikes, step-sorted.
    pub strikes: Vec<Strike>,
    /// The campaign verdict for this plan.
    pub verdict: Verdict,
    /// Strikes actually injected before the run ended.
    pub applied: usize,
}

/// Golden-run observables mapping dynamic steps to static code addresses
/// — shared by the grids and by static-guided plan prioritization (which
/// needs the mapping *before* any plan runs).
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

/// Every plan outcome of a k≥2 campaign, plus the golden-run observables
/// that map dynamic strikes to static cells — the multi-strike analogue of
/// [`FaultGrid`], consumed by the pair-fault differential oracle.
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

/// Run an arbitrary plan set as a grid (golden run included).
///
/// # Errors
///
/// Propagates [`GoldenError`] from the reference run.
pub fn plan_fault_grid(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    plans: &[FaultPlan],
) -> Result<PlanGrid, GoldenError> {
    let golden = golden_run(program, cfg)?;
    Ok(plan_fault_grid_against(program, cfg, &golden, plans))
}

/// Run an arbitrary plan set as a grid against a precomputed golden run.
///
/// Sequential and deterministic, like [`single_fault_grid_against`]: the
/// plans are executed in first-strike order against one monotone frontier,
/// but outcomes are returned in the *caller's* plan order. Verdicts agree
/// plan by plan with [`run_plan_campaign`](crate::run_plan_campaign).
#[must_use]
pub fn plan_fault_grid_against(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
) -> PlanGrid {
    let trace = golden_trace(program, cfg, golden);
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| plans[i].first_step());
    let mut outcomes: Vec<Option<PlanOutcome>> = vec![None; plans.len()];
    let mut frontier = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    for i in order {
        let plan = &plans[i];
        let target = plan.first_step();
        while frontier.steps() < target && frontier.status().is_running() {
            step(&mut frontier);
        }
        let mut run = frontier.clone();
        let (verdict, _steps, applied) =
            execute_plan(&mut run, plan, golden, Some(&golden.checkpoints));
        outcomes[i] = Some(PlanOutcome {
            strikes: plan.strikes().to_vec(),
            verdict,
            applied,
        });
    }
    PlanGrid {
        trace,
        outcomes: outcomes.into_iter().map(Option::unwrap).collect(),
    }
}

/// Run the exhaustive k=1 grid (golden run included).
///
/// # Errors
///
/// Propagates [`GoldenError`] from the reference run.
pub fn single_fault_grid(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
) -> Result<FaultGrid, GoldenError> {
    let golden = golden_run(program, cfg)?;
    Ok(single_fault_grid_against(program, cfg, &golden))
}

/// Run the exhaustive k=1 grid against a precomputed golden run.
///
/// Sequential by construction: the grid is consumed by differential tests
/// that want deterministic, step-ordered outcomes, not throughput. Verdicts
/// agree with [`run_plan_campaign`](crate::run_plan_campaign) plan by plan
/// (both call the same continuation executor).
#[must_use]
pub fn single_fault_grid_against(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
) -> FaultGrid {
    let trace = golden_trace(program, cfg, golden);
    let plans = single_fault_plans(program, cfg, golden);
    let mut outcomes = Vec::with_capacity(plans.len());
    // Plans arrive step-sorted; keep one frontier advancing monotonically.
    let mut frontier = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
    for plan in &plans {
        let target = plan.first_step();
        while frontier.steps() < target && frontier.status().is_running() {
            step(&mut frontier);
        }
        let mut run = frontier.clone();
        let (verdict, _steps, _applied) =
            execute_plan(&mut run, plan, golden, Some(&golden.checkpoints));
        let lead = plan.strikes().first().expect("k=1 plans have one strike");
        outcomes.push(GridOutcome {
            at_step: lead.at_step,
            site: lead.site,
            value: lead.value,
            verdict,
        });
    }
    FaultGrid {
        pc_by_step: trace.pc_by_step,
        queue_len_by_step: trace.queue_len_by_step,
        golden_steps: trace.golden_steps,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_plan_campaign;
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
        let grid = single_fault_grid_against(&program, &cfg, &golden);
        let plans = single_fault_plans(&program, &cfg, &golden);
        let rep = run_plan_campaign(&program, &cfg, &golden, &plans);
        assert_eq!(grid.outcomes.len() as u64, rep.total);
        assert_eq!(grid.count(Verdict::Masked) as u64, rep.masked);
        assert_eq!(grid.count(Verdict::Detected) as u64, rep.detected);
        assert_eq!(grid.count(Verdict::Sdc) as u64, rep.sdc);
    }

    #[test]
    fn pc_trace_covers_every_step_and_starts_at_entry() {
        let asm = assemble(STORE).expect("assembles");
        let program = Arc::new(asm.program);
        let cfg = cfg();
        let grid = single_fault_grid(&program, &cfg).expect("golden halts");
        assert_eq!(grid.pc_by_step.len() as u64, grid.golden_steps + 1);
        assert_eq!(grid.pc_by_step[0], program.entry);
        // Every instruction occupies two steps (fetch + exec), so each code
        // address appears at least twice in the trace.
        assert!(grid.pc_by_step.iter().filter(|&&a| a == 3).count() >= 2);
        // The queue holds one entry between stG's exec and stB's exec.
        assert!(grid.queue_len_by_step.contains(&1));
    }
}
