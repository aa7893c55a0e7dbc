//! Detect-and-restart **recovery**, grown into a supervisor — the paper's
//! declared non-goal ("since recovery is largely orthogonal to detection,
//! we omit the former"), built here as the natural extension on top of
//! detection.
//!
//! The design is justified *by* Theorem 4: when the hardware signals
//! `fault`, the outputs already committed are a **prefix** of the correct
//! trace. Restarting the (deterministic) program from boot therefore
//! re-emits exactly that prefix before producing new outputs, so a
//! device-side deduplicator that verifies the replayed prefix and suppresses
//! it makes restart transparent: the logical output stream is precisely the
//! fault-free trace, no matter where the fault struck. Without the prefix
//! property (i.e. with SDC-prone unprotected code) this scheme would
//! silently emit corrupt data or fail to reconcile the replay — and under
//! `k ≥ 2` fault storms, **outside** the single-upset model, replay
//! mismatches are exactly the supervisor-level shadow of campaign SDC
//! (tested below).
//!
//! The [`run_supervised`] supervisor adds operational policy on top of the
//! device model: a restart budget, a per-attempt step budget that
//! *escalates* (an attempt that overran its budget restarts with a larger
//! one, so transient overruns don't strand the device), and a three-way
//! outcome — [`SupervisorOutcome::Completed`] (clean first attempt),
//! [`SupervisorOutcome::Degraded`] (completed, but only after restarts),
//! [`SupervisorOutcome::GaveUp`] (budgets exhausted). Fault storms for
//! stress tests come from the campaign samplers via [`storm_from_plan`].

use std::sync::Arc;

use talft_isa::Program;
use talft_machine::{inject, step, FaultSite, Machine, OobLoadPolicy, Status};
use talft_obs::LazyCounter;

use crate::FaultPlan;

static SUPERVISED_RUNS: LazyCounter = LazyCounter::new("recovery.supervised_runs");
static RESTARTS: LazyCounter = LazyCounter::new("recovery.restarts");
static REPLAY_MISMATCHES: LazyCounter = LazyCounter::new("recovery.replay_mismatches");

/// A fault plan for one logical execution: inject `value` at `site` when
/// the (per-attempt) step counter reaches `at_step` of attempt `attempt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Which restart attempt to strike (0 = first run).
    pub attempt: u32,
    /// Steps into that attempt.
    pub at_step: u64,
    /// Where.
    pub site: FaultSite,
    /// Corrupted value.
    pub value: i64,
}

/// Turn a campaign [`FaultPlan`] into a fault storm striking the given
/// restart attempt — the bridge from the `k`-fault samplers to
/// supervisor-level stress tests.
#[must_use]
pub fn storm_from_plan(plan: &FaultPlan, attempt: u32) -> Vec<PlannedFault> {
    plan.strikes()
        .iter()
        .map(|s| PlannedFault {
            attempt,
            at_step: s.at_step,
            site: s.site,
            value: s.value,
        })
        .collect()
}

/// Supervisor policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Restarts allowed after the first attempt.
    pub max_restarts: u32,
    /// Step budget for the first attempt.
    pub base_step_budget: u64,
    /// Budget escalation per restart, in percent of the base: attempt `i`
    /// gets `base × (100 + i × escalation_percent) / 100` steps. 0 keeps a
    /// flat budget.
    pub escalation_percent: u64,
    /// Out-of-bounds-load policy for all attempts.
    pub oob: OobLoadPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            base_step_budget: 1_000_000,
            escalation_percent: 50,
            oob: OobLoadPolicy::Value(0x7EC0_4EE7),
        }
    }
}

impl SupervisorConfig {
    /// The step budget for (0-based) attempt `i`.
    #[must_use]
    pub fn budget_for_attempt(&self, i: u32) -> u64 {
        let bonus = self
            .base_step_budget
            .saturating_mul(self.escalation_percent)
            .saturating_mul(u64::from(i))
            / 100;
        self.base_step_budget.saturating_add(bonus)
    }
}

/// How a supervised execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorOutcome {
    /// The first attempt halted — no restart was needed.
    Completed,
    /// The run halted, but only after one or more restarts (service was
    /// delivered, with degraded latency).
    Degraded,
    /// The restart budget ran out without a halting attempt.
    GaveUp,
}

/// One attempt's record in the supervisor log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Step budget this attempt was given.
    pub budget: u64,
    /// Steps it actually took.
    pub steps: u64,
    /// How it ended (`Running` = budget exhausted).
    pub status: Status,
    /// Planned faults injected during this attempt.
    pub strikes: u32,
}

/// Full supervisor report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Three-way outcome.
    pub outcome: SupervisorOutcome,
    /// The deduplicated (logical) output stream the device accepted.
    pub logical_trace: Vec<(i64, i64)>,
    /// Restarts taken.
    pub restarts: u32,
    /// Total machine steps across attempts.
    pub total_steps: u64,
    /// Replayed outputs that did not match the committed log. Zero for
    /// well-typed programs under single faults (the prefix property);
    /// under `k ≥ 2` storms a nonzero count is the supervisor-level
    /// manifestation of campaign SDC.
    pub replay_mismatches: u64,
    /// Per-attempt log, in order.
    pub attempts: Vec<AttemptRecord>,
}

/// Run under the supervisor, injecting the planned faults.
///
/// The device model: it keeps the committed output log; after a restart it
/// expects the program to re-emit the committed prefix verbatim (verified
/// pair by pair) and only then appends new outputs.
#[must_use]
pub fn run_supervised(
    program: &Arc<Program>,
    faults: &[PlannedFault],
    cfg: &SupervisorConfig,
) -> SupervisorReport {
    let report = run_supervised_inner(program, faults, cfg);
    if talft_obs::enabled() {
        SUPERVISED_RUNS.inc();
        RESTARTS.add(u64::from(report.restarts));
        REPLAY_MISMATCHES.add(report.replay_mismatches);
    }
    report
}

fn run_supervised_inner(
    program: &Arc<Program>,
    faults: &[PlannedFault],
    cfg: &SupervisorConfig,
) -> SupervisorReport {
    let mut committed: Vec<(i64, i64)> = Vec::new();
    let mut restarts = 0u32;
    let mut total_steps = 0u64;
    let mut replay_mismatches = 0u64;
    let mut attempts = Vec::new();

    loop {
        let budget = cfg.budget_for_attempt(restarts);
        let mut m = Machine::boot(Arc::clone(program)).with_oob_policy(cfg.oob);
        let mut emitted = 0usize; // outputs produced by this attempt
        let mut strikes = 0u32;
        while m.status().is_running() && m.steps() < budget {
            for f in faults {
                if f.attempt == restarts
                    && f.at_step == m.steps()
                    && inject(&mut m, f.site, f.value)
                {
                    strikes += 1;
                }
            }
            let ev = step(&mut m);
            if let Some(out) = ev.output {
                if emitted < committed.len() {
                    // replay of the committed prefix: verify, don't re-commit
                    if committed[emitted] != out {
                        replay_mismatches += 1;
                    }
                } else {
                    committed.push(out);
                }
                emitted += 1;
            }
        }
        total_steps += m.steps();
        attempts.push(AttemptRecord {
            budget,
            steps: m.steps(),
            status: m.status(),
            strikes,
        });
        let halted = m.status() == Status::Halted;
        if halted || restarts >= cfg.max_restarts {
            return SupervisorReport {
                outcome: match (halted, restarts) {
                    (true, 0) => SupervisorOutcome::Completed,
                    (true, _) => SupervisorOutcome::Degraded,
                    (false, _) => SupervisorOutcome::GaveUp,
                },
                logical_trace: committed,
                restarts,
                total_steps,
                replay_mismatches,
                attempts,
            };
        }
        restarts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{golden_run, multi_fault_plans, run_plan_campaign, CampaignConfig, Verdict};
    use talft_isa::{assemble, Color, Reg};

    fn protected() -> Arc<Program> {
        let src = r#"
.data
region out at 4096 len 8 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, B 5
loop:
  .pre { forall x:int, m:mem; r1: (G, int, x); r2: (B, int, x); mem: m; }
  and r5, r1, G 7
  add r5, r5, G 4096
  and r6, r2, B 7
  add r6, r6, B 4096
  stG r5, r1
  stB r6, r2
  sub r1, r1, G 1
  sub r2, r2, B 1
  mov r3, G @done
  mov r4, B @done
  bzG r1, r3
  bzB r2, r4
  mov r7, G @loop
  mov r8, B @loop
  jmpG r7
  jmpB r8
done:
  .pre { forall m:mem; mem: m; }
  halt
"#;
        Arc::new(assemble(src).expect("assembles").program)
    }

    fn golden(p: &Arc<Program>) -> Vec<(i64, i64)> {
        talft_machine::run_program(p, 100_000).trace
    }

    /// `max_restarts` restarts at a flat 100,000-step budget.
    fn flat(max_restarts: u32) -> SupervisorConfig {
        SupervisorConfig {
            max_restarts,
            base_step_budget: 100_000,
            escalation_percent: 0,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn no_faults_no_restarts() {
        let p = protected();
        let r = run_supervised(&p, &[], &flat(3));
        assert_ne!(r.outcome, SupervisorOutcome::GaveUp);
        assert_eq!(r.restarts, 0);
        assert_eq!(r.replay_mismatches, 0);
        assert_eq!(r.logical_trace, golden(&p));
    }

    #[test]
    fn detected_fault_recovers_transparently() {
        let p = protected();
        let expected = golden(&p);
        // strike a live green register mid-loop on the first attempt
        let fault = PlannedFault {
            attempt: 0,
            at_step: 40,
            site: FaultSite::Reg(Reg::r(1)),
            value: 9999,
        };
        let r = run_supervised(&p, &[fault], &flat(3));
        assert_ne!(r.outcome, SupervisorOutcome::GaveUp);
        assert!(r.restarts <= 1);
        assert_eq!(r.replay_mismatches, 0, "prefix property violated");
        assert_eq!(r.logical_trace, expected);
    }

    #[test]
    fn every_injection_point_recovers_to_the_golden_trace() {
        let p = protected();
        let expected = golden(&p);
        let steps = talft_machine::run_program(&p, 100_000).steps;
        for at in (0..steps).step_by(3) {
            for site in [
                FaultSite::Reg(Reg::r(1)),
                FaultSite::Reg(Reg::r(6)),
                FaultSite::Reg(Reg::Dst),
            ] {
                let fault = PlannedFault {
                    attempt: 0,
                    at_step: at,
                    site,
                    value: -7,
                };
                let r = run_supervised(&p, &[fault], &flat(3));
                assert_ne!(r.outcome, SupervisorOutcome::GaveUp, "at={at} site={site}");
                assert_eq!(
                    r.replay_mismatches, 0,
                    "at={at} site={site}: prefix violated"
                );
                assert_eq!(r.logical_trace, expected, "at={at} site={site}");
            }
        }
    }

    #[test]
    fn restart_budget_exhaustion_reported() {
        let p = protected();
        // a fault on every attempt, early enough to always trip detection…
        let faults: Vec<PlannedFault> = (0..4)
            .map(|a| PlannedFault {
                attempt: a,
                at_step: 46,
                site: FaultSite::Reg(Reg::r(1)),
                value: 4242,
            })
            .collect();
        let r = run_supervised(&p, &faults, &flat(2));
        // (r1 at step 46 may be masked or detected depending on phase; only
        // assert the accounting is coherent)
        assert!(r.restarts <= 2);
        if r.outcome == SupervisorOutcome::GaveUp {
            assert_eq!(r.restarts, 2);
        }
        assert_eq!(r.replay_mismatches, 0);
    }

    /// A pc-zap on every attempt detects immediately every time: the
    /// supervisor burns its whole restart budget and reports `GaveUp`, with
    /// an untouched (empty-prefix) logical trace and a full attempt log.
    #[test]
    fn persistent_storm_gives_up() {
        let p = protected();
        let cfg = SupervisorConfig {
            max_restarts: 2,
            base_step_budget: 100_000,
            ..SupervisorConfig::default()
        };
        let faults: Vec<PlannedFault> = (0..=cfg.max_restarts)
            .map(|a| PlannedFault {
                attempt: a,
                at_step: 2,
                site: FaultSite::Reg(Reg::Pc(Color::Green)),
                value: 999_999,
            })
            .collect();
        let rep = run_supervised(&p, &faults, &cfg);
        assert_eq!(rep.outcome, SupervisorOutcome::GaveUp);
        assert_eq!(rep.restarts, 2);
        assert_eq!(rep.attempts.len(), 3);
        assert!(rep
            .attempts
            .iter()
            .all(|a| a.status == Status::Fault && a.strikes == 1));
        assert_eq!(rep.replay_mismatches, 0);
    }

    /// Budget escalation rescues an attempt that overran a too-small
    /// budget: attempt 0 is cut off `Running`, the escalated attempt 1
    /// completes, and the outcome is `Degraded` with the golden trace.
    #[test]
    fn budget_escalation_rescues_overrun() {
        let p = protected();
        let need = talft_machine::run_program(&p, 100_000).steps;
        let cfg = SupervisorConfig {
            max_restarts: 3,
            base_step_budget: need / 2,
            escalation_percent: 100, // attempt i gets base × (1 + i)
            ..SupervisorConfig::default()
        };
        let rep = run_supervised(&p, &[], &cfg);
        assert_eq!(rep.outcome, SupervisorOutcome::Degraded);
        assert_eq!(rep.restarts, 1);
        assert_eq!(rep.attempts[0].status, Status::Running, "budget cut-off");
        assert_eq!(rep.attempts[0].budget, need / 2);
        assert_eq!(rep.attempts[1].budget, need / 2 * 2);
        assert_eq!(rep.attempts[1].status, Status::Halted);
        assert_eq!(rep.logical_trace, golden(&p));
        assert_eq!(rep.replay_mismatches, 0);
    }

    /// A restart budget of zero means the first failing attempt is final:
    /// one attempt in the log, `GaveUp`, no retry.
    #[test]
    fn restart_budget_zero_gives_up_immediately() {
        let p = protected();
        let cfg = SupervisorConfig {
            max_restarts: 0,
            base_step_budget: 100_000,
            ..SupervisorConfig::default()
        };
        let fault = PlannedFault {
            attempt: 0,
            at_step: 2,
            site: FaultSite::Reg(Reg::Pc(Color::Green)),
            value: 999_999,
        };
        let rep = run_supervised(&p, &[fault], &cfg);
        assert_eq!(rep.outcome, SupervisorOutcome::GaveUp);
        assert_eq!(rep.restarts, 0);
        assert_eq!(rep.attempts.len(), 1, "no second attempt may be made");
        assert_eq!(rep.attempts[0].status, Status::Fault);
        // …but a clean program under the same zero budget still completes.
        let clean = run_supervised(&p, &[], &cfg);
        assert_eq!(clean.outcome, SupervisorOutcome::Completed);
        assert_eq!(clean.logical_trace, golden(&p));
    }

    /// Escalation arithmetic must saturate, not wrap: enormous budgets and
    /// percentages pin at `u64::MAX` and stay monotone in the attempt index.
    #[test]
    fn step_budget_escalation_saturates() {
        let cfg = SupervisorConfig {
            base_step_budget: u64::MAX,
            escalation_percent: u64::MAX,
            ..SupervisorConfig::default()
        };
        assert_eq!(cfg.budget_for_attempt(0), u64::MAX);
        assert_eq!(cfg.budget_for_attempt(1), u64::MAX);
        assert_eq!(cfg.budget_for_attempt(u32::MAX), u64::MAX);
        // near the edge: base × percent overflows; the saturating multiply
        // caps the bonus, so the budget never *wraps* below the base and
        // stays monotone (it plateaus rather than pinning at MAX because of
        // the final /100)
        let near = SupervisorConfig {
            base_step_budget: u64::MAX / 2,
            escalation_percent: 300,
            ..SupervisorConfig::default()
        };
        let budgets: Vec<u64> = (0..5).map(|i| near.budget_for_attempt(i)).collect();
        assert!(budgets.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert!(
            budgets.iter().all(|&b| b >= near.base_step_budget),
            "never wraps below the base"
        );
        assert_eq!(
            budgets[3], budgets[4],
            "plateau once the multiply saturates"
        );
        // sanity on the documented formula where nothing saturates
        let plain = SupervisorConfig {
            base_step_budget: 1_000,
            escalation_percent: 50,
            ..SupervisorConfig::default()
        };
        assert_eq!(plain.budget_for_attempt(0), 1_000);
        assert_eq!(plain.budget_for_attempt(1), 1_500);
        assert_eq!(plain.budget_for_attempt(4), 3_000);
    }

    /// An empty campaign plan yields an empty storm, and an empty storm is
    /// a clean supervised run: first attempt completes, zero strikes.
    #[test]
    fn storm_on_empty_plan_is_a_clean_run() {
        let empty = FaultPlan::new(vec![]);
        assert_eq!(empty.order(), 0);
        let storm = storm_from_plan(&empty, 7);
        assert!(storm.is_empty());
        let p = protected();
        let rep = run_supervised(&p, &storm, &SupervisorConfig::default());
        assert_eq!(rep.outcome, SupervisorOutcome::Completed);
        assert_eq!(rep.restarts, 0);
        assert!(rep.attempts.iter().all(|a| a.strikes == 0));
        assert_eq!(rep.logical_trace, golden(&p));
        assert_eq!(rep.replay_mismatches, 0);
    }

    /// Under k=2 storms (outside the single-upset model) the supervisor's
    /// replay mismatches must *track* campaign SDC: a mismatch can only
    /// happen when the campaign classifies that same plan as SDC, and plans
    /// the campaign proves Masked/Detected always recover to the golden
    /// trace with zero mismatches.
    #[test]
    fn k2_storm_replay_mismatches_track_campaign_sdc() {
        let p = protected();
        let cam = CampaignConfig {
            threads: 1,
            pair_samples: 64,
            max_steps: 100_000,
            ..CampaignConfig::default()
        };
        let golden_ref = golden_run(&p, &cam).expect("halts");
        let plans = multi_fault_plans(&p, &cam, &golden_ref, 2);
        assert!(!plans.is_empty());
        let sup_cfg = SupervisorConfig {
            max_restarts: 3,
            base_step_budget: 100_000,
            oob: cam.oob, // identical machine semantics for both harnesses
            ..SupervisorConfig::default()
        };
        let mut benign = 0u32;
        for plan in &plans {
            let rep = run_plan_campaign(&p, &cam, &golden_ref, std::slice::from_ref(plan));
            let verdict = rep.violations.first().map_or(
                if rep.masked == 1 {
                    Verdict::Masked
                } else {
                    Verdict::Detected
                },
                |v| v.verdict,
            );
            let storm = storm_from_plan(plan, 0);
            let sup = run_supervised(&p, &storm, &sup_cfg);
            if sup.replay_mismatches > 0 {
                assert_eq!(
                    verdict,
                    Verdict::Sdc,
                    "replay mismatch without campaign SDC for {plan:?}"
                );
            }
            if !verdict.is_violation() {
                benign += 1;
                assert_eq!(sup.replay_mismatches, 0, "{plan:?}");
                assert_ne!(sup.outcome, SupervisorOutcome::GaveUp, "{plan:?}");
                assert_eq!(sup.logical_trace, golden_ref.trace, "{plan:?}");
            }
        }
        assert!(benign > 0, "sample must contain masked/detected plans");
    }
}
