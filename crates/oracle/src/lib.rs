//! Adversarial oracle for the TAL_FT checker (experiment E14).
//!
//! Every existing test exercises the *acceptance* side of the type system:
//! compiler output always checks, protected campaigns report zero SDC. This
//! crate probes the **rejection** side — the direction Theorems 1–4 actually
//! hinge on: start from a well-typed program, apply a catalog of semantic
//! [`MutationOp`]s each modeling a realistic protection bug, and run every
//! mutant through both `talft_core::check_program` *and* a `k = 1` fault
//! campaign. The campaign is ground truth; the checker is the device under
//! test. Three outcomes:
//!
//! * **killed by the checker** — the mutant is rejected; the type system
//!   caught the broken protection. The mutation *score* is the fraction of
//!   mutants killed statically (checker or lint).
//! * **killed by the lint engine** — the checker accepted, but a `TF0xx`
//!   error-severity lint (`talft_analysis::lint_program`) flagged the
//!   mutant. Still a static kill, tallied separately so E14 can report how
//!   much of the catalog the lightweight lints cover on their own.
//! * **killed by the campaign only** — the checker accepted a mutant that a
//!   single-upset campaign then drives to silent data corruption (or that
//!   cannot even complete its fault-free run). This is a checker soundness
//!   gap and a **hard failure**: the `mutation` bench bin and the CI smoke
//!   job exit nonzero on any occurrence.
//! * **equivalent** — accepted and still fault tolerant. Harmless by
//!   construction (the campaign over the mutant's own golden run is clean);
//!   EXPERIMENTS.md documents each equivalence class.

#![warn(missing_docs)]

pub mod ops;

use std::collections::BTreeMap;
use std::sync::Arc;

use talft_core::check_program;
use talft_faultsim::{golden_run, run_plan_campaign, single_fault_plans, CampaignConfig};
use talft_isa::Program;
use talft_logic::ExprArena;
use talft_machine::Status;

pub use ops::{all_mutants, Mutant, MutationOp};

/// Oracle verdict for one mutant (see crate docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutantVerdict {
    /// `check_program` rejected the mutant — the intended outcome.
    KilledByChecker {
        /// The type error, verbatim.
        reason: String,
    },
    /// The checker accepted, but an error-severity `TF0xx` lint fired —
    /// a static kill by the second line of defense.
    KilledByLint {
        /// The first error diagnostic, verbatim.
        reason: String,
    },
    /// The checker accepted, but the campaign (or the fault-free run
    /// itself) demonstrates the protection is broken — a soundness gap.
    KilledByCampaignOnly {
        /// What the campaign found.
        reason: String,
    },
    /// Accepted and campaign-clean: a harmless equivalent mutant.
    Equivalent {
        /// Evidence of harmlessness (injection count of the clean sweep).
        note: String,
    },
}

impl MutantVerdict {
    /// Did the checker kill this mutant?
    #[must_use]
    pub fn killed_by_checker(&self) -> bool {
        matches!(self, MutantVerdict::KilledByChecker { .. })
    }

    /// Did the lint engine kill this mutant?
    #[must_use]
    pub fn killed_by_lint(&self) -> bool {
        matches!(self, MutantVerdict::KilledByLint { .. })
    }

    /// Is this the hard-failure class?
    #[must_use]
    pub fn killed_by_campaign_only(&self) -> bool {
        matches!(self, MutantVerdict::KilledByCampaignOnly { .. })
    }
}

/// One classified mutant.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    /// The operator that produced the mutant.
    pub op: MutationOp,
    /// Mutated code address (in the original program).
    pub addr: i64,
    /// Human-readable description of the edit.
    pub detail: String,
    /// The oracle's verdict.
    pub verdict: MutantVerdict,
}

/// Oracle configuration.
#[derive(Debug, Clone, Default)]
pub struct OracleConfig {
    /// Campaign settings used as ground truth for checker-accepted mutants
    /// (`stride` is scaled by `TALFT_STRIDE_SCALE` as everywhere else).
    pub campaign: CampaignConfig,
    /// Per-operator cap on mutants per program (`0` = unlimited). Capped
    /// selections are deterministic and evenly spread over the sites, so a
    /// capped run still samples every region of the program.
    pub max_mutants_per_op: usize,
}

/// Classify a single mutant program: checker first, then the `TF0xx`
/// lints, then the campaign as ground truth for whatever survives both
/// static passes.
#[must_use]
pub fn classify(mutant: &Program, arena: &mut ExprArena, cfg: &CampaignConfig) -> MutantVerdict {
    match check_program(mutant, arena) {
        Err(e) => MutantVerdict::KilledByChecker {
            reason: e.to_string(),
        },
        Ok(_) => {
            if let Some(d) = talft_analysis::lint_program(mutant)
                .into_iter()
                .find(|d| d.severity == talft_core::Severity::Error)
            {
                return MutantVerdict::KilledByLint {
                    reason: d.to_string(),
                };
            }
            let prog = Arc::new(mutant.clone());
            let golden = match golden_run(&prog, cfg) {
                Ok(g) => g,
                Err(e) => {
                    return MutantVerdict::KilledByCampaignOnly {
                        reason: format!("accepted, but the fault-free run failed: {e}"),
                    }
                }
            };
            if golden.status != Status::Halted {
                // Accepted programs must run clean fault-free (Corollary 3 /
                // progress) — an accepted crasher is as damning as SDC.
                return MutantVerdict::KilledByCampaignOnly {
                    reason: format!("accepted, but the fault-free run ends {:?}", golden.status),
                };
            }
            let plans = single_fault_plans(&prog, cfg, &golden);
            let rep = run_plan_campaign(&prog, cfg, &golden, &plans);
            if rep.fault_tolerant() {
                MutantVerdict::Equivalent {
                    note: format!("campaign clean over {} injections", rep.total),
                }
            } else {
                MutantVerdict::KilledByCampaignOnly {
                    reason: format!(
                        "accepted, but campaign found {} SDC / {} other violations",
                        rep.sdc, rep.other_violations
                    ),
                }
            }
        }
    }
}

/// Run the full catalog against one well-typed program. The arena must be
/// the program's own (mutants only ever *extend* it, hash-consed, so one
/// arena soundly serves the original and every mutant).
#[must_use]
pub fn run_oracle(p: &Program, arena: &mut ExprArena, cfg: &OracleConfig) -> Vec<MutantOutcome> {
    let mut out = Vec::new();
    for op in MutationOp::ALL {
        let mutants = cap_select(op.apply(p, arena), cfg.max_mutants_per_op);
        for m in mutants {
            let verdict = classify(&m.program, arena, &cfg.campaign);
            out.push(MutantOutcome {
                op: m.op,
                addr: m.addr,
                detail: m.detail,
                verdict,
            });
        }
    }
    out
}

/// Deterministic, evenly spread selection of at most `cap` elements
/// (`cap == 0` keeps everything).
fn cap_select<T>(v: Vec<T>, cap: usize) -> Vec<T> {
    if cap == 0 || v.len() <= cap {
        return v;
    }
    let n = v.len();
    let mut picked = vec![false; n];
    for k in 0..cap {
        picked[k * n / cap] = true;
    }
    v.into_iter()
        .zip(picked)
        .filter_map(|(x, keep)| keep.then_some(x))
        .collect()
}

/// Per-operator tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpScore {
    /// Mutants generated (post-cap).
    pub total: u64,
    /// Rejected by `check_program`.
    pub killed_by_checker: u64,
    /// Accepted by the checker, killed by an error-severity lint.
    pub killed_by_lint: u64,
    /// Accepted but campaign-killed (soundness gap — must stay 0).
    pub killed_by_campaign_only: u64,
    /// Accepted and campaign-clean.
    pub equivalent: u64,
}

impl OpScore {
    /// Static mutation score for this operator — fraction of mutants
    /// killed by checker or lint (1.0 when no mutants).
    #[must_use]
    pub fn score(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        (self.killed_by_checker + self.killed_by_lint) as f64 / self.total as f64
    }

    /// Fold one outcome in.
    pub fn absorb(&mut self, v: &MutantVerdict) {
        self.total += 1;
        match v {
            MutantVerdict::KilledByChecker { .. } => self.killed_by_checker += 1,
            MutantVerdict::KilledByLint { .. } => self.killed_by_lint += 1,
            MutantVerdict::KilledByCampaignOnly { .. } => self.killed_by_campaign_only += 1,
            MutantVerdict::Equivalent { .. } => self.equivalent += 1,
        }
    }

    /// Merge another tally (for cross-kernel aggregation).
    pub fn merge(&mut self, other: &OpScore) {
        self.total += other.total;
        self.killed_by_checker += other.killed_by_checker;
        self.killed_by_lint += other.killed_by_lint;
        self.killed_by_campaign_only += other.killed_by_campaign_only;
        self.equivalent += other.equivalent;
    }
}

/// Aggregate outcomes per operator.
#[must_use]
pub fn score_by_op(outcomes: &[MutantOutcome]) -> BTreeMap<MutationOp, OpScore> {
    let mut m: BTreeMap<MutationOp, OpScore> = BTreeMap::new();
    for o in outcomes {
        m.entry(o.op).or_default().absorb(&o.verdict);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_select_even_spread() {
        let v: Vec<usize> = (0..10).collect();
        assert_eq!(cap_select(v.clone(), 0), v);
        assert_eq!(cap_select(v.clone(), 20), v);
        let picked = cap_select(v, 3);
        assert_eq!(picked, vec![0, 3, 6]);
    }

    #[test]
    fn op_score_arithmetic() {
        let mut s = OpScore::default();
        s.absorb(&MutantVerdict::KilledByChecker { reason: "x".into() });
        s.absorb(&MutantVerdict::Equivalent { note: "y".into() });
        assert_eq!(s.total, 2);
        assert!((s.score() - 0.5).abs() < 1e-12);
        let mut t = OpScore::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.total, 4);
        assert_eq!(t.killed_by_checker, 2);
    }
}
