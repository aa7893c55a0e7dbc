//! Cross-validation of the static zap classifier against the dynamic
//! injection grids — the machine-checked static analogue of Theorem 4,
//! and, for fault *pairs*, of the k=2 boundary the theorem does not cover.
//!
//! Every dynamic strike `(at_step, site)` maps to a static cell via the
//! golden pc trace (`pc_by_step[at_step]` is the address of the in-flight
//! instruction). The mapping is valid for the *second* strike of a pair
//! too: a single one-sided fault cannot silently divert control (the pc
//! fetch compare and the `d`-guarded transfers fault first), so the faulty
//! run's executed-pc trace equals the golden trace until either detection
//! or the second strike — and the queue performs the same pushes and pops,
//! so slot indices translate the same way. A run detected *before* its
//! second strike never receives it (`applied < 2`) and degenerates to a
//! k=1 obligation on the strikes that did land.
//!
//! If a campaign scores a plan **SDC** while the static analysis
//! classified its cell (or cell pair) `Detected` or `Benign` — or failed
//! to map it at all — the analysis is unsound: a hard failure surfaced as
//! a [`Mismatch`] / [`PairMismatch`].

use talft_faultsim::{GoldenTrace, PlanGrid, Strike, Verdict};
use talft_isa::Reg;
use talft_machine::FaultSite;

use crate::pair::{Cell, PairAnalyzer, PairClass};
use crate::zap::{ZapClass, ZapReport};

/// A dynamic SDC the static analysis claimed was safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// Golden step of the injection.
    pub at_step: u64,
    /// Static code address the step maps to.
    pub addr: i64,
    /// The zapped site.
    pub site: FaultSite,
    /// The corrupt value written.
    pub value: i64,
    /// The (wrong) static claim; `None` if the cell was never classified.
    pub class: Option<ZapClass>,
}

/// Outcome of cross-validating one program's grid against its report.
#[derive(Debug, Clone, Default)]
pub struct DiffSummary {
    /// Plans examined (including skipped ones).
    pub plans: usize,
    /// Plans whose cell was classified and compared.
    pub checked: usize,
    /// Plans skipped: strike at the final (halted) state — nothing
    /// executes after it, so no static cell corresponds.
    pub skipped_final: usize,
    /// Plans whose queue-slot index did not map to a static slot
    /// (dynamic depth disagreed with the static depth at that address).
    pub skipped_depth: usize,
    /// Plans whose address had no static classification at all.
    pub unmapped: usize,
    /// Dynamic SDCs on statically-safe cells: soundness violations.
    pub mismatches: Vec<Mismatch>,
    /// Dynamic SDCs on cells the analysis *did* flag vulnerable.
    pub predicted_sdc: usize,
}

impl DiffSummary {
    /// True when no dynamic SDC contradicts a static safety claim.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Compare every outcome of a k=1 grid against the static report. Each
/// plan's lead strike is mapped with [`map_strike`] and looked up with
/// [`ZapReport::class`].
#[must_use]
pub fn cross_validate(report: &ZapReport, grid: &PlanGrid) -> DiffSummary {
    let mut s = DiffSummary {
        plans: grid.outcomes.len(),
        ..DiffSummary::default()
    };
    for o in &grid.outcomes {
        let strike = *o.plan.strikes().first().expect("plans have a strike");
        if strike.at_step >= grid.trace.golden_steps {
            // The machine has already halted; the strike has no cell.
            s.skipped_final += 1;
            continue;
        }
        let addr = grid.trace.pc_by_step[strike.at_step as usize];
        let mismatch = |class| Mismatch {
            at_step: strike.at_step,
            addr,
            site: strike.site,
            value: strike.value,
            class,
        };
        match map_strike(&grid.trace, &strike).and_then(|cell| report.class(cell)) {
            Some(c) => {
                s.checked += 1;
                match (c, o.verdict) {
                    (ZapClass::Vulnerable, Verdict::Sdc) => s.predicted_sdc += 1,
                    (ZapClass::Detected | ZapClass::Benign, Verdict::Sdc) => {
                        s.mismatches.push(mismatch(Some(c)));
                    }
                    _ => {}
                }
            }
            None => {
                let is_queue = matches!(
                    strike.site,
                    FaultSite::QueueAddr(_) | FaultSite::QueueVal(_)
                );
                if is_queue {
                    s.skipped_depth += 1;
                } else {
                    s.unmapped += 1;
                }
                // An SDC the analysis never even saw is still a soundness
                // failure: the cell map must cover every executed state.
                if o.verdict == Verdict::Sdc {
                    s.mismatches.push(mismatch(None));
                }
            }
        }
    }
    s
}

/// A dynamic pair SDC the static pair analysis claimed was safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairMismatch {
    /// The plan's strikes, step-sorted.
    pub strikes: Vec<Strike>,
    /// Static cell each strike mapped to (`None` = final-state or
    /// depth-unmappable strike).
    pub cells: Vec<Option<Cell>>,
    /// The (wrong) static claim; `None` if the pair was never classified.
    pub class: Option<PairClass>,
}

/// Outcome of cross-validating one program's k=2 grid against the
/// compositional pair analyzer.
#[derive(Debug, Clone, Default)]
pub struct PairDiffSummary {
    /// Plans examined (including skipped ones).
    pub plans: usize,
    /// Plans with two effective, mappable strikes, classified as a pair.
    pub checked: usize,
    /// Plans that degenerated to a k=1 obligation: a strike landed on the
    /// final (halted) state, failed to inject (its site had vanished), or
    /// the run was detected before the second strike's step.
    pub degenerate: usize,
    /// Degenerate cause tally: a strike at/after the golden halt.
    pub skipped_final: usize,
    /// Degenerate cause tally: a queue strike whose dynamic slot had no
    /// static counterpart (depth disagreement).
    pub skipped_depth: usize,
    /// Plans that were not two-strike plans at all (not validated here).
    pub skipped_order: usize,
    /// Dynamic SDCs on statically-safe pairs: soundness violations.
    pub mismatches: Vec<PairMismatch>,
    /// Dynamic SDCs the pair analysis *did* flag vulnerable.
    pub predicted_sdc: usize,
}

impl PairDiffSummary {
    /// True when no dynamic SDC contradicts a static safety claim.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Map one strike to its static cell via the golden observables.
///
/// `None` means the strike has no cell: it lands at/after the golden halt
/// (nothing executes after it — and a detected-or-masked run of a k≤2 plan
/// is control-equal to golden, so it halts at the same step and the strike
/// is inert for the output trace), or its queue slot underflows the static
/// depth at that address.
#[must_use]
pub fn map_strike(trace: &GoldenTrace, s: &Strike) -> Option<Cell> {
    if s.at_step >= trace.golden_steps {
        return None;
    }
    let addr = trace.pc_by_step[s.at_step as usize];
    match s.site {
        FaultSite::Reg(Reg::Gpr(g)) => Some(Cell::Gpr { addr, reg: g.0 }),
        FaultSite::Reg(Reg::Dst) => Some(Cell::D { addr }),
        FaultSite::Reg(Reg::Pc(_)) => Some(Cell::Pc { addr }),
        FaultSite::QueueAddr(i) | FaultSite::QueueVal(i) => {
            let slot = trace.queue_len_by_step[s.at_step as usize].checked_sub(1 + i)?;
            Some(Cell::Queue { addr, slot })
        }
    }
}

/// Compare every k=2 grid outcome against the compositional pair analyzer.
///
/// Obligations, per plan:
///
/// - **Two effective strikes** (`applied == 2`, both before the golden
///   halt): an SDC must land on a pair [`classify_pair`] calls
///   `Vulnerable`. A safe claim — or a pair the analyzer failed to map —
///   is a [`PairMismatch`].
/// - **Degenerate plans** (`applied < 2`, or a strike with no cell): at
///   most one strike influenced the trace, so an SDC must land on a cell
///   the k=1 report calls `Vulnerable`. Since the grid does not record
///   *which* strike failed to inject, any mapped `Vulnerable` member
///   discharges the obligation; none at all is a mismatch.
///
/// [`classify_pair`]: PairAnalyzer::classify_pair
#[must_use]
pub fn cross_validate_pairs(analyzer: &mut PairAnalyzer<'_>, grid: &PlanGrid) -> PairDiffSummary {
    let mut s = PairDiffSummary {
        plans: grid.outcomes.len(),
        ..PairDiffSummary::default()
    };
    for o in &grid.outcomes {
        let strikes = o.plan.strikes();
        if strikes.len() != 2 {
            s.skipped_order += 1;
            continue;
        }
        let cells: Vec<Option<Cell>> = strikes.iter().map(|k| map_strike(&grid.trace, k)).collect();
        let sdc = o.verdict == Verdict::Sdc;
        let full = o.applied == 2 && cells.iter().all(Option::is_some);
        if full {
            let (a, b) = (cells[0].expect("mapped"), cells[1].expect("mapped"));
            match analyzer.classify_pair(a, b) {
                Some(v) => {
                    s.checked += 1;
                    if sdc {
                        if v.class == ZapClass::Vulnerable {
                            s.predicted_sdc += 1;
                        } else {
                            s.mismatches.push(PairMismatch {
                                strikes: strikes.to_vec(),
                                cells,
                                class: Some(v.class),
                            });
                        }
                    }
                }
                // An SDC on a pair the analyzer never even saw is still a
                // soundness failure: the cell map must cover every
                // executed state.
                None if sdc => s.mismatches.push(PairMismatch {
                    strikes: strikes.to_vec(),
                    cells,
                    class: None,
                }),
                None => s.degenerate += 1,
            }
            continue;
        }
        s.degenerate += 1;
        if strikes.iter().any(|k| k.at_step >= grid.trace.golden_steps) {
            s.skipped_final += 1;
        }
        if strikes
            .iter()
            .zip(&cells)
            .any(|(k, c)| c.is_none() && k.at_step < grid.trace.golden_steps)
        {
            s.skipped_depth += 1;
        }
        if sdc {
            let predicted = cells
                .iter()
                .flatten()
                .any(|&c| analyzer.k1_class(c) == Some(ZapClass::Vulnerable));
            if predicted {
                s.predicted_sdc += 1;
            } else {
                s.mismatches.push(PairMismatch {
                    strikes: strikes.to_vec(),
                    cells,
                    class: None,
                });
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zap::analyze_zaps;
    use std::sync::Arc;
    use talft_faultsim::{golden_run, plan_fault_grid, single_fault_plans, CampaignConfig};
    use talft_isa::Program;

    /// The exhaustive k=1 grid of `program`.
    fn k1_grid(program: &Arc<Program>, cfg: &CampaignConfig) -> PlanGrid {
        let golden = golden_run(program, cfg).expect("golden halts");
        let plans = single_fault_plans(program, cfg, &golden);
        plan_fault_grid(program, cfg, &golden, &plans)
    }
    use talft_isa::assemble;

    #[test]
    fn protected_store_grid_validates_exhaustively() {
        let src = r#"
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
        let asm = assemble(src).expect("assembles");
        let program = Arc::new(asm.program);
        let report = analyze_zaps(&program);
        let cfg = CampaignConfig {
            stride: 1,
            mutations_per_site: 2,
            ..CampaignConfig::default()
        };
        let grid = k1_grid(&program, &cfg);
        assert_eq!(grid.count(Verdict::Sdc), 0, "Theorem 4 on the dynamic side");
        let s = cross_validate(&report, &grid);
        assert!(s.holds());
        assert!(s.checked > 0);
        assert_eq!(s.unmapped, 0, "every executed cell is classified");
        assert_eq!(s.skipped_depth, 0, "static depths match the golden run");
    }

    #[test]
    fn unprotected_store_sdc_lands_on_vulnerable_cells() {
        let src = r#"
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
        let asm = assemble(src).expect("assembles");
        let program = Arc::new(asm.program);
        let report = analyze_zaps(&program);
        let cfg = CampaignConfig {
            stride: 1,
            mutations_per_site: 3,
            ..CampaignConfig::default()
        };
        let grid = k1_grid(&program, &cfg);
        let s = cross_validate(&report, &grid);
        assert!(
            s.holds(),
            "even on broken code, every SDC must land on a vulnerable cell: {:?}",
            s.mismatches
        );
        assert!(
            grid.count(Verdict::Sdc) == 0 || s.predicted_sdc > 0,
            "observed SDCs were predicted"
        );
    }
}
