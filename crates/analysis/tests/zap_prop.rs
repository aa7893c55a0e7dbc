//! Property test: for fuzzed Wile programs, no statically-`Detected` or
//! `Benign` (instruction, site) cell is ever scored SDC by the k=1
//! campaign grid — on the protected *and* the unprotected output (the
//! claim is about analysis soundness, not about protection). Failures are
//! shrunk to a minimal Wile program before reporting.

use std::sync::Arc;

use talft_analysis::{analyze_zaps, cross_validate};
use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{golden_run, plan_fault_grid, single_fault_plans, CampaignConfig};
use talft_isa::Program;
use talft_testutil::wile::{random_stmts, render_program, shrink_candidates, StmtR};
use talft_testutil::{shrink::minimize, SplitMix64};

fn grid_cfg() -> CampaignConfig {
    CampaignConfig {
        stride: 13,
        mutations_per_site: 1,
        threads: 1,
        ..CampaignConfig::default()
    }
}

/// `Ok(())` when the differential holds for this program, else a report.
fn check_program(program: &Arc<Program>) -> Result<(), String> {
    let report = analyze_zaps(program);
    if report.bailed.is_some() {
        // The analyzer refused to classify: nothing is claimed.
        return Ok(());
    }
    let cfg = grid_cfg();
    let Ok(golden) = golden_run(program, &cfg) else {
        // Golden run did not converge; no grid to compare.
        return Ok(());
    };
    let plans = single_fault_plans(program, &cfg, &golden);
    let grid = plan_fault_grid(program, &cfg, &golden, &plans);
    let s = cross_validate(&report, &grid);
    if s.holds() {
        Ok(())
    } else {
        Err(format!("{:?}", s.mismatches))
    }
}

/// The property over one fuzzed statement list.
fn holds(stmts: &[StmtR]) -> Result<(), String> {
    let src = render_program(stmts);
    let Ok(c) = compile(&src, &CompileOptions::default()) else {
        return Ok(()); // fuzzer occasionally emits uncompilable shapes
    };
    check_program(&Arc::new(c.protected.program.as_ref().clone()))
        .map_err(|e| format!("protected: {e}"))?;
    check_program(&Arc::new(c.baseline.program.as_ref().clone()))
        .map_err(|e| format!("baseline: {e}"))
}

#[test]
fn fuzzed_programs_admit_no_sdc_on_safe_cells() {
    let mut rng = SplitMix64::new(0xE17_5EED);
    for round in 0..4 {
        let stmts = random_stmts(&mut rng, 2, 1, 5);
        if let Err(first) = holds(&stmts) {
            let min = minimize(stmts, |s| shrink_candidates(s), |s| holds(s).is_err(), 64);
            let err = holds(&min).err().unwrap_or(first);
            panic!(
                "round {round}: static safety claim contradicted by campaign\n\
                 {err}\nminimal wile program:\n{}",
                render_program(&min)
            );
        }
    }
}
