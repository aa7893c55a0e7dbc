//! Suite-kernel differential: the static zap classifier cross-validated
//! against exhaustive-grid k=1 campaigns, and lint quietness on compiled
//! (checker-accepted) protected output.

use std::sync::Arc;

use talft_analysis::{
    analyze_zaps, cross_validate, cross_validate_pairs, error_count, lint_program, PairAnalyzer,
};
use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    golden_run, multi_fault_plans, plan_fault_grid, single_fault_plans, CampaignConfig, PlanGrid,
    Verdict,
};
use talft_isa::Program;
use talft_suite::{kernels, Scale};

fn grid_cfg(stride: u64) -> CampaignConfig {
    CampaignConfig {
        stride,
        mutations_per_site: 1,
        ..CampaignConfig::default()
    }
}

/// The k=1 grid of `program` at `stride`, one mutation per site.
fn k1_grid(program: &Arc<Program>, stride: u64) -> PlanGrid {
    let cfg = grid_cfg(stride);
    let golden = golden_run(program, &cfg).expect("golden halts");
    let plans = single_fault_plans(program, &cfg, &golden);
    plan_fault_grid(program, &cfg, &golden, &plans)
}

#[test]
fn protected_kernels_are_lint_clean() {
    for k in kernels(Scale::Tiny) {
        let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
        let diags = lint_program(&c.protected.program);
        let errs: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == talft_core::Severity::Error)
            .collect();
        assert!(
            errs.is_empty(),
            "{}: checker-accepted output must be lint-clean, got {errs:?}",
            k.name
        );
    }
}

#[test]
fn static_verdicts_hold_against_sampled_grids() {
    // A strided grid over a few kernels; the exhaustive sweep is the
    // `lint` bench bin.
    for k in kernels(Scale::Tiny).into_iter().take(3) {
        let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
        let program = Arc::new(c.protected.program.as_ref().clone());
        let report = analyze_zaps(&program);
        assert!(report.bailed.is_none(), "{}: {:?}", k.name, report.bailed);
        let grid = k1_grid(&program, 41);
        assert_eq!(
            grid.count(Verdict::Sdc),
            0,
            "{}: protected kernels admit no SDC",
            k.name
        );
        let s = cross_validate(&report, &grid);
        assert!(s.holds(), "{}: {:?}", k.name, s.mismatches);
        assert!(s.checked > 0, "{}: nothing compared", k.name);
        assert_eq!(
            s.unmapped, 0,
            "{}: executed cells must be classified",
            k.name
        );
    }
}

#[test]
fn baseline_sdc_lands_on_vulnerable_cells() {
    // The unprotected baseline *does* show SDC; every one must land on a
    // cell the static analysis flagged vulnerable (soundness both ways).
    let k = &kernels(Scale::Tiny)[0];
    let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
    let program = Arc::new(c.baseline.program.as_ref().clone());
    let report = analyze_zaps(&program);
    let (_, _, vulnerable) = report.tally();
    assert!(
        vulnerable > 0,
        "{}: an unduplicated program has vulnerable cells",
        k.name
    );
    let grid = k1_grid(&program, 17);
    let s = cross_validate(&report, &grid);
    assert!(s.holds(), "{}: {:?}", k.name, s.mismatches);
    if grid.count(Verdict::Sdc) > 0 {
        assert!(s.predicted_sdc > 0, "{}: SDCs were predicted", k.name);
    }
}

#[test]
fn pair_verdicts_hold_against_sampled_k2_grids() {
    // The stratified k=2 sample over a few kernels, protected and
    // baseline; the exhaustive pair sweep is the `pairs` bench bin.
    // Protected kernels are fair game for SDC here — Theorem 4 stops at
    // k=1 — but every loss must land on a statically-Vulnerable pair.
    let cfg = CampaignConfig {
        stride: 17,
        mutations_per_site: 1,
        pair_samples: 64,
        threads: 1,
        ..CampaignConfig::default()
    };
    for k in kernels(Scale::Tiny).into_iter().take(2) {
        let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
        for program in [&c.protected.program, &c.baseline.program] {
            let program = Arc::new(program.as_ref().clone());
            let mut pa = PairAnalyzer::new(&program);
            assert!(pa.bailed().is_none(), "{}: {:?}", k.name, pa.bailed());
            let golden = golden_run(&program, &cfg).expect("golden halts");
            let plans = multi_fault_plans(&program, &cfg, &golden, 2);
            let grid = plan_fault_grid(&program, &cfg, &golden, &plans);
            let s = cross_validate_pairs(&mut pa, &grid);
            assert!(s.holds(), "{}: {:?}", k.name, s.mismatches);
            assert!(s.checked > 0, "{}: nothing compared", k.name);
        }
    }
}

#[test]
fn error_count_counts_only_errors() {
    let k = &kernels(Scale::Tiny)[0];
    let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
    let diags = lint_program(&c.protected.program);
    assert_eq!(
        error_count(&diags),
        diags
            .iter()
            .filter(|d| d.severity == talft_core::Severity::Error)
            .count()
    );
}
