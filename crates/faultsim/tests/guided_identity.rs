//! The k=2 engine identity: on sampled pair plans the batched engine
//! ([`run_plan_campaign`]) and the sequential reference must produce
//! bit-identical reports at every thread count. The `guided_*` test names
//! predate the removal of static-guided claim ordering and are kept so
//! test history stays comparable. The file also pins the exhaustive
//! pair-plan generator and the plan grid against the campaign.

use std::sync::Arc;

use talft_faultsim::{
    exhaustive_pair_plans, golden_run, multi_fault_plans, plan_fault_grid, run_plan_campaign,
    run_plan_campaign_reference, CampaignConfig, CampaignReport, FaultPlan, Golden, Verdict,
};
use talft_isa::assemble;
use talft_isa::Program;

fn arc(src: &str) -> Arc<Program> {
    Arc::new(assemble(src).expect("assembles").program)
}

/// Protected store pair over a small register file (keeps the strike
/// universe — and the quadratic pair grid — small).
const PROTECTED: &str = r#"
.gprs 9
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

/// One register feeds both sides of the store pair: single zaps already
/// produce SDC, so the plan grid has violations to match.
const UNPROTECTED: &str = r#"
.gprs 9
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

/// The sequential reference's report, after checking that
/// [`run_plan_campaign`] reproduces it bit for bit at threads 1, 3 and 8.
fn engines_agree(
    p: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
) -> CampaignReport {
    let reference = run_plan_campaign_reference(p, cfg, golden, plans);
    for threads in [1usize, 3, 8] {
        let cfg = CampaignConfig {
            threads,
            ..cfg.clone()
        };
        let engine = run_plan_campaign(p, &cfg, golden, plans);
        assert_eq!(engine, reference, "engine at threads={threads}");
    }
    reference
}

#[test]
fn guided_report_is_bit_identical_ungated() {
    let p = arc(PROTECTED);
    let cfg = CampaignConfig {
        pair_samples: 96,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&p, &cfg).expect("halts");
    let plans = multi_fault_plans(&p, &cfg, &golden, 2);
    assert!(!plans.is_empty());
    let report = engines_agree(&p, &cfg, &golden, &plans);
    assert_eq!(report.total, plans.len() as u64);
    assert_eq!(report.fault_order, 2);
}

#[test]
fn exhaustive_pair_plans_cover_the_strike_square() {
    let p = arc(PROTECTED);
    let cfg = CampaignConfig {
        stride: 4,
        mutations_per_site: 1,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&p, &cfg).expect("halts");
    let plans = exhaustive_pair_plans(&p, &cfg, &golden);
    assert!(!plans.is_empty());
    for pl in &plans {
        assert_eq!(pl.order(), 2);
        assert!(pl.strikes()[0].at_step <= pl.strikes()[1].at_step);
    }
    // Quadratic by construction: n strikes → n·(n−1)/2 unordered pairs.
    let strikes: std::collections::HashSet<_> = plans
        .iter()
        .flat_map(|pl| pl.strikes().iter().map(|s| (s.at_step, s.site, s.value)))
        .collect();
    let n = strikes.len();
    assert_eq!(plans.len(), n * (n - 1) / 2);
}

#[test]
fn plan_grid_verdicts_match_the_campaign() {
    let p = arc(UNPROTECTED);
    // Stride 1: the SDC strikes land between `stG` and `stB`, two steps
    // apart, so a stride scaled up (e.g. by TALFT_STRIDE_SCALE=3 to 9)
    // from a larger base would skip them all.
    let cfg = CampaignConfig {
        stride: 1,
        mutations_per_site: 1,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&p, &cfg).expect("halts");
    let plans = exhaustive_pair_plans(&p, &cfg, &golden);
    let grid = plan_fault_grid(&p, &cfg, &golden, &plans);
    assert_eq!(grid.outcomes.len(), plans.len());
    assert_eq!(
        grid.trace.pc_by_step.len() as u64,
        grid.trace.golden_steps + 1
    );
    // Outcomes stay in caller order with their plans attached.
    for (pl, o) in plans.iter().zip(&grid.outcomes) {
        assert_eq!(pl, &o.plan);
        assert!(o.applied <= pl.order());
    }
    let rep = run_plan_campaign(&p, &cfg, &golden, &plans);
    assert_eq!(grid.count(Verdict::Sdc) as u64, rep.sdc);
    assert_eq!(grid.count(Verdict::Detected) as u64, rep.detected);
    assert_eq!(grid.count(Verdict::Masked) as u64, rep.masked);
    // The unprotected kernel's double strikes do find the boundary.
    assert!(grid.sdc().count() > 0, "unprotected pairs must score SDC");
}
