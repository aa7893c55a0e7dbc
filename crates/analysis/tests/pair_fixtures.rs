//! Hand-written `.talft` fixtures pinning each pair-cooperation rule
//! against **exhaustive** k=2 grids: every unordered pair of strikes from
//! the k=1 universe is executed, and every dynamic SDC must land on a
//! pair the compositional analyzer calls `Vulnerable`.
//!
//! The fixtures use `.gprs 9` to shrink the strike universe — the pair
//! grid is quadratic in it.

use std::sync::Arc;

use talft_analysis::{cross_validate_pairs, map_strike, Cell, PairAnalyzer, PairClass, PairRule};
use talft_faultsim::{
    exhaustive_pair_plans, golden_run, plan_fault_grid, run_plan_campaign, CampaignConfig,
    FaultPlan, PlanGrid, Verdict,
};
use talft_isa::{assemble, Program};
use talft_machine::FaultSite;

/// Protected store pair: distinct registers feed the green and blue
/// sides, so no single strike can defeat the `stB` compare — only a
/// cooperating pair can (opposite sides struck to the same wrong value,
/// or a strike on the queue slot the compare reads).
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

/// The same store pair spanning a block boundary: the queue carries the
/// pending `(4096, 5)` entry across the label, declared by the `queue:`
/// annotation (hand-written `.talft` may span; compiled code never does).
const SPANNING: &str = r#"
.gprs 9
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
span:
  .pre { forall m:mem; mem: m; queue: [(4096, 5)]; }
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
  halt
"#;

fn arc(src: &str) -> Arc<Program> {
    Arc::new(assemble(src).expect("assembles").program)
}

/// The dynamic-to-static cell mapping (the oracle's own).
fn map_cell(grid: &PlanGrid, k: &talft_faultsim::Strike) -> Option<Cell> {
    map_strike(&grid.trace, k)
}

/// Exhaustive pair grid at stride 1, one mutation per site.
fn grid_of(p: &Arc<Program>) -> PlanGrid {
    let cfg = CampaignConfig {
        stride: 1,
        mutations_per_site: 1,
        ..CampaignConfig::default()
    };
    let golden = golden_run(p, &cfg).expect("golden halts");
    let plans = exhaustive_pair_plans(p, &cfg, &golden);
    assert!(!plans.is_empty());
    plan_fault_grid(p, &cfg, &golden, &plans)
}

#[test]
fn opposite_side_cooperation_is_predicted() {
    let p = arc(PROTECTED);
    let grid = grid_of(&p);
    // Theorem 4 stops at k=1: the exhaustive pair grid *does* defeat the
    // protected store (both compare sides struck to the same wrong value).
    assert!(grid.sdc().count() > 0, "cooperating pairs reach SDC");
    let mut pa = PairAnalyzer::new(&p);
    assert!(pa.bailed().is_none());
    let s = cross_validate_pairs(&mut pa, &grid);
    assert!(s.holds(), "statically-safe SDC pair: {:?}", s.mismatches);
    assert!(s.checked > 0, "full pairs were classified");
    assert_eq!(s.skipped_order, 0);
    assert!(s.predicted_sdc > 0, "observed SDCs were predicted");
    // The canonical opposite-sides witness: the green value register
    // before the push, the blue value register before the compare.
    let v = pa
        .classify_pair(Cell::Gpr { addr: 2, reg: 1 }, Cell::Gpr { addr: 5, reg: 3 })
        .expect("covered");
    assert_eq!(v.class, PairClass::Vulnerable);
    assert_eq!(v.rule, Some(PairRule::OppositeSides { at: 6 }));
}

#[test]
fn detector_strikes_in_the_grid_are_predicted() {
    let p = arc(PROTECTED);
    let grid = grid_of(&p);
    let mut pa = PairAnalyzer::new(&p);
    let s = cross_validate_pairs(&mut pa, &grid);
    assert!(s.holds(), "{:?}", s.mismatches);
    // At least one dynamic defeat strikes the detector's own state: a
    // queue-slot strike cooperating with a blue-side strike. Map it back
    // and check the analyzer explains it.
    let queue_sdc = grid.sdc().find(|o| {
        o.applied == 2
            && o.plan
                .strikes()
                .iter()
                .any(|k| matches!(k.site, FaultSite::QueueAddr(_) | FaultSite::QueueVal(_)))
    });
    let o = queue_sdc.expect("a queue-slot strike participates in some SDC");
    let cells: Vec<Cell> = o
        .plan
        .strikes()
        .iter()
        .map(|k| map_cell(&grid, k).expect("pre-halt strikes map"))
        .collect();
    let v = pa.classify_pair(cells[0], cells[1]).expect("covered");
    assert_eq!(v.class, PairClass::Vulnerable);
    assert!(v.rule.is_some(), "a cooperation rule names the defeat");
}

#[test]
fn queue_spanning_pairs_validate_across_the_label() {
    let p = arc(SPANNING);
    let grid = grid_of(&p);
    assert!(
        grid.sdc().count() > 0,
        "the spanning pair is defeatable too"
    );
    let mut pa = PairAnalyzer::new(&p);
    assert!(pa.bailed().is_none());
    let s = cross_validate_pairs(&mut pa, &grid);
    assert!(s.holds(), "{:?}", s.mismatches);
    assert_eq!(
        s.skipped_depth, 0,
        "the queue: annotation matches the dynamic depth at every step"
    );
    assert!(s.predicted_sdc > 0);
    // The annotated block entry carries a static queue cell; striking it
    // plus the blue value register is the cross-label detector defeat.
    let v = pa
        .classify_pair(
            Cell::Queue { addr: 4, slot: 0 },
            Cell::Gpr { addr: 5, reg: 3 },
        )
        .expect("annotated slot is classified");
    assert_eq!(v.class, PairClass::Vulnerable);
}

/// End to end on the exhaustive pair grid: every SDC plan maps, strike by
/// strike, to a pair the analyzer calls Vulnerable; the analyzer rules some
/// pairs out; and the campaign counts the same SDCs as the grid.
#[test]
fn static_guidance_is_verdict_neutral_end_to_end() {
    let p = arc(PROTECTED);
    let cfg = CampaignConfig {
        stride: 1,
        mutations_per_site: 1,
        threads: 3,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&p, &cfg).expect("golden halts");
    let plans = exhaustive_pair_plans(&p, &cfg, &golden);
    let grid = plan_fault_grid(&p, &cfg, &golden, &plans);
    let mut pa = PairAnalyzer::new(&p);
    let mut class_of = |plan: &FaultPlan| {
        let [a, b] = plan.strikes() else {
            panic!("exhaustive pair plans have two strikes");
        };
        let (a, b) = (map_cell(&grid, a)?, map_cell(&grid, b)?);
        pa.classify_pair(a, b).map(|v| v.class)
    };
    for o in grid.sdc() {
        assert_eq!(
            class_of(&o.plan),
            Some(PairClass::Vulnerable),
            "SDC plan {:?} is not a statically Vulnerable pair",
            o.plan
        );
    }
    assert!(
        plans
            .iter()
            .any(|plan| class_of(plan).is_some_and(|c| c != PairClass::Vulnerable)),
        "the analyzer rules some pairs out"
    );
    let report = run_plan_campaign(&p, &cfg, &golden, &plans);
    assert!(report.sdc > 0, "the grid does contain defeats to find");
    assert_eq!(report.sdc, grid.count(Verdict::Sdc) as u64);
}

#[test]
fn post_compare_strikes_stay_safe_statically_and_dynamically() {
    let p = arc(PROTECTED);
    let grid = grid_of(&p);
    let mut pa = PairAnalyzer::new(&p);
    // Sequencing (rule c): r1 is consumed by the push and compare-checked;
    // a second strike on r1 *after* the stB cannot resurrect the first.
    let first = Cell::Gpr { addr: 2, reg: 1 };
    let late = Cell::Gpr { addr: 7, reg: 1 };
    let v = pa.classify_pair(first, late).expect("covered");
    assert_ne!(v.class, PairClass::Vulnerable);
    // The dynamic side agrees: no SDC outcome maps to that unordered pair.
    let s = cross_validate_pairs(&mut pa, &grid);
    assert!(s.holds(), "{:?}", s.mismatches);
    for o in grid.sdc() {
        let mut mapped: Vec<Option<Cell>> = o
            .plan
            .strikes()
            .iter()
            .map(|k| map_cell(&grid, k))
            .collect();
        mapped.sort();
        assert_ne!(
            mapped,
            vec![Some(first), Some(late)],
            "a statically-sequenced-safe pair scored SDC"
        );
    }
}
