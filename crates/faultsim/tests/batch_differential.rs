//! The batched-engine differential harness: for fuzzed Wile programs —
//! protected *and* unprotected baseline, so every verdict class is on the
//! table — the bit-parallel batched engine (`run_plan_campaign`) and the
//! sequential reference must produce **bit-identical**
//! [`CampaignReport`]s at threads ∈ {1, 3, 8}. This is the "re-prove the
//! guarantee per execution path" layer the batched engine ships with:
//! verdict-exactness is a tested theorem, not a benchmark footnote.
//! Failures shrink to a minimal Wile witness. Campaigns the packed form
//! cannot serve (more than 64 GPRs, a golden run that faults) and gated
//! campaigns take the same test.

mod common;

use std::sync::Arc;

use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{
    golden_run, multi_fault_plans, run_plan_campaign, run_plan_campaign_reference,
    single_fault_plans, CampaignConfig, CampaignReport, FaultPlan, Golden,
};
use talft_isa::Program;
use talft_testutil::wile::{random_stmts, render_program, shrink_candidates, StmtR};
use talft_testutil::{shrink::minimize, SplitMix64};

fn base_cfg() -> CampaignConfig {
    CampaignConfig {
        stride: 9,
        mutations_per_site: 1,
        threads: 1,
        ..CampaignConfig::default()
    }
}

/// Run one plan set through the batched engine under `base` at every
/// thread count and demand the sequential reference's report, bit for
/// bit. Returns it.
fn matches_reference(
    program: &Arc<Program>,
    base: &CampaignConfig,
    plans: &[FaultPlan],
    golden: &Golden,
) -> Result<CampaignReport, String> {
    let reference = run_plan_campaign_reference(program, base, golden, plans);
    for threads in [1usize, 3, 8] {
        let cfg = CampaignConfig {
            threads,
            ..base.clone()
        };
        let batched = run_plan_campaign(program, &cfg, golden, plans);
        if batched != reference {
            return Err(format!(
                "batched engine (threads={threads}) diverged from reference:\n\
                 batched:   {batched:?}\nreference: {reference:?}"
            ));
        }
    }
    Ok(reference)
}

/// The property over one compiled binary: the batched engine and the
/// reference agree on the k=1 grid and on a sampled k=2 set. Multi-strike
/// plans whose strikes all hit packed sites (GPRs, `d`, queue slots) ride
/// the batched lanes as timed events; the rest route scalar — both paths
/// land in the same report.
fn engines_agree(program: &Arc<Program>, protected: bool) -> Result<(), String> {
    let golden = match golden_run(program, &base_cfg()) {
        Ok(g) => g,
        Err(_) => return Ok(()), // divergent fuzz shape: nothing to campaign
    };
    let plans = single_fault_plans(program, &base_cfg(), &golden);
    let report = matches_reference(program, &base_cfg(), &plans, &golden)?;
    if protected && report.sdc != 0 {
        return Err(format!(
            "Theorem 4: protected binary reported SDC: {:?}",
            report.violations
        ));
    }
    let k2_cfg = CampaignConfig {
        pair_samples: 48,
        ..base_cfg()
    };
    let k2 = multi_fault_plans(program, &k2_cfg, &golden, 2);
    matches_reference(program, &base_cfg(), &k2, &golden)?;
    Ok(())
}

/// The property over one fuzzed statement list.
fn holds(stmts: &[StmtR]) -> Result<(), String> {
    let src = render_program(stmts);
    let Ok(c) = compile(&src, &CompileOptions::default()) else {
        return Ok(()); // fuzzer occasionally emits uncompilable shapes
    };
    engines_agree(&Arc::new(c.protected.program.as_ref().clone()), true)
        .map_err(|e| format!("protected: {e}"))?;
    engines_agree(&Arc::new(c.baseline.program.as_ref().clone()), false)
        .map_err(|e| format!("baseline: {e}"))
}

#[test]
fn fuzzed_programs_run_bit_identically_on_all_three_engines() {
    let mut rng = SplitMix64::new(0xBA7C_4ED1);
    for round in 0..4 {
        let stmts = random_stmts(&mut rng, 2, 1, 6);
        if let Err(first) = holds(&stmts) {
            let min = minimize(stmts, |s| shrink_candidates(s), |s| holds(s).is_err(), 64);
            let err = holds(&min).err().unwrap_or(first);
            panic!(
                "round {round}: batched and reference reports diverged\n\
                 {err}\nminimal wile program:\n{}",
                render_program(&min)
            );
        }
    }
}

/// Hand-written adversarial plan shapes the fuzzer cannot produce: strikes
/// at golden termination, strikes past it (incomplete plans), equal-payload
/// strikes, out-of-file GPR indices (harness panic → EngineError), `d` and
/// queue value/address strikes (packed since ISSUE 8), pc strikes (the one
/// remaining scalar route), multi-strike packed/mixed plans, and the
/// quiet-step fast path's corner cases — each must take the same route to
/// the same report.
#[test]
fn adversarial_plan_shapes_agree_across_engines() {
    use talft_faultsim::Strike;
    use talft_isa::assemble;
    use talft_machine::FaultSite;
    let src = "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  \
               .pre { forall m:mem; mem: m; }\n  mov r1, G 5\n  mov r2, G 4096\n  \
               stG r2, r1\n  mov r3, B 5\n  mov r4, B 4096\n  stB r4, r3\n  halt\n";
    let p = Arc::new(assemble(src).expect("assembles").program);
    let golden = golden_run(&p, &base_cfg()).expect("halts");
    let n = golden.steps;
    // First step at which the store queue is nonempty, so the queue-site
    // strikes genuinely apply instead of degenerating to incomplete plans.
    let q_step = {
        let mut m = talft_machine::Machine::boot(Arc::clone(&p));
        while m.queue().is_empty() && m.status().is_running() {
            talft_machine::step(&mut m);
        }
        assert!(!m.queue().is_empty(), "fixture must push a store pair");
        m.steps()
    };
    let plans = vec![
        // Strike at the final halted state (applies, classifies there).
        FaultPlan::single(n, FaultSite::Reg(talft_isa::Reg::r(1)), 99),
        // Strike past termination: never applies — incomplete plan.
        FaultPlan::single(n + 3, FaultSite::Reg(talft_isa::Reg::r(1)), 99),
        // Equal payload: diverges nowhere.
        FaultPlan::single(0, FaultSite::Reg(talft_isa::Reg::r(1)), 0),
        // Out of the register file: inject panics → EngineError.
        FaultPlan::single(0, FaultSite::Reg(talft_isa::Reg::r(200)), 7),
        // `d` and queue-value sites: packed since ISSUE 8 (the `d` shadow
        // resolves at the next jump/branch, the queue shadow at the stB).
        FaultPlan::single(2, FaultSite::Reg(talft_isa::Reg::Dst), 3),
        FaultPlan::single(q_step, FaultSite::QueueVal(0), -1),
        // Queue *addresses* pack too (resolved at the stB compare or a
        // forwarding load); only the pcs stay on the scalar route.
        FaultPlan::single(q_step, FaultSite::QueueAddr(0), 4097),
        FaultPlan::single(
            2,
            FaultSite::Reg(talft_isa::Reg::Pc(talft_isa::Color::Green)),
            1,
        ),
        // Live-register strike: rides the shadow to its blue compare.
        FaultPlan::single(2, FaultSite::Reg(talft_isa::Reg::r(1)), 77),
        // Multi-strike, all packed sites: one lane, two timed events —
        // GPR+GPR (same step and spread), GPR+queue value, GPR+`d`, and a
        // second strike landing at the final halted state.
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 77,
            },
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(2)),
                value: -9,
            },
        ]),
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 77,
            },
            Strike {
                at_step: q_step,
                site: FaultSite::QueueVal(0),
                value: -1,
            },
        ]),
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::Dst),
                value: 5,
            },
            Strike {
                at_step: 4,
                site: FaultSite::Reg(talft_isa::Reg::r(3)),
                value: 11,
            },
        ]),
        FaultPlan::new(vec![
            Strike {
                at_step: 0,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 4,
            },
            Strike {
                at_step: n,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 99,
            },
        ]),
        // Mixed packed + pc strike: the whole plan routes scalar.
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 77,
            },
            Strike {
                at_step: 3,
                site: FaultSite::Reg(talft_isa::Reg::Pc(talft_isa::Color::Blue)),
                value: 1,
            },
        ]),
        // Queue-value strike on a slot that vanished by the strike step
        // (`inject` misses → incomplete plan) paired with a healing
        // second strike on the same GPR.
        FaultPlan::new(vec![
            Strike {
                at_step: 2,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 77,
            },
            Strike {
                at_step: 3,
                site: FaultSite::Reg(talft_isa::Reg::r(1)),
                value: 5,
            },
        ]),
        FaultPlan::single(n, FaultSite::QueueVal(0), -1),
    ];
    let report = matches_reference(&p, &base_cfg(), &plans, &golden).expect("engines agree");
    assert_eq!(report.total, plans.len() as u64);
    assert_eq!(report.engine_errors, 1);
    // The past-termination strike and the queue-value strike on a drained
    // queue both fail to apply.
    assert_eq!(report.incomplete_plans, 2);
    // Gated, the engine error is the only violation, and the run stops
    // there as the reference does.
    let gated = CampaignConfig {
        stop_on_first_violation: true,
        ..base_cfg()
    };
    let report = matches_reference(&p, &gated, &plans, &golden).expect("engines agree");
    assert!(report.stopped_early && report.sdc == 0, "{report:?}");
    // The quiet-step fast path's corner cases (`tests/common`): lanes that
    // walk long stretches of untouched replay steps, all of one program's
    // plans sharing a lockstep group.
    for fixture in common::quiet_fixtures() {
        let golden = golden_run(&fixture.program, &base_cfg()).expect("halts");
        let plans: Vec<FaultPlan> = fixture.plans.into_iter().map(|(_, plan)| plan).collect();
        let report = matches_reference(&fixture.program, &base_cfg(), &plans, &golden)
            .expect("engines agree");
        assert_eq!(report.total, plans.len() as u64);
        assert_eq!(report.sdc, 0);
    }
}

/// The protected store pair in a 200-register file, its operands on both
/// sides of r64. The file is too wide for liveness masks.
const WIDE_PROTECTED: &str = "
.gprs 200
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r100, G 4096
  stG r100, r1
  mov r70, B 5
  mov r3, B 4096
  stB r3, r70
  halt
";

/// One pair of registers feeds both halves of the store: single zaps
/// already produce SDC.
const WIDE_UNPROTECTED: &str = "
.gprs 200
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r100, G 4096
  stG r100, r1
  stB r100, r1
  halt
";

/// An unprotected store commits the output, a countdown loop runs, and an
/// unpaired `stB` faults: the golden run ends `Fault`, with liveness.
const FAULTING: &str = "
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  stG r2, r1
  stB r2, r1
  mov r10, G 12
  mov r11, B 12
  mov r12, G @done
  mov r13, B @done
  mov r14, G @loop
  mov r15, B @loop
loop:
  .pre { forall m:mem; mem: m; }
  sub r10, r10, G 1
  sub r11, r11, B 1
  bzG r10, r12
  bzB r11, r13
  jmpG r14
  jmpB r15
done:
  .pre { forall m:mem; mem: m; }
  mov r3, B 5
  mov r4, B 4096
  stB r4, r3
  halt
";

/// Campaigns the packed form cannot serve go through `run_plan_campaign`
/// like any other and must land on the reference's report at threads 1, 3
/// and 8, ungated and gated: the store pairs in a 200-register file (no
/// liveness) at k=1 and sampled k=2, with strikes on registers past r63,
/// and a program whose golden run ends `Fault`. Every plan takes its
/// worker's whole-plan scalar route; a gated run whose batched pass holds
/// a violation falls back to the sequential walk with the checkpoint ring.
#[test]
fn unpackable_campaigns_match_the_reference_ungated_and_gated() {
    use talft_isa::{assemble, Reg};
    use talft_machine::{FaultSite, Status};
    let cfg = CampaignConfig {
        stride: 1,
        mutations_per_site: 3,
        pair_samples: 96,
        ..base_cfg()
    };
    let gated = CampaignConfig {
        stop_on_first_violation: true,
        ..cfg.clone()
    };
    let both = |p: &Arc<Program>, plans: &[FaultPlan], golden: &Golden, what: &str| {
        let ungated = matches_reference(p, &cfg, plans, golden)
            .unwrap_or_else(|e| panic!("{what}, ungated: {e}"));
        let gated = matches_reference(p, &gated, plans, golden)
            .unwrap_or_else(|e| panic!("{what}, gated: {e}"));
        assert_eq!(ungated.total, plans.len() as u64, "{what}");
        if ungated.fault_tolerant() {
            assert!(!gated.stopped_early, "{what}: nothing to stop on");
            assert_eq!(gated, ungated, "{what}: a clean gated run is the full run");
        } else {
            assert!(gated.stopped_early, "{what}: the gate cut the run short");
        }
        ungated
    };
    let high = |plans: &[FaultPlan]| {
        plans.iter().any(|pl| {
            pl.strikes()
                .iter()
                .any(|s| matches!(s.site, FaultSite::Reg(Reg::Gpr(g)) if g.0 >= 64))
        })
    };
    for (src, protected) in [(WIDE_PROTECTED, true), (WIDE_UNPROTECTED, false)] {
        let p = Arc::new(assemble(src).expect("assembles").program);
        let golden = golden_run(&p, &cfg).expect("golden halts");
        assert!(golden.reg_liveness.is_empty(), "200 GPRs leave no liveness");
        let k1 = single_fault_plans(&p, &cfg, &golden);
        let k2 = multi_fault_plans(&p, &cfg, &golden, 2);
        assert!(high(&k1) && high(&k2), "strikes past r63");
        let what = if protected {
            "protected"
        } else {
            "unprotected"
        };
        let rep = both(&p, &k1, &golden, &format!("{what} k=1"));
        assert_eq!(rep.fault_tolerant(), protected, "{what} k=1: {rep:?}");
        both(&p, &k2, &golden, &format!("{what} k=2"));
    }
    let p = Arc::new(assemble(FAULTING).expect("assembles").program);
    let golden = golden_run(&p, &cfg).expect("golden ends");
    assert_eq!(golden.status, Status::Fault, "the unpaired stB faults");
    assert!(!golden.reg_liveness.is_empty());
    // This fixture keeps SDC plans only at effective strides 1 to 5.
    // `TALFT_STRIDE_SCALE` multiplies the configured stride, so divide it
    // back out: stride 2 unscaled, the scale itself up to 5.
    let scale = CampaignConfig {
        stride: 1,
        ..CampaignConfig::default()
    }
    .effective_stride();
    let thinned = CampaignConfig {
        stride: (2 / scale).max(1),
        mutations_per_site: 2,
        ..cfg.clone()
    };
    let plans = single_fault_plans(&p, &thinned, &golden);
    let rep = both(&p, &plans, &golden, "faulting golden");
    assert!(rep.detected > 0 && rep.sdc > 0, "{rep:?}");
}
