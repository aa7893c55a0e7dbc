//! Integration: the k-fault campaign engine against compiled benchmark
//! kernels — the E13 boundary experiment as a test.
//!
//! Theorem 4 is indexed to a **single** upset per run. These tests pin both
//! sides of that boundary on the same binaries with the same engine:
//!
//! * at `k = 1` the sampled campaign must stay clean (zero SDC) — the
//!   theorem's promise;
//! * at `k = 2` the stratified + correlated sampler must *find* silent data
//!   corruption in well-typed code — the promise's limit, the coordinated
//!   cross-color pattern of `tests/double_fault.rs` discovered
//!   automatically instead of hand-constructed.

use std::sync::Arc;

use talft::compiler::{compile, CompileOptions};
use talft::faultsim::{
    golden_run, multi_fault_plans, run_plan_campaign, CampaignConfig, CampaignReport, FaultPlan,
    Strike, Verdict,
};
use talft::isa::{assemble, Program, Reg};
use talft::machine::FaultSite;
use talft::suite::{kernels, Scale};

/// A `k`-fault campaign: golden run, sampled plans, the plan engine.
fn k_campaign(program: &Arc<Program>, cfg: &CampaignConfig, k: u32) -> CampaignReport {
    let golden = golden_run(program, cfg).expect("golden halts");
    let plans = multi_fault_plans(program, cfg, &golden, k);
    run_plan_campaign(program, cfg, &golden, &plans)
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        pair_samples: 768,
        max_steps: 10_000_000,
        ..CampaignConfig::default()
    }
}

/// The k=2 sampler finds SDC in protected, type-checked binaries — the
/// single-upset model boundary is real and measurable — while detection
/// still catches a substantial share of double faults.
#[test]
fn k2_campaign_finds_sdc_on_a_protected_kernel() {
    let mut total_sdc = 0u64;
    let mut total = 0u64;
    let mut detected = 0u64;
    for k in kernels(Scale::Tiny).into_iter().take(3) {
        let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
        let rep = k_campaign(&c.protected.program, &cfg(), 2);
        assert!(rep.total > 0, "{}: empty k=2 campaign", k.name);
        assert_eq!(rep.fault_order, 2, "{}", k.name);
        assert!(!rep.within_fault_model(), "{}", k.name);
        assert_eq!(rep.engine_errors, 0, "{}: engine must stay healthy", k.name);
        total_sdc += rep.sdc;
        detected += rep.detected;
        total += rep.total;
    }
    assert!(
        total_sdc > 0,
        "the correlated k=2 sampler must breach dual-modular detection somewhere \
         ({total} plans, {detected} detected)"
    );
    assert!(detected > 0, "most double faults should still be detected");
}

/// The same engine, same kernels, at k=1: Theorem 4 holds — zero SDC. The
/// contrast with the k=2 result above is the entire point of E13.
#[test]
fn k1_campaign_on_same_kernels_stays_clean() {
    for k in kernels(Scale::Tiny).into_iter().take(3) {
        let c = compile(&k.source, &CompileOptions::default()).expect("compiles");
        let mut sampled = cfg();
        sampled.stride = 37; // thin the exhaustive sweep for test time
        let rep = k_campaign(&c.protected.program, &sampled, 1);
        assert!(rep.total > 0, "{}: empty campaign", k.name);
        assert!(rep.within_fault_model(), "{}", k.name);
        assert!(
            rep.fault_tolerant(),
            "{}: Theorem 4 violated: {:?}",
            k.name,
            rep.violations
        );
    }
}

const PROTECTED_STORE: &str = r#"
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

/// The hand-built coordinated pair of `tests/double_fault.rs`, expressed as
/// a [`FaultPlan`] and classified by the engine: silent data corruption,
/// exactly as the manual machine driving showed.
#[test]
fn engine_classifies_the_manual_coordinated_pair_as_sdc() {
    let asm = assemble(PROTECTED_STORE).expect("assembles");
    let p = Arc::new(asm.program);
    let campaign = CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&p, &campaign).expect("halts");
    let plan = FaultPlan::new(vec![
        Strike {
            at_step: 2,
            site: FaultSite::Reg(Reg::r(1)),
            value: 666,
        },
        Strike {
            at_step: 8,
            site: FaultSite::Reg(Reg::r(3)),
            value: 666,
        },
    ]);
    let rep = run_plan_campaign(&p, &campaign, &golden, std::slice::from_ref(&plan));
    assert_eq!(rep.total, 1);
    assert_eq!(
        rep.sdc, 1,
        "coordinated pair must escape detection: {rep:?}"
    );
    assert_eq!(rep.violations[0].verdict, Verdict::Sdc);
    assert_eq!(rep.violations[0].followups.len(), 1);
    assert_eq!(rep.fault_order, 2);
}

/// The automated sampler rediscovers what the manual test constructs: on
/// the protected store sequence, some sampled k=2 plan produces SDC.
#[test]
fn sampler_rediscovers_the_coordinated_pair() {
    let asm = assemble(PROTECTED_STORE).expect("assembles");
    let p = Arc::new(asm.program);
    let campaign = CampaignConfig {
        threads: 2,
        pair_samples: 512,
        ..CampaignConfig::default()
    };
    let rep = k_campaign(&p, &campaign, 2);
    assert!(
        rep.sdc > 0,
        "sampler missed the coordinated pattern: {rep:?}"
    );
    assert!(
        rep.violations.iter().any(|v| !v.followups.is_empty()),
        "counterexamples must carry their second strike"
    );
}
