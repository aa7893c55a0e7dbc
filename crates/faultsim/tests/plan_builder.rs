//! Pins `single_fault_plans`, which counts its plans, allocates their
//! `Vec` once at exactly that size and then fills it, to the enumeration
//! it replaced: at every strided golden step, every fault site of the
//! state in `sites` order, each with `mutations(old).take(k)` values. The
//! enumeration lives only here. Up to four values per site the builder
//! writes the four bit flips that open every `mutations` list straight
//! from the register file and the queue; above four it takes the general
//! path. Both must give the same plans in the same order, with no spare
//! capacity.
//!
//! The strides are configured as 1–4; `TALFT_STRIDE_SCALE` multiplies
//! them, and the enumeration walks the same effective stride.

use std::sync::Arc;

use talft_compiler::{compile, CompileOptions};
use talft_faultsim::{golden_run, single_fault_plans, CampaignConfig, FaultPlan, Golden};
use talft_isa::{assemble, Program};
use talft_machine::{mutations, read_site, sites, step, FaultSite, Machine};
use talft_suite::{kernels, Scale};

/// Three protected store pairs whose green halves all run before the
/// first blue one, so the store queue holds one to three entries for ten
/// steps in a row: every unscaled stride up to 4 samples queue sites.
const QUEUED: &str = "
.data
region out at 4096 len 3 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 4096
  mov r2, G 4097
  mov r3, G 4098
  mov r4, B 4096
  mov r5, B 4097
  mov r6, B 4098
  mov r7, G 11
  mov r8, B 11
  stG r1, r7
  stG r2, r7
  stG r3, r7
  stB r4, r8
  stB r5, r8
  stB r6, r8
  halt
";

/// Values per site: none, the fast path's edges, and the general path.
const PER_SITE: [usize; 6] = [0, 1, 3, 4, 5, 10];

/// Assert that `plans` is the enumeration of `golden`'s run at `cfg`'s
/// effective stride, plan for plan; returns how many of them strike the
/// store queue.
fn assert_enumerated(
    p: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    plans: &[FaultPlan],
    what: &str,
) -> usize {
    let stride = cfg.effective_stride();
    let mut m = Machine::boot(Arc::clone(p)).with_oob_policy(cfg.oob);
    let (mut i, mut queued) = (0, 0);
    loop {
        let at = m.steps();
        if at.is_multiple_of(stride) {
            for site in sites(&m) {
                let old = read_site(&m, site).expect("every listed site reads");
                for value in mutations(old).into_iter().take(cfg.mutations_per_site) {
                    let expected = FaultPlan::single(at, site, value);
                    assert_eq!(plans.get(i), Some(&expected), "{what}: plan {i}");
                    i += 1;
                    queued += usize::from(!matches!(site, FaultSite::Reg(_)));
                }
            }
        }
        if at >= golden.steps || !m.status().is_running() {
            break;
        }
        step(&mut m);
    }
    assert_eq!(plans.len(), i, "{what}: the builder made more plans");
    queued
}

/// Build and check every `(stride, values per site)` pair over `p`;
/// returns the queue strikes of each pair with values.
fn check_program(p: &Arc<Program>, name: &str) -> Vec<usize> {
    let mut queued = Vec::new();
    for stride in 1..=4 {
        for per_site in PER_SITE {
            let cfg = CampaignConfig {
                stride,
                mutations_per_site: per_site,
                threads: 1,
                ..CampaignConfig::default()
            };
            let what = format!("{name} stride {stride}, {per_site} values");
            let golden = golden_run(p, &cfg).expect("golden halts");
            let plans = single_fault_plans(p, &cfg, &golden);
            assert_eq!(plans.capacity(), plans.len(), "{what}: spare capacity");
            let q = assert_enumerated(p, &cfg, &golden, &plans, &what);
            if per_site > 0 {
                queued.push(q);
            }
        }
    }
    queued
}

#[test]
fn builder_matches_the_enumeration_on_a_queued_fixture() {
    let p = Arc::new(assemble(QUEUED).expect("fixture assembles").program);
    let queued = check_program(&p, "queued");
    if CampaignConfig::default().effective_stride() == 1 {
        assert!(
            queued.iter().all(|&q| q > 0),
            "every stride samples queue sites: {queued:?}"
        );
    }
}

#[test]
fn builder_matches_the_enumeration_on_two_tiny_kernels() {
    for k in kernels(Scale::Tiny).iter().take(2) {
        let c = compile(&k.source, &CompileOptions::default()).expect("kernels compile");
        check_program(&c.protected.program, k.name);
    }
}
