//! Checker-soundness fuzzing — the strongest dynamic evidence we can give
//! for the paper's central theorem short of re-proving it.
//!
//! Method: start from well-typed compiled programs — three fixed kernels
//! plus generatively fuzzed Wile sources from `talft_testutil::wile` — and
//! apply random single-instruction **mutations** (change a register, flip a
//! color, swap an opcode, perturb an immediate) — the space of plausible
//! compiler bugs. (The *systematic* operator catalog lives in
//! `talft-oracle`; this test keeps the cheap randomized angle.) For each
//! mutant:
//!
//! * if the checker **accepts** it, Theorem 4 must hold: a sampled fault
//!   campaign must find zero silent data corruption — otherwise the checker
//!   has a soundness hole. Before panicking, the failing fault plan is
//!   **shrunk** (earliest step, simplest corrupted value) so the report
//!   carries a minimal, seed-reproducible witness;
//! * (diagnostics) if the campaign finds SDC, the checker must have
//!   rejected — we count how often rejection was "justified" this way.
//!
//! The asymmetry is deliberate: an accepted-but-SDC mutant is a *bug in
//! this reproduction*; a rejected-but-harmless mutant is just the type
//! system's conservativity, which the paper accepts by design.

use std::sync::Arc;

use talft_testutil::shrink::minimize;
use talft_testutil::wile::{random_stmts, render_program};
use talft_testutil::SplitMix64;

use talft::compiler::{compile, CompileOptions};
use talft::core::check_program;
use talft::faultsim::{
    golden_run, run_plan_campaign, single_fault_plans, CampaignConfig, FaultPlan, Golden, Injection,
};
use talft::isa::{CVal, Gpr, Instr, OpSrc, Program};
use talft::machine::Status;

const GEN_SEED: u64 = 0x51DE_CA5E;

fn mutate(program: &Program, rng: &mut SplitMix64) -> Option<Program> {
    let mut p = program.clone();
    let idx = rng.index(p.instrs.len());
    let instr = &mut p.instrs[idx];
    let flip_gpr = |g: &Gpr, rng: &mut SplitMix64| Gpr((g.0 + rng.range_u64(1, 4) as u16) % 16);
    match rng.below(4) {
        // register substitution (wrong-operand bugs)
        0 => match instr {
            Instr::Op { rs, .. } => *rs = flip_gpr(rs, rng),
            Instr::Mov { rd, .. } => *rd = flip_gpr(rd, rng),
            Instr::Ld { rs, .. } => *rs = flip_gpr(rs, rng),
            Instr::St { rs, .. } => *rs = flip_gpr(rs, rng),
            Instr::Bz { rz, .. } => *rz = flip_gpr(rz, rng),
            Instr::Jmp { rd, .. } => *rd = flip_gpr(rd, rng),
            Instr::Halt => return None,
        },
        // color flip (lost-duplication bugs)
        1 => match instr {
            Instr::Ld { color, .. }
            | Instr::St { color, .. }
            | Instr::Bz { color, .. }
            | Instr::Jmp { color, .. } => *color = color.other(),
            Instr::Mov { v, .. } => v.color = v.color.other(),
            Instr::Op {
                src2: OpSrc::Imm(v),
                ..
            } => v.color = v.color.other(),
            _ => return None,
        },
        // immediate perturbation (wrong-constant bugs)
        2 => match instr {
            Instr::Mov { v, .. } => *v = CVal::new(v.color, v.val.wrapping_add(1)),
            Instr::Op {
                src2: OpSrc::Imm(v),
                ..
            } => {
                *v = CVal::new(v.color, v.val.wrapping_add(1));
            }
            _ => return None,
        },
        // opcode swap st<->ld (wrong-instruction bugs)
        _ => match *instr {
            Instr::St { color, rd, rs } => *instr = Instr::Ld { color, rd, rs },
            Instr::Ld { color, rd, rs } => *instr = Instr::St { color, rd, rs },
            _ => return None,
        },
    }
    Some(p)
}

/// Does this single-strike plan still demonstrate a Theorem 4 violation?
fn still_violates(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    step: u64,
    site: talft::machine::FaultSite,
    value: i64,
) -> bool {
    let plan = FaultPlan::single(step, site, value);
    let rep = run_plan_campaign(program, cfg, golden, &[plan]);
    !rep.fault_tolerant()
}

/// Shrink a violation witness to the earliest step and simplest corrupted
/// value that still breaks Theorem 4, so the panic message is actionable.
fn shrink_witness(
    program: &Arc<Program>,
    cfg: &CampaignConfig,
    golden: &Golden,
    v: &Injection,
) -> (u64, i64) {
    minimize(
        (v.at_step, v.value),
        |&(step, value)| {
            let mut cands = Vec::new();
            if step > 0 {
                cands.push((step / 2, value));
                cands.push((step - 1, value));
            }
            if value != 0 {
                cands.push((step, 0));
                cands.push((step, value / 2));
            }
            cands
        },
        |&(step, value)| still_violates(program, cfg, golden, step, v.site, value),
        200,
    )
}

#[test]
fn accepted_mutants_are_never_sdc_vulnerable() {
    let fixed = [
        "output out[2]; func main() { var a = 6; var b = 7; out[0] = a * b; out[1] = a + b; }"
            .to_string(),
        "array t[4] = [9, 2, 7, 4]; output out[4]; func main() { var i = 0; \
         while (i < 4) { out[i] = t[i] + i; i = i + 1; } }"
            .to_string(),
        "output out[1]; func main() { var i = 0; var s = 0; \
         while (i < 6) { if (i & 1 == 1) { s = s + i; } i = i + 1; } out[0] = s; }"
            .to_string(),
    ];
    // Generative sources: the wile fuzzer feeds this test the same way it
    // feeds prop_compile and the mutation oracle.
    let generated: Vec<String> = (0..3)
        .map(|k| {
            let mut r = SplitMix64::new(GEN_SEED + k);
            render_program(&random_stmts(&mut r, 2, 2, 6))
        })
        .collect();
    let sources: Vec<String> = fixed.into_iter().chain(generated).collect();

    let mut rng = SplitMix64::new(0xF417_70CE);
    let cfg = CampaignConfig {
        stride: 17,
        mutations_per_site: 2,
        ..Default::default()
    };

    let mut accepted = 0u32;
    let mut rejected = 0u32;
    let mut rejected_with_real_sdc = 0u32;

    for (src_idx, src) in sources.iter().enumerate() {
        let base = compile(src, &CompileOptions::default()).expect("compiles");
        for _ in 0..80 {
            let Some(mutant) = mutate(&base.protected.program, &mut rng) else {
                continue;
            };
            // re-seed a fresh arena by recompiling (the arena matches the
            // original program; mutations don't add expressions)
            let mut arena_owner = compile(src, &CompileOptions::default()).expect("compiles");
            let mutant = Arc::new(mutant);
            match check_program(&mutant, &mut arena_owner.protected.arena) {
                Ok(_) => {
                    accepted += 1;
                    // Soundness: an accepted mutant must be fault tolerant.
                    let golden = golden_run(&mutant, &cfg).unwrap_or_else(|e| {
                        panic!("checker accepted a mutant whose fault-free run diverges: {e}")
                    });
                    if golden.status != Status::Halted {
                        // accepted programs must also run clean fault-free
                        // (No False Positives + Progress)
                        panic!(
                            "checker accepted a mutant whose fault-free run ends {:?}",
                            golden.status
                        );
                    }
                    let plans = single_fault_plans(&mutant, &cfg, &golden);
                    let rep = run_plan_campaign(&mutant, &cfg, &golden, &plans);
                    if !rep.fault_tolerant() {
                        let witness = rep
                            .violations
                            .first()
                            .expect("non-tolerant report carries a counterexample");
                        let (step, value) = shrink_witness(&mutant, &cfg, &golden, witness);
                        panic!(
                            "SOUNDNESS HOLE (source {src_idx}): accepted mutant has {} SDC / {} \
                             other violations; minimal witness: {:?} at step {step} <- {value} \
                             (shrunk from step {} <- {})",
                            rep.sdc,
                            rep.other_violations,
                            witness.site,
                            witness.at_step,
                            witness.value
                        );
                    }
                }
                Err(_) => {
                    rejected += 1;
                    // Diagnostics: how many rejects correspond to real SDC?
                    // A diverging mutant (budget exhausted) counts as an
                    // obviously-right rejection, like a crashing one.
                    let Ok(golden) = golden_run(&mutant, &cfg) else {
                        rejected_with_real_sdc += 1;
                        continue;
                    };
                    if golden.status == Status::Halted {
                        let plans = single_fault_plans(&mutant, &cfg, &golden);
                        let rep = run_plan_campaign(&mutant, &cfg, &golden, &plans);
                        if rep.sdc > 0 {
                            rejected_with_real_sdc += 1;
                        }
                    } else {
                        // mutant crashes on its own: rejection obviously right
                        rejected_with_real_sdc += 1;
                    }
                }
            }
        }
    }

    // The mutation operators are designed to break typing most of the time;
    // sanity-check the fuzz actually exercised both paths.
    assert!(
        rejected > 50,
        "mutation fuzz too weak: {rejected} rejections"
    );
    assert!(
        rejected_with_real_sdc > 0,
        "at least some rejections should correspond to demonstrable SDC"
    );
    // `accepted` may be small (mutants that happen to be harmless renames);
    // every accepted one was campaign-verified above.
    println!(
        "fuzz: {accepted} accepted (all campaign-clean), {rejected} rejected \
         ({rejected_with_real_sdc} with demonstrable SDC or crashes)"
    );
}
