//! Detect-and-restart recovery on top of TAL_FT detection (the extension
//! the paper declares orthogonal and omits — §2: "recovery is largely
//! orthogonal to detection").
//!
//! Theorem 4 is what makes naive restart *sound*: a detected fault's output
//! trace is always a prefix of the correct one, so replay-and-deduplicate
//! reconstructs exactly the fault-free stream. Run a kernel under a
//! periodic-fault storm and watch the logical output stay perfect.
//!
//! ```sh
//! cargo run --release --example recovery
//! ```

use talft::compiler::{compile, CompileOptions};
use talft::faultsim::{run_supervised, PlannedFault, SupervisorConfig, SupervisorOutcome};
use talft::isa::{Color, Reg};
use talft::machine::{run_program, FaultSite};
use talft::suite::{kernels, Scale};

fn main() {
    let kernel = &kernels(Scale::Tiny)[2]; // spec_mcf: graph relaxation
    println!("kernel: {} ({})", kernel.name, kernel.class);
    let c = compile(&kernel.source, &CompileOptions::default()).expect("compiles");

    let golden = run_program(&c.protected.program, 10_000_000);
    println!(
        "golden: {} outputs in {} steps",
        golden.trace.len(),
        golden.steps
    );

    // A storm: one upset per attempt for five attempts — program counters
    // and a general register, all guaranteed-live targets.
    let storm: Vec<PlannedFault> = (0..5)
        .map(|a| PlannedFault {
            attempt: a,
            at_step: 150 + u64::from(a) * 97,
            site: if a % 2 == 0 {
                FaultSite::Reg(Reg::Pc(Color::Green))
            } else {
                FaultSite::Reg(Reg::r(1))
            },
            value: -1 - i64::from(a),
        })
        .collect();

    // Detect and restart at a flat step budget.
    let flat = SupervisorConfig {
        max_restarts: 8,
        base_step_budget: 10_000_000,
        escalation_percent: 0,
        ..SupervisorConfig::default()
    };
    let r = run_supervised(&c.protected.program, &storm, &flat);
    println!(
        "storm of {} planned faults: outcome={:?} restarts={} total steps={}",
        storm.len(),
        r.outcome,
        r.restarts,
        r.total_steps
    );
    assert_ne!(r.outcome, SupervisorOutcome::GaveUp, "recovery must finish");
    assert!(r.restarts > 0, "the pc strikes are always detected");
    assert_eq!(r.replay_mismatches, 0, "Theorem 4's prefix property held");
    assert_eq!(r.logical_trace, golden.trace, "logical output is exact");
    println!(
        "logical output identical to the fault-free run ({} outputs) ✓",
        r.logical_trace.len()
    );
    println!("restart soundness is exactly Theorem 4's prefix guarantee.");

    // The supervisor adds operational policy: an attempt that overruns a
    // too-small step budget restarts with an escalated one, and the
    // three-way outcome separates a clean run from a rescued one.
    let sup = run_supervised(
        &c.protected.program,
        &storm,
        &SupervisorConfig {
            base_step_budget: golden.steps / 2, // deliberately too small
            escalation_percent: 100,
            ..flat
        },
    );
    assert_eq!(sup.outcome, SupervisorOutcome::Degraded);
    assert_eq!(sup.logical_trace, golden.trace);
    println!(
        "supervisor: {:?} after {} restarts (budget escalation {} -> {} steps), \
         logical output still exact ✓",
        sup.outcome,
        sup.restarts,
        sup.attempts.first().map_or(0, |a| a.budget),
        sup.attempts.last().map_or(0, |a| a.budget),
    );
}
