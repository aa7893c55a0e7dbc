//! Quiet-stretch fixtures shared by `batch_demotion.rs` and
//! `batch_differential.rs`. Each plan keeps a lane in flight across a long
//! run of replay steps that touch none of its diverged state — the steps
//! the batched engine's quiet-step fast path walks without running the
//! settle scan or `Shadow::advance` — and probes one edge of that path.

use std::sync::Arc;

use talft_faultsim::{FaultPlan, Strike};
use talft_isa::{assemble, Program, Reg};
use talft_machine::{step, FaultSite, Machine};

/// A 150-iteration protected countdown loop (~3000 steps) between a
/// prologue that materializes a store pair's operands plus an untaken
/// `bz` pair, and an epilogue that commits the store pair.
const LOOP: &str = "
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r1, G 5
  mov r2, G 4096
  mov r3, B 5
  mov r4, B 4096
  mov r5, G @done
  mov r6, B @done
  mov r7, G 1
  mov r8, B 1
  bzG r7, r5
  bzB r8, r6
  mov r10, G 150
  mov r11, B 150
loop:
  .pre { forall m:mem; mem: m; }
  sub r10, r10, G 1
  sub r11, r11, B 1
  mov r12, G @done
  mov r13, B @done
  bzG r10, r12
  bzB r11, r13
  mov r12, G @loop
  mov r13, B @loop
  jmpG r12
  jmpB r13
done:
  .pre { forall m:mem; mem: m; }
  stG r2, r1
  stB r4, r3
  halt
";

/// Straight-line code (no `jmp`/`bz`, so a `d` shadow survives it): ALU
/// filler, a complete store pair, more filler, and a second store pair
/// whose window holds a few more filler steps.
const LINE: &str = "
.data
region out at 4096 len 2 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r20, G 0
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  mov r1, G 5
  mov r2, G 4096
  mov r3, B 5
  mov r4, B 4096
  stG r2, r1
  stB r4, r3
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  mov r1, G 6
  mov r2, G 4097
  mov r3, B 6
  mov r4, B 4097
  stG r2, r1
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  add r20, r20, G 1
  stB r4, r3
  halt
";

/// A fixture program and its quiet-stretch plans, by name.
pub struct QuietFixture {
    /// The program every plan runs against.
    pub program: Arc<Program>,
    /// `(case, plan)` pairs.
    pub plans: Vec<(&'static str, FaultPlan)>,
}

fn program(src: &str) -> Arc<Program> {
    Arc::new(assemble(src).expect("fixture assembles").program)
}

/// First golden step at which `pred` holds.
fn first_step(program: &Arc<Program>, pred: impl Fn(&Machine) -> bool) -> u64 {
    let mut m = Machine::boot(Arc::clone(program));
    while !pred(&m) {
        assert!(m.status().is_running(), "fixture never reaches the state");
        step(&mut m);
    }
    m.steps()
}

fn strike(at_step: u64, site: FaultSite, value: i64) -> Strike {
    Strike {
        at_step,
        site,
        value,
    }
}

/// The quiet-stretch cases:
///
/// * `live_untouched` — a blue store operand corrupted before the loop
///   stays live, and untouched, for ~3000 steps until the `stB` detects it;
/// * `death_then_quiet` — a register whose last read (the untaken `bzG`'s
///   target) is followed directly by quiet steps: it must settle at its
///   death step, not ride the loop to halt;
/// * `d_shadow_across_pop` — a `d` shadow carried across straight-line
///   code holding a whole store pair (a skipped `stB` pop), then a
///   queue-value strike inside the second pair's window, resolved at its
///   `stB`;
/// * `second_strike_in_stretch` — a k=2 plan whose second strike (the green
///   loop counter) lands in the middle of the loop the first strike's lane
///   is walking quietly.
pub fn quiet_fixtures() -> [QuietFixture; 2] {
    let lp = program(LOOP);
    let prologue_done = first_step(&lp, |m| m.rval(Reg::r(8)) == 1);
    let mid_loop = first_step(&lp, |m| m.rval(Reg::r(10)) == 90) + 5;
    let blue_value = strike(prologue_done, FaultSite::Reg(Reg::r(3)), 9);
    let loops = QuietFixture {
        program: Arc::clone(&lp),
        plans: vec![
            (
                "live_untouched",
                FaultPlan::single(prologue_done, FaultSite::Reg(Reg::r(3)), 9),
            ),
            (
                "death_then_quiet",
                FaultPlan::single(prologue_done, FaultSite::Reg(Reg::r(5)), 4),
            ),
            (
                "second_strike_in_stretch",
                FaultPlan::new(vec![
                    blue_value,
                    strike(mid_loop, FaultSite::Reg(Reg::r(10)), 7),
                ]),
            ),
        ],
    };
    let line = program(LINE);
    let second_window = first_step(&line, |m| !m.queue().is_empty() && m.rval(Reg::r(1)) == 6);
    let lines = QuietFixture {
        program: line,
        plans: vec![(
            "d_shadow_across_pop",
            FaultPlan::new(vec![
                strike(2, FaultSite::Reg(Reg::Dst), 5),
                strike(second_window + 2, FaultSite::QueueVal(0), -1),
            ]),
        )],
    };
    [loops, lines]
}
