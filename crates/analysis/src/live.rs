//! Backward may-liveness of general-purpose registers over the [`Cfg`].
//!
//! Register sets are [`RegMask`]es (two words, up to [`MAX_GPRS`] GPRs), so
//! the analysis bails out (`None`) only on programs wider than that — the
//! zap classifier then refuses to claim anything. At instructions whose
//! blue target could not be resolved, *everything* is conservatively live.

use talft_isa::{Instr, Program};

use crate::cfg::Cfg;
use crate::mask::{RegMask, MAX_GPRS};

/// Per-instruction live-register masks.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live on entry to each instruction (index `addr - 1`).
    pub live_in: Vec<RegMask>,
    /// Registers live on exit.
    pub live_out: Vec<RegMask>,
}

#[inline]
fn ix(addr: i64) -> usize {
    (addr - 1) as usize
}

pub(crate) fn uses_mask(i: &Instr) -> RegMask {
    i.uses().iter().fold(RegMask::EMPTY, |mut m, g| {
        m.set(g.0);
        m
    })
}

pub(crate) fn def_mask(i: &Instr) -> RegMask {
    i.def().map_or(RegMask::EMPTY, |g| RegMask::bit(g.0))
}

/// Run backward liveness to a fixpoint. `None` when `num_gprs` exceeds
/// [`MAX_GPRS`].
#[must_use]
pub fn liveness(program: &Program, cfg: &Cfg) -> Option<Liveness> {
    if program.num_gprs > MAX_GPRS {
        return None;
    }
    let all = RegMask::all(program.num_gprs);
    let n = cfg.n;
    let mut live_in = vec![RegMask::EMPTY; n];
    let mut live_out = vec![RegMask::EMPTY; n];
    let mut changed = true;
    while changed {
        changed = false;
        for a in (1..=n as i64).rev() {
            let i = &program.instrs[ix(a)];
            let mut out = if cfg.unknown_target[ix(a)] {
                all
            } else {
                RegMask::EMPTY
            };
            for &s in &cfg.succs[ix(a)] {
                out |= live_in[ix(s)];
            }
            let inn = uses_mask(i) | (out & !def_mask(i));
            if out != live_out[ix(a)] || inn != live_in[ix(a)] {
                live_out[ix(a)] = out;
                live_in[ix(a)] = inn;
                changed = true;
            }
        }
    }
    Some(Liveness { live_in, live_out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use talft_isa::assemble;

    #[test]
    fn store_operands_stay_live_until_consumed() {
        let src = r#"
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
        let asm = assemble(src).expect("assembles");
        let cfg = Cfg::build(&asm.program);
        let live = liveness(&asm.program, &cfg).expect("few registers");
        // r1 is live from its def (addr 1) through the stG at addr 3.
        assert!(live.live_in[1].test(1), "r1 live entering addr 2");
        assert!(live.live_in[2].test(1), "r1 live entering stG");
        // ...and dead right after the store consumed it.
        assert!(!live.live_out[2].test(1), "r1 dead after stG");
        // Nothing is live entering halt.
        assert!(live.live_in[6].is_empty());
    }

    #[test]
    fn wide_programs_get_real_masks() {
        // r100 lives past the 64-bit word boundary; liveness must track it.
        let src = r#"
.gprs 128
.data
region out at 4096 len 1 : int output
.code
main:
  .pre { forall m:mem; mem: m; }
  mov r100, G 5
  mov r2, G 4096
  stG r2, r100
  mov r101, B 5
  mov r4, B 4096
  stB r4, r101
  halt
"#;
        let asm = assemble(src).expect("assembles");
        assert!(asm.program.num_gprs > 64);
        let cfg = Cfg::build(&asm.program);
        let live = liveness(&asm.program, &cfg).expect("wide masks cover 128 GPRs");
        assert!(live.live_in[2].test(100), "r100 live entering stG");
        assert!(!live.live_out[2].test(100), "r100 dead after stG");
    }
}
