//! Cheap divergence probes between two machines running the same program —
//! the observability layer under the bit-parallel batched campaign engine
//! (`talft-faultsim::batch`, DESIGN.md §12).
//!
//! A batched campaign lane stays in the packed representation only while its
//! divergence from the shared golden replay is a *single same-color GPR
//! value*. These accessors let the engine (and its demotion tests) witness
//! exactly which component escaped: the GPR mask, a queue-depth delta (a
//! `stG`/`stB` executed differently), or a pc/`ir` split (control flow
//! forked). They are diagnostics over public machine state, not part of the
//! operational semantics, and make no precondition on the two machines
//! beyond sharing a program shape.

use talft_isa::{Color, Gpr, Instr, OpSrc, Reg};

use crate::state::Machine;

/// GPR `(reads, writes)` bitmasks of a machine's pending action: the
/// instruction in `ir`, or nothing for a fetch (fetches read only the pcs).
///
/// `reads` is the mask of `Instr::uses`, which over-approximates the
/// dynamic GPR reads of every operational rule for the instruction
/// (including its failure rules), and `writes` is `def()`, exactly the GPR
/// written on the non-faulting rule — the contract the golden-run liveness
/// scan and the batched engine's quiet-step test both rely on. Computed
/// without allocating: both run once per replayed step. Registers at index
/// ≥ 64 cannot be represented and are dropped from the masks; callers gate
/// on `num_gprs ≤ 64`.
#[must_use]
pub fn action_gpr_masks(ir: Option<&Instr>) -> (u64, u64) {
    let bit = |g: Gpr| if g.0 < 64 { 1u64 << g.0 } else { 0 };
    let Some(&i) = ir else {
        return (0, 0);
    };
    let reads = match i {
        Instr::Op {
            rs,
            src2: OpSrc::Reg(rt),
            ..
        } => bit(rs) | bit(rt),
        Instr::Op { rs, .. } | Instr::Ld { rs, .. } => bit(rs),
        Instr::St { rd, rs, .. } => bit(rd) | bit(rs),
        Instr::Bz { rz, rd, .. } => bit(rz) | bit(rd),
        Instr::Jmp { rd, .. } => bit(rd),
        Instr::Mov { .. } | Instr::Halt => 0,
    };
    (reads, i.def().map_or(0, bit))
}

impl Machine {
    /// Bitmask of GPR indices (< 64) where the two machines hold different
    /// `CVal`s — value *or* color. Unlike
    /// [`Machine::diverged_gprs_trace_verified`] this makes no claim about
    /// the rest of the state; it is the raw register diff.
    #[must_use]
    pub fn gpr_divergence_mask(&self, other: &Machine) -> u64 {
        let n = self.num_gprs().min(other.num_gprs()).min(64);
        let mut mask = 0u64;
        for i in 0..n {
            if self.reg(Reg::r(i)) != other.reg(Reg::r(i)) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Signed difference in store-queue depth, `self − other`. A nonzero
    /// delta means a `stG` or `stB` executed on one side but not the other —
    /// the lane has escaped the single-register divergence shape.
    #[must_use]
    #[allow(clippy::cast_possible_wrap)]
    pub fn queue_depth_delta(&self, other: &Machine) -> i64 {
        self.queue().len() as i64 - other.queue().len() as i64
    }

    /// Whether control state has forked: either pc differs or the fetched
    /// `ir` differs. Once this is true the two runs are no longer executing
    /// the same action sequence.
    #[must_use]
    pub fn pc_diverged(&self, other: &Machine) -> bool {
        self.reg(Reg::Pc(Color::Green)) != other.reg(Reg::Pc(Color::Green))
            || self.reg(Reg::Pc(Color::Blue)) != other.reg(Reg::Pc(Color::Blue))
            || self.ir() != other.ir()
    }

    /// Whether the destination latch `d` holds different `CVal`s — value
    /// *or* color (a `bzG` that latched on one side only leaves the values
    /// equal but the colors split, and `sim_val` is color-aware). This is
    /// the divergence shape the batched engine's `d` shadow tracks.
    #[must_use]
    pub fn d_diverged(&self, other: &Machine) -> bool {
        self.reg(Reg::Dst) != other.reg(Reg::Dst)
    }

    /// Bitmask of store-queue slots (bit 0 = front/newest) whose *values*
    /// differ while the queues agree on depth and every address. `None`
    /// when the queues differ in shape — depth delta, any address mismatch,
    /// or depth beyond 64 — i.e. when the divergence is not expressible as
    /// a pure value shadow (a diverged *address* changes which entry later
    /// `ldG`s forward from, so the batched engine demotes instead).
    #[must_use]
    pub fn queue_value_divergence_mask(&self, other: &Machine) -> Option<u64> {
        let q1 = self.queue();
        let q2 = other.queue();
        if q1.len() != q2.len() || q1.len() > 64 {
            return None;
        }
        let mut mask = 0u64;
        for (i, (&(a1, v1), &(a2, v2))) in q1.iter().zip(q2.iter()).enumerate() {
            if a1 != a2 {
                return None;
            }
            if v1 != v2 {
                mask |= 1 << i;
            }
        }
        Some(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use talft_isa::{assemble, CVal};

    fn arc(src: &str) -> Arc<talft_isa::Program> {
        Arc::new(assemble(src).expect("assembles").program)
    }

    const PROG: &str = "\n.data\nregion out at 4096 len 1 : int output\n.code\nmain:\n  .pre { forall m:mem; mem: m; }\n  mov r1, G 5\n  mov r2, G 4096\n  stG r2, r1\n  mov r3, B 5\n  mov r4, B 4096\n  stB r4, r3\n  halt\n";

    #[test]
    fn identical_machines_show_no_divergence() {
        let m = Machine::boot(arc(PROG));
        let n = m.clone();
        assert_eq!(m.gpr_divergence_mask(&n), 0);
        assert_eq!(m.queue_depth_delta(&n), 0);
        assert!(!m.pc_diverged(&n));
    }

    #[test]
    fn register_corruption_shows_in_gpr_mask_only() {
        let m = Machine::boot(arc(PROG));
        let mut n = m.clone();
        n.set_reg(Reg::r(3), CVal::green(99));
        assert_eq!(m.gpr_divergence_mask(&n), 1 << 3);
        assert_eq!(m.queue_depth_delta(&n), 0);
        assert!(!m.pc_diverged(&n));
        // Color-only flips count as divergence too (sim_c is color-aware).
        let mut c = m.clone();
        let old = c.reg(Reg::r(5));
        c.set_reg(Reg::r(5), CVal::blue(old.val));
        assert_eq!(m.gpr_divergence_mask(&c), 1 << 5);
    }

    #[test]
    fn d_and_queue_value_divergence_are_witnessed() {
        let m = Machine::boot(arc(PROG));
        let mut n = m.clone();
        assert!(!m.d_diverged(&n));
        assert_eq!(m.queue_value_divergence_mask(&n), Some(0));
        // A color-only `d` split counts: sim_val is color-aware.
        let old = n.reg(Reg::Dst);
        n.set_reg(Reg::Dst, CVal::blue(old.val));
        assert!(m.d_diverged(&n));
        // Value shadow: same depth, same addresses, one value differs.
        let mut a = m.clone();
        let mut b = m.clone();
        a.queue_mut().push_front((4096, 5));
        a.queue_mut().push_front((4097, 6));
        b.queue_mut().push_front((4096, 5));
        b.queue_mut().push_front((4097, 99));
        assert_eq!(a.queue_value_divergence_mask(&b), Some(1 << 0));
        // An address mismatch is not a value shadow.
        b.queue_mut()[1].0 = 5000;
        assert_eq!(a.queue_value_divergence_mask(&b), None);
        // Neither is a depth delta.
        b.queue_mut().clear();
        assert_eq!(a.queue_value_divergence_mask(&b), None);
    }

    #[test]
    fn queue_and_pc_divergence_are_detected() {
        let p = arc(PROG);
        let m = Machine::boot(Arc::clone(&p));
        let mut n = m.clone();
        // Step one side through the fetch+exec of `mov r1`: pc moves.
        crate::step(&mut n);
        assert!(m.pc_diverged(&n) || m.ir() != n.ir());
        // Run one side up to the stG (queue push) and compare depths.
        let mut q = Machine::boot(Arc::clone(&p));
        for _ in 0..6 {
            crate::step(&mut q);
        }
        assert!(q.queue_depth_delta(&m) > 0, "stG must have pushed");
        assert_eq!(m.queue_depth_delta(&q), -q.queue_depth_delta(&m));
    }

    #[test]
    fn action_masks_match_instruction_shape() {
        // A fetch (ir = None) touches no GPRs.
        assert_eq!(action_gpr_masks(None), (0, 0));
        let p = arc(PROG);
        let mut m = Machine::boot(p);
        crate::step(&mut m); // fetch: ir = mov r1, G 5
        let (reads, writes) = action_gpr_masks(m.ir());
        assert_eq!(reads, 0, "mov reads no GPRs");
        assert_eq!(writes, 1 << 1, "mov writes r1");
        for _ in 0..4 {
            crate::step(&mut m);
        }
        // ir = stG r2, r1: reads both, writes none.
        let (reads, writes) = action_gpr_masks(m.ir());
        assert_eq!(reads, (1 << 1) | (1 << 2));
        assert_eq!(writes, 0);
    }

    /// The masks are `uses()`/`def()` as bitmasks, for every instruction
    /// shape, with registers ≥ 64 dropped.
    #[test]
    fn action_masks_agree_with_uses_and_def() {
        use talft_isa::CVal;
        use talft_logic::BinOp;
        let mask = |gs: &[Gpr]| {
            gs.iter()
                .filter(|g| g.0 < 64)
                .fold(0u64, |m, g| m | 1 << g.0)
        };
        let (a, b, c, hi) = (Gpr(3), Gpr(7), Gpr(63), Gpr(64));
        let mut shapes = vec![Instr::Halt];
        for (x, y) in [(a, b), (b, c), (hi, a), (a, hi), (a, a)] {
            shapes.push(Instr::Op {
                op: BinOp::Add,
                rd: x,
                rs: y,
                src2: OpSrc::Reg(x),
            });
            shapes.push(Instr::Op {
                op: BinOp::Sub,
                rd: y,
                rs: x,
                src2: OpSrc::Imm(CVal::blue(1)),
            });
            shapes.push(Instr::Mov {
                rd: x,
                v: CVal::green(2),
            });
            for color in [Color::Green, Color::Blue] {
                shapes.push(Instr::Ld {
                    color,
                    rd: x,
                    rs: y,
                });
                shapes.push(Instr::St {
                    color,
                    rd: x,
                    rs: y,
                });
                shapes.push(Instr::Bz {
                    color,
                    rz: x,
                    rd: y,
                });
                shapes.push(Instr::Jmp { color, rd: y });
            }
        }
        for i in &shapes {
            let (reads, writes) = action_gpr_masks(Some(i));
            assert_eq!(reads, mask(&i.uses()), "reads of {i:?}");
            assert_eq!(
                writes,
                mask(&i.def().into_iter().collect::<Vec<_>>()),
                "writes of {i:?}"
            );
        }
    }
}
